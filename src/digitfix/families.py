"""Constructive infinite families of digit identities, verified exactly.

Two generators:

* :func:`piezas_generate` - concatenated-square pairs over the Fermat primes
  17, 257 and 65537.  With fe = 2**(2**i) + 1 prime, a = 2**(2**(i-1)) and
  B = 10**(l*u) for l = (fe-1)/4 and u = 4t+3, the pair
  x = a(aB-1)/fe, y = a(a+B)/fe satisfies x*B + y = x**2 + y**2 because
  a**2 + 1 = fe makes both x**2 + y**2 and x*B + y collapse to
  a**2(B**2+1)/fe.  Divisibility by fe is exact for every admitted (i, t);
  a failed division would be a defect, not an input error.
* :func:`vitalis_generate` - the cube family seeded by 153: one followed by
  l sixes, five followed by l zeros, three followed by l threes; the cubes of
  the blocks sum to their concatenation for every l.

The x side always fills its digit field exactly; the y side is smaller than
the field by a fixed margin when a/fe < 1/10 (one digit for index 3, two for
index 4), so the concatenation reading pads y with leading zeros.

Members run to hundreds of thousands of digits (index 4, t = 2: 180 224), and
the records format prints them in full.  The command line therefore asks for
:func:`piezas_numerals`, which builds, verifies and prints the member in
exact ``decimal`` arithmetic: in base 10, 10**L is a shift, the squares of
the check use a number-theoretic transform, and the numerals need no base
conversion (index 4, t = 2 in about 40 ms, against about 0.3 s for the int
member plus its conversion).  :func:`piezas_generate` runs the same
arithmetic and checks on ints.  For other huge ints, :func:`decimal_str`
renders by binary splitting over ``decimal.Decimal`` in O(M(n) log n), and
the digit count behind :func:`elide_numeral` costs one power of ten, O(M(n)),
where M(n) is the cost of multiplying n-digit numbers; the interpreter's own
str(int) and a count by long division are O(n**2).
"""

from ._record import Record
from .digitops import digit_count
from .errors import ConfigurationError

__all__ = [
    "ConcatSquarePair",
    "PiezasParams",
    "piezas_generate",
    "reflect_pair",
    "verify_concat_square",
    "vitalis_generate",
]

FERMAT_PRIMES = {2: 17, 3: 257, 4: 65537}


class PiezasParams(Record):
    """Derived parameters of one member of the Fermat-prime family.

    ``fe`` is the Fermat prime 2**(2**i) + 1, ``a`` = 2**(2**(i-1)) is one
    less than the previous Fermat number, ``l`` = (fe - 1) / 4 and ``u`` = 4t + 3.
    """

    __slots__ = ("fermat_index", "t", "fe", "a", "l", "u")

    @classmethod
    def from_index(cls, fermat_index: int, t: int) -> "PiezasParams":
        if fermat_index not in FERMAT_PRIMES:
            raise ConfigurationError(
                f"fermat index must be one of {sorted(FERMAT_PRIMES)}, got {fermat_index}"
            )
        if t < 0:
            raise ConfigurationError(f"t must be a natural number, got {t}")
        fe = FERMAT_PRIMES[fermat_index]
        return cls(
            fermat_index=fermat_index,
            t=t,
            fe=fe,
            a=2 ** (2 ** (fermat_index - 1)),
            l=(fe - 1) // 4,
            u=4 * t + 3,
        )

    @property
    def block_length(self) -> int:
        return self.l * self.u


class ConcatSquarePair(Record):
    """Equal-field pair with x*10**block_length + y == x**2 + y**2."""

    __slots__ = ("x", "y", "block_length")


def _piezas_member(params: PiezasParams, big):
    """x and y of one member, checked; ``big`` is 10**L as an int or as an
    exact ``Decimal``, and the arithmetic runs in that type.

    In ``decimal`` 10**L is a shift and large products use a number-theoretic
    transform, so the member comes out already in base 10.
    """
    x, rem_x = divmod(params.a * (params.a * big - 1), params.fe)
    y, rem_y = divmod(params.a * (params.a + big), params.fe)
    if rem_x or rem_y:
        raise RuntimeError(
            f"non-exact division by {params.fe} for index {params.fermat_index}, t={params.t}; "
            "this violates the family's divisibility invariant"
        )
    if not (0 <= x < big and 0 <= y < big and x * big + y == x * x + y * y):
        raise RuntimeError(
            f"generated pair for index {params.fermat_index}, t={params.t} failed verification"
        )
    if 10 * x < big:
        raise RuntimeError("x side must fill its digit field exactly")
    return x, y


def piezas_generate(fermat_index: int, t: int) -> ConcatSquarePair:
    """Generate and fully verify one Fermat-prime concatenated-square pair."""
    params = PiezasParams.from_index(fermat_index, t)
    x, y = _piezas_member(params, 10**params.block_length)
    return ConcatSquarePair(x, y, params.block_length)


def piezas_numerals(fermat_index: int, t: int) -> tuple[str, str, int]:
    """The decimal numerals of one Fermat-prime pair and its block length L.

    Returns the same member as :func:`piezas_generate`, with the same checks,
    as ``(str(x), str(y), L)``, but built, verified and printed in exact
    ``decimal`` arithmetic: no L-digit int is ever made, squared or
    converted.  The work runs in a private exact context; the caller's
    context is neither read nor changed.
    """
    import decimal

    params = PiezasParams.from_index(fermat_index, t)
    with decimal.localcontext(_exact_context()):
        x, y = _piezas_member(params, decimal.Decimal(1).scaleb(params.block_length))
        return str(x), str(y), params.block_length


def verify_concat_square(x: int, y: int, block_length: int) -> bool:
    """True exactly when x*10**block_length + y == x**2 + y**2."""
    field = 10**block_length
    if not (0 <= x < field and 0 <= y < field):
        raise ValueError(f"operands must have at most {block_length} digits")
    return x * field + y == x * x + y * y


def reflect_pair(x: int, block_length: int) -> int:
    """The field reflection 10**block_length - x of a pair's left side."""
    field = 10**block_length
    if not 1 <= x < field:
        raise ValueError(f"x must lie in [1, {field}), got {x}")
    return field - x


def vitalis_generate(l: int) -> tuple[int, int, int, int]:
    """The cube-family member with l repeated digits: (x, y, z, concatenation).

    x = 1 followed by l sixes, y = 5 followed by l zeros, z = 3 followed by
    l threes; returns (x, y, z, n) with n the concatenation and the identity
    x**3 + y**3 + z**3 == n checked before returning.
    """
    if l < 0:
        raise ConfigurationError(f"repeat count must be a natural number, got {l}")
    tens = 10**l
    repunit = (tens - 1) // 9
    x = tens + 6 * repunit
    y = 5 * tens
    z = 3 * (10 * repunit + 1)  # repdigit 3 of length l + 1
    width = 10 ** (l + 1)
    n = (x * width + y) * width + z
    if x**3 + y**3 + z**3 != n:
        raise RuntimeError(f"cube family identity failed at l={l}")
    return x, y, z, n


# Below 2**2126 a numeral has at most 640 digits, the least int-to-str limit
# CPython accepts, so str() is safe there whatever the limit is set to.
_PLAIN_BITS = 2126


def _exact_context():
    """A fresh ``decimal`` context in which every integer operation is exact:
    the largest precision and exponent range, with Inexact trapped so any
    rounding raises instead of returning a wrong digit.  It is built from
    nothing, so the caller's context is never read."""
    import decimal

    return decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow, decimal.Inexact],
    )


def decimal_str(n: int) -> str:
    """Decimal numeral of n at any size, with no int-to-str limit in the way.

    Small values use str().  Larger ones are split by bits, n = high * 2**w +
    low, each half converted the same way into a ``decimal.Decimal`` and
    joined with a cached Decimal(2)**w (Brent and Zimmermann, *Modern
    Computer Arithmetic* 1.7).  The decimal module multiplies large
    coefficients in subquadratic time, so the conversion costs about
    O(M(n) log n), where str() of an int costs O(n**2) before Python 3.12.
    The work runs in :func:`_exact_context`.  ``decimal`` is imported here,
    on the first numeral too long for str().
    """
    if n.bit_length() <= _PLAIN_BITS:
        return str(n)
    import decimal

    D = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}

    def convert(v: int, bits: int) -> decimal.Decimal:
        if bits <= _PLAIN_BITS:
            return D(v)
        w = bits >> 1
        high = v >> w
        if w not in powers:
            powers[w] = D(2) ** w
        return convert(high, bits - w) * powers[w] + convert(v - (high << w), w)

    with decimal.localcontext(_exact_context()):
        numeral = str(convert(abs(n), n.bit_length()))
    return numeral if n > 0 else "-" + numeral


def elide_numeral(n: int | str, threshold: int = 1000) -> str:
    """Decimal rendering that shortens a numeral longer than ``threshold`` digits.

    ``n`` is a natural number, as an int or as its decimal numeral.  A long
    numeral prints as head...tail (N digits), with 12 digits at each end; one
    of 24 digits or fewer always prints in full, since head and tail would
    cover it.  For an int, head and tail are extracted arithmetically, so no
    full decimal string is built.
    """
    if threshold < 0:
        raise ValueError(f"elision threshold must be a natural number, got {threshold}")
    if isinstance(n, str):
        digits = len(n)
        if digits <= max(threshold, 24):
            return n
        head, tail = n[:12], n[-12:]
    else:
        digits = digit_count(n, 10)
        if digits <= max(threshold, 24):
            return decimal_str(n)
        head, tail = str(n // 10 ** (digits - 12)), f"{n % 10**12:012d}"
    return f"{head}...{tail} ({digits} digits)"
