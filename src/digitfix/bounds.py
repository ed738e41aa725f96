"""Derived search ceilings that make the exhaustive searches provably complete.

Every bound here is established with integer arithmetic only.  Where a real
constant is needed (Stirling's lower bound for the factorial cutoff), a
rational upper approximation is used so the comparison stays exact and the
resulting ceiling stays sound.

Three shapes of result:

* :func:`hardy_bound` - a block-count threshold M and value ceiling for the
  digit-block summation equation, from the geometric-versus-linear growth of
  ``b**(k(m-1))`` against ``m * s_k``.
* :func:`wells_cutoff` / :func:`dudeney_cutoff` - a cutoff N with a recorded
  certificate such that no fixed point exists at or above N.
* :func:`powersum_bound` - coarse ceiling ``b**(p*p)`` plus the largest digit
  sum ``s_max`` any fixed point of n = digitsum(n)**p can have.
"""

from ._record import Record
from .digitops import _check_base, _check_width, digit_count
from .errors import ConfigurationError, UnsupportedFunctionError
from .families import decimal_str
from .funcatalog import FunctionSpec, evaluate, fibonacci, images

__all__ = [
    "BoundReport",
    "CutoffReport",
    "PowerSumBound",
    "dudeney_cutoff",
    "hardy_bound",
    "powersum_bound",
    "wells_cutoff",
]

# Upper rational bound on e = 2.71828182845904523536..., as (numerator,
# denominator); an over-approximation keeps the derived factorial cutoff on the
# sound side.
_E_HI = (271828182845904524, 10**17)

# Largest block value table we will enumerate to find max F over a block.
_POLY_MAX_SCAN = 1 << 16
_AUDIT_WINDOW = 50  # values replayed into a digit-sum cutoff's witness list


class BoundReport(Record):
    """A derived ceiling for the block-summation search, with its derivation.

    ``s_k`` is the maximum of F over a single block, ``block_threshold`` the
    least block count M for which ``b**(k(m-1)) > m*s_k`` (so no solution has
    M or more blocks), and ``n_max = (M-1) * s_k`` the inclusive value ceiling.
    """

    __slots__ = ("s_k", "block_threshold", "n_max", "justification")


class CutoffReport(Record):
    """A cutoff N: no fixed point of the family exists at or above N.

    ``witnesses`` holds (n, lhs, rhs) triples recorded at the decision
    boundary; their meaning depends on the family (documented at each call
    site).  Method ``analytic``, the only one, means a persistence certificate
    was checked in integer arithmetic.
    """

    __slots__ = ("cutoff", "method", "witnesses")


class PowerSumBound(Record):
    # the blunt analytic ceiling b**(p*p), and the largest digit sum any fixed point can have
    __slots__ = ("coarse", "s_max")


def _max_over_block(spec: FunctionSpec, radix: int) -> int:
    """Exact max of F over block values 0..radix-1.

    All catalog kinds except polynomials are nondecreasing from x = 2 on, so
    checking 0, 1 and the top value suffices.  Polynomials get a full scan,
    guarded so a huge block width cannot silently take forever.
    """
    if spec.kind == "fibonacci":
        raise UnsupportedFunctionError(
            "fibonacci starts at 1 and has no value for the digit 0; "
            "it cannot be summed over digit blocks"
        )
    if spec.kind == "polynomial":
        if radix > _POLY_MAX_SCAN:
            raise ConfigurationError(
                f"block range {radix} too large to locate a polynomial maximum"
            )
        return max(evaluate(spec, v) for v in range(radix))
    return max(evaluate(spec, 0), evaluate(spec, 1), evaluate(spec, radix - 1))


def hardy_bound(spec: FunctionSpec, base: int, width: int = 1) -> BoundReport:
    """Value ceiling for n = sum of F over the width-``width`` blocks of n.

    An m-block solution satisfies both n <= m*s_k and n >= b**(k(m-1)) (the
    top block is nonzero), so once the power passes m*s_k no solution with
    that many blocks exists.  The predicate persists: b**k >= 2 gives
    b**(km) >= 2*b**(k(m-1)) > 2m*s_k >= (m+1)*s_k for m >= 1.  The walk for
    M starts at m = digit_count(s_k) in radix b**k, not at m = 1: every m
    below it has b**(k(m-1)) <= s_k <= m*s_k, so none of them can be M.
    """
    _check_base(base)
    _check_width(width)
    radix = base**width
    s_k = _max_over_block(spec, radix)
    # decimal_str: the numbers can pass the interpreter's int-to-str digit limit
    r, s = decimal_str(radix), decimal_str(s_k)
    lines = [f"s = max F(v) for v in [0, {r}) = {s}"]
    # no m below digit_count(s_k) can be M (radix**(m-1) <= s_k <= m*s_k
    # there); power = radix**(m-1), carried from step to step
    m = digit_count(s_k, radix)
    power = radix ** (m - 1)
    while power <= m * s_k:
        m += 1
        power *= radix
    if m > 1:
        prev = m - 1
        lines.append(
            f"m = {prev}: {r}^{prev - 1} = {decimal_str(power // radix)}"
            f" <= {prev}*{s} = {decimal_str(prev * s_k)}"
        )
    lines.append(
        f"m = {m}: {r}^{m - 1} = {decimal_str(power)}"
        f" > {m}*{s} = {decimal_str(m * s_k)}"
    )
    n_max = (m - 1) * s_k
    lines.append(
        f"no solution has {m} or more blocks; ceiling = {m - 1}*{s} = {decimal_str(n_max)}"
    )
    return BoundReport(s_k=s_k, block_threshold=m, n_max=n_max, justification=tuple(lines))


# -- count-of-digits fixed points -------------------------------------------


def _factorial_cutoff(base: int) -> int:
    """The least integer above b*e, against a rational upper bound on e."""
    return (base * _E_HI[0]) // _E_HI[1] + 1


def wells_cutoff(spec: FunctionSpec, base: int) -> CutoffReport:
    """Least established N with no n >= N satisfying n = digit_count(F(n)).

    Per kind, one of the two sufficient conditions is certified in integer
    arithmetic: either F(n) >= b**n from N on, or F(n) < b**(n-1) from N on.
    The witnesses are (v, F(v), b**v) on the first side and (v, F(v),
    b**(v-1)) on the second, for v = N and N + 1.

    * self_power: n >= b implies n**n >= b**n, so N = b.
    * factorial: n! >= e*(n/e)**n, so n >= e*b implies n! >= b**n; N is the
      least integer above b*e computed against a rational upper bound on e.
    * subfactorial: scan for the least N >= b with !N >= b**N; persistence
      from !(n+1) = n*(!n + !(n-1)) >= n*!n >= b*b**n.
    * exp_base c: c >= b gives N = 1 (first condition holds everywhere);
      c < b scans for b*c**N < b**N, and the factor c/b < 1 persists.
    * fibonacci: two consecutive values below b**(n-1), b**(n-2) persist
      because each step at most doubles and b >= 2.
    * power / polynomial: majorant C*n**d with C the sum of absolute
      coefficient values; once (n+1)**d <= b*n**d (a ratio that only shrinks)
      and C*N**d < b**(N-1), the condition persists by induction.
    """
    _check_base(base)
    kind = spec.kind
    # lag 0: F(n) >= b**n from N on; lag 1: F(n) < b**(n-1) from N on
    if kind == "self_power":
        n, lag = base, 0
    elif kind == "factorial":
        n, lag = _factorial_cutoff(base), 0
    elif kind == "subfactorial":
        n, lag = max(base, 2), 0
        power = base**n
        for value in images(spec, n):
            if value >= power:
                break
            n += 1
            power *= base
    elif kind == "exp_base" and spec.expbase >= base:
        n, lag = 1, 0
    elif kind == "exp_base":
        n, lag = 1, 1
        cn, bn = spec.expbase, base
        while base * cn >= bn:  # i.e. c**n >= b**(n-1)
            n += 1
            cn *= spec.expbase
            bn *= base
    elif kind == "fibonacci":
        n, lag = 2, 1
        while not (fibonacci(n) < base ** (n - 1) and fibonacci(n + 1) < base**n):
            n += 1
    elif kind in ("power", "polynomial"):
        cmaj, degree = _poly_majorant(spec)
        n, lag = 1, 1
        while (n + 1) ** degree > base * n**degree:
            n += 1
        while cmaj * n**degree >= base ** (n - 1):
            n += 1
    else:
        raise UnsupportedFunctionError(
            f"no count-of-digits cutoff certificate for kind {kind!r}"
        )
    witnesses = tuple((v, evaluate(spec, v), base ** (v - lag)) for v in (n, n + 1))
    return CutoffReport(n, "analytic", witnesses)


# -- sum-of-digits fixed points ----------------------------------------------


def _poly_majorant(spec: FunctionSpec) -> tuple:
    """(C, d) with F(n) <= C * n**d for all n >= 1; C is an int or a Fraction."""
    if spec.kind not in ("power", "polynomial"):
        raise UnsupportedFunctionError(
            f"{spec.text} grows too fast for a digit-sum cutoff; supply a cap"
        )
    if spec.kind == "power":
        return 1, spec.exponent
    return sum(abs(c) for c in spec.coeffs), len(spec.coeffs) - 1


def _digit_length_threshold(spec: FunctionSpec, base: int) -> int:
    """Smallest power of ``base`` above which n > (b-1)*digit_count(F(n)) always.

    For n of digit length L: n >= b**(L-1) while digit_count(F(n)) is at most
    D(ceil(C)) + d*L, since F(n) <= C*n**d < ceil(C)*b**(d*L).  Once the power
    beats (b-1)*(D_C + d*L) it keeps beating it (doubling per extra digit
    covers the +d on the right).  Returns b**(L0 - 1).
    """
    cmaj, degree = _poly_majorant(spec)
    c_int = -(-cmaj.numerator // cmaj.denominator)  # ceil of the majorant
    d_c = digit_count(max(c_int, 1), base)
    level = 1
    while base ** (level - 1) <= (base - 1) * (d_c + degree * level):
        level += 1
    return base ** (level - 1)


def _last_digit_sum_fit(spec: FunctionSpec, base: int) -> int:
    """Largest n with n <= (b-1)*digit_count(F(n)), or 0; none fits past the threshold."""
    last_fit = 0
    for n in range(1, _digit_length_threshold(spec, base)):
        if n <= (base - 1) * digit_count(evaluate(spec, n), base):
            last_fit = n
    return last_fit


def dudeney_cutoff(spec: FunctionSpec, base: int) -> CutoffReport:
    """Least N with n > (b-1)*digit_count(F(n)) for every n >= N.

    The inequality is the integer necessary condition for n = digitsum(F(n)):
    the digit sum of F(n) can reach at most (b-1) per digit.  Requires
    polynomial growth; everything above the analytic digit-length threshold is
    certified, and the region below it is scanned exhaustively, so the N
    returned is minimal and sound.  ``_AUDIT_WINDOW`` successes after N are
    replayed into the witness list as an audit trail.
    """
    _check_base(base)
    cutoff = _last_digit_sum_fit(spec, base) + 1
    witnesses = []
    for n in range(max(1, cutoff - 1), cutoff + _AUDIT_WINDOW):
        witnesses.append((n, n, (base - 1) * digit_count(evaluate(spec, n), base)))
    return CutoffReport(cutoff, "analytic", tuple(witnesses))


def powersum_bound(p: int, base: int) -> PowerSumBound:
    """Bounds for fixed points of n = digitsum(n)**p.

    ``coarse`` is the blunt analytic ceiling b**(p*p).  Every fixed point is
    s**p for s = digitsum(n), and s must satisfy s <= (b-1)*digit_count(s**p);
    ``s_max`` is the largest such s, found by exhaustive scan below the same
    certified digit-length threshold used for the digit-sum cutoff.  For tiny
    bases s_max**p can exceed ``coarse``; s_max**p is the ceiling that follows
    directly from the digit-count inequality, so searches rely on it.
    """
    if p < 2:
        raise ConfigurationError(f"power-sum exponent must be at least 2, got {p}")
    _check_base(base)
    s_max = _last_digit_sum_fit(FunctionSpec.power(p), base)  # s = 1 always fits
    return PowerSumBound(coarse=base ** (p * p), s_max=s_max)
