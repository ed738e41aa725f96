"""Catalog of the digit/argument functions the searches plug in.

A :class:`FunctionSpec` is a small declarative value describing one function
F: N -> N (a power, a self-power, an exponential with fixed base, factorial,
subfactorial, Fibonacci, or a rational-coefficient polynomial).  Evaluation is
exact big-integer arithmetic.

Specs have a canonical text form (``pow:5``, ``selfpow``, ``selfpow:0``,
``expbase:4``, ``factorial``, ``subfactorial``, ``fib``, ``poly:1,0,0``) that
round-trips through :func:`parse_spec`.  ``selfpow`` takes 0**0 = 1 and
``selfpow:0`` takes 0**0 = 0, so the text alone names F.  Polynomial
coefficients are listed leading-first, so ``poly:1,0,0`` is x^2; coefficients
may be fractions such as ``1/2``.  Only polynomial specs import ``fractions``,
when one is built.

Each kind is one row of ``_KINDS``: its text name, the field it reads, how
its summands print and how a walk steps it.  Only :func:`evaluate` and the
constructors and checks of :class:`FunctionSpec` name kinds of their own.

Nothing is cached: :func:`evaluate` computes each value afresh, and a walk
over consecutive arguments steps along :func:`images` instead.
"""

import math
from itertools import count

from ._record import Record
from .errors import ConfigurationError

__all__ = [
    "FunctionSpec",
    "evaluate",
    "factorial",
    "fibonacci",
    "parse_spec",
    "subfactorial",
]


class _Kind(Record):
    """One row of ``_KINDS``: ``name`` begins the spec text; ``field`` is the
    one field the kind reads besides ``kind``, which no other kind may set and
    the text gives after a colon unless it holds its default; ``read`` turns
    that text back into the field, or into None where the kind never takes
    it; ``term`` prints one summand F(x); ``step`` gives F(x) from F(x - 1)
    with one multiplication, where the kind has one."""

    _defaults = {"field": None, "read": None, "step": None}
    __slots__ = ("name", "term", *_defaults)


_KINDS = {
    "power": _Kind("pow", "{x}^{spec.exponent}", "exponent", int),
    "self_power": _Kind("selfpow", "{x}^{x}", "zero_self_power", {"0": 0}.get),
    "exp_base": _Kind(
        "expbase", "{spec.expbase}^{x}", "expbase", int, lambda spec, x, v: spec.expbase * v
    ),
    "factorial": _Kind("factorial", "{x}!", step=lambda spec, x, v: x * v),
    "subfactorial": _Kind("subfactorial", "!{x}", step=lambda spec, x, v: _next_subfactorial(x, v)),
    "fibonacci": _Kind("fib", "F({x})"),
    "polynomial": _Kind("poly", "p({x})", "coeffs", lambda arg: arg.split(",")),
}


class FunctionSpec(Record):
    _defaults = {
        "exponent": None,  # power: F(x) = x**exponent
        "expbase": None,  # exp_base: F(x) = expbase**x
        "coeffs": None,  # polynomial: Fractions, leading first
        "zero_self_power": 1,  # value assigned to 0**0 for self_power
    }
    __slots__ = ("kind", *_defaults)

    def _check(self) -> None:
        kind, exponent, expbase, coeffs, zero_self_power = self._fields()
        if kind not in _KINDS:
            raise ConfigurationError(f"unknown function kind {kind!r}")
        if kind == "power" and (exponent is None or exponent < 1):
            raise ConfigurationError("power exponent must be an integer >= 1")
        if kind == "exp_base" and (expbase is None or expbase < 2):
            raise ConfigurationError("exponential base must be an integer >= 2")
        if kind == "polynomial" and not coeffs:
            raise ConfigurationError("polynomial needs at least one coefficient")
        if zero_self_power not in (0, 1):
            raise ConfigurationError("zero_self_power must be 0 or 1")
        own = _KINDS[kind].field
        for name, default in self._defaults.items():
            if name != own and getattr(self, name) != default:
                raise ConfigurationError(f"a {kind} spec takes no {name}")

    # -- constructors ------------------------------------------------------
    # Each passes every field in order, the fast path of Record's constructor.

    @classmethod
    def power(cls, exponent: int) -> "FunctionSpec":
        return cls("power", exponent, None, None, 1)

    @classmethod
    def self_power(cls, zero_self_power: int = 1) -> "FunctionSpec":
        return cls("self_power", None, None, None, zero_self_power)

    @classmethod
    def exp_base(cls, base: int) -> "FunctionSpec":
        return cls("exp_base", None, base, None, 1)

    @classmethod
    def factorial(cls) -> "FunctionSpec":
        return cls("factorial", None, None, None, 1)

    @classmethod
    def subfactorial(cls) -> "FunctionSpec":
        return cls("subfactorial", None, None, None, 1)

    @classmethod
    def fibonacci(cls) -> "FunctionSpec":
        return cls("fibonacci", None, None, None, 1)

    @classmethod
    def polynomial(cls, coeffs) -> "FunctionSpec":
        from fractions import Fraction

        return cls("polynomial", None, None, tuple(Fraction(c) for c in coeffs), 1)

    # -- presentation ------------------------------------------------------

    @property
    def text(self) -> str:
        """Canonical text form; ``parse_spec(spec.text) == spec``."""
        row = _KINDS[self.kind]
        if row.field is None or getattr(self, row.field) == self._defaults[row.field]:
            return row.name
        value = getattr(self, row.field)
        return f"{row.name}:{','.join(map(str, value)) if isinstance(value, tuple) else value}"

    def term(self, x: int) -> str:
        """Render one summand F(x) for display, e.g. ``4!`` or ``5^5``."""
        return _KINDS[self.kind].term.format(x=x, spec=self)

    def __call__(self, x: int) -> int:
        return evaluate(self, x)


def parse_spec(text: str) -> FunctionSpec:
    """Parse the canonical spec grammar; anything else raises ConfigurationError.

    A name alone leaves its kind's field at the default, so it names a spec
    only where that default is a value; after a colon, the row reads the field.
    """
    head, sep, arg = text.partition(":")
    for kind, row in _KINDS.items():
        if row.name != head:
            continue
        make = getattr(FunctionSpec, kind)  # each constructor bears its kind's name
        if not sep and (row.field is None or FunctionSpec._defaults[row.field] is not None):
            return make()
        if sep and row.read:
            try:
                value = row.read(arg)
                if value is not None:
                    return make(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigurationError(f"bad function spec {text!r}: {exc}") from exc
    raise ConfigurationError(f"bad function spec {text!r}")


def factorial(x: int) -> int:
    """x! exactly; 0! == 1."""
    if x < 0:
        raise ValueError(f"factorial is defined for x >= 0, got {x}")
    return math.factorial(x)


def _next_subfactorial(x: int, previous: int) -> int:
    """!x from !(x-1) by the recurrence !x = x * !(x-1) + (-1)**x."""
    return x * previous - 1 if x & 1 else x * previous + 1


def _subfactorial_steps(lo: int, hi: int) -> tuple[int, int]:
    """(A, C) with v -> A*v + C the steps of :func:`_next_subfactorial` for
    k = lo .. hi - 1 (hi > lo), composed pairwise: binary splitting, so the
    big products meet numbers of equal size instead of one k at a time."""
    if hi - lo == 1:
        return lo, _next_subfactorial(lo, 0)
    mid = (lo + hi) // 2
    a1, c1 = _subfactorial_steps(lo, mid)
    a2, c2 = _subfactorial_steps(mid, hi)
    return a2 * a1, a2 * c1 + c2


def subfactorial(x: int) -> int:
    """Derangement count !x: the steps k = 1 .. x of :func:`_next_subfactorial`
    applied to !0 = 1, that is A + C for their composition A*v + C.

    Stays in integer arithmetic throughout; equals the alternating-sum form
    x! * sum((-1)^i / i!) after clearing denominators.
    """
    if x < 0:
        raise ValueError(f"subfactorial is defined for x >= 0, got {x}")
    return sum(_subfactorial_steps(1, x + 1)) if x else 1


def _fib_pair(k: int) -> tuple[int, int]:
    """(F(k), F(k+1)) on the 0-indexed ladder F(0)=0, F(1)=1, by fast doubling."""
    if k == 0:
        return 0, 1
    a, b = _fib_pair(k >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if k & 1:
        return d, c + d
    return c, d


def fibonacci(x: int) -> int:
    """Fibonacci number with F(1) == F(2) == 1; x == 0 is out of domain."""
    if x < 1:
        raise ValueError(f"fibonacci is defined for x >= 1, got {x}")
    return _fib_pair(x)[0]


def evaluate(spec: FunctionSpec, x: int) -> int:
    """Exact value of the spec's function at ``x``.

    Raises ValueError when ``x`` lies outside the function's domain or when a
    polynomial leaves the naturals (negative or non-integer result).
    """
    if x < 0:
        raise ValueError(f"catalog functions take naturals, got {x}")
    kind = spec.kind
    if kind == "power":
        return x**spec.exponent
    if kind == "self_power":
        if x == 0:
            return spec.zero_self_power
        return x**x
    if kind == "exp_base":
        return spec.expbase**x
    if kind == "factorial":
        return factorial(x)
    if kind == "subfactorial":
        return subfactorial(x)
    if kind == "fibonacci":
        return fibonacci(x)
    # polynomial: Horner over exact rationals, then demand a natural result
    acc = 0
    for c in spec.coeffs:
        acc = acc * x + c
    if acc.denominator != 1 or acc < 0:
        raise ValueError(f"polynomial value {acc} at x={x} is not a natural number")
    return int(acc)


def images(spec: FunctionSpec, start: int, stop: int | None = None):
    """F(start), F(start + 1), ..., F(stop - 1), or without end when stop is None.

    A kind whose row has a ``step`` takes each value from the one before with
    one multiplication; the other kinds evaluate each x, as :func:`evaluate` does.
    """
    step = _KINDS[spec.kind].step
    value = None
    for x in count(start) if stop is None else range(start, stop):
        value = evaluate(spec, x) if value is None or step is None else step(spec, x, value)
        yield value
