"""Shared helpers: independent oracles the tests check the library against.

The oracles deliberately avoid the library's search engines and tables; they
are plain digit loops and flat enumerations so an engine bug cannot hide itself.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement

import pytest

from digitfix.funcatalog import parse_spec

# Catalog specs used by the engine-equivalence suites (base 10, width 1).
CATALOG_SPEC_TEXTS = [
    "factorial",
    "subfactorial",
    "pow:2",
    "pow:3",
    "pow:4",
    "pow:5",
    "pow:6",
    "expbase:2",
    "expbase:3",
    "expbase:4",
    "selfpow",
]


def with_zero_pow(spec, zero_pow: int):
    """The spec under the 0**0 convention zero_pow; only a self-power reads one."""
    return spec.replace(zero_self_power=zero_pow) if spec.kind == "self_power" else spec


def digits_of(n: int, base: int) -> list[int]:
    if n == 0:
        return [0]
    out = []
    while n:
        n, r = divmod(n, base)
        out.append(r)
    return out


def oracle_digit_sum(n: int, base: int) -> int:
    return sum(digits_of(n, base))


@cache
def _low_digit_sums(base: int) -> list[int]:
    return [oracle_digit_sum(r, base) for r in range(base**4)]


def oracle_powersum(lo: int, hi: int, p: int, base: int) -> list[int]:
    """Every n in [lo, hi) with digit_sum(n)**p == n, ascending, checked one value at a time.

    The per-value loop the digit-sum index replaced: the digit sum of n is that
    of its high part plus a table entry for its low four digits.
    """
    low = base**4
    table = _low_digit_sums(base)
    hits = []
    for q in range(lo // low, (hi - 1) // low + 1):
        offset = q * low
        hs = oracle_digit_sum(q, base)
        for n in range(max(lo, offset), min(hi, offset + low)):
            if (hs + table[n - offset]) ** p == n:
                hits.append(n)
    return hits


def _zero_is_a_hit(spec) -> bool:
    """n = 0 reads as a number with no digits, so it is a wells or dudeney hit
    exactly when F(0) = 0; a function without a value at 0 has no such hit."""
    try:
        return spec(0) == 0
    except ValueError:
        return False


def oracle_wells(spec, base: int, top: int, include_zero: bool = False) -> list[int]:
    """Every n in [1, top] whose F(n) has exactly n digits, ascending, after 0
    when include_zero asks for it; digits are counted by long division, one
    value at a time, so an image of 0 has none."""
    hits = [0] if include_zero and _zero_is_a_hit(spec) else []
    for n in range(1, top + 1):
        image, count = spec(n), 0
        while image and count <= n:
            image //= base
            count += 1
        if count == n:
            hits.append(n)
    return hits


def oracle_wells_reverse(spec, base: int, cap: int, include_zero: bool = False) -> list[int]:
    """Every n in [1, cap] equal to F of its digit count, ascending, after 0
    when include_zero asks for it; digits are counted by long division, one
    value at a time, so 0 has none and an image of 0 is never a hit."""
    hits = [0] if include_zero and _zero_is_a_hit(spec) else []
    for n in range(1, cap + 1):
        rest, count = n, 0
        while rest:
            rest //= base
            count += 1
        if spec(count) == n:
            hits.append(n)
    return hits


def oracle_dudeney(spec, base: int, top: int, include_zero: bool = False) -> list[int]:
    """Every n in [1, top] equal to the digit sum of F(n), ascending, after 0
    when include_zero asks for it, one value at a time."""
    hits = [0] if include_zero and _zero_is_a_hit(spec) else []
    return hits + [n for n in range(1, top + 1) if oracle_digit_sum(spec(n), base) == n]


def oracle_floor_log(n: int, base: int) -> int:
    """Largest e with base**e <= n, for n >= 1, by repeated squaring and long division.

    The division-based digit count that the power-and-compare one replaced.
    """
    if n < base:
        return 0
    squares = [(base, 1)]
    while True:
        p, e = squares[-1]
        if p * p > n:
            break
        squares.append((p * p, 2 * e))
    exponent = 0
    rest = n
    for p, e in reversed(squares):
        if p <= rest:
            rest //= p
            exponent += e
    return exponent


def oracle_hardy(fn_text: str, base: int, width: int, ceiling: int, zero_pow=1) -> list[int]:
    """Brute-force block-sum fixed points in [1, ceiling] by direct divmod loops."""
    spec = with_zero_pow(parse_spec(fn_text), zero_pow)
    radix = base**width
    images = [spec(v) for v in range(radix)] if radix <= 4096 else None
    hits = []
    for n in range(1, ceiling + 1):
        v, total = n, 0
        while v:
            v, r = divmod(v, radix)
            total += images[r] if images else spec(r)
            if total > n:
                break
        if total == n:
            hits.append(n)
    return hits


# The certificate checkers re-prove a bound report from its own numbers and
# the spec alone, by brute force and plain powers; each asserts on any gap.


def check_hardy_report(report, spec, base: int, width: int) -> None:
    """s_k is the largest F over one block; radix**(M-1) > M*s_k at the
    threshold M, radix**(M-2) <= (M-1)*s_k one below it, and n_max = (M-1)*s_k.
    radix >= 2 carries the first inequality to every block count above M."""
    radix = base**width
    assert radix >= 2
    s_k = max(spec(v) for v in range(radix))
    m = report.block_threshold
    assert report.s_k == s_k
    assert radix ** (m - 1) > m * s_k
    if m > 1:
        assert radix ** (m - 2) <= (m - 1) * s_k
    assert report.n_max == (m - 1) * s_k


def check_wells_report(report, spec, base: int) -> None:
    """Witnesses at the cutoff N and N + 1, each F(n) re-evaluated, all on one
    side: F(n) >= b**n (more than n digits) or F(n) < b**(n-1) (fewer)."""
    n0 = report.cutoff
    assert [n for n, _, _ in report.witnesses] == [n0, n0 + 1]
    sides = set()
    for n, image, bound in report.witnesses:
        assert image == spec(n)
        if bound == base**n and image >= bound:
            sides.add("ge")
        else:
            assert bound == base ** (n - 1) and image < bound
            sides.add("lt")
    assert len(sides) == 1


def check_dudeney_report(report, spec, base: int) -> None:
    """Consecutive witnesses from max(1, N - 1) past the cutoff N, each
    (b-1)*digit_count(F(n)) recounted: n fits under it below N, never from N on."""
    n0 = report.cutoff
    ns = [n for n, _, _ in report.witnesses]
    assert ns == list(range(max(1, n0 - 1), ns[-1] + 1)) and ns[-1] >= n0
    for n, lhs, rhs in report.witnesses:
        assert lhs == n
        assert rhs == (base - 1) * len(digits_of(spec(n), base))
        assert (n < n0) == (n <= rhs)


def oracle_chunk_hits(diff: list[int], target: int) -> list[int]:
    """Positions of one chunk table whose entry equals the target, by plain comparison.

    This is the per-value rule the indexed scan replaces: the value offset + i
    of a chunk is a hit exactly when diff[i] equals the chunk's target.
    """
    return [i for i, dv in enumerate(diff) if dv == target]


def oracle_block_fsum(n: int, radix: int, spec) -> int:
    """F-sum over the canonical radix-blocks of n >= 1."""
    total = 0
    while n:
        n, r = divmod(n, radix)
        total += spec(r)
    return total


def oracle_reversal(base: int, num_digits: int) -> list[tuple[int, int]]:
    """Brute-force reversal multiples: (n, n // reverse(n)), ascending, for every
    num_digits-digit n with last digit nonzero that is a multiple >= 2 of its reversal."""
    found = []
    lo, hi = base ** (num_digits - 1), base**num_digits
    if base == 10:
        # string reversal is exact and much faster than per-digit divmod here
        for n in range(lo, hi):
            if n % 10 == 0:
                continue
            r = int(str(n)[::-1])
            if r < n and n % r == 0:
                found.append((n, n // r))
    else:
        for n in range(lo, hi):
            if n % base == 0:
                continue
            r = 0
            for d in digits_of(n, base):
                r = r * base + d
            if r < n and n % r == 0:
                found.append((n, n // r))
    return found


def _digits_ascending(n: int, base: int) -> tuple[int, ...]:
    if n == 0:
        return (0,)
    digs = []
    while n:
        n, r = divmod(n, base)
        digs.append(r)
    digs.sort()
    return tuple(digs)


def oracle_multiset_length(f_vals: list[int], base: int, m: int, cap: int | None) -> list[int]:
    """Flat enumeration of every m-digit multiset: the reference for the pruned engine."""
    hits = []
    for combo in combinations_with_replacement(range(base), m):
        t = 0
        for d in combo:
            t += f_vals[d]
        if cap is not None and t > cap:
            continue
        if _digits_ascending(t, base) == combo:
            hits.append(t)
    return hits


@pytest.fixture(scope="session")
def corpus_report():
    from digitfix.corpus import corpus_check

    return corpus_check()
