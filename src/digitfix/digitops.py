"""Exact digit manipulation for natural numbers in an arbitrary base.

Everything here is a pure function on Python integers, so results stay exact
at any size.  No result depends on floating point: digit counts are decided
by integer power comparisons, which keeps boundary cases like
``digit_count(b**m) == m + 1`` exact where a ``log`` would be off by one.
:func:`digit_count` costs one power of the base, O(M(n)) for the cost M(n)
of multiplying numbers of n's size, not the O(n**2) of repeated division.

Digit and block sequences are stored least-significant first throughout.
"""

import math

from .errors import ConfigurationError

__all__ = [
    "digit_count",
    "digit_sum",
    "from_blocks",
    "group_blocks",
    "reverse_digits",
]


def _check_base(base: int) -> None:
    if base < 2:
        raise ConfigurationError(f"numeral base must be at least 2, got {base}")


def _check_width(width: int) -> None:
    if width < 1:
        raise ConfigurationError(f"block width must be at least 1, got {width}")


def _check_natural(n: int) -> None:
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")


def digit_sum(n: int, base: int) -> int:
    """Sum of the canonical digits of ``n`` in ``base``; ``digit_sum(0) == 0``."""
    _check_base(base)
    _check_natural(n)
    total = 0
    while n:
        n, r = divmod(n, base)
        total += r
    return total


def digit_count(n: int, base: int) -> int:
    """Number of digits of ``n`` in ``base``: the m with ``b**(m-1) <= n < b**m``.

    By convention ``digit_count(0) == 1`` (zero is written as a single digit).
    ``n.bit_length()`` pins log_b(n) to within one, so the search starts one
    below that estimate with a single power ``base**e`` and moves up by one
    or two exact integer comparisons: O(M(n)) in all, against the O(n**2)
    of a descent by long division.  The float estimate only picks the
    start; the integer comparisons alone decide the result.
    """
    _check_base(base)
    _check_natural(n)
    if n < base:
        return 1
    e = max(int((n.bit_length() - 1) / math.log2(base)) - 1, 0)
    power = base**e
    while power > n:  # guard: only a float estimate off by two could start too high
        power //= base
        e -= 1
    power *= base  # invariant from here: base**e <= n and power == base**(e + 1)
    while power <= n:
        power *= base
        e += 1
    return e + 1


def group_blocks(n: int, base: int, width: int) -> tuple[int, ...]:
    """The width-``width`` digit blocks of ``n``, least-significant first.

    Each block is the value of ``width`` consecutive base-``base`` digits, so
    the blocks are the digits of ``n`` in radix ``base**width``; at width 1
    they are its base-``base`` digits.  The digit string is implicitly padded
    with leading zeros up to a multiple of ``width``; padding only extends the
    top block.  There is always at least one block: 0 gives ``(0,)``.
    """
    _check_base(base)
    _check_natural(n)
    _check_width(width)
    radix = base**width
    if n == 0:
        return (0,)
    blocks = []
    while n:
        n, r = divmod(n, radix)
        blocks.append(r)
    return tuple(blocks)


def from_blocks(blocks, base: int, width: int) -> int:
    """Reassemble ``blocks``, least-significant first, in radix ``base**width``.

    The inverse of :func:`group_blocks`; zero blocks at the top add nothing.
    Needs at least one block, each in ``0 .. base**width - 1``.
    """
    _check_base(base)
    _check_width(width)
    if not blocks:
        raise ValueError("block vector must hold at least one block")
    radix, value = base**width, 0
    for block in reversed(blocks):
        if not 0 <= block < radix:
            raise ValueError(f"block {block} out of range for base {base} width {width}")
        value = value * radix + block
    return value


def reverse_digits(n: int, base: int) -> int:
    """Number formed by reversing the canonical digits of ``n``.

    Leading zeros of the reversal drop, e.g. ``reverse_digits(100, 10) == 1``.
    Involutive exactly on numbers whose least significant digit is nonzero.
    """
    _check_base(base)
    _check_natural(n)
    out = 0
    if n == 0:
        return 0
    while n:
        n, r = divmod(n, base)
        out = out * base + r
    return out
