"""Exhaustive, bound-pruned searches for each digit fixed-point family.

Two interchangeable engines back the block-summation search, and take one
radix: a width-k search in base b is the width-1 search in radix b**k.

* ``scan`` covers every candidate value up to the derived ceiling, one
  table span (up to 2**17 values) at a time.  A value is a hit when its
  low blocks' entry in a precomputed chunk table equals a target fixed by
  its high blocks, so the table's positions are sorted by entry once and
  each span costs two bisections instead of one comparison per value:
  O(span log span) to build, O(log span) per span.
* ``multiset`` (width 1 only) searches digit multisets per length instead
  of values: a multiset is accepted exactly when the digit multiset of its
  F-sum equals it.  The multisets are walked as a depth-first search over
  digit counts, from digit b-1 down to 0, carrying the partial F-sum and
  the slots still free.  A branch is cut when the interval of sums it can
  still reach misses the m-digit window (bounded by prefix minima and
  maxima of F, which need not be monotone), or when the leading digits
  shared by that whole interval need more copies of a digit than the
  branch can still give.  A child's interval lies inside its parent's, so
  each node carries the length and digit histogram of its shared prefix
  and a child only reads the digits after it; the same prefix bounds the
  count of the next digit d to pre[d] .. r - (prefix digits below d).
  Children are tested before they are pushed.  This is the method Winter
  used in 1985 to list all 88 base-10 narcissistic numbers (OEIS A005188).
  In base 10 it visits a small fraction of the C(m+b-1, b-1) multisets of
  each length.  The Armstrong search shares it.

The scan sizes its chunk table to its ceiling n_max: the span is the first
power of the radix at or above sqrt(n_max), up to 2**17, so the table build
and the per-span bisections both cost about sqrt(n_max).

Both engines read each digit image above the ceiling as ceiling + 1, and a
derived ceiling is at least every image; a capped search stops evaluating F
(but a polynomial) at the first digit past 1 whose image passes its cap.

``auto``, the default, picks between them without estimating anything: the
scan's work is known exactly before it starts (its table entries plus ten
per span, :func:`_scan_work`), while the number of multiset nodes is known
only by walking them.  A node costs about six table entries: 1.2-2.4 us
against 0.2-0.5 us per entry, measured on bases 10 to 5000 (Python 3.11,
2-core x86-64 VM).  So at width 1 ``auto`` runs the multiset engine with a
budget of a sixth of the scan's work in nodes, and runs the scan if that
budget runs out first; at other widths it runs the scan.  A spent budget
has cost 0.6-1.2 scans on the bases measured, so ``auto`` stays near
twice the faster engine; this is measured, not proved.  The returned
:class:`Hits` name the engine that ran.

Every search runs in one process: a pool's workers would each build the
same table again.

The reversal search (n = lam * reverse(n)) is a carry automaton, after Young
("k-reverse multiples", Fib. Quart. 30, 1992) and Sloane ("2178 and all
that", arXiv:1307.0453).  For each multiplier lam in 2..b-1 it fixes digit
pairs from both ends of n at once; the state is the two carries still open
between them.  A forward pass collects the states each pair can reach, a
backward pass keeps those that can still close in the middle, and a
depth-first walk visits live states only.  That costs O(k * lam**2 * b) per
multiplier plus O(k) per hit, instead of the b**k values of a scan:
``search reversal --digits 30`` lists its 754 hits in a few hundredths of a
second.  The hits themselves grow exponentially with k, so the search first
counts the paths through the live states, one addition per move, and
refuses to list more than 100 000 (``search reversal --digits 200`` has
about 4 * 10**20).

Two families are images of others.  The wells-reverse hits, n =
F(digit_count(n)), are the images F(m) of the wells hits m, and the
power-sum hits, n = digit_sum(n)**p, are the p-th powers of the dudeney
hits for pow:p; each runs that search and keeps the images up to its cap.

Every hit re-verifies its defining equation from raw digits when the hit
record is constructed; nothing is trusted from search state.  Each search
returns its hits in ascending order as :class:`Hits`, a list that also
carries the ceiling the search proved.

``FAMILY_TABLE`` holds one entry per family (see :func:`_family`), and
:func:`run_search` runs any family from its entry and the parameters the
command line and a corpus entry share.  The command line builds its search
subcommands and text lines from the same entries, and the corpus its
checks, so neither derives a ceiling or picks an engine of its own.
"""

from array import array
from bisect import bisect_left, bisect_right
from functools import cache
from itertools import accumulate
from types import SimpleNamespace

from ._record import Record
from .bounds import (
    _digit_length_threshold,
    _factorial_cutoff,
    dudeney_cutoff,
    hardy_bound,
    wells_cutoff,
)
from .digitops import _check_base, _check_width, digit_count, digit_sum, group_blocks, reverse_digits
from .errors import ConfigurationError, UnsupportedFunctionError
from .families import elide_numeral
from .funcatalog import FunctionSpec, evaluate, images, parse_spec

__all__ = [
    "SearchConfig",
    "SearchHit",
    "armstrong_order_ceiling",
    "search_armstrong",
    "search_dudeney",
    "search_hardy",
    "search_powersum",
    "search_reversal",
    "search_wells",
    "search_wells_reverse",
]

_TABLE_SPAN = 1 << 17  # max chunk-table length per (spec, radix)
_REVERSAL_HIT_BUDGET = 100_000  # most hits one reversal search lists, about 2 s at 50 digits


def _check_cap(cap: int | None) -> None:
    if cap is not None and cap < 1:
        raise ConfigurationError(f"cap must be at least 1, got {cap}")


# -- result records -----------------------------------------------------------


class SearchConfig(Record):
    """Parameters of a block-summation search."""

    _defaults = {
        "spec": None,
        "base": 10,
        "width": 1,  # digits per block
        "engine": "auto",  # auto | scan | multiset
        "cap": None,  # hard ceiling overriding the derived bound
        "include_zero": False,
    }
    __slots__ = tuple(_defaults)

    def _check(self) -> None:
        base, width, engine, cap = self.base, self.width, self.engine, self.cap
        _check_base(base)
        _check_width(width)
        if engine not in ("auto", "scan", "multiset"):
            raise ConfigurationError(f"unknown engine {engine!r}")
        # one level and one image per digit of base**width: --k 9 lists 10**9 images
        if engine == "multiset" and width != 1:
            raise ConfigurationError("the multiset engine requires block width 1")
        _check_cap(cap)


class SearchHit(Record):
    """A found number plus the decomposition that re-proves it.

    ``images`` holds the intermediate quantities of the family's equation:
    per-block F-values for the summation families, (F(n),) for count- and
    sum-of-digits fixed points, (digitsum(n),) for power-sum fixed points,
    (digit_count(n),) for the reversed count family and (multiplier,
    reversal) for reversal multiples, whose ``fn`` is None.
    """

    __slots__ = ("value", "images", "family", "fn")


class Hits(list):
    """A search's hits in ascending order, the ceiling the search proved, and
    the engine that ran.

    ``ceiling`` is the largest value (or order) the search covers, inclusive:
    the cap when one was given, else the derived bound: the block-sum ceiling
    n_max (hardy), the top order searched (armstrong), the cutoff - 1 (wells,
    dudeney), min(s_max**p, cap) (powersum), base**digits - 1 (reversal).
    The search finds every hit at or below it; without a cap none lies above
    it.  ``engine`` is "scan" or "multiset" for a hardy search, also when
    ``auto`` chose it, and None for the other families.
    """

    def __init__(self, hits, ceiling: int, engine: str | None = None) -> None:
        super().__init__(hits)
        self.ceiling = ceiling
        self.engine = engine


def hardy_hit(value: int, radix: int, spec: FunctionSpec) -> SearchHit:
    images = tuple(evaluate(spec, v) for v in group_blocks(value, radix, 1))
    if sum(images) != value:
        raise ValueError(f"{value} does not equal its block image sum {sum(images)}")
    return SearchHit(value, images, "hardy", spec.text)


def armstrong_hit(value: int, base: int, order: int) -> SearchHit:
    if digit_count(value, base) != order:
        raise ValueError(f"{value} does not have {order} digits in base {base}")
    images = tuple(d**order for d in group_blocks(value, base, 1))
    if sum(images) != value:
        raise ValueError(f"{value} is not an order-{order} digit-power sum")
    return SearchHit(value, images, "armstrong", f"pow:{order}")


def wells_hit(value: int, base: int, spec: FunctionSpec) -> SearchHit:
    image = evaluate(spec, value)
    # zero has no digits here, as in the walk: 0 is a hit exactly when F(0) = 0,
    # and an n >= 1 with F(n) = 0 never is
    count = digit_count(image, base) if image else 0
    if count != value:
        raise ValueError(f"digit_count(F({value})) = {count} != {value}")
    return SearchHit(value, (image,), "wells", spec.text)


def wells_reverse_hit(value: int, base: int, spec: FunctionSpec) -> SearchHit:
    length = 0 if value == 0 else digit_count(value, base)
    if evaluate(spec, length) != value:
        raise ValueError(f"F({length}) does not reproduce {value}")
    return SearchHit(value, (length,), "wells-reverse", spec.text)


def dudeney_hit(value: int, base: int, spec: FunctionSpec) -> SearchHit:
    image = evaluate(spec, value)
    if digit_sum(image, base) != value:
        raise ValueError(f"digit_sum(F({value})) = {digit_sum(image, base)} != {value}")
    return SearchHit(value, (image,), "dudeney", spec.text)


def powersum_hit(value: int, base: int, p: int) -> SearchHit:
    s = digit_sum(value, base)
    if s**p != value:
        raise ValueError(f"digit_sum({value})**{p} = {s**p} != {value}")
    return SearchHit(value, (s,), "powersum", f"pow:{p}")


def reversal_hit(value: int, base: int) -> SearchHit:
    rev = reverse_digits(value, base)
    if rev == 0 or value % rev != 0:
        raise ValueError(f"{value} is not a multiple of its reversal {rev}")
    lam = value // rev
    if lam < 2:
        raise ValueError(f"{value} needs multiplier >= 2, got {lam}")
    if digit_count(value, base) != digit_count(rev, base):
        raise ValueError(f"{value} and its reversal differ in digit count")
    return SearchHit(value, (lam, rev), "reversal", None)


# -- scan engine ---------------------------------------------------------------
#
# The chunk table maps every value r below one table span to the F-sum of its
# radix-digits *padded to the table depth*, stored as diff[r] = F-sum - r.
# Padding adds F(0) once per missing leading block, so sums over the canonical
# (unpadded) expansion subtract that correction for the topmost chunk.
#
# The value offset + r of chunk q (offset = q * span) is a hit exactly when
# diff[r] == offset - F(q), one target per chunk.  The index lists the
# positions 0..span-1 sorted stably by diff, so the hits of a chunk are one
# run of it, found by two bisections and already ascending.


def _scan_work(radix: int, hi: int) -> int:
    """What a scan below hi costs, in table entries: it builds its table
    once and bisects once per span, a pair of bisections costing about ten
    entries.  Without a table every value costs about one."""
    if radix > _TABLE_SPAN:
        return hi
    span = radix ** _table_depth(radix, hi)
    return span + 10 * (hi // span + 1)


def _table_depth(radix: int, hi: int) -> int:
    """Blocks per table entry for a scan below hi: the fewest whose span is at least
    sqrt(hi), capped at one table span.

    Building the table costs O(span log span) and the scan one bisection pair
    per span, so a span near sqrt(hi) keeps both terms near sqrt(hi).
    """
    span, depth = radix, 1
    while span * span < hi and span * radix <= _TABLE_SPAN:
        span *= radix
        depth += 1
    return depth


def _clamped_images(spec: FunctionSpec, count: int, ceiling: int) -> list[int]:
    """F(0), ..., F(count - 1), each image above ceiling read as ceiling + 1.

    Images are naturals, so a value with such a digit has a block F-sum above
    the ceiling and is no hit either way.  Every kind but polynomial is
    nondecreasing from d = 2 on (as _max_over_block relies on), so the walk
    stops at the first image above the ceiling past d = 1; pow:p decides
    2**p > ceiling as p >= ceiling.bit_length(), without evaluating it.
    """
    stop = 2 if spec.kind == "power" and spec.exponent >= ceiling.bit_length() else count
    f_vals = []
    for d, image in enumerate(images(spec, 0, min(stop, count))):
        if image > ceiling:
            if d >= 2 and spec.kind != "polynomial":
                break
            image = ceiling + 1
        f_vals.append(image)
    return f_vals + [ceiling + 1] * (count - len(f_vals))


def _tables(spec: FunctionSpec, radix: int, depth: int, ceiling: int):
    f_vals = _clamped_images(spec, radix, ceiling)
    table = f_vals
    for _ in range(depth - 1):
        table = [fh + t for fh in f_vals for t in table]
    span = len(table)
    diff = [t - i for i, t in enumerate(table)]
    del table  # table[r] == diff[r] + r; free it before the sort's peak
    index = array("i", sorted(range(span), key=diff.__getitem__))
    return span, diff, index, f_vals[0]


def _canonical_fsum(v: int, span: int, depth: int, radix: int, diff, f0: int) -> int:
    """Block F-sum over the canonical expansion of v >= 1."""
    total = 0
    while True:
        v, r = divmod(v, span)
        if v:
            total += diff[r] + r  # interior chunk: all depth blocks are real
        else:
            return total + diff[r] + r - (depth - digit_count(r, radix)) * f0


def _matches(diff, index, target: int, lo: int, hi: int) -> list[int]:
    """Positions r in [lo, hi) with diff[r] == target, ascending."""
    key = diff.__getitem__
    a = bisect_left(index, target, key=key)
    b = bisect_right(index, target, a, key=key)
    return [r for r in index[a:b] if lo <= r < hi]


def _scan_range(
    lo: int, hi: int, spec: FunctionSpec, radix: int, depth: int | None = None
) -> list[int]:
    """Values n in [lo, hi), lo >= 1, equal to the F-sum of their radix digits.

    depth picks the chunk table (blocks per entry); by default _table_depth(radix, hi).
    """
    if radix > _TABLE_SPAN:
        # no table: sum F over each value's blocks, all below hi, without a tuple
        f_vals = _clamped_images(spec, min(radix, hi), hi - 1)
        hits = []
        for n in range(lo, hi):
            total, v = 0, n
            while v:
                v, r = divmod(v, radix)
                total += f_vals[r]
            if total == n:
                hits.append(n)
        return hits
    if depth is None:
        depth = _table_depth(radix, hi)
    span, diff, index, f0 = _tables(spec, radix, depth, hi - 1)
    hits: list[int] = []
    for q in range(lo // span, (hi - 1) // span + 1):
        offset = q * span
        seg_lo, seg_hi = max(lo, offset) - offset, min(hi, offset + span) - offset
        if q == 0:
            # values below one span: the padding correction is constant per
            # block length, so each band of lengths has its own target
            band_lo, level = 1, 1
            while band_lo < seg_hi:
                a, b = max(seg_lo, band_lo), min(seg_hi, band_lo * radix)
                if a < b:
                    hits.extend(_matches(diff, index, (depth - level) * f0, a, b))
                band_lo *= radix
                level += 1
            continue
        target = offset - _canonical_fsum(q, span, depth, radix, diff, f0)
        hits.extend(offset + r for r in _matches(diff, index, target, seg_lo, seg_hi))
    return hits


# -- multiset engine -----------------------------------------------------------


def _multiset_length(
    f_vals: list[int], base: int, m: int, cap: int | None, budget: int = -1
) -> tuple[list[int], int] | None:
    """Values t of m digits (t <= cap) equal to the F-sum of their own digits,
    and the budget left: None once ``budget`` nodes are popped before the
    search ends.  A negative budget never runs out.

    The pruned digit-count search of the module docstring.  A node fixes the
    count of digit d, with the counts of the digits above d in ``counts``;
    ``s`` is the F-sum of the digits fixed so far, ``rest`` the slots left
    for the digits below d, ``k`` the number of leading digits that every
    sum the node can reach shares, ``pre`` the histogram of those k digits
    and ``free`` the slots below d that the prefix does not claim.  Length 1
    also tries the multiset (0,), whose sum F(0) is a hit when it is 0.
    Hits come in no particular order.
    """
    lo = base ** (m - 1) if m > 1 else 0
    hi = base**m - 1
    if cap is not None and cap < hi:
        hi = cap
    if hi < lo:
        return [], budget
    # F need not be monotone (subfactorial: !0 = 1, !1 = 0), so bound the
    # free digits 0..d by prefix extrema rather than by F(0) and F(d)
    f_min = list(accumulate(f_vals, min))
    f_max = list(accumulate(f_vals, max))
    powers = [base**k for k in range(m - 1, -1, -1)]
    counts = [0] * (base + 1)  # counts[base] belongs to the root, which fixes no digit
    hits: list[int] = []
    # a stack instead of recursion: the search is one level deep per digit,
    # and bases above the recursion limit are valid input.  The root stands
    # for a digit above base - 1 and fixes nothing.
    stack = [(base, 0, m, m, 0, 0, [0] * base)]
    while stack:
        if budget == 0:
            return None
        budget -= 1
        d, c, rest, free, s, k, pre = stack.pop()
        counts[d] = c  # siblings pop before anything above d changes
        d -= 1
        f_d, below_min, below_max = f_vals[d], f_min[d - 1], f_max[d - 1]
        # a child's sums lie inside this node's, so they share its prefix:
        # digit d needs at least pre[d] copies, and the prefix digits below d
        # keep their slots
        for c in range(pre[d], pre[d] + free + 1):
            s_c, r = s + c * f_d, rest - c
            low, high = s_c + r * below_min, s_c + r * below_max
            if low > hi or high < lo:
                continue
            if low < lo:
                low = lo
            if high > hi:
                high = hi
            # resume the prefix walk where this node's ended; each new digit
            # e >= d takes one of the copies fixed in counts, a smaller one a
            # free slot
            counts[d] = c
            j, f, p = k, free - c + pre[d], pre
            while j < m:
                head = low // powers[j]
                if head != high // powers[j]:
                    break
                e = head % base
                if p is pre:
                    p = pre[:]
                p[e] += 1
                if p[e] > counts[e] if e >= d else (f := f - 1) < 0:
                    j = -1
                    break
                j += 1
            if j < 0:
                continue
            if d == 1:
                # leaf: the zeros take the rest, so low == high, and the walk
                # above matched all m of its digits against these counts
                hits.append(low)
            else:
                stack.append((d, c, r, f, s_c, j, p))
    return hits, budget


def _multiset_search(
    spec: FunctionSpec, radix: int, max_len: int, ceiling: int, budget: int = -1
) -> list[int] | None:
    """The hits up to ceiling of lengths 1..max_len, or None once ``budget``
    nodes are popped over all lengths."""
    f_vals = _clamped_images(spec, radix, ceiling)
    hits = []
    for m in range(1, max_len + 1):
        found = _multiset_length(f_vals, radix, m, ceiling, budget)
        if found is None:
            return None
        hits += found[0]
        budget = found[1]
    return hits


# -- family searches -----------------------------------------------------------


def search_hardy(cfg: SearchConfig) -> Hits:
    """All n up to the derived ceiling (or cap) equal to the F-sum of their blocks."""
    if cfg.spec is None:
        raise ConfigurationError("a function spec is required")
    ceiling = cfg.cap if cfg.cap is not None else hardy_bound(cfg.spec, cfg.base, cfg.width).n_max
    radix, engine, budget = cfg.base**cfg.width, cfg.engine, -1
    if engine == "auto":
        # a multiset node costs about six table entries, so a budget of a
        # sixth of the scan's work has cost about one scan once it is spent;
        # its per-digit tables cost one entry per digit before any node does
        budget = _scan_work(radix, ceiling + 1) // 6
        engine = "multiset" if cfg.width == 1 and radix <= budget else "scan"
    if engine == "multiset":
        # a derived ceiling (M-1)*s has exactly M-1 digits, so its lengths are
        # the ones the bound leaves; a ceiling of 0 leaves none
        length = digit_count(ceiling, radix) if ceiling else 0
        values = _multiset_search(cfg.spec, radix, length, ceiling, budget)
        if values is None:
            engine = "scan"  # auto's budget ran out
        else:
            values = [v for v in values if v >= 1]
    if engine == "scan":
        values = _scan_range(1, ceiling + 1, cfg.spec, radix)
    if cfg.include_zero and evaluate(cfg.spec, 0) == 0:
        values.append(0)
    values.sort()
    return Hits([hardy_hit(v, radix, cfg.spec) for v in values], ceiling, engine)


def armstrong_order_ceiling(base: int) -> int:
    """Least order m with base**(m-1) > m*(base-1)**m; no solutions at or above it."""
    _check_base(base)
    m, power, digit_power = 1, 1, base - 1  # base**(m-1) and (base-1)**m, carried
    while power <= m * digit_power:
        m += 1
        power *= base
        digit_power *= base - 1
    return m


def search_armstrong(base: int, max_order: int | None = None) -> Hits:
    """All m-digit numbers equal to the sum of the m-th powers of their digits.

    Orders run from 2 up to the derived ceiling (or ``max_order``); order 1 is
    skipped because every single digit fixes itself trivially.  Each order
    reuses the multiset search with F = x**m and an exact length match.
    """
    if max_order is not None and max_order < 2:
        raise ConfigurationError(f"max_order must be at least 2, got {max_order}")
    ceiling = armstrong_order_ceiling(base)
    top = ceiling - 1 if max_order is None else min(max_order, ceiling - 1)
    hits = []
    for order in range(2, top + 1):
        f_vals = [d**order for d in range(base)]
        for value in _multiset_length(f_vals, base, order, None)[0]:
            hits.append(armstrong_hit(value, base, order))
    hits.sort(key=lambda h: h.value)
    return Hits(hits, top)


def _last_walked(cap: int | None, threshold, cutoff) -> tuple[int, int]:
    """The ceiling of a wells or dudeney search, the cap or else cutoff() - 1,
    and the last n it walks, the smaller of the two.  A capped search derives
    its cutoff only once the cap reaches threshold(), below which the walk to
    the cap costs less, and walks to the cap where the cutoff cannot be derived."""
    _check_cap(cap)
    if cap is None:
        last = cutoff() - 1
        return last, last
    try:
        if cap >= threshold():
            return cap, min(cap, cutoff() - 1)
    except (UnsupportedFunctionError, ValueError):
        pass
    return cap, cap


def search_wells(
    spec: FunctionSpec, base: int, cap: int | None = None, include_zero: bool = False
) -> Hits:
    """All n up to the cap, else below :func:`wells_cutoff`, with
    digit_count(F(n)) == n.  A capped walk stops at the cutoff too once the
    cap reaches factorial's cutoff, the least integer above e*b: deriving the
    factorial and subfactorial cutoffs evaluates F near there, so a smaller
    cap walks less without them."""
    ceiling, last = _last_walked(
        cap, lambda: _factorial_cutoff(base), lambda: wells_cutoff(spec, base).cutoff
    )
    values = []
    if include_zero and _zero_image(spec) == 0:
        values.append(0)
    power = 1  # base**(n-1), advanced alongside n
    for n, fn in enumerate(images(spec, 1, last + 1), 1):
        if power <= fn < power * base:
            values.append(n)
        power *= base
    return Hits([wells_hit(v, base, spec) for v in values], ceiling)


def search_wells_reverse(
    spec: FunctionSpec, base: int, cap: int, include_zero: bool = False
) -> Hits:
    """All n <= cap with n = F(digit_count(n)): the images F(m) <= cap of the
    hits m of :func:`search_wells`, as F(m) has m digits exactly when
    m = digit_count(F(m)).  No hit has more digits than the cap, so the walk
    stops at digit_count(cap); an image of 0, which has no digits, is no hit."""
    if cap is None or cap < 1:
        raise ConfigurationError("an explicit cap >= 1 is required")
    roots = search_wells(spec, base, digit_count(cap, base), include_zero)
    images = [h.images[0] for h in roots]
    return Hits([wells_reverse_hit(v, base, spec) for v in images if v <= cap], cap)


def search_dudeney(
    spec: FunctionSpec,
    base: int,
    cap: int | None = None,
    engine: str = "scan",
    include_zero: bool = False,
) -> Hits:
    """All n up to the cap, else below :func:`dudeney_cutoff`, with
    digit_sum(F(n)) == n.  A capped walk stops at the cutoff too once the cap
    reaches the digit-length threshold: deriving the cutoff scans F below it.

    Both engine names run this walk; for a pure power its cutoff is the
    s_max + 1 of :func:`powersum_bound`, which the ``preimage`` name recalls.
    """
    if engine not in ("scan", "preimage"):
        raise ConfigurationError(f"unknown digit-sum engine {engine!r}")
    ceiling, last = _last_walked(
        cap, lambda: _digit_length_threshold(spec, base), lambda: dudeney_cutoff(spec, base).cutoff
    )
    values = []
    if include_zero and _zero_image(spec) == 0:
        values.append(0)
    for n, fn in enumerate(images(spec, 1, last + 1), 1):
        if digit_sum(fn, base) == n:
            values.append(n)
    return Hits([dudeney_hit(v, base, spec) for v in values], ceiling)


def _zero_image(spec: FunctionSpec) -> int | None:
    try:
        return evaluate(spec, 0)
    except ValueError:
        return None


def search_powersum(
    p: int,
    base: int,
    engine: str = "preimage",
    cap: int | None = None,
    include_zero: bool = False,
) -> Hits:
    """All n with digit_sum(n)**p == n, up to s_max**p (or cap): the p-th
    powers of the hits m = digit_sum(m**p) of :func:`search_dudeney` for pow:p,
    as each such n is m**p for its own digit sum m.  That search's ceiling is
    s_max, the largest admissible digit sum of :func:`powersum_bound`.  Both
    engine names run it; ``scan`` is kept for the command lines that name it."""
    if engine not in ("preimage", "scan"):
        raise ConfigurationError(f"unknown power-sum engine {engine!r}")
    _check_cap(cap)
    if p < 2:
        raise ConfigurationError(f"power-sum exponent must be at least 2, got {p}")
    roots = search_dudeney(FunctionSpec.power(p), base, include_zero=include_zero)
    ceiling = roots.ceiling**p if cap is None else min(roots.ceiling**p, cap)
    powers = [h.value**p for h in roots]
    return Hits([powersum_hit(n, base, p) for n in powers if n <= ceiling], ceiling)


# -- reversal engine -------------------------------------------------------------
#
# A k-digit n = d[k-1]..d[0] equals lam * reverse(n) exactly when the long
# multiplication of the reversal by lam reproduces n: column i reads
# lam * d[k-1-i] + c[i] = d[i] + base * c[i+1] with c[0] = c[k] = 0 and every
# carry in 0..lam-1.  Columns i and k-1-i use the same two digits, so the
# search fixes the pair (x, y) = (d[i], d[k-1-i]) from the outside in.  After
# i pairs its state is (c[i], c[k-i]): the carry out of the low columns fixed
# so far, and the carry the last high column fixed needs from below.  The high
# digit y fixes x and the next state; the middle closes the search.


def _pair_moves(lam: int, base: int, c_low: int, c_high: int, outer: bool) -> list:
    """(y, x, next state) for every digit pair that can follow state (c_low, c_high)."""
    moves = []
    for y in range(1 if outer else 0, base):
        c_out, x = divmod(lam * y + c_low, base)
        c_in = y + base * c_high - lam * x  # carry column k-1-i needs from below
        if 0 <= c_in < lam and (x or not outer):
            moves.append((y, x, (c_out, c_in)))
    return moves


def _reversal_automaton(lam: int, base: int, k: int):
    """The live part of the carry automaton for one lam, its closing rule and
    its number of hits.

    Returns (layers, middle, count): layers[i] maps each live state after i
    pairs to its moves (y, x, next state) into live states, middle(state) is
    the middle's share of n when the pairs meet in that state, or None, and
    count is the number of paths from the start through the live layers, one
    per hit.
    """
    half = k // 2

    def middle(c_low: int, c_high: int) -> int | None:
        if k % 2 == 0:
            return 0 if c_low == c_high else None
        # one middle digit z: lam * z + c_low = z + base * c_high
        z, rem = divmod(base * c_high - c_low, lam - 1)
        return z * base**half if rem == 0 and 0 <= z < base else None

    inner = cache(lambda state: _pair_moves(lam, base, *state, False))
    # forward: the moves out of every state reachable after 0..half-1 pairs
    layers = [{(0, 0): _pair_moves(lam, base, 0, 0, True)}]
    while len(layers) < half:
        reached = {nxt for moves in layers[-1].values() for _, _, nxt in moves}
        layers.append({state: inner(state) for state in reached})
    # backward: keep only the moves into states that can still close, and
    # count the paths from each live state to a close, one addition per move
    paths = {
        nxt: 1 for moves in layers[-1].values() for _, _, nxt in moves if middle(*nxt) is not None
    }
    for level in reversed(range(half)):
        pruned, counts = {}, {}
        for state, moves in layers[level].items():
            kept = [move for move in moves if move[2] in paths]
            if kept:
                pruned[state] = kept
                counts[state] = sum(paths[nxt] for _, _, nxt in kept)
        layers[level] = pruned
        paths = counts
    return layers, middle, sum(paths.values())


def _reversal_values(layers, middle, base: int, k: int) -> list[int]:
    """The hits of one automaton, unordered: a depth-first walk over live states,
    where every branch ends in a hit."""
    half = k // 2
    powers = [base**i for i in range(k)]
    values = []
    stack = [(0, state, 0) for state in layers[0]]
    while stack:
        level, state, value = stack.pop()
        if level == half:
            values.append(value + middle(*state))
            continue
        for y, x, nxt in layers[level][state]:
            stack.append((level + 1, nxt, value + x * powers[level] + y * powers[k - 1 - level]))
    return values


def search_reversal(base: int, num_digits: int) -> Hits:
    """All ``num_digits``-digit n (last digit nonzero) with n a multiple >= 2 of its reversal.

    The multiplier lam = n / reverse(n) is below base, because n < base**k and
    reverse(n) >= base**(k-1), so one carry automaton per lam in 2..base-1
    finds every hit.  The hits are counted before any is listed, and a
    search with more than ``_REVERSAL_HIT_BUDGET`` of them is refused: their
    number grows exponentially with the length (2 * F(k // 2 - 1) in base
    10, F the Fibonacci numbers), so listing them would not end.
    """
    _check_base(base)
    if num_digits < 2:
        raise ConfigurationError(f"reversal search needs at least 2 digits, got {num_digits}")
    automata = [_reversal_automaton(lam, base, num_digits) for lam in range(2, base)]
    count = sum(count for _, _, count in automata)
    if count > _REVERSAL_HIT_BUDGET:
        raise ConfigurationError(
            f"base {base} has {elide_numeral(count)} reversal multiples of {num_digits} digits, "
            f"more than the {_REVERSAL_HIT_BUDGET} one search lists"
        )
    values = sorted(
        v
        for layers, middle, _ in automata
        for v in _reversal_values(layers, middle, base, num_digits)
    )
    return Hits([reversal_hit(n, base) for n in values], base**num_digits - 1)


# -- the family table ------------------------------------------------------------


# the fields of the search parameters, in option order
_FIELDS = ("base", "fn", "engine", "k", "cap", "max_order", "digits", "include_zero")


def _family(
    help, search, arguments, line, *, config=False, engines=(), required=("fn",),
    summary="{count} hit(s), search ceiling {ceiling}", pairs=False,
) -> SimpleNamespace:
    """One entry of :data:`FAMILY_TABLE`.

    ``search`` names this module's ``search_*`` function, looked up when it
    runs, and ``arguments`` its positional arguments: fields of the search
    parameters, ``spec`` (``fn`` parsed) or ``p`` (the exponent of a
    pure-power ``fn``), made into a :class:`SearchConfig` with ``config``.
    ``fields`` are the fields they read, in option order, and ``required``
    those the family cannot run without.  ``engines`` are listed
    default first.  ``line(hit, params)`` prints one hit as text and
    ``summary`` the last text line; with ``pairs``, a corpus entry lists hits
    as [value, multiplier].
    """
    reads = {"fn"} if "spec" in arguments or "p" in arguments else set()
    fields = tuple(field for field in _FIELDS if field in arguments or field in reads)
    return SimpleNamespace(
        help=help, search=search, arguments=arguments, fields=fields, line=line, config=config,
        engines=engines, required=required, summary=summary, pairs=pairs,
    )


def _sum_line(h: SearchHit, params) -> str:
    spec = parse_spec(h.fn)
    blocks = group_blocks(h.value, params.base, params.k)
    terms = " + ".join(spec.term(v) for v in reversed(blocks))
    return f"{h.value} = {terms}"


FAMILY_TABLE = {
    "hardy": _family(
        "n equal to the F-sum of its digit blocks", "search_hardy",
        ("spec", "base", "k", "engine", "cap", "include_zero"), _sum_line,
        config=True, engines=("auto", "scan", "multiset"),
    ),
    "armstrong": _family(
        "m-digit n equal to the sum of m-th powers of digits", "search_armstrong",
        ("base", "max_order"), _sum_line, required=(),
    ),
    "wells": _family(
        "n equal to the digit count of F(n)", "search_wells",
        ("spec", "base", "cap", "include_zero"),
        lambda h, _: f"{h.value}: F({h.value}) has {h.value} digit(s)",
    ),
    "wells-reverse": _family(
        "n equal to F(digit count of n)", "search_wells_reverse",
        ("spec", "base", "cap", "include_zero"),
        lambda h, _: f"{h.value} = F({h.images[0]})", required=("fn", "cap"),
    ),
    "dudeney": _family(
        "n equal to the digit sum of F(n)", "search_dudeney",
        ("spec", "base", "cap", "engine", "include_zero"),
        lambda h, _: f"{h.value}: digit sum of F({h.value}) = {elide_numeral(h.images[0], 40)} "
        f"is {h.value}", engines=("scan", "preimage"),
    ),
    "powersum": _family(
        "n equal to its digit sum raised to a power", "search_powersum",
        ("p", "base", "engine", "cap", "include_zero"),
        lambda h, _: f"{h.value} = {h.images[0]}^{parse_spec(h.fn).exponent}, "
        "its own digit sum raised", engines=("preimage", "scan"),
    ),
    "reversal": _family(
        "n an integral multiple of its digit reversal", "search_reversal",
        ("base", "digits"), lambda h, _: f"{h.value} = {h.images[0]} x {h.images[1]}",
        required=("digits",), summary="{count} hit(s) among {params.digits}-digit numbers",
        pairs=True,
    ),
}


def run_search(family: str, params) -> Hits:
    """Run one family's search with the parameters read from ``params``.

    ``params``, such as the parsed command line or a corpus entry, has
    ``engine``, ``k`` and the fields the family's entry lists.  An ``engine``
    of None is the family's first engine.  An engine the family lacks, or a
    block width ``k`` other than 1 for a family without blocks, is refused.
    """
    entry = FAMILY_TABLE.get(family)
    if entry is None:
        raise ConfigurationError(f"unknown search family {family!r}")
    if params.engine is not None and params.engine not in entry.engines:
        raise ConfigurationError(f"the {family} search has no engine {params.engine!r}")
    if params.k != 1 and "k" not in entry.fields:
        raise ConfigurationError(f"the {family} search reads no block width, got k = {params.k}")
    values = {field: getattr(params, field) for field in entry.fields}
    if entry.engines:
        values["engine"] = params.engine or entry.engines[0]
    if "fn" in values:
        spec = values["spec"] = parse_spec(params.fn)
        values["p"] = spec.exponent
        if "p" in entry.arguments and spec.kind != "power":
            raise ConfigurationError("power-sum search takes --fn pow:P for the exponent")
    arguments = [values[name] for name in entry.arguments]
    if entry.config:
        arguments = [SearchConfig(*arguments)]
    return globals()[entry.search](*arguments)
