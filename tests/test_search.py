import inspect
import sys
from math import comb

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import digitfix.search
from digitfix.bounds import dudeney_cutoff, hardy_bound, powersum_bound, wells_cutoff
from digitfix.corpus import CorpusEntry
from digitfix.digitops import group_blocks
from digitfix.errors import ConfigurationError, UnsupportedFunctionError
from digitfix.funcatalog import FunctionSpec, evaluate, images, parse_spec
from digitfix.search import (
    _TABLE_SPAN,
    FAMILIES,
    FAMILY_TABLE,
    SearchConfig,
    SearchHit,
    _matches,
    _multiset_length,
    _multiset_search,
    _reversal_automaton,
    _scan_range,
    _table_depth,
    _tables,
    armstrong_hit,
    armstrong_order_ceiling,
    dudeney_hit,
    hardy_hit,
    powersum_hit,
    reversal_hit,
    run_search,
    search_armstrong,
    search_dudeney,
    search_hardy,
    search_powersum,
    search_reversal,
    search_wells,
    search_wells_reverse,
    wells_hit,
    wells_reverse_hit,
)

from conftest import (
    CATALOG_SPEC_TEXTS,
    oracle_block_fsum,
    oracle_chunk_hits,
    oracle_digit_sum,
    oracle_dudeney,
    oracle_hardy,
    oracle_multiset_length,
    oracle_powersum,
    oracle_reversal,
    oracle_wells,
    oracle_wells_reverse,
    with_zero_pow,
)


# the largest cap the per-value power-sum oracle is run up to
ORACLE_REACH = 300_000


def values(hits):
    return [h.value for h in hits]


def run_hardy(fn, engine="scan", width=1, cap=None, include_zero=False, zero_pow=1, base=10):
    spec = with_zero_pow(parse_spec(fn), zero_pow)
    cfg = SearchConfig(
        spec=spec, base=base, width=width, engine=engine, cap=cap, include_zero=include_zero
    )
    return values(search_hardy(cfg))


class TestSearchHardy:
    def test_factorions(self):
        assert run_hardy("factorial") == [1, 2, 145, 40585]

    def test_cubes(self):
        assert run_hardy("pow:3") == [1, 153, 370, 371, 407]

    def test_grouped_cubes_include_published_values(self):
        got = run_hardy("pow:3", width=2)
        for v in (165033, 221859, 341067, 444664, 487215):
            assert v in got
        # oracle agreement over the full derived range
        assert got == oracle_hardy("pow:3", 10, 2, 3881196)

    def test_fifth_powers(self):
        assert run_hardy("pow:5") == [1, 4150, 4151, 54748, 92727, 93084, 194979]

    def test_sixth_powers_below_million(self):
        got = run_hardy("pow:6")
        assert [v for v in got if v <= 10**6] == [1, 548834]

    def test_exp_base_values(self):
        assert 12 in run_hardy("expbase:3")
        got4 = run_hardy("expbase:4")
        assert 4624 in got4 and 595968 in got4

    def test_self_power_conventions(self):
        assert run_hardy("selfpow", engine="multiset") == [1, 3435]
        with_zero_conv = run_hardy("selfpow", engine="multiset", zero_pow=0)
        assert with_zero_conv == [1, 3435, 438579088]

    def test_include_zero(self):
        assert run_hardy("pow:3", include_zero=True)[0] == 0
        # factorial of zero is 1, so zero never satisfies the equation
        assert run_hardy("factorial", include_zero=True) == [1, 2, 145, 40585]

    def test_cap_overrides_bound(self):
        assert run_hardy("factorial", cap=1000) == [1, 2, 145]
        assert run_hardy("factorial", engine="multiset", cap=1000) == [1, 2, 145]

    def test_engine_equivalence_small(self):
        for fn in ("pow:2", "pow:3", "pow:4", "expbase:2", "expbase:3", "factorial"):
            assert run_hardy(fn) == run_hardy(fn, engine="multiset"), fn

    def test_wide_blocks_use_fallback_scan(self):
        # radix 10**6 exceeds the chunk-table span; below the cap every value
        # is a single block, so only the cube fixed point 1 survives
        assert run_hardy("pow:3", width=6, cap=100000) == [1]

    @pytest.mark.parametrize(
        "base, width, lo, hi, hits",
        [
            (10, 6, 10**6 - 3000, 10**6 + 3000, []),  # one block, then two
            (10, 6, 10**9 - 500, 10**9 + 500, [10**9, 10**9 + 1]),  # 1000**3 + 0**3, + 1**3
            (10, 6, 10**12 - 300, 10**12 + 300, []),  # two blocks, then three
            (2, 18, 2**18 - 3000, 2**18 + 3000, []),
            (2, 18, 2**27 - 500, 2**27 + 500, [2**27, 2**27 + 1]),  # 512**3 + 0**3, + 1**3
            (2, 18, 2**36 - 300, 2**36 + 300, []),
        ],
    )
    def test_fallback_scan_over_several_blocks(self, base, width, lo, hi, hits):
        # the radix passes the table span, so the scan sums F over divmod blocks
        spec = parse_spec("pow:3")
        radix = base**width
        assert radix > _TABLE_SPAN
        oracle = [n for n in range(lo, hi) if oracle_block_fsum(n, radix, spec) == n]
        assert _scan_range(lo, hi, spec, base, width) == oracle == hits

    def test_three_digit_blocks(self):
        got = run_hardy("pow:2", width=3)
        assert got == oracle_hardy("pow:2", 10, 3, 2994003)
        for v in got:
            blocks = []
            n = v
            while n:
                n, r = divmod(n, 1000)
                blocks.append(r)
            assert sum(b * b for b in blocks) == v

    def test_other_bases_match_oracle(self):
        from digitfix.bounds import hardy_bound

        for b, fn in [(2, "pow:2"), (3, "pow:2"), (7, "pow:3"), (16, "pow:2")]:
            spec = parse_spec(fn)
            ceiling = hardy_bound(spec, b, 1).n_max
            scan = run_hardy(fn, base=b)
            multi = run_hardy(fn, base=b, engine="multiset")
            assert scan == multi == oracle_hardy(fn, b, 1, ceiling), (b, fn)

    def test_hits_carry_verified_decomposition(self):
        hits = search_hardy(SearchConfig(spec=parse_spec("factorial")))
        top = hits[-1]
        assert top.value == 40585
        assert group_blocks(top.value, 10, 1) == (5, 8, 5, 0, 4)
        assert top.images == (120, 40320, 120, 1, 24)
        assert sum(top.images) == top.value

    def test_hits_bounded_by_report(self):
        from digitfix.bounds import hardy_bound

        for fn in ("factorial", "pow:4", "expbase:3"):
            bound = hardy_bound(parse_spec(fn), 10, 1)
            assert all(v <= bound.n_max for v in run_hardy(fn))

    def test_config_errors(self):
        spec = parse_spec("pow:3")
        # invalid engines are refused when the config is built, not when it runs
        with pytest.raises(ConfigurationError, match="the multiset engine requires block width 1"):
            SearchConfig(spec=spec, engine="multiset", width=2)
        with pytest.raises(ConfigurationError, match="unknown engine 'preimage'"):
            SearchConfig(spec=spec, engine="preimage")
        with pytest.raises(ConfigurationError, match="unknown engine 'bogus'"):
            SearchConfig(spec=spec, engine="bogus")
        with pytest.raises(ConfigurationError):
            SearchConfig(spec=spec, cap=0)
        with pytest.raises(ConfigurationError):
            SearchConfig(spec=spec, base=1)
        with pytest.raises(ConfigurationError):
            search_hardy(SearchConfig())


def chunk_span(radix: int) -> int:
    span = radix
    while span * radix <= _TABLE_SPAN:
        span *= radix
    return span


def full_depth(radix: int) -> int:
    """Depth of the largest chunk table, the one a scan above _TABLE_SPAN**2 builds."""
    depth = _table_depth(radix, _TABLE_SPAN**2)
    assert radix**depth == chunk_span(radix)
    return depth


@st.composite
def scan_cases(draw):
    """A catalog F in base 2-16, width 1-2, a table depth up to the full one, and a cap
    up to two full table spans, often next to a chunk edge of that depth's table."""
    base = draw(st.integers(2, 16))
    width = draw(st.integers(1, 2))
    fn = draw(st.sampled_from(CATALOG_SPEC_TEXTS))
    zero_pow = draw(st.sampled_from((0, 1)))
    radix = base**width
    full = chunk_span(radix)
    depth = draw(st.integers(1, full_depth(radix)))
    cap = draw(st.integers(1, full - 1) | st.integers(full, 2 * full + 1))
    edge = draw(st.sampled_from((None, -1, 0, 1)))
    if edge is not None:
        span = radix**depth
        cap = max(1, cap // span) * span + edge
    return fn, base, width, zero_pow, cap, depth


class TestIndexedScan:
    @settings(max_examples=60, deadline=None)
    @given(scan_cases())
    def test_scan_equals_oracle(self, case):
        fn, base, width, zero_pow, cap, depth = case
        expected = oracle_hardy(fn, base, width, cap, zero_pow)
        # the search sizes its own table; _scan_range is also run on the drawn depth
        assert run_hardy(fn, width=width, cap=cap, zero_pow=zero_pow, base=base) == expected
        spec = with_zero_pow(parse_spec(fn), zero_pow)
        assert _scan_range(1, cap + 1, spec, base, width, depth) == expected

    @pytest.mark.parametrize("fn, width", [("pow:7", 1), ("factorial", 1), ("pow:3", 2)])
    def test_index_matches_plain_comparison(self, fn, width):
        spec = parse_spec(fn)
        span, depth, radix, diff, index, f0 = _tables(spec, 10, width, full_depth(10**width))
        assert span == chunk_span(radix)
        assert sorted(index) == list(range(span))
        for r in range(0, span, 4093):
            assert _matches(diff, index, diff[r], 0, span) == oracle_chunk_hits(diff, diff[r])
        # the low band: one target per block length
        expected = []
        band_lo, level = 1, 1
        while band_lo < span:
            band_hi = min(span, band_lo * radix)
            rule = oracle_chunk_hits(diff, (depth - level) * f0)
            expected += [i for i in rule if band_lo <= i < band_hi]
            band_lo, level = band_hi, level + 1
        assert _scan_range(1, span, spec, 10, width, depth) == expected
        # whole chunks above it, including every chunk that holds a known hit
        chunks = {1, 2, 3} | {v // span for v in run_hardy(fn, width=width)}
        for q in sorted(chunks - {0}):
            offset = q * span
            target = offset - oracle_block_fsum(q, radix, spec)
            rule = [offset + i for i in oracle_chunk_hits(diff, target)]
            assert _scan_range(offset, offset + span, spec, 10, width, depth) == rule, q

    def test_partial_first_and_last_chunks(self):
        pow7 = parse_spec("pow:7")
        # the table sized from hi (depth 4) and the full one (depth 5)
        for depth in (None, 5):
            got = _scan_range(1741725, 9926315, pow7, 10, 1, depth)
            assert got == [1741725, 4210818, 9800817]
            got = _scan_range(1741726, 9926316, pow7, 10, 1, depth)
            assert got == [4210818, 9800817, 9926315]
        # width 2 (span 10**4): a partial low band, whole chunks, a partial last chunk
        expected = [v for v in oracle_hardy("pow:3", 10, 2, 41833) if v >= 400]
        assert _scan_range(400, 41834, parse_spec("pow:3"), 10, 2) == expected
        assert expected == [407, 1000, 1001, 41833]

    def test_scan_above_ten_to_the_eight_uses_the_full_table(self):
        # ceilings above 10**8 (the default selfpow run among them) size the
        # table to the full depth 5: low band over 5 block lengths, chunks at 10**5
        hi = 10**8 + 1
        assert _table_depth(10, hi) == 5
        got = _scan_range(1, hi, parse_spec("pow:7"), 10, 1)
        assert got == [1, 1741725, 4210818, 9800817, 9926315, 14459929]
        assert got == run_hardy("pow:7", engine="multiset", cap=10**8)

    @pytest.mark.parametrize(
        "radix, hi, depth",
        [(10, 1, 1), (10, 100, 1), (10, 101, 2), (10, 10**4 + 1, 3), (10, 2540161, 4),
         (10, 3874204891, 5), (10, 10**12, 5), (100, 3881197, 2), (2, 2**34, 17),
         (2, 2**40, 17), (2**17, 5, 1), (2**17, 2**40, 1)],
    )
    def test_table_span_near_the_square_root_of_the_ceiling(self, radix, hi, depth):
        # the fewest blocks with span**2 >= hi, capped at one table span
        assert _table_depth(radix, hi) == depth

    @pytest.mark.parametrize(
        "fn, base, cap",
        [("factorial", 10, 250_001), ("subfactorial", 10, 200_000), ("expbase:4", 10, 600_000),
         ("factorial", 3, 3 * 59049 + 1), ("expbase:2", 7, 2 * 117649)],
    )
    def test_padding_correction_when_f0_is_one(self, fn, base, cap):
        # F(0) = 1: every missing leading block of the padded table adds 1
        assert parse_spec(fn)(0) == 1
        assert run_hardy(fn, base=base, cap=cap) == oracle_hardy(fn, base, 1, cap)


class TestSearchArmstrong:
    def test_base3(self):
        assert values(search_armstrong(3)) == [5, 8, 17]

    def test_base4(self):
        expected = [int(s, 4) for s in ("130", "131", "203", "223", "313", "332", "1103", "3303")]
        assert values(search_armstrong(4)) == sorted(expected)

    def test_base10_order4(self):
        got = values(search_armstrong(10, max_order=4))
        assert [v for v in got if 1000 <= v <= 9999] == [1634, 8208, 9474]

    def test_order_ceiling_base10(self):
        ceiling = armstrong_order_ceiling(10)
        assert 60 < ceiling < 100

    def test_hits_record_their_order(self):
        hits = search_armstrong(3)
        assert [h.fn for h in hits] == ["pow:2", "pow:2", "pow:3"]

    def test_base10_through_20_digits_matches_a005188(self):
        a005188 = [
            153, 370, 371, 407, 1634, 8208, 9474, 54748, 92727, 93084, 548834,
            1741725, 4210818, 9800817, 9926315, 24678050, 24678051, 88593477,
            146511208, 472335975, 534494836, 912985153, 4679307774, 32164049650,
            32164049651, 40028394225, 42678290603, 44708635679, 49388550606,
            82693916578, 94204591914, 28116440335967, 4338281769391370,
            4338281769391371, 21897142587612075, 35641594208964132,
            35875699062250035, 1517841543307505039, 3289582984443187032,
            4498128791164624869, 4929273885928088826, 63105425988599693916,
        ]
        assert values(search_armstrong(10, max_order=20)) == a005188


def _flat_length(draw, base):
    """A length whose flat enumeration of multisets stays small, and an optional cap."""
    top = 1
    while top < 40 and comb(top + base, base - 1) <= 20_000:
        top += 1
    m = draw(st.integers(1, top))
    return m, draw(st.none() | st.integers(1, base**m))


@st.composite
def multiset_cases(draw):
    """A catalog F in base 2-16 and a length whose flat enumeration stays small."""
    base = draw(st.integers(2, 16))
    spec = parse_spec(draw(st.sampled_from(CATALOG_SPEC_TEXTS)))
    spec = with_zero_pow(spec, draw(st.sampled_from((0, 1))))
    m, cap = _flat_length(draw, base)
    return [evaluate(spec, d) for d in range(base)], base, m, cap


@st.composite
def arbitrary_multiset_cases(draw):
    """Any F table in base 2-16: repeated values, F(0) > 0, zeros and decreasing runs.

    Values reach past base**m so that sums can land anywhere in the m-digit
    window and beyond it.
    """
    base = draw(st.integers(2, 16))
    m, cap = _flat_length(draw, base)
    value = st.sampled_from((0, 1, base - 1, base, base**m - 1)) | st.integers(0, 2 * base**m)
    f_vals = draw(st.lists(value, min_size=base, max_size=base))
    if draw(st.booleans()):
        # a decreasing run over a random stretch of digits
        a = draw(st.integers(0, base - 1))
        b = draw(st.integers(a, base - 1))
        f_vals[a : b + 1] = sorted(f_vals[a : b + 1], reverse=True)
    return f_vals, base, m, cap


class TestMultisetEngine:
    @settings(max_examples=300, deadline=None)
    @given(multiset_cases())
    def test_pruned_search_equals_flat_enumeration(self, case):
        f_vals, base, m, cap = case
        got = sorted(_multiset_length(f_vals, base, m, cap)[0])
        assert got == sorted(oracle_multiset_length(f_vals, base, m, cap))

    # the carried prefix and the count range rest on the prefix extrema of F,
    # so tables far from any catalog function probe them hardest
    @settings(max_examples=300, deadline=None)
    @given(arbitrary_multiset_cases())
    def test_pruned_search_equals_flat_enumeration_for_any_table(self, case):
        f_vals, base, m, cap = case
        got = sorted(_multiset_length(f_vals, base, m, cap)[0])
        assert got == sorted(oracle_multiset_length(f_vals, base, m, cap))

    def test_length_one_keeps_zero_when_f0_is_zero(self):
        # the multiset (0,) sums to F(0); search_hardy drops the 0 afterwards
        assert sorted(_multiset_length([0, 1, 8, 27], 4, 1, None)[0]) == [0, 1]
        # one search level per digit: a base above the recursion limit still works
        assert sorted(_multiset_length([d * d for d in range(1500)], 1500, 1, None)[0]) == [0, 1]

    def test_a_spent_budget_lists_no_hits(self):
        cubes = [d**3 for d in range(10)]
        hits, left = _multiset_length(cubes, 10, 3, None, 10**6)
        assert sorted(hits) == [153, 370, 371, 407]
        nodes = 10**6 - left
        # a negative budget never runs out; it only counts down
        assert _multiset_length(cubes, 10, 3, None) == (hits, -1 - nodes)
        assert _multiset_length(cubes, 10, 3, None, nodes) == (hits, 0)
        assert _multiset_length(cubes, 10, 3, None, nodes - 1) is None
        # an empty window spends nothing
        assert _multiset_length(cubes, 10, 3, 99, 0) == ([], 0)

    def test_the_budget_spans_every_length(self):
        spec = parse_spec("pow:3")
        hits = _multiset_search(spec, 10, 4, None)
        nodes = sum(
            -1 - _multiset_length([d**3 for d in range(10)], 10, m, None)[1] for m in range(1, 5)
        )
        assert _multiset_search(spec, 10, 4, None, nodes) == hits
        assert _multiset_search(spec, 10, 4, None, nodes - 1) is None


@st.composite
def auto_cases(draw):
    """A catalog F in base 2-16 under either 0^0, with or without n = 0, and a
    cap, or none where the derived ceiling keeps the scan short."""
    base = draw(st.integers(2, 16))
    spec = parse_spec(draw(st.sampled_from(CATALOG_SPEC_TEXTS)))
    spec = with_zero_pow(spec, draw(st.sampled_from((0, 1))))
    cap = draw(st.none() | st.integers(1, 10**6))
    assume(cap is not None or hardy_bound(spec, base, 1).n_max <= 10**7)
    return SearchConfig(spec=spec, base=base, cap=cap, include_zero=draw(st.booleans()))


class TestAutoEngine:
    """``auto`` runs the multiset engine within a budget of the scan's work,
    and the scan when that budget runs out or the blocks are wider than a digit."""

    @settings(max_examples=300, deadline=None)
    @given(auto_cases())
    def test_equals_scan_and_multiset(self, cfg):
        auto = search_hardy(cfg)
        scan = search_hardy(cfg.replace(engine="scan"))
        multiset = search_hardy(cfg.replace(engine="multiset"))
        assert auto == scan == multiset
        assert auto.ceiling == scan.ceiling == multiset.ceiling
        assert (scan.engine, multiset.engine) == ("scan", "multiset")
        assert auto.engine in ("scan", "multiset")
        event(f"auto ran the {auto.engine}")

    @pytest.mark.parametrize(
        "fn, base, engine",
        [
            ("pow:7", 10, "multiset"),
            ("expbase:5", 10, "multiset"),
            ("factorial", 10, "multiset"),
            ("selfpow", 10, "multiset"),
            ("pow:5", 10, "multiset"),
            # the multiset engine outgrows its budget: a sixth of the scan's work
            ("pow:3", 36, "scan"),
            ("pow:4", 36, "scan"),
        ],
    )
    def test_picks_the_cheaper_engine(self, fn, base, engine):
        hits = search_hardy(SearchConfig(spec=parse_spec(fn), base=base))
        assert hits.engine == engine
        assert hits == search_hardy(SearchConfig(spec=parse_spec(fn), base=base, engine="scan"))

    def test_wide_blocks_go_straight_to_the_scan(self):
        cfg = SearchConfig(spec=parse_spec("pow:3"), width=2, cap=10**5)
        hits = search_hardy(cfg)
        assert hits.engine == "scan"
        assert hits == search_hardy(cfg.replace(engine="scan"))

    def test_a_base_above_the_table_span_counts_one_per_value(self):
        # the multiset engine walks one level per digit, over 2**17 of them
        cfg = SearchConfig(spec=parse_spec("pow:2"), base=_TABLE_SPAN + 1, cap=10**5)
        hits = search_hardy(cfg)
        assert hits.engine == "scan"
        assert [h.value for h in hits] == [1]

    def test_a_base_above_the_budget_goes_straight_to_the_scan(self, monkeypatch):
        # the multiset engine's per-digit tables alone would cost a million entries
        def refuse(*args):
            raise AssertionError("auto ran the multiset engine")

        monkeypatch.setattr(digitfix.search, "_multiset_search", refuse)
        hits = search_hardy(SearchConfig(spec=FunctionSpec.power(3), base=10**6, cap=10))
        assert hits.engine == "scan"
        assert [h.value for h in hits] == [1]

    def test_other_searches_name_no_engine(self):
        assert search_reversal(10, 6).engine is None
        assert search_armstrong(4).engine is None


class TestSearchWells:
    def test_factorial(self):
        assert values(search_wells(FunctionSpec.factorial(), 10)) == [1, 22, 23, 24]

    def test_self_power(self):
        assert values(search_wells(FunctionSpec.self_power(), 10)) == [1, 8, 9]

    def test_subfactorial(self):
        assert values(search_wells(FunctionSpec.subfactorial(), 10)) == [24, 25]

    def test_cap_variant(self):
        assert values(search_wells(FunctionSpec.factorial(), 10, cap=23)) == [1, 22, 23]


@st.composite
def walk_cases(draw):
    """A wells or dudeney search: a base, a catalog function and a cap near its
    cutoff, ten times the cutoff, or none; without a cutoff, a small cap."""
    family = draw(st.sampled_from(["wells", "dudeney"]))
    fn = draw(st.sampled_from([*CATALOG_SPEC_TEXTS, "fib"]))
    base = draw(st.integers(2, 16))
    cap_at = draw(st.sampled_from([None, -2, -1, 0, 1, 2, "10x"]))
    return family, fn, base, cap_at, draw(st.integers(1, 100)), draw(st.booleans())


class TestWalksMatchTheOracles:
    """search_wells and search_dudeney against per-value oracles that walk
    every n up to the ceiling, past the cutoff where a cap lies beyond it."""

    @settings(max_examples=300, deadline=None)
    @given(case=walk_cases(), engine=st.sampled_from(["scan", "preimage"]))
    def test_hits_and_ceiling(self, case, engine):
        family, fn, base, cap_at, small_cap, include_zero = case
        spec = parse_spec(fn)
        if family == "wells":
            derive, oracle, search, rest = wells_cutoff, oracle_wells, search_wells, ()
        else:
            derive, oracle, search, rest = dudeney_cutoff, oracle_dudeney, search_dudeney, (engine,)
        try:
            cutoff = derive(spec, base).cutoff
        except UnsupportedFunctionError:
            # no cutoff: only a capped search runs, and it walks to the cap
            event(f"{family}: no cutoff")
            with pytest.raises(UnsupportedFunctionError):
                search(spec, base, None, *rest, include_zero)
            cap = small_cap
        else:
            if cap_at is None:
                cap = None
            elif cap_at == "10x":
                cap = 10 * cutoff
            else:
                cap = max(1, cutoff + cap_at)
        hits = search(spec, base, cap, *rest, include_zero)
        top = cutoff - 1 if cap is None else cap
        assert values(hits) == oracle(spec, base, top, include_zero)
        assert hits.ceiling == top

    def test_capped_walks_stop_at_the_cutoff(self, monkeypatch):
        # the cutoffs are 28 and 55: caps far above them walk no further
        walked = []

        def spy(spec, start, stop):
            for n, value in zip(range(start, stop), images(spec, start, stop)):
                walked.append(n)
                yield value

        monkeypatch.setattr(digitfix.search, "images", spy)
        factorial, cube = parse_spec("factorial"), parse_spec("pow:3")
        capped = search_wells(factorial, 10, 20000)
        assert values(capped) == [1, 22, 23, 24] and capped.ceiling == 20000
        assert max(walked) == 27
        walked.clear()
        capped = search_dudeney(cube, 10, 2 * 10**6)
        assert values(capped) == [1, 8, 17, 18, 26, 27] and capped.ceiling == 2 * 10**6
        assert max(walked) == 54

    def test_a_cap_below_the_threshold_derives_no_cutoff(self, monkeypatch):
        # the wells threshold is factorial's cutoff, 271 829 in base 10**5 and
        # 272 in base 100, where subfactorial's cutoff scans !n from n = 100
        # up; pow:3's digit-sum threshold in base 5000 is 25 * 10**6: a cap
        # below either, even one above the base, walks to the cap alone
        def refuse(*args):
            raise AssertionError("derived a cutoff")

        monkeypatch.setattr(digitfix.search, "wells_cutoff", refuse)
        monkeypatch.setattr(digitfix.search, "dudeney_cutoff", refuse)
        hits = search_wells(parse_spec("factorial"), 10**5, 5)
        assert values(hits) == [1] and hits.ceiling == 5
        spec = parse_spec("subfactorial")
        hits = search_wells(spec, 100, 200)
        assert values(hits) == oracle_wells(spec, 100, 200) and hits.ceiling == 200
        hits = search_dudeney(parse_spec("pow:3"), 5000, 10)
        assert values(hits) == [1] and hits.ceiling == 10

    def test_capped_wells_without_a_cutoff_walks_to_the_cap(self):
        # deriving the base-2 cutoff of F(n) = 7 - n evaluates F(8) = -1, no
        # natural number; the walk to the cap 7, above the threshold 6, never does
        spec = parse_spec("poly:-1,7")
        with pytest.raises(ValueError, match="not a natural number"):
            wells_cutoff(spec, 2)
        hits = search_wells(spec, 2, 7)
        assert values(hits) == [3] == oracle_wells(spec, 2, 7) and hits.ceiling == 7


class TestSearchWellsReverse:
    def test_fifth_power(self):
        got = values(search_wells_reverse(parse_spec("pow:5"), 10, 100000))
        assert got == [1, 32, 243, 1024]
        with_zero = values(search_wells_reverse(parse_spec("pow:5"), 10, 100000, include_zero=True))
        assert with_zero == [0, 1, 32, 243, 1024]

    def test_fourth_power(self):
        assert values(search_wells_reverse(parse_spec("pow:4"), 10, 100000)) == [1, 16]

    def test_length_one_fixed_point_iff_f1_single_digit(self):
        for fn in ("pow:5", "factorial", "expbase:4", "fib"):
            spec = parse_spec(fn)
            got = values(search_wells_reverse(spec, 10, 9))
            assert (spec(1) in got) == (spec(1) <= 9)

    def test_cap_required(self):
        with pytest.raises(ConfigurationError):
            search_wells_reverse(parse_spec("pow:5"), 10, None)

    @settings(max_examples=200, deadline=None)
    @given(
        fn=st.sampled_from([*CATALOG_SPEC_TEXTS, "fib", "poly:1,-1"]),
        base=st.integers(2, 16),
        cap=st.one_of(st.integers(1, 100), st.integers(1, 10**4)),
        zero_pow_zero=st.sampled_from([0, 1]),
        include_zero=st.booleans(),
    )
    def test_matches_the_per_value_oracle(self, fn, base, cap, zero_pow_zero, include_zero):
        spec = with_zero_pow(parse_spec(fn), zero_pow_zero)
        hits = search_wells_reverse(spec, base, cap, include_zero)
        assert values(hits) == oracle_wells_reverse(spec, base, cap, include_zero)
        assert hits.ceiling == cap


class TestSearchDudeney:
    def test_cubes(self):
        got = values(search_dudeney(parse_spec("pow:3"), 10))
        assert got == [1, 8, 17, 18, 26, 27]
        assert sorted(v**3 for v in got) == [1, 512, 4913, 5832, 17576, 19683]

    def test_squares(self):
        assert values(search_dudeney(parse_spec("pow:2"), 10)) == [1, 9]

    def test_fibonacci_with_cap(self):
        got = values(search_dudeney(parse_spec("fib"), 10, cap=100))
        assert got[:5] == [1, 5, 10, 31, 35]
        # exact Fibonacci arithmetic also exposes the two later fixed points
        assert got == [1, 5, 10, 31, 35, 62, 72]

    def test_fibonacci_without_cap_unsupported(self):
        with pytest.raises(UnsupportedFunctionError):
            search_dudeney(parse_spec("fib"), 10)

    def test_preimage_engine_matches_scan(self):
        # for a pure power the digit-sum cutoff is s_max + 1, and both engine
        # names run the one walk below it
        for p in range(2, 9):
            spec = parse_spec(f"pow:{p}")
            for base in range(2, 37):
                s_max = powersum_bound(p, base).s_max
                assert dudeney_cutoff(spec, base).cutoff == s_max + 1, (p, base)
                pre = search_dudeney(spec, base, engine="preimage")
                scan = search_dudeney(spec, base, engine="scan")
                assert pre == scan and pre.ceiling == scan.ceiling == s_max, (p, base)

    def test_capped_scan_stops_at_the_cutoff(self):
        # no n at or above the cutoff (55) can be a hit, so a cap far above it
        # finds the preimage engine's hits at once and still reports the cap
        spec = parse_spec("pow:3")
        capped = search_dudeney(spec, 10, cap=10**6, engine="scan")
        assert capped == search_dudeney(spec, 10, engine="preimage")
        assert capped.ceiling == 10**6
        # a cap below the cutoff still bounds the walk
        assert values(search_dudeney(spec, 10, cap=20)) == [1, 8, 17, 18]

    def test_preimage_runs_the_scan_for_any_kind(self):
        factorial = parse_spec("factorial")
        pre = search_dudeney(factorial, 10, cap=50, engine="preimage")
        assert pre == search_dudeney(factorial, 10, cap=50) and pre.ceiling == 50
        assert values(pre) == [1, 2]
        with pytest.raises(UnsupportedFunctionError):
            search_dudeney(factorial, 10, engine="preimage")
        with pytest.raises(ConfigurationError, match="unknown digit-sum engine 'multiset'"):
            search_dudeney(factorial, 10, cap=50, engine="multiset")


class TestSearchPowersum:
    def test_cubes(self):
        got = values(search_powersum(3, 10))
        assert got == [1, 512, 4913, 5832, 17576, 19683]
        assert values(search_powersum(3, 10, include_zero=True)) == [0] + got

    def test_squares(self):
        assert values(search_powersum(2, 10)) == [1, 81]

    @pytest.mark.parametrize("p", [1, 0, -2])
    def test_refuses_an_exponent_below_two(self, p):
        # every n = digit_sum(n)**1 below the base would pass for a hit
        with pytest.raises(ConfigurationError, match=f"exponent must be at least 2, got {p}"):
            search_powersum(p, 10)

    def test_engines_agree(self):
        for b in range(2, 17):
            for p in (2, 3, 4):
                pre = values(search_powersum(p, b, engine="preimage"))
                assert values(search_powersum(p, b, engine="scan")) == pre, (p, b)

    def test_duality_with_dudeney(self):
        roots = values(search_dudeney(parse_spec("pow:3"), 10))
        assert sorted(s**3 for s in roots) == values(search_powersum(3, 10))

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.integers(2, 16),
        p=st.integers(2, 4),
        root=st.integers(1, 60),
        at_hit=st.booleans(),
        edge=st.sampled_from([-1, 0, 1]),
    )
    def test_matches_per_value_oracle(self, base, p, root, at_hit, edge):
        # the cap sits at a power, one below or one above it: at a fixed point
        # when at_hit, else at root**p; the oracle checks every value up to it
        if at_hit:
            hits = [v for v in values(search_powersum(p, base)) if v <= ORACLE_REACH]
            n = hits[root % len(hits)]
        else:
            n = root**p
            assume(n <= ORACLE_REACH)
        cap = max(1, n + edge)
        want = oracle_powersum(1, cap + 1, p, base)
        for engine in ("preimage", "scan"):
            got = search_powersum(p, base, engine=engine, cap=cap)
            assert values(got) == want, engine
            assert got.ceiling == min(powersum_bound(p, base).s_max ** p, cap)

    @pytest.mark.parametrize(
        "base, p, n",
        # n is 0 and -1 modulo base**3: a hit on the edge of a block of three digits
        [(27, 5, 18**5), (33, 5, 108175616801)],
    )
    def test_cap_at_a_hit_on_a_block_edge(self, base, p, n):
        assert n % base**3 in (0, base**3 - 1)
        assert oracle_digit_sum(n, base) ** p == n
        for engine in ("preimage", "scan"):
            below = values(search_powersum(p, base, engine=engine, cap=n - 1))
            assert values(search_powersum(p, base, engine=engine, cap=n)) == below + [n]

    def test_fifth_powers(self):
        fifth = [1, 17210368, 52521875, 60466176, 205962976]
        assert values(search_powersum(5, 10)) == fifth
        assert values(search_powersum(5, 10, engine="scan")) == fifth
        # the cap is inclusive
        assert values(search_powersum(5, 10, engine="scan", cap=fifth[-1])) == fifth
        assert values(search_powersum(5, 10, engine="scan", cap=fifth[-1] - 1)) == fifth[:4]

    @pytest.mark.parametrize("p, base", [(6, 10), (9, 10), (12, 10), (7, 100), (20, 3)])
    def test_engines_agree_on_high_powers(self, p, base):
        # the scan walks the s_max roots, so its cost does not grow with s_max**p
        pre = values(search_powersum(p, base))
        assert values(search_powersum(p, base, engine="scan")) == pre


class TestSearchReversal:
    def test_four_digit(self):
        hits = search_reversal(10, 4)
        assert [(h.value, *h.images) for h in hits] == [
            (8712, 4, 2178),
            (9801, 9, 1089),
        ]

    def test_two_and_three_digit_empty(self):
        assert search_reversal(10, 2) == []
        assert search_reversal(10, 3) == []

    def test_min_digits(self):
        with pytest.raises(ConfigurationError):
            search_reversal(10, 1)

    def test_automaton_equals_oracle(self):
        # every base 2-12 and every length whose brute force stays small
        for base in range(2, 13):
            k = 2
            while base**k <= 200_000:
                got = [(h.value, h.images[0]) for h in search_reversal(base, k)]
                assert got == oracle_reversal(base, k), (base, k)
                k += 1

    def test_sloane_counts_base10(self):
        # Sloane, "2178 and all that": 2 F(floor(k/2) - 1) hits of length k,
        # half with multiplier 4 and half with 9 (F(0) = 0, F(1) = 1)
        fib = [0, 1]
        while len(fib) < 15:
            fib.append(fib[-1] + fib[-2])
        for k in range(2, 31):
            multipliers = [h.images[0] for h in search_reversal(10, k)]
            assert len(multipliers) == 2 * fib[k // 2 - 1], k
            assert multipliers.count(4) == multipliers.count(9) == len(multipliers) // 2, k

    def test_counts_meet_sloane_without_listing(self):
        # the path count of each live automaton, against 2 F(floor(k/2) - 1)
        # split evenly between multipliers 4 and 9, far past any listable length
        fib = [0, 1]
        while len(fib) < 200:
            fib.append(fib[-1] + fib[-2])
        for k in list(range(2, 61)) + [199, 200, 201, 400]:
            counts = {lam: _reversal_automaton(lam, 10, k)[2] for lam in range(2, 10)}
            assert counts == {lam: fib[k // 2 - 1] if lam in (4, 9) else 0 for lam in counts}, k

    def test_counts_equal_listed_hits(self):
        for base, k in ((3, 30), (5, 9), (8, 7), (10, 30), (12, 6), (16, 5)):
            total = sum(_reversal_automaton(lam, base, k)[2] for lam in range(2, base))
            assert total == len(search_reversal(base, k)), (base, k)

    def test_refused_above_the_budget(self, monkeypatch):
        import digitfix.search as search_mod

        monkeypatch.setattr(search_mod, "_REVERSAL_HIT_BUDGET", 754)
        assert len(search_reversal(10, 30)) == 754
        monkeypatch.setattr(search_mod, "_REVERSAL_HIT_BUDGET", 753)
        with pytest.raises(ConfigurationError, match=" 754 "):
            search_reversal(10, 30)

    def test_refusal_names_the_budget_past_the_int_to_str_limit(self):
        # 6200 digits have about 2 * F(3099) hits, a count of 648 decimal digits
        count = sum(_reversal_automaton(lam, 10, 6200)[2] for lam in range(2, 10))
        count_text = str(count)
        assert len(count_text) > 640
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the least limit Python accepts
        try:
            with pytest.raises(ConfigurationError) as refused:
                search_reversal(10, 6200)
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(refused.value) == (
            f"base 10 has {count_text} reversal multiples of 6200 digits, "
            "more than the 100000 one search lists"
        )

    def test_base8_seven_digits(self):
        got = [(h.value, h.images[0]) for h in search_reversal(8, 7)]
        assert got == [
            (1346625, 5), (1376298, 2), (1400490, 2), (1535625, 5),
            (1548666, 2), (1572858, 2), (1769418, 3), (2064321, 7),
        ]


class TestHitVerification:
    """No hit is trusted from search state: constructing a wrong one raises."""

    def test_hardy_hit_rejects_non_solution(self):
        with pytest.raises(ValueError):
            hardy_hit(146, 10, 1, parse_spec("factorial"))

    def test_armstrong_hit_rejects(self):
        with pytest.raises(ValueError):
            armstrong_hit(152, 10, 3)
        with pytest.raises(ValueError):
            armstrong_hit(153, 10, 4)  # wrong order for its digit count

    def test_wells_hit_rejects(self):
        with pytest.raises(ValueError):
            wells_hit(21, 10, FunctionSpec.factorial())

    def test_wells_hit_rejects_an_image_of_zero(self):
        # !1 = 0 has no digits, as search_wells reads it, so 1 is no hit
        with pytest.raises(ValueError, match=r"digit_count\(F\(1\)\) = 0 != 1"):
            wells_hit(1, 10, parse_spec("subfactorial"))
        assert wells_hit(0, 10, parse_spec("pow:2")).images == (0,)
        with pytest.raises(ValueError):
            wells_hit(0, 10, parse_spec("factorial"))

    def test_wells_reverse_hit_rejects(self):
        with pytest.raises(ValueError):
            wells_reverse_hit(33, 10, parse_spec("pow:5"))

    def test_dudeney_hit_rejects(self):
        with pytest.raises(ValueError):
            dudeney_hit(7, 10, parse_spec("pow:3"))

    def test_powersum_hit_rejects(self):
        with pytest.raises(ValueError):
            powersum_hit(513, 10, 3)

    def test_reversal_hit_rejects(self):
        with pytest.raises(ValueError):
            reversal_hit(8713, 10)
        with pytest.raises(ValueError):
            reversal_hit(2178, 10)  # multiplier below 2 from the smaller side


F3 = parse_spec("pow:3")


class TestCeilings:
    """Each search returns, with its hits, the ceiling it proved: the largest
    value (or order) it covered, inclusive; the cap when one was given, else
    the derived bound that the search itself used."""

    @pytest.mark.parametrize(
        "search, ceiling",
        [
            (lambda: search_hardy(SearchConfig(spec=parse_spec("factorial"))),
             hardy_bound(parse_spec("factorial"), 10, 1).n_max),
            (lambda: search_hardy(SearchConfig(spec=F3, engine="multiset")),
             hardy_bound(F3, 10, 1).n_max),
            (lambda: search_hardy(SearchConfig(spec=F3, cap=1000, engine="multiset")), 1000),
            (lambda: search_armstrong(4), armstrong_order_ceiling(4) - 1),
            (lambda: search_armstrong(10, 5), 5),
            (lambda: search_armstrong(3, 50), armstrong_order_ceiling(3) - 1),
            (lambda: search_wells(parse_spec("factorial"), 10),
             wells_cutoff(parse_spec("factorial"), 10).cutoff - 1),
            (lambda: search_wells(parse_spec("factorial"), 10, 23), 23),
            (lambda: search_wells(parse_spec("factorial"), 10, 20000), 20000),
            (lambda: search_wells_reverse(parse_spec("pow:5"), 10, 100000), 100000),
            (lambda: search_dudeney(F3, 10), dudeney_cutoff(F3, 10).cutoff - 1),
            (lambda: search_dudeney(F3, 10, 20), 20),
            (lambda: search_dudeney(F3, 10, engine="preimage"), powersum_bound(3, 10).s_max),
            (lambda: search_dudeney(F3, 10, 100, engine="preimage"), 100),
            (lambda: search_powersum(3, 10), powersum_bound(3, 10).s_max ** 3),
            (lambda: search_powersum(3, 10, engine="scan", cap=5000), 5000),
            (lambda: search_powersum(3, 10, cap=10**9), powersum_bound(3, 10).s_max ** 3),
            (lambda: search_reversal(10, 6), 999999),
            (lambda: search_reversal(8, 7), 8**7 - 1),
        ],
    )
    def test_ceiling_is_the_cap_or_the_derived_bound(self, search, ceiling):
        hits = search()
        assert hits.ceiling == ceiling
        assert [h.value for h in hits] == sorted(h.value for h in hits)

    @pytest.mark.parametrize("order", [-3, 0, 1])
    def test_armstrong_refuses_max_order_below_two(self, order):
        with pytest.raises(ConfigurationError, match=f"max_order must be at least 2, got {order}"):
            search_armstrong(10, order)


class TestRunSearch:
    @pytest.mark.parametrize(
        "fields, direct",
        [
            (dict(family="hardy", fn="factorial"),
             lambda: search_hardy(SearchConfig(spec=parse_spec("factorial")))),
            (dict(family="hardy", fn="pow:3", k=2, engine="scan", cap=10**5),
             lambda: search_hardy(SearchConfig(spec=parse_spec("pow:3"), width=2, cap=10**5))),
            (dict(family="hardy", fn="selfpow:0", engine="multiset"),
             lambda: search_hardy(
                 SearchConfig(spec=parse_spec("selfpow").replace(zero_self_power=0), engine="multiset")
             )),
            (dict(family="armstrong", base=4, max_order=3), lambda: search_armstrong(4, 3)),
            (dict(family="wells", fn="subfactorial"),
             lambda: search_wells(parse_spec("subfactorial"), 10)),
            (dict(family="wells-reverse", fn="pow:5", cap=10**5, include_zero=True),
             lambda: search_wells_reverse(parse_spec("pow:5"), 10, 10**5, True)),
            (dict(family="dudeney", fn="pow:3", engine="preimage"),
             lambda: search_dudeney(parse_spec("pow:3"), 10, engine="preimage")),
            (dict(family="powersum", fn="pow:3"), lambda: search_powersum(3, 10)),
            (dict(family="powersum", fn="pow:3", engine="scan", base=7),
             lambda: search_powersum(3, 7, engine="scan")),
            (dict(family="reversal", digits=6), lambda: search_reversal(10, 6)),
        ],
    )
    def test_matches_the_direct_search(self, fields, direct):
        entry = CorpusEntry(id="e", kind="search", expected=[], **fields)
        got, want = run_search(entry.family, entry), direct()
        assert got == want and got.ceiling == want.ceiling

    def test_default_engines(self, monkeypatch):
        seen = []
        for name in ("search_hardy", "search_dudeney", "search_powersum"):
            original = getattr(digitfix.search, name)

            def spy(*args, _original=original, **kwargs):
                seen.append(kwargs.get("engine", getattr(args[0], "engine", None)))
                return _original(*args, **kwargs)

            monkeypatch.setattr(digitfix.search, name, spy)
        for family in ("hardy", "dudeney", "powersum"):
            run_search(family, CorpusEntry(id="e", kind="search", expected=[], fn="pow:2"))
        # hardy's engine is its config's; the digit-sum searches keep their own
        # defaults, and so does the search_dudeney call powersum makes for its roots
        assert seen == ["auto", None, None, None]

    def test_looks_up_the_searches_when_called(self, monkeypatch):
        calls = []
        monkeypatch.setattr(digitfix.search, "search_wells", lambda *a: calls.append(a) or [])
        entry = CorpusEntry(id="e", kind="search", expected=[], family="wells", fn="factorial")
        assert run_search("wells", entry) == []
        assert calls == [(parse_spec("factorial"), 10, None, False)]

    def test_unknown_family(self):
        entry = CorpusEntry(id="e", kind="search", expected=[], fn="pow:3")
        with pytest.raises(ConfigurationError, match="unknown search family 'narcissus'"):
            run_search("narcissus", entry)

    def test_powersum_needs_a_power(self):
        entry = CorpusEntry(id="e", kind="search", expected=[], fn="factorial")
        with pytest.raises(ConfigurationError, match="pow:P"):
            run_search("powersum", entry)

    @pytest.mark.parametrize(
        "family, engine",
        [("wells", "bogus"), ("wells", "scan"), ("wells-reverse", "scan"), ("armstrong", "scan"),
         ("armstrong", "multiset"), ("reversal", "scan"), ("hardy", "preimage"),
         ("dudeney", "multiset"), ("powersum", "multiset")],
    )
    def test_refuses_an_engine_the_family_lacks(self, family, engine):
        entry = CorpusEntry(
            id="e", kind="search", expected=[], fn="pow:3", cap=10, digits=2, engine=engine
        )
        with pytest.raises(ConfigurationError, match=f"no engine '{engine}'"):
            run_search(family, entry)

    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "hardy"])
    def test_refuses_a_block_width_the_family_never_reads(self, family):
        entry = CorpusEntry(id="e", kind="search", expected=[], fn="pow:3", cap=10, digits=2, k=3)
        with pytest.raises(ConfigurationError, match="reads no block width, got k = 3"):
            run_search(family, entry)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_returns_the_one_hit_record(self, family):
        entry = CorpusEntry(
            id="e", kind="search", expected=[], fn="pow:3", cap=10**4, max_order=4, digits=4
        )
        hits = run_search(family, entry)
        assert hits and all(type(h) is SearchHit for h in hits)
        assert SearchHit.__slots__ == ("value", "images", "family", "fn")
        assert {h.family for h in hits} == {family}
        # a hit's text line reads only the hit and the search parameters
        assert all(isinstance(FAMILY_TABLE[family].line(h, entry), str) for h in hits)
        if family == "reversal":
            assert all(h.value == h.images[0] * h.images[1] and h.fn is None for h in hits)

    def test_first_engine_is_the_searchs_own_default(self):
        # run_search passes the first engine where the command line gives none
        defaults = {
            "hardy": SearchConfig().engine,
            "dudeney": inspect.signature(search_dudeney).parameters["engine"].default,
            "powersum": inspect.signature(search_powersum).parameters["engine"].default,
        }
        assert {f: e.engines[0] for f, e in FAMILY_TABLE.items() if e.engines} == defaults
