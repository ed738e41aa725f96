import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitfix.bounds import dudeney_cutoff, hardy_bound, powersum_bound, wells_cutoff
from digitfix.digitops import digit_count, digit_sum
from digitfix.errors import ConfigurationError, UnsupportedFunctionError
from digitfix.funcatalog import FunctionSpec, evaluate, parse_spec

from conftest import (
    CATALOG_SPEC_TEXTS,
    check_dudeney_report,
    check_hardy_report,
    check_wells_report,
    oracle_block_fsum,
    oracle_dudeney,
    oracle_hardy,
    oracle_wells,
)

# every catalog spec under both 0**0 conventions, and two polynomials
CERTIFIED_SPECS = [*CATALOG_SPEC_TEXTS, "selfpow:0", "poly:1/2,1/2,0", "poly:2,0,3"]
POLYNOMIAL_SPECS = [t for t in CERTIFIED_SPECS if parse_spec(t).kind in ("power", "polynomial")]

# a block width 1-3 and a base 2-36 whose block radix is at most 4096
widths_and_bases = st.integers(1, 3).flatmap(
    lambda width: st.tuples(st.just(width), st.integers(2, 16 if width == 3 else 36))
)


class TestHardyBound:
    @pytest.mark.parametrize(
        "fn,s,m,n_max",
        [
            ("factorial", 362880, 8, 2540160),
            ("pow:5", 59049, 7, 354294),
            ("selfpow", 387420489, 11, 3874204890),
        ],
    )
    def test_derived_examples(self, fn, s, m, n_max):
        spec = parse_spec(fn)
        report = hardy_bound(spec, 10, 1)
        assert (report.s_k, report.block_threshold, report.n_max) == (s, m, n_max)
        # oracle: the inequality chain itself
        assert 10 ** (m - 1) > m * s
        assert 10 ** (m - 2) <= (m - 1) * s

    def test_predicate_persists(self):
        for fn in ("factorial", "pow:5", "pow:3", "expbase:4", "subfactorial"):
            report = hardy_bound(parse_spec(fn), 10, 1)
            m0 = report.block_threshold
            for m in range(m0, m0 + 33):
                assert 10 ** (m - 1) > m * report.s_k

    def test_n_max_formula_and_spot_checks(self):
        for base, width in [(10, 1), (10, 2), (3, 1), (16, 1)]:
            report = hardy_bound(FunctionSpec.power(3), base, width)
            assert report.n_max == (report.block_threshold - 1) * report.s_k
            radix = base**width
            for m in range(report.block_threshold, report.block_threshold + 11):
                assert radix ** (m - 1) > m * report.s_k

    def test_width_two_cubes(self):
        report = hardy_bound(FunctionSpec.power(3), 10, 2)
        assert report.s_k == 99**3
        assert report.n_max == 3881196

    def test_no_solutions_just_above_ceiling(self):
        # smoke: rescanning a window above the ceiling finds nothing
        for fn in ("factorial", "pow:5"):
            report = hardy_bound(parse_spec(fn), 10, 1)
            extra = oracle_hardy(fn, 10, 1, report.n_max + 100_000)
            assert all(v <= report.n_max for v in extra)

    def test_fibonacci_rejected(self):
        with pytest.raises(UnsupportedFunctionError):
            hardy_bound(FunctionSpec.fibonacci(), 10, 1)

    def test_polynomial_block_range_guarded(self):
        # a polynomial maximum over 10**9 block values would never finish
        with pytest.raises(ConfigurationError):
            hardy_bound(parse_spec("poly:1,0,0"), 10, 9)
        # but modest widths scan fine
        assert hardy_bound(parse_spec("poly:1,0,0"), 10, 2).s_k == 99**2

    def test_justification_is_text(self):
        report = hardy_bound(parse_spec("pow:5"), 10, 1)
        assert any("59049" in line for line in report.justification)


class TestWellsCutoff:
    def test_factorial_base10(self):
        report = wells_cutoff(FunctionSpec.factorial(), 10)
        assert report.cutoff == 28
        assert report.method == "analytic"
        for n, lhs, rhs in report.witnesses:
            assert lhs >= rhs  # n! >= 10**n at and beyond the cutoff

    def test_self_power_base10(self):
        assert wells_cutoff(FunctionSpec.self_power(), 10).cutoff == 10

    def test_power4_small_and_sound(self):
        report = wells_cutoff(FunctionSpec.power(4), 10)
        assert report.cutoff <= 10
        # oracle: direct check for n <= 100
        spec = FunctionSpec.power(4)
        for n in range(report.cutoff, 101):
            assert not (10 ** (n - 1) <= evaluate(spec, n) < 10**n)

    @pytest.mark.parametrize("fn", ["factorial", "selfpow", "subfactorial", "expbase:4", "fib"])
    def test_no_hits_in_window_above_cutoff(self, fn):
        spec = parse_spec(fn)
        cutoff = wells_cutoff(spec, 10).cutoff
        for n in range(cutoff, cutoff + 101):
            assert not (10 ** (n - 1) <= evaluate(spec, n) < 10**n)

    def test_exp_base_at_least_base(self):
        # c >= b means F(n) >= b**n everywhere: cutoff 1, no fixed points at all
        assert wells_cutoff(FunctionSpec.exp_base(10), 10).cutoff == 1
        assert wells_cutoff(FunctionSpec.exp_base(13), 10).cutoff == 1

    def test_witnesses_hold_on_the_low_side_too(self):
        # growth below the base: witnesses certify F(n) < b**(n-1) at N, N+1
        for fn in ("expbase:3", "pow:4", "fib"):
            report = wells_cutoff(parse_spec(fn), 10)
            for n, lhs, rhs in report.witnesses:
                assert lhs < rhs


class TestDudeneyCutoff:
    def test_cubes_base10(self):
        report = dudeney_cutoff(FunctionSpec.power(3), 10)
        # minimal: 54 = 9 * digit_count(54**3) fails the strict inequality
        assert report.cutoff == 55
        spec = FunctionSpec.power(3)
        assert 54 <= 9 * digit_count(evaluate(spec, 54), 10)
        for n in range(55, 256):
            assert n > 9 * digit_count(evaluate(spec, n), 10)

    def test_identity_function(self):
        report = dudeney_cutoff(FunctionSpec.power(1), 10)
        for n in range(report.cutoff, 1000):
            assert n > 9 * digit_count(n, 10)
        assert report.cutoff - 1 <= 9 * digit_count(report.cutoff - 1, 10)

    def test_fibonacci_unsupported(self):
        with pytest.raises(UnsupportedFunctionError):
            dudeney_cutoff(FunctionSpec.fibonacci(), 10)

    def test_witnesses_hold_at_and_after_cutoff(self):
        report = dudeney_cutoff(FunctionSpec.power(2), 10)
        held = {n: lhs > rhs for n, lhs, rhs in report.witnesses}
        assert held[report.cutoff] and held[report.cutoff + 1]


class TestPowerSumBound:
    def test_cubes_base10(self):
        bound = powersum_bound(3, 10)
        assert bound.coarse == 10**9
        assert bound.s_max == 54  # oracle below
        assert 54 <= 9 * digit_count(54**3, 10)
        for s in range(55, 1000):
            assert s > 9 * digit_count(s**3, 10)

    def test_squares_base10(self):
        bound = powersum_bound(2, 10)
        # known fixed points sit below s_max**2
        fixed = [n for n in range(1, 10**4 + 1) if digit_sum(n, 10) ** 2 == n]
        assert fixed == [1, 81]
        assert all(n <= bound.s_max**2 for n in fixed)

    def test_squares_base2_full_enumeration(self):
        bound = powersum_bound(2, 2)
        assert bound.coarse == 16
        fixed = [n for n in range(1, bound.coarse + 1) if digit_sum(n, 2) ** 2 == n]
        assert fixed == [1]

    def test_dominance_from_base_four(self):
        # for b >= 4 the digit-sum bound s_max**p sits below the coarse b**(p*p)
        for p in range(2, 7):
            for b in range(4, 17):
                bound = powersum_bound(p, b)
                assert bound.s_max**p <= bound.coarse

    def test_dominance_fails_for_tiny_bases(self):
        # the coarse ceiling is NOT implied by the digit-count inequality when
        # the base is 2 or 3: the admissible digit sums reach past it
        bound = powersum_bound(2, 2)
        assert bound.s_max == 6 and bound.s_max**2 > bound.coarse
        bound = powersum_bound(2, 3)
        assert bound.s_max**2 > bound.coarse

    def test_preconditions(self):
        with pytest.raises(ConfigurationError):
            powersum_bound(1, 10)
        with pytest.raises(ConfigurationError):
            powersum_bound(3, 1)


class TestCertificates:
    """Each report re-proves itself under the checkers of tests/conftest.py,
    and a brute-force oracle finds no hit just above its ceiling or cutoff."""

    @settings(max_examples=120, deadline=None)
    @given(fn=st.sampled_from(CERTIFIED_SPECS), width_base=widths_and_bases)
    def test_hardy_reports(self, fn, width_base):
        width, base = width_base
        spec = parse_spec(fn)
        report = hardy_bound(spec, base, width)
        check_hardy_report(report, spec, base, width)
        if report.n_max <= 10**9:
            for n in range(report.n_max + 1, report.n_max + 200):
                assert oracle_block_fsum(n, base**width, spec) != n

    # radices past the generated ones, where the threshold walk, which starts
    # at digit_count(s_k), ends between 4 and 1 297 blocks
    @pytest.mark.parametrize(
        "fn,base,width",
        [("selfpow", 36, 2), ("factorial", 36, 2), ("pow:3", 200, 1), ("subfactorial", 200, 1),
         ("expbase:7", 1000, 1), ("poly:1/2,1/2,0", 1000, 1)],
    )
    def test_hardy_reports_at_large_radices(self, fn, base, width):
        spec = parse_spec(fn)
        check_hardy_report(hardy_bound(spec, base, width), spec, base, width)

    @settings(max_examples=120, deadline=None)
    @given(fn=st.sampled_from(CERTIFIED_SPECS), base=st.integers(2, 36))
    def test_wells_reports(self, fn, base):
        spec = parse_spec(fn)
        report = wells_cutoff(spec, base)
        check_wells_report(report, spec, base)
        top = report.cutoff + 20
        assert [n for n in oracle_wells(spec, base, top) if n >= report.cutoff] == []

    @settings(max_examples=80, deadline=None)
    @given(fn=st.sampled_from(POLYNOMIAL_SPECS), base=st.integers(2, 36))
    def test_dudeney_reports(self, fn, base):
        spec = parse_spec(fn)
        report = dudeney_cutoff(spec, base)
        check_dudeney_report(report, spec, base)
        top = report.cutoff + 20
        assert [n for n in oracle_dudeney(spec, base, top) if n >= report.cutoff] == []
