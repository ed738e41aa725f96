import decimal
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitfix import families
from digitfix.corpus import load_corpus
from digitfix.digitops import digit_count
from digitfix.errors import ConfigurationError
from digitfix.families import (
    PiezasParams,
    decimal_str,
    elide_numeral,
    piezas_generate,
    piezas_numerals,
    reflect_pair,
    verify_concat_square,
    vitalis_generate,
)


class TestPiezas:
    def test_first_member_printed_values(self):
        pair = piezas_generate(2, 0)
        assert pair.x == 941176470588
        assert pair.y == 235294117648
        assert pair.block_length == 12

    def test_second_member_printed_values(self):
        pair = piezas_generate(2, 1)
        assert pair.x == 9411764705882352941176470588
        assert pair.y == 2352941176470588235294117648
        assert pair.block_length == 28

    @pytest.mark.parametrize("index", [2, 3, 4])
    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_exact_division_and_identity(self, index, t):
        # piezas_generate raises on any inexact division or failed identity
        pair = piezas_generate(index, t)
        assert verify_concat_square(pair.x, pair.y, pair.block_length)

    @pytest.mark.parametrize("index,short", [(2, 0), (3, 1), (4, 2)])
    def test_digit_length_law(self, index, short):
        # x always fills the field; y falls short by a fixed margin once the
        # multiplier-to-prime ratio drops below one tenth (indices 3 and 4)
        for t in (0, 1):
            pair = piezas_generate(index, t)
            assert digit_count(pair.x, 10) == pair.block_length
            assert digit_count(pair.y, 10) == pair.block_length - short
            assert pair.y < 10**pair.block_length

    def test_parameter_derivation(self):
        params = PiezasParams.from_index(3, 1)
        assert (params.fe, params.a, params.l, params.u) == (257, 16, 64, 7)
        assert params.block_length == 448
        for index in (2, 3, 4):
            for t in range(5):
                p = PiezasParams.from_index(index, t)
                assert p.u % 4 == 3
                assert p.a * p.a + 1 == p.fe
                assert 4 * p.l + 1 == p.fe

    def test_rejects_bad_inputs(self):
        for make in (piezas_generate, piezas_numerals):
            for index, t in ((1, 0), (5, 0), (2, -1)):
                with pytest.raises(ConfigurationError):
                    make(index, t)


class TestPiezasNumerals:
    """The decimal path against the int path, which is the reference."""

    @pytest.mark.parametrize("index", [2, 3, 4])
    @pytest.mark.parametrize("t", [0, 1, 2, 3])
    def test_matches_int_path(self, index, t):
        pair = piezas_generate(index, t)
        assert piezas_numerals(index, t) == (
            decimal_str(pair.x), decimal_str(pair.y), pair.block_length
        )

    def test_caller_context_neither_used_nor_changed(self):
        want = piezas_numerals(3, 1)
        with decimal.localcontext() as ctx:
            ctx.prec = 3
            ctx.rounding = decimal.ROUND_DOWN
            ctx.traps[decimal.Inexact] = False
            ctx.clear_flags()
            before = (ctx.prec, ctx.rounding, ctx.Emax, ctx.Emin, dict(ctx.traps))
            assert piezas_numerals(3, 1) == want
            assert decimal.getcontext() is ctx
            assert (ctx.prec, ctx.rounding, ctx.Emax, ctx.Emin, dict(ctx.traps)) == before
            assert not any(ctx.flags.values())
            # the caller's own arithmetic still rounds as it asked
            assert decimal.Decimal(12345) + 0 == decimal.Decimal("1.23E+4")

    @pytest.mark.parametrize("make", [piezas_generate, piezas_numerals])
    def test_inexact_division_raises_on_both_number_types(self, monkeypatch, make):
        # 19 divides neither a(aB - 1) nor a(a + B) for a = 4, B = 10**12
        monkeypatch.setitem(families.FERMAT_PRIMES, 2, 19)
        with pytest.raises(RuntimeError, match="non-exact division by 19"):
            make(2, 0)


class TestVerifyConcatSquare:
    def test_seed_pairs(self):
        assert verify_concat_square(12, 33, 2)
        assert verify_concat_square(88, 33, 2)
        pairs = {entry.id: entry.expected for entry in load_corpus()}
        for name in ("pair-12-33", "pair-88-33"):
            pair = pairs[name]
            assert pair["verifies"]
            assert verify_concat_square(pair["x"], pair["y"], pair["block_length"])

    def test_counterexample(self):
        assert not verify_concat_square(12, 34, 2)

    def test_published_four_digit_pair_fails(self):
        # 9412**2 + 2352**2 = 94117648, not the concatenation 94122352
        assert 9412**2 + 2352**2 == 94117648
        assert not verify_concat_square(9412, 2352, 4)

    def test_field_precondition(self):
        with pytest.raises(ValueError):
            verify_concat_square(123, 33, 2)


class TestReflectPair:
    def test_examples(self):
        assert reflect_pair(12, 2) == 88
        assert reflect_pair(9412, 4) == 588
        assert reflect_pair(1, 1) == 9

    def test_known_pair_symmetry(self):
        # the reflection maps one verified seed pair to the other, y unchanged
        assert reflect_pair(12, 2) == 88
        assert verify_concat_square(12, 33, 2) and verify_concat_square(88, 33, 2)

    def test_range_check(self):
        with pytest.raises(ValueError):
            reflect_pair(100, 2)
        with pytest.raises(ValueError):
            reflect_pair(0, 2)


class TestVitalis:
    def test_seed(self):
        assert vitalis_generate(0) == (1, 5, 3, 153)

    def test_published_general_members(self):
        # the displayed repeated-digit solutions, indexed by repeat count
        assert vitalis_generate(2) == (166, 500, 333, 166500333)
        assert vitalis_generate(3) == (1666, 5000, 3333, 166650003333)

    def test_identity_holds_to_fifty(self):
        for l in range(51):
            x, y, z, n = vitalis_generate(l)
            assert x**3 + y**3 + z**3 == n
            assert digit_count(n, 10) == 3 * (l + 1)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            vitalis_generate(-1)


class TestNumeralRendering:
    def test_elision_threshold(self):
        assert elide_numeral(12345, 10) == "12345"
        long_pair = piezas_generate(3, 0)
        rendered = elide_numeral(long_pair.x, 100)
        assert "..." in rendered and "(192 digits)" in rendered
        head, _, rest = rendered.partition("...")
        assert decimal_str(long_pair.x).startswith(head)
        assert decimal_str(long_pair.x).endswith(rest.split(" ")[0])

    def test_short_numerals_print_in_full(self):
        # head and tail keep 12 digits each, so eliding 24 digits or fewer
        # would repeat digits; any threshold below that prints them whole
        for threshold in (0, 1, 5, 11, 12, 24):
            assert elide_numeral(153, threshold) == "153"
            assert elide_numeral(941176470588, threshold) == "941176470588"
            assert elide_numeral(10**23 + 7, threshold) == str(10**23 + 7)
            assert elide_numeral(10**24 + 7, threshold) == "100000000000...000000000007 (25 digits)"

    def test_numeral_string_and_int_render_alike(self):
        for n in (0, 153, 10**24 - 1, 10**24, 7**40, 3**2000, piezas_generate(3, 0).y):
            for threshold in (0, 10, 24, 30, 100, 1000):
                assert elide_numeral(decimal_str(n), threshold) == elide_numeral(n, threshold)

    def test_negative_threshold_rejected(self):
        for n in (153, "153"):
            with pytest.raises(ValueError, match="natural number"):
                elide_numeral(n, -1)

    def test_decimal_str_handles_huge_values(self):
        limit = sys.get_int_max_str_digits()
        pair = piezas_generate(4, 0)
        s = decimal_str(pair.x)
        assert len(s) == 49152
        assert s[0] != "0"
        # the process-wide conversion guard is never touched
        assert sys.get_int_max_str_digits() == limit


def plain_str(n: int) -> str:
    """str(n) with the int-to-str limit lifted for this call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


class TestDecimalStr:
    """decimal_str against str() with the interpreter's limit lifted."""

    def test_edges(self):
        # next to the plain/split cut (2**2126) and to CPython's default
        # limit of 4300 digits
        for n in (
            [0, 1, 9, 10, 12345, -1, -987654321, 2**64, 2**2127, -(2**5000 + 3)]
            + [2**2126 + d for d in (-1, 0, 1)]
            + [10**640 + d for d in (-1, 0, 1)]
            + [10**4300 + d for d in (-1, 0, 1)]
            + [10**4299, 2**14286, 7**10_000]
            + [random.Random(b).getrandbits(b) for b in (50_000, 100_003, 200_000, 500_000)]
        ):
            assert decimal_str(n) == plain_str(n), n.bit_length()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=200_000).flatmap(
            lambda bits: st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
        )
    )
    def test_any_size(self, n):
        assert decimal_str(n) == plain_str(n)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2127, max_value=60_000), st.integers(min_value=0, max_value=9))
    def test_runs_of_zeros_and_nines(self, bits, d):
        # halves whose low part has leading zero bits, and carries through 9s
        for n in (1 << bits, (1 << bits) - 1, 10 ** (bits // 3) * d + 1):
            assert decimal_str(n) == plain_str(n)

    def test_leaves_the_limit_alone(self, monkeypatch):
        def refuse(_):
            raise AssertionError("decimal_str changed the int-to-str limit")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        assert decimal_str(10**50_000) == "1" + "0" * 50_000
