import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitfix.digitops import (
    digit_count,
    digit_sum,
    from_blocks,
    group_blocks,
    reverse_digits,
)
from digitfix.errors import ConfigurationError
from digitfix.funcatalog import fibonacci, subfactorial

from conftest import oracle_digit_sum, oracle_floor_log

naturals = st.integers(min_value=0, max_value=10**24)
bases = st.integers(min_value=2, max_value=16)


class TestDigits:
    """A number's digits are its blocks of width 1."""

    def test_examples(self):
        assert group_blocks(3435, 10, 1) == (5, 3, 4, 3)
        assert group_blocks(0, 10, 1) == (0,)
        assert group_blocks(17, 3, 1) == (2, 2, 1)

    def test_bad_base(self):
        with pytest.raises(ConfigurationError):
            group_blocks(5, 1, 1)

    @given(naturals, bases)
    def test_round_trip(self, n, b):
        assert from_blocks(group_blocks(n, b, 1), b, 1) == n


class TestFromBlocks:
    def test_examples(self):
        assert from_blocks((5, 3, 4, 3), 10, 1) == 3435
        assert from_blocks((0,), 2, 1) == 0
        assert from_blocks((2, 2, 1), 3, 1) == 17
        assert from_blocks((56, 34, 12), 10, 2) == 123456

    def test_leading_zeros_reassemble(self):
        assert from_blocks((5, 3, 0, 0), 10, 1) == 35

    @pytest.mark.parametrize(
        "blocks, base, width, error, message",
        [
            ((5, 11), 10, 1, ValueError, "block 11 out of range for base 10 width 1"),
            ((), 10, 1, ValueError, "at least one block"),
            ((10,), 10, 1, ValueError, "block 10 out of range for base 10"),
            ((100,), 10, 1, ValueError, "block 100 out of range for base 10 width 1"),
            ((0,), 1, 1, ConfigurationError, "base must be at least 2"),
            ((1,), 10, 0, ConfigurationError, "block width must be at least 1"),
            ((100,), 10, 2, ValueError, "block 100 out of range"),
            ((1,), 1, 2, ConfigurationError, "base must be at least 2"),
            ((-1, 3), 10, 1, ValueError, "block -1 out of range"),
        ],
    )
    def test_refuses_bad_arguments(self, blocks, base, width, error, message):
        with pytest.raises(error, match=message):
            from_blocks(blocks, base, width)


class TestDigitSum:
    def test_examples(self):
        assert digit_sum(19683, 10) == 27
        assert digit_sum(0, 7) == 0
        # digit sum of fibonacci(55), cross-checked by the independent oracle
        fib55 = fibonacci(55)
        assert fib55 == 139583862445
        assert digit_sum(fib55, 10) == 58 == oracle_digit_sum(fib55, 10)

    @given(naturals, bases)
    def test_congruence(self, n, b):
        assert digit_sum(n, b) % (b - 1) == n % (b - 1)

    @given(naturals, bases)
    def test_bounded_by_digit_count(self, n, b):
        assert 0 <= digit_sum(n, b) <= (b - 1) * digit_count(n, b)

    # above 2048 bits digit_sum splits n at a power of the base; the split
    # must neither drop nor double-count a digit
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40_000).flatmap(
            lambda bits: st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
        ),
        st.integers(min_value=2, max_value=1000),
    )
    def test_matches_the_per_digit_oracle(self, n, b):
        assert digit_sum(n, b) == oracle_digit_sum(n, b)

    @pytest.mark.parametrize("b", [2, 3, 7, 10, 16, 997, 1000])
    def test_powers_of_the_base_on_both_sides_of_the_split(self, b):
        below = max(e for e in range(1, 2049) if (b**e).bit_length() <= 2048)
        for e in [*range(below - 2, below + 4), 3 * below + 1, 7 * below]:
            for n, expected in ((b**e - 1, e * (b - 1)), (b**e, 1), (b**e + 1, 2)):
                assert digit_sum(n, b) == expected == oracle_digit_sum(n, b)

    def test_a_digit_of_a_base_above_the_split(self):
        b = 3**2000
        assert digit_sum(b - 1, b) == b - 1
        assert digit_sum(b * b + 5 * b + 7, b) == 13


class TestDigitCount:
    def test_subfactorial_examples(self):
        assert digit_count(subfactorial(23), 10) == 22
        assert digit_count(subfactorial(26), 10) == 27

    def test_power_boundaries_exact(self):
        for b in range(2, 17):
            for m in range(1, 65):
                assert digit_count(b**m - 1, b) == m
                assert digit_count(b**m, b) == m + 1

    def test_zero_convention(self):
        assert digit_count(0, 10) == 1

    @given(st.integers(min_value=1, max_value=10**30), bases)
    def test_bracketing(self, n, b):
        m = digit_count(n, b)
        assert b ** (m - 1) <= n < b**m

    @given(
        st.integers(min_value=2, max_value=36),
        st.integers(min_value=0, max_value=20_000),
        st.sampled_from((-1, 0, 1)),
    )
    def test_equals_division_oracle_next_to_powers(self, b, k, step):
        # b**k - 1, b**k and b**k + 1 sit on both sides of a digit-count change
        n = b**k + step
        if n >= 1:
            assert digit_count(n, b) == oracle_floor_log(n, b) + 1

    @given(
        st.integers(min_value=2, max_value=36),
        st.integers(min_value=1, max_value=100_000).flatmap(
            lambda bits: st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
        ),
    )
    def test_equals_division_oracle_at_any_size(self, b, n):
        assert digit_count(n, b) == oracle_floor_log(n, b) + 1

    def test_huge_power_of_ten(self):
        # the family members run to hundreds of thousands of digits
        x = 10**180_223
        assert digit_count(x - 1, 10) == 180_223
        assert digit_count(x, 10) == 180_224
        assert digit_count(x + 1, 10) == 180_224


class TestGroupBlocks:
    def test_examples(self):
        assert group_blocks(165033, 10, 2) == (33, 50, 16)
        assert group_blocks(4624, 10, 1) == (4, 2, 6, 4)
        assert group_blocks(12345, 10, 2) == (45, 23, 1)

    @given(naturals, bases, st.integers(min_value=1, max_value=6))
    def test_reassembly(self, n, b, k):
        blocks = group_blocks(n, b, k)
        # canonical: no leading zero block except in 0 itself, every block in range
        assert blocks == (0,) or blocks[-1] != 0
        assert all(0 <= v < b**k for v in blocks)
        assert from_blocks(blocks, b, k) == n
        assert sum(v * (b**k) ** i for i, v in enumerate(blocks)) == n


class TestReverseDigits:
    def test_examples(self):
        assert reverse_digits(8712, 10) == 2178
        assert reverse_digits(34543, 10) == 34543
        assert reverse_digits(100, 10) == 1

    @given(naturals, bases)
    def test_involution_when_last_digit_nonzero(self, n, b):
        if n % b != 0 or n == 0:
            assert reverse_digits(reverse_digits(n, b), b) == n
