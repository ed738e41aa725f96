import tracemalloc
from fractions import Fraction
from itertools import islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitfix.errors import ConfigurationError
from digitfix.funcatalog import (
    _KINDS,
    FunctionSpec,
    evaluate,
    factorial,
    fibonacci,
    images,
    parse_spec,
    subfactorial,
)

# Every text each row of the catalog takes: its name alone and with each
# argument below, kept where the parser accepts it.  A new row is covered
# here without editing the tests that read ROW_TEXTS.
_ARGUMENTS = ("0", "1", "2", "3", "4", "5", "6", "10", "1,0,0", "1/2,1/2,0", "1/2,0", "1,-10")


def _accepted(text):
    try:
        parse_spec(text)
    except ConfigurationError:
        return False
    return True


ROW_TEXTS = [
    text
    for row in _KINDS.values()
    for text in (row.name, *(f"{row.name}:{arg}" for arg in _ARGUMENTS))
    if _accepted(text)
]


def test_evaluate_examples():
    assert evaluate(FunctionSpec.self_power(), 5) == 3125
    assert evaluate(FunctionSpec.exp_base(4), 6) == 4096
    assert evaluate(FunctionSpec.power(3), 50) == 125000


def test_factorial():
    assert factorial(8) == 40320
    assert factorial(0) == 1
    assert factorial(4) + factorial(0) + factorial(5) + factorial(8) + factorial(5) == 40585
    with pytest.raises(ValueError):
        factorial(-1)


def test_factorial_recurrence():
    for x in range(200):
        assert factorial(x + 1) == (x + 1) * factorial(x)


def count_derangements(n: int) -> int:
    # brute force: permutations with no fixed point
    return sum(1 for p in permutations(range(n)) if all(p[i] != i for i in range(n)))


def test_subfactorial_small_against_brute_force():
    assert subfactorial(0) == 1
    assert subfactorial(1) == 0
    for n in range(8):
        assert subfactorial(n) == count_derangements(n)
    assert subfactorial(4) == 9


def test_subfactorial_decomposition():
    parts = [subfactorial(d) for d in (1, 4, 8, 3, 4, 9)]
    assert sum(parts) == 148349


def test_subfactorial_matches_alternating_sum():
    # the rational alternating-sum form, cleared of denominators
    for x in range(51):
        alt = sum((-1) ** i * factorial(x) // factorial(i) for i in range(x + 1))
        assert subfactorial(x) == alt


def test_subfactorial_binary_splitting_equals_the_recurrence():
    # !x composes the steps v -> k*v + (-1)**k in halves, down to single
    # steps; stepping them one k at a time from !0 = 1 gives the same values
    value = 1
    for x in range(2001):
        if x:
            value = x * value + (-1) ** x
        assert subfactorial(x) == value, x


def _outcome(values):
    try:
        return list(values)
    except ValueError:  # outside the domain, or a polynomial value that is no natural
        return ValueError


def test_every_row_takes_a_text():
    assert {parse_spec(text).kind for text in ROW_TEXTS} == set(_KINDS)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ROW_TEXTS), st.integers(0, 80), st.integers(0, 80))
def test_images_equal_evaluate(text, start, length):
    spec = parse_spec(text)
    expected = _outcome(evaluate(spec, x) for x in range(start, start + length))
    assert _outcome(images(spec, start, start + length)) == expected
    assert _outcome(islice(images(spec, start), length)) == expected


def test_no_value_outlives_its_call():
    # nothing is cached: the derangement counts below !800 (about 0.4 MB in
    # all) are freed as soon as the call or the walk has moved past them
    tracemalloc.start()
    try:
        top = subfactorial(800)
        for _ in images(FunctionSpec.subfactorial(), 0, 800):
            pass
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert top == 800 * subfactorial(799) + 1
    assert retained < 20_000


def test_fibonacci():
    assert fibonacci(10) == 55
    assert fibonacci(1) == 1
    assert fibonacci(2) == 1
    with pytest.raises(ValueError):
        fibonacci(0)


def test_fibonacci_against_iteration():
    a, b = 1, 1
    for x in range(1, 501):
        assert fibonacci(x) == a
        a, b = b, a + b
    assert fibonacci(55) == 139583862445


def test_zero_self_power_flag():
    one = FunctionSpec.self_power(1)
    zero = FunctionSpec.self_power(0)
    assert evaluate(one, 0) == 1
    assert evaluate(zero, 0) == 0
    for x in range(1, 12):
        assert evaluate(one, x) == evaluate(zero, x) == x**x


def test_polynomial_evaluation():
    half_square = FunctionSpec.polynomial([Fraction(1, 2), Fraction(1, 2), 0])  # x(x+1)/2
    assert evaluate(half_square, 4) == 10
    square = parse_spec("poly:1,0,0")
    assert evaluate(square, 7) == 49
    with pytest.raises(ValueError):
        evaluate(FunctionSpec.polynomial([Fraction(1, 2)]), 3)  # constant 1/2 is not natural
    with pytest.raises(ValueError):
        evaluate(FunctionSpec.polynomial([1, -10]), 0)  # negative value


def test_domain_checks():
    with pytest.raises(ValueError):
        evaluate(FunctionSpec.power(2), -1)
    with pytest.raises(ConfigurationError):
        FunctionSpec.power(0)
    with pytest.raises(ConfigurationError):
        FunctionSpec.exp_base(1)
    with pytest.raises(ConfigurationError):
        FunctionSpec("self_power", zero_self_power=2)


def test_parse_round_trip():
    for text in ROW_TEXTS:
        spec = parse_spec(text)
        assert spec.text == text
        assert parse_spec(spec.text) == spec


# bounds._max_over_block reads only F(0), F(1) and F(radix - 1) for every kind
# but polynomial, which holds only while F is nondecreasing from x = 2 on
@pytest.mark.parametrize("text", [t for t in ROW_TEXTS if parse_spec(t).kind != "polynomial"])
def test_every_kind_but_polynomial_is_nondecreasing_from_two(text):
    values = list(images(parse_spec(text), 2, 201))
    assert all(a <= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "bad",
    ["", "pow", "pow:", "pow:x", "pow:0", "selfpow:1", "selfpow:", "selfpow:00", "expbase:1", "expbase:", "fib:3",
     "poly:", "poly:a", "poly:1/0", "factorial:2", "cube", "POW:3", " pow:3"],
)
def test_parser_rejects_everything_else(bad):
    with pytest.raises(ConfigurationError):
        parse_spec(bad)

