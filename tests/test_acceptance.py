"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion asserts its exact expected values and its stated wall-clock
budget.  Run with ``pytest tests/test_acceptance.py -v`` to see one line per
criterion.
"""

import json
import time
from contextlib import contextmanager

from digitfix.bounds import hardy_bound
from digitfix.cli import main
from digitfix.corpus import check_entry, load_corpus
from digitfix.families import piezas_generate, verify_concat_square, vitalis_generate
from digitfix.funcatalog import parse_spec
from digitfix.search import (
    SearchConfig,
    search_armstrong,
    search_dudeney,
    search_hardy,
    search_powersum,
    search_reversal,
    search_wells,
)

from conftest import CATALOG_SPEC_TEXTS, with_zero_pow


@contextmanager
def budget(name, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"{name}: PASS ({elapsed:.2f}s, budget {seconds}s)")
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget ({elapsed:.2f}s)"


def values(hits):
    return [h.value for h in hits]


def run_hardy(fn, engine="scan", width=1, zero_pow=1, cap=None):
    spec = with_zero_pow(parse_spec(fn), zero_pow)
    cfg = SearchConfig(spec=spec, base=10, width=width, engine=engine, cap=cap)
    return values(search_hardy(cfg))


def cli_records(argv):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_01_factorions():
    with budget("criterion 1 (factorions via CLI scan)", 5.0):
        code, out = cli_records(
            ["search", "hardy", "--fn", "factorial", "--base", "10", "--format", "records"]
        )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["value"] for r in recs] == [1, 2, 145, 40585]
    assert all(r["bound_used"] == 2540160 for r in recs)


def test_criterion_02_cubic_digit_invariants():
    with budget("criterion 2 (cubes of digits)", 1.0):
        got = run_hardy("pow:3")
    assert got == [1, 153, 370, 371, 407]


def test_criterion_03_fourth_fifth_sixth_powers():
    with budget("criterion 3 (powers 4-6, both engines)", 10.0):
        p4 = run_hardy("pow:4")
        p5 = run_hardy("pow:5")
        p6 = run_hardy("pow:6")
        t_multi = time.perf_counter()
        m4 = run_hardy("pow:4", engine="multiset")
        m5 = run_hardy("pow:5", engine="multiset")
        m6 = run_hardy("pow:6", engine="multiset")
        multi_elapsed = time.perf_counter() - t_multi
    assert set(p4) >= {1634, 8208, 9474}
    assert p5 == [1, 4150, 4151, 54748, 92727, 93084, 194979]
    assert [v for v in p6 if v <= 10**6] == [1, 548834]
    assert (m4, m5, m6) == (p4, p5, p6)
    assert multi_elapsed < 1.0, f"multiset engines took {multi_elapsed:.2f}s"


def test_criterion_04_munchausen():
    spec = parse_spec("selfpow")
    bound = hardy_bound(spec, 10, 1)
    assert bound.n_max == 3874204890
    with budget("criterion 4 (digit^digit via multiset)", 30.0):
        default_conv = run_hardy("selfpow", engine="multiset")
        zero_conv = run_hardy("selfpow", engine="multiset", zero_pow=0)
    assert default_conv == [1, 3435]
    assert zero_conv == [1, 3435, 438579088]
    # re-verify the convention-dependent value digit by digit
    digits = [int(c) for c in "438579088"]
    assert sum(0 if d == 0 else d**d for d in digits) == 438579088


def test_criterion_05_armstrong_small_bases():
    with budget("criterion 5 (small-base digit-power sums)", 1.0):
        b3 = values(search_armstrong(3))
        b4 = values(search_armstrong(4))
    assert b3 == [5, 8, 17]
    assert b4 == [int(s, 4) for s in ("130", "131", "203", "223", "313", "332", "1103", "3303")]


def test_criterion_06_wells():
    with budget("criterion 6 (digit-count fixed points)", 1.0):
        fact = values(search_wells(parse_spec("factorial"), 10))
        selfp = values(search_wells(parse_spec("selfpow"), 10))
        subf = values(search_wells(parse_spec("subfactorial"), 10))
    assert fact == [1, 22, 23, 24]
    assert selfp == [1, 8, 9]
    assert subf == [24, 25]


def test_criterion_07_dudeney_powersum_duality():
    with budget("criterion 7 (digit-sum duality, both engines)", 1.0):
        power_fixed = values(search_powersum(3, 10, engine="preimage"))
        power_scan = values(search_powersum(3, 10, engine="scan"))
        roots = values(search_dudeney(parse_spec("pow:3"), 10))
    assert power_fixed == [1, 512, 4913, 5832, 17576, 19683]
    assert power_fixed == power_scan
    assert sorted(s**3 for s in roots) == power_fixed


def test_criterion_08_reversal_multiples():
    with budget("criterion 8 (reversal multiples)", 1.0):
        four = [(h.value, h.images[0]) for h in search_reversal(10, 4)]
        two = search_reversal(10, 2)
        three = search_reversal(10, 3)
    assert four == [(8712, 4), (9801, 9)]
    assert two == [] and three == []


def test_criterion_09_piezas_families():
    with budget("criterion 9 (Fermat-prime pairs incl. the huge one)", 60.0):
        t0 = piezas_generate(2, 0)
        t1 = piezas_generate(2, 1)
        huge = piezas_generate(4, 0)
    assert (t0.x, t0.y) == (941176470588, 235294117648)
    assert t1.x == 9411764705882352941176470588
    assert t1.y == 2352941176470588235294117648
    assert huge.block_length == 49152
    assert verify_concat_square(huge.x, huge.y, huge.block_length)


def test_criterion_10_vitalis_family():
    with budget("criterion 10 (cube family to l=50)", 1.0):
        for l in range(51):
            x, y, z, n = vitalis_generate(l)
            assert x**3 + y**3 + z**3 == n
    assert vitalis_generate(0) == (1, 5, 3, 153)


def test_criterion_11_engine_equivalence_and_determinism():
    checked = 0
    with budget("criterion 11 (engine equivalence + jobs determinism)", 60.0):
        for text in CATALOG_SPEC_TEXTS:
            spec = parse_spec(text)
            if hardy_bound(spec, 10, 1).n_max > 10**7:
                continue
            scan = values(search_hardy(SearchConfig(spec=spec, engine="scan")))
            multi = values(search_hardy(SearchConfig(spec=spec, engine="multiset")))
            auto = values(search_hardy(SearchConfig(spec=spec)))
            assert scan == multi == auto, text
            checked += 1
        outputs = []
        for jobs in ("1", "2", "8"):
            code, out = cli_records(
                ["search", "hardy", "--fn", "factorial", "--format", "records", "--jobs", jobs]
            )
            assert code == 0
            outputs.append(out)
    assert checked >= 8
    assert outputs[0] == outputs[1] == outputs[2]


def test_criterion_12_errata_assertions():
    entries = {e.id: e for e in load_corpus()}
    with budget("criterion 12 (errata fail, corrections pass)", 10.0):
        # recorded-but-wrong values must FAIL their verifications
        assert not verify_concat_square(9412, 2352, 4)
        erratum_pair = check_entry(entries["pair-9412-2352-erratum"])
        erratum_wells = check_entry(entries["wells-reverse-fourth-erratum"])
        # corrected variants must PASS
        corrected_pair = check_entry(entries["pair-12digit"])
        corrected_wells = check_entry(entries["wells-reverse-fifth-b10"])
    assert erratum_pair.ok and erratum_pair.entry.erratum
    assert erratum_wells.ok and erratum_wells.entry.erratum
    assert erratum_wells.actual != erratum_wells.entry.expected
    assert corrected_pair.ok and not corrected_pair.entry.erratum
    assert corrected_wells.ok and corrected_wells.actual == [1, 32, 243, 1024]
