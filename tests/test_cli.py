import ast
import hashlib
import json
import os
import subprocess
import sys

import pytest

from digitfix.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines()]


class TestSearchCommands:
    def test_factorion_search_text(self, capsys):
        code, out, _ = run(capsys, "search", "hardy", "--fn", "factorial", "--base", "10")
        assert code == 0
        for needle in ("1", "2", "145", "40585", "2540160"):
            assert needle in out

    def test_factorion_search_records(self, capsys):
        code, out, _ = run(
            capsys, "search", "hardy", "--fn", "factorial", "--format", "records"
        )
        assert code == 0
        recs = records(out)
        assert [r["value"] for r in recs] == [1, 2, 145, 40585]
        assert all(r["bound_used"] == 2540160 for r in recs)
        assert set(recs[0]) == {"family", "base", "k", "fn", "value", "decomposition", "bound_used"}
        assert recs[3]["decomposition"] == [120, 40320, 120, 1, 24]

    def test_bound_hardy_text(self, capsys):
        code, out, _ = run(capsys, "bound", "hardy", "--fn", "pow:5", "--base", "10")
        assert code == 0
        assert "59049" in out and "354294" in out

    def test_conflicting_engine_and_width(self, capsys):
        code, _, err = run(
            capsys, "search", "hardy", "--fn", "pow:3", "--base", "10", "--k", "9",
            "--engine", "multiset",
        )
        assert code == 2
        assert "multiset" in err

    def test_bad_function_spec(self, capsys):
        code, _, err = run(capsys, "search", "hardy", "--fn", "nope")
        assert code == 2
        assert "nope" in err

    def test_unknown_flag_usage_error(self, capsys):
        assert run(capsys, "search", "hardy", "--fn", "pow:3", "--bogus")[0] == 2

    def test_unsupported_function_exit_code(self, capsys):
        code, _, err = run(capsys, "search", "dudeney", "--fn", "fib")
        assert code == 3
        assert "cap" in err

    def test_wells_reverse_requires_cap(self, capsys):
        assert run(capsys, "search", "wells-reverse", "--fn", "pow:5")[0] == 2

    def test_armstrong(self, capsys):
        code, out, _ = run(capsys, "search", "armstrong", "--base", "3", "--format", "records")
        assert code == 0
        assert [r["value"] for r in records(out)] == [5, 8, 17]

    def test_reversal_records(self, capsys):
        code, out, _ = run(capsys, "search", "reversal", "--digits", "4", "--format", "records")
        assert code == 0
        recs = records(out)
        assert [(r["value"], r["decomposition"][0]) for r in recs] == [(8712, 4), (9801, 9)]

    def test_reversal_thirty_digits(self, capsys):
        code, out, _ = run(capsys, "search", "reversal", "--digits", "30", "--format", "records")
        assert code == 0
        recs = records(out)
        assert len(recs) == 754
        assert all(r["value"] == r["decomposition"][0] * r["decomposition"][1] for r in recs)

    def test_reversal_with_too_many_hits_refused(self, capsys):
        # 2 F(99) hits of 200 digits (Sloane); counted, never listed
        fib = [0, 1]
        while len(fib) < 100:
            fib.append(fib[-1] + fib[-2])
        code, out, err = run(capsys, "search", "reversal", "--digits", "200")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f" {2 * fib[99]} " in err

    def test_powersum_needs_power_fn(self, capsys):
        assert run(capsys, "search", "powersum", "--fn", "factorial")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["powersum", "--fn", "pow:3"],
            ["powersum", "--fn", "pow:3", "--engine", "scan"],
            ["dudeney", "--fn", "pow:3", "--engine", "preimage"],
            ["dudeney", "--fn", "pow:3"],
            ["hardy", "--fn", "pow:3"],
            ["wells", "--fn", "factorial"],
        ],
    )
    def test_cap_below_one_exits_two_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, "search", *argv, "--cap", "-5")
        assert code == 2
        assert out == ""
        assert err == "error: cap must be at least 1, got -5\n"

    def test_zero_pow_zero_flag(self, capsys):
        code, out, _ = run(
            capsys, "search", "hardy", "--fn", "selfpow", "--engine", "multiset",
            "--zero-pow-zero", "0", "--format", "records",
        )
        assert code == 0
        assert [r["value"] for r in records(out)] == [1, 3435, 438579088]


class TestDeterminism:
    def test_records_identical_across_jobs(self, capsys):
        outputs = []
        for jobs in ("1", "2", "8"):
            code, out, _ = run(
                capsys, "search", "hardy", "--fn", "pow:5", "--format", "records",
                "--jobs", jobs,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_jobs_default_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("DIGITFIX_JOBS", "2")
        code, out, _ = run(capsys, "search", "hardy", "--fn", "pow:4", "--format", "records")
        assert code == 0
        assert [r["value"] for r in records(out)] == [1, 1634, 8208, 9474]

    @pytest.mark.parametrize(
        "env, flag",
        [("abc", None), ("0", None), (None, "abc"), (None, "0"), (None, "-3"), ("2", "x")],
    )
    def test_bad_jobs_exit_two_with_one_line(self, capsys, monkeypatch, env, flag):
        if env is None:
            monkeypatch.delenv("DIGITFIX_JOBS", raising=False)
        else:
            monkeypatch.setenv("DIGITFIX_JOBS", env)
        argv = ["search", "hardy", "--fn", "pow:3"] + ([] if flag is None else ["--jobs", flag])
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "positive integer" in err


def test_import_loads_no_process_pool():
    # every search runs in one process, whatever --jobs says
    import digitfix

    src = os.path.dirname(os.path.dirname(digitfix.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import contextlib, io, sys, digitfix.cli\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert digitfix.cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    for argv in ([], ["search", "powersum", "--fn", "pow:3", "--engine", "scan", "--jobs", "2"]):
        result = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]", argv


def test_no_module_imports_a_process_pool():
    import digitfix

    package = os.path.dirname(digitfix.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in ("concurrent", "multiprocessing"), (name, module)


class TestBoundCommands:
    def test_bound_records_schema(self, capsys):
        code, out, _ = run(capsys, "bound", "hardy", "--fn", "factorial", "--format", "records")
        assert code == 0
        (rec,) = records(out)
        assert rec["s_k"] == 362880 and rec["n_max"] == 2540160 and rec["block_threshold"] == 8

    def test_bound_wells(self, capsys):
        code, out, _ = run(capsys, "bound", "wells", "--fn", "factorial", "--format", "records")
        assert code == 0
        (rec,) = records(out)
        assert rec["cutoff"] == 28 and rec["method"] == "analytic"

    def test_bound_dudeney_unsupported(self, capsys):
        assert run(capsys, "bound", "dudeney", "--fn", "fib")[0] == 3

    def test_bound_powersum(self, capsys):
        code, out, _ = run(capsys, "bound", "powersum", "--fn", "pow:3", "--format", "records")
        assert code == 0
        (rec,) = records(out)
        assert rec["coarse"] == 10**9 and rec["s_max"] == 54


class TestFamilyCommands:
    def test_piezas_records_carry_full_values(self, capsys):
        code, out, _ = run(
            capsys, "family", "piezas", "--fermat-index", "3", "--t", "0",
            "--format", "records",
        )
        assert code == 0
        (rec,) = records(out)
        assert len(rec["x"]) == 192 and len(rec["y"]) == 191
        assert rec["verified"] is True

    def test_piezas_huge_member_matches_frozen_digests(self, capsys):
        # the same digests pin this job's answer in perfbench/workloads.json
        code, out, _ = run(
            capsys, "family", "piezas", "--fermat-index", "4", "--t", "2",
            "--format", "records",
        )
        assert code == 0
        (rec,) = records(out)
        assert rec["block_length"] == 180224 and rec["verified"] is True
        assert hashlib.sha256(rec["x"].encode()).hexdigest() == (
            "eae576214686f158856f7f54bb41d63fbdcbed0c4544ade1c6f7b32d0ad5ab8d"
        )
        assert hashlib.sha256(rec["y"].encode()).hexdigest() == (
            "753c803dc5ebbf116727398d185a79edc3c193a71f7da6e116f4f1a78209f33f"
        )
        # the text path elides the same numerals to head...tail (digit count)
        code, text, _ = run(capsys, "family", "piezas", "--fermat-index", "4", "--t", "2")
        assert code == 0
        for side, field in (("x", 180224), ("y", 180222)):
            full = rec[side]
            assert len(full) == field
            line = f"{side} = {full[:12]}...{full[-12:]} ({field} digits)"
            assert line in text.splitlines()

    def test_piezas_text_elides(self, capsys):
        code, out, _ = run(
            capsys, "family", "piezas", "--fermat-index", "3", "--t", "0", "--elide", "50"
        )
        assert code == 0
        assert "(192 digits)" in out

    def test_vitalis(self, capsys):
        code, out, _ = run(capsys, "family", "vitalis", "-l", "2", "--format", "records")
        assert code == 0
        (rec,) = records(out)
        assert (rec["x"], rec["y"], rec["z"], rec["value"]) == ("166", "500", "333", "166500333")


class TestCorpusCommand:
    def test_corpus_check_passes(self, capsys):
        code, out, _ = run(capsys, "corpus", "check")
        assert code == 0
        assert "0 mismatches" in out

    def test_corpus_check_records(self, capsys):
        code, out, _ = run(capsys, "corpus", "check", "--format", "records")
        assert code == 0
        recs = records(out)
        assert all(r["ok"] for r in recs)
        assert any(r["erratum"] for r in recs)

    def test_corpus_mismatch_exits_one(self, capsys, monkeypatch):
        import digitfix.cli as cli_mod
        from digitfix.corpus import CorpusEntry, CorpusReport, EntryResult

        entry = CorpusEntry(id="drifted", kind="search", family="hardy", fn="pow:3", expected=[1])
        report = CorpusReport(results=(EntryResult(entry=entry, ok=False, actual=[1, 153]),))
        monkeypatch.setattr(cli_mod, "corpus_check", lambda: report)
        code, out, _ = run(capsys, "corpus", "check")
        assert code == 1
        assert "MISMATCH" in out and "drifted" in out

    def test_corpus_unparsable_entry_exits_two(self, capsys, monkeypatch):
        import digitfix.cli as cli_mod
        from digitfix.corpus import CorpusEntry, _validate

        bad = CorpusEntry(id="bad-entry", kind="search", family="hardy", fn="pw:3", expected=[1])
        monkeypatch.setattr(cli_mod, "corpus_check", lambda: _validate(bad))
        code, _, err = run(capsys, "corpus", "check")
        assert code == 2
        assert "bad-entry" in err
