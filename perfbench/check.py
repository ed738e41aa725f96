"""Check one digitfix job's output against its frozen answer.

Every record is re-verified from its ``value`` and ``decomposition`` in plain
integer arithmetic.  Nothing here imports digitfix, so a defect in the
program cannot hide itself by also breaking the check.

``check_job`` returns ``None`` when the job's output is right and a short
reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

# piezas records carry 180 000-digit numerals
sys.set_int_max_str_digits(0)


def digits(n: int, base: int) -> list[int]:
    """Digits of n, least significant first; 0 has the single digit 0."""
    if n == 0:
        return [0]
    out = []
    while n:
        n, r = divmod(n, base)
        out.append(r)
    return out


def fn_value(fn: str, x: int) -> int:
    """F(x) for the catalog spec texts the workloads use (0^0 = 1 for selfpow)."""
    head, _, arg = fn.partition(":")
    if head == "pow":
        return x ** int(arg)
    if head == "expbase":
        return int(arg) ** x
    if fn == "selfpow":
        return 1 if x == 0 else x**x
    if fn == "factorial":
        return math.factorial(x)
    if fn == "subfactorial":
        prev, cur = 1, 0  # !0, !1
        if x == 0:
            return 1
        for k in range(2, x + 1):
            prev, cur = cur, (k - 1) * (cur + prev)
        return cur
    if fn == "fib" and x >= 1:
        a, b = 0, 1
        for _ in range(x):
            a, b = b, a + b
        return a
    raise ValueError(f"no plain evaluator for {fn!r} at {x}")


def verify_record(r: dict) -> bool:
    """True when a search record's equation holds for its value and decomposition."""
    family, base, n, dec = r["family"], r["base"], r["value"], r["decomposition"]
    if family == "hardy":
        images = [fn_value(r["fn"], v) for v in digits(n, base ** r["k"])]
        return sorted(dec) == sorted(images) and sum(dec) == n
    if family == "armstrong":
        ds = digits(n, base)
        m = len(ds)
        return r["fn"] == f"pow:{m}" and sorted(dec) == sorted(d**m for d in ds) and sum(dec) == n
    if family == "wells":
        (image,) = dec
        count_ok = image == 0 if n == 0 else len(digits(image, base)) == n
        return image == fn_value(r["fn"], n) and count_ok
    if family == "wells-reverse":
        (length,) = dec
        return length == (0 if n == 0 else len(digits(n, base))) and fn_value(r["fn"], length) == n
    if family == "dudeney":
        (image,) = dec
        return image == fn_value(r["fn"], n) and sum(digits(image, base)) == n
    if family == "powersum":
        (s,) = dec
        head, _, p = r["fn"].partition(":")
        return head == "pow" and s == sum(digits(n, base)) and s ** int(p) == n
    if family == "reversal":
        lam, rev = dec
        ds = digits(n, base)
        expected_rev = 0
        for d in ds:
            expected_rev = expected_rev * base + d
        return ds[0] != 0 and rev == expected_rev and lam >= 2 and lam * rev == n
    return False


def flag(argv: list[str], name: str, default):
    return type(default)(argv[argv.index(name) + 1]) if name in argv else default


def _check_search(job: dict, records: list[dict]) -> str | None:
    argv = job["argv"]
    family = argv[1]
    base, k = flag(argv, "--base", 10), flag(argv, "--k", 1)
    for r in records:
        if r["family"] != family or r["base"] != base or r["k"] != (1 if family == "reversal" else k):
            return f"record parameters differ from the job: {r}"
        if not verify_record(r):
            return f"record fails re-verification: value {r['value']}"
    if family == "reversal":
        answer = [[r["value"], r["decomposition"][0]] for r in records]
    else:
        answer = [r["value"] for r in records]
    if answer != job["expect"]["values"]:
        return f"answer {answer} differs from the frozen {job['expect']['values']}"
    return None


def _check_bound(job: dict, records: list[dict]) -> str | None:
    if len(records) != 1:
        return f"expected one bound record, got {len(records)}"
    for key, want in job["expect"]["fields"].items():
        if records[0].get(key) != want:
            return f"bound field {key} is {records[0].get(key)!r}, frozen {want!r}"
    return None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_piezas(job: dict, records: list[dict]) -> str | None:
    (r,) = records
    want = job["expect"]
    if r["block_length"] != want["block_length"] or r["verified"] is not True:
        return "piezas record header differs"
    if _sha256(r["x"]) != want["x_sha256"] or _sha256(r["y"]) != want["y_sha256"]:
        return "piezas pair differs from the frozen pair"
    x, y, field = int(r["x"]), int(r["y"]), 10 ** r["block_length"]
    if x * field + y != x * x + y * y:
        return "piezas pair fails x*10^L + y = x^2 + y^2"
    return None


def _check_vitalis(job: dict, records: list[dict]) -> str | None:
    (r,) = records
    l = flag(job["argv"], "-l", 0)
    x, y, z = "1" + "6" * l, "5" + "0" * l, "3" * (l + 1)
    if (r["x"], r["y"], r["z"], r["value"]) != (x, y, z, x + y + z):
        return "vitalis member differs from the closed form"
    if int(x) ** 3 + int(y) ** 3 + int(z) ** 3 != int(r["value"]):
        return "vitalis member fails x^3 + y^3 + z^3 = concatenation"
    return None


def _check_corpus(job: dict, records: list[dict], root: Path) -> str | None:
    entries = json.loads((root / "src/digitfix/data/corpus.json").read_text())
    want = max(len(entries), job["expect"]["min_entries"])
    if len(records) != want:
        return f"corpus check reported {len(records)} entries, expected {want}"
    bad = [r["id"] for r in records if r["ok"] is not True]
    return f"corpus entries not ok: {bad}" if bad else None


def check_job(job: dict, rc: int | None, stdout: bytes, root: Path) -> str | None:
    """None when the job exited 0 and printed its frozen answer; else the reason."""
    if rc is None:
        return "killed by the timeout"
    if rc != 0:
        return f"exit code {rc}"
    try:
        records = [json.loads(line) for line in stdout.decode().splitlines()]
        command = job["argv"][0]
        if command == "search":
            return _check_search(job, records)
        if command == "bound":
            return _check_bound(job, records)
        if command == "corpus":
            return _check_corpus(job, records, root)
        if job["argv"][1] == "piezas":
            return _check_piezas(job, records)
        return _check_vitalis(job, records)
    except (ValueError, KeyError, TypeError) as exc:
        # malformed output: undecodable, missing keys or wrong shapes
        return f"malformed output: {exc!r}"
