"""Re-derive each frozen answer in workloads.json from its stated source, without digitfix.

Run from the repository root (about a minute on 2 cores)::

    python3 perfbench/crosscheck.py

Sources are a corpus entry (``src/digitfix/data/corpus.json``), OEIS A005188,
an independent enumeration written below in plain integer code, or a closed
form.  Bound records were frozen from a seed run and have no second source;
they are listed as such.  Exits 1 if any answer disagrees with its source.
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import combinations_with_replacement
from pathlib import Path

from check import digits, flag, fn_value

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "src" / "digitfix" / "data" / "corpus.json"

# OEIS A005188, the narcissistic numbers; none has 12 or 13 digits
A005188 = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 153, 370, 371, 407, 1634, 8208, 9474, 54748, 92727, 93084,
    548834, 1741725, 4210818, 9800817, 9926315, 24678050, 24678051, 88593477, 146511208,
    472335975, 534494836, 912985153, 4679307774, 32164049650, 32164049651, 40028394225,
    42678290603, 44708635679, 49388550606, 82693916578, 94204591914, 28116440335967,
]

FERMAT_PRIMES = {2: 17, 3: 257, 4: 65537}


def hardy_by_multisets(fn: str, base: int) -> list[int]:
    """Width-1 fixed points n = sum F(digit), one digit multiset at a time.

    An m-digit n is at least base^(m-1) while its F-sum is at most m*max F,
    so no length with base^(m-1) > m*max F (nor any longer one) can hold one.
    """
    f = [fn_value(fn, d) for d in range(base)]
    hits, m = [], 1
    while base ** (m - 1) <= m * max(f):
        for combo in combinations_with_replacement(range(base), m):
            t = sum(f[d] for d in combo)
            if t and sorted(digits(t, base)) == list(combo):
                hits.append(t)
        m += 1
    return sorted(hits)


def armstrong_by_multisets(base: int, max_order: int | None) -> list[int]:
    """m-digit n equal to the sum of the m-th powers of its digits, for 2 <= m."""
    hits, m = [], 2
    while base ** (m - 1) <= m * (base - 1) ** m and (max_order is None or m <= max_order):
        for combo in combinations_with_replacement(range(base), m):
            t = sum(d**m for d in combo)
            if sorted(digits(t, base)) == list(combo):
                hits.append(t)
        m += 1
    return sorted(hits)


def reversal_brute_force(base: int, n_digits: int) -> list[list[int]]:
    found = []
    for n in range(base ** (n_digits - 1), base**n_digits):
        ds = digits(n, base)
        if ds[0] == 0:
            continue
        r = 0
        for d in ds:
            r = r * base + d
        if r < n and n % r == 0:
            found.append([n, n // r])
    return found


def independent(argv: list[str]):
    family, base = argv[1], flag(argv, "--base", 10)
    if family == "hardy":
        return hardy_by_multisets(flag(argv, "--fn", ""), base)
    if family == "armstrong":
        max_order = flag(argv, "--max-order", 0) or None
        return armstrong_by_multisets(base, max_order)
    return reversal_brute_force(base, flag(argv, "--digits", 0))


def piezas_hashes(argv: list[str]) -> tuple[int, str, str]:
    i, t = flag(argv, "--fermat-index", 0), flag(argv, "--t", 0)
    fe = FERMAT_PRIMES[i]
    a = 2 ** (2 ** (i - 1))
    length = (fe - 1) // 4 * (4 * t + 3)
    big = 10**length
    x, y = a * (a * big - 1) // fe, a * (a + big) // fe
    return length, *(hashlib.sha256(str(v).encode()).hexdigest() for v in (x, y))


def crosscheck(job: dict, corpus: dict) -> str:
    argv, source, expect = job["argv"], job["source"], job["expect"]
    if argv[0] == "bound":
        return "seed run"
    if argv[0] == "corpus":
        return "ok" if expect["min_entries"] <= len(corpus) else "MISMATCH"
    if argv[1] == "vitalis":
        return "closed form, checked on every run"
    if argv[1] == "piezas":
        want = (expect["block_length"], expect["x_sha256"], expect["y_sha256"])
        return "ok" if piezas_hashes(argv) == want else "MISMATCH"
    if source.startswith("corpus entry "):
        derived = corpus[source.split()[2]]["expected"]
    elif source.startswith("OEIS A005188"):
        top = flag(argv, "--max-order", 0)
        derived = [v for v in A005188 if 2 <= len(digits(v, 10)) <= top]
    else:
        derived = independent(argv)
    return "ok" if derived == expect["values"] else "MISMATCH"


def main() -> int:
    workloads = json.loads((HERE / "workloads.json").read_text())
    corpus = {e["id"]: e for e in json.loads(CORPUS.read_text())}
    seen, bad = set(), 0
    for workload in workloads.values():
        for entry in workload["jobs"]:
            for job in entry.get("pool", [entry]):
                if tuple(job["argv"]) in seen:
                    continue
                seen.add(tuple(job["argv"]))
                verdict = crosscheck(job, corpus)
                bad += verdict == "MISMATCH"
                print(f"{verdict:10s} {' '.join(job['argv'])}  [{job['source']}]", flush=True)
    print(f"{len(seen)} jobs, {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
