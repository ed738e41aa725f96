"""Command-line front end.

Subcommands::

    digitfix search {hardy|armstrong|wells|wells-reverse|dudeney|powersum|reversal}
    digitfix bound  {hardy|wells|dudeney|powersum}
    digitfix family {piezas|vitalis}
    digitfix corpus check

Text mode prints human-readable lines; ``--format records`` emits one compact
JSON object per line with a stable schema, byte-identical across runs and
``--jobs`` values.  Exit codes: 0 success, 1 corpus mismatch, 2 usage or
configuration error, 3 no finite search bound for the requested function.

Every search subcommand goes through :func:`digitfix.search.run_search`,
which picks the family's search and its default engine; the ceiling printed
as ``bound_used`` (and in the text summary) is the one that search proved and
returned with its hits.  This module parses arguments and renders hits; it
derives no ceiling of its own on a search path.

``--jobs`` (default from the ``DIGITFIX_JOBS`` environment variable, else 1)
is accepted for compatibility and ignored: every search runs in one process.
It is still read when the command runs and must be a positive integer (exit
2 otherwise).  Results never depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .bounds import dudeney_cutoff, hardy_bound, powersum_bound, wells_cutoff
from .corpus import corpus_check
from .errors import ConfigurationError, UnsupportedFunctionError
from .families import decimal_str, elide_numeral, piezas_numerals, vitalis_generate
from .funcatalog import parse_spec
from .search import run_search

_EXIT_OK = 0
_EXIT_CORPUS = 1
_EXIT_USAGE = 2
_EXIT_UNSUPPORTED = 3


def _record(value) -> str:
    """Compact JSON with sorted keys, as ``json.dumps`` writes it, except that
    integers of any size print in full: str() and ``json`` refuse those past
    the interpreter's int-to-str digit limit."""
    if isinstance(value, int) and not isinstance(value, bool):
        return decimal_str(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_record(value[k])}" for k in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_record, value)) + "]"
    return json.dumps(value)


def _describe_hit(h) -> str:
    if h.family in ("hardy", "armstrong"):
        spec = parse_spec(h.fn)
        terms = " + ".join(spec.term(v) for v in reversed(h.blocks.blocks))
        return f"{h.value} = {terms}"
    if h.family == "wells":
        return f"{h.value}: F({h.value}) has {h.value} digit(s)"
    if h.family == "wells-reverse":
        return f"{h.value} = F({h.images[0]})"
    if h.family == "dudeney":
        return f"{h.value}: digit sum of F({h.value}) = {elide_numeral(h.images[0], 40)} is {h.value}"
    if h.family == "powersum":
        return f"{h.value} = {h.images[0]}^{parse_spec(h.fn).exponent}, its own digit sum raised"
    return f"{h.value} = {h.multiplier} x {h.reversal}"


# -- search subcommands --------------------------------------------------------


def _run_search(args) -> int:
    hits = run_search(args.family, args)
    if args.format == "records":
        for h in hits:
            print(
                _record(
                    {
                        "family": h.family,
                        "base": args.base,
                        "k": args.k,
                        "fn": h.fn,
                        "value": h.value,
                        "decomposition": list(h.images),
                        "bound_used": hits.ceiling,
                    }
                )
            )
        return _EXIT_OK
    for h in hits:
        print(_describe_hit(h))
    if args.family == "reversal":
        print(f"{len(hits)} hit(s) among {args.digits}-digit numbers")
    else:
        print(f"{len(hits)} hit(s), search ceiling {hits.ceiling}")
    return _EXIT_OK


# -- bound subcommands -----------------------------------------------------------


def _run_bound_hardy(args) -> int:
    spec = parse_spec(args.fn)
    report = hardy_bound(spec, args.base, args.k)
    if args.format == "records":
        print(
            _record(
                {
                    "bound": "hardy",
                    "base": args.base,
                    "k": args.k,
                    "fn": spec.text,
                    "s_k": report.s_k,
                    "block_threshold": report.block_threshold,
                    "n_max": report.n_max,
                    "justification": list(report.justification),
                }
            )
        )
        return _EXIT_OK
    print(f"block image maximum s = {elide_numeral(report.s_k)}")
    print(f"block count threshold M = {report.block_threshold}")
    print(f"search ceiling n_max = {elide_numeral(report.n_max)}")
    for line in report.justification:
        print("  " + re.sub(r"\d+", lambda m: elide_numeral(m.group()), line))
    return _EXIT_OK


def _cutoff_to_record(kind: str, args, spec, report) -> dict:
    return {
        "bound": kind,
        "base": args.base,
        "fn": spec.text,
        "cutoff": report.cutoff,
        "method": report.method,
        "witnesses": [list(w) for w in report.witnesses],
    }


def _run_bound_wells(args) -> int:
    spec = parse_spec(args.fn)
    report = wells_cutoff(spec, args.base)
    if args.format == "records":
        print(_record(_cutoff_to_record("wells", args, spec, report)))
        return _EXIT_OK
    print(f"no fixed point of digit_count(F(n)) = n at or above {report.cutoff} ({report.method})")
    for n, lhs, rhs in report.witnesses:
        print(f"  n = {n}: F(n) = {elide_numeral(lhs, 30)} vs {elide_numeral(rhs, 30)}")
    return _EXIT_OK


def _run_bound_dudeney(args) -> int:
    spec = parse_spec(args.fn)
    report = dudeney_cutoff(spec, args.base)
    if args.format == "records":
        print(_record(_cutoff_to_record("dudeney", args, spec, report)))
        return _EXIT_OK
    print(f"no fixed point of digit_sum(F(n)) = n at or above {report.cutoff} ({report.method})")
    for n, lhs, rhs in report.witnesses[:4]:
        print(f"  n = {n}: n = {lhs} vs (b-1)*digits(F(n)) = {rhs}")
    return _EXIT_OK


def _run_bound_powersum(args) -> int:
    spec = parse_spec(args.fn)
    if spec.kind != "power":
        raise ConfigurationError("power-sum bound takes --fn pow:P for the exponent")
    bound = powersum_bound(spec.exponent, args.base)
    if args.format == "records":
        print(
            _record(
                {
                    "bound": "powersum",
                    "base": args.base,
                    "fn": spec.text,
                    "coarse": bound.coarse,
                    "s_max": bound.s_max,
                }
            )
        )
        return _EXIT_OK
    print(f"coarse ceiling b^(p*p) = {elide_numeral(bound.coarse, 40)}")
    print(f"largest admissible digit sum s_max = {bound.s_max}")
    print(f"every fixed point is s^p for s <= {bound.s_max}")
    return _EXIT_OK


# -- family subcommands ----------------------------------------------------------


def _run_family_piezas(args) -> int:
    x, y, block_length = piezas_numerals(args.fermat_index, args.t)
    if args.format == "records":
        print(
            _record(
                {
                    "family": "piezas",
                    "fermat_index": args.fermat_index,
                    "t": args.t,
                    "block_length": block_length,
                    "x": x,
                    "y": y,
                    "verified": True,
                }
            )
        )
        return _EXIT_OK
    print(f"block length {block_length}")
    print(f"x = {elide_numeral(x, args.elide)}")
    print(f"y = {elide_numeral(y, args.elide)}")
    print("verified: x*10^L + y = x^2 + y^2 holds exactly")
    return _EXIT_OK


def _run_family_vitalis(args) -> int:
    x, y, z, n = vitalis_generate(args.repeat)
    if args.format == "records":
        print(
            _record(
                {
                    "family": "vitalis",
                    "repeat": args.repeat,
                    "x": decimal_str(x),
                    "y": decimal_str(y),
                    "z": decimal_str(z),
                    "value": decimal_str(n),
                    "verified": True,
                }
            )
        )
        return _EXIT_OK
    print(f"x = {elide_numeral(x, args.elide)}")
    print(f"y = {elide_numeral(y, args.elide)}")
    print(f"z = {elide_numeral(z, args.elide)}")
    print(f"x^3 + y^3 + z^3 = {elide_numeral(n, args.elide)}")
    print("verified: identity holds exactly")
    return _EXIT_OK


# -- corpus ----------------------------------------------------------------------


def _run_corpus_check(args) -> int:
    report = corpus_check()
    mismatches = report.mismatches
    if args.format == "records":
        for r in report.results:
            print(
                _record(
                    {
                        "id": r.entry.id,
                        "ok": r.ok,
                        "erratum": r.entry.erratum,
                        "expected": r.entry.expected,
                        "actual": r.actual,
                    }
                )
            )
    else:
        for r in report.results:
            tag = " [erratum, must fail]" if r.entry.erratum else ""
            if r.ok:
                print(f"ok       {r.entry.id}{tag}")
            else:
                print(f"MISMATCH {r.entry.id}{tag}")
                print(f"         expected: {r.entry.expected}")
                print(f"         actual:   {r.actual}")
        print(f"{len(report.results)} entries, {len(mismatches)} mismatches")
    return _EXIT_CORPUS if mismatches else _EXIT_OK


def _check_jobs(flag: str | None) -> None:
    """Refuse a --jobs, else DIGITFIX_JOBS, that is not a positive integer; the count is unused."""
    if flag is not None:
        source, text = "--jobs", flag
    else:
        source, text = "DIGITFIX_JOBS", os.environ.get("DIGITFIX_JOBS") or "1"
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigurationError(f"{source} must be a positive integer, got {text!r}")


# -- parser ----------------------------------------------------------------------


def _add_common(sub, fn_required=True, engines=None):
    sub.add_argument("--base", type=int, default=10)
    if fn_required:
        sub.add_argument("--fn", required=True, help="function spec, e.g. pow:3, factorial")
    sub.add_argument("--format", choices=("text", "records"), default="text")
    sub.add_argument(
        "--jobs",
        help="accepted and ignored: every search runs in one process; must be a positive "
        "integer (default: DIGITFIX_JOBS or 1)",
    )
    if engines:
        sub.add_argument("--engine", choices=engines)


def _add_zero_flags(sub):
    sub.add_argument("--include-zero", action="store_true")
    sub.add_argument("--zero-pow-zero", type=int, choices=(0, 1), default=1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitfix",
        description="Search for digit-defined fixed points with provable ceilings, "
        "derive the ceilings, and generate exact identity families.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    search = top.add_parser("search", help="run a fixed-point search")
    # a family without --k or --engine searches width 1 with its own default engine
    search.set_defaults(run=_run_search, k=1, engine=None)
    fams = search.add_subparsers(dest="family", required=True)

    for name, help_text, engines in (
        ("hardy", "n equal to the F-sum of its digit blocks", ("scan", "multiset")),
        ("armstrong", "m-digit n equal to the sum of m-th powers of digits", None),
        ("wells", "n equal to the digit count of F(n)", None),
        ("wells-reverse", "n equal to F(digit count of n)", None),
        ("dudeney", "n equal to the digit sum of F(n)", ("scan", "preimage")),
        ("powersum", "n equal to its digit sum raised to a power", ("preimage", "scan")),
        ("reversal", "n an integral multiple of its digit reversal", None),
    ):
        p = fams.add_parser(name, help=help_text)
        _add_common(p, fn_required=name not in ("armstrong", "reversal"), engines=engines)
        if name == "armstrong":
            p.add_argument("--max-order", type=int)
        elif name == "reversal":
            p.add_argument("--digits", type=int, required=True)
        else:
            if name == "hardy":
                p.add_argument("--k", type=int, default=1, help="digits per block")
            p.add_argument("--cap", type=int, required=name == "wells-reverse")
            _add_zero_flags(p)

    bound = top.add_parser("bound", help="derive a search ceiling and show why it is sound")
    bounds = bound.add_subparsers(dest="bound_kind", required=True)
    for name, runner, with_k in (
        ("hardy", _run_bound_hardy, True),
        ("wells", _run_bound_wells, False),
        ("dudeney", _run_bound_dudeney, False),
        ("powersum", _run_bound_powersum, False),
    ):
        p = bounds.add_parser(name)
        _add_common(p)
        if with_k:
            p.add_argument("--k", type=int, default=1)
        p.set_defaults(run=runner)

    family = top.add_parser("family", help="generate a member of an infinite identity family")
    fam = family.add_subparsers(dest="family_kind", required=True)

    p = fam.add_parser("piezas", help="Fermat-prime concatenated-square pair")
    p.add_argument("--fermat-index", type=int, required=True, choices=(2, 3, 4))
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--elide", type=int, default=1000, help="digit threshold before numerals elide")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(run=_run_family_piezas)

    p = fam.add_parser("vitalis", help="cube family seeded by 153")
    p.add_argument("--repeat", "-l", type=int, required=True, dest="repeat")
    p.add_argument("--elide", type=int, default=1000)
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(run=_run_family_vitalis)

    corpus = top.add_parser("corpus", help="regression-check the embedded ground-truth corpus")
    ops = corpus.add_subparsers(dest="corpus_op", required=True)
    p = ops.add_parser("check")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(run=_run_corpus_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else _EXIT_USAGE
    try:
        if hasattr(args, "jobs"):
            _check_jobs(args.jobs)
        if getattr(args, "elide", 0) < 0:
            raise ConfigurationError(f"--elide must be a natural number, got {args.elide}")
        return args.run(args)
    except UnsupportedFunctionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_UNSUPPORTED
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
