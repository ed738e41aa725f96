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
from .funcatalog import FunctionSpec, parse_spec
from .search import (
    SearchConfig,
    SearchHit,
    armstrong_order_ceiling,
    search_armstrong,
    search_dudeney,
    search_hardy,
    search_powersum,
    search_reversal,
    search_wells,
    search_wells_reverse,
)

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


def _spec_from(args) -> FunctionSpec:
    spec = parse_spec(args.fn)
    zero = getattr(args, "zero_pow_zero", None)
    if zero is not None:
        spec = spec.with_zero_self_power(zero)
    return spec


def _emit_hits(args, hits: list[SearchHit], bound_used: int) -> int:
    if args.format == "records":
        for h in hits:
            print(
                _record(
                    {
                        "family": h.family,
                        "base": h.blocks.base,
                        "k": h.blocks.block_width,
                        "fn": h.fn,
                        "value": h.value,
                        "decomposition": list(h.images),
                        "bound_used": bound_used,
                    }
                )
            )
        return _EXIT_OK
    for h in hits:
        print(_describe_hit(h))
    print(f"{len(hits)} hit(s), search ceiling {bound_used}")
    return _EXIT_OK


def _describe_hit(h: SearchHit) -> str:
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
    return str(h.value)


# -- search subcommands --------------------------------------------------------


def _run_search_hardy(args) -> int:
    spec = _spec_from(args)
    cfg = SearchConfig(
        spec=spec,
        base=args.base,
        width=args.k,
        engine=args.engine,
        cap=args.cap,
        include_zero=args.include_zero,
    )
    bound_used = args.cap if args.cap is not None else hardy_bound(spec, args.base, args.k).n_max
    hits = search_hardy(cfg)
    return _emit_hits(args, hits, bound_used)


def _run_search_armstrong(args) -> int:
    hits = search_armstrong(args.base, args.max_order)
    ceiling = armstrong_order_ceiling(args.base) - 1
    if args.max_order is not None:
        ceiling = min(ceiling, args.max_order)
    return _emit_hits(args, hits, ceiling)


def _run_search_wells(args) -> int:
    spec = _spec_from(args)
    bound_used = args.cap if args.cap is not None else wells_cutoff(spec, args.base).cutoff
    hits = search_wells(spec, args.base, args.cap, args.include_zero)
    return _emit_hits(args, hits, bound_used)


def _run_search_wells_reverse(args) -> int:
    spec = _spec_from(args)
    hits = search_wells_reverse(spec, args.base, args.cap, args.include_zero)
    return _emit_hits(args, hits, args.cap)


def _run_search_dudeney(args) -> int:
    spec = _spec_from(args)
    if args.cap is not None:
        bound_used = args.cap
    elif args.engine == "preimage":
        bound_used = powersum_bound(spec.exponent, args.base).s_max
    else:
        bound_used = dudeney_cutoff(spec, args.base).cutoff
    hits = search_dudeney(spec, args.base, args.cap, args.engine, args.include_zero)
    return _emit_hits(args, hits, bound_used)


def _run_search_powersum(args) -> int:
    spec = _spec_from(args)
    if spec.kind != "power":
        raise ConfigurationError("power-sum search takes --fn pow:P for the exponent")
    bound = powersum_bound(spec.exponent, args.base)
    bound_used = bound.s_max**spec.exponent
    if args.cap is not None:
        bound_used = min(bound_used, args.cap)
    hits = search_powersum(
        spec.exponent,
        args.base,
        engine=args.engine,
        cap=args.cap,
        include_zero=args.include_zero,
    )
    return _emit_hits(args, hits, bound_used)


def _run_search_reversal(args) -> int:
    hits = search_reversal(args.base, args.digits)
    if args.format == "records":
        for h in hits:
            print(
                _record(
                    {
                        "family": "reversal",
                        "base": args.base,
                        "k": 1,
                        "fn": None,
                        "value": h.value,
                        "decomposition": [h.multiplier, h.reversal],
                        "bound_used": args.base**args.digits - 1,
                    }
                )
            )
        return _EXIT_OK
    for h in hits:
        print(f"{h.value} = {h.multiplier} x {h.reversal}")
    print(f"{len(hits)} hit(s) among {args.digits}-digit numbers")
    return _EXIT_OK


# -- bound subcommands -----------------------------------------------------------


def _run_bound_hardy(args) -> int:
    spec = _spec_from(args)
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


def _cutoff_to_record(kind: str, args, report) -> dict:
    return {
        "bound": kind,
        "base": args.base,
        "fn": args.fn,
        "cutoff": report.cutoff,
        "method": report.method,
        "witnesses": [list(w) for w in report.witnesses],
    }


def _run_bound_wells(args) -> int:
    report = wells_cutoff(_spec_from(args), args.base)
    if args.format == "records":
        print(_record(_cutoff_to_record("wells", args, report)))
        return _EXIT_OK
    print(f"no fixed point of digit_count(F(n)) = n at or above {report.cutoff} ({report.method})")
    for n, lhs, rhs in report.witnesses:
        print(f"  n = {n}: F(n) = {elide_numeral(lhs, 30)} vs {elide_numeral(rhs, 30)}")
    return _EXIT_OK


def _run_bound_dudeney(args) -> int:
    report = dudeney_cutoff(_spec_from(args), args.base)
    if args.format == "records":
        print(_record(_cutoff_to_record("dudeney", args, report)))
        return _EXIT_OK
    print(f"no fixed point of digit_sum(F(n)) = n at or above {report.cutoff} ({report.method})")
    for n, lhs, rhs in report.witnesses[:4]:
        print(f"  n = {n}: n = {lhs} vs (b-1)*digits(F(n)) = {rhs}")
    return _EXIT_OK


def _run_bound_powersum(args) -> int:
    spec = _spec_from(args)
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


def _add_common(sub, fn_required=True, engines=None, default_engine=None):
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
        sub.add_argument("--engine", choices=engines, default=default_engine)


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
    fams = search.add_subparsers(dest="family", required=True)

    p = fams.add_parser("hardy", help="n equal to the F-sum of its digit blocks")
    _add_common(p, engines=("scan", "multiset"), default_engine="scan")
    p.add_argument("--k", type=int, default=1, help="digits per block")
    p.add_argument("--cap", type=int)
    _add_zero_flags(p)
    p.set_defaults(run=_run_search_hardy)

    p = fams.add_parser("armstrong", help="m-digit n equal to the sum of m-th powers of digits")
    _add_common(p, fn_required=False)
    p.add_argument("--max-order", type=int)
    p.set_defaults(run=_run_search_armstrong)

    p = fams.add_parser("wells", help="n equal to the digit count of F(n)")
    _add_common(p)
    p.add_argument("--cap", type=int)
    _add_zero_flags(p)
    p.set_defaults(run=_run_search_wells)

    p = fams.add_parser("wells-reverse", help="n equal to F(digit count of n)")
    _add_common(p)
    p.add_argument("--cap", type=int, required=True)
    _add_zero_flags(p)
    p.set_defaults(run=_run_search_wells_reverse)

    p = fams.add_parser("dudeney", help="n equal to the digit sum of F(n)")
    _add_common(p, engines=("scan", "preimage"), default_engine="scan")
    p.add_argument("--cap", type=int)
    _add_zero_flags(p)
    p.set_defaults(run=_run_search_dudeney)

    p = fams.add_parser("powersum", help="n equal to its digit sum raised to a power")
    _add_common(p, engines=("preimage", "scan"), default_engine="preimage")
    p.add_argument("--cap", type=int)
    _add_zero_flags(p)
    p.set_defaults(run=_run_search_powersum)

    p = fams.add_parser("reversal", help="n an integral multiple of its digit reversal")
    _add_common(p, fn_required=False)
    p.add_argument("--digits", type=int, required=True)
    p.set_defaults(run=_run_search_reversal)

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
