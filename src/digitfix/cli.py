"""Command-line front end.

Subcommands::

    digitfix search {hardy|armstrong|wells|wells-reverse|dudeney|powersum|reversal}
    digitfix bound  {hardy|wells|dudeney|powersum}
    digitfix family {piezas|vitalis}
    digitfix corpus check

Text mode prints human-readable lines; ``--format records`` emits one compact
JSON object per line with a stable schema, byte-identical across runs and
``--jobs`` values.  Exit codes: 0 success, 1 corpus mismatch, 2 usage or
configuration error, a stdout closed early (``digitfix ... | head``) or one
that cannot take the output (a full disk), 3 no finite search bound for the
requested function.

The command itself is :func:`run`, which both ``python -m digitfix.cli`` and
the ``digitfix`` script call: it runs :func:`main` on ``sys.argv``, calls
``gc.freeze()`` and leaves through ``sys.exit`` with main's exit code.  The
freeze spares interpreter shutdown its collections over every object that
start-up loaded.  :func:`main` returns the exit code and never freezes, so
tests and other in-process callers keep their collector as it was.

Every search subcommand is built from its entry in
:data:`digitfix.search.FAMILY_TABLE` (its options and text lines) and goes
through :func:`digitfix.search.run_search`, which picks the family's search
and its default engine; the ceiling printed as ``bound_used`` (and in the
text summary) is the one that search proved and returned with its hits.
This module parses arguments and renders hits; it derives no ceiling of its
own on a search path.  The ``bound`` subcommands run from one table,
``_BOUNDS``; a bound's record holds its arguments and its report's fields.

Each subcommand's runner does the work and returns ``(exit code, records,
lines)``: the dicts that :func:`_record` writes and the text lines.  Both are
lazy, so records mode formats no text line and text mode builds no record.
:func:`main` is the one place that reads ``--format`` and prints, line by line.

The command line is read against one option table, ``_COMMANDS``.  For each
``command subcommand`` pair it lists the help line, the attributes the pair
sets by default (its runner ``run``; every search also ``k = 1`` and
``engine = None``, the family's own engine) and its options.  An option
(:class:`_Option`) names its flags, the attribute it sets, its type (``int``,
``str``, or ``bool`` for a flag that stores True), its choices, default,
whether it is required, and its help.  :func:`_parse` reads a command line
against the table as ``argparse`` would: ``--opt value`` and ``--opt=value``,
``-l 50`` and ``-l50``, a unique prefix of a long flag (an ambiguous one is
an error), ``int()`` before the choices are checked, the last of repeated
options, a negative number as a value, and ``-h``/``--help`` at every level,
printed on stdout from the same table.  A usage error exits 2 with the
failing level's usage line and ``digitfix <path>: error: <message>`` on
stderr.  Neither ``argparse`` nor ``json`` is imported: with ``re``, which
both load, they cost more start-up than most searches.  :func:`_record`
writes the records.

``--jobs`` (``search`` and ``bound``) is accepted for compatibility and
ignored: every search runs in one process.  A given count must still be a
positive integer (exit 2 otherwise).  Results never depend on it, and no
command reads an environment variable.
"""

import gc
import os
import sys

from .bounds import dudeney_cutoff, hardy_bound, powersum_bound, wells_cutoff
from .corpus import corpus_check
from .errors import ConfigurationError, UnsupportedFunctionError
from .families import decimal_str, elide_numeral, piezas_numerals, vitalis_generate
from .funcatalog import parse_spec
from .search import FAMILY_TABLE, run_search

_EXIT_OK = 0
_EXIT_CORPUS = 1
_EXIT_USAGE = 2
_EXIT_UNSUPPORTED = 3

# JSON string escapes other than \uXXXX, as json.dumps writes them
_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"
}


def _escape(char: str) -> str:
    if char in _ESCAPES:
        return _ESCAPES[char]
    if " " <= char <= "~":
        return char
    code = ord(char)
    if code < 0x10000:
        return f"\\u{code:04x}"
    code -= 0x10000  # a surrogate pair
    return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


def _quote(text: str) -> str:
    """A JSON string literal in ASCII, as ``json.dumps`` writes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return '"' + "".join(map(_escape, text)) + '"'


def _record(value) -> str:
    """Compact JSON with sorted keys, as ``json.dumps(value, sort_keys=True,
    separators=(",", ":"))`` writes it, except that integers of any size print
    in full: str() and ``json`` refuse those past the interpreter's int-to-str
    digit limit.  A value is a dict with str keys, a list or tuple, a str, an
    int, a bool, None or a finite float."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int):
        return decimal_str(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{_quote(k)}:{_record(value[k])}" for k in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_record, value)) + "]"
    if isinstance(value, float) and value - value == 0:  # finite: inf - inf is nan
        return float.__repr__(value)
    raise TypeError(f"a record cannot hold {value!r}")


# -- search subcommands --------------------------------------------------------


def _run_search(args) -> tuple:
    hits = run_search(args.family, args)
    family = FAMILY_TABLE[args.family]
    records = (
        {
            "family": h.family,
            "base": args.base,
            "k": args.k,
            "fn": h.fn,
            "value": h.value,
            "decomposition": list(h.images),
            "bound_used": hits.ceiling,
        }
        for h in hits
    )

    def lines():
        yield from (family.line(h, args) for h in hits)
        yield family.summary.format(count=len(hits), ceiling=hits.ceiling, params=args)

    return _EXIT_OK, records, lines()


# -- bound subcommands -----------------------------------------------------------


def _hardy_lines(report) -> list:
    import re  # only this text path needs it, and it costs every command's start-up

    return [
        f"block image maximum s = {elide_numeral(report.s_k)}",
        f"block count threshold M = {report.block_threshold}",
        f"search ceiling n_max = {elide_numeral(report.n_max)}",
        *("  " + re.sub(r"\d+", lambda m: elide_numeral(m.group()), line)
          for line in report.justification),
    ]


def _powersum_bound(spec, base: int):
    if spec.kind != "power":
        raise ConfigurationError("power-sum bound takes --fn pow:P for the exponent")
    return powersum_bound(spec.exponent, base)


# bound kind -> (help, its derivation, the arguments that follow the spec, the
# text lines of its report); each derivation looks its function up when it runs
_BOUNDS = {
    "hardy": (
        "the block-sum ceiling of search hardy",
        lambda spec, base, k: hardy_bound(spec, base, k), ("base", "k"), _hardy_lines,
    ),
    "wells": (
        "the digit-count cutoff of search wells",
        lambda spec, base: wells_cutoff(spec, base), ("base",),
        lambda r: [
            f"no fixed point of digit_count(F(n)) = n at or above {r.cutoff} ({r.method})",
            *(f"  n = {n}: F(n) = {elide_numeral(lhs, 30)} vs {elide_numeral(rhs, 30)}"
              for n, lhs, rhs in r.witnesses),
        ],
    ),
    "dudeney": (
        "the digit-sum cutoff of search dudeney",
        lambda spec, base: dudeney_cutoff(spec, base), ("base",),
        lambda r: [
            f"no fixed point of digit_sum(F(n)) = n at or above {r.cutoff} ({r.method})",
            *(f"  n = {n}: n = {lhs} vs (b-1)*digits(F(n)) = {rhs}"
              for n, lhs, rhs in r.witnesses[:4]),
        ],
    ),
    "powersum": (
        "the largest admissible digit sum of search powersum", _powersum_bound, ("base",),
        lambda r: [
            f"coarse ceiling b^(p*p) = {elide_numeral(r.coarse, 40)}",
            f"largest admissible digit sum s_max = {r.s_max}",
            f"every fixed point is s^p for s <= {r.s_max}",
        ],
    ),
}


def _run_bound(args) -> tuple:
    _, derivation, arguments, render = _BOUNDS[args.bound_kind]
    spec = parse_spec(args.fn)
    values = {name: getattr(args, name) for name in arguments}
    report = derivation(spec, *values.values())

    def records():
        fields = {name: getattr(report, name) for name in report.__slots__}
        yield {"bound": args.bound_kind, "fn": spec.text, **values, **fields}

    def lines():
        yield from render(report)

    return _EXIT_OK, records(), lines()


# -- family subcommands ----------------------------------------------------------


def _run_family_piezas(args) -> tuple:
    x, y, block_length = piezas_numerals(args.fermat_index, args.t)

    def records():
        yield {
            "family": "piezas",
            "fermat_index": args.fermat_index,
            "t": args.t,
            "block_length": block_length,
            "x": x,
            "y": y,
            "verified": True,
        }

    def lines():
        yield f"block length {block_length}"
        yield f"x = {elide_numeral(x, args.elide)}"
        yield f"y = {elide_numeral(y, args.elide)}"
        yield "verified: x*10^L + y = x^2 + y^2 holds exactly"

    return _EXIT_OK, records(), lines()


def _run_family_vitalis(args) -> tuple:
    x, y, z, n = vitalis_generate(args.repeat)

    def records():
        yield {
            "family": "vitalis",
            "repeat": args.repeat,
            "x": decimal_str(x),
            "y": decimal_str(y),
            "z": decimal_str(z),
            "value": decimal_str(n),
            "verified": True,
        }

    def lines():
        yield f"x = {elide_numeral(x, args.elide)}"
        yield f"y = {elide_numeral(y, args.elide)}"
        yield f"z = {elide_numeral(z, args.elide)}"
        yield f"x^3 + y^3 + z^3 = {elide_numeral(n, args.elide)}"
        yield "verified: identity holds exactly"

    return _EXIT_OK, records(), lines()


# -- corpus ----------------------------------------------------------------------


def _run_corpus_check(args) -> tuple:
    report = corpus_check()
    mismatches = report.mismatches
    records = (
        {
            "id": r.entry.id,
            "ok": r.ok,
            "erratum": r.entry.erratum,
            "expected": r.entry.expected,
            "actual": r.actual,
        }
        for r in report.results
    )

    def lines():
        for r in report.results:
            tag = " [erratum, must fail]" if r.entry.erratum else ""
            if r.ok:
                yield f"ok       {r.entry.id}{tag}"
            else:
                yield f"MISMATCH {r.entry.id}{tag}"
                yield f"         expected: {r.entry.expected}"
                yield f"         actual:   {r.actual}"
        yield f"{len(report.results)} entries, {len(mismatches)} mismatches"

    return (_EXIT_CORPUS if mismatches else _EXIT_OK), records, lines()


def _check_jobs(text: str | None) -> None:
    """Refuse a given --jobs that is not a positive integer; the count is unused."""
    if text is None:
        return
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be a positive integer, got {text!r}")


# -- option table ----------------------------------------------------------------


class _Option:
    """One option of a subcommand: its flags and how its value is read.

    ``kind`` is ``int`` or ``str`` for an option that takes a value, ``bool``
    for a flag that stores True, and None for ``-h/--help``.  ``dest``, the
    attribute the option sets, is named after the first flag.
    """

    __slots__ = ("flags", "dest", "kind", "choices", "default", "required", "help")

    def __init__(
        self, flags, kind=str, *, choices=None, default=None, required=False, help=""
    ) -> None:
        self.flags = flags
        self.dest = flags[0].lstrip("-").replace("-", "_")
        self.kind = kind
        self.choices = choices
        self.default = False if kind is bool else default
        self.required = required
        self.help = help

    @property
    def takes_value(self) -> bool:
        return self.kind is int or self.kind is str

    @property
    def name(self) -> str:
        return "/".join(self.flags)

    @property
    def metavar(self) -> str:
        if self.choices is None:
            return self.dest.upper()
        return "{" + ",".join(map(str, self.choices)) + "}"

    def usage(self) -> str:
        text = f"{self.flags[0]} {self.metavar}" if self.takes_value else self.flags[0]
        return text if self.required else f"[{text}]"

    def signature(self) -> str:
        flags = ", ".join(self.flags)
        return f"{flags} {self.metavar}" if self.takes_value else flags

    def describe(self) -> str:
        if self.required:
            return f"{self.help} (required)"
        if self.default is None or self.default is False:
            return self.help
        return f"{self.help} (default: {self.default})"


_HELP = _Option(("-h", "--help"), None, help="show this help and exit")
_BASE = _Option(("--base",), int, default=10, help="radix of the digits")
_FN = _Option(("--fn",), required=True, help="function spec, e.g. pow:3, factorial")
_FORMAT = _Option(
    ("--format",), choices=("text", "records"), default="text",
    help="text lines, or one JSON record per line",
)
_JOBS = _Option(
    ("--jobs",), help="ignored, since every search runs in one process; must be a positive "
    "integer",
)
_K = _Option(("--k",), int, default=1, help="digits per block")

# the option that sets each field of the search parameters but the engine,
# whose choices are the family's engines
_FIELD_OPTIONS = {
    "base": _BASE,
    "fn": _FN,
    "k": _K,
    "cap": _Option(("--cap",), int, help="search up to this ceiling instead of the derived one"),
    "max_order": _Option(("--max-order",), int, help="largest digit count m"),
    "digits": _Option(("--digits",), int, help="digits of n"),
    "include_zero": _Option(("--include-zero",), bool, help="also test n = 0"),
}
_ELIDE = _Option(
    ("--elide",), int, default=1000, help="digit count above which numerals print elided"
)


def _search_command(family) -> tuple:
    """The help, attribute defaults and options of ``search <family>``: an option per
    field it reads; without --k or --engine it searches width 1 with its own engine."""
    options = []
    for field in family.fields:
        option = _FIELD_OPTIONS.get(field)
        if field == "engine":
            help_text = f"search engine (the family's own: {family.engines[0]})"
            option = _Option(("--engine",), choices=family.engines, help=help_text)
        elif field in family.required and not option.required:
            option = _Option(option.flags, option.kind, required=True, help=option.help)
        options.append(option)
    what = 1 + ("fn" in family.fields)  # --base and --fn come before --format and --jobs
    defaults = {"run": _run_search, "k": 1, "engine": None}
    return family.help, defaults, (*options[:what], _FORMAT, _JOBS, *options[what:])


# (command, subcommand) -> (help, attribute defaults, options), in help order
_COMMANDS = {
    **{("search", name): _search_command(entry) for name, entry in FAMILY_TABLE.items()},
    **{
        ("bound", kind): (
            help_text, {"run": _run_bound},
            (_BASE, _FN, _FORMAT, _JOBS, *(_FIELD_OPTIONS[a] for a in arguments if a != "base")),
        )
        for kind, (help_text, _, arguments, _) in _BOUNDS.items()
    },
    ("family", "piezas"): (
        "Fermat-prime concatenated-square pair", {"run": _run_family_piezas},
        (
            _Option(("--fermat-index",), int, choices=(2, 3, 4), required=True,
                    help="i of the Fermat prime 2^(2^i) + 1"),
            _Option(("--t",), int, default=0, help="member t of the family"),
            _ELIDE,
            _FORMAT,
        ),
    ),
    ("family", "vitalis"): (
        "cube family seeded by 153", {"run": _run_family_vitalis},
        (_Option(("--repeat", "-l"), int, required=True, help="repeated digits l"), _ELIDE, _FORMAT),
    ),
    ("corpus", "check"): (
        "re-run every corpus entry against its frozen answer", {"run": _run_corpus_check},
        (_FORMAT,),
    ),
}

# command -> (attribute naming its subcommand, help)
_GROUPS = {
    "search": ("family", "run a fixed-point search"),
    "bound": ("bound_kind", "derive a search ceiling and show why it is sound"),
    "family": ("family_kind", "generate a member of an infinite identity family"),
    "corpus": ("corpus_op", "regression-check the embedded ground-truth corpus"),
}

_DESCRIPTION = (
    "Search for digit-defined fixed points with provable ceilings, derive the\n"
    "ceilings, and generate exact identity families."
)


def _level(path: tuple):
    """(help, options, subcommands, attribute) of one level of the command path.

    ``subcommands`` maps each name the level takes next to its help, and
    ``attribute`` is where the name goes; both are None at a subcommand.
    """
    if not path:
        names = {command: help_text for command, (_, help_text) in _GROUPS.items()}
        return _DESCRIPTION, (_HELP,), names, "command"
    if len(path) == 1:
        attribute, help_text = _GROUPS[path[0]]
        names = {sub: entry[0] for (command, sub), entry in _COMMANDS.items() if command == path[0]}
        return help_text, (_HELP,), names, attribute
    help_text, _, options = _COMMANDS[path]
    return help_text, (_HELP, *options), None, None


# -- parser ----------------------------------------------------------------------


class _UsageError(Exception):
    """A command line the table rejects; ``path`` is the level that failed."""

    path: tuple = ()


class _Args:
    """What a command line sets: the subcommand names, ``run`` and every option's value."""


# what a token is, besides an option: a value, the "--" that ends the options,
# or a flag that names no option of the level
_VALUE, _DASHES, _UNKNOWN = "value", "--", "unknown"


def _is_negative_number(token: str) -> bool:
    """Whether a token is ``-5``, ``-.5`` or ``-1.5``, decimal digits only:
    argparse reads such a token as a value, never as a flag."""
    body = token[1:-1] if token.endswith("\n") else token[1:]  # "$" matches before a final newline
    whole, dot, fraction = body.partition(".")
    if not dot:
        return whole.isdecimal()
    return (not whole or whole.isdecimal()) and fraction.isdecimal()


def _read_token(token: str, flags: dict):
    """(option, flag, attached value or None) for an option token, else a kind.

    The rules are argparse's: an exact flag, then ``flag=value``, then a
    unique prefix of a long flag (``--max``, also with ``=value``) or a short
    flag with its value attached (``-l50``).  A token that names no option is
    a value if it is a negative number or holds a space, else an unknown flag.
    """
    if not token.startswith("-") or len(token) == 1:
        return _VALUE
    if token in flags:
        return flags[token], token, None
    flag, eq, value = token.partition("=")
    if eq and flag in flags:
        return flags[flag], flag, value
    if token[1] == "-":
        matches = [(flags[f], f, value if eq else None) for f in flags if f.startswith(flag)]
    else:
        matches = [
            (flags[f], f, token[2:] if f == token[:2] else None)
            for f in flags
            if f == token[:2] or f.startswith(token)
        ]
    if len(matches) > 1:
        names = ", ".join(f for _, f, _ in matches)
        raise _UsageError(f"ambiguous option: {token} could match {names}")
    if matches:
        return matches[0]
    if _is_negative_number(token) or " " in token:
        return _VALUE
    return _UNKNOWN


def _read_tokens(tokens: list, flags: dict) -> list:
    """The kind of each token; every token after the first "--" is a value."""
    kinds = []
    for n, token in enumerate(tokens):
        if token == "--":
            return kinds + [_DASHES] + [_VALUE] * (len(tokens) - n - 1)
        kinds.append(_read_token(token, flags))
    return kinds


def _read_option(read, tokens: list, kinds: list, i: int, flags: dict):
    """The (option, value text) pairs that the option token at ``i`` sets,
    and the index of the token after them.

    A flag that takes no value may carry more single-dash flags: ``-hx``
    reads as ``-h -x``.
    """
    option, flag, value = read
    taken = []
    while value is not None and not option.takes_value:
        if flag[1] == "-" or value == "" or "-" + value[0] not in flags:
            raise _UsageError(f"argument {option.name}: ignored explicit argument {value!r}")
        taken.append((option, None))
        flag, value = "-" + value[0], value[1:] or None
        option = flags[flag]
    if not option.takes_value or value is not None:
        taken.append((option, value))
        return taken, i + 1
    if i + 1 < len(tokens) and kinds[i + 1] is _VALUE:
        taken.append((option, tokens[i + 1]))
        return taken, i + 2
    raise _UsageError(f"argument {option.name}: expected one argument")


def _convert(option: _Option, text: str | None):
    if option.kind is bool:
        return True
    value = text
    if option.kind is int:
        try:
            value = int(text)
        except ValueError:
            raise _UsageError(f"argument {option.name}: invalid int value: {text!r}") from None
    if option.choices is not None and value not in option.choices:
        raise _invalid_choice(option.name, value, option.choices)
    return value


def _invalid_choice(name: str, value, choices) -> _UsageError:
    listed = ", ".join(map(repr, choices))
    return _UsageError(f"argument {name}: invalid choice: {value!r} (choose from {listed})")


def _parse(argv: list):
    """The attributes a command line sets, or None once help is printed.

    Each level of the command path reads its tokens in order.  At
    ``digitfix`` and ``digitfix <command>`` the first value names the next
    level, which reads the rest; at a subcommand every token must be one of
    its options or an option's value.  Unknown flags are reported when the
    command line is complete, so ``-h`` after one still prints help.
    """
    args = _Args()
    path = ()
    tokens = list(argv)
    extras = []  # unknown flags and stray values
    try:
        while True:
            _, options, subcommands, attribute = _level(path)
            if subcommands is None:
                for name, value in _COMMANDS[path][1].items():
                    setattr(args, name, value)
                for option in options[1:]:
                    setattr(args, option.dest, option.default)
            flags = {flag: option for option in options for flag in option.flags}
            kinds = _read_tokens(tokens, flags)
            seen = set()
            i = 0
            while i < len(tokens):
                kind = kinds[i]
                if isinstance(kind, tuple):
                    taken, i = _read_option(kind, tokens, kinds, i, flags)
                    for option, text in taken:
                        if option.kind is None:
                            sys.stdout.write(_help(path))
                            return None
                        setattr(args, option.dest, _convert(option, text))
                        seen.add(option)
                elif subcommands is not None and kind is not _UNKNOWN:
                    break
                else:
                    extras.append(tokens[i])
                    i += 1
            if subcommands is None:
                missing = [o.name for o in options if o.required and o not in seen]
                if missing:
                    raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
                if extras:
                    raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
                return args
            if i == len(tokens):
                raise _UsageError(f"the following arguments are required: {attribute}")
            name = tokens[i]
            if name not in subcommands:
                raise _invalid_choice(attribute, name, subcommands)
            setattr(args, attribute, name)
            path += (name,)
            tokens = tokens[i + 1 :]
    except _UsageError as exc:
        exc.path = path
        raise


def _usage(path: tuple) -> str:
    _, options, subcommands, _ = _level(path)
    words = ["digitfix", *path, *(option.usage() for option in options)]
    if subcommands is not None:
        words.append("{" + ",".join(subcommands) + "} ...")
    return " ".join(words)


def _help(path: tuple) -> str:
    help_text, options, subcommands, _ = _level(path)
    sections = []
    if subcommands is not None:
        sections.append(("commands" if not path else "subcommands", list(subcommands.items())))
    sections.append(("options", [(option.signature(), option.describe()) for option in options]))
    width = max(len(left) for _, rows in sections for left, _ in rows) + 2
    lines = [f"usage: {_usage(path)}", "", help_text]
    for title, rows in sections:
        lines += ["", f"{title}:"]
        lines += [f"  {left.ljust(width)}{right}".rstrip() for left, right in rows]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        prog = " ".join(("digitfix", *exc.path))
        print(f"usage: {_usage(exc.path)}\n{prog}: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    if args is None:  # help was printed
        return _EXIT_OK
    try:
        _check_jobs(getattr(args, "jobs", None))
        if getattr(args, "elide", 0) < 0:
            raise ConfigurationError(f"--elide must be a natural number, got {args.elide}")
        code, records, lines = args.run(args)
        if args.format == "records":
            lines = map(_record, records)
        for line in lines:
            print(line)
        return code
    except UnsupportedFunctionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_UNSUPPORTED
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


class _Stdout:
    """stdout as :func:`run` hands it to :func:`main`.  It keeps the
    ``OSError`` that a write or flush raised, so that :func:`run` can tell a
    stdout that cannot take the output from any other ``OSError``."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.error = None

    def __getattr__(self, name: str):
        return getattr(self.stream, name)

    def _keep_error(self, call, *args):
        try:
            return call(*args)
        except OSError as exc:
            self.error = exc
            raise

    def write(self, text: str) -> int:
        return self._keep_error(self.stream.write, text)

    def flush(self) -> None:
        self._keep_error(self.stream.flush)


def run() -> None:
    """The command: :func:`main` on ``sys.argv``, then exit with its code.

    ``gc.freeze()`` moves every live object into the permanent generation,
    which the collections of interpreter shutdown never walk, so a cycle
    still alive then is not finalized: no command leaves an open file in
    one.  ``sys.exit`` still reports a failed flush and runs the atexit
    handlers.  A stdout closed before the start (``digitfix ... >&-``) or
    early (``digitfix ... | head``), or one that cannot take the output (a
    full disk), exits 2 with one error line; pointing its descriptor at
    ``os.devnull`` drops the output still buffered.  Any other ``OSError``
    propagates.
    """
    closed = "error: stdout was closed before the output was written"
    if sys.stdout is None:  # descriptor 1 was closed at start
        print(closed, file=sys.stderr)
        sys.exit(_EXIT_USAGE)
    sys.stdout = stdout = _Stdout(sys.stdout)
    try:
        status = main()
        stdout.flush()
    except OSError as exc:
        if exc is not stdout.error:
            raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            print(closed, file=sys.stderr)
        else:
            print(f"error: stdout cannot take the output: {exc}", file=sys.stderr)
        status = _EXIT_USAGE
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
