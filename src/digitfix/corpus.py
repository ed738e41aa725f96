"""Embedded regression corpus: every ground-truth list the package promises.

The corpus ships as ``data/corpus.json`` so checks run offline.  Each entry
re-runs one search or verification and diffs the result against the frozen
expectation.  Entries flagged ``erratum`` record published values that are
known to be wrong; for those the check passes exactly when the verification
FAILS, guarding against the wrong values ever creeping back in as truth.

Entry schema (one JSON object per entry):

``id``          unique name
``kind``        one of search | pair | piezas | vitalis
``family``      search kind only: a key of ``search.FAMILY_TABLE``
``base, k, fn, engine, cap, max_order, digits, include_zero``
                search parameters (defaults: base 10, k 1, engine per family)
``expected``    sorted values; reversal: [value, multiplier] pairs; pair:
                boolean; piezas: {"i", "t", "x", "y"} with decimal strings;
                vitalis: {"l_max"}
``erratum``     entry must FAIL its verification (default false)
``note``        provenance: literature reference or the oracle that froze it
"""

from ._record import Record
from .errors import ConfigurationError
from .families import piezas_numerals, verify_concat_square, vitalis_generate
from .funcatalog import parse_spec
from .search import FAMILY_TABLE, run_search

__all__ = ["CorpusEntry", "CorpusReport", "EntryResult", "corpus_check", "load_corpus"]


class CorpusEntry(Record):
    _defaults = {
        "family": None,
        "base": 10,
        "k": 1,
        "fn": None,
        "engine": None,
        "cap": None,
        "max_order": None,
        "digits": None,
        "include_zero": False,
        "erratum": False,
        "note": "",
    }
    __slots__ = ("id", "kind", "expected", *_defaults)


class EntryResult(Record):
    __slots__ = ("entry", "ok", "actual")


class CorpusReport(Record):
    _defaults = {"results": ()}
    __slots__ = tuple(_defaults)

    @property
    def mismatches(self) -> tuple[EntryResult, ...]:
        return tuple(r for r in self.results if not r.ok)


def load_corpus() -> list[CorpusEntry]:
    # imported here: json (with re) and importlib.resources cost start-up, and
    # from Python 3.12 on importlib.resources imports inspect; no other
    # command needs them
    import json
    from importlib import resources

    raw = resources.files("digitfix").joinpath("data/corpus.json").read_text()
    entries = []
    seen = set()
    for obj in json.loads(raw):
        entry = CorpusEntry(**obj)
        if entry.id in seen:
            raise ConfigurationError(f"duplicate corpus entry id {entry.id!r}")
        seen.add(entry.id)
        _validate(entry)
        entries.append(entry)
    return entries


def _validate(entry: CorpusEntry) -> None:
    if entry.kind == "search":
        family = FAMILY_TABLE.get(entry.family)
        if family is None:
            raise ConfigurationError(
                f"corpus entry {entry.id!r}: unknown family {entry.family!r}"
            )
        for field in family.required:
            if getattr(entry, field) is None:
                raise ConfigurationError(f"corpus entry {entry.id!r}: missing {field}")
        if entry.fn is not None:
            try:
                parse_spec(entry.fn)
            except ConfigurationError as exc:
                raise ConfigurationError(f"corpus entry {entry.id!r}: {exc}") from exc
        values = [v for v, _ in entry.expected] if family.pairs else entry.expected
        if list(values) != sorted(set(values)):
            raise ConfigurationError(
                f"corpus entry {entry.id!r}: expected values must be strictly increasing"
            )


def _run_entry(entry: CorpusEntry) -> object:
    if entry.kind == "search":
        hits = run_search(entry.family, entry)
        if FAMILY_TABLE[entry.family].pairs:
            return [[h.value, h.images[0]] for h in hits]
        return [h.value for h in hits]
    if entry.kind == "pair":
        x, y, length = entry.expected["x"], entry.expected["y"], entry.expected["block_length"]
        return verify_concat_square(x, y, length) == entry.expected["verifies"]
    if entry.kind == "piezas":
        x, y, _ = piezas_numerals(entry.expected["i"], entry.expected["t"])
        return x == entry.expected["x"] and y == entry.expected["y"]
    if entry.kind == "vitalis":
        try:
            for l in range(entry.expected["l_max"] + 1):
                vitalis_generate(l)
        except RuntimeError:
            return False
        return True
    raise ConfigurationError(f"unknown kind {entry.kind!r}")


def check_entry(entry: CorpusEntry) -> EntryResult:
    try:
        actual = _run_entry(entry)
    except ConfigurationError as exc:
        raise ConfigurationError(f"corpus entry {entry.id!r}: {exc}") from exc
    if entry.kind == "search":
        matches = list(actual) == list(entry.expected)
    else:
        matches = bool(actual)
    # erratum entries must fail their verification
    ok = matches != entry.erratum
    return EntryResult(entry=entry, ok=ok, actual=actual)


def corpus_check(entries: list[CorpusEntry] | None = None) -> CorpusReport:
    """Re-run every corpus entry and diff against the frozen expectations."""
    if entries is None:
        entries = load_corpus()
    return CorpusReport(results=tuple(check_entry(e) for e in entries))
