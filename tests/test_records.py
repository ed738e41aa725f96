"""Value semantics of the package's immutable records."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import digitfix
from digitfix._record import Record
from digitfix.bounds import BoundReport, CutoffReport, PowerSumBound
from digitfix.corpus import CorpusEntry, CorpusReport, EntryResult
from digitfix.errors import ConfigurationError
from digitfix.families import ConcatSquarePair, PiezasParams
from digitfix.funcatalog import FunctionSpec
from digitfix.search import SearchConfig, SearchHit

_ENTRY = CorpusEntry("cubes", "search", (1, 153), family="hardy", fn="pow:3")
_ENTRY_DEFAULTS = {
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

# (class, a value for every field in order, defaults of the trailing fields,
#  one field changed to another valid value)
RECORDS = [
    (
        FunctionSpec,
        ("self_power", None, None, None, 0),
        {"exponent": None, "expbase": None, "coeffs": None, "zero_self_power": 1},
        ("zero_self_power", 1),
    ),
    (BoundReport, (59049, 7, 354294, ("s = 59049",)), {}, ("block_threshold", 8)),
    (CutoffReport, (28, "analytic", ((28, 1, 2),)), {}, ("cutoff", 29)),
    (PowerSumBound, (10**9, 54), {}, ("s_max", 55)),
    (PiezasParams, (2, 0, 17, 4, 4, 3), {}, ("t", 1)),
    (ConcatSquarePair, (12, 33, 2), {}, ("y", 34)),
    (
        SearchConfig,
        (FunctionSpec.power(3), 7, 2, "scan", 100, True),
        {"spec": None, "base": 10, "width": 1, "engine": "auto", "cap": None,
         "include_zero": False},
        ("cap", 200),
    ),
    (
        SearchHit,
        (153, (27, 125, 1), "hardy", "pow:3"),
        {},
        ("fn", "pow:4"),
    ),
    (
        CorpusEntry,
        ("e", "search", (1,), "hardy", 9, 2, "pow:3", "multiset", 50, 4, 3, True, True, "n"),
        _ENTRY_DEFAULTS,
        ("note", "m"),
    ),
    (EntryResult, (_ENTRY, True, (1, 153)), {}, ("ok", False)),
    (CorpusReport, ((EntryResult(_ENTRY, True, (1, 153)),),), {"results": ()}, ("results", ())),
]


@pytest.mark.parametrize(
    "cls, args, defaults, change", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)
def test_record_value_semantics(cls, args, defaults, change):
    fields = cls.__slots__
    rec = cls(*args)
    assert tuple(getattr(rec, name) for name in fields) == args
    assert cls(**dict(zip(fields, args))) == rec

    bare = cls(*args[: len(args) - len(defaults)])
    assert {name: getattr(bare, name) for name in defaults} == defaults

    # equal by value, hashable as the tuple of fields
    twin = cls(*args)
    assert twin == rec and twin is not rec and hash(twin) == hash(rec)
    name, value = change
    other = rec.replace(**{name: value})
    assert getattr(other, name) == value and other != rec
    assert {n: getattr(other, n) for n in fields if n != name} == {
        n: getattr(rec, n) for n in fields if n != name
    }
    assert len({rec, twin, other}) == 2
    assert rec != args

    for attr in (fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(rec, attr, value)
    with pytest.raises(AttributeError):
        delattr(rec, fields[0])
    assert tuple(getattr(rec, n) for n in fields) == args

    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{n}={getattr(rec, n)!r}" for n in fields
    ) + ")"
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert copy.deepcopy(rec) == rec


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: FunctionSpec("nope"), ConfigurationError, "unknown function kind"),
        (lambda: FunctionSpec("power"), ConfigurationError, "power exponent"),
        (lambda: FunctionSpec("power", exponent=0), ConfigurationError, "power exponent"),
        (lambda: FunctionSpec("exp_base", expbase=1), ConfigurationError, "exponential base"),
        (lambda: FunctionSpec("polynomial", coeffs=()), ConfigurationError, "coefficient"),
        (lambda: FunctionSpec("self_power", zero_self_power=2), ConfigurationError, "0 or 1"),
        (lambda: FunctionSpec.power(3).replace(exponent=-1), ConfigurationError, "exponent"),
        (lambda: FunctionSpec.power(3).replace(degree=3), TypeError, "degree"),
        # a field another kind reads would print as the same spec text, yet
        # compare and hash unequal to it
        (lambda: FunctionSpec("power", 3, 5, None, 1), ConfigurationError,
         "power spec takes no expbase"),
        (lambda: FunctionSpec("exp_base", 2, 5, None, 1), ConfigurationError,
         "exp_base spec takes no exponent"),
        (lambda: FunctionSpec("factorial", coeffs=(1,)), ConfigurationError, "takes no coeffs"),
        (lambda: FunctionSpec("polynomial", 2, None, (1,), 1), ConfigurationError,
         "polynomial spec takes no exponent"),
        (lambda: FunctionSpec.power(3).replace(zero_self_power=0), ConfigurationError,
         "power spec takes no zero_self_power"),
        (lambda: FunctionSpec("subfactorial", zero_self_power=0), ConfigurationError,
         "takes no zero_self_power"),
        (lambda: PiezasParams.from_index(5, 0), ConfigurationError, "fermat index"),
        (lambda: PiezasParams.from_index(2, -1), ConfigurationError, "t must be"),
    ],
)
def test_record_validation(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize(
    "cls, args, kwargs, message",
    [
        (ConcatSquarePair, (12, 33, 2, 4), {}, r"ConcatSquarePair\(\) takes 3 fields, got 4"),
        (ConcatSquarePair, (12, 33), {"width": 2}, "got an unknown field 'width'"),
        (ConcatSquarePair, (12, 33), {"x": 2}, "got a repeated field 'x'"),
        (ConcatSquarePair, (12,), {"block_length": 2}, r"is missing field\(s\) y$"),
        (FunctionSpec, (), {"exponent": 3}, r"FunctionSpec\(\) is missing field\(s\) kind$"),
        (CorpusEntry, ("e",), {}, r"is missing field\(s\) kind, expected$"),
    ],
    ids=["too-many", "unknown", "repeated", "missing", "missing-first", "missing-two"],
)
def test_constructor_refuses_bad_arguments(cls, args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        cls(*args, **kwargs)


def test_records_inherit_the_one_constructor():
    modules = [
        importlib.import_module(f"digitfix.{info.name}")
        for info in pkgutil.iter_modules(digitfix.__path__)
    ]
    records = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Record) and value is not Record
    }
    assert {case[0] for case in RECORDS} <= records
    assert [cls.__name__ for cls in records if "__init__" in vars(cls)] == []
