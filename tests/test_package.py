"""The package surface: each public name is declared once, in the ``__all__``
of the module that defines it, and ``digitfix`` re-exports those lists."""

import os
import subprocess
import sys

import digitfix

# frozen from the package as it stood when its own __init__ listed every name
PACKAGE_ALL = [
    "BoundReport",
    "ConcatSquarePair",
    "ConfigurationError",
    "CutoffReport",
    "FunctionSpec",
    "PiezasParams",
    "PowerSumBound",
    "SearchConfig",
    "SearchHit",
    "UnsupportedFunctionError",
    "armstrong_order_ceiling",
    "digit_count",
    "digit_sum",
    "dudeney_cutoff",
    "evaluate",
    "factorial",
    "fibonacci",
    "from_blocks",
    "group_blocks",
    "hardy_bound",
    "parse_spec",
    "piezas_generate",
    "powersum_bound",
    "reflect_pair",
    "reverse_digits",
    "search_armstrong",
    "search_dudeney",
    "search_hardy",
    "search_powersum",
    "search_reversal",
    "search_wells",
    "search_wells_reverse",
    "subfactorial",
    "verify_concat_square",
    "vitalis_generate",
    "wells_cutoff",
]
MODULES = ["bounds", "digitops", "errors", "families", "funcatalog", "search"]
PACKAGE_DIR = sorted(PACKAGE_ALL + MODULES)


def test_all_is_frozen():
    assert digitfix.__all__ == PACKAGE_ALL


def test_public_dir_is_frozen():
    # in a fresh interpreter: importing digitfix.cli or digitfix.corpus, as
    # other tests do, binds those submodules on the package too
    src = os.path.dirname(os.path.dirname(digitfix.__file__))
    probe = "import digitfix; print([n for n in dir(digitfix) if not n.startswith('_')])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == f"{PACKAGE_DIR}\n"


def test_each_module_lists_only_its_own_objects():
    for name in MODULES:
        module = getattr(digitfix, name)
        for attr in module.__all__:
            assert getattr(module, attr).__module__ == module.__name__, (name, attr)
            assert getattr(digitfix, attr) is getattr(module, attr)


def test_the_lists_are_disjoint_and_make_up_the_package_list():
    names = [attr for name in MODULES for attr in getattr(digitfix, name).__all__]
    assert len(names) == len(set(names))
    assert sorted(names) == digitfix.__all__
