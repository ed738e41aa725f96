"""digitfix: digit-defined fixed points with provable search ceilings.

Find every number equal to a digit-wise image of itself (factorials of
digits, powers of digits and digit blocks, digit counts and digit sums of a
function value, reversal multiples) with search ceilings derived so the
exhaustive scans are complete, and generate the infinite concatenated-square
and cube identity families with exact big-integer verification.

Start-up is the floor of every command, so importing the package must stay
cheap: nothing it imports may load ``inspect`` (records subclass
``_record.Record``, not the standard library's generated record classes),
and ``fractions``, ``decimal`` and ``importlib.resources`` are imported
inside the functions that need them (polynomial specs, numerals past 640
digits, the corpus).  ``tests/test_cli.py::test_import_loads_no_process_pool``
enforces this.
"""

from .bounds import (
    BoundReport,
    CutoffReport,
    PowerSumBound,
    dudeney_cutoff,
    hardy_bound,
    powersum_bound,
    wells_cutoff,
)
from .digitops import (
    digit_count,
    digit_sum,
    from_blocks,
    group_blocks,
    reverse_digits,
)
from .errors import ConfigurationError, UnsupportedFunctionError
from .families import (
    ConcatSquarePair,
    PiezasParams,
    piezas_generate,
    reflect_pair,
    verify_concat_square,
    vitalis_generate,
)
from .funcatalog import FunctionSpec, evaluate, factorial, fibonacci, parse_spec, subfactorial
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

__version__ = "0.1.0"

__all__ = [
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
