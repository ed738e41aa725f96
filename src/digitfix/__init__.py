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

Each public name is declared once, in the ``__all__`` of the module that
defines it; the package re-exports the six lists and sorts them into its
own ``__all__``.  Names only the modules share (``search.run_search``,
``families.elide_numeral`` and the like) are imported from their modules.
"""

from .bounds import *
from .digitops import *
from .errors import *
from .families import *
from .funcatalog import *
from .search import *

__version__ = "0.1.0"

__all__ = sorted(
    bounds.__all__ + digitops.__all__ + errors.__all__
    + families.__all__ + funcatalog.__all__ + search.__all__
)
