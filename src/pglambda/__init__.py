"""Lambda numbers of power graphs of finite groups.

Build a finite group (from a built-in family or an ingested Cayley
table), form its power graph, and compute the minimum L(2,1)-labelling
span two independent ways: an exhaustive certificate-producing search,
and direct constructions for p-groups built on Hamiltonian paths of the
reduced power-graph complement.
"""

from . import catalog, construct, errors, groups, labelling, powergraph, suites
from .catalog import *  # noqa: F401,F403
from .construct import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .groups import *  # noqa: F401,F403
from .labelling import *  # noqa: F401,F403
from .powergraph import *  # noqa: F401,F403
from .suites import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each public name is declared once, in its own module's __all__.
__all__ = ["__version__"] + [
    name
    for module in (errors, groups, powergraph, labelling, construct, catalog, suites)
    for name in module.__all__
]
