"""Lambda numbers of power graphs of finite groups.

Build a finite group (from a built-in family or an ingested Cayley
table), form its power graph, and compute the minimum L(2,1)-labelling
span two independent ways: an exhaustive certificate-producing search,
and direct constructions for p-groups built on Hamiltonian paths of the
reduced power-graph complement.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name is declared once, in its own module's __all__.  The
# package re-exports them on first use (PEP 562), in dependency order, so
# importing one module, the command line say, loads only what it imports.
_MODULES = ("errors", "groups", "powergraph", "labelling", "construct", "suites")


def __getattr__(name: str):
    if name in _MODULES or name in ("cli", "_search"):  # a submodule loads alone
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = ["__version__"] + [
            public for short in _MODULES for public in __getattr__(short).__all__]
    else:
        for short in _MODULES:
            module = __getattr__(short)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
