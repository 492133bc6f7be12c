"""Certify and compute Castelnuovo-Mumford regularity bounds of binomial
edge ideals at desk scale: graph invariants, interval-family recognition
with certificates, witness generators, and an exact Groebner/homology
oracle.

`import beireg` loads only `graphs` and `regularity`, with the oracle's
`groebner` and `hochster`, so that a first oracle call pays no import.
The modules `intervals`, `recognition` and `witnesses`, and the names they
define, load on first use (PEP 562): a process that only asks for
invariants or a regularity report never compiles the recognizers and the
generators.
"""

import importlib

from . import graphs, regularity  # noqa: F401

# the public names by defining module, in the order of __all__
_EXPORTS = {
    "graphs": ("Graph",),
    "intervals": ("IntervalUnion", "CLFamily"),
    "recognition": ("CLCertificate", "NotCLReason", "WLDecomposition",
                    "NotWLReason", "recognize_cl", "recognize_sig",
                    "recognize_wl", "validate_cl_certificate",
                    "validate_wl_decomposition"),
    "regularity": ("RegularityReport", "bounds", "reg", "structural_reg",
                   "oracle_reg"),
    "witnesses": ("gen_lrc", "gen_lrw", "search_l2"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
