"""Certify and compute Castelnuovo-Mumford regularity bounds of binomial
edge ideals at desk scale: graph invariants, interval-family recognition
with certificates, witness generators, and an exact Groebner/homology
oracle."""

from .graphs import Graph
from .intervals import CLFamily, IntervalUnion
from .recognition import (CLCertificate, NotCLReason, NotWLReason,
                          WLDecomposition, recognize_cl, recognize_sig,
                          recognize_wl, validate_cl_certificate,
                          validate_wl_decomposition)
from .regularity import RegularityReport, bounds, oracle_reg, reg, structural_reg
from .witnesses import gen_lrc, gen_lrw, search_l2

__all__ = [
    "Graph",
    "IntervalUnion", "CLFamily",
    "CLCertificate", "NotCLReason", "WLDecomposition", "NotWLReason",
    "recognize_cl", "recognize_sig", "recognize_wl",
    "validate_cl_certificate", "validate_wl_decomposition",
    "RegularityReport", "bounds", "reg", "structural_reg", "oracle_reg",
    "gen_lrc", "gen_lrw", "search_l2",
]

__version__ = "0.1.0"
