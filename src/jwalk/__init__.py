"""Coined quantum-walk spatial search on Johnson graphs J(n, k).

Two interchangeable engines compute the same search walk: an exact
matrix-free engine over the full arc space, and an exact engine that reads
the walk from the spectrum of its (2k+1)-dimensional invariant subspace,
at a cost independent of n.  Brute-force oracles certify the closed forms
and both engines on any instance that fits in memory.
"""

from .arc_engine import evolve_and_record, uniform_state
from .errors import CapacityError, DegenerateInstanceError, PrecisionError
from .johnson import (GraphParams, IntersectionRow, graph_params, intersection_numbers,
                      rank_vertex, shell_size, unrank_vertex)
from .reduced import evolve_series, sweep_point
from .spectral import (Schedule, SpectralRow, eigenphase, eigenvalue, multiplicity,
                       projector_weight, run_time, spectral_table)
from .validation import certify

__version__ = "0.1.0"

__all__ = [
    "GraphParams", "IntersectionRow", "graph_params", "rank_vertex",
    "unrank_vertex", "shell_size", "intersection_numbers",
    "Schedule", "SpectralRow", "eigenvalue", "multiplicity", "projector_weight",
    "eigenphase", "spectral_table", "run_time",
    "uniform_state", "evolve_and_record",
    "evolve_series", "sweep_point",
    "certify",
    "CapacityError", "DegenerateInstanceError", "PrecisionError",
    "__version__",
]
