"""Trace one certify run in a fresh interpreter, as ``jwalk validate`` runs it.

Run as ``python tests/certify_peak.py N K MARKED`` with ``jwalk`` on the
path.  It imports jwalk and mpmath, starts tracemalloc, runs ``certify``
once and prints one JSON object: ``passed``, the traced ``peak`` in bytes,
the ``counted`` bytes of the memory check (8 words per counted word), the
arc count ``arcs``, and ``growth``: for each stage that reads the basis,
and for the marked step on the classes, the traced bytes it held above
what was held when it was called.  The run is the process's first, so the
peak includes whatever a first run allocates that a later one would find
in place.  mpmath is imported before tracing starts, as ``jwalk validate``
imports it before ``certify`` runs; ``certify`` called alone imports it in
its first function that works at 40 digits, and the ~3.6 MB that import
allocates would stand in the peak (3,817,276 B against 167,840 B counted
on J(10,3)).
"""

import json
import sys
import tracemalloc

import mpmath  # noqa: F401  (imported before tracing starts)

from jwalk import validation
from jwalk.johnson import graph_params

STAGES = ("verify_eigenbasis", "_marked_class_step", "verify_subspace_invariance",
          "verify_target_and_initial")


def measure(n: int, k: int, marked: int) -> dict:
    params = graph_params(n, k)
    growth = {}
    peaks = []

    def traced(name, original):
        def stage(*args):
            held, peak = tracemalloc.get_traced_memory()
            # the peak before the stage survives the reset
            peaks.append(peak)
            tracemalloc.reset_peak()
            out = original(*args)
            growth[name] = tracemalloc.get_traced_memory()[1] - held
            return out
        return stage

    for name in STAGES:
        setattr(validation, name, traced(name, getattr(validation, name)))
    tracemalloc.start()
    try:
        report = validation.certify(params, marked=marked)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return {"passed": report.passed, "peak": max(peaks),
            "counted": 8 * validation._battery_words(params),
            "arcs": params.num_arcs, "growth": growth}


if __name__ == "__main__":
    print(json.dumps(measure(*map(int, sys.argv[1:4]))))
