"""Child process of the benchmark: runs one jwalk command in this interpreter.

    python3 perfbench/probe.py SRC RECORD MODE [-- JWALK_ARGS...]

SRC is the checkout's ``src`` directory, RECORD the JSON file this process
writes when it ends.  MODE is one of

- ``env``: import jwalk and record the numeric environment (no command);
- ``plain``: run the command with one hook that notes when set-up ends;
- ``trace``: run the command with spans around the public functions of
  every layer, for the per-layer metrics.

The command is ``jwalk.cli.main(JWALK_ARGS)``, what the ``jwalk`` entry
point calls, so the work is the same as a user's run; the exit code is the
command's.  Nothing under ``src`` is modified: functions are wrapped by
rebinding module attributes in this process only.
"""

import copy
import functools
import json
import os
import resource
import sys
import time
import tracemalloc
import types

# Modules whose first walk-phase call ends set-up.  Every public function
# defined in them counts as walk phase except these, which build the
# instance, the engine or the dense operators, or orchestrate the run.
SETUP_PHASE = {
    "jwalk.arc_engine": {"evolve_and_record", "uniform_state"},
    "jwalk.reduced": {"build_reduced", "target_coords"},
    "jwalk.validation": {"certify", "build_invariant_basis", "dense_step",
                         "lift_symmetric", "lift_antisymmetric"},
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _arcs(args, kwargs):
    return {"arcs": _arg(args, kwargs, 0, "params").num_arcs}


def _walk_steps(index, name):
    def work(args, kwargs):
        params = _arg(args, kwargs, 0, "walk").params
        return {"steps": int(_arg(args, kwargs, index, name)),
                "walk": [params.n, params.k]}
    return work


def _text_bytes(args, kwargs):
    return {"bytes": len(_arg(args, kwargs, 0, "text").encode())}


# Traced functions, "<module>.<attribute>" under jwalk, with the work each
# span records from its call's arguments.
TRACED = {
    "cli.main": None,
    "johnson.opposite_permutation": _arcs,
    "spectral.run_time": None,
    "spectral.spectral_table": None,
    "spectral.eigenvalue": None,
    "spectral.eigenphase": None,
    "spectral.multiplicity": None,
    "spectral.projector_weight": None,
    "spectral.projector_weight_exact": None,
    "arc_engine.evolve_and_record": None,
    "arc_engine.step": _arcs,
    "arc_engine.apply_oracle": None,
    "arc_engine.apply_coin": None,
    "arc_engine.apply_shift": None,
    "arc_engine.vertex_probability": None,
    "arc_engine.alt_vertex_probability": None,
    "arc_engine.state_norm": None,
    "reduced.build_reduced": None,
    "reduced.evolve": _walk_steps(2, "t"),
    "reduced.find_peak": _walk_steps(1, "t_max"),
    "reduced.evolve_series": _walk_steps(1, "steps"),
    "validation.certify": None,
    "validation.build_invariant_basis": None,
    "validation.dense_step": None,
    "validation.dense_step_from_engine": None,
    "validation.verify_spectral_closed_forms": None,
    "validation.verify_dense_step": None,
    "validation.verify_eigenbasis": None,
    "validation.verify_subspace_invariance": None,
    "validation.verify_target_and_initial": None,
    "validation.verify_reduced_compression": None,
    "reports.run_report_to_csv": None,
    "reports.sweep_report_to_csv": None,
    "reports.certification_to_json": None,
    "reports.write_output": _text_bytes,
}
STEP_SPAN = "arc_engine.step"
PEAK_SPAN = "validation.certify"
PROBE_SPAN = "trace.alloc_probe"


def _rebind(fn, replacement):
    """Point every jwalk module attribute bound to ``fn`` at ``replacement``.

    A function imported under several names (``johnson.opposite_permutation``
    is also ``arc_engine.opposite_permutation``) is replaced under each.
    Returns the bindings, for undoing.
    """
    bindings = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("jwalk"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, replacement)
                bindings.append((module, attr))
    return bindings


class SetupMarker:
    """Notes the first call into the walk or verification phase, then unhooks."""

    def __init__(self):
        self.at = None
        self._undo = []

    def install(self):
        for module_name, setup in SETUP_PHASE.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for name, fn in list(vars(module).items()):
                if (isinstance(fn, types.FunctionType) and fn.__module__ == module_name
                        and not name.startswith("_") and name not in setup):
                    self._undo += [(m, a, fn) for m, a in _rebind(fn, self._hook(fn))]

    def _hook(self, fn):
        @functools.wraps(fn)
        def hook(*args, **kwargs):
            if self.at is None:
                self.at = time.monotonic()
                for module, attr, original in self._undo:
                    setattr(module, attr, original)
            return fn(*args, **kwargs)
        return hook


class Tracer:
    """Spans (name, start, end, parent index, work) kept in memory."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.step_alloc_bytes = None
        self.certify_peak_bytes = None
        self._stack = []
        self._paused = False

    def install(self):
        for qualname, work in TRACED.items():
            module_name, attr = qualname.split(".")
            fn = getattr(sys.modules.get("jwalk." + module_name), attr, None)
            if callable(fn):
                _rebind(fn, self._wrap(qualname, fn, work))
            else:
                self.missing.append(qualname)

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == PEAK_SPAN:
                return self._with_peak(lambda: self._span(name, fn, args, kwargs, work))
            result = self._span(name, fn, args, kwargs, work)
            if name == STEP_SPAN and self.step_alloc_bytes is None:
                self._span(PROBE_SPAN, self._probe_alloc, (fn, args, kwargs), {}, None)
            return result
        return traced

    def _span(self, name, fn, args, kwargs, work):
        if self._paused:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = [name, start, end, parent, _work(work, args, kwargs)]

    def _with_peak(self, call):
        """Growth of the process's peak RSS over ``call``, kept as certify_peak_bytes.

        Read from ``ru_maxrss`` rather than tracemalloc, which would slow
        every allocation inside the stages being timed.
        """
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            return call()
        finally:
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.certify_peak_bytes = 1024 * (after - before)

    def _probe_alloc(self, fn, args, kwargs):
        """Peak bytes tracemalloc sees in one extra, untraced call of ``fn``.

        The call gets copies of the arguments, so a ``fn`` that updates its
        input in place leaves the run's own state untouched.
        """
        args, kwargs = copy.deepcopy((args, kwargs))
        self._paused = True
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            self.step_alloc_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            self._paused = False


def _work(work, args, kwargs):
    if work is None:
        return None
    try:
        return work(args, kwargs)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return None  # signature changed: the span stays, its work count is lost


def _environment():
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "longdouble_precision": int(np.finfo(np.longdouble).precision),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main(argv):
    src, record_path, mode = argv[:3]
    jwalk_args = argv[4:] if argv[3:4] == ["--"] else argv[3:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import jwalk.cli
    record = {"mode": mode, "import_s": time.perf_counter() - start}
    package_dir = os.path.dirname(os.path.realpath(jwalk.__file__))
    if os.path.dirname(package_dir) != os.path.realpath(src):
        print(f"probe: imported jwalk from {package_dir}, not from {src}", file=sys.stderr)
        return 90

    marker = tracer = None
    if mode == "env":
        record["environment"] = _environment()
    elif mode == "plain":
        marker = SetupMarker()
        marker.install()
    elif mode == "trace":
        tracer = Tracer()
        tracer.install()
    else:
        print(f"probe: unknown mode {mode!r}", file=sys.stderr)
        return 2

    code = 0
    try:
        if mode != "env":
            code = jwalk.cli.main(jwalk_args)
    finally:
        if marker is not None:
            record["setup_end"] = marker.at
        if tracer is not None:
            record.update(spans=tracer.spans, missing=tracer.missing,
                          step_alloc_bytes=tracer.step_alloc_bytes,
                          certify_peak_bytes=tracer.certify_peak_bytes)
        with open(record_path, "w") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
