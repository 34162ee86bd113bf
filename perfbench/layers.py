"""Per-layer metrics of one traced jwalk process, from the spans probe.py wrote.

Span names are those of ``probe.TRACED``.

A span's self time is its duration minus the durations of its direct
children.  A layer that the workload does not run reports 0.  Times are
inclusive unless the name says ``self``.
"""

from collections import defaultdict
from typing import NamedTuple

STAGES = ("verify_spectral_closed_forms", "verify_dense_step", "verify_eigenbasis",
          "verify_subspace_invariance", "verify_target_and_initial",
          "verify_reduced_compression")
SERIALIZERS = ("run_report_to_csv", "sweep_report_to_csv", "certification_to_json")
SAMPLERS = ("vertex_probability", "alt_vertex_probability", "state_norm")
REDUCED_LOOPS = ("evolve", "find_peak", "evolve_series")
PROJECTOR = ("spectral.projector_weight", "spectral.projector_weight_exact")

# (metric, unit) in report order; trace.overhead_s is added by run.py
METRICS = [
    ("johnson.opposite_permutation_s", "s"),
    ("johnson.opposite_permutation_calls", "count"),
    ("johnson.ns_per_arc", "ns/arc"),
    ("arc_engine.oracle_s", "s"),
    ("arc_engine.coin_s", "s"),
    ("arc_engine.shift_s", "s"),
    ("arc_engine.sample_s", "s"),
    ("arc_engine.step_calls", "count"),
    ("arc_engine.ns_per_arc_step", "ns/arc"),
    ("arc_engine.step_alloc_bytes", "B"),
    ("reduced.build_s", "s"),
    ("reduced.evolve_s", "s"),
    ("reduced.find_peak_s", "s"),
    ("reduced.evolve_series_s", "s"),
    ("reduced.steps", "count"),
    ("reduced.ns_per_step", "ns/step"),
    ("reduced.redundant_step_frac", "frac"),
    ("spectral.run_time_s", "s"),
    ("spectral.projector_weight_s", "s"),
    ("spectral.calls", "count"),
    ("validation.build_invariant_basis_s", "s"),
    ("validation.build_invariant_basis_calls", "count"),
    ("validation.dense_step_s", "s"),
    ("validation.dense_step_from_engine_s", "s"),
    *[(f"validation.stage_s.{stage}", "s") for stage in STAGES],
    ("validation.peak_alloc_mb", "MiB"),
    ("reports.serialize_s", "s"),
    ("reports.write_s", "s"),
    ("reports.bytes_out", "B"),
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    work: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(record: dict) -> dict:
    spans = [Span(*s) for s in record["spans"]]
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(*names):
        return sum(s.duration for s in named(*names))

    def outermost(names):
        """Spans of ``names`` not called from another span of ``names``."""
        return [s for s in spans if s.name in names
                and (s.parent < 0 or spans[s.parent].name not in names)]

    def self_time(name):
        return sum(s.duration - child_time[i] for i, s in enumerate(spans) if s.name == name)

    def work_sum(key, *names):
        return sum((s.work or {}).get(key, 0) for s in named(*names))

    opp = "johnson.opposite_permutation"
    step = "arc_engine.step"
    loops = [f"reduced.{name}" for name in REDUCED_LOOPS]
    reduced_steps = work_sum("steps", *loops)
    # steps iterated beyond the furthest t reached on each instance are redundant
    furthest = defaultdict(int)
    for s in named(*loops):
        if s.work:
            key = tuple(s.work["walk"])
            furthest[key] = max(furthest[key], s.work["steps"])
    spectral_names = {s.name for s in spans if s.name.startswith("spectral.")}

    values = {
        "johnson.opposite_permutation_s": total(opp),
        "johnson.opposite_permutation_calls": len(named(opp)),
        "johnson.ns_per_arc": 1e9 * _ratio(total(opp), work_sum("arcs", opp)),
        "arc_engine.oracle_s": total("arc_engine.apply_oracle"),
        "arc_engine.coin_s": total("arc_engine.apply_coin"),
        "arc_engine.shift_s": total("arc_engine.apply_shift"),
        "arc_engine.sample_s": total(*[f"arc_engine.{name}" for name in SAMPLERS]),
        "arc_engine.step_calls": len(named(step)),
        "arc_engine.ns_per_arc_step": 1e9 * _ratio(total(step), work_sum("arcs", step)),
        "arc_engine.step_alloc_bytes": record.get("step_alloc_bytes") or 0,
        "reduced.build_s": total("reduced.build_reduced"),
        "reduced.evolve_s": total("reduced.evolve"),
        "reduced.find_peak_s": total("reduced.find_peak"),
        "reduced.evolve_series_s": total("reduced.evolve_series"),
        "reduced.steps": reduced_steps,
        "reduced.ns_per_step": 1e9 * _ratio(total(*loops), reduced_steps),
        "reduced.redundant_step_frac": 1.0 - _ratio(sum(furthest.values()), reduced_steps)
        if reduced_steps else 0.0,
        "spectral.run_time_s": total("spectral.run_time"),
        "spectral.projector_weight_s": sum(s.duration for s in outermost(PROJECTOR)),
        "spectral.calls": len(outermost(spectral_names)),
        "validation.build_invariant_basis_s": total("validation.build_invariant_basis"),
        "validation.build_invariant_basis_calls":
            len(named("validation.build_invariant_basis")),
        "validation.dense_step_s": total("validation.dense_step"),
        "validation.dense_step_from_engine_s": total("validation.dense_step_from_engine"),
        **{f"validation.stage_s.{stage}": self_time(f"validation.{stage}")
           for stage in STAGES},
        "validation.peak_alloc_mb": (record.get("certify_peak_bytes") or 0) / 2 ** 20,
        "reports.serialize_s": total(*[f"reports.{name}" for name in SERIALIZERS]),
        "reports.write_s": total("reports.write_output"),
        "reports.bytes_out": work_sum("bytes", "reports.write_output"),
        "cli.import_s": record["import_s"],
        "cli.self_s": self_time("cli.main"),
    }
    return {name: values[name] for name, _ in METRICS}
