"""The benchmark's workloads: jwalk CLI arguments and the check of each output.

Cost-setting inputs (n, k, steps) are fixed; the seed only picks the marked
vertex, which the reduced engine ignores.  A check raises CheckFailed.
"""

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference"

# README contracts: cross-engine agreement, and norm conservation
P_TOL = 1e-10
NORM_TOL = 1e-12

FULL_N, FULL_K = 40, 3
SERIES_N, SERIES_K = 4000, 3
SERIES_SAMPLE_STRIDE = 100
SWEEP_K, SWEEP_N_LIST = 2, (100, 10_000, 1_000_000)
VALIDATE_N, VALIDATE_K = 10, 3


class CheckFailed(Exception):
    """The output of a jwalk run is not what the reference says."""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list]       # seed -> jwalk arguments, without --out
    check: Callable[[Path], None]     # output file -> None, or CheckFailed


def marked_vertex(seed: int, n: int, k: int) -> str:
    return ",".join(map(str, sorted(random.Random(seed).sample(range(1, n + 1), k))))


def _reference(name: str) -> dict:
    with open(REFERENCE / f"{name}.json") as handle:
        return json.load(handle)


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _close(what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{what}: {got!r} differs from {want!r} by more than {tol}")


def _series_rows(path: Path, count: int) -> list:
    """(t, p_succ) of a simulate CSV, after checking t and the norm of every row."""
    rows = _csv_rows(path)
    if len(rows) != count:
        raise CheckFailed(f"{len(rows)} rows, expected {count}")
    out = []
    for i, row in enumerate(rows):
        if int(row["t"]) != i:
            raise CheckFailed(f"row {i} has t = {row['t']}")
        _close(f"norm at t={i}", float(row["norm"]), 1.0, NORM_TOL)
        out.append((i, float(row["p_succ"])))
    return out


def check_full_search(path: Path) -> None:
    reference = _reference("full-search")["p_succ"]
    for t, p in _series_rows(path, len(reference)):
        _close(f"p_succ at t={t} against the reduced engine", p, reference[t], P_TOL)


def check_reduced_series(path: Path) -> None:
    reference = _reference("reduced-series")
    rows = _series_rows(path, reference["rows"])
    for t, p in reference["sample"]:
        _close(f"p_succ at t={t}", rows[t][1], p, P_TOL)


def check_reduced_sweep(path: Path) -> None:
    reference = _reference("reduced-sweep")["rows"]
    rows = _csv_rows(path)
    if len(rows) != len(reference):
        raise CheckFailed(f"{len(rows)} sweep rows, expected {len(reference)}")
    for row, ref in zip(rows, reference):
        n = ref["n"]
        if (int(row["n"]), int(row["t_run"])) != (n, ref["t_run"]):
            raise CheckFailed(f"row (n, t_run) = ({row['n']}, {row['t_run']}), "
                              f"expected ({n}, {ref['t_run']})")
        _close(f"n={n} p_succ_at_t_run", float(row["p_succ_at_t_run"]),
               ref["p_succ_at_t_run"], P_TOL)
        _close(f"n={n} abs_dev_from_half", float(row["abs_dev_from_half"]),
               ref["abs_dev_from_half"], P_TOL)
        _close(f"n={n} p_max", float(row["p_max"]), ref["p_max"], P_TOL)
        # any step whose probability is within tolerance of the peak is a peak
        window = dict(ref["window"])
        t_opt = int(row["t_opt"])
        if t_opt not in window:
            raise CheckFailed(f"n={n} t_opt {t_opt} outside the reference window "
                              f"[{min(window)}, {max(window)}]")
        _close(f"n={n} p(t_opt={t_opt}) against p_max", window[t_opt], ref["p_max"], P_TOL)


def check_validate(path: Path) -> None:
    with open(path) as handle:
        report = json.load(handle)
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    if report["passed"] is not True or failing:
        raise CheckFailed(f"certification did not pass: {failing}")


WORKLOADS = {w.name: w for w in [
    Workload(
        "full-search",
        lambda seed: ["simulate", "--n", str(FULL_N), "--k", str(FULL_K),
                      "--engine", "full",
                      "--marked", marked_vertex(seed, FULL_N, FULL_K)],
        check_full_search),
    Workload(
        "reduced-sweep",
        lambda seed: ["sweep", "--k", str(SWEEP_K),
                      "--n-list", ",".join(map(str, SWEEP_N_LIST))],
        check_reduced_sweep),
    Workload(
        "reduced-series",
        lambda seed: ["simulate", "--n", str(SERIES_N), "--k", str(SERIES_K),
                      "--engine", "reduced"],
        check_reduced_series),
    Workload(
        "validate",
        lambda seed: ["validate", "--n", str(VALIDATE_N), "--k", str(VALIDATE_K),
                      "--marked", marked_vertex(seed, VALIDATE_N, VALIDATE_K)],
        check_validate),
]}
