"""Regenerate the reference values that the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Runs the jwalk CLI of this checkout and writes ``perfbench/reference/*.json``.
The committed files were made at the commit that introduced the benchmark;
regenerate them only when a change of the numerical contract is intended.

- ``full-search.json``: the reduced-engine series of J(40,3) over 2*t_run
  steps, the cross-engine reference for the full engine.
- ``reduced-series.json``: every 100th row (and the last) of the J(4000,3)
  reduced series, with the row count.
- ``reduced-sweep.json``: the sweep rows, each with p(t) on a window of
  steps around its t_opt, so that any t_opt within 1e-10 of the peak can
  be accepted.
"""

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import SERIES_SAMPLE_STRIDE, SWEEP_K, SWEEP_N_LIST

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference"
PEAK_WINDOW = 8


def run_cli(args, out_dir):
    out = out_dir / "out.csv"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-m", "jwalk", *args, "--out", str(out)],
                   check=True, cwd=out_dir, env=env)
    with open(out, newline="") as handle:
        return list(csv.DictReader(handle))


def series(n, k, out_dir, steps=None):
    args = ["simulate", "--n", str(n), "--k", str(k), "--engine", "reduced"]
    if steps is not None:
        args += ["--steps", str(steps)]
    return [(int(r["t"]), float(r["p_succ"])) for r in run_cli(args, out_dir)]


def write(name, doc):
    with open(REFERENCE / name, "w") as handle:
        json.dump(doc, handle)
        handle.write("\n")


def main():
    tmp_parent = ROOT / ".perfbench-tmp"
    tmp_parent.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=tmp_parent))
    try:
        write("full-search.json", {
            "source": "jwalk simulate --n 40 --k 3 --engine reduced",
            "p_succ": [p for _, p in series(40, 3, out_dir)],
        })

        rows = series(4000, 3, out_dir)
        write("reduced-series.json", {
            "source": "jwalk simulate --n 4000 --k 3 --engine reduced",
            "rows": len(rows),
            "sample": [[t, p] for t, p in rows
                       if t % SERIES_SAMPLE_STRIDE == 0 or t == rows[-1][0]],
        })

        sweep_rows = run_cli(["sweep", "--k", str(SWEEP_K), "--n-list",
                              ",".join(map(str, SWEEP_N_LIST))], out_dir)
        reference = []
        for r in sweep_rows:
            t_opt = int(r["t_opt"])
            p_of_t = series(int(r["n"]), SWEEP_K, out_dir, steps=t_opt + PEAK_WINDOW)
            reference.append({
                "n": int(r["n"]), "t_run": int(r["t_run"]),
                "p_succ_at_t_run": float(r["p_succ_at_t_run"]),
                "abs_dev_from_half": float(r["abs_dev_from_half"]),
                "t_opt": t_opt, "p_max": float(r["p_max"]),
                "window": [[t, p] for t, p in p_of_t[max(0, t_opt - PEAK_WINDOW):]],
            })
        write("reduced-sweep.json", {
            "source": f"jwalk sweep --k {SWEEP_K} --n-list "
                      + ",".join(map(str, SWEEP_N_LIST)),
            "rows": reference,
        })
    finally:
        shutil.rmtree(out_dir)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it


if __name__ == "__main__":
    main()
