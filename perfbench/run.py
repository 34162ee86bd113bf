"""Benchmark of the jwalk command line on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Runs the workload's jwalk command in fresh processes, one at a time, for
about S seconds and at least MIN_ROUNDS times, from the ``src`` directory
of the checkout this file sits in.  Outputs go to a temporary directory
inside the checkout, which is removed at the end.  Every output is checked
against the committed references (workloads.py), and all outputs of a run
must be byte-identical.

With ``--trace 0`` the result holds the end-to-end metrics, each the median
over the run's processes:

- ``wall_s``: process start to exit, the time to a solution;
- ``setup_s``: process start to the first walk-step or verification call
  (interpreter start, ``import jwalk``, instance, schedule, engine build);
- ``peak_rss_mb``: the process's peak resident set, from ``wait4``.

The two times are in reference seconds.  A shared host runs the same code
up to 1.7 times slower or faster from one second to the next, so a run pins
itself and its processes to one CPU (one BLAS thread) and runs calibrate.py
beside them on it at the lowest priority.  Each process's times are scaled
by its own factor: CALIBRATION_REF_S over the CPU seconds per chunk the
loop took while the process ran.  The loop does not touch jwalk, so a jwalk
that does less work still reads faster by the same share; it takes about
1.5% of the CPU from each process.  The measured times and the factors stay
in the process lines and records.

With ``--trace 1`` each round runs the command once untraced and once with
spans around every layer's public functions (probe.py); the result holds
the per-layer metrics (layers.py), medians over the traced processes, and
``trace.overhead_s``, the traced minus the untraced median wall time.

A run that exits non-zero or fails its check counts in ``failed``; the
failed fraction is ``failed / attempted``.  Lines before the last describe
the environment and every process; the last line is the result JSON.
``--out FILE`` also appends the whole record to FILE as one JSON line,
for compare.py.
"""

import argparse
import hashlib
import json
import mmap
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import COUNTER
from layers import METRICS, per_layer
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"
TMP_PARENT = ROOT / ".perfbench-tmp"

MIN_ROUNDS = 3            # a median of three, and two outputs to compare bytes
MIN_TRACE_ROUNDS = 1
PROCESS_TIMEOUT_S = 100   # a hung process is killed and counts as failed
LAST_START_S = 120        # no new round after this, so a run ends within 180 s
CALIBRATION_REF_S = 1e-4  # CPU s per calibrate.CHUNK: 100 ns per loop iteration
CALIBRATION_START_S = 30  # calibrate.py must report within this


@dataclass
class Process:
    mode: str
    code: int
    wall_s: float
    setup_s: float          # equals wall_s when the set-up marker never fired
    peak_rss_mb: float
    record: dict
    output: Path
    stderr: Path
    error: str = ""
    scale: float = 1.0      # host-speed factor of the times, see Calibrator


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    threads = str(blas_threads())
    return {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads}


def launch(mode: str, jwalk_args: list, tmp: Path, index: int) -> Process:
    record_path = tmp / f"record-{index}.json"
    output = tmp / f"output-{index}"
    stderr = tmp / f"stderr-{index}"
    cmd = [sys.executable, str(PROBE), str(SRC), str(record_path), mode, "--", *jwalk_args]
    if jwalk_args:
        cmd += ["--out", str(output)]
    with open(stderr, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=tmp,
                                env=child_env())
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = {}
    setup_end = record.get("setup_end")
    return Process(mode=mode, code=proc.returncode, wall_s=end - start,
                   setup_s=(setup_end - start) if setup_end else end - start,
                   peak_rss_mb=usage.ru_maxrss / 1024, record=record,
                   output=output, stderr=stderr)


class Calibrator:
    """calibrate.py on ``cpu``, and the host-speed factor it gives a process."""

    def __init__(self, cpu: int, tmp: Path):
        path = tmp / "calibration-counter"
        path.write_bytes(bytes(COUNTER.size))
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py"),
                                      str(path), str(cpu), str(os.getpid())])
        with open(path, "rb") as handle:
            self.counter = mmap.mmap(handle.fileno(), COUNTER.size, access=mmap.ACCESS_READ)
        deadline = time.monotonic() + CALIBRATION_START_S
        while self.read()[0] == 0:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise SystemExit("run.py: calibrate.py did not start")
            time.sleep(0.01)

    def read(self) -> tuple:
        """(chunks done, CPU seconds), read until two reads agree."""
        while True:
            first = self.counter[:]
            if self.counter[:] == first:
                return COUNTER.unpack(first)

    def scale(self, before: tuple, after: tuple) -> float:
        chunks, cpu_s = after[0] - before[0], after[1] - before[1]
        return CALIBRATION_REF_S * chunks / cpu_s if chunks else 1.0

    def stop(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.counter.close()


def measure(jwalk_args: list, seconds: float, trace: bool, calibrator: Calibrator,
            tmp: Path) -> list:
    """Rounds of processes for about ``seconds``, at least ``min_rounds`` of them.

    Each process gets the host-speed factor of its lifetime.
    """
    modes = ["plain", "trace"] if trace else ["plain"]
    min_rounds = MIN_TRACE_ROUNDS if trace else MIN_ROUNDS
    start = time.monotonic()
    processes, round_s = [], []
    while True:
        round_start = time.monotonic()
        for mode in modes:
            before = calibrator.read()
            process = launch(mode, jwalk_args, tmp, len(processes))
            process.scale = calibrator.scale(before, calibrator.read())
            processes.append(process)
        round_s.append(time.monotonic() - round_start)
        elapsed = time.monotonic() - start
        # stop on a failure, near the time limit, or when the next round would more
        # likely end after the deadline than before
        if (any(p.code != 0 for p in processes) or elapsed + round_s[-1] > LAST_START_S
                or (len(round_s) >= min_rounds
                    and elapsed + statistics.median(round_s) / 2 > seconds)):
            return processes


def check_outputs(workload, processes: list) -> None:
    """Set each process's error: its exit code, its check, or differing bytes."""
    verdicts, first = {}, None
    for p in processes:
        if p.code != 0:
            p.error = f"exit code {p.code}"
            continue
        digest = hashlib.sha256(p.output.read_bytes()).hexdigest()
        if digest not in verdicts:
            try:
                workload.check(p.output)
                verdicts[digest] = ""
            except (CheckFailed, KeyError, ValueError, IndexError, TypeError) as exc:
                verdicts[digest] = f"check failed: {type(exc).__name__}: {exc}"
        first = first or digest
        p.error = verdicts[digest] or (
            "" if digest == first else "output bytes differ from the first run's")


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(tmp: Path) -> dict:
    """Versions and precision seen by a jwalk process; also warms the caches."""
    probe = launch("env", [], tmp, -1)
    if probe.code != 0 or "environment" not in probe.record:
        sys.stderr.write(probe.stderr.read_text())
        raise SystemExit(f"run.py: importing jwalk from {SRC} failed")
    return {
        "python": sys.version.split()[0],
        **probe.record["environment"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def metrics(processes: list, trace: bool) -> dict:
    def passed(mode):
        members = [p for p in processes if p.mode == mode]
        return [p for p in members if not p.error] or members

    plain = passed("plain")
    if not trace:
        return {"wall_s": {"value": statistics.median(p.wall_s * p.scale for p in plain),
                           "unit": "s"},
                "setup_s": {"value": statistics.median(p.setup_s * p.scale for p in plain),
                            "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(p.peak_rss_mb for p in plain),
                                "unit": "MiB"}}
    traced = [p for p in passed("trace") if "spans" in p.record]
    layers = [per_layer(p.record) for p in traced]
    out = {name: {"value": statistics.median(m[name] for m in layers) if layers else 0.0,
                  "unit": unit}
           for name, unit in METRICS}
    overhead = (statistics.median(p.wall_s for p in traced)
                - statistics.median(p.wall_s for p in plain)) if traced else 0.0
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the full record here")
    args = parser.parse_args(argv)

    if not (SRC / "jwalk" / "cli.py").is_file():
        print(f"run.py: no jwalk sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    jwalk_args = workload.argv(args.seed)

    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        env = environment(tmp)
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})   # inherited by every process started below
        env.update(pinned_cpu=cpu, blas_threads=blas_threads())
        calibrator = Calibrator(cpu, tmp)
        try:
            processes = measure(jwalk_args, args.seconds, bool(args.trace), calibrator, tmp)
        finally:
            calibrator.stop()
        check_outputs(workload, processes)
        for p in processes:
            if p.error and p.stderr.stat().st_size:
                sys.stderr.write(p.stderr.read_text()[-4000:])
    finally:
        shutil.rmtree(tmp)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = sum(1 for p in processes if p.error)
    missing = sorted({name for p in processes for name in p.record.get("missing", [])})
    result = {"correct": failed == 0, "attempted": len(processes), "failed": failed,
              "metrics": metrics(processes, bool(args.trace))}

    print(f"environment {json.dumps(env)}")
    print(f"command jwalk {' '.join(jwalk_args)}")
    for i, p in enumerate(processes):
        setup = ""
        if p.mode == "plain":
            marker = "" if p.record.get("setup_end") else " (no set-up marker: wall time)"
            setup = f" setup_s={p.setup_s:.4f}{marker}"
        print(f"process {i} {p.mode}, measured: wall_s={p.wall_s:.4f}{setup} "
              f"peak_rss_mb={p.peak_rss_mb:.1f} scale={p.scale:.4f} {p.error or 'ok'}")
    if missing:
        print(f"missing spans, their metrics read 0: {', '.join(missing)}")
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "command": jwalk_args, "environment": env,
                "processes": [{"mode": p.mode, "wall_s": p.wall_s, "setup_s": p.setup_s,
                               "peak_rss_mb": p.peak_rss_mb, "scale": p.scale,
                               "error": p.error}
                              for p in processes],
                "missing_spans": missing, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
