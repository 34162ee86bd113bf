"""Command-line front end.

Subcommands: spectrum, simulate, sweep, validate.  Exit codes: 0 success,
1 certification failure, always after the report is written, 2 usage or
domain error (including an instance beyond the spectral solver's
precision, a platform without an extended longdouble for the reduced
engine, and an output that cannot be written), 3 capacity refusal, 141
(128 + SIGPIPE, as a shell reports it) when the reader of stdout closed
the pipe before the output was all written, so a cut-off report never
reads as a success.
"""

import argparse
import gc
import math
import os
import sys
from typing import Optional

from . import arc_engine, reduced, reports, spectral, validation
from .errors import CapacityError, PrecisionError
from .johnson import graph_params, rank_vertex

# the ~21,900 objects the imports made are never garbage; leaving them out of
# every later collection, the exit's included, cut the exit of a `sweep --k 2`
# process from 26-28 ms to 6.5-7.5 ms (median of 9, one pinned CPU)
gc.freeze()

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_BROKEN_PIPE = 141


def _parse_marked(raw: Optional[str], n: int, k: int) -> tuple:
    if raw is None:
        return tuple(range(1, k + 1))
    try:
        elements = tuple(sorted(int(x) for x in raw.split(",")))
    except ValueError:
        raise ValueError(f"--marked must be a comma-separated element list, got {raw!r}")
    if len(elements) != k or len(set(elements)) != k:
        raise ValueError(f"--marked needs {k} distinct elements, got {raw!r}")
    if elements[0] < 1 or elements[-1] > n:
        raise ValueError(f"--marked elements must lie in [1, {n}], got {raw!r}")
    return elements


def _parse_n_list(raw: str) -> list:
    items = [x for x in raw.split(",") if x != ""]
    if not items:
        raise ValueError("--n-list must contain at least one value")
    try:
        values = sorted({int(x) for x in items})
    except ValueError:
        raise ValueError(f"--n-list must be comma-separated integers, got {raw!r}")
    return values


def _tolerance(raw: str) -> float:
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        # every check would fail a NaN or negative tolerance and pass an infinite one
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {raw!r}")
    return tol


def _load_mpmath() -> None:
    """Import mpmath for a command that works at 40 digits, and freeze it too.

    jwalk imports mpmath only in the functions that use it, so a full-engine
    simulate never loads it.  Loaded after the import-time freeze, its
    ~4,800 objects would stay in every later collection: a full collection
    after a `sweep --k 2` took 0.8-1.1 ms with them, against 0.03-0.04 ms
    with them frozen here (one pinned CPU).  Only the first import freezes,
    so main() freezes nothing once mpmath is loaded.
    """
    if "mpmath" not in sys.modules:
        import mpmath  # noqa: F401
        gc.freeze()


def cmd_spectrum(args) -> int:
    params = graph_params(args.n, args.k)
    _load_mpmath()
    table = spectral.spectral_table(params)
    schedule = spectral.run_time(params)
    to_text = reports.spectrum_to_csv if args.format == "csv" else reports.spectrum_to_json
    reports.write_output(to_text(params, table, schedule), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = graph_params(args.n, args.k)
    schedule = spectral.run_time(params)
    steps = 2 * schedule.t_run if args.steps is None else args.steps
    if steps < 0:
        raise ValueError("--steps must be >= 0")
    marked = _parse_marked(args.marked, args.n, args.k)

    if args.engine == "full":
        series = arc_engine.evolve_and_record(params, rank_vertex(params, marked), steps,
                                              stride=args.stride)
    else:
        _load_mpmath()
        series = reduced.evolve_series(params, steps, stride=args.stride)

    report = reports.RunReport(params=params, marked=marked, engine=args.engine,
                               t_run=schedule.t_run, stride=args.stride, series=series)
    to_chunks = reports.run_report_to_csv if args.format == "csv" else reports.run_report_to_json
    reports.write_output(to_chunks(report), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    n_values = _parse_n_list(args.n_list)
    instances = [graph_params(n, args.k) for n in n_values]  # reject before running
    _load_mpmath()
    rows = []
    for params in instances:
        schedule = spectral.run_time(params)
        p_run, t_opt, p_max = reduced.sweep_point(params, schedule.t_run)
        rows.append(reports.SweepRow(
            n=params.n, t_run=schedule.t_run, p_succ=p_run,
            deviation=abs(p_run - 0.5), t_opt=t_opt, p_max=p_max))
    to_text = reports.sweep_report_to_csv if args.format == "csv" else reports.sweep_report_to_json
    reports.write_output(to_text(reports.SweepReport(k=args.k, rows=rows)), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    params = graph_params(args.n, args.k)
    marked = _parse_marked(args.marked, args.n, args.k)
    _load_mpmath()
    report = validation.certify(params, marked=rank_vertex(params, marked),
                                tol=args.tol)
    reports.write_output(reports.certification_to_json(report), args.out)
    if not report.passed:
        failing = ", ".join(c.name for c in report.checks if not c.passed)
        print(f"certification failed: {failing}", file=sys.stderr)
        return EXIT_CERTIFICATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jwalk",
        description="Coined quantum-walk spatial search on Johnson graphs J(n,k).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p):
        p.add_argument("--n", type=int, required=True, help="ground-set size")
        p.add_argument("--k", type=int, required=True, help="subset size")

    def add_output(p, default_format):
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
        p.add_argument("--out", default=None, help="output file ('-' for stdout)")

    p = sub.add_parser("spectrum", help="closed-form spectral table and schedule")
    add_instance(p)
    add_output(p, "json")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", help="run the search walk and record the series")
    add_instance(p)
    p.add_argument("--engine", choices=("full", "reduced"), default="reduced")
    p.add_argument("--steps", type=int, default=None,
                   help="walk steps (default: 2*t_run)")
    p.add_argument("--stride", type=int, default=1, help="sampling stride")
    p.add_argument("--marked", default=None,
                   help="marked vertex as comma-separated elements (default 1..k); "
                        "ignored by the reduced engine")
    add_output(p, "csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="success probability at t_run across n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-list", required=True,
                   help="comma-separated ground-set sizes")
    add_output(p, "csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="certify the closed forms and both engines on one instance")
    add_instance(p)
    p.add_argument("--marked", default=None,
                   help="marked vertex as comma-separated elements (default 1..k)")
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    p.add_argument("--out", default=None, help="output file ('-' for stdout)")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        # a short output is still in stdout's buffer: flush it here, where a
        # closed pipe is caught, not in the interpreter's exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at /dev/null, so that the flush at
        # exit cannot raise again, and say nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, PrecisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
