"""Command-line behavior: outputs, exit codes, determinism."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import jwalk
from jwalk import arc_engine, cli, reduced, validation
from jwalk.johnson import graph_params
from run_csv import read_run_rows


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh(code):
    """What ``code`` prints in a fresh interpreter with this jwalk on the path."""
    path = [str(Path(jwalk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


def test_import_freezes_the_heap():
    # in a fresh interpreter the import-time heap leaves every later collection
    assert int(_fresh("import gc, jwalk.cli; print(gc.get_freeze_count())")) > 0


def test_import_loads_every_layer_but_not_mpmath():
    # perfbench's set-up marker hooks only the jwalk modules that importing
    # jwalk.cli has loaded, so reduced and validation must be among them, or
    # the set-up time of sweep, simulate and validate would read as their
    # whole time; only the mpmath import is deferred, to the functions that
    # work at 40 digits
    code = ("import sys, jwalk.cli; "
            "print(*[m for m in ('jwalk.reduced', 'jwalk.validation', 'mpmath') "
            "if m in sys.modules])")
    assert _fresh(code).split() == ["jwalk.reduced", "jwalk.validation"]


def test_full_engine_simulate_does_not_import_mpmath(tmp_path):
    # the schedule is exact in integers, so a full-engine run needs no mpmath;
    # spectrum, which reports the 40-digit phases, loads it
    out = tmp_path / "full.csv"
    code = ("import os, sys, jwalk.cli; "
            "code = jwalk.cli.main(['simulate', '--n', '20', '--k', '3', '--engine', 'full', "
            f"'--out', {str(out)!r}]); "
            "print(code, 'mpmath' in sys.modules); "
            "jwalk.cli.main(['spectrum', '--n', '20', '--k', '3', '--out', os.devnull]); "
            "print('mpmath' in sys.modules)")
    assert _fresh(code).split() == ["0", "False", "True"]
    assert out.read_text().startswith("t,p_succ,p_alt,norm")


def test_first_mpmath_import_is_frozen():
    # mpmath loads after the import-time freeze, so the first command that
    # needs it freezes again; a full-engine run needs none, and a second
    # command finds it loaded and freezes nothing
    code = """
import gc, os, jwalk.cli
def frozen_after(*argv):
    assert jwalk.cli.main([*argv, '--out', os.devnull]) == 0
    return gc.get_freeze_count()
print(gc.get_freeze_count(),
      frozen_after('simulate', '--n', '8', '--k', '2', '--engine', 'full'),
      frozen_after('sweep', '--k', '2', '--n-list', '100'),
      frozen_after('validate', '--n', '6', '--k', '2'))
"""
    imported, full, sweep, validate = map(int, _fresh(code).split())
    assert full == imported and sweep - full > 4000 and validate == sweep


def test_main_leaves_the_frozen_heap_alone(capsys):
    # the freeze is the import's, once per process: main() freezes nothing of
    # its own (a first call may still untrack a few frozen tuples)
    argv = ("sweep", "--k", "2", "--n-list", "100")
    assert run_cli(capsys, *argv)[0] == 0
    before = gc.get_freeze_count()
    for _ in range(2):
        assert run_cli(capsys, *argv)[0] == 0
    assert gc.get_freeze_count() == before


def test_spectrum_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "6", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert [lv["eigenvalue"] for lv in doc["levels"]] == [8, 2, -2]
    assert [lv["multiplicity"] for lv in doc["levels"]] == [1, 5, 9]
    assert doc["schedule"]["t_run"] == 4  # floor(6*pi/4)


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "4", "--k", "2",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("level,eigenvalue,multiplicity")
    assert len(lines) == 4


def test_spectrum_degenerate_instance(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--n", "2", "--k", "1")
    assert code == 2
    assert "degenerate instance" in err


def test_sweep_beyond_working_precision(capsys):
    # J(10^12, 4): a secular root sits closer to its pole than 40 digits resolve
    code, _, err = run_cli(capsys, "sweep", "--k", "4", "--n-list", "1000000000000")
    assert code == 2
    assert "closer to a pole" in err


def test_spectrum_requires_n_at_least_2k(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--n", "5", "--k", "3")
    assert code == 2
    assert "requires n >= 2k" in err


def test_simulate_reduced_row_count_and_start(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "100", "--k", "2",
                           "--engine", "reduced", "--steps", "160")
    assert code == 0
    rows = read_run_rows(out)
    assert len(rows.t) == 161
    assert rows.t[0] == 0
    assert rows.p_succ[0] == pytest.approx(1.0 / 4950.0, rel=1e-12)
    assert rows.p_alt is None


def test_simulate_cross_engine_agreement(capsys):
    _, out_full, _ = run_cli(capsys, "simulate", "--n", "8", "--k", "2",
                             "--engine", "full", "--steps", "50")
    _, out_reduced, _ = run_cli(capsys, "simulate", "--n", "8", "--k", "2",
                                "--engine", "reduced", "--steps", "50")
    full = read_run_rows(out_full)
    small = read_run_rows(out_reduced)
    assert len(full.t) == len(small.t) == 51
    assert np.abs(full.p_succ - small.p_succ).max() <= 1e-10
    assert full.p_alt is not None


def test_simulate_capacity_exceeded(capsys, monkeypatch):
    # J(40,4), 13,160,160 amplitudes in about 126 MB, runs where memory
    # reads enough, and is refused where it reads too little or not at all
    argv = ("simulate", "--n", "40", "--k", "4", "--engine", "full", "--steps", "0")
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: 2 ** 30)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(read_run_rows(out).t) == 1
    for available in (2 ** 20, None):
        monkeypatch.setattr(arc_engine, "_mem_available", lambda: available)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert "reduced engine" in err


def test_simulate_force_capacity_flag(capsys):
    # the flag is gone: available memory alone sets the full engine's reach
    code, out, err = run_cli(capsys, "simulate", "--n", "8", "--k", "2",
                             "--engine", "full", "--steps", "3", "--force-capacity")
    assert code == 2 and out == ""
    assert "--force-capacity" in err


def test_simulate_checks_available_memory(capsys, monkeypatch):
    # J(12,3) holds 84,480 bytes of walk: one byte less is refused, and
    # 85,536 bytes hold it over 2,640 steps, since the series is written a
    # chunk at a time and not counted
    for available, steps in ((1024, "3"), (84479, "2640")):
        monkeypatch.setattr(arc_engine, "_mem_available", lambda: available)
        code, out, err = run_cli(capsys, "simulate", "--n", "12", "--k", "3",
                                 "--engine", "full", "--steps", steps)
        assert code == 3 and out == ""
        assert "available memory" in err and "reduced engine" in err
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: 85536)
    code, out, _ = run_cli(capsys, "simulate", "--n", "12", "--k", "3",
                           "--engine", "full", "--steps", "2640")
    assert code == 0
    assert read_run_rows(out).t.tolist() == list(range(2641))
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "simulate", "--n", "12", "--k", "3",
                           "--engine", "full", "--steps", "3")
    assert code == 0
    assert len(read_run_rows(out).t) == 4


def test_simulate_default_steps_is_twice_t_run(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "100", "--k", "2")
    assert code == 0
    assert len(read_run_rows(out).t) == 2 * 78 + 1


def test_simulate_reduced_norm_column(capsys):
    # the eigen-expansion norm, rounded to double, on every row
    code, out, _ = run_cli(capsys, "simulate", "--n", "100", "--k", "2",
                           "--steps", "20", "--stride", "3")
    assert code == 0
    spec = reduced.spectrum(graph_params(100, 2))
    norm = read_run_rows(out).norm
    assert len(norm) == 8 and np.all(norm == float(spec.norm))


@pytest.mark.parametrize("engine", ["reduced", "full"])
def test_simulate_refuses_series_beyond_the_chunk_cap(capsys, monkeypatch, engine):
    # 10^13 rows are 2,441,406,251 chunks, above the 2^20 a series may have:
    # refused before any evaluation and before any output byte (exit 3)

    def no_evaluation(*args):
        raise AssertionError("evaluated before the chunk check")

    monkeypatch.setattr(reduced, "spectrum", no_evaluation)
    monkeypatch.setattr(arc_engine, "pair_vertex_table", no_evaluation)
    code, out, err = run_cli(capsys, "simulate", "--n", "8", "--k", "2", "--engine", engine,
                             "--steps", str(10 ** 13), "--out", "-")
    assert code == 3 and out == ""
    assert "needs 2441406251 chunks of 4096 rows" in err


@pytest.mark.parametrize("engine", ["reduced", "full"])
def test_simulate_refuses_series_where_memory_is_unreadable(capsys, monkeypatch, engine):
    # where /proc/meminfo cannot be read, the chunk cap refuses 10^13 rows
    # all the same: exit 3 with an error line, not numpy's traceback
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: None)

    def no_evaluation(*args):
        raise AssertionError("evaluated before the chunk check")

    monkeypatch.setattr(reduced, "spectrum", no_evaluation)
    monkeypatch.setattr(arc_engine, "pair_vertex_table", no_evaluation)
    code, out, err = run_cli(capsys, "simulate", "--n", "8", "--k", "2",
                             "--engine", engine, "--steps", str(10 ** 13))
    assert code == 3 and out == ""
    assert err.startswith("error:") and "needs 2441406251 chunks" in err
    assert "Traceback" not in err


def test_simulate_reduced_strided_horizon_fits(capsys, monkeypatch):
    # the horizon the chunk cap refuses at stride 1 runs at stride 10^12,
    # under a budget of 1 MiB
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: 2 ** 20)
    code, out, _ = run_cli(capsys, "simulate", "--n", "8", "--k", "2",
                           "--steps", str(10 ** 13), "--stride", str(10 ** 12))
    assert code == 0
    assert read_run_rows(out).t.tolist() == [t * 10 ** 12 for t in range(11)]


def _traced_peak(argv):
    """tracemalloc's peak over one in-process CLI run."""
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_the_series(tmp_path):
    # a J(10^6,2) series of 64 chunks peaks within one chunk's three 8-byte
    # columns of a series of 4: each chunk is written before the next is made
    def argv(chunks):
        steps = chunks * arc_engine.CHUNK - 1
        return ["simulate", "--n", "1000000", "--k", "2", "--steps", str(steps),
                "--out", str(tmp_path / "series.csv")]

    _traced_peak(argv(4))  # the lazily built tables of the first run
    short, long = _traced_peak(argv(4)), _traced_peak(argv(64))
    assert abs(long - short) < 3 * 8 * arc_engine.CHUNK


def test_simulate_marked_flag(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "8", "--k", "2",
                           "--engine", "full", "--steps", "30",
                           "--marked", "3,7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["marked"] == [3, 7]
    _, out_default, _ = run_cli(capsys, "simulate", "--n", "8", "--k", "2",
                                "--engine", "full", "--steps", "30",
                                "--format", "json")
    base = json.loads(out_default)
    assert base["marked"] == [1, 2]
    # vertex transitivity: same probability series either way
    a = [r["p_succ"] for r in doc["rows"]]
    b = [r["p_succ"] for r in base["rows"]]
    assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-12


@pytest.mark.parametrize("marked", ["1", "1,2,3", "0,1", "1,9", "1,1", "a,b"])
def test_simulate_marked_flag_rejects(capsys, marked):
    code, _, err = run_cli(capsys, "simulate", "--n", "8", "--k", "2",
                           "--marked", marked, "--engine", "full", "--steps", "1")
    assert code == 2
    assert "--marked" in err


def test_simulate_stride(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "8", "--k", "2",
                           "--steps", "10", "--stride", "4")
    assert code == 0
    rows = read_run_rows(out)
    assert rows.t.tolist() == [0, 4, 8, 10]


def test_outputs_byte_identical_across_runs(capsys, tmp_path):
    args = ("simulate", "--n", "8", "--k", "2", "--engine", "full",
            "--steps", "50")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    _, spec1, _ = run_cli(capsys, "spectrum", "--n", "10", "--k", "3")
    _, spec2, _ = run_cli(capsys, "spectrum", "--n", "10", "--k", "3")
    assert spec1 == spec2


def test_out_file_written(capsys, tmp_path):
    target = tmp_path / "series.csv"
    code, out, _ = run_cli(capsys, "simulate", "--n", "8", "--k", "2",
                           "--steps", "5", "--out", str(target))
    assert code == 0 and out == ""
    rows = read_run_rows(target.read_text())
    assert len(rows.t) == 6


def test_sweep_convergence(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--k", "2",
                           "--n-list", "100,400,1600")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,t_run,p_succ_at_t_run,abs_dev_from_half,t_opt,p_max"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[1]) for r in rows] == [78, 314, 1256]
    deviations = [float(r[3]) for r in rows]
    assert deviations[0] > deviations[1] > deviations[2]


def test_sweep_rejects_empty_and_bad_n(capsys):
    code, _, err = run_cli(capsys, "sweep", "--k", "2", "--n-list", "")
    assert code == 2
    code, _, err = run_cli(capsys, "sweep", "--k", "3", "--n-list", "12,5")
    assert code == 2
    assert "requires n >= 2k" in err


def test_validate_pass(capsys):
    code, out, _ = run_cli(capsys, "validate", "--n", "4", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    report = validation.certify(graph_params(4, 2))
    assert [c["name"] for c in doc["checks"]] == [c.name for c in report.checks]


def test_validate_impossible_tolerance(capsys):
    code, out, err = run_cli(capsys, "validate", "--n", "6", "--k", "2",
                             "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert "certification failed" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_validate_rejects_tolerance_before_any_work(capsys, monkeypatch, tol):
    # no residual is <= NaN or < 0: usage error (exit 2), not a failed
    # certification with every check listed
    def no_certification(*args, **kwargs):
        raise AssertionError("certified with an impossible tolerance")

    monkeypatch.setattr(cli.validation, "certify", no_certification)
    code, out, err = run_cli(capsys, "validate", "--n", "6", "--k", "2", "--tol", tol)
    assert code == 2 and out == ""
    assert "--tol" in err and "certification failed" not in err
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "validate", "--n", "4", "--k", "2", "--tol", "0")
    assert code == 1 and json.loads(out)["passed"] is False


def test_validate_intersection_mismatch_fails_with_a_report(capsys, monkeypatch):
    # intersection numbers that miss the graph fail the shell action alone:
    # exit 1 after the report is written, no error line, no traceback
    original = validation.intersection_numbers

    def shifted(params, level):
        row = original(params, level)
        return row._replace(a=row.a + 1)

    monkeypatch.setattr(validation, "intersection_numbers", shifted)
    code, out, err = run_cli(capsys, "validate", "--n", "4", "--k", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["shell_action_identity"]
    assert err.startswith("certification failed:") and "shell_action_identity" in err
    assert "error:" not in err and "Traceback" not in err


def test_validate_capacity(capsys):
    # about 37 GB of counted words: refused by the memory rule, the only one
    code, _, err = run_cli(capsys, "validate", "--n", "200", "--k", "3")
    assert code == 3
    assert "available memory" in err


@pytest.mark.parametrize("k,n,blocks", [(3, 10 ** 12, 190107929), (16, 1000, 95850899)])
def test_sweep_window_beyond_the_block_cap(capsys, k, n, blocks):
    # a window of more blocks than a sweep may evaluate exits 3, naming them
    code, out, err = run_cli(capsys, "sweep", "--k", str(k), "--n-list", str(n))
    assert code == 3 and out == ""
    assert f"needs {blocks} blocks" in err


def test_validate_checks_available_memory(capsys, monkeypatch):
    monkeypatch.setattr(arc_engine, "_mem_available", lambda: 1024)
    code, out, err = run_cli(capsys, "validate", "--n", "7", "--k", "2")
    assert code == 3
    assert out == ""
    assert "available memory" in err
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "validate", "--n", "7", "--k", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("argv", [
    ("validate", "--n", "6", "--k", "2"),
    ("simulate", "--n", "8", "--k", "2", "--steps", "5"),
    ("sweep", "--k", "2", "--n-list", "100"),
])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv):
    # exit 1 is a failed certification; a path that cannot be written is exit 2,
    # and the message names that path, not the temp file written first: a
    # missing directory fails at the temp file, an existing directory at the rename
    missing = tmp_path / "missing" / "out.txt"
    directory = tmp_path / "outdir"
    directory.mkdir()
    for target in (missing, directory):
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert str(target) in err and ".tmp" not in err
    # and the temp file is removed
    assert [path.name for path in tmp_path.iterdir()] == ["outdir"]
    assert not any(directory.iterdir())


def test_usage_errors(capsys):
    assert run_cli(capsys, "simulate", "--n", "8")[0] == 2   # missing --k
    assert run_cli(capsys, "unknown-command")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_closed_pipe_exits_141():
    # a reader that stops after the first line closes the pipe: the writer
    # exits 141, as a shell reports SIGPIPE, so a cut-off output never reads
    # as a success, and says nothing on stderr
    path = [str(Path(jwalk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    child = subprocess.Popen(
        [sys.executable, "-m", "jwalk", "simulate", "--n", "4000", "--k", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert child.stdout.readline() == b"t,p_succ,p_alt,norm\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=120) == 141
    finally:
        child.kill()
        child.wait()
    assert err == b""


def test_closed_pipe_exits_141_on_a_short_output():
    # a report short enough to wait in stdout's buffer until the end of
    # main(): its reader is gone before it starts, and the flush still
    # exits 141 with nothing on stderr; stdout to a pipe is block-buffered
    # unless PYTHONUNBUFFERED says otherwise
    path = [str(Path(jwalk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "jwalk", "validate", "--n", "6", "--k", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""


def test_reduced_engine_refuses_a_plain_longdouble(capsys, monkeypatch, tmp_path):
    # where longdouble is plain double the block evaluator would write other
    # bytes: simulate (reduced) and sweep exit 2 before solving the spectrum
    # and write nothing; spectrum and the full engine need no longdouble
    monkeypatch.setattr(reduced, "_LONGDOUBLE_BITS", 52)

    def unsolved(params):
        raise AssertionError("solved the spectrum")

    with monkeypatch.context() as m:
        m.setattr(reduced, "spectrum", unsolved)
        for argv in (("simulate", "--n", "100", "--k", "2"),
                     ("sweep", "--k", "2", "--n-list", "100,10000")):
            out_file = tmp_path / "out.csv"
            for out in (("--out", "-"), ("--out", str(out_file))):
                code, out_text, err = run_cli(capsys, *argv, *out)
                assert code == 2 and out_text == ""
                assert "52" in err and "significand bits" in err and "--engine full" in err
            assert not out_file.exists()
    assert run_cli(capsys, "spectrum", "--n", "100", "--k", "2")[0] == 0
    code, out, _ = run_cli(capsys, "simulate", "--n", "8", "--k", "2", "--engine", "full")
    assert code == 0 and out.startswith("t,p_succ,p_alt,norm\n")
