"""Serialization: float fidelity, CSV round-trip, JSON schema."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from chunked import gather, split
from jwalk import arc_engine, cli, reduced, reports, spectral, validation
from jwalk.arc_engine import Series
from jwalk.johnson import graph_params
from run_csv import read_run_rows


@pytest.mark.parametrize("value", [
    0.0, 1.0, 0.1, 1 / 3, math.pi, 2 ** -52, 1e300, 1e-300,
    0.5054836274650057, 7.2e-17,
])
def test_format_float_round_trips(value):
    assert float(reports.format_float(value)) == value


def _sample_series(engine="full"):
    alt = np.full(2, 0.07142857142857144) if engine == "full" else None
    return Series(t=np.array([0, 1]), p_succ=np.array([1 / 28, 0.2539682539682539]),
                  p_alt=alt, norm=np.array([1.0, 1.0 - 2e-16]))


def _sample_run_report(engine="full"):
    return reports.RunReport(params=graph_params(8, 2), marked=(1, 2), engine=engine,
                             t_run=6, stride=1, series=[_sample_series(engine)])


def test_run_csv_round_trip_exact():
    report = _sample_run_report()
    text = "".join(reports.run_report_to_csv(report))
    assert text.startswith("t,p_succ,p_alt,norm\n")
    parsed = read_run_rows(text)
    assert all(np.array_equal(a, b) for a, b in zip(parsed, _sample_series()))
    assert parsed.t.dtype == np.int64


def test_run_csv_empty_alt_field():
    report = _sample_run_report(engine="reduced")
    text = "".join(reports.run_report_to_csv(report))
    line = text.splitlines()[1]
    assert line.split(",")[2] == ""
    assert read_run_rows(text).p_alt is None


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
@pytest.mark.parametrize("with_alt", [False, True])
def test_run_report_chunks_match_whole_text(chunk, with_alt):
    # the streamed text is the text of the whole report at once, wherever
    # the chunk boundaries fall, and NaN and the infinities are spelled as
    # json.dumps spells them
    nan, inf = math.nan, math.inf
    t = [0, 3, 6, 9, 12]
    p_succ = [0.25, 0.1, 0.5, nan, inf]
    norm = [1.0, 1.0 - 2 ** -53, 1.0, -inf, 0.1]
    p_alt = [0.5, 0.2, 1.0, inf, nan] if with_alt else [None] * 5
    series = Series(t=np.array(t), p_succ=np.array(p_succ),
                    p_alt=np.array(p_alt) if with_alt else None, norm=np.array(norm))
    report = reports.RunReport(params=graph_params(8, 2), marked=(1, 2),
                               engine="full" if with_alt else "reduced",
                               t_run=6, stride=3, series=split(series, chunk))
    alt_fields = ["0.5", "0.20000000000000001", "1", "inf", "nan"] if with_alt \
        else [""] * 5
    assert "".join(reports.run_report_to_csv(report)) == (
        "t,p_succ,p_alt,norm\n"
        f"0,0.25,{alt_fields[0]},1\n"
        f"3,0.10000000000000001,{alt_fields[1]},0.99999999999999989\n"
        f"6,0.5,{alt_fields[2]},1\n"
        f"9,nan,{alt_fields[3]},-inf\n"
        f"12,inf,{alt_fields[4]},0.10000000000000001\n")
    doc = {
        "schema_version": 1,
        "params": {"n": 8, "k": 2, "num_vertices": 28, "degree": 12},
        "marked": [1, 2],
        "engine": report.engine,
        "t_run": 6,
        "stride": 3,
        "rows": [{"t": a, "p_succ": b, "p_alt": c, "norm": d}
                 for a, b, c, d in zip(t, p_succ, p_alt, norm)],
    }
    text = "".join(reports.run_report_to_json(report))
    assert text == json.dumps(doc, indent=2) + "\n"
    assert '"p_succ": NaN' in text and '"norm": -Infinity' in text


def _per_row_texts(report, series):
    """The CSV and JSON texts of a run report of ``series``, spelled one field at a time."""
    alt = [None] * len(series.t) if series.p_alt is None else series.p_alt.tolist()
    rows = list(zip(series.t.tolist(), series.p_succ.tolist(), alt, series.norm.tolist()))
    csv_text = "t,p_succ,p_alt,norm\n" + "".join(
        f"{t},{format(p, '.17g')},{'' if a is None else format(a, '.17g')},"
        f"{format(norm, '.17g')}\n" for t, p, a, norm in rows)
    doc = {
        "schema_version": 1,
        "params": {"n": 8, "k": 2, "num_vertices": 28, "degree": 12},
        "marked": list(report.marked),
        "engine": report.engine,
        "t_run": report.t_run,
        "stride": report.stride,
        "rows": [{"t": t, "p_succ": p, "p_alt": a, "norm": norm} for t, p, a, norm in rows],
    }
    return csv_text, json.dumps(doc, indent=2) + "\n"


def _report_of(series, chunk):
    """A run report of ``series`` in chunks of ``chunk`` rows, drawn as often as needed."""
    return reports.RunReport(params=graph_params(8, 2), marked=(3,),
                             engine="reduced" if series.p_alt is None else "full",
                             t_run=6, stride=5, series=split(series, chunk))


def _series_of(p_succ, p_alt, norm):
    return Series(t=np.arange(len(p_succ)) * 5, p_succ=np.array(p_succ),
                  p_alt=None if p_alt is None else np.array(p_alt), norm=np.array(norm))


# seven rows, so chunks of 2 and 3 rows leave a short last chunk
_CONSTANT_COLUMNS = {
    # -0.0 == 0.0, yet it spells -0: constancy is a matter of bits
    "signed_zero": [0.0, 0.0, 0.0, 0.0, -0.0, 0.0, 0.0],
    "nan": [math.nan] * 7,
    "negative_inf": [-math.inf] * 7,
    "subnormal": [5e-324] * 7,
    # constant over the first chunk of 2 or 3 rows, then not
    "constant_then_varying": [0.25, 0.25, 0.25, 0.1, 0.25, 1 / 3, 0.25],
}


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
@pytest.mark.parametrize("with_alt", [False, True])
@pytest.mark.parametrize("name", sorted(_CONSTANT_COLUMNS))
def test_run_report_constant_columns_spelled_per_row(chunk, with_alt, name):
    # a column that is constant over a chunk is spelled once for the chunk,
    # in the same bytes as each of its fields spelled alone
    column = _CONSTANT_COLUMNS[name]
    varying = [0.5, 0.1, 2 ** -1074, -1.5, 1e300, 0.75, 1.0 - 2 ** -53]
    for p_succ, p_alt, norm in [(column, varying if with_alt else None, column[::-1]),
                                (varying, column if with_alt else None, column)]:
        series = _series_of(p_succ, p_alt, norm)
        report = _report_of(series, chunk)
        csv_text, json_text = _per_row_texts(report, series)
        assert "".join(reports.run_report_to_csv(report)) == csv_text
        assert "".join(reports.run_report_to_json(report)) == json_text


def test_run_report_random_bit_patterns_spelled_per_row():
    # every double, whatever its bits (subnormals, NaN payloads, infinities),
    # is spelled by the chunk templates as format(x, ".17g") and json.dumps
    # spell it alone
    values = np.random.default_rng(0).integers(
        0, 2 ** 64, size=10_000, dtype=np.uint64).view(np.float64)
    assert all(reports.format_float(x) == format(x, ".17g") for x in values.tolist())
    series = _series_of(values, values[::-1], np.ones(len(values)))
    report = _report_of(series, 4096)
    csv_text, json_text = _per_row_texts(report, series)
    assert "".join(reports.run_report_to_csv(report)) == csv_text
    assert "".join(reports.run_report_to_json(report)) == json_text


@pytest.mark.parametrize("engine,n,k,steps,stride", [
    ("reduced", 4000, 3, 30000, 7),    # 4,286 rows on the grid, then t = 30000 alone
    ("full", 8, 2, 9000, 7),
])
def test_run_report_bytes_do_not_depend_on_chunking(engine, n, k, steps, stride):
    # an engine's series, whole, in its own chunks (the off-grid last row
    # alone), and in chunks of 1, 7 and 4096 rows, is written in the same
    # bytes as CSV and as JSON
    params = graph_params(n, k)
    if engine == "full":
        own = list(arc_engine.evolve_and_record(params, 0, steps, stride))
    else:
        own = list(reduced.evolve_series(params, steps, stride))
    assert len(own[-1].t) == 1 and own[-1].t[0] == steps
    whole = gather(own)
    assert len(whole.t) == steps // stride + 2
    texts = set()
    for chunks in [[whole], own, split(whole, 1), split(whole, 7), split(whole, 4096)]:
        report = reports.RunReport(params=params, marked=(1, 2), engine=engine,
                                   t_run=6, stride=stride, series=chunks)
        texts.add(("".join(reports.run_report_to_csv(report)),
                   "".join(reports.run_report_to_json(report))))
    assert len(texts) == 1


def _spy_numpy_rows(monkeypatch):
    """A list that gets, per chunk that run_report_to_csv writes, whether
    the numpy rows built it (False: the template did)."""
    served, numpy_rows = [], reports._csv_rows

    def spy(t, cells):
        text = numpy_rows(t, cells)
        served.append(text is not None)
        return text

    monkeypatch.setattr(reports, "_csv_rows", spy)
    return served


_POWERS = [float(f"1e-{j}") for j in range(1, 5)]
# the numpy rows' domain [1e-4, 1) at its edges: each power of ten and its
# neighbours within the domain, 1 - 2^-53 and 0.5
_EDGE_VALUES = _POWERS + [np.nextafter(x, 1.0) for x in _POWERS] + [
    np.nextafter(x, 0.0) for x in _POWERS[:3]] + [1.0 - 2 ** -53, 0.5]
# values that leave their chunk to the template: below the domain, at and
# above its end, NaN, -0.0, and (2^18 - 1)/2^18, whose 18 digits
# 0.999996185302734375 make an exact tie at 17
_FALLBACK_VALUES = [np.nextafter(1e-4, 0.0), 1.0, 1.5, math.nan, -0.0,
                    (2 ** 18 - 1) / 2 ** 18]
# t across a new digit, across a word of four digits, and at 2^53
_EDGE_TIMES = [9, 10, 9999, 10000, 99999, 100000, 2 ** 53 - 1, 2 ** 53]


def _drawn_series(seed, rows, with_alt):
    """A series of values drawn log-uniform in [1e-4, 1): the
    _FALLBACK_VALUES among its first 4096 rows, the _EDGE_VALUES and
    _EDGE_TIMES among the rest."""
    rng = np.random.default_rng(seed)
    columns = 10.0 ** rng.uniform(-4, 0, size=(3, rows))
    for column in columns:
        column[rng.choice(4096, len(_FALLBACK_VALUES), replace=False)] = _FALLBACK_VALUES
        column[4096 + rng.choice(rows - 4096, len(_EDGE_VALUES), replace=False)] = _EDGE_VALUES
    t = np.sort(rng.choice(10 ** 6, size=rows, replace=False))
    t[rows - len(_EDGE_TIMES):] = _EDGE_TIMES
    return Series(t=t, p_succ=columns[0], p_alt=columns[1] if with_alt else None,
                  norm=columns[2] if with_alt else np.ones(rows))


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
@pytest.mark.parametrize("with_alt", [False, True])
def test_run_csv_drawn_values_spelled_per_row(monkeypatch, chunk, with_alt):
    # the numpy rows, and the template where a chunk falls back to it, spell
    # every drawn and edge value as format(x, ".17g") spells it alone
    served = _spy_numpy_rows(monkeypatch)
    series = _drawn_series(20261019, 4500, with_alt)
    report = _report_of(series, chunk)
    csv_text, _ = _per_row_texts(report, series)
    assert "".join(reports.run_report_to_csv(report)) == csv_text
    assert "0.99999618530273438" in csv_text
    # a chunk of one row has only constant columns, spelled as they are
    assert served[-1] and (chunk == 1 or not all(served))


@pytest.mark.parametrize("value", _FALLBACK_VALUES + [0.0, -0.5, math.inf, 5e-324])
def test_csv_rows_fall_back_on_one_value(value):
    # one value outside [1e-4, 1), or an exact tie, leaves the whole chunk
    # to the template, in any varying column
    p_succ = 10.0 ** np.random.default_rng(1).uniform(-4, 0, size=100)
    t = np.arange(100)
    assert reports._csv_rows(t, [p_succ, None, "1"]) is not None
    p_succ[37] = value
    assert reports._csv_rows(t, [p_succ, None, "1"]) is None
    assert reports._csv_rows(t, [p_succ[::-1], p_succ, "1"]) is None
    assert reports._csv_rows(t, ["0.5", p_succ[::-1], p_succ]) is None


def test_csv_rows_serve_the_domain_edges():
    # the domain's edge values and t up to 2^60 are numpy rows, not left to
    # the template; a negative t is left to it
    values = np.array(_EDGE_VALUES + [0.25])
    t = np.array(_EDGE_TIMES + [0, 2 ** 60, 3, 4, 5, 6])
    text = reports._csv_rows(t, [values, None, "1"])
    assert text == "".join(f"{a},{format(b, '.17g')},,1\n"
                           for a, b in zip(t.tolist(), values.tolist()))
    assert reports._csv_rows(t - 10, [values, None, "1"]) is None


def test_powers_of_ten_bound_their_decades():
    # _significand takes a double's decade from these four doubles; each
    # lies above its power of ten, so no double falls in a wrong decade
    for j, bound in enumerate(reports._DECADES.tolist()):
        assert Fraction(bound) > Fraction(1, 10 ** (4 - j))
        assert Fraction(np.nextafter(bound, 0.0)) < Fraction(1, 10 ** (4 - j))


def test_reduced_series_chunks_take_the_numpy_rows(monkeypatch, tmp_path):
    # the default J(4000,3) series: every chunk but the first (p near 1/N)
    # and the last two (p back under 1e-4 towards 2·t_run) is numpy rows
    served = _spy_numpy_rows(monkeypatch)
    assert cli.main(["simulate", "--n", "4000", "--k", "3", "--engine", "reduced",
                     "--out", str(tmp_path / "series.csv")]) == 0
    assert len(served) == 57 and sum(served) >= 54


def test_read_run_rows_rejects_bad_header():
    with pytest.raises(ValueError):
        read_run_rows("a,b,c\n1,2,3\n")


def test_run_json_schema():
    doc = json.loads("".join(reports.run_report_to_json(_sample_run_report())))
    assert doc["schema_version"] == 1
    assert doc["params"] == {"n": 8, "k": 2, "num_vertices": 28, "degree": 12}
    assert doc["marked"] == [1, 2]
    assert doc["engine"] == "full"
    assert doc["t_run"] == 6
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["p_alt"] == pytest.approx(1 / 14)


def test_sweep_serialization():
    rows = [reports.SweepRow(n=100, t_run=78, p_succ=0.505, deviation=0.005,
                             t_opt=78, p_max=0.505)]
    report = reports.SweepReport(k=2, rows=rows)
    text = reports.sweep_report_to_csv(report)
    assert text.splitlines()[0] == "n,t_run,p_succ_at_t_run,abs_dev_from_half,t_opt,p_max"
    doc = json.loads(reports.sweep_report_to_json(report))
    assert doc["schema_version"] == 1 and doc["k"] == 2
    assert doc["rows"][0]["n"] == 100


def test_spectrum_serialization():
    p = graph_params(6, 2)
    table = spectral.spectral_table(p)
    schedule = spectral.run_time(p)
    doc = json.loads(reports.spectrum_to_json(p, table, schedule))
    assert [lv["eigenvalue"] for lv in doc["levels"]] == [8, 2, -2]
    assert [lv["multiplicity"] for lv in doc["levels"]] == [1, 5, 9]
    assert doc["levels"][0]["phase"] is None
    assert doc["schedule"]["t_run"] == schedule.t_run
    csv_text = reports.spectrum_to_csv(p, table, schedule)
    lines = csv_text.splitlines()
    assert len(lines) == 4
    assert lines[1].split(",")[4] == ""  # no phase at level 0


def _json_rows(command: str, doc: dict) -> list:
    """The rows a command's CSV flattens its JSON document into."""
    if command == "spectrum":
        return [{**level, **doc["schedule"]} for level in doc["levels"]]
    return doc["rows"]


@pytest.mark.parametrize("args", [
    ["spectrum", "--n", "7", "--k", "1"],
    ["spectrum", "--n", "100", "--k", "2"],
    ["spectrum", "--n", "100", "--k", "3"],
    ["spectrum", "--n", str(10 ** 12), "--k", "7"],
    ["sweep", "--k", "2", "--n-list", "100"],
    ["sweep", "--k", "2", "--n-list", "100,10000,1000000"],
    ["simulate", "--n", "8", "--k", "2", "--engine", "full"],
    ["simulate", "--n", "100", "--k", "2", "--engine", "reduced", "--stride", "3"],
])
def test_csv_and_json_agree(tmp_path, args):
    # the CSV is the JSON document's rows: its header is each row's keys (a
    # run's are Series' fields), and every cell parses back to the JSON
    # value, a float bit for bit and None as an empty field
    paths = {fmt: str(tmp_path / f"report.{fmt}") for fmt in ("csv", "json")}
    for fmt, path in paths.items():
        assert cli.main(args + ["--format", fmt, "--out", path]) == 0
    with open(paths["csv"], newline="") as handle:
        header, *lines = handle.read().splitlines()
    with open(paths["json"]) as handle:
        rows = _json_rows(args[0], json.load(handle))
    if args[0] == "simulate":
        assert header.split(",") == list(Series._fields)
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        assert header.split(",") == list(row)
        for cell, value in zip(line.split(","), row.values(), strict=True):
            if value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert float(cell).hex() == value.hex(), (cell, value)
            else:
                assert type(value) is int and int(cell) == value, (cell, value)
    if args[0] == "spectrum":
        assert rows[0]["phase"] is None and lines[0].split(",")[4] == ""


def test_certification_serialization():
    report = validation.certify(graph_params(4, 2), marked=0, tol=1e-10)
    doc = json.loads(reports.certification_to_json(report))
    assert doc["passed"] is True
    assert {c["name"] for c in doc["checks"]} >= {
        "reduced_compression", "subspace_invariance", "basis_gram"}


def test_write_output_atomic(tmp_path):
    out = tmp_path / "report.csv"
    reports.write_output("x,y\n1,2\n", str(out))
    assert out.read_text() == "x,y\n1,2\n"
    assert list(tmp_path.iterdir()) == [out]  # no stray temp files
    reports.write_output("x,y\n3,4\n", str(out))
    assert out.read_text() == "x,y\n3,4\n"
    reports.write_output(iter(["x,y\n", "5,6\n"]), str(out))
    assert out.read_text() == "x,y\n5,6\n"
    assert list(tmp_path.iterdir()) == [out]


def test_write_output_chunk_failure_keeps_target(tmp_path):
    out = tmp_path / "report.csv"
    out.write_text("old\n")

    def chunks():
        yield "new,"
        raise RuntimeError("serializer failed")

    with pytest.raises(RuntimeError, match="serializer failed"):
        reports.write_output(chunks(), str(out))
    assert out.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [out]  # the temp file is gone
