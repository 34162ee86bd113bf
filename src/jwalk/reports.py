"""Report records and their CSV/JSON serialization.

CSV uses LF newlines, '.' decimals, and floats printed with 17 significant
digits so a parse-back reproduces every double bit-exactly; absent values
are empty fields.  JSON documents carry a schema_version field.  Repeated
runs with identical flags produce byte-identical output.

A run report's series can hold millions of rows, so its serializers yield
the text REPORT_CHUNK rows at a time, in the same bytes as the whole
document formatted at once (``json.dumps(doc, indent=2)`` for JSON), and
``write_output`` writes the chunks as they come.  A chunk is one ``%`` over
its row template repeated per row.  A float column whose bits are constant
over the chunk, such as the reduced engine's norm, is spelled once into the
template (bits, not ``==``: 0.0 == -0.0, yet they spell ``0`` and ``-0``).
"""

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Union

import numpy as np

from .arc_engine import Series
from .johnson import GraphParams
from .spectral import Schedule
from .validation import CertificationReport

__all__ = [
    "SCHEMA_VERSION",
    "RunReport",
    "SweepRow",
    "SweepReport",
    "format_float",
    "run_report_to_csv",
    "run_report_to_json",
    "sweep_report_to_csv",
    "sweep_report_to_json",
    "spectrum_to_json",
    "spectrum_to_csv",
    "certification_to_json",
    "write_output",
]

SCHEMA_VERSION = 1

# rows per chunk of serialized run-report text
REPORT_CHUNK = 2 ** 12

_RUN_CSV_HEADER = "t,p_succ,p_alt,norm"
_CSV_FLOAT = "%.17g"

# one row's fields (t, p_succ, p_alt, norm) as json.dumps(doc, indent=2)
# lays out one object of doc["rows"]
_JSON_ROW = ('    {\n      "t": %s,\n      "p_succ": %s,\n      "p_alt": %s,\n'
             '      "norm": %s\n    }')


@dataclass(frozen=True)
class RunReport:
    params: GraphParams
    marked: tuple            # 1-based element list
    engine: str              # "full" | "reduced"
    t_run: int
    stride: int
    series: Series           # p_alt is None for the reduced engine


@dataclass(frozen=True)
class SweepRow:
    n: int
    t_run: int
    p_succ: float            # at t_run
    deviation: float         # |p_succ - 1/2|
    t_opt: int
    p_max: float


@dataclass(frozen=True)
class SweepReport:
    k: int
    rows: list


def format_float(x: float) -> str:
    return _CSV_FLOAT % x


def _params_dict(params: GraphParams) -> dict:
    return {"n": params.n, "k": params.k,
            "num_vertices": params.num_vertices, "degree": params.degree}


def _chunk_fields(series: Series, float_field: str, floats, absent: str):
    """Yield each REPORT_CHUNK slice as its row template's fields (t, p_succ,
    p_alt, norm), its row count and the values that fill it, row by row.

    ``floats`` turns a float column into the values of a ``float_field``.
    A missing p_alt is the literal ``absent``, and a column whose bits are
    constant over the slice is the literal that ``float_field`` spells.
    """
    for start in range(0, len(series.t), REPORT_CHUNK):
        part = slice(start, start + REPORT_CHUNK)
        fields, columns = ["%d"], [series.t[part].tolist()]
        for column in (series.p_succ, series.p_alt, series.norm):
            if column is None:
                fields.append(absent)
                continue
            bits = column[part].view(np.uint64)
            if (bits == bits[0]).all():
                spelling = float_field % tuple(floats(column[start:start + 1]))
                fields.append(spelling.replace("%", "%%"))
            else:
                fields.append(float_field)
                columns.append(floats(column[part]))
        yield tuple(fields), len(columns[0]), tuple(chain.from_iterable(zip(*columns)))


def run_report_to_csv(report: RunReport):
    """Yield the CSV text, the header and then REPORT_CHUNK rows at a time."""
    yield _RUN_CSV_HEADER + "\n"
    for fields, rows, values in _chunk_fields(report.series, _CSV_FLOAT, np.ndarray.tolist, ""):
        yield (",".join(fields) + "\n") * rows % values


def _json_floats(column: np.ndarray) -> list:
    """The column's values for a %s field, in json.dumps's spelling: %s of a
    finite float is its repr, and NaN and the infinities are json.dumps's."""
    values = column.tolist()
    if np.isfinite(column).all():
        return values
    return [x if math.isfinite(x) else json.dumps(x) for x in values]


def run_report_to_json(report: RunReport):
    """Yield the JSON text, REPORT_CHUNK rows at a time.

    The chunks join to ``json.dumps(doc, indent=2)`` and a newline, with
    one object per row in ``doc["rows"]``.
    """
    head = json.dumps({
        "schema_version": SCHEMA_VERSION,
        "params": _params_dict(report.params),
        "marked": list(report.marked),
        "engine": report.engine,
        "t_run": report.t_run,
        "stride": report.stride,
        "rows": [],
    }, indent=2)
    yield head[:-len("]\n}")] + "\n"      # up to '"rows": [' and its newline
    separator = ""
    for fields, rows, values in _chunk_fields(report.series, "%s", _json_floats, "null"):
        yield separator + ",\n".join([_JSON_ROW % fields] * rows) % values
        separator = ",\n"
    yield "\n  ]\n}\n"


def sweep_report_to_csv(report: SweepReport) -> str:
    lines = ["n,t_run,p_succ_at_t_run,abs_dev_from_half,t_opt,p_max"]
    for r in report.rows:
        lines.append(",".join([
            str(r.n), str(r.t_run), format_float(r.p_succ),
            format_float(r.deviation), str(r.t_opt), format_float(r.p_max)]))
    return "\n".join(lines) + "\n"


def sweep_report_to_json(report: SweepReport) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "k": report.k,
        "rows": [{"n": r.n, "t_run": r.t_run, "p_succ_at_t_run": r.p_succ,
                  "abs_dev_from_half": r.deviation, "t_opt": r.t_opt,
                  "p_max": r.p_max} for r in report.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def spectrum_to_json(params: GraphParams, table: list, schedule: Schedule) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": _params_dict(params),
        "levels": [{
            "level": r.level, "eigenvalue": r.eigenvalue,
            "multiplicity": r.multiplicity, "weight_sq": r.weight_sq,
            "phase": r.phase, "shell_size": r.shell,
            "a": r.a, "b": r.b, "c": r.c,
        } for r in table],
        "schedule": {"t_run": schedule.t_run, "epsilon": schedule.epsilon,
                     "target_phase": schedule.target_phase},
    }
    return json.dumps(doc, indent=2) + "\n"


def spectrum_to_csv(params: GraphParams, table: list, schedule: Schedule) -> str:
    # schedule columns are repeated per row so one flat file carries everything
    lines = ["level,eigenvalue,multiplicity,weight_sq,phase,shell_size,a,b,c,"
             "t_run,epsilon,target_phase"]
    for r in table:
        phase = "" if r.phase is None else format_float(r.phase)
        lines.append(",".join([
            str(r.level), str(r.eigenvalue), str(r.multiplicity),
            format_float(r.weight_sq), phase, str(r.shell),
            str(r.a), str(r.b), str(r.c),
            str(schedule.t_run), format_float(schedule.epsilon),
            format_float(schedule.target_phase)]))
    return "\n".join(lines) + "\n"


def certification_to_json(report: CertificationReport) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "params": _params_dict(report.params),
        "marked_rank": report.marked,
        "tol": report.tol,
        "checks": [{"name": c.name, "residual": c.residual, "passed": c.passed}
                   for c in report.checks],
        "passed": report.passed,
    }
    return json.dumps(doc, indent=2) + "\n"


def write_output(text: Union[str, Iterable[str]], out: Optional[str]) -> None:
    """Write a string, or its chunks in order, to stdout or atomically to a file.

    A file is written through a temp file in the same directory and renamed
    over ``out`` only once every chunk is written; if a chunk raises, the
    temp file is removed and ``out`` is left as it was.  An OSError about a
    file, such as the temp file that a missing directory refuses or the
    rename onto a directory, is raised as the same error about ``out``.
    """
    chunks = [text] if isinstance(text, str) else text
    if out is None or out == "-":
        sys.stdout.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(out))
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as handle:
            handle.writelines(chunks)
        os.replace(tmp_path, out)
    except BaseException as exc:
        if tmp_path is not None:
            os.unlink(tmp_path)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise type(exc)(exc.errno, exc.strerror, out) from None
        raise
