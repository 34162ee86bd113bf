"""Report records and their CSV/JSON serialization.

CSV uses LF newlines, '.' decimals, and floats printed with 17 significant
digits so a parse-back reproduces every double bit-exactly; absent values
are empty fields.  JSON documents carry a schema_version field.  Repeated
runs with identical flags produce byte-identical output.

A run report's series can hold billions of rows, so it arrives as the
engines yield it, in chunks of at most ``arc_engine.CHUNK`` rows, and its
serializers format each chunk as it arrives, in the same bytes as the
whole document formatted at once (``json.dumps(doc, indent=2)`` for JSON)
wherever the chunk boundaries fall; ``write_output`` writes the text as it
comes, so neither the series nor its text is ever held whole.  A float
column whose bits are constant over a chunk, such as the reduced engine's
norm, is spelled once for the chunk (bits, not ``==``: 0.0 == -0.0, yet
they spell ``0`` and ``-0``).  Each chunk has one of two layouts.  A CSV chunk whose varying
floats all lie in [1e-4, 1), as a success probability mostly does, is
built as one byte matrix in numpy (:func:`_csv_rows`), whose digits are
proven equal to ``%.17g``'s; any other chunk, and every JSON chunk, is one
``%`` over its row template repeated per row.
"""

import functools
import json
import math
import os
import sys
import tempfile
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Union

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

_RUN_CSV_HEADER = "t,p_succ,p_alt,norm"
_CSV_FLOAT = "%.17g"

# one row's fields (t, p_succ, p_alt, norm) as json.dumps(doc, indent=2)
# lays out one object of doc["rows"]
_JSON_ROW = ('    {\n      "t": %s,\n      "p_succ": %s,\n      "p_alt": %s,\n'
             '      "norm": %s\n    }')


class RunReport(NamedTuple):
    params: GraphParams
    marked: tuple            # 1-based element list
    engine: str              # "full" | "reduced"
    t_run: int
    stride: int
    series: Iterable[Series]  # the chunks, drawn once; p_alt is None for the reduced engine


class SweepRow(NamedTuple):
    n: int
    t_run: int
    p_succ: float            # at t_run
    deviation: float         # |p_succ - 1/2|
    t_opt: int
    p_max: float


class SweepReport(NamedTuple):
    k: int
    rows: list


def format_float(x: float) -> str:
    return _CSV_FLOAT % x


def _params_dict(params: GraphParams) -> dict:
    return {"n": params.n, "k": params.k,
            "num_vertices": params.num_vertices, "degree": params.degree}


def _chunk_cells(series: Iterable[Series], float_field: str, floats):
    """Yield each chunk of the series as its t values and one cell per float
    column (p_succ, p_alt, norm).

    A missing column's cell is None, a column whose bits are constant over
    the chunk is the one spelling that ``float_field`` gives its values
    (``floats`` turns a column into the values of a ``float_field``), and
    any other column is the column itself.
    """
    for chunk in series:
        cells = []
        for column in (chunk.p_succ, chunk.p_alt, chunk.norm):
            if column is not None:
                bits = column.view(np.uint64)
                if (bits == bits[0]).all():
                    column = float_field % tuple(floats(column[:1]))
            cells.append(column)
        yield chunk.t, cells


def _template(t: np.ndarray, cells: list, float_field: str, floats, absent: str):
    """A chunk's row-template fields (t, p_succ, p_alt, norm) and the values
    that fill the template repeated once per row: a missing column is the
    literal ``absent`` and a constant one its spelling."""
    fields, columns = ["%d"], [t.tolist()]
    for cell in cells:
        if isinstance(cell, np.ndarray):
            fields.append(float_field)
            columns.append(floats(cell))
        else:
            fields.append(absent if cell is None else cell.replace("%", "%%"))
    return tuple(fields), tuple(chain.from_iterable(zip(*columns)))


# the doubles nearest 10^-4 .. 10^-1; each lies above its power of ten, so
# a double x is at least 10^(j-4) exactly when x >= _DECADES[j]
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1])
# 10^(16-e) for x in [10^e, 10^(e+1)), indexed by the count of _DECADES at
# most x: exact doubles, split into 26-bit halves for Dekker's product
_SCALE = np.array([0.0, 1e20, 1e19, 1e18, 1e17])
_SCALE_HI = _SCALE * 134217729.0 - (_SCALE * 134217729.0 - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
# keep masks of one word: _KEEP_FIRST[c] keeps its first c bytes,
# _KEEP_LAST[c] its last c
_KEEP_FIRST = np.frombuffer(b"".join(bytes([1] * c + [0] * (4 - c)) for c in range(5)),
                            np.uint32)
_KEEP_LAST = np.frombuffer(b"".join(bytes([0] * (4 - c) + [1] * c) for c in range(5)),
                           np.uint32)
_POWERS_OF_TEN = np.array([10 ** j for j in range(1, 19)])


def _significand(x: np.ndarray):
    """The 17 digits and the decimal exponent e that ``%.17g`` gives each x
    in [1e-4, 1), as the integer D in [10^16, 10^17) and the count -e-1 of
    zeros between the point and D; None if any value is outside [1e-4, 1)
    or has digits this does not prove.

    D = round(x·10^(16-e)).  Dekker's two-product gives x·10^(16-e) exactly
    as hi + lo, where hi >= 10^16 > 2^53 is an integer.  D = hi + rint(lo)
    is ``%``'s correctly rounded result unless lo ends in exactly .5 (a
    tie) or D leaves [10^16, 10^17) (rounds up to the next decade); either
    returns None.
    """
    if not ((x >= 1e-4) & (x < 1.0)).all():
        return None
    decade = np.searchsorted(_DECADES, x, side="right")
    hi = x * _SCALE[decade]
    split = x * 134217729.0
    x_hi = split - (split - x)
    x_lo = x - x_hi
    scale_hi, scale_lo = _SCALE_HI[decade], _SCALE_LO[decade]
    lo = ((x_hi * scale_hi - hi) + x_hi * scale_lo + x_lo * scale_hi) + x_lo * scale_lo
    if (lo - np.floor(lo) == 0.5).any():
        return None
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    if ((digits < 10 ** 16) | (digits >= 10 ** 17)).any():
        return None
    return digits, 4 - decade


@functools.cache
def _digit_words() -> np.ndarray:
    """The four ASCII digits of each of 0 .. 9999, as the uint32 word that
    holds them in memory order; built on first use, so that a command that
    writes no CSV series neither builds nor holds it."""
    digits = np.empty((10000, 4), np.uint8)
    for place in range(4):
        digits[:, place] = np.arange(10000) // 10 ** (3 - place) % 10 + ord("0")
    return digits.view(np.uint32).ravel()


def _put_digits(words: np.ndarray, values: np.ndarray) -> None:
    """Write the last 4·``words.shape[1]`` decimal digits of each
    non-negative int64 value, zero-padded, as ASCII into its row of
    ``words``, four to a word."""
    table = _digit_words()
    for k in range(words.shape[1] - 1, -1, -1):
        values, group = np.divmod(values, 10000)
        words[:, k] = table[group]


def _csv_rows(t: np.ndarray, cells: list) -> Optional[str]:
    """A chunk's CSV rows, built as one byte matrix in numpy; None unless
    every t is non-negative and every value of a varying column lies in
    [1e-4, 1) with proven digits (:func:`_significand`).

    There ``%.17g`` is fixed notation: "0.", -e-1 zeros, then the 17
    digits without their trailing zeros.  Every row is laid out at one
    width, with t zero-padded and each varying field at its longest, and a
    keep mask drops t's leading zeros, the zeros a field's decade leaves
    out, its trailing zeros and the padding that puts its digits on
    4-byte words.  A constant column is its spelling on every row.
    """
    if t.min() < 0:
        return None
    significands = []
    for cell in cells:
        if isinstance(cell, np.ndarray):
            significands.append(_significand(cell))
            if significands[-1] is None:
                return None
    t_words = -(-len(str(t.max())) // 4)
    row, kept, fields = bytearray(b"0" * 4 * t_words), bytearray(b"\1" * 4 * t_words), []
    for cell in cells:
        if isinstance(cell, np.ndarray):
            # ",0." ends on a word; the next word holds D's leading digit as
            # the group "000d", of which the last -e-1 zeros and d are kept,
            # and the four after it hold D's other 16 digits
            pad = -(len(row) + 3) % 4
            row += b"\0" * pad + b",0." + b"0" * 20
            kept += b"\0" * pad + b"\1" * 3 + b"\0" * 20
            fields.append((len(row) - 20) // 4)
        else:
            spelling = b"," if cell is None else b"," + cell.encode("ascii")
            row += spelling
            kept += b"\1" * len(spelling)
    pad = -(len(row) + 1) % 4
    row += b"\0" * pad + b"\n"
    kept += b"\0" * pad + b"\1"
    text = np.empty((len(t), len(row)), np.uint8)
    text[:] = np.frombuffer(row, np.uint8)
    keep = np.empty(text.shape, bool)
    keep[:] = np.frombuffer(kept, bool)
    words, keep_words = text.view(np.uint32), keep.view(np.uint32)
    _put_digits(words[:, :t_words], t)
    t_digits = 1 + np.searchsorted(_POWERS_OF_TEN, t, side="right")
    for k in range(t_words):
        keep_words[:, k] = _KEEP_LAST[np.clip(t_digits - 4 * (t_words - 1 - k), 0, 4)]
    for at, (significand, zeros) in zip(fields, significands):
        _put_digits(words[:, at:at + 5], significand)
        keep_words[:, at] = _KEEP_LAST[zeros + 1]
        field = text[:, 4 * at + 3:4 * at + 20]
        significant = 17 - np.argmax(field[:, ::-1] != ord("0"), axis=1)
        for k in range(4):
            keep_words[:, at + 1 + k] = _KEEP_FIRST[np.clip(significant - 1 - 4 * k, 0, 4)]
    return text.ravel()[keep.ravel()].tobytes().decode("ascii")


def run_report_to_csv(report: RunReport):
    """Yield the CSV text, the header and then one chunk of the series at a time.

    A chunk is :func:`_csv_rows` where that applies, and otherwise one
    ``%`` over its row template.
    """
    yield _RUN_CSV_HEADER + "\n"
    for t, cells in _chunk_cells(report.series, _CSV_FLOAT, np.ndarray.tolist):
        text = _csv_rows(t, cells)
        if text is None:
            fields, values = _template(t, cells, _CSV_FLOAT, np.ndarray.tolist, "")
            text = (",".join(fields) + "\n") * len(t) % values
        yield text


def _json_floats(column: np.ndarray) -> list:
    """The column's values for a %s field, in json.dumps's spelling: %s of a
    finite float is its repr, and NaN and the infinities are json.dumps's."""
    values = column.tolist()
    if np.isfinite(column).all():
        return values
    return [x if math.isfinite(x) else json.dumps(x) for x in values]


def run_report_to_json(report: RunReport):
    """Yield the JSON text, one chunk of the series at a time.

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
    for t, cells in _chunk_cells(report.series, "%s", _json_floats):
        fields, values = _template(t, cells, "%s", _json_floats, "null")
        yield separator + ",\n".join([_JSON_ROW % fields] * len(t)) % values
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
