"""Series chunks for the tests: gather an engine's chunks into whole columns,
and split whole columns into chunks of a chosen size."""

import numpy as np

from jwalk.arc_engine import Series


def gather(chunks) -> Series:
    """One Series of every row of the chunks, in order."""
    chunks = list(chunks)
    p_alt = [c.p_alt for c in chunks]
    return Series(t=np.concatenate([c.t for c in chunks]),
                  p_succ=np.concatenate([c.p_succ for c in chunks]),
                  p_alt=None if p_alt[0] is None else np.concatenate(p_alt),
                  norm=np.concatenate([c.norm for c in chunks]))


def split(series: Series, rows: int) -> list:
    """The series as chunks of ``rows`` rows, the last one shorter if need be."""
    return [Series(*(None if column is None else column[start:start + rows]
                     for column in series))
            for start in range(0, len(series.t), rows)]
