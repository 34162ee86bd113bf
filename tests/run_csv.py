"""Parse a run report's CSV back into a Series, for the tests' round trips."""

import numpy as np

from jwalk.arc_engine import Series


def read_run_rows(text: str) -> Series:
    """Parse the series back from the CSV that ``reports.run_report_to_csv`` emits."""
    lines = text.strip().split("\n")
    if lines[0] != "t,p_succ,p_alt,norm":
        raise ValueError(f"unexpected CSV header: {lines[0]!r}")
    t, p, alt, norm = zip(*(line.split(",") for line in lines[1:]))
    return Series(t=np.array([int(x) for x in t], dtype=np.int64),
                  p_succ=np.array([float(x) for x in p]),
                  p_alt=None if all(x == "" for x in alt)
                  else np.array([float(x) for x in alt]),
                  norm=np.array([float(x) for x in norm]))
