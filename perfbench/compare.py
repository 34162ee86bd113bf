"""Summarise or compare benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

For every workload and metric, prints the number of runs, the median of
the per-run values and their spread: the distance between the first and
third quartiles (``statistics.quantiles(n=4)``) as a share of the median.
With NEW, also prints NEW's median, its change against BASE and, for
end-to-end metrics, whether the change stays within the bound in
BENCHMARK.json.  Records whose ``longdouble`` precision differs measure
different arithmetic (80-bit against the float64 fallback), so such a
comparison is refused.  Exits 1 when an end-to-end metric is worse than
its bound or a run failed, 2 when the comparison is refused.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def by_metric(records: list) -> dict:
    """(workload, metric) -> per-run values, plus attempted and failed totals."""
    values, counts = defaultdict(list), defaultdict(lambda: [0, 0])
    for r in records:
        counts[r["workload"]][0] += r["attempted"]
        counts[r["workload"]][1] += r["failed"]
        for name, metric in r["metrics"].items():
            values[(r["workload"], name)].append(metric["value"])
    return values, counts


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def precisions(records: list) -> set:
    return {r["environment"]["longdouble_precision"] for r in records}


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    base = load(argv[0])
    new = load(argv[1]) if len(argv) == 2 else []
    if len(precisions(base + new)) > 1:
        print(f"refused: longdouble precision differs "
              f"({sorted(precisions(base))} against {sorted(precisions(new))})",
              file=sys.stderr)
        return 2
    with open(BENCHMARK) as handle:
        bounds = {m["name"]: m for m in json.load(handle)["end_to_end"]}

    base_values, base_counts = by_metric(base)
    new_values, new_counts = by_metric(new)
    status = 0
    header = f"{'workload':15} {'metric':48} {'runs':>4} {'median':>12} {'spread':>7}"
    print(header + ("" if not new else f" {'new':>12} {'spread':>7} {'change':>7}  verdict"))
    for (workload, name), values in sorted(base_values.items()):
        median = statistics.median(values)
        line = (f"{workload:15} {name:48} {len(values):4d} {median:12.6g} "
                f"{spread(values):7.1%}")
        if (workload, name) in new_values:
            other = new_values[(workload, name)]
            new_median = statistics.median(other)
            change = (new_median - median) / median if median else 0.0
            verdict = ""
            if name in bounds:
                worse = change if bounds[name]["better"] == "lower" else -change
                verdict = "ok" if worse <= bounds[name]["bound"] else "WORSE"
                status = status or int(verdict == "WORSE")
            line += f" {new_median:12.6g} {spread(other):7.1%} {change:+7.1%}  {verdict}"
        print(line)
    for label, counts in (("base", base_counts), ("new", new_counts)):
        for workload, (attempted, failed) in sorted(counts.items()):
            print(f"{label} {workload}: failed_frac = {failed}/{attempted}")
            status = status or int(failed > 0)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
