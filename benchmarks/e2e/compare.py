"""Compare two sets of benchmark results, metric by metric.

Each side is a JSONL file of results written by ``run.py --out``
(several runs per workload, ideally on different seeds)::

    python3 benchmarks/e2e/compare.py base.jsonl head.jsonl

For every (workload, metric) it prints each side's median and
quartiles. Metrics with a bound in ``BENCHMARK.json`` (the end-to-end
ones) also get a verdict, "gain" being the change in the metric's
better direction as a share of the base median:

* ``unresolved`` — either side's quartile spread (IQR / median)
  exceeds the bound, unless every head run beats every base run
  (``better``) or every base run beats every head run (``worse``);
* ``worse`` / ``better`` — the head median loses / gains more than the
  bound;
* ``unchanged`` — otherwise.

The two sides are unpaired and may have run at different times, so
host speed can drift between them; a gain smaller than the bound needs
interleaved base/head pairs on one machine to be claimed. Exit status
1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path):
    """``{(workload, metric): [values]}`` from one results file."""
    values = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                row = json.loads(line)
                for name, metric in row["metrics"].items():
                    values[(row["workload"], name)].append(metric["value"])
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, head, bound: float, better: str) -> str:
    sign = 1.0 if better == "higher" else -1.0

    def wins(h: float, b: float) -> bool:
        return sign * (h - b) > 0

    if spread(base) > bound or spread(head) > bound:
        if all(wins(h, b) for b in base for h in head):
            return "better"
        if all(wins(b, h) for b in base for h in head):
            return "worse"
        return "unresolved"
    base_median = statistics.median(base)
    gain = sign * (statistics.median(head) - base_median) / abs(base_median)
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="JSONL results of the base commit")
    parser.add_argument("head", help="JSONL results of the changed commit")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)

    declared = json.loads(Path(args.benchmark).read_text())
    rules = {m["name"]: (m.get("bound"), m["better"])
             for m in declared["end_to_end"] + declared["per_layer"]}
    base, head = load(args.base), load(args.head)
    worse = False
    print(f"{'workload':<18} {'metric':<36} {'base q1/med/q3':>32} "
          f"{'head q1/med/q3':>32}  verdict")
    for key in sorted(set(base) & set(head)):
        workload, name = key
        bound, better = rules.get(name, (None, "lower"))
        row = " ".join(
            f"{v:>10.4g}" for side in (base[key], head[key])
            for v in quartiles(side)
        )
        if bound is None:
            result = "-"
        else:
            result = verdict(base[key], head[key], bound, better)
            worse |= result == "worse"
        print(f"{workload:<18} {name:<36} {row}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
