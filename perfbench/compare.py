"""Compare two sets of benchmark runs, workload by workload and metric by metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --out FILE`` appends, one per run.
The i-th run of a workload in BASE is paired with the i-th in CHANGE, so run
the two sides alternately.  For every end-to-end metric the verdict is:

- ``improved``: the change wins at least nine tenths of the pairs (ties count
  for neither) and its median is better than the base median by more than
  the distance between the base runs' quartiles;
- ``unresolved``: otherwise, when the base runs spread (interquartile
  distance over median) wider than the metric's bound, unless every change
  run is better than every base run;
- ``worse``: the change median is worse than the base median by more than
  the bound, as a share of the base median;
- ``no worse``: otherwise.

Per-layer metrics have no bound; they are listed with medians, quartiles and
win fractions only.  Bounds and directions come from BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
IMPROVED_WIN_SHARE = 0.9


def load(path: str) -> dict[str, list[dict]]:
    """Records by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs.setdefault(record["workload"], []).append(record)
    return runs


def metric_values(record: dict) -> dict[str, float]:
    return {**record.get("end_to_end", {}), **record.get("per_layer", {})}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], lower_is_better: bool, bound: float | None) -> tuple[float, str]:
    """Pair-win share of the change and the verdict for one metric."""
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    win_share = wins / min(len(base), len(change))
    if bound is None:
        return win_share, "-"
    b1, b_med, b3 = quartiles(base)
    c_med = statistics.median(change)
    gain = sign * (c_med - b_med)
    if win_share >= IMPROVED_WIN_SHARE and gain > b3 - b1:
        return win_share, "improved"
    every_run_better = all(sign * (c - b) > 0 for c in change for b in base)
    if (b3 - b1) / abs(b_med) > bound and not every_run_better:
        return win_share, "unresolved"
    if -gain > bound * abs(b_med):
        return win_share, "worse"
    return win_share, "no worse"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"] == "lower", m["bound"]) for m in spec["end_to_end"]}
    rules.update({m["name"]: (m["better"] == "lower", None) for m in spec["per_layer"]})
    base_runs, change_runs = load(argv[0]), load(argv[1])
    print(f"{'workload':<18} {'metric':<40} {'base q1/med/q3':>34} {'change q1/med/q3':>34} {'wins':>5}  verdict")
    for workload in sorted(set(base_runs) & set(change_runs)):
        base, change = base_runs[workload], change_runs[workload]
        names = [n for n in rules if n in metric_values(base[0]) and n in metric_values(change[0])]
        for name in names:
            b = [metric_values(r)[name] for r in base]
            c = [metric_values(r)[name] for r in change]
            lower, bound = rules[name]
            wins, label = verdict(b, c, lower, bound)
            bq = "/".join(f"{v:.4g}" for v in quartiles(b))
            cq = "/".join(f"{v:.4g}" for v in quartiles(c))
            print(f"{workload:<18} {name:<40} {bq:>34} {cq:>34} {wins:>5.2f}  {label}")
        print(f"{workload:<18} runs: base {len(base)}, change {len(change)}, pairs {min(len(base), len(change))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
