"""Compare two full reports: ``python3 perfbench/compare.py A.json B.json``.

For every (workload, end-to-end metric) prints both medians, the
relative change of B against A (A is the base), the metric's bound and
a verdict:

``ok``          B's median is not worse than A's by more than the bound
``worse``       it is
``unresolved``  either side's spread (distance between the quartiles of
                its rounds, over their median) is wider than the bound
                and the two sets of rounds overlap: the data cannot tell

``failed_share`` has bound 0: any rise is ``worse``.  Also says, per
workload, whether the simulated statistics are identical (a speed-only
change must leave ``sim_digest`` and every ``sim.*`` value as they were).
Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

from metrics import COUNTS, END_TO_END


def spread(values) -> float:
    """Inter-quartile distance over the median (0 for a single round)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """(relative change of B against A, verdict)."""
    change = (b["median"] - a["median"]) / a["median"]
    regress = change if better == "lower" else -change
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if max(spread(a["values"]), spread(b["values"])) > bound and overlap:
        return change, "unresolved"
    return change, "worse" if regress > bound else "ok"


def failed_share(entry: dict) -> float:
    return entry["failed"] / max(entry["attempted"], 1)


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    """Print the table; the number of ``worse`` rows."""
    if not (a.get("comparable", True) and b.get("comparable", True)):
        print("warning: a --quick report is not comparable", file=out)
    worse = 0
    header = (f"{'workload':<20} {'metric':<30} {'A':>11} {'B':>11} "
              f"{'B vs A':>8} {'bound':>6}  verdict")
    print(header, file=out)
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric, (unit, better, bound) in END_TO_END.items():
            side_a = entry_a["end_to_end"].get(metric)
            side_b = entry_b["end_to_end"].get(metric)
            if side_a is None or side_b is None:
                continue
            change, result = verdict(side_a, side_b, better, bound)
            worse += result == "worse"
            print(f"{name:<20} {metric:<30} {side_a['median']:>11.5g} "
                  f"{side_b['median']:>11.5g} {change:>+8.1%} {bound:>6.0%}"
                  f"  {result}", file=out)
        share_a, share_b = failed_share(entry_a), failed_share(entry_b)
        result = "worse" if share_b > share_a else "ok"
        worse += result == "worse"
        print(f"{name:<20} {'failed_share':<30} {share_a:>11.5g} "
              f"{share_b:>11.5g} {'':>8} {0:>6.0%}  {result}", file=out)
        # The counts, not the self time of the ``sim.stats`` layer.
        simulated = [k for k in COUNTS if k.startswith("sim.")]
        same = entry_a["sim_digest"] == entry_b["sim_digest"] and all(
            entry_a["per_layer"].get(k) == entry_b["per_layer"].get(k)
            for k in simulated
        )
        print(f"{name:<20} simulated statistics "
              f"{'identical' if same else 'DIFFER'}", file=out)
    return worse


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[1]) as file_a, open(argv[2]) as file_b:
        worse = compare(json.load(file_a), json.load(file_b))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
