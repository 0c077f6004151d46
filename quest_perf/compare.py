#!/usr/bin/env python3
"""Compare quest_perf records of two commits.

    python3 quest_perf/compare.py PARENT_DIR CHANGE_DIR
    python3 quest_perf/compare.py --self-test

Each directory holds the --json records of one commit's runs, at least
ten per workload, made in alternating pairs with the other commit (see
README.md). Runs pair up by workload, trace mode and seed. For every
workload and metric the report gives each side's median and quartiles
and the share of pairs the change wins (ties count for neither). An
end-to-end metric gets the first verdict that holds, against its bound
in BENCHMARK.json:

  regressed   the change's median is worse than the parent's by more
              than the bound, however wide the spread;
  improved    the change wins at least 9 of 10 pairs and the medians
              differ by more than the parent's quartile spread;
  unresolved  the parent's quartile spread is wider than the bound and
              not every change run beats every parent run, so "no
              worse" cannot be told from noise;
  no worse    none of the above.

Exits 1 on a regression or when the change fails a larger share of its
checks than the parent, else 0. --self-test checks the verdict rule on
made-up samples.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("schema") != "quest-perf-v1":
            continue
        key = (record["workload"], record["trace"])
        runs.setdefault(key, {})[record["seed"]] = record
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, pairs, direction, bound):
    q1, median, q3 = quartiles(parent)
    iqr = q3 - q1
    spread = iqr / abs(median) if median else 0.0
    change_median = statistics.median(change)
    gain = (median - change_median if direction == "lower"
            else change_median - median)
    worse = -gain / abs(median) if median else 0.0
    all_better = all(better(c, p, direction) for c in change for p in parent)
    wins = sum(better(c, p, direction) for p, c in pairs)
    if worse > bound:
        return "regressed"
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr:
        return "improved"
    if spread > bound and not all_better:
        return "unresolved"
    return "no worse"


def self_test():
    """The verdict rule on made-up samples; exits 1 if any case fails."""
    quiet = [100.0 + i for i in range(10)]          # spread about 5%
    noisy = [60.0 + 10 * i for i in range(10)]      # spread about 43%
    cases = [
        # (parent, change, direction, bound, expected)
        (quiet, [v * 2 for v in quiet], "lower", 0.1, "regressed"),
        (noisy, [v * 2 for v in noisy], "lower", 0.1, "regressed"),
        (noisy, [v / 2 for v in noisy], "higher", 0.1, "regressed"),
        (quiet, [v * 0.5 for v in quiet], "lower", 0.1, "improved"),
        (quiet, [v * 1.05 for v in quiet], "lower", 0.1, "no worse"),
        (noisy, [v * 1.05 for v in noisy], "lower", 0.1, "unresolved"),
        (noisy, [v * 0.3 for v in noisy], "lower", 0.1, "improved"),
    ]
    failed = 0
    for parent, change, direction, bound, expected in cases:
        got = verdict(parent, change, list(zip(parent, change)), direction,
                      bound)
        if got != expected:
            failed += 1
            print(f"FAIL: expected {expected}, got {got} "
                  f"({direction}, bound {bound})")
    print(f"{len(cases) - failed}/{len(cases)} verdict cases passed")
    sys.exit(1 if failed else 0)


def failed_share(records):
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return failed / attempted if attempted else 0.0


def main():
    if sys.argv[1:] == ["--self-test"]:
        self_test()
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"]
                  for m in spec["end_to_end"] + spec["per_layer"]}
    parent_runs, change_runs = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        parents, changes = parent_runs[key], change_runs[key]
        seeds = sorted(set(parents) & set(changes))
        print(f"\n{workload} ({'traced' if trace else 'end to end'}): "
              f"{len(parents)} parent runs, {len(changes)} change runs, "
              f"{len(seeds)} pairs")
        if len(seeds) < MIN_PAIRS:
            print(f"  warning: fewer than {MIN_PAIRS} pairs; "
                  "no gain can be claimed")
        p_fail = failed_share(parents.values())
        c_fail = failed_share(changes.values())
        if c_fail > p_fail:
            print(f"  REGRESSED: failed share {c_fail:.4f} > {p_fail:.4f}")
            bad = True
        print(f"  {'metric':28s} {'parent q1/med/q3':>34s} "
              f"{'change q1/med/q3':>34s} {'wins':>6s}  verdict")
        for name in parents[seeds[0] if seeds else next(iter(parents))][
                "metrics"]:
            direction = directions.get(name, "lower")
            p_vals = [r["metrics"][name]["value"] for r in parents.values()]
            c_vals = [r["metrics"][name]["value"] for r in changes.values()]
            pairs = [(parents[s]["metrics"][name]["value"],
                      changes[s]["metrics"][name]["value"]) for s in seeds]
            wins = sum(better(c, p, direction) for p, c in pairs)
            text = "-"
            if name in bounds and not trace:
                text = verdict(p_vals, c_vals, pairs, direction,
                               bounds[name]["bound"])
                bad |= text == "regressed"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"  {name:28s} {fmt.format(*quartiles(p_vals)):>34s} "
                  f"{fmt.format(*quartiles(c_vals)):>34s} "
                  f"{wins:>3d}/{len(pairs):<2d}  {text}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
