#!/usr/bin/env python3
"""Compares bench_system runs against the bounds in BENCHMARK.json.

    compare.py BASE_DIR NEW_DIR            regression verdict per workload x metric
    compare.py --pairs BASE_DIR NEW_DIR    gain rule for a claimed improvement
    compare.py --spread DIR                run-to-run spread of one side

A directory holds run JSONs, one bench_system line per file, as
`run.py --save-dir DIR` writes them. Runs are grouped by workload; only
untraced runs carry end-to-end metrics, traced runs carry per-layer ones.

Default mode prints each side's median and quartiles and a verdict against
the metric's bound: "ok" (no worse than the bound), "REGRESSION", or
"unresolved" when either side's spread (interquartile range over median)
exceeds the bound and the new runs do not all read better than every base
run. Exits 1 on any regression.

--pairs pairs base and new runs of the same workload and seed, in the order
they ran, and reports "GAIN" only when there are at least 10 pairs, the new
side wins at least 9/10 of them (ties count for neither), and the medians
differ by more than the base side's interquartile range.

--spread prints each metric's interquartile range over median, which must
stay below a third of its bound for the benchmark to be steady.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    """{workload: [run, ...]} in the order the runs were written."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json"), key=lambda p: p.stat().st_mtime_ns):
        for line in reversed(path.read_text().splitlines()):
            line = line.strip()
            if line.startswith("{") and '"workload"' in line:
                run = json.loads(line)
                runs[run["workload"]].append(run)
                break
    return runs


def load_spec():
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    return metrics


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(base, new, better):
    """Relative change of `new` against `base`; positive means worse."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def reads_better(a, b, better):
    return a < b if better == "lower" else a > b


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def compare(base, new, spec):
    regressions = 0
    print(f"{'workload':16} {'metric':22} {'base median [q1, q3]':32} "
          f"{'new median [q1, q3]':32} {'change':>8} verdict")
    for workload in sorted(set(base) | set(new)):
        for name, m in spec.items():
            b, n = values(base.get(workload, []), name), values(new.get(workload, []), name)
            if not b or not n:
                continue
            change = worse_by(statistics.median(b), statistics.median(n), m["better"])
            verdict = "-"
            if m["bound"] is not None:
                if all(reads_better(x, y, m["better"]) for x in n for y in b):
                    verdict = "better"
                elif max(spread(b), spread(n)) > m["bound"]:
                    verdict = "unresolved"
                elif change > m["bound"]:
                    verdict = "REGRESSION"
                    regressions += 1
                else:
                    verdict = "ok"
            print(f"{workload:16} {name:22} {fmt(quartiles(b)):32} {fmt(quartiles(n)):32} "
                  f"{100 * change:+7.1f}% {verdict}")
        failed_b = sum(r["failed"] for r in base.get(workload, []))
        failed_n = sum(r["failed"] for r in new.get(workload, []))
        wrong = sum(r["wrong"] for r in new.get(workload, []))
        print(f"{workload:16} {'failed / wrong':22} {failed_b:<32} {f'{failed_n} / {wrong}':32}")
    return 1 if regressions else 0


def pairs(base, new, spec):
    print(f"{'workload':16} {'metric':22} {'pairs':>5} {'wins':>5} {'gap':>10} {'base IQR':>10} claim")
    for workload in sorted(set(base) & set(new)):
        by_seed = defaultdict(lambda: ([], []))
        for r in base[workload]:
            by_seed[r["seed"]][0].append(r)
        for r in new[workload]:
            by_seed[r["seed"]][1].append(r)
        matched = [(b, n) for bs, ns in by_seed.values() for b, n in zip(bs, ns)]
        for name, m in spec.items():
            ps = [(b["metrics"][name]["value"], n["metrics"][name]["value"])
                  for b, n in matched if name in b["metrics"] and name in n["metrics"]]
            if not ps:
                continue
            wins = sum(reads_better(n, b, m["better"]) for b, n in ps)
            b_vals = [b for b, _ in ps]
            q1, _, q3 = quartiles(b_vals)
            gap = abs(statistics.median([n for _, n in ps]) - statistics.median(b_vals))
            claim = "GAIN" if (len(ps) >= MIN_PAIRS and wins >= WIN_SHARE * len(ps)
                               and gap > q3 - q1) else "no gain"
            if len(ps) < MIN_PAIRS:
                claim += f" (needs {MIN_PAIRS} pairs)"
            print(f"{workload:16} {name:22} {len(ps):5} {wins:5} {gap:10.4g} {q3 - q1:10.4g} {claim}")
    return 0


def spreads(runs, spec):
    print(f"{'workload':16} {'metric':22} {'runs':>4} {'median [q1, q3]':32} {'spread':>8} {'bound/3':>8}")
    unsteady = 0
    for workload in sorted(runs):
        for name, m in spec.items():
            vals = values(runs[workload], name)
            if not vals:
                continue
            s = spread(vals)
            limit = m["bound"] / 3 if m["bound"] is not None else None
            flag = "" if limit is None or s < limit or name == "setup_s" else "  UNSTEADY"
            unsteady += bool(flag)
            print(f"{workload:16} {name:22} {len(vals):4} {fmt(quartiles(vals)):32} "
                  f"{100 * s:7.2f}% {'' if limit is None else f'{100 * limit:7.2f}%'}{flag}")
    return 1 if unsteady else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--pairs", action="store_true")
    mode.add_argument("--spread", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.spread:
        if len(args.dirs) != 1:
            parser.error("--spread takes one directory")
        return spreads(load_runs(args.dirs[0]), spec)
    if len(args.dirs) != 2:
        parser.error("give BASE_DIR and NEW_DIR")
    base, new = load_runs(args.dirs[0]), load_runs(args.dirs[1])
    return pairs(base, new, spec) if args.pairs else compare(base, new, spec)


if __name__ == "__main__":
    sys.exit(main())
