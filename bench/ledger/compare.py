#!/usr/bin/env python3
"""Compares two sets of ledger runs, workload by workload.

    python3 bench/ledger/compare.py BASE CHANGE

BASE and CHANGE are run files written by run.py --record
(BENCH_<workload>.json) or directories of them. Append @N to take only the
runs recorded with --set N, e.g. to check the committed baselines against
themselves:

    python3 bench/ledger/compare.py bench/ledger/baselines@1 \\
                                    bench/ledger/baselines@2

For every end-to-end metric of BENCHMARK.json it prints, one row per
workload, each side's median and quartiles (statistics.quantiles, n=4), the
spread (quartile distance over the median) and the change of the median in
the metric's bad direction. A change worse than the metric's bound is a
REGRESSION; when either side's spread is wider than the bound the row is
"unresolved" instead, unless every CHANGE run is worse than every BASE run.
Runs whose backend or nproc differ, or whose seed lists differ, are not
compared. Exits 1 on any regression, 2 when the inputs cannot be compared.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load(arg):
    """Returns {workload: run file dict} for a file or directory argument."""
    path, _, run_set = arg.partition("@")
    path = Path(path)
    files = sorted(path.glob("BENCH_*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        data = json.loads(f.read_text())
        if run_set:
            data["runs"] = [r for r in data["runs"]
                            if r["set"] == int(run_set)]
        if data["runs"]:
            out[data["workload"]] = data
    return out


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    base, change = load(argv[1]), load(argv[2])
    common = [w for w in base if w in change]
    if not common:
        print("compare.py: no workload has runs on both sides",
              file=sys.stderr)
        return 2
    for w in common:
        a, b = base[w], change[w]
        for key in ("backend", "nproc"):
            if a[key] != b[key]:
                print(f"compare.py: {w}: {key} differs ({a[key]} vs "
                      f"{b[key]}); not comparing", file=sys.stderr)
                return 2
        if min(len(a["runs"]), len(b["runs"])) < 2:
            print(f"compare.py: {w}: quartiles need at least two runs per "
                  "side", file=sys.stderr)
            return 2
        if sorted(r["seed"] for r in a["runs"]) != sorted(
                r["seed"] for r in b["runs"]):
            print(f"compare.py: {w}: the two sides ran different seeds; not "
                  "comparing", file=sys.stderr)
            return 2

    regressions = 0
    header = (f"{'workload':<14} {'base median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'spread':>13} {'worse':>8} "
              f"{'bound':>6}  status")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        print(f"\n{name} ({m['unit']}, {m['better']} is better)")
        print(header)
        for w in common:
            av = [r["metrics"][name] for r in base[w]["runs"]]
            bv = [r["metrics"][name] for r in change[w]["runs"]]
            am, aq1, aq3, aspread = summary(av)
            bm, bq1, bq3, bspread = summary(bv)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (bm - am) / am
            all_worse = min(sign * x for x in bv) > max(sign * x for x in av)
            if max(aspread, bspread) > bound and not all_worse:
                status = "unresolved"
            elif worse > bound:
                status = "REGRESSION"
                regressions += 1
            else:
                status = "ok"
            print(f"{w:<14} {am:>12.5g} [{aq1:.5g}, {aq3:.5g}]"
                  f"{'':>1} {bm:>12.5g} [{bq1:.5g}, {bq3:.5g}] "
                  f"{aspread:>6.3f}/{bspread:<6.3f} {worse:>+8.3f} "
                  f"{bound:>6.2f}  {status}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
