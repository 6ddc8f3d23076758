#!/usr/bin/env python3
"""Diff two bench JSON artifacts and fail on regressions.

Usage: bench_compare.py BASELINE.json CANDIDATE.json
           [--threshold 0.20] [--latency-threshold 0.50]
       bench_compare.py --matrix BASELINE_DIR CANDIDATE_DIR
           [--threshold 0.20] [--latency-threshold 0.50]

Understands bench_scenarios artifacts and Google Benchmark --benchmark_out
documents (a "benchmarks" array: per-benchmark real_time of same-named
iteration entries diff as latency metrics, so same-backend pairs of
bench_micro_krr artifacts — e.g. yesterday's BENCH_micro_krr_avx512.json
against today's — gate directly).
Every known metric present in BOTH files is compared. Refuses (exit 1) to
diff artifacts whose configuration identity differs — numeric backend or
KRR training mode ("context.sy_num_backend"/"context.sy_training_mode" in
Google Benchmark output), or the scenario — a mode change is not a
regression.

Metric categories:
  throughput  higher is better; a drop beyond --threshold (default 20%)
              fails the run.
  latency     lower is better; sourced from obs histograms (scenario
              score latencies) and Google Benchmark real_time. By
              default these only warn — they are noisier on shared CI
              runners — but passing --latency-threshold gates them: a rise
              beyond that fraction fails the run.
  info        lower is better, never gated (noisy once-per-run
              measurements).

Matrix mode (--matrix) diffs two DIRECTORIES of bench_scenarios artifacts
(BENCH_scenarios_*.json): files pair up by their "scenario" value, every
pair diffs with the scenario summary metrics below, a scenario present in
the baseline but missing from the candidate fails the run (coverage
regression), and a candidate artifact with "passed": false fails it too.

Exit code: 0 = no gated regression, 1 = regression or unusable input.
"""

import argparse
import glob
import json
import os
import sys

# (dotted path, label, category) where category is one of
# "throughput" (gated by --threshold), "latency" (gated by
# --latency-threshold when given, warn-only otherwise), "info" (never gated).
METRICS = [
    # bench_scenarios artifacts (summary object, one file per scenario).
    # Security-quality metrics where lower is better ride the latency
    # category; accept rates and throughputs gate like throughput.
    ("summary.far_under_attack", "FAR under attack", "latency"),
    ("summary.detection_latency_s_p50", "detection latency p50 (s)",
     "latency"),
    ("summary.detection_latency_s_p90", "detection latency p90 (s)",
     "latency"),
    ("summary.lockout_rate", "attack lockout rate", "throughput"),
    ("summary.genuine_accept_rate", "genuine accept rate under attack",
     "throughput"),
    ("summary.pickup_frr_matched", "pickup FRR (matched context)", "latency"),
    ("summary.pickup_frr_mismatched", "pickup FRR (stale context)", "info"),
    ("summary.steady_frr", "steady-state FRR", "latency"),
    ("summary.accept_rate_final", "post-retrain accept rate", "throughput"),
    ("summary.retrain_triggers", "confidence retrain triggers", "info"),
    ("summary.steady_windows_per_s", "steady scoring throughput (windows/s)",
     "throughput"),
    ("summary.burst_windows_per_s", "burst scoring throughput (windows/s)",
     "throughput"),
    ("summary.score_us_p50", "score latency p50 (us)", "latency"),
    ("summary.score_us_p99", "score latency p99 (us)", "latency"),
]


def lookup(doc, dotted):
    node = doc
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


# Configuration identity keys: timings from different numeric backends or
# KRR training modes measure different code paths, so diffing them would
# "detect" a regression that is really a configuration change. The Google
# Benchmark --benchmark_out shape carries them under "context", where custom
# context entries land.
IDENTITY_KEYS = [
    "context.sy_training_mode",
    "context.sy_num_backend",
    # bench_scenarios: two different scenarios measure different campaigns.
    "scenario",
]


def lookup_str(doc, dotted):
    node = doc
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, str) else None


def identity_mismatches(baseline, candidate):
    """Identity keys present in BOTH files but with different values."""
    out = []
    for key in IDENTITY_KEYS:
        base = lookup_str(baseline, key)
        cand = lookup_str(candidate, key)
        if base is not None and cand is not None and base != cand:
            out.append((key, base, cand))
    return out


def gbench_runs(doc):
    """name -> real_time for a Google Benchmark --benchmark_out document.

    Only plain iteration entries are taken (aggregates and BigO/RMS
    complexity fits have run_type/name forms of their own and are skipped);
    the time_unit is whatever the benchmark declared, which is fine for a
    relative diff because same-named entries share it.
    """
    runs = {}
    for entry in doc.get("benchmarks", []):
        if not isinstance(entry, dict):
            continue
        if entry.get("run_type", "iteration") != "iteration":
            continue
        name = entry.get("name")
        real_time = entry.get("real_time")
        if isinstance(name, str) and isinstance(real_time, (int, float)):
            runs[name] = real_time
    return runs


def compare_docs(baseline, candidate, args):
    """Diffs two parsed artifacts; returns (compared_count, regressions)."""
    pairs = []
    for path, label, category in METRICS:
        pairs.append((label, lookup(baseline, path),
                      lookup(candidate, path), category))
    # Google Benchmark artifacts: same-named iteration entries diff as
    # latency metrics (real_time, lower is better).
    cand_runs = gbench_runs(candidate)
    for name, base_time in sorted(gbench_runs(baseline).items()):
        pairs.append((f"{name} real_time", base_time, cand_runs.get(name),
                      "latency"))

    compared = 0
    regressions = []
    for label, base, cand, category in pairs:
        if base is None or cand is None or base == 0:
            continue
        compared += 1
        change = (cand - base) / base
        arrow = "+" if change >= 0 else ""
        line = (f"  {label:55s} {base:12.3f} -> {cand:12.3f} "
                f"({arrow}{100 * change:.1f}%)")
        if category == "throughput" and change < -args.threshold:
            regressions.append(label)
            print(line + "  REGRESSION")
        elif category == "latency":
            if (args.latency_threshold is not None
                    and change > args.latency_threshold):
                regressions.append(label)
                print(line + "  REGRESSION")
            elif change > args.threshold:
                print(line + "  warn (lower is better; not gated)")
            else:
                print(line)
        elif category == "info" and change > args.threshold:
            print(line + "  warn (lower is better; not gated)")
        else:
            print(line)
    return compared, regressions


def load_json(path):
    with open(path) as f:
        return json.load(f)


def scenario_artifacts(directory):
    """scenario name -> parsed artifact for every *.json with a "scenario"."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        try:
            doc = load_json(path)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_compare: skipping {path}: {e}", file=sys.stderr)
            continue
        name = doc.get("scenario")
        if isinstance(name, str):
            out[name] = doc
    return out


def run_matrix(args):
    """Pair scenario artifacts across two directories and diff each pair."""
    base_docs = scenario_artifacts(args.baseline)
    cand_docs = scenario_artifacts(args.candidate)
    if not base_docs:
        print(f"bench_compare: no scenario artifacts in {args.baseline}",
              file=sys.stderr)
        return 1

    failed = []
    compared_total = 0
    for name, base in sorted(base_docs.items()):
        cand = cand_docs.get(name)
        if cand is None:
            # A scenario the baseline measured but the candidate didn't is a
            # coverage regression, not a harmless diff.
            print(f"\n[{name}] MISSING from candidate")
            failed.append(f"{name}: missing artifact")
            continue
        print(f"\n[{name}]")
        if cand.get("passed") is False:
            for reason in cand.get("failures", []):
                print(f"  candidate invariant violated: {reason}")
            failed.append(f"{name}: candidate run failed its invariants")
        compared, regressions = compare_docs(base, cand, args)
        compared_total += compared
        failed.extend(f"{name}: {label}" for label in regressions)
    for name in sorted(set(cand_docs) - set(base_docs)):
        print(f"\n[{name}] new in candidate (no baseline; skipped)")

    if compared_total == 0:
        print("bench_compare: no comparable scenario metrics found",
              file=sys.stderr)
        return 1
    if failed:
        print(f"\nbench_compare: matrix failed: " + ", ".join(failed))
        return 1
    print(f"\nbench_compare: {len(base_docs)} scenario(s), "
          f"{compared_total} metrics compared, no gated regression")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="fractional throughput drop that fails "
                             "(default 0.20)")
    parser.add_argument("--latency-threshold", type=float, default=None,
                        help="fractional latency rise that fails; omit to "
                             "keep latency metrics warn-only")
    parser.add_argument("--matrix", action="store_true",
                        help="treat BASELINE/CANDIDATE as directories of "
                             "bench_scenarios artifacts paired by scenario")
    args = parser.parse_args()

    if args.matrix:
        return run_matrix(args)

    try:
        baseline = load_json(args.baseline)
        candidate = load_json(args.candidate)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read inputs: {e}", file=sys.stderr)
        return 1

    mismatches = identity_mismatches(baseline, candidate)
    if mismatches:
        for key, base, cand in mismatches:
            print(f"bench_compare: refusing to compare: {key} differs "
                  f"({base!r} vs {cand!r})", file=sys.stderr)
        return 1

    compared, regressions = compare_docs(baseline, candidate, args)
    if compared == 0:
        print("bench_compare: no comparable metrics found in both files",
              file=sys.stderr)
        return 1
    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s) beyond the "
              f"gate: " + ", ".join(regressions))
        return 1
    print(f"bench_compare: {compared} metrics compared, no gated regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
