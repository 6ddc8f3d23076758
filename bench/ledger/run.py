#!/usr/bin/env python3
"""Builds the ledger benchmark from source and runs one workload.

    python3 bench/ledger/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1] [--spans-dir DIR]
                                [--record FILE --set N]
    python3 bench/ledger/run.py --smoke

Run from the repository root. The first call configures and builds
bench/ledger (a CMake project that pulls in the repository's libraries) under
.bench_build/ledger; later calls rebuild only what changed. Build output and
the run's readable report go to stderr. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end ones of BENCHMARK.json, with --trace 1 the
per_layer ones; a traced run also writes its spans to
<spans-dir>/spans_<workload>.json.

--record FILE appends the result to a run file (see compare.py) and --set
labels it. --smoke runs every workload briefly, traced and untraced, and
checks that each prints exactly the metric names BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "ledger"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"run.py: no repository sources under {ROOT}; nothing to build")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "ledger", "-j",
         str(len(os.sched_getaffinity(0)))],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "ledger"


def run_ledger(binary, workload, seed, seconds, trace, spans_dir, smoke=False):
    """Runs one workload; returns (exit code, env dict, result dict)."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--work-dir={BUILD / 'work' / f'{workload}-{os.getpid()}'}",
           f"--spans-dir={spans_dir}"]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None, None
    env, result = None, None
    for line in proc.stdout.splitlines():
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
        elif line.startswith("{"):
            result = json.loads(line)
    return proc.returncode, env, result


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(path, workload, seconds, run_set, seed, env, result):
    path = Path(path)
    meta = {"workload": workload, "nproc": env["nproc"],
            "backend": env["backend"], "git_sha": git_sha(),
            "seconds": seconds}
    data = json.loads(path.read_text()) if path.exists() else dict(meta,
                                                                   runs=[])
    for key, value in meta.items():
        if data[key] != value:
            log(f"run.py: {path} holds {key}={data[key]!r}, this run has "
                f"{value!r}; not mixing them")
            sys.exit(1)
    data["runs"].append({
        "set": run_set, "seed": seed, "correct": result["correct"],
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
    path.write_text(json.dumps(data, indent=1) + "\n")


def smoke(binary, spans_dir):
    bench = spec()
    expected = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, _, result = run_ledger(binary, workload, 1, 0.3, trace,
                                         spans_dir, smoke=True)
            names = list(result["metrics"]) if result else []
            good = code == 0 and names == expected[trace]
            ok = ok and good
            log(f"smoke: {workload} trace={trace}: "
                f"{'ok' if good else 'FAILED'} (exit {code}, "
                f"{len(names)} metrics)")
            if result and names != expected[trace]:
                log(f"  missing: {sorted(set(expected[trace]) - set(names))}")
                log(f"  extra:   {sorted(set(names) - set(expected[trace]))}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-dir", default=str(BUILD / "trace"))
    parser.add_argument("--record")
    parser.add_argument("--set", type=int, default=1, dest="run_set")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")
    binary = build()
    if args.smoke:
        return smoke(binary, args.spans_dir)

    seconds = args.seconds if args.seconds else spec()["run_seconds"]
    code, env, result = run_ledger(binary, args.workload, args.seed, seconds,
                                   args.trace, args.spans_dir)
    if result is None:
        log("run.py: the ledger printed no result")
        return code or 1
    if args.record:
        record(args.record, args.workload, seconds, args.run_set, args.seed,
               env, result)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
