"""Steadiness check: two interleaved sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--runs 10] [--trace 0]

For every workload in BENCHMARK.json, run i of set A (seed BASE + i) and run i of set B (seed
BASE + runs + i) follow each other, the set that goes first alternating with
i. For each end-to-end metric the command prints each set's median and
quartiles, the quartile spread as a share of the median, and how far set B's
median is from set A's, both against the metric's bound in BENCHMARK.json.
With --trace 0 it also prints, per set, the medians over its runs of the
unscaled throughput and of each run's mean and fastest reference-loop time. The raw results go to
perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASE_SEED = 1000
# run.py prints these on the lines above its result with --trace 0
UNSCALED = re.compile(r"^unscaled throughput (\S+) instances/s; "
                      r"reference loop mean (\S+) ms, fastest (\S+) ms$", re.M)


def one_run(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    found = UNSCALED.search(done.stdout)
    if found:
        result["unscaled_instances_per_s"] = float(found.group(1))
        result["mean_reference_ms"] = float(found.group(2))
        result["fastest_reference_ms"] = float(found.group(3))
    return result


def summarize(results, spec, trace):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    rows = []
    for workload, sets in results.items():
        for m in metrics:
            name, better = m["name"], m["better"]
            stats = []
            for runs in sets.values():
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                stats.append((med, q1, q3, (q3 - q1) / med if med else 0.0, len(values)))
            (med_a, *_), (med_b, *_) = stats
            worse = (med_b - med_a) / med_a if med_a else 0.0
            if better == "higher":
                worse = -worse
            rows.append((workload, name, m.get("bound"), stats, worse))
    return rows


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            order = (("A", BASE_SEED + i), ("B", BASE_SEED + args.runs + i))
            for label, seed in (order if i % 2 == 0 else order[::-1]):
                result = one_run(spec, w, seed, args.trace)
                result["seed"] = seed
                results[w][label].append(result)
                print(f"{w} set {label} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} " + " ".join(
                          f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    ok = True
    print(f"\n{'workload':18} {'metric':22} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'IQR/med':>8} {'n':>3}  B worse than A / bound")
    for workload, name, bound, stats, worse in summarize(results, spec, args.trace):
        for label, (med, q1, q3, spread, n) in zip("AB", stats):
            tail = ""
            if label == "B" and bound is not None:
                tail = f"  {100 * worse:+.2f}% / {100 * bound:.0f}%"
                spread_ok = name == "setup_s" or max(stats[0][3], spread) <= bound
                ok &= abs(worse) <= bound and spread_ok
            print(f"{workload:18} {name:22} {label:3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{100 * spread:7.2f}% {n:3d}{tail}")
    if not args.trace:
        print("\nper set, medians over its runs: unscaled throughput (instances/s), "
              "each run's mean and fastest reference loop time (ms)")
        for w, sets in results.items():
            for label, runs in sets.items():
                runs = [r for r in runs if "unscaled_instances_per_s" in r]
                if runs:
                    print(f"{w:18} {label} " + " ".join(
                        f"{statistics.median(r[key] for r in runs):12.6g}"
                        for key in ("unscaled_instances_per_s", "mean_reference_ms",
                                    "fastest_reference_ms")))
    failed_share = {w: {s: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                        for s, runs in sets.items()} for w, sets in results.items()}
    print(f"\nfailed share per set: {failed_share}")
    print("within bounds" if ok else "OUTSIDE BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
