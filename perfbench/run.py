"""Benchmark one driftstream workload end to end, or layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_PASSES = 3          # timed passes, however short the run
SETUP_PROBES = 10       # fresh interpreters timed for setup_s
REFERENCE_ITERATIONS = 500
# instances_per_s is scaled to a host on which reference_work() takes this
# long on average: the median of its mean times in the runs that set it
# (see README.md).
REFERENCE_S = 0.70e-3

# A fresh interpreter pays this before `driftstream run` does any work.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import driftstream.cli as cli
cli.parse_config_file(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""


class Run:
    """Operations attempted and failed in one run, and the checks' complaints."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, what, fn, *args):
        """Call fn; a raise counts as a failed operation and yields None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            print(f"{what} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None


def setup_probe(cfg_path: str) -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, cfg_path], env=env, cwd=ROOT,
                          check=True, capture_output=True, text=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(cli, flat, out_dir, *instruments):
    """One whole experiment through `run_experiment`; returns (start, end,
    digest of the files it wrote except the timing summary, trace path)."""
    from layers import Patches
    patches = Patches()
    for instrument in instruments:
        instrument.install(patches)
    try:
        start = time.perf_counter()
        summary = cli.run_experiment(dict(flat), out_dir=out_dir)
        end = time.perf_counter()
    finally:
        patches.restore()
    digest = hashlib.sha256()
    stem = os.path.splitext(summary["trace_path"])[0]
    for path in (summary["trace_path"], stem + ".leaderboard.json"):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digest.update(fh.read())
    if patches.absent:
        print("absent targets: " + ", ".join(patches.absent))
    return start, end, digest.hexdigest(), summary["trace_path"]


def reference_work():
    """Fixed pure-Python work of the kind a stream learner does: dict and list
    access, float arithmetic, small allocations, a generator and a sort."""
    stats = {}
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        row = [i * 0.5, (i % 13) * 1.5, i / 7.0]
        st = stats.get(i % 17)
        if st is None:
            st = stats[i % 17] = [0, 0.0, 0.0]
        st[0] += 1
        d = row[0] - st[1]
        st[1] += d / st[0]
        st[2] += d * (row[0] - st[1])
        acc += sum(v * v for v in row)
    return acc, sorted((v[1], k) for k, v in stats.items())


def measure_end_to_end(run, cli, wl, flat, cfg_path, seconds):
    """Timed passes and setup probes, interleaved, until `seconds` elapse.

    The host's speed swings by up to 2x within a second, and how much of the
    time it runs fast changes over tens of seconds. Every pass therefore
    also times reference_work() at fixed points all through it (the Ticker),
    so that program and reference sample the same stretches of the host.
    The time of one experiment is the mean pass time, without the reference
    loops, times REFERENCE_S over the mean reference time."""
    from layers import Ticker
    deadline = time.perf_counter() + seconds
    pass_times, references, probes, digests = [], [], [], set()
    for attempt in itertools.count(1):
        if len(probes) < SETUP_PROBES:
            probe = run.attempt("setup probe", setup_probe, cfg_path)
            if probe is not None:
                probes.append(probe)
        ticker = Ticker(wl.tick_every, reference_work)
        result = run.attempt("timed pass", run_pass, cli, flat, OUT, ticker)
        if result is not None:
            start, end, digest, _ = result
            pass_times.append(end - start - sum(ticker.probes))
            references += ticker.probes
            digests.add(digest)
        if time.perf_counter() >= deadline and attempt >= MIN_PASSES:
            break
    if not pass_times or not probes:
        raise RuntimeError("no timed pass or no setup probe completed")
    while len(probes) < SETUP_PROBES:
        probe = run.attempt("setup probe", setup_probe, cfg_path)
        if probe is None:
            break
        probes.append(probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s, reference_s = statistics.fmean(pass_times), statistics.fmean(references)
    print(f"timed passes: {len(pass_times)}, reference loops: {len(references)}; "
          f"setup probes: {len(probes)}")
    print(f"unscaled throughput {wl.n / pass_s:.6g} instances/s; "
          f"reference loop mean {reference_s * 1e3:.4f} ms, "
          f"fastest {min(references) * 1e3:.4f} ms")
    metrics = {
        "instances_per_s": (wl.n * reference_s / (pass_s * REFERENCE_S), "instances/s"),
        "setup_s": (min(probes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, digests


def measure_layers(run, cli, wl, flat, cfg_path, seconds):
    """Untraced and traced passes, alternating, until `seconds` elapse. The
    tracing overhead is the ratio of their mean times."""
    from layers import Tracer, layer_metrics, write_spans
    deadline = time.perf_counter() + seconds
    plain, traced, per_pass, digests = [], [], [], set()
    for attempt in itertools.count(1):
        for times, tracer in ((plain, None), (traced, Tracer())):
            instruments = [] if tracer is None else [tracer]
            result = run.attempt("pass", run_pass, cli, flat, OUT, *instruments)
            if result is not None:
                start, end, digest, trace_path = result
                times.append(end - start)
                digests.add(digest)
                if tracer is not None:
                    per_pass.append(layer_metrics(tracer.spans, trace_path))
                    spans = tracer.spans
        if time.perf_counter() >= deadline and attempt >= 2:
            break
    if not traced or not plain:
        raise RuntimeError("no traced or no untraced pass completed")
    metrics = {}
    for name, (_, unit, kind) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if kind == "count" and len(set(values)) > 1:
            print(f"note: count {name} differs between traced passes: {values}")
        metrics[name] = (min(values) if kind == "time" else values[-1], unit)
    overhead = statistics.fmean(traced) / statistics.fmean(plain) - 1.0
    metrics["tracing.overhead_pct"] = (100.0 * overhead, "%")
    spans_path = os.path.join(OUT, f"{wl.name}.spans.csv")
    write_spans(spans, spans_path)
    print(f"traced passes: {len(traced)}, untraced passes: {len(plain)}; spans in {spans_path}")
    return metrics, digests


def checked_pass(run, cli, wl, flat, cfg_path):
    """The untimed pass whose outputs the checks recompute. Returns the
    digest of its outputs and the sha256 of its trace, or None when it raised."""
    from layers import Recorder
    from checks import verify
    recorder = Recorder()
    result = run.attempt("checked pass", run_pass, cli, flat, OUT, recorder)
    if result is None:
        return None
    _, _, digest, trace_path = result
    try:
        errors = verify(wl, cfg_path, recorder, trace_path)
    except Exception:
        errors = [f"the checks raised:\n{traceback.format_exc()}"]
    if errors:
        run.failed += 1
        run.problems += errors
    with open(trace_path, "rb") as fh:
        return digest, hashlib.sha256(fh.read()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "driftstream", "cli.py")):
        print(f"perfbench: no driftstream sources in {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from driftstream import cli
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    run = Run()
    cfg_path = wl.prepare(args.seed, OUT, SRC)
    flat = cli.parse_config_file(cfg_path)
    setup_probe(cfg_path)  # untimed: the first interpreter writes the bytecode cache

    measure = measure_layers if args.trace else measure_end_to_end
    try:
        metrics, digests = measure(run, cli, wl, flat, cfg_path, args.seconds)
    except RuntimeError as exc:
        run.problems.append(str(exc))
        metrics, digests = {}, set()
    gc.collect()
    checked = checked_pass(run, cli, wl, flat, cfg_path)
    if checked is not None and digests - {checked[0]}:
        run.failed += 1
        run.problems.append(f"{len(digests - {checked[0]})} measured pass output(s) differ "
                            f"from the checked pass")
    correct = checked is not None and not run.problems

    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"trace_sha256 {checked[1] if checked else None}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
