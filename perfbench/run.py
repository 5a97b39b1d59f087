"""riskrev benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

Run from the root of a riskrev checkout; the package is imported from the
checkout's ``src`` directory, never from an installed copy:

    python3 perfbench/run.py --workload reversal --seed 1 --seconds 25 --trace 0

``--trace 0`` runs untraced passes of the workload for about ``--seconds``
seconds (at least one) and reports the end-to-end metrics: ``wall_s``, the
median over passes of the pass's wall time calibrated to the host's nominal
speed (see ``calibrate.py``; the uncalibrated median is printed too);
``items_per_s``, the pass's fixed work over ``wall_s`` (see
``workloads.py``); ``setup_s``, the median of five set-ups (import of
riskrev, which loads scipy, plus building the inputs), one in this process
and four in fresh interpreters, each calibrated by speed samples taken just
before and after it; and ``peak_rss_mb``, the peak resident memory of this
process after its first pass, so that it does not grow with the number of
passes.  The benchmark's own modules, and numpy, are loaded before the
set-up window opens.

``--trace 1`` alternates untraced and traced passes (at least one of each),
reports the per-layer metrics of the traced passes (medians over passes),
the tracing overhead, and the layer micro-timings of ``micro.py``.

Every pass is checked; its operations count as attempted, and those that
raise, exit non-zero or fail the workload check count as failed.  All
passes of a run must also produce bitwise identical outputs, whose sha256
digests are printed and compared with ``digests.json`` (a digest change is
reported, not counted as a failure).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in turn, each in its
own process so that peak memory stays per workload.

Exit status: 0 when a result was printed, 2 on a usage error or when the
checkout has no ``src/riskrev`` package.
"""

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("gaussfn", "geometry", "exact_risk", "asymptotics", "montecarlo", "cli")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120

import micro
from calibrate import SpeedSampler, timed_setup
from tracing import Tracer, WRAPS, layer_metrics, self_time_shares
from workloads import WORKLOADS, PassResult


class PackageMissing(RuntimeError):
    """The checkout has no riskrev package to benchmark."""


def load_riskrev():
    """Import the riskrev modules from ``<checkout>/src``."""
    src = ROOT / "src"
    if not (src / "riskrev" / "__init__.py").is_file():
        raise PackageMissing(f"no riskrev package at {src / 'riskrev'}; run from a riskrev checkout")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"riskrev.{name}") for name in MODULES}
    for module in modules.values():
        if src not in Path(module.__file__).resolve().parents:
            raise PackageMissing(f"{module.__name__} was imported from {module.__file__}, not {src}")
    return SimpleNamespace(**modules)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measured_workers(rr):
    """Distinct threads that draw chunks in a small multi-chunk mc_risk call."""
    tracer = Tracer(vars(rr), wraps=[w for w in WRAPS if w[2] == "montecarlo.draw"])
    g = rr.geometry.ExampleGeometry(c=1.0)
    query = rr.exact_risk.RiskQuery(theta_star=(0.0, 0.0), sigma=1.0)
    with tracer:
        rr.montecarlo.mc_risk(g.segment(), query, rr.montecarlo.MCConfig(n=64, chunk=1))
    return tracer.snapshot().draw_threads


def machine_block(rr, seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "RISKREV_THREADS": os.environ.get("RISKREV_THREADS"),
        "workers_measured": measured_workers(rr),
        "DEFAULT_CHUNK": rr.montecarlo.DEFAULT_CHUNK,
        "seed": seed,
    }


def probe_setup(args):
    """(set-up time, calibrated set-up time) of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["raw_s"], probe["setup_s"]


def one_pass(workload, tracer):
    gc.collect()
    if tracer is not None:
        tracer.reset()
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        ops = workload.run()
        wall = time.perf_counter() - start
    result = PassResult(ops, wall, start, trace=tracer.snapshot() if tracer is not None else None)
    errors = [(op.name, op.error) for op in ops if op.error]
    try:
        result.failures = errors or workload.check(result)
    except Exception:
        # output the check cannot read is a failed check, not a benchmark crash
        result.failures = [("check", traceback.format_exc(limit=3))]
    return result


def run_passes(workload, seconds, tracer, sampler=None):
    """Passes until the next would overrun ``seconds``; traced runs alternate and do both kinds.

    A ``sampler`` takes a speed sample after every pass.
    """
    passes = []
    begun = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(one_pass(workload, tracer if traced else None))
        if sampler is not None:
            sampler.sample()
        if len(passes) == 1:
            passes[0].peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer is not None and len(passes) < 2:
            continue
        if time.perf_counter() - begun + passes[-1].wall_s > seconds:
            return passes


def calibrated_passes(workload, seconds):
    """Untraced passes under the speed sampler; sets each pass's own and calibrated time."""
    with SpeedSampler() as sampler:
        passes = run_passes(workload, seconds, None, sampler)
    for p in passes:
        p.own_s, p.calibrated_s = sampler.calibrate(p.start, p.start + p.wall_s)
    return passes, sampler


def digest_status(workload_name, seed, digests):
    try:
        with open(HERE / "digests.json", encoding="utf-8") as handle:
            baseline = json.load(handle).get(workload_name, {}).get(str(seed))
    except FileNotFoundError:
        baseline = None
    if baseline is None:
        return "unrecorded"
    changed = sorted(k for k in set(baseline) | set(digests) if baseline.get(k) != digests.get(k))
    return "changed: " + ", ".join(changed) if changed else "match"


def _median_metrics(dicts):
    return {
        name: (statistics.median(d[name][0] for d in dicts), unit)
        for name, (_, unit) in dicts[0].items()
    }


def trace_metrics(rr, passes):
    traced = [p for p in passes if p.trace is not None]
    untraced = [p for p in passes if p.trace is None]
    per_pass = [layer_metrics(p.trace, p.wall_s) for p in traced]
    metrics = _median_metrics(per_pass)
    plain = statistics.median(p.wall_s for p in untraced)
    metrics["trace.overhead_frac"] = (metrics["trace.wall_s"][0] / plain - 1.0, "frac")
    metrics.update(micro.measure(rr))
    return metrics


def set_up(args):
    rr = load_riskrev()
    return rr, WORKLOADS[args.workload](rr, args.seed)


def run_one(args):
    try:
        (rr, workload), raw_s, setup_s = timed_setup(lambda: set_up(args))
    except PackageMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"raw_s": raw_s, "setup_s": setup_s}))
        return 0
    setups = [(raw_s, setup_s)] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
    machine = machine_block(rr, args.seed)
    print(f"riskrev benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))

    if args.trace:
        tracer = Tracer(vars(rr))
        passes = run_passes(workload, args.seconds, tracer)
    else:
        passes, sampler = calibrated_passes(workload, args.seconds)

    attempted = failed = 0
    for index, p in enumerate(passes, 1):
        bad = {name for name, _ in p.failures}
        attempted += len(p.ops)
        failed += min(len(p.ops), len(bad))
        kind = "untraced" if p.trace is None else "traced"
        timing = f"{p.wall_s:.4f} s {kind}"
        if p.calibrated_s is not None:
            timing += f" ({p.own_s:.4f} s without sampling, {p.calibrated_s:.4f} s calibrated)"
        print(f"pass {index}: {timing}, {len(p.ops)} ops, {len(bad)} failed")
        for name, message in p.failures:
            print(f"  FAIL {name}: {message.strip()}")
    digest_sets = {json.dumps(p.digests, sort_keys=True) for p in passes}
    reproducible = len(digest_sets) == 1
    if not reproducible:
        print("  FAIL passes produced different outputs for the same inputs")
    digests = passes[0].digests
    print("digests " + json.dumps(digests, sort_keys=True))
    print(f"digest status vs digests.json: {digest_status(args.workload, args.seed, digests)}")
    print("setup_s samples (uncalibrated, calibrated) " + json.dumps([[round(s, 6) for s in pair] for pair in setups]))

    if args.trace:
        if tracer.missing:
            print("not wrapped (absent in this version): " + ", ".join(tracer.missing))
        metrics = trace_metrics(rr, passes)
        last = [p for p in passes if p.trace is not None][-1]
        print(f"self time of the last traced pass ({last.wall_s:.4f} s):")
        for name, seconds, share in self_time_shares(last.trace, last.wall_s):
            print(f"  {name:45s} {seconds:10.4f} s {100 * share:6.1f} %")
    else:
        slowdown = statistics.median(s.slowdown for s in sampler.samples)
        print(f"host slowdown: median {slowdown:.3f} over {len(sampler.samples)} samples, "
              f"{sampler.skipped} in-pass samples skipped while riskrev ran threads; uncalibrated "
              f"median pass {statistics.median(p.own_s for p in passes):.4f} s, "
              f"median setup {statistics.median(raw for raw, _ in setups):.4f} s")
        wall = statistics.median(p.calibrated_s for p in passes)
        metrics = {
            "wall_s": (wall, "s"),
            "items_per_s": (workload.items / wall, "1/s"),
            "setup_s": (statistics.median(calibrated for _, calibrated in setups), "s"),
            "peak_rss_mb": (passes[0].peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and reproducible,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process; metrics are prefixed with the workload name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
