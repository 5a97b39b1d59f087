"""Smoke run of the benchmark: one pass of every workload, untraced and traced.

Run from the root of a riskrev checkout:

    python3 perfbench/smoke.py                  # check, about two minutes on 2 cores
    python3 perfbench/smoke.py --record-digests # also rewrite perfbench/digests.json

It runs ``run.py --seconds 1`` (the shortest run: one pass, or one pass of
each kind when traced) for every workload in ``BENCHMARK.json`` and checks
that each run exits 0, that its last line has exactly the result keys, that
every workload check passed, that every declared metric appears with its
declared unit (end-to-end metrics nonzero), and that tracing leaves the
output digests unchanged.  It also checks that the benchmark refuses to run,
without printing a result, in a copy that holds only ``BENCHMARK.json`` and
the benchmark's own files.  Exit status 0 means every check passed.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_run(spec, workload, trace):
    """Failure messages of one run, and the digests it printed."""
    code, lines, stderr = run_benchmark(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if code != 0 or not lines:
        return [f"{where}: exit {code}: {stderr.strip()[-500:]}"], None
    result = json.loads(lines[-1])
    failures = []
    if set(result) != RESULT_KEYS:
        failures.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        failing = [line for line in lines if "FAIL" in line]
        failures.append(f"{where}: checks failed: {failing or result}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(expected):
        failures.append(f"{where}: metrics differ: missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        metric = got.get(name)
        if metric is None:
            continue
        value = metric["value"]
        if metric["unit"] != unit:
            failures.append(f"{where}: {name} has unit {metric['unit']!r}, declared {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{where}: {name} = {value!r} is not a finite number")
        elif not trace and value == 0:
            failures.append(f"{where}: end-to-end metric {name} is 0")
    digests = next((json.loads(line[len("digests "):]) for line in lines if line.startswith("digests ")), None)
    return failures, digests


def check_bare_copy(spec):
    """The benchmark must refuse to run without the package, printing no result."""
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run_benchmark(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(ROOT / ".perfbench_tmp", ignore_errors=True)
    if code == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare copy: exit {code}, last line {lines[-1] if lines else ''!r}"]
    return []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--record-digests", action="store_true",
                        help="write the untraced digests to perfbench/digests.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = check_bare_copy(spec)
    recorded = {}
    for workload in (w["name"] for w in spec["workloads"]):
        plain_failures, plain = check_run(spec, workload, 0)
        traced_failures, traced = check_run(spec, workload, 1)
        failures += plain_failures + traced_failures
        if plain is not None and traced is not None and plain != traced:
            failures.append(f"{workload}: tracing changed the output digests")
        recorded[workload] = {str(SEED): plain}
        print(f"{workload}: {'ok' if not plain_failures + traced_failures else 'FAILED'}", flush=True)
    if args.record_digests and not failures:
        (HERE / "digests.json").write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        print("wrote perfbench/digests.json")
    for failure in failures:
        print("FAIL " + failure)
    print("smoke: " + ("FAILED" if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
