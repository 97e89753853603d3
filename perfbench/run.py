"""hyperharm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every pass runs in its own worker process
(``worker.py``), one at a time, with the library's default thread pool and
BLAS/OpenMP pinned to one thread unless the environment already sets them.

--trace 0 runs untraced passes until another one would overrun --seconds
(at least one), then set-up-only workers until there are five set-up
samples, and reports the end-to-end metrics. --trace 1 runs one untraced and
one traced pass and reports the per-layer metrics.

Every pass's gated values are checked against ``reference.json`` (values
the seed commit produced) when it holds the seed, otherwise for finiteness
and non-failing status only. The last stdout line is the result object; the
line before it records the environment, the samples and the check details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
TMP_DIR = ROOT / ".perfbench_tmp"
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
THREAD_VARS = ("HYPERHARM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    return env


def _environment(env) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "HYPERHARM_THREADS": env.get("HYPERHARM_THREADS"),
        **{var: env.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = _child_env()

    def child(self, mode) -> dict:
        TMP_DIR.mkdir(exist_ok=True)
        out_dir = tempfile.mkdtemp(dir=TMP_DIR)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), self.workload,
                 str(self.seed), out_dir, mode],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker ran past the deadline") from exc
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                             + proc.stderr[-3000:])
        return json.loads(lines[-1])


class Checker:
    """Counts gated values checked and failed across passes."""

    def __init__(self, reference, rtol, atol):
        self.reference = reference
        self.rtol = rtol
        self.atol = atol
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def _fail(self, what):
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(what)

    def check(self, values):
        for key, val in values.items():
            self.attempted += 1
            ref = None if self.reference is None else self.reference.get(key)
            if isinstance(val, str):
                if val == "fail" or (ref is not None and val != ref):
                    self._fail(f"{key}: {val!r}, reference {ref!r}")
            elif not math.isfinite(val):
                self._fail(f"{key}: {val!r} is not finite")
            elif key == "exit_code" and val != 0:
                self._fail(f"{key}: {val!r}")
            elif ref is not None and not (
                    abs(val - ref) <= self.rtol * abs(ref) + self.atol):
                self._fail(f"{key}: {val!r}, reference {ref!r}")
        if self.reference is not None:
            for key in self.reference.keys() - values.keys():
                self.attempted += 1
                self._fail(f"{key}: missing")

    def same(self, first, second, what):
        """Values that must be identical between two passes."""
        for key in first.keys() | second.keys():
            self.attempted += 1
            if first.get(key) != second.get(key):
                self._fail(f"{key}: {what} {first.get(key)!r} vs "
                           f"{second.get(key)!r}")


def _tail(samples):
    """Highest sample with at least ten samples above it, or None."""
    n = len(samples)
    if n < 20:
        return None
    return {"percentile": 100.0 * (n - 10) / n,
            "value": sorted(samples)[n - 11]}


def _metric_specs(kind):
    with open(SPEC) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec[kind]]


def measure(args, runner, checker, info):
    walls, setups, rss = [], [], []
    first = None
    start = time.monotonic()
    while True:
        doc = runner.child("pass")
        checker.check(doc["values"])
        if first is None:
            first = doc["values"]
        else:
            checker.same(first, doc["values"], "differs between passes")
        walls.append(doc["wall_s"])
        setups.append(doc["setup_s"])
        rss.append(doc["peak_rss_mb"])
        info["environment"].update(doc["environment"])
        elapsed = time.monotonic() - start
        if elapsed + walls[-1] > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        doc = runner.child("setup")
        setups.append(doc["setup_s"])
    info["wall_s"] = {"median": statistics.median(walls),
                      "samples": len(walls), "values": walls,
                      "tail": _tail(walls)}
    info["setup_s"] = {"median": statistics.median(setups),
                       "values": setups}
    measured = {"wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": max(rss)}
    return {name: {"value": measured[name], "unit": unit}
            for name, unit in _metric_specs("end_to_end")}


def trace(args, runner, checker, info):
    plain = runner.child("pass")
    traced = runner.child("traced")
    info["environment"].update(traced["environment"])
    checker.check(plain["values"])
    checker.check(traced["values"])
    checker.same(plain["values"], traced["values"], "changed by tracing")
    layers = traced["trace"]
    layers["trace.overhead_s"] = {"value": traced["wall_s"]
                                  - plain["wall_s"]}
    info["wall_s"] = {"untraced": plain["wall_s"],
                      "traced": traced["wall_s"]}
    info["layer_ratios"] = {k: v for k, v in layers.items()
                            if k.endswith("_ratio")
                            or k.endswith("_per_node")}
    out = {}
    for name, unit in _metric_specs("per_layer"):
        got = layers.get(name)
        if got is None:
            why = ["the trace gave no such metric",
                   *traced["hooks_missing"].values()]
            got = {"value": None, "missing": "; ".join(why)}
        out[name] = {**got, "unit": unit}
    info["missing"] = {k: v["missing"] for k, v in out.items()
                       if v["value"] is None}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hyperharm" / "__init__.py").is_file():
        print(f"error: no hyperharm sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not SPEC.is_file() or not REFERENCE.is_file():
        print("error: BENCHMARK.json or perfbench/reference.json missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        ref_doc = json.load(fh)
    reference = ref_doc["values"][args.workload].get(str(args.seed))
    checker = Checker(reference, ref_doc["rtol"], ref_doc["atol"])
    runner = Runner(args.workload, args.seed,
                    time.monotonic() + DEADLINE_S)
    info = {"workload": args.workload, "seed": args.seed,
            "reference": reference is not None,
            "rtol": checker.rtol, "atol": checker.atol,
            "environment": _environment(runner.env)}
    try:
        metrics = (trace if args.trace else measure)(args, runner, checker,
                                                      info)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    info["check_fail_ratio"] = checker.failed / max(checker.attempted, 1)
    info["mismatches"] = checker.mismatches
    print(json.dumps(info))
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
