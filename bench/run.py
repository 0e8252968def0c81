"""torusdyn benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

With --trace 0 it measures set-up time in fresh processes, then runs the
workload untraced in its own process and reports the end-to-end metrics.
With --trace 1 it runs the workload untraced and then traced, for half the
measuring time each, and reports
per-layer self times and work counts plus the tracing overhead (traced
minus untraced wall time).  The last line of standard output is the JSON
result; a readable summary goes to standard error.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder", "egorov", "mixed-calls")
# Fresh processes timed from start to READY; the workload's own process adds one more.
SETUP_PROBES = 14
# Every run must end within this many seconds.
DEADLINE_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def metric_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git repository or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "torusdyn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(seed: int, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "torusdyn_threads": None,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


class Worker:
    """A worker.py process; `setup_s` is the time from spawn to its READY line."""

    def __init__(self, args, deadline: float, seconds: float, trace: int = 0,
                 setup_only: bool = False) -> None:
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(seconds),
                "--scale", args.scale, "--trace", str(trace)]
        if setup_only:
            argv.append("--setup-only")
        env = dict(os.environ)
        env.pop("TORUSDYN_THREADS", None)  # the program's default: one thread
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            if not select.select([self.proc.stdout], [], [], deadline - time.monotonic())[0]:
                raise BenchError("worker did not get ready before the deadline")
            first = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - start
            if first.strip() != "READY":
                raise BenchError(f"worker did not get ready: {first!r}")
            out, _ = self.proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the deadline") from None
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        self.result = None if setup_only else json.loads(out.strip().splitlines()[-1])


def end_to_end(args, deadline: float, spec: dict) -> tuple[dict, dict]:
    setups = [Worker(args, deadline, 0, setup_only=True).setup_s for _ in range(SETUP_PROBES)]
    main = Worker(args, deadline, args.seconds)
    setups.append(main.setup_s)
    r = main.result
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": r["wall_s"],
        "op_p50_ms": r["op_p50_ms"],
        "op_p90_ms": r["op_p90_ms"],
        "peak_rss_mb": r["peak_rss_mb"],
    }
    r["setup_samples_s"] = setups
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}, r


def per_layer(args, deadline: float, spec: dict) -> tuple[dict, dict]:
    # The measuring time is split between an untraced and a traced run;
    # their difference in wall_s is the tracing overhead.
    plain = Worker(args, deadline, args.seconds / 2).result
    traced = Worker(args, deadline, args.seconds / 2, trace=1).result
    layers = traced["layers"]
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    traced["untraced_wall_s"] = plain["wall_s"]
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["failures"] += plain["failures"]
    return {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]}, traced


def summary(args, metrics: dict, r: dict) -> str:
    lines = [f"torusdyn bench: workload={args.workload} seed={args.seed} trace={args.trace} "
             f"passes={r['passes']} ops={r['attempted']} failed={r['failed']} "
             f"failed_frac={r['failed'] / r['attempted']:.4f}"]
    for name, m in metrics.items():
        lines.append(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        per_pass = int(r["ops_per_pass"])
        beyond = per_pass - (9 * per_pass + 9) // 10
        lines.append(f"  op latency percentiles: median over {r['passes']} passes of each "
                     f"pass's percentile, {per_pass} ops per pass, {beyond} beyond p90; "
                     f"setup_s is the median of {len(r['setup_samples_s'])} process starts")
    else:
        lines.append(f"  tracing overhead {metrics['trace.overhead_s']['value']:.4f} s "
                     f"(traced {r['wall_s']:.4f} s, untraced {r['untraced_wall_s']:.4f} s); "
                     f"{r['spans']} spans in {r['trace_file']}")
    for probe in r.get("known_defects", []):
        lines.append(f"  known defect {'fixed' if probe['ok'] else 'still present'}: "
                     f"{probe['argv']} -> {probe['outcome']}")
    for failure in r["failures"]:
        lines.append("  FAILED " + failure.strip().replace("\n", "\n    "))
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measuring time; passes stop before one would end past it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the benchmark's own tests")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "torusdyn" / "__init__.py").is_file():
            raise BenchError(f"no torusdyn sources under {ROOT / 'src'}")
        spec = metric_spec()
        if args.trace:
            metrics, r = per_layer(args, deadline, spec)
        else:
            metrics, r = end_to_end(args, deadline, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(summary(args, metrics, r), file=sys.stderr)
    print("facts " + json.dumps(machine_facts(args.seed, r["numpy"])))
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
