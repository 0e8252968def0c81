"""One workload in its own process, so that its peak RSS is its own.

Started by run.py; not meant to be run by hand.  Prints `READY` once the
imports and the workload inputs are built (the end of set-up), then runs
timed passes and prints one JSON line with the outcome.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class OpRecord:
    __slots__ = ("kind", "seconds", "error", "output", "check")

    def __init__(self, kind, seconds, error, output, check) -> None:
        self.kind, self.seconds, self.error = kind, seconds, error
        self.output, self.check = output, check


class Runner:
    """Times each operation, keeps its output until the pass is verified."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.pass_latencies: list[list[float]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._pass: list[OpRecord] = []
        self._pass_checks: list = []

    def op(self, kind: str, fn, check=None):
        op_id = self.attempted + len(self._pass)
        start = time.perf_counter()
        try:
            with self.tracer.span("bench.op", op_id) if self.tracer else nullcontext():
                output = fn()
            error = None
        except Exception:
            output, error = None, traceback.format_exc(limit=-2)
        seconds = time.perf_counter() - start
        self._pass.append(OpRecord(kind, seconds, error, output, check))
        return output

    def check_pass(self, check) -> None:
        """A check over the whole pass, run after the operations' own checks."""
        self._pass_checks.append(check)

    def verify_pass(self, wrong: type) -> None:
        """Run the deferred checks; a failed pass-level check fails every op of the pass."""
        self.pass_latencies.append([rec.seconds for rec in self._pass])
        errors = []
        for rec in self._pass:
            error = rec.error
            if error is None and rec.check is not None:
                try:
                    rec.check(rec.output)
                except wrong as exc:
                    error = f"wrong answer: {exc}"
                except Exception:
                    error = "check raised: " + traceback.format_exc(limit=-2)
            errors.append(error)
        pass_error = None
        for check in self._pass_checks:
            try:
                check()
            except wrong as exc:
                pass_error = f"pass check: {exc}"
        for rec, error in zip(self._pass, errors):
            error = error or pass_error
            if error is not None:
                self.failures.append(f"{rec.kind}: {error}")
        self.attempted += len(self._pass)
        self._pass, self._pass_checks = [], []


def percentile(values: list[float], q: int) -> float:
    """q-th percentile by linear interpolation between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import torusdyn

    if Path(torusdyn.__file__).resolve().parent != ROOT / "src" / "torusdyn":
        raise SystemExit(f"imported torusdyn from {torusdyn.__file__}, not from {ROOT / 'src'}")
    import tracer as tracing
    from workloads import WORKLOADS, Wrong, probe_known_defects

    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = tracing.Tracer() if args.trace else None
        undo = tracing.install(tracer) if tracer else []
        runner = Runner(tracer)

        def span(name: str):
            return tracer.span(name) if tracer else nullcontext()

        walls: list[float] = []
        try:
            while True:
                start = time.perf_counter()
                with span("bench.pass"):
                    workload.run_pass(runner)
                walls.append(time.perf_counter() - start)
                runner.verify_pass(Wrong)
                # Stop before a pass that would end past the measuring time.
                if sum(walls) + walls[-1] > args.seconds:
                    break
            if tracer:
                passes_end, pass_counts = len(tracer.spans), dict(tracer.counts)
            # Known-defect probes run after the timed passes; see workloads.py.
            probes = []
            if args.workload == "mixed-calls":
                with span("bench.probes"):
                    probes = probe_known_defects()
        finally:
            tracing.uninstall(undo)

        # Percentiles per pass, then the median over passes, so that a burst
        # of load from outside that slows one pass moves them little.
        lat_ms = [[s * 1e3 for s in p] for p in runner.pass_latencies if p]
        result = {
            "passes": len(walls),
            "wall_s": statistics.median(walls),
            "ops_per_pass": statistics.median(map(len, lat_ms)),
            "op_p50_ms": statistics.median(percentile(p, 50) for p in lat_ms),
            "op_p90_ms": statistics.median(percentile(p, 90) for p in lat_ms),
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "failures": runner.failures[:5],
            "known_defects": probes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "numpy": numpy.__version__,
        }
        if tracer is not None:
            # Layer figures are per pass: the passes' totals divided by their
            # number, so they do not grow when more passes fit in the time.
            in_passes = tracing.layer_stats(tracer.spans[:passes_end], pass_counts)
            layers = {k: v / len(walls) for k, v in in_passes.items()}
            # The known-defect probes run once per run and are added whole.
            probe_counts = {k: v - pass_counts.get(k, 0) for k, v in tracer.counts.items()}
            for k, v in tracing.layer_stats(tracer.spans[passes_end:], probe_counts).items():
                layers[k] = layers.get(k, 0) + v
            if hasattr(workload, "layer_facts"):
                layers.update(workload.layer_facts())
            result["layers"] = layers
            # Every span of a pass nests inside it, so a pass's self times sum
            # to its wall time.
            result["self_s_per_pass"] = sum(
                v for k, v in in_passes.items() if k.endswith(".self_s")) / len(walls)
            result["mean_pass_s"] = statistics.fmean(walls)
            result["spans"] = len(tracer.spans)
            trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.jsonl"
            tracer.write(trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
