"""One fresh process of the benchmark: it times set-up, then runs a workload.

    python3 perfbench/child.py --workload W --seed N [--seconds S --trace 0|1]

Set-up runs from just before ``import stablepricer`` until timing starts: the
import, building the inputs from the seed, and a warm-up call of each kernel.
Without ``--seconds`` the process stops there and prints its set-up time.
A ``speed.Probe`` samples the machine's speed from before the import to the
end; the end-to-end times are reported at its nominal speed, next to the raw
ones.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import speed  # noqa: E402

LAYER_MODULES = ("pricer", "reference", "calibrate", "lab")
OUT_DIR = os.path.join(HERE, "out")


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def _fingerprint(result: object) -> object:
    """A comparable summary of one output, to check that rounds repeat."""
    if isinstance(result, dict):
        return tuple((k, r.alpha, r.beta, r.sigma, r.aggregated_error, r.iterations)
                     for k, r in sorted(result.items()))
    if hasattr(result, "values"):
        return result.values.tobytes()
    if hasattr(result, "price"):
        return (result.price, result.columns_used)
    return repr(result)


@dataclass
class Run:
    # every operation of every round, in order: when it started and ended, and
    # its latency without the time the speed probe took from it
    starts: list[float]
    ends: list[float]
    latencies: list[float]
    first: list[object]  # outputs of the first round (an exception if one raised)
    last: list[object]  # outputs of the last round
    rounds: int
    elapsed: float

    def nominal_latencies(self, probe: speed.Probe) -> list[float]:
        return [lat * probe.factor(a, b) for a, b, lat in zip(self.starts, self.ends, self.latencies)]


def run_rounds(ops, seconds, probe: speed.Probe, tracer=None) -> Run:
    """Run whole rounds of ops until `seconds` have passed.

    Only the first and the last round's outputs are kept, so that memory does
    not grow with the number of rounds.
    """
    starts: list[float] = []
    ends: list[float] = []
    latencies: list[float] = []
    first: list[object] = []
    rounds = 0
    clock = time.perf_counter
    start = clock()
    while True:
        outputs = []
        for op in ops:
            spent = probe.spent
            t = clock()
            try:
                if tracer is None:
                    result = op.call()
                else:
                    result = tracer.call(op.name, op.call, note=_size)
            except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                result = exc
            end = clock()
            starts.append(t)
            ends.append(end)
            latencies.append(end - t - (probe.spent - spent))
            outputs.append(result)
        rounds += 1
        first = first or outputs
        elapsed = clock() - start
        if elapsed >= seconds:
            return Run(starts, ends, latencies, first, outputs, rounds, elapsed)


def _timings(latencies: list[float]) -> dict[str, float]:
    return {
        "throughput_per_s": len(latencies) / math.fsum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p99_ms": _percentile(latencies, 99) * 1e3,
    }


def _size(args, kwargs, result):
    """Columns summed by a price, or points of a density grid."""
    if hasattr(result, "columns_used"):
        return result.columns_used
    return len(result.abscissae) if hasattr(result, "abscissae") else None


def judge(workload, run: Run) -> dict:
    """Check the first round's outputs and that the last round repeats them.

    An operation that raised, or that has a known fault, counts as failed in
    every round; `correct` speaks of the other operations.
    """
    raised = [(op, r) for op, r in zip(workload.ops, run.first) if isinstance(r, Exception)]
    kept = [(op, r) for op, r in zip(workload.ops, run.first) if not isinstance(r, Exception)]
    result = workload.check([op for op, _ in kept], [r for _, r in kept])
    problems = list(result.problems)
    for op, a, b in zip(workload.ops, run.first, run.last):
        if _fingerprint(a) != _fingerprint(b):
            problems.append(f"{op.name} gave a different output in the last round")
            break
    notes = [f"{op.name} raised {r!r} (counted as failed)" for op, r in raised] + result.notes
    failed = (len(raised) + result.failed) * run.rounds
    return dict(failed=failed, correct=not problems, problems=problems, notes=notes)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    probe = speed.Probe()
    probe.start()
    try:
        return measure(args, probe)
    finally:
        probe.stop()


def measure(args: argparse.Namespace, probe: speed.Probe) -> int:
    modules_before = len(sys.modules)
    spent = probe.spent
    t0 = time.perf_counter()
    import stablepricer  # noqa: F401

    for name in LAYER_MODULES:
        importlib.import_module(f"stablepricer.{name}")
    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - modules_before
    import workloads

    workload = workloads.BUILDERS[args.workload](args.seed)
    others = {}
    if args.seconds is not None and args.trace:
        # every traced run reports every layer: a few operations of the other
        # workloads stand in for the layers this one never reaches
        others = {n: b(args.seed) for n, b in workloads.BUILDERS.items() if n != args.workload}
    workload.warm_up()
    for other in others.values():
        other.warm_up()
    t1 = time.perf_counter()
    setup_s = t1 - t0 - (probe.spent - spent)
    report = {"setup_s": setup_s * probe.factor(t0, t1, speed.SETUP_ELASTICITY), "setup_raw_s": setup_s,
              "import_s": import_s, "modules": modules}
    if args.seconds is None:
        print(json.dumps(report))
        return 0

    if not args.trace:
        run = run_rounds(workload.ops, args.seconds, probe)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdict = judge(workload, run)
        units = {"throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms"}
        metrics = {k: (v, units[k]) for k, v in _timings(run.nominal_latencies(probe)).items()}
        metrics["peak_rss_mb"] = (peak_mb, "MB")
        report["raw"] = _timings(run.latencies)
        report["reference_us"] = probe.median_us()
    else:
        import tracing

        # overhead: each timing operation runs untraced, then traced, so the
        # pair shares the machine's speed of the moment
        scratch = tracing.Tracer()
        untraced = traced = 0.0
        for _ in range(workload.overhead_passes):
            for op in (workload.ops[i] for i in workload.overhead_ops):
                untraced += run_rounds([op], 0.0, probe).elapsed
                scratch.install()
                try:
                    traced += run_rounds([op], 0.0, probe, scratch).elapsed
                finally:
                    scratch.uninstall()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run = run_rounds(workload.ops, args.seconds, probe, tracer)
            phases = {args.workload: (tracing.Phase(tracer, 0, len(tracer.spans), len(run.latencies)), run.first)}
            for name, other in others.items():
                lo = len(tracer.spans)
                sample = run_rounds([other.ops[i] for i in other.probe], 0.0, probe, tracer)
                phases[name] = (tracing.Phase(tracer, lo, len(tracer.spans), len(other.probe)), sample.first)
        finally:
            tracer.uninstall()
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl"), "w") as out:
            for span in tracer.spans:
                out.write(json.dumps(dict(name=span.name, start=span.start, end=span.end,
                                          parent=span.parent)) + "\n")
        verdict = judge(workload, run)
        layers = {}
        layers.update(tracing.quotes_layers(phases["quotes"][0]))
        layers.update(tracing.calibrate_layers(*phases["calibrate"]))
        layers.update(tracing.oracles_layers(phases["oracles"][0]))
        layers["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
        layers["host.reference_us"] = probe.median_us()
        metrics = {name: (layers.get(name), unit) for name, unit in tracing.UNITS.items()
                   if not name.startswith(("import.", "cli."))}

    report.update(
        attempted=len(run.latencies),
        failed=verdict["failed"],
        correct=verdict["correct"],
        problems=verdict["problems"],
        notes=verdict["notes"],
        metrics=metrics,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
