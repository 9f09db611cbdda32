"""Spans recorded from outside the program, and the per-layer metrics made from them.

A span is (name, start, end, parent).  The benchmark records one around each
operation it calls, and the wrappers installed by ``Tracer.install`` record one
around each call of a public function, at the module attribute its callers
look up (``stablepricer.calibrate.price_call_strikes``, not
``stablepricer.pricer.price_call_strikes``).  Spans stay in memory until the
run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from typing import Any, Callable

# (module, attribute, span name, note taken from the call) for every wrapped
# function.  The module is reached through importlib because the package
# attribute ``stablepricer.calibrate`` is the function, not the module.
# mc_price_fmls is called by the benchmark itself, through the package.
WRAPPED = (
    ("stablepricer.calibrate", "objective_params", "calibrate.objective_params",
     lambda args, kwargs, result: result is not None and not math.isfinite(result)),
    ("stablepricer.calibrate", "aggregated_error", "calibrate.aggregated_error", None),
    ("stablepricer.calibrate", "price_call_strikes", "pricer.price_call_strikes",
     lambda args, kwargs, result: len(kwargs["strikes"] if "strikes" in kwargs else args[4])),
    ("stablepricer", "mc_price_fmls", "lab.mc_price_fmls", None),
    ("stablepricer.lab", "stable_density", "lab.stable_density", None),
    ("stablepricer.lab", "sample_stable", "lab.sample_stable",
     lambda args, kwargs, result: (kwargs["config"] if "config" in kwargs else args[0]).count),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "note")

    def __init__(self, name: str, parent: int) -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, args: tuple = (), kwargs: dict | None = None,
             note: Callable[[tuple, dict, Any], Any] | None = None) -> Any:
        """Call fn inside a span; note(args, kwargs, result) is stored on it,
        with result None when fn raised."""
        kwargs = kwargs or {}
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        result = None
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)

    def install(self) -> None:
        """Wrap every function in WRAPPED; a missing one is marked absent."""
        for module_name, attr, name, note in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(name)
                continue

            def traced(*args, _fn=original, _name=name, _note=note, **kwargs):
                return self.call(_name, _fn, args, kwargs, _note)

            setattr(module, attr, traced)
            self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _mean(values: list[float]) -> float | None:
    return statistics.fmean(values) if values else None


def _ratio(num: float, den: float) -> float | None:
    return num / den if den > 0 else None


class Phase:
    """The spans one workload recorded, spans[lo:hi] of a tracer."""

    def __init__(self, tracer: Tracer, lo: int, hi: int, ops: int) -> None:
        self.tracer, self.lo, self.hi, self.ops = tracer, lo, hi, ops
        self._self = tracer.self_times()

    def named(self, name: str) -> list[int]:
        return [i for i in range(self.lo, self.hi) if self.tracer.spans[i].name == name]

    def durations(self, name: str) -> list[float]:
        return [self.tracer.spans[i].duration for i in self.named(name)]

    def notes(self, name: str) -> list[Any]:
        return [self.tracer.spans[i].note for i in self.named(name)]

    def self_time(self, name: str) -> float:
        return math.fsum(self._self[i] for i in self.named(name))

    def absent(self, name: str) -> bool:
        return name in self.tracer.absent


# Per-layer metrics: name -> unit.  Calibrate counts and times are per
# operation of the phase (one ladder, or the two-rung FMLS fit).
UNITS = {
    "import.stablepricer_s": "s",
    "import.modules": "count",
    "cli.price_process_s": "s",
    "cli.modules": "count",
    "pricer.price_call.p50_us": "us",
    "pricer.price_call.columns_mean": "count",
    "pricer.price_put.p50_us": "us",
    "reference.fmls_call.p50_us": "us",
    "reference.fmls_call.columns_mean": "count",
    "pricer.price_call_strikes.calls": "count",
    "pricer.price_call_strikes.strikes": "count",
    "pricer.price_call_strikes.us_per_strike": "us",
    "pricer.price_call_strikes.busy_s": "s",
    "calibrate.aggregated_error.calls": "count",
    "calibrate.aggregated_error.self_s": "s",
    "calibrate.objective_params.inf_share": "ratio",
    "calibrate.objective_params.inf_time_share": "ratio",
    "calibrate.calibrate_all.self_s": "s",
    "calibrate.iterations.bs": "count",
    "calibrate.iterations.carrwu": "count",
    "calibrate.iterations.stable": "count",
    "lab.stable_density.p50_us": "us",
    "lab.density_grid.points_per_s": "1/s",
    "lab.sample_stable.draws_per_s": "1/s",
    "lab.mc_price_fmls.self_ms": "ms",
    "trace.overhead_pct": "%",
    "host.reference_us": "us",
}


def quotes_layers(p: Phase) -> dict[str, float | None]:
    out: dict[str, float | None] = {}
    for name in ("pricer.price_call", "pricer.price_put", "reference.fmls_call"):
        p50 = _median(p.durations(name))
        out[f"{name}.p50_us"] = None if p50 is None else p50 * 1e6
    out["pricer.price_call.columns_mean"] = _mean(p.notes("pricer.price_call"))
    out["reference.fmls_call.columns_mean"] = _mean(p.notes("reference.fmls_call"))
    return out


def calibrate_layers(p: Phase, outputs: list[Any]) -> dict[str, float | None]:
    out: dict[str, float | None] = {}
    if not p.absent("pricer.price_call_strikes"):
        busy = math.fsum(p.durations("pricer.price_call_strikes"))
        strikes = sum(n for n in p.notes("pricer.price_call_strikes") if n is not None)
        out["pricer.price_call_strikes.calls"] = len(p.named("pricer.price_call_strikes")) / p.ops
        out["pricer.price_call_strikes.strikes"] = strikes / p.ops
        out["pricer.price_call_strikes.us_per_strike"] = _ratio(busy * 1e6, strikes)
        out["pricer.price_call_strikes.busy_s"] = busy / p.ops
    if not p.absent("calibrate.aggregated_error"):
        out["calibrate.aggregated_error.calls"] = len(p.named("calibrate.aggregated_error")) / p.ops
        out["calibrate.aggregated_error.self_s"] = p.self_time("calibrate.aggregated_error") / p.ops
    if not p.absent("calibrate.objective_params"):
        spans = [p.tracer.spans[i] for i in p.named("calibrate.objective_params")]
        inf = [s for s in spans if s.note]
        out["calibrate.objective_params.inf_share"] = _ratio(len(inf), len(spans))
        out["calibrate.objective_params.inf_time_share"] = _ratio(
            math.fsum(s.duration for s in inf), math.fsum(s.duration for s in spans))
    ladders = p.named("calibrate.calibrate_all")
    if ladders:
        out["calibrate.calibrate_all.self_s"] = p.self_time("calibrate.calibrate_all") / len(ladders)
    for rung in ("bs", "carrwu", "stable"):
        out[f"calibrate.iterations.{rung}"] = _mean(
            [r[rung].iterations for r in outputs if isinstance(r, dict) and rung in r])
    return out


def oracles_layers(p: Phase) -> dict[str, float | None]:
    out: dict[str, float | None] = {}
    if not p.absent("lab.stable_density"):
        p50 = _median(p.durations("lab.stable_density"))
        out["lab.stable_density.p50_us"] = None if p50 is None else p50 * 1e6
    points = sum(n for n in p.notes("lab.density_grid") if n is not None)
    out["lab.density_grid.points_per_s"] = _ratio(points, math.fsum(p.durations("lab.density_grid")))
    if not p.absent("lab.sample_stable"):
        draws = sum(n for n in p.notes("lab.sample_stable") if n is not None)
        out["lab.sample_stable.draws_per_s"] = _ratio(draws, math.fsum(p.durations("lab.sample_stable")))
    if not p.absent("lab.mc_price_fmls"):
        mc = p.named("lab.mc_price_fmls")
        out["lab.mc_price_fmls.self_ms"] = _ratio(p.self_time("lab.mc_price_fmls") * 1e3, len(mc))
    return out
