"""In-memory span tracing of cfuav's layers, installed from outside the
library.

The tracer rebinds the names that ``cfuav.harness`` and ``cfuav.orchestrator``
import (``channel_moments``, ``bg_fppc``, ...) to timing wrappers for the
duration of a ``with tracer.installed():`` block, and restores them on exit.
The library itself carries no timers. Each span records its name, start, end,
parent span and trial id; counters are read from the objects the wrapped call
returns (``PowerControlResult``, ``SchemeResult.trace``)."""

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from cfuav import harness, orchestrator

ROOT = "trial"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index into Tracer.spans
    trial: object
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _moments_attrs(args, result):
    h, est = args[0], args[1]
    # computed from array sizes: the two ensembles the reduction reads
    return {"realizations": h.shape[0],
            "bytes_computed": h.nbytes + est.h_hat.nbytes}


def _draw_attrs(args, result):
    return {"bytes_computed": result.nbytes}


def _solver_attrs(args, result):
    return {"fp_iterations": result.fp_iterations,
            "bisect_iterations": result.bisect_iterations,
            "probe_gap_max": result.probe_gap_max}


def _scheme_attrs(args, result):
    scheme = args[0]
    if not scheme.uses_ao:
        return {"scheme": scheme.label, "ao": False}
    return {"scheme": scheme.label, "ao": True,
            "ao_iterations": result.trace.count,
            "terminated_by": result.trace.terminated_by}


# (module, imported name, span name, counter extractor)
TARGETS = (
    (harness, "prepare_trial", "harness.prepare_trial", None),
    (harness, "channel_stats", "propagation.stats", None),
    (harness, "draw_channels", "propagation.draw_channels", _draw_attrs),
    (harness, "simulate_pilot_and_estimate", "pilots.estimate", None),
    (harness, "channel_moments", "receiver.moments", _moments_attrs),
    (harness, "run_scheme", "orchestrator.run_scheme", _scheme_attrs),
    (orchestrator, "channel_moments", "receiver.moments", _moments_attrs),
    (orchestrator, "propose_association", "association.propose", None),
    (orchestrator, "baseline_association", "association.baseline", None),
    (orchestrator, "assemble_coefficients", "receiver.assemble", None),
    (orchestrator, "bg_fppc", "powerctl.bg_fppc", _solver_attrs),
    (orchestrator, "reference_max_min", "powerctl.reference", _solver_attrs),
)


class Tracer:
    """Collects spans in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, trial=None):
        parent = self._open[-1] if self._open else None
        if parent is not None:
            trial = self.spans[parent].trial
        span = Span(name, time.perf_counter(), math.nan, parent, trial)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if extract is not None:
                span.attrs.update(extract(args, result))
            return result
        return traced

    @contextmanager
    def installed(self):
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in TARGETS]
        try:
            for (module, attr, name, extract), (_, _, fn) in zip(TARGETS, saved):
                setattr(module, attr, self._wrap(name, fn, extract))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def self_times(spans) -> list:
    """Each span's duration minus the part covered by its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def layer_metrics(spans) -> dict:
    """Per-layer metrics from the spans of complete traced trials, as totals
    per trial (per root span). Layers a workload does not exercise read 0."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)
    roots = by_name[ROOT]
    n = len(roots)
    if n == 0:
        raise ValueError("no complete traced trial")

    def total(name, attr=None):
        if attr is None:
            return sum(spans[i].duration for i in by_name[name])
        return sum(spans[i].attrs[attr] for i in by_name[name])

    def self_total(indices):
        return sum(selfs[i] for i in indices)

    def ratio(num, den):
        return num / den if den else 0.0

    def with_parent(name, parent_name):
        return [i for i in by_name[name]
                if spans[spans[i].parent].name == parent_name]

    moments, propose = by_name["receiver.moments"], by_name["association.propose"]
    ao_runs = [i for i in by_name["orchestrator.run_scheme"] if spans[i].attrs["ao"]]
    bg_fp = total("powerctl.bg_fppc", "fp_iterations")
    bg_bisect = total("powerctl.bg_fppc", "bisect_iterations")
    layer_self = sum(selfs) - self_total(roots)
    return {
        "receiver.moments.s": total("receiver.moments") / n,
        "receiver.moments.calls": len(moments) / n,
        "receiver.moments.ao_calls":
            len(with_parent("receiver.moments", "orchestrator.run_scheme")) / n,
        "receiver.moments.realizations": total("receiver.moments", "realizations") / n,
        "receiver.moments.bytes_computed":
            total("receiver.moments", "bytes_computed") / n,
        "receiver.assemble.s": total("receiver.assemble") / n,
        "receiver.assemble.calls": len(by_name["receiver.assemble"]) / n,
        "propagation.draw_channels.s": total("propagation.draw_channels") / n,
        "propagation.draw_channels.bytes_computed":
            total("propagation.draw_channels", "bytes_computed") / n,
        "propagation.stats.s": total("propagation.stats") / n,
        "pilots.estimate.s": total("pilots.estimate") / n,
        "powerctl.bg_fppc.s": total("powerctl.bg_fppc") / n,
        "powerctl.bg_fppc.calls": len(by_name["powerctl.bg_fppc"]) / n,
        "powerctl.reference.s": total("powerctl.reference") / n,
        "powerctl.reference.calls": len(by_name["powerctl.reference"]) / n,
        "powerctl.fp_iterations": bg_fp / n,
        "powerctl.bisect_iterations":
            (bg_bisect + total("powerctl.reference", "bisect_iterations")) / n,
        "powerctl.fp_iters_per_probe": ratio(bg_fp, bg_bisect),
        "powerctl.probe_gap_max": max(
            (spans[i].attrs["probe_gap_max"] for i in by_name["powerctl.bg_fppc"]),
            default=0.0),
        "association.propose.self_s": self_total(propose) / n,
        "association.propose.calls": len(propose) / n,
        "association.evaluate_se_per_propose":
            ratio(len(with_parent("receiver.assemble", "association.propose")),
                  len(propose)),
        "association.baseline.s": total("association.baseline") / n,
        "orchestrator.ao_iterations":
            ratio(sum(spans[i].attrs["ao_iterations"] for i in ao_runs), len(ao_runs)),
        "orchestrator.ao.self_s": self_total(ao_runs) / n,
        "orchestrator.ao_tolerance_ratio":
            ratio(sum(spans[i].attrs["terminated_by"] == "tolerance" for i in ao_runs),
                  len(ao_runs)),
        "harness.prepare_trial.self_s": self_total(by_name["harness.prepare_trial"]) / n,
        "trace.trial_s": total(ROOT) / n,
        "trace.layer_self_s": layer_self / n,
        "trace.untraced_s": self_total(roots) / n,
        "trace.spans": len(spans) / n,
    }
