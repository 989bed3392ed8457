"""The benchmark's workloads and its measurement loop.

Each workload has a fixed list of items made from the seed (used as
``master_seed``), a set-up that builds that list, and an item runner that
times one item, checks its outputs and returns an Outcome.

* desk-sweep, paper-default: an item is one trial through
  ``harness.run_trial`` with all six schemes.
* power-solve: an item is one set of SINR coefficients (desk trial, BA
  association at full power) built in set-up; the timed work is
  ``bg_fppc`` followed by ``reference_max_min`` on it.

The loop runs the whole list once, then keeps going item by item until the
time budget is spent; an item's time is the median over its runs. In a
traced run every visit runs the item untraced and traced, alternating which
goes first from item to item and lap to lap, so the tracing overhead is
measured on the same items."""

import functools
import math
import operator
import resource
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from cfuav import harness, orchestrator
from cfuav.orchestrator import ALL_SCHEMES
from cfuav.powerctl import full_power
from cfuav.receiver import SinrCoefficients
from cfuav.scenario import ExperimentConfig, desk_scale

import checks
from metrics import entry, mean, median, tail
from tracing import ROOT, Tracer, layer_metrics

DESK_UAVS = (5, 10, 20)
# List lengths: the seed changes AO iteration and fixed-point counts, so a
# run needs this many items for its throughput to vary little from seed to
# seed; one desk-sweep pass fits a 40 s run.
DESK_TRIALS = 120   # 40 trials per K
PAPER_TRIALS = 2    # 13-27 s per trial
SOLVE_SETS = 48     # 16 coefficient sets per K
SETUP_REPEATS = 5
MAX_FAILURE_MESSAGES = 20

NON_AO_SCHEMES = ("BA+FP", "BA+PP", "BA+TP", "PA+FP")


def desk_configs(seed: int) -> list:
    """The acceptance suite's desk preset (L=25, N=2, tau_p=5, T=200,
    se_min=1.0), one config per UAV count."""
    return [desk_scale(ExperimentConfig(), num_uavs=k, se_min=1.0,
                       master_seed=seed) for k in DESK_UAVS]


def paper_configs(seed: int) -> list:
    """The paper defaults: L=100, N=4, tau_p=10, K=50, T=200."""
    return [ExperimentConfig(master_seed=seed)]


class Stopwatch:
    """Untraced stand-in for Tracer.span: times a block, records nothing."""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.duration = time.perf_counter() - self.start


@dataclass
class Outcome:
    wall: float     # timed work of the item, s
    parts: dict     # named shares of the timed work, and prepare time, s
    quality: dict   # outputs that are deterministic given the seed
    problems: list  # failed output checks


def run_trial_item(item, timed) -> Outcome:
    config, trial = item
    with timed() as clock:
        records, results = harness.run_trial(config, trial, ALL_SCHEMES)
    problems = checks.check_trial(config, records, results)
    if problems:
        return Outcome(clock.duration, {}, {}, problems)
    runtime = {r.scheme: r.runtime_s for r in records}
    by_scheme = {r.scheme: r for r in records}
    parts = {
        # run_trial's time outside run_scheme is prepare_trial plus the
        # per-record metric arithmetic (microseconds)
        "prepare": clock.duration - sum(runtime.values()),
        "pa_pp": runtime["PA+PP"],
        "pa_tp": runtime["PA+TP"],
        "non_ao": sum(runtime[s] for s in NON_AO_SCHEMES),
    }
    quality = {
        "pa_pp.min_se": by_scheme["PA+PP"].min_se,
        "pa_tp.min_se": by_scheme["PA+TP"].min_se,
        "pa_pp.success_rate": by_scheme["PA+PP"].success_rate,
        # BA association ignores power, so BA+PP and BA+TP solve the
        # same coefficients
        "pp_gap": 1.0 - results["BA+PP"].gamma_star / results["BA+TP"].gamma_star,
    }
    return Outcome(clock.duration, parts, quality, [])


@dataclass(frozen=True)
class SolveSet:
    config: ExperimentConfig
    coef: SinrCoefficients
    gamma_full: float   # min SINR at full power
    prepare_s: float    # wall time of its prepare_trial call in set-up


def build_solve_sets(configs: list, n_sets: int) -> list:
    """SINR coefficients of consecutive desk trials under BA association at
    full power: what BA+PP and BA+TP hand to their solvers."""
    sets = []
    for trial in range(n_sets):
        config = configs[trial % len(configs)]
        t0 = time.perf_counter()
        data = harness.prepare_trial(config, trial)
        prepare_s = time.perf_counter() - t0
        a = orchestrator.baseline_association(data.beta, config.pilot_len,
                                              config.n_top)
        p_full = full_power(config.num_uavs, config.p_max_w)
        coef, se = orchestrator.evaluate_association(
            data.moments_full, a, data.beta, data.sigma2, p_full, config)
        sets.append(SolveSet(config, coef, float(np.min(se.sinr)), prepare_s))
    return sets


def run_solve_item(item: SolveSet, timed) -> Outcome:
    # the solvers are looked up on cfuav.orchestrator at call time, where the
    # tracer installs its wrappers; settings are the production defaults
    config = item.config
    floor = config.qos_sinr_floor
    with timed() as clock:
        pp = orchestrator.bg_fppc(item.coef, config.p_max_w,
                                  eps_bisect=config.eps_bisect,
                                  eps_fp=config.eps_fp,
                                  n_max_fp=config.n_max_fp, gamma_floor=floor)
        tp = orchestrator.reference_max_min(item.coef, config.p_max_w,
                                            tol=config.eps_bisect,
                                            gamma_floor=floor)
    problems = ([f"PP: {p}" for p in checks.check_solve(
                    item.coef, config.p_max_w, pp, item.gamma_full)]
                + [f"TP: {p}" for p in checks.check_solve(
                    item.coef, config.p_max_w, tp, item.gamma_full)])
    if problems:
        return Outcome(clock.duration, {}, {}, problems)
    return Outcome(clock.duration, {"prepare": item.prepare_s},
                   {"pp_gap": 1.0 - pp.gamma_star / tp.gamma_star}, [])


def combine_solve_sets(builds: list) -> list:
    """The last build, each set's prepare time the median over all builds."""
    return [replace(s, prepare_s=median([b[i].prepare_s for b in builds]))
            for i, s in enumerate(builds[-1])]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable      # seed -> fixed list of items
    run_item: Callable   # (item, timed) -> Outcome
    whole_trials: bool   # items are run_trial calls (schemes, SE and AO exist)
    # the repeated set-up's builds -> the items to measure
    combine: Callable = operator.itemgetter(-1)


def trial_workload(name: str, configs: Callable, n_trials: int) -> Workload:
    def setup(seed):
        cycle = configs(seed)
        # warm-up: one trial past the list per config, so lazy set-up in
        # numpy and the library is done before timing
        for config in cycle:
            harness.prepare_trial(config, n_trials)
        return [(cycle[t % len(cycle)], t) for t in range(n_trials)]
    return Workload(name, setup, run_trial_item, True)


def solve_workload(name: str, configs: Callable, n_sets: int) -> Workload:
    return Workload(name, lambda seed: build_solve_sets(configs(seed), n_sets),
                    run_solve_item, False, combine_solve_sets)


WORKLOADS = {w.name: w for w in (
    trial_workload("desk-sweep", desk_configs, DESK_TRIALS),
    trial_workload("paper-default", paper_configs, PAPER_TRIALS),
    solve_workload("power-solve", desk_configs, SOLVE_SETS),
)}


@dataclass
class Samples:
    untraced: list                                  # per item: [Outcome]
    traced: list                                    # per item: [Outcome]
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    visits: int = 0


def _attempt(workload, item, index, tracer, samples, runs):
    samples.attempted += 1
    mark = len(tracer.spans) if tracer is not None else 0
    try:
        if tracer is None:
            outcome = workload.run_item(item, Stopwatch)
        else:
            with tracer.installed():
                outcome = workload.run_item(
                    item, functools.partial(tracer.span, ROOT, index))
        problems = outcome.problems
    except Exception as exc:  # a raising item is counted as failed, not fatal
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        samples.failed += 1
        if len(samples.failures) < MAX_FAILURE_MESSAGES:
            samples.failures.append({"item": index, "problems": problems})
        if tracer is not None:
            del tracer.spans[mark:]
        return
    runs[index].append(outcome)


def measure(workload: Workload, items: list, seconds: float,
            tracer: Tracer | None = None) -> Samples:
    """Run every item once, then continue in list order until `seconds`
    have passed."""
    n = len(items)
    samples = Samples([[] for _ in items], [[] for _ in items])
    deadline = time.perf_counter() + seconds
    while samples.visits < n or time.perf_counter() < deadline:
        index, lap = samples.visits % n, samples.visits // n
        if tracer is None:
            modes = (False,)
        else:
            modes = (False, True) if (index + lap) % 2 == 0 else (True, False)
        for traced in modes:
            _attempt(workload, items[index], index,
                     tracer if traced else None, samples,
                     samples.traced if traced else samples.untraced)
        samples.visits += 1
    return samples


def _per_item(runs: list, key=None) -> list:
    """Median over each item's runs of the wall time, or of one part."""
    return [median([o.wall if key is None else o.parts[key] for o in outcomes])
            for outcomes in runs if outcomes]


def _quality(runs: list, key: str) -> list:
    # deterministic given the seed, so the first run of each item suffices
    return [outcomes[0].quality[key] for outcomes in runs if outcomes]


def end_to_end(workload: Workload, samples: Samples, setup_s: float) -> dict:
    runs = samples.untraced
    wall = _per_item(runs)
    m = {
        "setup_s": entry("setup_s", setup_s),
        "trials_per_s": entry("trials_per_s",
                              len(wall) / sum(wall) if wall else math.nan),
        "trial_s.p50": entry("trial_s.p50", median(wall), samples=len(wall)),
        "prepare_s.p50": entry("prepare_s.p50", median(_per_item(runs, "prepare"))),
    }
    tail_stat = tail(wall)
    if tail_stat is not None:
        value, percentile, n = tail_stat
        m["trial_s.tail"] = entry("trial_s.tail", value,
                                  percentile=round(percentile, 2), samples=n)
    if workload.whole_trials:
        for name, key in (("pa_pp.runtime_s", "pa_pp"), ("pa_tp.runtime_s", "pa_tp"),
                          ("non_ao.runtime_s", "non_ao")):
            m[name] = entry(name, mean(_per_item(runs, key)))
        for name in ("pa_pp.min_se", "pa_tp.min_se", "pa_pp.success_rate"):
            m[name] = entry(name, mean(_quality(runs, name)))
    gaps = _quality(runs, "pp_gap")
    m["pp_gap.p50"] = entry("pp_gap.p50", median(gaps))
    m["pp_gap.max"] = entry("pp_gap.max", max(gaps, default=math.nan))
    m["peak_rss_mb"] = entry(
        "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    m["failed_ratio"] = entry("failed_ratio", samples.failed / samples.attempted)
    return m


def per_layer(samples: Samples, tracer: Tracer) -> dict:
    m = {name: entry(name, value)
         for name, value in layer_metrics(tracer.spans).items()}
    paired = [(u, t) for u, t in zip(samples.untraced, samples.traced) if u and t]
    untraced = sum(_per_item([u for u, _ in paired]))
    traced = sum(_per_item([t for _, t in paired]))
    m["trace.overhead"] = entry("trace.overhead",
                                traced / untraced - 1.0 if paired else math.nan,
                                items=len(paired))
    return m


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up (several times, keeping the median), measure, and summarize."""
    setup_times, builds = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        builds.append(workload.setup(seed))
        setup_times.append(time.perf_counter() - t0)
    items = workload.combine(builds)
    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    samples = measure(workload, items, seconds, tracer)
    measured_s = time.perf_counter() - t0
    metrics = end_to_end(workload, samples, median(setup_times))
    if tracer is not None and tracer.spans:
        metrics.update(per_layer(samples, tracer))
    return {
        "workload": workload.name,
        "seed": seed,
        "items": len(items),
        "visits": samples.visits,
        "measured_s": measured_s,
        "setup_runs_s": setup_times,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "failures": samples.failures,
        "metrics": metrics,
    }
