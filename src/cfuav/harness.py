"""Monte Carlo experiment runner: per-trial channel generation, paired scheme
evaluation, metric computation, and CSV persistence.

All schemes within a trial see identical channel draws (witnessed by the
channel_hash column), and every random quantity comes from a (seed, trial,
purpose) stream, so results are bit-identical at any level of parallelism."""

import csv
import hashlib
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields

import numpy as np

from .orchestrator import ALL_SCHEMES, TrialData, first_rounds, run_scheme
from .pilots import assign_pilots_random, simulate_pilot_and_estimate
from .propagation import (channel_stats, draw_angular_spread, draw_channels,
                          large_scale, link_geometry, los_probability,
                          sample_los_state, spatial_correlation,
                          steering_vector)
from .receiver import channel_moments
from .scenario import ExperimentConfig, build_topology, trial_streams
from .powerctl import full_power

log = logging.getLogger(__name__)

_METRIC_COLUMNS = ("min_se", "success_rate", "jain_fairness", "runtime_s",
                   "ao_iterations", "fp_iterations_total")


@dataclass(frozen=True)
class MetricsRecord:
    """One (trial, scheme) result row."""

    trial: int
    scheme: str
    num_uavs: int
    min_se: float
    success_rate: float
    jain_fairness: float
    runtime_s: float
    ao_iterations: int
    fp_iterations_total: int
    channel_hash: str


# the per-trial CSV holds one column per MetricsRecord field, in field order
CSV_COLUMNS = tuple("K" if f.name == "num_uavs" else f.name
                    for f in fields(MetricsRecord))


def jain_fairness(se: np.ndarray) -> float:
    """Jain index of the SE allocation, in percent. All-zero vectors count as
    perfectly uniform (100)."""
    x = np.asarray(se, dtype=float)
    if x.size < 1:
        raise ValueError("need at least one UAV")
    total_sq = float(np.sum(x)) ** 2
    denom = x.size * float(np.sum(x ** 2))
    if denom == 0.0:
        log.debug("jain_fairness: all-zero SE vector, reporting 100")
        return 100.0
    # Cauchy-Schwarz bounds the index by 1; clip float overshoot
    return min(100.0, 100.0 * total_sq / denom)


def success_rate(se: np.ndarray, se_min: float) -> float:
    """Percentage of UAVs meeting the SE target (boundary counts as success)."""
    if se_min < 0:
        raise ValueError("se_min must be non-negative")
    x = np.asarray(se, dtype=float)
    return 100.0 * float(np.count_nonzero(x >= se_min)) / x.size


def min_se(se: np.ndarray) -> float:
    x = np.asarray(se, dtype=float)
    if x.size < 1:
        raise ValueError("empty SE vector")
    return float(np.min(x))


def large_scale_state(config: ExperimentConfig, streams):
    """One trial's link geometry and large-scale state (path loss, LoS,
    shadowing, Rician K), drawn from its topology, los-state, shadowing and
    rician-k streams. Returns (geometry, large-scale links)."""
    geom = link_geometry(build_topology(config, streams["topology"]))
    is_los = sample_los_state(los_probability(geom), streams["los-state"])
    ls = large_scale(geom, is_los, config, streams["shadowing"],
                     streams["rician-k"])
    return geom, ls


def prepare_trial(config: ExperimentConfig, trial_index: int) -> TrialData:
    """Generate one trial's channel world: topology, large-scale links,
    channel statistics, pilots, the realization ensemble and its estimates,
    the full-power combiner moments, and the full-power first round of each
    association rule (orchestrator.first_rounds), which fills its pairs into
    those moments. A first round depends on the trial and the association
    rule only, never on the power rule, so this shared work is done once
    per trial, outside each scheme's timer."""
    streams = trial_streams(config, trial_index)
    geom, ls = large_scale_state(config, streams)
    n_ant = config.antennas_per_oru
    a_los = steering_vector(geom, n_ant)
    spread = draw_angular_spread(config, streams["angular-spread"],
                                 geom.d_2d.shape)
    corr = spatial_correlation(geom, spread, n_ant)
    stats = channel_stats(ls, a_los, corr)
    assignment = assign_pilots_random(config.num_uavs, config.pilot_len,
                                      streams["pilot-assignment"],
                                      config.pilot_power_w)
    sigma2 = config.noise_power_w
    h = draw_channels(stats, config.n_channel_realizations,
                      streams["scattering"])
    est = simulate_pilot_and_estimate(h, assignment, stats, sigma2,
                                      streams["pilot-noise"])
    p_full = full_power(config.num_uavs, config.p_max_w)
    moments = channel_moments(h, est, p_full, sigma2)
    first = first_rounds(moments, ls.beta, sigma2, config)
    # SHA-256 of the canonical C-order bytes, fed one realization at a time
    # so the solver-layout ensemble is never copied whole
    digest = hashlib.sha256()
    for h_t in h:
        digest.update(h_t.tobytes())
    return TrialData(beta=ls.beta, h=h, est=est, sigma2=sigma2,
                     moments_full=moments, first=first,
                     channel_hash=digest.hexdigest()[:16])


def run_trial(config: ExperimentConfig, trial_index: int, schemes):
    """Evaluate the requested schemes on one trial's shared channel data.

    Returns (records, results) where results maps scheme label to the full
    SchemeResult. A scheme's runtime covers its power rule on the trial's
    first round of its association rule, and its later AO rounds. The
    channel world and both full-power first rounds (BA's start and
    coefficients, PA's stage 3 from that start) are built once per trial,
    in prepare_trial, outside every timer, and no scheme writes them, so a
    scheme's work does not depend on which schemes ran before it."""
    data = prepare_trial(config, trial_index)
    records = []
    results = {}
    for scheme in schemes:
        t0 = time.perf_counter()
        result = run_scheme(scheme, data, config)
        runtime = time.perf_counter() - t0
        results[scheme.label] = result
        se = result.se.se
        records.append(MetricsRecord(
            trial=trial_index, scheme=scheme.label, num_uavs=config.num_uavs,
            min_se=min_se(se), success_rate=success_rate(se, config.se_min),
            jain_fairness=jain_fairness(se), runtime_s=runtime,
            ao_iterations=result.trace.count,
            fp_iterations_total=result.fp_iterations,
            channel_hash=data.channel_hash))
    return records, results


def _worker(args):
    records, _ = run_trial(*args)
    return records


def run_monte_carlo(config: ExperimentConfig, schemes=None,
                    n_jobs: int = 1):
    """Run all trials of one configuration. Returns (records, failed): the
    metric records sorted by (trial, scheme), and the indices of the trials
    that raised, which are logged and contribute no record."""
    schemes = tuple(ALL_SCHEMES if schemes is None else schemes)
    tasks = [(config, t, schemes) for t in range(config.trials)]
    records = []
    failed = []
    if n_jobs <= 1:
        for task in tasks:
            try:
                records.extend(_worker(task))
            except Exception:
                log.exception("trial %d failed; continuing", task[1])
                failed.append(task[1])
    else:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = [(t, pool.submit(_worker, task))
                       for t, task in zip(range(config.trials), tasks)]
            for trial_index, fut in futures:
                try:
                    records.extend(fut.result())
                except Exception:
                    log.exception("trial %d failed; continuing", trial_index)
                    failed.append(trial_index)
    records.sort(key=lambda r: (r.num_uavs, r.trial, r.scheme))
    return records, failed


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.9g}"


def aggregate_records(records) -> list:
    """Per-(scheme, K) mean and standard error of every metric column."""
    groups = {}
    for r in records:
        groups.setdefault((r.scheme, r.num_uavs), []).append(r)
    rows = []
    for (scheme, k), rs in sorted(groups.items()):
        row = {"scheme": scheme, "K": k, "n_trials": len(rs)}
        for col in _METRIC_COLUMNS:
            vals = np.array([getattr(r, col) for r in rs], dtype=float)
            row[f"{col}_mean"] = float(np.mean(vals))
            row[f"{col}_stderr"] = (float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
                                    if len(vals) > 1 else 0.0)
        rows.append(row)
    return rows


def sibling_path(path, tag: str, ext: str | None = None) -> str:
    """The file <stem>_<tag><ext> beside path: os.path.splitext gives <stem>
    and path's own extension, which ext replaces if given. A dot in a
    directory name is no extension: runs.v2/results gives runs.v2/results_<tag>."""
    stem, own_ext = os.path.splitext(str(path))
    return f"{stem}_{tag}{own_ext if ext is None else ext}"


def write_results(records, path) -> tuple:
    """Write the per-trial CSV plus a per-(scheme, K) aggregate CSV next to
    it. Returns (path, aggregate_path)."""
    path = str(path)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in records:
                writer.writerow([_fmt(v) for v in astuple(r)])
        agg_path = sibling_path(path, "aggregate")
        agg_rows = aggregate_records(records)
        header = ["scheme", "K", "n_trials"]
        for col in _METRIC_COLUMNS:
            header += [f"{col}_mean", f"{col}_stderr"]
        with open(agg_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in agg_rows:
                writer.writerow([row["scheme"], row["K"], row["n_trials"]]
                                + [_fmt(row[h]) for h in header[3:]])
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc
    return path, agg_path


def read_results(path) -> list:
    """Parse a results CSV back into MetricsRecord rows."""
    records = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected results header in {path!r}")
        for row in reader:
            records.append(MetricsRecord(*(
                f.type(row[col])
                for f, col in zip(fields(MetricsRecord), CSV_COLUMNS))))
    return records


def dump_links(config: ExperimentConfig, trial_index: int, path) -> str:
    """Debug dump of per-link large-scale state for one trial; the state is
    the one prepare_trial builds for the same (config, trial)."""
    _, ls = large_scale_state(config, trial_streams(config, trial_index))
    path = str(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["uav", "oru", "beta", "rician_k_linear", "is_los"])
        for k in range(config.num_uavs):
            for l in range(config.num_orus):
                writer.writerow([k, l, _fmt(ls.beta[k, l]),
                                 _fmt(ls.rician_k_linear[k, l]),
                                 int(ls.is_los[k, l])])
    return path
