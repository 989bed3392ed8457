"""Paired in-process A/B of two cfuav source trees on desk trials.

    python3 bench/ab_trials.py --parent DIR --change DIR [--trials 120]
                               [--seed 2026]

DIR is a checkout that holds src/cfuav. Both trees are loaded into this one
process under two package names (their modules import each other relatively),
and each desk trial runs through both sides' ``harness.run_trial`` with all
six schemes, the side that goes first alternating from trial to trial. The
trials are those of perfbench's desk-sweep: the desk preset with se_min 1.0,
K cycling 5/10/20. Pairing each trial with itself in one process cancels the
host's speed phases, which separate processes see as run-to-run spread.

Prints, per K and over all trials, the median of the per-trial time ratios
parent/change with their quartiles and the count of trials the change ran
faster, the ratio of total times, and the same for prepare_trial's share
(a trial's time outside its schemes' runtime_s). One line per scheme gives
its runtime_s: the median in ms on each side and the median of the paired
ratios parent/change, so that work moved between schemes, or between a
scheme and prepare_trial, reads directly. Then a drift check of
every (trial, scheme) record: ao_iterations, fp_iterations_total,
success_rate, association and channel_hash must be equal, and min_se is
reported by how far it moved. Last, an untimed pass over the first 12
trials runs each side again with tracemalloc on and prints, per side, the
median traced peak of a trial (numpy reports its buffers to tracemalloc),
with the ratio parent/change. Exits 1 when a decision differs."""

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
DESK_UAVS = (5, 10, 20)
DECISIONS = ("ao_iterations", "fp_iterations_total", "success_rate",
             "channel_hash")
MEMORY_TRIALS = 12


def load_tree(root, name: str) -> SimpleNamespace:
    """Import ROOT/src/cfuav as package `name`; returns the modules this
    script calls, as attributes."""
    pkg_dir = Path(root).resolve() / "src" / "cfuav"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py",
        submodule_search_locations=[str(pkg_dir)])
    if spec is None:
        raise SystemExit(f"ab_trials: no cfuav package under {pkg_dir}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{
        module: importlib.import_module(f"{name}.{module}")
        for module in ("harness", "orchestrator", "scenario")})


def desk_trials(tree, seed: int, n_trials: int) -> list:
    """(config, trial index) of perfbench's desk-sweep list."""
    configs = [tree.scenario.desk_scale(tree.scenario.ExperimentConfig(),
                                        num_uavs=k, se_min=1.0,
                                        master_seed=seed)
               for k in DESK_UAVS]
    return [(configs[t % len(configs)], t) for t in range(n_trials)]


def timed_trial(tree, config, trial: int):
    """(wall s, prepare s, records, results) of one run_trial."""
    t0 = time.perf_counter()
    records, results = tree.harness.run_trial(config, trial,
                                              tree.orchestrator.ALL_SCHEMES)
    wall = time.perf_counter() - t0
    return wall, wall - sum(r.runtime_s for r in records), records, results


def traced_peak(tree, config, trial: int) -> int:
    """Traced peak bytes of one run_trial above its start; tracemalloc must
    be on."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    tree.harness.run_trial(config, trial, tree.orchestrator.ALL_SCHEMES)
    return tracemalloc.get_traced_memory()[1] - start


def memory_lines(sides, items) -> list:
    """The memory pass: the first MEMORY_TRIALS trials once more per side,
    alternating which goes first, with tracemalloc on. Page faults are not
    compared: both sides share one heap, so a side's faults depend on what
    the other side just freed."""
    peaks = ([], [])
    tracemalloc.start()
    try:
        for t in range(min(MEMORY_TRIALS, len(items[0]))):
            for side in ((0, 1) if t % 2 == 0 else (1, 0)):
                peaks[side].append(
                    traced_peak(sides[side], *items[side][t]) / 1e6)
    finally:
        tracemalloc.stop()
    p, c = statistics.median(peaks[0]), statistics.median(peaks[1])
    return [f"memory per desk trial, median over {len(peaks[0])} "
            "(tracemalloc on)",
            f"traced peak   parent {p:.2f} MB  change {c:.2f} MB  "
            f"ratio {p / c:.3f}"]


def quartiles(values) -> tuple:
    """Lower quartile, median and upper quartile, interpolated linearly."""
    x = sorted(values)

    def q(f):
        pos = f * (len(x) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(x) - 1)
        return x[lo] + (pos - lo) * (x[hi] - x[lo])
    return q(0.25), q(0.5), q(0.75)


def ratio_line(label: str, parent: list, change: list) -> str:
    ratios = [p / c for p, c in zip(parent, change)]
    q1, med, q3 = quartiles(ratios)
    wins = sum(r > 1.0 for r in ratios)
    return (f"{label:<10} n={len(ratios):<4} median {med:.3f} "
            f"(IQR {q1:.3f}-{q3:.3f})  faster in {wins}/{len(ratios)}  "
            f"total {sum(parent) / sum(change):.3f}")


def runtime_lines(pairs: list) -> list:
    """Per scheme, the median runtime_s of each side over the trials and the
    median of the paired ratios parent/change."""
    per = {}
    for (rec_p, _), (rec_c, _) in pairs:
        for rp, rc in zip(rec_p, rec_c):
            per.setdefault(rp.scheme, []).append((rp.runtime_s, rc.runtime_s))
    lines = ["runtime_s per scheme: median ms per side, median ratio "
             "parent/change"]
    for scheme, times in per.items():
        p = statistics.median(t for t, _ in times) * 1e3
        c = statistics.median(t for _, t in times) * 1e3
        ratio = statistics.median(tp / tc for tp, tc in times)
        lines.append(f"{scheme:<10} parent {p:.3f} ms  change {c:.3f} ms  "
                     f"ratio {ratio:.3f}")
    return lines


def drift(pairs: list) -> tuple:
    """Decision mismatches and the min_se moves of (parent, change) pairs of
    (records, results) per trial."""
    mismatches, moves = [], []
    for (rec_p, res_p), (rec_c, res_c) in pairs:
        for rp, rc in zip(rec_p, rec_c):
            where = f"trial {rp.trial} {rp.scheme}"
            for name in DECISIONS:
                if getattr(rp, name) != getattr(rc, name):
                    mismatches.append(f"{where}: {name}")
            if not (res_p[rp.scheme].association
                    == res_c[rc.scheme].association).all():
                mismatches.append(f"{where}: association")
            moves.append((abs(rp.min_se - rc.min_se), where))
    return mismatches, moves


def drift_lines(mismatches: list, moves: list) -> list:
    n = len(moves)
    lines = [f"decisions: {len(mismatches)} mismatches in "
             f"{', '.join(DECISIONS)}, association over {n} records"]
    lines += [f"  {m}" for m in mismatches[:20]]
    delta = [d for d, _ in moves]
    worst, where = max(moves)
    lines.append(f"min_se: identical {sum(d == 0.0 for d in delta)}/{n}, "
                 f"|diff| <= 1e-14 {sum(d <= 1e-14 for d in delta)}/{n}, "
                 f"<= 1e-12 {sum(d <= 1e-12 for d in delta)}/{n}, "
                 f"max {worst:.3g} ({where})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--trials", type=int, default=120)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:       # before numpy loads BLAS
        os.environ[var] = "1"
    sides = (load_tree(args.parent, "cfuav_parent"),
             load_tree(args.change, "cfuav_change"))
    items = [desk_trials(tree, args.seed, args.trials) for tree in sides]
    for tree, side_items in zip(sides, items):      # warm-up
        for config, _ in side_items[:len(DESK_UAVS)]:
            tree.harness.prepare_trial(config, args.trials)

    wall = ([], [])
    prep = ([], [])
    ks, pairs = [], []
    for t in range(args.trials):
        out = [None, None]
        for side in ((0, 1) if t % 2 == 0 else (1, 0)):
            out[side] = timed_trial(sides[side], *items[side][t])
        for side in (0, 1):
            wall[side].append(out[side][0])
            prep[side].append(out[side][1])
        ks.append(items[0][t][0].num_uavs)
        pairs.append(tuple(o[2:] for o in out))

    print("time ratio parent/change per desk trial (whole run_trial)")
    for k in DESK_UAVS:
        sel = [i for i, kk in enumerate(ks) if kk == k]
        print(ratio_line(f"K={k}", [wall[0][i] for i in sel],
                         [wall[1][i] for i in sel]))
    print(ratio_line("all", *wall))
    print(ratio_line("prepare", *prep))
    print("\n".join(runtime_lines(pairs)))
    mismatches, moves = drift(pairs)
    print("\n".join(drift_lines(mismatches, moves)))
    print("\n".join(memory_lines(sides, items)))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
