"""Command-line front end: run the Monte Carlo benchmark and write CSVs."""

import argparse
import sys
from dataclasses import replace

from .harness import dump_links, run_monte_carlo, sibling_path, write_results
from .orchestrator import ALL_SCHEMES, parse_scheme
from .scenario import DESK_PRESET, ExperimentConfig, load_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfuav",
        description="Uplink max-min RRM benchmark for a cell-free massive "
                    "MIMO network serving UAVs.")
    parser.add_argument("--config", metavar="PATH",
                        help="key=value config file (defaults otherwise)")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="override master_seed")
    parser.add_argument("--trials", type=int, metavar="N",
                        help="override number of Monte Carlo trials")
    parser.add_argument("--uavs", metavar="LIST",
                        help="comma-separated UAV counts to sweep, e.g. 5,10,20")
    parser.add_argument("--schemes", metavar="LIST",
                        help="comma-separated scheme labels "
                             "(default: all six, e.g. BA+FP,PA+PP)")
    parser.add_argument("--out", metavar="PATH", default="results.csv",
                        help="per-trial results CSV (aggregate written next to it)")
    parser.add_argument("--desk-scale", action="store_true",
                        help="small preset: L=25, N=2, tau_p=5, 50 trials")
    parser.add_argument("--dump-links", action="store_true",
                        help="also dump per-link (beta, K-factor, LoS) for trial 0")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for trials (default 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        uav_counts = ([int(x) for x in args.uavs.split(",") if x.strip()]
                      if args.uavs else None)
        schemes = ([parse_scheme(s) for s in args.schemes.split(",") if s.strip()]
                   if args.schemes else list(ALL_SCHEMES))
        if uav_counts == [] or not schemes:
            raise ValueError("--uavs and --schemes need at least one item")
        # flags replace the file's values before the one config is built and
        # checked: the desk preset, then --seed, --trials and the first count
        overrides = dict(DESK_PRESET) if args.desk_scale else {}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.trials is not None:
            overrides["trials"] = args.trials
        if uav_counts:
            overrides["num_uavs"] = uav_counts[0]
        config = (load_config(args.config, **overrides) if args.config
                  else ExperimentConfig(**overrides))
        uav_counts = uav_counts or [config.num_uavs]

        # build (and so validate) every per-K config before the first trial
        configs = [replace(config, num_uavs=k) for k in uav_counts]
        records = []
        failed = 0
        for cfg_k in configs:
            if args.dump_links:
                dump_links(cfg_k, 0, sibling_path(
                    args.out, f"links_K{cfg_k.num_uavs}", ".csv"))
            got, failed_trials = run_monte_carlo(cfg_k, schemes,
                                                 n_jobs=args.jobs)
            records.extend(got)
            failed += len(failed_trials)
        path, agg_path = write_results(records, args.out)
        print(f"wrote {len(records)} records to {path} (aggregate: {agg_path})")
        if failed:
            print(f"error: {failed} of {config.trials * len(uav_counts)} "
                  f"trials failed", file=sys.stderr)
            return 1
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
