"""cfuav benchmark entry point.

    python3 perfbench/run.py --workload desk-sweep --seed 2026 --seconds 40 --trace 0

Runs one workload against the cfuav sources in ``src/`` next to this
directory, in this one process with BLAS pinned to one thread. Prints a
report line (``{"report": ...}``: every metric with unit and direction, the
environment and any failed checks), then, as the last line, the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
of BENCHMARK.json (``--trace 0``) or its per-layer metrics (``--trace 1``).
Exits 2 without a result when the sources or BENCHMARK.json are missing."""

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds >= 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def _environment(args, import_s: float) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload_seed": args.seed,
        "cfuav_import_s": import_s,
    }


def _finite(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cfuav" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no cfuav sources (src/cfuav) or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    gated = spec["per_layer"] if args.trace else spec["end_to_end"]

    # pin BLAS before numpy loads it
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import cfuav
    import_s = time.perf_counter() - t0
    if Path(cfuav.__file__).resolve().parent != ROOT / "src" / "cfuav":
        print(f"perfbench: imported cfuav from {cfuav.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    report = workloads.run(workloads.WORKLOADS[args.workload], args.seed,
                           args.seconds, bool(args.trace))
    report["environment"] = _environment(args, import_s)
    report["trace"] = args.trace
    print(json.dumps({"report": report}))
    metrics = report["metrics"]
    missing = [m["name"] for m in gated if m["name"] not in metrics]
    if missing and report["failed"] == 0:
        print(f"perfbench: workload {args.workload!r} does not produce {missing}",
              file=sys.stderr)
        return 2
    # after failures a metric can lack samples; it is reported as null
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": _finite(metrics.get(m["name"], {}).get("value")),
                                "unit": m["unit"]} for m in gated},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
