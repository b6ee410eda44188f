"""One sample of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace]

Set-up is timed from just before `epl` is imported (numpy and scipy
included) to the dataset being generated and split. The run is the
`run_experiment` call, from the call to its results and manifest on disk.
The output check and the digest of the artifacts follow, untimed. The last
line of standard output is a JSON report that run.py reads.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
START = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))

import epl  # noqa: E402  (imported after START: set-up includes it)
from epl.config import ExperimentConfig  # noqa: E402
from epl.dataset import stratified_split  # noqa: E402
from epl.pipeline import dataset_from_config, read_results_csv, run_experiment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def output_check(workload, out_dir: Path, rows, code: int) -> str | None:
    """Why the run's outputs are wrong, or None when they pass."""
    if code != 0:
        return f"run_experiment returned {code}: arm errors in the manifest"
    if len(rows) != workload.rows:
        return f"{len(rows)} result rows, expected {workload.rows}"
    if read_results_csv(out_dir / "results.csv") != rows:
        return "results.csv does not read back as the returned rows"
    for row in rows:
        if not (0.0 <= row.accuracy <= 1.0 and -1.0 <= row.kappa <= 1.0):
            return f"{row.experiment}/{row.classifier}: accuracy or kappa out of range"
    if workload.propagation_floor is not None:
        worst = min(r.accuracy for r in rows if r.classifier == "propagation")
        if worst < workload.propagation_floor:
            return f"propagation accuracy {worst:.4f} < {workload.propagation_floor}"
    return None


def artifact_digest(out_dir: Path) -> str:
    """sha256 over every output file but manifest.txt, as criterion 9 compares them."""
    outer = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "manifest.txt":
            outer.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            outer.update(hashlib.sha256(path.read_bytes()).digest())
    return outer.hexdigest()


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS this process loaded, if it reports one."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cache_sizes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = (index / "size").read_text().strip()
    return caches


def machine_facts() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "epl": epl.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads(),
        "caches": cache_sizes(),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    cfg = ExperimentConfig(**workload.config_fields(args.seed, str(out_dir)))
    data = dataset_from_config(cfg)
    stratified_split(data, cfg.s_frac, cfg.u_frac, cfg.t_frac, cfg.base_seed)
    setup_s = time.perf_counter() - START

    run_start = time.perf_counter()
    try:
        rows, code = run_experiment(workload.kind, cfg)
        problem = None
    except Exception as exc:  # a raising run is a failed sample, not a crash
        rows, code = [], None
        problem = f"raised {type(exc).__name__}: {exc}"
    run_end = time.perf_counter()
    if problem is None:
        problem = output_check(workload, out_dir, rows, code)

    report = {
        "traced": args.trace,
        "problem": problem,
        "setup_s": setup_s,
        "run_s": run_end - run_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": artifact_digest(out_dir) if out_dir.is_dir() else None,
        "machine": machine_facts(),
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.layer_metrics(run_start, run_end)
        report["uncovered"] = tracer.uncovered(workload.skips) if problem is None else []
    print(json.dumps(report))


if __name__ == "__main__":
    main()
