"""Benchmark of the epl chain: time to a result, memory, and per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample runs one workload (see workloads.py) in a fresh process
(worker.py) through `run_experiment`, one sample after another, until
`--seconds` have passed. Samples and the reference kernel below run with
one BLAS thread: the host has few cores, and both timings and matmul
bytes depend on the thread count.

A sample fails if the call raises, returns exit code 2 (an arm error in
the manifest), fails the output check in worker.py, or writes artifacts
whose digest differs from the run's other samples. On traced samples the
work counts must also repeat exactly.

With `--trace 0` the samples are untraced and the run reports

    setup_s       s     import epl, generate the dataset and split it
    run_s         s     run_experiment, from the call to its files on
                        disk, at the host's reference speed (below)
    peak_rss_mb   MB    peak resident memory of the sample's process
    success_frac  frac  1 - failed_frac, the share of samples that passed

as medians over samples. `failed_frac` is printed too and carried by the
result's `attempted` and `failed`; the end-to-end metric is its complement
so that it is never 0.

On a shared host the speed of every core moves by up to a third for
minutes at a time, so whole runs of the same code differ by that much in
wall time whatever statistic is taken over their samples. Just before and
just after each sample this process therefore times a fixed numpy kernel
(`reference_s`, in a process that never imports epl), and a sample's
`run_s` is its wall time scaled by REFERENCE_S / reference_s: the time the
run would have taken with the host at the speed where the kernel takes
REFERENCE_S. On a 2-vCPU Xeon virtual machine, over ten runs (seeds 1-10)
of each workload, it cut the quartile spread of the run medians from 0.145
of their median (wall time) to 0.071 on probe_dense and from 0.071 to 0.043
on chain_separated. The wall time and the reference time are printed
beside it.

With `--trace 1` untraced and traced samples alternate. Traced samples
wrap each layer's public functions (spans.py) and report busy time per
layer, self times and work counts; `trace.overhead_s` is the traced minus
the untraced median `run_s`. A traced name that a workload should call but
did not fails the run with exit code 1: the benchmark no longer measures
that layer.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# Set before numpy loads, so the reference kernel runs one thread too;
# the worker processes inherit it.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_run"
SAMPLE_TIMEOUT_S = 150.0
# The reference kernel's median time with the host at full speed on a
# 2-vCPU Xeon virtual machine; run_s is scaled to that speed.
REFERENCE_S = 0.040


def _kernel_s(a: np.ndarray, w: np.ndarray) -> float:
    """Small matmuls, elementwise maths and a sort: the mix the epl layers run."""
    start = time.perf_counter()
    for _ in range(150):
        h = np.tanh(a @ w)
        g = h.T @ h
        np.exp(-np.abs(g)).sum()
        np.sort(h, axis=0)
    return time.perf_counter() - start


def reference_s() -> float:
    """Median of five timings of the fixed reference kernel (about 0.2 s)."""
    rng = np.random.default_rng(0)
    a, w = rng.standard_normal((256, 64)), 0.1 * rng.standard_normal((64, 64))
    return statistics.median(_kernel_s(a, w) for _ in range(5))


def scaled_run_s(sample: dict) -> float:
    """The sample's wall time at the host speed where the kernel takes REFERENCE_S."""
    return sample["run_s"] * REFERENCE_S / sample["reference_s"]


# (metric, unit, value of one sample)
END_TO_END = (("setup_s", "s", lambda s: s["setup_s"]),
              ("run_s", "s", scaled_run_s),
              ("peak_rss_mb", "MB", lambda s: s["peak_rss_mb"]))


def run_sample(workload: str, seed: int, traced: bool, out_dir: Path) -> dict:
    """Run worker.py once, between two timings of the reference kernel; a
    report with `problem` set when the sample failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out_dir)] + (["--trace"] if traced else [])
    before = reference_s()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problem": f"timed out after {SAMPLE_TIMEOUT_S:.0f} s"}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"traced": traced, "problem": f"worker exit {proc.returncode}: {tail[0]}"}
    report = json.loads(lines[-1])
    report["reference_s"] = (before + reference_s()) / 2
    return report


def judge(samples: list[dict]) -> list[str | None]:
    """Why each sample failed, or None. A sample whose digest (or, if traced,
    work counts) differs from the most common among passing samples fails."""
    passing = [s for s in samples if s["problem"] is None]
    digest = Counter(s["digest"] for s in passing).most_common(1)
    counts = Counter(_counts_key(s) for s in passing if s["traced"]).most_common(1)
    verdicts = []
    for s in samples:
        if s["problem"] is not None:
            verdicts.append(s["problem"])
        elif s["digest"] != digest[0][0]:
            verdicts.append(f"artifact digest {s['digest'][:16]} differs from "
                            f"{digest[0][0][:16]}")
        elif s["traced"] and _counts_key(s) != counts[0][0]:
            verdicts.append("work counts differ from the other traced samples")
        else:
            verdicts.append(None)
    return verdicts


def _layer_unit(name: str) -> str:
    """Per-layer metrics are busy or self times (`*_s`) or work counts."""
    return "s" if name.endswith("_s") else "count"


def _counts_key(sample: dict) -> tuple:
    return tuple(value for name, value in sample["layers"].items()
                 if _layer_unit(name) == "count")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _row(name: str, unit: str, values: list[float]) -> str:
    q1, median, q3 = _quartiles(values)
    return f"  {name:28s} {unit:6s} n={len(values):<3d} median={median:<12.6g} " \
           f"p25={q1:<12.6g} p75={q3:.6g}"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Samples until `seconds` pass; traced runs alternate untraced and traced."""
    SCRATCH.mkdir(exist_ok=True)
    samples: list[dict] = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or (trace and not any(s["traced"] for s in samples))):
        traced = trace and len(samples) % 2 == 1
        out_dir = SCRATCH / f"{workload}-{os.getpid()}-{len(samples)}"
        samples.append(run_sample(workload, seed, traced, out_dir))
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "epl" / "__init__.py").is_file():
        print(f"run.py: no epl sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the sample.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    verdicts = judge(samples)
    failed = sum(v is not None for v in verdicts)
    timed = [s for s in samples if "run_s" in s]
    if not timed:
        print(f"run.py: no sample of {args.workload} ran: {verdicts[0]}", file=sys.stderr)
        return 1

    machine = timed[0]["machine"]
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(samples)} samples, "
          f"{failed} failed")
    for i, (s, verdict) in enumerate(zip(samples, verdicts)):
        kind = "traced" if s["traced"] else "plain"
        timing = (f"run_s={scaled_run_s(s):.4f} wall={s['run_s']:.4f} "
                  f"reference={s['reference_s']:.4f} setup_s={s['setup_s']:.4f}"
                  if "run_s" in s else "")
        print(f"  sample {i} {kind:6s} {timing} digest={(s.get('digest') or '-')[:16]} "
              f"{verdict or 'ok'}")
    digests = sorted({s["digest"] for s in timed if s.get("digest")})
    print(f"artifact digest(s): {' '.join(digests)}")

    plain = [s for s in timed if not s["traced"]]
    metrics = {}
    if not args.trace:
        print("end-to-end metrics (untraced):")
        for name, unit, value in END_TO_END:
            values = [value(s) for s in plain]
            print(_row(name, unit, values))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        print("  beside run_s:")
        print(_row("wall time", "s", [s["run_s"] for s in plain]))
        print(_row("reference_s", "s", [s["reference_s"] for s in plain]))
        failed_frac = failed / len(samples)
        for name, value in (("failed_frac", failed_frac), ("success_frac", 1.0 - failed_frac)):
            print(f"  {name:28s} {'frac':6s} n={len(samples):<3d} value={value:.6g}")
        metrics["success_frac"] = {"value": 1.0 - failed_frac, "unit": "frac"}
    else:
        traced = [s for s in timed if s["traced"]]
        if not traced or not plain:
            print(f"run.py: need a traced and an untraced sample of {args.workload}: "
                  f"{next(v for v in verdicts if v)}", file=sys.stderr)
            return 1
        uncovered = sorted({name for s in traced for name in s["uncovered"]})
        if uncovered:
            print(f"run.py: span coverage: {', '.join(uncovered)} recorded no call on "
                  f"{args.workload}; the tracer no longer wraps where the pipeline "
                  "looks these names up", file=sys.stderr)
            return 1
        print("per-layer metrics (traced):")
        for name in traced[0]["layers"]:
            unit = _layer_unit(name)
            values = [s["layers"][name] for s in traced]
            print(_row(name, unit, values))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        traced_run = statistics.median(scaled_run_s(s) for s in traced)
        plain_run = statistics.median(scaled_run_s(s) for s in plain)
        overhead = traced_run - plain_run
        print(f"  {'trace.overhead_s':28s} {'s':6s} value={overhead:.6g}: traced run_s "
              f"median {traced_run:.4f} (n={len(traced)}) - untraced {plain_run:.4f} "
              f"(n={len(plain)})")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
