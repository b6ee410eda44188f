"""Smoke test of the benchmark at criterion-9 size.

    python3 perfbench/smoke.py

Runs run.py on the `smoke` workload untraced and traced, and checks that
each prints every metric BENCHMARK.json names, by name and with its unit,
with no failed sample. Then forces a digest mismatch on a copy of a real
sample and checks that it counts as a failed run, and checks that the
span-coverage guard reports traced names that were not called. Exits 0
when all hold.
"""

import json
import subprocess
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_run(trace: int, expected: list[dict]) -> None:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "smoke", "--seed", "11",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in expected}, result["metrics"]
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], (metric, entry)
        assert isinstance(entry["value"], (int, float)), entry
        assert any(line.split()[:2] == [metric["name"], metric["unit"]]
                   for line in lines), f"{metric['name']} missing from the table"
    print(f"trace {trace}: {result['attempted']} samples, "
          f"{len(expected)} metrics printed with units")


def check_forced_mismatch() -> None:
    sample = run.run_sample("smoke", 11, False, run.SCRATCH / "smoke-mismatch")
    assert sample["problem"] is None, sample
    forced = dict(sample, digest="0" * 64)
    verdicts = run.judge([sample, dict(sample), forced])
    assert verdicts[:2] == [None, None] and verdicts[2].startswith("artifact digest"), \
        verdicts
    print("forced digest mismatch: 1 of 3 samples failed")


def check_coverage_guard() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import epl.pipeline
    import spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        epl.pipeline.confusion([0, 1], [0, 1])
    finally:
        tracer.uninstall()
    uncovered = tracer.uncovered(frozenset())
    assert "confusion" not in uncovered and "kl_gradient" in uncovered, uncovered
    print(f"coverage guard: {len(uncovered)} of {len(spans.TARGETS)} traced names "
          "reported uncalled")


def main() -> None:
    run.SCRATCH.mkdir(exist_ok=True)
    check_run(0, BENCHMARK["end_to_end"])
    check_run(1, BENCHMARK["per_layer"])
    check_forced_mismatch()
    check_coverage_guard()
    print("smoke ok")


if __name__ == "__main__":
    main()
