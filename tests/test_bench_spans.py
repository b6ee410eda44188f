"""Every function the benchmark traces is still reached under its traced name.

perfbench/spans.py wraps pipeline functions where the pipeline looks them
up. Renaming one, or calling around it, would only surface as a failed
traced benchmark run; this test makes it a test failure instead. It also
pins what the t-SNE counts mean and every work count of the smoke run, so
a refactor of the descent, the forests or the trainer cannot silently
change the per-layer metrics.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from epl.config import ExperimentConfig  # noqa: E402
from epl.pipeline import run_experiment  # noqa: E402


def test_smoke_workload_calls_every_traced_name(tmp_path):
    workload = WORKLOADS["smoke"]
    cfg = ExperimentConfig(**workload.config_fields(11, str(tmp_path)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        rows, code = run_experiment(workload.kind, cfg)
    finally:
        tracer.uninstall()
    assert code == 0 and len(rows) == workload.rows
    assert tracer.uncovered(frozenset()) == []
    # What the per-layer counts mean: one gradient per descent step and one
    # plain-objective KL for each of the last 50 steps.
    projections = tracer.calls["tsne_project"]
    assert projections > 0
    assert tracer.counts["projection.gradient_calls"] == cfg.iterations * projections
    assert tracer.calls["kl_divergence"] == 50 * projections
    assert {name: tracer.counts[name] for name in spans.COUNTS} == {
        "contrastive.calls": 6, "contrastive.view_rows": 2880,
        "projection.gradient_calls": 900, "projection.pair_evals": 14288400,
        "opf.roots": 66, "opf.tree_visits": 6912}
