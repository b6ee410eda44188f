"""Per-layer spans and work counts for one pipeline run.

The benchmark does not change `src/epl`. It wraps each layer's public
functions at the place the caller looks the name up: `epl.pipeline` binds
most of them by name at import, `tsne_project` reaches its kernels through
`epl.projection` globals, and the pipeline calls the contrastive layer
through the module object. Wrapping the defining module instead would
record nothing. A renamed function fails `Tracer.install` with an
AttributeError; a function that is still defined but no longer called
shows up in `Tracer.uncovered`.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

import epl.contrastive
import epl.pipeline
import epl.projection

# (span, owner, attribute): the span each call is recorded under.
TARGETS = (
    ("dataset.generate", epl.pipeline, "generate_blobs"),
    ("contrastive.train", epl.contrastive, "train"),
    ("contrastive.train", epl.contrastive, "finetune_supcon"),
    ("contrastive.extract", epl.contrastive, "extract_features"),
    ("projection.tsne", epl.pipeline, "tsne_project"),
    ("projection.affinities", epl.projection, "pairwise_affinities"),
    ("projection.gradient", epl.projection, "kl_gradient"),
    ("projection.kl_tail", epl.projection, "kl_divergence"),
    ("opf.propagate", epl.pipeline, "opfsemi_propagate"),
    ("opf.sup_train", epl.pipeline, "opfsup_train"),
    ("opf.classify", epl.pipeline, "opfsup_classify_batch"),
    ("probe.linear", epl.pipeline, "train_linear"),
    ("probe.softmax", epl.pipeline, "train_softmax"),
    ("probe.predict", epl.pipeline, "predict"),
    ("metrics.knn", epl.pipeline, "knn_consistency"),
    ("metrics.confusion", epl.pipeline, "confusion"),
    ("pipeline.io", epl.pipeline, "write_embedding_csv"),
    ("pipeline.io", epl.pipeline, "emit_scatter"),
    ("pipeline.io", epl.contrastive.EncoderParams, "save"),
    ("pipeline.io", epl.pipeline, "write_results_csv"),
    ("pipeline.io", epl.pipeline.RunManifest, "write"),
)

# Per-layer time metrics: metric name -> span whose busy time it sums.
BUSY = {
    "dataset.generate_s": "dataset.generate",
    "contrastive.train_s": "contrastive.train",
    "contrastive.extract_s": "contrastive.extract",
    "projection.affinities_s": "projection.affinities",
    "projection.gradient_s": "projection.gradient",
    "projection.kl_tail_s": "projection.kl_tail",
    "opf.propagate_s": "opf.propagate",
    "opf.sup_train_s": "opf.sup_train",
    "opf.classify_s": "opf.classify",
    "probe.linear_s": "probe.linear",
    "probe.softmax_s": "probe.softmax",
    "probe.predict_s": "probe.predict",
    "metrics.knn_s": "metrics.knn",
    "metrics.confusion_s": "metrics.confusion",
    "pipeline.io_s": "pipeline.io",
}
COUNTS = ("contrastive.calls", "contrastive.view_rows", "projection.gradient_calls",
          "projection.pair_evals", "opf.roots", "opf.tree_visits")


def label(owner, attribute: str) -> str:
    return attribute if inspect.ismodule(owner) else f"{owner.__name__}.{attribute}"


# Work counts computed from each call's arguments and result. Each epoch
# views every row of the training role set twice (training batches plus
# the validation slice); simclr trains on S and U, supcon only on S.
def _training_views(args, _result, finetune: bool) -> dict:
    split = args["split"]
    rows = split.supervised.size
    if not finetune and args["mode"] == "simclr":
        rows += split.unsupervised.size
    return {"contrastive.calls": 1,
            "contrastive.view_rows": 2 * rows * args["config"].epochs}


def _pair_evals(args, _result) -> dict:
    config = args["config"] or epl.projection.ProjectionConfig()
    n = len(args["features"])
    return {"projection.pair_evals": n * n * config.iterations}


def _forest(n: int, roots: int) -> dict:
    return {"opf.roots": roots, "opf.tree_visits": n * roots}


COUNTERS = {
    "train": functools.partial(_training_views, finetune=False),
    "finetune_supcon": functools.partial(_training_views, finetune=True),
    "tsne_project": _pair_evals,
    "kl_gradient": lambda _args, _result: {"projection.gradient_calls": 1},
    "opfsemi_propagate": lambda _args, forest: _forest(
        len(forest.cost), int((forest.predecessor < 0).sum())),
    "opfsup_train": lambda _args, model: _forest(
        len(model.labels), int(model.prototype.sum())),
}


class Tracer:
    """Records (span, parent span, start, end) per call and per-name call counts."""

    def __init__(self):
        self.spans: list[tuple[str, str | None, float, float]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[str] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for span, owner, attribute in TARGETS:
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(span, label(owner, attribute), original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def _wrap(self, span: str, name: str, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span, parent, start, end))
                self.calls[name] += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(counter(bound.arguments, result))
            return result
        return traced

    def uncovered(self, skips) -> list[str]:
        """Traced names outside `skips` that recorded no call."""
        return [name for name in (label(o, a) for _, o, a in TARGETS)
                if name not in skips and self.calls[name] == 0]

    def layer_metrics(self, run_start: float, run_end: float) -> dict:
        """Busy time per layer, self times, and work counts.

        `pipeline.self_s` is the run's wall time not covered by a top-level
        span; `projection.descent_self_s` is `tsne_project` time not covered
        by its affinity, gradient and KL spans.
        """
        busy: dict[str, float] = defaultdict(float)
        child: dict[str | None, float] = defaultdict(float)
        for span, parent, start, end in self.spans:
            busy[span] += end - start
            if parent is not None or start >= run_start:
                child[parent] += end - start
        metrics = {name: busy[span] for name, span in BUSY.items()}
        metrics["projection.descent_self_s"] = (busy["projection.tsne"]
                                                - child["projection.tsne"])
        metrics["pipeline.self_s"] = (run_end - run_start) - child[None]
        metrics.update({name: self.counts[name] for name in COUNTS})
        return metrics
