"""Exact t-SNE to 2D, with the consistency score that stands in for
eyeballing the scatterplot, and an SVG rendering of the result.
"""

import tempfile
from pathlib import Path

from epl import (ProjectionConfig, emit_scatter, generate_blobs,
                 knn_consistency, tsne_project)

data = generate_blobs(k=4, per_class=80, d=16, spread=1.5, center_dist=10.0, seed=9)
print(f"projecting {data.sample_count} points from {data.dim} dims to 2")

config = ProjectionConfig(perplexity=30.0, iterations=600,
                          exaggeration_iters=150, momentum_switch=150, seed=1)
embedding = tsne_project(data.features, config)
print(f"final KL divergence {embedding.final_kl:.4f} after "
      f"{config.iterations} iterations "
      f"(worst late increase {embedding.max_late_kl_increase:.2e})")

score_input = knn_consistency(data.features, data.labels, k=10)
score_2d = knn_consistency(embedding.coordinates, data.labels, k=10)
print(f"10-NN label consistency: {score_input:.4f} in the input space, "
      f"{score_2d:.4f} in the projection")

out = Path(tempfile.mkdtemp(prefix="epl_demo_")) / "projection.svg"
emit_scatter(embedding.coordinates, data.labels, out)
print(f"scatterplot written to {out}")
