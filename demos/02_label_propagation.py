"""Minimax-path label propagation from a few seeds, checked two ways.

Each node is claimed by the seed with the cheapest bottleneck path (the
minimum over paths of the largest edge). The cubic all-pairs oracle and
the spanning-tree propagation are independent routes to the same answer.
"""

import numpy as np

from epl import generate_blobs, minimax_oracle, opfsemi_propagate
from epl.dataset import UNLABELED
from epl.metrics import confusion, accuracy

# the classic 1-D picture: seeds at both ends, the boundary falls at the
# largest gap (between 3 and 7)
line = np.array([[0.0], [3.0], [7.0], [10.0]])
seeds = np.array([0, UNLABELED, UNLABELED, 1])
forest = opfsemi_propagate(line, seeds)
print("points 0, 3, 7, 10 with seeds at the ends:")
for i in range(4):
    print(f"  node@{line[i,0]:>4}: label {forest.label[i]}, bottleneck cost "
          f"{forest.cost[i]:.1f}, predecessor {forest.predecessor[i]}")

# scaled up: 1% of blob samples seed the other 99%
data = generate_blobs(k=3, per_class=150, d=2, spread=1.2, center_dist=10.0, seed=3)
rng = np.random.default_rng(0)
seed_vec = np.full(data.sample_count, UNLABELED)
for c in range(3):
    members = np.flatnonzero(data.labels == c)
    seed_vec[rng.choice(members, 2, replace=False)] = c
forest = opfsemi_propagate(data.features, seed_vec)
free = seed_vec == UNLABELED
cm = confusion(forest.label[free], data.labels[free], data.class_count)
print(f"\n{int((~free).sum())} seeds pseudo-label {int(free.sum())} points "
      f"with accuracy {accuracy(cm):.4f}")

# the oracle agrees exactly (n <= 64 keeps the cubic route cheap)
small = data.features[::12]
small_seeds = seed_vec[::12]
if (small_seeds != UNLABELED).any():
    labels, costs = minimax_oracle(small, small_seeds)
    check = opfsemi_propagate(small, small_seeds)
    print("oracle vs propagation on a subsample:",
          "labels equal" if np.array_equal(labels, check.label) else "MISMATCH",
          "| max cost diff", float(np.abs(costs - check.cost).max()))
