"""Embedded pseudo-labeling at desk scale.

Pipeline: contrastive representation learning on generic feature vectors,
exact t-SNE projection of the latent space to 2D, optimum-path-forest
label propagation from a handful of supervised samples, and downstream
probes that measure how data separation, visual separation, and classifier
performance track each other.
"""

__version__ = "0.1.0"

from .dataset import (Dataset, EplError, Role, SplitAssignment, UNLABELED, generate_blobs,
                      load_features, save_features, stratified_split)
from .metrics import (ConfusionMatrix, accuracy, cohen_kappa, confusion,
                      knn_consistency, per_class_recall)
from .opf import (OpfSupModel, OptimumPathForest, minimax_oracle, mst,
                  opfsemi_propagate, opfsup_classify_batch, opfsup_train)
from .projection import (Embedding2D, ProjectionConfig, conditional_affinities,
                         kl_divergence, kl_gradient, pairwise_affinities,
                         tsne_project)
from .contrastive import (EncoderParams, TrainConfig, augment, extract_features,
                          finetune_supcon, make_view_batch, ntxent_loss, supcon_loss,
                          train)
from .probe import (LinearModel, SoftmaxConfig, SoftmaxModel, predict,
                    train_linear, train_softmax)
from .scatter import emit_scatter
from .config import ExperimentConfig, load_config
from .pipeline import (ResultRow, RunManifest, aggregate_rows,
                       correlation_report, run_experiment, spearman)
