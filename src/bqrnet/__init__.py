"""Quantile-based binary classification: latent conditional quantiles from
binary labels, confidence scoring, and Lipschitz-adaptive training."""

from .datasets import (LabeledDataset, NoiseSpec, flip_labels, gen_dataset,
                       load_csv, normalize_for_coverage, threshold_labels,
                       train_test_split)
from .losses import (BCE, BQR, CurvatureBounds, LossSpec, backward, bqr_loss,
                     curvature_bounds, lipschitz_const, prob_pos, total_loss)
from .metrics import (CoverageTable, DeltaBinReport, accuracy, coverage,
                      delta_report, roc_auc, roc_auc_at_delta)
from .network import (QuantileNet, TauGrid, forward, init_net, load_checkpoint,
                      save_checkpoint)
from .smoothing import (ConfidenceScores, SmoothedQuantileFn, conditional_mean,
                        conditional_moments, conditional_stat, delta_score,
                        delta_scores, prediction_interval,
                        prediction_intervals, smooth)
from .training import (TrainConfig, TrainTrace, NotReached, epochs_to_target,
                       estimate_kz, lalr_eta, train)

__version__ = "0.9.0"

__all__ = [
    "LabeledDataset", "NoiseSpec", "flip_labels", "gen_dataset", "load_csv",
    "normalize_for_coverage", "threshold_labels", "train_test_split",
    "BCE", "BQR", "CurvatureBounds", "LossSpec", "backward", "bqr_loss",
    "curvature_bounds", "lipschitz_const", "prob_pos", "total_loss",
    "CoverageTable", "DeltaBinReport", "accuracy", "coverage", "delta_report",
    "roc_auc", "roc_auc_at_delta",
    "QuantileNet", "TauGrid", "forward", "init_net", "load_checkpoint",
    "save_checkpoint",
    "ConfidenceScores", "SmoothedQuantileFn",
    "conditional_mean", "conditional_moments", "conditional_stat",
    "delta_score", "delta_scores", "prediction_interval",
    "prediction_intervals", "smooth",
    "TrainConfig", "TrainTrace", "NotReached", "epochs_to_target",
    "estimate_kz", "lalr_eta", "train",
]
