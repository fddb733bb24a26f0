"""driftstream: data-stream mining with drift detection, online learners,
synthetic drift streams, prequential evaluation, grid-search model search and
online meta-learning model selection."""

from .core import (
    ConfusionMatrix,
    Feature,
    FeatureSchema,
    Instance,
    PredictorStatus,
    validate_instance,
)
from .drift import DDM, EDDM, Adwin, PageHinkley, make_detector
from .evaluation import MetricTrace, TraceRecord, evaluate_pretrained, run_holdout, run_prequential
from .generators import DriftStream, LimitedStream, make_generator
from .learners import make_learner, train_batch
from .meta import MetaEnsemble, extract_meta_features, window_best_learner

__version__ = "0.1.0"

__all__ = [
    "Adwin",
    "ConfusionMatrix",
    "DDM",
    "DriftStream",
    "EDDM",
    "Feature",
    "FeatureSchema",
    "Instance",
    "LimitedStream",
    "MetaEnsemble",
    "MetricTrace",
    "PageHinkley",
    "PredictorStatus",
    "TraceRecord",
    "evaluate_pretrained",
    "extract_meta_features",
    "make_detector",
    "make_generator",
    "make_learner",
    "run_holdout",
    "run_prequential",
    "train_batch",
    "validate_instance",
    "window_best_learner",
]
