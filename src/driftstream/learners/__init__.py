"""Incremental, ensemble and frozen-batch classifiers plus the name registry."""

from __future__ import annotations

from ..core import FeatureSchema
from .base import (
    BatchLearner,
    FrozenLearnerError,
    Learner,
    MajorityClass,
    UnlabeledInstanceError,
    UntrainedLearnerError,
    argmax_lowest,
    ensemble_vote,
    poisson,
    train_batch,
)
from .batch import CartBatch, RandomForestBatch
from .bayes import NaiveBayes
from .ensembles import LeveragingBagging, OzaBagging, OzaBaggingAdwin
from .knn import KnnBatch, KnnWindow
from .linear import LinearSGD, LinearSvmBatch, LogisticSGD, Perceptron
from .tree import HoeffdingAdaptiveTree, HoeffdingTree, hoeffding_bound

LEARNER_REGISTRY: dict[str, type[Learner]] = {
    cls.algorithm: cls
    for cls in (
        MajorityClass,
        NaiveBayes,
        HoeffdingTree,
        HoeffdingAdaptiveTree,
        KnnWindow,
        LinearSGD,
        Perceptron,
        LogisticSGD,
        OzaBagging,
        OzaBaggingAdwin,
        LeveragingBagging,
        CartBatch,
        RandomForestBatch,
        KnnBatch,
        LinearSvmBatch,
    )
}

BATCH_ALGORITHMS = frozenset(
    name for name, cls in LEARNER_REGISTRY.items() if issubclass(cls, BatchLearner)
)


def make_learner(algorithm: str, schema: FeatureSchema, seed: int = 0, **params) -> Learner:
    try:
        cls = LEARNER_REGISTRY[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}") from None
    return cls(schema, seed=seed, **params)


__all__ = [
    "BATCH_ALGORITHMS",
    "BatchLearner",
    "CartBatch",
    "FrozenLearnerError",
    "HoeffdingAdaptiveTree",
    "HoeffdingTree",
    "KnnBatch",
    "KnnWindow",
    "LEARNER_REGISTRY",
    "Learner",
    "LeveragingBagging",
    "LinearSGD",
    "LinearSvmBatch",
    "LogisticSGD",
    "MajorityClass",
    "NaiveBayes",
    "OzaBagging",
    "OzaBaggingAdwin",
    "Perceptron",
    "RandomForestBatch",
    "UnlabeledInstanceError",
    "UntrainedLearnerError",
    "argmax_lowest",
    "ensemble_vote",
    "hoeffding_bound",
    "make_learner",
    "poisson",
    "train_batch",
]
