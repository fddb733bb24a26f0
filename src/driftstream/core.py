"""Shared domain types, schema handling and classification metrics."""

from __future__ import annotations

import hashlib
import importlib.util
import math
import sys
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence


def lazy_import(name: str):
    """The module ``name``, executed at its first attribute access.

    numpy serves only the kNN, linear and meta-selection code, yet executing
    it is about two thirds of the time ``import driftstream.cli`` takes, and
    some 13 MB of memory; the trees, naive Bayes, bagging and the drift
    detectors are pure Python. Deferred, numpy loads only in a run that uses
    it. After the first access the module is an ordinary one, so a use costs
    nothing extra. A module that is not installed raises ImportError here."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = lazy_import("numpy")

NUMERIC = "numeric"
CATEGORICAL = "categorical"


class SchemaError(ValueError):
    """An instance does not conform to its feature schema."""


class DimensionMismatchError(SchemaError):
    pass


class CategoricalOutOfRangeError(SchemaError):
    pass


class UnknownClassError(SchemaError):
    pass


class EmptyMatrixError(ValueError):
    """Metric requested from a confusion matrix with no scored samples."""


@dataclass(frozen=True)
class Feature:
    """One column of a stream: numeric, or categorical with a fixed arity.

    Categorical features are carried as dense value indices; ``values`` holds
    the display token for each index (used when serializing to CSV).
    """

    name: str
    kind: str = NUMERIC
    arity: Optional[int] = None
    values: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if self.arity is None or self.arity < 2:
                raise ValueError(f"categorical feature {self.name!r} needs arity >= 2")
            if self.values is not None and len(self.values) != self.arity:
                raise ValueError(f"feature {self.name!r}: {len(self.values)} value names for arity {self.arity}")
        elif self.arity is not None:
            raise ValueError(f"numeric feature {self.name!r} cannot declare an arity")

    @property
    def is_numeric(self) -> bool:
        return self.kind == NUMERIC

    def value_name(self, index: int) -> str:
        if self.values is not None:
            return self.values[index]
        return f"c{index}"


@dataclass(frozen=True)
class FeatureSchema:
    """Declares the feature columns and the label domain of a stream."""

    features: tuple[Feature, ...]
    label_name: str = "class"
    classes: tuple[str, ...] = ("0", "1")

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        if len(self.classes) < 2:
            raise ValueError("schema needs at least 2 classes")
        if self.label_name in names:
            raise ValueError("label column name collides with a feature name")

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def numeric_indexes(self) -> list[int]:
        return [i for i, f in enumerate(self.features) if f.is_numeric]

    def categorical_indexes(self) -> list[int]:
        return [i for i, f in enumerate(self.features) if not f.is_numeric]


@dataclass
class Instance:
    """One stream sample: feature vector, optional class index, sample index.

    Categorical features are stored as value indices (floats for a uniform
    vector type). ``seq`` is assigned by the stream source, starting at 0.
    """

    x: list[float]
    y: Optional[int] = None
    seq: int = 0


def validate_instance(instance: Instance, schema: FeatureSchema) -> Instance:
    """Check an instance against a schema; returns it unchanged when conformant."""
    if len(instance.x) != schema.n_features:
        raise DimensionMismatchError(
            f"instance has {len(instance.x)} features, schema declares {schema.n_features}"
        )
    for i, feat in enumerate(schema.features):
        v = instance.x[i]
        if not math.isfinite(v):
            raise SchemaError(f"feature {feat.name!r} is not finite: {v!r}")
        if not feat.is_numeric:
            if v != int(v) or not (0 <= int(v) < feat.arity):
                raise CategoricalOutOfRangeError(
                    f"feature {feat.name!r}: value {v!r} outside arity {feat.arity}"
                )
    if instance.y is not None and not (0 <= instance.y < schema.n_classes):
        raise UnknownClassError(f"class index {instance.y} outside {schema.n_classes} classes")
    return instance


class OneHotEncoder:
    """One-hot layout of a schema, worked out once: numeric values pass
    through, each categorical feature becomes a block of indicator columns."""

    def __init__(self, schema: FeatureSchema):
        self.numeric: list[tuple[int, int]] = []             # (position, feature)
        self.categorical: list[tuple[int, int, int]] = []    # (feature, offset, arity)
        dim = 0
        for i, feat in enumerate(schema.features):
            if feat.is_numeric:
                self.numeric.append((dim, i))
                dim += 1
            else:
                self.categorical.append((i, dim, feat.arity))
                dim += feat.arity
        self.dim = dim

    def __call__(self, x: Sequence[float]) -> np.ndarray:
        v = np.zeros(self.dim)
        for pos, i in self.numeric:
            v[pos] = x[i]
        for i, offset, arity in self.categorical:
            k = int(x[i])
            if not 0 <= k < arity:
                raise CategoricalOutOfRangeError(
                    f"feature {i}: value {x[i]!r} outside arity {arity}")
            v[offset + k] = 1.0
        return v


class PredictorStatus(IntEnum):
    """Drift-detector level; ordered by severity."""

    STABLE = 0
    WARNING = 1
    DRIFT = 2


class ConfusionMatrix:
    """C x C count grid: true class rows, predicted class columns."""

    def __init__(self, n_classes: int):
        if n_classes < 2:
            raise ValueError("confusion matrix needs at least 2 classes")
        self.n_classes = n_classes
        self.counts = [[0] * n_classes for _ in range(n_classes)]
        self.total = 0

    def update(self, y_true: int, y_pred: int) -> "ConfusionMatrix":
        if not (0 <= y_true < self.n_classes and 0 <= y_pred < self.n_classes):
            raise IndexError(f"class index outside [0, {self.n_classes})")
        self.counts[y_true][y_pred] += 1
        self.total += 1
        return self

    def accuracy(self) -> float:
        if self.total == 0:
            raise EmptyMatrixError("no scored samples")
        hit = sum(self.counts[c][c] for c in range(self.n_classes))
        return hit / self.total

    def kappa(self) -> float:
        """Cohen's kappa; 0 when expected agreement is 1 (degenerate case)."""
        if self.total == 0:
            raise EmptyMatrixError("no scored samples")
        p_o = self.accuracy()
        t2 = self.total * self.total
        p_e = sum(
            sum(self.counts[c]) * sum(row[c] for row in self.counts)
            for c in range(self.n_classes)
        ) / t2
        if p_e >= 1.0:
            return 0.0
        return (p_o - p_e) / (1.0 - p_e)


class RunningStats:
    """Welford accumulator for streaming mean/variance."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    def std(self) -> float:
        return math.sqrt(self.variance())


def derive_seed(seed: int, label: str) -> int:
    """Stable named sub-seed so components stay reproducible independently."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")
