"""One-vs-rest linear classifiers on one-hot-expanded features."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..core import Instance, OneHotEncoder
from .base import BatchLearner, Learner, argmax_lowest


def _hinge_step(model, v: np.ndarray, margins: np.ndarray, y: int) -> None:
    """One hinge-loss gradient step on ``model``'s weights and bias."""
    for c in range(model.n_classes):
        t = 1.0 if c == y else -1.0
        if t * margins[c] < 1.0:
            model.weights[c] += model.lr * t * v
            model.bias[c] += model.lr * t


class _OvRLinear(Learner):
    """Shared machinery: per-class weight vector and bias over encoded inputs;
    subclasses supply ``_update``, the step for one encoded input and its margins."""

    def __init__(self, schema, seed: int = 0, default_class=None, lr: float = 0.01):
        super().__init__(schema, seed, default_class)
        self.lr = lr
        self._encode = OneHotEncoder(schema)
        self.dim = self._encode.dim
        self.weights = np.zeros((self.n_classes, self.dim))
        self.bias = np.zeros(self.n_classes)

    def _encode_margins(self, x: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        v = self._encode(x)
        return v, self.weights @ v + self.bias

    def _predict(self, x: Sequence[float]) -> int:
        kept = self._encode_margins(x)
        self._keep(x, kept)
        return argmax_lowest(kept[1].tolist())

    def _learn(self, inst: Instance,
               kept: Optional[tuple[np.ndarray, np.ndarray]] = None) -> None:
        """``kept`` is the encoded ``inst.x`` and its margins from ``_predict``."""
        v, margins = kept if kept is not None else self._encode_margins(inst.x)
        self._update(v, margins, inst.y)


class LinearSGD(_OvRLinear):
    """Hinge-loss stochastic gradient descent, constant learning rate."""

    algorithm = "linear_sgd"

    def _update(self, v: np.ndarray, margins: np.ndarray, y: int) -> None:
        _hinge_step(self, v, margins, y)


class Perceptron(_OvRLinear):
    """Classic perceptron updates: correct only on a sign mistake."""

    algorithm = "perceptron"

    def _update(self, v: np.ndarray, margins: np.ndarray, y: int) -> None:
        for c in range(self.n_classes):
            t = 1.0 if c == y else -1.0
            if t * margins[c] <= 0.0:
                self.weights[c] += self.lr * t * v
                self.bias[c] += self.lr * t


class LogisticSGD(_OvRLinear):
    """Log-loss stochastic gradient descent (per-class sigmoid outputs)."""

    algorithm = "logistic_sgd"

    def _update(self, v: np.ndarray, margins: np.ndarray, y: int) -> None:
        for c in range(self.n_classes):
            t = 1.0 if c == y else 0.0
            m = margins[c]
            p = 1.0 / (1.0 + math.exp(-m)) if -500 < m < 500 else (0.0 if m < 0 else 1.0)
            g = p - t
            self.weights[c] -= self.lr * g * v
            self.bias[c] -= self.lr * g


class LinearSvmBatch(BatchLearner):
    """Hinge-loss gradient descent over a frozen buffer for a fixed epoch count."""

    algorithm = "linear_svm_batch"

    def __init__(self, schema, seed: int = 0, default_class=None, lr: float = 0.01):
        super().__init__(schema, seed, default_class)
        self.lr = lr
        self._encode = OneHotEncoder(schema)
        self.weights = np.zeros((self.n_classes, self._encode.dim))
        self.bias = np.zeros(self.n_classes)

    def _fit(self, buffer: list[Instance], epochs: int) -> None:
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        encoded = [(self._encode(inst.x), inst.y) for inst in buffer]
        for _ in range(epochs):
            for v, y in encoded:
                _hinge_step(self, v, self.weights @ v + self.bias, y)

    def _predict(self, x: Sequence[float]) -> int:
        v = self._encode(x)
        return argmax_lowest((self.weights @ v + self.bias).tolist())
