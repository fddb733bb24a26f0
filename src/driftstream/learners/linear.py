"""One-vs-rest linear classifiers on one-hot-expanded features."""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..core import Instance, OneHotEncoder, lazy_import
from .base import BatchLearner, Learner, argmax_lowest

np = lazy_import("numpy")


def sigmoid_minus_target(margin: float, target: float) -> float:
    """The log-loss gradient ``sigmoid(margin) - target`` of one output; a margin
    outside (-500, 500) takes the sigmoid as exactly 0 or 1 instead of
    overflowing ``exp``."""
    p = 1.0 / (1.0 + math.exp(-margin)) if -500 < margin < 500 else float(margin > 0)
    return p - target


class _OvRLinear(Learner):
    """Shared machinery: per-class weight vector and bias over encoded inputs,
    and the one update step. Subclasses supply ``_gain``, class c's step
    direction for its margin; a zero gain takes no step."""

    def __init__(self, schema, seed: int = 0, lr: float = 0.01):
        super().__init__(schema, seed)
        if not 0 < lr < math.inf:
            raise ValueError("lr must be finite and > 0")
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
        self._step(v, margins, inst.y)

    def _step(self, v: np.ndarray, margins: np.ndarray, y: int) -> None:
        """One gradient step for the encoded input ``v`` of class ``y``."""
        for c in range(self.n_classes):
            g = self._gain(c == y, margins[c])
            if g:
                step = self.lr * g
                self.weights[c] += step * v
                self.bias[c] += step

    def _gain(self, is_target: bool, margin: float) -> float:
        raise NotImplementedError


class LinearSGD(_OvRLinear):
    """Hinge-loss stochastic gradient descent, constant learning rate."""

    algorithm = "linear_sgd"

    def _gain(self, is_target: bool, margin: float) -> float:
        t = 1.0 if is_target else -1.0
        return t if t * margin < 1.0 else 0.0


class Perceptron(_OvRLinear):
    """Classic perceptron updates: correct only on a sign mistake."""

    algorithm = "perceptron"

    def _gain(self, is_target: bool, margin: float) -> float:
        t = 1.0 if is_target else -1.0
        return t if t * margin <= 0.0 else 0.0


class LogisticSGD(_OvRLinear):
    """Log-loss stochastic gradient descent (per-class sigmoid outputs)."""

    algorithm = "logistic_sgd"

    def _gain(self, is_target: bool, margin: float) -> float:
        return -sigmoid_minus_target(margin, 1.0 if is_target else 0.0)


class LinearSvmBatch(BatchLearner, LinearSGD):
    """LinearSGD's hinge step over a frozen buffer, repeated for a fixed epoch count."""

    algorithm = "linear_svm_batch"

    def __init__(self, schema, seed: int = 0, lr: float = 0.01, epochs: int = 1):
        super().__init__(schema, seed, lr)
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        self.epochs = epochs

    def _fit(self, buffer: list[Instance]) -> None:
        encoded = [(self._encode(inst.x), inst.y) for inst in buffer]
        for _ in range(self.epochs):
            for v, y in encoded:
                self._step(v, self.weights @ v + self.bias, y)
