"""Learner contract shared by incremental and frozen-batch classifiers."""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

from ..core import FeatureSchema, Instance


class FrozenLearnerError(RuntimeError):
    """partial_fit called on a frozen (batch-trained) model."""


class UntrainedLearnerError(RuntimeError):
    """predict called before any training sample."""


class UnlabeledInstanceError(ValueError):
    """Training requires a labeled instance."""


def check_optional_int(name: str, value, low: int) -> None:
    """Raise a ValueError unless ``value`` is None or an int (a bool is not
    one) >= ``low``."""
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be None or an integer >= {low}, got {value!r}")


class Learner:
    """Incremental classifier: partial_fit one labeled instance, predict a class.

    Batch algorithms subclass BatchLearner instead and are trained once via
    train_batch, after which they are frozen (predict-only).

    Predict-then-learn handover: in a test-then-train step ``_learn`` often
    needs what ``_predict`` just computed for the same ``x`` (a leaf and its
    answer, an encoded vector, member answers). ``_predict`` may hand that
    over with ``self._keep(x, state)``. ``partial_fit`` passes it on as
    ``_learn(inst, state)`` only when ``inst.x`` equals the kept ``x`` by
    value; otherwise, and for learners that keep nothing, it calls
    ``_learn(inst)``. Every ``predict`` and every ``partial_fit`` call drops
    the kept state first, so it never outlives a learn step and is only
    reused while the model is unchanged since it was computed.
    """

    algorithm = "base"
    _kept: Optional[tuple[tuple, object]] = None

    def __init__(self, schema: FeatureSchema, seed: int = 0):
        self.schema = schema
        self.n_classes = schema.n_classes
        self.fitted = False
        self.frozen = False
        self._rng = random.Random(seed)
        self._events: list[tuple[str, str]] = []

    def partial_fit(self, inst: Instance) -> "Learner":
        kept, self._kept = self._kept, None
        if self.frozen:
            raise FrozenLearnerError(f"{self.algorithm} is frozen; it cannot be updated")
        if inst.y is None:
            raise UnlabeledInstanceError("cannot train on an unlabeled instance")
        if kept is not None and kept[0] == tuple(inst.x):
            self._learn(inst, kept[1])
        else:
            self._learn(inst)
        self.fitted = True
        return self

    def predict(self, x: Sequence[float]) -> int:
        self._kept = None
        if not self.fitted:
            raise UntrainedLearnerError(f"{self.algorithm} has no training samples yet")
        return self._predict(x)

    def freeze(self) -> "Learner":
        self.frozen = True
        return self

    def drain_events(self) -> list[tuple[str, str]]:
        events, self._events = self._events, []
        return events

    def _keep(self, x: Sequence[float], state) -> None:
        """Hand ``state``, computed by ``_predict`` for ``x``, to the next ``_learn``."""
        self._kept = (tuple(x), state)

    def _learn(self, inst: Instance) -> None:
        raise NotImplementedError

    def _predict(self, x: Sequence[float]) -> int:
        raise NotImplementedError


class BatchLearner(Learner):
    """Classifier trained once on a buffer; incremental updates are rejected."""

    def partial_fit(self, inst: Instance) -> "Learner":
        raise FrozenLearnerError(
            f"{self.algorithm} is a batch algorithm; train it with train_batch"
        )

    def fit(self, buffer: Sequence[Instance]) -> "Learner":
        if not buffer:
            raise ValueError("empty training buffer")
        for inst in buffer:
            if inst.y is None:
                raise UnlabeledInstanceError("batch training buffer must be fully labeled")
        self._fit(list(buffer))
        self.fitted = True
        self.frozen = True
        return self

    def _fit(self, buffer: list[Instance]) -> None:
        raise NotImplementedError


def train_batch(learner: BatchLearner, buffer: Sequence[Instance]) -> BatchLearner:
    """Train a batch learner on a buffer and freeze it."""
    if not isinstance(learner, BatchLearner):
        raise TypeError(f"{learner.algorithm} is not a batch algorithm")
    learner.fit(buffer)
    return learner


def argmax_lowest(values: Sequence[float]) -> int:
    """Index of the maximum; ties resolve to the lowest index."""
    best, best_i = None, 0
    for i, v in enumerate(values):
        if best is None or v > best:
            best, best_i = v, i
    return best_i


def ensemble_vote(preds: Sequence[tuple[int, float]]) -> int:
    """Weighted vote over (class index, weight >= 0) pairs; ties pick the lowest class."""
    if not preds:
        raise ValueError("empty ensemble")
    totals: dict[int, float] = {}
    for cls, weight in preds:
        if weight < 0:
            raise ValueError("vote weights must be >= 0")
        totals[cls] = totals.get(cls, 0.0) + weight
    best = max(totals.values())
    return min(c for c, w in totals.items() if w == best)


def poisson(lam: float, rng: random.Random) -> int:
    """Poisson draw via Knuth's product method (fine for small lambda)."""
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    limit = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


class MajorityClass(Learner):
    """Predicts the most frequent class seen so far (ties to the lowest index)."""

    algorithm = "majority_class"

    def __init__(self, schema, seed: int = 0):
        super().__init__(schema, seed)
        self.counts = [0] * self.n_classes

    def _learn(self, inst: Instance) -> None:
        self.counts[inst.y] += 1

    def _predict(self, x: Sequence[float]) -> int:
        return argmax_lowest(self.counts)
