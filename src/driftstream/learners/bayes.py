"""Incremental naive Bayes over mixed numeric/categorical features."""

from __future__ import annotations

import math
from typing import Sequence

from ..core import Instance, RunningStats
from .base import Learner, argmax_lowest

_VAR_FLOOR = 1e-9
_LOG_2PI = math.log(2.0 * math.pi)


class NaiveBayes(Learner):
    """Gaussian likelihoods for numerics, Laplace-smoothed counts for categoricals.

    With a single categorical feature this is exactly the Bayes rule on the
    observed counts, which the tests exploit as an oracle.
    """

    algorithm = "naive_bayes"

    def __init__(self, schema, seed: int = 0):
        super().__init__(schema, seed)
        C = self.n_classes
        self.class_counts = [0] * C
        # per class, per numeric feature index -> RunningStats
        self._num = [{i: RunningStats() for i in schema.numeric_indexes()} for _ in range(C)]
        # per class, per categorical feature index -> value count list
        self._cat = [
            {i: [0] * schema.features[i].arity for i in schema.categorical_indexes()}
            for _ in range(C)
        ]
        self._frozen = None  # per-class tables, built by freeze()

    def _learn(self, inst: Instance) -> None:
        c = inst.y
        self.class_counts[c] += 1
        for i, stats in self._num[c].items():
            stats.add(inst.x[i])
        for i, counts in self._cat[c].items():
            counts[int(inst.x[i])] += 1

    def _log_joint(self, x: Sequence[float], c: int) -> float:
        n_c = self.class_counts[c]
        if n_c == 0:
            return -math.inf
        total = sum(self.class_counts)
        score = math.log(n_c / total)
        for i, stats in self._num[c].items():
            var = max(stats.variance(), _VAR_FLOOR)
            diff = x[i] - stats.mean
            score += -0.5 * (_LOG_2PI + math.log(var) + diff * diff / var)
        for i, counts in self._cat[c].items():
            arity = len(counts)
            score += math.log((counts[int(x[i])] + 1.0) / (n_c + arity))
        return score

    def freeze(self) -> "NaiveBayes":
        """Freeze, and precompute what every prediction of the frozen model
        shares: per class the log prior, ``(i, mean, var, log(2 pi) + log(var))``
        per numeric feature and the smoothed log likelihood of each value per
        categorical feature. ``_log_joints`` then adds the same floats in the
        same order as ``_log_joint``, so every score is equal."""
        super().freeze()
        total = sum(self.class_counts)
        self._frozen = []
        for c, n_c in enumerate(self.class_counts):
            if n_c == 0:
                self._frozen.append(None)
                continue
            numeric = []
            for i, stats in self._num[c].items():
                var = max(stats.variance(), _VAR_FLOOR)
                numeric.append((i, stats.mean, var, _LOG_2PI + math.log(var)))
            categorical = [
                (i, [math.log((count + 1.0) / (n_c + len(counts))) for count in counts])
                for i, counts in self._cat[c].items()
            ]
            self._frozen.append((math.log(n_c / total), numeric, categorical))
        return self

    def _log_joints(self, x: Sequence[float]) -> list[float]:
        """The score of each class: from the tables once frozen, else from
        the counts."""
        if self._frozen is None:
            return [self._log_joint(x, c) for c in range(self.n_classes)]
        scores = []
        for table in self._frozen:
            if table is None:
                scores.append(-math.inf)
                continue
            score, numeric, categorical = table
            for i, mean, var, log_norm in numeric:
                diff = x[i] - mean
                score += -0.5 * (log_norm + diff * diff / var)
            for i, log_likelihood in categorical:
                score += log_likelihood[int(x[i])]
            scores.append(score)
        return scores

    def _predict(self, x: Sequence[float]) -> int:
        return argmax_lowest(self._log_joints(x))
