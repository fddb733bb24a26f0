"""Batch-trained tree classifiers: CART and a bagged random forest."""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

from ..core import Instance
from .base import BatchLearner, argmax_lowest, check_optional_int, ensemble_vote


def _gini(counts: Sequence[int]) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    return 1.0 - sum((c / total) ** 2 for c in counts)


class _CartNode:
    __slots__ = ("feature", "threshold", "category", "left", "right", "label")

    def __init__(self):
        self.feature = None
        self.threshold = None      # numeric split: x <= threshold goes left
        self.category = None       # categorical split: x == category goes left
        self.left = None
        self.right = None
        self.label = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class CartBatch(BatchLearner):
    """Recursive Gini-split decision tree over a frozen buffer.

    Numeric features split at midpoints between consecutive sorted values;
    categorical features split one-vs-rest per observed value.
    """

    algorithm = "cart_batch"

    def __init__(self, schema, seed: int = 0, max_depth: int = 10, min_leaf: int = 1,
                 max_features: Optional[int] = None):
        super().__init__(schema, seed)
        if max_depth < 1 or min_leaf < 1:
            raise ValueError("max_depth and min_leaf must be >= 1")
        check_optional_int("max_features", max_features, 1)
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.root: Optional[_CartNode] = None

    def _fit(self, buffer: list[Instance]) -> None:
        xs = [inst.x for inst in buffer]
        ys = [inst.y for inst in buffer]
        self.root = self._build(xs, ys, depth=0)

    def _class_counts(self, ys: Sequence[int]) -> list[int]:
        counts = [0] * self.n_classes
        for y in ys:
            counts[y] += 1
        return counts

    def _candidate_features(self) -> list[int]:
        d = self.schema.n_features
        if self.max_features is None or self.max_features >= d:
            return list(range(d))
        return sorted(self._rng.sample(range(d), self.max_features))

    def _best_split(self, xs: list[list[float]], ys: list[int]):
        parent_counts = self._class_counts(ys)
        parent_gini = _gini(parent_counts)
        n = len(ys)
        best = None  # (gain, feature, threshold, category)
        for i in self._candidate_features():
            feat = self.schema.features[i]
            if feat.is_numeric:
                order = sorted(range(n), key=lambda r: xs[r][i])
                left_counts = [0] * self.n_classes
                right_counts = parent_counts[:]
                for rank in range(n - 1):
                    y = ys[order[rank]]
                    left_counts[y] += 1
                    right_counts[y] -= 1
                    v, nxt = xs[order[rank]][i], xs[order[rank + 1]][i]
                    if v == nxt:
                        continue
                    n_left = rank + 1
                    n_right = n - n_left
                    gain = parent_gini - (n_left / n) * _gini(left_counts) \
                        - (n_right / n) * _gini(right_counts)
                    if best is None or gain > best[0]:
                        best = (gain, i, (v + nxt) / 2.0, None)
            else:
                for value in sorted({int(x[i]) for x in xs}):
                    left_counts = [0] * self.n_classes
                    right_counts = [0] * self.n_classes
                    for x, y in zip(xs, ys):
                        if int(x[i]) == value:
                            left_counts[y] += 1
                        else:
                            right_counts[y] += 1
                    n_left = sum(left_counts)
                    n_right = n - n_left
                    if n_left == 0 or n_right == 0:
                        continue
                    gain = parent_gini - (n_left / n) * _gini(left_counts) \
                        - (n_right / n) * _gini(right_counts)
                    if best is None or gain > best[0]:
                        best = (gain, i, None, value)
        return best

    def _build(self, xs: list[list[float]], ys: list[int], depth: int) -> _CartNode:
        node = _CartNode()
        counts = self._class_counts(ys)
        node.label = argmax_lowest(counts)
        if depth >= self.max_depth or len(ys) < 2 * self.min_leaf or _gini(counts) == 0.0:
            return node
        best = self._best_split(xs, ys)
        if best is None or best[0] <= 0.0:
            return node
        _, i, threshold, category = best
        if threshold is not None:
            mask = [x[i] <= threshold for x in xs]
        else:
            mask = [int(x[i]) == category for x in xs]
        left_n = sum(mask)
        if left_n < self.min_leaf or len(ys) - left_n < self.min_leaf:
            return node
        node.feature, node.threshold, node.category = i, threshold, category
        node.left = self._build([x for x, m in zip(xs, mask) if m],
                                [y for y, m in zip(ys, mask) if m], depth + 1)
        node.right = self._build([x for x, m in zip(xs, mask) if not m],
                                 [y for y, m in zip(ys, mask) if not m], depth + 1)
        return node

    def _predict(self, x: Sequence[float]) -> int:
        node = self.root
        while not node.is_leaf:
            if node.threshold is not None:
                node = node.left if x[node.feature] <= node.threshold else node.right
            else:
                node = node.left if int(x[node.feature]) == node.category else node.right
        return node.label


class RandomForestBatch(BatchLearner):
    """Bagged CART trees with per-split feature subsampling (sqrt(d) default)."""

    algorithm = "random_forest_batch"

    def __init__(self, schema, seed: int = 0, n_trees: int = 10, max_depth: int = 10,
                 min_leaf: int = 1, max_features: Optional[int] = None, bootstrap: bool = True):
        super().__init__(schema, seed)
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if max_depth < 1 or min_leaf < 1:
            raise ValueError("max_depth and min_leaf must be >= 1")
        check_optional_int("max_features", max_features, 1)
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.trees: list[CartBatch] = []

    def _fit(self, buffer: list[Instance]) -> None:
        d = self.schema.n_features
        max_features = self.max_features
        if max_features is None:
            max_features = max(1, round(math.sqrt(d)))
        self.trees = []
        for t in range(self.n_trees):
            tree = CartBatch(self.schema, seed=self._rng.getrandbits(32),
                             max_depth=self.max_depth, min_leaf=self.min_leaf,
                             max_features=max_features)
            if self.bootstrap:
                sample = [buffer[self._rng.randrange(len(buffer))] for _ in buffer]
            else:
                sample = buffer
            tree.fit(sample)
            self.trees.append(tree)

    def _predict(self, x: Sequence[float]) -> int:
        return ensemble_vote([(tree.predict(x), 1.0) for tree in self.trees])
