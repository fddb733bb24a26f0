"""k-nearest-neighbour classifiers: sliding-window incremental and batch."""

from __future__ import annotations

from typing import Sequence

from ..core import FeatureSchema, Instance, RunningStats, lazy_import
from .base import BatchLearner, Learner

np = lazy_import("numpy")

_STD_FLOOR = 1e-12


def _floored(std: float) -> float:
    return std if std > _STD_FLOOR else 1.0


class _NeighbourStore:
    """Training rows of a kNN learner and the vote over the k nearest.

    Rows live in a float64 matrix (capacity x d, one contiguous array per
    column; numeric columns first, then categorical ones) beside an int label
    vector. Rows are appended into a ring buffer: once full, each new row
    overwrites the oldest one.

    The squared distance from a query to each row is accumulated column by
    column in feature order: a numeric column adds ``((x_i - col) / std_i) ** 2``
    and a categorical column adds ``col != x_i``. A row-wise ``sum`` would
    round differently; this order gives the same bits as adding the terms of
    one row in a scalar loop.
    """

    def __init__(self, schema: FeatureSchema, capacity: int):
        numeric = schema.numeric_indexes()
        self._columns = numeric + schema.categorical_indexes()  # feature of each column
        self._column_of = [self._columns.index(i) for i in range(schema.n_features)]
        self._n_numeric = len(numeric)
        self._n_classes = schema.n_classes
        self._X = np.empty((capacity, schema.n_features), order="F")
        self._y = np.empty(capacity, dtype=np.intp)
        self._size = 0
        self._head = 0  # the next slot to write; the oldest row once full

    def append(self, x: Sequence[float], y: int) -> None:
        self._X[self._head] = [x[i] for i in self._columns]
        self._y[self._head] = y
        self._head = (self._head + 1) % len(self._y)
        self._size = min(self._size + 1, len(self._y))

    def _oldest_first(self, values: np.ndarray) -> np.ndarray:
        """Per-row values of the filled slots, reordered oldest row first."""
        if self._size < len(self._y) or self._head == 0:
            return values[: self._size]
        return np.concatenate((values[self._head:], values[: self._head]))

    def rows(self) -> list[tuple[list[float], int]]:
        X = self._oldest_first(self._X)[:, self._column_of]
        return list(zip(X.tolist(), self._oldest_first(self._y).tolist()))

    def distances(self, x: Sequence[float], std: Sequence[float]) -> np.ndarray:
        """Squared distance from x to each row, oldest row first; ``std``
        scales the numeric features, in feature order."""
        n, p = self._size, self._n_numeric
        X = self._X[:n]
        query = np.array([x[i] for i in self._columns], dtype=float)
        terms = np.empty(X.shape, order="F")
        np.subtract(query[:p], X[:, :p], out=terms[:, :p])
        terms[:, :p] /= std
        terms[:, :p] *= terms[:, :p]
        np.not_equal(X[:, p:], query[p:], out=terms[:, p:])
        total = np.zeros(n)
        for j in self._column_of:
            total += terms[:, j]
        return self._oldest_first(total)

    def vote(self, x: Sequence[float], std: Sequence[float], k: int) -> int:
        """Majority class of the k nearest rows. Equal distances go to the
        older row (the order of a stable sort over rows oldest first); a tied
        vote goes to the lowest class."""
        total = self.distances(x, std)
        # The k smallest in stable order: every row at most the k-th smallest
        # distance, in row order, then a stable sort of those few.
        last = min(k, len(total)) - 1
        kth = np.partition(total, last)[last]
        near = np.flatnonzero(total <= kth)
        near = near[np.argsort(total[near], kind="stable")[:k]]
        votes = np.bincount(self._oldest_first(self._y)[near], minlength=self._n_classes)
        return int(np.argmax(votes))


class KnnWindow(Learner):
    """kNN over a bounded window of recent samples.

    The squared distance to a stored sample sums, in feature order, the
    squared z-scored difference of each numeric feature and 1 for each
    categorical feature whose value differs. Numeric features are scaled by
    the running std over everything seen so far (not only the window); a std
    of at most 1e-12 counts as 1. The k nearest samples vote; equal distances
    go to the older sample and a tied vote to the lowest class. The window
    evicts the oldest sample once full, which bounds memory.
    """

    algorithm = "knn_window"

    def __init__(self, schema, seed: int = 0, k: int = 5, window: int = 1000):
        super().__init__(schema, seed)
        if k < 1 or window < 1:
            raise ValueError("k and window must be >= 1")
        self.k = k
        self._clear(window)

    def _clear(self, capacity: int) -> None:
        """Forget every sample and the feature statistics; hold up to ``capacity``."""
        self._store = _NeighbourStore(self.schema, capacity)
        self._stats = [(i, RunningStats()) for i in self.schema.numeric_indexes()]

    @property
    def window(self) -> list[tuple[list[float], int]]:
        """The stored samples as (x, y) pairs, oldest first (a copy)."""
        return self._store.rows()

    def _learn(self, inst: Instance) -> None:
        for i, st in self._stats:
            st.add(inst.x[i])
        self._store.append(inst.x, inst.y)

    def _predict(self, x: Sequence[float]) -> int:
        std = [_floored(st.std()) for _, st in self._stats]
        return self._store.vote(x, std, self.k)


class KnnBatch(BatchLearner, KnnWindow):
    """kNN over a frozen training buffer: a KnnWindow whose window is the
    whole buffer, so each numeric feature is scaled by its std over the buffer
    and ties between equal distances go to the earlier buffer row."""

    algorithm = "knn_batch"

    def __init__(self, schema, seed: int = 0, k: int = 5):
        if k < 1:
            raise ValueError("k must be >= 1")
        super().__init__(schema, seed, k=k, window=1)  # _fit sizes it

    def _fit(self, buffer: list[Instance]) -> None:
        self._clear(len(buffer))
        for inst in buffer:
            self._learn(inst)
