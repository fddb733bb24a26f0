"""Online model selection: window meta-features, a trained selector, and the
best-of-last-window baseline."""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .core import FeatureSchema, Instance, RunningStats, lazy_import
from .learners import Learner
from .learners.base import ensemble_vote
from .learners.linear import sigmoid_minus_target

np = lazy_import("numpy")

_N_BINS = 10  # equal-width bins when discretizing numerics for entropy/MI

# Fixed measure list; the vector dimension is pinned by tests.
META_FEATURE_NAMES = (
    # general
    "n_classes_observed",
    "n_features",
    "frac_categorical",
    "majority_class_share",
    # statistical: per-numeric-feature measures aggregated across features
    "attr_mean_mean", "attr_mean_std",
    "attr_std_mean", "attr_std_std",
    "attr_skew_mean", "attr_skew_std",
    "attr_kurtosis_mean", "attr_kurtosis_std",
    "attr_correlation_mean", "attr_correlation_std",
    # information-theoretic
    "class_entropy",
    "attr_entropy_mean",
    "mutual_information_mean",
    "noise_signal_ratio",
)


def _entropy_from_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _discretize(column: np.ndarray) -> np.ndarray:
    lo, hi = column.min(), column.max()
    if hi <= lo:
        return np.zeros(len(column), dtype=int)
    bins = np.minimum(((column - lo) / (hi - lo) * _N_BINS).astype(int), _N_BINS - 1)
    return bins


def extract_meta_features(window: Sequence[Instance], schema: FeatureSchema) -> list[float]:
    """Characterize a full window as a fixed-length real vector.

    Degenerate measures (zero variance, missing numerics, zero mutual
    information) are imputed with 0 so the dimension never changes.
    """
    if not window:
        raise ValueError("empty window")
    n = len(window)
    ys = np.array([inst.y for inst in window])
    d = schema.n_features
    numeric = schema.numeric_indexes()
    n_categorical = d - len(numeric)

    class_counts = np.bincount(ys, minlength=schema.n_classes)
    observed_classes = int((class_counts > 0).sum())
    majority_share = float(class_counts.max()) / n
    general = [float(observed_classes), float(d), n_categorical / d, majority_share]

    # one contiguous row per feature: the window's columns
    columns = np.ascontiguousarray(np.array([inst.x for inst in window], dtype=float).T)

    # statistical block over numeric columns
    means, stds, skews, kurts = [], [], [], []
    for i in numeric:
        col = columns[i]
        mu = float(col.mean())
        sigma = float(col.std())
        means.append(mu)
        stds.append(sigma)
        if sigma > 1e-12:
            z = (col - mu) / sigma
            skews.append(float((z ** 3).mean()))
            kurts.append(float((z ** 4).mean() - 3.0))
        else:
            skews.append(0.0)
            kurts.append(0.0)
    correlations = []
    for a in range(len(numeric)):
        for b in range(a + 1, len(numeric)):
            ca, cb = columns[numeric[a]], columns[numeric[b]]
            if ca.std() > 1e-12 and cb.std() > 1e-12:
                correlations.append(abs(float(np.corrcoef(ca, cb)[0, 1])))
            else:
                correlations.append(0.0)

    def agg(values: list[float]) -> tuple[float, float]:
        if not values:
            return 0.0, 0.0
        arr = np.array(values)
        return float(arr.mean()), float(arr.std())

    statistical = [*agg(means), *agg(stds), *agg(skews), *agg(kurts), *agg(correlations)]

    # information-theoretic block
    class_entropy = _entropy_from_counts(class_counts)
    attr_entropies = []
    mutual_infos = []
    n_labels = int(ys.max()) + 1
    for col, feature in zip(columns, schema.features):
        symbols = _discretize(col) if feature.is_numeric else col.astype(int)
        h_attr = _entropy_from_counts(np.bincount(symbols))
        attr_entropies.append(h_attr)
        # joint (symbol, label) counts in first-seen order, as the entropy's
        # float sum depends on the order
        _, first, joint = np.unique(symbols * n_labels + ys, return_index=True,
                                    return_counts=True)
        h_joint = _entropy_from_counts(joint[np.argsort(first)])
        mutual_infos.append(max(h_attr + class_entropy - h_joint, 0.0))
    attr_entropy_mean = float(np.mean(attr_entropies)) if attr_entropies else 0.0
    mi_mean = float(np.mean(mutual_infos)) if mutual_infos else 0.0
    noise_signal = (attr_entropy_mean - mi_mean) / mi_mean if mi_mean > 1e-12 else 0.0
    info = [class_entropy, attr_entropy_mean, mi_mean, noise_signal]

    out = general + statistical + info
    assert len(out) == len(META_FEATURE_NAMES)
    return [v if math.isfinite(v) else 0.0 for v in out]


def window_best_learner(hits: Sequence[int], active: Optional[int] = None) -> int:
    """Argmax of per-learner hit counts; a tied current leader is retained."""
    if not hits:
        raise ValueError("empty learner roster")
    best = max(hits)
    if active is not None and 0 <= active < len(hits) and hits[active] == best:
        return active
    return min(i for i, h in enumerate(hits) if h == best)


class PerformanceWeights:
    """Fading per-member quality estimates for weighted voting."""

    def __init__(self, n_members: int, alpha: float = 0.99):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if n_members < 1:
            raise ValueError("need at least one member")
        self.alpha = alpha
        self.weights = [1.0] * n_members

    def update(self, correct: Sequence[int]) -> list[float]:
        a = self.alpha
        self.weights = [a * w + (1.0 - a) * c for w, c in zip(self.weights, correct)]
        return self.weights


class OnlineSelector:
    """Incremental one-vs-rest logistic model from meta-features to a roster index.

    Inputs are standardized with running statistics; classes appear as they
    are first seen, so early predictions fall back to the labels observed so
    far (mirroring the best-of-last-window behaviour until meta-knowledge
    accumulates).
    """

    def __init__(self, lr: float = 0.05):
        self.lr = lr
        self.weights: dict[int, np.ndarray] = {}
        self.bias: dict[int, float] = {}
        self._stats: list[RunningStats] = []
        self.fitted = False

    def _standardize(self, values: Sequence[float], update: bool) -> np.ndarray:
        if not self._stats:
            self._stats = [RunningStats() for _ in values]
        if update:
            for st, v in zip(self._stats, values):
                st.add(v)
        out = np.empty(len(values))
        for j, (st, v) in enumerate(zip(self._stats, values)):
            std = st.std()
            out[j] = (v - st.mean) / std if std > 1e-12 else 0.0
        return out

    def partial_fit(self, features: Sequence[float], target: int) -> "OnlineSelector":
        x = self._standardize(features, update=True)
        if target not in self.weights:
            self.weights[target] = np.zeros(len(x))
            self.bias[target] = 0.0
        for cls in self.weights:
            margin = float(self.weights[cls] @ x) + self.bias[cls]
            g = sigmoid_minus_target(margin, 1.0 if cls == target else 0.0)
            self.weights[cls] -= self.lr * g * x
            self.bias[cls] -= self.lr * g
        self.fitted = True
        return self

    def predict(self, features: Sequence[float]) -> int:
        if not self.fitted:
            return 0
        x = self._standardize(features, update=False)
        scores = [
            (float(self.weights[cls] @ x) + self.bias[cls], -cls) for cls in self.weights
        ]
        best = max(scores)
        return -best[1]


class MetaEnsemble(Learner):
    """Heterogeneous roster with an online-selected active member.

    Modes: ``meta`` trains a selector on (completed-window meta-features ->
    window-best member) and asks it to pick the next window's leader;
    ``last_best`` promotes the best member of the completed window directly;
    ``weighted_vote`` keeps fading per-member weights and votes every sample.
    Every member trains on every sample; selection only changes who answers.
    """

    algorithm = "meta_ensemble"
    MODES = ("meta", "last_best", "weighted_vote")

    def __init__(self, schema: FeatureSchema, members: Sequence[Learner],
                 mode: str = "meta", window: int = 300,
                 selector: Optional[OnlineSelector] = None,
                 alpha: float = 0.99, seed: int = 0):
        super().__init__(schema, seed)
        if not members:
            raise ValueError("empty learner roster")
        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.members = list(members)
        self.mode = mode
        self.window_size = window
        self.active_index = 0
        self.selector = selector if selector is not None else OnlineSelector()
        self.perf = PerformanceWeights(len(members), alpha)
        # the tumbling window in flight: its samples and per-member hit counts
        self._samples: list[Instance] = []
        self._hits = [0] * len(members)
        self.fitted = any(m.fitted for m in self.members)

    def _predict(self, x: Sequence[float]) -> int:
        answers: dict[int, int] = {}
        self._keep(x, answers)
        if self.mode == "weighted_vote":
            votes = []
            for j, (m, w) in enumerate(zip(self.members, self.perf.weights)):
                if m.fitted:
                    answers[j] = m.predict(x)
                    votes.append((answers[j], w))
            if votes:
                return ensemble_vote(votes)
        j = self.active_index
        if not self.members[j].fitted:
            j = next((c for c, m in enumerate(self.members) if m.fitted), j)
        answers[j] = self.members[j].predict(x)
        return answers[j]

    def _learn(self, inst: Instance, answers: Optional[dict[int, int]] = None) -> None:
        """``answers``: the member answers ``_predict`` got for ``inst.x``."""
        answers = answers or {}
        correct = [
            int(m.fitted and (answers[j] if j in answers else m.predict(inst.x)) == inst.y)
            for j, m in enumerate(self.members)
        ]
        for j, c in enumerate(correct):
            self._hits[j] += c
        self.perf.update(correct)
        for m in self.members:
            m.partial_fit(inst)
        self._samples.append(inst)
        if len(self._samples) == self.window_size:
            self._window_boundary()

    def _window_boundary(self) -> None:
        best = window_best_learner(self._hits, self.active_index)
        new_active = self.active_index
        if self.mode == "meta":
            features = extract_meta_features(self._samples, self.schema)
            self.selector.partial_fit(features, best)
            new_active = self.selector.predict(features)
        elif self.mode == "last_best":
            new_active = best
        if new_active != self.active_index:
            self.active_index = new_active
            self._events.append(("selector", f"switch:{new_active}"))
        self._samples, self._hits = [], [0] * len(self.members)
