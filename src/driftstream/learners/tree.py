"""Incremental decision trees: Hoeffding tree and its drift-adapting variant."""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..core import Instance, RunningStats
from ..drift import DRIFT, Adwin
from .base import Learner, argmax_lowest, check_optional_int

_N_THRESHOLDS = 10  # candidate cut points per numeric feature


def hoeffding_bound(value_range: float, delta: float, n: int) -> float:
    """Confidence radius justifying a split decision from n observations."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if value_range <= 0:
        raise ValueError("value range must be > 0")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    return math.sqrt(value_range * value_range * math.log(1.0 / delta) / (2.0 * n))


def _entropy(counts: Sequence[float]) -> float:
    total = sum(counts)
    if total <= 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


def _gaussian_cdf(x: float, mean: float, std: float) -> float:
    if std <= 0:
        return 1.0 if x >= mean else 0.0
    return 0.5 * (1.0 + math.erf((x - mean) / (std * math.sqrt(2.0))))


class _Split:
    """Chosen cut: numeric threshold (two children) or categorical fan-out."""

    __slots__ = ("feature", "threshold", "arity")

    def __init__(self, feature: int, threshold: Optional[float], arity: int):
        self.feature = feature
        self.threshold = threshold
        self.arity = arity

    def branch(self, x: Sequence[float]) -> int:
        if self.threshold is not None:
            return 0 if x[self.feature] <= self.threshold else 1
        return int(x[self.feature])


class _Node:
    """A tree node. A leaf keeps the statistics it learns from; a split
    clears them, but keeps ``class_counts`` and ``total`` for the fallback
    prediction of an empty child.

    ``nb_terms[c]`` caches class c's gaussian naive-Bayes terms, one
    ``(i, mean, var, log(2 pi var))`` per numeric feature with two or more
    values of class c. Learning an instance of class c drops (sets to None)
    only ``nb_terms[c]``, since no other class's statistics change;
    ``_leaf_nb`` rebuilds a dropped entry when it next needs it.
    """

    __slots__ = ("class_counts", "total", "split", "children", "num_stats", "num_range",
                 "cat_stats", "nb_terms", "n_since_check", "mc_correct", "nb_correct",
                 "depth", "adwin", "alternate")

    def __init__(self, n_classes: int, depth: int = 0):
        self.class_counts = [0] * n_classes
        self.total = 0  # sum(class_counts)
        self.split: Optional[_Split] = None
        self.children: Optional[list["_Node"]] = None
        # numeric feature -> per-class RunningStats; plus observed [lo, hi]
        self.num_stats: dict[int, list[RunningStats]] = {}
        self.num_range: dict[int, list[float]] = {}
        # categorical feature -> per-value per-class counts
        self.cat_stats: dict[int, list[list[int]]] = {}
        self.nb_terms: list[Optional[list[tuple[int, float, float, float]]]] = (
            [None] * n_classes)
        self.n_since_check = 0
        self.mc_correct = 0
        self.nb_correct = 0
        self.depth = depth
        self.adwin: Optional[Adwin] = None    # used by the adaptive variant
        self.alternate: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None


class HoeffdingTree(Learner):
    """Very fast decision tree: splits a leaf once the information-gain lead of
    the best feature over the runner-up clears the Hoeffding bound (or the
    bound has shrunk below the tie threshold tau).

    Numeric features use per-class gaussian summaries with evenly spaced
    candidate thresholds; categorical features split multiway. Leaves predict
    by majority or naive Bayes, whichever has the better record at that leaf.

    A leaf caches each class's gaussian naive-Bayes terms between steps
    (``_Node.nb_terms``). Learning an instance drops only its own class's
    terms, the next naive-Bayes answer at the leaf rebuilds them from the
    same statistics with the same arithmetic, and a split drops them all, so
    every answer is the float-for-float one an uncached leaf would give.
    """

    algorithm = "hoeffding_tree"

    def __init__(self, schema, seed: int = 0, grace_period: int = 200, delta: float = 1e-7,
                 tau: float = 0.05, max_depth: Optional[int] = None):
        super().__init__(schema, seed)
        if grace_period < 1:
            raise ValueError("grace_period must be >= 1")
        if not 0.0 < delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if not 0.0 <= tau < math.inf:
            raise ValueError("tau must be finite and >= 0")
        check_optional_int("max_depth", max_depth, 1)
        self.grace_period = grace_period
        self.delta = delta
        self.tau = tau
        self.max_depth = max_depth
        self.root = _Node(self.n_classes)
        self._numeric = tuple(f.is_numeric for f in schema.features)

    @property
    def n_nodes(self) -> int:
        """Nodes reachable from the root, alternate subtrees included."""
        count, stack = 0, [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if node.children:
                stack.extend(node.children)
            if node.alternate is not None:
                stack.append(node.alternate)
        return count

    # -- learning ----------------------------------------------------------

    def _learn(self, inst: Instance, kept: Optional[tuple] = None) -> None:
        """``kept`` is the root walk ``_predict`` made for ``inst.x``."""
        path, _, nb = kept if kept is not None else self._walk(self.root, inst.x)
        self._leaf_learn(path[-1], inst, nb)

    def _leaf_learn(self, node: _Node, inst: Instance, nb: Optional[int] = None) -> None:
        """Train a leaf; ``nb`` is its naive-Bayes answer for ``inst.x`` when
        the caller already has it."""
        if node.total > 0:
            if argmax_lowest(node.class_counts) == inst.y:
                node.mc_correct += 1
            if nb is None:
                nb = self._leaf_nb(node, inst.x)
            if nb == inst.y:
                node.nb_correct += 1
        self._update_stats(node, inst)
        node.n_since_check += 1
        if node.n_since_check >= self.grace_period:
            node.n_since_check = 0
            if self.max_depth is None or node.depth < self.max_depth:
                self._attempt_split(node)

    def _update_stats(self, node: _Node, inst: Instance) -> None:
        x, y = inst.x, inst.y
        node.class_counts[y] += 1
        node.total += 1
        node.nb_terms[y] = None
        if node.total == 1:
            # every instance carries every feature, so the leaf's entries
            # are made once, in feature order
            for i, numeric in enumerate(self._numeric):
                if numeric:
                    node.num_stats[i] = [RunningStats() for _ in range(self.n_classes)]
                    node.num_range[i] = [x[i], x[i]]
                else:
                    arity = self.schema.features[i].arity
                    node.cat_stats[i] = [[0] * self.n_classes for _ in range(arity)]
        num_range = node.num_range
        for i, per_class in node.num_stats.items():
            v = x[i]
            per_class[y].add(v)
            bounds = num_range[i]
            if v < bounds[0]:
                bounds[0] = v
            elif v > bounds[1]:
                bounds[1] = v
        for i, table in node.cat_stats.items():
            table[int(x[i])][y] += 1

    # -- split search ------------------------------------------------------

    def _numeric_best_cut(self, node: _Node, i: int) -> Optional[tuple[float, float]]:
        """Best (gain, threshold) for a numeric feature via gaussian summaries."""
        per_class = node.num_stats[i]
        lo, hi = node.num_range[i]
        if hi <= lo:
            return None
        n = node.total
        h_parent = _entropy(node.class_counts)
        best = None
        for step in range(1, _N_THRESHOLDS + 1):
            t = lo + (hi - lo) * step / (_N_THRESHOLDS + 1)
            left = []
            for c in range(self.n_classes):
                st = per_class[c]
                if st.count == 0:
                    left.append(0.0)
                else:
                    left.append(st.count * _gaussian_cdf(t, st.mean, st.std()))
            n_left = sum(left)
            n_right = n - n_left
            if n_left < 1e-9 or n_right < 1e-9:
                continue
            right = [node.class_counts[c] - left[c] for c in range(self.n_classes)]
            right = [max(r, 0.0) for r in right]
            gain = h_parent - (n_left / n) * _entropy(left) - (n_right / n) * _entropy(right)
            if best is None or gain > best[0]:
                best = (gain, t)
        return best

    def _categorical_gain(self, node: _Node, i: int) -> Optional[float]:
        n = node.total
        h_children = 0.0
        observed = 0
        for value_counts in node.cat_stats[i]:
            n_v = sum(value_counts)
            if n_v > 0:
                observed += 1
                h_children += (n_v / n) * _entropy(value_counts)
        if observed < 2:
            return None
        return _entropy(node.class_counts) - h_children

    def _attempt_split(self, node: _Node) -> None:
        if len([c for c in node.class_counts if c > 0]) < 2:
            return  # pure leaf: every gain is zero
        candidates: list[tuple[float, _Split]] = []
        for i, numeric in enumerate(self._numeric):
            if numeric:
                cut = self._numeric_best_cut(node, i)
                if cut is not None:
                    candidates.append((cut[0], _Split(i, cut[1], 2)))
            else:
                gain = self._categorical_gain(node, i)
                if gain is not None:
                    candidates.append((gain, _Split(i, None, self.schema.features[i].arity)))
        if not candidates:
            return
        best_gain, best_split = candidates[0]
        second_gain = 0.0
        for gain, split in candidates[1:]:
            if gain > best_gain:
                second_gain = best_gain
                best_gain, best_split = gain, split
            elif gain > second_gain:
                second_gain = gain
        if best_gain <= 0.0:
            return
        eps = hoeffding_bound(math.log2(self.n_classes), self.delta, node.total)
        if best_gain - second_gain > eps or eps < self.tau:
            self._split_node(node, best_split)

    def _split_node(self, node: _Node, split: _Split) -> None:
        node.split = split
        node.children = [_Node(self.n_classes, node.depth + 1) for _ in range(split.arity)]
        node.num_stats.clear()
        node.num_range.clear()
        node.cat_stats.clear()
        node.nb_terms = [None] * self.n_classes

    # -- prediction --------------------------------------------------------

    def _leaf_nb(self, node: _Node, x: Sequence[float]) -> int:
        """The leaf's naive-Bayes answer for ``x``: per class the log prior,
        then each numeric feature's gaussian term from ``node.nb_terms``
        (rebuilt for a class whose entry was dropped), then each categorical
        feature's Laplace-smoothed term."""
        scores = []
        n = node.total
        terms = node.nb_terms
        rows = [(table[int(x[i])], len(table)) for i, table in node.cat_stats.items()]
        for c, n_c in enumerate(node.class_counts):
            if n_c == 0:
                scores.append(-math.inf)
                continue
            score = math.log(n_c / n)
            gauss = terms[c]
            if gauss is None:
                gauss = terms[c] = self._gauss_terms(node, c)
            for i, mean, var, log_norm in gauss:
                diff = x[i] - mean
                score += -0.5 * (log_norm + diff * diff / var)
            for row, arity in rows:
                score += math.log((row[c] + 1.0) / (n_c + arity))
            scores.append(score)
        return argmax_lowest(scores)

    @staticmethod
    def _gauss_terms(node: _Node, c: int) -> list[tuple[int, float, float, float]]:
        terms = []
        for i, per_class in node.num_stats.items():
            st = per_class[c]
            if st.count < 2:
                continue
            var = max(st.variance(), 1e-9)
            terms.append((i, st.mean, var, math.log(2.0 * math.pi * var)))
        return terms

    def _predict(self, x: Sequence[float]) -> int:
        walk = self._walk(self.root, x)
        self._keep(x, walk)
        pred = walk[1][0]
        return 0 if pred is None else pred

    def _walk(self, node: _Node, x: Sequence[float]
              ) -> tuple[list[_Node], list[Optional[int]], Optional[int]]:
        """Walk from ``node`` to the leaf for ``x``. Returns the path, what the
        subtree at each node on it answers (None without data at or below it
        on the path), and the leaf's naive-Bayes answer if the leaf answers
        with it (None otherwise: ``_leaf_learn`` computes it when needed)."""
        path = [node]
        while not node.is_leaf:
            node = node.children[node.split.branch(x)]
            path.append(node)
        if node.total > 0:
            if node.nb_correct > node.mc_correct:
                pred = nb = self._leaf_nb(node, x)
            else:
                pred, nb = argmax_lowest(node.class_counts), None
            return path, [pred] * len(path), nb
        # empty leaf: each node falls back to the majority of the deepest
        # non-empty internal node at or below it
        preds: list[Optional[int]] = [None] * len(path)
        fallback = None
        for i in range(len(path) - 2, -1, -1):
            if fallback is None and path[i].total > 0:
                fallback = argmax_lowest(path[i].class_counts)
            preds[i] = fallback
        return path, preds, None


class HoeffdingAdaptiveTree(HoeffdingTree):
    """Hoeffding tree whose nodes monitor their own error with adaptive windows.

    Every node on an instance's path feeds an Adwin with the subtree's error
    bit. A drift signal starts a fresh alternate subtree at that node; when a
    later signal (from the node or its alternate) finds the alternate's
    windowed error lower, the alternate replaces the original subtree.
    """

    algorithm = "hoeffding_adaptive_tree"

    def __init__(self, schema, seed: int = 0, grace_period: int = 200, delta: float = 1e-7,
                 tau: float = 0.05, max_depth: Optional[int] = None,
                 adwin_delta: float = 0.002):
        super().__init__(schema, seed, grace_period, delta, tau, max_depth)
        if not 0.0 < adwin_delta <= 1.0:
            raise ValueError("adwin_delta must be in (0, 1]")
        self.adwin_delta = adwin_delta

    def _learn(self, inst: Instance, kept: Optional[tuple] = None) -> None:
        """``kept`` is the root walk ``_predict`` made for ``inst.x``."""
        # Nothing on the main path changes before its leaf learns (alternates
        # are separate trees, and a swap ends the step), so one walk gives
        # every node's prediction.
        x, y = inst.x, inst.y
        path, preds, nb = kept if kept is not None else self._walk(self.root, x)
        for i, (node, pred) in enumerate(zip(path, preds)):
            if node.adwin is None:
                node.adwin = Adwin(delta=self.adwin_delta)
            error = 1.0 if pred is None or pred != y else 0.0
            main_signal = node.adwin.update(error) == DRIFT

            alt = node.alternate
            if alt is None:
                if main_signal:
                    alt = _Node(self.n_classes, node.depth)
                    alt.adwin = Adwin(delta=self.adwin_delta)
                    node.alternate = alt
                    self._events.append(("hat", "drift"))
                continue
            alt_path, alt_preds, alt_nb = self._walk(alt, x)
            alt_pred = alt_preds[0]
            alt_error = 1.0 if alt_pred is None or alt_pred != y else 0.0
            alt_signal = alt.adwin.update(alt_error) == DRIFT
            self._leaf_learn(alt_path[-1], inst, alt_nb)
            if ((main_signal or alt_signal)
                    and alt.adwin.width >= alt.adwin.min_window
                    and alt.adwin.mean < node.adwin.mean):
                self._swap_in_alternate(node, path[i - 1] if i else None, x)
                self._events.append(("hat", "swap"))
                return
        self._leaf_learn(path[-1], inst, nb)

    def _swap_in_alternate(self, node: _Node, parent: Optional[_Node],
                           x: Sequence[float]) -> None:
        alt = node.alternate
        node.alternate = None
        if parent is None:
            self.root = alt
        else:
            parent.children[parent.split.branch(x)] = alt
