"""Combined algorithm/hyperparameter search by exhaustive grid over a buffer.

Candidate configurations are scored with k-fold cross-validated 0-1 loss over
a buffered stream prefix; the folds are contiguous ranges of the prefix, in
stream order. The winner is retrained on the whole buffer and frozen.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import FeatureSchema, Instance, derive_seed
from .learners import LEARNER_REGISTRY, Learner, make_learner, train_batch
from .learners.base import BatchLearner


@dataclass(frozen=True)
class AlgorithmGrid:
    algorithm: str
    grid: dict[str, list] = field(default_factory=dict)


@dataclass(frozen=True)
class ConfigSpace:
    entries: tuple[AlgorithmGrid, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty configuration space")
        for entry in self.entries:
            if entry.algorithm not in LEARNER_REGISTRY:
                raise ValueError(f"unknown algorithm {entry.algorithm!r}")
            for param, values in entry.grid.items():
                if not values:
                    raise ValueError(
                        f"{entry.algorithm}: empty value list for parameter {param!r}"
                    )


@dataclass(frozen=True)
class Candidate:
    algorithm: str
    params: tuple[tuple[str, object], ...] = ()

    def as_kwargs(self) -> dict:
        return dict(self.params)

    def label(self) -> str:
        if not self.params:
            return self.algorithm
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.algorithm}({inner})"


@dataclass
class CashResult:
    best_config: Candidate
    best_loss: float
    leaderboard: list[tuple[Candidate, float]]
    model: Learner
    truncated: bool = False


def grid_expand(space: ConfigSpace) -> list[Candidate]:
    """Cartesian product per algorithm, concatenated in declaration order."""
    out: list[Candidate] = []
    for entry in space.entries:
        names = list(entry.grid)
        if not names:
            out.append(Candidate(entry.algorithm))
            continue
        for combo in itertools.product(*(entry.grid[n] for n in names)):
            out.append(Candidate(entry.algorithm, tuple(zip(names, combo))))
    return out


def fold_slices(n: int, k: int) -> list[list[int]]:
    """Index folds: k contiguous ranges of ``range(n)``, in order."""
    return [list(range((i * n) // k, ((i + 1) * n) // k)) for i in range(k)]


def fit_candidate(candidate: Candidate, data: Sequence[Instance],
                  schema: FeatureSchema, seed: int) -> Learner:
    """Train a fresh learner for a candidate: batch fit, or one pass of
    partial_fit for incremental algorithms."""
    learner = make_learner(candidate.algorithm, schema, seed=seed, **candidate.as_kwargs())
    if isinstance(learner, BatchLearner):
        train_batch(learner, data)
    else:
        for inst in data:
            learner.partial_fit(inst)
    return learner


def _validation_loss(model: Learner, fold: Sequence[Instance]) -> float:
    wrong = sum(1 for inst in fold if model.predict(inst.x) != inst.y)
    return wrong / len(fold)


def cash_search(buffer: Sequence[Instance], schema: FeatureSchema,
                space: ConfigSpace, folds: int,
                budget: Optional[int] = None, seed: int = 0) -> CashResult:
    """Exhaustive (or budget-truncated) grid search minimizing mean k-fold
    0-1 loss; ties resolve to the earliest candidate in grid order."""
    buffer = list(buffer)
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if len(buffer) < 10 * folds:
        raise ValueError(f"buffer too small: {len(buffer)} samples for {folds} folds")
    for inst in buffer:
        if inst.y is None:
            raise ValueError("search buffer must be fully labeled")
    candidates = grid_expand(space)
    truncated = False
    if budget is not None:
        if budget < 1:
            raise ValueError("budget must allow at least one evaluation")
        if budget < len(candidates):
            candidates = candidates[:budget]
            truncated = True

    bounds = [(idx[0], idx[-1] + 1) for idx in fold_slices(len(buffer), folds)]
    leaderboard: list[tuple[Candidate, float]] = []
    for rank, candidate in enumerate(candidates):
        losses = []
        for i, (lo, hi) in enumerate(bounds):
            model = fit_candidate(candidate, buffer[:lo] + buffer[hi:], schema,
                                  seed=derive_seed(seed, f"cash:{rank}:{i}"))
            losses.append(_validation_loss(model, buffer[lo:hi]))
        leaderboard.append((candidate, sum(losses) / folds))

    best_config, best_loss = leaderboard[0]
    for candidate, loss in leaderboard[1:]:
        if loss < best_loss:
            best_config, best_loss = candidate, loss
    model = fit_candidate(best_config, buffer, schema,
                          seed=derive_seed(seed, "cash:final"))
    model.freeze()
    return CashResult(
        best_config=best_config,
        best_loss=best_loss,
        leaderboard=leaderboard,
        model=model,
        truncated=truncated,
    )
