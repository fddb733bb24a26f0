"""Online bagging ensembles with Poisson instance weighting."""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import Instance
from ..drift import DRIFT, Adwin
from .base import Learner, ensemble_vote, poisson
from .tree import HoeffdingTree


class OzaBagging(Learner):
    """Online bagging: each member trains k ~ Poisson(lambda) times per instance."""

    algorithm = "oza_bagging"
    poisson_lambda = 1.0
    member_adwin = False

    def __init__(self, schema, seed: int = 0, n_members: int = 10):
        super().__init__(schema, seed)
        if n_members < 1:
            raise ValueError("n_members must be >= 1")
        self.members = [self._new_member(self._rng.getrandbits(32))
                        for _ in range(n_members)]
        self.detectors = [Adwin() for _ in self.members] if self.member_adwin else None

    def _new_member(self, seed: int) -> Learner:
        """A fresh member, at construction and at each reset; a subclass may
        build another learner."""
        return HoeffdingTree(self.schema, seed=seed)

    def _learn(self, inst: Instance, answers: Optional[dict[int, int]] = None) -> None:
        """``answers``: the fitted members' answers ``_predict`` got for ``inst.x``."""
        if self.detectors is not None:
            answers = answers or {}
            drifted = False
            for j, (member, detector) in enumerate(zip(self.members, self.detectors)):
                if member.fitted:
                    pred = answers[j] if j in answers else member.predict(inst.x)
                    error = float(pred != inst.y)
                else:
                    error = 1.0
                if detector.update(error) == DRIFT:
                    drifted = True
            if drifted:
                self._reset_worst()
        for member in self.members:
            for _ in range(poisson(self.poisson_lambda, self._rng)):
                member.partial_fit(inst)

    def _reset_worst(self) -> None:
        worst = max(range(len(self.members)), key=lambda i: self.detectors[i].mean)
        self.members[worst] = self._new_member(self._rng.getrandbits(32))
        self.detectors[worst] = Adwin()
        self._events.append((f"{self.algorithm}.member{worst}", "drift"))

    def _predict(self, x: Sequence[float]) -> int:
        answers = {j: m.predict(x) for j, m in enumerate(self.members) if m.fitted}
        if self.detectors is not None:
            self._keep(x, answers)
        votes = [(pred, 1.0) for pred in answers.values()]
        if not votes:
            return 0
        return ensemble_vote(votes)


class OzaBaggingAdwin(OzaBagging):
    """Oza bagging plus a per-member adaptive-window error monitor; a drift
    signal resets the worst member."""

    algorithm = "oza_bagging_adwin"
    member_adwin = True


class LeveragingBagging(OzaBaggingAdwin):
    """Higher-variance bagging (lambda = 6) with the same member monitoring."""

    algorithm = "leveraging_bagging"
    poisson_lambda = 6.0
