"""The predict-then-learn handover: what ``_predict`` keeps for ``_learn``
changes no float, int or event, and is only used for the same ``x`` with no
learn step in between."""

import numpy as np
import pytest

from driftstream.core import (
    CategoricalOutOfRangeError,
    Feature,
    FeatureSchema,
    CATEGORICAL,
    Instance,
    OneHotEncoder,
)
from driftstream.generators import (
    AgrawalGenerator,
    DriftStream,
    LimitedStream,
    StaggerGenerator,
)
from driftstream.learners import HoeffdingAdaptiveTree, HoeffdingTree, make_learner
from driftstream.learners.ensembles import LeveragingBagging, OzaBaggingAdwin
from driftstream.meta import MetaEnsemble

LINEAR = ("linear_sgd", "perceptron", "logistic_sgd")
ROSTER = ("hoeffding_tree", "knn_window", "perceptron", "linear_sgd")


def _no_handover(learner):
    """Make ``learner`` keep nothing, so every ``_learn`` recomputes."""
    learner._keep = lambda x, state: None
    return learner


def _agrawal_switch(n=1200):
    return LimitedStream(DriftStream(AgrawalGenerator(concept=0, seed=31),
                                     AgrawalGenerator(concept=3, seed=32),
                                     position=n // 2, width=1, seed=33), n)


def _stagger_switch(n=2000):
    return LimitedStream(DriftStream(StaggerGenerator(concept=0, seed=21),
                                     StaggerGenerator(concept=2, seed=22),
                                     position=n // 2, width=1, seed=23), n)


def _build(name, schema, keep):
    wrap = (lambda learner: learner) if keep else _no_handover
    if name in ("oza_bagging_adwin", "leveraging_bagging"):
        cls = OzaBaggingAdwin if name == "oza_bagging_adwin" else LeveragingBagging

        class Bag(cls):
            def _new_member(self, seed):
                return wrap(super()._new_member(seed))
        return wrap(Bag(schema, seed=3, n_members=5))
    if name.startswith("meta_ensemble"):
        members = [wrap(make_learner(m, schema, seed=50 + j)) for j, m in enumerate(ROSTER)]
        return wrap(MetaEnsemble(schema, members, mode=name.split(":")[1], window=100,
                                 seed=3))
    extra = {"grace_period": 50} if "tree" in name else {}
    return wrap(make_learner(name, schema, seed=3, **extra))


def _state(learner):
    """Everything a learn step changes that the handover could get wrong."""
    if isinstance(learner, MetaEnsemble):
        return [learner.active_index, learner.perf.weights,
                [_state(m) for m in learner.members]]
    if hasattr(learner, "members"):
        return [_state(m) for m in learner.members]
    if isinstance(learner, HoeffdingTree):
        return learner.n_nodes
    if hasattr(learner, "weights"):
        return (learner.weights.tobytes(), learner.bias.tobytes())
    return None


@pytest.mark.parametrize("name, stream", [
    ("hoeffding_tree", _agrawal_switch),
    ("hoeffding_adaptive_tree", _stagger_switch),
    ("linear_sgd", _agrawal_switch),
    ("perceptron", _agrawal_switch),
    ("logistic_sgd", _agrawal_switch),
    ("oza_bagging_adwin", _stagger_switch),
    ("leveraging_bagging", _stagger_switch),
    ("meta_ensemble:meta", lambda: _agrawal_switch(600)),
    ("meta_ensemble:weighted_vote", lambda: _agrawal_switch(600)),
])
def test_handover_changes_nothing(name, stream):
    source = stream()
    reused = _build(name, source.schema, keep=True)
    fresh = _build(name, source.schema, keep=False)
    events = []
    for inst in source:
        if reused.fitted:
            assert reused.predict(inst.x) == fresh.predict(inst.x), inst.seq
        reused.partial_fit(inst)
        fresh.partial_fit(inst)
        drained = reused.drain_events()
        assert drained == fresh.drain_events(), inst.seq
        events += drained
        assert _state(reused) == _state(fresh), inst.seq
    if name in ("hoeffding_adaptive_tree", "oza_bagging_adwin", "leveraging_bagging"):
        assert events  # a subtree swap or a member reset happened
    if name == "meta_ensemble:meta":
        assert any(status.startswith("switch") for _, status in events)


def _spy_learn(learner):
    """Record, for each ``_learn`` call, whether it was handed kept state."""
    calls = []
    learn = learner._learn

    def spy(inst, *kept):
        calls.append(bool(kept))
        return learn(inst, *kept)
    learner._learn = spy
    return calls


@pytest.mark.parametrize("name", ["hoeffding_tree", "hoeffding_adaptive_tree", *LINEAR])
def test_state_only_for_equal_x_and_no_learn_between(name):
    source = _agrawal_switch(300)
    learner = make_learner(name, source.schema, seed=1)
    instances = list(source)
    for inst in instances[:200]:
        learner.partial_fit(inst)
    calls = _spy_learn(learner)
    a, b = instances[200], instances[201]
    assert list(a.x) != list(b.x)

    learner.predict(tuple(a.x))
    learner.partial_fit(Instance(list(a.x), y=a.y, seq=a.seq))   # equal by value
    learner.partial_fit(a)                                        # a learn in between
    learner.predict(a.x)
    learner.partial_fit(b)                                        # another x
    learner.predict(a.x)
    learner.predict(b.x)                                          # predict drops it too
    learner.partial_fit(a)
    assert calls == [True, False, False, False]


@pytest.mark.parametrize("cls", [OzaBaggingAdwin, LeveragingBagging])
def test_bagging_member_reuses_state_on_first_poisson_draw_only(cls):
    schema = StaggerGenerator.schema

    class SpiedBag(cls):
        def _new_member(self, seed):
            member = super()._new_member(seed)
            member.calls = _spy_learn(member)
            return member

    bag = SpiedBag(schema, seed=5, n_members=4)
    repeats = 0
    for inst in _stagger_switch(1500):
        if bag.fitted:
            bag.predict(inst.x)
        before = [(m, m.fitted) for m in bag.members]
        for m in bag.members:
            del m.calls[:]
        bag.partial_fit(inst)
        for m in bag.members:
            # a member asked for this x hands its state to its first draw
            # only; a member reset in this step was never asked
            asked = any(m is old and fitted for old, fitted in before)
            assert m.calls == [asked] + [False] * (len(m.calls) - 1) or not m.calls
            repeats += len(m.calls) > 1 and asked
    assert repeats > 0


def test_one_encoding_per_step_for_each_linear_learner():
    source = _agrawal_switch(400)
    learners = [make_learner(name, source.schema, seed=1) for name in LINEAR]
    counts = [0] * len(learners)
    for j, learner in enumerate(learners):
        def counted(x, _encode=learner._encode, _j=j):
            counts[_j] += 1
            return _encode(x)
        learner._encode = counted
    for inst in source:
        counts[:] = [0] * len(learners)
        for learner in learners:
            if learner.fitted:
                learner.predict(inst.x)
            learner.partial_fit(inst)
        assert counts == [1] * len(learners), inst.seq


@pytest.mark.parametrize("cls", [HoeffdingTree, HoeffdingAdaptiveTree])
def test_leaf_answer_computed_once_per_step(cls):
    # In a test-then-train step the main path's leaf answer is computed at
    # most once; the adaptive tree also answers at each alternate it meets.
    source = _stagger_switch(3000)
    tree = cls(source.schema, seed=3, grace_period=50)
    calls = []
    leaf_nb = tree._leaf_nb
    tree._leaf_nb = lambda node, x: calls.append(node) or leaf_nb(node, x)
    for inst in source:
        alternates, node = 0, tree.root
        while True:
            alternates += node.alternate is not None
            if node.is_leaf:
                break
            node = node.children[node.split.branch(inst.x)]
        del calls[:]
        if tree.fitted:
            tree.predict(inst.x)
        tree.partial_fit(inst)
        assert len(calls) <= 1 + alternates, inst.seq


def _one_hot_reference(x, schema):
    out = []
    for i, feat in enumerate(schema.features):
        if feat.is_numeric:
            out.append(float(x[i]))
        else:
            block = [0.0] * feat.arity
            block[int(x[i])] = 1.0
            out.extend(block)
    return out


def test_encoder_gives_the_same_floats_as_the_reference():
    source = _agrawal_switch(200)
    encode = OneHotEncoder(source.schema)
    for inst in source:
        v = encode(inst.x)
        assert v.dtype == np.float64
        assert v.tolist() == _one_hot_reference(inst.x, source.schema)
    schema = FeatureSchema(features=(Feature("a"), Feature("b", CATEGORICAL, 3)),
                           classes=("0", "1"))
    for bad in (3.0, -1.0):
        with pytest.raises(CategoricalOutOfRangeError):
            OneHotEncoder(schema)([0.5, bad])
