import hashlib
import math
import random

import pytest

from driftstream.core import CATEGORICAL, Feature, FeatureSchema, Instance
from driftstream.evaluation import run_prequential
from driftstream.generators import DriftStream, LimitedStream, SeaGenerator, StaggerGenerator
from driftstream.learners import HoeffdingAdaptiveTree, HoeffdingTree, hoeffding_bound

TWO_BINARY = FeatureSchema(
    features=(Feature("f0", CATEGORICAL, 2), Feature("f1", CATEGORICAL, 2)),
    classes=("0", "1"),
)
ONE_NUMERIC = FeatureSchema(features=(Feature("x0"),), classes=("0", "1"))


def inst(x, y, seq=0):
    return Instance(list(x), y=y, seq=seq)


# -- hoeffding bound ----------------------------------------------------------

def test_hoeffding_bound_closed_form():
    assert hoeffding_bound(1.0, 1e-7, 200) == pytest.approx(
        math.sqrt(math.log(1e7) / 400), rel=1e-12)
    assert hoeffding_bound(1.0, 1e-7, 200) == pytest.approx(0.2007, abs=2e-4)


def test_hoeffding_bound_inverse_sqrt_scaling():
    assert hoeffding_bound(1.0, 1e-3, 400) == pytest.approx(
        hoeffding_bound(1.0, 1e-3, 100) / 2, rel=1e-12)


def test_hoeffding_bound_delta_one_gives_zero():
    assert hoeffding_bound(1.0, 1.0, 50) == 0.0


def test_hoeffding_bound_domain_errors():
    with pytest.raises(ValueError):
        hoeffding_bound(1.0, 1e-7, 0)
    with pytest.raises(ValueError):
        hoeffding_bound(0.0, 1e-7, 10)
    with pytest.raises(ValueError):
        hoeffding_bound(1.0, 1.5, 10)


@pytest.mark.parametrize("cls, params, message", [
    (HoeffdingTree, {"grace_period": 0}, "grace_period must be >= 1"),
    (HoeffdingTree, {"delta": 0.0}, "delta must be in"),
    (HoeffdingTree, {"delta": 1.5}, "delta must be in"),
    (HoeffdingAdaptiveTree, {"delta": 0.0}, "delta must be in"),
    (HoeffdingAdaptiveTree, {"adwin_delta": 0.0}, "adwin_delta must be in"),
    (HoeffdingAdaptiveTree, {"adwin_delta": 2.0}, "adwin_delta must be in"),
], ids=["ht.grace_period", "ht.delta_zero", "ht.delta_above_one", "hat.delta_zero",
        "hat.adwin_delta_zero", "hat.adwin_delta_above_one"])
def test_tree_rejects_out_of_range_parameters_at_construction(cls, params, message):
    with pytest.raises(ValueError, match=message):
        cls(ONE_NUMERIC, **params)


# -- split decisions ----------------------------------------------------------

def test_split_fires_on_perfectly_separating_feature():
    # G(best) - G(second) = H(1/2, 1/2) = 1 bit; eps(R=1, 1e-7, 1000) ~ 0.09
    ht = HoeffdingTree(TWO_BINARY, grace_period=200)
    rng = random.Random(0)
    for i in range(1000):
        b = i % 2
        ht.partial_fit(inst([float(b), float(rng.randrange(2))], b, seq=i))
    assert not ht.root.is_leaf
    assert ht.root.split.feature == 0
    assert ht.predict([0.0, 0.0]) == 0
    assert ht.predict([1.0, 1.0]) == 1
    eps = hoeffding_bound(1.0, 1e-7, 1000)
    assert 1.0 - 0.0 > eps  # the inequality the split relied on


def test_pure_leaf_never_splits():
    ht = HoeffdingTree(TWO_BINARY, grace_period=10)
    for i in range(500):
        ht.partial_fit(inst([float(i % 2), float((i // 2) % 2)], 0, seq=i))
    assert ht.root.is_leaf


def test_identical_features_tie_breaks_to_lowest_index():
    # gains are exactly tied, so the split waits for eps < tau and picks f0
    ht = HoeffdingTree(TWO_BINARY, grace_period=200)
    for i in range(4000):
        b = i % 2
        ht.partial_fit(inst([float(b), float(b)], b, seq=i))
    assert not ht.root.is_leaf
    assert ht.root.split.feature == 0


def test_numeric_split_separated_gaussians():
    rng = random.Random(1)
    ht = HoeffdingTree(ONE_NUMERIC, grace_period=100)
    for i in range(2000):
        y = i % 2
        x = rng.gauss(0.0, 0.5) if y == 0 else rng.gauss(10.0, 0.5)
        ht.partial_fit(inst([x], y, seq=i))
    assert not ht.root.is_leaf
    assert 1.0 < ht.root.split.threshold < 9.0
    assert ht.predict([-0.5]) == 0
    assert ht.predict([10.5]) == 1


def test_leaf_majority_before_any_split():
    ht = HoeffdingTree(ONE_NUMERIC, grace_period=10_000)
    rng = random.Random(2)
    for i in range(30):
        ht.partial_fit(inst([rng.random()], 0 if i < 20 else 1, seq=i))
    assert ht.root.is_leaf
    assert ht.predict([rng.random()]) == 0


def test_prediction_purity():
    ht = HoeffdingTree(ONE_NUMERIC)
    rng = random.Random(3)
    for i in range(500):
        x = rng.random()
        ht.partial_fit(inst([x], int(x > 0.5), seq=i))
    first = [ht.predict([v / 20]) for v in range(20)]
    assert [ht.predict([v / 20]) for v in range(20)] == first


def test_tree_memory_grows_only_via_splits():
    ht = HoeffdingTree(ONE_NUMERIC)
    rng = random.Random(4)
    for i in range(3000):
        ht.partial_fit(inst([rng.random()], rng.randrange(2), seq=i))
    # labels independent of x: no informative split should have fired
    assert ht.n_nodes <= 3


# -- adaptive variant -----------------------------------------------------------

def _stagger_switch_stream(seed=7, n=20000, position=10000):
    base = StaggerGenerator(concept=0, seed=seed)
    post = StaggerGenerator(concept=2, seed=seed + 1000)
    return LimitedStream(DriftStream(base, post, position=position, width=1,
                                     seed=seed + 2000), n)


def test_hat_stationary_stream_stays_quiet():
    hat = HoeffdingAdaptiveTree(StaggerGenerator.schema, seed=1)
    stream = LimitedStream(StaggerGenerator(concept=1, seed=3), 4000)
    trace = run_prequential(stream, hat, report_every=500)
    assert trace.drift_count() == 0
    assert trace.final.cum_accuracy > 0.95


def test_hat_detects_switch_and_swaps_subtree():
    hat = HoeffdingAdaptiveTree(StaggerGenerator.schema, seed=3)
    trace = run_prequential(_stagger_switch_stream(), hat, report_every=100)
    events = [e for r in trace.records for e in r.drift_events]
    statuses = [status for _, _, status in events]
    assert "drift" in statuses
    assert "swap" in statuses
    drift_seqs = [seq for seq, _, status in events if status == "drift"]
    assert min(drift_seqs) >= 10000
    assert min(drift_seqs) <= 10000 + 300


def _reachable_nodes(node):
    """Nodes under ``node`` through children and alternate links."""
    children = list(node.children or []) + ([node.alternate] if node.alternate else [])
    return 1 + sum(_reachable_nodes(c) for c in children)


def test_hat_node_count_matches_tree_after_swaps():
    hat = HoeffdingAdaptiveTree(StaggerGenerator.schema, seed=3)
    swaps = 0
    for inst in _stagger_switch_stream():
        hat.partial_fit(inst)
        if ("hat", "swap") in hat.drain_events():
            swaps += 1
            assert hat.n_nodes == _reachable_nodes(hat.root), inst.seq
    assert swaps >= 1
    assert hat.n_nodes == _reachable_nodes(hat.root)


def test_hat_recovers_quickly_after_switch():
    hat = HoeffdingAdaptiveTree(StaggerGenerator.schema, seed=3)
    trace = run_prequential(_stagger_switch_stream(), hat, report_every=100)
    post = [r for r in trace.records if 10000 <= r.seq <= 12000]
    assert max(r.window_accuracy for r in post) >= 0.9
    assert trace.final.cum_accuracy > 0.95


def test_hat_without_drift_matches_plain_tree_quality():
    stream_a = LimitedStream(StaggerGenerator(concept=0, seed=5), 3000)
    stream_b = LimitedStream(StaggerGenerator(concept=0, seed=5), 3000)
    ht = HoeffdingTree(StaggerGenerator.schema, seed=1)
    hat = HoeffdingAdaptiveTree(StaggerGenerator.schema, seed=1)
    acc_ht = run_prequential(stream_a, ht, report_every=500).final.cum_accuracy
    acc_hat = run_prequential(stream_b, hat, report_every=500).final.cum_accuracy
    assert abs(acc_ht - acc_hat) < 0.05


# -- HAT golden runs ------------------------------------------------------------
# Recorded from the first HAT implementation: a faster learn step must give
# the same predictions, events and tree sizes at every step.

def _sea_switch_stream():
    return LimitedStream(DriftStream(SeaGenerator(2, seed=22, noise=0.1),
                                     SeaGenerator(1, seed=23, noise=0.1),
                                     position=3000, width=1, seed=24), 9000)


HAT_GOLDEN = {
    # name: (schema, stream, tree seed, (seq, event) list, final n_nodes,
    #        sha256 of every step's "prediction drained-events n_nodes")
    "sea_switch": (
        SeaGenerator.schema, _sea_switch_stream, 5,
        [(3338, "drift"), (3522, "swap")], 5,
        "527828d61b196ba5fdad845f01eaece5d76fe249fcea3148c0d05f622b0ca8ed"),
    "stagger_switch": (
        StaggerGenerator.schema, _stagger_switch_stream, 3,
        [(10013, "drift"), (10022, "drift"), (10030, "swap")], 4,
        "f53018324bb55fa106cad2d319e669307d850ee4cb4b96a453c8be0bfa0943ad"),
}


@pytest.mark.parametrize("name", sorted(HAT_GOLDEN))
def test_hat_golden_runs(name):
    schema, stream, seed, events, n_nodes, digest = HAT_GOLDEN[name]
    hat = HoeffdingAdaptiveTree(schema, seed=seed)
    rows, seen = [], []
    for inst in stream():
        pred = hat.predict(inst.x) if hat.fitted else None
        hat.partial_fit(inst)
        drained = hat.drain_events()
        assert all(source == "hat" for source, _ in drained)
        seen += [(inst.seq, status) for _, status in drained]
        rows.append(f"{pred} {drained} {hat.n_nodes}")
    assert seen == events
    assert hat.n_nodes == n_nodes
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


def test_hat_learn_step_computes_each_leaf_answer_once():
    # One naive-Bayes answer per path walk: the main path's, plus one for
    # each alternate subtree met on it.
    hat = HoeffdingAdaptiveTree(StaggerGenerator.schema, seed=3)
    calls = []
    leaf_nb = hat._leaf_nb
    hat._leaf_nb = lambda node, x: calls.append(node) or leaf_nb(node, x)
    alternates_met = 0
    for inst in _stagger_switch_stream():
        walks, node = 1, hat.root
        while True:
            walks += node.alternate is not None
            if node.is_leaf:
                break
            node = node.children[node.split.branch(inst.x)]
        alternates_met += walks - 1
        del calls[:]
        hat.partial_fit(inst)
        assert len(calls) <= walks, inst.seq
    assert alternates_met > 0
