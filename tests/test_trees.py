import hashlib
import math
import random

import pytest

from driftstream.core import CATEGORICAL, Feature, FeatureSchema, Instance
from driftstream.evaluation import run_prequential
from driftstream.generators import (
    AgrawalGenerator,
    DriftStream,
    LedGenerator,
    LimitedStream,
    SeaGenerator,
    StaggerGenerator,
)
import driftstream.learners.tree as tree_module
from driftstream.drift import Adwin
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


def test_split_attempt_with_no_positive_gain_leaves_the_leaf():
    # each value of either feature sees both classes equally often at every
    # check, so both gains are exactly zero; with tau above the bound
    # (eps(R=1, 1e-7, 8) ~ 1.0), a split of any positive gain would be taken
    ht = HoeffdingTree(TWO_BINARY, grace_period=8, tau=2.0)
    for i in range(800):
        ht.partial_fit(inst([float(i % 2), float((i // 2) % 2)], (i // 4) % 2, seq=i))
    assert ht.root.is_leaf
    assert ht.root.class_counts == [400, 400]


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


# -- golden runs -------------------------------------------------------------
# Recorded from the first implementation of each tree (the Agrawal and LED
# runs from the trees before their leaves cached naive-Bayes terms): a faster
# step must give the same predictions, events and tree sizes at every step.

def _sea_switch_stream():
    return LimitedStream(DriftStream(SeaGenerator(2, seed=22, noise=0.1),
                                     SeaGenerator(1, seed=23, noise=0.1),
                                     position=3000, width=1, seed=24), 9000)


def _agrawal_switch_stream():
    # mixed features: 6 numeric, 3 categorical; HAT swaps alternates in
    # below the root on this stream
    return LimitedStream(DriftStream(AgrawalGenerator(2, seed=61),
                                     AgrawalGenerator(4, seed=62),
                                     position=3000, width=1, seed=63), 6000)


def _led_stream():
    return LimitedStream(LedGenerator(seed=51, noise=0.1), 4000)


# name: (schema, stream, tree seed, tree parameters, (seq, event) list,
#        final n_nodes, sha256 of every step's "prediction drained-events n_nodes")
HAT_GOLDEN = {
    "sea_switch": (
        SeaGenerator.schema, _sea_switch_stream, 5, {},
        [(3338, "drift"), (3522, "swap")], 5,
        "527828d61b196ba5fdad845f01eaece5d76fe249fcea3148c0d05f622b0ca8ed"),
    "stagger_switch": (
        StaggerGenerator.schema, _stagger_switch_stream, 3, {},
        [(10013, "drift"), (10022, "drift"), (10030, "swap")], 4,
        "f53018324bb55fa106cad2d319e669307d850ee4cb4b96a453c8be0bfa0943ad"),
    "agrawal_switch": (
        AgrawalGenerator.schema, _agrawal_switch_stream, 5, {},
        [(1368, "drift"), (3053, "drift"), (3062, "drift"), (3071, "drift"),
         (3111, "drift"), (3180, "drift"), (3239, "drift"), (3375, "drift"),
         (3468, "drift"), (3510, "swap"), (3648, "swap"), (3757, "drift"),
         (3770, "drift"), (3975, "swap"), (3987, "drift")], 21,
        "f570e21176e8121bfb86e961c8e62422b3fdae04da9267abc42a675ead8afe0e"),
    "led": (
        LedGenerator.schema, _led_stream, 5, {"tau": 0.3},
        [(256, "drift"), (1030, "swap"), (1141, "drift"), (1566, "swap"),
         (2181, "drift"), (2439, "swap"), (2976, "drift"), (3786, "drift")], 7,
        "660ef3df8f5c3b06a43962f432b2d06a3c840eb450ed5a7278c69e8fc7baf1e0"),
}

HT_GOLDEN = {
    "agrawal_switch": (
        AgrawalGenerator.schema, _agrawal_switch_stream, 5, {},
        [], 16,
        "fdf08a6c4d19225d21a0ac506eb1be103cfcc5b5df10ae3fad89cee6c68b7f67"),
    "led": (
        LedGenerator.schema, _led_stream, 5, {"tau": 0.3},
        [], 7,
        "263815a897d07c6ede4819644d4adc849a0291f97bcda9c0b949ac357b28b77d"),
}


def _check_golden(cls, golden):
    schema, stream, seed, params, events, n_nodes, digest = golden
    tree = cls(schema, seed=seed, **params)
    rows, seen = [], []
    for inst in stream():
        pred = tree.predict(inst.x) if tree.fitted else None
        tree.partial_fit(inst)
        drained = tree.drain_events()
        assert all(source == "hat" for source, _ in drained)
        seen += [(inst.seq, status) for _, status in drained]
        rows.append(f"{pred} {drained} {tree.n_nodes}")
    assert seen == events
    assert tree.n_nodes == n_nodes
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(HAT_GOLDEN))
def test_hat_golden_runs(name):
    _check_golden(HoeffdingAdaptiveTree, HAT_GOLDEN[name])


@pytest.mark.parametrize("name", sorted(HT_GOLDEN))
def test_ht_golden_runs(name):
    _check_golden(HoeffdingTree, HT_GOLDEN[name])


def test_hat_adwins_scan_rarely_on_drifting_sea(monkeypatch):
    # every node on an instance's path feeds its ADWIN, and the safe interval
    # for each window mean lets nearly all of those updates skip the cut scan
    counts = {"scans": 0, "updates": 0}
    scan, update = Adwin._has_cut, Adwin.update

    def counted_scan(self):
        counts["scans"] += 1
        return scan(self)

    def counted_update(self, x):
        counts["updates"] += 1
        return update(self, x)

    monkeypatch.setattr(Adwin, "_has_cut", counted_scan)
    monkeypatch.setattr(Adwin, "update", counted_update)
    hat = HoeffdingAdaptiveTree(SeaGenerator.schema, seed=5)
    events = []
    for inst in _sea_switch_stream():
        hat.partial_fit(inst)
        events += hat.drain_events()
    assert ("hat", "drift") in events
    assert counts["scans"] < counts["updates"] / 50


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


def test_frozen_tree_answers_by_majority_without_naive_bayes():
    # a predict-only tree computes a leaf's naive-Bayes answer only at a leaf
    # that answers with it
    tree = HoeffdingTree(AgrawalGenerator.schema, seed=5, grace_period=50)
    for inst in LimitedStream(AgrawalGenerator(concept=1, seed=4), 3000):
        tree.partial_fit(inst)
    tree.freeze()
    calls = []
    leaf_nb = tree._leaf_nb
    tree._leaf_nb = lambda node, x: calls.append(node) or leaf_nb(node, x)
    answered_by = {False: 0, True: 0}
    for inst in LimitedStream(AgrawalGenerator(concept=1, seed=6), 1000):
        node = tree.root
        while not node.is_leaf:
            node = node.children[node.split.branch(inst.x)]
        by_nb = node.total > 0 and node.nb_correct > node.mc_correct
        del calls[:]
        tree.predict(inst.x)
        assert calls == ([node] if by_nb else []), inst.seq
        answered_by[by_nb] += 1
    assert min(answered_by.values()) > 0, answered_by


def test_hat_swaps_an_alternate_in_below_the_root():
    hat = HoeffdingAdaptiveTree(AgrawalGenerator.schema, seed=5)
    swaps = []
    swap = hat._swap_in_alternate

    def spy(node, parent, x):
        if parent is not None:
            alt = node.alternate
            expected = hat.n_nodes - _reachable_nodes(node) + _reachable_nodes(alt)
            swaps.append((node, parent, parent.split.branch(x), alt, expected))
        swap(node, parent, x)

    hat._swap_in_alternate = spy
    live, followed = None, 0
    for inst in _agrawal_switch_stream():
        if live is not None:
            # until the next swap, instances that reach the parent's branch
            # are answered by the swapped-in subtree, never the old one
            old, parent, branch, alt = live
            path = hat._walk(hat.root, inst.x)[0]
            assert all(node is not old for node in path)
            if any(node is parent for node in path) and parent.split.branch(inst.x) == branch:
                assert any(node is alt for node in path)
                if path[-1].total > 0:
                    assert hat.predict(inst.x) == hat._walk(alt, inst.x)[1][0]
                    followed += 1
        n_swaps = len(swaps)
        hat.partial_fit(inst)
        if ("hat", "swap") in hat.drain_events():
            live = None
        if len(swaps) > n_swaps:
            old, parent, branch, alt, expected = swaps[-1]
            assert parent.children[branch] is alt
            assert old.alternate is None
            assert hat.n_nodes == expected == _reachable_nodes(hat.root)
            live = (old, parent, branch, alt)
    assert len(swaps) >= 2
    assert followed > 0


def _reference_leaf_scores(tree, node, x):
    """Class scores as leaves computed them before they cached any term."""
    scores = []
    n = sum(node.class_counts)
    for c in range(tree.n_classes):
        n_c = node.class_counts[c]
        if n_c == 0:
            scores.append(-math.inf)
            continue
        score = math.log(n_c / n)
        for i, per_class in node.num_stats.items():
            st = per_class[c]
            if st.count < 2:
                continue
            var = max(st.variance(), 1e-9)
            diff = x[i] - st.mean
            score += -0.5 * (math.log(2.0 * math.pi * var) + diff * diff / var)
        for i, table in node.cat_stats.items():
            arity = len(table)
            score += math.log((table[int(x[i])][c] + 1.0) / (n_c + arity))
        scores.append(score)
    return scores


@pytest.mark.parametrize("cls", [HoeffdingTree, HoeffdingAdaptiveTree])
@pytest.mark.parametrize("stream, params", [
    (lambda: LimitedStream(_sea_switch_stream(), 4000), {}),
    (lambda: LimitedStream(_agrawal_switch_stream(), 4000), {}),
    (lambda: LimitedStream(_led_stream(), 2000), {"tau": 0.3}),
], ids=["sea", "agrawal", "led"])
def test_cached_leaf_scores_equal_the_uncached_formula_bitwise(monkeypatch, cls, stream,
                                                                 params):
    # every naive-Bayes answer the run asks for, checked on the class scores
    # that _leaf_nb hands to argmax_lowest
    instances = stream()
    tree = cls(instances.schema, seed=5, **params)
    leaf_nb, argmax = tree._leaf_nb, tree_module.argmax_lowest
    scored, answers = [], []

    def checked_leaf_nb(node, x):
        assert node.total == sum(node.class_counts)
        want = _reference_leaf_scores(tree, node, x)
        del scored[:]
        monkeypatch.setattr(tree_module, "argmax_lowest",
                            lambda values: scored.append(list(values)) or argmax(values))
        try:
            answer = leaf_nb(node, x)
        finally:
            monkeypatch.setattr(tree_module, "argmax_lowest", argmax)
        assert [s.hex() for s in scored[0]] == [s.hex() for s in want]
        answers.append(answer)
        return answer

    tree._leaf_nb = checked_leaf_nb
    for inst in instances:
        if tree.fitted:
            tree.predict(inst.x)
        tree.partial_fit(inst)
    assert len(answers) > 1000
