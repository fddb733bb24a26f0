import math
import random

import numpy as np
import pytest

from driftstream.core import CATEGORICAL, ConfusionMatrix, Feature, FeatureSchema, Instance
from driftstream.evaluation import run_prequential
from driftstream.generators import (
    GENERATOR_FAMILIES,
    LimitedStream,
    SeaGenerator,
    make_generator,
)
from driftstream.learners import HoeffdingTree, make_learner
from driftstream.meta import (
    META_FEATURE_NAMES,
    MetaEnsemble,
    OnlineSelector,
    PerformanceWeights,
    _discretize,
    _entropy_from_counts,
    extract_meta_features,
    window_best_learner,
)
from conftest import ONE_NUMERIC, RuleLearner, ThresholdConceptStream

MIXED = FeatureSchema(
    features=(Feature("a"), Feature("b", CATEGORICAL, 2)),
    classes=("0", "1"),
)


def window_from(pairs, schema=MIXED):
    return [Instance(list(x), y=y, seq=i) for i, (x, y) in enumerate(pairs)]


# -- meta-features ----------------------------------------------------------------

def test_feature_vector_dimension_is_pinned():
    rng = random.Random(0)
    window = window_from([([rng.random(), float(rng.randrange(2))], rng.randrange(2))
                          for _ in range(50)])
    values = extract_meta_features(window, MIXED)
    assert len(values) == len(META_FEATURE_NAMES) == 18
    assert all(math.isfinite(v) for v in values)


def test_single_class_window_has_zero_class_entropy():
    window = window_from([([0.5, 0.0], 0) for _ in range(30)])
    values = dict(zip(META_FEATURE_NAMES, extract_meta_features(window, MIXED)))
    assert values["class_entropy"] == 0.0
    assert values["n_classes_observed"] == 1.0
    assert values["majority_class_share"] == 1.0


def test_balanced_binary_labels_give_one_bit():
    window = window_from([([float(i), 0.0], i % 2) for i in range(40)])
    values = dict(zip(META_FEATURE_NAMES, extract_meta_features(window, MIXED)))
    assert values["class_entropy"] == pytest.approx(1.0)


def test_feature_identical_to_label_has_mi_equal_class_entropy():
    schema = FeatureSchema(features=(Feature("f", CATEGORICAL, 2),), classes=("0", "1"))
    rng = random.Random(1)
    pairs = [([float(y)], y) for y in (rng.randrange(2) for _ in range(60))]
    window = window_from(pairs, schema)
    values = dict(zip(META_FEATURE_NAMES, extract_meta_features(window, schema)))
    assert values["mutual_information_mean"] == pytest.approx(values["class_entropy"], abs=1e-12)


def test_degenerate_numeric_column_imputes_zero():
    window = window_from([([3.25, float(i % 2)], i % 2) for i in range(30)])
    values = dict(zip(META_FEATURE_NAMES, extract_meta_features(window, MIXED)))
    assert values["attr_std_mean"] == 0.0
    assert values["attr_skew_mean"] == 0.0
    assert values["attr_kurtosis_mean"] == 0.0


def test_class_entropy_invariant_under_relabeling():
    rng = random.Random(2)
    pairs = [([rng.random(), float(rng.randrange(2))], int(rng.random() < 0.3))
             for _ in range(100)]
    flipped = [(x, 1 - y) for x, y in pairs]
    a = dict(zip(META_FEATURE_NAMES, extract_meta_features(window_from(pairs), MIXED)))
    b = dict(zip(META_FEATURE_NAMES, extract_meta_features(window_from(flipped), MIXED)))
    assert a["class_entropy"] == pytest.approx(b["class_entropy"], abs=1e-12)


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        extract_meta_features([], MIXED)


def _reference_meta_features(window, schema):
    """The extraction as it was with a per-sample dict of joint counts and a
    column array per feature: the vector must stay the same, float for float."""
    n = len(window)
    ys = np.array([inst.y for inst in window])
    d = schema.n_features
    numeric = schema.numeric_indexes()
    class_counts = np.bincount(ys, minlength=schema.n_classes)
    general = [float(int((class_counts > 0).sum())), float(d), (d - len(numeric)) / d,
               float(class_counts.max()) / n]
    means, stds, skews, kurts = [], [], [], []
    columns = {}
    for i in numeric:
        col = np.array([inst.x[i] for inst in window])
        columns[i] = col
        mu, sigma = float(col.mean()), float(col.std())
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

    def agg(values):
        if not values:
            return 0.0, 0.0
        arr = np.array(values)
        return float(arr.mean()), float(arr.std())

    statistical = [*agg(means), *agg(stds), *agg(skews), *agg(kurts), *agg(correlations)]
    class_entropy = _entropy_from_counts(class_counts)
    attr_entropies, mutual_infos = [], []
    for i in range(d):
        col = np.array([inst.x[i] for inst in window])
        symbols = _discretize(col) if schema.features[i].is_numeric else col.astype(int)
        h_attr = _entropy_from_counts(np.bincount(symbols))
        attr_entropies.append(h_attr)
        joint = {}
        for s, y in zip(symbols, ys):
            joint[(int(s), int(y))] = joint.get((int(s), int(y)), 0) + 1
        h_joint = _entropy_from_counts(np.array(list(joint.values())))
        mutual_infos.append(max(h_attr + class_entropy - h_joint, 0.0))
    attr_entropy_mean = float(np.mean(attr_entropies)) if attr_entropies else 0.0
    mi_mean = float(np.mean(mutual_infos)) if mutual_infos else 0.0
    noise_signal = (attr_entropy_mean - mi_mean) / mi_mean if mi_mean > 1e-12 else 0.0
    out = general + statistical + [class_entropy, attr_entropy_mean, mi_mean, noise_signal]
    return [v if math.isfinite(v) else 0.0 for v in out]


def _generator_windows():
    for family in sorted(GENERATOR_FAMILIES):
        stream = make_generator(family, seed=17)
        for size in (300, 300, 1000, 37):
            yield f"{family}:{size}", [next(stream) for _ in range(size)], stream.schema
    led = make_generator("led", seed=3)
    one_class = [inst for inst in (next(led) for _ in range(3000)) if inst.y == 4]
    yield "led:one_class", one_class, led.schema
    yield "mixed:one_class", window_from([([0.5 * i, float(i % 2)], 1) for i in range(40)]), MIXED


def test_meta_features_equal_the_dict_loop_extraction():
    seen = set()
    for name, window, schema in _generator_windows():
        got = extract_meta_features(window, schema)
        assert repr(got) == repr(_reference_meta_features(window, schema)), name
        seen.add(name.split(":")[0])
    assert seen == set(GENERATOR_FAMILIES) | {"mixed"}


# -- window best ------------------------------------------------------------------

def test_window_best_argmax():
    assert window_best_learner([250, 280, 240, 100]) == 1


def test_window_best_tie_retains_active():
    assert window_best_learner([5, 5, 5], active=2) == 2


def test_window_best_tie_without_active_takes_lowest():
    assert window_best_learner([5, 5, 3]) == 0


def test_window_best_single_learner():
    assert window_best_learner([42]) == 0


def test_window_best_empty_roster():
    with pytest.raises(ValueError):
        window_best_learner([])


# -- performance weights --------------------------------------------------------------

def test_weights_stay_equal_when_all_correct():
    pw = PerformanceWeights(3, alpha=0.9)
    for _ in range(100):
        pw.update([1, 1, 1])
    assert pw.weights[0] == pytest.approx(pw.weights[1])
    assert pw.weights[1] == pytest.approx(pw.weights[2])


def test_weight_ratio_separates_good_from_bad():
    pw = PerformanceWeights(2, alpha=0.999)
    for _ in range(10_000):
        pw.update([1, 0])
    assert pw.weights[0] / pw.weights[1] > 100


def test_alpha_near_one_freezes_weights():
    pw = PerformanceWeights(2, alpha=1 - 1e-12)
    for _ in range(1000):
        pw.update([1, 0])
    assert pw.weights[0] == pytest.approx(1.0, abs=1e-8)
    assert pw.weights[1] == pytest.approx(1.0, abs=1e-8)


def test_alpha_domain():
    with pytest.raises(ValueError):
        PerformanceWeights(2, alpha=1.0)
    with pytest.raises(ValueError):
        PerformanceWeights(2, alpha=0.0)


# -- ensemble behaviour ------------------------------------------------------------------

def _experts():
    return [RuleLearner(ONE_NUMERIC, lambda x: int(x[0] > 0.8)),
            RuleLearner(ONE_NUMERIC, lambda x: int(x[0] > 0.4))]


def test_cold_start_keeps_first_member_through_window_one():
    stream = ThresholdConceptStream(600, duration=600, thresholds=(0.4,), seed=3)
    ens = MetaEnsemble(ONE_NUMERIC, _experts(), mode="last_best", window=300)
    actives = []
    for inst in stream:
        actives.append(ens.active_index)
        ens.predict(inst.x)
        ens.partial_fit(inst)
    assert set(actives[:300]) == {0}
    assert actives[350] == 1  # expert 1 won window one


@pytest.mark.parametrize("mode", ["meta", "last_best"])
def test_unfitted_active_member_answers_through_the_first_fitted_member(mode):
    members = [make_learner("naive_bayes", ONE_NUMERIC),
               RuleLearner(ONE_NUMERIC, lambda x: 1), RuleLearner(ONE_NUMERIC, lambda x: 0)]
    ens = MetaEnsemble(ONE_NUMERIC, members, mode=mode, window=300)
    assert ens.active_index == 0 and not members[0].fitted
    assert [ens.predict([v]) for v in (0.1, 0.5, 0.9)] == [1, 1, 1]


def test_last_best_lags_one_window_on_aligned_alternation():
    # concept flips every 300 = one window: the leader always trails by one
    stream = ThresholdConceptStream(3000, duration=300, seed=4)
    ens = MetaEnsemble(ONE_NUMERIC, _experts(), mode="last_best", window=300)
    actives_per_window = []
    for i, inst in enumerate(stream):
        if i % 300 == 0:
            actives_per_window.append(ens.active_index)
        ens.predict(inst.x)
        ens.partial_fit(inst)
    # window k is concept k%2 whose expert is k%2; the pick matches the
    # PREVIOUS window's expert from window 2 onward
    for k in range(2, 10):
        assert actives_per_window[k] == (k - 1) % 2


def test_switch_events_only_at_window_boundaries():
    stream = ThresholdConceptStream(3000, duration=900, seed=5)
    ens = MetaEnsemble(ONE_NUMERIC, _experts(), mode="last_best", window=300)
    trace = run_prequential(stream, ens, report_every=50)
    switches = [seq for r in trace.records for seq, det, status in r.drift_events
                if det == "selector"]
    assert switches
    assert all((seq + 1) % 300 == 0 for seq in switches)


def test_active_switch_recorded_in_trace():
    stream = ThresholdConceptStream(1200, duration=600, seed=6)
    ens = MetaEnsemble(ONE_NUMERIC, _experts(), mode="last_best", window=300)
    trace = run_prequential(stream, ens, report_every=100)
    assert any("switch:" in status
               for r in trace.records for _, det, status in r.drift_events)
    assert trace.records[-1].active_learner is not None


class LookupPreviousBest:
    """Selector test double: replays the previous window's best index."""

    def __init__(self):
        self.fitted = False
        self._last = 0

    def partial_fit(self, features, target):
        self._last = target
        self.fitted = True

    def predict(self, features):
        return self._last


def test_meta_with_lookup_selector_degenerates_to_last_best():
    def run(mode, selector=None):
        stream = ThresholdConceptStream(6000, duration=900, seed=7)
        ens = MetaEnsemble(ONE_NUMERIC, _experts(), mode=mode, window=300,
                           selector=selector)
        return run_prequential(stream, ens, report_every=100)

    t_last = run("last_best")
    t_meta = run("meta", selector=LookupPreviousBest())
    assert [(r.seq, r.cum_accuracy, r.active_learner) for r in t_last.records] == \
           [(r.seq, r.cum_accuracy, r.active_learner) for r in t_meta.records]


class NextWindowOracle:
    """Upper-bound selector: told the NEXT window's best ahead of time."""

    def __init__(self, picks):
        self.picks = picks
        self.fitted = True
        self.calls = 0

    def partial_fit(self, features, target):
        pass

    def predict(self, features):
        pick = self.picks[min(self.calls, len(self.picks) - 1)]
        self.calls += 1
        return pick


def test_oracle_selector_upper_bounds_last_best():
    n, dur, w = 6000, 300, 300

    def hits_per_window():
        experts = _experts()
        stream = ThresholdConceptStream(n, dur, seed=8)
        best = []
        hits = [0, 0]
        for i, inst in enumerate(stream, start=1):
            for j, m in enumerate(experts):
                hits[j] += int(m.predict(inst.x) == inst.y)
            if i % w == 0:
                best.append(window_best_learner(hits))
                hits = [0, 0]
        return best

    best = hits_per_window()
    # picks[k] is consumed at the END of window k+1 and selects window k+2's leader
    picks = best[1:] + best[-1:]

    def run(mode, selector=None):
        stream = ThresholdConceptStream(n, dur, seed=8)
        ens = MetaEnsemble(ONE_NUMERIC, _experts(), mode=mode, window=w,
                           selector=selector)
        return run_prequential(stream, ens, report_every=100).final.cum_accuracy

    acc_oracle = run("meta", selector=NextWindowOracle(picks))
    acc_last = run("last_best")
    assert acc_oracle >= acc_last
    assert acc_oracle > 0.9


def test_single_member_matches_plain_run_exactly():
    def stream():
        return LimitedStream(SeaGenerator(seed=12), 2000)

    plain = run_prequential(stream(), HoeffdingTree(SeaGenerator.schema, seed=1),
                            report_every=100)
    via_meta = run_prequential(
        stream(),
        MetaEnsemble(SeaGenerator.schema,
                     [HoeffdingTree(SeaGenerator.schema, seed=1)],
                     mode="last_best", window=300),
        report_every=100)
    stripped_plain = [(r.seq, r.cum_accuracy, r.window_accuracy, r.kappa)
                      for r in plain.records]
    stripped_meta = [(r.seq, r.cum_accuracy, r.window_accuracy, r.kappa)
                     for r in via_meta.records]
    assert stripped_plain == stripped_meta


def test_weighted_vote_follows_reliable_member():
    stream = ThresholdConceptStream(2000, duration=2000, thresholds=(0.4,), seed=9)
    ens = MetaEnsemble(ONE_NUMERIC, _experts(), mode="weighted_vote", window=300,
                       alpha=0.9)
    cm = ConfusionMatrix(2)
    for inst in stream:
        cm.update(inst.y, ens.predict(inst.x))
        ens.partial_fit(inst)
    assert cm.accuracy() > 0.95


def test_online_selector_learns_separable_mapping():
    rng = random.Random(10)
    sel = OnlineSelector()
    for _ in range(300):
        cls = rng.randrange(2)
        base = [1.0, 5.0] if cls == 0 else [5.0, 1.0]
        sel.partial_fit([v + rng.gauss(0, 0.2) for v in base], cls)
    assert sel.predict([1.0, 5.0]) == 0
    assert sel.predict([5.0, 1.0]) == 1


def test_meta_step_is_test_then_train():
    stream = ThresholdConceptStream(700, duration=700, thresholds=(0.4,), seed=11)
    ens = MetaEnsemble(ONE_NUMERIC, _experts(), mode="last_best", window=300)
    cm = ConfusionMatrix(2)
    for inst in stream:
        pred = ens.predict(inst.x)
        ens.partial_fit(inst)
        cm.update(inst.y, pred)
    assert cm.total == 700
    assert ens.active_index == 1  # expert 1 owns the only concept


def _counted_roster(schema, counts):
    """The default four-learner roster; with ``counts``, each member's predict
    also adds one to its slot."""
    members = []
    for j, name in enumerate(("hoeffding_tree", "knn_window", "perceptron", "linear_sgd")):
        member = make_learner(name, schema, seed=50 + j)
        if counts is not None:
            def counted(x, _predict=member.predict, _j=j):
                counts[_j] += 1
                return _predict(x)
            member.predict = counted
        members.append(member)
    return members


@pytest.mark.parametrize("mode", ["meta", "weighted_vote"])
def test_each_member_predicts_once_per_step(mode):
    schema = SeaGenerator.schema
    counts = [0, 0, 0, 0]
    ens = MetaEnsemble(schema, _counted_roster(schema, counts), mode=mode, window=40,
                       seed=3)
    # The reference asks every member again in partial_fit: a predict on
    # another x between predict and partial_fit leaves nothing to reuse.
    ref = MetaEnsemble(schema, _counted_roster(schema, None), mode=mode, window=40,
                       seed=3)
    got, want = [], []
    for step, inst in enumerate(LimitedStream(SeaGenerator(seed=21), 400)):
        counts[:] = [0, 0, 0, 0]
        if ens.fitted:
            got.append((ens.predict(inst.x), ens.active_index))
            want.append((ref.predict(inst.x), ref.active_index))
            ref.predict([v + 1.0 for v in inst.x])
        ens.partial_fit(inst)
        assert counts == ([0, 0, 0, 0] if step == 0 else [1, 1, 1, 1]), step
        ref.partial_fit(inst)
    assert got == want
    if mode == "meta":
        assert len({active for _, active in got}) > 1  # the selector switched


def test_meta_ensemble_validates_arguments():
    with pytest.raises(ValueError):
        MetaEnsemble(ONE_NUMERIC, [], mode="meta")
    with pytest.raises(ValueError):
        MetaEnsemble(ONE_NUMERIC, _experts(), mode="nope")
    with pytest.raises(ValueError):
        MetaEnsemble(ONE_NUMERIC, _experts(), window=0)
