import hashlib
import math
import random
from collections import deque

import numpy as np
import pytest

from driftstream.core import CATEGORICAL, Feature, FeatureSchema, Instance, RunningStats
from driftstream.learners import (
    BATCH_ALGORITHMS,
    CartBatch,
    FrozenLearnerError,
    KnnBatch,
    KnnWindow,
    LEARNER_REGISTRY,
    LinearSGD,
    LinearSvmBatch,
    LogisticSGD,
    MajorityClass,
    NaiveBayes,
    Perceptron,
    RandomForestBatch,
    UnlabeledInstanceError,
    UntrainedLearnerError,
    argmax_lowest,
    ensemble_vote,
    make_learner,
    poisson,
    train_batch,
)
from driftstream.generators import (
    AgrawalGenerator,
    DriftStream,
    LedGenerator,
    LimitedStream,
    StaggerGenerator,
)
from driftstream.learners.ensembles import LeveragingBagging, OzaBagging, OzaBaggingAdwin
from driftstream.learners.tree import HoeffdingTree

NUM1 = FeatureSchema(features=(Feature("x0"),), classes=("0", "1"))
BIN1 = FeatureSchema(features=(Feature("f", CATEGORICAL, 2),), classes=("0", "1"))


def inst(x, y=None, seq=0):
    return Instance(list(x), y=y, seq=seq)


# -- base contract -------------------------------------------------------------

def test_majority_class_counts():
    m = MajorityClass(NUM1)
    for y in (0, 0, 1):
        m.partial_fit(inst([0.0], y))
    assert m.predict([9.9]) == 0


def test_untrained_predict_raises_without_default():
    for name in sorted(LEARNER_REGISTRY):
        with pytest.raises(UntrainedLearnerError, match=f"{name} has no training samples yet"):
            make_learner(name, NUM1).predict([0.0])


def test_partial_fit_requires_label():
    with pytest.raises(UnlabeledInstanceError):
        MajorityClass(NUM1).partial_fit(inst([0.0]))


def test_frozen_learner_rejects_updates():
    m = MajorityClass(NUM1)
    m.partial_fit(inst([0.0], 0))
    m.freeze()
    with pytest.raises(FrozenLearnerError):
        m.partial_fit(inst([0.0], 1))


def test_registry_covers_expected_roster():
    expected = {
        "naive_bayes", "hoeffding_tree", "hoeffding_adaptive_tree", "knn_window",
        "linear_sgd", "perceptron", "oza_bagging", "oza_bagging_adwin",
        "leveraging_bagging", "majority_class", "cart_batch",
        "random_forest_batch", "knn_batch", "linear_svm_batch",
    }
    assert expected <= set(LEARNER_REGISTRY)
    assert BATCH_ALGORITHMS == {"cart_batch", "random_forest_batch", "knn_batch",
                                "linear_svm_batch"}


def test_make_learner_unknown_name():
    with pytest.raises(ValueError):
        make_learner("nope", NUM1)


@pytest.mark.parametrize("name", sorted(LEARNER_REGISTRY))
@pytest.mark.parametrize("default_class", [-1, 2, True, 1.0, "1"])
def test_default_class_must_be_none_or_a_class_index(name, default_class):
    # default_class is no longer a parameter: every value, in range or not, is refused.
    for value in (default_class, 0, 1, None):
        with pytest.raises(TypeError, match="unexpected keyword argument 'default_class'"):
            make_learner(name, NUM1, default_class=value)
    assert not hasattr(make_learner(name, NUM1), "default_class")


@pytest.mark.parametrize("cls, param", [
    (HoeffdingTree, "max_depth"), (CartBatch, "max_features"),
    (RandomForestBatch, "max_features"),
])
def test_none_default_counts_must_be_none_or_positive(cls, param):
    for value in (0, -3, 2.0, False):
        with pytest.raises(ValueError, match=f"{param} must be None or an integer >= 1"):
            cls(NUM1, **{param: value})
    for value in (None, 1, 7):
        assert getattr(cls(NUM1, **{param: value}), param) == value


# -- naive bayes -----------------------------------------------------------------

def test_naive_bayes_single_class_posterior():
    nb = NaiveBayes(NUM1)
    nb.partial_fit(inst([3.0], 1))
    assert nb.predict([100.0]) == 1


def test_naive_bayes_matches_closed_form_on_binary_feature():
    rng = random.Random(17)
    nb = NaiveBayes(BIN1)
    counts = {(v, c): 0 for v in (0, 1) for c in (0, 1)}
    for i in range(400):
        v = rng.randrange(2)
        c = rng.randrange(2) if v == 0 else int(rng.random() < 0.8)
        counts[(v, c)] += 1
        nb.partial_fit(inst([float(v)], c))
    n_class = {c: counts[(0, c)] + counts[(1, c)] for c in (0, 1)}
    total = sum(n_class.values())
    for v in (0, 1):
        # Bayes rule with the same Laplace smoothing, from raw counts
        posts = [
            (n_class[c] / total) * ((counts[(v, c)] + 1) / (n_class[c] + 2))
            for c in (0, 1)
        ]
        expected = 0 if posts[0] >= posts[1] else 1
        assert nb.predict([float(v)]) == expected


def test_naive_bayes_prediction_purity():
    nb = NaiveBayes(NUM1)
    for i in range(20):
        nb.partial_fit(inst([float(i % 3)], i % 2))
    first = nb.predict([1.0])
    assert nb.predict([1.0]) == first


def test_frozen_naive_bayes_scores_equal_unfrozen_log_joint():
    # Agrawal features with a third class that never occurs, a salary that is
    # constant in training (variance at the floor) and class B never seen
    # with a car above car11
    schema = FeatureSchema(features=AgrawalGenerator.schema.features,
                           label_name="group", classes=("A", "B", "C"))
    salary, car = 0, 4
    frozen, reference = NaiveBayes(schema), NaiveBayes(schema)
    for inst_ in AgrawalGenerator(seed=5).take(2000):
        x = list(inst_.x)
        x[salary] = 50000.0
        if inst_.y == 1:
            x[car] = min(x[car], 10.0)
        for model in (frozen, reference):
            model.partial_fit(Instance(x, inst_.y))
    frozen.freeze()
    assert reference._frozen is None
    cars_above = 0
    for query in AgrawalGenerator(concept=3, seed=6).take(3000):
        x = list(query.x)
        if query.seq % 2:
            # any other salary makes its term swamp the rest of the score
            x[salary] = 50000.0
        expected = [reference._log_joint(x, c) for c in range(3)]
        assert expected[2] == -math.inf
        assert frozen._log_joints(x) == expected
        assert frozen.predict(x) == reference.predict(x)
        cars_above += x[car] > 10.0
    assert cars_above > 0


# -- knn -------------------------------------------------------------------------

def test_knn_window_eviction():
    knn = KnnWindow(NUM1, k=1, window=2)
    for i in range(3):
        knn.partial_fit(inst([float(i)], i % 2, seq=i))
    assert len(knn.window) == 2
    assert knn.window[0][0] == [1.0]  # the oldest sample (0.0) was evicted


def test_knn_one_nearest_neighbour():
    knn = KnnWindow(NUM1, k=1, window=10)
    knn.partial_fit(inst([0.0], 0))
    knn.partial_fit(inst([1.0], 1))
    assert knn.predict([0.1]) == 0
    assert knn.predict([0.9]) == 1


def test_knn_categorical_mismatch_distance():
    schema = FeatureSchema(
        features=(Feature("c", CATEGORICAL, 3),), classes=("0", "1"))
    knn = KnnWindow(schema, k=1, window=10)
    knn.partial_fit(inst([0.0], 0))
    knn.partial_fit(inst([2.0], 1))
    assert knn.predict([2.0]) == 1


def test_knn_batch_memorizes_training_set():
    buffer = [inst([float(i)], i % 2, seq=i) for i in range(20)]
    knn = KnnBatch(NUM1, k=1)
    train_batch(knn, buffer)
    assert all(knn.predict(b.x) == b.y for b in buffer)
    assert knn.frozen


GOLDEN = FeatureSchema(
    features=(Feature("a"), Feature("b", CATEGORICAL, 3), Feature("const"),
              Feature("d"), Feature("e", CATEGORICAL, 2), Feature("f"), Feature("g"),
              Feature("h"), Feature("i")),
    classes=("0", "1", "2"),
)


def _golden_row(rng):
    # coarse rounding makes equal distances common; "const" never varies
    return [round(rng.gauss(0.0, 1.0), 1), float(rng.randrange(3)), 2.5,
            float(rng.randrange(4)), float(rng.randrange(2)), round(rng.gauss(0.0, 3.0), 1),
            round(rng.random(), 1), round(rng.gauss(0.0, 1.0), 1), float(rng.randrange(3))]


def _scalar_distances(rows, x, std):
    """Reference squared distances, one row at a time: z-scaled numeric
    differences squared plus 1 per categorical mismatch, added in feature order."""
    out = []
    for rx, _ in rows:
        total = 0.0
        for i, (va, vb) in enumerate(zip(x, rx)):
            if std[i] is None:
                if va != vb:
                    total += 1.0
            else:
                d = (va - vb) / std[i]
                total += d * d
        out.append(total)
    return out


def _scalar_knn(rows, x, std, k, n_classes):
    """Reference kNN: a stable sort (equal distances keep row order) and a
    vote whose ties go to the lowest class."""
    dists = sorted(zip(_scalar_distances(rows, x, std), (y for _, y in rows)),
                   key=lambda t: t[0])
    votes = [0] * n_classes
    for _, y in dists[:k]:
        votes[y] += 1
    return argmax_lowest(votes)


def _floored_std(stats):
    return [None if st is None else (st.std() if st.std() > 1e-12 else 1.0) for st in stats]


def _fresh_stats():
    return [RunningStats() if f.is_numeric else None for f in GOLDEN.features]


@pytest.mark.parametrize("k,window", [(1, 7), (3, 7), (7, 7), (10, 7), (5, 1), (2, 40)])
def test_knn_window_matches_scalar_reference(k, window):
    rng = random.Random(100 + 10 * k + window)
    knn = KnnWindow(GOLDEN, k=k, window=window)
    with pytest.raises(UntrainedLearnerError):
        knn.predict(_golden_row(rng))
    rows, stats = deque(maxlen=window), _fresh_stats()
    for step in range(400):  # the window wraps many times
        x, y = _golden_row(rng), rng.randrange(3)
        if knn.fitted:
            std = _floored_std(stats)
            assert knn.predict(x) == _scalar_knn(rows, x, std, k, 3), step
            # bit for bit: a row-wise numpy sum would round differently
            numeric_std = [s for s in std if s is not None]
            assert knn._store.distances(x, numeric_std).tolist() == \
                _scalar_distances(rows, x, std), step
        knn.partial_fit(inst(x, y, seq=step))
        rows.append((x, y))
        for st, v in zip(stats, x):
            if st is not None:
                st.add(v)
        assert list(knn.window) == list(rows)


@pytest.mark.parametrize("k", [1, 4, 30, 45])
def test_knn_batch_matches_scalar_reference(k):
    rng = random.Random(200 + k)
    with pytest.raises(UntrainedLearnerError):
        KnnBatch(GOLDEN, k=k).predict(_golden_row(rng))
    buffer = [inst(_golden_row(rng), rng.randrange(3), seq=i) for i in range(30)]
    knn = train_batch(KnnBatch(GOLDEN, k=k), buffer)
    stats = _fresh_stats()
    for b in buffer:
        for st, v in zip(stats, b.x):
            if st is not None:
                st.add(v)
    rows = [(b.x, b.y) for b in buffer]
    for _ in range(300):
        x = _golden_row(rng)
        assert knn.predict(x) == _scalar_knn(rows, x, _floored_std(stats), k, 3)


# -- linear ---------------------------------------------------------------------

def test_linear_margin_rule():
    lin = LinearSGD(NUM1)
    lin.fitted = True
    lin.weights[1][0] = 1.0
    lin.bias[1] = -0.5
    assert lin.predict([0.9]) == 1
    assert lin.predict([0.1]) == 0


def test_linear_sgd_learns_threshold():
    rng = random.Random(3)
    lin = LinearSGD(NUM1)
    for i in range(4000):
        x = rng.random()
        lin.partial_fit(inst([x], int(x > 0.5), seq=i))
    probes = [x / 100 for x in range(0, 100, 3) if abs(x / 100 - 0.5) > 0.1]
    hits = sum(lin.predict([p]) == int(p > 0.5) for p in probes)
    assert hits >= len(probes) - 2


def test_perceptron_differs_from_hinge_updates():
    # perceptron stops updating once the margin sign is right; hinge keeps
    # pushing until the margin clears 1
    data = [inst([float(v)], y) for v, y in ((0, 0), (1, 1))] * 50
    p, h = Perceptron(NUM1), LinearSGD(NUM1)
    for d in data:
        p.partial_fit(d)
        h.partial_fit(d)
    assert (p.weights != h.weights).any()


def test_logistic_sgd_margin_rule():
    lin = LogisticSGD(NUM1)
    lin.fitted = True
    lin.weights[1][0] = 1.0
    lin.bias[1] = -0.5
    assert lin.predict([0.9]) == 1
    assert lin.predict([0.1]) == 0


def test_logistic_sgd_step_follows_sigmoid_gradient():
    lin = LogisticSGD(NUM1, lr=0.1)
    lin.partial_fit(inst([2.0], 1))
    # zero weights: every class has p = 0.5, so the gradient is p - t = -+0.5
    assert lin.weights.tolist() == [[-0.1 * 0.5 * 2.0], [0.1 * 0.5 * 2.0]]
    assert lin.bias.tolist() == [-0.1 * 0.5, 0.1 * 0.5]
    # a saturated margin takes p as exactly 0 or 1 instead of overflowing exp
    lin.weights[:] = [[-1000.0], [1000.0]]
    before = lin.weights.copy()
    lin.partial_fit(inst([2.0], 1))
    assert (lin.weights == before).all()


def test_logistic_sgd_learns_threshold():
    rng = random.Random(3)
    lin = LogisticSGD(NUM1)
    for i in range(4000):
        x = rng.random()
        lin.partial_fit(inst([x], int(x > 0.5), seq=i))
    probes = [x / 100 for x in range(0, 100, 3) if abs(x / 100 - 0.5) > 0.1]
    hits = sum(lin.predict([p]) == int(p > 0.5) for p in probes)
    assert hits >= len(probes) - 2


# -- batch trees -------------------------------------------------------------------

def test_cart_single_split_on_separable_points():
    buffer = [inst([0.0], 0), inst([1.0], 0), inst([10.0], 1), inst([11.0], 1)]
    cart = CartBatch(NUM1)
    train_batch(cart, buffer)
    assert not cart.root.is_leaf
    assert cart.root.left.is_leaf and cart.root.right.is_leaf
    assert all(cart.predict(b.x) == b.y for b in buffer)


def test_cart_split_refused_by_min_leaf_leaves_a_leaf():
    # the best gini cut isolates the one class-1 point: a child below min_leaf = 2
    buffer = [inst([0.0], 1), inst([1.0], 0), inst([2.0], 0), inst([3.0], 0)]
    refused, allowed = CartBatch(NUM1, min_leaf=2), CartBatch(NUM1, min_leaf=1)
    train_batch(refused, buffer)
    train_batch(allowed, buffer)
    assert refused.root.is_leaf
    assert [refused.predict(b.x) for b in buffer] == [0, 0, 0, 0]
    assert not allowed.root.is_leaf
    assert [allowed.predict(b.x) for b in buffer] == [1, 0, 0, 0]


def test_cart_respects_max_depth():
    rng = random.Random(11)
    buffer = [inst([rng.random()], rng.randrange(2), seq=i) for i in range(200)]
    cart = CartBatch(NUM1, max_depth=1)
    train_batch(cart, buffer)
    assert cart.root.is_leaf or (cart.root.left.is_leaf and cart.root.right.is_leaf)


def test_forest_degenerates_to_cart():
    rng = random.Random(5)
    buffer = [
        inst([rng.random(), rng.random()], None, seq=i) for i in range(100)
    ]
    schema = FeatureSchema(features=(Feature("a"), Feature("b")), classes=("0", "1"))
    buffer = [Instance([rng.random(), rng.random()],
                       y=rng.randrange(2), seq=i) for i in range(100)]
    cart = CartBatch(schema, seed=77)
    forest = RandomForestBatch(schema, seed=77, n_trees=1, max_features=2,
                               bootstrap=False)
    train_batch(cart, buffer)
    train_batch(forest, buffer)
    probes = [[rng.random(), rng.random()] for _ in range(100)]
    assert [cart.predict(p) for p in probes] == [forest.predict(p) for p in probes]


def test_linear_svm_batch_separates():
    buffer = [inst([float(i < 25)], int(i < 25), seq=i) for i in range(50)]
    svm = LinearSvmBatch(NUM1, epochs=5)
    train_batch(svm, buffer)
    assert svm.predict([1.0]) == 1
    assert svm.predict([0.0]) == 0


def test_batch_learner_rejects_partial_fit():
    cart = CartBatch(NUM1)
    with pytest.raises(FrozenLearnerError):
        cart.partial_fit(inst([0.0], 0))


def test_train_batch_empty_buffer():
    with pytest.raises(ValueError):
        train_batch(CartBatch(NUM1), [])


def test_train_batch_rejects_incremental_learner():
    with pytest.raises(TypeError):
        train_batch(MajorityClass(NUM1), [inst([0.0], 0)])


# -- bit-exact pins --------------------------------------------------------------
#
# sha256 of each linear model's weight and bias bytes and of its predictions,
# and of knn_batch predictions, on seeded Agrawal (one-hot categoricals) and
# LED (10 classes). The digests depend on numpy's float arithmetic; they pin
# that a change to how the models are written keeps every bit.

def _pin_stream(family):
    gen = AgrawalGenerator(concept=2, seed=11) if family == "agrawal" else \
        LedGenerator(seed=12)
    return gen.schema, gen.take(400), [b.x for b in gen.take(150)]


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


_LINEAR_PINS = {
    ("linear_sgd", "agrawal"):
        "4c3ef610318db13e3d40df3685a1b9499da4d45c00c2b4d23aa119f31ab3905c",
    ("linear_sgd", "led"):
        "d1856653f7c0440893056e35ab6d077e53af12c2e1d559f859e2873f8f6331b2",
    ("perceptron", "agrawal"):
        "4c3ef610318db13e3d40df3685a1b9499da4d45c00c2b4d23aa119f31ab3905c",
    ("perceptron", "led"):
        "719bed5398b8b391a073a8f56be7ec6564675b0c3e7f47e6557438e7d1a2d483",
    ("logistic_sgd", "agrawal"):
        "2fb2597e0f251b17a75b074475abd7257075deb374047a9e930c491285920dde",
    ("logistic_sgd", "led"):
        "24e8aac081b6fcf1150ad700b1bd819bedcaff378750d0dfad9016582a5a5462",
    ("linear_svm_batch", "agrawal"):
        "8afd9b48be726798de8d1cd6fc07ba9c368f5476d56969d4df0f2763e16ff3e5",
    ("linear_svm_batch", "led"):
        "651282e45fe10c14268a7ca6e16dbe82f6d4a8f291ccfb24c95a8b49356d1d24",
}


@pytest.mark.parametrize("algorithm,family", sorted(_LINEAR_PINS))
def test_linear_weights_and_predictions_are_pinned(algorithm, family):
    schema, train, probes = _pin_stream(family)
    epochs = {"epochs": 3} if algorithm == "linear_svm_batch" else {}
    lin = make_learner(algorithm, schema, lr=0.05, **epochs)
    preds = []
    if algorithm == "linear_svm_batch":
        train_batch(lin, train)
    else:
        for b in train:  # prequential: predict, then learn from the same x
            preds.append(lin.predict(b.x) if lin.fitted else None)
            lin.partial_fit(b)
    preds += [lin.predict(x) for x in probes]
    assert _digest(lin.weights, lin.bias, preds) == _LINEAR_PINS[algorithm, family]


_KNN_BATCH_PINS = {
    (1, "agrawal"): "397a1f60a2cbcf3f5e573f1582277cfe4435501f85c7faccf9e5f80007b9bf0d",
    (1, "led"): "b0a0dfedb207564db88c736fdcb448848afe02d3afc9e59749c721e5a9405366",
    (5, "agrawal"): "3cd63395ae46c0e7c2ef8d50a849a411ff25ad82fb53e398546593771f90ea4e",
    (5, "led"): "be15c4faf85aab89c9023d8c6a0f6ce37b720a49e65d345ab9c835d092acb130",
}


@pytest.mark.parametrize("k,family", sorted(_KNN_BATCH_PINS))
def test_knn_batch_predictions_are_pinned(k, family):
    schema, train, probes = _pin_stream(family)
    knn = train_batch(KnnBatch(schema, k=k), train)
    assert _digest([knn.predict(x) for x in probes]) == _KNN_BATCH_PINS[k, family]


def test_knn_batch_refit_predicts_like_a_fresh_fit():
    schema, train, probes = _pin_stream("agrawal")
    refit = train_batch(KnnBatch(schema, k=3), train)
    refit.fit(train[250:])
    fresh = train_batch(KnnBatch(schema, k=3), train[250:])
    assert [refit.predict(x) for x in probes] == [fresh.predict(x) for x in probes]


# -- voting / poisson ----------------------------------------------------------------

def test_ensemble_vote_majority():
    assert ensemble_vote([(0, 1), (0, 1), (1, 1)]) == 0


def test_ensemble_vote_weighted():
    assert ensemble_vote([(0, 0.2), (1, 0.9)]) == 1


def test_ensemble_vote_tie_lowest_class():
    assert ensemble_vote([(0, 1), (1, 1)]) == 0


def test_ensemble_vote_identical_members_match_single():
    assert ensemble_vote([(1, 1.0)] * 7) == 1


def test_ensemble_vote_empty():
    with pytest.raises(ValueError):
        ensemble_vote([])


def test_poisson_zero_probability_at_lambda_one():
    rng = random.Random(0)
    n = 100_000
    zeros = sum(poisson(1.0, rng) == 0 for _ in range(n))
    assert abs(zeros / n - math.exp(-1)) < 0.005


def test_poisson_mean_at_lambda_six():
    rng = random.Random(1)
    n = 100_000
    mean = sum(poisson(6.0, rng) for _ in range(n)) / n
    assert abs(mean - 6.0) < 0.05


def test_poisson_reproducible():
    a = [poisson(1.0, random.Random(9)) for _ in range(10)]
    b = [poisson(1.0, random.Random(9)) for _ in range(10)]
    assert a == b


# -- online bagging -------------------------------------------------------------------

def test_oza_bagging_learns_and_votes():
    rng = random.Random(2)
    bag = OzaBagging(BIN1, seed=4, n_members=5)
    for i in range(300):
        v = rng.randrange(2)
        bag.partial_fit(inst([float(v)], v, seq=i))
    assert bag.predict([0.0]) == 0
    assert bag.predict([1.0]) == 1


def test_oza_adwin_resets_worst_member_on_drift():
    rng = random.Random(5)
    bag = OzaBaggingAdwin(BIN1, seed=4, n_members=3)
    for i in range(600):
        v = rng.randrange(2)
        bag.partial_fit(inst([float(v)], v, seq=i))
    for i in range(600, 1600):
        v = rng.randrange(2)
        bag.partial_fit(inst([float(v)], 1 - v, seq=i))  # inverted concept
    events = bag.drain_events()
    assert any(status == "drift" for _, status in events)
    assert bag.predict([0.0]) == 1  # adapted to the inverted concept


@pytest.mark.parametrize("cls", [OzaBaggingAdwin, LeveragingBagging])
def test_adwin_bagging_asks_each_member_once_per_step(cls):
    schema = StaggerGenerator.schema
    calls = [0]

    class CountedBag(cls):
        def _new_member(self, seed):
            member = super()._new_member(seed)

            def predict(x, _predict=member.predict):
                calls[0] += 1
                return _predict(x)
            member.predict = predict
            return member

    bag = CountedBag(schema, seed=3, n_members=5)
    # The reference asks every member again in partial_fit: a predict on
    # another x between predict and partial_fit leaves nothing to reuse.
    ref = cls(schema, seed=3, n_members=5)
    stream = LimitedStream(DriftStream(StaggerGenerator(concept=0, seed=21),
                                       StaggerGenerator(concept=2, seed=22),
                                       position=1000, width=1, seed=23), 2000)
    got, want = [], []
    for inst in stream:
        fitted = sum(m.fitted for m in bag.members)
        calls[0] = 0
        got.append(bag.predict(inst.x) if bag.fitted else None)
        bag.partial_fit(inst)
        assert calls[0] == fitted, inst.seq
        got.append(bag.drain_events())
        if ref.fitted:
            want.append(ref.predict(inst.x))
            ref.predict([(v + 1.0) % 3 for v in inst.x])
        else:
            want.append(None)
        ref.partial_fit(inst)
        want.append(ref.drain_events())
    assert got == want
    assert any(events for events in got[1::2])  # some member was reset


def test_bounded_memory_knn_and_majority():
    knn = KnnWindow(NUM1, window=50)
    m = MajorityClass(NUM1)
    for i in range(5000):
        knn.partial_fit(inst([float(i)], i % 2, seq=i))
        m.partial_fit(inst([float(i)], i % 2, seq=i))
    assert len(knn.window) == 50
    assert len(m.counts) == 2
