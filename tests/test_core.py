import itertools
import random

import pytest

from driftstream.core import (
    CATEGORICAL,
    CategoricalOutOfRangeError,
    ConfusionMatrix,
    DimensionMismatchError,
    EmptyMatrixError,
    Feature,
    FeatureSchema,
    Instance,
    OneHotEncoder,
    PredictorStatus,
    RunningStats,
    UnknownClassError,
    derive_seed,
    validate_instance,
)

MIXED = FeatureSchema(
    features=(Feature("a"), Feature("b", CATEGORICAL, 3), Feature("c")),
    classes=("0", "1"),
)


def test_schema_rejects_duplicate_names():
    with pytest.raises(ValueError):
        FeatureSchema(features=(Feature("a"), Feature("a")), classes=("0", "1"))


def test_schema_rejects_single_class():
    with pytest.raises(ValueError):
        FeatureSchema(features=(Feature("a"),), classes=("only",))


def test_feature_rejects_arity_below_two():
    with pytest.raises(ValueError):
        Feature("f", CATEGORICAL, 1)


def test_validate_instance_identity():
    inst = Instance([1.0, 2.0, 3.0], y=1, seq=0)
    assert validate_instance(inst, MIXED) is inst


def test_validate_instance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        validate_instance(Instance([1.0, 2.0], y=0), MIXED)


def test_validate_instance_categorical_out_of_range():
    with pytest.raises(CategoricalOutOfRangeError):
        validate_instance(Instance([1.0, 5.0, 0.0], y=0), MIXED)


def test_validate_instance_unknown_class():
    with pytest.raises(UnknownClassError):
        validate_instance(Instance([1.0, 0.0, 0.0], y=7), MIXED)


def test_confusion_single_updates():
    m = ConfusionMatrix(2)
    m.update(0, 0)
    assert m.counts[0][0] == 1
    m2 = ConfusionMatrix(2)
    m2.update(0, 1)
    assert m2.counts[0][1] == 1


def _matrix_40_10_5_45():
    m = ConfusionMatrix(2)
    for _ in range(40):
        m.update(0, 0)
    for _ in range(10):
        m.update(0, 1)
    for _ in range(5):
        m.update(1, 0)
    for _ in range(45):
        m.update(1, 1)
    return m


def test_confusion_totals():
    assert _matrix_40_10_5_45().total == 100


def test_accuracy_cases():
    m = _matrix_40_10_5_45()
    assert m.accuracy() == pytest.approx(0.85)
    diag = ConfusionMatrix(3)
    for c in range(3):
        diag.update(c, c)
    assert diag.accuracy() == 1.0
    off = ConfusionMatrix(2)
    off.update(0, 1)
    off.update(1, 0)
    assert off.accuracy() == 0.0


def test_kappa_hand_case():
    # p_o = 0.85, p_e = (50*45 + 50*55) / 100^2 = 0.5 -> kappa 0.7
    assert _matrix_40_10_5_45().kappa() == pytest.approx(0.7, abs=1e-12)


def test_kappa_perfect_and_chance():
    perfect = ConfusionMatrix(2)
    for c in (0, 1):
        for _ in range(10):
            perfect.update(c, c)
    assert perfect.kappa() == pytest.approx(1.0)
    # always predicts class 0 on balanced labels: p_o = p_e = 0.5
    constant = ConfusionMatrix(2)
    for _ in range(10):
        constant.update(0, 0)
        constant.update(1, 0)
    assert constant.kappa() == pytest.approx(0.0, abs=1e-12)


def test_kappa_degenerate_single_class_agreement():
    m = ConfusionMatrix(2)
    for _ in range(5):
        m.update(0, 0)
    # p_e = 1: defined as 0 rather than 0/0
    assert m.kappa() == 0.0


def test_empty_matrix_errors():
    with pytest.raises(EmptyMatrixError):
        ConfusionMatrix(2).accuracy()
    with pytest.raises(EmptyMatrixError):
        ConfusionMatrix(2).kappa()


def test_update_rejects_out_of_range():
    with pytest.raises(IndexError):
        ConfusionMatrix(2).update(0, 2)


def test_accuracy_invariant_under_class_permutation():
    rng = random.Random(1)
    counts = [[rng.randrange(20) for _ in range(3)] for _ in range(3)]
    base = ConfusionMatrix(3)
    for t in range(3):
        for p in range(3):
            for _ in range(counts[t][p]):
                base.update(t, p)
    for perm in itertools.permutations(range(3)):
        m = ConfusionMatrix(3)
        for t in range(3):
            for p in range(3):
                for _ in range(counts[t][p]):
                    m.update(perm[t], perm[p])
        assert m.accuracy() == pytest.approx(base.accuracy())


def test_kappa_never_exceeds_accuracy():
    rng = random.Random(7)
    for _ in range(50):
        m = ConfusionMatrix(3)
        for _ in range(rng.randrange(5, 60)):
            m.update(rng.randrange(3), rng.randrange(3))
        assert m.kappa() <= m.accuracy() + 1e-12


def test_confusion_update_order_independent():
    rng = random.Random(3)
    updates = [(rng.randrange(2), rng.randrange(2)) for _ in range(100)]
    a = ConfusionMatrix(2)
    for t, p in updates:
        a.update(t, p)
    b = ConfusionMatrix(2)
    shuffled = updates[:]
    rng.shuffle(shuffled)
    for t, p in shuffled:
        b.update(t, p)
    assert a.counts == b.counts


def test_one_hot_expansion():
    assert OneHotEncoder(MIXED)([1.5, 2.0, -3.0]).tolist() == [1.5, 0.0, 0.0, 1.0, -3.0]


def test_predictor_status_severity_order():
    assert PredictorStatus.STABLE < PredictorStatus.WARNING < PredictorStatus.DRIFT


def test_running_stats_matches_direct_computation():
    rng = random.Random(5)
    values = [rng.gauss(3.0, 2.0) for _ in range(500)]
    st = RunningStats()
    for v in values:
        st.add(v)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert st.mean == pytest.approx(mean, rel=1e-9)
    assert st.variance() == pytest.approx(var, rel=1e-9)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(42, "generator") == derive_seed(42, "generator")
    assert derive_seed(42, "generator") != derive_seed(42, "learner")
    assert derive_seed(42, "generator") != derive_seed(43, "generator")
