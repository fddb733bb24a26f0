import math
import random

import pytest

from driftstream.core import validate_instance
from driftstream.generators import (
    AGRAWAL_FUNCTIONS,
    LED_SEGMENTS,
    SEA_THRESHOLDS,
    AgrawalGenerator,
    DriftStream,
    HyperplaneGenerator,
    LedGenerator,
    LimitedStream,
    RbfGenerator,
    SeaGenerator,
    StaggerGenerator,
    make_generator,
    stagger_rule,
)

EXPECTED_SHAPES = {
    "agrawal": (9, 2),
    "stagger": (3, 2),
    "sea": (3, 2),
    "led": (24, 10),
    "hyperplane": (10, 2),
    "rbf": (10, 2),
}


@pytest.mark.parametrize("family", sorted(EXPECTED_SHAPES))
def test_schema_shapes(family):
    gen = make_generator(family, seed=0)
    d, c = EXPECTED_SHAPES[family]
    assert gen.schema.n_features == d
    assert gen.schema.n_classes == c


@pytest.mark.parametrize("family", sorted(EXPECTED_SHAPES))
def test_determinism_same_seed_same_prefix(family):
    a = make_generator(family, seed=123).take(100)
    b = make_generator(family, seed=123).take(100)
    assert [(i.x, i.y, i.seq) for i in a] == [(i.x, i.y, i.seq) for i in b]


@pytest.mark.parametrize("family", sorted(EXPECTED_SHAPES))
def test_emitted_instances_conform_to_schema(family):
    gen = make_generator(family, seed=5)
    for inst in gen.take(200):
        validate_instance(inst, gen.schema)


def test_seq_assigned_from_zero():
    gen = SeaGenerator(seed=0)
    assert [inst.seq for inst in gen.take(5)] == [0, 1, 2, 3, 4]


# -- agrawal ----------------------------------------------------------------

def test_agrawal_concept0_is_age_band_rule():
    gen = AgrawalGenerator(concept=0, seed=9)
    for inst in gen.take(1000):
        age = inst.x[2]
        expected = 0 if age < 40 or age >= 60 else 1
        assert inst.y == expected


def test_agrawal_emitted_labels_match_published_functions():
    for concept in range(10):
        gen = AgrawalGenerator(concept=concept, seed=11)
        for inst in gen.take(300):
            salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan = inst.x
            assert inst.y == AGRAWAL_FUNCTIONS[concept](
                salary, commission, age, int(elevel), int(car), int(zipcode),
                hvalue, hyears, loan,
            )


def test_agrawal_concepts_differ():
    a = [i.y for i in AgrawalGenerator(concept=0, seed=4).take(1000)]
    b = [i.y for i in AgrawalGenerator(concept=1, seed=4).take(1000)]
    assert a != b


def test_agrawal_feature_ranges():
    gen = AgrawalGenerator(concept=0, seed=2)
    for inst in gen.take(500):
        salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan = inst.x
        assert 20000 <= salary <= 150000
        assert commission == 0 or 10000 <= commission <= 75000
        assert (commission == 0) == (salary >= 75000)
        assert 20 <= age <= 80
        assert 0 <= elevel <= 4 and 0 <= car <= 19 and 0 <= zipcode <= 8
        assert 1 <= hyears <= 30
        assert 0 <= loan <= 500000


def test_agrawal_invalid_concept():
    with pytest.raises(ValueError):
        AgrawalGenerator(concept=10)


# -- stagger ------------------------------------------------------------------

def test_stagger_rule_examples():
    small, medium, large = 0, 1, 2
    red, green, blue = 0, 1, 2
    circle, square, triangle = 0, 1, 2
    assert stagger_rule(0, small, red, triangle) == 1
    assert stagger_rule(0, large, blue, square) == 0
    assert stagger_rule(2, medium, red, circle) == 1


def test_stagger_emitted_labels_match_rule():
    for concept in range(3):
        gen = StaggerGenerator(concept=concept, seed=8)
        for inst in gen.take(500):
            assert inst.y == stagger_rule(concept, int(inst.x[0]), int(inst.x[1]), int(inst.x[2]))


def test_stagger_invalid_concept():
    with pytest.raises(ValueError):
        StaggerGenerator(concept=3)


# -- sea ----------------------------------------------------------------------

def test_sea_thresholds():
    assert SEA_THRESHOLDS == (8.0, 9.0, 7.0, 9.5)


def test_sea_rule_examples():
    # concept 0: 3 + 4 = 7 <= 8 -> 1 ; 5 + 4 = 9 > 8 -> 0
    assert int(3.0 + 4.0 <= SEA_THRESHOLDS[0]) == 1
    assert int(5.0 + 4.0 <= SEA_THRESHOLDS[0]) == 0
    # concept 2 boundary: 3.5 + 3.5 = 7 <= 7 counts as class 1
    assert int(3.5 + 3.5 <= SEA_THRESHOLDS[2]) == 1


def test_sea_emitted_labels_match_rule():
    for concept in range(4):
        gen = SeaGenerator(concept=concept, seed=3)
        for inst in gen.take(500):
            assert inst.y == int(inst.x[0] + inst.x[1] <= SEA_THRESHOLDS[concept])


def test_sea_invalid_concept_and_noise():
    with pytest.raises(ValueError):
        SeaGenerator(concept=4)
    with pytest.raises(ValueError):
        SeaGenerator(noise=1.0)


# -- led ----------------------------------------------------------------------

def test_led_digit8_all_segments_on():
    assert LED_SEGMENTS[8] == (1, 1, 1, 1, 1, 1, 1)


def test_led_digit1_two_segments_on():
    assert sum(LED_SEGMENTS[1]) == 2


def test_led_zero_noise_reproduces_encoding():
    gen = LedGenerator(seed=6, noise=0.0)
    for inst in gen.take(300):
        assert tuple(int(b) for b in inst.x[:7]) == LED_SEGMENTS[inst.y]


def test_led_flip_rate_near_nominal():
    gen = LedGenerator(seed=13, noise=0.10)
    flips = 0
    n = 20000
    for inst in gen.take(n):
        expected = LED_SEGMENTS[inst.y]
        flips += sum(int(b) != e for b, e in zip(inst.x[:7], expected))
    rate = flips / (7 * n)
    assert abs(rate - 0.10) < 0.01


# -- hyperplane -----------------------------------------------------------------

def test_hyperplane_labels_match_recorded_weights():
    gen = HyperplaneGenerator(seed=21)  # default drift active
    for _ in range(2000):
        w = list(gen.weights)
        theta = 0.5 * sum(w)
        inst = next(gen)
        assert inst.y == int(sum(wi * xi for wi, xi in zip(w, inst.x)) >= theta)


def test_hyperplane_zero_magnitude_keeps_weights():
    gen = HyperplaneGenerator(seed=2, magnitude=0.0)
    w0 = list(gen.weights)
    gen.take(1000)
    assert gen.weights == w0


def test_hyperplane_drift_moves_weights():
    gen = HyperplaneGenerator(seed=2, magnitude=0.01)
    w0 = list(gen.weights)
    gen.take(500)
    assert gen.weights != w0
    assert gen.weights[2:] == w0[2:]  # only the first n_drift weights move


def test_hyperplane_noise_flips_its_share_of_labels():
    noisy = HyperplaneGenerator(seed=3, magnitude=0.0, noise=0.2)
    theta = noisy.threshold
    flipped = 0
    for _ in range(5000):
        inst = next(noisy)
        flipped += inst.y != int(sum(w * v for w, v in zip(noisy.weights, inst.x)) >= theta)
    assert abs(flipped / 5000 - 0.2) < 0.02


# -- rbf ------------------------------------------------------------------------

def test_rbf_degenerate_spread_sits_on_centers():
    gen = RbfGenerator(seed=4, n_centroids=2, stddev=0.0, speed=0.0)
    centers = [tuple(c) for c in gen.centers]
    for inst in gen.take(200):
        assert tuple(inst.x) in centers


def test_rbf_zero_speed_fixes_centroids():
    gen = RbfGenerator(seed=4, n_centroids=5, speed=0.0)
    before = [list(c) for c in gen.centers]
    gen.take(10000)
    assert gen.centers == before


def test_rbf_moving_centroids_stay_in_bounds():
    gen = RbfGenerator(seed=9, n_centroids=4, speed=0.05)
    gen.take(2000)
    for center in gen.centers:
        assert all(0.0 <= v <= 1.0 for v in center)


def test_rbf_needs_centroid_per_class():
    with pytest.raises(ValueError):
        RbfGenerator(n_classes=3, n_centroids=2)


# -- drift composition ------------------------------------------------------------

def test_drift_probability_shape():
    stream = DriftStream(SeaGenerator(0, seed=1), SeaGenerator(2, seed=2),
                         position=100, width=20, seed=3)
    assert stream.post_probability(100) == pytest.approx(0.5)
    assert stream.post_probability(0) < 1e-8
    assert stream.post_probability(10_000) > 1 - 1e-12
    probs = [stream.post_probability(t) for t in range(0, 300, 5)]
    assert all(a <= b for a, b in zip(probs, probs[1:]))


def test_abrupt_composition_switches_rule():
    base = StaggerGenerator(concept=0, seed=5)
    post = StaggerGenerator(concept=2, seed=6)
    stream = LimitedStream(DriftStream(base, post, position=500, width=1, seed=7), 1000)
    insts = stream.take(1000)
    assert [i.seq for i in insts] == list(range(1000))
    for inst in insts[:490]:
        assert inst.y == stagger_rule(0, int(inst.x[0]), int(inst.x[1]), int(inst.x[2]))
    for inst in insts[510:]:
        assert inst.y == stagger_rule(2, int(inst.x[0]), int(inst.x[1]), int(inst.x[2]))


def test_drift_composition_validates_shapes():
    with pytest.raises(ValueError):
        DriftStream(SeaGenerator(seed=1), LedGenerator(seed=2), position=10)
    with pytest.raises(ValueError):
        DriftStream(SeaGenerator(seed=1), SeaGenerator(seed=2), position=10, width=0)


def test_make_generator_unknown_family():
    with pytest.raises(ValueError):
        make_generator("nope")


def test_limited_stream_exhausts():
    stream = LimitedStream(SeaGenerator(seed=0), 3)
    assert len(list(stream)) == 3
    with pytest.raises(StopIteration):
        next(stream)


def test_take_on_a_short_stream_names_the_shortfall():
    stream = LimitedStream(SeaGenerator(seed=0), 3)
    with pytest.raises(ValueError, match="ended after 3 of the 5 instances"):
        stream.take(5)
