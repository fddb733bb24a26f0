import hashlib
import math
import random

import pytest

from driftstream.core import PredictorStatus
from driftstream.drift import (
    DDM,
    EDDM,
    Adwin,
    PageHinkley,
    make_detector,
)

STABLE = PredictorStatus.STABLE
WARNING = PredictorStatus.WARNING
DRIFT = PredictorStatus.DRIFT


def bernoulli_steps(segments, seed):
    """Yield 0/1 values: segments is a list of (n, p)."""
    rng = random.Random(seed)
    for n, p in segments:
        for _ in range(n):
            yield 1.0 if rng.random() < p else 0.0


def first_alarm(detector, values):
    for i, x in enumerate(values):
        if detector.update(x) == DRIFT:
            return i
    return None


# -- Page-Hinkley ----------------------------------------------------------------

def test_page_hinkley_constant_stream_stable():
    ph = PageHinkley()
    assert all(ph.update(0.5) == STABLE for _ in range(5000))


def test_page_hinkley_detects_error_rate_step():
    # frozen oracle: 0.1 for 1000 samples then 0.9, seed 0 alarms at 1051
    ph = PageHinkley(delta=0.005, threshold=50.0)
    alarm = first_alarm(ph, bernoulli_steps([(1000, 0.1), (2000, 0.9)], seed=0))
    assert alarm == 1051
    assert alarm - 1000 <= 200


def test_page_hinkley_infinite_threshold_never_fires():
    ph = PageHinkley(threshold=math.inf)
    assert first_alarm(ph, bernoulli_steps([(1000, 0.1), (2000, 0.9)], seed=0)) is None


def test_page_hinkley_reset_equals_fresh_detector():
    suffix = list(bernoulli_steps([(500, 0.3)], seed=4))
    a = PageHinkley()
    for x in bernoulli_steps([(200, 0.1)], seed=5):
        a.update(x)
    a.reset()
    fresh = PageHinkley()
    assert [a.update(x) for x in suffix] == [fresh.update(x) for x in suffix]


# -- DDM ----------------------------------------------------------------------------

def test_ddm_threshold_arithmetic_warning_and_drift():
    # construct the running state directly, then drive one update through it
    d = DDM()
    d.n, d.p = 99, 0.16
    d.p_min, d.s_min = 0.12, 0.03
    p_new = 0.16 + (1 - 0.16) / 100
    s_new = math.sqrt(p_new * (1 - p_new) / 100)
    level = p_new + s_new
    assert 0.12 + 2 * 0.03 < level < 0.12 + 3 * 0.03
    assert d.update(1) == WARNING

    d2 = DDM()
    d2.n, d2.p = 99, 0.16
    d2.p_min, d2.s_min = 0.10, 0.03
    assert level > 0.10 + 3 * 0.03
    assert d2.update(1) == DRIFT


def test_ddm_all_zero_error_stream_stable_forever():
    d = DDM()
    assert all(d.update(0) == STABLE for _ in range(5000))


def test_ddm_detects_step_within_500():
    hits = 0
    for seed in range(10):
        d = DDM()
        alarm = None
        for i, x in enumerate(bernoulli_steps([(1000, 0.1), (2000, 0.5)], seed=seed)):
            if d.update(int(x)) == DRIFT and i >= 1000:
                alarm = i
                break
        if alarm is not None and alarm - 1000 <= 500:
            hits += 1
    assert hits >= 9


def test_ddm_resets_after_drift():
    d = DDM()
    for x in bernoulli_steps([(1000, 0.1), (300, 0.9)], seed=1):
        d.update(int(x))
    # a drift fired somewhere in the step; state must look fresh afterwards
    assert d.n < 1300


# -- EDDM ----------------------------------------------------------------------------

def _eddm_alarm_for_distance_drop():
    # errors every 10 samples for 60 blocks, then every 2nd sample
    e = EDDM()
    i = 0
    for _ in range(60):
        for _ in range(9):
            i += 1
            e.update(0)
        i += 1
        e.update(1)
    for _ in range(400):
        i += 1
        if e.update(1) == DRIFT:
            return i
        i += 1
        e.update(0)
    return None


def test_eddm_constant_distances_stay_stable():
    e = EDDM()
    for i in range(5000):
        status = e.update(1 if i % 10 == 9 else 0)
        assert status == STABLE


def test_eddm_detects_distance_drop():
    alarm = _eddm_alarm_for_distance_drop()
    assert alarm == 749  # frozen from the deterministic construction


def test_eddm_zero_levels_never_alarm():
    e = EDDM(alpha=0.0, beta=0.0)
    rng = random.Random(2)
    for i in range(3000):
        assert e.update(int(rng.random() < (0.05 if i < 1500 else 0.6))) == STABLE


def test_eddm_reset_equals_fresh_detector():
    pattern = [1 if i % 7 == 0 else 0 for i in range(400)]
    a = EDDM()
    for i in range(200):
        a.update(1 if i % 3 == 0 else 0)
    a.reset()
    fresh = EDDM()
    assert [a.update(x) for x in pattern] == [fresh.update(x) for x in pattern]


# -- ADWIN ----------------------------------------------------------------------------

def test_adwin_constant_stream_never_cuts():
    a = Adwin(delta=0.002)
    for i in range(5000):
        assert a.update(0.7) == STABLE
    assert a.width == 5000


def test_adwin_detects_bernoulli_step():
    # step 0.2 -> 0.8 at sample 2000; frozen alarms per seed
    expected_alarm = {0: 2031, 1: 2022, 2: 2024}
    for seed, expected in expected_alarm.items():
        a = Adwin(delta=0.002)
        alarm = None
        for i, x in enumerate(bernoulli_steps([(2000, 0.2), (2000, 0.8)], seed=seed)):
            if a.update(x) == DRIFT and alarm is None:
                alarm = i
                width_after = a.width
        assert alarm == expected
        assert alarm - 2000 <= 300


def test_adwin_window_shrinks_at_cut_and_tracks_new_mean():
    a = Adwin(delta=0.002)
    alarm = None
    for i, x in enumerate(bernoulli_steps([(2000, 0.2), (500, 0.8)], seed=0)):
        before = a.width
        if a.update(x) == DRIFT:
            assert a.width < before
            alarm = i
    assert alarm is not None
    assert abs(a.mean - 0.8) <= 0.1


def test_adwin_rejects_out_of_range_input():
    with pytest.raises(ValueError):
        Adwin().update(1.5)


def test_adwin_memory_stays_logarithmic():
    a = Adwin()
    rng = random.Random(6)
    for _ in range(20000):
        a.update(rng.random())
    n_buckets = sum(len(level) for level in a._levels)
    assert n_buckets <= a.max_buckets * (math.log2(20000) + 2)


def test_adwin_reset_equals_fresh_detector():
    suffix = list(bernoulli_steps([(800, 0.4)], seed=8))
    a = Adwin()
    for x in bernoulli_steps([(500, 0.1)], seed=9):
        a.update(x)
    a.reset()
    fresh = Adwin()
    assert [a.update(x) for x in suffix] == [fresh.update(x) for x in suffix]


def test_adwin_low_false_alarm_rate_stationary():
    # smaller cousin of the acceptance check: 3 seeds x 2e4 stationary samples
    total = 0
    for seed in range(3):
        a = Adwin(delta=0.002)
        for x in bernoulli_steps([(20000, 0.1)], seed=seed):
            if a.update(x) == DRIFT:
                total += 1
    assert total == 0


@pytest.mark.parametrize("kwargs", [
    {"delta": 0}, {"delta": -1}, {"delta": 1.5}, {"max_buckets": 0},
    {"min_window": 0}, {"min_side": 0}, {"min_side": -2},
], ids=["delta=0", "delta=-1", "delta=1.5", "max_buckets=0", "min_window=0",
        "min_side=0", "min_side=-2"])
def test_adwin_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError, match="must be"):
        Adwin(**kwargs)


@pytest.mark.parametrize("cls, kwargs", [
    (PageHinkley, {"threshold": -1.0}), (PageHinkley, {"threshold": 0.0}),
    (PageHinkley, {"threshold": math.nan}), (PageHinkley, {"delta": -0.1}),
    (PageHinkley, {"delta": math.inf}), (PageHinkley, {"min_instances": -5}),
    (DDM, {"warning_level": 3.0, "drift_level": 2.0}), (DDM, {"warning_level": 0.0}),
    (DDM, {"drift_level": math.nan}), (DDM, {"min_instances": 0}),
    (EDDM, {"alpha": 0.90, "beta": 0.95}), (EDDM, {"alpha": 1.5}),
    (EDDM, {"beta": -0.1}), (EDDM, {"min_errors": 0}),
], ids=["ph.threshold=-1", "ph.threshold=0", "ph.threshold=nan", "ph.delta=-0.1",
        "ph.delta=inf", "ph.min_instances=-5", "ddm.warning_above_drift",
        "ddm.warning_level=0", "ddm.drift_level=nan", "ddm.min_instances=0",
        "eddm.beta_above_alpha", "eddm.alpha=1.5", "eddm.beta=-0.1", "eddm.min_errors=0"])
def test_error_rate_detectors_reject_bad_parameters(cls, kwargs):
    with pytest.raises(ValueError, match="must be"):
        cls(**kwargs)


def test_make_detector_registry():
    assert isinstance(make_detector("page_hinkley"), PageHinkley)
    assert isinstance(make_detector("adwin", delta=0.01), Adwin)
    with pytest.raises(ValueError):
        make_detector("nope")


# -- ADWIN golden sequences ---------------------------------------------------------
# Recorded from the first ADWIN implementation: a faster cut scan must make
# the same decisions, with the same width and total, at every step.

def _real_steps(seed):
    rng = random.Random(seed)
    for lo, hi, n in ((0.0, 0.6, 3000), (0.35, 1.0, 3000), (0.1, 0.5, 2000)):
        for _ in range(n):
            yield rng.uniform(lo, hi)


ADWIN_GOLDEN = {
    # name: (constructor kwargs, values, reset before this step,
    #        drift steps, final (width, total, n_detections), sha256 of every
    #        step's "status width repr(total) n_detections")
    "bernoulli_step": (
        {}, lambda: bernoulli_steps([(3000, 0.2), (3000, 0.8), (3000, 0.3)], seed=11), None,
        [3018, 3019, 3020, 3021, 3023, 6065, 6068, 6069, 6080, 6089, 6100, 6107],
        (3032, 962.0, 12),
        "8a9e9ccfbedd7a894cad7597f18c576707e4e23c3409c031c3adc2cf5ba9d1c0"),
    "real_valued": (
        {}, lambda: _real_steps(12), None,
        [3061, 3062, 3063, 3065, 3080, 3091, 3097, 3099, 3136, 3546,
         6052, 6053, 6054, 6058, 6069, 6081],
        (2048, 630.4280306866899, 16),
        "0aa15b12332392ecee635afafb89a7ffc70f7a2586fb9ee71f23e1118fdd5b76"),
    "small_buckets_wide_sides": (
        {"delta": 0.05, "max_buckets": 2, "min_window": 30, "min_side": 20},
        lambda: bernoulli_steps([(2500, 0.4), (2500, 0.7)], seed=13), None,
        [2524, 2525, 2526],
        (2536, 1797.0, 3),
        "54244d4df92473080ad79457b2ae7d6d898409b856a0356dacfa889431b0937d"),
    "reset_midway": (
        {}, lambda: bernoulli_steps([(2000, 0.1), (2000, 0.9), (2000, 0.5)], seed=14), 3000,
        [2011, 2013, 2024, 4033, 4034, 4038],
        (2040, 1022.0, 3),
        "1cee4c99420446c55e1eae03a084652fb37cdc1bb4634ed7cefa9dab0f33e528"),
}


@pytest.mark.parametrize("name", sorted(ADWIN_GOLDEN))
def test_adwin_golden_sequences(name):
    kwargs, values, reset_at, drifts, final, digest = ADWIN_GOLDEN[name]
    a = Adwin(**kwargs)
    rows, seen = [], []
    for i, x in enumerate(values()):
        if i == reset_at:
            a.reset()
        status = a.update(x)
        if status == DRIFT:
            seen.append(i)
        rows.append(f"{status.name} {a.width} {a.total!r} {a.n_detections}")
    assert seen == drifts
    assert (a.width, a.total, a.n_detections) == final
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


# -- ADWIN quiet period: the scan it skips would find no cut -------------------------

def reference_has_cut(self) -> bool:
    """The cut scan as it ran after every insert, before the quiet period."""
    w, s, min_side = self.width, self.total, self.min_side
    log_term = math.log(4.0 * w / self.delta)
    n0, s0 = 0, 0.0
    size = 1 << len(self._levels)
    for buckets in reversed(self._levels):
        size >>= 1
        for bucket_sum in buckets:
            n0 += size
            s0 += bucket_sum
            n1 = w - n0
            if n1 < min_side:
                return False  # n1 only falls from here on
            if n0 < min_side:
                continue
            diff = s0 / n0 - (s - s0) / n1
            # compare squared means against eps_cut^2 = log_term/(2m)
            if diff * diff >= log_term * w / (2.0 * n0 * n1):
                return True
    return False


class ReferenceAdwin(Adwin):
    """Adwin that scans after every insert: this scan never sets ``_quiet``."""

    _has_cut = reference_has_cut


def _random_kwargs(rng):
    return {"delta": rng.choice([1.0, 0.3, 0.05, 0.002, 1e-6, 1e-12]),
            "max_buckets": rng.choice([1, 2, 3, 5, 8]),
            "min_window": rng.choice([1, 2, 10, 40]),
            "min_side": rng.choice([1, 2, 5, 20])}


def _assert_same_steps(kwargs, values, reset_at=None):
    fast, reference = Adwin(**kwargs), ReferenceAdwin(**kwargs)
    for i, x in enumerate(values):
        if i == reset_at:
            fast.reset()
            reference.reset()
        got = (fast.update(x), fast.width, repr(fast.total), fast.n_detections)
        want = (reference.update(x), reference.width, repr(reference.total),
                reference.n_detections)
        assert got == want, (kwargs, i)


def _stream(kind, rng, n):
    if kind == "bernoulli":
        segments = [(rng.randrange(100, 1500), rng.random()) for _ in range(4)]
        return list(bernoulli_steps(segments, rng.random()))[:n]
    if kind == "real_ramps":
        values = []
        while len(values) < n:
            lo = rng.random()
            hi = lo + (1.0 - lo) * rng.random()
            values += [rng.uniform(lo, hi) for _ in range(rng.randrange(100, 1500))]
        return values[:n]
    if kind == "constant":
        return [rng.choice([0.0, -0.0, 1.0, 0.5, rng.random()])] * n
    if kind == "near_half":
        # window means near 0.5, where the quiet period's mean bound q is smallest
        values = []
        while len(values) < n:
            p, spread = rng.uniform(0.4, 0.6), rng.uniform(0.0, 0.5)
            values += [float(rng.random() < p) if spread < 0.1
                       else rng.uniform(0.5 - spread, 0.5 + spread)
                       for _ in range(rng.randrange(100, 1500))]
        return values[:n]
    if kind == "stationary_step":
        # a long stationary run, so long quiet periods, that ends in a step
        run = rng.randrange(n // 2, n - 100)
        p, q = rng.random(), rng.random()
        if rng.random() < 0.5:
            return [float(rng.random() < (p if i < run else q)) for i in range(n)]
        lo, hi = (0.0, 2.0 * p) if p < 0.5 else (2.0 * p - 1.0, 1.0)  # mean p
        return [rng.uniform(lo, hi) if i < run else rng.uniform(0.5 * q, q) for i in range(n)]
    # signed zeros and ones, with a step in the share of ones
    p = rng.random()
    q = rng.random()
    return [rng.choice([0.0, -0.0]) if rng.random() >= (p if i < n // 2 else q) else 1.0
            for i in range(n)]


@pytest.mark.parametrize("kind", ["bernoulli", "real_ramps", "constant", "signed_zeros",
                                  "near_half", "stationary_step"])
def test_adwin_quiet_period_matches_scan_after_every_insert(kind):
    rng = random.Random(f"adwin-quiet-{kind}")
    for _ in range(8):
        kwargs = _random_kwargs(rng)
        values = _stream(kind, rng, 2500)
        _assert_same_steps(kwargs, values,
                           rng.randrange(len(values)) if rng.random() < 0.5 else None)


def test_adwin_quiet_period_holds_at_the_largest_mean_gap():
    # a run of one extreme then the other: the boundary between them has the
    # largest gap a boundary can have, |D| = n0*n1/w, which the structural
    # rule bounds; a quiet period one insert longer misses some of its cuts
    rng = random.Random("adwin-quiet-extremes")
    for _ in range(60):
        kwargs = _random_kwargs(rng)
        first, second = rng.choice([(0.0, 1.0), (1.0, 0.0), (-0.0, 1.0), (1.0, -0.0)])
        _assert_same_steps(kwargs, [first] * rng.randrange(20, 800) + [second] * 200)


def test_adwin_scans_at_most_a_third_of_stationary_updates():
    a = Adwin()
    scans = []
    scan = a._has_cut
    a._has_cut = lambda: scans.append(a.width) or scan()
    for x in bernoulli_steps([(10000, 0.2)], seed=21):
        a.update(x)
    assert a.n_detections == 0
    assert len(scans) <= 10000 // 3


def scan_without_pretest(self) -> bool:
    """``Adwin._has_cut`` without its division-free pre-test."""
    w, s, min_side = self.width, self.total, self.min_side
    log_term = math.log(4.0 * w / self.delta)
    log_w = log_term * w
    q = min(1.0, max(s / w, 1.0 - s / w) + 2.0 * log_term / w + 1e-9)
    eta = 1e-9 * (w + 2.0 * log_term)
    eta_w = eta * w
    c = math.ceil(log_w / (2.0 * w * (q * (1.0 + eta)) ** 2 + log_term)) - 1
    quiet = c
    n0, s0 = 0, 0.0
    size = 1 << len(self._levels)
    for buckets in reversed(self._levels):
        size >>= 1
        for bucket_sum in buckets:
            n0 += size
            s0 += bucket_sum
            n1 = w - n0
            if n1 < min_side and (not quiet or n1 + quiet <= c):
                self._quiet = quiet
                return False
            if n0 < min_side:
                continue
            diff = s0 / n0 - (s - s0) / n1
            bound = log_w / (2.0 * n0 * n1)
            if quiet and n1 + quiet > c:
                gap = abs(diff) + (quiet * q + eta_w / n0) / n1
                if gap * gap < bound:
                    continue
                room = ((math.sqrt(bound) - abs(diff)) * n1 - eta_w / n0) / q
                quiet = max(0, c - n1, math.ceil(room) - 1)
            if n1 >= min_side and diff * diff >= bound:
                return True
    raise AssertionError("the scan reached no return")


@pytest.mark.parametrize("kind", ["bernoulli", "real_ramps", "near_half", "stationary_step"])
def test_adwin_pretest_only_skips_boundaries_the_scan_passes_over(kind):
    # every scan decides the same and sets the same quiet count with and
    # without the pre-test, so the pre-test is a pure shortcut
    rng = random.Random(f"adwin-pretest-{kind}")
    for _ in range(6):
        a = Adwin(**_random_kwargs(rng))
        scans = [0]

        def both(scan=a._has_cut, a=a):
            scans[0] += 1
            quiet = a._quiet
            want = (scan_without_pretest(a), a._quiet)
            a._quiet = quiet
            assert (scan(), a._quiet) == want
            return want[0]

        a._has_cut = both
        for x in _stream(kind, rng, 2500):
            a.update(x)
        assert scans[0] > 0


@pytest.mark.parametrize("p, most", [(0.5, 10000 // 12), (0.2, 10000 // 6)])
def test_adwin_quiet_period_uses_the_window_mean(p, most):
    # the mean-aware bounds lengthen the quiet period most where the mean is
    # near 0.5 (a scan after every insert would make 9991 here)
    a = Adwin()
    scans = []
    scan = a._has_cut
    a._has_cut = lambda: scans.append(a.width) or scan()
    for x in bernoulli_steps([(10000, p)], seed=21):
        a.update(x)
    assert a.n_detections == 0
    assert len(scans) <= most
