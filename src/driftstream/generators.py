"""Seedable synthetic stream generators and a gradual/abrupt drift composer.

Families and their schemas (feature count / class count): agrawal 9/2,
stagger 3/2, sea 3/2, led 24/10, hyperplane 10/2, rbf 10/2. Identical
(family, concept, seed) always reproduces the same instance sequence.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

from .core import CATEGORICAL, NUMERIC, Feature, FeatureSchema, Instance


class InstanceStream:
    """Pull-based instance source. Subclasses emit via _emit() for seq bookkeeping."""

    schema: FeatureSchema

    def __init__(self):
        self._seq = 0

    def __iter__(self) -> Iterator[Instance]:
        return self

    def __next__(self) -> Instance:
        raise NotImplementedError

    def _emit(self, x: list[float], y: int) -> Instance:
        inst = Instance(x=x, y=y, seq=self._seq)
        self._seq += 1
        return inst

    def take(self, n: int) -> list[Instance]:
        """The next ``n`` instances; a ValueError if the stream ends first."""
        out = list(itertools.islice(self, n))
        if len(out) < n:
            raise ValueError(f"stream ended after {len(out)} of the {n} instances to take")
        return out


class LimitedStream(InstanceStream):
    """Finite view over another stream (at most n instances)."""

    def __init__(self, source: InstanceStream, n: int):
        super().__init__()
        self.schema = source.schema
        self._source = source
        self._remaining = n

    def __next__(self) -> Instance:
        if self._remaining <= 0:
            raise StopIteration
        self._remaining -= 1
        return next(self._source)


# ---------------------------------------------------------------------------
# Agrawal

_AGRAWAL_SCHEMA = FeatureSchema(
    features=(
        Feature("salary"),
        Feature("commission"),
        Feature("age"),
        Feature("elevel", CATEGORICAL, 5, tuple(f"e{i}" for i in range(5))),
        Feature("car", CATEGORICAL, 20, tuple(f"car{i + 1}" for i in range(20))),
        Feature("zipcode", CATEGORICAL, 9, tuple(f"z{i}" for i in range(9))),
        Feature("hvalue"),
        Feature("hyears"),
        Feature("loan"),
    ),
    label_name="group",
    classes=("A", "B"),
)


def _agrawal_f0(salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan):
    return 0 if age < 40 or age >= 60 else 1


def _agrawal_f1(salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan):
    if age < 40:
        return 0 if 50000 <= salary <= 100000 else 1
    if age < 60:
        return 0 if 75000 <= salary <= 125000 else 1
    return 0 if 25000 <= salary <= 75000 else 1


def _agrawal_f2(salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan):
    if age < 40:
        return 0 if elevel in (0, 1) else 1
    if age < 60:
        return 0 if elevel in (1, 2, 3) else 1
    return 0 if elevel in (2, 3, 4) else 1


def _agrawal_f3(salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan):
    if age < 40:
        if elevel in (0, 1):
            return 0 if 25000 <= salary <= 75000 else 1
        return 0 if 50000 <= salary <= 100000 else 1
    if age < 60:
        if elevel in (1, 2, 3):
            return 0 if 50000 <= salary <= 100000 else 1
        return 0 if 75000 <= salary <= 125000 else 1
    if elevel in (2, 3, 4):
        return 0 if 50000 <= salary <= 100000 else 1
    return 0 if 25000 <= salary <= 75000 else 1


def _agrawal_f4(salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan):
    if age < 40:
        if 50000 <= salary <= 100000:
            return 0 if 100000 <= loan <= 300000 else 1
        return 0 if 200000 <= loan <= 400000 else 1
    if age < 60:
        if 75000 <= salary <= 125000:
            return 0 if 200000 <= loan <= 400000 else 1
        return 0 if 300000 <= loan <= 500000 else 1
    if 25000 <= salary <= 75000:
        return 0 if 300000 <= loan <= 500000 else 1
    return 0 if 100000 <= loan <= 300000 else 1


def _agrawal_f5(salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan):
    total = salary + commission
    if age < 40:
        return 0 if 50000 <= total <= 100000 else 1
    if age < 60:
        return 0 if 75000 <= total <= 125000 else 1
    return 0 if 25000 <= total <= 75000 else 1


def _agrawal_f6(salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan):
    disposable = 2 * (salary + commission) / 3 - loan / 5 - 20000
    return 0 if disposable > 1 else 1


def _agrawal_f7(salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan):
    disposable = 2 * (salary + commission) / 3 - 5000 * elevel - 20000
    return 0 if disposable > 1 else 1


def _agrawal_f8(salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan):
    disposable = 2 * (salary + commission) / 3 - 5000 * elevel - loan / 5 - 10000
    return 0 if disposable > 1 else 1


def _agrawal_f9(salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan):
    equity = hvalue * (hyears - 20) / 10 if hyears >= 20 else 0.0
    disposable = 2 * (salary + commission) / 3 - 5000 * elevel + equity / 5 - 10000
    return 0 if disposable > 1 else 1


AGRAWAL_FUNCTIONS = (
    _agrawal_f0, _agrawal_f1, _agrawal_f2, _agrawal_f3, _agrawal_f4,
    _agrawal_f5, _agrawal_f6, _agrawal_f7, _agrawal_f8, _agrawal_f9,
)


class AgrawalGenerator(InstanceStream):
    """Loan-approval style stream: 6 numeric + 3 categorical features, 2 classes.

    ``concept`` picks one of the ten label functions; changing it mid-stream
    (via DriftStream) produces concept drift.
    """

    schema = _AGRAWAL_SCHEMA

    def __init__(self, concept: int = 0, seed: int = 0):
        super().__init__()
        if not 0 <= concept <= 9:
            raise ValueError(f"agrawal concept must be in 0..9, got {concept}")
        self.concept = concept
        self._rng = random.Random(seed)

    def __next__(self) -> Instance:
        rng = self._rng
        salary = rng.uniform(20000, 150000)
        commission = 0.0 if salary >= 75000 else rng.uniform(10000, 75000)
        age = rng.uniform(20, 80)
        elevel = rng.randrange(5)
        car = rng.randrange(20)
        zipcode = rng.randrange(9)
        hvalue = (9 - zipcode) * 100000 * rng.uniform(0.5, 1.5)
        hyears = rng.randint(1, 30)
        loan = rng.uniform(0, 500000)
        y = AGRAWAL_FUNCTIONS[self.concept](
            salary, commission, age, elevel, car, zipcode, hvalue, hyears, loan
        )
        x = [salary, commission, age, float(elevel), float(car), float(zipcode),
             hvalue, float(hyears), loan]
        return self._emit(x, y)


# ---------------------------------------------------------------------------
# STAGGER

_STAGGER_SCHEMA = FeatureSchema(
    features=(
        Feature("size", CATEGORICAL, 3, ("small", "medium", "large")),
        Feature("color", CATEGORICAL, 3, ("red", "green", "blue")),
        Feature("shape", CATEGORICAL, 3, ("circle", "square", "triangle")),
    ),
    classes=("0", "1"),
)

SMALL, MEDIUM, LARGE = 0, 1, 2
RED, GREEN, BLUE = 0, 1, 2
CIRCLE, SQUARE, TRIANGLE = 0, 1, 2


def stagger_rule(concept: int, size: int, color: int, shape: int) -> int:
    if concept == 0:
        return int(size == SMALL and color == RED)
    if concept == 1:
        return int(color == GREEN or shape == CIRCLE)
    if concept == 2:
        return int(size in (MEDIUM, LARGE))
    raise ValueError(f"stagger concept must be in 0..2, got {concept}")


class StaggerGenerator(InstanceStream):
    """Three uniform categorical features; label from one of three boolean rules."""

    schema = _STAGGER_SCHEMA

    def __init__(self, concept: int = 0, seed: int = 0):
        super().__init__()
        stagger_rule(concept, 0, 0, 0)  # validates the concept index
        self.concept = concept
        self._rng = random.Random(seed)

    def __next__(self) -> Instance:
        size = self._rng.randrange(3)
        color = self._rng.randrange(3)
        shape = self._rng.randrange(3)
        y = stagger_rule(self.concept, size, color, shape)
        return self._emit([float(size), float(color), float(shape)], y)


# ---------------------------------------------------------------------------
# SEA

_SEA_SCHEMA = FeatureSchema(
    features=(Feature("x1"), Feature("x2"), Feature("x3")),
    classes=("0", "1"),
)

SEA_THRESHOLDS = (8.0, 9.0, 7.0, 9.5)


class SeaGenerator(InstanceStream):
    """Three U[0,10] attributes; class 1 iff x1 + x2 <= concept threshold.

    The boundary sum == threshold counts as class 1. x3 is irrelevant.
    """

    schema = _SEA_SCHEMA

    def __init__(self, concept: int = 0, seed: int = 0, noise: float = 0.0):
        super().__init__()
        if not 0 <= concept <= 3:
            raise ValueError(f"sea concept must be in 0..3, got {concept}")
        if not 0.0 <= noise < 1.0:
            raise ValueError("noise must be in [0, 1)")
        self.concept = concept
        self.noise = noise
        self._rng = random.Random(seed)

    def __next__(self) -> Instance:
        x1 = self._rng.uniform(0, 10)
        x2 = self._rng.uniform(0, 10)
        x3 = self._rng.uniform(0, 10)
        y = int(x1 + x2 <= SEA_THRESHOLDS[self.concept])
        if self.noise and self._rng.random() < self.noise:
            y = 1 - y
        return self._emit([x1, x2, x3], y)


# ---------------------------------------------------------------------------
# LED

LED_SEGMENTS = (
    (1, 1, 1, 1, 1, 1, 0),  # 0
    (0, 1, 1, 0, 0, 0, 0),  # 1
    (1, 1, 0, 1, 1, 0, 1),  # 2
    (1, 1, 1, 1, 0, 0, 1),  # 3
    (0, 1, 1, 0, 0, 1, 1),  # 4
    (1, 0, 1, 1, 0, 1, 1),  # 5
    (1, 0, 1, 1, 1, 1, 1),  # 6
    (1, 1, 1, 0, 0, 0, 0),  # 7
    (1, 1, 1, 1, 1, 1, 1),  # 8
    (1, 1, 1, 1, 0, 1, 1),  # 9
)

_LED_SCHEMA = FeatureSchema(
    features=tuple(
        Feature(f"seg{i}" if i < 7 else f"noise{i - 7}", CATEGORICAL, 2, ("off", "on"))
        for i in range(24)
    ),
    label_name="digit",
    classes=tuple(str(d) for d in range(10)),
)


class LedGenerator(InstanceStream):
    """Seven-segment digit display with per-segment inversion noise.

    Emits the 7 segment bits plus 17 irrelevant uniform bits (24 features);
    the label is the displayed digit.
    """

    schema = _LED_SCHEMA

    def __init__(self, seed: int = 0, noise: float = 0.10):
        super().__init__()
        if not 0.0 <= noise < 1.0:
            raise ValueError("noise must be in [0, 1)")
        self.noise = noise
        self._rng = random.Random(seed)

    def __next__(self) -> Instance:
        rng = self._rng
        digit = rng.randrange(10)
        bits = []
        for seg in LED_SEGMENTS[digit]:
            flip = rng.random() < self.noise
            bits.append(float(seg ^ 1 if flip else seg))
        for _ in range(17):
            bits.append(float(rng.randrange(2)))
        return self._emit(bits, digit)


# ---------------------------------------------------------------------------
# Hyperplane

_HYPERPLANE_SCHEMA = FeatureSchema(
    features=tuple(Feature(f"x{i}") for i in range(10)),
    classes=("0", "1"),
)


class HyperplaneGenerator(InstanceStream):
    """Rotating-hyperplane stream: class 1 iff w . x >= (sum w) / 2.

    After each emission the first ``n_drift`` weights move by ``magnitude``
    along a per-weight direction that reverses with probability
    ``reversal_prob``. magnitude=0 freezes the concept.
    """

    schema = _HYPERPLANE_SCHEMA

    def __init__(self, seed: int = 0, n_drift: int = 2, magnitude: float = 0.001,
                 reversal_prob: float = 0.1, noise: float = 0.0):
        super().__init__()
        if not 0 <= magnitude < math.inf:
            raise ValueError("magnitude must be finite and >= 0")
        if not 0 <= n_drift <= 10:
            raise ValueError("n_drift must be in 0..10")
        if not 0.0 <= reversal_prob <= 1.0:
            raise ValueError("reversal_prob must be in [0, 1]")
        if not 0.0 <= noise < 1.0:
            raise ValueError("noise must be in [0, 1)")
        self.n_drift = n_drift
        self.magnitude = magnitude
        self.reversal_prob = reversal_prob
        self.noise = noise
        self._rng = random.Random(seed)
        self.weights = [self._rng.random() for _ in range(10)]
        self._directions = [1.0] * n_drift

    @property
    def threshold(self) -> float:
        return 0.5 * sum(self.weights)

    def __next__(self) -> Instance:
        rng = self._rng
        x = [rng.random() for _ in range(10)]
        y = int(sum(w * v for w, v in zip(self.weights, x)) >= self.threshold)
        if self.noise and rng.random() < self.noise:
            y = 1 - y
        for i in range(self.n_drift):
            self.weights[i] += self.magnitude * self._directions[i]
            if rng.random() < self.reversal_prob:
                self._directions[i] = -self._directions[i]
        return self._emit(x, y)


# ---------------------------------------------------------------------------
# RBF

_RBF_N_FEATURES = 10


class RbfGenerator(InstanceStream):
    """Gaussian-blob stream around weighted random centroids.

    A centroid is drawn by weight, the sample is its center plus per-dimension
    gaussian noise, the label is the centroid's class. Every centroid then
    moves ``speed`` along its fixed random unit direction, reflecting off the
    unit hypercube walls; speed > 0 yields gradual drift.
    """

    def __init__(self, seed: int = 0, n_classes: int = 2, n_centroids: int = 50,
                 stddev: float = 0.1, speed: float = 0.0):
        super().__init__()
        if n_centroids < n_classes:
            raise ValueError("need at least one centroid per class")
        if not (0 <= speed < math.inf and 0 <= stddev < math.inf):
            raise ValueError("speed and stddev must be finite and >= 0")
        self.schema = FeatureSchema(
            features=tuple(Feature(f"x{i}") for i in range(_RBF_N_FEATURES)),
            classes=tuple(str(c) for c in range(n_classes)),
        )
        self._rng = random.Random(seed)
        self.speed = speed
        self.stddev = stddev
        self.centers = [[self._rng.random() for _ in range(_RBF_N_FEATURES)]
                        for _ in range(n_centroids)]
        self.labels = [i % n_classes for i in range(n_centroids)]
        self.weights = [self._rng.random() for _ in range(n_centroids)]
        self._directions = []
        for _ in range(n_centroids):
            vec = [self._rng.gauss(0, 1) for _ in range(_RBF_N_FEATURES)]
            norm = math.sqrt(sum(v * v for v in vec)) or 1.0
            self._directions.append([v / norm for v in vec])
        self._wsum = sum(self.weights)

    def _pick_centroid(self) -> int:
        r = self._rng.random() * self._wsum
        acc = 0.0
        for i, w in enumerate(self.weights):
            acc += w
            if r < acc:
                return i
        return len(self.weights) - 1

    def __next__(self) -> Instance:
        c = self._pick_centroid()
        center = self.centers[c]
        x = [ci + self._rng.gauss(0, self.stddev) if self.stddev else ci
             for ci in center]
        y = self.labels[c]
        if self.speed:
            for center, direction in zip(self.centers, self._directions):
                for d in range(len(center)):
                    v = center[d] + self.speed * direction[d]
                    if v < 0.0:
                        v = -v
                        direction[d] = -direction[d]
                    elif v > 1.0:
                        v = 2.0 - v
                        direction[d] = -direction[d]
                    center[d] = v
        return self._emit(list(x), y)


# ---------------------------------------------------------------------------
# Drift composition

class DriftStream(InstanceStream):
    """Mixes a base and a post concept around a drift point.

    At composed sample t the post concept is chosen with probability
    1 / (1 + exp(-4 (t - position) / width)); width 1 is effectively an
    abrupt switch at ``position``. Emitted seq is re-assigned by this stream.
    """

    def __init__(self, base: InstanceStream, post: InstanceStream,
                 position: int, width: int = 1, seed: int = 0):
        super().__init__()
        if position < 0:
            raise ValueError("position must be >= 0")
        if width < 1:
            raise ValueError("width must be >= 1")
        if (base.schema.n_features != post.schema.n_features
                or base.schema.n_classes != post.schema.n_classes):
            raise ValueError("base and post streams must share shape")
        self.schema = base.schema
        self.base = base
        self.post = post
        self.position = position
        self.width = width
        self._rng = random.Random(seed)

    def post_probability(self, t: int) -> float:
        z = -4.0 * (t - self.position) / self.width
        if z > 700:
            return 0.0
        if z < -700:
            return 1.0
        return 1.0 / (1.0 + math.exp(z))

    def __next__(self) -> Instance:
        t = self._seq
        src = self.post if self._rng.random() < self.post_probability(t) else self.base
        inst = next(src)
        return self._emit(inst.x, inst.y)


# ---------------------------------------------------------------------------
# Registry

GENERATOR_FAMILIES = {
    "agrawal": AgrawalGenerator,
    "stagger": StaggerGenerator,
    "sea": SeaGenerator,
    "led": LedGenerator,
    "hyperplane": HyperplaneGenerator,
    "rbf": RbfGenerator,
}


def make_generator(family: str, seed: int = 0, **params) -> InstanceStream:
    try:
        cls = GENERATOR_FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown generator family {family!r}") from None
    return cls(seed=seed, **params)
