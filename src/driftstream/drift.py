"""Change detectors over prediction-quality streams.

All detectors share the same contract: ``update(value)`` consumes one
observation and returns the current PredictorStatus; ``reset()`` restores the
initial configuration. Detectors that alarm on drift reset themselves so the
next update starts a fresh monitoring period (ADWIN instead shrinks its
window to the retained suffix).
"""

from __future__ import annotations

import math
from collections import deque

from .core import PredictorStatus

STABLE = PredictorStatus.STABLE
WARNING = PredictorStatus.WARNING
DRIFT = PredictorStatus.DRIFT


def _check_at_least_one(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


class PageHinkley:
    """Page-Hinkley test on a real-valued stream.

    Accumulates m_t = sum(x_i - mean_i - delta) and alarms when m_t exceeds
    its running minimum by more than ``threshold``.
    """

    input_kind = "error"

    def __init__(self, delta: float = 0.005, threshold: float = 50.0,
                 min_instances: int = 30):
        if not 0.0 <= delta < math.inf:
            raise ValueError("delta must be finite and >= 0")
        if not threshold > 0.0:
            raise ValueError("threshold must be > 0")
        _check_at_least_one("min_instances", min_instances)
        self.delta = delta
        self.threshold = threshold
        self.min_instances = min_instances
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.cum = 0.0
        self.cum_min = 0.0

    def update(self, x: float) -> PredictorStatus:
        self.n += 1
        self.mean += (x - self.mean) / self.n
        self.cum += x - self.mean - self.delta
        if self.cum < self.cum_min:
            self.cum_min = self.cum
        if self.n < self.min_instances:
            return STABLE
        if self.cum - self.cum_min > self.threshold:
            self.reset()
            return DRIFT
        return STABLE


class DDM:
    """Drift detection from the running error rate of a classifier.

    Tracks p_i (error rate) and s_i = sqrt(p_i (1 - p_i) / i); keeps the
    minimum of p + s and alarms by how far the current p + s sits above it:
    warning at 2 minimum deviations, drift at 3 (then resets).
    """

    input_kind = "error"

    def __init__(self, warning_level: float = 2.0, drift_level: float = 3.0,
                 min_instances: int = 30):
        if not 0.0 < warning_level <= drift_level:
            raise ValueError("warning_level must be > 0 and drift_level >= warning_level")
        _check_at_least_one("min_instances", min_instances)
        self.warning_level = warning_level
        self.drift_level = drift_level
        self.min_instances = min_instances
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.p = 0.0
        self.s = 0.0
        self.p_min = math.inf
        self.s_min = math.inf

    def update(self, error: int) -> PredictorStatus:
        self.n += 1
        self.p += (error - self.p) / self.n
        self.s = math.sqrt(self.p * (1.0 - self.p) / self.n)
        if self.n < self.min_instances:
            return STABLE
        if self.p + self.s <= self.p_min + self.s_min:
            self.p_min = self.p
            self.s_min = self.s
        level = self.p + self.s
        # strict inequalities: a zero-error stream (p = s = 0) must stay stable
        if level > self.p_min + self.drift_level * self.s_min:
            self.reset()
            return DRIFT
        if level > self.p_min + self.warning_level * self.s_min:
            return WARNING
        return STABLE


class EDDM:
    """Distance-between-errors variant of DDM for gradual drift.

    Monitors the mean and std of the gap (in samples) between consecutive
    errors. The quality score p' + 2 s' is compared against its historical
    maximum; shrinking gaps push the ratio below the warning/drift levels.
    """

    input_kind = "error"

    def __init__(self, alpha: float = 0.95, beta: float = 0.90,
                 min_errors: int = 30):
        if not 0.0 <= beta <= alpha <= 1.0:
            raise ValueError("beta must be >= 0 and alpha in [beta, 1]")
        _check_at_least_one("min_errors", min_errors)
        self.alpha = alpha
        self.beta = beta
        self.min_errors = min_errors
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.n_errors = 0
        self.last_error_at = -1
        self.dist_mean = 0.0
        self.dist_m2 = 0.0
        self.score_max = 0.0

    def update(self, error: int) -> PredictorStatus:
        self.n += 1
        if not error:
            return STABLE
        if self.last_error_at >= 0:
            distance = self.n - self.last_error_at
            self.n_errors += 1
            delta = distance - self.dist_mean
            self.dist_mean += delta / self.n_errors
            self.dist_m2 += delta * (distance - self.dist_mean)
            std = math.sqrt(self.dist_m2 / self.n_errors)
            score = self.dist_mean + 2.0 * std
            if score > self.score_max:
                self.score_max = score
            elif self.n_errors >= self.min_errors and self.score_max > 0:
                ratio = score / self.score_max
                if ratio < self.beta:
                    self.reset()
                    return DRIFT
                if ratio < self.alpha:
                    self.last_error_at = self.n
                    return WARNING
        self.last_error_at = self.n
        return STABLE


# Rounding allowance of the safe-interval rules, as a share of the window
# (see Adwin).
_MARGIN = 1e-9


class Adwin:
    """Adaptive windowing over a [0, 1] stream with an exponential histogram.

    The window is held as buckets of exponentially growing size (at most
    ``max_buckets`` per size level, one deque per level). After an insert the
    bucket boundaries are scanned oldest first as cut points; if the two
    sides' means differ by at least the epsilon-cut bound the oldest bucket is
    dropped and the scan repeats, so the window shrinks to the suffix
    consistent with the current mean.

    A scan that finds no cut leaves a safe interval (``_lo``, ``_hi``) for the
    window mean p, and an insert that keeps p strictly inside it skips the
    scan: every decision is still the one a scan after every insert would
    make. Take a boundary with n0 older items (sum s0) and n1 newer ones (sum
    s1) in a window of w items, and let D = s0 - n0*p = n1*p - s1, which is
    diff*n0*n1/w. The scan's exact test is D^2 >= T^2 with
    T^2 = log_term*n0*n1/(2w), so the boundary cannot cut while p is in
    ((s0 - T)/n0, (s0 + T)/n0). Such an interval stays valid because:

    - for a fixed boundary, T grows with w, since n1/w and log_term do;
    - inserts and merges keep the (n0, s0) of every boundary that survives;
    - s1 is in [0, n1], so |D| <= n1*max(p, 1 - p): no boundary with n1 <= c
      can cut while max(p, 1 - p) <= q, where c is the largest integer below
      log_term*w/(2w*q^2 + log_term);
    - c also grows with w.

    So a scan tests the boundaries with n1 above ``_join`` =
    max(c, min_side - 1) and n0 >= min_side, and intersects their intervals
    with (1 - q', q'), where q' = max(p, 1 - p) + 2*log_term/w and
    q = min(1, q'). The newer boundaries cannot cut now; they wait in
    ``_pending`` with the boundary each later insert makes, and each joins
    the interval when its n1 exceeds ``_join``, with T at that width and the
    scan's smaller log_term. A boundary that a merge removed may still narrow
    the interval, which costs only a scan. The interval is empty after a
    reset and after a scan that finds a cut.

    The proof holds for exact sums; the scan reads float ones. Every sum
    (``total``, a bucket sum, s0) is at most w, and each addition that builds
    it rounds by at most 2^-53 * w. So the intervals keep a margin
    eta = 1e-9 * w in D, and c one through |D| <= n1*q*(1 + eta), which is at
    least n1*q + eta/2 for n1 >= 1 and q >= 1/2. Even eta/2 exceeds the
    rounding of 4 * 10^6 additions; the drift of ``total`` over a whole run,
    a random walk of such roundings, would take some 10^13 updates to reach
    it. The margin also covers the rounding in evaluating the rules, and
    with 0/1 inputs every sum is an exact integer.
    """

    input_kind = "correctness"

    def __init__(self, delta: float = 0.002, max_buckets: int = 5,
                 min_window: int = 10, min_side: int = 5):
        if not 0.0 < delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        for name, value in (("max_buckets", max_buckets), ("min_window", min_window),
                            ("min_side", min_side)):
            _check_at_least_one(name, value)
        self.delta = delta
        self.max_buckets = max_buckets
        self.min_window = min_window
        self.min_side = min_side
        self.reset()

    def reset(self) -> None:
        # _levels[l] holds sums of buckets of 2^l items, oldest first.
        self._levels: list[deque[float]] = [deque()]
        self.width = 0
        self.total = 0.0
        self.n_detections = 0
        # the safe interval, empty until a scan finds no cut (see above)
        self._lo, self._hi = 1.0, 0.0
        self._pending: deque[tuple[int, float]] = deque()  # (n0, s0), oldest first
        self._join = 0
        self._half_log = 0.0  # the last scan's log_term / 2

    @property
    def mean(self) -> float:
        return self.total / self.width if self.width else 0.0

    def update(self, x: float) -> PredictorStatus:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"adwin input must be in [0, 1], got {x!r}")
        levels = self._levels
        buckets = levels[0]
        buckets.append(x)
        self.width = w = self.width + 1
        self.total = s = self.total + x
        level = 0
        while len(buckets) > self.max_buckets:
            if level + 1 == len(levels):
                levels.append(deque())
            levels[level + 1].append(buckets.popleft() + buckets.popleft())
            level += 1
            buckets = levels[level]
        # the boundary after x (n1 = 0 now); the pending n1 are distinct and at
        # most _join, so this insert brings at most the oldest one above it
        pending = self._pending
        pending.append((w, s))
        n0, s0 = pending[0]
        if w - n0 > self._join:
            pending.popleft()
            if n0 >= self.min_side:
                t = math.sqrt(self._half_log * n0 * (w - n0) / w) - _MARGIN * w
                if (s0 - t) / n0 > self._lo:
                    self._lo = (s0 - t) / n0
                if (s0 + t) / n0 < self._hi:
                    self._hi = (s0 + t) / n0
        if self._lo < s / w < self._hi or w < self.min_window:
            return STABLE
        return DRIFT if self._shrink() else STABLE

    def _drop_oldest(self) -> None:
        for level in range(len(self._levels) - 1, -1, -1):
            if self._levels[level]:
                bucket_sum = self._levels[level].popleft()
                self.width -= 1 << level
                self.total -= bucket_sum
                return

    def _has_cut(self) -> bool:
        """Whether some bucket boundary splits the window into two sides, each
        of at least ``min_side`` items, whose means differ by the cut bound.
        When none does, set the safe interval (see the class docstring)."""
        w, s, min_side = self.width, self.total, self.min_side
        p = s / w
        log_term = math.log(4.0 * w / self.delta)
        log_w = log_term * w
        half_log = 0.5 * log_term
        eta = _MARGIN * w
        q = max(p, 1.0 - p) + 2.0 * log_term / w
        c = math.ceil(log_w / (2.0 * w * (min(1.0, q) * (1.0 + eta)) ** 2 + log_term)) - 1
        join = max(c, min_side - 1)
        lo, hi = 1.0 - q, q
        pending = self._pending
        pending.clear()
        self._lo, self._hi = 1.0, 0.0
        n0, s0 = 0, 0.0
        size = 1 << len(self._levels)
        for buckets in reversed(self._levels):
            size >>= 1
            for bucket_sum in buckets:
                n0 += size
                s0 += bucket_sum
                n1 = w - n0
                if n1 <= join:
                    pending.append((n0, s0))
                elif n0 >= min_side:
                    diff = s0 / n0 - (s - s0) / n1
                    # compare squared means against eps_cut^2 = log_term/(2m)
                    if diff * diff >= log_w / (2.0 * n0 * n1):
                        return True
                    t = math.sqrt(half_log * n0 * n1 / w) - eta
                    if (s0 - t) / n0 > lo:
                        lo = (s0 - t) / n0
                    if (s0 + t) / n0 < hi:
                        hi = (s0 + t) / n0
        self._lo, self._hi = lo, hi
        self._join, self._half_log = join, half_log
        return False

    def _shrink(self) -> bool:
        """Drop oldest buckets while a cut exists. A scan that finds a cut
        leaves the safe interval empty, so the next insert scans again unless
        a scan of the shrunk window sets it."""
        dropped = False
        while self.width >= self.min_window and self._has_cut():
            self._drop_oldest()
            dropped = True
        if dropped:
            self.n_detections += 1
        return dropped


DETECTOR_KINDS = {
    "page_hinkley": PageHinkley,
    "ddm": DDM,
    "eddm": EDDM,
    "adwin": Adwin,
}


def make_detector(kind: str, **params):
    try:
        cls = DETECTOR_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown detector kind {kind!r}") from None
    return cls(**params)
