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


# Rounding allowance of the quiet-period rules: as a share of the window in
# their margin, and as is on the window mean (see Adwin._has_cut).
_MARGIN = 1e-9


class Adwin:
    """Adaptive windowing over a [0, 1] stream with an exponential histogram.

    The window is held as buckets of exponentially growing size (at most
    ``max_buckets`` per size level, one deque per level). After each insert
    the bucket boundaries are scanned oldest first as cut points; if the two
    sides' means differ by at least the epsilon-cut bound the oldest bucket is
    dropped and the scan repeats, so the window shrinks to the suffix
    consistent with the current mean. A scan that finds no cut also works out
    how many of the next inserts cannot bring any boundary to the bound, and
    those inserts skip the scan (``_has_cut``): every decision is the one a
    scan after every insert would make.
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
        self._quiet = 0  # inserts left that skip the scan

    @property
    def mean(self) -> float:
        return self.total / self.width if self.width else 0.0

    def update(self, x: float) -> PredictorStatus:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"adwin input must be in [0, 1], got {x!r}")
        levels = self._levels
        buckets = levels[0]
        buckets.append(x)
        self.width += 1
        self.total += x
        level = 0
        while len(buckets) > self.max_buckets:
            if level + 1 == len(levels):
                levels.append(deque())
            levels[level + 1].append(buckets.popleft() + buckets.popleft())
            level += 1
            buckets = levels[level]
        if self._quiet:
            self._quiet -= 1
            return STABLE
        if self.width < self.min_window:
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

        When none does, ``_quiet`` becomes a count k of inserts after which
        no boundary can have reached the bound. Take a boundary with n0 older
        items (prefix sum s0) and n1 newer ones (sum s1), let p = s/w be the
        window mean and D = s0 - n0*p = n1*p - s1, which is diff*n0*n1/w. The
        exact test below is then D^2 >= T^2 with T^2 = log_term*n0*n1/(2w).
        Since s1 is in [0, n1], D is in [-n1*(1 - p), n1*p], so
        |D| <= n1*max(p, 1 - p). Inserts and merges keep each surviving
        boundary's n0 and s0 (merges only remove boundaries); one insert of x
        in [0, 1] into a window of w' items with mean p' moves D by
        n0*(p' - x)/(w' + 1), whose size is below n0*max(p', 1 - p')/w; and T
        never falls, since n1/w and log_term only grow. The quiet period
        below is c < log_term/(2*q^2) <= 2*log_term inserts long, so over it
        the mean moves by less than 2*log_term/w, and
        q = min(1, max(p, 1 - p) + 2*log_term/w + rho) bounds max(p', 1 - p')
        throughout it (rho = 1e-9 covers the rounding of the computed p). So:

        - slack rule: a boundary with |D| + k*n0*q/w < T stays uncut for k
          inserts;
        - structural rule: |D| <= n1*q, so no boundary with n1 <= c can cut,
          where c is the largest integer below log_term*w/(2w*q^2 + log_term),
          and c only grows. That covers the boundaries the next k <= c
          inserts make, and those with n1 + k <= c now.

        k starts at c and falls until every other boundary with
        n0 >= min_side passes the slack rule, including those whose newer
        side is still below ``min_side``.

        Before the exact test, each boundary takes a pre-test free of
        divisions: with k the count so far, (|s0 - n0*p| + k*n0*q/w + 2*eta)^2
        < T^2 skips the boundary. That is the slack rule (with k = 0, the
        test for a cut now) multiplied through by n0*n1/w: one eta is the
        rule's own margin, the other covers the rounding of both evaluations.
        So a skipped boundary is one the exact code would also pass over, and
        the pre-test changes no decision and no ``_quiet``.

        The proof holds for exact sums; the scan reads float ones. Every sum
        here (``total``, a bucket sum, s0) is at most w' <= w + 2*log_term,
        the largest window the quiet period reaches, and each addition that
        builds it rounds by at most 2^-53 * w'. So both rules keep a margin
        eta = 1e-9 * w' in D (in c, through |D| <= n1*q*(1 + eta), which is
        at least n1*q + eta/2 for n1 >= 1 and q >= 1/2). Even eta/2 exceeds
        the rounding of 4 * 10^6 such additions, where a scan's prefix sum
        makes one per bucket and the k inserts one each in ``total``; the
        drift of ``total`` over a whole run, a random walk of such roundings,
        would take some 10^13 updates to reach it. The margin also covers the
        rounding in evaluating the rules. With 0/1 inputs every sum is an
        exact integer.
        """
        w, s, min_side = self.width, self.total, self.min_side
        p = s / w
        log_term = math.log(4.0 * w / self.delta)
        log_w = log_term * w
        q = min(1.0, max(p, 1.0 - p) + 2.0 * log_term / w + _MARGIN)
        eta = _MARGIN * (w + 2.0 * log_term)
        eta_w = eta * w
        eta2 = 2.0 * eta
        half_t2 = log_term / (2.0 * w)  # T^2 = half_t2 * n0 * n1
        c = math.ceil(log_w / (2.0 * w * (q * (1.0 + eta)) ** 2 + log_term)) - 1
        quiet = c
        slope = quiet * q / w  # D moves by less than n0 * slope in the quiet period
        n0, s0 = 0, 0.0
        size = 1 << len(self._levels)
        for buckets in reversed(self._levels):
            size >>= 1
            for bucket_sum in buckets:
                n0 += size
                s0 += bucket_sum
                n1 = w - n0
                if n1 < min_side and (not quiet or n1 + quiet <= c):
                    # n1 only falls from here on: no later boundary is
                    # tested now, and each is inside the structural rule
                    self._quiet = quiet
                    return False
                if n0 < min_side:
                    continue
                pre = abs(s0 - n0 * p) + n0 * slope + eta2
                if pre * pre < half_t2 * n0 * n1:
                    continue
                diff = s0 / n0 - (s - s0) / n1
                # compare squared means against eps_cut^2 = log_term/(2m)
                bound = log_w / (2.0 * n0 * n1)
                if quiet and n1 + quiet > c:
                    # the slack rule divided by n0*n1/w, which also rules
                    # out a cut now: |diff| + (k*q + eta*w/n0)/n1 < eps_cut
                    gap = abs(diff) + (quiet * q + eta_w / n0) / n1
                    if gap * gap < bound:
                        continue
                    room = ((math.sqrt(bound) - abs(diff)) * n1 - eta_w / n0) / q
                    quiet = max(0, c - n1, math.ceil(room) - 1)
                    slope = quiet * q / w
                if n1 >= min_side and diff * diff >= bound:
                    return True
        raise AssertionError(
            "ADWIN cut scan ended without reaching its newest boundary: n1 = 0 is "
            "below min_side >= 1 and the quiet count never exceeds c, so it returns")

    def _shrink(self) -> bool:
        """Drop oldest buckets while a cut exists. A drop leaves ``_quiet`` at
        0; the scan of the shrunk window that finds no cut sets it again."""
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
