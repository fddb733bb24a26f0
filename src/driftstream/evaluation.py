"""Stream evaluation protocols producing time-indexed metric traces."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, count, cycle, repeat
from typing import Iterable, Iterator, Optional

from .core import ConfusionMatrix, Instance
from .generators import InstanceStream
from .learners import Learner


@dataclass
class TraceRecord:
    seq: int
    cum_accuracy: float
    window_accuracy: float
    kappa: float
    drift_events: list[tuple[int, str, str]] = field(default_factory=list)
    active_learner: Optional[int] = None


@dataclass
class MetricTrace:
    records: list[TraceRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def drift_count(self) -> int:
        return sum(
            1 for r in self.records for _, _, status in r.drift_events if status == "drift"
        )


class _Scorer:
    """Confusion matrix plus a rolling correctness window and an event buffer."""

    def __init__(self, n_classes: int, window: int):
        self.matrix = ConfusionMatrix(n_classes)
        self.recent: deque[int] = deque(maxlen=window)
        self.pending_events: list[tuple[int, str, str]] = []
        self.scored = 0

    def score(self, y_true: int, y_pred: int) -> int:
        correct = int(y_true == y_pred)
        self.matrix.update(y_true, y_pred)
        self.recent.append(correct)
        self.scored += 1
        return correct

    def record(self, seq: int, active: Optional[int]) -> TraceRecord:
        events, self.pending_events = self.pending_events, []
        return TraceRecord(
            seq=seq,
            cum_accuracy=self.matrix.accuracy(),
            window_accuracy=sum(self.recent) / len(self.recent),
            kappa=self.matrix.kappa(),
            drift_events=events,
            active_learner=active,
        )


_SCORE, _TRAIN, _TEST_THEN_TRAIN = (True, False), (False, True), (True, True)


def _test_then_train(source: Iterable[Instance], n_classes: int, learner: Learner, phases: Iterable,
                     report_every: int, window: int, detectors: Optional[dict] = None,
                     reporter: Optional[Learner] = None) -> tuple[list[TraceRecord], int]:
    """Score and train on ``source`` as ``phases`` say, one ``(score, train)``
    pair per instance; return the records and the number of instances consumed.

    A test-then-train phase scores only a learner that has fitted something.
    The learner's drift and swap events and the statuses of the external
    ``detectors`` (name -> detector) go into the next record, and
    ``reporter``'s ``active_index`` into its active_learner column.
    """
    if report_every < 1:
        raise ValueError("report_every must be >= 1")
    if window < 1:
        raise ValueError("window must be >= 1")
    scorer = _Scorer(n_classes, window)
    # detectors declare their polarity: drift monitors of the error rate
    # consume the error bit, windowed-mean monitors the correctness bit
    monitors = [
        (name, detector.update, getattr(detector, "input_kind", "error") == "correctness")
        for name, detector in (detectors or {}).items()
    ]
    last_record_at = consumed = 0
    records: list[TraceRecord] = []
    predict, score = learner.predict, scorer.score
    events = scorer.pending_events  # scorer.record swaps it for a fresh list

    for consumed, inst, (test, train) in zip(count(1), source, phases):
        if inst.y is None:
            raise ValueError(f"unlabeled sample at seq {inst.seq}")
        if test and (not train or learner.fitted):
            correct = score(inst.y, predict(inst.x))
            if monitors:
                hit, miss = float(correct), 1.0 - correct
                for name, update, on_correct in monitors:
                    status = update(hit if on_correct else miss)
                    if status:  # STABLE is 0
                        events.append((inst.seq, name, status.name.lower()))
        if train:
            learner.partial_fit(inst)
            for detector_id, status in learner.drain_events():
                events.append((inst.seq, detector_id, status))
        if scorer.scored - last_record_at >= report_every:
            records.append(scorer.record(inst.seq, getattr(reporter, "active_index", None)))
            events = scorer.pending_events
            last_record_at = scorer.scored

    # a closing record holds what came after the last one: scores, or learner
    # events drained in a holdout's training stretch that no score followed
    if scorer.scored and (scorer.scored != last_record_at or scorer.pending_events):
        records.append(scorer.record(inst.seq, getattr(reporter, "active_index", None)))
    return records, consumed


def run_prequential(source: InstanceStream, learner: Learner,
                    report_every: int = 100, pretrain: int = 0, window: int = 200,
                    detectors: Optional[dict] = None) -> MetricTrace:
    """Interleaved test-then-train: each sample is scored, then trained on.

    Samples arriving before the learner has fitted anything (or within the
    optional ``pretrain`` budget) are trained without being scored. External
    ``detectors`` (name -> detector) watch the correctness bit; their warning
    and drift statuses are stamped into the trace.
    """
    phases = chain(repeat(_TRAIN, pretrain), repeat(_TEST_THEN_TRAIN))
    records, _ = _test_then_train(source, source.schema.n_classes, learner, phases,
                                  report_every, window, detectors, reporter=learner)
    if not records:
        raise ValueError("stream produced no scorable samples")
    return MetricTrace(records=records, meta={"protocol": "prequential"})


def _audited(source: Iterable[Instance], phases: Iterable, meta: dict) -> Iterator[Instance]:
    """Replay ``source``, listing each seq in ``meta`` as scored or trained by its phase."""
    for inst, (test, _) in zip(source, phases):
        meta["scored_seqs" if test else "trained_seqs"].append(inst.seq)
        yield inst


def run_holdout(source: InstanceStream, learner: Learner,
                holdout_size: int, period: int, audit: bool = False) -> MetricTrace:
    """Periodic holdout: per cycle, train on period - holdout_size samples,
    then score the next holdout_size samples without training on them.

    A record falls at the end of every cycle; its window accuracy covers that
    cycle's holdout, and it carries the learner's drift and swap events since
    the last record. A stream exhausted mid-cycle is flagged incomplete; it
    yields a final partial record when it ends in a holdout, or in a training
    stretch in which the learner reported events.
    """
    if holdout_size < 1:
        raise ValueError("holdout_size must be >= 1")
    if period <= holdout_size:
        raise ValueError("period must exceed holdout_size")
    one_cycle = [_TRAIN] * (period - holdout_size) + [_SCORE] * holdout_size
    trace_meta: dict = {"protocol": "holdout"}
    if audit:
        trace_meta.update(scored_seqs=[], trained_seqs=[])
    instances = _audited(source, cycle(one_cycle), trace_meta) if audit else source
    records, consumed = _test_then_train(instances, source.schema.n_classes, learner,
                                         cycle(one_cycle), holdout_size, holdout_size)
    if consumed < period:
        raise ValueError("stream shorter than one full holdout cycle")
    if consumed % period:
        trace_meta["incomplete_final_cycle"] = True
    return MetricTrace(records=records, meta=trace_meta)


def evaluate_pretrained(source: InstanceStream, model: Learner,
                        report_every: int = 100, window: int = 200) -> MetricTrace:
    """Score a frozen model against a stream; the model state is never touched."""
    if not model.frozen:
        raise ValueError("evaluate_pretrained requires a frozen model")
    records, _ = _test_then_train(source, source.schema.n_classes, model, repeat(_SCORE),
                                  report_every, window)
    if not records:
        raise ValueError("stream produced no scorable samples")
    return MetricTrace(records=records, meta={"protocol": "pretrained"})
