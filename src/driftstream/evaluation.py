"""Stream evaluation protocols producing time-indexed metric traces."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .core import ConfusionMatrix
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


def _test_then_train(source: InstanceStream, learner: Learner, report_every: int,
                     window: int, learn: bool,
                     pretrain: int = 0, detectors: Optional[dict] = None) -> list[TraceRecord]:
    """Score each instance, then (with ``learn``) train on it.

    Without ``learn`` every instance is scored and the learner is only asked
    to predict. With it, instances arriving before the learner has fitted
    anything (or within the ``pretrain`` budget) are trained without being
    scored.
    """
    if report_every < 1:
        raise ValueError("report_every must be >= 1")
    if window < 1:
        raise ValueError("window must be >= 1")
    scorer = _Scorer(source.schema.n_classes, window)
    # detectors declare their polarity: drift monitors of the error rate
    # consume the error bit, windowed-mean monitors the correctness bit
    monitors = [
        (name, detector.update, getattr(detector, "input_kind", "error") == "correctness")
        for name, detector in (detectors or {}).items()
    ]
    # only a learning model reports its active member; a frozen one leaves
    # the trace's active_learner column empty
    reporter = learner if learn else None
    last_record_at = 0
    records: list[TraceRecord] = []
    predict, score = learner.predict, scorer.score
    events = scorer.pending_events  # scorer.record swaps it for a fresh list

    for consumed, inst in enumerate(source, start=1):
        if inst.y is None:
            raise ValueError(f"unlabeled sample at seq {inst.seq}")
        if not learn or (consumed > pretrain and learner.fitted):
            correct = score(inst.y, predict(inst.x))
            if monitors:
                hit, miss = float(correct), 1.0 - correct
                for name, update, on_correct in monitors:
                    status = update(hit if on_correct else miss)
                    if status:  # STABLE is 0
                        events.append((inst.seq, name, status.name.lower()))
        if learn:
            learner.partial_fit(inst)
            for detector_id, status in learner.drain_events():
                events.append((inst.seq, detector_id, status))
        if scorer.scored - last_record_at >= report_every:
            records.append(scorer.record(inst.seq, getattr(reporter, "active_index", None)))
            events = scorer.pending_events
            last_record_at = scorer.scored

    if scorer.scored == 0:
        raise ValueError("stream produced no scorable samples")
    if scorer.scored != last_record_at:
        records.append(scorer.record(inst.seq, getattr(reporter, "active_index", None)))
    return records


def run_prequential(source: InstanceStream, learner: Learner,
                    report_every: int = 100, pretrain: int = 0, window: int = 200,
                    detectors: Optional[dict] = None) -> MetricTrace:
    """Interleaved test-then-train: each sample is scored, then trained on.

    Samples arriving before the learner has fitted anything (or within the
    optional ``pretrain`` budget) are trained without being scored. External
    ``detectors`` (name -> detector) watch the correctness bit; their warning
    and drift statuses are stamped into the trace.
    """
    records = _test_then_train(source, learner, report_every, window,
                               learn=True, pretrain=pretrain, detectors=detectors)
    return MetricTrace(records=records, meta={"protocol": "prequential"})


def run_holdout(source: InstanceStream, learner: Learner,
                holdout_size: int, period: int, audit: bool = False) -> MetricTrace:
    """Periodic holdout: per cycle, train on period - holdout_size samples,
    then score the next holdout_size samples without training on them.

    The per-record window accuracy covers the last cycle's holdout.
    A stream exhausted mid-cycle yields a final partial record and the trace
    is flagged incomplete.
    """
    if holdout_size < 1:
        raise ValueError("holdout_size must be >= 1")
    if period <= holdout_size:
        raise ValueError("period must exceed holdout_size")
    train_per_cycle = period - holdout_size
    scorer = _Scorer(source.schema.n_classes, holdout_size)
    records: list[TraceRecord] = []
    scored_seqs: list[int] = []
    trained_seqs: list[int] = []
    pos = 0  # instances consumed in the current cycle

    for inst in source:
        if inst.y is None:
            raise ValueError(f"unlabeled sample at seq {inst.seq}")
        if pos < train_per_cycle:
            learner.partial_fit(inst)
            if audit:
                trained_seqs.append(inst.seq)
        else:
            scorer.score(inst.y, learner.predict(inst.x))
            if audit:
                scored_seqs.append(inst.seq)
        pos = (pos + 1) % period
        if pos == 0:
            records.append(scorer.record(inst.seq, None))

    if not records:
        raise ValueError("stream shorter than one full holdout cycle")
    if pos > train_per_cycle:
        records.append(scorer.record(inst.seq, None))
    trace_meta = {"protocol": "holdout"}
    if pos > 0:
        trace_meta["incomplete_final_cycle"] = True
    if audit:
        trace_meta["scored_seqs"] = scored_seqs
        trace_meta["trained_seqs"] = trained_seqs
    return MetricTrace(records=records, meta=trace_meta)


def evaluate_pretrained(source: InstanceStream, model: Learner,
                        report_every: int = 100, window: int = 200) -> MetricTrace:
    """Score a frozen model against a stream; the model state is never touched."""
    if not model.frozen:
        raise ValueError("evaluate_pretrained requires a frozen model")
    records = _test_then_train(source, model, report_every, window, learn=False)
    return MetricTrace(records=records, meta={"protocol": "pretrained"})
