import hashlib
import random

import pytest

from driftstream.core import ConfusionMatrix
from driftstream.drift import DDM
from driftstream.evaluation import evaluate_pretrained, run_holdout, run_prequential
from driftstream.generators import (
    AgrawalGenerator, DriftStream, LimitedStream, SeaGenerator, StaggerGenerator,
)
from driftstream.learners import CartBatch, MajorityClass, NaiveBayes, make_learner, train_batch
from driftstream.stream_io import write_trace
from conftest import ONE_NUMERIC, ListStream, OracleLearner, ProbeLearner, RuleLearner, labeled_stream


class LabelFeedStream(ListStream):
    """Stream that tells an oracle learner the label it is about to see."""

    def __init__(self, pairs, schema, oracle):
        super().__init__(pairs, schema)
        self.oracle = oracle

    def __next__(self):
        inst = super().__next__()
        self.oracle.next_label = inst.y
        return inst


def oracle_run(labels, limit=None, **kwargs):
    oracle = OracleLearner(ONE_NUMERIC)
    stream = LabelFeedStream([([float(i)], y) for i, y in enumerate(labels)],
                             ONE_NUMERIC, oracle)
    if limit is not None:
        stream = LimitedStream(stream, limit)
    return run_prequential(stream, oracle, **kwargs)


# -- prequential ------------------------------------------------------------------

def test_oracle_learner_scores_one_everywhere():
    trace = oracle_run([i % 2 for i in range(500)], report_every=100)
    assert all(r.cum_accuracy == 1.0 for r in trace.records)


def test_majority_class_alternating_labels_hand_simulation():
    labels = [i % 2 for i in range(1001)]
    trace = run_prequential(labeled_stream(labels), MajorityClass(ONE_NUMERIC),
                            report_every=100)
    # hand simulation of test-then-train: sample 0 trains unscored; from then
    # on counts keep class 0 level or ahead, ties go to class 0, so every even
    # seq (label 0) scores correct and every odd seq scores wrong
    counts = [0, 0]
    correct = scored = 0
    for i, y in enumerate(labels):
        if i == 0:
            counts[y] += 1
            continue
        pred = 0 if counts[0] >= counts[1] else 1
        correct += int(pred == y)
        scored += 1
        counts[y] += 1
    assert trace.final.cum_accuracy == pytest.approx(correct / scored, abs=1e-12)
    assert trace.final.cum_accuracy == pytest.approx(0.5, abs=1e-3)


def test_record_count_matches_report_interval():
    trace = oracle_run([0, 1] * 50, limit=100, report_every=10)
    assert len(trace.records) == 10
    assert [r.seq for r in trace.records] == list(range(9, 100, 10))


def test_final_partial_record_emitted():
    trace = oracle_run([0, 1] * 50, report_every=30)
    assert [r.seq for r in trace.records] == [29, 59, 89, 99]


def test_final_metrics_match_bruteforce_recomputation():
    rng = random.Random(0)
    labels = [rng.randrange(3) for _ in range(1000)]
    schema3 = ONE_NUMERIC.__class__(features=ONE_NUMERIC.features,
                                    classes=("0", "1", "2"))
    probe = ProbeLearner(schema3, constant=1)
    trace = run_prequential(labeled_stream(labels, schema3), probe, report_every=100)
    pairs = [(y, 1) for y in labels]  # probe always predicts class 1
    m = ConfusionMatrix(3)
    for t, p in pairs:
        m.update(t, p)
    assert trace.final.cum_accuracy == pytest.approx(m.accuracy(), abs=1e-12)
    assert trace.final.kappa == pytest.approx(m.kappa(), abs=1e-12)


def test_window_spanning_whole_stream_reproduces_cumulative():
    rng = random.Random(1)
    labels = [rng.randrange(2) for _ in range(400)]
    probe = ProbeLearner(ONE_NUMERIC, constant=0)
    trace = run_prequential(labeled_stream(labels), probe,
                            report_every=50, window=400)
    assert trace.final.window_accuracy == pytest.approx(trace.final.cum_accuracy, abs=1e-12)


def test_test_before_train_ordering_per_sample():
    probe = ProbeLearner(ONE_NUMERIC)
    run_prequential(labeled_stream([0, 1, 0, 1, 0, 1]), probe, report_every=2)
    kinds = [kind for kind, _ in probe.calls]
    assert kinds == ["predict", "fit"] * 6
    for i in range(0, len(probe.calls), 2):
        assert probe.calls[i][1] == probe.calls[i + 1][1]  # same sample both calls


def test_pretrain_budget_trains_without_scoring():
    probe = ProbeLearner(ONE_NUMERIC)
    trace = run_prequential(labeled_stream([0] * 100), probe,
                            report_every=10, pretrain=25)
    fits = sum(kind == "fit" for kind, _ in probe.calls)
    predicts = sum(kind == "predict" for kind, _ in probe.calls)
    assert fits == 100
    assert predicts == 75
    assert trace.records[0].seq == 34  # 10th scored sample


def test_unlabeled_sample_raises():
    stream = labeled_stream([0, None, 1])
    with pytest.raises(ValueError, match="unlabeled"):
        run_prequential(stream, ProbeLearner(ONE_NUMERIC))


def test_empty_stream_raises():
    with pytest.raises(ValueError, match="no scorable samples"):
        run_prequential(labeled_stream([]), ProbeLearner(ONE_NUMERIC))
    with pytest.raises(ValueError, match="no scorable samples"):
        evaluate_pretrained(labeled_stream([]), ProbeLearner(ONE_NUMERIC).freeze())
    with pytest.raises(ValueError, match="shorter than one full holdout cycle"):
        run_holdout(labeled_stream([]), ProbeLearner(ONE_NUMERIC), holdout_size=20,
                    period=100)


def test_external_detector_events_enter_trace():
    # constant-wrong learner after a long correct run trips DDM
    labels = [0] * 600 + [1] * 400
    probe = ProbeLearner(ONE_NUMERIC, constant=0)
    trace = run_prequential(labeled_stream(labels), probe,
                            report_every=100, detectors={"ddm": DDM()})
    events = [e for r in trace.records for e in r.drift_events]
    assert any(det == "ddm" and status == "drift" for _, det, status in events)
    drift_seq = min(seq for seq, det, status in events if status == "drift")
    assert 600 <= drift_seq <= 700


def test_trace_determinism():
    def go():
        stream = LimitedStream(SeaGenerator(seed=5), 1500)
        return run_prequential(stream, NaiveBayes(SeaGenerator.schema), report_every=100)

    a, b = go(), go()
    assert [(r.seq, r.cum_accuracy, r.window_accuracy, r.kappa) for r in a.records] == \
           [(r.seq, r.cum_accuracy, r.window_accuracy, r.kappa) for r in b.records]


@pytest.mark.parametrize("evaluate", [
    lambda stream: run_prequential(stream, ProbeLearner(ONE_NUMERIC), report_every=30),
    lambda stream: evaluate_pretrained(stream, ProbeLearner(ONE_NUMERIC).freeze(),
                                       report_every=30),
    lambda stream: run_holdout(stream, ProbeLearner(ONE_NUMERIC), holdout_size=20,
                               period=50),
], ids=["prequential", "pretrained", "holdout"])
def test_max_samples_reads_no_instance_past_the_cap(evaluate):
    # the cap is a LimitedStream around the source
    stream = labeled_stream([0, 1] * 100)
    assert evaluate(LimitedStream(stream, 100)).final.seq == 99
    assert next(stream).seq == 100


# -- holdout ---------------------------------------------------------------------

def test_holdout_cycle_arithmetic():
    labels = [i % 2 for i in range(1000)]
    # stream cap -> records, trained, scored, last record seq; 550 stops
    # inside a training stretch, 590 inside a holdout (a partial record)
    for cap, n_records, n_trained, n_scored, last_seq in (
        (None, 10, 800, 200, 999),
        (550, 5, 450, 100, 499),
        (590, 6, 480, 110, 589),
    ):
        probe = ProbeLearner(ONE_NUMERIC, constant=0)
        stream = labeled_stream(labels)
        if cap is not None:
            stream = LimitedStream(stream, cap)
        trace = run_holdout(stream, probe, holdout_size=20, period=100, audit=True)
        assert len(trace.records) == n_records
        assert len(trace.meta["trained_seqs"]) == n_trained
        assert len(trace.meta["scored_seqs"]) == n_scored
        assert trace.final.seq == last_seq
        assert trace.meta.get("incomplete_final_cycle", False) == (cap is not None)


def test_holdout_never_trains_on_scored_samples():
    labels = [i % 2 for i in range(600)]
    probe = ProbeLearner(ONE_NUMERIC, constant=0)
    trace = run_holdout(labeled_stream(labels), probe, holdout_size=25, period=150,
                        audit=True)
    scored = set(trace.meta["scored_seqs"])
    trained = set(trace.meta["trained_seqs"])
    assert scored and trained
    assert scored.isdisjoint(trained)
    # the audit lists what the learner was really asked (its feature is the seq)
    assert [x[0] for kind, x in probe.calls if kind == "fit"] == trace.meta["trained_seqs"]
    assert [x[0] for kind, x in probe.calls if kind == "predict"] == trace.meta["scored_seqs"]


def test_holdout_oracle_scores_one_per_cycle():
    oracle = OracleLearner(ONE_NUMERIC)
    stream = LabelFeedStream([([float(i)], i % 2) for i in range(500)],
                             ONE_NUMERIC, oracle)
    trace = run_holdout(stream, oracle, holdout_size=10, period=50)
    assert all(r.window_accuracy == 1.0 for r in trace.records)
    assert all(r.cum_accuracy == 1.0 for r in trace.records)


def test_holdout_short_stream_errors():
    with pytest.raises(ValueError, match="shorter than one full"):
        run_holdout(labeled_stream([0, 1] * 20), ProbeLearner(ONE_NUMERIC),
                    holdout_size=20, period=100)


def test_holdout_partial_final_cycle_flagged():
    labels = [i % 2 for i in range(150)]  # one full cycle + half a cycle
    probe = ProbeLearner(ONE_NUMERIC, constant=0)
    trace = run_holdout(labeled_stream(labels), probe, holdout_size=20, period=100)
    assert trace.meta.get("incomplete_final_cycle") is True


def test_holdout_parameter_validation():
    with pytest.raises(ValueError):
        run_holdout(labeled_stream([0, 1]), ProbeLearner(ONE_NUMERIC),
                    holdout_size=0, period=10)
    with pytest.raises(ValueError):
        run_holdout(labeled_stream([0, 1]), ProbeLearner(ONE_NUMERIC),
                    holdout_size=10, period=10)


def test_holdout_tracks_prequential_on_stationary_stream():
    def stream():
        return LimitedStream(SeaGenerator(seed=9), 4000)

    preq = run_prequential(stream(), NaiveBayes(SeaGenerator.schema), report_every=100)
    hold = run_holdout(stream(), NaiveBayes(SeaGenerator.schema),
                       holdout_size=100, period=500)
    tail = preq.records[-1].cum_accuracy
    for record in hold.records[2:]:
        assert abs(record.window_accuracy - tail) <= 0.05


def _agrawal_holdout(cap, tmp_path):
    """A holdout run of oza_bagging_adwin over Agrawal switching concept at 1 500:
    its trace, the trace file's sha256 and the drifts the learner drained."""
    stream = LimitedStream(DriftStream(AgrawalGenerator(seed=1, concept=0),
                                       AgrawalGenerator(seed=2, concept=4),
                                       position=1500, seed=3), cap)
    learner = make_learner("oza_bagging_adwin", stream.schema, seed=1)
    drained = []
    drain = learner.drain_events

    def counting_drain():
        events = drain()
        drained.extend(events)
        return events

    learner.drain_events = counting_drain
    trace = run_holdout(stream, learner, holdout_size=100, period=450)
    path = tmp_path / f"{cap}.csv"
    write_trace(trace, str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return trace, digest, sum(status == "drift" for _, status in drained)


@pytest.mark.parametrize("cap,drifts", [(1900, 19), (2000, 20), (2100, 20)])
def test_holdout_closing_record_keeps_events_of_a_final_training_stretch(tmp_path, cap,
                                                                         drifts):
    # each cap ends inside the training stretch of the fifth cycle (1 800-2 149)
    trace, _, drained = _agrawal_holdout(cap, tmp_path)
    assert trace.drift_count() == drained == drifts
    assert [r.seq for r in trace.records] == [449, 899, 1349, 1799, cap - 1]
    boundary, _, _ = _agrawal_holdout(1800, tmp_path)
    assert trace.records[:4] == boundary.records
    closing = trace.final
    # no instance was scored after the last cycle's record: its scores carry over
    assert (closing.cum_accuracy, closing.window_accuracy, closing.kappa) == (
        boundary.final.cum_accuracy, boundary.final.window_accuracy, boundary.final.kappa)


def test_holdout_run_ending_on_a_cycle_boundary_keeps_its_trace(tmp_path):
    # recorded before the closing record existed
    trace, digest, drained = _agrawal_holdout(1800, tmp_path)
    assert digest == "c190a871146eb43ac7726787a1a320ee7066efeb0eaf94dd4c36fe0db8406625"
    assert trace.drift_count() == drained == 18


# -- pretrained -------------------------------------------------------------------

def test_pretrained_requires_frozen_model():
    with pytest.raises(ValueError, match="frozen"):
        evaluate_pretrained(labeled_stream([0, 1]), NaiveBayes(ONE_NUMERIC))


def test_pretrained_never_mutates_model():
    rule = RuleLearner(ONE_NUMERIC, lambda x: 0).freeze()
    probe = ProbeLearner(ONE_NUMERIC, constant=0)
    probe.freeze()
    evaluate_pretrained(labeled_stream([0, 1, 0, 1]), probe, report_every=2)
    assert all(kind == "predict" for kind, _ in probe.calls)
    assert rule.frozen


def test_only_a_learning_model_reports_its_active_member():
    labels = [0, 1] * 50
    learning = RuleLearner(ONE_NUMERIC, lambda x: 0)
    learning.active_index = 1
    frozen = RuleLearner(ONE_NUMERIC, lambda x: 0).freeze()
    frozen.active_index = 1
    scored = run_prequential(labeled_stream(labels), learning, report_every=25)
    pretrained = evaluate_pretrained(labeled_stream(labels), frozen, report_every=25)
    assert [r.active_learner for r in scored.records] == [1] * 4
    assert [r.active_learner for r in pretrained.records] == [None] * 4


def test_frozen_majority_decays_to_prior_mixture():
    # 1000 samples of class 0 then 1000 of class 1: always-0 ends at 0.5 exactly
    labels = [0] * 1000 + [1] * 1000
    model = RuleLearner(ONE_NUMERIC, lambda x: 0).freeze()
    trace = evaluate_pretrained(labeled_stream(labels), model, report_every=100)
    assert trace.records[9].cum_accuracy == 1.0
    assert trace.final.cum_accuracy == pytest.approx(0.5, abs=1e-12)
    capped = evaluate_pretrained(LimitedStream(labeled_stream(labels), 1500), model,
                                 report_every=100)
    assert [r.seq for r in capped.records] == list(range(99, 1500, 100))
    assert capped.final.cum_accuracy == pytest.approx(1000 / 1500, abs=1e-12)


def test_pretrained_window_accuracy_collapses_after_concept_switch():
    base = StaggerGenerator(concept=0, seed=2)
    post = StaggerGenerator(concept=1, seed=3)
    stream = LimitedStream(DriftStream(base, post, position=2000, width=1, seed=4), 4000)
    prefix = stream.take(1000)
    cart = CartBatch(StaggerGenerator.schema, seed=5)
    train_batch(cart, prefix)
    trace = evaluate_pretrained(stream, cart, report_every=100)
    pre = [r.window_accuracy for r in trace.records if r.seq < 2000]
    post_recs = [r.window_accuracy for r in trace.records if r.seq >= 2200]
    assert min(pre) > 0.95
    assert sum(post_recs) / len(post_recs) < min(pre) - 0.2
