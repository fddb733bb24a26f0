import tracemalloc

import pytest

from driftstream.core import CATEGORICAL, Feature, FeatureSchema
from driftstream.evaluation import MetricTrace, TraceRecord, run_prequential
from driftstream.generators import AgrawalGenerator, LimitedStream, SeaGenerator, StaggerGenerator
from driftstream.meta import MetaEnsemble
from driftstream.stream_io import (
    CsvReplayStream,
    DatasetError,
    infer_schema,
    read_dataset,
    read_trace,
    replay_csv,
    write_dataset,
    write_trace,
)
from conftest import ONE_NUMERIC, RuleLearner, ThresholdConceptStream

ONE_NUMERIC_CLS = FeatureSchema(features=(Feature("x"),), label_name="cls", classes=("0", "1"))


# -- schema inference ---------------------------------------------------------

def test_infer_numeric_column(tmp_csv):
    path = tmp_csv("a.csv", "x,cls\n1.5,0\n2.0,1\n")
    schema = infer_schema(read_dataset(path))
    assert schema.features[0].is_numeric


def test_infer_categorical_column(tmp_csv):
    path = tmp_csv("b.csv", "color,cls\nred,0\nblue,1\nred,0\n")
    schema = infer_schema(read_dataset(path))
    feat = schema.features[0]
    assert feat.kind == CATEGORICAL
    assert feat.arity == 2
    assert feat.values == ("red", "blue")  # first-seen order


def test_infer_label_classes_in_file_order(tmp_csv):
    path = tmp_csv("c.csv", "x,cls\n1,0\n2,1\n3,0\n")
    schema = infer_schema(read_dataset(path))
    assert schema.classes == ("0", "1")


def test_infer_mixed_column_reports_row(tmp_csv):
    path = tmp_csv("d.csv", "x,cls\n1.5,0\nred,1\n2.0,0\n")
    with pytest.raises(DatasetError, match="row 2"):
        infer_schema(read_dataset(path))


def test_infer_label_column_override(tmp_csv):
    path = tmp_csv("e.csv", "cls,x\n0,1.0\n1,2.0\n")
    ds = read_dataset(path, label_column="cls")
    schema = infer_schema(ds)
    assert schema.label_name == "cls"
    assert schema.features[0].name == "x"


def test_read_dataset_errors(tmp_csv):
    with pytest.raises(DatasetError, match="empty"):
        read_dataset(tmp_csv("f.csv", ""))
    with pytest.raises(DatasetError, match="no data rows"):
        read_dataset(tmp_csv("g.csv", "a,b\n"))
    with pytest.raises(DatasetError, match="label column"):
        read_dataset(tmp_csv("h.csv", "a,b\n1,2\n"), label_column="nope")
    with pytest.raises(DatasetError, match="row 2"):
        read_dataset(tmp_csv("i.csv", "a,b\n1,2\n1,2,3\n"))


# -- replay ---------------------------------------------------------------------

def test_replay_yields_rows_in_order_then_stops(tmp_csv):
    path = tmp_csv("j.csv", "x,cls\n1,0\n2,1\n3,0\n")
    stream = replay_csv(path)
    insts = list(stream)
    assert len(insts) == 3
    assert [i.seq for i in insts] == [0, 1, 2]
    assert [i.x for i in insts] == [[1.0], [2.0], [3.0]]
    with pytest.raises(StopIteration):
        next(stream)


def test_replay_twice_is_identical(tmp_csv):
    path = tmp_csv("k.csv", "x,cls\n1,0\n2,1\n")
    a = [(i.x, i.y, i.seq) for i in replay_csv(path)]
    b = [(i.x, i.y, i.seq) for i in replay_csv(path)]
    assert a == b


def test_replay_fails_fast_naming_row(tmp_csv):
    schema = FeatureSchema(
        features=(Feature("color", CATEGORICAL, 2, ("red", "blue")),),
        label_name="cls", classes=("0", "1"),
    )
    path = tmp_csv("l.csv", "color,cls\nred,0\ngreen,1\nblue,0\n")
    stream = replay_csv(read_dataset(path), schema)
    next(stream)
    with pytest.raises(DatasetError, match="row 2"):
        next(stream)


def test_replay_unknown_class_reports_row(tmp_csv):
    schema = FeatureSchema(features=(Feature("x"),), label_name="cls", classes=("0", "1"))
    path = tmp_csv("m.csv", "x,cls\n1,0\n2,7\n")
    stream = replay_csv(read_dataset(path), schema)
    next(stream)
    with pytest.raises(DatasetError, match="row 2"):
        next(stream)


def test_generated_dataset_reinfers_equivalent_schema(tmp_path):
    gen = StaggerGenerator(concept=1, seed=3)
    path = str(tmp_path / "stagger.csv")
    write_dataset(gen.take(200), gen.schema, path)
    inferred = infer_schema(read_dataset(path))
    assert inferred.n_features == gen.schema.n_features
    assert inferred.n_classes == gen.schema.n_classes
    for declared, got in zip(gen.schema.features, inferred.features):
        assert got.kind == declared.kind
        assert got.arity == declared.arity
        assert set(got.values) == set(declared.values)


def test_generated_mixed_dataset_round_trips_numeric_kinds(tmp_path):
    gen = AgrawalGenerator(concept=0, seed=1)
    path = str(tmp_path / "agrawal.csv")
    insts = gen.take(500)
    write_dataset(insts, gen.schema, path)
    inferred = infer_schema(read_dataset(path))
    kinds = [f.kind for f in inferred.features]
    assert kinds == [f.kind for f in gen.schema.features]
    replayed = list(replay_csv(read_dataset(path), gen.schema))
    assert [i.y for i in replayed] == [i.y for i in insts]
    assert replayed[0].x == insts[0].x  # repr round-trip is exact


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
def test_replay_non_finite_value_names_file_and_row(tmp_csv, token):
    path = tmp_csv("n.csv", f"x,cls\n1,0\n{token},1\n")
    stream = replay_csv(path)
    next(stream)
    with pytest.raises(DatasetError, match=rf"n\.csv: row 2: '{token}' is not a finite number"):
        next(stream)


def test_row_numbers_count_blank_lines_at_every_step(tmp_csv):
    # the same data line (row 3, after a blank line) is named by all three steps
    def file(name, bad):
        return tmp_csv(name, f"x,cls\n1.0,0\n\n{bad}\n2.0,1\n")

    with pytest.raises(DatasetError, match="row 3 has 3 fields"):
        read_dataset(file("r.csv", "3.0,0,9"))
    with pytest.raises(DatasetError, match="first non-numeric at row 3"):
        infer_schema(read_dataset(file("s.csv", "red,0")))
    stream = replay_csv(file("t.csv", "3.0,7"), ONE_NUMERIC_CLS)
    next(stream)
    with pytest.raises(DatasetError, match="row 3: unknown class"):
        next(stream)


def test_row_length_error_mid_file_raises_before_replay(tmp_csv):
    rows = [f"{i}.5,{i % 2}" for i in range(4000)]
    rows[2500] += ",9"
    path = tmp_csv("mid.csv", "x,cls\n" + "\n".join(rows) + "\n")
    with pytest.raises(DatasetError, match="row 2501 has 3 fields"):
        read_dataset(path)
    with pytest.raises(DatasetError, match="row 2501"):
        replay_csv(path)  # reads the whole file before it yields anything


def test_replay_rejects_a_schema_or_header_that_no_longer_fits(tmp_csv):
    path = tmp_csv("w.csv", "x,cls\n1,0\n2,1\n")
    two = FeatureSchema(features=(Feature("x"), Feature("z")), label_name="cls")
    with pytest.raises(DatasetError, match="1 feature columns, schema declares 2"):
        next(replay_csv(read_dataset(path), two))
    dataset = read_dataset(path)
    tmp_csv("w.csv", "y,cls\n1,0\n2,1\n")  # the file changes between the two reads
    with pytest.raises(DatasetError, match="header changed"):
        next(replay_csv(dataset, ONE_NUMERIC_CLS))


def test_reading_and_replaying_holds_no_rows(tmp_path):
    def peak_bytes(n):
        path = str(tmp_path / f"sea{n}.csv")
        write_dataset(LimitedStream(SeaGenerator(seed=1), n), SeaGenerator.schema, path)
        tracemalloc.start()
        try:
            dataset = read_dataset(path)
            for _ in CsvReplayStream(dataset, infer_schema(dataset)):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(4_000), peak_bytes(40_000)
    # holding the 36 000 extra rows would take megabytes
    assert large - small < 64 * 1024, (small, large)


# -- traces -------------------------------------------------------------------------

def _trace(n=10):
    records = []
    for i in range(n):
        records.append(TraceRecord(
            seq=(i + 1) * 100 - 1,
            cum_accuracy=0.5 + i / 1000 * 1.2345678901,
            window_accuracy=0.4 + i / 100,
            kappa=0.1 * i - 0.05,
            drift_events=[(i * 100 + 3, "adwin", "drift")] if i == 4 else [],
            active_learner=2 if i >= 5 else None,
        ))
    return MetricTrace(records=records, meta={"dataset": "d", "learner": "l", "seed": 1})


def test_csv_trace_has_header_plus_row_per_record(tmp_path):
    path = str(tmp_path / "t.csv")
    write_trace(_trace(10), path, "csv")
    lines = open(path).read().strip().splitlines()
    assert len(lines) == 11
    assert lines[0] == "seq,cum_accuracy,window_accuracy,kappa,drift,active_learner"


def test_csv_round_trip_reproduces_trace(tmp_path):
    path = str(tmp_path / "t.csv")
    trace = _trace(10)
    write_trace(trace, path, "csv")
    back = read_trace(path)
    assert [(r.seq, r.cum_accuracy, r.window_accuracy, r.kappa, r.drift_events,
             r.active_learner) for r in back.records] == \
           [(r.seq, r.cum_accuracy, r.window_accuracy, r.kappa, r.drift_events,
             r.active_learner) for r in trace.records]


def test_csv_round_trip_keeps_selector_switches(tmp_path):
    experts = [RuleLearner(ONE_NUMERIC, lambda x: int(x[0] > 0.8)),
               RuleLearner(ONE_NUMERIC, lambda x: int(x[0] > 0.4))]
    ens = MetaEnsemble(ONE_NUMERIC, experts, mode="last_best", window=300)
    trace = run_prequential(ThresholdConceptStream(1200, duration=600, seed=6), ens,
                            report_every=100)
    events = [e for r in trace.records for e in r.drift_events]
    assert any(det == "selector" and status.startswith("switch:") for _, det, status in events)
    path = str(tmp_path / "meta.csv")
    write_trace(trace, path, "csv")
    back = read_trace(path)
    assert [(r.seq, r.cum_accuracy, r.window_accuracy, r.kappa, r.drift_events,
             r.active_learner) for r in back.records] == \
           [(r.seq, r.cum_accuracy, r.window_accuracy, r.kappa, r.drift_events,
             r.active_learner) for r in trace.records]


def test_json_round_trip_keeps_meta(tmp_path):
    path = str(tmp_path / "t.json")
    trace = _trace(5)
    write_trace(trace, path, "json")
    back = read_trace(path)
    assert back.meta == trace.meta
    assert [(r.seq, r.cum_accuracy) for r in back.records] == \
           [(r.seq, r.cum_accuracy) for r in trace.records]
    assert back.records[4].drift_events == [(403, "adwin", "drift")]


def test_empty_trace_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_trace(MetricTrace(), str(tmp_path / "x.csv"), "csv")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_trace(_trace(1), str(tmp_path / "x.bin"), "bin")
