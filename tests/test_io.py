import csv
import hashlib
import math
import random
import tracemalloc
from pathlib import Path

import pytest

from driftstream.cli import main
from driftstream.core import CATEGORICAL, Feature, FeatureSchema, Instance
from driftstream.evaluation import MetricTrace, TraceRecord, run_prequential
from driftstream.generators import AgrawalGenerator, LimitedStream, SeaGenerator, StaggerGenerator
from driftstream.meta import MetaEnsemble
from driftstream.stream_io import (
    _BLOCK,
    CsvReplayStream,
    DatasetError,
    DatasetFile,
    _ColumnScan,
    _conversion_error,
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
    write_trace(_trace(10), path)
    lines = Path(path).read_text().strip().splitlines()
    assert len(lines) == 11
    assert lines[0] == "seq,cum_accuracy,window_accuracy,kappa,drift,active_learner"


def test_csv_round_trip_reproduces_trace(tmp_path):
    path = str(tmp_path / "t.csv")
    trace = _trace(10)
    write_trace(trace, path)
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
    write_trace(trace, path)
    back = read_trace(path)
    assert [(r.seq, r.cum_accuracy, r.window_accuracy, r.kappa, r.drift_events,
             r.active_learner) for r in back.records] == \
           [(r.seq, r.cum_accuracy, r.window_accuracy, r.kappa, r.drift_events,
             r.active_learner) for r in trace.records]


_TRACE_HEADER = "seq,cum_accuracy,window_accuracy,kappa,drift,active_learner\n"


@pytest.mark.parametrize("body,message", [
    ("", "empty file"),
    (_TRACE_HEADER, "the trace has no records"),
    (_TRACE_HEADER + "100,0.5,0.5,0.0,,\n200,0.5,0.5\n", "row 2 has 3 fields, header has 6"),
    (_TRACE_HEADER + "100,0.5,half,0.0,,\n", "row 1: could not convert string to float"),
    (_TRACE_HEADER + "100,0.5,0.5,0.0,103-adwin,\n", "row 1: not enough values to unpack"),
    (_TRACE_HEADER + "100,0.5,0.5,0.0,,\n200," + "9" * 140_000 + ",0.5,0.0,,\n",
     "row 2: field larger than field limit"),
])
def test_malformed_csv_trace_names_path_and_row(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_trace(str(path))
    assert str(err.value).startswith(f"{path}: ")
    assert message in str(err.value)


def test_csv_trace_skips_blank_lines_and_counts_them_in_row_numbers(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(_trace(), str(path))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:3] + ["\n"] + lines[3:] + ["\n"]), encoding="utf-8")
    assert read_trace(str(path)).records == _trace().records
    path.write_text("".join(lines[:3] + ["\n", "100,0.5,half,0.0,,\n"]), encoding="utf-8")
    with pytest.raises(ValueError, match=r": row 4: could not convert string to float"):
        read_trace(str(path))


def test_trace_that_is_not_utf8_names_its_file(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(_trace(), str(path))
    path.write_bytes(path.read_bytes().replace(b"adwin", b"adw\xffn"))
    with pytest.raises(ValueError) as err:
        read_trace(str(path))
    assert str(err.value).startswith(f"{path}: ")
    assert "byte 0xff" in str(err.value)


def test_empty_trace_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_trace(MetricTrace(), str(tmp_path / "x.csv"))


# -- block reads against the row-by-row reference ------------------------------------
#
# The two functions below are the row-by-row reads that the block reads replaced,
# kept as the reference: a block read must leave every column scan, class order,
# instance and error exactly as they do.

def _reference_read(path, label_column=None):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        if not header:
            raise DatasetError(f"{path}: the header line is blank")
        width = len(header)
        label = header[-1] if label_column is None else label_column
        label_index = header.index(label) if label in header else None
        scans = [_ColumnScan(col) for col in range(width) if col != label_index]
        classes = {}
        n_rows = rowno = 0
        try:
            for rowno, row in enumerate(reader, start=1):
                if not row:
                    continue
                if len(row) != width:
                    raise DatasetError(
                        f"{path}: row {rowno} has {len(row)} fields, header has {width}")
                n_rows += 1
                for scan in scans:
                    scan.see(row[scan.col], rowno)
                if label_index is not None:
                    classes.setdefault(row[label_index])
        except csv.Error as exc:
            raise DatasetError(f"{path}: row {rowno + 1}: {exc}") from None
    if not n_rows:
        raise DatasetError(f"{path}: no data rows")
    if label_index is None:
        raise DatasetError(f"{path}: label column {label_column!r} not in header")
    return DatasetFile(path=path, header=header, label_column=label,
                       scans=scans, classes=tuple(classes))


def _reference_replay(dataset, schema):
    path, width = dataset.path, len(dataset.header)
    if schema.n_features != width - 1:
        raise DatasetError(f"{path}: {width - 1} feature columns, "
                           f"schema declares {schema.n_features}")
    label_index = dataset.label_index
    converters = [
        float if f.is_numeric else {v: float(i) for i, v in enumerate(f.values)}.__getitem__
        for f in schema.features
    ]
    converters.insert(label_index, {c: i for i, c in enumerate(schema.classes)}.__getitem__)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != dataset.header:
            raise DatasetError(f"{path}: header changed since the file was read")
        seq = rowno = 0
        rows = enumerate(reader, start=1)
        while True:
            try:
                rowno, row = next(rows)
            except StopIteration:
                return
            except csv.Error as exc:
                raise DatasetError(f"{path}: row {rowno + 1}: {exc}") from None
            if not row:
                continue
            if len(row) != width:
                raise DatasetError(f"{path}: row {rowno} has {len(row)} fields, header has {width}")
            try:
                x = [convert(token) for convert, token in zip(converters, row)]
            except (ValueError, KeyError):
                raise _conversion_error(dataset, schema, converters, rowno, row) from None
            y = x.pop(label_index)
            if not all(map(math.isfinite, x)):
                j = next(j for j, value in enumerate(x) if not math.isfinite(value))
                raise DatasetError(
                    f"{path}: row {rowno}: {row[dataset.feature_columns[j]]!r} is not "
                    f"a finite number for feature {schema.features[j].name!r}"
                )
            yield Instance(x, y, seq)
            seq += 1


def _read_outcome(read, path, label_column):
    """The column scans and classes a read leaves, or the error it raises."""
    try:
        dataset = read(path, label_column)
    except DatasetError as exc:
        return type(exc), str(exc)
    scans = [(s.col, s.numeric_seen, s.first_bad_row, None if s.tokens is None else list(s.tokens))
             for s in dataset.scans]
    return scans, dataset.classes


def _replay_outcome(instances):
    """Each instance's repr(x), y and seq up to the end or the error, and the error."""
    got = []
    try:
        for inst in instances:
            got.append((repr(inst.x), inst.y, inst.seq))
    except DatasetError as exc:
        return got, (type(exc), str(exc))
    return got, None


_HEADER = ["x1", "color", "x2", "cls"]
_N_ROWS = 4 * _BLOCK + 37
# the first row of a block, its last row and the row after it (numbered from 1)
_AT = (2 * _BLOCK + 1, 3 * _BLOCK, 3 * _BLOCK + 1)


def _clean_rows():
    rng = random.Random(7)
    return [[repr(rng.uniform(-5.0, 5.0)), rng.choice("rg"), str(rng.randrange(100)),
             rng.choice("ba")] for _ in range(_N_ROWS)]


def _set(col, token):
    def fault(rows, i):
        rows[i][_HEADER.index(col)] = token
    return fault


def _late(rows, i):
    # categories and classes that the file has nowhere before row i + 1, first
    # seen out of sorted order
    for k, row in enumerate(rows[i:]):
        row[1], row[3] = ("blue", "d") if k % 2 else ("amber", "e")


def _several(rows, i):
    rows[i - 2] = []
    _set("x1", "inf")(rows, i)
    _set("color", "blue")(rows, i + 2)


_FAULTS = {
    "blank": lambda rows, i: rows.__setitem__(i, []),
    "wide": lambda rows, i: rows[i].append("9"),
    "narrow": lambda rows, i: rows[i].pop(),
    "unknown_class": _set("cls", "c"),
    "unknown_category": _set("color", "blue"),
    "word_in_numeric": _set("x2", "twelve"),
    "number_in_categorical": _set("color", "3"),
    "nan": _set("x2", "nan"),
    "inf": _set("x1", "-inf"),
    "late_category_and_class": _late,
    "several": _several,
}


def _write(path, rows, label_first):
    order = [3, 0, 1, 2] if label_first else [0, 1, 2, 3]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([_HEADER[j] for j in order])
        for row in rows:
            writer.writerow([row[j] for j in order] if len(row) == 4 else row)
    return str(path)


@pytest.mark.parametrize("label_first", [False, True], ids=["label_last", "label_first"])
@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("at", _AT, ids=["block_first_row", "block_last_row", "after_block"])
def test_block_reads_match_row_by_row(tmp_path, label_first, fault, at):
    label = "cls" if label_first else None
    clean = _write(tmp_path / "clean.csv", _clean_rows(), label_first)
    rows = _clean_rows()
    _FAULTS[fault](rows, at - 1)
    path = _write(tmp_path / "faulty.csv", rows, label_first)

    expected = _read_outcome(_reference_read, path, label)
    assert _read_outcome(read_dataset, path, label) == expected
    if not isinstance(expected[0], list):
        return  # the read failed, so there is nothing to replay
    dataset = _reference_read(path, label)
    # the clean file's schema makes the new tokens faults; the file's own, when
    # one can be inferred, takes them as late categories and classes
    schemas = [infer_schema(_reference_read(clean, label))]
    try:
        schemas.append(infer_schema(dataset))
    except DatasetError:
        pass
    for schema in schemas:
        expected = _replay_outcome(_reference_replay(dataset, schema))
        assert _replay_outcome(CsvReplayStream(dataset, schema)) == expected
        assert len(expected[0]) > _BLOCK  # blocks before the fault were read whole


def test_stream_stopping_before_a_bad_row_in_the_same_block_raises_nothing(tmp_path):
    rows = _clean_rows()
    bad = 2 * _BLOCK + 10
    _set("x1", "inf")(rows, bad - 1)
    dataset = read_dataset(_write(tmp_path / "s.csv", rows, False))
    schema = infer_schema(dataset)
    kept = list(LimitedStream(CsvReplayStream(dataset, schema), bad - 1))
    assert [inst.seq for inst in kept] == list(range(bad - 1))
    got, error = _replay_outcome(CsvReplayStream(dataset, schema))
    assert len(got) == bad - 1
    assert error == (DatasetError, f"{dataset.path}: row {bad}: 'inf' is not "
                                   f"a finite number for feature 'x1'")


def test_dropped_stream_closes_its_file(tmp_path, monkeypatch):
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr("driftstream.stream_io.open", recording_open, raising=False)
    dataset = read_dataset(_write(tmp_path / "d.csv", _clean_rows(), False))
    stream = CsvReplayStream(dataset, infer_schema(dataset))
    next(stream)  # the replay holds its first block
    assert [fh.closed for fh in opened] == [True, False]
    del stream
    assert opened[1].closed


def test_malformed_line_comes_after_the_rows_before_it(tmp_path):
    # a field over csv's size limit makes the reader itself raise
    path = tmp_path / "m.csv"
    dataset = read_dataset(_write(path, _clean_rows(), False))
    schema = infer_schema(dataset)
    rows = _clean_rows()
    rows[2 * _BLOCK + 9][1] = "r" * (csv.field_size_limit() + 1)
    _write(path, rows, False)
    expected = _replay_outcome(_reference_replay(dataset, schema))
    assert len(expected[0]) == 2 * _BLOCK + 9
    assert expected[1] == (DatasetError, f"{path}: row {2 * _BLOCK + 10}: field larger "
                                         f"than field limit ({csv.field_size_limit()})")
    assert _replay_outcome(CsvReplayStream(dataset, schema)) == expected
    assert _read_outcome(read_dataset, str(path), None) == \
        _read_outcome(_reference_read, str(path), None)


def test_read_names_the_row_of_a_field_over_the_size_limit(tmp_csv):
    long = "r" * (csv.field_size_limit() + 1)
    path = tmp_csv("long.csv", f"x,cls\n1.0,a\n\n2.0,b\n{long},a\n3.0,b\n")
    with pytest.raises(DatasetError) as info:
        read_dataset(path)
    assert str(info.value) == (f"{path}: row 4: field larger than field limit "
                               f"({csv.field_size_limit()})")
    with pytest.raises(DatasetError, match=r"header line: field larger than field limit"):
        read_dataset(tmp_csv("long_header.csv", f"x,{long}\n1.0,a\n"))


def test_replay_names_the_row_of_a_field_over_the_size_limit(tmp_csv):
    path = tmp_csv("grown.csv", "x,cls\n1.0,a\n2.0,b\n")
    dataset = read_dataset(path)
    schema = infer_schema(dataset)
    with open(path, "a", encoding="utf-8") as fh:  # the row comes after the read
        fh.write("\n" + "7" * (csv.field_size_limit() + 1) + ",a\n")
    got, error = _replay_outcome(CsvReplayStream(dataset, schema))
    assert [(x, y) for x, y, _ in got] == [("[1.0]", 0), ("[2.0]", 1)]
    assert error == (DatasetError, f"{path}: row 4: field larger than field limit "
                                   f"({csv.field_size_limit()})")


def test_blank_header_line_is_a_dataset_error(tmp_csv):
    for text in ("\nx,cls\n1.0,a\n", "\n"):
        path = tmp_csv("blank.csv", text)
        with pytest.raises(DatasetError) as info:
            read_dataset(path)
        assert str(info.value) == f"{path}: the header line is blank"
        with pytest.raises(DatasetError, match="the header line is blank"):
            read_dataset(path, label_column="cls")


# -- golden traces of CSV-source runs -------------------------------------------------
#
# sha256 of the trace each run writes, recorded when the rows were read one at a
# time; reading them a block at a time must leave every byte as it was.

def _blank_every(path, every):
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, line in enumerate(lines):
            fh.write(line)
            if i and i % every == 0:
                fh.write("\n")


def _golden_data(tmp_path, name):
    path = str(tmp_path / f"{name}.csv")
    if name == "agrawal":
        write_dataset(AgrawalGenerator(concept=1, seed=4).take(3000), AgrawalGenerator.schema,
                      path)
    elif name == "sea_blank":
        write_dataset(SeaGenerator(concept=2, noise=0.1, seed=5).take(3000),
                      SeaGenerator.schema, path)
        _blank_every(path, 97)
    else:
        write_dataset(StaggerGenerator(concept=1, seed=6).take(2000), StaggerGenerator.schema,
                      path)
    return path


_GOLDEN = {
    "batch_pretrained": ("agrawal", """
experiment = batch_pretrained
prefix_size = 500
learner.algorithm = cart_batch
""", "b0a3ffb532ec98b97c638239da520056f66cc39e6f4dd9110dde6eeb36a8ebed"),
    "cash_pretrained": ("agrawal", """
experiment = cash_pretrained
prefix_size = 600
cash.space.naive_bayes =
cash.space.majority_class =
""", "546333828d751d95120e1a76f33ca6cb2f2ec8e8e5da65c56da4a33f96dd9544"),
    "online": ("sea_blank", """
experiment = online
learner.algorithm = hoeffding_adaptive_tree
eval.detectors = adwin,ddm
""", "ee8649d8aa04ed3f68c9385ee0e129109f7d479e05e66dd25098e38af8784945"),
    "meta_online": ("stagger", """
experiment = meta_online
""", "ea18e35ac91413ff8ce143187f9cdc0b42834e778be44cea8b1d7058a0974745"),
}


@pytest.mark.parametrize("experiment", sorted(_GOLDEN))
def test_csv_source_traces_are_unchanged(tmp_path, experiment):
    data, lines, digest = _GOLDEN[experiment]
    cfg = tmp_path / "g.cfg"
    cfg.write_text(f"""
seed = 3
source.kind = csv
source.path = {_golden_data(tmp_path, data)}
eval.report_every = 50
output.path = g.csv
{lines}""", encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    if experiment == "cash_pretrained":
        assert "naive_bayes" in (tmp_path / "g.leaderboard.json").read_text()
    assert hashlib.sha256((tmp_path / "g.csv").read_bytes()).hexdigest() == digest


# Online runs on a generator source, with all four detectors: the ADWIN paths
# inside the adaptive tree and the ADWIN bagging members, which no CSV golden
# run above reaches. Recorded before ADWIN's mean-aware quiet period.
_ADWIN_GOLDEN = {
    "hoeffding_adaptive_tree": (3000, "a058ab14beacbbf790402372cc08d02550b7064d59cc6b5c53b1c527587e1917"),
    "oza_bagging_adwin": (3000, "9d39776cfcfea12eb018fbcf0ee1c08e3bb786fe441ccd4ff578ae7703265632"),
    "leveraging_bagging": (1000, "c425f06d689d2cd8e9fa33c19c854f6e0571f7efb85ea89ce76bd64099380b6c"),
}


@pytest.mark.parametrize("learner", sorted(_ADWIN_GOLDEN))
def test_generator_source_adwin_traces_are_unchanged(tmp_path, learner):
    n, digest = _ADWIN_GOLDEN[learner]
    cfg = tmp_path / "g.cfg"
    cfg.write_text(f"""
experiment = online
seed = 7
source.kind = generator
source.family = sea
source.concept = 0
source.noise = 0.1
source.n = {n}
source.drift.concept = 3
source.drift.position = {n // 2}
learner.algorithm = {learner}
eval.detectors = page_hinkley,ddm,eddm,adwin
eval.report_every = 50
output.path = g.csv
""", encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "g.csv").read_bytes()).hexdigest() == digest
