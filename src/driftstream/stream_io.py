"""Dataset ingestion, in-process topic replay, and metric-trace files.

CSV dialect: comma separator, first row header, "." decimal, UTF-8. The label
column defaults to the last column. Categorical feature values are written as
their display tokens so a generated file re-infers to an equivalent schema.
"""

from __future__ import annotations

import csv
import json
import threading
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    CATEGORICAL,
    Feature,
    FeatureSchema,
    Instance,
    validate_instance,
)
from .evaluation import MetricTrace, TraceRecord
from .generators import InstanceStream

TRACE_COLUMNS = ("seq", "cum_accuracy", "window_accuracy", "kappa", "drift", "active_learner")
TRACE_VERSION = 1


class DatasetError(ValueError):
    pass


class TopicClosedError(RuntimeError):
    pass


class TopicOverflowError(RuntimeError):
    pass


@dataclass
class DatasetFile:
    path: str
    header: list[str]
    label_column: str
    rows: list[list[str]]

    @property
    def label_index(self) -> int:
        return self.header.index(self.label_column)

    @property
    def feature_columns(self) -> list[int]:
        return [i for i in range(len(self.header)) if i != self.label_index]


def read_dataset(path: str, label_column: Optional[str] = None) -> DatasetFile:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        rows = []
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise DatasetError(f"{path}: row {lineno} has {len(row)} fields, header has {len(header)}")
            rows.append(row)
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    if label_column is None:
        label_column = header[-1]
    elif label_column not in header:
        raise DatasetError(f"{path}: label column {label_column!r} not in header")
    return DatasetFile(path=path, header=header, label_column=label_column, rows=rows)


def _parses_numeric(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def infer_schema(dataset: DatasetFile, sample_rows: Optional[int] = None) -> FeatureSchema:
    """Type feature columns from the data: numeric iff every sampled value
    parses as a real, categorical from the observed tokens otherwise. A column
    mixing numeric and non-numeric tokens is reported with its row number.

    Label classes are the distinct label values over the whole file, in
    first-seen order.
    """
    sampled = dataset.rows if sample_rows is None else dataset.rows[:sample_rows]
    if not sampled:
        raise DatasetError(f"{dataset.path}: no rows to sample")
    features = []
    for col in dataset.feature_columns:
        name = dataset.header[col]
        numeric_seen = False
        tokens: dict[str, None] = {}
        first_bad_row = None
        for rowno, row in enumerate(sampled, start=1):
            if _parses_numeric(row[col]):
                numeric_seen = True
            elif first_bad_row is None:
                first_bad_row = rowno
            tokens.setdefault(row[col])
        if first_bad_row is None:
            features.append(Feature(name))
        elif numeric_seen:
            raise DatasetError(
                f"{dataset.path}: column {name!r} mixes numeric and non-numeric "
                f"values (first non-numeric at row {first_bad_row})"
            )
        else:
            values = tuple(tokens)
            if len(values) < 2:
                raise DatasetError(f"{dataset.path}: column {name!r} has a single value")
            features.append(Feature(name, CATEGORICAL, len(values), values))
    classes: dict[str, None] = {}
    label_index = dataset.label_index
    for row in dataset.rows:
        classes.setdefault(row[label_index])
    if len(classes) < 2:
        raise DatasetError(f"{dataset.path}: label column has fewer than 2 classes")
    return FeatureSchema(
        features=tuple(features),
        label_name=dataset.label_column,
        classes=tuple(classes),
    )


class CsvReplayStream(InstanceStream):
    """Finite stream over a dataset's rows, validated against a schema."""

    def __init__(self, dataset: DatasetFile, schema: FeatureSchema):
        super().__init__()
        self.schema = schema
        self._dataset = dataset
        self._row = 0
        self._feature_columns = dataset.feature_columns
        self._label_index = dataset.label_index
        self._value_maps = [
            {v: float(i) for i, v in enumerate(f.values)} if not f.is_numeric else None
            for f in schema.features
        ]

    def __next__(self) -> Instance:
        if self._row >= len(self._dataset.rows):
            raise StopIteration
        row = self._dataset.rows[self._row]
        self._row += 1
        rowno = self._row
        x = []
        for j, col in enumerate(self._feature_columns):
            token = row[col]
            feat = self.schema.features[j]
            if feat.is_numeric:
                try:
                    x.append(float(token))
                except ValueError:
                    raise DatasetError(
                        f"{self._dataset.path}: row {rowno}: {token!r} is not numeric "
                        f"for feature {feat.name!r}"
                    ) from None
            else:
                try:
                    x.append(self._value_maps[j][token])
                except KeyError:
                    raise DatasetError(
                        f"{self._dataset.path}: row {rowno}: value {token!r} outside the "
                        f"declared categories of {feat.name!r}"
                    ) from None
        label = row[self._label_index]
        try:
            y = self.schema.class_index(label)
        except Exception:
            raise DatasetError(
                f"{self._dataset.path}: row {rowno}: unknown class {label!r}"
            ) from None
        inst = self._emit(x, y)
        validate_instance(inst, self.schema)
        return inst


def replay_csv(path_or_dataset, schema: Optional[FeatureSchema] = None,
               label_column: Optional[str] = None) -> CsvReplayStream:
    dataset = (
        path_or_dataset
        if isinstance(path_or_dataset, DatasetFile)
        else read_dataset(path_or_dataset, label_column)
    )
    if schema is None:
        schema = infer_schema(dataset)
    return CsvReplayStream(dataset, schema)


def write_dataset(instances: Iterable[Instance], schema: FeatureSchema, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in schema.features] + [schema.label_name])
        for inst in instances:
            row = []
            for feat, v in zip(schema.features, inst.x):
                row.append(repr(v) if feat.is_numeric else feat.value_name(int(v)))
            row.append(schema.classes[inst.y])
            writer.writerow(row)


# ---------------------------------------------------------------------------
# In-process topic replay

class TopicStream(InstanceStream):
    """One subscriber's cursor over a topic; blocks on an open, drained topic."""

    def __init__(self, topic: "Topic"):
        super().__init__()
        self.schema = topic.schema
        self._topic = topic
        self._cursor = 0

    def __next__(self) -> Instance:
        inst = self._topic._get(self._cursor)
        if inst is None:
            raise StopIteration
        self._cursor += 1
        return inst


class Topic:
    """Append-only in-process message log with independent subscriber cursors.

    Instances are delivered in publication order. An optional capacity makes
    overflow loud instead of silently dropping. Closing ends every subscriber
    once it has drained the buffer.
    """

    def __init__(self, name: str, schema: Optional[FeatureSchema] = None,
                 capacity: Optional[int] = None):
        self.name = name
        self.schema = schema
        self.capacity = capacity
        self._buffer: list[Instance] = []
        self._closed = False
        self._cond = threading.Condition()

    def publish(self, inst: Instance) -> "Topic":
        with self._cond:
            if self._closed:
                raise TopicClosedError(f"topic {self.name!r} is closed")
            if self.capacity is not None and len(self._buffer) >= self.capacity:
                raise TopicOverflowError(f"topic {self.name!r} is full ({self.capacity})")
            self._buffer.append(inst)
            self._cond.notify_all()
        return self

    def publish_all(self, instances: Iterable[Instance]) -> "Topic":
        for inst in instances:
            self.publish(inst)
        return self

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def subscribe(self) -> TopicStream:
        return TopicStream(self)

    def __len__(self) -> int:
        with self._cond:
            return len(self._buffer)

    def _get(self, cursor: int) -> Optional[Instance]:
        with self._cond:
            while cursor >= len(self._buffer):
                if self._closed:
                    return None
                self._cond.wait()
            return self._buffer[cursor]


class TopicHub:
    """Registry of named topics (the in-process stand-in for a broker)."""

    def __init__(self):
        self._topics: dict[str, Topic] = {}

    def create(self, name: str, schema: Optional[FeatureSchema] = None,
               capacity: Optional[int] = None) -> Topic:
        if name in self._topics:
            raise ValueError(f"topic {name!r} already exists")
        topic = Topic(name, schema, capacity)
        self._topics[name] = topic
        return topic

    def get(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise ValueError(f"no such topic {name!r}") from None

    def subscribe(self, name: str) -> TopicStream:
        return self.get(name).subscribe()


# ---------------------------------------------------------------------------
# Trace files

def _encode_events(events: list[tuple[int, str, str]]) -> str:
    return "|".join(f"{seq}:{det}:{status}" for seq, det, status in events)

def _decode_events(cell: str) -> list[tuple[int, str, str]]:
    if not cell:
        return []
    out = []
    for part in cell.split("|"):
        seq, det, status = part.split(":", 2)  # a status may hold ":" (switch:<i>)
        out.append((int(seq), det, status))
    return out


def write_trace(trace: MetricTrace, path: str, format: str = "csv") -> None:
    """Serialize a trace; CSV carries the records, JSON adds the meta block."""
    if not trace.records:
        raise ValueError("refusing to write an empty trace")
    if format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for r in trace.records:
                writer.writerow([
                    r.seq,
                    repr(r.cum_accuracy),
                    repr(r.window_accuracy),
                    repr(r.kappa),
                    _encode_events(r.drift_events),
                    "" if r.active_learner is None else r.active_learner,
                ])
    elif format == "json":
        payload = {
            "trace_version": TRACE_VERSION,
            "meta": trace.meta,
            "records": [
                {
                    "seq": r.seq,
                    "cum_accuracy": r.cum_accuracy,
                    "window_accuracy": r.window_accuracy,
                    "kappa": r.kappa,
                    "drift_events": [list(e) for e in r.drift_events],
                    "active_learner": r.active_learner,
                }
                for r in trace.records
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown trace format {format!r}")


def read_trace(path: str) -> MetricTrace:
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("trace_version") != TRACE_VERSION:
            raise ValueError(f"{path}: unsupported trace version {payload.get('trace_version')!r}")
        records = [
            TraceRecord(
                seq=r["seq"],
                cum_accuracy=r["cum_accuracy"],
                window_accuracy=r["window_accuracy"],
                kappa=r["kappa"],
                drift_events=[tuple(e) for e in r["drift_events"]],
                active_learner=r["active_learner"],
            )
            for r in payload["records"]
        ]
        return MetricTrace(records=records, meta=payload["meta"])
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"{path}: unexpected trace header {header}")
        records = []
        for row in reader:
            records.append(TraceRecord(
                seq=int(row[0]),
                cum_accuracy=float(row[1]),
                window_accuracy=float(row[2]),
                kappa=float(row[3]),
                drift_events=_decode_events(row[4]),
                active_learner=None if row[5] == "" else int(row[5]),
            ))
    return MetricTrace(records=records, meta={})
