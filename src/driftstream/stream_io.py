"""Dataset ingestion and metric-trace files.

CSV dialect: comma separator, first row header, "." decimal, UTF-8. The label
column defaults to the last column. Categorical feature values are written as
their display tokens so a generated file re-infers to an equivalent schema.

Every CSV read (a dataset's scan, its replay, a trace) takes its rows
``_BLOCK`` lines at a time from one reader, ``_data_blocks``. It drops blank
lines and ends the rows before a row of another width, or a line the CSV
reader cannot parse, with a short block; the DatasetError naming that row
follows. So every error, row number and instance is the same as a row-by-row
read would give, and a consumer that stops before a faulty row never sees it.
A block is scanned and converted column by column; only a replayed block with
a token that does not convert goes row by row, to name the faulty row.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from .core import CATEGORICAL, Feature, FeatureSchema, Instance
from .evaluation import MetricTrace, TraceRecord
from .generators import InstanceStream

TRACE_COLUMNS = ("seq", "cum_accuracy", "window_accuracy", "kappa", "drift", "active_learner")

# data rows taken from the CSV reader at a time: one block is what a read holds
_BLOCK = 256


class DatasetError(ValueError):
    pass


def _data_blocks(reader, path: str,
                 width: int) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """The reader's data rows with their row numbers (from 1, blank lines
    included), as ``(row numbers, rows)`` per read of up to ``_BLOCK`` lines.
    Blank lines are dropped. A row of another width, or a line the reader
    cannot parse (say, a field over ``csv.field_size_limit()``), ends the rows
    before it with a short block; after that block, where a row-by-row read
    would meet it, comes a DatasetError naming its row. Bytes that are not
    UTF-8 end the rows the same way, with a DatasetError naming the file
    only: the text decoder reads the file ahead in chunks, so the rows before
    them in the same chunk are lost with them, and their row is not known."""
    last = 0  # the number of the last line read
    while True:
        block: list[list[str]] = []
        fault = None
        try:
            block.extend(islice(reader, _BLOCK))  # keeps the rows before an error
        except csv.Error as exc:
            fault = DatasetError(f"{path}: row {last + len(block) + 1}: {exc}")
        except UnicodeDecodeError as exc:
            fault = _not_utf8(path, exc)
        else:
            if not block:
                return
        rownos: Sequence[int] = range(last + 1, last + len(block) + 1)
        last += len(block)
        if not all(map(width.__eq__, map(len, block))):
            cut = next((i for i, row in enumerate(block) if row and len(row) != width), None)
            if cut is not None:  # a width error comes before any unparsable line after it
                fault = DatasetError(f"{path}: row {rownos[cut]} has {len(block[cut])} "
                                     f"fields, header has {width}")
                del block[cut:]
            rownos = [rowno for rowno, row in zip(rownos, block) if row]
            block = [row for row in block if row]
        if block:
            yield rownos, block
        if fault is not None:
            raise fault


def _not_utf8(path: str, exc: UnicodeDecodeError) -> DatasetError:
    """A decoding error naming the file; the codec's position is within a
    chunk the decoder read, not within the file, so it is left out."""
    return DatasetError(f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x}: "
                        f"{exc.reason}")


def _read_header(reader, path: str) -> Optional[list[str]]:
    """The first line's fields, or None for an empty file."""
    try:
        return next(reader, None)
    except csv.Error as exc:
        raise DatasetError(f"{path}: header line: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


class _ColumnScan:
    """What ``infer_schema`` types one column from, gathered in row order:
    whether any token parses as a number, the first row whose token does not,
    and the distinct tokens up to the first one that does (after it the
    column is numeric or mixed, and its tokens are never needed)."""

    __slots__ = ("col", "numeric_seen", "first_bad_row", "tokens")

    def __init__(self, col: int):
        self.col = col
        self.numeric_seen = False
        self.first_bad_row: Optional[int] = None
        self.tokens: Optional[dict[str, None]] = {}

    def see(self, token: str, rowno: int) -> None:
        """Take the column's token of row ``rowno``."""
        tokens = self.tokens
        if tokens is not None and token in tokens:
            return  # already known not to parse
        try:
            float(token)
        except ValueError:
            if self.first_bad_row is None:
                self.first_bad_row = rowno
            if tokens is not None:
                tokens[token] = None
            return
        self.numeric_seen = True
        self.tokens = None

    def see_all(self, column: Sequence[str], rownos: Sequence[int]) -> None:
        """Take the column's tokens of the rows numbered ``rownos``, as
        ``see`` on each would. A block that only confirms what is known (all
        numeric in a column with no non-numeric token yet, only known tokens
        in a categorical one, anything in a mixed one) takes one C-level pass
        or none; any other goes token by token."""
        if self.first_bad_row is None:
            try:
                deque(map(float, column), 0)
            except ValueError:
                pass
            else:
                self.numeric_seen = True
                self.tokens = None
                return
        elif self.tokens is None or all(map(self.tokens.__contains__, column)):
            return
        for rowno, token in zip(rownos, column):
            self.see(token, rowno)


@dataclass
class DatasetFile:
    """A CSV file's header and what one validating pass over its rows found:
    a scan per feature column (in header order) and the label classes in
    first-seen order. No row is kept; a replay reads the file again.

    Rows are numbered from 1 after the header, blank lines included, in every
    error message about them.
    """

    path: str
    header: list[str]
    label_column: str
    scans: list[_ColumnScan]
    classes: tuple[str, ...]

    @property
    def label_index(self) -> int:
        return self.header.index(self.label_column)

    @property
    def feature_columns(self) -> list[int]:
        return [i for i in range(len(self.header)) if i != self.label_index]


def read_dataset(path: str, label_column: Optional[str] = None) -> DatasetFile:
    """Check every row's field count and gather what ``infer_schema`` needs,
    in one pass that holds no row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        if header is None:
            raise DatasetError(f"{path}: empty file")
        if not header:
            raise DatasetError(f"{path}: the header line is blank")
        width = len(header)
        label = header[-1] if label_column is None else label_column
        # an unknown label column is reported after the rows, as a row error comes first
        label_index = header.index(label) if label in header else None
        scans = [_ColumnScan(col) for col in range(width) if col != label_index]
        classes: dict[str, None] = {}
        n_rows = 0
        for rownos, block in _data_blocks(reader, path, width):
            columns = list(zip(*block))
            for scan in scans:
                scan.see_all(columns[scan.col], rownos)
            if label_index is not None:
                classes.update(dict.fromkeys(columns[label_index]))
            n_rows += len(block)
    if not n_rows:
        raise DatasetError(f"{path}: no data rows")
    if label_index is None:
        raise DatasetError(f"{path}: label column {label_column!r} not in header")
    return DatasetFile(path=path, header=header, label_column=label,
                       scans=scans, classes=tuple(classes))


def infer_schema(dataset: DatasetFile) -> FeatureSchema:
    """Type feature columns from the data: numeric iff every value parses as
    a real, categorical from the observed tokens otherwise. A column mixing
    numeric and non-numeric tokens is reported with its row number.

    Label classes are the distinct label values over the whole file, in
    first-seen order.
    """
    if not dataset.scans:
        raise DatasetError(f"{dataset.path}: no feature columns")
    features = []
    for scan in dataset.scans:
        name = dataset.header[scan.col]
        if scan.first_bad_row is None:
            features.append(Feature(name))
        elif scan.numeric_seen:
            raise DatasetError(
                f"{dataset.path}: column {name!r} mixes numeric and non-numeric "
                f"values (first non-numeric at row {scan.first_bad_row})"
            )
        else:
            values = tuple(scan.tokens)
            if len(values) < 2:
                raise DatasetError(f"{dataset.path}: column {name!r} has a single value")
            features.append(Feature(name, CATEGORICAL, len(values), values))
    if len(dataset.classes) < 2:
        raise DatasetError(f"{dataset.path}: label column has fewer than 2 classes")
    return FeatureSchema(
        features=tuple(features),
        label_name=dataset.label_column,
        classes=dataset.classes,
    )


class CsvReplayStream(InstanceStream):
    """Finite stream over a dataset's rows, read from its file again and
    validated against a schema. The file is open from the first pull until
    the last row, an error or the stream's collection."""

    def __init__(self, dataset: DatasetFile, schema: FeatureSchema):
        super().__init__()
        self.schema = schema
        # a generator, which holds no reference to the stream, so a stream
        # dropped before its end is collected at once and closes the file
        self._instances = _replay(dataset, schema)

    def __next__(self) -> Instance:
        return next(self._instances)


def _replay(dataset: DatasetFile, schema: FeatureSchema) -> Iterator[Instance]:
    """The instances of ``dataset``'s data rows, each checked against
    ``schema``, with ``seq`` from 0; a faulty row raises a DatasetError
    naming it."""
    path, width = dataset.path, len(dataset.header)
    if schema.n_features != width - 1:
        raise DatasetError(f"{path}: {width - 1} feature columns, "
                           f"schema declares {schema.n_features}")
    label_index = dataset.label_index
    # one converter per file column: a token to a feature value, or to the
    # class index for the label; float and a dict lookup raise on a bad token
    converters = [
        float if f.is_numeric else {v: float(i) for i, v in enumerate(f.values)}.__getitem__
        for f in schema.features
    ]
    converters.insert(label_index, {c: i for i, c in enumerate(schema.classes)}.__getitem__)
    numeric = [col for f, col in zip(schema.features, dataset.feature_columns) if f.is_numeric]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if _read_header(reader, path) != dataset.header:
            raise DatasetError(f"{path}: header changed since the file was read")
        seq = 0
        for rownos, block in _data_blocks(reader, path, width):
            columns = _convert(block, converters, numeric)
            if columns is None:
                seq = yield from _replay_rows(dataset, schema, converters, block, rownos, seq)
            else:
                ys = columns.pop(label_index)
                yield from map(Instance, map(list, zip(*columns)), ys, range(seq, seq + len(ys)))
                seq += len(ys)


def _convert(block: list[list[str]], converters: list,
             numeric: list[int]) -> Optional[list[list]]:
    """The block's columns converted, one ``map`` per column; None when a
    token does not convert or a ``numeric`` column holds a value that is not
    finite."""
    try:
        columns = [list(map(convert, column)) for convert, column in zip(converters, zip(*block))]
    except (ValueError, KeyError):
        return None
    if all(all(map(math.isfinite, columns[col])) for col in numeric):
        return columns
    return None


def _replay_rows(dataset: DatasetFile, schema: FeatureSchema, converters: list,
                 rows: list[list[str]], rownos: Sequence[int], seq: int):
    """The instances of ``rows``, numbered ``rownos``, with ``seq`` from
    ``seq``, converted and checked one row at a time; a faulty row raises a
    DatasetError naming it. Returns the next ``seq``."""
    path, label_index = dataset.path, dataset.label_index
    for rowno, row in zip(rownos, rows):
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
    return seq


def _conversion_error(dataset: DatasetFile, schema: FeatureSchema, converters: list,
                      rowno: int, row: list[str]) -> DatasetError:
    """The first token of a row that does not convert: features in schema
    order, then the label."""
    where = f"{dataset.path}: row {rowno}:"
    for feat, col in zip(schema.features, dataset.feature_columns):
        token = row[col]
        try:
            converters[col](token)
        except ValueError:
            return DatasetError(f"{where} {token!r} is not numeric for feature {feat.name!r}")
        except KeyError:
            return DatasetError(
                f"{where} value {token!r} outside the declared categories of {feat.name!r}"
            )
    return DatasetError(f"{where} unknown class {row[dataset.label_index]!r}")


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


def write_trace(trace: MetricTrace, path: str) -> None:
    """Serialize a trace's records as CSV, one row per record."""
    if not trace.records:
        raise ValueError("refusing to write an empty trace")
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


def read_trace(path: str) -> MetricTrace:
    """A CSV trace's records, blank lines skipped. A faulty file is a
    ValueError naming it, and the row at fault (rows count from 1, blank
    lines included)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"{path}: unexpected trace header {header}")
        records = []
        for rownos, block in _data_blocks(reader, path, len(TRACE_COLUMNS)):
            for rowno, row in zip(rownos, block):
                try:
                    records.append(TraceRecord(
                        seq=int(row[0]),
                        cum_accuracy=float(row[1]),
                        window_accuracy=float(row[2]),
                        kappa=float(row[3]),
                        drift_events=_decode_events(row[4]),
                        active_learner=None if row[5] == "" else int(row[5]),
                    ))
                except ValueError as exc:
                    raise ValueError(f"{path}: row {rowno}: {exc}") from None
    if not records:
        raise ValueError(f"{path}: the trace has no records")
    return MetricTrace(records=records)
