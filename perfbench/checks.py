"""Output checks and layer oracles, computed apart from the program.

Each check returns a list of failure messages; an empty list means it held.
The checks read the trace file and the CSV input with the ``csv`` module and
recompute every figure with this file's own code. What they take from the
program is only what the recorder saw cross the layer boundaries: the
instances the source emitted and the prediction each learner returned.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from collections import deque

import numpy as np

from workloads import SEA_NOISE, SEA_THRESHOLDS

# Documented defaults of the program (`driftstream list`) that the oracles use.
KNN_WINDOW_K = 5
KNN_WINDOW_SIZE = 1000
PAGE_HINKLEY = {"delta": 0.005, "threshold": 50.0, "min_instances": 30}
DDM = {"warning_level": 2.0, "drift_level": 3.0, "min_instances": 30}

_TOL = 1e-9
SEA_MARGIN = 10  # instances either side of the switch left out of the label check


def read_config(path: str) -> dict[str, str]:
    flat = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if "=" in line and not line.lstrip().startswith("#"):
                key, _, value = line.partition("=")
                flat[key.strip()] = value.strip()
    return flat


def read_trace(path: str) -> list[dict]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            # "seq:detector:status"; a status may itself hold a colon ("switch:2")
            events = [e.split(":", 2) for e in row["drift"].split("|")] if row["drift"] else []
            rows.append({
                "seq": int(row["seq"]),
                "cum_accuracy": float(row["cum_accuracy"]),
                "window_accuracy": float(row["window_accuracy"]),
                "kappa": float(row["kappa"]),
                "events": [(int(s), det, status) for s, det, status in events],
                "active": row["active_learner"],
            })
    return rows


def read_sea_csv(path: str):
    """Rows of a generated SEA file: features, label tokens and class indexes
    in first-seen order, which is how the program documents its classes."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [row for row in reader if row]
    X = np.array([[float(v) for v in row[:-1]] for row in rows])
    tokens = [row[-1] for row in rows]
    classes = list(dict.fromkeys(tokens))
    y = np.array([classes.index(t) for t in tokens])
    return X, tokens, y


# ---------------------------------------------------------------------------
# trace metrics

def expected_records(scored, report_every: int, window: int) -> list[tuple]:
    """(seq, cumulative accuracy, windowed accuracy, Cohen's kappa) at every
    report_every-th scored instance and at the last one."""
    n_classes = 1 + max(max(y, p) for _, y, p in scored)
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    recent: deque[int] = deque(maxlen=window)
    out = []
    for i, (seq, y, pred) in enumerate(scored, start=1):
        matrix[y, pred] += 1
        recent.append(int(y == pred))
        if i % report_every == 0 or i == len(scored):
            p_o = int(np.trace(matrix)) / i
            p_e = int((matrix.sum(axis=1) * matrix.sum(axis=0)).sum()) / (i * i)
            kappa = 0.0 if p_e >= 1.0 else (p_o - p_e) / (1.0 - p_e)
            out.append((seq, p_o, sum(recent) / len(recent), kappa))
    return out


def check_trace(rows: list[dict], scored, report_every: int, window: int) -> list[str]:
    if not scored:
        return ["no scored instance was recorded"]
    expected = expected_records(scored, report_every, window)
    if len(rows) != len(expected):
        return [f"trace has {len(rows)} records, recomputation gives {len(expected)}"]
    errors = []
    previous = -1
    for row, (seq, cum, win, kappa) in zip(rows, expected):
        got = (row["cum_accuracy"], row["window_accuracy"], row["kappa"])
        if row["seq"] != seq or any(abs(a - b) > _TOL for a, b in zip(got, (cum, win, kappa))):
            errors.append(f"record at seq {row['seq']}: trace {got}, recomputed "
                          f"{(cum, win, kappa)} at seq {seq}")
        for event in row["events"]:
            if not previous < event[0] <= row["seq"]:
                errors.append(f"event {event} filed under record seq {row['seq']}")
        previous = row["seq"]
    return errors[:5]


# ---------------------------------------------------------------------------
# drift detectors (Page 1954 / Mouss et al. 2004; Gama et al. 2004)

def page_hinkley_alarms(bits, delta, threshold, min_instances):
    n, mean, m, m_min = 0, 0.0, 0.0, 0.0
    for t, x in enumerate(bits):
        n += 1
        mean += (x - mean) / n
        m += x - mean - delta
        m_min = min(m_min, m)
        if n >= min_instances and m - m_min > threshold:
            yield t, "drift"
            n, mean, m, m_min = 0, 0.0, 0.0, 0.0


def ddm_alarms(bits, warning_level, drift_level, min_instances):
    n, p, p_min, s_min = 0, 0.0, math.inf, math.inf
    for t, x in enumerate(bits):
        n += 1
        p += (x - p) / n
        s = math.sqrt(p * (1.0 - p) / n)
        if n < min_instances:
            continue
        if p + s <= p_min + s_min:
            p_min, s_min = p, s
        if p + s > p_min + drift_level * s_min:
            yield t, "drift"
            n, p, p_min, s_min = 0, 0.0, math.inf, math.inf
        elif p + s > p_min + warning_level * s_min:
            yield t, "warning"


def check_detectors(rows: list[dict], scored) -> list[str]:
    """Page-Hinkley and DDM statuses from the recorded error bits."""
    bits = [int(y != pred) for _, y, pred in scored]
    seqs = [seq for seq, _, _ in scored]
    by_step = {}
    for name, alarms in (("page_hinkley", page_hinkley_alarms(bits, **PAGE_HINKLEY)),
                         ("ddm", ddm_alarms(bits, **DDM))):
        for t, status in alarms:
            by_step.setdefault(t, []).append((seqs[t], name, status))
    expected = [e for t in sorted(by_step) for e in by_step[t]]
    got = [e for row in rows for e in row["events"] if e[1] in ("page_hinkley", "ddm")]
    if got != expected:
        return [f"Page-Hinkley/DDM events differ: trace has {len(got)}, "
                f"recomputation {len(expected)}; first trace {got[:3]}, "
                f"recomputed {expected[:3]}"]
    return []


# ---------------------------------------------------------------------------
# SEA concept

def check_sea_labels(samples, position, thresholds, noise) -> list[str]:
    """samples: (seq, x1, x2, label value). Away from the switch, labels
    disagree with x1 + x2 <= theta at the noise rate, within 5 sigma."""
    errors = []
    for name, theta, keep in (("before", thresholds[0], lambda s: s < position - SEA_MARGIN),
                              ("after", thresholds[1], lambda s: s >= position + SEA_MARGIN)):
        part = [(x1, x2, label) for seq, x1, x2, label in samples if keep(seq)]
        m = len(part)
        flips = sum(1 for x1, x2, label in part if label != int(x1 + x2 <= theta))
        bound = 5.0 * math.sqrt(m * noise * (1.0 - noise)) + 1.0
        if m == 0 or abs(flips - noise * m) > bound:
            errors.append(f"SEA labels {name} the switch: {flips} of {m} disagree "
                          f"with x1 + x2 <= {theta}, expected {noise * m:.0f} +- {bound:.0f}")
    return errors


def check_drift_drop(rows: list[dict], position: int, window: int) -> list[str]:
    before = [r["window_accuracy"] for r in rows if r["seq"] < position]
    after = [r["window_accuracy"] for r in rows if r["seq"] >= position + window]
    if not before or not after or sum(after) / len(after) >= sum(before) / len(before):
        return ["frozen model's windowed accuracy is not lower after the drift point"]
    return []


# ---------------------------------------------------------------------------
# kNN

def knn_oracle(train_X, train_y, x, scale, categorical, k, n_classes):
    """Brute-force kNN: z-scaled squared numeric distance plus one per
    categorical mismatch, neighbours in training order on equal distance,
    the lowest class on a tied vote. None when the k-th and (k+1)-th
    neighbours are (numerically) tied, where either answer is right."""
    diff = train_X - np.asarray(x)
    numeric = ~categorical
    d2 = ((diff[:, numeric] / scale[numeric]) ** 2).sum(axis=1)
    d2 = d2 + (diff[:, categorical] != 0).sum(axis=1)
    order = np.argsort(d2, kind="stable")
    if len(order) > k and abs(d2[order[k]] - d2[order[k - 1]]) <= _TOL * max(1.0, d2[order[k - 1]]):
        return None
    return int(np.argmax(np.bincount(train_y[order[:k]], minlength=n_classes)))


def _scale(X):
    std = X.std(axis=0)
    return np.where(std > 1e-12, std, 1.0)


def check_knn_window(recorder, categorical, n_classes) -> list[str]:
    """Sampled KnnWindow predictions against the window rebuilt from the
    recorded training history (standardisation over everything seen)."""
    if not recorder.knn_samples:
        return ["no KnnWindow prediction was sampled"]
    errors = []
    for learner_id, length, x, pred in recorder.knn_samples:
        history = recorder.knn_history[learner_id][:length]
        X = np.array([h[0] for h in history])
        y = np.array([h[1] for h in history])
        want = knn_oracle(X[-KNN_WINDOW_SIZE:], y[-KNN_WINDOW_SIZE:], x, _scale(X),
                          categorical, KNN_WINDOW_K, n_classes)
        if want is not None and want != pred:
            errors.append(f"KnnWindow after {length} samples predicted {pred}, oracle {want}")
    return errors[:5]


def check_search(board_path, cfg, X, y) -> list[str]:
    """knn_batch leaderboard losses by brute force over the contiguous folds
    of the prefix, and `best` as the earliest argmin of the leaderboard."""
    with open(board_path, encoding="utf-8") as fh:
        board = json.load(fh)
    entries = board["leaderboard"]
    errors = []
    losses = [e["loss"] for e in entries]
    earliest = entries[losses.index(min(losses))]["config"]
    if board["best"] != earliest or board["best_loss"] != min(losses):
        errors.append(f"best is {board['best']}, earliest argmin is {earliest}")
    n, folds = int(cfg["prefix_size"]), int(cfg["cash.folds"])
    X, y = X[:n], y[:n]
    categorical = np.zeros(X.shape[1], dtype=bool)
    n_classes = int(y.max()) + 1
    checked = 0
    for entry in entries:
        match = re.fullmatch(r"knn_batch\(k=(\d+)\)", entry["config"])
        if not match:
            continue
        k = int(match.group(1))
        lo = hi = 0.0
        for i in range(folds):
            valid = np.arange(i * n // folds, (i + 1) * n // folds)
            train = np.setdiff1d(np.arange(n), valid)
            scale = _scale(X[train])
            wrong = ties = 0
            for j in valid:
                want = knn_oracle(X[train], y[train], X[j], scale, categorical, k, n_classes)
                if want is None:
                    ties += 1
                elif want != y[j]:
                    wrong += 1
            lo += wrong / len(valid) / folds
            hi += (wrong + ties) / len(valid) / folds
        checked += 1
        if not lo - _TOL <= entry["loss"] <= hi + _TOL:
            errors.append(f"{entry['config']} loss {entry['loss']}, oracle [{lo}, {hi}]")
    if checked == 0:
        errors.append("no knn_batch entry on the leaderboard")
    return errors


# ---------------------------------------------------------------------------

def verify(wl, cfg_path, recorder, trace_path) -> list[str]:
    """Every check that applies to the workload, on the checked pass."""
    cfg = read_config(cfg_path)
    report_every, window = int(cfg["eval.report_every"]), int(cfg["eval.window"])
    rows = read_trace(trace_path)
    errors = []
    if recorder.unmatched_predictions:
        errors.append(f"{recorder.unmatched_predictions} top-level predictions were not "
                      f"made on the instance the source had just emitted")
    scored = recorder.scored
    if wl.from_csv:
        X, tokens, y = read_sea_csv(cfg["source.path"])
        if any(y[seq] != label for seq, label, _ in scored):
            errors.append("labels seen by the learner differ from the CSV file's")
        scored = [(seq, int(y[seq]), pred) for seq, _, pred in scored]
        samples = [(i, x[0], x[1], t) for i, (x, t) in enumerate(zip(X, tokens))]
    else:
        classes = recorder.schema.classes
        samples = [(seq, x[0], x[1], classes[label]) for seq, x, label in recorder.instances]
    errors += check_trace(rows, scored, report_every, window)

    if wl.sea_concepts:
        thresholds = [SEA_THRESHOLDS[c] for c in wl.sea_concepts]
        samples = [(seq, x1, x2, int(token)) for seq, x1, x2, token in samples]
        errors += check_sea_labels(samples, wl.drift_position, thresholds, SEA_NOISE)
    if wl.experiment == "online":
        errors += check_detectors(rows, scored)
    if wl.experiment == "meta_online":
        categorical = np.array([not f.is_numeric for f in recorder.schema.features])
        errors += check_knn_window(recorder, categorical, recorder.schema.n_classes)
        roster = len(cfg["learner.roster"].split(","))
        if any(not 0 <= int(r["active"]) < roster for r in rows):
            errors.append("active learner index outside the roster")
    if wl.experiment == "cash_pretrained":
        board = os.path.splitext(trace_path)[0] + ".leaderboard.json"
        errors += check_search(board, cfg, X, y)
        if recorder.updates_while_scoring:
            errors.append(f"{recorder.updates_while_scoring} partial_fit calls while the "
                          f"frozen model was scored")
        errors += check_drift_drop(rows, wl.drift_position, window)
    return errors
