"""Instrument the program from outside, by wrapping its public callables.

Nothing here edits a program module: each wrapper is installed on the module
or class attribute the program looks up at call time and is removed again
when the pass ends. Three instruments share the patching code:

* ``Ticker`` (timed passes) times a reference loop at fixed points of a
  pass, interleaved with the program's own work.
* ``Tracer`` (traced pass) records a span (name, start, end, parent, tag)
  around every call into a layer and keeps the spans in memory.
* ``Recorder`` (checked pass) keeps what the output checks need.

A target that no longer exists (renamed by a later change, say) is skipped
and listed in ``absent``; the pass still runs.
"""

from __future__ import annotations

import importlib
import sys
import time

# (span name, module, attribute path). Functions are also replaced wherever a
# driftstream module imported them by name, which is how cli calls them.
TARGETS = (
    ("cli.build_source", "driftstream.cli", "build_source"),
    ("stream_io.load", "driftstream.stream_io", "read_dataset"),
    ("stream_io.load", "driftstream.stream_io", "infer_schema"),
    ("stream_io.write_trace", "driftstream.stream_io", "write_trace"),
    ("learners.predict", "driftstream.learners.base", "Learner.predict"),
    ("learners.learn", "driftstream.learners.base", "Learner.partial_fit"),
    ("learners.learn", "driftstream.learners.base", "BatchLearner.partial_fit"),
    ("learners.fit", "driftstream.learners.base", "BatchLearner.fit"),
    ("drift.adwin_update", "driftstream.drift", "Adwin.update"),
    ("drift.other_update", "driftstream.drift", "PageHinkley.update"),
    ("drift.other_update", "driftstream.drift", "DDM.update"),
    ("drift.other_update", "driftstream.drift", "EDDM.update"),
    ("evaluation.loop", "driftstream.evaluation", "run_prequential"),
    ("evaluation.loop", "driftstream.evaluation", "evaluate_pretrained"),
    ("meta.extract", "driftstream.meta", "extract_meta_features"),
    ("cash.search", "driftstream.cash", "cash_search"),
    ("cash.fit", "driftstream.cash", "fit_candidate"),
)

# The source's own class decides the layer its __next__ belongs to.
SOURCE_LAYERS = {"driftstream.generators": "generators.next",
                 "driftstream.stream_io": "stream_io.replay"}

LEARNER_SPANS = ("learners.predict", "learners.learn", "learners.fit")

KNN_SAMPLE_EVERY = 20   # the Recorder keeps every 20th KnnWindow prediction
SEARCH_PREDICTS_PER_TICK = 20  # a Ticker ticks every 20th predict inside cash_search


class Patches:
    """Install wrappers on program attributes and undo them all on ``restore``."""

    def __init__(self):
        self._undo = []
        self._next_wrapped = set()
        self.absent: list[str] = []

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, had, old))

    def wrap_target(self, module_name, path, make_wrapper):
        try:
            module = importlib.import_module(module_name)
            owner = module
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}:{path}")
            return
        is_method = isinstance(owner, type)
        wrapper = make_wrapper(original, is_method)
        self._set(owner, attr, wrapper)
        if not is_method:
            for name, mod in list(sys.modules.items()):
                if (name.startswith("driftstream") and mod is not module
                        and vars(mod).get(attr) is original):
                    self._set(mod, attr, wrapper)

    def wrap_class_next(self, cls, make_wrapper):
        """Wrap a source class's __next__ once per instrument and pass."""
        if (cls, make_wrapper) not in self._next_wrapped:
            self._next_wrapped.add((cls, make_wrapper))
            self._set(cls, "__next__", make_wrapper(cls.__next__))

    def restore(self):
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def _source_of(result):
    """build_source returns (stream, label)."""
    return result[0] if isinstance(result, tuple) else result


class Ticker:
    """Times ``probe()`` (the reference loop) at fixed points of a pass, so
    that the reference samples the host all through the pass, in step with
    the program: every ``every`` source instances, at every
    ``cash.fit_candidate`` call and at every ``SEARCH_PREDICTS_PER_TICK``-th
    ``Learner.predict`` made inside ``cash_search`` (its kNN validation would
    otherwise leave gaps of about 100 ms). ``probes`` holds the durations.
    """

    def __init__(self, every: int, probe):
        self.every = every
        self.probes: list[float] = []
        self._probe = probe

    def _tick(self) -> None:
        start = time.perf_counter()
        self._probe()
        self.probes.append(time.perf_counter() - start)

    def install(self, patches: Patches) -> None:
        tick, every = self._tick, self.every
        count = [0]

        def ticking_next(original):
            def __next__(stream):
                inst = original(stream)
                count[0] += 1
                if count[0] % every == 0:
                    tick()
                return inst
            return __next__

        def build_source(original, is_method):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                patches.wrap_class_next(type(_source_of(result)), ticking_next)
                return result
            return wrapper

        def fit_candidate(original, is_method):
            def wrapper(*args, **kwargs):
                tick()
                return original(*args, **kwargs)
            return wrapper

        def cash_search(original, is_method):
            try:
                from driftstream.learners.base import Learner
            except ImportError:
                patches.absent.append("driftstream.learners.base:Learner")
                return original
            predicts = [0]

            def wrapper(*args, **kwargs):
                # Learner.predict ticks only while the search runs, so the
                # scoring that follows pays no wrapper.
                predict = Learner.predict

                def ticking_predict(*p_args, **p_kwargs):
                    predicts[0] += 1
                    if predicts[0] % SEARCH_PREDICTS_PER_TICK == 0:
                        tick()
                    return predict(*p_args, **p_kwargs)

                Learner.predict = ticking_predict
                try:
                    return original(*args, **kwargs)
                finally:
                    Learner.predict = predict
            return wrapper

        patches.wrap_target("driftstream.cli", "build_source", build_source)
        patches.wrap_target("driftstream.cash", "fit_candidate", fit_candidate)
        patches.wrap_target("driftstream.cash", "cash_search", cash_search)


class Tracer:
    """Spans around every call into a layer, kept in memory."""

    def __init__(self):
        # span: (name, start, end, parent index or -1, class name of self or "")
        self.spans: list = []
        self._stack: list[int] = []

    def _span(self, name, original, is_method):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            tag = type(args[0]).__name__ if is_method and args else ""
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tag)
        return traced

    def install(self, patches: Patches) -> None:
        for name, module, path in TARGETS:
            if name == "cli.build_source":
                continue
            patches.wrap_target(module, path,
                                lambda orig, is_method, n=name: self._span(n, orig, is_method))

        def build_source(original, is_method):
            span = self._span("cli.build_source", original, is_method)

            def wrapper(*args, **kwargs):
                result = span(*args, **kwargs)
                cls = type(_source_of(result))
                layer = SOURCE_LAYERS.get(cls.__module__)
                if layer is not None:
                    patches.wrap_class_next(cls, source_span[layer])
                return result
            return wrapper

        source_span = {layer: lambda orig, layer=layer: self._span(layer, orig, True)
                       for layer in SOURCE_LAYERS.values()}

        patches.wrap_target("driftstream.cli", "build_source", build_source)


class Recorder:
    """What the checked pass keeps for the output checks and layer oracles.

    * ``instances``: every (seq, x, y) the source emits, in order.
    * ``scored``: (seq, y, prediction) for each top-level ``predict`` made
      inside the evaluation function, tied to the instance just emitted.
    * ``knn_history``: the training sequence of each ``KnnWindow``;
      ``knn_samples`` holds every ``KNN_SAMPLE_EVERY``-th of its predictions
      as (learner id, history length, x, prediction).
    * ``updates_while_scoring``: ``partial_fit`` calls made while a frozen
      model was being scored by ``evaluate_pretrained``.
    """

    def __init__(self):
        self.schema = None
        self.instances: list[tuple[int, tuple, int]] = []
        self.scored: list[tuple[int, int, int]] = []
        self.knn_history: dict[int, list[tuple[tuple, int]]] = {}
        self.knn_samples: list[tuple[int, int, tuple, int]] = []
        self.updates_while_scoring = 0
        self.unmatched_predictions = 0
        self._knn_predicts = 0
        self._last_x = None
        self._eval = None
        self._depth = 0

    def install(self, patches: Patches) -> None:
        try:
            from driftstream.learners import KnnWindow
        except ImportError:
            KnnWindow = None
            patches.absent.append("driftstream.learners:KnnWindow")
        rec = self

        def recording_next(original):
            def __next__(stream):
                inst = original(stream)
                rec._last_x = inst.x
                rec.instances.append((inst.seq, tuple(inst.x), inst.y))
                return inst
            return __next__

        def build_source(original, is_method):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                rec.schema = _source_of(result).schema
                patches.wrap_class_next(type(_source_of(result)), recording_next)
                return result
            return wrapper

        def evaluation(original, is_method):
            def wrapper(*args, **kwargs):
                rec._eval = original.__name__
                try:
                    return original(*args, **kwargs)
                finally:
                    rec._eval = None
            return wrapper

        def predict(original, is_method):
            def wrapper(learner, x, *args, **kwargs):
                rec._depth += 1
                try:
                    pred = original(learner, x, *args, **kwargs)
                finally:
                    rec._depth -= 1
                if rec._depth == 0 and rec._eval is not None:
                    if x is rec._last_x:
                        seq, _, y = rec.instances[-1]
                        rec.scored.append((seq, y, pred))
                    else:
                        rec.unmatched_predictions += 1
                if KnnWindow is not None and isinstance(learner, KnnWindow):
                    rec._knn_predicts += 1
                    if rec._knn_predicts % KNN_SAMPLE_EVERY == 0:
                        history = rec.knn_history.get(id(learner), [])
                        rec.knn_samples.append((id(learner), len(history), tuple(x), pred))
                return pred
            return wrapper

        def partial_fit(original, is_method):
            def wrapper(learner, inst, *args, **kwargs):
                if rec._eval == "evaluate_pretrained":
                    rec.updates_while_scoring += 1
                rec._depth += 1
                try:
                    result = original(learner, inst, *args, **kwargs)
                finally:
                    rec._depth -= 1
                if KnnWindow is not None and isinstance(learner, KnnWindow):
                    rec.knn_history.setdefault(id(learner), []).append(
                        (tuple(inst.x), inst.y))
                return result
            return wrapper

        patches.wrap_target("driftstream.cli", "build_source", build_source)
        for name, module, path in TARGETS:
            if name == "evaluation.loop":
                patches.wrap_target(module, path, evaluation)
        patches.wrap_target("driftstream.learners.base", "Learner.predict", predict)
        patches.wrap_target("driftstream.learners.base", "Learner.partial_fit", partial_fit)
        patches.wrap_target("driftstream.learners.base", "BatchLearner.partial_fit",
                            partial_fit)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass

def layer_metrics(spans, trace_path) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, "time" | "count"). A layer the pass never entered
    reads 0. Self time is a span's duration minus its child spans'."""
    n = len(spans)
    children = [0.0] * n
    in_learner = [False] * n
    in_eval = [False] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += end - start
            pname = spans[parent][0]
            in_learner[i] = in_learner[parent] or pname in LEARNER_SPANS
            in_eval[i] = in_eval[parent] or pname == "evaluation.loop"

    def select(name, where=lambda i: True):
        return [i for i in range(n) if spans[i][0] == name and where(i)]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return dur(i) - children[i]

    def total(idx, fn=dur):
        return sum(fn(i) for i in idx)

    def mean(idx, fn=dur):
        return total(idx, fn) / len(idx) if idx else 0.0

    scored_predicts = select("learners.predict", lambda i: not in_learner[i] and in_eval[i])
    scored = len(scored_predicts) or 1
    nested_predicts = select("learners.predict", lambda i: in_learner[i])
    knn_predicts = select("learners.predict", lambda i: spans[i][4] in ("KnnWindow", "KnnBatch"))
    adwin = select("drift.adwin_update")
    other = select("drift.other_update")
    load = select("stream_io.load", lambda i: spans[i][3] < 0
                  or spans[spans[i][3]][0] != "stream_io.load")
    with open(trace_path, "rb") as fh:
        trace = fh.read()
    return {
        "cli.build_source_ms": (1e3 * total(select("cli.build_source")), "ms", "time"),
        "generators.next_us": (1e6 * mean(select("generators.next")), "us/instance", "time"),
        "stream_io.load_ms": (1e3 * total(load), "ms", "time"),
        "stream_io.replay_us": (1e6 * mean(select("stream_io.replay")), "us/row", "time"),
        "stream_io.write_trace_ms": (1e3 * total(select("stream_io.write_trace")), "ms",
                                     "time"),
        "stream_io.trace_bytes": (len(trace), "bytes", "count"),
        "learners.predict_us": (1e6 * mean(scored_predicts, self_time), "us/call",
                                "time"),
        "learners.learn_us": (1e6 * mean(select("learners.learn", lambda i: not in_learner[i]),
                                         self_time), "us/call", "time"),
        "learners.knn_predict_us": (1e6 * mean(knn_predicts), "us/call", "time"),
        "learners.member_predicts_per_instance": (len(nested_predicts) / scored, "count",
                                                  "count"),
        "learners.fit_ms": (1e3 * mean(select("learners.fit")), "ms/call", "time"),
        "drift.adwin_update_us": (1e6 * mean(adwin), "us/update", "time"),
        "drift.other_update_us": (1e6 * mean(other), "us/update", "time"),
        "drift.updates_per_instance": ((len(adwin) + len(other)) / scored, "count", "count"),
        "evaluation.loop_us": (1e6 * total(select("evaluation.loop"), self_time) / scored,
                               "us/instance", "time"),
        "evaluation.records": (trace.count(b"\n") - 1, "count", "count"),
        "meta.extract_ms": (1e3 * mean(select("meta.extract")), "ms/window", "time"),
        "meta.windows": (len(select("meta.extract")), "count", "count"),
        "cash.search_s": (total(select("cash.search")), "s", "time"),
        "cash.fits": (len(select("cash.fit")), "count", "count"),
    }


def write_spans(spans, path) -> None:
    """One line per span: index, name, start and end (s), parent index, class."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent,class\n")
        for i, (name, start, end, parent, tag) in enumerate(spans):
            fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{tag}\n")
