"""Experiment runner CLI: generate datasets, run experiments, summarize traces."""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import os
import statistics
import sys
import time

from .cash import AlgorithmGrid, ConfigSpace, cash_search, grid_expand
from .config import Config, ConfigError, auto_value, parse_config_file
from .core import derive_seed
from .drift import DETECTOR_KINDS, make_detector
from .evaluation import evaluate_pretrained, run_holdout, run_prequential
from .generators import GENERATOR_FAMILIES, DriftStream, LimitedStream, make_generator
from .learners import BATCH_ALGORITHMS, LEARNER_REGISTRY, make_learner, train_batch
from .meta import MetaEnsemble
from .stream_io import (
    DatasetError,
    infer_schema,
    read_dataset,
    replay_csv,
    write_dataset,
    write_trace,
)


# ---------------------------------------------------------------------------
# parameters

def _constructor_params(cls) -> dict:
    """The defaulted parameters of ``cls``'s constructor with their defaults,
    except ``schema`` and ``seed``, which the runner supplies."""
    return {
        name: param.default
        for name, param in inspect.signature(cls).parameters.items()
        if param.default is not param.empty and name not in ("schema", "seed")
    }


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _read_params(cls, owner: str, prefix: str, tokens: dict) -> dict:
    """Type ``tokens``, each constructor parameter name of ``cls`` to its raw
    values (one, or a search grid's), as the parameter's default is typed: an
    int may stand for a float, a bool for no number, and a None default takes
    any value. An error names the key ``prefix`` + name and ``cls`` as ``owner``."""
    known = _constructor_params(cls)
    typed = {}
    for name, raws in tokens.items():
        if name not in known:
            raise ConfigError(f"{prefix}{name}: {owner} has no parameter {name!r} "
                              f"(it takes {', '.join(known) or 'none'})")
        want = type(known[name])
        typed[name] = [auto_value(raw) for raw in raws]
        for value in typed[name]:
            if want not in (type(None), type(value)) and (want, type(value)) != (float, int):
                raise ConfigError(f"{prefix}{name}: expected {_TYPE_NAMES[want]}, got {value!r}")
    return typed


def _learner_class(algorithm: str):
    if algorithm not in LEARNER_REGISTRY:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    return LEARNER_REGISTRY[algorithm]


def _construct(what: str, factory, *args, **kwargs):
    """Build a source or a learner before the first instance is pulled: a
    ValueError its constructor raises means a config value is out of range.
    A ConfigError raised inside keeps its own message."""
    try:
        return factory(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


# ---------------------------------------------------------------------------
# sources

def _add_drift(base, family: str, params: dict, concept: int, position: int,
               width: int, seed: int) -> DriftStream:
    """``base`` switching to ``concept`` of the same family around ``position``."""
    if "concept" not in _constructor_params(GENERATOR_FAMILIES[family]):
        raise ConfigError(f"family {family!r} has no concept switch")
    post = make_generator(family, seed=derive_seed(seed, "generator.post"),
                          **dict(params, concept=concept))
    return DriftStream(base, post, position=position, width=width,
                       seed=derive_seed(seed, "drift"))


def _build_generator(cfg: Config, seed: int):
    family = cfg.get_str("source.family", required=True, choices=tuple(GENERATOR_FAMILIES))
    cls = GENERATOR_FAMILIES[family]
    raws = {key: cfg.get_str(f"source.{key}") for key in _constructor_params(cls)}
    params = {key: values[0] for key, values in _read_params(
        cls, family, "source.", {k: [v] for k, v in raws.items() if v is not None}).items()}
    base = _construct(f"source {family}", make_generator, family,
                      seed=derive_seed(seed, "generator"), **params)
    if any(key.startswith("source.drift.") for key in cfg.flat):
        base = _construct("source.drift", _add_drift, base, family, params,
                          concept=cfg.get_int("source.drift.concept", required=True),
                          position=cfg.get_int("source.drift.position", required=True),
                          width=cfg.get_int("source.drift.width", default=1),
                          seed=seed)
    return base, f"generator:{family}"


def build_source(cfg: Config, seed: int):
    kind = cfg.get_str("source.kind", required=True, choices=("generator", "csv"))
    n = cfg.get_int("source.n", default=20000 if kind == "generator" else None, low=1)
    if kind == "generator":
        stream, label = _build_generator(cfg, seed)
        return LimitedStream(stream, n), label
    path = cfg.get_str("source.path", required=True)
    dataset = read_dataset(path, cfg.get_str("source.label"))
    stream = replay_csv(dataset, infer_schema(dataset))
    if n is not None:
        stream = LimitedStream(stream, n)
    return stream, f"csv:{os.path.splitext(os.path.basename(path))[0]}"


# ---------------------------------------------------------------------------
# experiments: each builder reads the keys it uses, builds the run and
# returns the call that pulls the stream, which returns the trace, the
# learner label and any further JSON outputs by file suffix

def _scoring(cfg: Config) -> dict:
    return {"report_every": cfg.get_int("eval.report_every", default=100, low=1),
            "window": cfg.get_int("eval.window", default=200, low=1)}


def _build_learner(cfg: Config, algorithm: str, schema, seed: int):
    tokens = {k: [v] for k, v in cfg.section("learner.params").items()}
    params = {k: values[0] for k, values in _read_params(
        _learner_class(algorithm), algorithm, "learner.params.", tokens).items()}
    return _construct(f"learner {algorithm}", make_learner, algorithm, schema,
                      seed=derive_seed(seed, "learner"), **params)


def _batch_pretrained(cfg: Config, source, seed: int):
    algorithm = cfg.get_str("learner.algorithm", required=True)
    if algorithm not in BATCH_ALGORITHMS:
        raise ConfigError(f"batch_pretrained requires a batch algorithm, got {algorithm!r}")
    prefix_size = cfg.get_int("prefix_size", required=True, low=1)
    learner = _build_learner(cfg, algorithm, source.schema, seed)
    scoring = _scoring(cfg)

    def run():
        train_batch(learner, source.take(prefix_size))
        return evaluate_pretrained(source, learner, **scoring), algorithm, {}
    return run


def _online(cfg: Config, source, seed: int):
    algorithm = cfg.get_str("learner.algorithm", required=True)
    if algorithm in BATCH_ALGORITHMS:
        raise ConfigError(f"online requires an incremental algorithm, got {algorithm!r}")
    learner = _build_learner(cfg, algorithm, source.schema, seed)
    protocol = cfg.get_str("eval.protocol", default="prequential",
                           choices=("prequential", "holdout"))
    if protocol == "holdout":
        if cfg.get_list("eval.detectors"):
            raise ConfigError("eval.detectors: the holdout protocol runs no detectors")
        holdout_size = cfg.get_int("eval.holdout_size", required=True, low=1)
        period = cfg.get_int("eval.period", required=True, low=holdout_size + 1,
                             rule="exceed eval.holdout_size")
        return lambda: (run_holdout(source, learner, holdout_size=holdout_size, period=period),
                        algorithm, {})
    pretrain = cfg.get_int("eval.pretrain", default=0, low=0)
    detectors = {}
    for name in cfg.get_list("eval.detectors", default=[]):
        if name not in DETECTOR_KINDS:
            raise ConfigError(f"eval.detectors: unknown detector {name!r}")
        if name in detectors:
            raise ConfigError(f"eval.detectors: {name!r} is listed twice")
        detectors[name] = make_detector(name)
    scoring = _scoring(cfg)
    return lambda: (run_prequential(source, learner, pretrain=pretrain, detectors=detectors,
                                    **scoring), algorithm, {})


def _build_space(cfg: Config) -> ConfigSpace:
    grids: dict[str, dict[str, list]] = {}
    for rest, value in cfg.section("cash.space").items():
        algorithm, _, param = rest.partition(".")
        grid = grids.setdefault(algorithm, {})
        if param:
            grid[param] = [t.strip() for t in value.split(",")]
    if not grids:
        raise ConfigError("cash_pretrained requires at least one cash.space.<algorithm> entry")
    return ConfigSpace(tuple(
        AlgorithmGrid(a, _read_params(_learner_class(a), a, f"cash.space.{a}.", grid))
        for a, grid in grids.items()))


def _cash_pretrained(cfg: Config, source, seed: int):
    folds = cfg.get_int("cash.folds", default=3, low=2)
    prefix_size = cfg.get_int("prefix_size", required=True, low=10 * folds,
                              rule=f"be >= 10 * cash.folds = {10 * folds}")
    budget = cfg.get_int("cash.budget", low=1)
    space = _build_space(cfg)
    # build each candidate once, unused, so a rejected grid value is a
    # config error before the prefix is pulled; the search builds its own
    for candidate in grid_expand(space):
        _construct(f"cash candidate {candidate.label()}", make_learner,
                   candidate.algorithm, source.schema, **candidate.as_kwargs())
    scoring = _scoring(cfg)

    def run():
        result = cash_search(source.take(prefix_size), source.schema, space,
                             folds=folds, budget=budget, seed=derive_seed(seed, "cash"))
        board = {
            "best": result.best_config.label(),
            "best_loss": result.best_loss,
            "truncated": result.truncated,
            "leaderboard": [{"config": c.label(), "loss": loss}
                            for c, loss in result.leaderboard],
        }
        return (evaluate_pretrained(source, result.model, **scoring),
                f"cash:{result.best_config.label()}", {".leaderboard.json": board})
    return run


def _meta_online(cfg: Config, source, seed: int):
    roster = cfg.get_list("learner.roster",
                          default=["hoeffding_tree", "knn_window", "perceptron", "linear_sgd"])
    mode = cfg.get_str("learner.mode", default="meta", choices=MetaEnsemble.MODES)
    for name in roster:
        _learner_class(name)
        if name in BATCH_ALGORITHMS:
            raise ConfigError(f"meta_online roster must be incremental, got {name!r}")
    members = [
        make_learner(name, source.schema, seed=derive_seed(seed, f"member{i}"))
        for i, name in enumerate(roster)
    ]
    ensemble = _construct(
        "meta_online", MetaEnsemble, source.schema, members, mode=mode,
        window=cfg.get_int("learner.window", default=300),
        seed=derive_seed(seed, "meta"),
    )
    scoring = _scoring(cfg)
    return lambda: (run_prequential(source, ensemble, **scoring),
                    f"{mode}:{'+'.join(roster)}", {})


EXPERIMENTS = {
    "batch_pretrained": _batch_pretrained,
    "online": _online,
    "cash_pretrained": _cash_pretrained,
    "meta_online": _meta_online,
}


def run_experiment(flat: dict, out_dir: str = ".") -> dict:
    """Run one experiment config; returns the run summary (also written to disk)."""
    cfg = Config(flat)
    experiment = cfg.get_str("experiment", required=True, choices=tuple(EXPERIMENTS))
    seed = cfg.get_int("seed", default=0)
    # the trace is CSV: output.format is read, so a config may name its one choice
    cfg.get_str("output.format", default="csv", choices=("csv",))
    path = cfg.get_str("output.path", required=True)
    if path.endswith(".json"):
        raise ConfigError(f"output.path = {path}: a trace is CSV, so its path "
                          f"must not end in .json")
    out_path = os.path.join(out_dir, path)

    source, dataset_label = build_source(cfg, seed)
    started = time.perf_counter()
    run = EXPERIMENTS[experiment](cfg, source, seed)
    cfg.reject_unread(experiment)
    trace, learner_label, outputs = run()
    wall = time.perf_counter() - started

    final = trace.final
    summary = {
        **trace.meta,  # the protocol, and whether a holdout's last cycle is incomplete
        "config": cfg.used,
        "dataset": dataset_label,
        "learner": learner_label,
        "seed": seed,
        "experiment": experiment,
        "final_cum_accuracy": final.cum_accuracy,
        "final_kappa": final.kappa,
        "mean_window_accuracy": statistics.fmean(r.window_accuracy for r in trace.records),
        "drift_count": trace.drift_count(),
        "n_records": len(trace.records),
        "wall_time_s": wall,
    }
    stem = os.path.splitext(out_path)[0]
    written: list[str] = []
    try:
        parent = os.path.dirname(out_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        write_trace(trace, out_path)
        written.append(out_path)
        for suffix, payload in {".summary.json": summary, **outputs}.items():
            with open(stem + suffix, "w", encoding="utf-8") as fh:
                written.append(stem + suffix)
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except Exception:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
    return dict(summary, trace_path=out_path)


# ---------------------------------------------------------------------------
# subcommands

def run_config_path(path: str, out_dir: str, seed) -> dict:
    flat = parse_config_file(path)
    if seed is not None:
        flat["seed"] = str(seed)
    flat.setdefault("output.path", os.path.splitext(os.path.basename(path))[0] + ".csv")
    return run_experiment(flat, out_dir=out_dir)


def cmd_run(args) -> int:
    if os.path.isdir(args.config):
        paths = sorted(
            os.path.join(args.config, name)
            for name in os.listdir(args.config)
            if name.endswith(".cfg")
        )
        if not paths:
            raise ConfigError(f"no .cfg files in {args.config}")
    else:
        paths = [args.config]
    for path in paths:
        summary = run_config_path(path, args.out, args.seed)
        print(f"{summary['trace_path']}: "
              f"accuracy={summary['final_cum_accuracy']:.4f} "
              f"kappa={summary['final_kappa']:.4f} "
              f"drifts={summary['drift_count']}")
    return 0


def cmd_generate(args) -> int:
    if args.n < 1:
        raise ConfigError("n must be >= 1")
    tokens: dict[str, list[str]] = {}
    for item in args.param:
        key, _, value = item.partition("=")
        if not _:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        tokens.setdefault(key, []).append(value)
    cls = GENERATOR_FAMILIES[args.family]
    params = {key: values[-1] for key, values in
              _read_params(cls, args.family, "--param ", tokens).items()}
    if "concept" in _constructor_params(cls):
        if "concept" in params:
            raise ConfigError("--param concept: set the concept with --concept")
        params["concept"] = args.concept
    elif args.concept != 0:
        raise ConfigError(f"family {args.family!r} has no concept index")
    stream = _construct(f"family {args.family}", make_generator, args.family,
                        seed=derive_seed(args.seed, "generator"), **params)
    if args.drift_concept is not None:
        if args.drift_position is None:
            raise ConfigError("--drift-position is required with --drift-concept")
        stream = _construct("drift", _add_drift, stream, args.family, params,
                            args.drift_concept, args.drift_position,
                            1 if args.drift_width is None else args.drift_width, args.seed)
    elif args.drift_position is not None or args.drift_width is not None:
        raise ConfigError("--drift-position and --drift-width need --drift-concept")
    schema = stream.schema
    write_dataset(LimitedStream(stream, args.n), schema, args.out)
    print(f"wrote {args.n} rows to {args.out}")
    for feat in schema.features:
        kind = "numeric" if feat.is_numeric else f"categorical({feat.arity})"
        print(f"  {feat.name}: {kind}")
    print(f"  {schema.label_name}: label with classes {', '.join(schema.classes)}")
    return 0


def _read_summary(path: str) -> tuple[str, float]:
    """The learner and final cumulative accuracy of a ``*.summary.json``."""
    if not path.endswith(".summary.json"):
        raise ValueError(f"{path}: summarize takes run summaries (*.summary.json) only")
    with open(path, encoding="utf-8") as fh:
        try:
            summary = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(summary, dict):
        raise ValueError(f"{path}: not a run summary: {type(summary).__name__}, not an object")
    learner, accuracy = summary.get("learner"), summary.get("final_cum_accuracy")
    if not isinstance(learner, str):
        raise ValueError(f"{path}: learner {learner!r} is not a string")
    if not isinstance(accuracy, (int, float)) or isinstance(accuracy, bool):
        raise ValueError(f"{path}: final_cum_accuracy {accuracy!r} is not a number")
    return learner, accuracy


def cmd_summarize(args) -> int:
    paths = []
    for target in args.paths:
        if os.path.isdir(target):
            paths.extend(sorted(os.path.join(target, name) for name in os.listdir(target)
                                if name.endswith(".summary.json")))
        else:
            paths.append(target)
    # each summary is one run: its final cumulative accuracy, by learner
    groups: dict[str, list[float]] = {}
    for path in paths:
        learner, accuracy = _read_summary(path)
        groups.setdefault(learner, []).append(accuracy)
    if not groups:
        raise ValueError("no run summaries (*.summary.json) found to summarize")

    header = ("learner", "runs", "mean", "median", "min", "max")
    rows = []
    for learner, values in sorted(groups.items()):
        rows.append((
            learner,
            str(len(values)),
            f"{statistics.fmean(values):.4f}",
            f"{statistics.median(values):.4f}",
            f"{min(values):.4f}",
            f"{max(values):.4f}",
        ))
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    return 0


def cmd_list(args) -> int:
    for title, registry in (("algorithms", LEARNER_REGISTRY),
                            ("generators", GENERATOR_FAMILIES),
                            ("detectors", DETECTOR_KINDS)):
        print(f"{title}:")
        for name in sorted(registry):
            tag = " [batch]" if name in BATCH_ALGORITHMS else ""
            params = _constructor_params(registry[name]).items()
            print(f"  {name}{tag}: {', '.join(f'{k}={v}' for k, v in params) or '-'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftstream",
        description="Stream-mining experiments: drift streams, online learners, "
                    "model search and online model selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiment config file(s)")
    p_run.add_argument("--config", required=True, help="config file or directory of .cfg files")
    p_run.add_argument("--out", default=".", help="output directory for traces")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset to CSV")
    p_gen.add_argument("--family", required=True, choices=sorted(GENERATOR_FAMILIES))
    p_gen.add_argument("--concept", type=int, default=0)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--drift-concept", type=int, default=None)
    p_gen.add_argument("--drift-position", type=int, default=None)
    p_gen.add_argument("--drift-width", type=int, default=None)
    p_gen.add_argument("--param", action="append", default=[],
                       help="extra family parameter as key=value (repeatable)")
    p_gen.set_defaults(func=cmd_generate)

    p_sum = sub.add_parser("summarize", help="aggregate run summaries by learner, one run each")
    p_sum.add_argument("paths", nargs="+")
    p_sum.add_argument("--out", default=None, help="also write the table as CSV")
    p_sum.set_defaults(func=cmd_summarize)

    p_list = sub.add_parser("list", help="print registered algorithms, generators, detectors")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
