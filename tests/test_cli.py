import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import driftstream
from driftstream.cli import EXPERIMENTS, main, run_experiment
from driftstream.config import ConfigError, parse_config_text
from driftstream.core import derive_seed
from driftstream.evaluation import run_holdout
from driftstream.generators import (
    GENERATOR_FAMILIES,
    LimitedStream,
    StaggerGenerator,
    make_generator,
    stagger_rule,
)
from driftstream.learners import BATCH_ALGORITHMS, LEARNER_REGISTRY, make_learner
from driftstream.stream_io import read_dataset, read_trace, replay_csv, write_trace

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


ONLINE_CFG = """
experiment = online
seed = 11
source.kind = generator
source.family = sea
source.concept = 0
source.n = 1500
learner.algorithm = naive_bayes
output.path = {out}
output.format = csv
"""


# -- config parsing ----------------------------------------------------------------

def test_parse_config_basics():
    flat = parse_config_text("a = 1\n# comment\n\nb.c = x\n")
    assert flat == {"a": "1", "b.c": "x"}


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ConfigError, match="expected"):
        parse_config_text("not a pair\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")


# -- run: experiment types ------------------------------------------------------------

def test_online_run_writes_trace_and_summary(tmp_path):
    cfg = write_cfg(tmp_path, "r.cfg",
                    ONLINE_CFG.format(out="r.csv"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    trace = read_trace(str(tmp_path / "r.csv"))
    assert trace.records
    summary = json.loads((tmp_path / "r.summary.json").read_text())
    assert summary["experiment"] == "online"
    assert 0 <= summary["final_cum_accuracy"] <= 1
    assert summary["config"]["learner.algorithm"] == "naive_bayes"


def test_online_majority_matches_hand_simulation(tmp_path):
    # deterministic alternating labels via a generated csv
    rows = ["x,cls"] + [f"{i},{i % 2}" for i in range(201)]
    data = tmp_path / "alt.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = write_cfg(tmp_path, "m.cfg", f"""
experiment = online
seed = 0
source.kind = csv
source.path = {data}
learner.algorithm = majority_class
eval.report_every = 50
output.path = m.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    trace = read_trace(str(tmp_path / "m.csv"))
    # sample 0 trains unscored; afterwards majority stays at class 0 with ties
    # to 0, so evens hit and odds miss: 100 hits of 200 scored
    assert trace.records[-1].cum_accuracy == pytest.approx(0.5, abs=1e-12)


def test_batch_pretrained_scores_only_after_prefix(tmp_path):
    cfg = write_cfg(tmp_path, "b.cfg", """
experiment = batch_pretrained
seed = 2
source.kind = generator
source.family = stagger
source.concept = 0
source.n = 3000
prefix_size = 500
learner.algorithm = cart_batch
output.path = b.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    trace = read_trace(str(tmp_path / "b.csv"))
    assert min(r.seq for r in trace.records) >= 500
    assert trace.final.cum_accuracy > 0.95


def test_batch_pretrained_requires_batch_algorithm(tmp_path):
    cfg = write_cfg(tmp_path, "bad.cfg", """
experiment = batch_pretrained
source.kind = generator
source.family = sea
prefix_size = 100
learner.algorithm = naive_bayes
output.path = x.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_prefix_covering_whole_stream_is_runtime_error(tmp_path):
    cfg = write_cfg(tmp_path, "p.cfg", """
experiment = batch_pretrained
source.kind = generator
source.family = sea
source.n = 400
prefix_size = 400
learner.algorithm = cart_batch
output.path = p.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("experiment, keys", [
    ("batch_pretrained", "learner.algorithm = cart_batch"),
    ("cash_pretrained", "cash.space.naive_bayes ="),
])
def test_prefix_longer_than_the_stream_exits_two_naming_the_shortfall(tmp_path, capsys,
                                                                      experiment, keys):
    cfg = write_cfg(tmp_path, "p.cfg", f"""
experiment = {experiment}
source.kind = generator
source.family = sea
source.n = 300
prefix_size = 400
{keys}
output.path = p.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "stream ended after 300 of the 400 instances" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["p.cfg"]


def test_cash_pretrained_writes_leaderboard(tmp_path):
    cfg = write_cfg(tmp_path, "c.cfg", """
experiment = cash_pretrained
seed = 5
source.kind = generator
source.family = sea
source.n = 2500
prefix_size = 400
cash.folds = 2
cash.space.majority_class =
cash.space.cart_batch.max_depth = 2,5
output.path = c.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    board = json.loads((tmp_path / "c.leaderboard.json").read_text())
    assert len(board["leaderboard"]) == 3
    assert board["best_loss"] == min(e["loss"] for e in board["leaderboard"])
    summary = json.loads((tmp_path / "c.summary.json").read_text())
    assert summary["learner"] == f"cash:{board['best']}"
    assert summary["protocol"] == "pretrained"


def test_cash_space_grids_the_epochs_of_linear_svm_batch(tmp_path):
    cfg = write_cfg(tmp_path, "c.cfg", """
experiment = cash_pretrained
source.kind = generator
source.family = sea
source.n = 600
prefix_size = 300
cash.space.linear_svm_batch.epochs = 1,3
output.path = c.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    board = json.loads((tmp_path / "c.leaderboard.json").read_text())
    assert [e["config"] for e in board["leaderboard"]] == [
        "linear_svm_batch(epochs=1)", "linear_svm_batch(epochs=3)"]


def test_holdout_run_equals_the_library_run(tmp_path):
    cfg = write_cfg(tmp_path, "h.cfg", ONLINE_CFG.format(out="h.csv").replace(
        "learner.algorithm = naive_bayes", "learner.algorithm = oza_bagging") + """
eval.protocol = holdout
eval.holdout_size = 100
eval.period = 400
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    stream = LimitedStream(make_generator("sea", seed=derive_seed(11, "generator"), concept=0),
                           1500)
    learner = make_learner("oza_bagging", stream.schema, seed=derive_seed(11, "learner"))
    trace = run_holdout(stream, learner, holdout_size=100, period=400)
    write_trace(trace, str(tmp_path / "lib.csv"))
    assert (tmp_path / "h.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
    # 1 500 instances end inside the fourth 400-instance cycle
    assert trace.meta == {"protocol": "holdout", "incomplete_final_cycle": True}
    summary = json.loads((tmp_path / "h.summary.json").read_text())
    assert {key: summary[key] for key in ("dataset", "learner", "seed", "experiment")} == {
        "dataset": "generator:sea", "learner": "oza_bagging", "seed": 11, "experiment": "online"}
    assert summary.items() >= trace.meta.items()


# Holdout runs on Agrawal with an abrupt switch. The digest of each trace
# without its drift column, and the whole trace of oza_bagging (a learner with
# no events), were recorded while the holdout loop still dropped the learner's
# events; the other whole digests and drift counts hold the events it now records.
_HOLDOUT_GOLDEN = {
    "oza_bagging": ("f8fccfcf59c16543aa46821637ef0e2b32c2ecfef73c5800711c6f2ebf64b581",
                    "a56df683ec83f7820fcfc3c968a527e9bad195c7f001d4600ce7106bdb04a7a7", 0),
    "hoeffding_adaptive_tree": (
        "43ef9066648066d14636f8adf20a1ef8c64f3931a7c562d928cad50e920bcbc5",
        "13358406fdec12a4880a84804d0d2964dbd494764d4661c77fccd1feaca7cde2", 1),
    "oza_bagging_adwin": ("5979c780d6e8e79e4bbd5c6951ee584738aa40453e2d3b16788495752e72b562",
                          "1efb775f4d72a3d00440cf2da6f6010ce934782ca400055ebf6c6113c698b4a2", 21),
}


@pytest.mark.parametrize("learner", sorted(_HOLDOUT_GOLDEN))
def test_holdout_trace_records_learner_events_and_nothing_else_changes(tmp_path, learner):
    without_drift, whole, drifts = _HOLDOUT_GOLDEN[learner]
    cfg = write_cfg(tmp_path, "h.cfg", f"""
experiment = online
seed = 5
source.kind = generator
source.family = agrawal
source.concept = 0
source.n = 3000
source.drift.concept = 4
source.drift.position = 750
learner.algorithm = {learner}
eval.protocol = holdout
eval.holdout_size = 100
eval.period = 450
output.path = h.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = (tmp_path / "h.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(data.decode())))
    col = rows[0].index("drift")
    kept = "\n".join(",".join(row[:col] + row[col + 1:]) for row in rows).encode()
    assert hashlib.sha256(kept).hexdigest() == without_drift
    assert hashlib.sha256(data).hexdigest() == whole
    assert json.loads((tmp_path / "h.summary.json").read_text())["drift_count"] == drifts


def test_failed_output_write_removes_the_files_already_written(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.cfg", """
experiment = cash_pretrained
source.kind = generator
source.family = sea
source.n = 600
prefix_size = 300
cash.space.naive_bayes =
output.path = c.csv
""")
    # a directory where the leaderboard goes makes its write fail
    (tmp_path / "c.leaderboard.json").mkdir()
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "error: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "c.leaderboard.json"]


def test_readme_config_examples_run(tmp_path):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```ini\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 4
    data = str(tmp_path / "data.csv")
    assert main(["generate", "--family", "sea", "--n", "600", "--seed", "1",
                 "--out", data]) == 0
    experiments = []
    for block in blocks:
        flat = parse_config_text(block)
        flat["source.n"] = str(min(int(flat.get("source.n", 1500)), 1500))
        if flat["source.kind"] == "csv":
            flat["source.path"] = data
        summary = run_experiment(flat, out_dir=str(tmp_path))
        assert read_trace(summary["trace_path"]).records
        experiments.append(summary["experiment"])
    assert sorted(experiments) == sorted(EXPERIMENTS)


def test_meta_online_single_member_equals_plain_run(tmp_path):
    shared = """
seed = 9
source.kind = generator
source.family = sea
source.concept = 1
source.n = 2000
output.format = csv
eval.report_every = 100
"""
    cfg2 = write_cfg(tmp_path, "plain.cfg", shared + """
experiment = online
learner.algorithm = hoeffding_tree
output.path = plain.csv
""")
    cfg4 = write_cfg(tmp_path, "meta.cfg", shared + """
experiment = meta_online
learner.roster = hoeffding_tree
learner.mode = last_best
output.path = meta.csv
""")
    assert main(["run", "--config", cfg2, "--out", str(tmp_path)]) == 0
    assert main(["run", "--config", cfg4, "--out", str(tmp_path)]) == 0
    plain = read_trace(str(tmp_path / "plain.csv"))
    meta = read_trace(str(tmp_path / "meta.csv"))
    assert [(r.seq, r.cum_accuracy, r.window_accuracy, r.kappa) for r in plain.records] == \
           [(r.seq, r.cum_accuracy, r.window_accuracy, r.kappa) for r in meta.records]


def test_csv_source_honours_n(tmp_path):
    rows = ["x,cls"] + [f"{i}.5,{i % 2}" for i in range(400)]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = write_cfg(tmp_path, "csv.cfg", f"""
experiment = online
source.kind = csv
source.path = {data}
source.n = 100
learner.algorithm = naive_bayes
output.path = csv.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert read_trace(str(tmp_path / "csv.csv")).final.seq == 99
    assert json.loads((tmp_path / "csv.summary.json").read_text())["dataset"] == "csv:d"


def test_topic_source_kind_is_a_config_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x,cls\n" + "".join(f"{i}.5,{i % 2}\n" for i in range(40)),
                    encoding="utf-8")
    cfg = write_cfg(tmp_path, "t.cfg", f"""
experiment = online
source.kind = topic
source.path = {data}
learner.algorithm = naive_bayes
output.path = t.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert ("config error: source.kind: expected one of ('generator', 'csv'), got 'topic'"
            in capsys.readouterr().err)
    assert not (tmp_path / "t.csv").exists()


# -- determinism and round-trip -------------------------------------------------------

def test_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, "d.cfg", ONLINE_CFG.format(out="d.csv"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    first = (tmp_path / "d.csv").read_bytes()
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "d.csv").read_bytes() == first


def test_summary_config_reproduces_trace(tmp_path):
    cfg = write_cfg(tmp_path, "s.cfg", ONLINE_CFG.format(out="s.csv"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    first = (tmp_path / "s.csv").read_bytes()
    summary = json.loads((tmp_path / "s.summary.json").read_text())
    rebuilt = "\n".join(f"{k} = {v}" for k, v in summary["config"].items())
    cfg2 = write_cfg(tmp_path, "s2.cfg", rebuilt)
    assert main(["run", "--config", cfg2, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "s.csv").read_bytes() == first


def test_summary_config_holds_the_values_the_run_used(tmp_path):
    cfg = write_cfg(tmp_path, "u.cfg", ONLINE_CFG.format(out="u.csv"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "u.summary.json").read_text())
    assert summary["config"] == dict(
        parse_config_text(ONLINE_CFG.format(out="u.csv")),
        **{"eval.protocol": "prequential", "eval.pretrain": "0", "eval.detectors": "",
           "eval.report_every": "100", "eval.window": "200"})


def test_seed_override_changes_trace(tmp_path):
    cfg = write_cfg(tmp_path, "o.cfg", ONLINE_CFG.format(out="o.csv"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    first = (tmp_path / "o.csv").read_bytes()
    assert main(["run", "--config", cfg, "--out", str(tmp_path), "--seed", "99"]) == 0
    assert (tmp_path / "o.csv").read_bytes() != first


def test_suite_mode_runs_directory(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    for i, fam in enumerate(("sea", "stagger")):
        write_cfg(suite, f"{fam}.cfg", f"""
experiment = online
seed = {i}
source.kind = generator
source.family = {fam}
source.n = 800
learner.algorithm = naive_bayes
output.path = {fam}.csv
""")
    assert main(["run", "--config", str(suite), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sea.csv").exists()
    assert (tmp_path / "stagger.csv").exists()


def test_run_directory_without_configs_exits_one(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no configs here\n", encoding="utf-8")
    assert main(["run", "--config", str(tmp_path), "--out", str(tmp_path)]) == 1
    assert f"config error: no .cfg files in {tmp_path}\n" in capsys.readouterr().err


@pytest.mark.parametrize("lines, message", [
    ("output.path = f.csv\noutput.format = json",
     "output.format: expected one of ('csv',), got 'json'"),
    ("output.path = f.json",
     "output.path = f.json: a trace is CSV, so its path must not end in .json"),
], ids=["output_format_json", "output_path_json"])
def test_json_trace_output_exits_one_before_the_source_is_built(tmp_path, capsys, lines,
                                                                message):
    # the source's file does not exist: building the source would exit two
    cfg = write_cfg(tmp_path, "f.cfg", f"""
experiment = online
source.kind = csv
source.path = {tmp_path / "missing.csv"}
learner.algorithm = naive_bayes
{lines}
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.cfg"]


def test_importing_the_cli_loads_no_process_pool():
    # runs are single-process: nothing loads the process pool's modules
    code = ("import sys, driftstream.cli; print(sorted(set(sys.modules) & "
            "{'multiprocessing', 'concurrent.futures.process'}))")
    src = os.path.dirname(os.path.dirname(driftstream.__file__))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


# -- generate --------------------------------------------------------------------------

def test_generate_is_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["generate", "--family", "sea", "--n", "300", "--seed", "4"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_generate_writes_rows_as_it_draws_them(tmp_path, capsys):
    def peak_bytes(n):
        out = str(tmp_path / f"sea{n}.csv")
        tracemalloc.start()
        try:
            assert main(["generate", "--family", "sea", "--n", str(n), "--out", out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak_bytes(4_000), peak_bytes(40_000)
    # holding the 36 000 extra rows would take megabytes
    assert large - small < 64 * 1024, (small, large)


def test_generate_zero_rows_rejected(tmp_path):
    assert main(["generate", "--family", "sea", "--n", "0",
                 "--out", str(tmp_path / "x.csv")]) == 1


def test_generate_with_drift_switches_rule(tmp_path):
    out = str(tmp_path / "drift.csv")
    assert main(["generate", "--family", "stagger", "--concept", "0",
                 "--drift-concept", "2", "--drift-position", "5000",
                 "--n", "10000", "--seed", "1", "--out", out]) == 0
    insts = list(replay_csv(read_dataset(out), StaggerGenerator.schema))
    for inst in insts[:4980]:
        assert inst.y == stagger_rule(0, int(inst.x[0]), int(inst.x[1]), int(inst.x[2]))
    for inst in insts[5020:]:
        assert inst.y == stagger_rule(2, int(inst.x[0]), int(inst.x[1]), int(inst.x[2]))


# -- summarize / list ---------------------------------------------------------------------

def _write_summary(path, learner, accuracy, **extra):
    """A run summary holding what ``summarize`` reads, as ``run`` writes it."""
    summary = dict(extra, learner=learner, final_cum_accuracy=accuracy)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def test_summarize_statistics(tmp_path, capsys):
    for name, acc in (("a", 0.5), ("b", 0.7), ("c", 0.9)):
        _write_summary(tmp_path / f"{name}.summary.json", "nb", acc, dataset=name, seed=0)
    # a run's other outputs in the same directory are not summaries
    (tmp_path / "a.csv").write_text("not read\n", encoding="utf-8")
    (tmp_path / "a.leaderboard.json").write_text("{}\n", encoding="utf-8")
    out_csv = str(tmp_path / "summary.csv")
    assert main(["summarize", str(tmp_path), "--out", out_csv]) == 0
    printed = capsys.readouterr().out
    assert "nb" in printed
    line = [l for l in Path(out_csv).read_text().splitlines() if l.startswith("nb")][0]
    _, n, mean, median, lo, hi = line.split(",")
    assert (n, mean, median, lo, hi) == ("3", "0.7000", "0.7000", "0.5000", "0.9000")


def test_summarize_single_trace_mean_equals_median(tmp_path, capsys):
    _write_summary(tmp_path / "only.summary.json", "nb", 0.8)
    assert main(["summarize", str(tmp_path)]) == 0
    row = [l for l in capsys.readouterr().out.splitlines() if l.startswith("nb")][0]
    assert row.split()[2] == row.split()[3] == "0.8000"


def test_summarize_counts_every_seed_as_a_run(tmp_path, capsys):
    # the default output: a CSV trace, named after the config
    cfg = write_cfg(tmp_path, "nb.cfg", ONLINE_CFG.replace("output.path = {out}\n", ""))
    finals = []
    for seed in (1, 2, 3):
        out = tmp_path / f"seed{seed}"
        assert main(["run", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == 0
        assert read_trace(str(out / "nb.csv")).records
        summary = json.loads((out / "nb.summary.json").read_text())
        assert (summary["learner"], summary["seed"]) == ("naive_bayes", seed)
        finals.append(summary["final_cum_accuracy"])
    capsys.readouterr()
    assert main(["summarize", *(str(tmp_path / f"seed{s}") for s in (1, 2, 3))]) == 0
    row = [l for l in capsys.readouterr().out.splitlines() if l.startswith("naive_bayes")]
    assert row[0].split()[1:] == ["3", f"{sum(finals) / 3:.4f}", f"{sorted(finals)[1]:.4f}",
                                  f"{min(finals):.4f}", f"{max(finals):.4f}"]


@pytest.mark.parametrize("name, text, message", [
    ("r.csv", "seq,cum_accuracy,window_accuracy,kappa,drift,active_learner\n99,0.5,0.5,0.0,,\n",
     "summarize takes run summaries (*.summary.json) only"),
    ("r.leaderboard.json", "{}\n", "summarize takes run summaries (*.summary.json) only"),
    ("r.summary.json", '{"learner": "nb",\n', "Expecting"),
    ("r.summary.json", "[]\n", "not a run summary: list, not an object"),
    ("r.summary.json", '{"final_cum_accuracy": 0.5}\n', "learner None is not a string"),
    ("r.summary.json", '{"learner": 3, "final_cum_accuracy": 0.5}\n',
     "learner 3 is not a string"),
    ("r.summary.json", '{"learner": "nb"}\n', "final_cum_accuracy None is not a number"),
    ("r.summary.json", '{"learner": "nb", "final_cum_accuracy": "0.5"}\n',
     "final_cum_accuracy '0.5' is not a number"),
    ("r.summary.json", '{"learner": "nb", "final_cum_accuracy": true}\n',
     "final_cum_accuracy True is not a number"),
], ids=["csv_trace", "leaderboard", "not_json", "not_an_object", "learner_missing",
        "learner_int", "accuracy_missing", "accuracy_string", "accuracy_bool"])
def test_summarize_rejects_a_file_that_is_not_a_run_summary(tmp_path, capsys, name, text,
                                                            message):
    _write_summary(tmp_path / "ok.summary.json", "nb", 0.8)
    path = tmp_path / "bad" / name
    path.parent.mkdir()
    path.write_text(text, encoding="utf-8")
    assert main(["summarize", str(tmp_path), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err


def test_summarize_takes_an_integer_accuracy(tmp_path, capsys):
    _write_summary(tmp_path / "r.summary.json", "nb", 1)
    assert main(["summarize", str(tmp_path / "r.summary.json")]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["nb", "1"] + ["1.0000"] * 4


def test_summarize_out_quotes_a_label_holding_commas(tmp_path, capsys):
    labels = ("cash:cart_batch(max_depth=4,min_leaf=1)", "nb")
    for i, learner in enumerate(labels):
        _write_summary(tmp_path / f"{i}.summary.json", learner, 0.8)
    out_csv = tmp_path / "table.csv"
    assert main(["summarize", str(tmp_path), "--out", str(out_csv)]) == 0
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["learner", "runs", "mean", "median", "min", "max"]
    assert [row[0] for row in rows[1:]] == list(labels)
    assert all(len(row) == 6 for row in rows)
    # a label with no comma keeps the bytes of a plain comma join
    assert out_csv.read_text().splitlines()[2] == "nb,1,0.8000,0.8000,0.8000,0.8000"


def test_summarize_empty_directory_fails(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["summarize", str(empty)]) == 2
    assert "error: no run summaries (*.summary.json) found to summarize" in capsys.readouterr().err


def test_list_prints_registries(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    # parameter lists come from the constructors, so adwin's bucket settings
    # and cart_batch's max_features are listed too
    for needle in ("hoeffding_tree", "adwin", "stagger", "leveraging_bagging",
                   "max_buckets=5", "max_features=None"):
        assert needle in out
    assert "seed=" not in out and "schema" not in out
    # rbf always draws its centroid weights: its constructor takes none
    assert "weights=" not in out


def _listed_params(capsys, name):
    """The ``key=value`` pairs ``driftstream list`` prints for ``name``."""
    assert main(["list"]) == 0
    for line in capsys.readouterr().out.splitlines():
        head, _, params = line.strip().partition(": ")
        if head.split(" ")[0] == name:
            return [] if params == "-" else [p.split("=", 1) for p in params.split(", ")]
    raise AssertionError(f"{name} is not listed")


@pytest.mark.parametrize("prefix, name", [("learner.params", a) for a in sorted(LEARNER_REGISTRY)]
                         + [("source", f) for f in sorted(GENERATOR_FAMILIES)])
def test_listed_defaults_set_explicitly_leave_the_trace_unchanged(tmp_path, capsys, prefix,
                                                                  name):
    listed = _listed_params(capsys, name)
    # only these two constructors take no parameter besides schema and seed
    assert bool(listed) != (name in ("majority_class", "naive_bayes"))
    if prefix == "source":
        experiment, body = "online", f"source.family = {name}\nlearner.algorithm = naive_bayes"
    else:
        experiment = "batch_pretrained" if name in BATCH_ALGORITHMS else "online"
        body = f"source.family = sea\nlearner.algorithm = {name}"
        if name in BATCH_ALGORITHMS:
            body += "\nprefix_size = 100"
    traces = []
    for tag, lines in (("plain", []), ("explicit", [f"{prefix}.{k} = {v}" for k, v in listed])):
        cfg = write_cfg(tmp_path, f"{tag}.cfg", "\n".join([
            f"experiment = {experiment}", "seed = 5", "source.kind = generator",
            "source.n = 400", body, f"output.path = {tag}.csv", *lines]) + "\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        traces.append((tmp_path / f"{tag}.csv").read_bytes())
    assert traces[0] == traces[1]


# -- error reporting ---------------------------------------------------------------------

def test_missing_config_key_exits_one(tmp_path):
    cfg = write_cfg(tmp_path, "bad.cfg", "experiment = online\noutput.path = x.csv\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_unknown_experiment_exits_one(tmp_path):
    cfg = write_cfg(tmp_path, "bad2.cfg", """
experiment = wat
source.kind = generator
source.family = sea
learner.algorithm = naive_bayes
output.path = x.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_unreadable_config_exits_one(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_config_that_is_not_utf8_exits_one_naming_it(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"experiment = online\nseed = \xff\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff")


def test_holdout_with_detectors_exits_one(tmp_path):
    cfg = write_cfg(tmp_path, "h.cfg", ONLINE_CFG.format(out="h.csv") + """
eval.protocol = holdout
eval.holdout_size = 100
eval.period = 500
eval.detectors = ddm,adwin
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("body", [
    ONLINE_CFG.format(out="u.csv").replace(
        "learner.algorithm = naive_bayes",
        "learner.algorithm = knn_window\nlearner.params.kk = 3"),
    """
experiment = cash_pretrained
source.kind = generator
source.family = sea
source.n = 1000
prefix_size = 200
cash.space.naive_bayes =
cash.space.knn_batch.kk = 1,2
output.path = u.csv
""",
], ids=["learner.params", "cash.space"])
def test_unknown_learner_parameter_exits_one(tmp_path, capsys, body):
    cfg = write_cfg(tmp_path, "u.cfg", body)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "has no parameter 'kk'" in capsys.readouterr().err
    assert not (tmp_path / "u.csv").exists()


def test_callable_learner_parameter_exits_one(tmp_path, capsys):
    # members are built by the ensemble's own _new_member, not by a constructor parameter
    cfg = write_cfg(tmp_path, "f.cfg", ONLINE_CFG.format(out="f.csv").replace(
        "learner.algorithm = naive_bayes",
        "learner.algorithm = oza_bagging\nlearner.params.member_factory = x"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "has no parameter 'member_factory'" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_generate_unknown_param_exits_one(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["generate", "--family", "sea", "--param", "nois=0.1", "--n", "10",
                 "--out", str(out)]) == 1
    assert "sea has no parameter 'nois'" in capsys.readouterr().err
    assert not out.exists()
    assert main(["generate", "--family", "sea", "--param", "noise=0.1", "--n", "10",
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("line, replacement", [
    ("learner.algorithm = naive_bayes", "learner.algorithm = naive_bays"),
    ("experiment = online", "experiment = meta_online\nlearner.roster = hoeffding_tree,naive_bays"),
], ids=["learner.algorithm", "learner.roster"])
def test_unknown_algorithm_exits_one(tmp_path, capsys, line, replacement):
    cfg = write_cfg(tmp_path, "a.cfg",
                    ONLINE_CFG.format(out="a.csv").replace(line, replacement))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "unknown algorithm 'naive_bays'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("eval.window", "0"),
    ("eval.report_every", "0"),
    ("cash.folds", "1"),
])
def test_value_that_would_fail_later_exits_one(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path, "v.cfg", f"""
experiment = cash_pretrained
source.kind = generator
source.family = sea
source.n = 1000
prefix_size = 200
cash.space.naive_bayes =
{key} = {value}
output.path = v.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"config error: {key} must be >= " in capsys.readouterr().err
    assert not (tmp_path / "v.csv").exists()


_HOLDOUT = "eval.protocol = holdout\neval.holdout_size = 100\neval.period = 500\n"


@pytest.mark.parametrize("old, new, keys, experiment", [
    ("learner.algorithm = naive_bayes", "learner.algorithm = knn_window\nlearner.parms.k = 1",
     "learner.parms.k", "online"),
    ("learner.algorithm = naive_bayes", "learner.algorithm = naive_bayes\neval.protocl = holdout",
     "eval.protocl", "online"),
    ("learner.algorithm = naive_bayes", "learner.algorithm = knn_window\nlearner.parms.k = 1\n"
     "eval.protocl = holdout", "learner.parms.k, eval.protocl", "online"),
    ("source.concept = 0", "source.nois = 0.1", "source.nois", "online"),
    # rbf always draws its centroid weights: its constructor takes none
    ("source.family = sea\nsource.concept = 0", "source.family = rbf\nsource.weights = 1",
     "source.weights", "online"),
    ("source.kind = generator\nsource.family = sea\nsource.concept = 0",
     "source.kind = csv\nsource.path = {data}\nsource.drift.concept = 1",
     "source.drift.concept", "online"),
    ("experiment = online", "experiment = meta_online", "learner.algorithm", "meta_online"),
    ("learner.algorithm = naive_bayes", f"learner.algorithm = naive_bayes\n{_HOLDOUT}"
     "eval.pretrain = 10", "eval.pretrain", "online"),
    ("learner.algorithm = naive_bayes", f"learner.algorithm = naive_bayes\n{_HOLDOUT}"
     "eval.window = 50", "eval.window", "online"),
], ids=["learner.parms", "eval.protocl", "both", "source.nois", "rbf.weights",
        "csv.source.drift", "meta_online.learner.algorithm", "holdout.eval.pretrain",
        "holdout.eval.window"])
def test_unread_key_exits_one_before_first_instance(tmp_path, capsys, monkeypatch, old, new,
                                                    keys, experiment):
    from driftstream.generators import RbfGenerator, SeaGenerator
    from driftstream.stream_io import CsvReplayStream
    pulls = [_count_pulls(monkeypatch, cls)
             for cls in (SeaGenerator, RbfGenerator, CsvReplayStream)]
    data = tmp_path / "d.csv"
    data.write_text("x,label\n" + "".join(f"{i}.0,{'ab'[i % 2]}\n" for i in range(40)),
                    encoding="utf-8")
    text = ONLINE_CFG.format(out="k.csv")
    assert old in text
    cfg = write_cfg(tmp_path, "k.cfg", text.replace(old, new.format(data=data)))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert (f"config error: {keys}: not read by this {experiment} run\n"
            in capsys.readouterr().err)
    assert pulls == [[], [], []]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "k.cfg"]


@pytest.mark.parametrize("kind", ["csv"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_csv_source_n_below_one_exits_one_before_reading(tmp_path, capsys, monkeypatch,
                                                         kind, n):
    data = tmp_path / "d.csv"
    data.write_text("x,label\n1.0,a\n2.0,b\n", encoding="utf-8")
    reads = []
    monkeypatch.setattr("driftstream.cli.read_dataset",
                        lambda *args: reads.append(args) or read_dataset(*args))
    cfg = write_cfg(tmp_path, "n.cfg", f"""
experiment = online
source.kind = {kind}
source.path = {data}
source.n = {n}
learner.algorithm = majority_class
output.path = n.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "config error: source.n must be >= 1" in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "n.csv").exists()


@pytest.mark.parametrize("experiment, lines, message", [
    ("online", "learner.algorithm = knn_window\nlearner.params.k = 0",
     "learner knn_window: k and window must be >= 1"),
    ("online", "learner.algorithm = oza_bagging\nlearner.params.n_members = 0",
     "learner oza_bagging: n_members must be >= 1"),
    ("batch_pretrained", "learner.algorithm = cart_batch\nlearner.params.max_depth = 0\n"
     "prefix_size = 10", "learner cart_batch: max_depth and min_leaf must be >= 1"),
    ("meta_online", "learner.window = 0", "meta_online: window must be >= 1"),
    ("online", "learner.algorithm = naive_bayes\neval.pretrain = -5",
     "eval.pretrain must be >= 0"),
    ("online", "learner.algorithm = hoeffding_tree\nlearner.params.delta = 0",
     "learner hoeffding_tree: delta must be in (0, 1]"),
    ("online", "learner.algorithm = hoeffding_tree\nlearner.params.grace_period = 0",
     "learner hoeffding_tree: grace_period must be >= 1"),
    ("online", "learner.algorithm = hoeffding_adaptive_tree\nlearner.params.adwin_delta = 0",
     "learner hoeffding_adaptive_tree: adwin_delta must be in (0, 1]"),
    ("batch_pretrained", "learner.algorithm = linear_svm_batch\nlearner.params.epochs = 0\n"
     "prefix_size = 10", "learner linear_svm_batch: epochs must be >= 1"),
    ("batch_pretrained", "learner.algorithm = cart_batch\nlearner.params.epochs = 2\n"
     "prefix_size = 10", "learner.params.epochs: cart_batch has no parameter 'epochs'"),
    ("batch_pretrained", "learner.algorithm = linear_svm_batch\nlearner.epochs = 3\n"
     "prefix_size = 10", "learner.epochs: not read by this batch_pretrained run"),
    ("online", "learner.algorithm = naive_bayes\nlearner.params.default_class = 1",
     "learner.params.default_class: naive_bayes has no parameter 'default_class'"),
    ("cash_pretrained", "prefix_size = 30\ncash.space.knn_batch.k = 0,1",
     "cash candidate knn_batch(k=0): k must be >= 1"),
    ("cash_pretrained", "prefix_size = 30\ncash.space.hoeffding_tree =\ncash.epochs = 2",
     "cash.epochs: not read by this cash_pretrained run"),
    ("cash_pretrained", "prefix_size = 30\ncash.space.naive_bayes =\ncash.budget = 0",
     "cash.budget must be >= 1"),
    ("cash_pretrained", "prefix_size = 20\ncash.space.naive_bayes =",
     "prefix_size must be >= 10 * cash.folds = 30"),
    ("online", "learner.algorithm = naive_bayes\neval.protocol = holdout\n"
     "eval.holdout_size = 0\neval.period = 10", "eval.holdout_size must be >= 1"),
    ("online", "learner.algorithm = naive_bayes\neval.protocol = holdout\n"
     "eval.holdout_size = 10\neval.period = 10", "eval.period must exceed eval.holdout_size"),
    ("online", "learner.algorithm = linear_sgd\nlearner.params.lr = -0.5",
     "learner linear_sgd: lr must be finite and > 0"),
    ("online", "learner.algorithm = perceptron\nlearner.params.lr = 0",
     "learner perceptron: lr must be finite and > 0"),
    ("batch_pretrained", "learner.algorithm = linear_svm_batch\nlearner.params.lr = inf\n"
     "prefix_size = 10", "learner linear_svm_batch: lr must be finite and > 0"),
    ("online", "learner.algorithm = hoeffding_tree\nlearner.params.tau = -1",
     "learner hoeffding_tree: tau must be finite and >= 0"),
    ("online", "learner.algorithm = hoeffding_tree\nlearner.params.tau = nan",
     "learner hoeffding_tree: tau must be finite and >= 0"),
    ("online", "learner.algorithm = hoeffding_adaptive_tree\nlearner.params.tau = inf",
     "learner hoeffding_adaptive_tree: tau must be finite and >= 0"),
    ("online", "learner.algorithm = cart_batch",
     "online requires an incremental algorithm, got 'cart_batch'"),
    ("online", "learner.algorithm = naive_bayes\neval.detectors = adwin,page",
     "eval.detectors: unknown detector 'page'"),
    ("online", "learner.algorithm = naive_bayes\neval.detectors = adwin,adwin,ddm",
     "eval.detectors: 'adwin' is listed twice"),
    ("cash_pretrained", "prefix_size = 30",
     "cash_pretrained requires at least one cash.space.<algorithm> entry"),
    ("meta_online", "learner.roster = naive_bayes,cart_batch",
     "meta_online roster must be incremental, got 'cart_batch'"),
    ("meta_online", "learner.roster =", "meta_online: empty learner roster"),
    ("meta_online", "learner.roster = ,", "meta_online: empty learner roster"),
], ids=["knn_window.k", "oza_bagging.n_members", "cart_batch.max_depth",
        "meta_online.window", "eval.pretrain", "hoeffding_tree.delta",
        "hoeffding_tree.grace_period", "hoeffding_adaptive_tree.adwin_delta",
        "linear_svm_batch.epochs", "cart_batch.epochs", "learner.epochs",
        "learner.params.default_class", "cash.space.knn_batch.k",
        "cash.epochs", "cash.budget", "cash.prefix_size", "eval.holdout_size",
        "eval.period", "linear_sgd.lr", "perceptron.lr", "linear_svm_batch.lr",
        "hoeffding_tree.tau.negative", "hoeffding_tree.tau.nan",
        "hoeffding_adaptive_tree.tau.inf", "online.batch_algorithm", "detectors.unknown",
        "detectors.repeated", "cash.space.missing", "meta_online.roster.batch",
        "meta_online.roster.empty", "meta_online.roster.comma"])
def test_value_rejected_before_first_instance_exits_one(tmp_path, capsys, experiment,
                                                        lines, message):
    data = tmp_path / "d.csv"
    data.write_text("x,label\n" + "".join(f"{i}.0,{'ab'[i % 2]}\n" for i in range(40)),
                    encoding="utf-8")
    cfg = write_cfg(tmp_path, "b.cfg", f"""
experiment = {experiment}
source.kind = csv
source.path = {data}
{lines}
output.path = b.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("lines, message", [
    ("source.noise = abc", "source.noise: expected a number, got 'abc'"),
    ("learner.params.grace_period = 2.5",
     "learner.params.grace_period: expected an integer, got 2.5"),
    ("learner.params.grace_period = true",
     "learner.params.grace_period: expected an integer, got True"),
    ("learner.params.delta = false", "learner.params.delta: expected a number, got False"),
], ids=["source.noise", "grace_period.float", "grace_period.bool", "delta.bool"])
def test_value_of_wrong_type_exits_one(tmp_path, capsys, lines, message):
    cfg = write_cfg(tmp_path, "t.cfg", ONLINE_CFG.format(out="t.csv").replace(
        "learner.algorithm = naive_bayes", f"learner.algorithm = hoeffding_tree\n{lines}"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_grid_value_of_wrong_type_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "g.cfg", """
experiment = cash_pretrained
source.kind = generator
source.family = sea
source.n = 1000
prefix_size = 200
cash.space.knn_batch.k = 1,2.5
output.path = g.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert ("config error: cash.space.knn_batch.k: expected an integer, got 2.5"
            in capsys.readouterr().err)
    assert not (tmp_path / "g.csv").exists()


def test_int_for_a_float_parameter_runs_as_the_float(tmp_path):
    traces = []
    for name, noise, delta in (("i", "0", "1"), ("f", "0.0", "1.0")):
        cfg = write_cfg(tmp_path, f"{name}.cfg", ONLINE_CFG.format(
            out=f"{name}.csv").replace(
            "learner.algorithm = naive_bayes",
            f"learner.algorithm = hoeffding_tree\nlearner.params.delta = {delta}\n"
            f"source.noise = {noise}"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        traces.append((tmp_path / f"{name}.csv").read_bytes())
    assert traces[0] == traces[1]


def test_generate_param_of_wrong_type_exits_one(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["generate", "--family", "sea", "--param", "noise=abc", "--n", "10",
                 "--out", str(out)]) == 1
    assert "config error: --param noise: expected a number, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


def _count_pulls(monkeypatch, cls):
    pulls = []
    original = cls.__next__
    monkeypatch.setattr(cls, "__next__", lambda self: pulls.append(1) or original(self))
    return pulls


@pytest.mark.parametrize("lines, message", [
    ("source.noise = 2.5", "source sea: noise must be in [0, 1)"),
    ("source.concept = 9", "source sea: sea concept must be in 0..3, got 9"),
    ("source.drift.concept = 1\nsource.drift.position = 100\nsource.drift.width = 0",
     "source.drift: width must be >= 1"),
    ("source.drift.concept = 1\nsource.drift.position = -5",
     "source.drift: position must be >= 0"),
    ("source.drift.concept = 9\nsource.drift.position = 100",
     "source.drift: sea concept must be in 0..3, got 9"),
    ("source.family = hyperplane\nsource.noise = 2.5",
     "source hyperplane: noise must be in [0, 1)"),
    ("source.family = hyperplane\nsource.reversal_prob = -3",
     "source hyperplane: reversal_prob must be in [0, 1]"),
    ("source.family = hyperplane\nsource.magnitude = inf",
     "source hyperplane: magnitude must be finite and >= 0"),
    ("source.family = rbf\nsource.speed = nan",
     "source rbf: speed and stddev must be finite and >= 0"),
    ("source.family = rbf\nsource.stddev = inf",
     "source rbf: speed and stddev must be finite and >= 0"),
], ids=["noise", "concept", "drift.width", "drift.position", "drift.concept",
        "hyperplane.noise", "hyperplane.reversal_prob", "hyperplane.magnitude",
        "rbf.speed", "rbf.stddev"])
def test_source_constructor_error_exits_one_before_first_instance(tmp_path, capsys, monkeypatch,
                                                                  lines, message):
    from driftstream.generators import HyperplaneGenerator, RbfGenerator, SeaGenerator
    pulls = [_count_pulls(monkeypatch, cls)
             for cls in (SeaGenerator, HyperplaneGenerator, RbfGenerator)]
    text = ONLINE_CFG.format(out="s.csv").replace("source.concept = 0\n", "")
    if "source.family" in lines:
        text = text.replace("source.family = sea\n", "")
    cfg = write_cfg(tmp_path, "s.cfg", text + lines + "\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert pulls == [[], [], []]
    assert not (tmp_path / "s.csv").exists()


def test_config_error_inside_a_source_constructor_keeps_its_message(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "l.cfg", ONLINE_CFG.format(out="l.csv").replace(
        "source.family = sea\nsource.concept = 0",
        "source.family = led\nsource.drift.concept = 1\nsource.drift.position = 10"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "config error: family 'led' has no concept switch\n" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--param", "noise=2.5"], "family sea: noise must be in [0, 1)"),
    (["--concept", "9"], "family sea: sea concept must be in 0..3, got 9"),
    (["--drift-concept", "1", "--drift-position", "5", "--drift-width", "0"],
     "drift: width must be >= 1"),
    (["--drift-concept", "1", "--drift-position", "-5"], "drift: position must be >= 0"),
    (["--drift-position", "2", "--drift-width", "3"],
     "--drift-position and --drift-width need --drift-concept"),
    (["--drift-width", "3"], "--drift-position and --drift-width need --drift-concept"),
    (["--family", "hyperplane", "--param", "noise=-0.1"],
     "family hyperplane: noise must be in [0, 1)"),
    (["--family", "hyperplane", "--param", "magnitude=nan"],
     "family hyperplane: magnitude must be finite and >= 0"),
    (["--family", "rbf", "--param", "speed=nan"],
     "family rbf: speed and stddev must be finite and >= 0"),
    (["--family", "rbf", "--param", "stddev=-inf"],
     "family rbf: speed and stddev must be finite and >= 0"),
    (["--param", "noise"], "--param expects key=value, got 'noise'"),
    (["--family", "led", "--concept", "1"], "family 'led' has no concept index"),
    (["--drift-concept", "1"], "--drift-position is required with --drift-concept"),
    (["--concept", "0", "--param", "concept=2"],
     "--param concept: set the concept with --concept"),
], ids=["noise", "concept", "drift.width", "drift.position", "drift.no_concept",
        "drift.width.no_concept", "hyperplane.noise", "hyperplane.magnitude",
        "rbf.speed", "rbf.stddev", "param.no_equals", "led.concept", "drift.no_position",
        "param.concept"])
def test_generate_constructor_error_exits_one(tmp_path, capsys, args, message):
    out = tmp_path / "g.csv"
    assert main(["generate", "--family", "sea", "--n", "10", "--out", str(out)] + args) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, algorithm, param, value, message", [
    ("online", "hoeffding_tree", "max_depth", "0", "max_depth must be None or an integer >= 1"),
    ("online", "hoeffding_tree", "max_depth", "-3", "max_depth must be None or an integer >= 1"),
    ("batch_pretrained", "cart_batch", "max_features", "0",
     "max_features must be None or an integer >= 1"),
    ("batch_pretrained", "cart_batch", "max_features", "-2",
     "max_features must be None or an integer >= 1"),
    ("batch_pretrained", "random_forest_batch", "max_features", "0",
     "max_features must be None or an integer >= 1"),
    ("batch_pretrained", "random_forest_batch", "max_depth", "0",
     "max_depth and min_leaf must be >= 1"),
], ids=["tree.max_depth.0", "tree.max_depth.-3", "cart.max_features.0",
        "cart.max_features.-2", "forest.max_features", "forest.max_depth"])
def test_none_default_parameter_out_of_range_exits_one(tmp_path, capsys, monkeypatch,
                                                       experiment, algorithm, param, value,
                                                       message):
    from driftstream.generators import SeaGenerator
    pulls = _count_pulls(monkeypatch, SeaGenerator)
    prefix = "\nprefix_size = 200" if experiment == "batch_pretrained" else ""
    cfg = write_cfg(tmp_path, "p.cfg", ONLINE_CFG.format(out="p.csv").replace(
        "experiment = online", f"experiment = {experiment}{prefix}").replace(
        "learner.algorithm = naive_bayes",
        f"learner.algorithm = {algorithm}\nlearner.params.{param} = {value}"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"config error: learner {algorithm}: {message}" in capsys.readouterr().err
    assert pulls == []
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("data_bytes, message", [
    (b"\nx,label\n1.0,a\n2.0,b\n", "the header line is blank"),
    (b"x,label\n1.0,a\n" + b"7" * 140_000 + b",b\n",
     "row 2: field larger than field limit (131072)"),
    (b"x,lab\xffel\n1.0,a\n2.0,b\n", "not UTF-8 text: byte 0xff: invalid start byte"),
    (b"c,x,label\nred,1.0,a\nred,2.0,b\n", "column 'c' has a single value"),
    (b"x,label\n1.0,a\n2.0,a\n", "label column has fewer than 2 classes"),
    (b"y\n" + b"a\nb\n" * 400, "no feature columns"),
    # past the first decoded chunk and the first blocks of rows
    (b"x,label\n" + b"".join(b"%d.5,%s\n" % (i, (b"a", b"b")[i % 2]) for i in range(3000))
     + b"1.0,\xff\n", "not UTF-8 text: byte 0xff: invalid start byte"),
], ids=["blank_header", "field_over_limit", "not_utf8_header", "single_category",
        "single_class", "no_features", "not_utf8_row"])
def test_run_reports_an_unreadable_csv_with_exit_two(tmp_path, capsys, data_bytes, message):
    data = tmp_path / "d.csv"
    data.write_bytes(data_bytes)
    cfg = write_cfg(tmp_path, "b.cfg", f"""
experiment = online
source.kind = csv
source.path = {data}
learner.algorithm = majority_class
output.path = b.csv
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"error: {data}: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.cfg", "d.csv"]
