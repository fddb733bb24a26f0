"""numpy loads on first use: importing driftstream, reading a config and a run
of pure-Python learners and detectors never execute it.

Each check runs in a fresh interpreter, since this test session has numpy
loaded already. numpy counts as loaded once any ``numpy.*`` submodule is in
``sys.modules``, whatever mechanism defers it."""

import os
import subprocess
import sys
from pathlib import Path

import driftstream
from driftstream.cli import run_experiment
from driftstream.config import parse_config_file

SRC = os.path.dirname(os.path.dirname(driftstream.__file__))

LOADED = "sorted(m for m in sys.modules if m.startswith('numpy.'))[:3]"

HAT_CFG = """
experiment = online
seed = 5
source.kind = generator
source.family = sea
source.noise = 0.1
source.n = 3000
source.drift.concept = 2
source.drift.position = 1500
learner.algorithm = hoeffding_adaptive_tree
eval.detectors = adwin,ddm,eddm,page_hinkley
output.path = hat.csv
"""

KNN_CFG = """
experiment = online
seed = 5
source.kind = generator
source.family = agrawal
source.n = 800
learner.algorithm = knn_window
learner.params.window = 200
output.path = knn.csv
"""


def _write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _fresh(code: str, *args: str) -> str:
    """The standard output of ``code`` run by a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def _run_code(cfg_path: str, out_dir: str) -> str:
    return ("import sys\n"
            "from driftstream.cli import run_experiment\n"
            "from driftstream.config import parse_config_file\n"
            f"run_experiment(parse_config_file({cfg_path!r}), out_dir={out_dir!r})\n"
            f"print({LOADED})\n")


def test_import_and_config_parse_load_no_numpy(tmp_path):
    cfg = _write(tmp_path, "hat.cfg", HAT_CFG)
    code = ("import sys\n"
            "import driftstream.cli as cli\n"
            "cli.parse_config_file(sys.argv[1])\n"
            f"print({LOADED})\n")
    assert _fresh(code, cfg) == "[]\n"


def test_list_generate_and_summarize_load_no_numpy(tmp_path):
    run_experiment(parse_config_file(_write(tmp_path, "hat.cfg", HAT_CFG)),
                   out_dir=str(tmp_path))
    code = ("import contextlib, io, sys\n"
            "from driftstream.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['list']) == 0\n"
            "    assert main(['generate', '--family', 'sea', '--n', '200', '--seed', '1',\n"
            "                 '--out', sys.argv[1] + '/gen.csv']) == 0\n"
            "    assert main(['summarize', sys.argv[1] + '/hat.summary.json']) == 0\n"
            f"print({LOADED})\n")
    assert _fresh(code, str(tmp_path)) == "[]\n"


def test_tree_run_with_all_detectors_loads_no_numpy(tmp_path):
    cfg = _write(tmp_path, "hat.cfg", HAT_CFG)
    assert _fresh(_run_code(cfg, str(tmp_path))) == "[]\n"
    assert (tmp_path / "hat.csv").stat().st_size > 0


def test_knn_run_loads_numpy_and_writes_the_in_process_trace(tmp_path):
    cfg = _write(tmp_path, "knn.cfg", KNN_CFG)
    (tmp_path / "fresh").mkdir()
    assert _fresh(_run_code(cfg, str(tmp_path / "fresh"))) != "[]\n"
    run_experiment(parse_config_file(cfg), out_dir=str(tmp_path))
    assert (tmp_path / "fresh" / "knn.csv").read_bytes() == (tmp_path / "knn.csv").read_bytes()


def test_missing_numpy_fails_at_import():
    code = ("import sys\n"
            "sys.modules['numpy'] = None  # as if numpy were not installed\n"
            "try:\n"
            "    import driftstream\n"
            "except ImportError as exc:\n"
            "    print(type(exc).__name__, exc.name)\n")
    assert _fresh(code) == "ModuleNotFoundError numpy\n"
