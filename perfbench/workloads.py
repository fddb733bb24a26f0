"""The benchmark's workloads: each one's config, inputs and seeds.

Every seed derives from the workload seed given on the command line, so the
same ``--seed`` always gives the same config and the same input file. A
workload with ``fixed_seed`` uses the same program seed whatever ``--seed``
is: its work per pass depends too much on the stream (see README.md).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass

REPORT_EVERY = 100
EVAL_WINDOW = 200
SEA_NOISE = 0.1
SEA_THRESHOLDS = {0: 8.0, 1: 9.0, 2: 7.0, 3: 9.5}  # x1 + x2 <= theta is class 1


def sub_seed(seed: int, label: str) -> int:
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiment: str
    n: int                  # stream instances in one experiment
    drift_position: int     # first instance of the post-drift concept
    tick_every: int         # source instances between two reference loops
    body: str               # config lines besides seed and output
    sea_concepts: tuple = ()  # (pre, post) concept when the stream is SEA
    from_csv: bool = False    # the input is a CSV written by `driftstream generate`
    fixed_seed: bool = False  # the program seed does not depend on --seed

    def prepare(self, seed: int, out_dir: str, src_dir: str) -> str:
        """Write this workload's inputs and config; return the config path."""
        lines = [f"experiment = {self.experiment}",
                 f"seed = {sub_seed(0 if self.fixed_seed else seed, self.name)}",
                 self.body.strip()]
        if self.from_csv:
            csv_path = os.path.join(out_dir, f"{self.name}.input.csv")
            write_sea_csv(csv_path, self.n, self.sea_concepts,
                          self.drift_position, sub_seed(seed, "csv"), src_dir)
            lines.append(f"source.path = {csv_path}")
        else:
            lines += [f"source.n = {self.n}", f"source.drift.position = {self.drift_position}"]
        lines += [f"eval.report_every = {REPORT_EVERY}",
                  f"eval.window = {EVAL_WINDOW}",
                  f"output.path = {self.name}.trace.csv",
                  "output.format = csv"]
        cfg_path = os.path.join(out_dir, f"{self.name}.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return cfg_path


def write_sea_csv(path, rows, concepts, position, seed, src_dir) -> None:
    """Write the input file with the program's own `driftstream generate`, in a
    child interpreter, so that generating it costs the measured process no
    time and no memory."""
    pre, post = concepts
    cmd = [sys.executable, "-m", "driftstream.cli", "generate", "--family", "sea",
           "--concept", str(pre), "--drift-concept", str(post),
           "--drift-position", str(position), "--n", str(rows), "--seed", str(seed),
           "--param", f"noise={SEA_NOISE}", "--out", path]
    env = dict(os.environ, PYTHONPATH=src_dir)
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="online_hat_drift",
            why=("Hoeffding adaptive tree with four drift monitors on noisy SEA with an "
                 "abrupt switch: ADWIN and the tree dominate; no kNN, meta, search or CSV"),
            experiment="online",
            n=8000,
            drift_position=4000,
            tick_every=40,
            sea_concepts=(0, 3),
            body=f"""
source.kind = generator
source.family = sea
source.concept = 0
source.noise = {SEA_NOISE}
source.drift.concept = 3
learner.algorithm = hoeffding_adaptive_tree
eval.protocol = prequential
eval.detectors = page_hinkley,ddm,eddm,adwin
""",
        ),
        Workload(
            name="meta_roster",
            why=("online meta-selection over the default four-learner roster on Agrawal "
                 "with an abrupt switch: the kNN window dominates; no drift detector"),
            experiment="meta_online",
            n=1800,
            drift_position=900,
            tick_every=6,
            fixed_seed=True,
            body="""
source.kind = generator
source.family = agrawal
source.concept = 0
source.drift.concept = 2
learner.roster = hoeffding_tree,knn_window,perceptron,linear_sgd
learner.mode = meta
learner.window = 300
""",
        ),
        Workload(
            name="search_frozen",
            why=("grid search with k-fold validation on a CSV prefix, then the frozen "
                 "winner scored over a drifting SEA file: CSV replay, batch fits, predict only"),
            experiment="cash_pretrained",
            n=60000,
            drift_position=30000,
            tick_every=300,
            sea_concepts=(3, 2),
            from_csv=True,
            body="""
source.kind = csv
prefix_size = 600
cash.folds = 3
cash.space.cart_batch.max_depth = 2,8
cash.space.knn_batch.k = 1,2
cash.space.naive_bayes =
""",
        ),
    )
}
