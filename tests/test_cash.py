import random

import pytest

from driftstream.cash import (
    AlgorithmGrid,
    Candidate,
    ConfigSpace,
    cash_search,
    fit_candidate,
    fold_slices,
    grid_expand,
)
from driftstream.core import Instance
from driftstream.generators import LimitedStream, SeaGenerator
from driftstream.learners import LEARNER_REGISTRY, make_learner, train_batch
from driftstream.learners.base import BatchLearner
from conftest import ONE_NUMERIC


def inst(x, y, seq):
    return Instance([float(x)], y=y, seq=seq)


# -- grid expansion ------------------------------------------------------------

def test_grid_expand_no_params_is_one_config():
    space = ConfigSpace((AlgorithmGrid("majority_class"),))
    assert [c.label() for c in grid_expand(space)] == ["majority_class"]


def test_grid_expand_cartesian_product():
    space = ConfigSpace((
        AlgorithmGrid("linear_sgd", {"lr": [0.1, 0.01]}),
        AlgorithmGrid("knn_batch", {"k": [1, 3]}),
    ))
    labels = [c.label() for c in grid_expand(space)]
    assert labels == [
        "linear_sgd(lr=0.1)", "linear_sgd(lr=0.01)",
        "knn_batch(k=1)", "knn_batch(k=3)",
    ]


def test_grid_expand_union_counts():
    space = ConfigSpace((
        AlgorithmGrid("majority_class"),
        AlgorithmGrid("linear_sgd", {"lr": [0.1, 0.01], "seed_unused": [1, 2]}),
    ))
    assert len(grid_expand(space)) == 5


def test_config_space_validation():
    with pytest.raises(ValueError):
        ConfigSpace(())
    with pytest.raises(ValueError):
        ConfigSpace((AlgorithmGrid("nope"),))
    with pytest.raises(ValueError):
        ConfigSpace((AlgorithmGrid("knn_batch", {"k": []}),))


# -- folds ----------------------------------------------------------------------

def test_fold_slices_contiguous_partition():
    folds = fold_slices(10, 3)
    assert folds == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
    flat = [i for fold in folds for i in fold]
    assert sorted(flat) == list(range(10))


# -- search ---------------------------------------------------------------------

def _counted_buffer():
    # 100 samples: label 0 for x < 50 except a noisy band, majority is class 0
    buffer = []
    for i in range(100):
        y = 0 if i % 3 != 0 else 1
        buffer.append(inst(i, y, i))
    return buffer


def test_hand_computed_leaderboard_majority_class():
    # fully hand-computed: majority_class, k = 2 contiguous folds of 50
    # fold 0 = seqs 0..49 (17 ones), fold 1 = seqs 50..99 (17 ones)
    buffer = _counted_buffer()
    ones_first = sum(b.y for b in buffer[:50])
    ones_second = sum(b.y for b in buffer[50:])
    assert (ones_first, ones_second) == (17, 17)
    # training on the other half gives majority 0, so loss = ones/50 per fold
    expected_loss = (17 / 50 + 17 / 50) / 2
    space = ConfigSpace((AlgorithmGrid("majority_class"),))
    result = cash_search(buffer, ONE_NUMERIC, space, folds=2, seed=0)
    assert result.leaderboard[0][1] == expected_loss
    assert result.best_loss == expected_loss


def test_leaderboard_matches_independent_cross_validation():
    buffer = LimitedStream(SeaGenerator(seed=15), 300).take(300)
    schema = SeaGenerator.schema
    space = ConfigSpace((
        AlgorithmGrid("majority_class"),
        AlgorithmGrid("knn_batch", {"k": [1, 5]}),
        AlgorithmGrid("cart_batch", {"max_depth": [2, 6]}),
    ))
    k = 3
    result = cash_search(buffer, schema, space, folds=k, seed=21)

    # independent reimplementation of the protocol via public APIs only
    folds = [list(range((i * 300) // k, ((i + 1) * 300) // k)) for i in range(k)]
    from driftstream.core import derive_seed
    expected = []
    for rank, candidate in enumerate(grid_expand(space)):
        losses = []
        for i, fold in enumerate(folds):
            fold_set = set(fold)
            train = [buffer[j] for j in range(300) if j not in fold_set]
            model = make_learner(candidate.algorithm, schema,
                                 seed=derive_seed(21, f"cash:{rank}:{i}"),
                                 **candidate.as_kwargs())
            if isinstance(model, BatchLearner):
                train_batch(model, train)
            else:
                for sample in train:
                    model.partial_fit(sample)
            wrong = sum(model.predict(buffer[j].x) != buffer[j].y for j in fold)
            losses.append(wrong / len(fold))
        expected.append(sum(losses) / k)
    assert [loss for _, loss in result.leaderboard] == expected


def test_duplicated_buffer_gives_one_nn_zero_loss():
    rng = random.Random(5)
    distinct = [inst(rng.random() * 100, rng.randrange(2), i) for i in range(50)]
    copies = [Instance(list(d.x), y=d.y, seq=50 + i) for i, d in enumerate(distinct)]
    buffer = distinct + copies  # fold 0 = originals, fold 1 = duplicates
    space = ConfigSpace((
        AlgorithmGrid("majority_class"),
        AlgorithmGrid("knn_batch", {"k": [1]}),
    ))
    result = cash_search(buffer, ONE_NUMERIC, space, folds=2, seed=1)
    losses = dict((c.label(), loss) for c, loss in result.leaderboard)
    assert losses["knn_batch(k=1)"] == 0.0
    assert result.best_config.label() == "knn_batch(k=1)"


def test_single_config_always_selected():
    buffer = _counted_buffer()
    space = ConfigSpace((AlgorithmGrid("majority_class"),))
    result = cash_search(buffer, ONE_NUMERIC, space, folds=2, seed=0)
    assert result.best_config.algorithm == "majority_class"
    assert result.model.frozen


def test_identical_losses_pick_first_in_grid_order():
    # one threshold separates the classes, so every fold's depth-1 tree has
    # pure leaves and the depth-3 tree is the same tree
    buffer = [inst(i, int(i >= 50), i) for i in range(100)]
    space = ConfigSpace((AlgorithmGrid("cart_batch", {"max_depth": [1, 3]}),))
    result = cash_search(buffer, ONE_NUMERIC, space, folds=4, seed=0)
    assert [c.label() for c, _ in result.leaderboard] == \
        ["cart_batch(max_depth=1)", "cart_batch(max_depth=3)"]
    assert result.leaderboard[0][1] == result.leaderboard[1][1] > 0.0
    assert result.best_config is result.leaderboard[0][0]


def test_best_is_leaderboard_argmin():
    buffer = LimitedStream(SeaGenerator(seed=2), 200).take(200)
    space = ConfigSpace((
        AlgorithmGrid("majority_class"),
        AlgorithmGrid("naive_bayes"),
        AlgorithmGrid("cart_batch", {"max_depth": [1, 4]}),
    ))
    result = cash_search(buffer, SeaGenerator.schema, space, folds=4, seed=3)
    assert result.best_loss == min(loss for _, loss in result.leaderboard)


def test_budget_truncates_grid_in_order():
    buffer = _counted_buffer()
    space = ConfigSpace((
        AlgorithmGrid("majority_class"),
        AlgorithmGrid("knn_batch", {"k": [1, 3, 5]}),
    ))
    result = cash_search(buffer, ONE_NUMERIC, space, folds=2, budget=2, seed=0)
    assert result.truncated
    assert [c.label() for c, _ in result.leaderboard] == ["majority_class", "knn_batch(k=1)"]


def test_budget_zero_rejected():
    with pytest.raises(ValueError):
        cash_search(_counted_buffer(), ONE_NUMERIC,
                    ConfigSpace((AlgorithmGrid("majority_class"),)), folds=2, budget=0)


def test_determinism_same_seed_same_leaderboard():
    buffer = LimitedStream(SeaGenerator(seed=8), 200).take(200)
    space = ConfigSpace((
        AlgorithmGrid("random_forest_batch", {"n_trees": [3]}),
        AlgorithmGrid("cart_batch", {"max_depth": [3]}),
    ))
    a = cash_search(buffer, SeaGenerator.schema, space, folds=2, seed=7)
    b = cash_search(buffer, SeaGenerator.schema, space, folds=2, seed=7)
    assert [(c.label(), loss) for c, loss in a.leaderboard] == \
           [(c.label(), loss) for c, loss in b.leaderboard]


def test_fold_hygiene_no_validation_instance_in_training(monkeypatch):
    trained_sets = []

    class ProbeBatch(BatchLearner):
        algorithm = "probe_batch"

        def _fit(self, buffer):
            trained_sets.append({b.seq for b in buffer})

        def _predict(self, x):
            return 0

    monkeypatch.setitem(LEARNER_REGISTRY, "probe_batch", ProbeBatch)
    buffer = [inst(i, i % 2, i) for i in range(60)]
    space = ConfigSpace((AlgorithmGrid("probe_batch"),))
    cash_search(buffer, ONE_NUMERIC, space, folds=3, seed=0)
    folds = fold_slices(60, 3)
    for fold, trained in zip(folds, trained_sets[:3]):
        assert trained.isdisjoint(set(fold))
        assert trained | set(fold) == set(range(60))


def test_small_buffer_and_bad_folds_rejected():
    buffer = [inst(i, i % 2, i) for i in range(19)]
    space = ConfigSpace((AlgorithmGrid("majority_class"),))
    with pytest.raises(ValueError):
        cash_search(buffer, ONE_NUMERIC, space, folds=2)
    with pytest.raises(ValueError):
        cash_search([inst(i, i % 2, i) for i in range(100)], ONE_NUMERIC, space, folds=1)



def test_fit_candidate_trains_an_incremental_learner_in_one_pass():
    buffer = _counted_buffer()
    model = fit_candidate(Candidate("majority_class"), buffer, ONE_NUMERIC, seed=0)
    assert model.counts == [66, 34]
