"""The trainers and ``fit`` methods take no option they do not act on.

Training has one walk per model: truncated BPTT over one episode at a
time.  A keyword naming a removed walk (``batch_rooms``, ``replay``) or
a misspelt one must raise ``TypeError`` instead of training some other
way than the caller asked for — and must raise before ``fit`` touches
an already fitted model.  The model-free baselines take no training
keywords at all.
"""

import numpy as np
import pytest

from repro.models import (
    COMURNetRecommender,
    DCRNNRecommender,
    GraFrankRecommender,
    MvAGCRecommender,
    POSHGNN,
    TGCNRecommender,
)
from repro.models.poshgnn.trainer import POSHGNNTrainer
from repro.training import TrainingEngine


def test_engine_rejects_batch_rooms():
    with pytest.raises(TypeError, match="batch_rooms"):
        TrainingEngine(POSHGNN(seed=0), epochs=1, batch_rooms=2)


def test_poshgnn_trainer_rejects_batch_rooms():
    with pytest.raises(TypeError, match="batch_rooms"):
        POSHGNNTrainer(POSHGNN(seed=0), epochs=1, batch_rooms=2)


def test_poshgnn_fit_rejects_batch_rooms(problems):
    with pytest.raises(TypeError, match="batch_rooms"):
        POSHGNN(seed=0).fit(problems, epochs=1, restarts=1, batch_rooms=2)


@pytest.mark.parametrize("model_class", [DCRNNRecommender, TGCNRecommender])
@pytest.mark.parametrize("keyword", ["batch_rooms", "replay", "epoch"])
def test_recurrent_fit_rejects_unknown_keywords(problems, model_class,
                                                keyword):
    with pytest.raises(TypeError, match=keyword):
        model_class(seed=0).fit(problems, epochs=1, restarts=1,
                                **{keyword: 2})


@pytest.mark.parametrize("keywords", [{"bogus": 2}, {"epochs": 0},
                                      {"checkpoint_dir": "elsewhere"}])
def test_rejected_fit_leaves_fitted_poshgnn_untouched(problems, keywords):
    model = POSHGNN(seed=0)
    model.fit(problems, epochs=1, restarts=1)
    state = model.state_dict()
    cap = model.max_preserve
    with pytest.raises((TypeError, ValueError)):
        model.fit(problems, restarts=1, **keywords)
    assert model.max_preserve == cap
    after = model.state_dict()
    assert sorted(after) == sorted(state)
    for name, value in state.items():
        np.testing.assert_array_equal(after[name], value)


@pytest.mark.parametrize("model_class", [MvAGCRecommender,
                                         GraFrankRecommender,
                                         COMURNetRecommender])
def test_model_free_fit_rejects_training_keywords(problems, model_class):
    with pytest.raises(TypeError, match="epochs"):
        model_class().fit(problems, epochs=3)
