"""The trainers take no option they do not act on.

Training has one walk per model: truncated BPTT over one episode at a
time.  A keyword naming a removed walk (``batch_rooms``, ``replay``) or
a misspelt one must raise ``TypeError`` instead of training some other
way than the caller asked for.
"""

import pytest

from repro.models import DCRNNRecommender, POSHGNN, TGCNRecommender
from repro.models.poshgnn.trainer import POSHGNNTrainer
from repro.training import TrainableSpec, TrainingEngine


def test_engine_rejects_batch_rooms():
    with pytest.raises(TypeError, match="batch_rooms"):
        TrainingEngine(TrainableSpec(), epochs=1, batch_rooms=2)


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
