"""Tests pinning the fair-comparison training protocol.

The paper's comparison hinges on all learned models sharing the loss and
training budget; these tests keep that contract from drifting.
"""

import numpy as np
import pytest

from repro.models import DCRNNRecommender, POSHGNN, TGCNRecommender
from repro.models.poshgnn.loss import POSHGNNLoss, resolve_alpha


class TestSharedLoss:
    def test_all_learned_models_accept_same_fit_signature(self,
                                                          train_problems):
        for model in (POSHGNN(seed=0), DCRNNRecommender(seed=0),
                      TGCNRecommender(seed=0)):
            history = model.fit(train_problems, epochs=2, restarts=1,
                                alpha=0.05, lr=1e-2)
            assert "loss" in history
            assert "train_utility" in history

    def test_alpha_auto_resolves_identically(self, train_problems):
        a = resolve_alpha(train_problems, "auto")
        b = resolve_alpha(train_problems, "auto")
        assert a == b

    def test_loss_is_shared_implementation(self):
        """The baselines train with POSHGNN's trainer, hence its loss."""
        from repro.models.baselines import recurrent
        from repro.models.poshgnn import trainer
        assert recurrent.POSHGNNTrainer is trainer.POSHGNNTrainer
        assert trainer.POSHGNNLoss is POSHGNNLoss

    @pytest.mark.parametrize("model_class",
                             [DCRNNRecommender, TGCNRecommender])
    def test_baselines_train_through_poshgnn_trainer(self, train_problems,
                                                     model_class,
                                                     monkeypatch):
        from repro.models.poshgnn.trainer import POSHGNNTrainer
        trainers = []
        original = POSHGNNTrainer.train_episode

        def recorded(trainer, problem, guard, epoch):
            trainers.append(trainer)
            return original(trainer, problem, guard, epoch)

        monkeypatch.setattr(POSHGNNTrainer, "train_episode", recorded)
        model = model_class(seed=0)
        model.fit(train_problems, epochs=1, restarts=1)
        assert trainers
        assert all(trainer.model is model for trainer in trainers)


class TestParameterBudgets:
    def test_models_share_similar_parameter_counts(self):
        """Paper: baselines 'share similar parameters with POSHGNN'."""
        poshgnn = POSHGNN(seed=0).num_parameters()
        dcrnn = DCRNNRecommender(seed=0).num_parameters()
        tgcn = TGCNRecommender(seed=0).num_parameters()
        for count in (dcrnn, tgcn):
            assert 0.3 * poshgnn <= count <= 3.0 * poshgnn

    def test_hidden_dim_is_papers_eight(self):
        assert POSHGNN().hidden_dim == 8
        assert DCRNNRecommender().hidden_dim == 8
        assert TGCNRecommender().hidden_dim == 8


class TestRestartProtocol:
    def test_restart_determinism(self, train_problems):
        a = POSHGNN(seed=0)
        a.fit(train_problems, epochs=3, restarts=2)
        b = POSHGNN(seed=0)
        b.fit(train_problems, epochs=3, restarts=2)
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(),
                                              b.named_parameters()):
            assert name_a == name_b
            np.testing.assert_allclose(pa.data, pb.data)

    def test_best_cap_recorded(self, train_problems):
        model = POSHGNN(seed=0)
        model.fit(train_problems, epochs=3, restarts=1)
        assert model.max_preserve in model.preserve_grid

    def test_no_lwp_skips_cap_grid(self, train_problems):
        model = POSHGNN(seed=0, use_lwp=False)
        model.fit(train_problems, epochs=2, restarts=1)
        assert model.max_preserve == 1.0 or not model.use_lwp
