"""Unit tests for repro.nn.functional."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F


class TestActivations:
    def test_relu_values(self):
        out = F.relu([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_symmetry(self):
        out = F.sigmoid([-2.0, 0.0, 2.0])
        np.testing.assert_allclose(out.data[0] + out.data[2], 1.0, atol=1e-12)
        assert out.data[1] == pytest.approx(0.5)

    def test_tanh_range(self):
        out = F.tanh(np.linspace(-5, 5, 11))
        assert (np.abs(out.data) < 1.0).all()

    def test_softplus_positive_and_asymptotic(self):
        out = F.softplus([-50.0, -1.0, 0.0, 50.0])
        assert (out.data >= 0).all()
        assert out.data[1] > 0
        assert out.data[3] == pytest.approx(50.0, abs=1e-6)
        assert out.data[2] == pytest.approx(np.log(2.0))

    def test_softplus_gradient(self):
        x = Tensor([0.3], requires_grad=True)
        F.softplus(x).sum().backward()
        expected = 1.0 / (1.0 + np.exp(-0.3))
        np.testing.assert_allclose(x.grad, [expected], atol=1e-8)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = F.softmax(rng.standard_normal((4, 5)), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_invariant_to_shift(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            F.softmax(x).data, F.softmax(x + 100.0).data, atol=1e-12)

    def test_extreme_logits_stable(self):
        out = F.softmax(np.array([1e4, -1e4]))
        assert np.isfinite(out.data).all()

    def test_gradient_flows(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (F.softmax(x) * np.array([1.0, 0.0, 0.0])).sum().backward()
        assert x.grad is not None
        # Softmax Jacobian row: p0*(delta - p)
        p = F.softmax(x.data).data
        expected = p[0] * (np.eye(3)[0] - p)
        np.testing.assert_allclose(x.grad, expected, atol=1e-8)

    def test_max_shift_stays_out_of_the_graph(self):
        # Softmax is shift-invariant, so gradient values cannot show
        # whether the max shift was differentiated; the graph can.
        x = Tensor([[1.0, 3.0, 2.0], [0.5, 0.5, -1.0]], requires_grad=True)
        stack, prims = [F.softmax(x, axis=-1)], set()
        while stack:
            node = stack.pop()._node
            if node is not None:
                prims.add(node.prim.name)
                stack.extend(node.parents)
        assert "max" not in prims
        assert "exp" in prims

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.array([0.5, 1.5, -0.5])
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-9)


class TestConcatenateStack:
    def test_concatenate_values(self):
        out = F.concatenate([Tensor([1.0, 2.0]), Tensor([3.0])])
        np.testing.assert_allclose(out.data, [1, 2, 3])

    def test_concatenate_axis1(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        assert F.concatenate([a, b], axis=1).shape == (2, 5)

    def test_concatenate_gradient_routing(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (F.concatenate([a, b]) * np.array([1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0])

    def test_concatenate_axis1_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 1)), requires_grad=True)
        weight = np.arange(6.0).reshape(2, 3)
        (F.concatenate([a, b], axis=1) * weight).sum().backward()
        np.testing.assert_allclose(a.grad, weight[:, :2])
        np.testing.assert_allclose(b.grad, weight[:, 2:])

    def test_stack_shape_and_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = F.stack([a, b])
        assert out.shape == (2, 2)
        (out * np.array([[1.0, 2.0], [3.0, 4.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0, 4.0])


class TestLosses:
    def test_bce_perfect_prediction_near_zero(self):
        loss = F.binary_cross_entropy([1e-9, 1 - 1e-9], [0.0, 1.0])
        assert loss.item() < 1e-6

    def test_bce_wrong_prediction_large(self):
        loss = F.binary_cross_entropy([0.99, 0.01], [0.0, 1.0])
        assert loss.item() > 3.0

    def test_bce_gradient_direction(self):
        pred = Tensor([0.7], requires_grad=True)
        F.binary_cross_entropy(pred, [1.0]).backward()
        assert pred.grad[0] < 0  # increasing pred reduces loss

    def test_mse_zero_when_equal(self):
        assert F.mse_loss([1.0, 2.0], [1.0, 2.0]).item() == 0.0

    def test_mse_gradient(self):
        pred = Tensor([3.0], requires_grad=True)
        F.mse_loss(pred, [1.0]).backward()
        np.testing.assert_allclose(pred.grad, [4.0])


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = np.ones(100)
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        np.testing.assert_allclose(out.data, x)

    def test_zero_rate_is_identity(self):
        x = np.ones(100)
        out = F.dropout(x, 0.0, np.random.default_rng(0), training=True)
        np.testing.assert_allclose(out.data, x)

    def test_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = np.ones(20000)
        out = F.dropout(x, 0.3, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_drops_roughly_rate_fraction(self):
        rng = np.random.default_rng(1)
        out = F.dropout(np.ones(20000), 0.3, rng, training=True)
        assert (out.data == 0).mean() == pytest.approx(0.3, abs=0.02)


class TestHelpers:
    def test_dot(self):
        assert F.dot([1.0, 2.0], [3.0, 4.0]).item() == 11.0

    def test_matmul_wrapper(self):
        out = F.matmul(np.eye(2), np.array([[2.0], [3.0]]))
        np.testing.assert_allclose(out.data, [[2.0], [3.0]])

    def test_sum_mean_wrappers(self):
        assert F.sum([1.0, 2.0, 3.0]).item() == 6.0
        assert F.mean([1.0, 2.0, 3.0]).item() == 2.0
