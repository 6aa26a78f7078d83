"""Unit tests for the autograd core (repro.nn.tensor)."""

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, no_grad


def numerical_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn at numpy point x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2 * eps)
    return grad


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_construction_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data

    def test_as_tensor_idempotent(self):
        a = Tensor([1.0])
        assert as_tensor(a) is a

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_rejects_vector(self):
        with pytest.raises(TypeError):
            Tensor([1.0, 2.0]).item()

    def test_detach_is_constant(self):
        a = Tensor([1.0], requires_grad=True)
        assert not a.detach().requires_grad

    def test_repr_mentions_grad_flag(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 3)))
        assert len(t) == 4
        assert t.size == 12


class TestArithmeticGradients:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0 / 3.0])
        np.testing.assert_allclose(b.grad, [-6.0 / 9.0])

    def test_pow_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        (a ** 3).sum().backward()
        np.testing.assert_allclose(a.grad, [12.0, 27.0])

    def test_neg_and_sub(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([4.0], requires_grad=True)
        (a - b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_rsub_and_rdiv_with_scalars(self):
        a = Tensor([2.0], requires_grad=True)
        (10.0 - a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0])
        a.zero_grad()
        (10.0 / a).sum().backward()
        np.testing.assert_allclose(a.grad, [-10.0 / 4.0])

    def test_broadcast_add_reduces_grad(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones((2,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 2)
        np.testing.assert_allclose(b.grad, [3.0, 3.0])

    def test_broadcast_mul_keepdim_axis(self):
        a = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        b = Tensor(np.ones((3, 1)), requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.shape == (3, 1)
        np.testing.assert_allclose(b.grad[:, 0], a.data.sum(axis=1))

    def test_gradient_accumulates_across_uses(self):
        a = Tensor([1.0], requires_grad=True)
        (a + a + a).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0])


class TestMatmulGradients:
    def test_matmul_2d_2d(self):
        rng = np.random.default_rng(0)
        a_val = rng.standard_normal((3, 4))
        b_val = rng.standard_normal((4, 2))
        a = Tensor(a_val, requires_grad=True)
        b = Tensor(b_val, requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(
            a.grad, numerical_grad(lambda x: (x @ b_val).sum(), a_val), atol=1e-5)
        np.testing.assert_allclose(
            b.grad, numerical_grad(lambda x: (a_val @ x).sum(), b_val), atol=1e-5)

    def test_matmul_1d_2d(self):
        rng = np.random.default_rng(1)
        a_val = rng.standard_normal(4)
        b_val = rng.standard_normal((4, 3))
        a = Tensor(a_val, requires_grad=True)
        b = Tensor(b_val, requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(
            a.grad, numerical_grad(lambda x: (x @ b_val).sum(), a_val), atol=1e-5)
        np.testing.assert_allclose(
            b.grad, numerical_grad(lambda x: (a_val @ x).sum(), b_val), atol=1e-5)

    def test_matmul_2d_1d(self):
        rng = np.random.default_rng(2)
        a_val = rng.standard_normal((3, 4))
        b_val = rng.standard_normal(4)
        a = Tensor(a_val, requires_grad=True)
        b = Tensor(b_val, requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(
            a.grad, numerical_grad(lambda x: (x @ b_val).sum(), a_val), atol=1e-5)
        np.testing.assert_allclose(
            b.grad, numerical_grad(lambda x: (a_val @ x).sum(), b_val), atol=1e-5)

    def test_matmul_1d_1d(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a @ b).backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    def test_constant_matmul_variable(self):
        adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = Tensor([[1.0], [2.0]], requires_grad=True)
        (Tensor(adjacency) @ x).sum().backward()
        np.testing.assert_allclose(x.grad, [[1.0], [1.0]])

    def test_transpose_backward(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        scale = Tensor(np.arange(6.0).reshape(3, 2))
        (a.T * scale).sum().backward()
        np.testing.assert_allclose(a.grad, scale.data.T)


class TestShapesAndIndexing:
    def test_reshape_backward(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        (a.reshape(2, 3) * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(6, 2.0))

    def test_getitem_slice_backward(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        a[1:3].sum().backward()
        np.testing.assert_allclose(a.grad, [0, 1, 1, 0, 0])

    def test_getitem_fancy_index_repeats_accumulate(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        a[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(a.grad, [2, 0, 1, 0])

    def test_getitem_2d_column(self):
        a = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        a[:, 1].sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [0, 1], [0, 1]])


class TestReductions:
    def test_sum_axis_backward(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        (a.sum(axis=0) * np.array([1.0, 2.0, 3.0])).sum().backward()
        np.testing.assert_allclose(a.grad, [[1, 2, 3], [1, 2, 3]])

    def test_mean_backward(self):
        a = Tensor(np.ones(4), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 0.25))

    def test_mean_axis(self):
        a = Tensor(np.ones((2, 4)), requires_grad=True)
        a.mean(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 4), 0.25))

    def test_max_backward_unique(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0, 1, 0])

    def test_max_backward_ties_split(self):
        a = Tensor([5.0, 5.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5])


class TestNonlinearities:
    @pytest.mark.parametrize("name", ["relu", "sigmoid", "tanh", "exp", "sqrt", "abs"])
    def test_matches_numerical_gradient(self, name):
        rng = np.random.default_rng(7)
        x_val = rng.uniform(0.3, 2.0, size=5)  # positive: safe for sqrt/abs
        x = Tensor(x_val, requires_grad=True)
        getattr(x, name)().sum().backward()

        def scalar(v):
            vv = v.copy()
            if name == "relu":
                return np.maximum(vv, 0).sum()
            if name == "sigmoid":
                return (1 / (1 + np.exp(-vv))).sum()
            if name == "tanh":
                return np.tanh(vv).sum()
            if name == "exp":
                return np.exp(vv).sum()
            if name == "sqrt":
                return np.sqrt(vv).sum()
            return np.abs(vv).sum()

        np.testing.assert_allclose(x.grad, numerical_grad(scalar, x_val), atol=1e-4)

    def test_log_floors_at_eps(self):
        x = Tensor([0.0], requires_grad=True)
        out = x.log()
        assert np.isfinite(out.data).all()

    def test_clip_gradient_masks_boundaries(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        x.clip(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0, 1, 0])

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor([-1000.0, 1000.0])
        out = x.sigmoid()
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)


class TestBackwardMechanics:
    def test_backward_on_constant_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_requires_grad_arg(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_nonscalar_with_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(a.grad, [3.0, 30.0])

    def test_backward_rejects_broadcastable_seed(self):
        """Regression: an extra seed axis used to be summed into the grad
        silently (``[4, 4, 4]`` here instead of raising)."""
        p = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(3,\)"):
            (p * 2.0).backward(np.ones((2, 3)))
        assert p.grad is None

    def test_backward_rejects_seed_for_scalar_of_other_shape(self):
        """Regression: a ``(1,)`` seed on a 0-d loss hit a bare reshape."""
        p = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match=r"\(1,\).*\(\)"):
            (p * 2.0).sum().backward(np.ones(1))
        assert p.grad is None

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_no_grad_restores_on_exit(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            pass
        assert (a * 2).requires_grad

    def test_diamond_graph_gradient(self):
        # f = (a*b) + (a+b); df/da = b+1, df/db = a+1
        a = Tensor([3.0], requires_grad=True)
        b = Tensor([5.0], requires_grad=True)
        ((a * b) + (a + b)).sum().backward()
        np.testing.assert_allclose(a.grad, [6.0])
        np.testing.assert_allclose(b.grad, [4.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_deep_chain_no_recursion_error(self):
        a = Tensor([1.0], requires_grad=True)
        out = a
        for _ in range(3000):
            out = out + 1.0
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])
