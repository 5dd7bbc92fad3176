"""Tests for repro.nn.functional."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn.functional import (
    get_activation,
    gram_reconstruction_loss,
    mse_loss,
    relu,
    sigmoid,
    softmax_rows,
    sparse_matmul,
    square,
    tanh,
)
from repro.nn.tensor import Tensor

from _helpers import numerical_gradient


class TestActivations:
    def test_relu_forward(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_grad(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        relu(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0])

    def test_tanh_forward_and_grad(self):
        value = np.array([0.5, -0.3])
        x = Tensor(value.copy(), requires_grad=True)
        tanh(x).sum().backward()
        np.testing.assert_allclose(x.grad, 1 - np.tanh(value) ** 2, atol=1e-10)

    def test_sigmoid_forward_and_grad(self):
        value = np.array([0.2, -1.0])
        x = Tensor(value.copy(), requires_grad=True)
        sigmoid(x).sum().backward()
        s = 1 / (1 + np.exp(-value))
        np.testing.assert_allclose(x.grad, s * (1 - s), atol=1e-10)

    def test_get_activation_lookup(self):
        assert get_activation("relu") is relu
        assert get_activation("identity")(Tensor([1.0])).data[0] == 1.0

    def test_get_activation_unknown(self):
        with pytest.raises(ValueError):
            get_activation("swish-9000")


class TestSparseMatmul:
    def test_forward_matches_dense(self):
        sparse = sp.csr_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
        dense = Tensor(np.array([[1.0, 1.0], [2.0, 2.0]]))
        out = sparse_matmul(sparse, dense)
        np.testing.assert_array_equal(out.data, sparse.toarray() @ dense.data)

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        sparse = sp.random(5, 5, density=0.5, random_state=0, format="csr")
        value = rng.normal(size=(5, 3))

        x = Tensor(value.copy(), requires_grad=True)
        sparse_matmul(sparse, x).sum().backward()
        np.testing.assert_allclose(
            x.grad,
            numerical_gradient(lambda v: float(sparse.dot(v).sum()), value),
            atol=1e-5,
        )

    def test_rejects_dense_left_operand(self):
        with pytest.raises(TypeError):
            sparse_matmul(np.eye(2), Tensor(np.eye(2)))


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        out = softmax_rows(Tensor(np.random.default_rng(0).normal(size=(4, 5))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4))

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        value = rng.normal(size=(3, 4))
        weights = rng.normal(size=(3, 4))

        def loss(v):
            shifted = v - v.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            s = e / e.sum(axis=1, keepdims=True)
            return float((s * weights).sum())

        x = Tensor(value.copy(), requires_grad=True)
        (softmax_rows(x) * Tensor(weights)).sum().backward()
        np.testing.assert_allclose(x.grad, numerical_gradient(loss, value), atol=1e-5)


class TestLosses:
    def test_frobenius_loss_zero_for_exact_reconstruction(self):
        # H = I reconstructs L = I exactly: H H^T = I.
        loss = gram_reconstruction_loss(Tensor(np.eye(3), requires_grad=True), np.eye(3))
        assert loss.item() == pytest.approx(0.0, abs=1e-5)

    def test_frobenius_loss_value(self):
        # H H^T is the 2x2 all-ones matrix; its distance to zero is 2.
        loss = gram_reconstruction_loss(Tensor(np.ones((2, 1))), np.zeros((2, 2)))
        assert loss.item() == pytest.approx(2.0)

    def test_frobenius_loss_gradient(self):
        rng = np.random.default_rng(2)
        target = rng.normal(size=(4, 4))
        value = rng.normal(size=(4, 2))

        def loss_fn(v):
            return float(np.sqrt(((v @ v.T - target) ** 2).sum() + 1e-12))

        x = Tensor(value.copy(), requires_grad=True)
        gram_reconstruction_loss(x, target).backward()
        np.testing.assert_allclose(x.grad, numerical_gradient(loss_fn, value), atol=1e-4)

    def test_frobenius_loss_accepts_sparse_target(self):
        target = sp.identity(3, format="csr")
        loss = gram_reconstruction_loss(Tensor(np.zeros((3, 1))), target)
        assert loss.item() == pytest.approx(np.sqrt(3.0))

    def test_frobenius_shape_mismatch(self):
        with pytest.raises(ValueError):
            gram_reconstruction_loss(Tensor(np.zeros((2, 2))), np.zeros((3, 3)))

    def test_mse_loss(self):
        loss = mse_loss(Tensor([1.0, 3.0]), np.array([0.0, 1.0]))
        assert loss.item() == pytest.approx(2.5)

    def test_square(self):
        np.testing.assert_array_equal(square(Tensor([2.0, -3.0])).data, [4.0, 9.0])
