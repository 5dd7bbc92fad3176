"""Functional operations on :class:`repro.nn.Tensor`.

These cover exactly what the library's models need: non-linearities, matrix
products (including the sparse-constant product used for Laplacian
propagation), reductions, and the low-rank Frobenius reconstruction loss
used by the multi-orbit-aware trainer (Eq. 7 of the paper).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.nn.tensor import Tensor


def relu(tensor: Tensor) -> Tensor:
    """Rectified linear unit."""
    mask = tensor.data > 0
    out = Tensor(
        tensor.data * mask, requires_grad=tensor.requires_grad, _parents=(tensor,)
    )

    def backward(gradient: np.ndarray) -> None:
        if tensor.requires_grad:
            tensor._accumulate(gradient * mask)

    out._backward = backward
    return out


def tanh(tensor: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    value = np.tanh(tensor.data)
    out = Tensor(value, requires_grad=tensor.requires_grad, _parents=(tensor,))

    def backward(gradient: np.ndarray) -> None:
        if tensor.requires_grad:
            tensor._accumulate(gradient * (1.0 - value**2))

    out._backward = backward
    return out


def sigmoid(tensor: Tensor) -> Tensor:
    """Logistic sigmoid."""
    value = 1.0 / (1.0 + np.exp(-tensor.data))
    out = Tensor(value, requires_grad=tensor.requires_grad, _parents=(tensor,))

    def backward(gradient: np.ndarray) -> None:
        if tensor.requires_grad:
            tensor._accumulate(gradient * value * (1.0 - value))

    out._backward = backward
    return out


def identity(tensor: Tensor) -> Tensor:
    """Identity activation (useful as the last encoder layer)."""
    return tensor


ACTIVATIONS = {
    "relu": relu,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "identity": identity,
    "linear": identity,
}


def get_activation(name: str):
    """Look up an activation function by name."""
    try:
        return ACTIVATIONS[name]
    except KeyError as error:
        raise ValueError(
            f"unknown activation {name!r}; available: {sorted(ACTIVATIONS)}"
        ) from error


def matmul(left: Tensor, right: Tensor) -> Tensor:
    """Dense matrix product (differentiable in both arguments)."""
    return left @ right


def sparse_matmul(sparse: sp.spmatrix, dense: Tensor) -> Tensor:
    """Product ``S @ H`` where ``S`` is a constant scipy sparse matrix.

    Gradients flow only to ``dense``: ``dL/dH = S^T @ dL/dY``.  This is the
    propagation step ``~L H`` of every GCN layer in the library.
    """
    if not sp.issparse(sparse):
        raise TypeError("sparse_matmul expects a scipy sparse matrix on the left")
    sparse = sparse.tocsr()
    out = Tensor(
        sparse.dot(dense.data), requires_grad=dense.requires_grad, _parents=(dense,)
    )

    def backward(gradient: np.ndarray) -> None:
        if dense.requires_grad:
            dense._accumulate(sparse.T.dot(gradient))

    out._backward = backward
    return out


def square(tensor: Tensor) -> Tensor:
    """Element-wise square."""
    return tensor * tensor


def sum_all(tensor: Tensor) -> Tensor:
    """Sum of all elements (scalar tensor)."""
    return tensor.sum()


def mean(tensor: Tensor) -> Tensor:
    """Mean of all elements (scalar tensor)."""
    return tensor.mean()


def softmax_rows(tensor: Tensor) -> Tensor:
    """Row-wise softmax (differentiable), used by attention-style baselines."""
    shifted = tensor.data - tensor.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    value = exp / exp.sum(axis=1, keepdims=True)
    out = Tensor(value, requires_grad=tensor.requires_grad, _parents=(tensor,))

    def backward(gradient: np.ndarray) -> None:
        if tensor.requires_grad:
            dot = (gradient * value).sum(axis=1, keepdims=True)
            tensor._accumulate(value * (gradient - dot))

    out._backward = backward
    return out


def squared_frobenius_norm(matrix: sp.spmatrix) -> float:
    """``||matrix||_F^2`` of a sparse matrix, without densifying it."""
    return float(matrix.multiply(matrix).sum())


def gram_reconstruction_loss(
    embedding: Tensor,
    laplacian: Union[np.ndarray, sp.spmatrix],
    laplacian_sq_norm: Optional[float] = None,
) -> Tensor:
    """Inner-product reconstruction loss ``||H H^T - L||_F`` (Eq. 7).

    One tape node that never forms the n x n product ``H H^T``: with the
    d x d Gram matrix ``G = H^T H`` the squared loss expands to
    ``||G||_F^2 - 2 tr(H^T L H) + ||L||_F^2``, which costs O(n d^2 + nnz d)
    time and O(n d) memory.  Its gradient is
    ``(2 H G - (L + L^T) H) / loss``; ``L`` need not be symmetric.

    ``laplacian`` is a constant (sparse; a dense array is converted to CSR).
    ``laplacian_sq_norm`` is its squared Frobenius norm, computed here when
    omitted; callers that reuse one target across epochs pass it once.  The
    squared sum is clamped at zero before the epsilon-guarded square root,
    so rounding in the expansion cannot produce a NaN at an exact
    reconstruction.
    """
    if not sp.issparse(laplacian):
        laplacian = sp.csr_matrix(laplacian)
    if embedding.ndim != 2 or laplacian.shape != (embedding.shape[0],) * 2:
        raise ValueError(
            f"target shape {laplacian.shape} does not match an embedding "
            f"of shape {embedding.shape}"
        )
    if laplacian_sq_norm is None:
        laplacian_sq_norm = squared_frobenius_norm(laplacian)

    value = embedding.data
    gram = value.T @ value
    propagated = laplacian @ value
    squared = np.vdot(gram, gram) - 2.0 * np.vdot(value, propagated) + laplacian_sq_norm
    loss = np.sqrt(max(float(squared), 0.0) + 1e-12)
    out = Tensor(
        np.asarray(loss, dtype=value.dtype),
        requires_grad=embedding.requires_grad,
        _parents=(embedding,),
    )

    def backward(gradient: np.ndarray) -> None:
        if embedding.requires_grad:
            direction = 2.0 * (value @ gram) - propagated - laplacian.T @ value
            embedding._accumulate(direction * (float(gradient) / loss))

    out._backward = backward
    return out


def mse_loss(prediction: Tensor, target: Union[np.ndarray, Tensor]) -> Tensor:
    """Mean squared error between ``prediction`` and a constant ``target``."""
    if isinstance(target, Tensor):
        target = target.data
    diff = prediction - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


__all__ = [
    "relu",
    "tanh",
    "sigmoid",
    "identity",
    "get_activation",
    "ACTIVATIONS",
    "matmul",
    "sparse_matmul",
    "square",
    "sum_all",
    "mean",
    "softmax_rows",
    "squared_frobenius_norm",
    "gram_reconstruction_loss",
    "mse_loss",
]
