"""Shared test helpers.

``tests/`` is intentionally not a package (pytest rootdir-based collection
inserts this directory onto ``sys.path``), so helper code shared between test
modules lives here and is imported absolutely: ``from _helpers import ...``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.nn.tensor import Tensor


def numerical_gradient(func, value, epsilon=1e-6):
    """Central-difference gradient of a scalar-valued function of an array."""
    value = np.asarray(value, dtype=np.float64)
    gradient = np.zeros_like(value)
    flat = value.ravel()
    grad_flat = gradient.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = func(value)
        flat[index] = original - epsilon
        minus = func(value)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return gradient


def dense_reconstruction_loss(embedding, target):
    """Dense oracle of Eq. 7: ``||H H^T - target||_F`` built from tape ops.

    It forms the n x n reconstruction and densifies ``target``, exactly as
    the trainer did before the low-rank node; tests compare
    :func:`repro.nn.functional.gram_reconstruction_loss` against it.
    """
    if sp.issparse(target):
        target = target.toarray()
    diff = embedding @ embedding.T - Tensor(np.asarray(target, dtype=np.float64))
    return ((diff * diff).sum() + 1e-12) ** 0.5
