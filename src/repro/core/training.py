"""Multi-orbit-aware training (paper §IV-C, Algorithm 1).

Without anchor labels, HTC trains its shared GCN encoder in the Graph
Auto-Encoder paradigm: for every orbit view ``k`` and both graphs, the
encoder's embeddings must reconstruct that view's Laplacian through an inner
product decoder.  Because the encoder parameters are shared across *all*
views and both graphs, minimising the summed loss makes the encoder
multi-orbit-aware — it cannot overfit to any single topological pattern,
which is also the mechanism behind HTC's robustness to edge removal.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.core.config import HTCConfig
from repro.nn.functional import gram_reconstruction_loss, squared_frobenius_norm
from repro.nn.layers import SharedGCNEncoder
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.utils.logging import get_logger

logger = get_logger(__name__)


def reconstruction_loss(
    encoder: SharedGCNEncoder,
    laplacian: sp.spmatrix,
    attributes: np.ndarray,
    laplacian_sq_norm: Optional[float] = None,
) -> Tensor:
    """Orbit-reconstruction loss of one graph on one view (Eq. 6-7).

    The inner product ``H H^T`` of the encoder's embeddings must reconstruct
    ``laplacian``; the loss is computed in O(n d^2 + nnz d) without forming
    either n x n matrix.  ``laplacian_sq_norm`` is ``||laplacian||_F^2``,
    precomputed by callers that reuse the view across epochs.
    """
    embedding = encoder(laplacian, attributes)
    return gram_reconstruction_loss(embedding, laplacian, laplacian_sq_norm)


class MultiOrbitTrainer:
    """Trains a shared encoder over all orbit views of two graphs."""

    def __init__(self, config: HTCConfig) -> None:
        self.config = config

    def train(
        self,
        encoder: SharedGCNEncoder,
        source_views: Dict[int, sp.csr_matrix],
        target_views: Dict[int, sp.csr_matrix],
        source_attributes: np.ndarray,
        target_attributes: np.ndarray,
    ) -> List[float]:
        """Run Algorithm 1 and return the per-epoch total losses.

        The encoder is modified in place; embeddings can afterwards be
        obtained with :func:`repro.core.encoder.encode_views`.
        """
        if set(source_views) != set(target_views):
            raise ValueError("source and target must expose the same view ids")

        optimizer = Adam(
            encoder.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )

        # The targets are constants: only their squared norms are precomputed.
        source_norms = {k: squared_frobenius_norm(v) for k, v in source_views.items()}
        target_norms = {k: squared_frobenius_norm(v) for k, v in target_views.items()}

        losses: List[float] = []
        for epoch in range(self.config.epochs):
            optimizer.zero_grad()
            total = None
            for view_id in source_views:
                loss_source = reconstruction_loss(
                    encoder,
                    source_views[view_id],
                    source_attributes,
                    source_norms[view_id],
                )
                loss_target = reconstruction_loss(
                    encoder,
                    target_views[view_id],
                    target_attributes,
                    target_norms[view_id],
                )
                view_loss = loss_source + loss_target
                total = view_loss if total is None else total + view_loss
            total.backward()
            optimizer.step()
            losses.append(total.item())
            if epoch % 25 == 0:
                logger.debug("epoch %d: loss %.4f", epoch, losses[-1])
        return losses


__all__ = ["MultiOrbitTrainer", "reconstruction_loss"]
