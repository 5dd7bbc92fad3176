"""GAlign (Trung et al., ICDE 2020) — adaptive unsupervised GCN alignment.

GAlign trains a weight-sharing multi-layer GCN on both networks without
anchors and aligns by comparing *every* layer's embeddings (multi-order
alignment), with data augmentation (perturbed adjacency views) that makes the
model adaptive to consistency violations.  It is the strongest unsupervised
competitor in the paper and the closest relative of HTC (which replaces the
plain adjacency with orbit-weighted views).

Implementation notes: the encoder, reconstruction objective, and optimiser
are the same substrates HTC uses (``repro.nn``); augmentation drops a fraction
of edges from each graph and adds the augmented views' reconstruction losses,
and the final score matrix averages per-layer cosine similarities.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.baselines.base import AnchorList, BaseAligner
from repro.datasets.pair import GraphPair
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.laplacian import normalized_laplacian
from repro.graph.perturbation import remove_edges
from repro.nn.functional import gram_reconstruction_loss, squared_frobenius_norm
from repro.nn.layers import SharedGCNEncoder
from repro.nn.optim import Adam
from repro.similarity.measures import cosine_similarity
from repro.utils.random import RandomStateLike, check_random_state


class GAlign(BaseAligner):
    """Unsupervised multi-order GCN alignment with augmentation.

    Parameters
    ----------
    embedding_dim:
        Output dimension of each GCN layer.
    n_layers:
        Number of GCN layers; alignment uses the outputs of all of them.
    epochs, learning_rate:
        Training settings of the shared encoder.
    augment_ratio:
        Fraction of edges dropped to build each graph's augmented view
        (0 disables augmentation).
    """

    name = "GAlign"
    requires_supervision = False

    def __init__(
        self,
        embedding_dim: int = 64,
        n_layers: int = 2,
        epochs: int = 100,
        learning_rate: float = 0.01,
        augment_ratio: float = 0.1,
        random_state: RandomStateLike = 0,
    ) -> None:
        if n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {n_layers}")
        if not 0.0 <= augment_ratio < 1.0:
            raise ValueError(f"augment_ratio must be in [0, 1), got {augment_ratio}")
        self.embedding_dim = embedding_dim
        self.n_layers = n_layers
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.augment_ratio = augment_ratio
        self.random_state = random_state

    def _views(self, graph: AttributedGraph, rng) -> List:
        """Original plus (optionally) one augmented propagation matrix."""
        views = [normalized_laplacian(graph.adjacency)]
        if self.augment_ratio > 0:
            augmented = remove_edges(graph, self.augment_ratio, random_state=rng)
            views.append(normalized_laplacian(augmented.adjacency))
        return views

    def align(self, pair: GraphPair, train_anchors: AnchorList = None) -> np.ndarray:
        self._check_pair(pair)
        if pair.source.n_attributes != pair.target.n_attributes:
            raise ValueError("source and target must share an attribute space")
        rng = check_random_state(self.random_state)

        source_views = self._views(pair.source, rng)
        target_views = self._views(pair.target, rng)
        source_norms = [squared_frobenius_norm(view) for view in source_views]
        target_norms = [squared_frobenius_norm(view) for view in target_views]

        encoder = SharedGCNEncoder(
            in_features=pair.source.n_attributes,
            hidden_dims=[self.embedding_dim] * self.n_layers,
            activations=["relu"] * (self.n_layers - 1) + ["identity"],
            random_state=rng,
        )
        optimizer = Adam(encoder.parameters(), lr=self.learning_rate)

        for _ in range(self.epochs):
            optimizer.zero_grad()
            total = None
            for views, norms, attributes in (
                (source_views, source_norms, pair.source.attributes),
                (target_views, target_norms, pair.target.attributes),
            ):
                for view, norm in zip(views, norms):
                    embedding = encoder(view, attributes)
                    loss = gram_reconstruction_loss(embedding, view, norm)
                    total = loss if total is None else total + loss
            total.backward()
            optimizer.step()

        # Multi-order alignment: average the per-layer similarity matrices of
        # the un-augmented views.
        source_layers = encoder(source_views[0], pair.source.attributes, all_layers=True)
        target_layers = encoder(target_views[0], pair.target.attributes, all_layers=True)
        scores = np.zeros((pair.source.n_nodes, pair.target.n_nodes))
        for source_layer, target_layer in zip(source_layers, target_layers):
            scores += cosine_similarity(
                source_layer.detach().numpy(), target_layer.detach().numpy()
            )
        return scores / len(source_layers)


__all__ = ["GAlign"]
