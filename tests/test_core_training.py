"""Tests for multi-orbit-aware training, including the paper's theory checks.

The Lemma 1 / Proposition 1 tests verify the core theoretical claim: if two
nodes' neighbourhoods satisfy attribute consistency and k-order topological
consistency, the shared orbit-weighted encoder maps them to identical
embeddings.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import repro.core.training as training_module
from repro.core.config import HTCConfig
from repro.core.encoder import build_topology_views, make_encoder
from repro.core.training import MultiOrbitTrainer, reconstruction_loss
from repro.datasets.synthetic import tiny_pair
from repro.graph.builders import from_edge_list
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.perturbation import permute_graph
from repro.nn.functional import gram_reconstruction_loss
from repro.nn.layers import SharedGCNEncoder
from repro.nn.tensor import Tensor

from _helpers import dense_reconstruction_loss, numerical_gradient


class TestReconstructionLoss:
    def test_positive_scalar(self):
        graph = powerlaw_cluster_graph(20, 2, n_attributes=3, random_state=0)
        config = HTCConfig(orbits=[0], embedding_dim=8)
        views = build_topology_views(graph, config)
        encoder = make_encoder(3, config)
        loss = reconstruction_loss(encoder, views[0], graph.attributes)
        assert loss.data.size == 1
        assert loss.item() > 0


def _fused_and_dense(value, target):
    """(loss, gradient) of the fused node and of the dense oracle."""
    results = []
    for loss_fn in (gram_reconstruction_loss, dense_reconstruction_loss):
        embedding = Tensor(value.copy(), requires_grad=True)
        loss = loss_fn(embedding, target)
        loss.backward()
        results.append((loss.item(), embedding.grad))
    return results


def _train_pair(n_nodes, orbits, epochs, embedding_dim=8):
    pair = tiny_pair(n_nodes=n_nodes, random_state=0)
    config = HTCConfig(
        orbits=orbits, embedding_dim=embedding_dim, epochs=epochs, random_state=0
    )
    source_views = build_topology_views(pair.source, config)
    target_views = build_topology_views(pair.target, config)
    encoder = make_encoder(pair.source.n_attributes, config)
    args = (
        encoder,
        source_views,
        target_views,
        pair.source.attributes,
        pair.target.attributes,
    )
    return MultiOrbitTrainer(config), args


class TestLowRankLossEquivalence:
    """The fused Eq. 7 node against the dense ``H H^T`` oracle."""

    def test_matches_dense_on_symmetric_orbit_laplacian(self):
        graph = powerlaw_cluster_graph(40, 3, n_attributes=3, random_state=0)
        views = build_topology_views(graph, HTCConfig(orbits=[0, 2]))
        value = np.random.default_rng(0).normal(size=(40, 6))
        for view in views.values():
            assert abs(view - view.T).max() < 1e-12
            (fused, fused_grad), (dense, dense_grad) = _fused_and_dense(value, view)
            np.testing.assert_allclose(fused, dense, rtol=1e-9)
            np.testing.assert_allclose(fused_grad, dense_grad, rtol=1e-9)

    def test_matches_dense_on_non_symmetric_sparse_target(self):
        target = sp.random(30, 30, density=0.2, format="csr", random_state=1)
        assert abs(target - target.T).max() > 0.1
        value = np.random.default_rng(1).normal(size=(30, 4))
        (fused, fused_grad), (dense, dense_grad) = _fused_and_dense(value, target)
        np.testing.assert_allclose(fused, dense, rtol=1e-9)
        np.testing.assert_allclose(fused_grad, dense_grad, rtol=1e-9)

    def test_gradient_matches_numerical(self):
        target = sp.random(8, 8, density=0.4, format="csr", random_state=2)
        value = np.random.default_rng(2).normal(size=(8, 3))

        def loss_fn(v):
            return float(np.sqrt(((v @ v.T - target.toarray()) ** 2).sum() + 1e-12))

        embedding = Tensor(value.copy(), requires_grad=True)
        gram_reconstruction_loss(embedding, target).backward()
        np.testing.assert_allclose(
            embedding.grad, numerical_gradient(loss_fn, value), atol=1e-6
        )

    def test_float32_embedding_gets_float32_gradient(self):
        target = sp.random(10, 10, density=0.3, format="csr", random_state=3)
        value = np.random.default_rng(3).normal(size=(10, 4)).astype(np.float32)
        embedding = Tensor(value, requires_grad=True)
        loss = gram_reconstruction_loss(embedding, target)
        loss.backward()
        assert loss.data.dtype == np.float32
        assert embedding.grad.dtype == np.float32

    def test_exact_reconstruction_is_finite(self):
        # At this seed and scale the expanded squared loss rounds to a
        # negative number, which the clamp must keep out of the square root.
        value = 10.0 * np.random.default_rng(1).normal(size=(25, 5))
        target = sp.csr_matrix(value @ value.T)
        embedding = Tensor(value.copy(), requires_grad=True)
        loss = gram_reconstruction_loss(embedding, target)
        loss.backward()
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-3
        assert np.all(np.isfinite(embedding.grad))

    def test_training_trajectory_matches_dense_loss(self, monkeypatch):
        trainer, args = _train_pair(30, [0, 1], epochs=15)
        fused_losses = trainer.train(*args)

        def dense_loss(embedding, laplacian, laplacian_sq_norm=None):
            return dense_reconstruction_loss(embedding, laplacian)

        monkeypatch.setattr(training_module, "gram_reconstruction_loss", dense_loss)
        trainer, args = _train_pair(30, [0, 1], epochs=15)
        dense_losses = trainer.train(*args)
        np.testing.assert_allclose(fused_losses, dense_losses, rtol=1e-9)

    def test_training_memory_is_linear_in_nodes(self):
        """Two 2000-node views: the dense targets alone would take 128 MB."""
        trainer, args = _train_pair(2000, [0, 1], epochs=2, embedding_dim=16)
        tracemalloc.start()
        try:
            trainer.train(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestMultiOrbitTrainer:
    def test_loss_decreases(self):
        pair = tiny_pair(n_nodes=30, random_state=0)
        config = HTCConfig(orbits=[0, 1], embedding_dim=8, epochs=30, random_state=0)
        source_views = build_topology_views(pair.source, config)
        target_views = build_topology_views(pair.target, config)
        encoder = make_encoder(pair.source.n_attributes, config)
        losses = MultiOrbitTrainer(config).train(
            encoder,
            source_views,
            target_views,
            pair.source.attributes,
            pair.target.attributes,
        )
        assert len(losses) == 30
        assert losses[-1] < losses[0]

    def test_view_mismatch_rejected(self):
        pair = tiny_pair(n_nodes=20, random_state=0)
        config = HTCConfig(orbits=[0, 1], embedding_dim=4, epochs=2)
        source_views = build_topology_views(pair.source, config)
        target_views = build_topology_views(pair.target, config.updated(orbits=[0]))
        encoder = make_encoder(pair.source.n_attributes, config)
        with pytest.raises(ValueError):
            MultiOrbitTrainer(config).train(
                encoder,
                source_views,
                target_views,
                pair.source.attributes,
                pair.target.attributes,
            )

    def test_training_changes_parameters(self):
        pair = tiny_pair(n_nodes=25, random_state=1)
        config = HTCConfig(orbits=[0], embedding_dim=8, epochs=5, random_state=0)
        source_views = build_topology_views(pair.source, config)
        target_views = build_topology_views(pair.target, config)
        encoder = make_encoder(pair.source.n_attributes, config)
        before = encoder.state_dict()
        MultiOrbitTrainer(config).train(
            encoder,
            source_views,
            target_views,
            pair.source.attributes,
            pair.target.attributes,
        )
        after = encoder.state_dict()
        assert any(
            not np.array_equal(before[name], after[name]) for name in before
        )


class TestTheory:
    """Lemma 1 and Proposition 1: consistency implies identical embeddings."""

    def test_lemma1_symmetric_nodes_same_graph(self):
        """Nodes 1 and 2 of a star have matching neighbourhoods, hence equal
        embeddings after one orbit-weighted layer."""
        graph = from_edge_list(
            [(0, 1), (0, 2), (0, 3)],
            n_nodes=4,
            attributes=np.array([[1.0, 0.0]] * 4),
        )
        config = HTCConfig(orbits=[0, 1, 5], embedding_dim=6, random_state=0)
        views = build_topology_views(graph, config)
        encoder = make_encoder(2, config)
        for view in views.values():
            embedding = encoder(view, graph.attributes).numpy()
            np.testing.assert_allclose(embedding[1], embedding[2], atol=1e-10)
            np.testing.assert_allclose(embedding[1], embedding[3], atol=1e-10)

    def test_proposition1_isomorphic_graphs_get_identical_anchor_embeddings(self):
        """A permuted copy satisfies every consistency exactly, so anchor nodes
        must receive identical embeddings from the shared encoder."""
        source = powerlaw_cluster_graph(25, 3, n_attributes=5, random_state=0)
        target, mapping = permute_graph(source, random_state=1)

        config = HTCConfig(orbits=[0, 1, 2, 3], embedding_dim=8, random_state=0)
        source_views = build_topology_views(source, config)
        target_views = build_topology_views(target, config)
        encoder = make_encoder(5, config)

        for orbit in config.resolved_orbits:
            source_embedding = encoder(source_views[orbit], source.attributes).numpy()
            target_embedding = encoder(target_views[orbit], target.attributes).numpy()
            np.testing.assert_allclose(
                source_embedding, target_embedding[mapping], atol=1e-8
            )

    def test_proposition1_holds_after_training(self):
        """Sharing parameters keeps the anchor-embedding identity through training."""
        source = powerlaw_cluster_graph(20, 3, n_attributes=4, random_state=2)
        target, mapping = permute_graph(source, random_state=3)
        config = HTCConfig(orbits=[0, 1], embedding_dim=6, epochs=10, random_state=0)
        source_views = build_topology_views(source, config)
        target_views = build_topology_views(target, config)
        encoder = make_encoder(4, config)
        MultiOrbitTrainer(config).train(
            encoder, source_views, target_views, source.attributes, target.attributes
        )
        for orbit in config.resolved_orbits:
            source_embedding = encoder(source_views[orbit], source.attributes).numpy()
            target_embedding = encoder(target_views[orbit], target.attributes).numpy()
            np.testing.assert_allclose(
                source_embedding, target_embedding[mapping], atol=1e-8
            )

    def test_unshared_encoders_break_the_identity(self):
        """Without parameter sharing the identity generally fails — the reason
        the paper shares the encoder."""
        source = powerlaw_cluster_graph(20, 3, n_attributes=4, random_state=2)
        target, mapping = permute_graph(source, random_state=3)
        config = HTCConfig(orbits=[0], embedding_dim=6, random_state=0)
        source_views = build_topology_views(source, config)
        target_views = build_topology_views(target, config)
        encoder_a = SharedGCNEncoder(4, [6, 6], random_state=0)
        encoder_b = SharedGCNEncoder(4, [6, 6], random_state=99)
        source_embedding = encoder_a(source_views[0], source.attributes).numpy()
        target_embedding = encoder_b(target_views[0], target.attributes).numpy()
        assert not np.allclose(source_embedding, target_embedding[mapping], atol=1e-3)
