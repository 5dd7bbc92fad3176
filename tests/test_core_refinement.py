"""Tests for trusted-pair based fine-tuning (Algorithm 2)."""

import numpy as np
import pytest

import repro.core.refinement as refinement_module
from repro.core.config import HTCConfig
from repro.core.encoder import build_topology_views, make_encoder
from repro.core.refinement import RefinementOutput, TrustedPairRefiner
from repro.core.training import MultiOrbitTrainer
from repro.datasets.synthetic import tiny_pair
from repro.graph.laplacian import reinforced_laplacian
from repro.similarity.matching import mutual_nearest_neighbors


def _recounting_refine_view(refiner, encoder, source_laplacian, target_laplacian,
                            source_attributes, target_attributes):
    """Algorithm 2 recounting the trusted pairs at every loop head: the
    reference the pair-reusing ``refine_view`` must reproduce exactly."""
    beta = refiner.config.reinforcement_rate
    reinforcement_source = np.ones(source_attributes.shape[0])
    reinforcement_target = np.ones(target_attributes.shape[0])
    source = encoder(source_laplacian, source_attributes).detach().numpy()
    target = encoder(target_laplacian, target_attributes).detach().numpy()
    best = current = refiner._score_matrix(source, target)
    best_source, best_target = source, target
    max_count = len(mutual_nearest_neighbors(best))
    iterations = 0
    for iterations in range(1, refiner.config.max_refinement_iterations + 1):
        for i, j in mutual_nearest_neighbors(current):
            reinforcement_source[i] *= beta
            reinforcement_target[j] *= beta
        source = encoder(
            reinforced_laplacian(source_laplacian, reinforcement_source),
            source_attributes,
        ).detach().numpy()
        target = encoder(
            reinforced_laplacian(target_laplacian, reinforcement_target),
            target_attributes,
        ).detach().numpy()
        current = refiner._score_matrix(source, target)
        count = len(mutual_nearest_neighbors(current))
        if count <= max_count:
            break
        max_count, best = count, current
        best_source, best_target = source, target
    return RefinementOutput(best, max_count, iterations, best_source, best_target)


@pytest.fixture(scope="module")
def trained_setup():
    """A trained encoder plus views for a small pair (shared across tests)."""
    pair = tiny_pair(n_nodes=30, random_state=0, noise=0.05)
    config = HTCConfig(
        orbits=[0, 1, 2],
        embedding_dim=12,
        epochs=25,
        n_neighbors=5,
        random_state=0,
    )
    source_views = build_topology_views(pair.source, config)
    target_views = build_topology_views(pair.target, config)
    encoder = make_encoder(pair.source.n_attributes, config)
    MultiOrbitTrainer(config).train(
        encoder, source_views, target_views, pair.source.attributes, pair.target.attributes
    )
    return pair, config, encoder, source_views, target_views


class TestRefineView:
    def test_output_fields(self, trained_setup):
        pair, config, encoder, source_views, target_views = trained_setup
        refiner = TrustedPairRefiner(config)
        output = refiner.refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        assert isinstance(output, RefinementOutput)
        assert output.alignment_matrix.shape == (30, 30)
        assert output.trusted_pairs >= 0
        assert output.source_embedding.shape[0] == 30
        assert output.target_embedding.shape[0] == 30

    def test_refinement_disabled_runs_zero_iterations(self, trained_setup):
        pair, config, encoder, source_views, target_views = trained_setup
        refiner = TrustedPairRefiner(config.updated(use_refinement=False))
        output = refiner.refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        assert output.iterations == 0

    def test_refinement_never_reduces_trusted_pairs(self, trained_setup):
        """The loop keeps the best matrix seen, so the reported count is the max."""
        pair, config, encoder, source_views, target_views = trained_setup
        with_refinement = TrustedPairRefiner(config).refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        without_refinement = TrustedPairRefiner(
            config.updated(use_refinement=False)
        ).refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        assert with_refinement.trusted_pairs >= without_refinement.trusted_pairs

    def test_iteration_cap_respected(self, trained_setup):
        pair, config, encoder, source_views, target_views = trained_setup
        capped = config.updated(max_refinement_iterations=1)
        output = TrustedPairRefiner(capped).refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        assert output.iterations <= 1

    def test_lisi_disabled_uses_pearson(self, trained_setup):
        pair, config, encoder, source_views, target_views = trained_setup
        lisi_output = TrustedPairRefiner(
            config.updated(use_refinement=False)
        ).refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        pearson_output = TrustedPairRefiner(
            config.updated(use_refinement=False, use_lisi=False)
        ).refine_view(
            encoder,
            source_views[0],
            target_views[0],
            pair.source.attributes,
            pair.target.attributes,
        )
        assert not np.allclose(
            lisi_output.alignment_matrix, pearson_output.alignment_matrix
        )
        # Pearson scores are bounded by 1 in absolute value.
        assert np.abs(pearson_output.alignment_matrix).max() <= 1.0 + 1e-9


    def test_trusted_pairs_counted_once_per_scored_matrix(
        self, trained_setup, monkeypatch
    ):
        pair, config, encoder, source_views, target_views = trained_setup
        refiner = TrustedPairRefiner(config)
        calls = []

        def counting(matrix):
            calls.append(1)
            return mutual_nearest_neighbors(matrix)

        monkeypatch.setattr(refinement_module, "mutual_nearest_neighbors", counting)
        iterations = []
        for view_id in source_views:
            args = (
                encoder,
                source_views[view_id],
                target_views[view_id],
                pair.source.attributes,
                pair.target.attributes,
            )
            calls.clear()
            output = refiner.refine_view(*args)
            # One count of the initial matrix, one per re-scored matrix.
            assert len(calls) == 1 + output.iterations
            expected = _recounting_refine_view(refiner, *args)
            np.testing.assert_array_equal(
                output.alignment_matrix, expected.alignment_matrix
            )
            np.testing.assert_array_equal(
                output.source_embedding, expected.source_embedding
            )
            np.testing.assert_array_equal(
                output.target_embedding, expected.target_embedding
            )
            assert output.trusted_pairs == expected.trusted_pairs
            assert output.iterations == expected.iterations
            iterations.append(output.iterations)
        assert max(iterations) >= 2


class TestRefineAll:
    def test_one_output_per_view(self, trained_setup):
        pair, config, encoder, source_views, target_views = trained_setup
        outputs = TrustedPairRefiner(config).refine_all(
            encoder,
            source_views,
            target_views,
            pair.source.attributes,
            pair.target.attributes,
        )
        assert set(outputs) == set(source_views)
