"""End-to-end integration tests through the top-level public API."""

import numpy as np
import pytest

from repro import (
    FRONTIER,
    GridConfig,
    PlexusOptions,
    train_plexus,
)
from repro.core import SpmmNoise


class TestTrainPlexus:
    def test_default_run(self):
        result = train_plexus("ogbn-products", gpus=8, epochs=4)
        assert len(result.losses) == 4
        assert result.losses[-1] < result.losses[0]
        assert result.mean_epoch_time() > 0

    def test_explicit_config(self):
        result = train_plexus("reddit", gpus=8, epochs=3, config=GridConfig(2, 2, 2))
        assert len(result.losses) == 3

    def test_on_frontier(self):
        result = train_plexus("europe_osm", gpus=4, epochs=3, machine=FRONTIER)
        assert all(np.isfinite(l) for l in result.losses)

    def test_with_all_optimizations(self):
        opts = PlexusOptions(
            permutation="double",
            aggregation_blocks=4,
            tune_dw_gemm=True,
            trainable_features=True,
            noise=SpmmNoise(threshold_nnz=1e5, sigma=0.1),
        )
        result = train_plexus("isolate-3-8m", gpus=8, epochs=4, options=opts)
        assert result.losses[-1] < result.losses[0]

    def test_deterministic_across_runs(self):
        a = train_plexus("ogbn-products", gpus=4, epochs=3, seed=5)
        b = train_plexus("ogbn-products", gpus=4, epochs=3, seed=5)
        np.testing.assert_allclose(a.losses, b.losses, atol=1e-12)

    def test_config_independence_of_losses(self):
        """The headline exactness property through the public API: the same
        training run on different 3D grids yields identical losses."""
        a = train_plexus("products-14m", gpus=8, epochs=3, config=GridConfig(8, 1, 1))
        b = train_plexus("products-14m", gpus=8, epochs=3, config=GridConfig(1, 2, 4))
        np.testing.assert_allclose(a.losses, b.losses, atol=1e-9)

    def test_mismatched_config_gpus(self):
        with pytest.raises(ValueError):
            train_plexus("reddit", gpus=8, epochs=1, config=GridConfig(2, 2, 1))


class TestNoise:
    """``SpmmNoise.multipliers`` is a pure function of (seed, global rank,
    charge = (Adam step, layer, pass, block))."""

    CHARGE = (3, 1, 0, 2)

    def test_below_threshold_deterministic(self):
        n = SpmmNoise(threshold_nnz=100, sigma=0.5, seed=0)
        out = n.multipliers([100, 50, 1000, 0], self.CHARGE, world=4)
        assert out[0] == out[1] == out[3] == 1.0  # exactly, at or below

    def test_above_threshold_slows_down(self):
        n = SpmmNoise(threshold_nnz=100, sigma=0.5, seed=0)
        assert np.all(n.multipliers([1000, 101], self.CHARGE, world=2) > 1.0)

    def test_seeded_sequence_reproducible(self):
        """Same seed + same (rank, charge) -> the same value: from another
        instance, on a second call (nothing is consumed), and for a slice
        ``[lo, hi)`` of the cube drawn on its own, as a worker does."""
        nnz = np.full(12, 500.0)
        n = SpmmNoise(threshold_nnz=1, sigma=0.3, seed=4)
        whole = n.multipliers(nnz, self.CHARGE, world=12)
        assert np.array_equal(whole, n.multipliers(nnz, self.CHARGE, world=12))
        again = SpmmNoise(threshold_nnz=1, sigma=0.3, seed=4).multipliers(nnz, self.CHARGE, 12)
        assert np.array_equal(whole, again)
        for lo, hi in ((0, 4), (4, 12), (8, 12)):
            part = n.multipliers(nnz[lo:hi], self.CHARGE, world=12, lo=lo)
            assert np.array_equal(part, whole[lo:hi])
        # a rank's value does not depend on which other ranks are hot
        mixed = nnz.copy()
        mixed[::2] = 1.0
        assert np.array_equal(n.multipliers(mixed, self.CHARGE, 12)[1::2], whole[1::2])

    def test_different_identity_independent(self):
        """A different rank, seed, step, layer, pass or block is another draw."""
        n = SpmmNoise(threshold_nnz=1, sigma=0.3, seed=4)
        nnz = np.full(64, 500.0)
        base = n.multipliers(nnz, self.CHARGE, world=64)
        assert len(set(base.tolist())) == 64  # ranks
        other_seed = SpmmNoise(threshold_nnz=1, sigma=0.3, seed=5).multipliers(nnz, self.CHARGE, 64)
        others = [other_seed]
        for i in range(4):  # step, layer, pass, block
            charge = list(self.CHARGE)
            charge[i] += 1
            others.append(n.multipliers(nnz, tuple(charge), world=64))
        for other in others:
            assert not np.any(other == base)
            assert abs(np.corrcoef(np.log(base - 1), np.log(other - 1))[0, 1]) < 0.5

    def test_scale_grows_with_size(self):
        n = SpmmNoise(threshold_nnz=100, sigma=0.3, seed=1)
        small = n.multipliers(np.full(200, 200.0), self.CHARGE, world=200)
        big = n.multipliers(np.full(200, 20000.0), self.CHARGE, world=200)
        assert np.all(big >= small) and np.mean(big) > np.mean(small)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SpmmNoise(threshold_nnz=0)
        with pytest.raises(ValueError):
            SpmmNoise(sigma=-1)
