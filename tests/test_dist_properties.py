"""Property tests for collective semantics against dense NumPy references,
plus an end-to-end smoke run of the quickstart example."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from groupwise import axis_comm

from repro.dist import LAPTOP, VirtualCluster, stack_shards
from repro.sparse import block_slices

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _world_comm(gsize: int):
    """The product's communicator over one group of ``gsize`` ranks."""
    return axis_comm(VirtualCluster(gsize, LAPTOP))


shard_shapes = st.tuples(st.integers(1, 12), st.integers(1, 6))


class TestCollectiveProperties:
    @given(shape=shard_shapes, gsize=st.integers(2, 6), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_all_reduce_sum_matches_dense_reference(self, shape, gsize, seed):
        rng = np.random.default_rng(seed)
        shards = rng.standard_normal((gsize, *shape))
        out = _world_comm(gsize).all_reduce(shards).wait()
        expected = shards.sum(axis=0)
        for r in range(gsize):
            np.testing.assert_allclose(out[r], expected, atol=1e-12)

    @given(shape=shard_shapes, gsize=st.integers(2, 6), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_all_reduce_max_matches_dense_reference(self, shape, gsize, seed):
        rng = np.random.default_rng(seed)
        shards = rng.standard_normal((gsize, *shape))
        out = _world_comm(gsize).all_reduce(shards, op="max").wait()
        np.testing.assert_array_equal(out[0], shards.max(axis=0))

    @given(
        rows=st.integers(1, 24),
        cols=st.integers(1, 6),
        gsize=st.integers(2, 6),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_reduce_scatter_then_all_gather_is_all_reduce(self, rows, cols, gsize, seed):
        """reduce_scatter ∘ all_gather == all_reduce, on random shapes."""
        rng = np.random.default_rng(seed)
        comm = _world_comm(gsize)
        shards = rng.standard_normal((gsize, rows, cols))
        scattered = comm.reduce_scatter(shards).wait()
        regathered = comm.all_gather(scattered).wait()
        expected = comm.all_reduce(shards).wait()
        np.testing.assert_allclose(regathered[0], expected[0], atol=1e-12)

    @given(
        rows=st.integers(1, 24),
        cols=st.integers(1, 6),
        gsize=st.integers(2, 6),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_reduce_scatter_blocks_follow_block_slices(self, rows, cols, gsize, seed):
        rng = np.random.default_rng(seed)
        shards = rng.standard_normal((gsize, rows, cols))
        scattered = _world_comm(gsize).reduce_scatter(shards).wait()
        dense = shards.sum(axis=0)
        for r, sl in enumerate(block_slices(rows, gsize)):
            np.testing.assert_allclose(scattered[r], dense[sl], atol=1e-12)

    @given(gsize=st.integers(2, 6), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_all_gather_of_unequal_shards_recovers_concatenation(self, gsize, seed):
        rng = np.random.default_rng(seed)
        shards = [rng.standard_normal((int(rng.integers(0, 5)) + 1, 3)) for _ in range(gsize)]
        gathered = _world_comm(gsize).all_gather(stack_shards(shards)).wait()
        np.testing.assert_allclose(gathered[0], np.concatenate(shards, axis=0))


@pytest.mark.slow
def test_quickstart_example_runs_end_to_end():
    """``examples/quickstart.py`` must run green: config selection,
    distributed training, and the serial cross-check assertion inside it."""
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(_REPO_ROOT / "examples" / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=_REPO_ROOT,
    )
    assert proc.returncode == 0, f"quickstart failed:\n{proc.stdout}\n{proc.stderr}"
    assert "max |distributed - serial| loss deviation" in proc.stdout
