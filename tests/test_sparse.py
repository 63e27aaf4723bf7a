"""Tests for the sparse substrate: normalization and 2D partitioning."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    add_self_loops,
    block_slice,
    block_slices,
    block_nnz_counts,
    csr_block,
    gcn_normalize,
    nnz_balance_stats,
    spmm,
    sym_normalize,
    to_csr,
)


def random_sparse(n_rows: int, n_cols: int, density: float, rng: np.random.Generator, dtype=np.float64) -> sp.csr_matrix:
    """Uniform random sparse matrix for tests (not a graph generator)."""
    if not (0 <= density <= 1):
        raise ValueError("density must be within [0, 1]")
    nnz = int(round(density * n_rows * n_cols))
    rows = rng.integers(0, n_rows, size=nnz) if n_rows else np.empty(0, dtype=int)
    cols = rng.integers(0, n_cols, size=nnz) if n_cols else np.empty(0, dtype=int)
    vals = rng.standard_normal(nnz)
    return to_csr(sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols)), dtype=dtype)


def partition_2d(a: sp.csr_matrix, row_parts: int, col_parts: int) -> list[list[sp.csr_matrix]]:
    """Cut ``a`` into a ``row_parts x col_parts`` grid of CSR shards (the
    reference ``block_nnz_counts`` is checked against)."""
    rows = block_slices(a.shape[0], row_parts)
    cols = block_slices(a.shape[1], col_parts)
    return [[csr_block(a, rs, cs) for cs in cols] for rs in rows]


def _path_graph(n=5):
    a = sp.lil_matrix((n, n))
    for i in range(n - 1):
        a[i, i + 1] = 1
        a[i + 1, i] = 1
    return a.tocsr()


class TestNormalization:
    def test_self_loops_set_diagonal(self):
        a = add_self_loops(_path_graph())
        np.testing.assert_array_equal(a.diagonal(), np.ones(5))

    def test_self_loops_idempotent(self):
        a = add_self_loops(add_self_loops(_path_graph()))
        np.testing.assert_array_equal(a.diagonal(), np.ones(5))

    def test_self_loops_requires_square(self):
        with pytest.raises(ValueError):
            add_self_loops(to_csr(np.ones((2, 3))))

    def test_sym_normalize_known_values(self):
        # two-node graph with self loops: degrees 2, entries 1/2 everywhere
        a = to_csr(np.array([[1.0, 1.0], [1.0, 1.0]]))
        out = sym_normalize(a)
        np.testing.assert_allclose(out.toarray(), np.full((2, 2), 0.5))

    def test_sym_normalize_isolated_node_is_zero_row(self):
        a = to_csr(np.diag([0.0, 1.0]))
        out = sym_normalize(a)
        assert out[0, 0] == 0.0
        assert out[1, 1] == pytest.approx(1.0)

    def test_gcn_normalize_spectral_radius_at_most_one(self, rng):
        a = random_sparse(50, 50, 0.1, rng)
        a = to_csr(abs(a) + abs(a).T)
        norm = gcn_normalize(a)
        eig = np.linalg.eigvalsh(norm.toarray())
        assert eig.max() <= 1.0 + 1e-9

    def test_gcn_normalize_symmetric_input_stays_symmetric(self, rng):
        a = random_sparse(30, 30, 0.2, rng)
        a = to_csr(abs(a) + abs(a).T)
        norm = gcn_normalize(a).toarray()
        np.testing.assert_allclose(norm, norm.T, atol=1e-12)

    def test_spmm_matches_dense(self, rng):
        a = random_sparse(20, 30, 0.3, rng)
        f = rng.standard_normal((30, 7))
        np.testing.assert_allclose(spmm(a, f), a.toarray() @ f, atol=1e-12)

    def test_spmm_shape_mismatch(self, rng):
        a = random_sparse(5, 6, 0.5, rng)
        with pytest.raises(ValueError):
            spmm(a, np.ones((7, 2)))

    def test_random_sparse_density_bounds(self, rng):
        with pytest.raises(ValueError):
            random_sparse(5, 5, 1.5, rng)


class TestBlockSlices:
    def test_covers_range_exactly(self):
        slices = block_slices(10, 3)
        assert slices[0] == slice(0, 4)
        assert slices[-1].stop == 10
        total = sum(s.stop - s.start for s in slices)
        assert total == 10

    def test_quasi_equal(self):
        sizes = [s.stop - s.start for s in block_slices(11, 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_parts_than_items(self):
        slices = block_slices(2, 5)
        sizes = [s.stop - s.start for s in slices]
        assert sum(sizes) == 2
        assert len(slices) == 5

    def test_zero_items(self):
        assert all(s.stop == s.start for s in block_slices(0, 3))

    @given(n=st.integers(0, 5000), parts=st.integers(1, 300), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_closed_form_is_the_running_split(self, n, parts, data):
        """Block ``i`` starts where blocks ``0..i-1`` end, the first
        ``n % parts`` blocks holding one extra item."""
        index = data.draw(st.integers(0, parts - 1))
        sizes = [n // parts + (i < n % parts) for i in range(index + 1)]
        start = sum(sizes[:-1])
        assert block_slice(n, parts, index) == slice(start, start + sizes[-1])

    @pytest.mark.parametrize(
        "n, parts, index, expected",
        [
            (0, 1, 0, slice(0, 0)),  # nothing to split
            (2, 5, 4, slice(2, 2)),  # more parts than items: the tail is empty
            (2, 5, 1, slice(1, 2)),  # ... and the head holds one each
            (10, 3, 0, slice(0, 4)),  # the remainder goes to the first block
            (10, 3, 2, slice(7, 10)),  # the last block ends at n
            (100, 1, 0, slice(0, 100)),  # one part is the whole range
        ],
    )
    def test_closed_form_boundaries(self, n, parts, index, expected):
        assert block_slice(n, parts, index) == expected

    @pytest.mark.parametrize("index", [-1, 3])
    def test_closed_form_index_out_of_range(self, index):
        with pytest.raises(IndexError):
            block_slice(10, 3, index)

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            block_slices(5, 0)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            block_slices(-1, 2)

    @given(n=st.integers(0, 500), parts=st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_property_partition_of_range(self, n, parts):
        slices = block_slices(n, parts)
        covered = np.concatenate([np.arange(s.start, s.stop) for s in slices]) if n else np.array([])
        np.testing.assert_array_equal(covered, np.arange(n))


class TestCsrBlock:
    """The single-pass block slicer must match scipy's double slice."""

    @given(
        n_rows=st.integers(1, 40),
        n_cols=st.integers(1, 40),
        density=st.floats(0.0, 0.6),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_double_slice(self, n_rows, n_cols, density, seed):
        rng = np.random.default_rng(seed)
        a = random_sparse(n_rows, n_cols, density, rng)
        r0 = int(rng.integers(0, n_rows + 1))
        r1 = int(rng.integers(r0, n_rows + 1))
        c0 = int(rng.integers(0, n_cols + 1))
        c1 = int(rng.integers(c0, n_cols + 1))
        block = csr_block(a, slice(r0, r1), slice(c0, c1))
        ref = a[r0:r1, :][:, c0:c1].tocsr()
        assert block.shape == ref.shape
        np.testing.assert_array_equal(block.toarray(), ref.toarray())

    def test_empty_block(self, rng):
        a = random_sparse(10, 10, 0.3, rng)
        block = csr_block(a, slice(4, 4), slice(2, 8))
        assert block.shape == (0, 6)
        assert block.nnz == 0

    def test_preserves_dtype(self, rng):
        a = random_sparse(8, 8, 0.4, rng, dtype=np.float32)
        block = csr_block(a, slice(1, 6), slice(2, 7))
        assert block.dtype == np.float32

    def test_rejects_stepped_slices(self, rng):
        a = random_sparse(8, 8, 0.4, rng)
        with pytest.raises(ValueError):
            csr_block(a, slice(0, 8, 2), slice(0, 8))


class TestPartition2D:
    def test_reassembles(self, rng):
        a = random_sparse(23, 17, 0.3, rng)
        blocks = partition_2d(a, 3, 2)
        rebuilt = sp.vstack([sp.hstack(row) for row in blocks])
        np.testing.assert_allclose(rebuilt.toarray(), a.toarray())

    @given(
        n_rows=st.integers(1, 60),
        n_cols=st.integers(1, 60),
        p=st.integers(1, 5),
        q=st.integers(1, 5),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_counts_match_slicing(self, n_rows, n_cols, p, q, seed):
        a = random_sparse(n_rows, n_cols, 0.2, np.random.default_rng(seed))
        counts = block_nnz_counts(a, p, q)
        blocks = partition_2d(a, p, q)
        expected = np.array([[b.nnz for b in row] for row in blocks])
        np.testing.assert_array_equal(counts, expected)

    def test_balance_stats_uniform(self):
        a = to_csr(np.ones((8, 8)))
        stats = nnz_balance_stats(a, 4, 4)
        assert stats.max_over_mean == pytest.approx(1.0)

    def test_balance_stats_diagonal_concentration(self):
        a = to_csr(np.eye(16))
        stats = nnz_balance_stats(a, 4, 4)
        # all nnz in diagonal blocks: max = 4, mean = 1
        assert stats.max_over_mean == pytest.approx(4.0)

    def test_balance_stats_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            nnz_balance_stats(to_csr(np.zeros((4, 4))), 2, 2)

    def test_invalid_parts_rejected(self, rng):
        a = random_sparse(4, 4, 0.5, rng)
        with pytest.raises(ValueError):
            block_nnz_counts(a, 0, 2)
