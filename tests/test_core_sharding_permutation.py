"""Tests for shard geometry (Fig. 3) and permutation schemes (Sec. 5.1)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GridConfig, LayerSharding, PlexusGrid, axis_roles, build_scheme
from repro.core.permutation import PermutationScheme
from repro.dist import PERLMUTTER, VirtualCluster
from repro.sparse import nnz_balance_stats


def _grid(cfg: GridConfig) -> PlexusGrid:
    return PlexusGrid(VirtualCluster(cfg.total, PERLMUTTER), cfg)


#: one grid per configuration for the examples of a property test (read-only use)
_shared_grid = functools.lru_cache(maxsize=None)(_grid)


def _assert_chains(s: LayerSharding, nxt: LayerSharding, grid: PlexusGrid) -> None:
    """Sec. 3.2's compatibility property, which the rotating adjacency shards
    exist to guarantee: layer ``s``'s output sharding is ``nxt``'s input
    sharding on every rank."""
    for rank in range(grid.world_size):
        assert s.out_row_slice(grid, rank) == nxt.f_row_slice(grid, rank), rank
        assert s.out_col_slice(grid, rank) == nxt.f_col_slice(grid, rank), rank


class TestLayerSharding:
    @pytest.mark.parametrize(
        "cfg, layer, n, d_in, d_out, workers",
        [
            (GridConfig(2, 2, 2), 0, 37, 10, 8, None),
            (GridConfig(3, 2, 2), 1, 50, 9, 5, None),
            (GridConfig(1, 1, 8), 2, 30, 7, 6, None),
            (GridConfig(4, 1, 2), 0, 13, 5, 3, None),
            (GridConfig(8, 1, 1), 1, 20, 11, 9, None),
            (GridConfig(2, 3, 4), 2, 101, 17, 10, None),
            (GridConfig(2, 2, 4), 0, 45, 9, 7, (2, 1)),
            (GridConfig(3, 2, 2), 1, 50, 9, 5, (2, 0)),
        ],
        ids=["X2Y2Z2", "X3Y2Z2", "X1Y1Z8", "X4Y1Z2", "X8Y1Z1", "X2Y3Z4", "X2Y2Z4-slice1of2", "X3Y2Z2-slice0of2"],
    )
    def test_extent_table_is_the_per_rank_slice_extents(self, cfg, layer, n, d_in, d_out, workers):
        """The extent vectors the layers stage are, bitwise, each held rank's
        A row / A column / F column / W column slice length — on the whole
        cube and on a worker's slice of whole Z planes."""
        from repro.runtime import worker_slice

        if workers is None:
            grid = _grid(cfg)
        else:
            lo, hi = worker_slice(cfg, *workers)
            grid = PlexusGrid(VirtualCluster(hi - lo, PERLMUTTER, lo=lo, exchange=lambda a: a), cfg)
        s = LayerSharding(cfg, axis_roles(layer), n=n, d_in=d_in, d_out=d_out)
        table = s.extent_table(grid)
        for name, of in [
            ("a_rows", s.a_row_slice),
            ("a_cols", s.a_col_slice),
            ("f_cols", s.f_col_slice),
            ("w_cols", s.w_col_slice),
        ]:
            ref = np.array([of(grid, r).stop - of(grid, r).start for r in range(grid.world_size)], dtype=float)
            assert table[name].dtype == ref.dtype and table[name].tobytes() == ref.tobytes(), name

    @given(
        shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
        layer=st.integers(0, 2),
        n=st.integers(1, 90),
        d_in=st.integers(1, 20),
        d_out=st.integers(1, 20),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_property_extents_are_quasi_equal_blocks(self, shape, layer, n, d_in, d_out):
        """Along its sharding axis an extent vector steps through the
        quasi-equal blocks — remainder first, adjacent blocks one apart at
        most — whose sum is the split dimension; along the other axes it is
        constant."""
        cfg = GridConfig(*shape)
        grid = _shared_grid(cfg)
        roles = axis_roles(layer)
        table = LayerSharding(cfg, roles, n=n, d_in=d_in, d_out=d_out).extent_table(grid)
        cube = (cfg.gz, cfg.gx, cfg.gy)
        for name, dim, axis in [
            ("a_rows", n, roles.z),
            ("a_cols", n, roles.x),
            ("f_cols", d_in, roles.y),
            ("w_cols", d_out, roles.x),
        ]:
            ext = table[name].reshape(cube)
            along = (1, 2, 0)[axis]  # the cube's dimension of grid axis ``axis``
            assert (ext == ext.max(axis=tuple(a for a in range(3) if a != along), keepdims=True)).all()
            blocks = np.moveaxis(ext, along, 0).reshape(cfg.size(axis), -1)[:, 0]
            assert blocks.sum() == dim, name
            assert (np.diff(blocks) <= 0).all() and blocks[0] - blocks[-1] <= 1, name

    def test_a_shard_shapes_cover_matrix(self):
        cfg = GridConfig(2, 2, 2)
        grid = _grid(cfg)
        s = LayerSharding(cfg, axis_roles(0), n=37, d_in=10, d_out=8)
        cover = np.zeros((37, 37), dtype=int)
        seen = set()
        for rank in range(8):
            rs = s.a_row_slice(grid, rank)
            cs = s.a_col_slice(grid, rank)
            key = (rs.start, rs.stop, cs.start, cs.stop)
            if key in seen:
                continue  # replicated across the y-role axis
            seen.add(key)
            cover[rs, cs] += 1
        np.testing.assert_array_equal(cover, np.ones((37, 37)))

    def test_a_replicated_over_y_axis(self):
        cfg = GridConfig(2, 2, 2)
        grid = _grid(cfg)
        s = LayerSharding(cfg, axis_roles(0), n=32, d_in=8, d_out=8)
        # ranks differing only in y coordinate share the A shard slices
        by_coords = {grid.coords(r): r for r in range(8)}
        r0 = by_coords[(0, 0, 0)]
        r1 = by_coords[(0, 1, 0)]
        assert s.a_row_slice(grid, r0) == s.a_row_slice(grid, r1)
        assert s.a_col_slice(grid, r0) == s.a_col_slice(grid, r1)

    def test_w_subshards_partition_local_block(self):
        cfg = GridConfig(2, 2, 2)
        grid = _grid(cfg)
        s = LayerSharding(cfg, axis_roles(0), n=32, d_in=13, d_out=9)
        # within a z-group, the z-sub-slices partition the local w row block
        for rank in range(8):
            outer = s.w_row_slice(grid, rank)
            sub = s.w_row_subslice_z(grid, rank)
            assert outer.start <= sub.start <= sub.stop <= outer.stop

    @given(
        n=st.integers(8, 200),
        d=st.sampled_from([8, 13, 32]),
        cfg=st.sampled_from([GridConfig(2, 2, 2), GridConfig(4, 2, 1), GridConfig(1, 3, 2), GridConfig(2, 1, 4)]),
        n_layers=st.integers(2, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_output_sharding_chains(self, n, d, cfg, n_layers):
        """Sec. 3.2: layer i's output sharding == layer i+1's input sharding."""
        grid = _grid(cfg)
        dims = [d] * (n_layers + 1)
        shardings = [LayerSharding(cfg, axis_roles(i), n, dims[i], dims[i + 1]) for i in range(n_layers)]
        for i in range(n_layers - 1):
            _assert_chains(shardings[i], shardings[i + 1], grid)

    @given(
        gx=st.integers(1, 4), gy=st.integers(1, 3), gz=st.integers(1, 4),
        layer=st.integers(0, 2),
        n=st.integers(0, 64), d_in=st.integers(0, 40), d_out=st.integers(0, 24),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_property_pads_are_the_largest_block_of_the_cube(self, gx, gy, gz, layer, n, d_in, d_out):
        """Every pad extent is a closed form of (N, D_in, D_out, role-axis
        sizes): the largest block any rank of the whole cube holds — so a
        worker whose z-planes hold only shorter blocks (X1Y1Z2, N=49: 24
        rows on plane 1) pads to the extent every other holder uses."""
        cfg = GridConfig(gx, gy, gz)
        grid = _shared_grid(cfg)
        s = LayerSharding(cfg, axis_roles(layer), n, d_in, d_out)

        def largest(slicer: str) -> int:
            cuts = (getattr(s, slicer)(grid, r) for r in range(cfg.total))
            return max(sl.stop - sl.start for sl in cuts)

        assert s.a_pad == (largest("a_row_slice"), largest("a_col_slice"))
        assert s.a_pad[0] == largest("out_row_slice")
        assert s.w_gather_pad == largest("w_row_slice")
        assert s.w_pad == (largest("w_row_subslice_z"), largest("w_col_slice"))
        assert s.f0_pad == (largest("f_row_subslice_z"), largest("f_col_slice"))

    def test_f_subslice_z_within_row_slice(self):
        cfg = GridConfig(2, 2, 2)
        grid = _grid(cfg)
        s = LayerSharding(cfg, axis_roles(0), n=50, d_in=8, d_out=8)
        for rank in range(8):
            outer = s.f_row_slice(grid, rank)
            sub = s.f_row_subslice_z(grid, rank)
            assert outer.start <= sub.start <= sub.stop <= outer.stop


class TestPermutationScheme:
    def test_none_is_identity(self):
        s = build_scheme(10, "none")
        np.testing.assert_array_equal(s.row_perm, np.arange(10))
        assert s.n_adjacency_versions == 1

    def test_single_uses_same_perm(self):
        s = build_scheme(10, "single", seed=1)
        np.testing.assert_array_equal(s.row_perm, s.col_perm)

    def test_double_uses_distinct_perms(self):
        s = build_scheme(50, "double", seed=1)
        assert not np.array_equal(s.row_perm, s.col_perm)
        assert s.n_adjacency_versions == 2

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            build_scheme(10, "triple")

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            PermutationScheme("single", np.zeros(5, dtype=int), np.arange(5))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            PermutationScheme("double", np.arange(5), np.arange(4))

    def test_output_perm_needs_a_layer(self):
        with pytest.raises(ValueError):
            build_scheme(10, "double").output_perm(0)

    def test_layer_parity_alternation(self):
        s = build_scheme(20, "double", seed=0)
        np.testing.assert_array_equal(s.layer_row_perm(0), s.row_perm)
        np.testing.assert_array_equal(s.layer_row_perm(1), s.col_perm)
        np.testing.assert_array_equal(s.layer_row_perm(2), s.row_perm)
        np.testing.assert_array_equal(s.layer_col_perm(0), s.col_perm)
        np.testing.assert_array_equal(s.layer_col_perm(1), s.row_perm)

    def test_output_perm_by_depth(self):
        s = build_scheme(20, "double", seed=0)
        np.testing.assert_array_equal(s.output_perm(1), s.row_perm)   # L0 out
        np.testing.assert_array_equal(s.output_perm(2), s.col_perm)   # L1 out
        np.testing.assert_array_equal(s.output_perm(3), s.row_perm)

    def test_input_perm_is_pc(self):
        s = build_scheme(20, "double", seed=0)
        np.testing.assert_array_equal(s.input_perm(), s.col_perm)

    @given(n=st.integers(4, 60), seed=st.integers(0, 30), layer=st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_property_relabeling_exact(self, n, seed, layer):
        """Permuting A is a relabeling: chained layers reproduce the serial
        product after un-permuting (the 'no approximation' claim)."""
        import scipy.sparse as sp

        rnd = np.random.default_rng(seed)
        a = sp.random(n, n, density=0.3, random_state=np.random.RandomState(seed), format="csr")
        f = rnd.standard_normal((n, 3))
        s = build_scheme(n, "double", seed=seed)
        # two permuted layers: A1' (P_c A P_r^T) @ [A0' (P_r A P_c^T) @ (P_c F)]
        out_perm = (s.permuted_adjacency(a, 1) @ (s.permuted_adjacency(a, 0) @ f[s.input_perm()]))
        expected = (a @ (a @ f))[s.output_perm(2)]
        np.testing.assert_allclose(out_perm, expected, atol=1e-10)


class TestLoadBalancing:
    """Table 3's effect on the synthetic europe_osm."""

    def test_original_badly_imbalanced(self, tiny_road):
        stats = nnz_balance_stats(tiny_road.norm_adjacency, 8, 8)
        assert stats.max_over_mean > 4.0

    def test_single_permutation_helps(self, tiny_road):
        a = tiny_road.norm_adjacency
        s = build_scheme(a.shape[0], "single", seed=0)
        orig = nnz_balance_stats(a, 8, 8).max_over_mean
        single = nnz_balance_stats(s.permuted_adjacency(a, 0), 8, 8).max_over_mean
        assert single < orig

    def test_double_permutation_near_perfect(self, tiny_road):
        a = tiny_road.norm_adjacency
        s = build_scheme(a.shape[0], "double", seed=0)
        for layer in (0, 1):
            ratio = nnz_balance_stats(s.permuted_adjacency(a, layer), 8, 8).max_over_mean
            assert ratio < 1.2

    def test_ordering_double_le_single_le_original(self, tiny_road):
        a = tiny_road.norm_adjacency
        single = build_scheme(a.shape[0], "single", seed=0)
        double = build_scheme(a.shape[0], "double", seed=0)
        r_orig = nnz_balance_stats(a, 8, 8).max_over_mean
        r_single = nnz_balance_stats(single.permuted_adjacency(a, 0), 8, 8).max_over_mean
        r_double = nnz_balance_stats(double.permuted_adjacency(a, 0), 8, 8).max_over_mean
        assert r_double < r_single < r_orig
