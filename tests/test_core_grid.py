"""Tests for the 3D grid, axis-role rotation and config enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Axis,
    GridConfig,
    PlexusGrid,
    axis_roles,
    classify_config,
    factor_triples,
)
from repro.dist import PERLMUTTER, VirtualCluster


class TestGridConfig:
    def test_total(self):
        assert GridConfig(2, 4, 8).total == 64

    def test_name_roundtrip(self):
        cfg = GridConfig(2, 4, 8)
        assert GridConfig.parse(cfg.name) == cfg

    def test_parse_invalid(self):
        with pytest.raises(ValueError):
            GridConfig.parse("2x4x8")

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            GridConfig(0, 1, 1)

    def test_size_by_axis(self):
        cfg = GridConfig(2, 4, 8)
        assert cfg.size(Axis.X) == 2
        assert cfg.size(Axis.Y) == 4
        assert cfg.size(Axis.Z) == 8

    def test_inner_sizes_y_fastest(self):
        cfg = GridConfig(2, 4, 8)
        assert cfg.inner_size(Axis.Y) == 1
        assert cfg.inner_size(Axis.X) == 4
        assert cfg.inner_size(Axis.Z) == 8

    def test_parallel_dims(self):
        assert GridConfig(8, 1, 1).n_parallel_dims == 1
        assert GridConfig(2, 4, 1).n_parallel_dims == 2
        assert GridConfig(2, 2, 2).n_parallel_dims == 3

    def test_classify(self):
        assert classify_config(GridConfig(1, 16, 1)) == "1D"
        assert classify_config(GridConfig(4, 4, 1)) == "2D"
        assert classify_config(GridConfig(4, 4, 4)) == "3D"


class TestFactorTriples:
    def test_count_for_64(self):
        # Fig. 5 sweeps all ordered factorizations of 64 = 2^6: C(8,2) = 28
        assert len(factor_triples(64)) == 28

    def test_products_correct(self):
        for cfg in factor_triples(24):
            assert cfg.total == 24

    def test_unique(self):
        cfgs = factor_triples(36)
        assert len(cfgs) == len(set(cfgs))

    def test_invalid(self):
        with pytest.raises(ValueError):
            factor_triples(0)

    @given(g=st.integers(1, 128))
    @settings(max_examples=30, deadline=None)
    def test_property_all_factorizations_present(self, g):
        cfgs = factor_triples(g)
        brute = sum(1 for a in range(1, g + 1) for b in range(1, g + 1) if g % (a * b) == 0 and a * b <= g and g % a == 0 and (g // a) % b == 0)
        assert len(cfgs) == brute


class TestAxisRoles:
    def test_rotation_sequence(self):
        assert axis_roles(0).as_tuple() == (Axis.X, Axis.Y, Axis.Z)
        assert axis_roles(1).as_tuple() == (Axis.Z, Axis.X, Axis.Y)
        assert axis_roles(2).as_tuple() == (Axis.Y, Axis.Z, Axis.X)

    def test_period_three(self):
        assert axis_roles(3) == axis_roles(0)
        assert axis_roles(7) == axis_roles(1)

    def test_adjacency_planes_match_fig4(self):
        # layer 0: A on ZX-plane; layer 1: YZ-plane; layer 2: XY-plane
        assert (axis_roles(0).z, axis_roles(0).x) == (Axis.Z, Axis.X)
        assert (axis_roles(1).z, axis_roles(1).x) == (Axis.Y, Axis.Z)
        assert (axis_roles(2).z, axis_roles(2).x) == (Axis.X, Axis.Y)

    def test_chaining_invariant(self):
        # output sharding (z, x) of layer i == input sharding (x, y) of i+1
        for i in range(6):
            assert axis_roles(i).z == axis_roles(i + 1).x
            assert axis_roles(i).x == axis_roles(i + 1).y

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            axis_roles(-1)


class TestPlexusGrid:
    def _grid(self, gx=2, gy=2, gz=2):
        cfg = GridConfig(gx, gy, gz)
        return PlexusGrid(VirtualCluster(cfg.total, PERLMUTTER), cfg)

    def test_world_size_mismatch(self):
        with pytest.raises(ValueError):
            PlexusGrid(VirtualCluster(8, PERLMUTTER), GridConfig(2, 2, 1))

    def test_coords_bijective(self):
        grid = self._grid(2, 3, 2)
        seen = {grid.coords(r) for r in range(12)}
        assert len(seen) == 12

    def test_y_varies_fastest(self):
        grid = self._grid(2, 4, 1)
        assert grid.coords(0) == (0, 0, 0)
        assert grid.coords(1) == (0, 1, 0)
        assert grid.coords(4) == (1, 0, 0)

    # the oracle's explicit rank groups, whose link keys the axis
    # communicators must reproduce (TestSlicedGrid)
    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3, 4), (1, 1, 8), (4, 1, 2)], ids=lambda s: "X{}Y{}Z{}".format(*s))
    def test_group_membership(self, shape):
        from oracle import axis_groups

        grid = self._grid(*shape)
        for axis in Axis:
            groups = axis_groups(grid, axis)
            for rank in range(grid.world_size):
                (g,) = [g for g in groups if rank in g.ranks]
                assert g.size == shape[axis]
                # the members differ from ``rank`` along ``axis`` only
                for m in g.ranks:
                    assert all(
                        grid.coords(m)[a] == grid.coords(rank)[a] for a in Axis if a != axis
                    )

    def test_group_count(self):
        from oracle import axis_groups

        grid = self._grid(2, 4, 2)
        assert len(axis_groups(grid, Axis.X)) == 8   # gy*gz
        assert len(axis_groups(grid, Axis.Y)) == 4   # gx*gz
        assert len(axis_groups(grid, Axis.Z)) == 8   # gx*gy

    def test_group_members_ordered_by_axis_coord(self):
        from oracle import axis_groups

        grid = self._grid(2, 2, 4)
        for g in axis_groups(grid, Axis.Z):
            coords = [grid.coords(m)[Axis.Z] for m in g.ranks]
            assert coords == sorted(coords) == list(range(4))

    def test_y_group_is_intra_node_on_perlmutter(self):
        # Gy=4 packs exactly into a 4-GPU node -> NVLink bandwidth
        grid = self._grid(2, 4, 1)
        assert grid.comm(Axis.Y).descriptor.bandwidth == PERLMUTTER.intra_node_bw

    def test_z_group_spanning_nodes_gets_contended_bandwidth(self):
        grid = self._grid(2, 4, 2)  # inner(Z) = 8 > 4
        assert grid.comm(Axis.Z).descriptor.bandwidth == PERLMUTTER.inter_node_bw / 4


def _splits(cfg):
    """Every ``(n_workers, worker_id)`` split of ``cfg``'s z-planes."""
    return [(n, w) for n in range(1, cfg.gz + 1) for w in range(n)]


class TestSlicedGrid:
    """One grid class: a cluster holding a worker's z-planes (reaching the
    rest through a byte mover — a loop-back stand-in here, never called)
    gets the whole-cube grid restricted to its slice."""

    @pytest.mark.parametrize(
        "cfg,n_workers,worker",
        [(cfg, n, w) for cfg in (GridConfig(2, 2, 4), GridConfig(3, 2, 2)) for n, w in _splits(cfg)],
        ids=lambda v: v.name if isinstance(v, GridConfig) else str(v),
    )
    def test_slice_is_the_whole_cube_grid_restricted(self, cfg, n_workers, worker):
        from repro.runtime import worker_slice

        lo, hi = worker_slice(cfg, n_workers, worker)
        whole = PlexusGrid(VirtualCluster(cfg.total, PERLMUTTER), cfg)
        cluster = VirtualCluster(
            hi - lo, PERLMUTTER, lo=lo, exchange=lambda arrays: [(a,) for a in arrays]
        )
        sliced = PlexusGrid(cluster, cfg)
        plane = cfg.gx * cfg.gy
        assert sliced.world_size == hi - lo and sliced.config == cfg
        assert sliced.cube == ((hi - lo) // plane, cfg.gx, cfg.gy)
        assert (cluster.lo, cluster.hi) == (lo, hi)
        assert [sliced.coords(i) for i in range(hi - lo)] == [
            whole.coords(r) for r in range(lo, hi)
        ]
        for axis in (Axis.X, Axis.Y):
            d, ref_d = sliced.comm(axis).descriptor, whole.comm(axis).descriptor
            assert d.cube == sliced.cube
            assert (d.axis, d.size, d.bandwidth, d.latency) == (
                ref_d.axis, ref_d.size, ref_d.bandwidth, ref_d.latency
            )
        # Z crosses the slices: its descriptor is the whole cube's
        d, ref_d = sliced.comm(Axis.Z).descriptor, whole.comm(Axis.Z).descriptor
        assert (d.cube, d.axis, d.size, d.bandwidth, d.latency) == (
            ref_d.cube, ref_d.axis, ref_d.size, ref_d.bandwidth, ref_d.latency
        )

    @pytest.mark.parametrize("total", range(1, 17))
    def test_a_link_key_is_its_groups_global_ranks(self, total):
        """One link-key space (``comm.link_key``): for every grid of
        ``total`` ranks, on the whole cube and on every worker slice, the
        slots of each axis communicator are ``link_key`` of the oracle's
        explicit rank groups it holds (a slice: its planes' X / Y groups and
        every Z group), each at the keepdims position of its off-axis
        coordinates; distinct groups get distinct keys, and the oracle's
        per-group reference names the same link."""
        from oracle import axis_group_ranks, axis_groups

        from repro.dist.comm import link_key
        from repro.runtime import worker_slice

        for cfg in factor_triples(total):
            whole = PlexusGrid(VirtualCluster(total, PERLMUTTER), cfg)
            splits = [(whole, 0, total)] + [
                (PlexusGrid(VirtualCluster(hi - lo, PERLMUTTER, lo=lo, exchange=lambda a: a), cfg), lo, hi)
                for lo, hi in (worker_slice(cfg, n, w) for n, w in _splits(cfg))
            ]
            plane = cfg.gx * cfg.gy
            for axis in Axis:
                groups = axis_group_ranks(cfg.gx, cfg.gy, cfg.gz, axis)
                keys = [link_key(g) for g in groups]
                assert len(set(keys)) == len(keys), cfg.name
                assert [g.slots.links for g in axis_groups(whole, axis)] == [
                    (k,) for k in keys
                ]
                for grid, lo, hi in splits:
                    if axis is Axis.Z:  # spans the cube behind a byte mover too
                        lo, hi = 0, total
                    # slot order: the ravel of the off-axis cube of the
                    # spanned planes, a group at its first member's coordinates
                    keep = [(hi - lo) // plane, cfg.gx, cfg.gy]
                    keep[(1, 2, 0)[axis]] = 1

                    def position(g):
                        x, y, z = whole.coords(g[0])
                        zxy = [z - lo // plane, x, y]
                        zxy[(1, 2, 0)[axis]] = 0
                        return np.ravel_multi_index(zxy, keep)

                    held = sorted((g for g in groups if lo <= g[0] and g[-1] < hi), key=position)
                    assert list(grid.comm(axis)._slots.links) == [link_key(g) for g in held]
                assert whole.link_keys() >= set(keys)

    def test_slice_must_cover_whole_planes_and_have_a_mover(self):
        cfg = GridConfig(2, 2, 2)
        mover = lambda arrays: [(a,) for a in arrays]  # noqa: E731
        with pytest.raises(ValueError, match="whole z-planes"):
            PlexusGrid(VirtualCluster(3, PERLMUTTER, lo=4, exchange=mover), cfg)
        with pytest.raises(ValueError, match="needs 8 ranks"):
            PlexusGrid(VirtualCluster(4, PERLMUTTER, lo=4), cfg)
