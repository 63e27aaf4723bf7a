"""Replica-free stacks: the one ``CubeStack`` type of the batched path.

Every all-reduce / all-gather of Algorithms 1-2 leaves a group's members
holding the same tensor; the stacked collectives return it once per group
(extent 1 along the shared cube axes) and the ``stack_*`` helpers, the
block-diagonal SpMM and the batched loss broadcast over those axes.
Quasi-equal shards are the same stacks zero-padded, with per-rank valid
``rows`` / ``cols``; ``rows is None`` is the case that pads nothing, and a
stack that spells out all-valid extents must give the same bits, clocks and
durations as the one that leaves them ``None``.  Pinned here:

* every collective x axis x op x operand form (raw, replicated along any
  subset of the cube axes — the collective's own included — with extents
  ``None`` or spelled out) equals a plain per-group loop over flat shards
  bitwise, bills the flat operand's duration, and hands out read-only
  results;
* a full-Z operand delivered as leading-axis chunks (what a transport bus
  hands the worker-crossing Z axis) gives the one-chunk result bitwise,
  whatever the split, and results never alias a chunk;
* the helpers that consume replicated stacks equal their flat-stack results
  bitwise;
* an SpMM plan stores each distinct adjacency shard once (A and A^T, whole
  shards and row blocks, the whole cube and a worker's z-slice) and still
  equals the per-rank ``shards[r] @ f[r]`` bitwise;
* a plan's product split into any number of row ranges is bitwise the
  serial one, and so is training every pinned workload of
  ``tests/test_differential.py`` with the split forced on; a toy-sized
  product starts no thread;
* after a forward pass the cached activations own ``world / G`` shards of
  memory, while everything persisted (weights, checkpoints, the in-flight
  prefetch inventory) is flat, writable ``(world, m, n)`` memory and resumes
  across backends.
"""

from __future__ import annotations

import itertools
import pickle
import threading
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import map_groups
from test_batched_parity import _assert_bitwise, explicit
from test_batched_parity import _dataset as _parity_dataset
from test_differential import PINNED, _books
from test_differential import _spec as _case_spec
from test_sparse import random_sparse

from repro.core import GridConfig, PlexusOptions
from repro.core.batch import (
    BlockDiagSpmm,
    CubeStack,
    _matmul_plan,
    concat_stack_rows,
    cube_boxes,
    shard_views,
    stack_data,
    stack_map,
    stack_matmul,
    stack_mul,
    stack_shards,
    stack_transpose,
)
from repro.core.grid import Axis, PlexusGrid, axis_roles
from repro.core.layers import PlexusLayer
from repro.core.sharding import LayerSharding
from repro.core.trainer import distributed_masked_ce
from repro.dist import LAPTOP, VirtualCluster, comm
from repro.graph.features import degree_labels, random_split_masks, synth_features
from repro.graph.generators import rmat_graph
from repro.nn.functional import relu
from repro.runtime import MultiprocTrainer, WorkloadSpec, build_trainer, worker_slice
from repro.runtime import checkpoint as ckpt
from repro.sparse import ops
from repro.sparse.ops import gcn_normalize, spmm
from repro.sparse.partition import block_slices, csr_block

GRIDS = [GridConfig(8, 1, 1), GridConfig(2, 1, 4), GridConfig(1, 1, 8), GridConfig(2, 3, 2)]
#: every subset of the cube axes (z, x, y) an operand can be replicated along
REPLICATIONS = [
    frozenset(c) for n in range(4) for c in itertools.combinations(range(3), n)
]
COLLECTIVES = [
    ("all_reduce", "sum"),
    ("all_reduce", "max"),
    ("all_gather", None),
    ("reduce_scatter", "sum"),
    ("reduce_scatter", "max"),
]


def _grid(cfg: GridConfig) -> PlexusGrid:
    return PlexusGrid(VirtualCluster(cfg.total, LAPTOP), cfg)


def _operand(rng, grid: PlexusGrid, replicated: frozenset, tail: tuple, dtype):
    """A stack that is constant along ``replicated`` cube axes: its
    replicated form and the flat ``(world, *tail)`` array it stands for."""
    lead = tuple(1 if a in replicated else e for a, e in enumerate(grid.cube))
    cube = rng.standard_normal(lead + tail).astype(dtype)
    flat = np.broadcast_to(cube, grid.cube + tail).reshape((-1,) + tail).copy()
    return CubeStack(cube, grid.cube), flat


def _reference(grid: PlexusGrid, axis: Axis, kind: str, op, flat: np.ndarray) -> list[np.ndarray]:
    """The collective as a plain loop over process groups of flat shards."""
    reducer = {"sum": np.add.reduce, "max": np.maximum.reduce}.get(op)
    out: list = [None] * grid.world_size
    for group in grid.groups(axis):
        ranks = [m.rank for m in group.members]
        shards = np.stack([flat[r] for r in ranks])
        if kind == "all_reduce":
            results = [reducer(shards, axis=0)] * len(ranks)
        elif kind == "all_gather":
            results = [np.concatenate(list(shards), axis=0)] * len(ranks)
        else:
            results = np.split(reducer(shards, axis=0), len(ranks), axis=0)
        for r, res in zip(ranks, results):
            out[r] = res
    return out


def _issue(grid: PlexusGrid, axis: Axis, kind: str, op, operand):
    comm = grid.comm(axis)
    if kind == "all_gather":
        return comm.all_gather(operand)
    return getattr(comm, kind)(operand, op=op)


class TestCollectivesMatchGroupLoop:
    @pytest.mark.parametrize("cfg", GRIDS, ids=lambda c: c.name)
    @pytest.mark.parametrize("kind,op", COLLECTIVES)
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        cols=st.integers(0, 3),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_every_axis_and_operand_form(self, cfg, kind, op, seed, cols, dtype):
        rng = np.random.default_rng(seed)
        for axis in Axis:
            g = cfg.size(axis)
            rows = g * int(rng.integers(1, 3)) if kind == "reduce_scatter" else int(rng.integers(1, 4))
            tail = (rows, cols) if cols else (rows,)
            for replicated in REPLICATIONS:
                grid = _grid(cfg)
                stack, flat = _operand(rng, grid, replicated, tail, dtype)
                expected = _reference(grid, axis, kind, op, flat)
                handle = _issue(grid, axis, kind, op, stack)
                result = handle.wait()
                assert result.rows is None and result.cols is None
                assert result.shape == (cfg.total,) + expected[0].shape
                got = np.asarray(result)
                views = shard_views(result)
                for r in range(cfg.total):
                    assert np.array_equal(got[r], expected[r]), (axis, replicated, r)
                    assert np.array_equal(views[r], expected[r]), (axis, replicated, r)
                    assert np.array_equal(result[r], expected[r])
                assert result.nbytes == got.nbytes
                self._assert_read_only(result)
                # the same operand handed over raw, and with its all-valid
                # extents spelled out: same values, same bill, same duration
                for twin in (flat, explicit(stack)):
                    twin_grid = _grid(cfg)
                    twin_handle = _issue(twin_grid, axis, kind, op, twin)
                    assert np.array_equal(twin_handle.duration, handle.duration)
                    twin_result = twin_handle.wait()
                    assert np.asarray(twin_result).tobytes() == got.tobytes()
                    assert np.array_equal(
                        twin_grid.cluster.store.clocks, grid.cluster.store.clocks
                    )
                    self._assert_read_only(twin_result)
                    if twin is flat:  # (a size-1 axis hands it back at full extent)
                        assert twin_result.rows is None
                    else:  # spelled-out extents stay all-valid
                        assert twin_result.cube.shape == result.cube.shape
                        assert (twin_result.rows == result.cube.shape[3]).all()
                        assert twin_result.cols is None or (twin_result.cols == cols).all()

    @staticmethod
    def _assert_read_only(result: CubeStack) -> None:
        with pytest.raises(ValueError, match="read-only"):
            result.cube[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            shard_views(result)[0][...] = 0
        with pytest.raises(TypeError):
            result[0] = 0  # one element may stand for G ranks: no item assignment
        flat = np.asarray(result)
        assert not flat.flags.writeable or not np.shares_memory(flat, result.cube)

    def test_results_hold_one_copy_per_group(self):
        cfg = GridConfig(4, 4, 4)
        grid = _grid(cfg)
        flat = np.random.default_rng(0).standard_normal((64, 8, 6))
        reduced = grid.comm(Axis.X).all_reduce(flat).wait()
        assert reduced.cube.shape == (4, 1, 4, 8, 6)  # cube order is (z, x, y)
        gathered = grid.comm(Axis.Z).all_gather(reduced).wait()
        assert gathered.cube.shape == (1, 1, 4, 32, 6)  # stays replicated along X
        scattered = grid.comm(Axis.Y).reduce_scatter(gathered).wait()
        assert scattered.cube.shape == (1, 1, 4, 8, 6)
        assert scattered.cube.base is not None  # a view of the reduction

    def test_grid_mismatch_and_bad_cube_are_rejected(self):
        grid = _grid(GridConfig(2, 2, 2))
        other = CubeStack(np.zeros((1, 4, 2, 3)), (1, 4, 2))
        with pytest.raises(ValueError, match="grid"):
            grid.comm(Axis.X).all_reduce(other)
        with pytest.raises(ValueError, match="does not fit"):
            CubeStack(np.zeros((2, 3, 2, 4)), (2, 2, 2))
        with pytest.raises(ValueError, match="need cols"):
            CubeStack(np.zeros((2, 2, 2, 4, 3)), (2, 2, 2), np.full(8, 4))


@st.composite
def _chunked_operands(draw):
    """(Gz, cut points splitting the planes into 1-4 chunks, shard extents,
    dtype, replicated-along-X, replicated-along-Y, seed)."""
    gz = draw(st.sampled_from([2, 3, 4, 8]))
    cuts = sorted(draw(st.sets(st.integers(1, gz - 1), max_size=3)))
    shard = draw(st.sampled_from([(1,), (1, 1), (5, 3), (2,), (4, 1), (1, 7)]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return gz, cuts, shard, dtype, draw(st.booleans()), draw(st.booleans()), draw(st.integers(0, 2**16))


class TestChunkedOperandMatchesOneChunk:
    """Behind a byte mover the full-Z operand arrives as one chunk of planes
    per worker and is reduced / gathered in place, plane by plane in z
    order.  That must equal the one-chunk call on ``np.concatenate(chunks)``
    bit for bit.  The hazard: ``np.add.reduce(axis=0)`` adds sequentially
    per element only while a plane holds more than one element; a
    scalar-per-rank operand ``(Gz, 1, 1, 1)`` is a contiguous 1-D reduction,
    which numpy sums pairwise.  **The rule: chunks whose planes hold one
    element are concatenated and reduced as one; all others stream.**"""

    GX, GY = 2, 3

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=_chunked_operands())
    # the hazard itself, on every run: one scalar per rank, 8 planes, 2-4 chunks
    @example(case=(8, [4], (1,), np.float32, True, True, 0))
    @example(case=(8, [4], (1, 1), np.float64, True, True, 1))
    @example(case=(8, [1, 2, 5], (1,), np.float64, True, True, 2))
    @example(case=(8, [3, 6], (1, 1), np.float32, True, True, 3))
    @example(case=(8, [2, 4, 6], (1,), np.float32, True, True, 4))
    def test_every_split_shape_dtype_and_op(self, case):
        gz, cuts, shard, dtype, rep_x, rep_y, seed = case
        rng = np.random.default_rng(seed)
        cube_shape = (gz, self.GX, self.GY)
        lead = (gz, 1 if rep_x else self.GX, 1 if rep_y else self.GY)
        for kind, op in COLLECTIVES:
            # reduce-scatter needs Gz | rows; magnitudes spread so that the
            # order of additions shows in the last bits
            tail = (shard[0] * gz,) + shard[1:] if kind == "reduce_scatter" else shard
            full = rng.standard_normal(lead + tail) * 10.0 ** rng.integers(-3, 4, size=lead + tail)
            chunks = [c.copy() for c in np.split(full.astype(dtype), cuts)]
            fn = getattr(comm, f"stacked_{kind}_data")
            args = () if op is None else (op,)
            whole = fn(cube_shape, 0, np.concatenate(chunks), *args)
            for operand in (chunks, tuple(chunks)):
                streamed = fn(cube_shape, 0, operand, *args)
                assert streamed.shape == whole.shape
                assert streamed.dtype == whole.dtype == dtype
                assert np.array_equal(streamed, whole), (kind, op, case)
                assert not any(np.shares_memory(streamed, c) for c in chunks)
                assert not streamed.flags.writeable


class TestHelpersMatchFlatStacks:
    CFG = GridConfig(2, 3, 2)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        rep_a=st.sampled_from(REPLICATIONS),
        rep_b=st.sampled_from(REPLICATIONS),
        ta=st.booleans(),
        tb=st.booleans(),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_stack_matmul_broadcasts_bitwise(self, seed, rep_a, rep_b, ta, tb, dtype):
        rng = np.random.default_rng(seed)
        grid = _grid(self.CFG)
        m, k, n = (int(v) for v in rng.integers(1, 9, size=3))
        a, a_flat = _operand(rng, grid, rep_a, (k, m) if ta else (m, k), dtype)
        b, b_flat = _operand(rng, grid, rep_b, (n, k) if tb else (k, n), dtype)
        expected = np.asarray(stack_matmul(a_flat, b_flat, ta=ta, tb=tb))
        for r in range(grid.world_size):
            a_r, b_r = (x.T if t else x for x, t in ((a_flat[r], ta), (b_flat[r], tb)))
            assert expected[r].tobytes() == np.matmul(a_r, b_r).tobytes()
        a_x, b_x = explicit(a), explicit(b)
        for left, right in ((a, b), (a, b_flat), (a_flat, b), (a_x, b_x), (a_x, b), (a_flat, b_x)):
            out = stack_matmul(left, right, ta=ta, tb=tb)
            assert np.asarray(out).tobytes() == expected.tobytes()
            # extents are spelled out on the product iff on an operand
            assert (out.rows is None) == (out.cols is None) == (left is not a_x and right is not b_x)
            assert out.rows is None or ((out.rows == m).all() and (out.cols == n).all())
        # replicated along an axis only where both operands are
        lead = stack_matmul(a, b, ta=ta, tb=tb).cube.shape[:3]
        assert lead == tuple(
            1 if i in rep_a & rep_b else e for i, e in enumerate(grid.cube)
        )

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        rep_a=st.sampled_from(REPLICATIONS),
        rep_b=st.sampled_from(REPLICATIONS),
    )
    def test_elementwise_helpers(self, seed, rep_a, rep_b):
        rng = np.random.default_rng(seed)
        grid = _grid(self.CFG)
        a, a_flat = _operand(rng, grid, rep_a, (4, 3), np.float32)
        b, b_flat = _operand(rng, grid, rep_b, (4, 3), np.float32)
        a_x, b_x = explicit(a), explicit(b)
        for left, right in ((a, b), (a_flat, b), (a_x, b_x), (a, b_x)):
            assert np.array_equal(np.asarray(stack_mul(left, right)), a_flat * b_flat)
        assert stack_mul(a, b).rows is None and (stack_mul(a, b_x).cols == 3).all()
        for operand in (a, a_x, a_flat):
            assert np.array_equal(np.asarray(stack_map(relu, operand)), relu(a_flat))
            assert np.array_equal(
                np.asarray(stack_transpose(operand)), a_flat.transpose(0, 2, 1)
            )
            assert np.array_equal(stack_data(operand), a_flat)
        assert stack_map(relu, a).cube.shape == a.cube.shape  # once per group
        assert (stack_transpose(a_x).rows == 3).all() and (stack_transpose(a_x).cols == 4).all()
        expected = np.concatenate([a_flat, b_flat, a_flat], axis=1)
        for parts in ([a, b, a_flat], [a_x, b, a_flat], [a_x, b_x, explicit(CubeStack.of(a_flat, grid.cube))]):
            joined = concat_stack_rows(parts)
            assert np.array_equal(np.asarray(joined), expected)
            assert joined.rows is None or ((joined.rows == 12).all() and (joined.cols == 3).all())
        assert concat_stack_rows([a, b, a_flat]).rows is None

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), rep=st.sampled_from(REPLICATIONS))
    def test_block_diag_spmm_shares_replicated_operand(self, seed, rep):
        rng = np.random.default_rng(seed)
        grid = _grid(self.CFG)
        shards = [
            sp.random(5, 7, density=0.4, random_state=int(rng.integers(2**31)), format="csr")
            for _ in range(grid.world_size)
        ]
        f, f_flat = _operand(rng, grid, rep, (7, 3), np.float64)
        plan = BlockDiagSpmm(shards)
        per_rank = plan.apply(list(f_flat))
        for operand, spelled in ((f, False), (f_flat, False), (explicit(f), True)):
            out = plan.apply_batched(operand)
            assert out.shape == (grid.world_size, 5, 3)
            assert (out.rows is not None) == spelled
            for r in range(grid.world_size):
                assert np.array_equal(out[r], per_rank[r])


@st.composite
def _plan_cases(draw):
    gx, gy, gz = draw(st.sampled_from(
        [(2, 2, 2), (4, 4, 2), (1, 2, 4), (3, 2, 2), (2, 3, 1), (1, 1, 8), (2, 1, 4), (4, 2, 4)]
    ))
    n_workers = draw(st.sampled_from([w for w in (1, 2, 4) if w <= gz]))
    return dict(
        cfg=GridConfig(gx, gy, gz),
        layer_idx=draw(st.integers(0, 2)),  # the three role rotations
        n=draw(st.sampled_from([24, 48, 25, 31, 50])),  # the first two divide every grid above
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        blocks=draw(st.sampled_from([1, 3])),
        n_workers=n_workers,
        worker=draw(st.integers(0, n_workers - 1)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestPlansStoreEachShardOnce:
    """Replica-free block plans against the per-rank products of the test's
    own shard cuts, on the plans a real ``PlexusLayer`` builds."""

    @settings(max_examples=40, deadline=None)
    @given(case=_plan_cases())
    @example(case=dict(cfg=GridConfig(4, 4, 2), layer_idx=1, n=50, dtype=np.float32, blocks=3,
                       n_workers=2, worker=1, seed=3))
    def test_apply_batched_equals_per_rank_products(self, case):
        cfg, n, dtype, c = case["cfg"], case["n"], case["dtype"], 3
        rng = np.random.default_rng(case["seed"])
        lo, hi = worker_slice(cfg, case["n_workers"], case["worker"])
        cluster = VirtualCluster(cfg.total, LAPTOP) if case["n_workers"] == 1 else VirtualCluster(
            hi - lo, LAPTOP, lo=lo, exchange=lambda arrays: [(a,) for a in arrays]
        )
        grid = PlexusGrid(cluster, cfg)
        world = grid.world_size
        sharding = LayerSharding(cfg, axis_roles(case["layer_idx"]), n, 4, 4)
        roles = sharding.roles
        a = sp.random(n, n, density=0.3, random_state=case["seed"], format="csr", dtype=dtype)
        layer = PlexusLayer(
            grid, sharding, a, np.zeros((4, 4), dtype=dtype), layer_idx=case["layer_idx"],
            is_first=False, is_last=False, aggregation_blocks=case["blocks"],
        )

        def operand(row_slice, shared: Axis):
            """Per-rank dense blocks cut from one global matrix — rows by
            ``row_slice``, columns by the y-role coordinate, so ranks along
            ``shared`` hold the same block — at full extent and with that
            cube axis at extent 1."""
            dense = rng.standard_normal((n, c * cfg.size(roles.y))).astype(dtype)
            per_rank = [
                dense[row_slice(grid, r), grid.coord(r, roles.y) * c:][:, :c] for r in range(world)
            ]
            pad = max(1, -(-n // cfg.size(roles.x if shared is roles.z else roles.z)))
            full = stack_shards(per_rank, grid.cube, (pad, c))
            one = [slice(None)] * 3
            one[(1, 2, 0)[shared]] = slice(0, 1)
            return per_rank, [full, CubeStack(full.cube[tuple(one)], grid.cube, full.rows, full.cols)]

        def check(plan: BlockDiagSpmm, blocks, per_rank, stacks):
            for stack in stacks:  # the first bakes its offsets in place, the second re-offsets a copy
                out = plan.apply_batched(stack)
                for r in range(world):
                    assert np.array_equal(out[r], blocks[r] @ per_rank[r]), (r, stack.cube.shape)
            cut = plan.shards  # read back from the plan, whatever it baked
            for r in range(world):
                assert cut[r] is cut[plan._first[r]] and (cut[r] != blocks[r]).nnz == 0
            distinct = {id(m): m.nnz for m in cut}
            for bd in plan._stacked_plans.values():
                assert len(bd.data) == sum(distinct.values())
                assert bd.nnz == sum(m.nnz for m in cut)

        shards = [csr_block(a, sharding.a_row_slice(grid, r), sharding.a_col_slice(grid, r))
                  for r in range(world)]
        f, f_stacks = operand(sharding.a_col_slice, roles.z)  # the gathered F: shared along z
        for b, plan in enumerate(layer._bd_blocks):
            blocks = [csr_block(s, block_slices(s.shape[0], case["blocks"])[b], slice(None)) for s in shards]
            check(plan, blocks, f, f_stacks)
        dh, dh_stacks = operand(sharding.a_row_slice, roles.x)  # the reduced dH: shared along x
        check(layer._bd_at, [m.T.tocsr() for m in shards], dh, dh_stacks)

    def test_private_kernel_pin(self):
        """``spmm`` on a plan is ``block_csr @ X`` bitwise: the plan calls
        ``scipy.sparse._sparsetools.csr_matvecs`` — what ``csr_matrix @
        ndarray`` itself calls — so a scipy release that moves or changes it
        fails here by name."""
        from scipy.sparse._sparsetools import csr_matvecs  # noqa: F401  (the pinned name)

        rng = np.random.default_rng(5)
        grid = (2, 3, 2)
        distinct = [sp.random(7, 5, density=0.4, random_state=i, format="csr", dtype=np.float32)
                    for i in range(6)]
        shards = [distinct[r // 2] for r in range(12)]  # replicated along the last cube axis
        x = rng.standard_normal((12, 5, 4)).astype(np.float32)
        plan = BlockDiagSpmm(shards, grid=grid)
        out = plan.apply_batched(CubeStack.of(x, grid))
        (bd,) = plan._stacked_plans.values()
        assert len(bd.data) == sum(m.nnz for m in distinct) and bd.nnz == 2 * len(bd.data)
        block_csr = sp.block_diag(shards, format="csr")
        assert bd.shape == block_csr.shape
        assert np.array_equal(spmm(bd, x.reshape(-1, 4)), block_csr @ x.reshape(-1, 4))
        assert np.array_equal(stack_data(out).reshape(-1, 4), block_csr @ x.reshape(-1, 4))
        with pytest.raises(ValueError, match="shape"):
            bd @ x.reshape(-1, 6)


@contextmanager
def _split(parts: int):
    """Every SpMM split into ``parts`` row ranges, however small (fewer
    only where the work, ``nnz * columns``, is smaller still)."""
    with mock.patch.multiple(ops, _PAR_MIN=0, _share=parts):
        yield


@st.composite
def _split_cases(draw):
    held = draw(st.integers(1, 4))
    return dict(
        replicas=draw(st.integers(1, 3)),
        # ragged rows, down to empty blocks (no rows) and empty rows
        rows=draw(st.lists(st.integers(0, 9), min_size=held, max_size=held)),
        density=draw(st.lists(st.sampled_from([0.0, 0.2, 0.6]), min_size=held, max_size=held)),
        k=draw(st.integers(1, 6)),
        c=draw(st.integers(1, 5)),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        parts=draw(st.sampled_from([1, 2, 3, 7])),
        seed=draw(st.integers(0, 2**16)),
    )


#: the workloads of ``tests/test_differential.py``'s pinned cases as
#: in-memory, in-process runs of all their epochs (by their first case's name)
PINNED_WORKLOADS: dict = {}
for _name, _case in PINNED.items():
    PINNED_WORKLOADS.setdefault(replace(
        _case, workers=0, transport="shm", mailbox=0, chunks=(sum(_case.chunks),), resume=None,
        fault=None, budget=1, disk=False,
    ), _name)


def _inproc_books(case) -> tuple:
    trainer = build_trainer(_case_spec(case))
    return trainer.train(sum(case.chunks)).epochs, _books(trainer.model)


class TestSplitKernel:
    """The SpMM split into nnz-balanced row ranges, run on the process's
    threads: every output row is written by one kernel call in stored
    nonzero order, so any split is bitwise the serial product — and a
    workload too small to split starts no thread."""

    @settings(max_examples=60, deadline=None)
    @given(case=_split_cases())
    @example(case=dict(replicas=3, rows=[0, 9, 1], density=[0.6, 0.0, 0.6], k=2, c=1,
                       dtype=np.float32, parts=7, seed=1))
    def test_any_split_is_the_serial_product(self, case):
        rng = np.random.default_rng(case["seed"])
        held, replicas, k, c, dtype = len(case["rows"]), case["replicas"], case["k"], case["c"], case["dtype"]
        distinct = [random_sparse(m, k, d, rng, dtype) for m, d in zip(case["rows"], case["density"])]
        shards = [distinct[r // replicas] for r in range(held * replicas)]  # replicas along y
        grid = (held, replicas, 1)
        x = rng.standard_normal((held * replicas, k, c)).astype(dtype)
        plan = BlockDiagSpmm(shards, grid=grid)
        with _split(case["parts"]):
            out = plan.apply_batched(CubeStack.of(x, grid))
        (bd,) = plan._stacked_plans.values()
        pad = max(case["rows"])
        block_csr = sp.block_diag(
            [sp.vstack([s, sp.csr_matrix((pad - s.shape[0], k), dtype=dtype)]) for s in shards],
            format="csr",
        )
        want = block_csr @ x.reshape(-1, c)
        with _split(case["parts"]):
            assert np.array_equal(spmm(bd, x.reshape(-1, c)), want)
        assert np.array_equal(stack_data(out).reshape(-1, c), want)
        # the ranges tile the stored rows, at most ``parts`` nonempty ones
        ranges = bd._split(case["parts"])
        edges = [0] + [hi for _, hi in ranges]
        assert ranges == list(zip(edges, edges[1:])) and edges[-1] == len(bd.indptr) - 1
        assert len(ranges) <= case["parts"] and all(lo < hi for lo, hi in ranges)

    @pytest.mark.parametrize("case", PINNED_WORKLOADS, ids=PINNED_WORKLOADS.values())
    def test_pinned_workloads_train_alike_split_or_not(self, case):
        """Every pinned workload of ``tests/test_differential.py``, trained
        in-process with the split forced on (3 parts) and off: losses,
        weights, per-rank clocks and phase totals are bitwise equal."""
        with _split(1):
            want_epochs, want = _inproc_books(case)
        with _split(3):
            epochs, books = _inproc_books(case)
        assert epochs == want_epochs
        for key in ("by_phase", "by_category", "weights"):
            assert books[key].keys() == want[key].keys(), key
            for label, vec in want[key].items():
                assert np.array_equal(books[key][label], vec), (key, label)
        assert np.array_equal(books["clocks"], want["clocks"])

    @pytest.mark.parametrize(
        "n_nodes, dims, cfg, opts",
        [
            (72, [24, 24, 12], GridConfig(3, 2, 2), {}),
            (72, [24, 24, 12], GridConfig(2, 2, 2),
             {"overlap": True, "aggregation_blocks": 3, "max_inflight": 1, "noise": True}),
            (70, [25, 23, 11], GridConfig(3, 2, 2), {"trainable_features": True}),
            (23, [3, 2, 2], GridConfig(3, 3, 3), {"permutation": "single"}),
        ],
    )
    def test_split_product_matches_the_oracle(self, n_nodes, dims, cfg, opts):
        """The batched-parity check (product == per-rank oracle, bitwise)
        with every SpMM of the product split in 7."""
        with _split(7):
            _assert_bitwise(_parity_dataset(3, n_nodes, dims), cfg, dims, **opts)

    def test_a_toy_workload_starts_no_thread(self):
        """A toy128-sized trainer (N=128, X4Y4Z4) takes the one-part path
        on any number of CPUs, for its SpMMs and its GEMMs: no pool, no
        thread."""
        spec = _spec(GridConfig(4, 4, 4), 128, [32, 32, 32, 16], compute_dtype=np.float32)
        before = threading.active_count()
        _matmul_plan.cache_clear()  # a plan records its parts when built
        with mock.patch.multiple(ops, _share=64, _todo=None, _parts={"spmm": 0, "gemm": 0}):
            build_trainer(spec).train(3)
            assert ops._todo is None and ops._parts == {"spmm": 1, "gemm": 1}
        assert threading.active_count() == before


def _spec(cfg: GridConfig, n: int, dims: list[int], **opts) -> WorkloadSpec:
    a = gcn_normalize(rmat_graph(n, avg_degree=6, seed=1))
    mask, _, _ = random_split_masks(n, seed=4)
    return WorkloadSpec(
        config=cfg,
        layer_dims=list(dims),
        workers=2,
        machine=LAPTOP,
        options=PlexusOptions(seed=0, **opts),
        adjacency=a,
        features=synth_features(n, dims[0], seed=2),
        labels=degree_labels(a, dims[-1], seed=3),
        train_mask=mask,
    )


def _owned_nbytes(a: np.ndarray) -> int:
    """Bytes of the buffer ``a`` ultimately views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


class TestEngineHoldsOneCopyPerGroup:
    CFG = GridConfig(4, 4, 4)
    DIMS = [32, 32, 16]

    def test_forward_caches_own_world_over_g_shards(self):
        model = build_trainer(_spec(self.CFG, 128, self.DIMS), backend="inproc").model
        assert model.f0_stack.rows is None
        logits, caches = model.forward()
        for layer, cache in zip(model.layers, caches):
            gx = self.CFG.size(layer.roles.x)
            gy = self.CFG.size(layer.roles.y)
            gz = self.CFG.size(layer.roles.z)
            for stack, g in ((cache.h, gx), (cache.q, gy)):
                assert stack.rows is None and not stack.cube.flags.writeable
                assert _owned_nbytes(stack.cube) * g == stack.nbytes
            w_local = model.grid.comm(layer.roles.z).all_gather(layer.w_stack).wait()
            assert _owned_nbytes(w_local.cube) * gz == w_local.nbytes
            # persisted state is flat, writable (world, m, n) memory at full
            # extent, and the optimizer updates it in place
            w, flat = layer.w_stack, stack_data(layer.w_stack)
            assert w.rows is None and w.cube.shape[:3] == model.grid.cube
            assert flat.shape[0] == self.CFG.total and flat.flags.writeable
            assert np.shares_memory(flat, w.cube)
            assert np.shares_memory(flat, model.optimizer.params[f"W{layer.layer_idx}"])
        assert _owned_nbytes(caches[0].f.cube) * self.CFG.gz == caches[0].f.nbytes
        assert logits.rows is None and logits is caches[-1].q

    def test_flat_logits_take_the_same_loss_path(self):
        model = build_trainer(_spec(self.CFG, 128, self.DIMS), backend="inproc").model
        logits, _ = model.forward()
        loss, grad = distributed_masked_ce(model, logits)
        flat_loss, flat_grad = distributed_masked_ce(model, np.asarray(logits))
        assert loss == flat_loss
        assert np.array_equal(np.asarray(grad), np.asarray(flat_grad))

    def test_checkpoints_stay_flat_and_resume_across_backends(self, tmp_path):
        """The on-disk layout is the flat ``(world, m, n)`` one: weights,
        Adam moments and an in-flight prefetch's gathered result; an eager
        checkpoint written in-process boots a 2-worker pool bitwise."""
        cfg, dims, epochs = GridConfig(2, 2, 2), [16, 16, 8], 4
        # overlap: the cross-epoch F prefetch (replicated along Z in memory)
        saver = build_trainer(_spec(cfg, 48, dims, overlap=True), backend="inproc")
        saver.train(2)
        held = saver.model._f0_pending._result
        assert held.rows is None and held.cube.shape[0] == 1 and not held.cube.flags.writeable
        path = saver.save_checkpoint(tmp_path / "overlap", epoch=2)
        with open(path / ckpt.worker_file_name(0, cfg.total), "rb") as fh:
            state = pickle.load(fh)
        # one on-disk shape, padded or not: flat data + valid extents
        pending = state["pending_f0"]["result"]
        assert set(pending) == {"data", "rows", "cols"}
        assert type(pending["data"]) is np.ndarray and pending["data"].shape[0] == cfg.total
        assert pending["rows"] is None and pending["cols"] is None
        for name, w in state["weights"].items():
            assert type(w) is np.ndarray and w.shape[0] == cfg.total, name
            assert state["adam"]["m"][name].shape == w.shape
        first = saver.train(2).losses
        saver.load_checkpoint(path)  # rewind, flat prefetch result
        assert saver.train(2).losses == first
        # a fresh model gets the prefetched F0 back cut to one copy per Z
        # group: its frozen layer-0 memo owns what the uninterrupted run's
        # does (not Gz times that), and the next epochs are bitwise equal
        fresh = build_trainer(_spec(cfg, 48, dims, overlap=True), backend="inproc")
        fresh.load_checkpoint(path)
        assert fresh.train(2).losses == first
        memo, ref = fresh.model.layers[0]._frozen.f, saver.model.layers[0]._frozen.f
        assert memo.cube.shape == ref.cube.shape and not memo.cube.flags.writeable
        assert _owned_nbytes(memo.cube) == _owned_nbytes(ref.cube) == ref.nbytes // cfg.gz

        # eager: inproc round trip, then inproc -> multiproc
        spec = _spec(cfg, 48, dims)
        losses = build_trainer(spec, backend="inproc").train(epochs).losses
        saver = build_trainer(spec, backend="inproc")
        saver.train(2)
        path = saver.save_checkpoint(tmp_path / "eager", epoch=2)
        resumed = build_trainer(spec, backend="inproc")
        resumed.load_checkpoint(path)
        assert resumed.train(epochs - 2).losses == losses[2:]
        with MultiprocTrainer(spec, timeout=60) as pool:
            assert pool.load_checkpoint(path)["epoch"] == 2
            assert pool.train(epochs - 2).losses == losses[2:]


# ---------------------------------------------------------------------------
# quasi-equal stacks: the same cube layout, pads as storage
# ---------------------------------------------------------------------------


def _quasi_equal(cube: tuple, total: int, axes: tuple) -> np.ndarray:
    """Per-rank extents ``(world,)`` of ``total`` block-sharded over cube axis
    ``axes[0]`` and each block sub-sharded over ``axes[1]`` (``None``: not
    sharded) — the separable geometry ``LayerSharding`` produces."""
    ext = np.full(cube, total, dtype=np.int64)
    for axis in axes:
        if axis is not None:
            coord = np.arange(cube[axis]).reshape([-1 if a == axis else 1 for a in range(3)])
            base, extra = np.divmod(ext, cube[axis])  # block_slices, vectorised
            ext = base + (coord < extra)
    return np.ascontiguousarray(ext).ravel()


def _padded_operand(rng, cube, rows, cols, form, dtype):
    """``(operand, exact per-rank shards)`` for per-rank extents ``rows`` x
    ``cols``: the values are constant along every cube axis neither extent
    varies on, so ``form`` can store them once per group (``"replicated"``),
    on the full cube (``"flat"``), without a grid (``"gridless"``), or — all
    extents equal, the stacks then carry none — as a raw ndarray
    (``"raw"``)."""
    world = len(rows)
    ext = np.stack([rows, cols]).reshape((2,) + cube)
    shared = [bool((ext == ext.take([0], axis=a + 1)).all()) for a in range(3)]
    lead = tuple(1 if sh else e for sh, e in zip(shared, cube))
    pad = (int(rows.max()), int(cols.max()))
    values = rng.standard_normal(lead + pad).astype(dtype)
    full = np.broadcast_to(values, cube + pad).reshape((world,) + pad)
    shards = [np.ascontiguousarray(full[r, : rows[r], : cols[r]]) for r in range(world)]
    if form == "gridless":
        return stack_shards(shards), shards
    flat = stack_shards(shards, cube, pad)
    if form == "flat":
        return flat, shards
    if form == "replicated":
        cut = flat.cube[tuple(slice(0, e) for e in lead)]
        return CubeStack(cut, cube, flat.rows, flat.cols), shards
    assert form == "raw" and flat.rows is None
    return np.stack(shards), shards


@st.composite
def _matmul_cases(draw):
    cube = (draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    # totals below the axis extent leave zero-row / zero-column ranks
    totals = [draw(st.integers(0, 9)) for _ in range(3)]
    axes = [
        (draw(st.sampled_from([None, 0, 1, 2])), draw(st.sampled_from([None, 0, 1, 2])))
        for _ in range(3)
    ]
    forms = [draw(st.sampled_from(["flat", "replicated", "gridless", "raw"])) for _ in range(2)]
    return (
        cube, totals, axes, forms, draw(st.booleans()), draw(st.booleans()),
        draw(st.sampled_from([np.float32, np.float64])), draw(st.integers(0, 2**16)),
    )


class TestPaddedBoxes:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_matmul_cases())
    def test_box_plan_matmul_equals_per_rank_loop(self, case):
        """One matmul per exact-shape box, on zero-copy views of operands in
        any form, is ``tobytes()``-equal to a per-rank loop over the exact
        shards; empty boxes are skipped, pads stay +0.0."""
        cube, totals, axes, forms, ta, tb, dtype, seed = case
        rng = np.random.default_rng(seed)
        m, k, n = (_quasi_equal(cube, t, ax) for t, ax in zip(totals, axes))
        if "gridless" in forms:  # no grid to broadcast over: both sides list-like
            forms = ["gridless", "gridless"]
        operands, exact = [], []
        for form, (rows, cols), t in zip(forms, ((m, k), (k, n)), (ta, tb)):
            if t:
                rows, cols = cols, rows
            if form == "raw" and ((rows != rows[0]).any() or (cols != cols[0]).any()):
                form = "flat"
            operand, shards = _padded_operand(rng, cube, rows, cols, form, dtype)
            operands.append(operand)
            exact.append([s.T for s in shards] if t else shards)
        with mock.patch.object(np, "matmul", wraps=np.matmul) as matmul:
            out = stack_matmul(*operands, ta=ta, tb=tb)
        for r, (a, b) in enumerate(zip(*exact)):
            assert out[r].shape == (m[r], n[r])
            assert out[r].tobytes() == np.matmul(a, b).tobytes(), (case, r)
        shapes = {(int(a), int(b), int(c)) for a, b, c in zip(m, k, n) if a and b and c}
        # one call per non-empty box: at most two segments per cube axis (a
        # grid-less stack has one axis, cut wherever its neighbours differ)
        assert len(shapes) <= matmul.call_count <= (len(m) if "gridless" in forms else 8)
        # operands that pad nothing carry no extents, and the product of two
        # such carries none; spelling them out changes no bit
        stacks = [CubeStack.of(o, None if "gridless" in forms else cube) for o in operands]
        assert (out.rows is None) == all(s.rows is None for s in stacks)
        spelled = stack_matmul(
            *(explicit(s) if s.rows is None else s for s in stacks), ta=ta, tb=tb
        )
        assert (spelled.rows == m).all() and (spelled.cols == n).all()
        assert stack_data(spelled).tobytes() == stack_data(out).tobytes()
        flat = stack_data(out)
        valid = (np.arange(flat.shape[1])[:, None] < m[:, None, None]) & (
            np.arange(flat.shape[2]) < n[:, None, None]
        )
        assert not flat[~valid].any() and not np.signbit(flat[~valid]).any()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        cube=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
        data=st.data(),
    )
    def test_boxes_tile_the_cube_exactly_once(self, cube, data):
        world = cube[0] * cube[1] * cube[2]
        extents = [
            np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=world, max_size=world)))
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        covered = np.zeros(cube, dtype=int)
        for box, values in cube_boxes(cube, cube, *(e.tobytes() for e in extents)):
            covered[box] += 1
            for e, v in zip(extents, values):
                assert (e.reshape(cube)[box] == v).all()
        assert (covered == 1).all()
        # quasi-equal extents: at most two segments per axis
        quasi = _quasi_equal(cube, data.draw(st.integers(0, 30)), (0, 2))
        assert len(cube_boxes(cube, cube, quasi.tobytes(), 5)) <= 8


def _valid(result: CubeStack, which: str, extent: int) -> np.ndarray:
    """A result's per-rank valid rows / cols (``None``: the cube's)."""
    vector = getattr(result, which)
    return np.full(len(result), extent) if vector is None else vector


class TestPaddedCollectives:
    """A collective on padded shards hands its result back like any other —
    once per group, read-only — and per rank it is the group-wise collective
    on the exact shards (``map_groups``: data, clocks), pads ``+0.0``.  A
    draw that pads nothing yields a stack without extents; spelled out, it
    gives the same bits, clocks and duration."""

    @pytest.mark.parametrize("cfg", GRIDS[1:], ids=lambda c: c.name)
    @pytest.mark.parametrize("kind,op", COLLECTIVES)
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        total=st.integers(1, 14),
        cols=st.integers(0, 3),
        dtype=st.sampled_from([np.float32, np.float64]),
        replicated=st.booleans(),
    )
    def test_results_are_replica_free_and_match_group_loop(
        self, cfg, kind, op, seed, total, cols, dtype, replicated
    ):
        rng = np.random.default_rng(seed)
        for axis in Axis:
            grid, ref_grid = _grid(cfg), _grid(cfg)
            cube, pos = grid.cube, grid.comm(axis).descriptor.axis
            g = cube[pos]
            others = [a for a in range(3) if a != pos]
            # a gather's members hold ragged sub-blocks; a reduction's share a
            # shape, which varies across the groups
            row_axes = (others[0], pos) if kind == "all_gather" else (others[0], None)
            rows = _quasi_equal(cube, total, row_axes)
            width = _quasi_equal(cube, cols + 2, (others[1], None)) if cols else None
            if replicated and cols:
                # stored once along every axis the extents are constant on
                # (a reduction's own axis included: expanded member by member)
                width = np.full(cfg.total, cols)
                stacked, shards = _padded_operand(rng, cube, rows, width, "replicated", dtype)
            else:
                shards = [
                    rng.standard_normal((rows[r],) + (() if width is None else (width[r],))).astype(dtype)
                    for r in range(cfg.total)
                ]
                stacked = stack_shards(shards, cube)
            kw = {} if op is None else {"op": op}
            handle = getattr(grid.comm(axis), kind)(stacked, **kw)
            result = handle.wait()
            expected = map_groups(ref_grid, axis, kind, shards, **kw).wait()
            assert np.array_equal(grid.cluster.store.clocks, ref_grid.cluster.store.clocks)
            assert result.grid == cube
            for r in range(cfg.total):
                assert result[r].shape == expected[r].shape
                assert result[r].tobytes() == expected[r].tobytes(), (axis, r)
            flat = stack_data(result)
            if g > 1:
                lead = result.cube.shape[:3]
                assert lead[pos] == (g if kind == "reduce_scatter" else 1)
                assert result.cube.nbytes * cfg.total == flat.nbytes * lead[0] * lead[1] * lead[2]
            with pytest.raises(ValueError, match="read-only"):
                result.cube[...] = 0
            with pytest.raises(ValueError, match="read-only"):
                result[0][...] = 0
            valid = np.arange(flat.shape[1]) < _valid(result, "rows", flat.shape[1])[:, None]
            if width is not None:
                result_cols = _valid(result, "cols", flat.shape[2])
                valid = valid[:, :, None] & (np.arange(flat.shape[2]) < result_cols[:, None, None])
            assert not flat[~valid].any() and not np.signbit(flat[~valid]).any()
            if stacked.rows is None:
                twin_grid = _grid(cfg)
                twin_handle = getattr(twin_grid.comm(axis), kind)(explicit(stacked), **kw)
                assert np.array_equal(twin_handle.duration, handle.duration)
                twin = twin_handle.wait()
                assert twin.rows is not None and stack_data(twin).tobytes() == flat.tobytes()
                for r in range(cfg.total):
                    assert twin[r].tobytes() == expected[r].tobytes()
                assert np.array_equal(twin_grid.cluster.store.clocks, grid.cluster.store.clocks)

    def test_model_activations_hold_one_copy_per_group(self):
        """The indivisible twin of ``TestEngineHoldsOneCopyPerGroup``."""
        cfg = GridConfig(4, 4, 4)
        model = build_trainer(_spec(cfg, 130, [34, 34, 18]), backend="inproc").model
        assert model.f0_stack.rows is not None
        logits, caches = model.forward()
        for layer, cache in zip(model.layers, caches):
            for stack, role in ((cache.h, layer.roles.x), (cache.q, layer.roles.y)):
                assert stack.rows is not None and not stack.cube.flags.writeable
                assert stack.cube.shape[model.grid.comm(role).descriptor.axis] == 1
            assert layer.w_stack.rows is not None
            assert layer.w_stack.cube.shape[:3] == model.grid.cube  # persisted: full, writable
            assert stack_data(layer.w_stack).flags.writeable
            assert np.shares_memory(stack_data(layer.w_stack), layer.w_stack.cube)
            assert np.shares_memory(
                stack_data(layer.w_stack), model.optimizer.params[f"W{layer.layer_idx}"]
            )
        assert caches[0].f.cube.shape[0] == 1 and logits is caches[-1].q
