"""The GEMMs on the process's pool: a one-box ``stack_matmul`` past
break-even runs in slabs of ranks, and backward runs its dW and dH GEMMs
side by side.  Pinned here, with both forced on far below break-even:

* a split product is the serial one byte for byte — NN / TN / NT, operands
  broadcast along any cube axis, zero-padded one-box products and the thin
  (gemv) steps — and a plan below break-even or on a CPU share of 1 is the
  unsplit one;
* training with the lanes (and every split) on equals the per-rank oracle
  bitwise — eager and overlapped schedules, frozen and trainable features,
  the Sec. 5.3 dW form — and the lanes did run;
* the pool: a job that raises re-raises in its caller once every other
  job of the call has finished, the pool serves the next call, and no pool
  thread keeps a job's operands alive past its call.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batched_parity import _assert_bitwise
from test_batched_parity import _dataset as _parity_dataset

from repro.core import GridConfig, batch, layers
from repro.core.batch import CubeStack, _matmul_plan, side_by_side, stack_matmul, stack_shards
from repro.sparse import ops


@contextmanager
def _parts(share: int, par_min: int = 0):
    """A CPU share of ``share`` and a GEMM break-even of ``par_min``
    multiply-adds per part; plans are rebuilt on entry and on exit."""
    _matmul_plan.cache_clear()
    try:
        with mock.patch.multiple(ops, _share=share), mock.patch.object(batch, "_GEMM_PAR_MIN", par_min):
            yield
    finally:
        _matmul_plan.cache_clear()


def _same(got: CubeStack, want: CubeStack) -> None:
    assert got.cube.shape == want.cube.shape and got.cube.dtype == want.cube.dtype
    assert got.cube.tobytes() == want.cube.tobytes()
    for g, w in ((got.rows, want.rows), (got.cols, want.cols)):
        assert (g is None and w is None) or np.array_equal(g, w)


@st.composite
def _products(draw):
    grid = tuple(draw(st.lists(st.integers(1, 4), min_size=3, max_size=3)))
    # each operand full or extent 1 along each cube axis (broadcast there)
    a_lead = tuple(g if draw(st.booleans()) else 1 for g in grid)
    b_lead = tuple(g if draw(st.booleans()) else 1 for g in grid)
    thin = draw(st.sampled_from([None, "m", "n"]))
    m = 1 if thin == "m" else draw(st.integers(2, 9))
    n = 1 if thin == "n" else draw(st.integers(2, 9))
    return dict(
        grid=grid, a_lead=a_lead, b_lead=b_lead, m=m, k=draw(st.integers(1, 9)), n=n,
        form=draw(st.sampled_from(["NN", "TN", "NT"])),
        # a one-box padded product: every rank's extents one short of the pad
        padded=draw(st.booleans()),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        parts=draw(st.sampled_from([2, 3, 7])),
        seed=draw(st.integers(0, 2**16)),
    )


def _operands(case):
    rng = np.random.default_rng(case["seed"])
    grid, m, k, n, dtype = case["grid"], case["m"], case["k"], case["n"], case["dtype"]
    ta, tb = case["form"] == "TN", case["form"] == "NT"
    a_shape = (k, m) if ta else (m, k)
    b_shape = (n, k) if tb else (k, n)
    if case["padded"]:
        world = grid[0] * grid[1] * grid[2]

        def stack(shape):
            shards = [rng.standard_normal(shape).astype(dtype) for _ in range(world)]
            return stack_shards(shards, grid, (shape[0] + 1, shape[1] + 1))

        return stack(a_shape), stack(b_shape), ta, tb
    a = CubeStack(rng.standard_normal(case["a_lead"] + a_shape).astype(dtype), grid)
    b = CubeStack(rng.standard_normal(case["b_lead"] + b_shape).astype(dtype), grid)
    return a, b, ta, tb


class TestSplitGemm:
    @settings(max_examples=150, deadline=None)
    @given(case=_products())
    def test_any_split_is_the_serial_product(self, case):
        a, b, ta, tb = _operands(case)
        with _parts(1):
            want = stack_matmul(a, b, ta=ta, tb=tb)
        with _parts(case["parts"]):
            got = stack_matmul(a, b, ta=ta, tb=tb)
            steps, alloc = _plan_of(a, b, ta, tb)
        # a one-box product on a cube with an axis to cut is split
        if max(np.broadcast_shapes(a.cube.shape[:3], b.cube.shape[:3])) > 1:
            assert alloc is not None and 1 < len(steps) <= case["parts"]
        else:
            assert alloc is None
        _same(got, want)
        assert np.array_equal(got.cube, want.cube)  # and the values, for a readable failure

    def test_below_break_even_or_one_cpu_is_unsplit(self):
        rng = np.random.default_rng(0)
        grid = (4, 4, 4)
        a = CubeStack(rng.standard_normal((4, 1, 4, 32, 8)).astype(np.float32), grid)
        b = CubeStack(rng.standard_normal((1, 4, 4, 8, 8)).astype(np.float32), grid)
        work = 64 * 32 * 8 * 8
        for share, par_min in ((2, work // 2 + 1), (1, 0)):
            with _parts(share, par_min):
                assert _plan_of(a, b) == (None, None)
        with _parts(2, work // 2):
            steps, alloc = _plan_of(a, b)
            assert len(steps) == 2 and alloc is np.empty
        # two GEMMs side by side: each must carry the break-even itself
        with _parts(2, work):
            assert side_by_side(work) and not side_by_side(work - 1)
        with _parts(1):
            assert not side_by_side(work)
        # a GEMM that is itself a part (beside another) does not split
        want = np.matmul(a.cube, b.cube).tobytes()
        with _parts(2), mock.patch.object(batch, "run_parts", wraps=ops.run_parts) as slabs:
            got, _ = ops.run_parts([partial(stack_matmul, a, b), lambda: None], "gemm")
            assert slabs.call_count == 0 and got.cube.tobytes() == want
            assert stack_matmul(a, b).cube.tobytes() == want and slabs.call_count == 1


def _plan_of(a, b, ta=False, tb=False, share=None):
    """``(steps, alloc)`` of the plan :func:`stack_matmul` uses for ``a @ b``."""
    ac = a.cube.swapaxes(-1, -2) if ta else a.cube
    bc = b.cube.swapaxes(-1, -2) if tb else b.cube
    m_key, k_key = (a.cols, a.rows) if ta else (a.rows, a.cols)
    k2_key, n_key = (b.cols, b.rows) if tb else (b.rows, b.cols)
    keys = [None if v is None else v.tobytes() for v in (m_key, k_key, k2_key, n_key)]
    plan = _matmul_plan(a.grid, ac.shape, bc.shape, *keys, ops._share if share is None else share)
    return plan[3], plan[4]


class TestLanes:
    """Backward's dW beside dH, and every GEMM split, forced on: the
    product still equals the per-rank oracle bitwise."""

    @pytest.mark.parametrize(
        "n_nodes, dims, cfg, opts",
        [
            (72, [24, 24, 12], GridConfig(3, 2, 2), {}),
            (72, [24, 24, 12], GridConfig(2, 2, 2), {"overlap": True, "aggregation_blocks": 2}),
            (70, [25, 23, 11], GridConfig(3, 2, 2), {"trainable_features": True}),
            (72, [24, 24, 12], GridConfig(2, 2, 2), {"tune_dw_gemm": True, "overlap": True}),
            (70, [25, 23, 11], GridConfig(2, 3, 2),
             {"tune_dw_gemm": True, "trainable_features": True, "overlap": True}),
        ],
        ids=["eager", "overlap-blocked", "trainable", "tuned-overlap", "tuned-trainable-ragged"],
    )
    def test_lanes_match_the_oracle(self, n_nodes, dims, cfg, opts):
        gauges = {"spmm": 0, "gemm": 0}
        with _parts(3), mock.patch.object(ops, "_parts", gauges), mock.patch.object(
            layers, "run_parts", wraps=ops.run_parts
        ) as lanes:
            _assert_bitwise(_parity_dataset(3, n_nodes, dims), cfg, dims, **opts)
        # every backward that multiplies dH ran its dW beside it, and the
        # gemm_parts gauge saw parts run side by side
        per_epoch = len(dims) - 1 if opts.get("trainable_features") else len(dims) - 2
        assert lanes.call_count >= per_epoch
        assert all(len(call.args[0]) == 2 for call in lanes.call_args_list)
        assert gauges["gemm"] >= 2

    def test_no_lanes_below_break_even(self):
        with _parts(3, 1 << 40), mock.patch.object(layers, "run_parts", wraps=ops.run_parts) as lanes:
            _assert_bitwise(_parity_dataset(3, 72, [24, 24, 12]), GridConfig(2, 2, 2), [24, 24, 12])
        assert lanes.call_count == 0


class TestPool:
    def test_an_error_waits_for_the_other_parts_and_the_pool_serves_on(self):
        finished = threading.Event()

        def slow():
            time.sleep(0.05)
            finished.set()
            return "slow"

        def bad():
            raise ZeroDivisionError("lane")

        with mock.patch.multiple(ops, _share=3):
            with pytest.raises(ZeroDivisionError, match="lane"):
                ops.run_parts([lambda: "here", bad, slow], "gemm")
            assert finished.is_set()
            # the caller's own error wins, still after the others finished
            finished.clear()
            with pytest.raises(KeyError):
                ops.run_parts([lambda: {}["x"], slow], "gemm")
            assert finished.is_set()
            assert ops.run_parts([lambda: 1, lambda: 2, lambda: 3], "gemm") == [1, 2, 3]

    def test_a_part_that_splits_again_runs_its_parts_in_place(self):
        """Nested calls cannot wait on a pool whose threads they hold."""
        where = []

        def inner():
            return ops.run_parts([lambda: where.append(threading.get_ident()) or 1, lambda: 2], "gemm")

        with mock.patch.multiple(ops, _share=2):
            assert ops.run_parts([inner, inner], "gemm") == [[1, 2], [1, 2]]
        assert len(set(where)) == 2 and threading.get_ident() in where

    def test_no_pool_thread_holds_a_jobs_operands(self):
        operand = np.ones(1 << 16)
        ref = weakref.ref(operand)

        class Job:
            def __init__(self, a):
                self.a = a

            def __call__(self):
                return float(self.a.sum())

        with mock.patch.multiple(ops, _share=2):
            assert ops.run_parts([lambda: 0.0, Job(operand)], "gemm") == [0.0, float(1 << 16)]
        del operand
        assert ref() is None
