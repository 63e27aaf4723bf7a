"""The memory-bound passes split over the pool are bitwise their serial form.

``repro.sparse.ops.run_rows`` cuts a whole-cube pass — a collective's
reduction (``stacked_all_reduce_data`` / ``stacked_reduce_scatter_data``,
in process and over a byte mover's chunk list), the SpMM output's
zero-fill, the ReLU, its mask and the chain-rule product — into shard-row
ranges run side by side.  Every output element is the same ufunc on the
same operands in the same order, so split == serial bit for bit: ±0, ±inf
and subnormals included.  A NaN keeps its position; where two NaNs meet
in one sum, which one's sign survives depends on numpy's loop (x86 keeps
the first operand's, and a vector loop and its scalar tail may order
them differently), unsplit as split, so NaN bits are not compared.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import batch
from repro.core.batch import stack_mul
from repro.dist import comm
from repro.dist.comm import stacked_all_reduce_data, stacked_reduce_scatter_data
from repro.nn import functional
from repro.nn.functional import relu, relu_grad
from repro.sparse import ops

#: the values every operand mixes in: signed zeros, infinities, NaN and
#: subnormals of both widths
SPECIAL = {
    np.float32: [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-40, 1.0, -3.5],
    np.float64: [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 1.0, -3.5],
}


@contextmanager
def _serial():
    with mock.patch.multiple(ops, _share=1):
        yield


@contextmanager
def _pass_split(share: int):
    """Every memory-bound pass split over ``share`` parts, however small;
    ``ops._parts`` starts at zero."""
    with mock.patch.multiple(ops, _share=share, _PASS_MIN=0, _parts=dict.fromkeys(ops._parts, 0)):
        yield


def _operand(rng, shape, dtype, finite: bool = False) -> np.ndarray:
    """Values over six decades, 30 % of them from :data:`SPECIAL` (only
    its signed zeros and subnormals when ``finite``: an infinity or a NaN
    would swallow every sum of a long reduction)."""
    x = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)).astype(dtype)
    special = rng.random(shape) < 0.3
    values = np.array(SPECIAL[dtype], dtype=dtype)
    if finite:
        values = values[np.isfinite(values)]
    x[special] = rng.choice(values, int(special.sum()))
    return x


def _same(got: np.ndarray, want: np.ndarray) -> None:
    """Equal shapes and dtypes, NaN in the same places, every other
    element bit for bit (the sign of a zero included)."""
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _nan_free(x: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(x), x.dtype.type(0.5), x)


@st.composite
def _reductions(draw):
    share = draw(st.sampled_from([2, 3]))
    axis = draw(st.integers(0, 2))
    lead = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    lead[axis] = draw(st.integers(2, 16))
    return dict(
        share=share,
        axis=axis,
        lead=lead,
        # rows below the share, at it and one above; then any
        rows=draw(st.sampled_from([share - 1, share, share + 1, 7])),
        cols=draw(st.sampled_from([1, 2, 5])),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        op=draw(st.sampled_from(["sum", "max"])),
        # the operand replicated along the reduced axis (broadcast copy)
        replicated=draw(st.booleans()),
        finite=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


class TestSplitReductions:
    @settings(max_examples=150, deadline=None)
    @given(case=_reductions())
    # one-element ranges would sum these 16 members pairwise
    @example(case=dict(share=3, axis=0, lead=[16, 1, 1], rows=4, cols=1, dtype=np.float32,
                       op="sum", replicated=False, finite=True, seed=1))
    def test_a_split_reduction_is_the_serial_one(self, case):
        rng = np.random.default_rng(case["seed"])
        lead, axis, rows, cols = case["lead"], case["axis"], case["rows"], case["cols"]
        held = list(lead)
        if case["replicated"]:
            held[axis] = 1
        cube = _operand(rng, (*held, rows, cols), case["dtype"], case["finite"])
        with _serial():
            want = stacked_all_reduce_data(tuple(lead), axis, cube, case["op"])
        with _pass_split(case["share"]):
            got = stacked_all_reduce_data(tuple(lead), axis, cube, case["op"])
            # ranges of at least two elements: one-column rows split in pairs
            parts = min(case["share"], rows, rows * cols // 2)
            assert ops._parts["pass"] == (parts if parts > 1 else 0)
        _same(got, want)
        if not np.isnan(cube).any():
            assert got.tobytes() == want.tobytes()
        # the reduce-scatter needs rows that divide over the group
        g = lead[axis]
        cube = np.concatenate([cube] * g, axis=3)
        with _serial():
            want = stacked_reduce_scatter_data(tuple(lead), axis, cube, case["op"])
        with _pass_split(case["share"]):
            got = stacked_reduce_scatter_data(tuple(lead), axis, cube, case["op"])
        _same(np.ascontiguousarray(got), np.ascontiguousarray(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("planes", [(1, 2, 1), (2, 2), (3,)], ids=["1-2-1", "2-2", "3"])
    def test_a_byte_movers_chunk_list_reduces_like_its_serial_form(self, dtype, planes):
        """Full-Z operands as one ``(planes, x, y, m, n)`` chunk per worker
        (read-only, as a mover delivers them): the ranges reduce every
        chunk's planes in z order."""
        rng = np.random.default_rng(7)
        cube_shape = (sum(planes), 2, 1)
        chunks = []
        for p in planes:
            chunk = _nan_free(_operand(rng, (p, 2, 1, 12, 3), dtype))
            chunk.flags.writeable = False
            chunks.append(chunk)
        for fn in (stacked_all_reduce_data, stacked_reduce_scatter_data):
            with _serial():
                want = fn(cube_shape, 0, chunks)
            for share in (2, 3):
                with _pass_split(share):
                    got = fn(cube_shape, 0, chunks)
                    assert ops._parts["pass"] == share
                assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
        # and the one-chunk (in-process) form of the same operand
        with _pass_split(2):
            whole = stacked_all_reduce_data(cube_shape, 0, np.concatenate(chunks))
        assert whole.tobytes() == stacked_all_reduce_data(cube_shape, 0, chunks).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_element_planes_stay_unsplit(self, dtype):
        """Chunks of one-element planes are one contiguous 1-D reduction,
        which numpy sums pairwise: it runs whole, in place, never split."""
        rng = np.random.default_rng(3)
        chunks = [_nan_free(_operand(rng, (p, 1, 1, 1, 1), dtype)) for p in (5, 6, 9)]
        with _serial():
            want = stacked_all_reduce_data((20, 1, 1), 0, chunks)
        with _pass_split(3):
            got = stacked_all_reduce_data((20, 1, 1), 0, chunks)
            assert ops._parts["pass"] == 0
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == np.add.reduce(np.concatenate(chunks), axis=0, keepdims=True).tobytes()


class TestSplitElementwise:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 9])
    def test_activations_and_the_chain_rule_product(self, dtype, rows):
        rng = np.random.default_rng(rows)
        q = _operand(rng, (2, 1, 2, rows, 3), dtype)
        df = _operand(rng, (2, 2, 2, rows, 3), dtype)  # the mask broadcasts along x
        with _serial():
            want = relu(q), relu_grad(q), stack_mul(df, relu_grad(q)).cube
        for share in (2, 3):
            with _pass_split(share):
                got = relu(q), relu_grad(q), stack_mul(df, relu_grad(q)).cube
                assert ops._parts["pass"] == (min(share, rows) if rows > 1 else 0)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("share", [2, 3])
    def test_the_spmm_output_is_zeroed_before_its_kernel_ranges(self, share):
        """Replica shifts overlap the output rows of the kernel ranges (a
        replica's last two rows are empty: the next one's first two), and
        some rows no replica writes: the zero-fill is its own phase."""
        rng = np.random.default_rng(share)
        dense = rng.random((5, 4)) * (rng.random((5, 4)) < 0.5)
        dense[3:] = 0.0
        block = ops.to_csr(dense)
        csr = ops.ReplicatedCsr(block.indptr, block.indices, block.data, 4, (13, 12), 3, 3, 4)
        x = rng.standard_normal((12, 2))
        with _serial():
            want = csr @ x
        with _pass_split(share), mock.patch.object(ops, "_PAR_MIN", 0):
            got = csr @ x
            assert ops._parts["pass"] == share
        assert got.tobytes() == want.tobytes()


def _record_threads(name: str, module, seen: list):
    """Wrap ``module.name`` wherever ``repro`` bound it, recording the
    thread of every call."""
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        seen.append(threading.get_ident())
        return original(*args, **kwargs)

    patches = [
        mock.patch.object(mod, attr, recorded)
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and mod_name.startswith("repro")
        for attr, value in list(vars(mod).items())
        if value is original
    ]
    return patches


def test_no_pool_part_runs_a_probed_seam():
    """The passes split inside the seams a benchmark's probes wrap: every
    call of ``relu``, ``relu_grad`` and the stacked reductions stays on the
    calling thread, while the passes below them ran on the pool."""
    from test_differential import Case, _spec

    seen: list = []
    patches = [
        *_record_threads("relu", functional, seen),
        *_record_threads("relu_grad", functional, seen),
        *_record_threads("stacked_all_reduce_data", comm, seen),
        *_record_threads("stacked_reduce_scatter_data", comm, seen),
    ]
    spec = _spec(Case(n=72, dims=(24, 24, 16, 8), workers=0))
    for p in patches:
        p.start()
    batch._matmul_plan.cache_clear()
    try:
        with _pass_split(2), mock.patch.object(ops, "_PAR_MIN", 0), mock.patch.object(
            batch, "_GEMM_PAR_MIN", 0
        ):
            from repro.runtime import build_trainer

            build_trainer(spec, backend="inproc").train(2)
            assert ops._parts["pass"] == 2
    finally:
        batch._matmul_plan.cache_clear()
        for p in patches:
            p.stop()
    assert seen and set(seen) == {threading.get_ident()}
