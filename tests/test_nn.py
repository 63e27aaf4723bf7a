"""Tests for the NN substrate: activations, loss, optimizers, serial GCN.

The serial GCN is the correctness oracle for the whole project, so its
gradients are verified against finite differences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    SGD,
    Adam,
    SerialGCN,
    accuracy,
    glorot_uniform,
    log_softmax,
    masked_cross_entropy,
    masked_cross_entropy_grad,
    relu,
    relu_grad,
    softmax,
)


class TestFunctional:
    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_grad_reads_preactivation_or_activation(self):
        np.testing.assert_array_equal(relu_grad(np.array([-1.0, 0.5])), [0.0, 1.0])
        np.testing.assert_array_equal(relu_grad(relu(np.array([-1.0, 0.5]))), [0.0, 1.0])

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([np.float32, np.float64]))
    def test_relu_output_gives_the_preactivation_mask_bitwise(self, data, dtype):
        """A layer caches relu(Q) in place of Q: both give relu'(Q), bitwise,
        signed zeros, infinities, NaN and subnormals included."""
        tiny = np.finfo(dtype).smallest_subnormal
        specials = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3 * tiny])
        width = 32 if dtype is np.float32 else 64
        values = data.draw(st.lists(specials | st.floats(width=width), min_size=1, max_size=64))
        q = np.asarray(values, dtype=dtype)
        assert relu_grad(relu(q)).tobytes() == relu_grad(q).tobytes()

    def test_softmax_rows_sum_to_one(self, rng):
        s = softmax(rng.standard_normal((5, 7)), axis=1)
        np.testing.assert_allclose(s.sum(axis=1), np.ones(5))

    def test_softmax_stable_for_large_inputs(self):
        s = softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(s, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.standard_normal((4, 6))
        np.testing.assert_allclose(log_softmax(x), np.log(softmax(x)), atol=1e-12)


class TestLoss:
    def _setup(self, rng, n=12, c=5):
        logits = rng.standard_normal((n, c))
        labels = rng.integers(0, c, size=n)
        mask = rng.random(n) < 0.5
        mask[0] = True
        return logits, labels, mask

    def test_matches_manual_nll(self, rng):
        logits, labels, mask = self._setup(rng)
        lsm = log_softmax(logits, axis=1)
        manual = -lsm[mask, labels[mask]].mean()
        assert masked_cross_entropy(logits, labels, mask) == pytest.approx(manual)

    def test_grad_matches_finite_difference(self, rng):
        logits, labels, mask = self._setup(rng, n=6, c=4)
        grad = masked_cross_entropy_grad(logits, labels, mask)
        eps = 1e-6
        for i in range(6):
            for j in range(4):
                p = logits.copy()
                p[i, j] += eps
                m = logits.copy()
                m[i, j] -= eps
                fd = (masked_cross_entropy(p, labels, mask) - masked_cross_entropy(m, labels, mask)) / (2 * eps)
                assert grad[i, j] == pytest.approx(fd, abs=1e-6)

    def test_unmasked_rows_have_zero_grad(self, rng):
        logits, labels, mask = self._setup(rng)
        grad = masked_cross_entropy_grad(logits, labels, mask)
        assert np.all(grad[~mask] == 0)

    def test_empty_mask_raises(self, rng):
        logits, labels, _ = self._setup(rng)
        with pytest.raises(ValueError):
            masked_cross_entropy(logits, labels, np.zeros(12, dtype=bool))

    def test_non_boolean_mask_raises(self, rng):
        logits, labels, _ = self._setup(rng)
        with pytest.raises(ValueError):
            masked_cross_entropy(logits, labels, np.ones(12))

    def test_accuracy_perfect_and_zero(self):
        logits = np.array([[10.0, 0.0], [0.0, 10.0]])
        labels = np.array([0, 1])
        mask = np.ones(2, dtype=bool)
        assert accuracy(logits, labels, mask) == 1.0
        assert accuracy(logits, labels[::-1].copy(), mask) == 0.0


class TestInit:
    def test_glorot_limit(self):
        w = glorot_uniform(100, 100, seed=0)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= limit

    def test_glorot_deterministic(self):
        np.testing.assert_array_equal(glorot_uniform(10, 5, seed=3), glorot_uniform(10, 5, seed=3))

    def test_glorot_invalid(self):
        with pytest.raises(ValueError):
            glorot_uniform(0, 5)


class TestOptim:
    def test_sgd_step(self):
        p = {"w": np.array([1.0, 2.0])}
        SGD(p, lr=0.1).step({"w": np.array([1.0, 1.0])})
        np.testing.assert_allclose(p["w"], [0.9, 1.9])

    def test_adam_first_step_is_lr_sized(self):
        # with bias correction, |update| ~= lr on the first step
        p = {"w": np.array([0.0])}
        Adam(p, lr=0.01).step({"w": np.array([5.0])})
        assert p["w"][0] == pytest.approx(-0.01, rel=1e-3)

    def test_adam_matches_reference_impl(self, rng):
        w0 = rng.standard_normal(4)
        p = {"w": w0.copy()}
        opt = Adam(p, lr=0.05)
        grads = [rng.standard_normal(4) for _ in range(5)]
        # reference
        m = np.zeros(4)
        v = np.zeros(4)
        ref = w0.copy()
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            ref -= 0.05 * mh / (np.sqrt(vh) + 1e-8)
            opt.step({"w": g})
        np.testing.assert_allclose(p["w"], ref, atol=1e-12)

    def test_updates_in_place(self):
        arr = np.zeros(3)
        opt = Adam({"w": arr}, lr=0.1)
        opt.step({"w": np.ones(3)})
        assert arr[0] != 0.0  # the caller's array object was mutated

    def test_unknown_param_rejected(self):
        opt = SGD({"w": np.zeros(2)}, lr=0.1)
        with pytest.raises(KeyError):
            opt.step({"q": np.zeros(2)})

    def test_shape_mismatch_rejected(self):
        opt = SGD({"w": np.zeros(2)}, lr=0.1)
        with pytest.raises(ValueError):
            opt.step({"w": np.zeros(3)})

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD({"w": np.zeros(1)}, lr=0.0)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam({"w": np.zeros(1)}, betas=(1.0, 0.9))


class TestSerialGCN:
    def test_forward_shapes(self, tiny_products):
        ds = tiny_products
        m = SerialGCN([ds.n_features, 8, ds.n_classes], seed=0)
        out = m.forward(ds.norm_adjacency, ds.features)
        assert out.shape == (ds.n_nodes, ds.n_classes)

    def test_feature_dim_mismatch(self, tiny_products):
        ds = tiny_products
        m = SerialGCN([ds.n_features + 1, 8, ds.n_classes], seed=0)
        with pytest.raises(ValueError):
            m.forward(ds.norm_adjacency, ds.features)

    def test_backward_before_forward(self, tiny_products):
        m = SerialGCN([4, 2], seed=0)
        with pytest.raises(RuntimeError):
            m.backward(tiny_products.norm_adjacency, np.zeros((1, 2)))

    def test_weight_gradcheck(self, tiny_products):
        """Finite-difference check of every weight gradient."""
        ds = tiny_products
        n = 40
        a = ds.norm_adjacency[:n, :n]
        f = ds.features[:n, :6].copy()
        labels = ds.labels[:n] % 3
        mask = np.ones(n, dtype=bool)
        m = SerialGCN([6, 5, 3], seed=1)
        logits = m.forward(a, f)
        from repro.nn.loss import masked_cross_entropy_grad

        grads = m.backward(a, masked_cross_entropy_grad(logits, labels, mask))
        eps = 1e-6
        for name, w in [("W0", m.layers[0].weight), ("W1", m.layers[1].weight)]:
            idxs = [(0, 0), (w.shape[0] - 1, w.shape[1] - 1), (w.shape[0] // 2, w.shape[1] // 2)]
            for i, j in idxs:
                orig = w[i, j]
                w[i, j] = orig + eps
                lp = m.loss(m.forward(a, f), labels, mask)
                w[i, j] = orig - eps
                lm = m.loss(m.forward(a, f), labels, mask)
                w[i, j] = orig
                m.forward(a, f)  # restore cache
                fd = (lp - lm) / (2 * eps)
                assert grads[name][i, j] == pytest.approx(fd, abs=1e-6), f"{name}[{i},{j}]"

    def test_feature_gradcheck(self, tiny_products):
        """Finite-difference check of the input-feature gradient (Eq. 2.7)."""
        ds = tiny_products
        n = 30
        a = ds.norm_adjacency[:n, :n]
        f = ds.features[:n, :4].copy()
        labels = ds.labels[:n] % 3
        mask = np.ones(n, dtype=bool)
        m = SerialGCN([4, 3], seed=2, trainable_features=True)
        from repro.nn.loss import masked_cross_entropy_grad

        logits = m.forward(a, f)
        grads = m.backward(a, masked_cross_entropy_grad(logits, labels, mask))
        eps = 1e-6
        for i, j in [(0, 0), (10, 2), (29, 3)]:
            orig = f[i, j]
            f[i, j] = orig + eps
            lp = m.loss(m.forward(a, f), labels, mask)
            f[i, j] = orig - eps
            lm = m.loss(m.forward(a, f), labels, mask)
            f[i, j] = orig
            fd = (lp - lm) / (2 * eps)
            assert grads["F0"][i, j] == pytest.approx(fd, abs=1e-6)

    def test_training_reduces_loss(self, tiny_products):
        ds = tiny_products
        m = SerialGCN([ds.n_features, 16, ds.n_classes], seed=0)
        losses = m.fit(ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, epochs=15)
        assert losses[-1] < losses[0]

    def test_evaluate_beats_chance_after_training(self, tiny_products):
        ds = tiny_products
        m = SerialGCN([ds.n_features, 16, ds.n_classes], seed=0)
        m.fit(ds.norm_adjacency, ds.features, ds.labels, ds.train_mask, epochs=40, lr=5e-2)
        acc = m.evaluate(ds.norm_adjacency, ds.features, ds.labels, ds.train_mask)
        assert acc > 2.0 / ds.n_classes

    def test_needs_two_dims(self):
        with pytest.raises(ValueError):
            SerialGCN([8])
