"""Tests for the MLP velocity field, its gradients, and AdamW training."""

import json

import numpy as np
import pytest

from kinflow import net
from kinflow.net import (LAYER_DIMS, TrainConfig, TrainingDiverged,
                         cfm_loss_grad, forward, init_params, load_checkpoint,
                         save_checkpoint, time_encoding, train, zero_params)


class TestTimeEncoding:
    def test_t_zero(self):
        enc = time_encoding(0.0)
        assert enc.shape == (16,)
        assert np.array_equal(enc[0::2], np.zeros(8))
        assert np.array_equal(enc[1::2], np.ones(8))

    def test_t_one_lowest_frequency(self):
        enc = time_encoding(1.0)
        assert abs(enc[0]) < 1e-15      # sin(pi)
        assert enc[1] == pytest.approx(-1.0)  # cos(pi)

    def test_t_half_second_frequency(self):
        enc = time_encoding(0.5)
        # j=1 has angular frequency 2*pi, so the phase is pi
        assert abs(enc[2]) < 1e-15
        assert enc[3] == pytest.approx(-1.0)

    def test_batched_matches_scalar(self):
        ts = np.array([0.0, 0.25, 0.9])
        batch = time_encoding(ts)
        for i, t in enumerate(ts):
            assert np.array_equal(batch[i], time_encoding(float(t)))

    def test_domain(self):
        for bad in (-0.1, 1.1, np.nan):
            with pytest.raises(ValueError):
                time_encoding(bad)


class TestForward:
    def test_zero_params_zero_output(self):
        out = forward(zero_params(), np.array([1.3, -2.0]), 0.7)
        assert np.array_equal(out, np.zeros(2))

    def test_pure(self):
        p = init_params(3)
        z = np.array([0.3, -1.2])
        assert np.array_equal(forward(p, z, 0.4), forward(p, z, 0.4))

    def test_matches_independent_reimplementation(self):
        # plain-loop duplicate of the forward pass, checked on 10 random draws
        def reference(p, z, t):
            enc = [np.sin((2.0 ** j) * np.pi * t) if k == 0 else
                   np.cos((2.0 ** j) * np.pi * t)
                   for j in range(8) for k in (0, 1)]
            h = np.concatenate([z, enc])
            for i, (w, b) in enumerate(zip(p.weights, p.biases)):
                h = h @ w + b
                if i < len(p.weights) - 1:
                    h = h * (1.0 / (1.0 + np.exp(-h)))
            return h

        rng = np.random.default_rng(17)
        worst = 0.0
        for draw in range(10):
            p = init_params(100 + draw)
            z = rng.standard_normal(2)
            t = rng.random()
            diff = np.abs(forward(p, z, t) - reference(p, z, t)).max()
            worst = max(worst, diff)
        assert worst < 1e-12

    def test_rejects_nonfinite(self):
        p = init_params(0)
        with pytest.raises(ValueError):
            forward(p, np.array([np.nan, 0.0]), 0.5)

    def test_batched_matches_single(self):
        p = init_params(5)
        zs = np.random.default_rng(1).standard_normal((4, 2))
        ts = np.array([0.1, 0.4, 0.6, 0.9])
        batch = forward(p, zs, ts)
        for i in range(4):
            assert np.allclose(batch[i], forward(p, zs[i], float(ts[i])), atol=0)


class TestLossAndGradients:
    def test_zero_network_loss_is_mean_target_norm(self):
        # with v == 0 the loss estimates E||z - eps||^2 = E||z||^2 + 2
        points = np.random.default_rng(2).standard_normal((50, 2)) * 1.5
        expected = (points ** 2).sum(axis=1).mean() + 2.0
        loss, _ = cfm_loss_grad(zero_params(), points, 20000,
                                np.random.default_rng(3))
        assert loss == pytest.approx(expected, rel=0.05)

    def test_gradients_match_finite_differences(self):
        # spot-check 40 entries per tensor against central differences
        points = np.random.default_rng(4).standard_normal((10, 2))
        params = init_params(11)
        rng = np.random.default_rng(5)
        idx = rng.integers(0, len(points), 8)
        t = rng.random(8) * (1 - 1e-6)
        eps = rng.standard_normal((8, 2))
        z = points[idx]
        x_t = t[:, None] * z + (1 - t[:, None]) * eps
        target = z - eps

        def loss_of(p):
            out = net.forward(p, x_t, t)
            return float(((out - target) ** 2).sum(axis=1).mean())

        _, grads = _loss_grad_fixed(params, x_t, t, target)
        check_rng = np.random.default_rng(6)
        h = 1e-5
        for g_tensor, tensors in ((grads.weights, params.weights),
                                  (grads.biases, params.biases)):
            for g, p in zip(g_tensor, tensors):
                flat_g = g.ravel()
                flat_p = p.ravel()
                for k in check_rng.choice(flat_p.size, size=min(40, flat_p.size),
                                          replace=False):
                    orig = flat_p[k]
                    flat_p[k] = orig + h
                    up = loss_of(params)
                    flat_p[k] = orig - h
                    dn = loss_of(params)
                    flat_p[k] = orig
                    fd = (up - dn) / (2 * h)
                    denom = max(abs(fd), abs(flat_g[k]), 1e-6)
                    assert abs(fd - flat_g[k]) / denom < 1e-4

    def test_target_forms_agree(self):
        # z - eps equals (z - x_t) / (1 - t) for t bounded away from 1
        rng = np.random.default_rng(7)
        params = init_params(8)
        z = rng.standard_normal((200, 2))
        t = np.concatenate([rng.random(198) * (1 - 1e-6), [0.0, 1.0 - 1e-6]])
        eps = rng.standard_normal((200, 2))
        x_t = t[:, None] * z + (1 - t[:, None]) * eps
        v = net.forward(params, x_t, t)
        loss_a = ((v - (z - eps)) ** 2).sum(axis=1)
        loss_b = ((v - (z - x_t) / (1 - t[:, None])) ** 2).sum(axis=1)
        assert np.all(np.abs(loss_a - loss_b) <= 1e-10 * (1.0 + loss_a))

    def test_duplicated_data_same_expected_loss(self):
        points = np.random.default_rng(9).standard_normal((30, 2))
        doubled = np.concatenate([points, points])
        params = init_params(10)
        loss_a, _ = cfm_loss_grad(params, points, 60000, np.random.default_rng(1))
        loss_b, _ = cfm_loss_grad(params, doubled, 60000, np.random.default_rng(2))
        assert loss_a == pytest.approx(loss_b, rel=0.05)

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            cfm_loss_grad(init_params(0), np.zeros((0, 2)), 8,
                          np.random.default_rng(0))


def _loss_grad_fixed(params, x_t, t, target):
    """Loss/grads on a frozen batch (no RNG), for finite-difference checks."""
    out, cache = net._forward_cached(params, net._build_inputs(x_t, t))
    resid = out - target
    loss = float((resid ** 2).sum(axis=1).mean())
    grads = net._backward(params, cache, 2.0 * resid / len(x_t))
    return loss, grads


class TestTraining:
    def test_deterministic(self):
        points = np.random.default_rng(12).standard_normal((40, 2))
        cfg = TrainConfig(iterations=30, batch_size=16, seed=42)
        a = train(points, cfg)
        b = train(points, cfg)
        for w1, w2 in zip(a.params.weights, b.params.weights):
            assert np.array_equal(w1, w2)
        assert np.array_equal(a.losses, b.losses)

    def test_zero_lr_zero_wd_is_identity(self):
        points = np.random.default_rng(13).standard_normal((20, 2))
        cfg = TrainConfig(learning_rate=0.0, weight_decay=0.0, iterations=5,
                          batch_size=8, seed=3)
        init_ss, _ = np.random.SeedSequence(3).spawn(2)
        reference = init_params(init_ss)
        result = train(points, cfg)
        for w1, w2 in zip(result.params.weights, reference.weights):
            assert np.array_equal(w1, w2)

    def test_zero_lr_applies_only_decay(self):
        points = np.random.default_rng(14).standard_normal((20, 2))
        wd = 1e-2
        cfg = TrainConfig(learning_rate=0.0, weight_decay=wd, iterations=3,
                          batch_size=8, seed=3)
        init_ss, _ = np.random.SeedSequence(3).spawn(2)
        reference = init_params(init_ss)
        result = train(points, cfg)
        shrink = (1.0 - wd) ** 3
        for w1, w2 in zip(result.params.weights, reference.weights):
            assert np.allclose(w1, w2 * shrink, rtol=1e-12, atol=0)

    def test_loss_converges_toward_floor(self):
        # The regression target has irreducible conditional variance, so the
        # loss cannot drop below the closed-form field's residual.  Assert the
        # excess above that floor at least halves; measured excess ratio on
        # this frozen config is ~0.15.
        points = _toy_two_blob(300)
        cfg = TrainConfig(iterations=1500, batch_size=128, seed=1)
        result = train(points, cfg)
        floor = _cfm_floor(points)
        initial = result.losses[:50].mean()
        final = result.losses[-200:].mean()
        assert final - floor < 0.5 * (initial - floor)

    def test_divergence_raises_with_iteration(self):
        # a step size past float range overflows the activations immediately
        points = np.random.default_rng(15).standard_normal((20, 2))
        cfg = TrainConfig(learning_rate=1e160, iterations=500, batch_size=8, seed=3)
        with pytest.raises(TrainingDiverged) as err, pytest.warns(RuntimeWarning):
            train(points, cfg)
        assert err.value.iteration == 1

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


def _toy_two_blob(n):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n // 2, 2)) * 0.2 + np.array([1.5, 0.0])
    b = rng.standard_normal((n - n // 2, 2)) * 0.2 - np.array([1.5, 0.0])
    return np.concatenate([a, b])


def _cfm_floor(points, draws=20000, seed=123):
    """Monte-Carlo residual of the closed-form optimal field (loss floor)."""
    from kinflow.efm import EfmField

    field = EfmField(points)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(points), draws)
    t = rng.random(draws) * (1 - 1e-6)
    eps = rng.standard_normal((draws, 2))
    z = points[idx]
    x_t = t[:, None] * z + (1 - t[:, None]) * eps
    target = z - eps
    err = 0.0
    for i in range(draws):
        u = field(x_t[i], float(t[i]))
        err += float(((target[i] - u) ** 2).sum())
    return err / draws


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(77)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        for w1, w2 in zip(params.weights, back.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(params.biases, back.biases):
            assert np.array_equal(b1, b2)

    def test_bytes_equal_streamed_json(self, tmp_path):
        params = init_params(5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        tensors = []
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            tensors += [{"name": f"w{i}", "shape": list(w.shape), "data": w.ravel().tolist()},
                        {"name": f"b{i}", "shape": list(b.shape), "data": b.ravel().tolist()}]
        streamed = tmp_path / "streamed.ckpt"
        with open(streamed, "w") as fh:
            json.dump({"format": "kinflow-mlp", "layer_dims": list(LAYER_DIMS),
                       "tensors": tensors}, fh)
        assert path.read_bytes() == streamed.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_layer_shape_validation(self):
        with pytest.raises(ValueError):
            net.MlpParams([np.zeros((3, 3))], [np.zeros(3)])


def test_layer_dims_contract():
    assert LAYER_DIMS == (18, 128, 256, 256, 128, 2)
