"""Tests for the MLP velocity field, its gradients, and AdamW training."""

import json
import shutil
import tracemalloc
import warnings

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

    def test_silu_exact_limits_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            act, sig = net._silu(np.array([-1000.0, 1000.0]), np.empty(2), np.empty(2))
        assert np.array_equal(sig, [0.0, 1.0])
        assert np.array_equal(act, [0.0, 1000.0])

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


class TestNeuralField:
    def test_returned_velocity_survives_the_next_call(self):
        field = net.NeuralVelocityField(init_params(3))
        rng = np.random.default_rng(2)
        for rows in ((8, 2), (2,)):
            v = field(rng.standard_normal(rows), 0.3)
            kept = v.copy()
            field(rng.standard_normal(rows), 0.7)
            assert np.array_equal(v, kept)

    def test_calls_reuse_the_fields_workspace(self):
        params = init_params(3)
        field = net.NeuralVelocityField(params)
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((3, 8, 2))
        got = [field(x, t) for x, t in zip(xs, (0.0, 0.37, 0.99))]
        inputs = field._workspace.inputs
        field(xs[0], 0.5)
        assert field._workspace.inputs is inputs
        for x, t, v in zip(xs, (0.0, 0.37, 0.99), got):
            assert np.array_equal(v, forward(params, x, t))


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
    inputs = net._build_inputs(x_t, t)
    cache = net._layer_buffers(len(x_t))
    resid = net._forward(params, inputs, cache) - target
    loss = float((resid ** 2).sum(axis=1).mean())
    grads = zero_params()
    net._backward(params, inputs, cache, 2.0 * resid / len(x_t), grads)
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
        # a step size past float range overflows the first step's float32
        # copy of the parameters
        points = np.random.default_rng(15).standard_normal((20, 2))
        cfg = TrainConfig(learning_rate=1e160, iterations=500, batch_size=8, seed=3)
        with pytest.raises(TrainingDiverged) as err, pytest.warns(RuntimeWarning) as seen:
            train(points, cfg)
        assert err.value.iteration == 1
        assert any("overflow encountered in cast" in str(w.message) for w in seen)

    def test_invalid_config(self):
        # each message names the field and the value that failed
        for name, bad, least in (("learning_rate", -1.0, 0),
                                 ("learning_rate", float("nan"), 0),
                                 ("learning_rate", float("inf"), 0),
                                 ("weight_decay", -0.5, 0),
                                 ("weight_decay", float("inf"), 0),
                                 ("batch_size", 0, 1), ("iterations", -1, 0)):
            with pytest.raises(ValueError) as err:
                TrainConfig(**{name: bad})
            assert str(err.value) == f"{name} must be finite and >= {least}, got {bad}"

    @pytest.mark.parametrize("name", ["batch_size", "iterations"])
    @pytest.mark.parametrize("bad", [2.5, 32.0, True])
    def test_counts_must_be_integers(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
            TrainConfig(**{name: bad})

    def test_zero_iterations_returns_the_initial_parameters(self):
        points = np.random.default_rng(16).standard_normal((20, 2))
        result = train(points, TrainConfig(iterations=0, seed=3))
        init_ss, _ = np.random.SeedSequence(3).spawn(2)
        assert result.losses.shape == (0,)
        for w1, w2 in zip(result.params.weights, init_params(init_ss).weights):
            assert np.array_equal(w1, w2)

    @pytest.mark.parametrize("batch", [1, 8, 256])
    def test_bitwise_equal_to_allocating_loop(self, batch):
        # batch 1 takes the matrix-vector BLAS path
        points = np.random.default_rng(17).standard_normal((40, 2))
        cfg = TrainConfig(iterations=30, batch_size=batch, weight_decay=1e-2, seed=5)
        result = train(points, cfg)
        ref_params, ref_losses = _allocating_train(points, cfg)
        assert result.losses.tobytes() == ref_losses.tobytes()
        for got, want in zip(result.params.weights + result.params.biases,
                             ref_params.weights + ref_params.biases):
            assert got.tobytes() == want.tobytes()

    def test_step_allocates_less_than_one_activation(self):
        # one batch-256 step writes into its workspace; a step that allocates
        # its temporaries peaks at about 7.8 MB.  float32 is the step that
        # train() takes; float64 runs the network on the master weights' dtype
        points = np.random.default_rng(18).standard_normal((500, 2))
        cfg = TrainConfig(batch_size=256)
        for dtype in (np.float32, np.float64):
            params = init_params(1)
            opt = net.AdamWState.for_params(params)
            copy, ws = net.zero_params(dtype), net._Workspace(256, dtype)
            rng = np.random.default_rng(0)

            def step():
                net._train_step(params, copy, opt, points, cfg, rng, ws)

            step()
            step()
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                step()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                if not tracing:
                    tracemalloc.stop()
            assert peak < np.empty((256, 128)).nbytes, dtype

    def test_one_off_loss_grad_allocates_only_what_it_writes(self):
        # a call without a workspace builds one, holding the forward cache,
        # the gradients and the batch: 5.96 MB at batch 256 on float64
        # parameters.  A workspace that also held a parameter copy and AdamW's
        # two float64 scratch buffers peaked at 8.09 MB
        points = np.random.default_rng(21).standard_normal((500, 2))
        params = init_params(1)
        cfm_loss_grad(params, points, 256, np.random.default_rng(0))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            cfm_loss_grad(params, points, 256, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 6.5e6


class TestPrecision:
    """Training computes each step in float32 over float64 master weights;
    everything it returns or writes is float64."""

    def test_float32_step_agrees_with_float64(self):
        # the same draws through cfm_loss_grad on the master weights and on
        # their float32 copy.  Measured on this draw: loss 1.5e-10 relative,
        # gradients 7.5e-7 of the tensor's largest entry; over 20 draws each at
        # init and after 300 and 3000 iterations the worst were 4e-8 and 4.4e-6
        points = np.random.default_rng(19).standard_normal((500, 2))
        masters = init_params(1)
        copy = net.MlpParams([w.astype(np.float32) for w in masters.weights],
                             [b.astype(np.float32) for b in masters.biases])
        loss64, grads64 = cfm_loss_grad(masters, points, 256, np.random.default_rng(7))
        loss32, grads32 = cfm_loss_grad(copy, points, 256, np.random.default_rng(7))
        assert isinstance(loss32, float)
        assert loss32 == pytest.approx(loss64, rel=1e-6, abs=0)
        for g32, g64 in zip(grads32.weights + grads32.biases,
                            grads64.weights + grads64.biases):
            assert g32.dtype == np.float32 and g64.dtype == np.float64
            assert np.abs(g32 - g64).max() <= 1e-4 * np.abs(g64).max()

    def test_train_returns_float64_parameters(self):
        points = np.random.default_rng(20).standard_normal((40, 2))
        result = train(points, TrainConfig(iterations=5, batch_size=16, seed=1))
        assert result.losses.dtype == np.float64
        for a in result.params.weights + result.params.biases:
            assert a.dtype == np.float64

    def test_trained_checkpoint_loads_through_its_copy(self, tmp_path, monkeypatch):
        # the copy holds float64 tensors only; a float32 one would send every
        # load back to the JSON parse
        points = np.random.default_rng(21).standard_normal((40, 2))
        params = train(points, TrainConfig(iterations=5, batch_size=16, seed=1)).params
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)

        def refuse(*args, **kwargs):
            raise AssertionError("the checkpoint JSON was parsed")

        monkeypatch.setattr(net.json, "loads", refuse)
        assert _tensor_bytes(load_checkpoint(path)) == _tensor_bytes(params)


def _allocating_train(points, cfg):
    """The trainer's formulas with a fresh array for every intermediate, in
    the same operation order and precision: float64 sampling, a float32
    forward and backward pass on a float32 copy of the float64 parameters,
    a float64 loss, and a float64 AdamW step."""
    init_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    params = init_params(init_ss)
    tensors = params.weights + params.biases
    m = [np.zeros_like(p) for p in tensors]
    v = [np.zeros_like(p) for p in tensors]
    rng = np.random.default_rng(batch_ss)
    n, last = cfg.batch_size, len(params.weights) - 1
    losses = []
    for step in range(1, cfg.iterations + 1):
        weights = [w.astype(np.float32) for w in params.weights]
        biases = [b.astype(np.float32) for b in params.biases]
        idx = rng.integers(0, len(points), n)
        t = rng.random(n) * (1.0 - net.T_EPS)
        eps = rng.standard_normal((n, 2))
        z = points[idx]
        x_t = t[:, None] * z + (1.0 - t[:, None]) * eps
        phase = t[:, None] * (np.pi * 2.0 ** np.arange(8))
        enc = np.empty((n, 16))
        enc[:, 0::2] = np.sin(phase)
        enc[:, 1::2] = np.cos(phase)
        h = np.concatenate([x_t, enc], axis=1).astype(np.float32)
        cache = []
        for i, (w, b) in enumerate(zip(weights, biases)):
            pre = h @ w + b
            sig = 1.0 / (1.0 + np.exp(-pre)) if i < last else None
            cache.append((h, pre, sig))
            h = pre * sig if i < last else pre
        resid = h - (z - eps)
        losses.append(float((resid ** 2).sum(axis=1).mean()))
        delta = (2.0 * resid / n).astype(np.float32)
        gw, gb = [None] * (last + 1), [None] * (last + 1)
        for i in range(last, -1, -1):
            h, pre, sig = cache[i]
            if i < last:
                delta = delta * (sig * (1.0 + pre * (1.0 - sig)))
            gw[i] = h.T @ delta
            gb[i] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ weights[i].T
        bc1 = 1.0 - 0.9 ** step
        bc2 = 1.0 - 0.999 ** step
        for p, g, mp, vp in zip(tensors, gw + gb, m, v):
            g = g.astype(np.float64)
            mp *= 0.9
            mp += (1.0 - 0.9) * g
            vp *= 0.999
            vp += (1.0 - 0.999) * g * g
            p -= cfg.learning_rate * (mp / bc1) / (np.sqrt(vp / bc2) + 1e-8)
            p -= cfg.weight_decay * p
    return params, np.array(losses)


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


def _tensor_bytes(params):
    return [(a.shape, a.dtype, a.tobytes()) for a in params.weights + params.biases]


def _refuse_unpickling():
    raise AssertionError("the checkpoint copy was unpickled")


class _PickleTripwire:
    def __reduce__(self):
        return _refuse_unpickling, ()


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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_both_read_paths_round_trip_bitwise(self, tmp_path, seed):
        params = init_params(seed)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        copy = tmp_path / "model.ckpt.npz"
        assert copy.exists()
        from_copy = load_checkpoint(path)
        copy.unlink()
        from_json = load_checkpoint(path)
        assert _tensor_bytes(from_copy) == _tensor_bytes(params)
        assert _tensor_bytes(from_json) == _tensor_bytes(params)

    def test_intact_copy_is_read_without_parsing_json(self, tmp_path, monkeypatch):
        params = init_params(4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)

        def refuse(*args, **kwargs):
            raise AssertionError("the checkpoint JSON was parsed")

        monkeypatch.setattr(net.json, "loads", refuse)
        assert _tensor_bytes(load_checkpoint(path)) == _tensor_bytes(params)

    def test_stale_copy_is_not_read(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(init_params(1), a)
        save_checkpoint(init_params(2), b)
        shutil.copy(b, a)               # B's JSON over A's pair
        copy = tmp_path / "a.ckpt.npz"
        stale = copy.read_bytes()
        assert _tensor_bytes(load_checkpoint(a)) == _tensor_bytes(init_params(2))
        # a read does not repair the copy
        assert copy.read_bytes() == stale

    @pytest.mark.parametrize("damage", ["truncated", "empty", "npy", "object_array"])
    def test_damaged_copy_gives_the_json_parameters(self, tmp_path, damage):
        params = init_params(6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        copy = tmp_path / "model.ckpt.npz"
        assert copy.exists()
        if damage == "truncated":
            blob = copy.read_bytes()
            copy.write_bytes(blob[:len(blob) // 2])
        elif damage == "empty":
            copy.write_bytes(b"")
        elif damage == "npy":
            with open(copy, "wb") as fh:
                np.save(fh, params.weights[0])
        else:
            # the right digest, but w0 is a pickled object that fails the
            # test if it is ever unpickled
            with np.load(copy) as npz:
                tensors = dict(npz)
            tensors["w0"] = np.array([_PickleTripwire()], dtype=object)
            with open(copy, "wb") as fh:
                np.savez(fh, **tensors)
        assert _tensor_bytes(load_checkpoint(path)) == _tensor_bytes(params)

    @pytest.mark.parametrize("failure", ["json", "copy"])
    def test_failed_save_leaves_the_previous_files(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "model.ckpt"
        old = init_params(1)
        save_checkpoint(old, path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["model.ckpt", "model.ckpt.npz"]
        if failure == "json":
            dumps, seen = json.dumps, []

            def failing_dumps(obj, *args, **kwargs):
                seen.append(obj)
                if len(seen) == 4:      # the container's head, then the third tensor
                    raise OSError("no space left on device")
                return dumps(obj, *args, **kwargs)

            monkeypatch.setattr(net.json, "dumps", failing_dumps)
        else:
            def failing_savez(fh, **tensors):
                fh.write(b"PK")
                raise OSError("no space left on device")

            monkeypatch.setattr(net.np, "savez", failing_savez)
        with pytest.raises(OSError):
            save_checkpoint(init_params(2), path)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert _tensor_bytes(load_checkpoint(path)) == _tensor_bytes(old)

    def test_missing_or_misshapen_tensor_is_named(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_text('{"format": "kinflow-mlp", "tensors": []}')
        with pytest.raises(ValueError, match="no tensor 'w0'"):
            load_checkpoint(path)
        save_checkpoint(init_params(1), path)
        (tmp_path / "model.ckpt.npz").unlink()
        blob = json.loads(path.read_text())
        blob["tensors"][3]["shape"] = [128, 2]
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=r"tensor 'b1' has shape \[128, 2\], "
                                             r"expected \[256\]"):
            load_checkpoint(path)

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
