"""MLP velocity field with from-scratch backpropagation and AdamW training.

The network maps (state, time) -> velocity.  The 2D state is concatenated with
a 16-dimensional sinusoidal time encoding, giving layer sizes
18 -> 128 -> 256 -> 256 -> 128 -> 2 with SiLU activations on hidden layers and
an identity output layer.

Training minimizes the conditional bridge regression loss: sample t, a data
point z, and noise eps ~ N(0, I); build x_t = t z + (1 - t) eps and regress
the network output at (x_t, t) onto the bridge velocity z - eps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

HIDDEN_DIMS = (128, 256, 256, 128)
TIME_ENC_DIM = 16
STATE_DIM = 2
LAYER_DIMS = (STATE_DIM + TIME_ENC_DIM, *HIDDEN_DIMS, STATE_DIM)

#: angular frequencies of the time encoding: 2^j * pi for j = 0..7
_OMEGAS = np.pi * 2.0 ** np.arange(TIME_ENC_DIM // 2)

#: training samples t from [0, 1 - T_EPS] so the (z - x_t)/(1 - t) form stays finite
T_EPS = 1e-6


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, iteration: int):
        super().__init__(f"training loss became non-finite at iteration {iteration}")
        self.iteration = iteration


def time_encoding(t):
    """Interleaved [sin(w_j t), cos(w_j t)] features, w_j = 2^j pi, j = 0..7.

    Accepts a scalar or a 1-D array; returns shape (16,) or (len(t), 16).
    """
    t_arr = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("t must be finite")
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise ValueError("t must lie in [0, 1]")
    phase = t_arr[..., None] * _OMEGAS
    enc = np.empty(phase.shape[:-1] + (TIME_ENC_DIM,))
    enc[..., 0::2] = np.sin(phase)
    enc[..., 1::2] = np.cos(phase)
    return enc


@dataclass
class MlpParams:
    """Weight matrices (fan_in, fan_out) and bias vectors for the fixed layout."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        shapes = [(w.shape, b.shape) for w, b in zip(self.weights, self.biases)]
        expected = [((LAYER_DIMS[i], LAYER_DIMS[i + 1]), (LAYER_DIMS[i + 1],))
                    for i in range(len(LAYER_DIMS) - 1)]
        if shapes != expected:
            raise ValueError(f"layer shapes {shapes} do not match {expected}")
        for w, b in zip(self.weights, self.biases):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("parameters must be finite")

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def zeros_like(self) -> "MlpParams":
        return MlpParams([np.zeros_like(w) for w in self.weights],
                         [np.zeros_like(b) for b in self.biases])


def init_params(seed: int | np.random.SeedSequence) -> MlpParams:
    """Per-layer uniform init on [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, fan_out))
    return MlpParams(weights, biases)


def zero_params() -> MlpParams:
    return MlpParams(
        [np.zeros((i, o)) for i, o in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:])],
        [np.zeros(o) for o in LAYER_DIMS[1:]],
    )


def _silu(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s, s


def _forward_cached(params: MlpParams, inputs: np.ndarray):
    """Forward pass on pre-built inputs (B, 18); returns output and layer caches."""
    h = inputs
    cache = []
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre = h @ w + b
        if i < last:
            act, sig = _silu(pre)
        else:
            act, sig = pre, None
        cache.append((h, pre, sig))
        h = act
    return h, cache


def _backward(params: MlpParams, cache, d_out: np.ndarray) -> MlpParams:
    """Reverse-mode accumulation of d(loss)/d(params) given d(loss)/d(output)."""
    grads = params.zeros_like()
    delta = d_out
    last = len(params.weights) - 1
    for i in range(last, -1, -1):
        h, pre, sig = cache[i]
        if i < last:
            # d silu(x)/dx = sigmoid(x) * (1 + x * (1 - sigmoid(x)))
            delta = delta * (sig * (1.0 + pre * (1.0 - sig)))
        grads.weights[i] = h.T @ delta
        grads.biases[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ params.weights[i].T
    return grads


def _build_inputs(states: np.ndarray, ts: np.ndarray) -> np.ndarray:
    return np.concatenate([states, time_encoding(ts)], axis=1)


def forward(params: MlpParams, z, t) -> np.ndarray:
    """Evaluate the velocity at state(s) ``z`` and time(s) ``t``.

    ``z`` may be (2,) or (B, 2); ``t`` a scalar or (B,).  Pure and deterministic.
    """
    z_arr = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z_arr)):
        raise ValueError("state must be finite")
    single = z_arr.ndim == 1
    states = z_arr[None, :] if single else z_arr
    ts = np.broadcast_to(np.asarray(t, dtype=np.float64), (len(states),))
    out, _ = _forward_cached(params, _build_inputs(states, ts))
    return out[0] if single else out


@dataclass(frozen=True)
class NeuralVelocityField:
    """Velocity-field view of trained parameters: field(x, t) -> velocity."""

    params: MlpParams

    def __call__(self, x, t):
        return forward(self.params, x, t)


def cfm_loss_grad(params: MlpParams, points: np.ndarray, batch: int,
                  rng: np.random.Generator) -> tuple[float, MlpParams]:
    """One stochastic estimate of the bridge regression loss and its gradients.

    Draw order per call: batch indices, then t, then noise.  The loss is the
    batch mean of ||v(x_t, t) - (z - eps)||^2.
    """
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        raise ValueError("dataset must be non-empty")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    idx = rng.integers(0, len(points), batch)
    t = rng.random(batch) * (1.0 - T_EPS)
    eps = rng.standard_normal((batch, STATE_DIM))
    z = points[idx]
    x_t = t[:, None] * z + (1.0 - t[:, None]) * eps
    target = z - eps

    out, cache = _forward_cached(params, _build_inputs(x_t, t))
    resid = out - target
    loss = float((resid ** 2).sum(axis=1).mean())
    grads = _backward(params, cache, 2.0 * resid / batch)
    return loss, grads


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    weight_decay: float = 1e-4
    batch_size: int = 256
    iterations: int = 50_000
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ValueError("learning rate and weight decay must be >= 0")
        if self.batch_size < 1 or self.iterations < 0:
            raise ValueError("batch size and iterations must be positive")


@dataclass
class AdamWState:
    """First/second moment accumulators with decoupled weight decay.

    The decay step is ``p -= weight_decay * p`` independent of the learning
    rate, so a zero learning rate leaves parameters changed only by decay.
    """

    m: MlpParams
    v: MlpParams
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: MlpParams) -> "AdamWState":
        return cls(m=params.zeros_like(), v=params.zeros_like())

    def update(self, params: MlpParams, grads: MlpParams, lr: float, wd: float) -> None:
        self.step += 1
        bc1 = 1.0 - self.beta1 ** self.step
        bc2 = 1.0 - self.beta2 ** self.step
        for group in ("weights", "biases"):
            ps = getattr(params, group)
            gs = getattr(grads, group)
            ms = getattr(self.m, group)
            vs = getattr(self.v, group)
            for p, g, m, v in zip(ps, gs, ms, vs):
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * g * g
                p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                p -= wd * p


@dataclass
class TrainResult:
    params: MlpParams
    losses: np.ndarray  # per-iteration loss curve


def save_checkpoint(params: MlpParams, path) -> None:
    """Write a JSON container: one entry per tensor with name, shape, and
    row-major float64 payload (lossless shortest round-trip decimals)."""
    entries = []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        entries.append({"name": f"w{i}", "shape": list(w.shape), "data": w.ravel().tolist()})
        entries.append({"name": f"b{i}", "shape": list(b.shape), "data": b.ravel().tolist()})
    # one json.dumps runs the C encoder; json.dump streams through the
    # pure-Python one and writes the same bytes about 1.7x slower
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": "kinflow-mlp", "layer_dims": list(LAYER_DIMS),
                             "tensors": entries}))


def load_checkpoint(path) -> MlpParams:
    with open(path) as fh:
        blob = json.load(fh)
    if blob.get("format") != "kinflow-mlp":
        raise ValueError(f"{path} is not a kinflow MLP checkpoint")
    tensors = {e["name"]: np.array(e["data"], dtype=np.float64).reshape(e["shape"])
               for e in blob["tensors"]}
    n_layers = len(LAYER_DIMS) - 1
    return MlpParams([tensors[f"w{i}"] for i in range(n_layers)],
                     [tensors[f"b{i}"] for i in range(n_layers)])


def train(points: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Run ``cfg.iterations`` AdamW steps; deterministic given ``cfg.seed``."""
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        raise ValueError("dataset must be non-empty")
    init_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    params = init_params(init_ss)
    rng = np.random.default_rng(batch_ss)
    opt = AdamWState.for_params(params)
    losses = np.empty(cfg.iterations)
    for i in range(cfg.iterations):
        loss, grads = cfm_loss_grad(params, points, cfg.batch_size, rng)
        if not np.isfinite(loss):
            raise TrainingDiverged(i)
        losses[i] = loss
        opt.update(params, grads, cfg.learning_rate, cfg.weight_decay)
    return TrainResult(params, losses)
