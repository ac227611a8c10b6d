"""MLP velocity field with from-scratch backpropagation and AdamW training.

The network maps (state, time) -> velocity.  The 2D state is concatenated with
a 16-dimensional sinusoidal time encoding, giving layer sizes
18 -> 128 -> 256 -> 256 -> 128 -> 2 with SiLU activations on hidden layers and
an identity output layer.

Training minimizes the conditional bridge regression loss: sample t, a data
point z, and noise eps ~ N(0, I); build x_t = t z + (1 - t) eps and regress
the network output at (x_t, t) onto the bridge velocity z - eps.

Training runs in mixed precision.  The parameters and AdamW's moments are
float64 master weights, and every AdamW step is taken in float64.  Each
step's forward and backward pass runs in float32, on a float32 copy of the
parameters refreshed from the masters once per step: in float32 the BLAS
products and the elementwise passes take about half the time.  The batch
draws, the residual and the loss stay float64.  Keeping the masters in
float64 keeps small updates from rounding away and keeps a zero learning
rate an exact identity.  Everything else, ``forward``, ``cfm_loss_grad`` on
float64 parameters, and checkpoints, is float64.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import numbers
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .sampler import check_count

HIDDEN_DIMS = (128, 256, 256, 128)
TIME_ENC_DIM = 16
STATE_DIM = 2
LAYER_DIMS = (STATE_DIM + TIME_ENC_DIM, *HIDDEN_DIMS, STATE_DIM)

#: every tensor's checkpoint name and shape, in checkpoint order
_TENSOR_SHAPES = {name: shape for i, (fan_in, fan_out) in enumerate(zip(LAYER_DIMS[:-1],
                                                                       LAYER_DIMS[1:]))
                  for name, shape in ((f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,)))}

#: floats per ``json.dumps`` call when a checkpoint tensor is encoded
_JSON_SLICE = 2048

#: bytes per read when a checkpoint JSON is hashed
_HASH_BLOCK = 1 << 16

#: angular frequencies of the time encoding: 2^j * pi for j = 0..7
_OMEGAS = np.pi * 2.0 ** np.arange(TIME_ENC_DIM // 2)

#: training samples t from [0, 1 - T_EPS] so the (z - x_t)/(1 - t) form stays finite
T_EPS = 1e-6

#: AdamW's moment decay rates and the denominator's guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
    rows = t_arr.reshape(-1)
    enc = np.empty((len(rows), TIME_ENC_DIM))
    half = (len(rows), TIME_ENC_DIM // 2)
    _encode_time(rows, enc, np.empty(half), np.empty(half))
    return enc.reshape(t_arr.shape + (TIME_ENC_DIM,))


def _encode_time(t: np.ndarray, enc: np.ndarray, phase: np.ndarray, trig: np.ndarray) -> None:
    """Write the encoding of the (B,) times ``t`` into ``enc`` (B, 16), with
    (B, 8) scratch ``phase`` and ``trig``; ``t`` is not checked."""
    np.multiply(t[:, None], _OMEGAS, out=phase)
    enc[:, 0::2] = np.sin(phase, out=trig)
    enc[:, 1::2] = np.cos(phase, out=trig)


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


def zero_params(dtype=np.float64) -> MlpParams:
    return MlpParams(
        [np.zeros((i, o), dtype) for i, o in zip(LAYER_DIMS[:-1], LAYER_DIMS[1:])],
        [np.zeros(o, dtype) for o in LAYER_DIMS[1:]],
    )


def _silu(x: np.ndarray, sig: np.ndarray, act: np.ndarray):
    """SiLU of ``x`` into ``act`` and its sigmoid into ``sig``; returns (act, sig)."""
    # exp(-x) overflows to inf for x below about -709, where the sigmoid's
    # limit 1 / (1 + inf) = 0 is exact
    np.negative(x, out=sig)
    with np.errstate(over="ignore"):
        np.exp(sig, out=sig)
    np.add(1.0, sig, out=sig)
    np.divide(1.0, sig, out=sig)
    return np.multiply(x, sig, out=act), sig


def _layer_buffers(rows: int, dtype=np.float64):
    """The (rows, width) arrays of one forward pass that a backward pass
    reads: every layer's pre-activation, and each hidden layer's sigmoid
    and activation."""
    return ([np.empty((rows, w), dtype) for w in LAYER_DIMS[1:]],
            [np.empty((rows, w), dtype) for w in HIDDEN_DIMS],
            [np.empty((rows, w), dtype) for w in HIDDEN_DIMS])


def _inference_buffers(rows: int):
    """``_layer_buffers`` for a forward pass that no backward pass reads,
    in one array of three rows: each activation overwrites its
    pre-activation, the pre-activations alternate between the first two
    rows so that no product writes into its own input, and the sigmoids
    share the third."""
    flat = np.empty((3, rows * max(HIDDEN_DIMS)))
    pre = [flat[i % 2, :rows * w].reshape(rows, w) for i, w in enumerate(HIDDEN_DIMS)]
    sig = [flat[2, :rows * w].reshape(rows, w) for w in HIDDEN_DIMS]
    return pre + [np.empty((rows, STATE_DIM))], sig, pre


class _Inference:
    """The arrays one forward pass writes: the (rows, 18) input block and
    ``_inference_buffers(rows)``, built again when the number of rows
    changes."""

    def __init__(self):
        self.rows = -1

    def fit(self, rows: int):
        """The input block and the buffers for ``rows`` rows."""
        if rows != self.rows:
            self.rows = rows
            self.inputs = np.empty((rows, LAYER_DIMS[0]))
            self.cache = _inference_buffers(rows)
        return self.inputs, self.cache


def _forward(params: MlpParams, inputs: np.ndarray, cache) -> np.ndarray:
    """Forward pass on pre-built inputs (B, 18) into ``cache``, the buffers
    of ``_layer_buffers(B)`` or ``_inference_buffers(B)``; returns the
    output, the last pre-activation."""
    pre, sig, act = cache
    h = inputs
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        np.matmul(h, w, out=pre[i])
        np.add(pre[i], b, out=pre[i])
        if i < len(act):
            h, _ = _silu(pre[i], sig[i], act[i])
    return pre[-1]


def _backward(params: MlpParams, inputs: np.ndarray, cache, d_out: np.ndarray,
              grads: MlpParams) -> None:
    """Reverse-mode accumulation of d(loss)/d(params) into ``grads``, given
    d(loss)/d(output) ``d_out``.

    Consumes the forward ``cache``: once a layer's input has served its
    weight gradient, the SiLU derivative of the layer below is written over
    that activation and the delta of the layer below over its pre-activation.
    """
    pre, sig, act = cache
    delta = d_out
    for i in range(len(params.weights) - 1, -1, -1):
        h = act[i - 1] if i else inputs
        np.matmul(h.T, delta, out=grads.weights[i])
        np.sum(delta, axis=0, out=grads.biases[i])
        if i:
            # d silu(x)/dx = sigmoid(x) * (1 + x * (1 - sigmoid(x)))
            x, s, dsilu = pre[i - 1], sig[i - 1], act[i - 1]
            np.subtract(1.0, s, out=dsilu)
            np.multiply(x, dsilu, out=dsilu)
            np.add(1.0, dsilu, out=dsilu)
            np.multiply(s, dsilu, out=dsilu)
            np.matmul(delta, params.weights[i].T, out=x)
            delta = np.multiply(x, dsilu, out=x)


def _build_inputs(states: np.ndarray, t, out: np.ndarray | None = None) -> np.ndarray:
    """The (B, 18) input block of the (B, 2) ``states`` at the time ``t``,
    one for every row or one per row, written into ``out`` if given.  One
    time is encoded once and broadcast down the block."""
    out = np.empty((len(states), LAYER_DIMS[0])) if out is None else out
    out[:, :STATE_DIM] = states
    out[:, STATE_DIM:] = time_encoding(np.atleast_1d(t))
    return out


def forward(params: MlpParams, z, t, out: _Inference | None = None) -> np.ndarray:
    """Evaluate the velocity at state(s) ``z`` and time(s) ``t``.

    ``z`` may be (2,) or (B, 2); ``t`` a scalar or (B,).  Every array is
    written into ``out``, an ``_Inference``, or into a fresh one; the result
    is a copy, which the next call does not change.  Deterministic.
    """
    z_arr = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z_arr)):
        raise ValueError("state must be finite")
    single = z_arr.ndim == 1
    states = z_arr[None, :] if single else z_arr
    inputs, cache = (_Inference() if out is None else out).fit(len(states))
    v = _forward(params, _build_inputs(states, t, inputs), cache).copy()
    return v[0] if single else v


@dataclass(frozen=True)
class NeuralVelocityField:
    """Velocity-field view of trained parameters: field(x, t) -> velocity.

    The field owns the workspace its calls write into, so one field must not
    be called from two threads at once.  A one-row call takes the
    matrix-vector BLAS path, so it can round differently from the same row
    inside a call of two or more rows.
    """

    params: MlpParams
    _workspace: _Inference = field(default_factory=_Inference, init=False, repr=False,
                                   compare=False)

    def __call__(self, x, t):
        return forward(self.params, x, t, self._workspace)


class _Workspace:
    """Every array that one loss and gradient evaluation of ``batch`` rows
    writes.

    The network's arrays are ``dtype``: the input block, the forward cache
    (which the backward pass overwrites with its deltas) and the gradients.
    The sampled batch, the residual and the loss are float64.
    """

    def __init__(self, batch: int, dtype):
        self.t, self.one_minus_t, self.row_loss = (np.empty(batch) for _ in range(3))
        self.eps, self.z, self.target, self.sq = (np.empty((batch, STATE_DIM))
                                                  for _ in range(4))
        self.phase, self.trig = (np.empty((batch, TIME_ENC_DIM // 2)) for _ in range(2))
        self.inputs = np.empty((batch, LAYER_DIMS[0]), dtype)
        self.cache = _layer_buffers(batch, dtype)
        self.grads = zero_params(dtype)


def cfm_loss_grad(params: MlpParams, points: np.ndarray, batch: int,
                  rng: np.random.Generator,
                  out: _Workspace | None = None) -> tuple[float, MlpParams]:
    """One stochastic estimate of the bridge regression loss and its gradients.

    Draw order per call: batch indices, then t, then noise.  The loss is the
    batch mean of ||v(x_t, t) - (z - eps)||^2.  The network runs in the dtype
    of ``params``, and so do the gradients; the draws, the residual and the
    loss are float64.  Every array is written into ``out``, a
    ``_Workspace(batch, dtype)``, or into a fresh one; the gradients returned
    are its own, overwritten by its next step.
    """
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        raise ValueError("dataset must be non-empty")
    check_count("batch", batch, 1)
    ws = _Workspace(batch, params.weights[0].dtype) if out is None else out
    idx = rng.integers(0, len(points), batch)
    t = rng.random(out=ws.t)
    t *= 1.0 - T_EPS
    eps = rng.standard_normal(out=ws.eps)
    # the indices are in range, and mode="raise" would buffer the copy
    z = np.take(points, idx, axis=0, out=ws.z, mode="clip")
    target = np.subtract(z, eps, out=ws.target)
    # x_t = t z + (1 - t) eps, over z and eps, then cast once into the input
    # block's state columns; the time encoding is cast the same way
    x_t = np.multiply(t[:, None], z, out=z)
    np.subtract(1.0, t, out=ws.one_minus_t)
    np.add(x_t, np.multiply(ws.one_minus_t[:, None], eps, out=eps), out=x_t)
    ws.inputs[:, :STATE_DIM] = x_t
    _encode_time(t, ws.inputs[:, STATE_DIM:], ws.phase, ws.trig)

    out_rows = _forward(params, ws.inputs, ws.cache)
    resid = np.subtract(out_rows, target, out=target)
    loss = float(np.sum(np.square(resid, out=ws.sq), axis=1, out=ws.row_loss).mean())
    np.multiply(2.0, resid, out=resid)
    # d(loss)/d(output), rounded once into the network's dtype
    d_out = np.divide(resid, batch, out=out_rows)
    _backward(params, ws.inputs, ws.cache, d_out, ws.grads)
    return loss, ws.grads


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    weight_decay: float = 1e-4
    batch_size: int = 256
    iterations: int = 50_000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("learning_rate", 0), ("weight_decay", 0),
                            ("batch_size", 1), ("iterations", 0)):
            value = getattr(self, name)
            if name in ("batch_size", "iterations") and (
                    isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not least <= value < math.inf:     # NaN fails this too
                raise ValueError(f"{name} must be finite and >= {least}, got {value}")


@dataclass
class AdamWState:
    """First/second moment accumulators with decoupled weight decay.

    The decay step is ``p -= weight_decay * p`` independent of the learning
    rate, so a zero learning rate leaves parameters changed only by decay.
    The moments are shaped and typed like the parameters; every step is
    taken in float64, whatever dtype the gradients come in, with ``scratch``:
    two float64 arrays per tensor, shaped like it, viewed into two flat
    buffers the size of the largest tensor.
    """

    m: MlpParams
    v: MlpParams
    step: int = 0
    scratch: list = field(init=False, repr=False)

    def __post_init__(self):
        tensors = self.m.weights + self.m.biases
        flat = np.empty((2, max(t.size for t in tensors)))
        self.scratch = [(flat[0][:t.size].reshape(t.shape), flat[1][:t.size].reshape(t.shape))
                        for t in tensors]

    @classmethod
    def for_params(cls, params: MlpParams) -> "AdamWState":
        return cls(m=params.zeros_like(), v=params.zeros_like())

    def update(self, params: MlpParams, grads: MlpParams, lr: float, wd: float) -> None:
        """One step on ``params``, in place."""
        self.step += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step
        bc2 = 1.0 - ADAM_BETA2 ** self.step
        for p, g, m, v, (a, b) in zip(params.weights + params.biases,
                                      grads.weights + grads.biases,
                                      self.m.weights + self.m.biases,
                                      self.v.weights + self.v.biases, self.scratch):
            np.copyto(b, g)                 # the gradient, in float64
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, b, out=a)
            v *= ADAM_BETA2
            v += np.multiply(np.multiply(1.0 - ADAM_BETA2, b, out=a), b, out=a)
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.multiply(lr, np.divide(m, bc1, out=a), out=a)
            np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), ADAM_EPS, out=b)
            p -= np.divide(a, b, out=a)
            p -= np.multiply(wd, p, out=a)


@dataclass
class TrainResult:
    params: MlpParams
    losses: np.ndarray  # per-iteration loss curve


def save_checkpoint(params: MlpParams, path) -> None:
    """Write ``path``, a JSON container: one entry per tensor with name,
    shape, and row-major float64 payload (lossless shortest round-trip
    decimals).  Next to it, ``path``.npz holds a binary copy: every tensor
    under its JSON name, and ``sha256``, the digest of the JSON's bytes.

    The JSON is encoded and written one slice of a tensor at a time, so a
    save holds no more than one slice's text beside the parameters (a
    tracemalloc peak of about 0.5 MB, the copy's largest tensor, for a
    2.95 MB JSON).  Each file is written under a temporary name and renamed
    into place, so a save that fails leaves the previous files as they
    were."""
    tensors = dict(zip(_TENSOR_SHAPES, (np.ascontiguousarray(a) for pair in
                                        zip(params.weights, params.biases) for a in pair)))
    digest = hashlib.sha256()
    tmp, copy_tmp = f"{path}.tmp", f"{path}.npz.tmp"
    try:
        with open(tmp, "wb") as fh:
            for piece in _json_pieces(tensors):
                data = piece.encode()
                fh.write(data)
                digest.update(data)
        with open(copy_tmp, "wb") as fh:
            np.savez(fh, sha256=np.frombuffer(digest.digest(), dtype=np.uint8), **tensors)
        # the copy's digest names the JSON it was written with, so a copy
        # left stale by a failure between the two renames is never read
        os.replace(tmp, path)
        os.replace(copy_tmp, f"{path}.npz")
    except BaseException:
        for name in (tmp, copy_tmp):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(name)
        raise


def _json_pieces(tensors: dict):
    """The checkpoint JSON in pieces that join to the bytes of one
    ``json.dumps`` of the whole container."""
    # json.dumps of each slice runs the C encoder (json.dump streams through
    # the pure-Python one, about 1.7x slower) and holds one slice's text at
    # a time; a list's items are joined by ", " either way
    head = json.dumps({"format": "kinflow-mlp", "layer_dims": list(LAYER_DIMS),
                       "tensors": []})
    yield head[:-len("]}")]
    for i, (name, a) in enumerate(tensors.items()):
        entry = json.dumps({"name": name, "shape": list(a.shape), "data": []})
        yield (", " if i else "") + entry[:-len("]}")]
        flat = a.ravel()
        for lo in range(0, flat.size, _JSON_SLICE):
            yield (", " if lo else "") + json.dumps(flat[lo:lo + _JSON_SLICE].tolist())[1:-1]
        yield "]}"
    yield "]}"


def load_checkpoint(path) -> MlpParams:
    """The parameters of the JSON checkpoint ``path``: read from its binary
    copy when that copy was written with these JSON bytes and holds every
    tensor intact, parsed from the JSON otherwise.  Either way they are the
    JSON's parameters, bit for bit; a read writes no file.

    The JSON is hashed in fixed blocks and its text is read only when it
    must be parsed, so a read through the copy holds one block of it (a
    tracemalloc peak of about 1.7 MB, mostly the tensors, for a 2.95 MB
    JSON)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BLOCK):
            digest.update(block)
    tensors = _read_copy(f"{path}.npz", digest.digest())
    if tensors is None:
        with open(path, "rb") as fh:
            tensors = _parse_json(fh.read(), path)
    arrays = [tensors[name] for name in _TENSOR_SHAPES]
    return MlpParams(arrays[0::2], arrays[1::2])


def _read_copy(path: str, digest: bytes) -> dict | None:
    """The tensors of the binary copy ``path`` if it holds ``digest`` and a
    float64 array of its layer shape under every tensor name; None if it is
    missing, stale, truncated or malformed.  Nothing in it is unpickled."""
    try:
        # the handle is ours, so it is closed also when numpy cannot open
        # the archive in it
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if npz["sha256"].tobytes() != digest:
                return None
            tensors = {name: npz[name] for name in _TENSOR_SHAPES}
    except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile):
        return None
    if all(a.dtype == np.float64 and a.shape == _TENSOR_SHAPES[name]
           for name, a in tensors.items()):
        return tensors
    return None


def _parse_json(raw: bytes, path) -> dict:
    """Every tensor of the checkpoint JSON ``raw``, by name; a ValueError
    naming the first tensor that is missing or has another shape."""
    blob = json.loads(raw)
    if not isinstance(blob, dict) or blob.get("format") != "kinflow-mlp":
        raise ValueError(f"{path} is not a kinflow MLP checkpoint")
    entries = {e["name"]: e for e in blob.get("tensors", [])}
    tensors = {}
    for name, shape in _TENSOR_SHAPES.items():
        if name not in entries:
            raise ValueError(f"{path} has no tensor {name!r}")
        if entries[name].get("shape") != list(shape):
            raise ValueError(f"{path}: tensor {name!r} has shape "
                             f"{entries[name].get('shape')}, expected {list(shape)}")
        tensors[name] = np.array(entries[name]["data"], dtype=np.float64).reshape(shape)
    return tensors


def train(points: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Run ``cfg.iterations`` AdamW steps; deterministic given ``cfg.seed``.

    Returns the float64 master weights; each step's loss and gradients are
    computed in float32 on a copy of them (see the module docstring)."""
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        raise ValueError("dataset must be non-empty")
    init_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    params = init_params(init_ss)
    rng = np.random.default_rng(batch_ss)
    opt = AdamWState.for_params(params)
    losses = np.empty(cfg.iterations)
    copy, ws = zero_params(np.float32), _Workspace(cfg.batch_size, np.float32)
    for i in range(cfg.iterations):
        losses[i] = _train_step(params, copy, opt, points, cfg, rng, ws)
        if not np.isfinite(losses[i]):
            raise TrainingDiverged(i)
    return TrainResult(params, losses)


def _train_step(params: MlpParams, copy: MlpParams, opt: AdamWState, points: np.ndarray,
                cfg: TrainConfig, rng: np.random.Generator, ws: _Workspace) -> float:
    """One AdamW step on the master weights ``params``, with the loss and
    gradients of ``copy``, refreshed from them here in the workspace's dtype;
    returns the loss, and takes no step when it is not finite."""
    for low, master in zip(copy.weights + copy.biases, params.weights + params.biases):
        np.copyto(low, master)
    loss, grads = cfm_loss_grad(copy, points, cfg.batch_size, rng, out=ws)
    if np.isfinite(loss):
        opt.update(params, grads, cfg.learning_rate, cfg.weight_decay)
    return loss
