"""Trainable velocity field v(x, t, class) with exact reverse-mode gradients.

A small dense network stands in for large sequence backbones: sinusoidal
time features and a learned class-embedding row are concatenated with the
ambient coordinates and pushed through SiLU hidden layers.  The final layer
is zero-initialized so the untrained field is identically zero and early
samples stay close to the prior.

Parameters live in one flat float64 vector; the structured weight matrices
are numpy views into it, so the optimizer and EMA can treat the model as a
plain vector while the forward pass uses shaped arrays.

One forward pass serves sampling and training.  A single time for the whole
batch is featurized once and broadcast over the rows, biases are added in
place and each SiLU is computed in one buffer; the arithmetic of every entry
is that of the plain formula, so the outputs and the trained weights keep
their bits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import flow as fl
from . import manifold as mf
from .errors import (
    ChecksumMismatch,
    DimensionMismatch,
    InvalidConfig,
    NonFiniteLoss,
    ShapeMismatch,
    StepOutOfRange,
    UnknownConditionClass,
    require_int,
)


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden_dim: int = 128
    num_layers: int = 3
    time_embed_dim: int = 32
    cond_embed_dim: int = 16
    num_condition_classes: int = 1  # includes the reserved null class

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim", "num_layers", "time_embed_dim",
                     "cond_embed_dim", "num_condition_classes"):
            require_int(name, getattr(self, name), 1)

    @property
    def in_features(self) -> int:
        return self.input_dim + self.time_embed_dim + self.cond_embed_dim

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "NetworkSpec":
        return cls(**d)


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int
    batch_size: int = 256
    max_lr: float = 1e-4
    warmup_ratio: float = 0.08
    grad_clip_norm: float = 0.5
    ema_decay: float = 0.999
    weight_decay: float = 1e-2
    cond_dropout_prob: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # Written as `not ok` so that NaN fails every check.
        if not self.total_steps >= 0:
            raise InvalidConfig("total_steps must be >= 0")
        if not self.batch_size >= 1:
            raise InvalidConfig("batch_size must be >= 1")
        if not self.max_lr > 0:
            raise InvalidConfig("max_lr must be positive")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise InvalidConfig("warmup_ratio must lie in [0, 1]")
        if not self.grad_clip_norm > 0:
            raise InvalidConfig("grad_clip_norm must be positive")
        if not self.weight_decay >= 0:
            raise InvalidConfig("weight_decay must be >= 0")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise InvalidConfig("ema_decay must lie in [0, 1]")
        if not 0.0 <= self.cond_dropout_prob <= 1.0:
            raise InvalidConfig("cond_dropout_prob must lie in [0, 1]")
        if not self.seed >= 0:
            raise InvalidConfig("seed must be >= 0")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


class VectorFieldParams:
    """Flat parameter vector plus shaped views aliasing the same memory."""

    def __init__(self, spec: NetworkSpec, flat: np.ndarray | None = None):
        self.spec = spec
        self.layout: list[tuple[str, int, int]] = []
        sizes = self._shapes(spec)
        total = sum(int(np.prod(s)) for _, s in sizes)
        if flat is None:
            flat = np.zeros(total)
        flat = np.ascontiguousarray(np.asarray(flat, dtype=float))
        if flat.shape != (total,):
            raise ShapeMismatch(f"flat vector has shape {flat.shape}, expected ({total},)")
        self.flat = flat
        self.views: dict[str, np.ndarray] = {}
        off = 0
        for name, shape in sizes:
            n = int(np.prod(shape))
            self.views[name] = self.flat[off : off + n].reshape(shape)
            self.layout.append((name, off, n))
            off += n

    @staticmethod
    def _shapes(spec: NetworkSpec) -> list[tuple[str, tuple[int, ...]]]:
        shapes: list[tuple[str, tuple[int, ...]]] = [
            ("cond_emb", (spec.num_condition_classes, spec.cond_embed_dim)),
            ("W0", (spec.in_features, spec.hidden_dim)),
            ("b0", (spec.hidden_dim,)),
        ]
        for i in range(1, spec.num_layers):
            shapes.append((f"W{i}", (spec.hidden_dim, spec.hidden_dim)))
            shapes.append((f"b{i}", (spec.hidden_dim,)))
        shapes.append(("W_out", (spec.hidden_dim, spec.input_dim)))
        shapes.append(("b_out", (spec.input_dim,)))
        return shapes

    @property
    def count(self) -> int:
        return self.flat.shape[0]

    @classmethod
    def init_random(cls, spec: NetworkSpec, rng: np.random.Generator) -> "VectorFieldParams":
        """Variance-scaled hidden layers, zero final layer, small embeddings."""
        p = cls(spec)
        p.views["cond_emb"][:] = 0.02 * rng.standard_normal(p.views["cond_emb"].shape)
        p.views["W0"][:] = rng.standard_normal(p.views["W0"].shape) / np.sqrt(spec.in_features)
        for i in range(1, spec.num_layers):
            p.views[f"W{i}"][:] = (
                rng.standard_normal(p.views[f"W{i}"].shape) / np.sqrt(spec.hidden_dim)
            )
        # W_out and biases stay zero: the initial field is the zero field.
        return p

    def copy(self) -> "VectorFieldParams":
        return VectorFieldParams(self.spec, self.flat.copy())


def time_features(t, dim: int) -> np.ndarray:
    """Sinusoidal features of the flow time on geometric frequencies."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    half = (dim + 1) // 2
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), half))
    ang = t[:, None] * freqs[None, :]
    feats = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    return feats[:, :dim]


def _sigmoid(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _silu(z):
    """``z * _sigmoid(z)`` with the same arithmetic, in one buffer."""
    s = np.negative(z)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
    s *= z
    return s


def _silu_grad(z):
    s = _sigmoid(z)
    return s * (1.0 + z * (1.0 - s))


def _cond_indices(spec: NetworkSpec, cond, batch: int) -> np.ndarray:
    if cond is None:
        idx = np.full(batch, fl.NULL_CLASS)
    else:
        idx = np.atleast_1d(np.asarray(cond, dtype=int))
        if idx.shape == (1,) and batch > 1:
            idx = np.full(batch, idx[0])
    if idx.shape != (batch,):
        raise DimensionMismatch("condition batch size mismatch")
    if np.any(idx < 0) or np.any(idx >= spec.num_condition_classes):
        raise UnknownConditionClass(
            f"condition indices must lie in [0, {spec.num_condition_classes})"
        )
    return idx


def _forward_cached(params: VectorFieldParams, x, t, cond, keep: bool = True):
    """Output and backprop cache ``(idx, pre, acts)``: the condition indices,
    each hidden layer's pre-activation, and each dense layer's input.  With
    ``keep`` False the cache lists stay empty, so every layer's arrays are
    freed as soon as the next layer has read them."""
    spec = params.spec
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    if x2.shape[1] != spec.input_dim:
        raise DimensionMismatch(f"x has dim {x2.shape[1]}, expected {spec.input_dim}")
    B = x2.shape[0]
    idx = _cond_indices(spec, cond, B)
    D, T = spec.input_dim, spec.time_embed_dim
    h = np.empty((B, spec.in_features))
    h[:, :D] = x2
    # One time for the whole batch is featurized once and broadcast.
    h[:, D:D + T] = time_features(t, T)
    h[:, D + T:] = params.views["cond_emb"][idx]
    pre, acts = [], [h] if keep else []
    for i in range(spec.num_layers):
        z = h @ params.views[f"W{i}"]
        z += params.views[f"b{i}"]
        h = _silu(z)
        if keep:
            pre.append(z)
            acts.append(h)
    out = h @ params.views["W_out"]
    out += params.views["b_out"]
    return out, (idx, pre, acts)


def forward(params: VectorFieldParams, x, t, cond=None) -> np.ndarray:
    """Ambient-space velocity prediction; batched over leading dimension."""
    single = np.asarray(x).ndim == 1
    out, _ = _forward_cached(params, x, t, cond, keep=False)
    return out[0] if single else out


def loss_and_grad(
    params: VectorFieldParams, batch: fl.FlowBatch, m: mf.ManifoldSpec
) -> tuple[float, np.ndarray]:
    """Flow-matching loss and its exact gradient in the flat layout.

    The tangent projection is linear in the prediction at fixed x_t and
    self-adjoint, so its pull-back is another projection.
    """
    spec = params.spec
    pred, (idx, pre, acts) = _forward_cached(params, batch.x_t, batch.t, batch.condition)
    B = pred.shape[0]
    r = batch.target_v - mf.project_tangent(m, batch.x_t, pred)
    loss = float(np.mean(np.sum(r * r, axis=-1)))
    d_out = -(2.0 / B) * mf.project_tangent(m, batch.x_t, r)

    grads = VectorFieldParams(spec)  # zero-initialized gradient buffer
    h_last = acts[-1]
    grads.views["W_out"][:] = h_last.T @ d_out
    grads.views["b_out"][:] = d_out.sum(axis=0)
    d_h = d_out @ params.views["W_out"].T
    for i in range(spec.num_layers - 1, -1, -1):
        d_z = d_h * _silu_grad(pre[i])
        grads.views[f"W{i}"][:] = acts[i].T @ d_z
        grads.views[f"b{i}"][:] = d_z.sum(axis=0)
        d_h = d_z @ params.views[f"W{i}"].T
    d_cond = d_h[:, spec.input_dim + spec.time_embed_dim :]
    np.add.at(grads.views["cond_emb"], idx, d_cond)
    return loss, grads.flat


# ---------------------------------------------------------------------------
# schedule, clipping, optimizer, EMA
# ---------------------------------------------------------------------------


def lr_at(cfg: TrainConfig, step: int) -> float:
    """Linear warmup to max_lr, then cosine decay to zero."""
    if step < 0 or step > cfg.total_steps:
        raise StepOutOfRange(f"step {step} outside [0, {cfg.total_steps}]")
    warmup = int(round(cfg.warmup_ratio * cfg.total_steps))
    if step < warmup:
        return cfg.max_lr * step / warmup
    remain = cfg.total_steps - warmup
    if remain == 0:
        return cfg.max_lr
    progress = (step - warmup) / remain
    return cfg.max_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


def clip_gradient(grad: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.linalg.norm(grad))
    if norm <= max_norm:
        return grad
    return grad * (max_norm / norm)


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-2

    @classmethod
    def new(cls, param_count: int, weight_decay: float = 1e-2) -> "OptimizerState":
        return cls(m=np.zeros(param_count), v=np.zeros(param_count),
                   weight_decay=weight_decay)


def adamw_step(
    opt: OptimizerState, params: VectorFieldParams, grad: np.ndarray, lr: float
) -> None:
    """Decoupled-weight-decay Adam update with bias correction, in place."""
    if grad.shape != params.flat.shape or opt.m.shape != params.flat.shape:
        raise ShapeMismatch("gradient / moment shapes must match the parameters")
    opt.step += 1
    opt.m[:] = opt.beta1 * opt.m + (1.0 - opt.beta1) * grad
    opt.v[:] = opt.beta2 * opt.v + (1.0 - opt.beta2) * grad * grad
    m_hat = opt.m / (1.0 - opt.beta1 ** opt.step)
    v_hat = opt.v / (1.0 - opt.beta2 ** opt.step)
    params.flat -= lr * (m_hat / (np.sqrt(v_hat) + opt.eps) + opt.weight_decay * params.flat)


@dataclass
class EmaState:
    shadow: np.ndarray
    decay: float = 0.999

    def __post_init__(self):
        if not 0.0 <= self.decay <= 1.0:
            raise InvalidConfig("ema decay must lie in [0, 1]")


def ema_update(ema: EmaState, params: VectorFieldParams) -> None:
    if ema.shadow.shape != params.flat.shape:
        raise ShapeMismatch("EMA shadow must match the parameter count")
    ema.shadow[:] = ema.decay * ema.shadow + (1.0 - ema.decay) * params.flat


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    params: VectorFieldParams
    ema: EmaState
    history: list[dict]  # per step: step, lr, loss, grad_norm
    rng_state: dict


def train(
    cfg: TrainConfig,
    net_spec: NetworkSpec,
    m: mf.ManifoldSpec,
    data: np.ndarray,
    prior: mf.WrappedGaussianSpec,
    conditions: Optional[np.ndarray] = None,
) -> TrainResult:
    """Deterministic single-stream training on a fixed dataset.

    Each step draws a batch with replacement, builds a flow batch, takes a
    clipped AdamW step at the scheduled learning rate, and folds the new
    parameters into the EMA shadow.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[1] != m.total_ambient_dim:
        raise DimensionMismatch("dataset dimension disagrees with the manifold")
    if net_spec.input_dim != m.total_ambient_dim:
        raise DimensionMismatch("network input_dim disagrees with the manifold")
    rng = np.random.default_rng(cfg.seed)
    params = VectorFieldParams.init_random(net_spec, rng)
    opt = OptimizerState.new(params.count, weight_decay=cfg.weight_decay)
    ema = EmaState(shadow=params.flat.copy(), decay=cfg.ema_decay)
    history: list[dict] = []
    n = data.shape[0]
    for step in range(cfg.total_steps):
        idx = rng.integers(0, n, size=cfg.batch_size)
        batch = fl.make_flow_batch(
            m, data[idx], prior, rng,
            cond_dropout_prob=cfg.cond_dropout_prob,
            conditions=None if conditions is None else conditions[idx],
        )
        loss, grad = loss_and_grad(params, batch, m)
        if not np.isfinite(loss):
            raise NonFiniteLoss(step)
        grad_norm = float(np.linalg.norm(grad))
        grad = clip_gradient(grad, cfg.grad_clip_norm)
        lr = lr_at(cfg, step)
        adamw_step(opt, params, grad, lr)
        ema_update(ema, params)
        history.append({"step": step, "lr": lr, "loss": loss, "grad_norm": grad_norm})
    return TrainResult(params=params, ema=ema, history=history,
                       rng_state=rng.bit_generator.state)


def field_from_params(params: VectorFieldParams) -> fl.VelocityField:
    def field(x, t, cond):
        return forward(params, x, t, cond)

    return field


# ---------------------------------------------------------------------------
# checkpoints: one JSON header line followed by little-endian float64 blobs
# ---------------------------------------------------------------------------


def save_checkpoint(
    path,
    net_spec: NetworkSpec,
    train_cfg: TrainConfig,
    m: mf.ManifoldSpec,
    params: VectorFieldParams,
    ema: EmaState,
    step: int,
    rng_state: dict | None = None,
    extra: dict | None = None,
) -> None:
    header = {
        "schema": 1,
        "network": net_spec.to_json_dict(),
        "train": train_cfg.to_json_dict(),
        "manifold": m.to_json_dict(),
        "step": step,
        "rng_state": rng_state,
        "param_layout": [
            {"name": name, "offset": off, "len": n} for name, off, n in params.layout
        ],
        "param_count": params.count,
        "ema_decay": ema.decay,
        "blobs": ["params", "ema"],
    }
    if extra:
        header.update(extra)
    blobs = params.flat.astype("<f8").tobytes() + ema.shadow.astype("<f8").tobytes()
    header["blob_sha256"] = hashlib.sha256(blobs).hexdigest()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(blobs)


@dataclass
class Checkpoint:
    header: dict
    net_spec: NetworkSpec
    train_cfg: TrainConfig
    manifold: mf.ManifoldSpec
    params: VectorFieldParams
    ema: EmaState
    step: int


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; exactly two blobs of ``param_count`` float64 values
    must follow the header line, and match its ``blob_sha256`` when the
    header records one (older checkpoints do not)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        blobs = fh.read()
    spec = NetworkSpec.from_json_dict(header["network"])
    count = header["param_count"]
    if len(blobs) != 2 * 8 * count:
        raise ShapeMismatch(f"checkpoint holds {len(blobs)} blob bytes, expected {16 * count}")
    if "blob_sha256" in header and hashlib.sha256(blobs).hexdigest() != header["blob_sha256"]:
        raise ChecksumMismatch("checkpoint blobs do not match the header's blob_sha256")
    flat = np.frombuffer(blobs, dtype="<f8", count=count).astype(float)
    shadow = np.frombuffer(blobs, dtype="<f8", count=count, offset=8 * count).astype(float)
    return Checkpoint(
        header=header,
        net_spec=spec,
        train_cfg=TrainConfig.from_json_dict(header["train"]),
        manifold=mf.ManifoldSpec.from_json_dict(header["manifold"]),
        params=VectorFieldParams(spec, flat),
        ema=EmaState(shadow=shadow, decay=header["ema_decay"]),
        step=header["step"],
    )


def history_to_csv(history: list[dict], path) -> None:
    with open(path, "w") as fh:
        fh.write("step,lr,loss,grad_norm\n")
        for row in history:
            fh.write(f"{row['step']},{row['lr']:.12g},{row['loss']:.12g},"
                     f"{row['grad_norm']:.12g}\n")
