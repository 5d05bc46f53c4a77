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
their bits.  For training the forward also keeps SiLU's derivative at each
layer, computed from the sigmoid it has at hand, so the backward does not
compute the sigmoid again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from math import prod
from typing import Optional

import numpy as np

from . import flow as fl
from . import manifold as mf
from .errors import (DimensionMismatch, InvalidConfig, NonFiniteLoss, _build, _is_schema_one,
                     require_int, require_number, require_rows)


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
        for name, minimum in (("total_steps", 0), ("batch_size", 1), ("seed", 0)):
            require_int(name, getattr(self, name), minimum)
        for name in ("max_lr", "grad_clip_norm"):
            require_number(name, getattr(self, name), 0, open_low=True)
        require_number("weight_decay", self.weight_decay, 0)
        for name in ("warmup_ratio", "ema_decay", "cond_dropout_prob"):
            require_number(name, getattr(self, name), 0, 1)


class VectorFieldParams:
    """Flat parameter vector plus shaped views aliasing the same memory."""

    def __init__(self, spec: NetworkSpec, flat: np.ndarray | None = None):
        self.spec = spec
        sizes = self._shapes(spec)
        total = sum(prod(s) for _, s in sizes)
        require_int("network parameter count", total, 1)
        if flat is None:
            flat = np.zeros(total)
        flat = np.ascontiguousarray(np.asarray(flat, dtype=float))
        if flat.shape != (total,):
            raise DimensionMismatch(f"flat vector has shape {flat.shape}, expected ({total},)")
        self.flat = flat
        self.views: dict[str, np.ndarray] = {}
        off = 0
        for name, shape in sizes:
            n = prod(shape)
            self.views[name] = self.flat[off : off + n].reshape(shape)
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


def time_features(t, dim: int) -> np.ndarray:
    """Sinusoidal features of the flow time on geometric frequencies."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    half = (dim + 1) // 2
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), half))
    ang = t[:, None] * freqs[None, :]
    feats = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    return feats[:, :dim]


def _sigmoid(z):
    """``1 / (1 + exp(-z))`` with the same arithmetic, in one buffer."""
    s = np.negative(z)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
    return s


def _silu(z):
    """``z * _sigmoid(z)`` in one buffer."""
    s = _sigmoid(z)
    s *= z
    return s


def _cond_indices(spec: NetworkSpec, cond, batch: int) -> np.ndarray:
    if cond is None:
        idx = np.full(batch, fl.NULL_CLASS)
    else:
        idx = np.atleast_1d(np.asarray(cond, dtype=int))
    if idx.shape != (batch,):
        raise DimensionMismatch("condition batch size mismatch")
    if np.any(idx < 0) or np.any(idx >= spec.num_condition_classes):
        raise InvalidConfig(
            f"condition indices must lie in [0, {spec.num_condition_classes})"
        )
    return idx


def _forward_cached(params: VectorFieldParams, x, t, cond, keep: bool = True):
    """Output and backprop cache ``(idx, dsilu, acts)``: the condition
    indices, SiLU's derivative s (1 + z (1 - s)) at each hidden layer's
    pre-activation z, from the sigmoid s the forward computes anyway, and
    each dense layer's input.  With ``keep`` False the cache lists stay
    empty, so every layer's arrays are freed as soon as the next layer has
    read them."""
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
    dsilu, acts = [], [h] if keep else []
    w = np.empty((B, spec.hidden_dim)) if keep else None
    for i in range(spec.num_layers):
        z = h @ params.views[f"W{i}"]
        z += params.views[f"b{i}"]
        if keep:
            s = _sigmoid(z)
            h = s * z
            # s (1 + z (1 - s)), built in z's buffer
            np.subtract(1.0, s, out=w)
            z *= w
            z += 1.0
            z *= s
            dsilu.append(z)
            acts.append(h)
        else:
            h = _silu(z)
    out = h @ params.views["W_out"]
    out += params.views["b_out"]
    return out, (idx, dsilu, acts)


def forward(params: VectorFieldParams, x, t, cond=None) -> np.ndarray:
    """Ambient-space velocity prediction; batched over leading dimension."""
    return _forward_cached(params, x, t, cond, keep=False)[0]


def loss_and_grad(
    params: VectorFieldParams, batch: fl.FlowBatch, m: mf.ManifoldSpec,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Flow-matching loss and its exact gradient in the flat layout.

    The loss and the residual r come from ``fl._fm_terms``, the formula of
    ``fl.fm_loss``.  The projection is linear and self-adjoint, so its
    pull-back is P(r), which is r: r is tangent.  SiLU's derivative comes
    from the forward's cache; of the first layer's input gradient only the
    class-embedding columns are computed.  Every gradient entry is written,
    into ``out`` when given (a reusable buffer of ``params.count`` floats).
    """
    spec = params.spec
    pred, (idx, dsilu, acts) = _forward_cached(params, batch.x_t, batch.t, batch.condition)
    B = pred.shape[0]
    loss, d_out = fl._fm_terms(m, batch, pred)
    d_out *= -(2.0 / B)

    flat = VectorFieldParams(spec, np.empty(params.count) if out is None else out)
    grads = flat.views
    np.matmul(acts[-1].T, d_out, out=grads["W_out"])
    np.sum(d_out, axis=0, out=grads["b_out"])
    d_h = d_out @ params.views["W_out"].T
    for i in range(spec.num_layers - 1, -1, -1):
        d_z = dsilu[i]
        d_z *= d_h
        np.matmul(acts[i].T, d_z, out=grads[f"W{i}"])
        np.sum(d_z, axis=0, out=grads[f"b{i}"])
        w = params.views[f"W{i}"]
        d_h = d_z @ (w if i else w[spec.input_dim + spec.time_embed_dim:]).T
    grads["cond_emb"][...] = 0.0
    np.add.at(grads["cond_emb"], idx, d_h)
    return loss, flat.flat


# ---------------------------------------------------------------------------
# schedule, clipping, optimizer, EMA
# ---------------------------------------------------------------------------


def lr_at(cfg: TrainConfig, step: int) -> float:
    """Linear warmup to max_lr, then cosine decay to zero."""
    if step < 0 or step > cfg.total_steps:
        raise InvalidConfig(f"step {step} outside [0, {cfg.total_steps}]")
    warmup = int(round(cfg.warmup_ratio * cfg.total_steps))
    if step < warmup:
        return cfg.max_lr * step / warmup
    remain = cfg.total_steps - warmup
    if remain == 0:
        return cfg.max_lr
    progress = (step - warmup) / remain
    return cfg.max_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


def _grad_norm(grad: np.ndarray) -> float:
    """Euclidean norm of a flat vector, summed by ``np.einsum`` without a
    temporary.  Not ``np.linalg.norm``: that is an OpenBLAS dot, whose bits
    depend on the thread count, and with it the CPU count, for vectors over
    10000 long."""
    return float(np.sqrt(np.einsum("i,i->", grad, grad)))


def clip_gradient(grad: np.ndarray, max_norm: float, norm: float) -> np.ndarray:
    """``grad`` rescaled to norm ``max_norm`` if longer; ``norm`` is its
    already computed ``_grad_norm``."""
    if norm <= max_norm:
        return grad
    return grad * (max_norm / norm)


# Elements per chunk of the in-place optimizer and EMA updates.  Each chunk
# costs a dozen numpy calls (about 3 us each); at 32768 elements that stays
# small, and the two scratch vectors stay at 256 KB whatever the model size.
UPDATE_CHUNK = 32768

# Adam's moment decay rates and denominator offset.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _chunks(n: int, k: int):
    """Slices of at most UPDATE_CHUNK elements covering range(n), each with
    ``k`` scratch vectors of its length."""
    scratch = np.empty((k, min(n, UPDATE_CHUNK)))
    for lo in range(0, n, UPDATE_CHUNK):
        sl = slice(lo, min(lo + UPDATE_CHUNK, n))
        yield (sl, *scratch[:, :sl.stop - lo])


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    weight_decay: float
    step: int = 0


def adamw_step(
    opt: OptimizerState, params: VectorFieldParams, grad: np.ndarray, lr: float
) -> None:
    """Decoupled-weight-decay Adam update with bias correction, in place.

    Chunk by chunk, with the operations of the formulas in the comments in
    their order, so the bits are those of the whole-array formulas."""
    if grad.shape != params.flat.shape or opt.m.shape != params.flat.shape:
        raise DimensionMismatch("gradient / moment shapes must match the parameters")
    opt.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1 ** opt.step, 1.0 - b2 ** opt.step
    for sl, a, b in _chunks(grad.shape[0], 2):
        m, v, g, p = opt.m[sl], opt.v[sl], grad[sl], params.flat[sl]
        # m = beta1 m + (1 - beta1) g
        m *= b1
        np.multiply(g, 1.0 - b1, out=a)
        m += a
        # v = beta2 v + (1 - beta2) g g
        v *= b2
        np.multiply(g, 1.0 - b2, out=a)
        a *= g
        v += a
        # p -= lr ((m / c1) / (sqrt(v / c2) + eps) + weight_decay p)
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        np.divide(m, c1, out=a)
        a /= b
        np.multiply(p, opt.weight_decay, out=b)
        a += b
        a *= lr
        p -= a


@dataclass
class EmaState:
    shadow: np.ndarray
    decay: float  # TrainConfig checks the range


def ema_update(ema: EmaState, params: VectorFieldParams) -> None:
    """shadow = decay shadow + (1 - decay) p, in place, chunk by chunk."""
    if ema.shadow.shape != params.flat.shape:
        raise DimensionMismatch("EMA shadow must match the parameter count")
    for sl, a in _chunks(ema.shadow.shape[0], 1):
        shadow = ema.shadow[sl]
        shadow *= ema.decay
        np.multiply(params.flat[sl], 1.0 - ema.decay, out=a)
        shadow += a


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
    require_rows("batch_size", cfg.batch_size, max(net_spec.in_features, net_spec.hidden_dim))
    rng = np.random.default_rng(cfg.seed)
    params = VectorFieldParams.init_random(net_spec, rng)
    opt = OptimizerState(m=np.zeros(params.count), v=np.zeros(params.count),
                         weight_decay=cfg.weight_decay)
    ema = EmaState(shadow=params.flat.copy(), decay=cfg.ema_decay)
    history: list[dict] = []
    n = data.shape[0]
    grad_buffer = np.empty(params.count)  # reused by every step
    for step in range(cfg.total_steps):
        idx = rng.integers(0, n, size=cfg.batch_size)
        batch = fl.make_flow_batch(
            m, data[idx], prior, rng,
            cond_dropout_prob=cfg.cond_dropout_prob,
            conditions=None if conditions is None else conditions[idx],
        )
        # Parameters blown up by a huge step overflow here; NonFiniteLoss reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grad = loss_and_grad(params, batch, m, out=grad_buffer)
            norm = _grad_norm(grad)
        if not (np.isfinite(loss) and np.isfinite(norm)):
            raise NonFiniteLoss(step)
        grad = clip_gradient(grad, cfg.grad_clip_norm, norm)
        lr = lr_at(cfg, step)
        adamw_step(opt, params, grad, lr)
        ema_update(ema, params)
        history.append({"step": step, "lr": lr, "loss": loss, "grad_norm": norm})
    return TrainResult(params=params, ema=ema, history=history,
                       rng_state=rng.bit_generator.state)


def field_from_params(params: VectorFieldParams) -> fl.VelocityField:
    def field(x, t, cond):
        return forward(params, x, t, cond)

    return field


# ---------------------------------------------------------------------------
# checkpoints: one JSON header line followed by little-endian float64 blobs
# ---------------------------------------------------------------------------


def save_checkpoint(path, train_cfg: TrainConfig, m: mf.ManifoldSpec, result: TrainResult,
                    extra: dict | None = None) -> None:
    """The header, each fact once (the spec and ``train`` fix the parameter
    count, layout and EMA decay), then the parameter and EMA blobs."""
    header = {
        "schema": 1,
        "network": asdict(result.params.spec),
        "train": asdict(train_cfg),
        "manifold": m.to_json_dict(),
        "rng_state": result.rng_state,
        **(extra or {}),
    }
    blobs = result.params.flat.astype("<f8").tobytes() + result.ema.shadow.astype("<f8").tobytes()
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


def load_checkpoint(path) -> Checkpoint:
    """Read a ``"schema": 1`` header line, then the parameter and EMA blobs,
    each as long as the network spec's parameter vector; they must match the
    header's ``blob_sha256``, and a missing digest is a mismatch.  Its
    sections are read like config sections; ``network.input_dim`` must be
    the manifold's width."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        blobs = fh.read()
    if not isinstance(header, dict) or not _is_schema_one(header.get("schema")):
        raise InvalidConfig('checkpoint header must be a JSON object declaring "schema": 1')
    if hashlib.sha256(blobs).hexdigest() != header.get("blob_sha256"):
        raise InvalidConfig("checkpoint blobs do not match the header's blob_sha256")
    if len(blobs) % 16:
        raise DimensionMismatch(f"checkpoint holds {len(blobs)} blob bytes, not two equal blobs")
    spec = _build(NetworkSpec, header.get("network"), "checkpoint.network")
    train_cfg = _build(TrainConfig, header.get("train"), "checkpoint.train")
    m = mf.ManifoldSpec.from_json_dict(header.get("manifold"), "checkpoint.manifold")
    if spec.input_dim != m.total_ambient_dim:
        raise InvalidConfig(f"checkpoint.network.input_dim {spec.input_dim} is not the width "
                            f"{m.total_ambient_dim} of checkpoint.manifold")
    flat, shadow = np.frombuffer(blobs, dtype="<f8").astype(float).reshape(2, -1)
    return Checkpoint(
        header=header,
        net_spec=spec,
        train_cfg=train_cfg,
        manifold=m,
        params=VectorFieldParams(spec, flat),  # DimensionMismatch unless spec has len(flat)
        ema=EmaState(shadow=shadow, decay=train_cfg.ema_decay),
    )


def history_to_csv(history: list[dict], path) -> None:
    with open(path, "w") as fh:
        fh.write("step,lr,loss,grad_norm\n")
        for row in history:
            fh.write(f"{row['step']},{row['lr']:.12g},{row['loss']:.12g},"
                     f"{row['grad_norm']:.12g}\n")
