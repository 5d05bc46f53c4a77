"""Flow matching with geodesic interpolants and manifold-preserving sampling.

The training path between a prior draw x0 and a data point x1 is the
geodesic x_t, and the supervision signal is its analytic velocity d/dt x_t,
the closed-form geodesic velocity of Riemannian flow matching (Chen &
Lipman).  Both come from one clipped angle per sphere and pre-shape copy:
the sin-weighted slerp and its derivative (``mf._geodesic``), so the target
stays well conditioned as t -> 1.  Euclidean blocks keep the straight line
x0 + t (x1 - x0) and its target (x1 - x_t) / (1 - t), bit for bit.
Sampling integrates the learned field with first-order geodesic Euler
steps, which keep every iterate on the manifold by construction.

Each sampler step is one pass per factor over the contiguous coordinate
planes of the point and of the field evaluations (``manifold._blocks``).
The pass applies guidance to the raw fields, projects once (the projection
is linear), checks tangency and shoots with the per-element arithmetic of
``project_tangent`` and ``exp_map``.  The test oracle ``_sample_ode_chain``
in ``tests/test_flow.py`` composes those public operations on whole arrays;
a run with one field per step has its bits, a guided one agrees to rounding.

The sampler cuts the rows after the prior draw into fixed blocks of
``SAMPLE_BLOCK_ROWS`` and integrates each block on its own, the blocks in
parallel on the usable CPUs: the field is called concurrently on disjoint
rows.  OpenBLAS is held at one thread while it runs, so a block's field
evaluations have the same bits whatever the number of CPUs; so do the
samples, because the blocks depend on the batch size alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

from . import manifold as mf
from .errors import DimensionMismatch, require_int, require_number, require_rows
from .motion import reference_point  # noqa: F401  (re-exported)

# Flow times are sampled on [0, 1 - EPS_T] so the Euclidean 1/(1-t) target stays bounded.
EPS_T = 1e-5

# Prior redraws of the rows of one batch that sit antipodal to their data point.
MAX_PRIOR_REDRAWS = 8

# Reserved condition-class index meaning "unconditional".
NULL_CLASS = 0

# Rows per sampler block.  Blocks depend on the batch size only, not on the
# CPU count; at a few hundred rows one block's net forward is still an
# efficient GEMM, and two blocks keep two CPUs busy at B = 1000.
SAMPLE_BLOCK_ROWS = 512


@dataclass
class FlowBatch:
    x0: np.ndarray                 # (B, D) prior draws
    x1: np.ndarray                 # (B, D) data points
    t: np.ndarray                  # (B,) in [0, 1 - EPS_T]
    x_t: np.ndarray                # (B, D) geodesic interpolants
    target_v: np.ndarray           # (B, D) tangent targets at x_t
    condition: Optional[np.ndarray]  # (B,) int class indices, or None

    def __len__(self) -> int:
        return self.x1.shape[0]


@dataclass(frozen=True)
class GuidanceConfig:
    scale: float = 1.0
    enabled: bool = False

    def __post_init__(self):
        require_number("guidance_scale", self.scale, 0)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step first-order geodesic Euler on the uniform grid t_k = k/N."""

    num_steps: int = 100

    def __post_init__(self):
        require_int("num_steps", self.num_steps, 1)

    @property
    def step_size(self) -> float:
        return 1.0 / self.num_steps


def _flow_pairs(m: mf.ManifoldSpec, x0, x1b,
                t) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """``(pairs, antipodal)``.  ``pairs`` holds per factor the blocks of x_t
    and of its target: the geodesic point and velocity of ``mf._geodesic`` on
    sphere and pre-shape copies, and on Euclidean blocks ``x0 + t (x1 - x0)``
    and ``(x1 - x_t) / (1 - t)``.  ``antipodal`` marks the rows with a sphere
    or pre-shape copy of x0 antipodal to x1's, from the same angles, whose
    pairs have no unique geodesic."""
    pairs = []
    antipodal = np.zeros(t.shape, dtype=bool)
    tt = t[..., None]
    for f, a, b in zip(m.factors, mf._blocks(m, x0), x1b):
        x_t, v, theta = mf._geodesic(f, a, b, tt)
        if f.kind == "euclidean":
            v = (b - x_t) / (1.0 - tt)
        else:
            antipodal |= mf._near_pi(theta).any(axis=-1)
        pairs.append((x_t, v))
    return pairs, antipodal


def make_flow_batch(
    m: mf.ManifoldSpec,
    x1: np.ndarray,
    prior: mf.WrappedGaussianSpec,
    rng: np.random.Generator,
    cond_dropout_prob: float = 0.1,
    conditions: Optional[np.ndarray] = None,
) -> FlowBatch:
    """Assemble one training batch.

    RNG call order (relied on by seeded reproducibility tests):
    prior normals, then uniform times, then condition-dropout uniforms.
    x_t and its target come from one pass per factor over contiguous blocks
    (``_flow_pairs``), which also marks the rows whose prior draw is
    antipodal to their data point.  Those rows, and just those, draw again
    after the times, and the pass runs again; once ``MAX_PRIOR_REDRAWS``
    such rounds leave a row antipodal, AntipodalPoints is raised.
    """
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    B = x1.shape[0]
    x0 = mf.sample_wrapped_gaussian(m, prior, rng, size=B)
    t = rng.uniform(0.0, 1.0 - EPS_T, size=B)
    x1b = mf._blocks(m, x1)
    pairs, bad = _flow_pairs(m, x0, x1b, t)
    for _ in range(MAX_PRIOR_REDRAWS):
        if not bad.any():
            break
        x0[bad] = mf.sample_wrapped_gaussian(m, prior, rng, size=int(bad.sum()))
        pairs, bad = _flow_pairs(m, x0, x1b, t)
    mf._check_not_antipodal(bad)
    x_t = mf._unblock(m, [p for p, _ in pairs], (B,))
    v = mf._unblock(m, [v for _, v in pairs], (B,))
    cond = None
    if conditions is not None:
        conditions = np.asarray(conditions)
        if conditions.shape != (B,):
            raise DimensionMismatch("conditions must have one entry per batch element")
        drop = rng.random(B) < cond_dropout_prob
        cond = np.where(drop, NULL_CLASS, conditions)
    return FlowBatch(x0=x0, x1=x1, t=t, x_t=x_t, target_v=v, condition=cond)


def _fm_terms(m: mf.ManifoldSpec, batch: FlowBatch,
              predicted: np.ndarray) -> tuple[float, np.ndarray]:
    """``(loss, r)``: the flow-matching loss, the mean squared norm of the
    residual r = target_v - P_{x_t}(predicted), and r, tangent at x_t like
    the target.  P runs per factor on ``_blocks``, as ``project_tangent``."""
    projected = [mf._project(f, x, a) for f, x, a in
                 zip(m.factors, mf._blocks(m, batch.x_t), mf._blocks(m, predicted))]
    r = batch.target_v - mf._unblock(m, projected, predicted.shape[:1])
    return float(np.mean(np.sum(r * r, axis=-1))), r


def fm_loss(m: mf.ManifoldSpec, batch: FlowBatch, predicted: np.ndarray) -> float:
    """Mean squared tangent-velocity error after projecting the prediction."""
    predicted = np.asarray(predicted, dtype=float)
    if predicted.shape != batch.target_v.shape:
        raise DimensionMismatch(
            f"predicted shape {predicted.shape} != target {batch.target_v.shape}"
        )
    return _fm_terms(m, batch, predicted)[0]


VelocityField = Callable[[np.ndarray, float, Optional[np.ndarray]], np.ndarray]


def _field_blocks(m: mf.ManifoldSpec, field: VelocityField, x, t, cond) -> list[np.ndarray]:
    a = np.asarray(field(x, t, cond), dtype=float)
    if a.shape != x.shape:
        raise DimensionMismatch(f"field returned shape {a.shape}, expected {x.shape}")
    return mf._blocks(m, a)


def _euler_pass(m: mf.ManifoldSpec, xb, ab, a0b, scale: float, h: float) -> list[np.ndarray]:
    """One guided geodesic Euler step on the contiguous blocks of ``mf._blocks``.

    Per factor: the field ``ab`` or, given the null-condition field ``a0b``
    (passed only when scale is neither 0 nor 1), the classifier-free
    combination ``a0 + scale (a - a0)`` of the raw fields is projected once,
    scaled by h and shot along the geodesic with ``mf._shoot``, which
    rejects a step whose tangency defect exceeds ``TANGENT_REJECT`` (so any
    non-finite field).  The projection is linear: the test oracle
    ``_sample_ode_chain`` (``tests/test_flow.py``) combines projected fields
    and projects again.  With one field a step has the oracle's bits.
    """
    out = []
    for i, (f, x, a) in enumerate(zip(m.factors, xb, ab)):
        # A non-finite field fails the tangency check in _shoot, so its warnings are moot.
        with np.errstate(invalid="ignore", over="ignore"):
            if a0b is not None:
                a = a0b[i] + scale * (a - a0b[i])
            v = h * mf._project(f, x, a)
        out.append(mf._shoot(f, x, v))
    return out


# OpenBLAS thread-count setters and getters, in lookup order: numpy's bundled
# scipy-openblas, then a plain OpenBLAS with and without 64-bit integers.
_BLAS_THREAD_API = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _blas_threads():
    """``(get, set)`` of the thread count of the OpenBLAS numpy calls, found
    through numpy's own extension module on first use, or None."""
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for set_name, get_name in _BLAS_THREAD_API:
        try:
            setter, getter = getattr(lib, set_name), getattr(lib, get_name)
        except AttributeError:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return getter, setter
    return None


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread for the scope; yields False, changing
    nothing, if no thread-count setter was found.  Nested and concurrent
    scopes share one pin: the first to enter saves the count, the last to
    leave restores it, exceptions included."""
    global _pin_depth, _pin_saved
    api = _blas_threads()
    if api is None:
        yield False
        return
    get, set_ = api
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield True
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)


def sample_ode(
    m: mf.ManifoldSpec,
    field: VelocityField,
    prior: mf.WrappedGaussianSpec,
    integ: IntegratorConfig,
    guid: GuidanceConfig,
    condition: Optional[np.ndarray],
    rng: np.random.Generator,
    num_samples: Optional[int] = None,
) -> np.ndarray:
    """Integrate the projected field from a prior draw to t = 1.

    ``field(x, t, condition)`` returns ambient vectors; they are projected,
    optionally guidance-combined against a null-condition evaluation, and
    stepped with geodesic Euler updates, one ``_euler_pass`` per step.
    scale == 1 skips the null-condition evaluation, so guided and unguided
    runs agree bitwise; scale == 0 evaluates only the null-condition field,
    which is then the whole combination.

    After the prior draw the rows are cut into blocks of
    ``SAMPLE_BLOCK_ROWS``, and each block integrates all steps on its own.
    The blocks run on a pool of ``min(blocks, usable CPUs)`` threads (see
    ``mf._map_blocks``), so ``field`` is called concurrently on disjoint
    rows; ``net.forward`` is safe for this.  OpenBLAS is held at one thread
    meanwhile, so every field call's arithmetic is fixed by its block, and
    the samples have the same bits on any number of CPUs.  Where no OpenBLAS
    thread setter is found, the blocks run one after another.
    """
    if num_samples is not None:
        require_int("num_samples", num_samples, 0)
    if condition is not None:
        condition = np.asarray(condition)
        B = condition.shape[0]
        if num_samples is not None and num_samples != B:
            raise DimensionMismatch("num_samples disagrees with condition batch")
    else:
        B = 1 if num_samples is None else num_samples
    require_rows("num_samples", B, m.total_ambient_dim)
    x0 = mf.sample_wrapped_gaussian(m, prior, rng, size=B)
    N = integ.num_steps
    h = integ.step_size
    use_guidance = guid.enabled and guid.scale != 1.0 and condition is not None

    def integrate(rows: slice) -> np.ndarray:
        x = x0[rows]
        n = x.shape[0]
        cond = None if condition is None else condition[rows]
        null_cond = np.full(n, NULL_CLASS) if use_guidance else None
        if use_guidance and guid.scale == 0.0:
            cond, null_cond = null_cond, None
        xb = mf._blocks(m, x)
        for k in range(N):
            t = k / N
            ab = _field_blocks(m, field, x, t, cond)
            a0b = None if null_cond is None else _field_blocks(m, field, x, t, null_cond)
            xb = _euler_pass(m, xb, ab, a0b, guid.scale, h)
            x = mf._unblock(m, xb, (n,))
        return x

    # B = 0 still makes one (empty) block.
    blocks = [slice(s, s + SAMPLE_BLOCK_ROWS) for s in range(0, max(B, 1), SAMPLE_BLOCK_ROWS)]
    with _one_blas_thread() as pinned:
        return np.concatenate(mf._map_blocks(integrate, blocks, parallel=pinned))
