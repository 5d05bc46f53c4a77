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

Every per-factor pass runs through ``manifold._map``, as the public
geometry does: the batch's x_t, target and antipodal rows (``_flow_target``),
the loss's projection and each sampler step (``_euler_step``).  A step
applies guidance to the raw fields, projects once (the projection is
linear), checks tangency and shoots with the per-element arithmetic of
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
    t: np.ndarray                  # (B,) in [0, 1 - EPS_T]
    x_t: np.ndarray                # (B, D) geodesic interpolants
    target_v: np.ndarray           # (B, D) tangent targets at x_t
    condition: Optional[np.ndarray]  # (B,) int class indices, or None


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


def _flow_target(f: mf.FactorSpec, x0, x1, t):
    """``(x_t, target, antipodal)`` per copy of factor f: the geodesic point
    and velocity of ``mf._geodesic`` on sphere and pre-shape copies, and on
    Euclidean ones ``x0 + t (x1 - x0)`` and ``(x1 - x_t) / (1 - t)``.
    ``antipodal`` marks, from the same angles, the sphere and pre-shape copies
    of x0 antipodal to x1's, whose pairs have no unique geodesic."""
    x_t, v, theta = mf._geodesic(f, x0, x1, t)
    if f.kind == "euclidean":
        return x_t, (x1 - x_t) / (1.0 - t), False
    return x_t, v, mf._near_pi(theta)


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
    x_t and its target come from one ``mf._map`` pass of ``_flow_target``,
    which also marks the rows whose prior draw is antipodal to their data
    point.  Those rows, and just those, draw again after the times, and the
    pass runs again; once ``MAX_PRIOR_REDRAWS`` such rounds leave a row
    antipodal, AntipodalPoints is raised.
    """
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    B = x1.shape[0]
    x0 = mf.sample_wrapped_gaussian(m, prior, rng, size=B)
    t = rng.uniform(0.0, 1.0 - EPS_T, size=B)
    x_t, v, near = mf._map(m, _flow_target, x0, x1, t=t)
    for _ in range(MAX_PRIOR_REDRAWS):
        bad = near.any(axis=-1)
        if not bad.any():
            break
        x0[bad] = mf.sample_wrapped_gaussian(m, prior, rng, size=int(bad.sum()))
        x_t, v, near = mf._map(m, _flow_target, x0, x1, t=t)
    mf._check_not_antipodal(near)
    cond = None
    if conditions is not None:
        conditions = np.asarray(conditions)
        if conditions.shape != (B,):
            raise DimensionMismatch("conditions must have one entry per batch element")
        drop = rng.random(B) < cond_dropout_prob
        cond = np.where(drop, NULL_CLASS, conditions)
    return FlowBatch(x0=x0, t=t, x_t=x_t, target_v=v, condition=cond)


def _fm_terms(m: mf.ManifoldSpec, batch: FlowBatch,
              predicted: np.ndarray) -> tuple[float, np.ndarray]:
    """``(loss, r)``: the flow-matching loss, the mean squared norm of the
    residual r = target_v - P_{x_t}(predicted), and r, tangent at x_t like
    the target.  P is ``mf._project`` through ``mf._map``, as ``project_tangent``."""
    r = batch.target_v - mf._map(m, mf._project, batch.x_t, predicted)
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


def _evaluate(field: VelocityField, x, t, cond) -> np.ndarray:
    a = np.asarray(field(x, t, cond), dtype=float)
    if a.shape != x.shape:
        raise DimensionMismatch(f"field returned shape {a.shape}, expected {x.shape}")
    return a


def _euler_step(f: mf.FactorSpec, x, a, a0=None, *, scale: float, h: float):
    """One guided geodesic Euler step per copy of factor f.

    The field ``a`` or, given the null-condition field ``a0`` (passed only
    when scale is neither 0 nor 1), the classifier-free combination
    ``a0 + scale (a - a0)`` of the raw fields is projected once, scaled by h
    and shot along the geodesic with ``mf._shoot``, which rejects a step
    whose tangency defect exceeds ``TANGENT_REJECT`` (so any non-finite
    field).  The projection is linear: the test oracle ``_sample_ode_chain``
    (``tests/test_flow.py``) combines projected fields and projects again.
    With one field a step has the oracle's bits.
    """
    # A non-finite field fails the tangency check in _shoot, so its warnings are moot.
    with np.errstate(invalid="ignore", over="ignore"):
        if a0 is not None:
            a = a0 + scale * (a - a0)
        v = h * mf._project(f, x, a)
    return mf._shoot(f, x, v)


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
    num_samples: int,
) -> np.ndarray:
    """Integrate the projected field from ``num_samples`` prior draws to t = 1.

    A given ``condition`` holds one class per row, shape ``(num_samples,)``.
    ``field(x, t, condition)`` returns ambient vectors; they are projected,
    optionally guidance-combined against a null-condition evaluation, and
    stepped with geodesic Euler updates, one ``mf._map`` pass of
    ``_euler_step`` per step.
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
    require_int("num_samples", num_samples, 0)
    condition = None if condition is None else np.asarray(condition)
    if condition is not None and condition.shape != (num_samples,):
        raise DimensionMismatch("num_samples disagrees with condition batch")
    require_rows("num_samples", num_samples, m.total_ambient_dim)
    x0 = mf.sample_wrapped_gaussian(m, prior, rng, size=num_samples)
    N = integ.num_steps
    use_guidance = guid.enabled and guid.scale != 1.0 and condition is not None
    step = functools.partial(_euler_step, scale=guid.scale, h=integ.step_size)

    def integrate(rows: slice) -> np.ndarray:
        x = x0[rows]
        cond = None if condition is None else condition[rows]
        null_cond = np.full(x.shape[0], NULL_CLASS) if use_guidance else None
        if use_guidance and guid.scale == 0.0:
            cond, null_cond = null_cond, None
        for k in range(N):
            t = k / N
            fields = [_evaluate(field, x, t, cond)]
            if null_cond is not None:
                fields.append(_evaluate(field, x, t, null_cond))
            x = mf._map(m, step, x, *fields)
        return x

    # num_samples = 0 still makes one (empty) block.
    blocks = [slice(s, s + SAMPLE_BLOCK_ROWS)
              for s in range(0, max(num_samples, 1), SAMPLE_BLOCK_ROWS)]
    with _one_blas_thread() as pinned:
        return np.concatenate(mf._map_blocks(integrate, blocks, parallel=pinned))
