"""Closed-form geometry on products of Euclidean, sphere, and pre-shape factors.

Points and tangent vectors are flat float64 arrays in ambient coordinates.
Every operation accepts arbitrary leading batch dimensions and works
factor-wise along the last axis, so a product manifold behaves exactly like
independent per-factor application.

Supported factors:

- ``euclidean(n)``   -- flat R^n, exp/log are addition/subtraction.
- ``sphere(d)``      -- unit sphere S^d embedded in R^{d+1}.
- ``preshape(k, m)`` -- centered k x m landmark matrices of unit Frobenius
  norm (Kendall pre-shapes).  Intrinsically a sphere inside the centered
  subspace, so geodesics reuse the sphere formulas; only the tangent
  projection additionally re-centers.

Dispatch is per factor, not per copy, on one layout: ``ManifoldSpec.blocks``
maps each factor to its slice of the flat vector, and ``_blocks`` copies
that slice into contiguous coordinate planes ``(width, *L, multiplicity)``,
so one formula call covers every copy of the factor and a time broadcasts
over any block as ``t[..., None]``.  Every per-copy sum over coordinates
(``_dot`` and ``distance``) adds whole planes left to right, written once in
``_sum``, so its bits do not depend on the shape or the chunk of the rows
it runs on.  Every per-factor pass, the public operations and the flow
module's batch, loss and sampler steps alike, runs through one chunk loop
(``_map``), which walks the leading rows in chunks whose blocks stay near
``CHUNK_ELEMENTS`` elements and so bounds the temporaries of large or
broadcast inputs independently of the batch size.

``distance`` has its own kernel (``_copy_distance``), because its outputs
(such as an N x M distance matrix) are large next to its inputs: each factor
copy of both operands is copied once from its block into contiguous planes
(``_copies``), and every entry is summed plane by plane in a fixed order, so
the bits do not depend on the shape.  ``distance`` fills its whole output in
one call, with two scratch arrays of the output's shape; the metrics
module's scorer streams large distance sets through the same kernel in
blocks on every usable CPU.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Sequence

import numpy as np

from .errors import (
    AntipodalPoints,
    DimensionMismatch,
    InvalidConfig,
    NotTangent,
    _build,
    _dataclass_schema,
    _fill,
    require_int,
    require_number,
    require_rows,
)

# Centralized tolerance table (double precision throughout).
TOL_TANGENT = 1e-9        # tangency slack for valid tangent vectors
TANGENT_REJECT = 10.0 * TOL_TANGENT  # hard-error threshold in exp_map
SMALL_ANGLE = 1e-6        # switch to series expansions below this angle
ANTIPODAL_MARGIN = 1e-6   # reject geodesics with theta >= pi - margin
CHUNK_ELEMENTS = 1 << 16  # broadcast elements per dispatch chunk


@dataclass(frozen=True)
class FactorSpec:
    """One factor of a product manifold.

    ``dim`` is n for Euclidean factors and d for Sphere(d) (embedded in
    R^{d+1}); pre-shape factors use ``landmarks`` x ``spatial_dim`` matrices.
    """

    kind: str
    dim: int = 0
    landmarks: int = 0
    spatial_dim: int = 0
    multiplicity: int = 1

    def __post_init__(self):
        if self.kind not in ("euclidean", "sphere", "preshape"):
            raise InvalidConfig(f"unknown factor kind {self.kind!r}")
        require_int("multiplicity", self.multiplicity, 1)
        if self.kind == "preshape":
            require_int("preshape landmarks", self.landmarks, 2)
            require_int("preshape spatial_dim", self.spatial_dim, 1)
        else:
            require_int(f"{self.kind} dim", self.dim, 1)

    @property
    def ambient_dim_per_copy(self) -> int:
        if self.kind == "euclidean":
            return self.dim
        if self.kind == "sphere":
            return self.dim + 1
        return self.landmarks * self.spatial_dim

    @property
    def ambient_dim(self) -> int:
        return self.ambient_dim_per_copy * self.multiplicity

    def to_json_dict(self) -> dict:
        if self.kind == "preshape":
            return {
                "kind": "preshape",
                "landmarks": self.landmarks,
                "spatial_dim": self.spatial_dim,
                "multiplicity": self.multiplicity,
            }
        return {"kind": self.kind, "dim": self.dim, "multiplicity": self.multiplicity}


def euclidean(n: int, multiplicity: int = 1) -> FactorSpec:
    return FactorSpec(kind="euclidean", dim=n, multiplicity=multiplicity)


def sphere(d: int, multiplicity: int = 1) -> FactorSpec:
    return FactorSpec(kind="sphere", dim=d, multiplicity=multiplicity)


def preshape(landmarks: int, spatial_dim: int, multiplicity: int = 1) -> FactorSpec:
    return FactorSpec(
        kind="preshape", landmarks=landmarks, spatial_dim=spatial_dim, multiplicity=multiplicity
    )


@dataclass(frozen=True)
class ManifoldSpec:
    """Ordered product of factors with a contiguous flat memory layout."""

    factors: tuple[FactorSpec, ...]

    def __init__(self, factors: Sequence[FactorSpec]):
        object.__setattr__(self, "factors", tuple(factors))
        if not self.factors:
            raise InvalidConfig("a manifold needs at least one factor")

    @cached_property
    def blocks(self) -> tuple[tuple[FactorSpec, slice], ...]:
        """Each factor with its slice of the flat coordinate vector."""
        out = []
        off = 0
        for f in self.factors:
            out.append((f, slice(off, off + f.ambient_dim)))
            off += f.ambient_dim
        return tuple(out)

    @property
    def total_ambient_dim(self) -> int:
        return sum(f.ambient_dim for f in self.factors)

    def to_json_dict(self) -> dict:
        return {"factors": [f.to_json_dict() for f in self.factors]}

    @classmethod
    def from_json_dict(cls, d, ctx: str = "manifold") -> "ManifoldSpec":
        """The manifold of JSON section ``d``, each factor read as a FactorSpec."""
        factors = _fill(d, ctx, _dataclass_schema(cls))["factors"]
        return cls([_build(FactorSpec, f, f"{ctx}.factors[{i}]") for i, f in enumerate(factors)])


@dataclass(frozen=True)
class WrappedGaussianSpec:
    """Tangent Gaussian at ``mean`` wrapped through the exponential map.

    ``per_factor_scale`` holds one finite, nonnegative isotropic sigma per
    factor (sigma = 0 is the degenerate distribution concentrated at the
    mean).
    """

    spec: ManifoldSpec
    mean: np.ndarray
    per_factor_scale: tuple[float, ...]

    def __init__(self, spec, mean, per_factor_scale):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "mean", np.asarray(mean, dtype=float))
        if np.isscalar(per_factor_scale):
            per_factor_scale = (float(per_factor_scale),) * len(spec.factors)
        object.__setattr__(self, "per_factor_scale", tuple(float(s) for s in per_factor_scale))
        if self.mean.shape != (spec.total_ambient_dim,):
            raise DimensionMismatch(
                f"mean has shape {self.mean.shape}, expected ({spec.total_ambient_dim},)"
            )
        if len(self.per_factor_scale) != len(spec.factors):
            raise DimensionMismatch("need one scale per factor")
        for s in self.per_factor_scale:
            require_number("prior scale", s, 0)


# ---------------------------------------------------------------------------
# per-copy formulas on the coordinate planes of ``_blocks``; the sphere
# formulas also serve pre-shape factors
# ---------------------------------------------------------------------------


def _sum(n: int, term, out: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """``term(0) + ... + term(n - 1)`` into ``out``, added left to right.
    ``term(k, buf)`` writes term k into buf and returns it: the first term
    into ``out``, later ones into the one temporary ``tmp``.  A zero start
    is left to the caller."""
    tmp = np.empty_like(out) if tmp is None else tmp
    term(0, out)
    for k in range(1, n):
        np.add(out, term(k, tmp), out=out)
    return out


def _dot(x, y):
    """Per-copy inner product of two blocks over their coordinate axis 0, of
    shape ``(*L, multiplicity)``: the products added left to right onto a
    zero start (below 8 coordinates, the bits of ``np.sum`` on the last axis)."""
    out = np.empty(np.broadcast_shapes(x.shape[1:], y.shape[1:]))
    _sum(len(x), lambda k, buf: np.multiply(x[k], y[k], out=buf), out)
    out += 0.0  # numpy's zero start: an all -0.0 sum reads +0.0
    return out


def _norm(a):
    return np.sqrt(_dot(a, a))


def _landmarks(a, f: FactorSpec):
    """Split the coordinate axis of a pre-shape block into landmarks x spatial_dim."""
    return a.reshape((f.landmarks, f.spatial_dim) + a.shape[1:])


def _center(a, f: FactorSpec):
    """Subtract the landmark centroid from each copy of a pre-shape block."""
    mat = _landmarks(a, f)
    return (mat - mat.mean(axis=0, keepdims=True)).reshape(a.shape)


def _sphere_exp(x, v):
    n = _norm(v)
    small = n < SMALL_ANGLE
    safe = np.where(small, 1.0, n)
    sinc = np.where(small, 1.0 - n * n / 6.0, np.sin(safe) / safe)
    cosn = np.where(small, 1.0 - n * n / 2.0, np.cos(n))
    y = cosn * x + sinc * v
    return y / _norm(y)


def _sphere_angle(x, y):
    dot = np.clip(_dot(x, y), -1.0, 1.0)
    return dot, np.arccos(dot)


def _near_pi(theta):
    return theta >= np.pi - ANTIPODAL_MARGIN


def _check_not_antipodal(near):
    """Raise AntipodalPoints if any entry of the mask ``near`` is set."""
    if np.any(near):
        raise AntipodalPoints("sphere angle within 1e-6 of pi: no unique geodesic")


def _sphere_log(x, y):
    dot, theta = _sphere_angle(x, y)
    _check_not_antipodal(_near_pi(theta))
    u = y - dot * x
    un = _norm(u)
    small = theta < SMALL_ANGLE
    safe_un = np.where(small, 1.0, un)
    # theta / sin(theta) with its series for tiny angles (||u|| = sin(theta))
    scale = np.where(small, 1.0 + theta * theta / 6.0, theta / safe_un)
    return scale * u


def _sphere_geodesic(x0, x1, t):
    """Point and velocity at time t of the geodesic from x0 to x1, both from
    one clipped angle theta, and theta: the sin-weighted slerp
    (sin((1-t) theta) x0 + sin(t theta) x1) / sin(theta) and its analytic
    time derivative, of constant speed theta.  Below SMALL_ANGLE the weights
    sin(a theta) / sin(theta) and theta / sin(theta) take their series.
    Antipodal copies (``_near_pi(theta)``) have no unique geodesic; the
    caller finds them from theta."""
    _, theta = _sphere_angle(x0, x1)
    small = theta < SMALL_ANGLE
    safe_sin = np.where(small, 1.0, np.sin(theta))
    s = 1.0 - t
    th2 = theta * theta / 6.0
    w0 = np.where(small, s * (1.0 + (1.0 - s * s) * th2), np.sin(s * theta) / safe_sin)
    w1 = np.where(small, t * (1.0 + (1.0 - t * t) * th2), np.sin(t * theta) / safe_sin)
    ratio = np.where(small, 1.0 + th2, theta / safe_sin)
    point = w0 * x0 + w1 * x1
    velocity = ratio * (-np.cos(s * theta) * x0 + np.cos(t * theta) * x1)
    return point, velocity, theta


# ---------------------------------------------------------------------------
# the block layout and the chunk loop
# ---------------------------------------------------------------------------


def _block_view(a: np.ndarray, f: FactorSpec, sl: slice) -> np.ndarray:
    """Factor f's slice of ``a`` (leading shape L) viewed as coordinate
    planes ``(width, *L, multiplicity)``."""
    block = a[..., sl].reshape(a.shape[:-1] + (f.multiplicity, f.ambient_dim_per_copy))
    # transpose, not np.moveaxis, which costs several times more per call
    return block.transpose(-1, *range(a.ndim))


def _blocks(m: ManifoldSpec, a: np.ndarray) -> list[np.ndarray]:
    """Each factor block of ``a`` (leading shape L), in order, copied into
    contiguous coordinate planes ``(width, *L, multiplicity)``, so that every
    per-copy operation runs over whole planes."""
    return [np.ascontiguousarray(_block_view(a, f, sl)) for f, sl in m.blocks]


def _map(m: ManifoldSpec, fn, *arrays: np.ndarray, t=None):
    """``fn(factor, *blocks)`` per factor, assembled into one array of the
    broadcast leading shape of the arrays (and of t, one time per point, if
    given).  Where ``fn`` returns a tuple of blocks, the result is the tuple
    of their arrays, each of the dtype of its blocks.

    The arrays are padded with leading axes of length 1 to a common rank of
    at least one leading axis, and that first axis is walked in chunks of
    rows; no rows make one empty chunk.  Each array's chunk is copied into
    ``_blocks`` once (an array that does not span the first axis broadcasts
    across it whole); ``blocks`` holds each array's block of the factor,
    then t's chunk with a trailing axis of length 1 (``t[..., None]``),
    which broadcasts over any block.  A chunk holds about CHUNK_ELEMENTS
    elements over its copied blocks and its result.
    """
    shape = np.broadcast_shapes(*(a.shape[:-1] for a in arrays),
                                *(() if t is None else (t.shape,)))
    lead = shape or (1,)
    arrays = [a.reshape((1,) * (len(lead) + 1 - a.ndim) + a.shape) for a in arrays]
    copies = 1 + sum(a.shape[0] > 1 for a in arrays)
    step = max(1, CHUNK_ELEMENTS // max(1, copies * prod(lead[1:]) * m.total_ambient_dim))
    if t is not None:
        t = t.reshape((1,) * (len(lead) - t.ndim) + t.shape + (1,))
    outs = None
    for s in range(0, max(lead[0], 1), step):
        rows = slice(s, s + step)
        # per factor, the tuple of each array's block
        blocks = list(zip(*(_blocks(m, a[rows] if a.shape[0] > 1 else a) for a in arrays)))
        times = () if t is None else (t[rows] if t.shape[0] > 1 else t,)
        results = [fn(f, *b, *times) for f, b in zip(m.factors, blocks)]
        del blocks
        single = not isinstance(results[0], tuple)
        # per output, the tuple of each factor's block
        parts = [results] if single else list(zip(*results))
        # Allocated only now, after the chunk's blocks and temporaries are
        # freed: with glibc's malloc, an output allocated first lets the heap
        # top above it be trimmed and the next call fault it back in (the
        # 256 x 91 prior draw measured about 20% slower).
        if outs is None:
            outs = [np.empty(lead + (m.total_ambient_dim,), dtype=np.result_type(*part))
                    for part in parts]
        for out, part in zip(outs, parts):
            for (f, sl), r in zip(m.blocks, part):
                _block_view(out[rows], f, sl)[...] = r
    outs = [out.reshape(shape + (m.total_ambient_dim,)) for out in outs]
    return outs[0] if single else tuple(outs)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _as_coords(m: ManifoldSpec, a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 0 or a.shape[-1] != m.total_ambient_dim:
        raise DimensionMismatch(
            f"{name} has trailing dim {a.shape[-1] if a.ndim else 0}, "
            f"expected {m.total_ambient_dim}"
        )
    return a


def _defect(f: FactorSpec, x, v, worst=0.0):
    """``worst`` raised to the largest tangent-constraint violation of v at x
    over the copies of factor f; NaN once either holds a non-finite entry."""
    if f.kind == "euclidean":
        # no constraint, but non-finite input must still surface
        return worst if np.isfinite(x).all() and np.isfinite(v).all() else np.nan
    worst = np.max(np.abs(_dot(x, v)), initial=worst)
    if f.kind == "preshape":
        worst = np.max(np.abs(_landmarks(v, f).mean(axis=0)), initial=worst)
    return worst


def _check_tangent(defect) -> None:
    if not defect <= TANGENT_REJECT:
        raise NotTangent(f"tangency defect {defect:.3e} is not within {TANGENT_REJECT:.1e}")


def _shoot(f: FactorSpec, x, v):
    """Exp_x(v) per copy of factor f, after rejecting with NotTangent a v
    whose tangency defect exceeds TANGENT_REJECT (so any non-finite x or v)."""
    with np.errstate(invalid="ignore", over="ignore"):
        _check_tangent(_defect(f, x, v))
    return x + v if f.kind == "euclidean" else _sphere_exp(x, v)


def exp_map(m: ManifoldSpec, x, v) -> np.ndarray:
    """Shoot v (tangent at x) along its geodesic for unit time."""
    x = _as_coords(m, x, "x")
    v = _as_coords(m, v, "v")
    return _map(m, _shoot, x, v)


def log_map(m: ManifoldSpec, x, y) -> np.ndarray:
    """Tangent vector at x pointing to y with length equal to distance."""
    x = _as_coords(m, x, "x")
    y = _as_coords(m, y, "y")
    return _map(m, lambda f, xs, ys: ys - xs if f.kind == "euclidean"
                else _sphere_log(xs, ys), x, y)


def _geodesic(f: FactorSpec, x0, x1, t):
    """Point, velocity and angle of the geodesic per copy of factor f, as
    ``_sphere_geodesic``; on Euclidean factors ``x0 + t (x1 - x0)``,
    ``x1 - x0`` and None."""
    if f.kind == "euclidean":
        d = x1 - x0
        return x0 + t * d, d, None
    return _sphere_geodesic(x0, x1, t)


def _geodesic_part(m: ManifoldSpec, x0, x1, t, part: int) -> np.ndarray:
    """Part ``part`` (0 point, 1 velocity) of ``_geodesic`` over x0, x1 and
    t; AntipodalPoints if some sphere or pre-shape copy is antipodal."""
    x0 = _as_coords(m, x0, "x0")
    x1 = _as_coords(m, x1, "x1")
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t <= 1.0)):  # false for NaN
        raise InvalidConfig("interpolation time t must lie in [0, 1]")

    def one_part(f, a, b, tt):
        *parts, theta = _geodesic(f, a, b, tt)
        if theta is not None:
            _check_not_antipodal(_near_pi(theta))
        return parts[part]

    return _map(m, one_part, x0, x1, t=t)


def geodesic(m: ManifoldSpec, x0, x1, t) -> np.ndarray:
    """Constant-speed geodesic point at t in [0, 1] from x0 to x1.

    Sphere and pre-shape copies take the sin-weighted slerp of one clipped
    angle (not Exp_{x0}(t Log_{x0}(x1))); it is x0 at t = 0 and x1 at t = 1
    exactly.  This is the flow-matching interpolant; on Euclidean factors it
    is ``x0 + t (x1 - x0)`` bit for bit.
    """
    return _geodesic_part(m, x0, x1, t, 0)


def geodesic_velocity(m: ManifoldSpec, x0, x1, t) -> np.ndarray:
    """Time derivative of ``geodesic`` (tangent at the geodesic point), from
    the same per-copy kernel and angle."""
    return _geodesic_part(m, x0, x1, t, 1)


def _project(f: FactorSpec, x, a):
    if f.kind == "euclidean":
        return a
    if f.kind == "preshape":
        a = _center(a, f)
    return a - _dot(a, x) * x


def project_tangent(m: ManifoldSpec, x, a) -> np.ndarray:
    """Orthogonal projection of an ambient vector onto the tangent space at x.

    Idempotent and self-adjoint; Euclidean blocks pass through unchanged.
    """
    x = _as_coords(m, x, "x")
    a = _as_coords(m, a, "a")
    return _map(m, _project, x, a)


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_blocks(run, blocks: Sequence, parallel: bool = True) -> list:
    """``[run(b) for b in blocks]``, on a pool of ``min(len(blocks),
    _usable_cpus())`` threads, or inline for one worker or without
    ``parallel``.  Each block runs in a copy of the caller's context, so
    np.errstate holds there too.  The results come in block order, and so
    does the error raised: the first block's, in order, that raised."""
    workers = min(len(blocks), _usable_cpus()) if parallel else 1
    if workers <= 1:
        return [run(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, run, b) for b in blocks]
    return [fut.result() for fut in futures]


def _copies(m: ManifoldSpec, a: np.ndarray) -> list[np.ndarray]:
    """Each factor copy of ``a`` (leading shape L), in order, as a
    ``(width, *L)`` view of its block."""
    return [c for f, sl in m.blocks for c in np.moveaxis(_block_view(a, f, sl), -1, 0)]


def _copy_distance(m: ManifoldSpec, x: Sequence[np.ndarray],
                   y: Sequence[np.ndarray]) -> np.ndarray:
    """Geodesic distances between the points whose ``_copies`` are the
    planes x and y, in a new array of their broadcast shape.  Each copy is
    summed one coordinate plane at a time, left to right (``_sum``); its
    distance (sqrt, or clip and arccos) is squared and the copies are added
    in order, so every entry has the same bits whatever the shape of the
    planes.  The arithmetic is symmetric in its operands (x y = y x,
    (y - x)^2 = (x - y)^2), so swapping x and y keeps the bits too.  The
    output is allocated apart from the two scratch arrays, so that a caller
    who keeps it does not keep them alive."""
    shape = np.broadcast_shapes(x[0].shape[1:], y[0].shape[1:])
    out = np.empty(shape)
    acc, tmp = np.empty((2,) + shape)
    kinds = [f.kind == "euclidean" for f in m.factors for _ in range(f.multiplicity)]

    def copy(c, buf):
        xa, ya, euclid = x[c], y[c], kinds[c]

        def term(k, b):
            if not euclid:
                return np.multiply(xa[k], ya[k], out=b)
            np.subtract(ya[k], xa[k], out=b)
            return np.multiply(b, b, out=b)

        _sum(len(xa), term, buf, tmp)
        # _dot's zero start is left out: it only turns a -0.0 sum into
        # +0.0, and sqrt(-0.0)**2 and arccos(-0.0) equal those of +0.0.
        if euclid:
            np.sqrt(buf, out=buf)
        else:
            np.clip(buf, -1.0, 1.0, out=buf)
            np.arccos(buf, out=buf)
        return np.multiply(buf, buf, out=buf)

    _sum(len(kinds), copy, out, acc)
    return np.sqrt(out, out=out)


def distance(m: ManifoldSpec, x, y) -> np.ndarray:
    """Product geodesic distance (factor-wise Pythagorean combination).

    x and y broadcast against each other like numpy arrays over their leading
    axes; ``x[:, None]`` against ``y[None]`` gives the N x M matrix.  Each
    factor copy of both operands is copied once into contiguous memory, and
    ``_copy_distance`` fills the whole output in one call, so every entry has
    the same bits whatever the shape.
    """
    x = _as_coords(m, x, "x")
    y = _as_coords(m, y, "y")
    if x.ndim == y.ndim == 1:  # one pair: give it a row axis
        return distance(m, x[None], y[None])[0]
    return _copy_distance(m, *([np.ascontiguousarray(c) for c in _copies(m, a)]
                               for a in (x, y)))


def point_deviations(m: ManifoldSpec, x) -> list[tuple[int, str, np.ndarray]]:
    """Per-constraint absolute deviations ``(factor_index, name, dev)``.

    ``dev`` has shape ``(..., multiplicity)``: one entry per copy of the
    factor, so deviations of different factors do not stack.  Each factor's
    ``_block_view`` is read in place: a reduction needs no copied blocks.
    """
    x = _as_coords(m, x, "x")
    out = []
    for i, (f, sl) in enumerate(m.blocks):
        if f.kind == "euclidean":
            continue
        xs = _block_view(x, f, sl)
        out.append((i, "unit_norm", np.abs(_norm(xs) - 1.0)))
        if f.kind == "preshape":
            out.append((i, "centroid", np.abs(_landmarks(xs, f).mean(axis=0)).max(axis=0)))
    return out


def max_constraint_deviation(m: ManifoldSpec, x) -> float:
    """Largest point-constraint deviation; NaN if any deviation is NaN."""
    return float(np.max([np.max(d) for _, _, d in point_deviations(m, x)], initial=0.0))


def _draw_shape(m: ManifoldSpec, size) -> tuple[int, ...]:
    """The shape of ``size`` draws; InvalidConfig if no array can hold them."""
    if size is None:
        lead = ()
    elif np.isscalar(size):
        lead = (int(size),)
    else:
        lead = tuple(size)
    require_rows("size", prod(lead), m.total_ambient_dim)
    return lead + (m.total_ambient_dim,)


def sample_wrapped_gaussian(
    m: ManifoldSpec, g: WrappedGaussianSpec, rng: np.random.Generator, size=None
) -> np.ndarray:
    """Draw ambient Gaussian noise, project to the tangent space at the mean,
    and wrap through the exponential map.  Deterministic given the rng state.

    The scaled noise is projected at the mean and shot in one pass per
    factor and chunk; the same bits as
    ``exp_map(m, mean, project_tangent(m, mean, scale * noise))``.
    """
    xi = rng.standard_normal(_draw_shape(m, size))
    xi *= np.repeat(g.per_factor_scale, [f.ambient_dim for f in m.factors])
    return _map(m, lambda f, x, a: _shoot(f, x, _project(f, x, a)),
                g.mean, xi)


def _normalize(f: FactorSpec, x):
    if f.kind == "euclidean":
        return x
    if f.kind == "preshape":
        x = _center(x, f)
    return x / _norm(x)


def random_point(m: ManifoldSpec, rng: np.random.Generator, size=None) -> np.ndarray:
    """Uniform-ish random point: Gaussian draws normalized / centered per copy."""
    return _map(m, _normalize, rng.standard_normal(_draw_shape(m, size)))


def random_tangent(
    m: ManifoldSpec, x, rng: np.random.Generator, max_norm: float | None = None
) -> np.ndarray:
    """Random tangent vector at x, optionally capped per sphere-like copy."""
    x = _as_coords(m, x, "x")

    def draw(f, xs, a):
        v = _project(f, xs, a)
        if max_norm is None or f.kind == "euclidean":
            return v
        n = _norm(v)
        over = n > max_norm
        return np.where(over, v * (max_norm / np.where(over, n, 1.0)), v)

    return _map(m, draw, x, rng.standard_normal(x.shape))
