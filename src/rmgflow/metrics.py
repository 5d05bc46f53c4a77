"""Toy dataset generators and desk-scale evaluation metrics.

Fidelity is measured with an unbiased squared MMD under a Gaussian kernel
on geodesic distances (the estimator may be slightly negative; raw values
are reported).  Diversity is proxied by geodesic mode-coverage fractions,
and the manifold-preservation claim by aggregate constraint deviations.

``evaluate_samples`` builds each of its three distance matrices
(samples x samples, reference x reference, samples x reference) once.  It
reads the median-heuristic bandwidth and the nearest-neighbour distances
from them, then overwrites each with its kernel in place, so no more than
those three N x M arrays (plus pool-sized scratch) are alive at once.  The
report is bitwise equal to computing a fresh matrix for every term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import manifold as mf
from . import motion as mo
from .errors import EmptyBatch, InvalidConfig

MEDIAN_POOL_POINTS = 1000  # pool size of the median-heuristic bandwidth


@dataclass(frozen=True)
class MixtureComponent:
    mean: np.ndarray
    scale: float = 1.0
    weight: float = 1.0
    condition: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        if not self.scale >= 0:  # NaN fails too
            raise InvalidConfig("component scale must be >= 0")
        if not self.weight > 0:
            raise InvalidConfig("component weight must be positive")


@dataclass(frozen=True)
class ToyTaskSpec:
    """Desk-scale data source: a wrapped-Gaussian mixture, a single fixed
    point, or a synthetic sequence with one sinusoidally sweeping joint."""

    kind: str
    sample_count: int
    components: tuple[MixtureComponent, ...] = ()
    # rotating_joint parameters
    joint: int = 1
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    amplitude: float = 1.0
    cycles: float = 2.0
    fps: float = 30.0
    representation: Optional[mo.RepresentationConfig] = None
    skeleton: Optional[mo.Skeleton] = None

    def __post_init__(self):
        if self.kind not in ("sphere_mixture", "fixed_point", "rotating_joint"):
            raise InvalidConfig(f"unknown toy task kind {self.kind!r}")
        if self.sample_count < 1:
            raise InvalidConfig("sample_count must be >= 1")
        if np.asarray(self.axis, dtype=float).shape != (3,):
            raise InvalidConfig("axis must have 3 components")
        for name in ("axis", "amplitude", "cycles"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidConfig(f"{name} must be finite, got {getattr(self, name)}")
        if self.kind in ("sphere_mixture", "fixed_point") and not self.components:
            raise InvalidConfig(f"{self.kind} needs at least one component")
        if self.kind == "sphere_mixture":
            total = sum(c.weight for c in self.components)
            if abs(total - 1.0) > 1e-9:
                raise InvalidConfig(f"mixture weights must sum to 1, got {total}")


def generate_toy_dataset(
    task: ToyTaskSpec, m: mf.ManifoldSpec, rng: np.random.Generator
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Sample (points, condition labels); labels are None when no component
    carries a condition.  Deterministic per rng state."""
    n = task.sample_count
    if task.kind == "rotating_joint":
        return _rotating_joint_points(task, m), None
    if any(c.mean.shape != (m.total_ambient_dim,) for c in task.components):
        raise InvalidConfig(f"component means must have length {m.total_ambient_dim}")
    if task.kind == "fixed_point":
        comp = task.components[0]
        pts = np.tile(comp.mean, (n, 1))
        cond = None
        if comp.condition is not None:
            cond = np.full(n, comp.condition)
        return pts, cond
    weights = np.array([c.weight for c in task.components])
    comp_idx = rng.choice(len(task.components), size=n, p=weights)
    means = np.stack([c.mean for c in task.components])[comp_idx]
    scales = np.array([c.scale for c in task.components])[comp_idx]
    xi = scales[:, None] * rng.standard_normal((n, m.total_ambient_dim))
    v = mf.project_tangent(m, means, xi)
    pts = mf.exp_map(m, means, v)
    labels = [c.condition for c in task.components]
    cond = None
    if any(l is not None for l in labels):
        table = np.array([0 if l is None else l for l in labels])
        cond = table[comp_idx]
    return pts, cond


def _rotating_joint_points(task: ToyTaskSpec, m: mf.ManifoldSpec) -> np.ndarray:
    skeleton = task.skeleton or mo.default_skeleton()
    cfg = task.representation or mo.RepresentationConfig(
        joints=skeleton.joint_count, translation=True, rotations=True
    )
    if not 0 <= task.joint < skeleton.joint_count:
        raise InvalidConfig(f"joint must lie in [0, {skeleton.joint_count})")
    frames = []
    for i in range(task.sample_count + int(cfg.has_differences)):
        phase = 2.0 * np.pi * task.cycles * i / task.sample_count
        angle = task.amplitude * np.sin(phase)
        rot = np.tile(mo.QUAT_IDENTITY, (skeleton.joint_count, 1))
        rot[task.joint] = mo.canonicalize_quaternion(
            mo.quat_from_axis_angle(task.axis, angle)
        )
        # slow forward drift so the translation factor is not degenerate
        trans = np.array([0.01 * i / task.fps, 0.0, 0.0])
        frames.append(mo.MotionFrame(root_translation=trans, rotations=rot))
    seq = mo.MotionSequence(frames=frames, fps=task.fps, skeleton=skeleton)
    pts = mo.sequence_to_points(seq, cfg)
    if pts.shape[1] != m.total_ambient_dim:
        raise InvalidConfig("rotating_joint representation disagrees with the manifold")
    return pts


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def pairwise_distance(m: mf.ManifoldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geodesic distance matrix; ``mf.distance`` bounds memory by row chunks."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    return mf.distance(m, a[:, None, :], b[None, :, :])


def _pool(a: np.ndarray, b: np.ndarray, max_points: int) -> tuple[slice, slice]:
    """Rows of ``a`` and of ``b`` in the median heuristic's pool: every
    stride-th row of the stacked ``[a; b]``, with the stride chosen so that at
    most ``max_points`` rows remain (deterministic, no sampling)."""
    n = a.shape[0]
    total = n + b.shape[0]
    stride = int(np.ceil(total / max_points)) if total > max_points else 1
    return slice(0, n, stride), slice(-n % stride, None, stride)


def _pooled_median(d_aa: np.ndarray, d_ab: np.ndarray, d_bb: np.ndarray) -> float:
    """Median over the distinct pairs of the pool ``[a; b]``, read from its
    within-a, across and within-b distance blocks."""
    def upper(d):
        return d[np.triu(np.ones(d.shape, dtype=bool), k=1)]

    values = np.concatenate([upper(d_aa), d_ab.ravel(), upper(d_bb)])
    return float(np.median(values, overwrite_input=True))


def median_bandwidth(
    m: mf.ManifoldSpec, a: np.ndarray, b: np.ndarray, max_points: int = MEDIAN_POOL_POINTS
) -> float:
    """Median heuristic over pooled pairwise distances (strided subsample
    beyond max_points so the estimate stays deterministic)."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    ia, ib = _pool(a, b, max_points)
    pa, pb = a[ia], b[ib]
    return _pooled_median(pairwise_distance(m, pa, pa), pairwise_distance(m, pa, pb),
                          pairwise_distance(m, pb, pb))


def _check_mmd(a: np.ndarray, b: np.ndarray, bandwidth: Optional[float]) -> None:
    """Raise unless both sets hold 2 points and the bandwidth, once chosen,
    is positive."""
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise EmptyBatch("MMD needs at least 2 samples per batch")
    if bandwidth is not None and not bandwidth > 0:  # NaN fails too
        raise InvalidConfig("bandwidth must be positive")


def _kernel_mean(d: np.ndarray, s2: float, same_set: bool):
    """Mean of the kernel exp(-d^2 / s2) over the pairs of distance matrix
    ``d``, skipping the diagonal when both sides are one set.  ``d`` is
    overwritten with the kernel matrix."""
    np.multiply(d, d, out=d)
    np.negative(d, out=d)
    np.divide(d, s2, out=d)
    np.exp(d, out=d)
    n, mm = d.shape
    if same_set:
        return (d.sum() - np.trace(d)) / (n * (n - 1))
    return d.sum() / (n * mm)


def _mmd(d_aa: np.ndarray, d_bb: np.ndarray, d_ab: np.ndarray, bandwidth: float) -> float:
    """Unbiased squared MMD from the three distance matrices, which are
    overwritten with their kernels."""
    s2 = 2.0 * bandwidth * bandwidth
    return float(_kernel_mean(d_aa, s2, True) + _kernel_mean(d_bb, s2, True)
                 - 2.0 * _kernel_mean(d_ab, s2, False))


def geodesic_mmd(
    m: mf.ManifoldSpec, a: np.ndarray, b: np.ndarray, bandwidth: float
) -> float:
    """Unbiased squared MMD with kernel exp(-d(x,y)^2 / (2 sigma^2))."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    _check_mmd(a, b, bandwidth)
    return _mmd(pairwise_distance(m, a, a), pairwise_distance(m, b, b),
                pairwise_distance(m, a, b), bandwidth)


def mode_coverage(
    m: mf.ManifoldSpec,
    samples: np.ndarray,
    modes: Sequence[np.ndarray],
    assign_radius: float,
) -> tuple[np.ndarray, float]:
    """Fraction of samples nearest each mode within the radius, plus the
    outlier fraction; fractions sum to 1 exactly."""
    if len(modes) == 0:
        raise InvalidConfig("mode list must be nonempty")
    if not assign_radius >= 0:  # NaN fails too
        raise InvalidConfig("assign_radius must be >= 0")
    samples = np.atleast_2d(samples)
    n = samples.shape[0]
    d = pairwise_distance(m, samples, np.stack([np.asarray(mm) for mm in modes]))
    nearest = d.argmin(axis=1)
    within = d[np.arange(n), nearest] <= assign_radius
    counts = np.bincount(nearest[within], minlength=len(modes))
    return counts / n, float(np.sum(~within) / n)


@dataclass
class ConstraintStats:
    max_sphere_norm_dev: float = 0.0
    max_preshape_centroid_dev: float = 0.0
    max_preshape_norm_dev: float = 0.0
    sample_count: int = 0

    @property
    def max_deviation(self) -> float:
        return float(np.max([self.max_sphere_norm_dev, self.max_preshape_centroid_dev,
                             self.max_preshape_norm_dev]))


def constraint_violation_stats(m: mf.ManifoldSpec, samples: np.ndarray) -> ConstraintStats:
    samples = np.atleast_2d(samples)
    worst = {"sphere": [], "preshape": [], "centroid": []}
    for i, name, dev in mf.point_deviations(m, samples):
        worst["centroid" if name == "centroid" else m.factors[i].kind].append(dev.max())
    return ConstraintStats(
        max_sphere_norm_dev=float(np.max(worst["sphere"], initial=0.0)),
        max_preshape_centroid_dev=float(np.max(worst["centroid"], initial=0.0)),
        max_preshape_norm_dev=float(np.max(worst["preshape"], initial=0.0)),
        sample_count=samples.shape[0],
    )


@dataclass
class MetricReport:
    mmd: float
    per_mode_mass: tuple[float, ...]
    outlier_fraction: float
    max_constraint_violation: float
    mean_geodesic_nn_distance: float
    sample_count: int
    bandwidth: float

    def __post_init__(self):
        total = sum(self.per_mode_mass) + self.outlier_fraction
        if abs(total - 1.0) > 1e-9:
            raise InvalidConfig(f"mode masses + outliers must sum to 1, got {total}")
        values = [self.mmd, self.outlier_fraction, self.max_constraint_violation,
                  self.mean_geodesic_nn_distance, *self.per_mode_mass]
        if not np.all(np.isfinite(values)):
            raise InvalidConfig("metric report contains non-finite values")

    def to_json_dict(self) -> dict:
        return {
            "mmd": self.mmd,
            "per_mode_mass": list(self.per_mode_mass),
            "outlier_fraction": self.outlier_fraction,
            "max_constraint_violation": self.max_constraint_violation,
            "mean_geodesic_nn_distance": self.mean_geodesic_nn_distance,
            "sample_count": self.sample_count,
            "bandwidth": self.bandwidth,
        }

    def csv_row(self, seed: int, guidance_scale: float) -> str:
        mode0 = self.per_mode_mass[0] if self.per_mode_mass else 0.0
        mode1 = self.per_mode_mass[1] if len(self.per_mode_mass) > 1 else 0.0
        return (f"{seed},{guidance_scale:.12g},{self.mmd:.12g},{mode0:.12g},"
                f"{mode1:.12g},{self.outlier_fraction:.12g},"
                f"{self.max_constraint_violation:.12g}")


CSV_HEADER = "seed,guidance_scale,mmd,mode0,mode1,outliers,max_violation"


def evaluate_samples(
    m: mf.ManifoldSpec,
    samples: np.ndarray,
    reference: np.ndarray,
    bandwidth: Optional[float] = None,
    modes: Optional[Sequence[np.ndarray]] = None,
    assign_radius: float = 1.0,
) -> MetricReport:
    samples = np.atleast_2d(samples)
    reference = np.atleast_2d(reference)
    if samples.shape[0] == 0 or reference.shape[0] == 0:
        raise EmptyBatch("evaluation needs nonempty sample and reference sets")
    _check_mmd(samples, reference, bandwidth)
    if modes:
        mass, outliers = mode_coverage(m, samples, modes, assign_radius)
    else:
        mass, outliers = np.array([1.0]), 0.0
    # Each matrix is built once; _mmd overwrites it with its kernel.
    d_ss = pairwise_distance(m, samples, samples)
    d_rr = pairwise_distance(m, reference, reference)
    d_sr = pairwise_distance(m, samples, reference)
    if bandwidth is None:
        ia, ib = _pool(samples, reference, MEDIAN_POOL_POINTS)
        bandwidth = _pooled_median(d_ss[ia, ia], d_sr[ia, ib], d_rr[ib, ib])
        _check_mmd(samples, reference, bandwidth)
    nn = float(d_sr.min(axis=1).mean())
    mmd = _mmd(d_ss, d_rr, d_sr, bandwidth)
    return MetricReport(
        mmd=mmd,
        per_mode_mass=tuple(float(x) for x in mass),
        outlier_fraction=outliers,
        max_constraint_violation=mf.max_constraint_deviation(m, samples),
        mean_geodesic_nn_distance=nn,
        sample_count=samples.shape[0],
        bandwidth=float(bandwidth),
    )
