"""Toy dataset generators and desk-scale evaluation metrics.

Fidelity is measured with an unbiased squared MMD under a Gaussian kernel
on geodesic distances (the estimator may be slightly negative; raw values
are reported).  Diversity is proxied by geodesic mode-coverage fractions,
and the manifold-preservation claim by aggregate constraint deviations.

Scoring (``evaluate_samples``, ``geodesic_mmd``, ``median_bandwidth``)
streams the pairs of points and holds no N x M array.  The MMD is a sum of
per-pair kernels, an unbiased U-statistic, so it adds up block by block.
Every pair is computed once (``_score``): first the pairs of the median
heuristic's pool, whose median is the bandwidth; then the other pairs in
blocks of about ``mf.CHUNK_ELEMENTS`` entries on every usable CPU, each
block turned into its kernel sum and its nearest-reference minima while in
cache.  A set against itself takes each pair i < j once.  So, whatever N
and M, memory is bounded by the pool (at most ``MEDIAN_POOL_POINTS``
points: about 500k distances, 4 MB, plus the median's copy), two copies of
the points' coordinates and one block per usable CPU; the mode assignment
is one N x K distance matrix (``mf.distance``) for K modes.  Each block's
kernel values are summed by ``np.sum`` and each MMD term adds its block
sums left to right, in the order ``_score`` documents.  The blocks do not
depend on the number of CPUs, so neither do the bits.  The bandwidth, the
nearest-neighbour distances and the mode masses have the bits of full
distance matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import manifold as mf
from . import motion as mo
from .errors import DimensionMismatch, InvalidConfig, require_int, require_number, require_rows

MEDIAN_POOL_POINTS = 1000  # pool size of the median-heuristic bandwidth


@dataclass(frozen=True)
class MixtureComponent:
    mean: np.ndarray
    scale: float = 1.0
    weight: float = 1.0
    condition: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        if not np.isfinite(self.mean).all():
            raise InvalidConfig("component mean must be finite")
        require_number("component scale", self.scale, 0)
        require_number("component weight", self.weight, 0, open_low=True)


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
        require_int("sample_count", self.sample_count, 1)
        if np.asarray(self.axis, dtype=float).shape != (3,):
            raise InvalidConfig("axis must have 3 components")
        if not np.isfinite(self.axis).all():
            raise InvalidConfig(f"axis must be finite, got {self.axis}")
        for name in ("amplitude", "cycles"):
            require_number(name, getattr(self, name))
        require_number("fps", self.fps, 0, open_low=True)
        if self.kind in ("sphere_mixture", "fixed_point") and not self.components:
            raise InvalidConfig(f"{self.kind} needs at least one component")
        if self.kind == "sphere_mixture":
            total = sum(c.weight for c in self.components)
            if abs(total - 1.0) > 1e-9:
                raise InvalidConfig(f"mixture weights must sum to 1, got {total}")
        if self.kind == "rotating_joint" and self.representation is None:
            raise InvalidConfig("rotating_joint needs a representation")


def generate_toy_dataset(
    task: ToyTaskSpec, m: mf.ManifoldSpec, rng: np.random.Generator
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Sample (points, condition labels); labels are None when no component
    carries a condition.  Deterministic per rng state."""
    n = task.sample_count
    require_rows("sample_count", n, m.total_ambient_dim)
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
    skeleton, cfg = task.skeleton, task.representation
    mo._check_skeleton(skeleton, cfg)
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


def _pool(a: np.ndarray, b: np.ndarray) -> tuple[slice, slice]:
    """Rows of ``a`` and of ``b`` in the median heuristic's pool: every
    stride-th row of the stacked ``[a; b]``, with the stride chosen so that at
    most ``MEDIAN_POOL_POINTS`` rows remain (deterministic, no sampling)."""
    n = a.shape[0]
    total = n + b.shape[0]
    stride = int(np.ceil(total / MEDIAN_POOL_POINTS)) if total > MEDIAN_POOL_POINTS else 1
    return slice(0, n, stride), slice(-n % stride, None, stride)


class _Set:
    """n points as the contiguous planes of their ``mf._copies``, each
    ``(width, 2n)``: the points twice, so that the partners ``(i + d) mod n``
    of all i are the view ``[:, d:d + n]``."""

    def __init__(self, m: mf.ManifoldSpec, points: np.ndarray):
        if np.isnan(points).any():  # inf is left to the caller's errstate
            raise InvalidConfig("points to score must not be NaN")
        self.n = points.shape[0]
        self.planes = [np.concatenate([c, c], axis=-1) for c in mf._copies(m, points)]

    def within(self) -> list:
        """Blocks ``(left, right)`` of the pairs i < j, each pair once: for
        the offsets d = 1 .. (n - 1) // 2, in blocks of about
        ``CHUNK_ELEMENTS`` entries, the pairs (i, (i + d) mod n) for every i,
        of shape (offsets, n); then, for even n, the pairs (i, i + n / 2) for
        i < n / 2, of shape (1, n / 2)."""
        n, x = self.n, self.planes
        last = (n - 1) // 2
        step = max(1, mf.CHUNK_ELEMENTS // max(1, n))
        blocks = [([c[:, None, :n] for c in x],
                   [sliding_window_view(c, n, axis=-1)[:, d:min(d + step, last + 1)] for c in x])
                  for d in range(1, last + 1, step)]
        if n and n % 2 == 0:
            blocks.append(([c[:, None, :n // 2] for c in x], [c[:, None, n // 2:n] for c in x]))
        return blocks

    def across(self, other: "_Set") -> list:
        """Blocks ``(left, right)`` of all pairs (i, j) of these points and
        ``other``'s: rows i in blocks of about ``CHUNK_ELEMENTS`` entries, all
        j, of shape (rows, other.n); none if other is empty."""
        step = max(1, mf.CHUNK_ELEMENTS // max(1, other.n))
        right = [c[:, None, :other.n] for c in other.planes]
        return [([c[:, r:min(r + step, self.n), None] for c in self.planes], right)
                for r in range(0, self.n if other.n else 0, step)]


def _pool_distances(m: mf.ManifoldSpec, pa: _Set, pb: _Set) -> list[list[np.ndarray]]:
    """The distances of the median heuristic's pool ``pa``, ``pb``, on every
    usable CPU: the blocks (``_Set``) of its pairs within pa, of pa x pb and
    within pb, as three lists."""
    groups = [pa.within(), pa.across(pb), pb.within()]
    done = iter(mf._map_blocks(lambda block: mf._copy_distance(m, *block),
                               [block for group in groups for block in group]))
    return [[next(done) for _ in group] for group in groups]


def _median(groups: list[list[np.ndarray]]) -> float:
    """The median of the distances of all blocks in ``groups``."""
    return float(np.median(np.concatenate([d.ravel() for group in groups for d in group]),
                           overwrite_input=True))


def median_bandwidth(m: mf.ManifoldSpec, a: np.ndarray, b: np.ndarray) -> float:
    """Median heuristic over pooled pairwise distances (strided subsample
    beyond MEDIAN_POOL_POINTS so the estimate stays deterministic)."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    _check_widths(m, a=a.shape, b=b.shape)
    ia, ib = _pool(a, b)
    return _median(_pool_distances(m, _Set(m, a[ia]), _Set(m, b[ib])))


def _check_widths(m: mf.ManifoldSpec, **shapes: tuple) -> None:
    """Raise DimensionMismatch unless each named shape is that of rows of
    points of the manifold, ``(count, m.total_ambient_dim)``."""
    for name, shape in shapes.items():
        if tuple(shape[1:]) != (m.total_ambient_dim,):
            raise DimensionMismatch(f"{name} dimension {' x '.join(map(str, shape[1:]))} "
                                    f"does not match the manifold ({m.total_ambient_dim})")


def check_scoring(m: mf.ManifoldSpec, samples_shape: tuple, reference_shape: tuple,
                  bandwidth: Optional[float] = None,
                  modes: Optional[Sequence[np.ndarray]] = None,
                  assign_radius: float = 1.0) -> None:
    """Raise unless samples of shape ``samples_shape`` can be scored against
    reference points of shape ``reference_shape`` (each ``(count, width)``)
    with this bandwidth (None: the median heuristic's, checked once it is
    chosen), modes and radius.  The counts are checked before the widths, so
    an empty set of any width gives InvalidConfig."""
    num_samples, num_reference = samples_shape[0], reference_shape[0]
    if num_samples < 2 or num_reference < 2:
        raise InvalidConfig(f"MMD needs at least 2 points per set, got {num_samples} samples "
                            f"and {num_reference} reference points")
    _check_widths(m, samples=samples_shape, reference=reference_shape)
    if bandwidth is not None:
        require_number("bandwidth", bandwidth, 0, open_low=True)
    if modes is not None and len(modes):
        if any(np.shape(mode) != (m.total_ambient_dim,) for mode in modes):
            raise DimensionMismatch(f"modes must be points of dimension {m.total_ambient_dim}")
        if not np.isfinite(modes).all():
            raise InvalidConfig("modes must be finite")
        require_number("assign_radius", assign_radius, 0)


def _score(m: mf.ManifoldSpec, a: np.ndarray, b: np.ndarray,
           bandwidth: Optional[float]) -> tuple[float, float, np.ndarray]:
    """``(bandwidth, mmd, nearest)``: the bandwidth (given, or the median
    heuristic's), the unbiased squared MMD of a against b, and the distance
    from each row of a to its nearest row of b.

    Every pair is computed once, in two passes.  The pairs of the pool
    (P_a, P_b: ``_pool``) come first (``_pool_distances``); their median is
    the heuristic bandwidth.  Then the pairs of the rest of each set (Q_a,
    Q_b: the rows not pooled, in order) are streamed on every usable CPU,
    each block turned into kernel values while it is in cache.  The pairs of
    each MMD term are, in this order,
    a x a: within P_a, P_a x Q_a, within Q_a;
    a x b: P_a x P_b, P_a x Q_b, Q_a x P_b, Q_a x Q_b;
    b x b: within P_b, P_b x Q_b, within Q_b;
    each in the blocks of ``_Set``.  A block's kernel values are summed by
    ``np.sum`` over the block, and a term's block sums are added left to right
    in that order.  The blocks do not depend on the number of CPUs, so
    neither do the bits."""
    ia, ib = _pool(a, b)
    pa, pb = _Set(m, a[ia]), _Set(m, b[ib])
    pool = _pool_distances(m, pa, pb)
    if bandwidth is None:
        bandwidth = _median(pool)
        check_scoring(m, a.shape, b.shape, bandwidth)
    s2 = 2.0 * bandwidth * bandwidth

    def kernel_sum(d):
        """Sum of the kernel exp(-d^2 / s2) over the block d, overwritten."""
        np.multiply(d, d, out=d)
        np.divide(d, -s2, out=d)  # the bits of -(d^2) / s2
        np.exp(d, out=d)
        return float(d.sum())

    # the nearest distances of the rows of P_a and of Q_a, one array per group
    near_pa = [np.concatenate([d.min(axis=1) for d in pool[1]])] if pool[1] else []
    near_qa = []
    sums = [[kernel_sum(d) for d in group] for group in pool]
    del pool
    qa, qb = _Set(m, np.delete(a, ia, axis=0)), _Set(m, np.delete(b, ib, axis=0))
    groups = [(0, None, pa.across(qa)), (0, None, qa.within()),
              (1, near_pa, pa.across(qb)), (1, near_qa, qa.across(pb)),
              (1, near_qa, qa.across(qb)),
              (2, None, pb.across(qb)), (2, None, qb.within())]

    def run(term_block):
        term, block = term_block
        d = mf._copy_distance(m, *block)
        return d.min(axis=1) if term == 1 else None, kernel_sum(d)

    done = iter(mf._map_blocks(run, [(term, block) for term, _, group in groups
                                     for block in group]))
    for term, near, group in groups:
        results = [next(done) for _ in group]
        sums[term] += [s for _, s in results]
        if near is not None and results:
            near.append(np.concatenate([row_min for row_min, _ in results]))
    nearest = np.empty(a.shape[0])
    nearest[ia] = np.minimum.reduce(near_pa)
    if qa.n:
        nearest[np.delete(np.arange(a.shape[0]), ia)] = np.minimum.reduce(near_qa)
    n, k = a.shape[0], b.shape[0]
    # reduce, not sum(), which compensates its float additions from Python 3.12
    aa, ab, bb = (reduce(add, term, 0.0) for term in sums)
    mmd = aa / (n * (n - 1) // 2) + bb / (k * (k - 1) // 2) - 2.0 * (ab / (n * k))
    return bandwidth, float(mmd), nearest


def geodesic_mmd(
    m: mf.ManifoldSpec, a: np.ndarray, b: np.ndarray, bandwidth: float
) -> float:
    """Unbiased squared MMD with kernel exp(-d(x,y)^2 / (2 sigma^2)), summed
    in the order of ``_score``."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    check_scoring(m, a.shape, b.shape, bandwidth)
    return _score(m, a, b, bandwidth)[1]


def _mode_coverage(
    m: mf.ManifoldSpec,
    samples: np.ndarray,
    modes: Sequence[np.ndarray],
    assign_radius: float,
) -> tuple[np.ndarray, float]:
    """Fraction of samples nearest each mode within the radius, plus the
    outlier fraction; fractions sum to 1 exactly."""
    n = samples.shape[0]
    d = mf.distance(m, samples[:, None], np.stack([np.asarray(mm) for mm in modes])[None])
    nearest = d.argmin(axis=1)
    within = d[np.arange(n), nearest] <= assign_radius
    counts = np.bincount(nearest[within], minlength=len(modes))
    return counts / n, float(np.sum(~within) / n)


@dataclass
class ConstraintStats:
    """The largest point-constraint deviation of a sample set (NaN if any
    deviation is NaN); per-factor deviations are ``mf.point_deviations``."""

    max_deviation: float


def constraint_violation_stats(m: mf.ManifoldSpec, samples: np.ndarray) -> ConstraintStats:
    return ConstraintStats(max_deviation=mf.max_constraint_deviation(m, samples))


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
    """Score ``samples`` against ``reference`` in one streamed pass over
    their pairs (``_score``); a NaN or infinite coordinate is refused first,
    naming its set."""
    samples = np.atleast_2d(samples)
    reference = np.atleast_2d(reference)
    check_scoring(m, samples.shape, reference.shape, bandwidth, modes, assign_radius)
    for name, points in (("samples", samples), ("reference", reference)):
        if not np.isfinite(points).all():
            raise InvalidConfig(f"{name} must be finite")
    if modes is not None and len(modes):
        mass, outliers = _mode_coverage(m, samples, modes, assign_radius)
    else:
        mass, outliers = np.array([1.0]), 0.0
    bandwidth, mmd, nearest = _score(m, samples, reference, bandwidth)
    return MetricReport(
        mmd=mmd,
        per_mode_mass=tuple(float(x) for x in mass),
        outlier_fraction=outliers,
        max_constraint_violation=mf.max_constraint_deviation(m, samples),
        mean_geodesic_nn_distance=float(nearest.mean()),
        sample_count=samples.shape[0],
        bandwidth=float(bandwidth),
    )
