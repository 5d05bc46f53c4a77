"""Skeletal motion data model and its embedding into product manifolds.

A representation's block order is declared once (``_BASES``, ``_layout``);
the manifold, the rest point and conversion both ways read it.  Conversion
works on stacked frames: each block, each rebuilt frame and forward
kinematics (one pass down the joint tree) cover all frames at once.

Conventions (fixed for reproducibility): y-up right-handed axes, quaternion
order (w, x, y, z), rotation index 0 is the global orientation, and all
quaternions are kept on the upper hemisphere (w > 0, ties broken by the
first nonzero of x, y, z).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import manifold as mf
from .errors import (DimensionMismatch, InvalidConfig, _build, _dataclass_schema, _fill,
                     require_int, require_number)

log = logging.getLogger(__name__)

QUAT_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

# Ambient-dimension formulas (a*J + b) of documented per-frame motion formats.
# Recorded as constants for dimension accounting only; the byte layouts of
# these external formats are out of scope.
FORMAT_DIMENSIONS: dict[str, tuple[int, int]] = {
    "humanml3d": (12, -1),
    "motionstreamer": (12, 8),
    "dart": (12, 12),
    "hy-motion": (9, 3),
    "rmg": (4, 3),
}


def format_ambient_dimension(fmt: str, joints: int) -> int:
    a, b = FORMAT_DIMENSIONS[fmt]
    return a * joints + b


# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------


def canonicalize_quaternion(q: np.ndarray) -> np.ndarray:
    """Normalize and flip sign so the first nonzero of (w, x, y, z) is positive.

    q and -q represent the same rotation; this picks a unique representative
    on the upper hemisphere.  Idempotent.  Works on (..., 4) arrays.
    """
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n < 1e-12):
        raise InvalidConfig("cannot canonicalize a zero quaternion")
    q = q / n
    sign = np.zeros(q.shape[:-1])
    for i in range(4):
        sign = np.where(sign == 0.0, np.sign(q[..., i]), sign)
    return q * sign[..., None]


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of (..., 4) quaternion arrays in (w, x, y, z) order."""
    aw, ax, ay, az = (a[..., i] for i in range(4))
    bw, bx, by, bz = (b[..., i] for i in range(4))
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise InvalidConfig("rotation axis must be nonzero")
    axis = axis / n
    half = 0.5 * angle
    return np.concatenate([[np.cos(half)], np.sin(half) * axis])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion; supports (..., 4) input."""
    w, x, y, z = (q[..., i] for i in range(4))
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        axis=-2,
    )


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (quat_to_matrix(q) @ v[..., None])[..., 0]


# ---------------------------------------------------------------------------
# skeleton and frames
# ---------------------------------------------------------------------------


@dataclass
class Skeleton:
    """Joint tree with fixed bone offsets defining the canonical T-pose."""

    parents: np.ndarray        # (J,) int, parents[0] == -1, parents[j] < j
    rest_offsets: np.ndarray   # (J, 3) meters, root offset is zero

    def __post_init__(self):
        parents = np.asarray(self.parents, dtype=object)  # 0.6 and True stay as given
        if parents.ndim != 1:
            raise InvalidConfig("parents must be a flat list of joint indices")
        for j, p in enumerate(parents):
            require_int(f"parent of joint {j}", p, -1)
        self.parents = parents.astype(int)
        self.rest_offsets = np.asarray(self.rest_offsets, dtype=float)
        J = self.parents.size
        if self.rest_offsets.shape != (J, 3):
            raise InvalidConfig(f"rest_offsets must be ({J}, 3)")
        if not np.isfinite(self.rest_offsets).all():
            raise InvalidConfig("rest_offsets must be finite")
        if J < 1 or self.parents[0] != -1:
            raise InvalidConfig("joint 0 must be the root (parent -1)")
        for j in range(1, J):
            if not 0 <= self.parents[j] < j:
                raise InvalidConfig(f"parent of joint {j} must precede it in the ordering")
        if np.any(self.rest_offsets[0] != 0.0):
            raise InvalidConfig("root rest offset must be zero")

    @property
    def joint_count(self) -> int:
        return int(self.parents.shape[0])

    def to_json_dict(self) -> dict:
        return {
            "parents": self.parents.tolist(),
            "rest_offsets": self.rest_offsets.tolist(),
        }


def default_skeleton() -> Skeleton:
    """22-joint SMPL-like test skeleton shipped with the package."""
    text = resources.files("rmgflow.data").joinpath("skeleton22.json").read_text()
    return _build(Skeleton, json.loads(text), "skeleton")


@dataclass
class MotionFrame:
    """Root translation plus J unit quaternions (index 0 = global orientation)."""

    root_translation: np.ndarray  # (3,)
    rotations: np.ndarray         # (J, 4), unit, hemisphere-canonical

    def __post_init__(self):
        self.root_translation = np.asarray(self.root_translation, dtype=float)
        self.rotations = np.asarray(self.rotations, dtype=float)
        if self.root_translation.shape != (3,):
            raise InvalidConfig("root_translation must be a 3-vector")
        if self.rotations.ndim != 2 or self.rotations.shape[1] != 4:
            raise InvalidConfig("rotations must be (J, 4)")
        for name in ("root_translation", "rotations"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidConfig(f"{name} must be finite")

    @property
    def joint_count(self) -> int:
        return int(self.rotations.shape[0])


@dataclass
class MotionSequence:
    frames: list[MotionFrame]
    fps: float
    skeleton: Skeleton

    def __post_init__(self):
        require_number("fps", self.fps, 0, open_low=True)
        J = self.skeleton.joint_count
        for i, f in enumerate(self.frames):
            if f.joint_count != J:
                raise DimensionMismatch(f"frame {i} has {f.joint_count} joints, skeleton has {J}")

    def __len__(self) -> int:
        return len(self.frames)


# ---------------------------------------------------------------------------
# representation configs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepresentationConfig:
    """Which factors participate in the per-frame manifold point; their order
    in the flat point is ``_layout``'s."""

    joints: int
    translation: bool = False
    rotations: bool = False
    preshape: bool = False
    d_translation: bool = False
    d_rotations: bool = False
    d_preshape: bool = False

    def __post_init__(self):
        require_int("joints", self.joints, 1)
        if not (self.translation or self.d_translation):
            raise InvalidConfig("config needs a translation or translation-difference factor")
        if not (self.rotations or self.preshape or self.d_rotations or self.d_preshape):
            raise InvalidConfig("config needs a rotation or pose factor")

    @property
    def has_differences(self) -> bool:
        return self.d_translation or self.d_rotations or self.d_preshape

    @classmethod
    def from_json_dict(cls, d) -> "RepresentationConfig":
        return _build(cls, d, "representation")


def ambient_dimension(cfg: RepresentationConfig) -> int:
    return config_to_manifold(cfg).total_ambient_dim


def config_to_manifold(cfg: RepresentationConfig) -> mf.ManifoldSpec:
    """Product manifold induced by the config.  A difference block holds
    tangent coordinates of its base, so its factor is Euclidean, as wide as
    the base factor and with its multiplicity."""
    return mf.ManifoldSpec([mf.euclidean(f.ambient_dim_per_copy, f.multiplicity) if diff else f
                            for _, f, diff in _layout(cfg)])


def _check_skeleton(skeleton: Skeleton | None, cfg: RepresentationConfig) -> None:
    if skeleton is None:
        raise InvalidConfig(f"motion needs a skeleton of {cfg.joints} joints: pass a skeleton "
                            f"file to convert, or to train for sample")
    if skeleton.joint_count != cfg.joints:
        raise DimensionMismatch(
            f"skeleton has {skeleton.joint_count} joints, config has {cfg.joints}")


# ---------------------------------------------------------------------------
# geometry of frames
# ---------------------------------------------------------------------------


def compute_preshape(positions: np.ndarray) -> np.ndarray:
    """Center the landmark rows and scale to unit Frobenius norm."""
    P = np.asarray(positions, dtype=float)
    centered = P - P.mean(axis=0, keepdims=True)
    norm = np.linalg.norm(centered)
    if norm <= 1e-12:
        raise InvalidConfig("all landmarks coincide; pre-shape undefined")
    return centered / norm


def _forward_kinematics(skeleton: Skeleton, translations, rotations) -> np.ndarray:
    """World positions (T, J, 3) of T stacked frames, given their root
    translations (T, 3) and rotations (T, J, 4): one pass down the joint tree,
    each joint composed for all frames at once."""
    T, J = rotations.shape[:2]
    if J != skeleton.joint_count:
        raise DimensionMismatch(f"rotations have {J} joints, skeleton has {skeleton.joint_count}")
    positions = np.empty((T, J, 3))
    positions[:, 0] = translations
    global_q = rotations.copy()  # joint 0's global rotation is its own
    for j in range(1, J):
        p = skeleton.parents[j]
        positions[:, j] = positions[:, p] + quat_rotate(global_q[:, p], skeleton.rest_offsets[j])
        global_q[:, j] = quat_multiply(global_q[:, p], rotations[:, j])
    return positions


def forward_kinematics(skeleton: Skeleton, frame: MotionFrame) -> np.ndarray:
    """World positions (J, 3) of one frame's joints."""
    return _forward_kinematics(skeleton, frame.root_translation[None], frame.rotations[None])[0]


def _stacked(frames: list[MotionFrame]) -> tuple[np.ndarray, np.ndarray]:
    """Root translations (T, 3) and rotations (T, J, 4) of the frames."""
    return (np.stack([f.root_translation for f in frames]),
            np.stack([f.rotations for f in frames]))


def _preshape_rows(skeleton: Skeleton | None, translations, rotations) -> np.ndarray:
    if skeleton is None:
        raise InvalidConfig("a pre-shape block needs a skeleton")
    return np.stack([compute_preshape(p).reshape(-1)
                     for p in _forward_kinematics(skeleton, translations, rotations)])


# The bases of a representation in block order, each as (its factor for J
# joints, its (T, width) rows from T stacked frames (``_stacked``) on a
# skeleton).
_BASES = {
    "translation": (lambda J: mf.euclidean(3), lambda skeleton, tr, rot: tr),
    "rotations": (lambda J: mf.sphere(3, multiplicity=J),
                  lambda skeleton, tr, rot: canonicalize_quaternion(rot).reshape(len(rot), -1)),
    "preshape": (lambda J: mf.preshape(J, 3), _preshape_rows),
}


def _layout(cfg: RepresentationConfig) -> list[tuple[str, mf.FactorSpec, bool]]:
    """``(base, base factor, is_difference)`` of each block in the flat order:
    the bases the config turns on, then their difference blocks.  A factor is
    built only when its flag is on (``preshape(1, 3)`` is invalid)."""
    return [(base, factor(cfg.joints), diff) for diff in (False, True)
            for base, (factor, _) in _BASES.items()
            if getattr(cfg, ("d_" if diff else "") + base)]


def reference_point(cfg: RepresentationConfig, skeleton: Skeleton | None = None) -> np.ndarray:
    """Rest pose with zero translation, the natural center of the manifold:
    base blocks at the rest frame (identity quaternions, the normalized
    T-pose of ``skeleton``), difference blocks zero."""
    rest = np.zeros((1, 3)), np.tile(QUAT_IDENTITY, (1, cfg.joints, 1))
    return np.concatenate([np.zeros(f.ambient_dim) if diff else _BASES[base][1](skeleton, *rest)[0]
                           for base, f, diff in _layout(cfg)])


def sequence_to_points(seq: MotionSequence, cfg: RepresentationConfig) -> np.ndarray:
    """(T, D) or (T-1, D) stack of per-frame points (one fewer with d-blocks).

    Each base is built once from the stacked frames; a d-block row is the
    base factor's ``log_map`` from frame t to frame t+1.
    """
    T = len(seq)
    if T < 1 + cfg.has_differences:
        raise InvalidConfig(f"need at least {1 + cfg.has_differences} frames")
    _check_skeleton(seq.skeleton, cfg)
    n = T - cfg.has_differences
    layout = _layout(cfg)
    frames = _stacked(seq.frames)
    rows = {base: _BASES[base][1](seq.skeleton, *frames)
            for base in dict.fromkeys(b for b, _, _ in layout)}  # each base once
    return np.concatenate([
        mf.log_map(mf.ManifoldSpec([f]), rows[base][:-1], rows[base][1:]) if diff
        else rows[base][:n] for base, f, diff in layout], axis=1)


def points_to_sequence(
    points: np.ndarray, cfg: RepresentationConfig, skeleton: Skeleton | None, fps: float
) -> MotionSequence:
    """Rebuild frames from point rows through the rotation factor, with one
    renormalization over all rows."""
    m = config_to_manifold(cfg)
    bases = {base: sl for (base, _, diff), (_, sl) in zip(_layout(cfg), m.blocks) if not diff}
    if "rotations" not in bases:
        raise InvalidConfig("cannot rebuild a frame without a rotation factor")
    _check_skeleton(skeleton, cfg)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    D = m.total_ambient_dim
    if len(points) and points.shape[1:] != (D,):
        raise DimensionMismatch(f"points have shape {points.shape}, expected (N, {D})")
    quats = points[:, bases["rotations"]].reshape(len(points), cfg.joints, 4)
    drift = float(np.max(np.abs(np.linalg.norm(quats, axis=-1) - 1.0), initial=0.0))
    if drift > 1e-6:
        log.warning("renormalizing quaternions with max norm drift %.3e", drift)
    rotations = canonicalize_quaternion(quats)
    translations = (points[:, bases["translation"]] if "translation" in bases
                    else np.zeros((len(points), 3)))
    frames = [MotionFrame(root_translation=t.copy(), rotations=r)
              for t, r in zip(translations, rotations)]
    return MotionSequence(frames=frames, fps=fps, skeleton=skeleton)


def convert_to_position_format(seq: MotionSequence) -> tuple[np.ndarray, np.ndarray]:
    """Joint positions plus forward-difference velocities (scaled by fps).

    The last frame repeats the previous velocity.  Returns two (T, J, 3)
    arrays.
    """
    if len(seq) < 2:
        raise InvalidConfig("need at least 2 frames for velocities")
    positions = _forward_kinematics(seq.skeleton, *_stacked(seq.frames))
    velocities = np.empty_like(positions)
    velocities[:-1] = (positions[1:] - positions[:-1]) * seq.fps
    velocities[-1] = velocities[-2]
    return positions, velocities


# ---------------------------------------------------------------------------
# motion file format
# ---------------------------------------------------------------------------


def load_motion_dict(doc: dict, tol: float = 1e-6) -> MotionSequence:
    """Parse the motion JSON document, its skeleton and each frame through
    the schema reader, rejecting invalid quaternions and auto-canonicalizing
    hemisphere signs (flip count is logged)."""
    require_number("tolerance", tol, 0)
    doc = _fill(doc, "motion", _dataclass_schema(MotionSequence))
    skeleton = _build(Skeleton, doc["skeleton"], "motion.skeleton")
    frames = []
    flips = 0
    for i, fr in enumerate(doc["frames"]):
        frame = _build(MotionFrame, fr, f"motion.frames[{i}]")
        rot = frame.rotations
        norms = np.linalg.norm(rot, axis=-1)
        bad = np.abs(norms - 1.0) > tol
        if np.any(bad):
            j = int(np.nonzero(bad)[0][0])
            raise InvalidConfig(
                f"frame {i}: quaternion {j} has norm {norms[j]:.6f} (tolerance {tol})"
            )
        frame.rotations = canonicalize_quaternion(rot)
        flips += int(np.sum(np.any(frame.rotations * rot < -tol, axis=-1)))
        frames.append(frame)
    if flips:
        log.info("canonicalized %d quaternion hemisphere signs on load", flips)
    return MotionSequence(frames=frames, fps=float(doc["fps"]), skeleton=skeleton)


def load_motion(path, tol: float = 1e-6) -> MotionSequence:
    with open(path) as fh:
        return load_motion_dict(json.load(fh), tol=tol)


def motion_to_dict(seq: MotionSequence) -> dict:
    return {
        "fps": seq.fps,
        "skeleton": seq.skeleton.to_json_dict(),
        "frames": [
            {
                "root_translation": f.root_translation.tolist(),
                "rotations": f.rotations.tolist(),
            }
            for f in seq.frames
        ],
    }


def save_motion(seq: MotionSequence, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(motion_to_dict(seq)))  # json.dump's bytes, see cli._write_json
