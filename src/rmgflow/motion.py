"""Skeletal motion data model and its embedding into product manifolds.

Conversion is sequence ↔ points: ``sequence_to_points`` builds each factor
block from the stacked frames at once, and ``points_to_sequence`` rebuilds
all frames from the rotation factor at once.

Conventions (fixed for reproducibility): y-up right-handed axes, quaternion
order (w, x, y, z), rotation index 0 is the global orientation, and all
quaternions are kept on the upper hemisphere (w > 0, ties broken by the
first nonzero of x, y, z).
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from . import manifold as mf
from .errors import (
    ConfigLacksRotations,
    DegenerateConfiguration,
    DimensionMismatch,
    InvalidConfig,
    SequenceTooShort,
    SkeletonMismatch,
    ZeroQuaternion,
)

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
        raise ZeroQuaternion("cannot canonicalize a zero quaternion")
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
        raise ZeroQuaternion("rotation axis must be nonzero")
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
        self.parents = np.asarray(self.parents, dtype=int)
        self.rest_offsets = np.asarray(self.rest_offsets, dtype=float)
        J = self.parents.size
        if self.parents.ndim != 1:
            raise InvalidConfig("parents must be a flat list of joint indices")
        if self.rest_offsets.shape != (J, 3):
            raise InvalidConfig(f"rest_offsets must be ({J}, 3)")
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

    @classmethod
    def from_json_dict(cls, d: dict) -> "Skeleton":
        return cls(parents=d["parents"], rest_offsets=d["rest_offsets"])


def default_skeleton() -> Skeleton:
    """22-joint SMPL-like test skeleton shipped with the package."""
    text = resources.files("rmgflow.data").joinpath("skeleton22.json").read_text()
    return Skeleton.from_json_dict(json.loads(text))


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

    @property
    def joint_count(self) -> int:
        return int(self.rotations.shape[0])


def rest_frame(skeleton: Skeleton) -> MotionFrame:
    return MotionFrame(
        root_translation=np.zeros(3),
        rotations=np.tile(QUAT_IDENTITY, (skeleton.joint_count, 1)),
    )


@dataclass
class MotionSequence:
    frames: list[MotionFrame]
    fps: float
    skeleton: Skeleton

    def __post_init__(self):
        if not self.fps > 0:  # NaN fails too
            raise InvalidConfig("fps must be positive")
        J = self.skeleton.joint_count
        for i, f in enumerate(self.frames):
            if f.joint_count != J:
                raise SkeletonMismatch(f"frame {i} has {f.joint_count} joints, skeleton has {J}")

    def __len__(self) -> int:
        return len(self.frames)


# ---------------------------------------------------------------------------
# representation configs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepresentationConfig:
    """Which factors participate in the per-frame manifold point.

    Factor order in the flat layout is fixed: translation, rotations,
    preshape, then the temporal-difference blocks in the same order.
    """

    joints: int
    translation: bool = False
    rotations: bool = False
    preshape: bool = False
    d_translation: bool = False
    d_rotations: bool = False
    d_preshape: bool = False

    def __post_init__(self):
        if self.joints < 1:
            raise InvalidConfig("joints must be >= 1")
        if not (self.translation or self.d_translation):
            raise InvalidConfig("config needs a translation or translation-difference factor")
        if not (self.rotations or self.preshape or self.d_rotations or self.d_preshape):
            raise InvalidConfig("config needs a rotation or pose factor")

    @property
    def has_differences(self) -> bool:
        return self.d_translation or self.d_rotations or self.d_preshape

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "RepresentationConfig":
        return cls(**d)


def ambient_dimension(cfg: RepresentationConfig) -> int:
    return config_to_manifold(cfg).total_ambient_dim


def config_to_manifold(cfg: RepresentationConfig) -> mf.ManifoldSpec:
    """Product manifold induced by the config (difference blocks are tangent
    coordinates attached to the data, hence Euclidean factors)."""
    J = cfg.joints
    factors = []
    if cfg.translation:
        factors.append(mf.euclidean(3))
    if cfg.rotations:
        factors.append(mf.sphere(3, multiplicity=J))
    if cfg.preshape:
        factors.append(mf.preshape(J, 3))
    if cfg.d_translation:
        factors.append(mf.euclidean(3))
    if cfg.d_rotations:
        factors.append(mf.euclidean(4, multiplicity=J))
    if cfg.d_preshape:
        factors.append(mf.euclidean(3 * J))
    return mf.ManifoldSpec(factors)


# ---------------------------------------------------------------------------
# geometry of frames
# ---------------------------------------------------------------------------


def compute_preshape(positions: np.ndarray) -> np.ndarray:
    """Center the landmark rows and scale to unit Frobenius norm."""
    P = np.asarray(positions, dtype=float)
    centered = P - P.mean(axis=0, keepdims=True)
    norm = np.linalg.norm(centered)
    if norm <= 1e-12:
        raise DegenerateConfiguration("all landmarks coincide; pre-shape undefined")
    return centered / norm


def forward_kinematics(skeleton: Skeleton, frame: MotionFrame) -> np.ndarray:
    """World positions of all joints, composing rotations down the tree."""
    J = skeleton.joint_count
    if frame.joint_count != J:
        raise SkeletonMismatch(f"frame has {frame.joint_count} joints, skeleton has {J}")
    positions = np.empty((J, 3))
    global_q = np.empty((J, 4))
    positions[0] = frame.root_translation
    global_q[0] = frame.rotations[0]
    for j in range(1, J):
        p = skeleton.parents[j]
        positions[j] = positions[p] + quat_rotate(global_q[p], skeleton.rest_offsets[j])
        global_q[j] = quat_multiply(global_q[p], frame.rotations[j])
    return positions


def sequence_to_points(seq: MotionSequence, cfg: RepresentationConfig) -> np.ndarray:
    """(T, D) or (T-1, D) stack of per-frame points (one fewer with d-blocks).

    Each block is built once from the stacked frames; a d-block row holds the
    tangent from frame t to frame t+1.  Forward kinematics runs once per frame.
    """
    frames = seq.frames
    T = len(frames)
    if T < 1 + cfg.has_differences:
        raise SequenceTooShort(f"need at least {1 + cfg.has_differences} frames")
    if seq.skeleton.joint_count != cfg.joints:
        raise SkeletonMismatch(
            f"skeleton has {seq.skeleton.joint_count} joints, config has {cfg.joints}")
    n = T - cfg.has_differences
    translations = np.stack([f.root_translation for f in frames])
    quats = canonicalize_quaternion(np.stack([f.rotations for f in frames])).reshape(T, -1)
    if cfg.preshape or cfg.d_preshape:
        shapes = np.stack([compute_preshape(forward_kinematics(seq.skeleton, f)).reshape(-1)
                           for f in frames])
    blocks = []
    if cfg.translation:
        blocks.append(translations[:n])
    if cfg.rotations:
        blocks.append(quats[:n])
    if cfg.preshape:
        blocks.append(shapes[:n])
    if cfg.d_translation:
        blocks.append(translations[1:] - translations[:-1])
    if cfg.d_rotations:
        s3 = mf.ManifoldSpec([mf.sphere(3, multiplicity=cfg.joints)])
        blocks.append(mf.log_map(s3, quats[:-1], quats[1:]))
    if cfg.d_preshape:
        pk = mf.ManifoldSpec([mf.preshape(cfg.joints, 3)])
        blocks.append(mf.log_map(pk, shapes[:-1], shapes[1:]))
    return np.concatenate(blocks, axis=1)


def points_to_sequence(
    points: np.ndarray, cfg: RepresentationConfig, skeleton: Skeleton, fps: float
) -> MotionSequence:
    """Rebuild frames from point rows through the rotation factor, with one
    renormalization over all rows."""
    if not cfg.rotations:
        raise ConfigLacksRotations("cannot rebuild a frame without a rotation factor")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    D = ambient_dimension(cfg)
    if len(points) and points.shape[1:] != (D,):
        raise DimensionMismatch(f"points have shape {points.shape}, expected (N, {D})")
    off = 3 if cfg.translation else 0
    quats = points[:, off : off + 4 * cfg.joints].reshape(len(points), cfg.joints, 4)
    drift = float(np.max(np.abs(np.linalg.norm(quats, axis=-1) - 1.0), initial=0.0))
    if drift > 1e-6:
        log.warning("renormalizing quaternions with max norm drift %.3e", drift)
    rotations = canonicalize_quaternion(quats)
    translations = points[:, :3] if cfg.translation else np.zeros((len(points), 3))
    frames = [MotionFrame(root_translation=t.copy(), rotations=r)
              for t, r in zip(translations, rotations)]
    return MotionSequence(frames=frames, fps=fps, skeleton=skeleton)


def convert_to_position_format(seq: MotionSequence) -> tuple[np.ndarray, np.ndarray]:
    """Joint positions plus forward-difference velocities (scaled by fps).

    The last frame repeats the previous velocity.  Returns two (T, J, 3)
    arrays.
    """
    if len(seq) < 2:
        raise SequenceTooShort("need at least 2 frames for velocities")
    positions = np.stack([forward_kinematics(seq.skeleton, f) for f in seq.frames])
    velocities = np.empty_like(positions)
    velocities[:-1] = (positions[1:] - positions[:-1]) * seq.fps
    velocities[-1] = velocities[-2]
    return positions, velocities


# ---------------------------------------------------------------------------
# motion file format
# ---------------------------------------------------------------------------


def load_motion_dict(doc: dict, tol: float = 1e-6) -> MotionSequence:
    """Parse the motion JSON document, rejecting invalid quaternions and
    auto-canonicalizing hemisphere signs (flip count is logged)."""
    skeleton = Skeleton(
        parents=doc["skeleton"]["parents"],
        rest_offsets=doc["skeleton"]["rest_offsets"],
    )
    frames = []
    flips = 0
    for i, fr in enumerate(doc["frames"]):
        frame = MotionFrame(root_translation=fr["root_translation"], rotations=fr["rotations"])
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
        json.dump(motion_to_dict(seq), fh)
