"""Workload definitions and seeded input generation for the benchmark.

Inputs are made with plain numpy from the workload seed; the program under
test only ever sees the files written here.  The one exception is the
skeleton of the synthetic motion, which is the package's bundled
22-joint skeleton.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("pose_train", "pose_sample_eval", "motion_convert")

# Problem sizes.  "full" is what the benchmark measures; "tiny" only keeps
# the harness's self-test fast.
SIZES = {
    "full": dict(train_steps=100, batch_size=256, train_points=4000,
                 fixture_steps=1500, samples=1000, sample_steps=100,
                 reference=1000, frames=200),
    "tiny": dict(train_steps=6, batch_size=16, train_points=64,
                 fixture_steps=10, samples=12, sample_steps=4,
                 reference=12, frames=6),
}

JOINTS = 22
POSE_REPRESENTATION = {"joints": JOINTS, "translation": True, "rotations": True}
SIX_FACTOR_REPRESENTATION = {"joints": JOINTS, "translation": True, "rotations": True,
                             "preshape": True, "d_translation": True,
                             "d_rotations": True, "d_preshape": True}
MODE_SCALE = 0.15
MODE_B_SHIFT = 1.5
# Every joint of mode B is turned by this angle about a seeded axis, so the
# distance between the two modes, and with it the loss level, is the same
# for every seed.
MODE_B_ANGLE = 0.6
PRIOR_SCALE = 0.3
NETWORK = {"hidden_dim": 128, "num_layers": 3, "num_condition_classes": 3}
GUIDANCE_SCALE = 2.5
SAMPLE_CONDITION = 1
ASSIGN_RADIUS = 2.0
FPS = 30.0
# The sample/eval fixture is trained once per source tree with this seed;
# the run seed draws the sampler noise and the held-out reference set.
FIXTURE_SEED = 20260417


def reference_pose() -> np.ndarray:
    """Zero translation and identity rotations: mode A and the prior mean."""
    return np.concatenate([np.zeros(3), np.tile([1.0, 0.0, 0.0, 0.0], JOINTS)])


def _unit_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, 3))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _axis_angle_quats(axes: np.ndarray, angles) -> np.ndarray:
    half = 0.5 * np.asarray(angles, dtype=float)[..., None]
    return np.concatenate([np.cos(half), np.sin(half) * axes], axis=-1)


def mode_b_pose(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 2])
    quats = _axis_angle_quats(_unit_rows(rng, JOINTS), np.full(JOINTS, MODE_B_ANGLE))
    return np.concatenate([[MODE_B_SHIFT, 0.0, 0.0], quats.reshape(-1)])


def wrapped_gaussian(rng: np.random.Generator, mean: np.ndarray, scale: float,
                     n: int) -> np.ndarray:
    """Draws of R^3 x (S^3)^J wrapped through the exponential map at mean."""
    xi = scale * rng.standard_normal((n, mean.shape[0]))
    out = mean + xi
    q = np.broadcast_to(mean[3:].reshape(JOINTS, 4), (n, JOINTS, 4))
    v = xi[:, 3:].reshape(n, JOINTS, 4)
    v = v - np.sum(v * q, axis=-1, keepdims=True) * q
    theta = np.linalg.norm(v, axis=-1, keepdims=True)
    y = np.cos(theta) * q + np.sinc(theta / np.pi) * v
    out[:, 3:] = (y / np.linalg.norm(y, axis=-1, keepdims=True)).reshape(n, -1)
    return out


def train_config(seed: int, size: dict, steps: int) -> dict:
    return {
        "schema": 1,
        "representation": POSE_REPRESENTATION,
        "task": {
            "kind": "sphere_mixture",
            "sample_count": size["train_points"],
            "components": [
                {"mean": "reference", "scale": MODE_SCALE, "weight": 0.5, "condition": 1},
                {"mean": mode_b_pose(seed).tolist(), "scale": MODE_SCALE, "weight": 0.5,
                 "condition": 2},
            ],
        },
        "network": NETWORK,
        "train": {"total_steps": steps, "batch_size": size["batch_size"], "seed": seed},
        "prior_scale": PRIOR_SCALE,
    }


def fixture_config(size: dict) -> dict:
    return train_config(FIXTURE_SEED, size, size["fixture_steps"])


def motion_document(seed: int, frames: int, skeleton: dict) -> dict:
    """Smooth synthetic motion: seeded sinusoidal joint rotations and a
    drifting root."""
    rng = np.random.default_rng([seed, 3])
    axes = _unit_rows(rng, JOINTS)
    amplitude = rng.uniform(0.2, 0.8, JOINTS)
    freq = rng.uniform(0.3, 1.5, JOINTS)
    phase = rng.uniform(0.0, 2.0 * np.pi, JOINTS)
    t = np.arange(frames)[:, None] / FPS
    quats = _axis_angle_quats(axes, amplitude * np.sin(2.0 * np.pi * freq * t + phase))
    root = np.stack([0.8 * t[:, 0], 0.9 + 0.03 * np.sin(4.0 * t[:, 0]),
                     0.2 * t[:, 0]], axis=1)
    return {
        "fps": FPS,
        "skeleton": skeleton,
        "frames": [{"root_translation": r.tolist(), "rotations": q.tolist()}
                   for r, q in zip(root, quats)],
    }


def frames_per_job(size: dict) -> int:
    """Frames one motion_convert job converts: the six-factor points, the
    positions, the pose points and the points back to motion each take T."""
    return 4 * size["frames"]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc))


def _write_jsonl(path: Path, points: np.ndarray) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in points.tolist()))


def write_inputs(workload: str, seed: int, size: dict, work: Path,
                 skeleton: dict) -> None:
    """Write every input file of one workload into ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "pose_train":
        _write_json(work / "train.json", train_config(seed, size, size["train_steps"]))
    elif workload == "pose_sample_eval":
        modes = [reference_pose(), mode_b_pose(FIXTURE_SEED)]
        rng = np.random.default_rng([seed, 1])
        half = size["reference"] // 2
        reference = np.concatenate([
            wrapped_gaussian(rng, modes[0], MODE_SCALE, half),
            wrapped_gaussian(rng, modes[1], MODE_SCALE, size["reference"] - half),
        ])
        _write_jsonl(work / "reference.jsonl", reference)
        _write_json(work / "sample.json", {
            "schema": 1, "num_steps": size["sample_steps"],
            "guidance_scale": GUIDANCE_SCALE, "seed": seed,
            "num_samples": size["samples"], "condition": SAMPLE_CONDITION,
        })
        _write_json(work / "eval.json", {
            "schema": 1, "samples": str(work / "sample" / "samples.jsonl"),
            "reference": str(work / "reference.jsonl"),
            "representation": POSE_REPRESENTATION,
            "modes": [m.tolist() for m in modes], "assign_radius": ASSIGN_RADIUS,
        })
    elif workload == "motion_convert":
        _write_json(work / "motion.json", motion_document(seed, size["frames"], skeleton))
        motion = str(work / "motion.json")
        _write_json(work / "six.json", {"schema": 1, "input": motion, "target": "rmg-point",
                                        "representation": SIX_FACTOR_REPRESENTATION})
        _write_json(work / "positions.json", {"schema": 1, "input": motion,
                                              "target": "positions"})
        _write_json(work / "pose.json", {"schema": 1, "input": motion, "target": "rmg-point",
                                         "representation": POSE_REPRESENTATION})
        _write_json(work / "back.json", {"schema": 1,
                                         "input": str(work / "pose" / "points.jsonl"),
                                         "target": "motion", "fps": FPS,
                                         "representation": POSE_REPRESENTATION})
    else:
        raise ValueError(f"unknown workload {workload!r}")
