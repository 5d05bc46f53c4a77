import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmgflow import manifold as mf
from rmgflow import motion as mo
from rmgflow.errors import DimensionMismatch, InvalidConfig, _build

unit_quats = st.lists(
    st.floats(-1.0, 1.0), min_size=4, max_size=4
).filter(lambda q: np.linalg.norm(q) > 1e-3)


# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------


@given(unit_quats)
def test_canonicalize_idempotent_and_sign_invariant(q):
    q = np.array(q)
    c = mo.canonicalize_quaternion(q)
    assert np.allclose(mo.canonicalize_quaternion(c), c, atol=1e-15)
    assert np.allclose(mo.canonicalize_quaternion(-q), c, atol=1e-15)
    assert abs(np.linalg.norm(c) - 1.0) < 1e-12
    first = c[np.nonzero(c)[0][0]]
    assert first > 0


def test_canonicalize_zero_raises():
    with pytest.raises(InvalidConfig, match="^cannot canonicalize a zero quaternion$"):
        mo.canonicalize_quaternion(np.zeros(4))


def test_quat_multiply_identity(rng):
    q = mo.canonicalize_quaternion(rng.standard_normal(4))
    assert np.allclose(mo.quat_multiply(mo.QUAT_IDENTITY, q), q)
    assert np.allclose(mo.quat_multiply(q, mo.QUAT_IDENTITY), q)


def test_quat_to_matrix_orthogonal(rng):
    q = mo.canonicalize_quaternion(rng.standard_normal((6, 4)))
    R = mo.quat_to_matrix(q)
    eye = np.broadcast_to(np.eye(3), R.shape)
    assert np.allclose(R @ np.swapaxes(R, -1, -2), eye, atol=1e-12)
    assert np.allclose(np.linalg.det(R), 1.0, atol=1e-12)


def test_quat_rotate_known():
    q = mo.quat_from_axis_angle([0.0, 1.0, 0.0], np.pi / 2)
    out = mo.quat_rotate(q, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(out, [0.0, 0.0, -1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# skeleton and kinematics
# ---------------------------------------------------------------------------


def _rest(skeleton):
    """The identity frame: every joint unrotated, the root at the origin."""
    return mo.MotionFrame(np.zeros(3), np.tile(mo.QUAT_IDENTITY, (skeleton.joint_count, 1)))


def test_default_skeleton_shape(skeleton):
    assert skeleton.joint_count == 22
    assert skeleton.parents[0] == -1
    assert np.all(skeleton.parents[1:] < np.arange(1, 22))
    assert np.array_equal(skeleton.rest_offsets[0], np.zeros(3))


def test_skeleton_validation():
    with pytest.raises(InvalidConfig):
        mo.Skeleton(parents=[0], rest_offsets=[[0.0, 0.0, 0.0]])
    with pytest.raises(InvalidConfig):
        mo.Skeleton(parents=[-1, 1], rest_offsets=np.zeros((2, 3)))
    # not truncated to [-1, 0, 1]: a non-integer or boolean parent is rejected
    for parents in ([-1, 0.7, 1.9], [-1, True, 1], [-1.0, 0, 1], np.array([-1.0, 0.0, 1.0])):
        with pytest.raises(InvalidConfig, match="must be an integer"):
            mo.Skeleton(parents=parents, rest_offsets=np.zeros((3, 3)))
    chain = mo.Skeleton(parents=np.array([-1, 0, 1]), rest_offsets=np.zeros((3, 3)))
    assert chain.parents.tolist() == [-1, 0, 1]


def test_rest_pose_positions(skeleton):
    pos = mo.forward_kinematics(skeleton, _rest(skeleton))
    expected = np.zeros((22, 3))
    for j in range(1, 22):
        expected[j] = expected[skeleton.parents[j]] + skeleton.rest_offsets[j]
    assert np.allclose(pos, expected, atol=1e-15)


def test_global_rotation_moves_children(skeleton):
    frame = _rest(skeleton)
    frame.rotations[0] = mo.quat_from_axis_angle([0.0, 1.0, 0.0], np.pi / 2)
    pos = mo.forward_kinematics(skeleton, frame)
    rest = mo.forward_kinematics(skeleton, _rest(skeleton))
    R = mo.quat_to_matrix(frame.rotations[0])
    assert np.allclose(pos, rest @ R.T, atol=1e-12)


def test_bone_lengths_invariant(skeleton, rng):
    lengths = np.linalg.norm(skeleton.rest_offsets[1:], axis=-1)
    for _ in range(5):
        rot = mo.canonicalize_quaternion(rng.standard_normal((22, 4)))
        frame = mo.MotionFrame(root_translation=rng.standard_normal(3), rotations=rot)
        pos = mo.forward_kinematics(skeleton, frame)
        got = np.linalg.norm(pos[1:] - pos[skeleton.parents[1:]], axis=-1)
        assert np.max(np.abs(got - lengths)) < 1e-12


def test_skeleton_json_roundtrip(skeleton):
    d = skeleton.to_json_dict()
    again = _build(mo.Skeleton, json.loads(json.dumps(d)), "skeleton")
    assert np.array_equal(again.parents, skeleton.parents)
    assert np.array_equal(again.rest_offsets, skeleton.rest_offsets)


# ---------------------------------------------------------------------------
# representation configs and dimensions
# ---------------------------------------------------------------------------


def test_ambient_dimension_translation_rotations():
    cfg = mo.RepresentationConfig(joints=22, translation=True, rotations=True)
    assert mo.ambient_dimension(cfg) == 91


def test_format_dimension_table():
    J = 22
    assert mo.format_ambient_dimension("rmg", J) == 4 * J + 3
    assert mo.format_ambient_dimension("humanml3d", J) == 12 * J - 1
    assert mo.format_ambient_dimension("motionstreamer", J) == 12 * J + 8
    assert mo.format_ambient_dimension("dart", J) == 12 * J + 12
    assert mo.format_ambient_dimension("hy-motion", J) == 9 * J + 3


def test_config_requires_factors():
    with pytest.raises(InvalidConfig):
        mo.RepresentationConfig(joints=22)
    with pytest.raises(InvalidConfig):
        mo.RepresentationConfig(joints=22, translation=True)
    with pytest.raises(InvalidConfig):
        mo.RepresentationConfig(joints=22, rotations=True)


def test_config_to_manifold_factors():
    cfg = mo.RepresentationConfig(joints=22, translation=True, rotations=True)
    m = mo.config_to_manifold(cfg)
    assert [f.kind for f in m.factors] == ["euclidean", "sphere"]
    assert m.total_ambient_dim == 91

    cfg = mo.RepresentationConfig(joints=22, translation=True, preshape=True)
    m = mo.config_to_manifold(cfg)
    assert [f.kind for f in m.factors] == ["euclidean", "preshape"]

    cfg = mo.RepresentationConfig(joints=22, d_translation=True, rotations=True)
    m = mo.config_to_manifold(cfg)
    # static factors come first in the layout, then the difference blocks
    assert [f.kind for f in m.factors] == ["sphere", "euclidean"]

    cfg = mo.RepresentationConfig(joints=22, translation=True, d_rotations=True)
    m = mo.config_to_manifold(cfg)
    assert [f.kind for f in m.factors] == ["euclidean", "euclidean"]
    assert mo.ambient_dimension(cfg) == m.total_ambient_dim == 3 + 4 * 22


def test_config_json_roundtrip():
    cfg = mo.RepresentationConfig(joints=5, translation=True, rotations=True,
                                  d_translation=True)
    assert mo.RepresentationConfig.from_json_dict(dataclasses.asdict(cfg)) == cfg


# ---------------------------------------------------------------------------
# preshape
# ---------------------------------------------------------------------------


def test_compute_preshape_invariants(skeleton, rng):
    pos = mo.forward_kinematics(skeleton, _rest(skeleton))
    p = mo.compute_preshape(pos)
    assert np.max(np.abs(p.mean(axis=0))) < 1e-12
    assert abs(np.linalg.norm(p) - 1.0) < 1e-12
    # translation and scale invariance
    p2 = mo.compute_preshape(2.5 * pos + rng.standard_normal(3))
    assert np.allclose(p, p2, atol=1e-12)


# ---------------------------------------------------------------------------
# sequence <-> points
# ---------------------------------------------------------------------------


def _random_frame(skeleton, rng):
    return mo.MotionFrame(
        root_translation=rng.standard_normal(3),
        rotations=mo.canonicalize_quaternion(rng.standard_normal((22, 4))),
    )


def _random_sequence(skeleton, rng, frames=5):
    return mo.MotionSequence(frames=[_random_frame(skeleton, rng) for _ in range(frames)],
                             fps=30.0, skeleton=skeleton)


def _rest_pair(skeleton):
    return mo.MotionSequence(frames=[_rest(skeleton), _rest(skeleton)],
                             fps=30.0, skeleton=skeleton)


def _shift_sequence(skeleton, rng):
    """Two rest frames, the second with its root moved 0.1 along x."""
    seq = _rest_pair(skeleton)
    seq.frames[1].root_translation = np.array([0.1, 0.0, 0.0])
    return seq


def _bend_sequence(skeleton, rng):
    """Two rest frames, the second with joint 3 turned 0.2 rad about x."""
    seq = _rest_pair(skeleton)
    seq.frames[1].rotations[3] = mo.quat_from_axis_angle([1.0, 0.0, 0.0], 0.2)
    return seq


def _per_frame_points(seq, cfg):
    """Reference conversion, one frame at a time: each row is built from its
    frame and, for the d-blocks, the frame that follows it."""
    skeleton, J = seq.skeleton, cfg.joints
    s3 = mf.ManifoldSpec([mf.sphere(3, multiplicity=J)])
    pk = mf.ManifoldSpec([mf.preshape(J, 3)])

    def quats(f):
        return mo.canonicalize_quaternion(f.rotations).reshape(-1)

    def shape(f):
        return mo.compute_preshape(mo.forward_kinematics(skeleton, f)).reshape(-1)

    frames = seq.frames
    pairs = zip(frames[:-1], frames[1:]) if cfg.has_differences else zip(frames, frames)
    rows = []
    for cur, nxt in pairs:
        blocks = []
        if cfg.translation:
            blocks.append(cur.root_translation)
        if cfg.rotations:
            blocks.append(quats(cur))
        if cfg.preshape:
            blocks.append(shape(cur))
        if cfg.d_translation:
            blocks.append(nxt.root_translation - cur.root_translation)
        if cfg.d_rotations:
            blocks.append(mf.log_map(s3, quats(cur), quats(nxt)))
        if cfg.d_preshape:
            blocks.append(mf.log_map(pk, shape(cur), shape(nxt)))
        rows.append(np.concatenate(blocks))
    return np.stack(rows)


FLAGS = ("translation", "rotations", "preshape", "d_translation", "d_rotations", "d_preshape")
VALID_FLAG_SETS = [
    names for r in range(1, len(FLAGS) + 1) for names in itertools.combinations(FLAGS, r)
    if {"translation", "d_translation"} & set(names)
    and {"rotations", "preshape", "d_rotations", "d_preshape"} & set(names)
]


@pytest.mark.parametrize("make_seq", [_random_sequence, _shift_sequence, _bend_sequence],
                         ids=["random", "shift", "bend"])
@pytest.mark.parametrize("names", VALID_FLAG_SETS, ids="+".join)
def test_sequence_to_points_equals_per_frame_oracle(skeleton, rng, caplog, make_seq, names):
    cfg = mo.RepresentationConfig(joints=22, **dict.fromkeys(names, True))
    seq = make_seq(skeleton, rng)
    pts = mo.sequence_to_points(seq, cfg)
    expected = _per_frame_points(seq, cfg)
    assert pts.shape == expected.shape == (len(seq) - cfg.has_differences,
                                           mo.ambient_dimension(cfg))
    assert np.array_equal(pts, expected)
    if not cfg.rotations:
        return
    # drifted rows: every frame renormalized as on its own, one warning per call
    noisy = pts + 1e-3 * rng.standard_normal(pts.shape)
    with caplog.at_level("WARNING", logger="rmgflow.motion"):
        back = mo.points_to_sequence(noisy, cfg, skeleton, fps=30.0)
    assert len(caplog.records) == 1
    off = 3 if cfg.translation else 0
    assert len(back) == len(noisy)
    for row, frame in zip(noisy, back.frames):
        quats = mo.canonicalize_quaternion(row[off : off + 4 * 22].reshape(22, 4))
        assert np.array_equal(frame.rotations, quats)
        assert np.array_equal(frame.root_translation, row[:3] if off else np.zeros(3))


def test_frame_point_roundtrip(skeleton, rng):
    cfg = mo.RepresentationConfig(joints=22, translation=True, rotations=True)
    seq = _random_sequence(skeleton, rng, frames=10)
    pts = mo.sequence_to_points(seq, cfg)
    assert pts.shape == (10, 91)
    back = mo.points_to_sequence(pts, cfg, skeleton, fps=30.0)
    for a, b in zip(back.frames, seq.frames):
        assert np.max(np.abs(a.root_translation - b.root_translation)) < 1e-12
        assert np.max(np.abs(a.rotations - b.rotations)) < 1e-12
    # an empty points file reads as (0, 0); no rows give no frames
    assert len(mo.points_to_sequence(np.empty((0, 0)), cfg, skeleton, fps=30.0)) == 0


def test_point_to_frame_needs_rotations(skeleton):
    cfg = mo.RepresentationConfig(joints=22, translation=True, preshape=True)
    with pytest.raises(InvalidConfig,
                       match="^cannot rebuild a frame without a rotation factor$"):
        mo.points_to_sequence(np.zeros(mo.ambient_dimension(cfg)), cfg, skeleton, fps=30.0)


def test_sequence_to_points_difference_count(skeleton, rng):
    cfg = mo.RepresentationConfig(joints=22, translation=True, rotations=True,
                                  d_translation=True)
    frames = [_random_frame(skeleton, rng) for _ in range(5)]
    seq = mo.MotionSequence(frames=frames, fps=30.0, skeleton=skeleton)
    pts = mo.sequence_to_points(seq, cfg)
    assert pts.shape == (4, 94)
    with pytest.raises(InvalidConfig, match="^need at least 2 frames$"):
        mo.sequence_to_points(
            mo.MotionSequence(frames=frames[:1], fps=30.0, skeleton=skeleton), cfg
        )


def test_points_on_manifold(skeleton, rng):
    cfg = mo.RepresentationConfig(joints=22, translation=True, rotations=True,
                                  preshape=True)
    m = mo.config_to_manifold(cfg)
    frames = [_random_frame(skeleton, rng) for _ in range(6)]
    seq = mo.MotionSequence(frames=frames, fps=30.0, skeleton=skeleton)
    pts = mo.sequence_to_points(seq, cfg)
    assert pts.shape == (6, m.total_ambient_dim)
    assert mf.max_constraint_deviation(m, pts) < 1e-9


def _fk_loop(skeleton, frame):
    """Forward kinematics of one frame, one joint at a time: the reference
    that the stacked kernel must match bit for bit."""
    J = skeleton.joint_count
    positions = np.empty((J, 3))
    global_q = np.empty((J, 4))
    positions[0] = frame.root_translation
    global_q[0] = frame.rotations[0]
    for j in range(1, J):
        p = skeleton.parents[j]
        positions[j] = positions[p] + mo.quat_rotate(global_q[p], skeleton.rest_offsets[j])
        global_q[j] = mo.quat_multiply(global_q[p], frame.rotations[j])
    return positions


def test_stacked_kinematics_matches_joint_loop_bitwise(skeleton):
    """Non-unit quaternions: FK composes them as given, conversion blocks
    canonicalize them."""
    rng = np.random.default_rng(2024)
    frames = [mo.MotionFrame(root_translation=rng.standard_normal(3),
                             rotations=rng.standard_normal((22, 4)) * rng.uniform(0.5, 2, (22, 1)))
              for _ in range(40)]
    seq = mo.MotionSequence(frames=frames, fps=30.0, skeleton=skeleton)
    want = np.stack([_fk_loop(skeleton, f) for f in frames])
    for f, w in zip(frames, want):
        assert np.array_equal(mo.forward_kinematics(skeleton, f), w)
    assert np.array_equal(mo.convert_to_position_format(seq)[0], want)

    six = mo.RepresentationConfig(22, *[True] * 6)
    shapes = np.stack([mo.compute_preshape(w).reshape(-1) for w in want])
    quats = mo.canonicalize_quaternion(np.stack([f.rotations for f in frames])).reshape(40, -1)
    trans = np.stack([f.root_translation for f in frames])
    s3 = mf.ManifoldSpec([mf.sphere(3, multiplicity=22)])
    pk = mf.ManifoldSpec([mf.preshape(22, 3)])
    expected = np.concatenate([trans[:-1], quats[:-1], shapes[:-1], trans[1:] - trans[:-1],
                               mf.log_map(s3, quats[:-1], quats[1:]),
                               mf.log_map(pk, shapes[:-1], shapes[1:])], axis=1)
    assert np.array_equal(mo.sequence_to_points(seq, six), expected)


def test_reference_point_blocks(skeleton):
    six = mo.RepresentationConfig(22, *[True] * 6)
    p = mo.reference_point(six, skeleton)
    blocks = [p[sl] for _, sl in mo.config_to_manifold(six).blocks]
    rest = mo.compute_preshape(_fk_loop(skeleton, _rest(skeleton))).reshape(-1)
    want = [np.zeros(3), np.tile(mo.QUAT_IDENTITY, 22), rest,
            np.zeros(3), np.zeros(4 * 22), np.zeros(3 * 22)]
    assert len(blocks) == len(want)
    for got, w in zip(blocks, want):
        assert np.array_equal(got, w)


def test_reference_point_checks_preshape_skeleton(skeleton):
    """Only a pre-shape block reads the skeleton, so only it must match."""
    chain = mo.Skeleton(parents=[-1, 0, 1], rest_offsets=[[0, 0, 0], [0, 0.5, 0], [0, 0.5, 0]])
    rotations = mo.RepresentationConfig(joints=22, translation=True, rotations=True)
    assert mo.reference_point(rotations, chain).shape == (91,)
    with pytest.raises(DimensionMismatch, match="^rotations have 22 joints, skeleton has 3$"):
        mo.reference_point(mo.RepresentationConfig(joints=22, translation=True, preshape=True),
                           chain)
    with pytest.raises(InvalidConfig, match="skeleton"):
        mo.reference_point(mo.RepresentationConfig(joints=22, translation=True, preshape=True))


def test_frame_joint_count_mismatch(skeleton):
    frame = mo.MotionFrame(root_translation=np.zeros(3),
                           rotations=np.tile(mo.QUAT_IDENTITY, (5, 1)))
    with pytest.raises(DimensionMismatch, match="^rotations have 5 joints, skeleton has 22$"):
        mo.forward_kinematics(skeleton, frame)


# ---------------------------------------------------------------------------
# position format and file I/O
# ---------------------------------------------------------------------------


def test_position_format_velocities(skeleton):
    frames = []
    for i in range(4):
        f = _rest(skeleton)
        f.root_translation = np.array([0.1 * i, 0.0, 0.0])
        frames.append(f)
    seq = mo.MotionSequence(frames=frames, fps=30.0, skeleton=skeleton)
    pos, vel = mo.convert_to_position_format(seq)
    assert pos.shape == vel.shape == (4, 22, 3)
    assert np.allclose(vel[0, 0], [3.0, 0.0, 0.0], atol=1e-12)
    assert np.array_equal(vel[-1], vel[-2])


def test_motion_json_roundtrip(skeleton, rng, tmp_path):
    frames = [_random_frame(skeleton, rng) for _ in range(3)]
    seq = mo.MotionSequence(frames=frames, fps=24.0, skeleton=skeleton)
    path = tmp_path / "m.json"
    mo.save_motion(seq, path)
    again = mo.load_motion(path)
    assert again.fps == 24.0
    for a, b in zip(again.frames, seq.frames):
        assert np.max(np.abs(a.rotations - b.rotations)) < 1e-12
        assert np.max(np.abs(a.root_translation - b.root_translation)) < 1e-12


def test_load_motion_rejects_bad_norm(skeleton):
    doc = mo.motion_to_dict(
        mo.MotionSequence(frames=[_rest(skeleton)], fps=30.0, skeleton=skeleton)
    )
    doc["frames"][0]["rotations"][4] = [0.5, 0.0, 0.0, 0.0]
    with pytest.raises(InvalidConfig, match="frame 0"):
        mo.load_motion_dict(doc)


def test_load_motion_canonicalizes_hemisphere(skeleton, caplog):
    doc = mo.motion_to_dict(
        mo.MotionSequence(frames=[_rest(skeleton)], fps=30.0, skeleton=skeleton)
    )
    doc["frames"][0]["rotations"][2] = [-1.0, 0.0, 0.0, 0.0]
    with caplog.at_level("INFO", logger="rmgflow.motion"):
        seq = mo.load_motion_dict(doc)
    assert np.array_equal(seq.frames[0].rotations[2], mo.QUAT_IDENTITY)
    assert any("canonicalized 1" in r.message for r in caplog.records)
