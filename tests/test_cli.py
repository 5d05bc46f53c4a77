import ast
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmgflow
from rmgflow import cli
from rmgflow import flow as fl
from rmgflow import manifold as mf
from rmgflow import metrics as me
from rmgflow import motion as mo
from rmgflow import net as nn
from rmgflow.errors import InvalidConfig, NonFiniteLoss


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


TRAIN_DOC = {
    "schema": 1,
    "representation": {"joints": 1, "translation": True, "rotations": True},
    "prior_scale": 0.5,
    "task": {
        "kind": "sphere_mixture",
        "sample_count": 64,
        "components": [
            {"mean": [1.0, 0, 0, 1, 0, 0, 0], "scale": 0.1, "weight": 0.5,
             "condition": 1},
            {"mean": [-1.0, 0, 0, 0.7071067811865476, 0, 0, 0.7071067811865476],
             "scale": 0.1, "weight": 0.5, "condition": 2},
        ],
    },
    "network": {"hidden_dim": 16, "num_layers": 2, "time_embed_dim": 8,
                "cond_embed_dim": 4, "num_condition_classes": 3},
    "train": {"total_steps": 15, "batch_size": 16, "seed": 3},
}


# A three-joint chain whose rest pose differs from the first three joints of
# the bundled skeleton.
CHAIN = {"parents": [-1, 0, 1], "rest_offsets": [[0, 0, 0], [0.3, 0.1, 0], [0, 0.5, 0.2]]}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg = out / "train.json"
    cfg.write_text(json.dumps(TRAIN_DOC))
    code = cli.main(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_missing_schema(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {"train": {}})
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("schema", [True, 1.0, "1"], ids=["true", "float", "string"])
def test_schema_must_be_the_integer_one(tmp_path, skeleton, rng, capsys, schema):
    motion_path, _ = _motion_file(tmp_path, skeleton, rng)
    assert _run(tmp_path, "validate", {"schema": 1, "input": str(motion_path)}) == 0
    assert _run(tmp_path, "validate", {"schema": schema, "input": str(motion_path)}) == 2
    assert 'declaring "schema": 1' in capsys.readouterr().err


def test_unknown_key_named(tmp_path, capsys):
    doc = dict(TRAIN_DOC)
    doc["bogus_option"] = 1
    cfg = write_json(tmp_path / "c.json", doc)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "bogus_option" in capsys.readouterr().err


def test_negative_lr_exit_2_names_key(tmp_path, capsys):
    doc = json.loads(json.dumps(TRAIN_DOC))
    doc["train"]["max_lr"] = -1e-4
    cfg = write_json(tmp_path / "c.json", doc)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "max_lr" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_outputs(trained):
    assert (trained / "checkpoint.rmg").exists()
    lines = (trained / "losses.csv").read_text().splitlines()
    assert lines[0] == "step,lr,loss,grad_norm"
    assert len(lines) == 1 + TRAIN_DOC["train"]["total_steps"]


def test_train_rerun_bitwise_identical(trained, tmp_path):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(TRAIN_DOC))
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "checkpoint.rmg").read_bytes() == \
        (trained / "checkpoint.rmg").read_bytes()
    assert (tmp_path / "losses.csv").read_text() == \
        (trained / "losses.csv").read_text()


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_zero_samples(trained, chain_pose, tmp_path):
    cfg = write_json(tmp_path / "s.json",
                     {"schema": 1, "num_samples": 0, "num_steps": 5})
    code = cli.main(["sample", "--config", cfg, "--out", str(tmp_path),
                     "--checkpoint", str(trained / "checkpoint.rmg")])
    assert code == 0
    assert (tmp_path / "samples.jsonl").read_text() == ""
    # motion output writes its file whatever the count: here one of zero frames
    cfg = write_json(tmp_path / "m.json", {"schema": 1, "num_samples": 0, "num_steps": 5,
                                           "output_format": "motion"})
    code = cli.main(["sample", "--config", cfg, "--out", str(tmp_path / "motion"),
                     "--checkpoint", str(chain_pose / "checkpoint.rmg")])
    assert code == 0
    motion = str(tmp_path / "motion" / "samples_motion.json")
    assert len(mo.load_motion(motion)) == 0
    assert _run(tmp_path, "validate", {"schema": 1, "input": motion}) == 0


def _chain_checkpoint(tmp_path_factory, name, representation):
    tmp_path = tmp_path_factory.mktemp(name)
    _train_on_chain(tmp_path, representation)
    return tmp_path / "out"


@pytest.fixture(scope="module")
def chain_pose(tmp_path_factory):
    """A translation + rotations checkpoint on the three-joint chain."""
    return _chain_checkpoint(tmp_path_factory, "chain_pose",
                             {"joints": 3, "translation": True, "rotations": True})


@pytest.fixture(scope="module")
def rotation_free(tmp_path_factory):
    """A translation + pre-shape checkpoint: it has no rotation factor to
    rebuild motion frames from."""
    return _chain_checkpoint(tmp_path_factory, "rotation_free",
                             {"joints": 3, "translation": True, "preshape": True})


@pytest.mark.parametrize("num_samples", [0, 3])
@pytest.mark.parametrize("bad, checkpoint, message", [
    ({"num_steps": 0}, "trained", "num_steps must be an integer >= 1, got 0"),
    ({"guidance_scale": -1.0}, "trained", "guidance_scale must be a finite number in [0, inf)"),
    ({"output_format": "motion", "fps": 0.0}, "chain_pose",
     "fps must be a finite number in (0, inf), got 0.0"),
    ({"output_format": "motion"}, "rotation_free",
     "cannot rebuild a frame without a rotation factor"),
    ({"output_format": "motion"}, "trained",  # the bundled skeleton does not fit one joint
     "motion needs a skeleton of 1 joints: pass a skeleton file"),
    ({"representation": {"joints": 1, "d_translation": True, "rotations": True}}, "trained",
     "unknown key 'representation' in sample"),
    ({"condition": 3}, "trained", "condition indices must lie in [0, 3)"),
    ({"condition": -1}, "trained", "condition indices must lie in [0, 3)"),
], ids=["num_steps", "guidance_scale", "motion_fps", "motion_without_rotations",
        "motion_skeleton_mismatch", "representation_of_equal_width", "condition_past_classes",
        "negative_condition"])
def test_bad_sampler_config_exits_2_before_writing(request, tmp_path, capsys, num_samples, bad,
                                                   checkpoint, message):
    ckpt = request.getfixturevalue(checkpoint) / "checkpoint.rmg"
    doc = {"schema": 1, "num_samples": num_samples, **bad}
    assert _run(tmp_path, "sample", doc, "--checkpoint", str(ckpt)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_out_of_memory_exits_2_before_writing(trained, tmp_path, capsys, monkeypatch):
    """A MemoryError is one error line and exit 2, with nothing written."""
    # 2**60 conditions take over PY_SSIZE_T_MAX bytes: the list is refused
    # before any allocation, on every host.
    doc = {"schema": 1, "num_samples": 2**60, "condition": 1}
    assert _run(tmp_path, "sample", doc, "--checkpoint", str(trained / "checkpoint.rmg")) == 2
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not (tmp_path / "out").exists()

    def exhausted(doc, args):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(cli, "cmd_validate", exhausted)
    assert _run(tmp_path, "validate", {"schema": 1, "input": "motion.json"}) == 2
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 74.5 GiB\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, section, key, count, width", [
    ("sample", None, "num_samples", 2**60, 1), ("sweep", "sample", "num_samples", 2**60, 1),
    ("train", "task", "sample_count", 2**60, 1), ("train", "train", "batch_size", 2**60, 1),
    ("train", "network", "hidden_dim", 2**60, 1),
    # rows of the manifold's width 7, and of the network's input width 19
    ("sample", None, "num_samples", 2**59, 7), ("sweep", "sample", "num_samples", 2**59, 7),
    ("train", "task", "sample_count", 2**59, 7), ("train", "train", "batch_size", 2**59, 19),
])
def test_count_no_array_can_hold_exits_2(trained, tmp_path, capsys, command, section, key,
                                         count, width):
    """2**60 float64 entries take 2**63 bytes, past the largest array index:
    such a count, or a count of rows that holds that many entries, is
    refused before any allocation, with one error line."""
    if command == "train":
        doc = json.loads(json.dumps(TRAIN_DOC))
    elif command == "sweep":
        doc = _sweep_doc(tmp_path, [1.0], {"condition": None})
    else:
        doc = {"schema": 1}
    (doc[section] if section else doc)[key] = count
    extra = () if command == "train" else ("--checkpoint", str(trained / "checkpoint.rmg"))
    assert _run(tmp_path, command, doc, *extra) == 2
    each = "" if width == 1 else f" rows of {width} entries"
    # a count is checked by the constructor of its section, rows where they are drawn
    where = f"train.{section}: " if command == "train" and width == 1 else ""
    err = capsys.readouterr().err
    assert err == f"error: {where}{key} {count}{each} is more than any array can hold\n"
    assert not (tmp_path / "out").exists()


def test_sample_writes_points_and_metadata(trained, tmp_path):
    cfg = write_json(tmp_path / "s.json",
                     {"schema": 1, "num_samples": 6, "num_steps": 8,
                      "guidance_scale": 2.0, "condition": 1, "seed": 11})
    code = cli.main(["sample", "--config", cfg, "--out", str(tmp_path),
                     "--checkpoint", str(trained / "checkpoint.rmg")])
    assert code == 0
    rows = [json.loads(l) for l in
            (tmp_path / "samples.jsonl").read_text().splitlines()]
    pts = np.array(rows)
    assert pts.shape == (6, 7)
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    assert mf.max_constraint_deviation(m, pts) < 1e-9
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["guidance_scale"] == 2.0 and meta["num_steps"] == 8
    assert meta["seed"] == 11 and meta["num_samples"] == 6


def test_sample_dimension_mismatch(trained, tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json",
                     {"schema": 1, "num_samples": 1,
                      "representation": {"joints": 22, "translation": True,
                                         "rotations": True}})
    code = cli.main(["sample", "--config", cfg, "--out", str(tmp_path),
                     "--checkpoint", str(trained / "checkpoint.rmg")])
    assert code == 2
    assert "unknown key 'representation' in sample" in capsys.readouterr().err


def test_sample_requires_checkpoint(tmp_path):
    cfg = write_json(tmp_path / "s.json", {"schema": 1})
    assert cli.main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# convert / validate
# ---------------------------------------------------------------------------


def _motion_file(tmp_path, skeleton, rng, frames=4):
    frs = []
    for _ in range(frames):
        frs.append(mo.MotionFrame(
            root_translation=rng.standard_normal(3),
            rotations=mo.canonicalize_quaternion(rng.standard_normal((22, 4))),
        ))
    seq = mo.MotionSequence(frames=frs, fps=30.0, skeleton=skeleton)
    path = tmp_path / "motion.json"
    mo.save_motion(seq, path)
    return path, seq


def test_convert_roundtrip_via_cli(tmp_path, skeleton, rng):
    motion_path, seq = _motion_file(tmp_path, skeleton, rng)
    rep = {"joints": 22, "translation": True, "rotations": True}
    c1 = write_json(tmp_path / "c1.json",
                    {"schema": 1, "input": str(motion_path),
                     "target": "rmg-point", "representation": rep})
    assert cli.main(["convert", "--config", c1, "--out", str(tmp_path)]) == 0
    c2 = write_json(tmp_path / "c2.json",
                    {"schema": 1, "input": str(tmp_path / "points.jsonl"),
                     "target": "motion", "representation": rep, "fps": 30.0})
    out2 = tmp_path / "back"
    assert cli.main(["convert", "--config", c2, "--out", str(out2)]) == 0
    again = mo.load_motion(out2 / "motion.json")
    for a, b in zip(again.frames, seq.frames):
        assert np.max(np.abs(a.rotations - b.rotations)) < 1e-9
        assert np.max(np.abs(a.root_translation - b.root_translation)) < 1e-9


def test_convert_positions(tmp_path, skeleton, rng):
    motion_path, seq = _motion_file(tmp_path, skeleton, rng)
    cfg = write_json(tmp_path / "c.json",
                     {"schema": 1, "input": str(motion_path), "target": "positions"})
    assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "positions.json").read_text())
    assert np.array(doc["positions"]).shape == (4, 22, 3)
    assert np.array(doc["position_velocities"]).shape == (4, 22, 3)


def test_convert_malformed_quaternion(tmp_path, skeleton, rng, capsys):
    motion_path, seq = _motion_file(tmp_path, skeleton, rng)
    doc = json.loads(motion_path.read_text())
    doc["frames"][2]["rotations"][5] = [0.5, 0.0, 0.0, 0.0]
    motion_path.write_text(json.dumps(doc))
    cfg = write_json(tmp_path / "c.json",
                     {"schema": 1, "input": str(motion_path), "target": "rmg-point",
                      "representation": {"joints": 22, "translation": True,
                                         "rotations": True}})
    assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "frame 2" in capsys.readouterr().err


def test_validate_ok_and_bad(tmp_path, skeleton, rng, capsys):
    motion_path, _ = _motion_file(tmp_path, skeleton, rng)
    cfg = write_json(tmp_path / "v.json", {"schema": 1, "input": str(motion_path)})
    assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads(motion_path.read_text())
    doc["frames"][1]["rotations"][0] = [0.9, 0.0, 0.0, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    cfg = write_json(tmp_path / "v2.json", {"schema": 1, "input": str(bad)})
    assert cli.main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "frame 1" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(fps="30"), 'motion.fps must be a number, got "30"'),
    (lambda d: d["frames"][0].update(x=1), "unknown key 'x' in motion.frames[0]"),
    (lambda d: d["frames"][0].pop("rotations"), "motion.frames[0] requires 'rotations'"),
    (lambda d: d["skeleton"].update(x=1), "unknown key 'x' in motion.skeleton"),
    (lambda d: d["skeleton"]["parents"].__setitem__(1, 0.6),
     "motion.skeleton: parent of joint 1 must be an integer >= -1, got 0.6"),
    (lambda d: d.update(frames={"all": d["frames"]}),  # the value is cut to 80 characters
     'motion.frames must be an array, got {"all": [{"root_translation": ['),
    (lambda d: d["skeleton"]["rest_offsets"][1].__setitem__(1, float("inf")),
     "motion.skeleton: rest_offsets must be finite"),
])
def test_malformed_motion_file_exits_2(tmp_path, skeleton, rng, capsys, edit, message):
    """A motion file, its skeleton and each frame are read like config
    sections, by validate and by convert, with one short error line."""
    motion_path, _ = _motion_file(tmp_path, skeleton, rng)
    doc = json.loads(motion_path.read_text())
    edit(doc)
    motion_path.write_text(json.dumps(doc))
    for command, extra in (("validate", {}), ("convert", {"target": "positions"})):
        assert _run(tmp_path, command, {"schema": 1, "input": str(motion_path), **extra}) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1 and len(err) < 160
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(x=1), "unknown key 'x' in skeleton"),
    (lambda d: d.update(parents=[-1, 0.7, 1.9]),
     "skeleton: parent of joint 1 must be an integer >= -1, got 0.7"),
    (lambda d: d.update(parents=[-1, True, 1]),
     "skeleton.parents must be an array of numbers, got [-1, true, 1]"),
    (lambda d: d["rest_offsets"][1].__setitem__(1, float("inf")),
     "skeleton: rest_offsets must be finite"),
])
def test_malformed_skeleton_file_exits_2(tmp_path, capsys, edit, message):
    skeleton = json.loads(json.dumps(CHAIN))
    edit(skeleton)
    (tmp_path / "empty.jsonl").write_text("")
    doc = {"schema": 1, "input": str(tmp_path / "empty.jsonl"), "target": "motion",
           "representation": {"joints": 3, "translation": True, "rotations": True},
           "skeleton": write_json(tmp_path / "chain.json", skeleton)}
    assert _run(tmp_path, "convert", doc) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# eval / sweep
# ---------------------------------------------------------------------------


def _points_file(path, m, mean, n, seed, scale=0.2):
    g = mf.WrappedGaussianSpec(m, mean, scale)
    pts = mf.sample_wrapped_gaussian(m, g, np.random.default_rng(seed), size=n)
    cli._write_jsonl(pts, path)
    return path


def test_eval_report(tmp_path):
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    mean = np.zeros(7)
    mean[3] = 1.0
    a = _points_file(tmp_path / "a.jsonl", m, mean, 60, 0)
    b = _points_file(tmp_path / "b.jsonl", m, mean, 60, 1)
    cfg = write_json(tmp_path / "e.json",
                     {"schema": 1, "samples": str(a), "reference": str(b),
                      "manifold": m.to_json_dict(), "seed": 9,
                      "guidance_scale": 1.5})
    assert cli.main(["eval", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["mmd"]) < 0.1
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "seed,guidance_scale,mmd,mode0,mode1,outliers,max_violation"
    assert lines[1].startswith("9,1.5,")


def test_eval_missing_reference(tmp_path):
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    mean = np.zeros(7)
    mean[3] = 1.0
    a = _points_file(tmp_path / "a.jsonl", m, mean, 10, 0)
    cfg = write_json(tmp_path / "e.json",
                     {"schema": 1, "samples": str(a),
                      "reference": str(tmp_path / "nope.jsonl"),
                      "manifold": m.to_json_dict()})
    assert cli.main(["eval", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_eval_manifold_mismatch(tmp_path, capsys):
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    mean = np.zeros(7)
    mean[3] = 1.0
    a = _points_file(tmp_path / "a.jsonl", m, mean, 10, 0)
    other = mf.ManifoldSpec([mf.euclidean(5)])
    cfg = write_json(tmp_path / "e.json",
                     {"schema": 1, "samples": str(a), "reference": str(a),
                      "manifold": other.to_json_dict()})
    assert cli.main(["eval", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "dimension" in capsys.readouterr().err


def test_eval_names_its_manifold_once(tmp_path, capsys):
    """``manifold`` and ``representation`` together exit 2, also when they
    name the same manifold: neither takes precedence."""
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    a = _points_file(tmp_path / "a.jsonl", m, np.array([0, 0, 0, 1.0, 0, 0, 0]), 10, 0)
    doc = {"schema": 1, "samples": str(a), "reference": str(a), "manifold": m.to_json_dict(),
           "representation": {"joints": 1, "translation": True, "rotations": True}}
    assert _run(tmp_path, "eval", doc) == 2
    assert "eval config takes 'manifold' or 'representation', not both" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_empty_scales(trained, tmp_path):
    cfg = write_json(tmp_path / "sw.json",
                     {"schema": 1, "guidance_scales": [],
                      "eval": {"reference": "x"}})
    code = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--checkpoint", str(trained / "checkpoint.rmg")])
    assert code == 2


def test_sweep_rows(trained, tmp_path):
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    mean = np.zeros(7)
    mean[3] = 1.0
    ref = _points_file(tmp_path / "ref.jsonl", m, mean, 40, 5)
    cfg = write_json(tmp_path / "sw.json", {
        "schema": 1,
        "guidance_scales": [1.0, 3.0],
        "seed": 100,
        "sample": {"num_samples": 10, "num_steps": 5, "condition": 1},
        "eval": {"reference": str(ref)},
    })
    code = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--checkpoint", str(trained / "checkpoint.rmg")])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].endswith(",error")
    assert len(lines) == 3
    assert lines[1].startswith("100,1,") and lines[2].startswith("101,3,")
    assert all(l.endswith(",") for l in lines[1:])  # no errors recorded


@pytest.mark.parametrize("cut", ["column", "rows"])
def test_sweep_unusable_reference_exits_2_before_sampling(trained, tmp_path, capsys, cut):
    # A reference one column short, or of a single point, can score no row.
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    ref = _points_file(tmp_path / "ref.jsonl", m, np.array([0, 0, 0, 1.0, 0, 0, 0]), 40, 5)
    points = cli._read_jsonl(ref)
    cli._write_jsonl(points[:, :-1] if cut == "column" else points[:1], ref)
    out = tmp_path / "out"
    doc = {"schema": 1, "guidance_scales": [1.0, 3.0],
           "sample": {"num_samples": 10, "num_steps": 5, "condition": 1},
           "eval": {"reference": str(ref)}}
    cfg = write_json(tmp_path / "sw.json", doc)
    code = cli.main(["sweep", "--config", cfg, "--out", str(out),
                     "--checkpoint", str(trained / "checkpoint.rmg")])
    assert code == 2
    err = capsys.readouterr().err
    assert ("reference dimension 6 does not match the manifold (7)" in err if cut == "column"
            else "got 10 samples and 1 reference points" in err)
    assert not out.exists()  # no row was sampled


def test_write_jsonl_bytes_and_round_trip(tmp_path):
    """Shortest round-trip decimals, JSON's spelling of non-finite numbers,
    and the sign of zero; finite points read back bit for bit, and a file
    with a non-finite coordinate is refused."""
    points = np.array([[5e-324, 1e308, -0.0, np.inf], [-np.inf, np.nan, 0.1, 1.0]])
    path = tmp_path / "p.jsonl"
    cli._write_jsonl(points, path)
    assert path.read_text() == ("[5e-324, 1e+308, -0.0, Infinity]\n"
                                "[-Infinity, NaN, 0.1, 1.0]\n")
    with pytest.raises(ValueError, match="each coordinate must be finite"):
        cli._read_jsonl(path)
    finite = np.array([[5e-324, 1e308, -0.0, 0.1], [-1e308, -5e-324, 0.0, 1.0]])
    cli._write_jsonl(finite, path)
    assert cli._read_jsonl(path).tobytes() == finite.tobytes()
    cli._write_jsonl(points[0], path)
    assert path.read_text() == "[5e-324, 1e+308, -0.0, Infinity]\n"


@pytest.mark.parametrize("indent", [None, 1])
def test_json_writers_have_json_dump_bytes(tmp_path, indent):
    """One ``json.dumps`` write gives ``json.dump``'s bytes, non-finite
    numbers and the sign of zero included."""
    doc = {"a": [np.inf, -np.inf, np.nan, -0.0, 0.1, 5e-324], "b": {"c": None, "d": [True]}}
    cli._write_json(doc, tmp_path / "new.json", indent=indent)
    with open(tmp_path / "old.json", "w") as fh:
        json.dump(doc, fh, indent=indent)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
    seq = mo.MotionSequence(
        frames=[mo.MotionFrame(root_translation=np.array([-0.0, 1e308, 5e-324]),
                               rotations=np.tile(mo.QUAT_IDENTITY, (22, 1)))],
        fps=30.0, skeleton=mo.default_skeleton())
    mo.save_motion(seq, tmp_path / "new_motion.json")
    with open(tmp_path / "old_motion.json", "w") as fh:
        json.dump(mo.motion_to_dict(seq), fh)
    assert (tmp_path / "new_motion.json").read_bytes() == \
        (tmp_path / "old_motion.json").read_bytes()


def test_sweep_rows_equal_fresh_evaluations(trained, tmp_path, monkeypatch):
    """Each row scores like a fresh ``evaluate_samples`` of its samples, and
    the outputs have the same bytes on 1 and on 3 usable CPUs."""
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    ref_path = _points_file(tmp_path / "ref.jsonl", m, np.array([0, 0, 0, 1.0, 0, 0, 0]), 40, 5)
    ref = cli._read_jsonl(ref_path)
    scales = [0.0, 1.0, 2.5]
    cfg = write_json(tmp_path / "sw.json", {
        "schema": 1, "guidance_scales": scales, "seed": 7,
        "sample": {"num_samples": 12, "num_steps": 5, "condition": 1},
        "eval": {"reference": str(ref_path)},
    })
    files = ["sweep.csv"] + [f"row_{i}/samples.jsonl" for i in range(len(scales))]
    outputs = {}
    for cpus in (1, 3):
        out = tmp_path / f"cpus_{cpus}"
        with monkeypatch.context() as patch:
            patch.setattr(mf, "_usable_cpus", lambda: cpus)
            assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                             "--checkpoint", str(trained / "checkpoint.rmg")]) == 0
        outputs[cpus] = [(out / name).read_bytes() for name in files]
    assert outputs[1] == outputs[3]
    out = tmp_path / "cpus_1"
    lines = (out / "sweep.csv").read_text().splitlines()[1:]
    for i, scale in enumerate(scales):
        points = cli._read_jsonl(out / f"row_{i}" / "samples.jsonl")
        fresh = me.evaluate_samples(m, points, ref)
        assert lines[i] == fresh.csv_row(7 + i, scale) + ","


# ---------------------------------------------------------------------------
# every bad input exits 2
# ---------------------------------------------------------------------------


def _run(tmp_path, command, doc, *extra):
    cfg = write_json(tmp_path / f"{command}.json", doc)
    return cli.main([command, "--config", cfg, "--out", str(tmp_path / "out"), *extra])


def test_missing_input_files_exit_2(tmp_path, capsys):
    nope = str(tmp_path / "nope.json")
    assert _run(tmp_path, "validate", {"schema": 1, "input": nope}) == 2
    assert _run(tmp_path, "convert", {"schema": 1, "input": nope, "target": "positions"}) == 2
    assert not (tmp_path / "out").exists()
    doc = dict(TRAIN_DOC, skeleton=nope)
    assert _run(tmp_path, "train", doc) == 2
    assert "nope.json" in capsys.readouterr().err


def test_ragged_points_file_exits_2(tmp_path, capsys):
    ragged = tmp_path / "ragged.jsonl"
    ragged.write_text("[1.0, 0, 0, 1, 0, 0, 0]\n[1.0, 0, 0]\n")
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    assert _run(tmp_path, "eval", {"schema": 1, "samples": str(ragged),
                                   "reference": str(ragged),
                                   "manifold": m.to_json_dict()}) == 2
    assert "ragged.jsonl" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncate", "short_ema", "trailing", "header", "schema"])
def test_damaged_checkpoint_exits_2(trained, tmp_path, damage):
    blob = (trained / "checkpoint.rmg").read_bytes()
    blob = {"truncate": blob[:-4], "short_ema": blob[:-8], "trailing": blob + bytes(8),
            "header": b"{not json\n" + blob.partition(b"\n")[2],
            "schema": blob.replace(b'{"schema": 1,', b'{"schema": 2,', 1)}[damage]
    assert blob != (trained / "checkpoint.rmg").read_bytes()
    ckpt = tmp_path / "checkpoint.rmg"
    ckpt.write_bytes(blob)
    doc = {"schema": 1, "use_ema": False}  # a short EMA blob is caught on load
    assert _run(tmp_path, "sample", doc, "--checkpoint", str(ckpt)) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("schema", [True, 1.0], ids=["true", "float"])
def test_checkpoint_schema_must_be_the_integer_one(trained, tmp_path, capsys, schema):
    ckpt = _edited_checkpoint(trained, tmp_path, lambda h: {**h, "schema": schema})
    assert _run(tmp_path, "sample", {"schema": 1}, "--checkpoint", ckpt) == 2
    assert 'checkpoint header must be a JSON object declaring "schema": 1' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_flipped_checkpoint_blob_byte_exits_2(trained, tmp_path, capsys):
    head, _, blobs = (trained / "checkpoint.rmg").read_bytes().partition(b"\n")
    assert json.loads(head)["blob_sha256"]
    flipped = bytearray(blobs)
    flipped[len(blobs) // 3] ^= 0x01  # one bit of a params float
    ckpt = tmp_path / "checkpoint.rmg"
    ckpt.write_bytes(head + b"\n" + bytes(flipped))
    assert _run(tmp_path, "sample", {"schema": 1, "use_ema": False},
                "--checkpoint", str(ckpt)) == 2
    assert "blob_sha256" in capsys.readouterr().err


def _edited_checkpoint(trained, tmp_path, edit):
    """The trained checkpoint with its header replaced by ``edit(header)``."""
    head, _, blobs = (trained / "checkpoint.rmg").read_bytes().partition(b"\n")
    ckpt = tmp_path / "checkpoint.rmg"
    ckpt.write_bytes(json.dumps(edit(json.loads(head))).encode() + b"\n" + blobs)
    return str(ckpt)


def test_train_writes_each_header_fact_once(trained):
    header = json.loads((trained / "checkpoint.rmg").read_bytes().partition(b"\n")[0])
    assert list(header) == ["schema", "network", "train", "manifold", "rng_state",
                            "representation", "prior_scale", "skeleton", "blob_sha256"]
    assert header["skeleton"] is None  # the bundled 22-joint skeleton does not fit one joint


def test_checkpoint_without_digest_exits_2(trained, tmp_path, capsys):
    ckpt = _edited_checkpoint(trained, tmp_path,
                              lambda h: {k: v for k, v in h.items() if k != "blob_sha256"})
    assert _run(tmp_path, "sample", {"schema": 1}, "--checkpoint", ckpt) == 2
    assert "blob_sha256" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _with_redundant_keys(header):
    """A header in the earlier format, which also recorded the step, the
    parameter layout and count, the EMA decay and the blob names."""
    spec = nn.NetworkSpec(**header["network"])
    params = nn.VectorFieldParams(spec)
    layout, offset = [], 0
    for name, view in params.views.items():
        layout.append({"name": name, "offset": offset, "len": view.size})
        offset += view.size
    first = ("schema", "network", "train", "manifold")
    return {**{k: header[k] for k in first}, "step": header["train"]["total_steps"],
            "rng_state": header["rng_state"], "param_layout": layout,
            "param_count": params.count, "ema_decay": header["train"]["ema_decay"],
            "blobs": ["params", "ema"],
            **{k: v for k, v in header.items() if k not in first + ("rng_state",)}}


def test_checkpoint_with_redundant_keys_samples_the_same_bytes(trained, tmp_path):
    old = _edited_checkpoint(trained, tmp_path, _with_redundant_keys)
    cfg = write_json(tmp_path / "s.json", {"schema": 1, "num_samples": 5, "num_steps": 4,
                                           "condition": 1, "guidance_scale": 2.0})
    outs = []
    for name, ckpt in (("old", old), ("new", str(trained / "checkpoint.rmg"))):
        assert cli.main(["sample", "--config", cfg, "--out", str(tmp_path / name),
                         "--checkpoint", ckpt]) == 0
        outs.append((tmp_path / name / "samples.jsonl").read_bytes())
    assert outs[0] == outs[1] and outs[0]


@pytest.mark.parametrize("command", ["sample", "sweep"])
def test_checkpoint_manifold_of_equal_width_exits_2(trained, tmp_path, capsys, command):
    """Same width as the representation's R^3 x S^3, but flat: sampling on it
    would leave the quaternion norms free."""
    ckpt = _edited_checkpoint(trained, tmp_path, lambda h: {
        **h, "manifold": mf.ManifoldSpec([mf.euclidean(7)]).to_json_dict()})
    doc = ({"schema": 1, "num_samples": 3} if command == "sample"
           else _sweep_doc(tmp_path, [1.0]))
    assert _run(tmp_path, command, doc, "--checkpoint", ckpt) == 2
    assert "manifold does not match" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()



def _set(path, value):
    """A header edit that sets the entry at ``path`` to ``value``."""
    def edit(header):
        _at(header, path[:-1])[path[-1]] = value
        return header
    return edit


@pytest.mark.parametrize("path, value, message", [
    (("prior_scale",), "0.5", 'checkpoint.prior_scale must be a number, got "0.5"'),
    (("prior_scale",), True, "checkpoint.prior_scale must be a number, got true"),
    (("train", "total_steps"), 2.5, "checkpoint.train.total_steps must be an integer, got 2.5"),
    (("representation", "translation"), 1,
     "checkpoint.representation.translation must be a boolean, got 1"),
    (("network", "x"), 1, "unknown key 'x' in checkpoint.network"),
    (("skeleton",), {"parents": [-1], "rest_offsets": [[0, 0, 0]], "x": 1},
     "unknown key 'x' in checkpoint.skeleton"),
    (("manifold", "factors", 1, "x"), 1, "unknown key 'x' in checkpoint.manifold.factors[1]"),
    (("network", "input_dim"), 6,
     "checkpoint.network.input_dim 6 is not the width 7 of checkpoint.manifold"),
    (("network", "hidden_dim"), float("nan"),
     "checkpoint.network.hidden_dim must be an integer, got NaN"),
    (("manifold", "factors", 1, "multiplicity"), float("nan"),
     "checkpoint.manifold.factors[1].multiplicity must be an integer, got NaN"),
    (("skeleton",), {"parents": [-1], "rest_offsets": [[0, float("inf"), 0]]},
     "checkpoint.skeleton: rest_offsets must be finite"),
    (("skeleton",), CHAIN, "skeleton has 3 joints, config has 1"),
])
@pytest.mark.parametrize("command", ["sample", "sweep"])
def test_malformed_checkpoint_section_exits_2(trained, tmp_path, capsys, command, path, value,
                                              message):
    """The header sections that the model is rebuilt from are read like
    config sections; the blob digest stays valid."""
    ckpt = _edited_checkpoint(trained, tmp_path, _set(path, value))
    doc = ({"schema": 1, "num_samples": 3} if command == "sample"
           else _sweep_doc(tmp_path, [1.0]))
    assert _run(tmp_path, command, doc, "--checkpoint", ckpt) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_nan_max_lr_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(TRAIN_DOC))
    doc["train"]["max_lr"] = float("nan")
    assert _run(tmp_path, "train", doc) == 2
    assert "max_lr" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [float("inf"), float("nan"), -0.5])
def test_bad_prior_scale_exits_2_before_training(tmp_path, capsys, recwarn, monkeypatch, scale):
    monkeypatch.setattr(nn, "train", lambda *a, **k: pytest.fail("training started"))
    doc = {**TRAIN_DOC, "prior_scale": scale}
    assert _run(tmp_path, "train", doc) == 2
    assert capsys.readouterr().err == \
        f"error: prior scale must be a finite number in [0, inf), got {scale}\n"
    assert not (tmp_path / "out").exists()
    assert not recwarn.list


def test_nan_motion_fps_exits_2(tmp_path, skeleton, rng, capsys):
    motion_path, _ = _motion_file(tmp_path, skeleton, rng)
    doc = json.loads(motion_path.read_text())
    doc["fps"] = float("nan")
    motion_path.write_text(json.dumps(doc))
    assert _run(tmp_path, "convert", {"schema": 1, "input": str(motion_path),
                                      "target": "positions"}) == 2
    assert "fps" in capsys.readouterr().err
    assert not (tmp_path / "out" / "positions.json").exists()


def test_infinite_fps_exits_2(tmp_path, skeleton, rng, capsys):
    """An infinite fps would be written to motion.json as the non-JSON token
    Infinity; neither convert nor validate accepts it."""
    points = tmp_path / "points.jsonl"
    cfg = mo.RepresentationConfig(joints=22, translation=True, rotations=True)
    cli._write_jsonl(mo.reference_point(cfg, skeleton)[None], points)
    motion_path, _ = _motion_file(tmp_path, skeleton, rng)
    doc = json.loads(motion_path.read_text())
    motion_path.write_text(json.dumps({**doc, "fps": float("inf")}))
    for command, config in (
            ("convert", {"schema": 1, "input": str(points), "target": "motion",
                         "fps": float("inf"), "representation": dataclasses.asdict(cfg)}),
            ("validate", {"schema": 1, "input": str(motion_path)})):
        assert _run(tmp_path, command, config) == 2
        assert capsys.readouterr().err == \
            "error: fps must be a finite number in (0, inf), got inf\n"
        assert not (tmp_path / "out").exists()


def test_convert_to_motion_checks_skeleton_on_empty_points(tmp_path, capsys):
    """No rows still need a skeleton with the representation's joint count:
    the named one must fit, and without one the bundled one does not."""
    (tmp_path / "empty.jsonl").write_text("")
    doc = {"schema": 1, "input": str(tmp_path / "empty.jsonl"), "target": "motion",
           "representation": {"joints": 2, "translation": True, "rotations": True}}
    for skeleton, message in ((write_json(tmp_path / "chain.json", CHAIN), "skeleton has 3 joints"),
                              (None, "motion needs a skeleton of 2 joints: pass a skeleton file")):
        assert _run(tmp_path, "convert", {**doc, "skeleton": skeleton}) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_unknown_convert_target_exits_2_before_writing(tmp_path, skeleton, rng, capsys):
    motion_path, _ = _motion_file(tmp_path, skeleton, rng)
    assert _run(tmp_path, "convert", {"schema": 1, "input": str(motion_path),
                                      "target": "bvh"}) == 2
    assert "unknown convert target 'bvh'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_nan_validate_tolerance_exits_2(tmp_path, skeleton, rng, capsys):
    motion_path, _ = _motion_file(tmp_path, skeleton, rng)
    assert _run(tmp_path, "validate", {"schema": 1, "input": str(motion_path),
                                       "tolerance": float("nan")}) == 2
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("cycles", float("nan")),
                                          ("amplitude", float("inf")),
                                          ("axis", [float("nan"), 0.0, 1.0])],
                         ids=["cycles", "amplitude", "axis"])
def test_non_finite_toy_task_exits_2(tmp_path, capsys, recwarn, field, value):
    doc = json.loads(json.dumps(TRAIN_DOC))
    doc["representation"]["joints"] = 22
    doc["task"] = {"kind": "rotating_joint", "sample_count": 8, field: value}
    assert _run(tmp_path, "train", doc) == 2
    assert field in capsys.readouterr().err
    assert not recwarn.list


@pytest.mark.parametrize("condition", [None, 1])
def test_negative_num_samples_exits_2(trained, tmp_path, capsys, condition):
    code = _run(tmp_path, "sample", {"schema": 1, "num_samples": -1, "condition": condition},
                "--checkpoint", str(trained / "checkpoint.rmg"))
    assert code == 2
    assert "num_samples must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [("num_steps", "x"), ("use_ema", "no"),
                                       ("num_samples", True), ("condition", 1.5)])
def test_wrong_json_type_exits_2_naming_key(trained, tmp_path, capsys, key, value):
    code = _run(tmp_path, "sample", {"schema": 1, key: value},
                "--checkpoint", str(trained / "checkpoint.rmg"))
    assert code == 2
    assert f"sample.{key}" in capsys.readouterr().err


def test_path_key_must_be_a_string(tmp_path, capsys):
    assert _run(tmp_path, "validate", {"schema": 1, "input": 1}) == 2
    os.fstat(1)  # the process's stdout was never opened as the input
    assert "validate.input must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("num_samples", [0, 1])
def test_sweep_needs_a_sample_per_row(trained, tmp_path, capsys, num_samples):
    # MMD needs 2 samples, so fewer can score no row.
    doc = _sweep_doc(tmp_path, [1.0], {"num_samples": num_samples})
    assert _run(tmp_path, "sweep", doc, "--checkpoint", str(trained / "checkpoint.rmg")) == 2
    assert f"MMD needs at least 2 points per set, got {num_samples} samples" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _sweep_doc(tmp_path, scales, sample=None, scoring=None):
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    ref = _points_file(tmp_path / "ref.jsonl", m, np.array([0, 0, 0, 1.0, 0, 0, 0]), 40, 5)
    return {"schema": 1, "guidance_scales": scales,
            "sample": {"num_samples": 4, "num_steps": 2, "condition": 1, **(sample or {})},
            "eval": {"reference": str(ref), **(scoring or {})}}


@pytest.mark.parametrize("scales, sample, scoring, message", [
    ([1.0, 3.0], {"condition": 7}, None, "condition indices must lie in [0, 3)"),
    ([1.0, 3.0], {"num_steps": 0}, None, "num_steps must be an integer >= 1"),
    ([-1.0], None, None, "guidance_scale must be a finite number in [0, inf), got -1.0"),
    ([1.0], None, {"bandwidth": 0.0}, "bandwidth must be a finite number in (0, inf), got 0.0"),
    ([1.0], None, {"modes": [[0, 0, 0, 1.0, 0, 0, 0]], "assign_radius": -1.0},
     "assign_radius must be a finite number in [0, inf), got -1.0"),
], ids=["unknown_condition", "num_steps", "negative_scale", "bandwidth", "assign_radius"])
def test_sweep_bad_config_exits_2_before_writing(trained, tmp_path, capsys, scales, sample,
                                                  scoring, message):
    doc = _sweep_doc(tmp_path, scales, sample, scoring)
    assert _run(tmp_path, "sweep", doc, "--checkpoint", str(trained / "checkpoint.rmg")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_records_numerical_failure_as_row(trained, tmp_path):
    doc = _sweep_doc(tmp_path, [1.0, 1e308])
    assert _run(tmp_path, "sweep", doc, "--checkpoint", str(trained / "checkpoint.rmg")) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert rows[0].startswith("0,1,") and rows[0].endswith(",")
    assert rows[1].startswith("1,1e+308,,,,,,NotTangent: tangency defect")


def test_sweep_scoring_failure_exits_2_writing_nothing(trained, tmp_path, monkeypatch, capsys):
    """A row that fails other than numerically ends the sweep: no error row,
    and no samples of the rows before it."""
    evaluate, calls = me.evaluate_samples, []

    def fail_second(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise InvalidConfig("scoring failed")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(me, "evaluate_samples", fail_second)
    doc = _sweep_doc(tmp_path, [1.0, 3.0])
    assert _run(tmp_path, "sweep", doc, "--checkpoint", str(trained / "checkpoint.rmg")) == 2
    assert "scoring failed" in capsys.readouterr().err
    assert len(calls) == 2
    assert not (tmp_path / "out").exists()


def test_sample_numerical_failure_writes_nothing(trained, tmp_path, capsys):
    doc = {"schema": 1, "num_samples": 4, "num_steps": 2, "condition": 1,
           "guidance_scale": 1e308}
    assert _run(tmp_path, "sample", doc, "--checkpoint", str(trained / "checkpoint.rmg")) == 2
    assert "tangency defect" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_infinite_guidance_scale_exits_2_before_sampling(trained, tmp_path, capsys,
                                                        monkeypatch):
    """An infinite scale is a config error that names the key; the sampler,
    and so its NotTangent, is never reached.  A sweep fails before its first
    row."""
    monkeypatch.setattr(cli, "_sample_points", lambda *a, **k: pytest.fail("sampling started"))
    ckpt = str(trained / "checkpoint.rmg")
    for command, doc in (
            ("sample", {"schema": 1, "num_samples": 4, "condition": 1,
                        "guidance_scale": float("inf")}),
            ("sweep", _sweep_doc(tmp_path, [1.0, float("inf")]))):
        assert _run(tmp_path, command, doc, "--checkpoint", ckpt) == 2
        assert capsys.readouterr().err == \
            "error: guidance_scale must be a finite number in [0, inf), got inf\n"
        assert not (tmp_path / "out").exists()


def test_infinite_bandwidth_exits_2(tmp_path, capsys):
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    mean = np.array([0, 0, 0, 1.0, 0, 0, 0])
    doc = {"schema": 1, "samples": str(_points_file(tmp_path / "a.jsonl", m, mean, 20, 0)),
           "reference": str(_points_file(tmp_path / "b.jsonl", m, mean, 20, 1)),
           "manifold": m.to_json_dict(), "bandwidth": float("inf")}
    assert _run(tmp_path, "eval", doc) == 2
    assert capsys.readouterr().err == \
        "error: bandwidth must be a finite number in (0, inf), got inf\n"
    assert not (tmp_path / "out").exists()


def _number_base(tmp_path, base):
    """(command, config) that exits 0, for ``test_out_of_range_number_exits_2``."""
    if base == "train":
        return "train", json.loads(json.dumps(TRAIN_DOC))
    if base == "rotating_joint":
        return "train", {**json.loads(json.dumps(TRAIN_DOC)),
                         "representation": {"joints": 22, "translation": True, "rotations": True},
                         "task": {"kind": "rotating_joint", "sample_count": 8, "fps": 30.0}}
    if base == "validate":
        motion_path, _ = _motion_file(tmp_path, mo.default_skeleton(), np.random.default_rng(0))
        return "validate", {"schema": 1, "input": str(motion_path)}
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    mean = np.array([0, 0, 0, 1.0, 0, 0, 0])
    return "eval", {"schema": 1, "manifold": m.to_json_dict(), "modes": [mean.tolist()],
                    "samples": str(_points_file(tmp_path / "a.jsonl", m, mean, 20, 0)),
                    "reference": str(_points_file(tmp_path / "b.jsonl", m, mean, 20, 1))}


INF = float("inf")


@pytest.mark.parametrize("base, path, value, message", [
    ("rotating_joint", ("task", "fps"), 0, "train.task: fps must be a finite number in (0, inf)"),
    ("train", ("train", "max_lr"), INF, "train.train: max_lr must be a finite number in (0, inf)"),
    ("train", ("train", "weight_decay"), INF,
     "train.train: weight_decay must be a finite number in [0, inf)"),
    ("train", ("task", "components", 0, "scale"), INF,
     "train.task.components[0]: component scale must be a finite number in [0, inf)"),
    ("train", ("train", "grad_clip_norm"), INF,
     "train.train: grad_clip_norm must be a finite number in (0, inf)"),
    ("eval", ("assign_radius",), INF, "assign_radius must be a finite number in [0, inf)"),
    ("validate", ("tolerance",), INF, "tolerance must be a finite number in [0, inf)"),
    ("eval", ("guidance_scale",), float("nan"),
     "guidance_scale must be a finite number in [0, inf)"),
    ("eval", ("guidance_scale",), -INF, "guidance_scale must be a finite number in [0, inf)"),
], ids=["task_fps_0", "max_lr_inf", "weight_decay_inf", "component_scale_inf",
        "grad_clip_norm_inf", "assign_radius_inf", "tolerance_inf", "eval_guidance_nan",
        "eval_guidance_minus_inf"])
def test_out_of_range_number_exits_2(tmp_path, capsys, recwarn, base, path, value, message):
    """A config number outside its interval, or not finite, is refused before
    any work with one error line naming the key, after its section if it
    lies in one; no traceback, no numpy warning and no --out."""
    command, doc = _number_base(tmp_path, base)
    (tmp_path / "ok").mkdir()
    assert _run(tmp_path / "ok", command, doc) == 0
    capsys.readouterr()
    _at(doc, path[:-1])[path[-1]] = value
    assert _run(tmp_path, command, doc) == 2
    assert capsys.readouterr().err == f"error: {message}, got {value}\n"
    assert not (tmp_path / "out").exists() and not recwarn.list


@pytest.mark.parametrize("value", [INF, float("nan")])
def test_non_finite_component_mean_exits_2(tmp_path, capsys, recwarn, value):
    """Not the sampler's NaN tangency defect, after a numpy warning."""
    doc = json.loads(json.dumps(TRAIN_DOC))
    doc["task"]["components"][1]["mean"][4] = value
    assert _run(tmp_path, "train", doc) == 2
    assert capsys.readouterr().err == \
        "error: train.task.components[1]: component mean must be finite\n"
    assert not (tmp_path / "out").exists() and not recwarn.list


# json reads an array nested this deep; numpy makes at most 64 dimensions
DEEP = "[" * 600 + "1.0" + "]" * 600


def _entry_in_motion(tmp_path, key, entry=True):
    motion_path, _ = _motion_file(tmp_path, mo.default_skeleton(), np.random.default_rng(0))
    doc = json.loads(motion_path.read_text())
    doc["frames"][0][key][0] = [entry, 0, 0, 0] if key == "rotations" else entry
    motion_path.write_text(json.dumps(doc))
    return "validate", {"schema": 1, "input": str(motion_path)}


def _skeleton_offsets(tmp_path, rest_offsets):
    (tmp_path / "empty.jsonl").write_text("")
    skeleton = {**CHAIN, "rest_offsets": rest_offsets}
    return "convert", {"schema": 1, "input": str(tmp_path / "empty.jsonl"), "target": "motion",
                       "representation": {"joints": 3, "translation": True, "rotations": True},
                       "skeleton": write_json(tmp_path / "chain.json", skeleton)}


def _bool_in_task(tmp_path, key):
    doc = json.loads(json.dumps(TRAIN_DOC))
    if key == "axis":
        doc["representation"]["joints"] = 22
        doc["task"] = {"kind": "rotating_joint", "sample_count": 8, "axis": [0, 0, True]}
    else:
        doc["task"]["components"][1]["mean"][0] = True
    return "train", doc


def _entry_in_modes(tmp_path, command, entry=True):
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    modes = {"modes": [[0, 0, 0, 1.0, 0, 0, 0], [0, 0, 0, entry, 0, 0, 0]]}
    if command == "sweep":
        return command, _sweep_doc(tmp_path, [1.0], scoring=modes)
    mean = np.array([0, 0, 0, 1.0, 0, 0, 0])
    return command, {"schema": 1, "manifold": m.to_json_dict(), **modes,
                     "samples": str(_points_file(tmp_path / "a.jsonl", m, mean, 20, 0)),
                     "reference": str(_points_file(tmp_path / "b.jsonl", m, mean, 20, 1))}


@pytest.mark.parametrize("case, key, shown", [
    (lambda p: _entry_in_motion(p, "root_translation"), "motion.frames[0].root_translation",
     "true"),
    (lambda p: _entry_in_motion(p, "rotations"), "motion.frames[0].rotations", "true"),
    (lambda p: _skeleton_offsets(p, [[0, 0, 0], [0.3, False, 0], [0, 0.5, 0.2]]),
     "skeleton.rest_offsets", "false"),
    (lambda p: _bool_in_task(p, "mean"), "train.task.components[1].mean", "true"),
    (lambda p: _bool_in_task(p, "axis"), "train.task.axis", "true"),
    (lambda p: _entry_in_modes(p, "eval"), "eval.modes", "true"),
    (lambda p: _entry_in_modes(p, "sweep"), "sweep.eval.modes", "true"),
    (lambda p: _entry_in_motion(p, "rotations", json.loads(DEEP)), "motion.frames[0].rotations",
     "[[[["),
    (lambda p: _entry_in_modes(p, "eval", json.loads(DEEP)), "eval.modes", "[[[["),
    (lambda p: _entry_in_modes(p, "sweep", json.loads(DEEP)), "sweep.eval.modes", "[[[["),
], ids=["root_translation", "rotations", "rest_offsets", "component_mean", "task_axis",
        "eval_modes", "sweep_modes", "deep_rotations", "deep_eval_modes", "deep_sweep_modes"])
def test_boolean_in_number_array_exits_2(trained, tmp_path, capsys, case, key, shown):
    """A boolean inside an array that becomes a float array is not the
    number 1 or 0, and an array nested deeper than any field holds no
    numbers: one error line names the key and shows the value."""
    command, doc = case(tmp_path)
    assert _run(tmp_path, command, doc, *(
        ("--checkpoint", str(trained / "checkpoint.rmg")) if command == "sweep" else ())) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be an array of numbers")
    assert shown in err and err.count("\n") == 1 and len(err) < 200
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry", ["true", '"1.0"', "1" + "0" * 400, DEEP],
                         ids=["boolean", "string", "huge_integer", "deeply_nested"])
def test_non_number_in_points_file_exits_2(tmp_path, capsys, entry):
    """A points line holds numbers only: numpy would read true as 1.0 and
    parse the string "1.0"."""
    points = tmp_path / "points.jsonl"
    points.write_text(f"[0, 0, 0, 1.0, 0, 0, 0]\n[0, 0, 0, {entry}, 0, 0, 0]\n")
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    assert _run(tmp_path, "eval", {"schema": 1, "samples": str(points), "reference": str(points),
                                   "manifold": m.to_json_dict()}) == 2
    assert capsys.readouterr().err == (f"error: cannot read points {points}: "
                                       "each line must be a flat array of numbers\n")
    assert not (tmp_path / "out").exists()


POSE = {"joints": 22, "translation": True, "rotations": True}


@pytest.mark.parametrize("role", ["samples", "reference", "convert"])
def test_non_finite_point_exits_2_naming_the_file(tmp_path, capsys, role):
    """A points file with a NaN coordinate is refused as it is read, with
    its name, by eval (as samples or as reference) and by convert."""
    m = mo.config_to_manifold(mo.RepresentationConfig(**POSE))
    mean = mo.reference_point(mo.RepresentationConfig(**POSE), mo.default_skeleton())
    good = _points_file(tmp_path / "good.jsonl", m, mean, 20, 0)
    rows = [json.loads(line) for line in good.read_text().splitlines()]
    rows[3][5] = float("nan")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(row) + "\n" for row in rows))
    if role == "convert":
        doc = {"schema": 1, "input": str(bad), "target": "motion", "representation": POSE}
    else:
        doc = {"schema": 1, "representation": POSE, "samples": str(good), "reference": str(good),
               role: str(bad)}
    assert _run(tmp_path, "convert" if role == "convert" else "eval", doc) == 2
    assert capsys.readouterr().err == \
        f"error: cannot read points {bad}: each coordinate must be finite\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_non_finite_mode_exits_2(trained, tmp_path, capsys, command):
    """A mode with a NaN coordinate is refused before any row is scored."""
    command, doc = _entry_in_modes(tmp_path, command, float("nan"))
    assert _run(tmp_path, command, doc, *(
        ("--checkpoint", str(trained / "checkpoint.rmg")) if command == "sweep" else ())) == 2
    assert capsys.readouterr().err == "error: modes must be finite\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["root_translation", "rotations"])
def test_non_finite_motion_frame_exits_2(tmp_path, capsys, key):
    """validate and convert refuse a frame holding a NaN, naming the frame."""
    _, doc = _entry_in_motion(tmp_path, key, float("nan"))
    for command, extra in (("validate", {}), ("convert", {"target": "positions"})):
        assert _run(tmp_path, command, {**doc, **extra}) == 2
        assert capsys.readouterr().err == f"error: motion.frames[0]: {key} must be finite\n"
        assert not (tmp_path / "out").exists()


def test_json_nested_beyond_the_parser_exits_2(tmp_path, capsys):
    """json gives up on arrays nested about a thousand deep with a
    RecursionError; the file is then unreadable, not a crash."""
    cfg = tmp_path / "eval.json"
    cfg.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {cfg}: maximum recursion depth exceeded")
    assert err.count("\n") == 1 and not (tmp_path / "out").exists()


@pytest.mark.parametrize("case, message", [
    (lambda p: ("validate", {"schema": 1, "input": "motion.json", "tolerance": 10 ** 400}),
     "validate.tolerance must be a number, got 1000"),
    (lambda p: _skeleton_offsets(p, [[0, 0, 0], [10 ** 400, 0, 0], [0, 0.5, 0.2]]),
     "skeleton.rest_offsets must be an array of numbers, got [[0, 0, 0], [1000"),
    (lambda p: ("train", {**TRAIN_DOC, "prior_scale": 10 ** 400}),
     "train.prior_scale must be a number, got 1000"),
], ids=["tolerance", "rest_offsets", "prior_scale"])
def test_integer_too_large_for_a_float_exits_2(tmp_path, capsys, case, message):
    """An integer no float holds is not a number: one error line, where
    converting it raised OverflowError with a traceback."""
    command, doc = case(tmp_path)
    assert _run(tmp_path, command, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 and len(err) < 200
    assert not (tmp_path / "out").exists()


def test_diverging_train_exits_3_writing_nothing(tmp_path, capsys):
    """A huge learning rate overflows the second step: exit 3 with one error
    line, also with RuntimeWarnings raised as errors, as in this suite."""
    doc = json.loads(json.dumps(TRAIN_DOC))
    doc["network"].update(hidden_dim=8, num_layers=1)
    doc["train"] = {"total_steps": 5, "batch_size": 4, "max_lr": 1e300, "warmup_ratio": 0.0}
    assert _run(tmp_path, "train", doc) == 3
    assert capsys.readouterr().err.splitlines() == ["error: non-finite loss at step 1"]
    assert not (tmp_path / "out").exists()


def test_negative_seed_exits_2(trained, tmp_path):
    doc = json.loads(json.dumps(TRAIN_DOC))
    doc["train"]["seed"] = -1
    assert _run(tmp_path, "train", doc) == 2
    assert _run(tmp_path, "sample", {"schema": 1}, "--seed", "-1",
                "--checkpoint", str(trained / "checkpoint.rmg")) == 2


def test_negative_top_level_seed_exits_2_under_train_seed(tmp_path, capsys):
    """The top-level seed is checked even where train.seed overrides it."""
    doc = dict(TRAIN_DOC, seed=-1, train=dict(TRAIN_DOC["train"], seed=5))
    assert _run(tmp_path, "train", doc) == 2
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_seed_on_convert_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "convert", {"schema": 1, "input": "m.json", "target": "positions"},
             "--seed", "1")
    assert exc.value.code == 2


def test_task_components_must_be_a_list(tmp_path, capsys):
    doc = json.loads(json.dumps(TRAIN_DOC))
    doc["task"]["components"] = {}
    assert _run(tmp_path, "train", doc) == 2
    assert "train.task.components must be an array" in capsys.readouterr().err


@pytest.mark.parametrize("command,key", [
    ("sweep.sample", "output_format"), ("sweep.sample", "skeleton"), ("sweep.sample", "fps"),
    ("sweep.sample", "representation"), ("sweep.eval", "manifold"),
    ("sweep.eval", "representation"), ("sample", "skeleton"), ("sample", "representation"),
    ("sweep", "checkpoint"),
])
def test_removed_keys_are_rejected(trained, tmp_path, capsys, command, key):
    value = {"joints": 1, "translation": True, "rotations": True}
    if command == "sample":
        doc = {"schema": 1, key: "skeleton.json" if key == "skeleton" else value}
    else:
        doc = {"schema": 1, "guidance_scales": [1.0], "eval": {"reference": "r.jsonl"}}
        if command == "sweep":
            doc[key] = str(trained / "checkpoint.rmg")
        else:
            section = command.split(".")[1]
            doc[section] = {**doc.get(section, {}), key: value}
    code = _run(tmp_path, command.split(".")[0], doc,
                "--checkpoint", str(trained / "checkpoint.rmg"))
    assert code == 2
    assert f"unknown key '{key}' in {command}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# commands compute, main writes
# ---------------------------------------------------------------------------


def test_commands_leave_writing_to_main():
    """No cmd_* reads args.out, creates a directory or opens a file: each
    returns its writers, and main alone creates --out and calls them."""
    tree = ast.parse(Path(cli.__file__).read_text())
    commands = [f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    assert len(commands) == 6
    for func in commands:
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("out", "mkdir"), f"{func.name} uses .{node.attr}"
            if isinstance(node, ast.Name):
                assert node.id != "open", f"{func.name} calls open"


def _write_case(tmp_path, trained, command):
    """(config doc, extra argv, expected files, library call that fails last, its error)."""
    if command == "train":
        return TRAIN_DOC, [], {"checkpoint.rmg", "losses.csv"}, (nn, "train"), NonFiniteLoss
    if command == "sample":  # on a skeleton of as many joints as the representation
        (tmp_path / "chain").mkdir()
        _, chain = _train_on_chain(tmp_path / "chain", {"joints": 3, "translation": True,
                                                        "rotations": True})
        doc = {"schema": 1, "num_samples": 3, "num_steps": 2, "output_format": "motion"}
        return (doc, ["--checkpoint", chain], {"samples.jsonl", "samples_motion.json",
                                               "metadata.json"},
                (mo, "points_to_sequence"), InvalidConfig)
    if command == "convert":
        rep = {"joints": 22, "translation": True, "rotations": True}
        cfg = mo.RepresentationConfig(**rep)
        points = _points_file(tmp_path / "p.jsonl", mo.config_to_manifold(cfg),
                              mo.reference_point(cfg, mo.default_skeleton()), 3, 0)
        doc = {"schema": 1, "input": str(points), "target": "motion", "representation": rep}
        return doc, [], {"motion.json"}, (mo, "points_to_sequence"), InvalidConfig
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    if command == "eval":
        mean = np.array([0, 0, 0, 1.0, 0, 0, 0])
        doc = {"schema": 1, "manifold": m.to_json_dict(),
               "samples": str(_points_file(tmp_path / "a.jsonl", m, mean, 20, 0)),
               "reference": str(_points_file(tmp_path / "b.jsonl", m, mean, 20, 1))}
        return doc, [], {"report.json", "report.csv"}, (me, "evaluate_samples"), InvalidConfig
    doc = _sweep_doc(tmp_path, [0.0, 1.0, 2.5])
    files = {"sweep.csv", "row_0/samples.jsonl", "row_1/samples.jsonl", "row_2/samples.jsonl"}
    return (doc, ["--checkpoint", str(trained / "checkpoint.rmg")], files,
            (me, "evaluate_samples"), InvalidConfig)


@pytest.mark.parametrize("command", ["train", "sample", "convert", "eval", "sweep"])
def test_exit_0_writes_its_files_and_exit_2_or_3_writes_none(trained, tmp_path, monkeypatch,
                                                              command):
    """Exit 0 writes exactly the command's files, with the same bytes on a
    second run; when its last library call fails, it writes no --out."""
    doc, extra, files, (module, name), error = _write_case(tmp_path, trained, command)
    cfg = write_json(tmp_path / "cfg.json", doc)
    written = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.main([command, "--config", cfg, "--out", str(out), *extra]) == 0
        names = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert names == files
        written.append({n: (out / n).read_bytes() for n in files})
    assert written[0] == written[1]

    real = getattr(module, name)

    def fail_late(first, *args, **kwargs):  # a dry run on no points still passes
        if isinstance(first, np.ndarray) and first.size == 0:
            return real(first, *args, **kwargs)
        raise error("failed last")

    monkeypatch.setattr(module, name, fail_late)
    out = tmp_path / "failed"
    code = cli.main([command, "--config", cfg, "--out", str(out), *extra])
    assert code == (3 if error is NonFiniteLoss else 2)
    assert not out.exists()


# ---------------------------------------------------------------------------
# train and sample build the same prior
# ---------------------------------------------------------------------------


def _train_on_chain(tmp_path, representation):
    skeleton = write_json(tmp_path / "chain.json", CHAIN)
    cfg = mo.RepresentationConfig(**representation)
    doc = {"schema": 1, "representation": representation, "skeleton": skeleton,
           "prior_scale": 0.0,
           "task": {"kind": "fixed_point", "sample_count": 4,
                    "components": [{"mean": "reference"}]},
           "network": {"hidden_dim": 4, "num_layers": 1},
           "train": {"total_steps": 0}}
    assert _run(tmp_path, "train", doc) == 0
    return cfg, str(tmp_path / "out" / "checkpoint.rmg")


def test_train_on_a_skeleton_file_of_other_joint_count_exits_2(tmp_path, capsys, monkeypatch):
    """Its checkpoint could never write motion, so train stops before training.
    A rotating_joint task needs a skeleton of the representation's joint
    count too: without a skeleton file there is none for three joints, and
    with the chain the same task trains."""
    chain = write_json(tmp_path / "chain.json", CHAIN)
    rotating = dict(TRAIN_DOC, representation={"joints": 3, "translation": True,
                                               "rotations": True},
                    task={"kind": "rotating_joint", "sample_count": 8})
    for doc, code, message in (
            (dict(TRAIN_DOC, skeleton=chain), 2, "skeleton has 3 joints, config has 1"),
            (rotating, 2, "motion needs a skeleton of 3 joints: pass a skeleton file"),
            (dict(rotating, skeleton=chain), 0, "")):
        with monkeypatch.context() as patch:
            if code:
                patch.setattr(nn, "train", lambda *a, **k: pytest.fail("training started"))
            assert _run(tmp_path, "train", doc) == code
        assert message in capsys.readouterr().err
        assert (tmp_path / "out").exists() == (code == 0)


def test_sample_prior_uses_training_skeleton(tmp_path):
    """Untrained field and a zero-width prior: every sample is the prior
    mean, the rest pose of the training skeleton."""
    cfg, ckpt = _train_on_chain(tmp_path, {"joints": 3, "translation": True, "preshape": True})
    out = tmp_path / "s"
    code = cli.main(["sample", "--config", write_json(tmp_path / "s.json", {
        "schema": 1, "num_samples": 2, "num_steps": 2}), "--out", str(out),
        "--checkpoint", ckpt])
    assert code == 0
    pts = cli._read_jsonl(out / "samples.jsonl")
    want = fl.reference_point(cfg, mo.Skeleton(**CHAIN))
    np.testing.assert_allclose(pts, np.tile(want, (2, 1)), rtol=0, atol=1e-12)


def test_sample_motion_uses_training_skeleton(tmp_path):
    _, ckpt = _train_on_chain(tmp_path, {"joints": 3, "translation": True, "rotations": True})
    out = tmp_path / "s"
    code = cli.main(["sample", "--config", write_json(tmp_path / "s.json", {
        "schema": 1, "num_samples": 2, "num_steps": 2, "output_format": "motion"}),
        "--out", str(out), "--checkpoint", ckpt])
    assert code == 0
    seq = mo.load_motion(out / "samples_motion.json")
    assert seq.skeleton.to_json_dict() == mo.Skeleton(**CHAIN).to_json_dict()


# ---------------------------------------------------------------------------
# module entry point and documentation
# ---------------------------------------------------------------------------


def test_module_entry_point_runs_without_warning():
    """``--help`` of the program and of each command; a command lists
    ``--seed`` and ``--checkpoint`` exactly where it reads them."""
    src = Path(rmgflow.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    flags = {}
    for command in ("", "train", "sample", "convert", "eval", "sweep", "validate"):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "rmgflow.cli",
             *([command] if command else []), "--help"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        flags[command] = {f for f in ("--seed", "--checkpoint") if f in proc.stdout}
    assert {c for c in flags if "--seed" in flags[c]} == {"train", "sample", "eval", "sweep"}
    assert {c for c in flags if "--checkpoint" in flags[c]} == {"sample", "sweep"}


# ---------------------------------------------------------------------------
# mutated configs and files: exit 0, 2 or 3, never an escaping exception
# ---------------------------------------------------------------------------

FUZZ_REPRESENTATION = {"joints": 2, "translation": True, "rotations": True, "preshape": False,
                       "d_translation": False, "d_rotations": False, "d_preshape": False}
FUZZ_POINTS = [[0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
               [-0.5, 0.1, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]]
# inf and nan are written as the tokens Infinity and NaN, which the reader accepts
FUZZ_VALUES = [None, -1, 0, 1.5, True, "x", [], {}, [1, 2], float("inf"), float("nan")]


def _fuzz_bases(files: dict) -> list:
    """(command, config listing every schema key, extra argv) per command."""
    scoring = {"bandwidth": 0.5, "modes": [list(p) for p in FUZZ_POINTS], "assign_radius": 1.0}
    sampling = {"num_steps": 2, "condition": 1, "use_ema": True}
    train = {
        "seed": 0, "representation": dict(FUZZ_REPRESENTATION), "prior_scale": 0.5,
        "skeleton": files["skeleton"],
        "task": {"kind": "sphere_mixture", "sample_count": 8,
                 "components": [
                     {"mean": "reference", "scale": 0.2, "weight": 0.5, "condition": 1},
                     {"mean": list(FUZZ_POINTS[0]), "scale": 0.2, "weight": 0.5, "condition": 2}],
                 "joint": 1, "axis": [0.0, 0.0, 1.0], "amplitude": 1.0, "cycles": 2.0,
                 "fps": 30.0},
        "network": {"hidden_dim": 4, "num_layers": 1, "time_embed_dim": 2, "cond_embed_dim": 2,
                    "num_condition_classes": 3},
        "train": {"total_steps": 2, "batch_size": 4, "max_lr": 1e-3, "warmup_ratio": 0.5,
                  "grad_clip_norm": 1.0, "ema_decay": 0.9, "weight_decay": 0.01,
                  "cond_dropout_prob": 0.1, "seed": 1},
    }
    factors = [{"kind": "euclidean", "dim": 3, "landmarks": 0, "spatial_dim": 0,
                "multiplicity": 1},
               {"kind": "sphere", "dim": 3, "landmarks": 0, "spatial_dim": 0,
                "multiplicity": 2}]
    rotating = {"kind": "rotating_joint", "sample_count": 8, "components": [], "joint": 1,
                "axis": [0.0, 1.0, 0.0], "amplitude": 0.5, "cycles": 1.0, "fps": 30.0}
    bases = [
        ("train", train, []),  # first: fuzz_inputs trains the checkpoint with it
        ("train", {**train, "task": rotating}, []),
        ("sample", {**sampling, "guidance_scale": 1.5, "seed": 1, "num_samples": 3,
                    "output_format": "motion", "fps": 30.0},
         ["--checkpoint", files["checkpoint"]]),
        ("convert", {"input": files["points"], "target": "motion",
                     "representation": dict(FUZZ_REPRESENTATION),
                     "skeleton": files["skeleton"], "fps": 30.0}, []),
        ("convert", {"input": files["motion"], "target": "rmg-point",
                     "representation": dict(FUZZ_REPRESENTATION),
                     "skeleton": files["skeleton"], "fps": 30.0}, []),
        ("eval", {"samples": files["points"], "reference": files["points"],
                  "manifold": {"factors": factors},
                  "representation": dict(FUZZ_REPRESENTATION), **scoring, "seed": 0,
                  "guidance_scale": 1.0}, []),
        ("sweep", {"guidance_scales": [1.0, 2.0], "sample": {**sampling, "num_samples": 3},
                   "eval": {"reference": files["points"], **scoring}, "seed": 0},
         ["--checkpoint", files["checkpoint"]]),
        ("validate", {"input": files["motion"], "tolerance": 1e-6}, []),
    ]
    return [(command, {"schema": 1, **doc}, extra) for command, doc, extra in bases]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory) -> dict:
    """Bytes of the input files the fuzzed configs name."""
    tmp = tmp_path_factory.mktemp("fuzz")
    skeleton = mo.Skeleton(parents=[-1, 0], rest_offsets=[[0, 0, 0], [0, 0.4, 0]])
    (tmp / "skeleton").write_text(json.dumps(skeleton.to_json_dict()))
    (tmp / "points").write_text("".join(json.dumps(p) + "\n" for p in FUZZ_POINTS * 2))
    seq = mo.points_to_sequence(np.asarray(FUZZ_POINTS),
                                mo.RepresentationConfig(**FUZZ_REPRESENTATION), skeleton, 30.0)
    mo.save_motion(seq, tmp / "motion")
    files = {name: str(tmp / name) for name in ("skeleton", "points", "motion")}
    files["checkpoint"] = str(tmp / "out" / "checkpoint.rmg")
    command, doc, _ = _fuzz_bases(files)[0]
    assert cli.main([command, "--config", write_json(tmp / "train.json", doc),
                     "--out", str(tmp / "out")]) == 0
    return {name: Path(path).read_bytes() for name, path in files.items()}


def _nodes(node, path=()):
    """(path, value) of every value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _open_std_fds() -> set:
    open_fds = set()
    for fd in (0, 1, 2):
        try:
            os.fstat(fd)
        except OSError:
            continue
        open_fds.add(fd)
    return open_fds


# The checkpoint header's sections; its other keys belong to the digest.
HEADER_SECTIONS = ("network", "train", "manifold", "representation", "prior_scale", "skeleton")


def _mutate(data, doc, op, roots=None):
    """Delete a key, add one or set a value to a ``FUZZ_VALUES`` entry
    (``op``) at one place in ``doc``; with ``roots``, only under those
    top-level keys."""
    nodes = [(p, v) for p, v in _nodes(doc) if roots is None or p[0] in roots]
    if op == "delete":
        path = data.draw(st.sampled_from([p for p, _ in nodes if isinstance(p[-1], str)]))
        del _at(doc, path[:-1])[path[-1]]
    elif op == "add":
        dicts = ([] if roots else [()]) + [p for p, v in nodes if isinstance(v, dict)]
        _at(doc, data.draw(st.sampled_from(dicts)))["bogus_key"] = 1
    else:
        path = data.draw(st.sampled_from([p for p, _ in nodes]))
        value = data.draw(st.sampled_from(FUZZ_VALUES))
        _at(doc, path[:-1])[path[-1]] = json.loads(json.dumps(value))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_cleanly(fuzz_inputs, data):
    """A mutated config, a truncated input file, or a mutated JSON document
    inside the skeleton file, the motion file or the checkpoint header's
    sections (its blob digest still valid) exits 0, 2 or 3."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {}
        for name, blob in fuzz_inputs.items():
            (tmp / name).write_bytes(blob)
            files[name] = str(tmp / name)
        command, doc, extra = data.draw(st.sampled_from(_fuzz_bases(files)))
        named = {*extra, *(v for _, v in _nodes(doc) if isinstance(v, str))}
        documents = [n for n in ("skeleton", "motion", "checkpoint") if files[n] in named]
        op = data.draw(st.sampled_from(["delete", "add", "set", "truncate"]
                                       + ["document"] * bool(documents)))
        if op == "truncate":
            name = data.draw(st.sampled_from(["checkpoint", "points", "motion"]))
            blob = fuzz_inputs[name]
            cut = data.draw(st.integers(0, len(blob) - 1))
            (tmp / name).write_bytes(blob[:cut])
        elif op == "document":
            name = data.draw(st.sampled_from(documents))
            head, newline, blobs = fuzz_inputs[name].partition(b"\n")
            inner = json.loads(head)
            _mutate(data, inner, data.draw(st.sampled_from(["delete", "add", "set"])),
                    HEADER_SECTIONS if name == "checkpoint" else None)
            (tmp / name).write_bytes(json.dumps(inner).encode() + newline + blobs)
        else:
            _mutate(data, doc, op)
        config = write_json(tmp / "config.json", doc)
        before = _open_std_fds()
        code = cli.main([command, "--config", config, "--out", str(tmp / "out"), *extra])
        assert code in ((0, 2) if op == "document" else (0, 2, 3))
        assert _open_std_fds() == before
        if code == 2:  # every check runs before --out is created
            assert not (tmp / "out").exists()
        if command == "sweep" and code == 0:  # only numerical failures become rows
            rows = (tmp / "out" / "sweep.csv").read_text().splitlines()[1:]
            errors = [row.split(",", 7)[7] for row in rows]  # the last column
            assert all(error.startswith("NotTangent: ") for error in errors if error)
