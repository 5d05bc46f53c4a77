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


def test_sample_zero_samples(trained, tmp_path):
    cfg = write_json(tmp_path / "s.json",
                     {"schema": 1, "num_samples": 0, "num_steps": 5})
    code = cli.main(["sample", "--config", cfg, "--out", str(tmp_path),
                     "--checkpoint", str(trained / "checkpoint.rmg")])
    assert code == 0
    assert (tmp_path / "samples.jsonl").read_text() == ""


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
    assert "dimension" in capsys.readouterr().err


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


@pytest.mark.parametrize("damage", ["truncate", "short_ema", "trailing", "header"])
def test_damaged_checkpoint_exits_2(trained, tmp_path, damage):
    blob = (trained / "checkpoint.rmg").read_bytes()
    blob = {"truncate": blob[:-4], "short_ema": blob[:-8], "trailing": blob + bytes(8),
            "header": b"{not json\n" + blob.partition(b"\n")[2]}[damage]
    ckpt = tmp_path / "checkpoint.rmg"
    ckpt.write_bytes(blob)
    doc = {"schema": 1, "use_ema": False}  # a short EMA blob is caught on load
    assert _run(tmp_path, "sample", doc, "--checkpoint", str(ckpt)) == 2


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


def test_checkpoint_without_digest_loads(trained, tmp_path):
    head, _, blobs = (trained / "checkpoint.rmg").read_bytes().partition(b"\n")
    header = json.loads(head)
    del header["blob_sha256"]
    ckpt = tmp_path / "checkpoint.rmg"
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + blobs)
    assert _run(tmp_path, "sample", {"schema": 1}, "--checkpoint", str(ckpt)) == 0


def test_nan_max_lr_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(TRAIN_DOC))
    doc["train"]["max_lr"] = float("nan")
    assert _run(tmp_path, "train", doc) == 2
    assert "max_lr" in capsys.readouterr().err


def test_nan_motion_fps_exits_2(tmp_path, skeleton, rng, capsys):
    motion_path, _ = _motion_file(tmp_path, skeleton, rng)
    doc = json.loads(motion_path.read_text())
    doc["fps"] = float("nan")
    motion_path.write_text(json.dumps(doc))
    assert _run(tmp_path, "convert", {"schema": 1, "input": str(motion_path),
                                      "target": "positions"}) == 2
    assert "fps" in capsys.readouterr().err
    assert not (tmp_path / "out" / "positions.json").exists()


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


def test_negative_num_samples_exits_2(trained, tmp_path, capsys):
    code = _run(tmp_path, "sample", {"schema": 1, "num_samples": -1},
                "--checkpoint", str(trained / "checkpoint.rmg"))
    assert code == 2
    assert "num_samples" in capsys.readouterr().err


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


def test_sweep_needs_a_sample_per_row(trained, tmp_path, capsys):
    doc = {"schema": 1, "guidance_scales": [1.0], "sample": {"num_samples": 0},
           "eval": {"reference": "unused.jsonl"}}
    assert _run(tmp_path, "sweep", doc, "--checkpoint", str(trained / "checkpoint.rmg")) == 2
    assert "num_samples" in capsys.readouterr().err


def test_bad_thread_count_exits_2(trained, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RMG_THREADS", "x")
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    ref = _points_file(tmp_path / "ref.jsonl", m, np.array([0, 0, 0, 1.0, 0, 0, 0]), 4, 0)
    doc = {"schema": 1, "guidance_scales": [1.0], "eval": {"reference": str(ref)}}
    assert _run(tmp_path, "sweep", doc, "--checkpoint", str(trained / "checkpoint.rmg")) == 2
    assert "RMG_THREADS" in capsys.readouterr().err


def test_negative_seed_exits_2(trained, tmp_path):
    doc = json.loads(json.dumps(TRAIN_DOC))
    doc["train"]["seed"] = -1
    assert _run(tmp_path, "train", doc) == 2
    assert _run(tmp_path, "sample", {"schema": 1}, "--seed", "-1",
                "--checkpoint", str(trained / "checkpoint.rmg")) == 2


def test_task_components_must_be_a_list(tmp_path, capsys):
    doc = json.loads(json.dumps(TRAIN_DOC))
    doc["task"]["components"] = {}
    assert _run(tmp_path, "train", doc) == 2
    assert "train.task.components must be an array" in capsys.readouterr().err


@pytest.mark.parametrize("command,key", [
    ("sweep.sample", "output_format"), ("sweep.sample", "skeleton"), ("sweep.sample", "fps"),
    ("sweep.sample", "representation"), ("sweep.eval", "manifold"),
    ("sweep.eval", "representation"), ("sample", "skeleton"),
])
def test_removed_keys_are_rejected(trained, tmp_path, capsys, command, key):
    value = {"joints": 1, "translation": True, "rotations": True}
    if command == "sample":
        doc = {"schema": 1, key: "skeleton.json"}
    else:
        section = command.split(".")[1]
        doc = {"schema": 1, "guidance_scales": [1.0], "eval": {"reference": "r.jsonl"}}
        doc[section] = {**doc.get(section, {}), key: value}
    code = _run(tmp_path, command.split(".")[0], doc,
                "--checkpoint", str(trained / "checkpoint.rmg"))
    assert code == 2
    assert f"unknown key '{key}' in {command}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train and sample build the same prior
# ---------------------------------------------------------------------------

# A three-joint chain whose rest pose differs from the first three joints of
# the bundled skeleton.
CHAIN = {"parents": [-1, 0, 1], "rest_offsets": [[0, 0, 0], [0.3, 0.1, 0], [0, 0.5, 0.2]]}


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
    want = fl.reference_point(cfg, mo.Skeleton.from_json_dict(CHAIN))
    np.testing.assert_allclose(pts, np.tile(want, (2, 1)), rtol=0, atol=1e-12)


def test_sample_motion_uses_training_skeleton(tmp_path):
    _, ckpt = _train_on_chain(tmp_path, {"joints": 3, "translation": True, "rotations": True})
    out = tmp_path / "s"
    code = cli.main(["sample", "--config", write_json(tmp_path / "s.json", {
        "schema": 1, "num_samples": 2, "num_steps": 2, "output_format": "motion"}),
        "--out", str(out), "--checkpoint", ckpt])
    assert code == 0
    seq = mo.load_motion(out / "samples_motion.json")
    assert seq.skeleton.to_json_dict() == mo.Skeleton.from_json_dict(CHAIN).to_json_dict()


# ---------------------------------------------------------------------------
# module entry point and documentation
# ---------------------------------------------------------------------------


def test_module_entry_point_runs_without_warning():
    src = Path(rmgflow.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "rmgflow.cli",
                           "--help"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


JSON_TYPE_NAMES = {int: "integer", float: "number", bool: "boolean", str: "string",
                   list: "array", dict: "object"}


def _readme_row(section, key, typ, default):
    shown = "required" if default is cli.REQUIRED else f"`{json.dumps(default)}`"
    return f"| `{section}` | `{key}` | {JSON_TYPE_NAMES[typ]} | {shown} |"


DATACLASS_SECTIONS = [
    ("representation", mo.RepresentationConfig, ()),
    ("train.network", nn.NetworkSpec, ("input_dim",)),
    ("train.train", nn.TrainConfig, ()),
    ("train.task", me.ToyTaskSpec, ("representation", "skeleton")),
    ("train.task.components[i]", me.MixtureComponent, ()),
    ("eval.manifold.factors[i]", mf.FactorSpec, ()),
]


def test_readme_tables_match_schema():
    want = [_readme_row(ctx, key, *spec)
            for ctx, schema in cli.SCHEMA.items() for key, spec in schema.items()]
    want += [_readme_row(ctx, key, *spec) for ctx, cls, fixed in DATACLASS_SECTIONS
             for key, spec in cli._dataclass_schema(cls, fixed).items()]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_section = readme.split("## CLI\n")[1].split("\n## ")[0]
    assert [line for line in cli_section.splitlines() if line.startswith("| `")] == want


# ---------------------------------------------------------------------------
# mutated configs and files: exit 0, 2 or 3, never an escaping exception
# ---------------------------------------------------------------------------

FUZZ_REPRESENTATION = {"joints": 2, "translation": True, "rotations": True, "preshape": False,
                       "d_translation": False, "d_rotations": False, "d_preshape": False}
FUZZ_POINTS = [[0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
               [-0.5, 0.1, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]]
FUZZ_VALUES = [None, -1, 0, 1.5, True, "x", [], {}, [1, 2]]


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
    bases = [
        ("train", train, []),
        ("sample", {**sampling, "guidance_scale": 1.5, "seed": 1, "num_samples": 3,
                    "output_format": "motion", "fps": 30.0,
                    "representation": dict(FUZZ_REPRESENTATION)},
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
        ("sweep", {"checkpoint": files["checkpoint"], "guidance_scales": [1.0, 2.0],
                   "sample": {**sampling, "num_samples": 3},
                   "eval": {"reference": files["points"], **scoring}, "seed": 0}, []),
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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_cleanly(fuzz_inputs, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {}
        for name, blob in fuzz_inputs.items():
            (tmp / name).write_bytes(blob)
            files[name] = str(tmp / name)
        command, doc, extra = data.draw(st.sampled_from(_fuzz_bases(files)))
        op = data.draw(st.sampled_from(["delete", "add", "set", "truncate"]))
        if op == "delete":
            path = data.draw(st.sampled_from(
                [p for p, _ in _nodes(doc) if isinstance(p[-1], str)]))
            del _at(doc, path[:-1])[path[-1]]
        elif op == "add":
            dicts = [()] + [p for p, v in _nodes(doc) if isinstance(v, dict)]
            _at(doc, data.draw(st.sampled_from(dicts)))["bogus_key"] = 1
        elif op == "set":
            path = data.draw(st.sampled_from([p for p, _ in _nodes(doc)]))
            value = data.draw(st.sampled_from(FUZZ_VALUES))
            _at(doc, path[:-1])[path[-1]] = json.loads(json.dumps(value))
        else:
            name = data.draw(st.sampled_from(["checkpoint", "points", "motion"]))
            blob = fuzz_inputs[name]
            cut = data.draw(st.integers(0, len(blob) - 1))
            (tmp / name).write_bytes(blob[:cut])
        config = write_json(tmp / "config.json", doc)
        before = _open_std_fds()
        code = cli.main([command, "--config", config, "--out", str(tmp / "out"), *extra])
        assert code in (0, 2, 3)
        assert _open_std_fds() == before
