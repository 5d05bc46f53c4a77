"""Trained and sampled bits do not depend on the number of CPUs.

Each command runs in a child process, once bound to one CPU before numpy
loads (so OpenBLAS starts one thread and the sampler runs its blocks in
turn) and once on every CPU the test may use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmgflow
from rmgflow import manifold as mf

SRC = Path(rmgflow.__file__).resolve().parents[1]

# argv: cpu (-1 for all), then the rmgflow arguments
CHILD = """import os, sys
cpu = int(sys.argv[1])
if cpu >= 0:
    os.sched_setaffinity(0, {cpu})
from rmgflow.cli import main
sys.exit(main(sys.argv[2:]))
"""

POSE = {"joints": 22, "translation": True, "rotations": True}
SIX_FACTOR = {"joints": 22, "translation": True, "rotations": True, "preshape": True,
              "d_translation": True, "d_rotations": True, "d_preshape": True}


def _train_doc(representation, steps):
    # 19067 parameters for the pose manifold: over OpenBLAS's 10000-element
    # threshold for a threaded dot.  The small clip norm clips every step, so
    # a gradient norm that changes its last bit changes the parameters.
    return {"schema": 1, "representation": representation, "prior_scale": 0.3,
            "task": {"kind": "sphere_mixture", "sample_count": 256,
                     "components": [{"mean": "reference", "scale": 0.15, "weight": 1.0,
                                     "condition": 1}]},
            "network": {"hidden_dim": 64, "num_layers": 2, "num_condition_classes": 2},
            "train": {"total_steps": steps, "batch_size": 32, "seed": 5, "max_lr": 0.01,
                      "grad_clip_norm": 0.01}}


def _run(cpu, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(cpu), *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.skipif(mf._usable_cpus() < 2, reason="needs 2 or more usable CPUs")
def test_train_and_sample_bits_do_not_depend_on_cpu_count(tmp_path):
    cpu = min(os.sched_getaffinity(0))
    # 600 samples: a full block of SAMPLE_BLOCK_ROWS and a short one.
    sample = _write(tmp_path / "sample.json", {
        "schema": 1, "num_samples": 600, "num_steps": 3, "condition": 1,
        "guidance_scale": 2.5, "use_ema": False})
    pose = _write(tmp_path / "pose.json", _train_doc(POSE, 20))
    # The six-factor checkpoint is trained once: only its sampling is compared.
    six = tmp_path / "six"
    _run(-1, "train", "--config", _write(tmp_path / "six.json", _train_doc(SIX_FACTOR, 5)),
         "--out", str(six))
    outputs = {}
    for pinned in (cpu, -1):
        out = tmp_path / f"pose_{pinned}"
        _run(pinned, "train", "--config", pose, "--out", str(out))
        for name, ckpt in (("pose", out), ("six", six)):
            dest = tmp_path / f"{name}_samples_{pinned}"
            _run(pinned, "sample", "--config", sample, "--checkpoint",
                 str(ckpt / "checkpoint.rmg"), "--out", str(dest))
            outputs[pinned, f"{name} samples.jsonl"] = (dest / "samples.jsonl").read_bytes()
        outputs[pinned, "pose checkpoint.rmg"] = (out / "checkpoint.rmg").read_bytes()
    for name in ("pose checkpoint.rmg", "pose samples.jsonl", "six samples.jsonl"):
        assert outputs[cpu, name] == outputs[-1, name], name
