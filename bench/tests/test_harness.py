"""Self-test of the benchmark harness at tiny sizes, so it cannot rot.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Figures each workload's report must carry, besides setup_s,
# peak_rss_mb and failed_fraction.
QUALITY = {
    "pose_train": {"train_steps_per_s", "train_final_loss"},
    "pose_sample_eval": {"sample_steps_per_s", "eval_s", "sample_mmd2", "mode_mass",
                         "max_constraint_violation"},
    "motion_convert": {"convert_frames_per_s", "max_constraint_violation"},
}

ARTIFACTS = {
    "pose_train": {"checkpoint.rmg"},
    "pose_sample_eval": {"samples.jsonl"},
    "motion_convert": {"six/points.jsonl", "pose/points.jsonl"},
}


def _bench(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "97",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *report_lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95

    report = json.loads("\n".join(report_lines))
    assert report["failed_fraction"] == 0.0
    assert report["setup_s"]["n"] >= 1
    assert set(report["quality"]) == QUALITY[workload] | {"peak_rss_mb"}
    assert set(report["artifacts_sha256"]) == ARTIFACTS[workload]
    assert all(len(d) == 1 for d in report["artifacts_sha256"].values())


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", ".cache", "__pycache__"))
    proc = _bench(tmp_path, "pose_train", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_recorder_self_time_and_parents():
    mod = types.ModuleType("fake")
    exec("import time\n"
         "def inner():\n    time.sleep(0.01)\n"
         "def outer():\n    inner()\n    time.sleep(0.01)\n    inner()\n"
         "def _private():\n    return 1\n", mod.__dict__)
    recorder = spans.Recorder()
    recorder.install({"fake": mod})
    assert recorder.names == ["fake.inner", "fake.outer"]
    mod.outer()
    names = [recorder.names[s[0]] for s in recorder.spans]
    assert names == ["fake.outer", "fake.inner", "fake.inner"]
    assert [s[3] for s in recorder.spans] == [-1, 0, 0]
    totals = spans._Totals()
    outer = recorder.spans[0]
    totals.add(recorder.dump(outer[1], outer[2]), 0)
    assert totals.calls["fake.inner"] == 2
    assert totals.under["fake.inner", "fake.outer"] == 2
    assert sum(totals.self_time.values()) == pytest.approx(outer[2] - outer[1])
    assert totals.self_time["fake.outer"] == pytest.approx(0.01, abs=0.008)
