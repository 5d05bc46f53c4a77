"""Benchmark of the rmgflow command-line workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src`` directory.  Every set-up and every rmgflow command runs in a fresh
child process (``child.py``), the way a user runs ``rmgflow <cmd>``; the
child gets no ``RMG_THREADS`` and no BLAS thread-count variables, so BLAS
runs at its default thread count.

After set-up, the workload's job (its sequence of commands) is repeated
until ``--seconds`` is used up.  Every command's outputs are checked.  The
last line of stdout is the result: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics from ``spans.py``, taken
from traced jobs that alternate with untraced ones.  The lines before it
are a JSON report with the host record, per-command timings, quality
figures and artifact digests.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
# Children are killed once a run has lasted this long, so that it ends well
# within the 180 s a run may take.
RUN_LIMIT_S = 170
SETUP_REPEATS = 5
TOL_POINT = 1e-9       # rmgflow.manifold.TOL_POINT
TOL_ROUND_TRIP = 1e-12
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("RMG_THREADS",) + BLAS_THREAD_VARS:
        env.pop(var, None)
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_jsonl(path: Path) -> np.ndarray:
    with open(path) as fh:
        return np.asarray([json.loads(line) for line in fh if line.strip()], dtype=float)


class Children:
    """Runs child processes and counts them; a failure is a nonzero exit or
    a failed output check."""

    def __init__(self, work: Path):
        self.work = work
        self.env = _child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def run(self, args: list[str]) -> tuple[float, dict]:
        self.attempted += 1
        result = self.work / "child-result.json"
        result.unlink(missing_ok=True)
        timeout = max(1.0, self.deadline - time.monotonic())
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), args[0], str(ROOT), str(result),
                                   *args[1:]], env=self.env, cwd=ROOT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=timeout)
            error = f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}" \
                if proc.returncode else ""
        except subprocess.TimeoutExpired:
            error = f"killed after {timeout:.0f} s, at the run's time limit"
        wall = time.perf_counter() - start
        record = json.loads(result.read_text()) if result.exists() else {}
        if error:
            self.fail(f"{' '.join(args[:3])}: {error}")
        return wall, record

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"bench: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# output checks: each returns facts about the output or raises CheckFailed
# ---------------------------------------------------------------------------


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def constraint_deviation(points: np.ndarray, preshape: bool) -> float:
    """Worst unit-norm / centering deviation of the pose factors of each row
    (rotations follow the 3 translation coordinates; the pre-shape block
    follows the rotations)."""
    n, J = points.shape[0], wl.JOINTS
    quats = points[:, 3:3 + 4 * J].reshape(n, J, 4)
    worst = np.abs(np.linalg.norm(quats, axis=-1) - 1.0).max()
    if preshape:
        shape = points[:, 3 + 4 * J:3 + 7 * J].reshape(n, J, 3)
        worst = max(worst, np.abs(np.linalg.norm(shape.reshape(n, -1), axis=-1) - 1.0).max(),
                    np.abs(shape.mean(axis=1)).max())
    return float(worst)


def _on_manifold(points: np.ndarray, rows: int, cols: int, preshape: bool) -> float:
    _require(points.shape == (rows, cols), f"points shape {points.shape} != {(rows, cols)}")
    _require(bool(np.all(np.isfinite(points))), "non-finite points")
    dev = constraint_deviation(points, preshape)
    _require(dev <= TOL_POINT, f"constraint deviation {dev:.3e} > {TOL_POINT}")
    return dev


def _train_facts(out: Path, steps: int) -> dict:
    losses = np.loadtxt(out / "losses.csv", delimiter=",", skiprows=1, ndmin=2)
    _require(losses.shape[0] == steps, f"{losses.shape[0]} loss rows, expected {steps}")
    _require(bool(np.all(np.isfinite(losses))), "non-finite training history")
    tail = max(1, steps // 10)
    return {"final_loss": float(losses[-tail:, 2].mean()),
            "checkpoint.rmg": _sha256(out / "checkpoint.rmg")}


def check_train(out: Path, size: dict, job: dict) -> dict:
    return _train_facts(out, size["train_steps"])


def check_sample(out: Path, size: dict, job: dict) -> dict:
    points = _read_jsonl(out / "samples.jsonl")
    dev = _on_manifold(points, size["samples"], 3 + 4 * wl.JOINTS, preshape=False)
    return {"violation": dev, "samples.jsonl": _sha256(out / "samples.jsonl")}


def check_eval(out: Path, size: dict, job: dict) -> dict:
    report = json.loads((out / "report.json").read_text())
    values = [report["mmd"], report["outlier_fraction"], report["max_constraint_violation"],
              report["mean_geodesic_nn_distance"], report["bandwidth"], *report["per_mode_mass"]]
    _require(bool(np.all(np.isfinite(values))), "non-finite report")
    total = sum(report["per_mode_mass"]) + report["outlier_fraction"]
    _require(abs(total - 1.0) <= 1e-9, f"mode masses + outliers sum to {total}")
    return {"mmd": report["mmd"], "mode_mass": report["per_mode_mass"]}


def check_six(out: Path, size: dict, job: dict) -> dict:
    J, T = wl.JOINTS, size["frames"]
    job["six"] = points = _read_jsonl(out / "points.jsonl")
    dev = _on_manifold(points, T - 1, 6 + 14 * J, preshape=True)
    return {"violation": dev, "six/points.jsonl": _sha256(out / "points.jsonl")}


def check_positions(out: Path, size: dict, job: dict) -> dict:
    doc = json.loads((out / "positions.json").read_text())
    for key in ("positions", "position_velocities"):
        arr = np.asarray(doc[key], dtype=float)
        _require(arr.shape == (size["frames"], wl.JOINTS, 3), f"{key} shape {arr.shape}")
        _require(bool(np.all(np.isfinite(arr))), f"non-finite {key}")
    job["root"] = np.asarray(doc["positions"])[:, 0]
    return {}


def check_pose(out: Path, size: dict, job: dict) -> dict:
    T = size["frames"]
    job["pose"] = points = _read_jsonl(out / "points.jsonl")
    dev = _on_manifold(points, T, 3 + 4 * wl.JOINTS, preshape=False)
    if "six" in job:
        _require(np.array_equal(job["six"][:, :points.shape[1]], points[:-1]),
                 "six-factor and pose points disagree on translation/rotations")
    if "root" in job:
        _require(np.allclose(job["root"], points[:, :3], rtol=0.0, atol=TOL_ROUND_TRIP),
                 "FK root positions differ from the root translation")
    return {"violation": dev, "pose/points.jsonl": _sha256(out / "points.jsonl")}


def check_back(out: Path, size: dict, job: dict) -> dict:
    doc = json.loads((out / "motion.json").read_text())
    _require(len(doc["frames"]) == size["frames"], f"{len(doc['frames'])} motion frames")
    again = np.asarray([f["root_translation"] + sum(f["rotations"], [])
                        for f in doc["frames"]], dtype=float)
    if "pose" in job:
        err = float(np.abs(again - job["pose"]).max())
        _require(err <= TOL_ROUND_TRIP, f"points -> motion -> points error {err:.3e}")
    return {}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def commands(workload: str, work: Path, fixture: Path | None):
    """(name, rmgflow argv, output dir, check) for each command of one job."""
    def cmd(name, verb, config, out, check, *extra):
        return name, [verb, "--config", str(work / config), "--out", str(work / out),
                      *extra], work / out, check

    if workload == "pose_train":
        return [cmd("train", "train", "train.json", "train", check_train)]
    if workload == "pose_sample_eval":
        return [cmd("sample", "sample", "sample.json", "sample", check_sample,
                    "--checkpoint", str(fixture)),
                cmd("eval", "eval", "eval.json", "eval", check_eval)]
    return [cmd("convert_six", "convert", "six.json", "six", check_six),
            cmd("convert_positions", "convert", "positions.json", "positions",
                check_positions),
            cmd("convert_pose", "convert", "pose.json", "pose", check_pose),
            cmd("convert_back", "convert", "back.json", "back", check_back)]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def ensure_fixture(children: Children, size_name: str, size: dict) -> tuple[Path, dict]:
    """Checkpoint for sample/eval, trained once per source tree and size and
    kept under .cache/ in the checkout."""
    config = wl.fixture_config(size)
    key = hashlib.sha256((json.dumps(config, sort_keys=True) + _source_digest())
                         .encode()).hexdigest()[:16]
    cache = BENCH / ".cache" / f"fixture-{size_name}-{key}"
    meta_path = cache / "meta.json"
    if meta_path.exists():
        return cache / "checkpoint.rmg", json.loads(meta_path.read_text())
    for stale in cache.parent.glob(f"fixture-{size_name}-*"):
        shutil.rmtree(stale, ignore_errors=True)
    cache.mkdir(parents=True)
    (cache / "train.json").write_text(json.dumps(config))
    wall, record = children.run(["cli", "0", "--", "train", "--config", str(cache / "train.json"),
                              "--out", str(cache)])
    meta = {"built_in_this_run": True, "build_s": wall}
    if record.get("exit") == 0:
        try:
            facts = _train_facts(cache, size["fixture_steps"])
        except (CheckFailed, OSError, ValueError) as exc:
            children.fail(f"fixture: {exc}")
        else:
            meta.update(sha256=facts["checkpoint.rmg"], final_loss=facts["final_loss"])
            meta_path.write_text(json.dumps({**meta, "built_in_this_run": False}))
    return cache / "checkpoint.rmg", meta


def run_job(children: Children, cmds, size: dict, trace: bool) -> dict:
    job: dict = {"wall": 0.0, "rss": 0.0, "commands": {}, "facts": {}, "traces": [],
                 "traced": trace}
    for name, argv, out, check in cmds:
        shutil.rmtree(out, ignore_errors=True)
        wall, record = children.run(["cli", "1" if trace else "0", "--", *argv])
        job["wall"] += wall
        job["commands"][name] = wall
        job["rss"] = max(job["rss"], record.get("rss_mb", 0.0))
        if "trace" in record:
            job["traces"].append(record["trace"])
        if record.get("exit") != 0:
            continue
        try:
            job["facts"][name] = check(out, size, job)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            children.fail(f"{name}: {exc}")
    return job


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def timing(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (None below 20 samples), max and sample count."""
    n = len(values)
    out = {"median": statistics.median(values), "max": max(values), "n": n, "tail": None}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out["tail"] = {"pct": pct, "value": float(np.percentile(values, pct))}
    return out


def host_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env_of_caller": {v: os.environ.get(v)
                                 for v in ("RMG_THREADS",) + BLAS_THREAD_VARS},
        "thread_env_of_children": "unset (BLAS default thread count)",
    }


def quality(workload: str, size: dict, jobs: list[dict]) -> dict:
    """The figures a user reads off the workload's outputs, per command."""
    untraced = [j for j in jobs if not j["traced"]]

    def walls(name):
        return [j["commands"][name] for j in untraced if name in j["commands"]]

    def facts(name, key):
        return [j["facts"][name][key] for j in jobs if key in j["facts"].get(name, {})]

    def first(name, key):  # deterministic per seed, so every repeat agrees
        return next(iter(facts(name, key)), None)

    out = {}
    if workload == "pose_train":
        out["train_steps_per_s"] = timing([size["train_steps"] / w for w in walls("train")])
        out["train_final_loss"] = first("train", "final_loss")
    elif workload == "pose_sample_eval":
        work = size["samples"] * size["sample_steps"]
        out["sample_steps_per_s"] = timing([work / w for w in walls("sample")])
        out["eval_s"] = timing(walls("eval"))
        out["sample_mmd2"] = first("eval", "mmd")
        out["mode_mass"] = first("eval", "mode_mass")
        out["max_constraint_violation"] = max(facts("sample", "violation"), default=None)
    else:
        frames = wl.frames_per_job(size)
        out["convert_frames_per_s"] = timing([frames / j["wall"] for j in untraced])
        out["max_constraint_violation"] = max(
            facts("convert_six", "violation") + facts("convert_pose", "violation"),
            default=None)
    out["peak_rss_mb"] = timing([j["rss"] for j in untraced])
    return out


def artifact_digests(children: Children, jobs: list[dict]) -> dict:
    """sha256 of each deterministic artifact; repeats of one seed must agree."""
    digests: dict[str, list[str]] = {}
    for job in jobs:
        for facts in job["facts"].values():
            for key, value in facts.items():
                if key.endswith((".rmg", ".jsonl")):
                    digests.setdefault(key, []).append(value)
    for key, values in digests.items():
        if len(set(values)) > 1:
            children.fail(f"{key} differs between repeats of one seed: {sorted(set(values))}")
    return {key: sorted(set(values)) for key, values in digests.items()}


def run(workload: str, seed: int, seconds: float, trace: bool,
        size_name: str) -> tuple[dict, dict]:
    size = wl.SIZES[size_name]
    work = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        children = Children(work)
        fixture, fixture_meta = None, None
        if workload == "pose_sample_eval":
            fixture, fixture_meta = ensure_fixture(children, size_name, size)
        setup_walls = []
        for _ in range(SETUP_REPEATS):
            wall, record = children.run(["setup", workload, str(seed), size_name, str(work),
                                      *([str(fixture)] if fixture else [])])
            setup_walls.append(wall)
            if fixture and record.get("fixture_sha256") != fixture_meta.get("sha256"):
                children.fail("fixture checkpoint digest does not match the one built")

        cmds = commands(workload, work, fixture)
        jobs: list[dict] = []
        start = time.perf_counter()
        while True:
            jobs.append(run_job(children, cmds, size, trace and len(jobs) % 2 == 1))
            typical = statistics.median(j["wall"] for j in jobs)
            if (time.perf_counter() - start + typical > seconds
                    and (not trace or len(jobs) >= 2)):
                break

        untraced = [j for j in jobs if not j["traced"]]
        report = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "size": size_name, "host": host_record(),
            "setup_s": timing(setup_walls),
            "fixture": fixture_meta,
            "job_s": timing([j["wall"] for j in untraced]),
            "commands_s": {name: timing([j["commands"][name] for j in untraced])
                           for name, *_ in cmds},
            "quality": quality(workload, size, jobs),
            "artifacts_sha256": artifact_digests(children, jobs),
        }
        if trace:
            traced = [j for j in jobs if j["traced"]]
            frames = (wl.frames_per_job(size) * len(traced)
                      if workload == "motion_convert" else 0)
            values = spans.layer_metrics([t for j in traced for t in j["traces"]], frames,
                                         [j["wall"] for j in traced],
                                         [j["wall"] for j in untraced])
            units = spans.UNITS
        else:
            values = {"setup_s": statistics.median(setup_walls),
                      "job_s": report["job_s"]["median"],
                      "peak_rss_mb": report["quality"]["peak_rss_mb"]["median"]}
            units = END_TO_END_UNITS
        report["failed_fraction"] = len(children.failures) / children.attempted
        report["failures"] = children.failures
        return report, {
            "correct": not children.failures,
            "attempted": children.attempted,
            "failed": min(len(children.failures), children.attempted),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(wl.SIZES),
                        help="problem size; 'tiny' is for the harness self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rmgflow" / "cli.py").is_file():
        print(f"bench: no rmgflow source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
