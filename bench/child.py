"""One benchmark child process: a set-up, or one rmgflow command.

    python3 child.py setup ROOT RESULT WORKLOAD SEED SIZE WORKDIR [FIXTURE]
    python3 child.py cli ROOT RESULT TRACE -- RMGFLOW_ARGS...

The package is imported from ROOT/src, so the command runs the source tree
of that checkout.  RESULT receives a JSON record of the process: exit code,
time spent in ``rmgflow.cli.main``, peak RSS and, with TRACE=1, every span.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _import_package(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import rmgflow.cli

    origin = Path(rmgflow.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"rmgflow imported from {origin}, not from {src}")
    return rmgflow


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(root: Path, result: Path, workload: str, seed: str, size: str, work: str,
          fixture: str | None = None) -> int:
    import workloads

    rmgflow = _import_package(root)
    skeleton = rmgflow.motion.default_skeleton().to_json_dict()
    workloads.write_inputs(workload, int(seed), workloads.SIZES[size], Path(work), skeleton)
    record = {"exit": 0}
    if fixture:
        record["fixture_sha256"] = hashlib.sha256(Path(fixture).read_bytes()).hexdigest()
    result.write_text(json.dumps(record))
    return 0


def cli(root: Path, result: Path, trace: str, argv: list[str]) -> int:
    rmgflow = _import_package(root)
    recorder = None
    if trace == "1":
        import spans

        recorder = spans.Recorder()
        recorder.install({name: getattr(rmgflow, name) for name in spans.MODULES})
    code = 1
    start = time.perf_counter()
    try:
        code = rmgflow.cli.main(argv)
    finally:
        end = time.perf_counter()
        record = {"exit": code, "main_s": end - start, "rss_mb": _peak_rss_mb()}
        if recorder is not None:
            record["trace"] = recorder.dump(start, end)
        result.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    mode, root, result, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup(Path(root), Path(result), *rest))
    if rest[1:2] != ["--"]:
        raise SystemExit("usage: child.py cli ROOT RESULT TRACE -- ARGS...")
    sys.exit(cli(Path(root), Path(result), rest[0], rest[2:]))
