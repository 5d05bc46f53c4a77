"""Command-line entry point: train / sample / convert / eval / sweep / validate.

Every command reads a JSON config (``{"schema": 1, ...}``).  ``SCHEMA``
declares each top-level key once, with its JSON type and default; a section
that configures a dataclass (``representation``, ``network``, ``train``,
``task`` and its components, an eval ``manifold`` and its factors) takes that
dataclass's fields, types and defaults.  The one JSON reader of ``errors``
rejects unknown keys, missing required keys and values of the wrong JSON
type, here as in checkpoint headers and skeleton and motion files.  ``main``
loads and fills the config once and calls ``cmd_<command>(doc, args)``,
which returns ``(summary, files)``: a one-line summary and an ordered dict
from each artifact's path under ``--out`` to its writer ``write(path)``.
Only then does ``main`` create ``--out`` and call the writers, so a command
that fails writes nothing.  A command whose config has a ``seed`` key (train,
sample, eval, sweep) takes ``--seed``, which replaces that key; ``sample``
and ``sweep`` take ``--checkpoint``.  Outputs are bitwise deterministic
given config + seed.
Exit codes: 0 success, 2 configuration or validation error (an input file
that cannot be read or parsed included, and a run too large for the
memory), 3 non-finite training loss.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import flow as fl
from . import manifold as mf
from . import metrics as me
from . import motion as mo
from . import net as nn
from .errors import (REQUIRED, InvalidConfig, NonFiniteLoss, NotTangent, RmgError, _build,
                     _check, _fill, _is_schema_one, _numbers, require_int, require_number)

# config schema (see ``errors``): key -> (JSON type, default or REQUIRED)
_SAMPLING = {"num_steps": (int, 100), "condition": (int, None), "use_ema": (bool, True)}
_SCORING = {"bandwidth": (float, None), "modes": (np.ndarray, None),
            "assign_radius": (float, 1.0)}

SCHEMA: dict[str, dict[str, tuple[type, object]]] = {
    "train": {"seed": (int, 0), "representation": (dict, REQUIRED), "task": (dict, REQUIRED),
              "network": (dict, {}), "train": (dict, REQUIRED), "prior_scale": (float, 1.0),
              "skeleton": (str, None)},
    "sample": {**_SAMPLING, "guidance_scale": (float, 1.0), "seed": (int, 42),
               "num_samples": (int, 1), "output_format": (str, "jsonl"), "fps": (float, 30.0)},
    "convert": {"input": (str, REQUIRED), "target": (str, REQUIRED),
                "representation": (dict, None), "skeleton": (str, None), "fps": (float, 30.0)},
    "eval": {"samples": (str, REQUIRED), "reference": (str, REQUIRED),
             "manifold": (dict, None), "representation": (dict, None), **_SCORING,
             "seed": (int, 0), "guidance_scale": (float, 0.0)},
    "sweep": {"guidance_scales": (list, REQUIRED), "sample": (dict, {}),
              "eval": (dict, REQUIRED), "seed": (int, 0)},
    "sweep.sample": {**_SAMPLING, "num_samples": (int, 100)},
    "sweep.eval": {"reference": (str, REQUIRED), **_SCORING},
    "validate": {"input": (str, REQUIRED), "tolerance": (float, 1e-6)},
}


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------


def _read(parse, path, what: str):
    """``parse(path)``, with an input that cannot be read or parsed turned
    into an InvalidConfig; json raises RecursionError for arrays nested
    about a thousand deep."""
    try:
        return parse(path)
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise InvalidConfig(f"cannot read {what} {path}: {exc}") from exc


def _json_file(path):
    with open(path) as fh:
        return json.load(fh)


def _load_config(path, command: str) -> dict:
    doc = _read(_json_file, path, "config")
    if not isinstance(doc, dict) or not _is_schema_one(doc.pop("schema", None)):
        raise InvalidConfig("config must be a JSON object declaring \"schema\": 1")
    return _fill(doc, command, SCHEMA[command])


def _skeleton(path, cfg: mo.RepresentationConfig) -> mo.Skeleton | None:
    """The skeleton file at ``path``, which must fit ``cfg``; without one,
    the bundled skeleton where it fits, else None."""
    if path is None:
        skeleton = mo.default_skeleton()
        return skeleton if skeleton.joint_count == cfg.joints else None
    skeleton = _build(mo.Skeleton, _read(_json_file, path, "skeleton"), "skeleton")
    mo._check_skeleton(skeleton, cfg)
    return skeleton


def _write_json(doc, path, indent=None) -> None:
    """``json.dump``'s bytes in one write: ``json.dump`` writes chunk by chunk
    from CPython's pure-Python encoder, and ``json.dumps`` runs the C encoder
    when there is no indent."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=indent))


def _write_lines(lines, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_jsonl(points: np.ndarray, path) -> None:
    _write_lines((json.dumps(row) for row in np.atleast_2d(points).tolist()), path)


_FLAT = "each line must be a flat array of numbers"


def _point(line: str) -> np.ndarray:
    row = json.loads(line)
    if not _numbers(row):
        raise ValueError(_FLAT)
    point = np.asarray(row, dtype=float)
    if not np.isfinite(point).all():
        raise ValueError("each coordinate must be finite")
    return point


def _read_jsonl(path) -> np.ndarray:
    """Points, one flat JSON array of finite numbers per line; other lines
    and ragged rows raise ValueError.  Each row becomes an array as it is read,
    so the Python floats of only one line are alive at a time."""
    with open(path) as fh:
        rows = [_point(line) for line in fh if line.strip()]
    if not rows:
        return np.empty((0, 0))
    points = np.asarray(rows, dtype=float)
    if points.ndim != 2:
        raise ValueError(_FLAT)
    return points


def _modes(modes) -> list[np.ndarray] | None:
    """Mode centers as float arrays; None when there are none."""
    if not modes:
        return None
    try:
        return list(np.asarray(modes, dtype=float))
    except ValueError as exc:  # ragged
        raise InvalidConfig(f"modes must be arrays of numbers: {exc}") from exc


def _prior(m: mf.ManifoldSpec, cfg: mo.RepresentationConfig, skeleton: mo.Skeleton | None,
           scale: float) -> mf.WrappedGaussianSpec:
    """The wrapped Gaussian at the rest pose that training draws x0 from."""
    return mf.WrappedGaussianSpec(m, mo.reference_point(cfg, skeleton), scale)


def _load_model(path):
    """A trained checkpoint with its representation, skeleton (None where
    the header stores null) and prior; its manifold must be the
    representation's, and a stored skeleton must fit it."""
    ckpt = nn.load_checkpoint(path)
    header = ckpt.header
    cfg = _build(mo.RepresentationConfig, header.get("representation"),
                 "checkpoint.representation")
    if mo.config_to_manifold(cfg) != ckpt.manifold:
        raise InvalidConfig(f"checkpoint manifold does not match its representation "
                            f"{dataclasses.asdict(cfg)}")
    skeleton = header.get("skeleton")
    if skeleton is not None or "skeleton" not in header:  # null, not a missing key, is none
        skeleton = _build(mo.Skeleton, skeleton, "checkpoint.skeleton")
        mo._check_skeleton(skeleton, cfg)
    _check(header.get("prior_scale"), float, False, "checkpoint.prior_scale")
    return ckpt, cfg, skeleton, _prior(ckpt.manifold, cfg, skeleton, header["prior_scale"])


def _toy_task(d: dict, cfg: mo.RepresentationConfig,
             skeleton: mo.Skeleton | None) -> me.ToyTaskSpec:
    """The task section; a component ``"mean": "reference"`` is the rest pose."""
    comps = d.get("components")
    if isinstance(comps, list):
        rest = mo.reference_point(cfg, skeleton).tolist()
        d = {**d, "components": [
            _build(me.MixtureComponent,
                   {**c, "mean": rest} if isinstance(c, dict) and c.get("mean") == "reference"
                   else c, f"train.task.components[{i}]")
            for i, c in enumerate(comps)]}
    return _build(me.ToyTaskSpec, d, "train.task", representation=cfg, skeleton=skeleton)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(doc: dict, args) -> tuple[str, dict]:
    cfg = _build(mo.RepresentationConfig, doc["representation"], "train.representation")
    skeleton = _skeleton(doc["skeleton"], cfg)
    m = mo.config_to_manifold(cfg)
    net_spec = _build(nn.NetworkSpec, doc["network"], "train.network",
                      input_dim=m.total_ambient_dim)
    train_doc = doc["train"]
    if args.seed is not None or "seed" not in train_doc:
        train_doc = {**train_doc, "seed": doc["seed"]}
    train_cfg = _build(nn.TrainConfig, train_doc, "train.train")

    prior = _prior(m, cfg, skeleton, doc["prior_scale"])
    task = _toy_task(doc["task"], cfg, skeleton)
    data_rng = np.random.default_rng([train_cfg.seed, 1])
    data, conditions = me.generate_toy_dataset(task, m, data_rng)

    result = nn.train(train_cfg, net_spec, m, data, prior, conditions)
    return f"trained {train_cfg.total_steps} steps", {
        "checkpoint.rmg": partial(
            nn.save_checkpoint, train_cfg=train_cfg, m=m, result=result,
            extra={"representation": dataclasses.asdict(cfg), "prior_scale": doc["prior_scale"],
                   "skeleton": None if skeleton is None else skeleton.to_json_dict()}),
        "losses.csv": partial(nn.history_to_csv, result.history),
    }


def _sampler_configs(num_steps: int, guidance_scale: float, condition):
    return (fl.IntegratorConfig(num_steps),
            fl.GuidanceConfig(scale=guidance_scale, enabled=condition is not None))


def _sample_points(ckpt: nn.Checkpoint, prior: mf.WrappedGaussianSpec,
                   integ: fl.IntegratorConfig, guid: fl.GuidanceConfig, seed,
                   num_samples: int, condition, use_ema: bool) -> np.ndarray:
    params = ckpt.params
    if use_ema:
        params = nn.VectorFieldParams(ckpt.net_spec, ckpt.ema.shadow)
    field = nn.field_from_params(params)
    rng = np.random.default_rng(seed)
    # A list, not np.full: a negative count must reach sample_ode's own check.
    cond_arr = None if condition is None else [condition] * num_samples
    return fl.sample_ode(ckpt.manifold, field, prior, integ, guid, cond_arr, rng,
                         num_samples=num_samples)


def cmd_sample(doc: dict, args) -> tuple[str, dict]:
    if not args.checkpoint:
        raise InvalidConfig("sample requires --checkpoint")
    ckpt, cfg, skeleton, prior = _read(_load_model, args.checkpoint, "checkpoint")
    if doc["output_format"] not in ("jsonl", "motion"):
        raise InvalidConfig(f"unknown output_format {doc['output_format']!r}")
    num_samples = doc["num_samples"]
    guidance_scale = float(doc["guidance_scale"])
    # Checked before sampling, which would otherwise find a bad setting
    # late or, with no samples, not at all.
    nn._cond_indices(ckpt.net_spec, doc["condition"], 1)  # a dry run checks the class
    integ, guid = _sampler_configs(doc["num_steps"], guidance_scale, doc["condition"])
    if doc["output_format"] == "motion":  # a dry run checks fps, rotations and skeleton
        mo.points_to_sequence(np.empty((0, ckpt.manifold.total_ambient_dim)), cfg, skeleton,
                              fps=doc["fps"])

    points = _sample_points(ckpt, prior, integ, guid, doc["seed"], num_samples,
                            doc["condition"], doc["use_ema"])
    files = {"samples.jsonl": partial(_write_jsonl, points)}
    if doc["output_format"] == "motion":
        seq = mo.points_to_sequence(points, cfg, skeleton, fps=doc["fps"])
        files["samples_motion.json"] = partial(mo.save_motion, seq)
    files["metadata.json"] = partial(_write_json, {
        "num_steps": doc["num_steps"], "guidance_scale": guidance_scale, "seed": doc["seed"],
        "num_samples": num_samples, "condition": doc["condition"], "use_ema": doc["use_ema"],
    }, indent=1)
    return f"sampled {num_samples} points", files


def cmd_convert(doc: dict, args) -> tuple[str, dict]:
    target = doc["target"]
    if target == "rmg-point":
        cfg = _build(mo.RepresentationConfig, doc["representation"], "convert.representation")
        points = mo.sequence_to_points(_read(mo.load_motion, doc["input"], "motion"), cfg)
        return f"converted {points.shape[0]} frames to points", {
            "points.jsonl": partial(_write_jsonl, points)}
    if target == "positions":
        seq = _read(mo.load_motion, doc["input"], "motion")
        positions, velocities = mo.convert_to_position_format(seq)
        return f"converted {len(seq)} frames to positions", {
            "positions.json": partial(_write_json, {
                "fps": seq.fps, "positions": positions.tolist(),
                "position_velocities": velocities.tolist()})}
    if target == "motion":
        cfg = _build(mo.RepresentationConfig, doc["representation"], "convert.representation")
        skeleton = _skeleton(doc["skeleton"], cfg)
        points = _read(_read_jsonl, doc["input"], "points")
        seq = mo.points_to_sequence(points, cfg, skeleton, fps=doc["fps"])
        return f"converted {len(seq)} points to motion", {
            "motion.json": partial(mo.save_motion, seq)}
    raise InvalidConfig(f"unknown convert target {target!r}")


def _eval_manifold(doc: dict) -> mf.ManifoldSpec:
    """The manifold that an eval config names, by ``manifold`` or by
    ``representation``; naming it twice is an error, not a precedence."""
    if doc["manifold"] is not None and doc["representation"] is not None:
        raise InvalidConfig("eval config takes 'manifold' or 'representation', not both")
    if doc["manifold"] is not None:
        return mf.ManifoldSpec.from_json_dict(doc["manifold"], "eval.manifold")
    if doc["representation"] is not None:
        return mo.config_to_manifold(
            _build(mo.RepresentationConfig, doc["representation"], "eval.representation"))
    raise InvalidConfig("eval config requires 'manifold' or 'representation'")


def cmd_eval(doc: dict, args) -> tuple[str, dict]:
    require_number("guidance_scale", doc["guidance_scale"], 0)  # a label, as sample's
    m = _eval_manifold(doc)
    samples = _read(_read_jsonl, doc["samples"], "points")
    reference = _read(_read_jsonl, doc["reference"], "points")
    report = me.evaluate_samples(
        m, samples, reference,
        bandwidth=doc["bandwidth"],
        modes=_modes(doc["modes"]),
        assign_radius=doc["assign_radius"],
    )
    return f"mmd={report.mmd:.6g}", {
        "report.json": partial(_write_json, dataclasses.asdict(report), indent=1),
        "report.csv": partial(_write_lines, [
            me.CSV_HEADER, report.csv_row(doc["seed"], doc["guidance_scale"])]),
    }


def cmd_sweep(doc: dict, args) -> tuple[str, dict]:
    scales = doc["guidance_scales"]
    if not scales:
        raise InvalidConfig("sweep config requires a nonempty 'guidance_scales' list")
    for i, scale in enumerate(scales):
        _check(scale, float, False, f"sweep.guidance_scales[{i}]")
    sample = _fill(doc["sample"], "sweep.sample", SCHEMA["sweep.sample"])
    configs = [(scale, *_sampler_configs(sample["num_steps"], float(scale), sample["condition"]))
               for scale in scales]
    scoring = _fill(doc["eval"], "sweep.eval", SCHEMA["sweep.eval"])
    if not args.checkpoint:
        raise InvalidConfig("sweep requires --checkpoint")
    ckpt, _, _, prior = _read(_load_model, args.checkpoint, "checkpoint")
    nn._cond_indices(ckpt.net_spec, sample["condition"], 1)  # checked once, not per row
    m = ckpt.manifold
    reference = _read(_read_jsonl, scoring["reference"], "points")
    score = {"bandwidth": scoring["bandwidth"], "modes": _modes(scoring["modes"]),
             "assign_radius": scoring["assign_radius"]}
    me.check_scoring(m, (sample["num_samples"], m.total_ambient_dim), reference.shape, **score)

    def run_row(index, scale, integ, guid):
        seed = doc["seed"] + index
        try:  # only the sampler's numerical failure becomes a row; others end the sweep
            points = _sample_points(ckpt, prior, integ, guid, seed, sample["num_samples"],
                                    sample["condition"], sample["use_ema"])
        except NotTangent as exc:
            return None, f"{seed},{float(scale):.12g},,,,,,{type(exc).__name__}: {exc}"
        report = me.evaluate_samples(m, points, reference, **score)
        return points, report.csv_row(seed, float(scale)) + ","

    rows = [run_row(i, *config) for i, config in enumerate(configs)]
    files = {f"row_{index}/samples.jsonl": partial(_write_jsonl, points)
             for index, (points, _) in enumerate(rows) if points is not None}
    files["sweep.csv"] = partial(_write_lines, [me.CSV_HEADER + ",error", *(r for _, r in rows)])
    return f"swept {len(rows)} guidance scales", files


def cmd_validate(doc: dict, args) -> tuple[str, dict]:
    tol = float(doc["tolerance"])
    seq = _read(partial(mo.load_motion, tol=tol), doc["input"], "motion")
    return f"{len(seq)} frames valid (tolerance {tol})", {}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rmgflow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "sample", "convert", "eval", "sweep", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        if "seed" in SCHEMA[name]:
            p.add_argument("--seed", type=int, default=None)
        if name in ("sample", "sweep"):
            p.add_argument("--checkpoint", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _load_config(args.config, args.command)
        if "seed" in doc:
            if args.seed is not None:
                doc["seed"] = args.seed
            require_int("seed", doc["seed"], 0)
        # Looked up at call time, so a tracer that replaces a module
        # attribute cmd_* wraps the command that runs.
        summary, files = globals()[f"cmd_{args.command}"](doc, args)
        out = Path(args.out)
        for name, write in files.items():
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            write(out / name)
        print(f"{summary}; wrote {', '.join(files)} to {out}" if files else summary)
        return 0
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RmgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
