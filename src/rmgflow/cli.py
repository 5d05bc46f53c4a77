"""Command-line entry point: train / sample / convert / eval / sweep / validate.

Every command reads a JSON config (``{"schema": 1, ...}``) and writes its
artifacts into ``--out``.  ``SCHEMA`` declares each top-level key once, with
its JSON type and default; a section that configures a dataclass
(``representation``, ``network``, ``train``, ``task`` and its components, the
factors of an eval ``manifold``) takes that dataclass's fields, types and
defaults.  Unknown keys, missing required keys and values of the wrong JSON
type are rejected.  Outputs are bitwise deterministic given config + seed.
Exit codes: 0 success, 2 configuration or validation error (an input file
that cannot be read or parsed included), 3 non-finite training loss.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import flow as fl
from . import manifold as mf
from . import metrics as me
from . import motion as mo
from . import net as nn
from .errors import ConfigError, NonFiniteLoss, RmgError

# ---------------------------------------------------------------------------
# config schema: key -> (JSON type, default or REQUIRED); null is accepted
# exactly where the default is None
# ---------------------------------------------------------------------------

REQUIRED = object()

_SAMPLING = {"num_steps": (int, 100), "condition": (int, None), "use_ema": (bool, True)}
_SCORING = {"bandwidth": (float, None), "modes": (list, None), "assign_radius": (float, 1.0)}

SCHEMA: dict[str, dict[str, tuple[type, object]]] = {
    "train": {"seed": (int, 0), "representation": (dict, REQUIRED), "task": (dict, REQUIRED),
              "network": (dict, {}), "train": (dict, REQUIRED), "prior_scale": (float, 1.0),
              "skeleton": (str, None)},
    "sample": {**_SAMPLING, "guidance_scale": (float, 1.0), "seed": (int, 42),
               "num_samples": (int, 1), "output_format": (str, "jsonl"),
               "fps": (float, 30.0), "representation": (dict, None)},
    "convert": {"input": (str, REQUIRED), "target": (str, REQUIRED),
                "representation": (dict, None), "skeleton": (str, None), "fps": (float, 30.0)},
    "eval": {"samples": (str, REQUIRED), "reference": (str, REQUIRED),
             "manifold": (dict, None), "representation": (dict, None), **_SCORING,
             "seed": (int, 0), "guidance_scale": (float, 0.0)},
    "eval.manifold": {"factors": (list, REQUIRED)},
    "sweep": {"checkpoint": (str, None), "guidance_scales": (list, REQUIRED),
              "sample": (dict, {}), "eval": (dict, REQUIRED), "seed": (int, 0)},
    "sweep.sample": {**_SAMPLING, "num_samples": (int, 100)},
    "sweep.eval": {"reference": (str, REQUIRED), **_SCORING},
    "validate": {"input": (str, REQUIRED), "tolerance": (float, 1e-6)},
}

_JSON_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
               list: "an array", dict: "an object"}


def _check(value, typ: type, nullable: bool, where: str) -> None:
    """Raise unless ``value`` has JSON type ``typ``; an integer is a number,
    a boolean is neither."""
    if value is None and nullable:
        return
    if isinstance(value, (int, float) if typ is float else typ) and (
            typ is bool or not isinstance(value, bool)):
        return
    raise ConfigError(f"{where} must be {_JSON_NAMES[typ]}{' or null' if nullable else ''}, "
                      f"got {json.dumps(value)}")


def _fill(doc, ctx: str, schema: dict | None = None) -> dict:
    """``doc`` checked against ``schema`` (default ``SCHEMA[ctx]``), with
    every default filled in."""
    schema = SCHEMA[ctx] if schema is None else schema
    _check(doc, dict, False, ctx)
    for key in doc:
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in {ctx}")
    out = {}
    for key, (typ, default) in schema.items():
        if key in doc:
            _check(doc[key], typ, default is None, f"{ctx}.{key}")
            out[key] = doc[key]
        elif default is REQUIRED:
            raise ConfigError(f"{ctx} requires '{key}'")
        else:
            out[key] = default
    return out


def _json_type(hint) -> type:
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        hint = typing.get_args(hint)[0]
    hint = typing.get_origin(hint) or hint
    return list if hint in (tuple, np.ndarray) else hint


def _dataclass_schema(cls, fixed=()) -> dict:
    """``SCHEMA`` entries for the fields of dataclass ``cls`` not in ``fixed``."""
    hints = typing.get_type_hints(cls)
    return {f.name: (_json_type(hints[f.name]),
                     REQUIRED if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(cls) if f.name not in fixed}


def _build(cls, d, ctx: str, **fixed):
    """Dataclass ``cls`` from config section ``d`` plus the ``fixed`` fields."""
    kwargs = _fill(d, ctx, _dataclass_schema(cls, fixed))
    try:
        return cls(**kwargs, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _seed(value: int, override) -> int:
    seed = value if override is None else override
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------


def _read(parse, path, what: str):
    """``parse(path)``, with an input that cannot be read or parsed turned
    into a ConfigError."""
    try:
        return parse(path)
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _json_file(path):
    with open(path) as fh:
        return json.load(fh)


def _load_config(path, command: str) -> dict:
    doc = _read(_json_file, path, "config")
    if not isinstance(doc, dict) or doc.pop("schema", None) != 1:
        raise ConfigError("config must be a JSON object declaring \"schema\": 1")
    return _fill(doc, command)


def _skeleton(path) -> mo.Skeleton:
    if path is None:
        return mo.default_skeleton()
    return _read(lambda p: mo.Skeleton.from_json_dict(_json_file(p)), path, "skeleton")


def _write_jsonl(points: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for row in np.atleast_2d(points):
            fh.write(json.dumps(list(row)) + "\n")


def _read_jsonl(path) -> np.ndarray:
    """Points, one flat JSON array per line; ragged rows raise ValueError."""
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if not rows:
        return np.empty((0, 0))
    points = np.asarray(rows, dtype=float)
    if points.ndim != 2:
        raise ValueError("each line must be a flat array of numbers")
    return points


def _modes(modes, m: mf.ManifoldSpec) -> list[np.ndarray] | None:
    """Mode centers as points of ``m``; None when there are none."""
    if not modes:
        return None
    try:
        points = np.asarray(modes, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"modes must be arrays of numbers: {exc}") from exc
    if points.shape != (len(modes), m.total_ambient_dim):
        raise ConfigError(f"modes must be points of dimension {m.total_ambient_dim}")
    return list(points)


def _prior(m: mf.ManifoldSpec, cfg: mo.RepresentationConfig, skeleton: mo.Skeleton,
           scale: float) -> mf.WrappedGaussianSpec:
    """The wrapped Gaussian at the rest pose that training draws x0 from."""
    return mf.WrappedGaussianSpec(m, fl.reference_point(cfg, skeleton), scale)


def _load_model(path):
    """A trained checkpoint with its representation, skeleton and prior."""
    ckpt = nn.load_checkpoint(path)
    header = ckpt.header
    cfg = mo.RepresentationConfig.from_json_dict(header["representation"])
    skeleton = (mo.Skeleton.from_json_dict(header["skeleton"]) if "skeleton" in header
                else mo.default_skeleton())
    return ckpt, cfg, skeleton, _prior(ckpt.manifold, cfg, skeleton, header["prior_scale"])


def _toy_task(d: dict, cfg: mo.RepresentationConfig, skeleton: mo.Skeleton) -> me.ToyTaskSpec:
    """The task section; a component ``"mean": "reference"`` is the rest pose."""
    comps = d.get("components")
    if isinstance(comps, list):
        rest = fl.reference_point(cfg, skeleton).tolist()
        d = {**d, "components": [
            _build(me.MixtureComponent,
                   {**c, "mean": rest} if isinstance(c, dict) and c.get("mean") == "reference"
                   else c, f"train.task.components[{i}]")
            for i, c in enumerate(comps)]}
    return _build(me.ToyTaskSpec, d, "train.task", representation=cfg, skeleton=skeleton)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(config_path, out_dir, seed_override=None) -> int:
    doc = _load_config(config_path, "train")
    cfg = _build(mo.RepresentationConfig, doc["representation"], "train.representation")
    skeleton = _skeleton(doc["skeleton"])
    m = mo.config_to_manifold(cfg)
    net_spec = _build(nn.NetworkSpec, doc["network"], "train.network",
                      input_dim=m.total_ambient_dim)
    train_doc = doc["train"]
    if seed_override is not None or "seed" not in train_doc:
        train_doc = {**train_doc, "seed": doc["seed"] if seed_override is None else seed_override}
    train_cfg = _build(nn.TrainConfig, train_doc, "train.train")

    prior = _prior(m, cfg, skeleton, doc["prior_scale"])
    task = _toy_task(doc["task"], cfg, skeleton)
    data_rng = np.random.default_rng([train_cfg.seed, 1])
    data, conditions = me.generate_toy_dataset(task, m, data_rng)

    result = nn.train(train_cfg, net_spec, m, data, prior, conditions)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nn.save_checkpoint(
        out / "checkpoint.rmg", net_spec, train_cfg, m, result.params, result.ema,
        step=train_cfg.total_steps, rng_state=result.rng_state,
        extra={"representation": cfg.to_json_dict(), "prior_scale": doc["prior_scale"],
               "skeleton": skeleton.to_json_dict()},
    )
    nn.history_to_csv(result.history, out / "losses.csv")
    print(f"trained {train_cfg.total_steps} steps; wrote {out / 'checkpoint.rmg'}")
    return 0


def _sample_points(ckpt: nn.Checkpoint, prior: mf.WrappedGaussianSpec, num_steps: int,
                   guidance_scale: float, seed, num_samples: int, condition,
                   use_ema: bool) -> np.ndarray:
    params = ckpt.params
    if use_ema:
        params = nn.VectorFieldParams(ckpt.net_spec, ckpt.ema.shadow.copy())
    field = nn.field_from_params(params)
    rng = np.random.default_rng(seed)
    cond_arr = None if condition is None else np.full(num_samples, condition)
    guid = fl.GuidanceConfig(scale=guidance_scale, enabled=condition is not None)
    return fl.sample_ode(ckpt.manifold, field, prior, fl.IntegratorConfig(num_steps), guid,
                         cond_arr, rng, num_samples=num_samples)


def cmd_sample(checkpoint_path, config_path, out_dir, seed_override=None) -> int:
    if not checkpoint_path:
        raise ConfigError("sample requires --checkpoint")
    doc = _load_config(config_path, "sample")
    ckpt, cfg, skeleton, prior = _read(_load_model, checkpoint_path, "checkpoint")
    if doc["representation"] is not None:
        asked = _build(mo.RepresentationConfig, doc["representation"], "sample.representation")
        if mo.ambient_dimension(asked) != ckpt.manifold.total_ambient_dim:
            raise ConfigError("representation ambient dimension does not match the checkpoint")
    if doc["output_format"] not in ("jsonl", "motion"):
        raise ConfigError(f"unknown output_format {doc['output_format']!r}")
    num_samples = doc["num_samples"]
    if num_samples < 0:
        raise ConfigError(f"num_samples must be >= 0, got {num_samples}")
    guidance_scale = float(doc["guidance_scale"])
    seed = _seed(doc["seed"], seed_override)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if num_samples == 0:
        points = np.empty((0, ckpt.manifold.total_ambient_dim))
    else:
        points = _sample_points(ckpt, prior, doc["num_steps"], guidance_scale, seed,
                                num_samples, doc["condition"], doc["use_ema"])
    _write_jsonl(points, out / "samples.jsonl")
    if doc["output_format"] == "motion" and num_samples > 0:
        seq = mo.points_to_sequence(points, cfg, skeleton, fps=doc["fps"])
        mo.save_motion(seq, out / "samples_motion.json")
    meta = {
        "num_steps": doc["num_steps"],
        "guidance_scale": guidance_scale,
        "seed": seed,
        "num_samples": num_samples,
        "condition": doc["condition"],
        "use_ema": doc["use_ema"],
    }
    with open(out / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=1)
    print(f"wrote {num_samples} samples to {out / 'samples.jsonl'}")
    return 0


def cmd_convert(config_path, out_dir, seed_override=None) -> int:
    doc = _load_config(config_path, "convert")
    target = doc["target"]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if target == "rmg-point":
        cfg = _build(mo.RepresentationConfig, doc["representation"], "convert.representation")
        seq = _read(mo.load_motion, doc["input"], "motion")
        points = mo.sequence_to_points(seq, cfg)
        _write_jsonl(points, out / "points.jsonl")
        print(f"wrote {points.shape[0]} points to {out / 'points.jsonl'}")
    elif target == "positions":
        seq = _read(mo.load_motion, doc["input"], "motion")
        positions, velocities = mo.convert_to_position_format(seq)
        with open(out / "positions.json", "w") as fh:
            json.dump({"fps": seq.fps,
                       "positions": positions.tolist(),
                       "position_velocities": velocities.tolist()}, fh)
        print(f"wrote positions for {len(seq)} frames to {out / 'positions.json'}")
    elif target == "motion":
        cfg = _build(mo.RepresentationConfig, doc["representation"], "convert.representation")
        skeleton = _skeleton(doc["skeleton"])
        points = _read(_read_jsonl, doc["input"], "points")
        seq = mo.points_to_sequence(points, cfg, skeleton, fps=doc["fps"])
        mo.save_motion(seq, out / "motion.json")
        print(f"wrote motion with {len(seq)} frames to {out / 'motion.json'}")
    else:
        raise ConfigError(f"unknown convert target {target!r}")
    return 0


def _eval_manifold(doc: dict) -> mf.ManifoldSpec:
    if doc["manifold"] is not None:
        factors = _fill(doc["manifold"], "eval.manifold")["factors"]
        return mf.ManifoldSpec([_build(mf.FactorSpec, f, f"eval.manifold.factors[{i}]")
                                for i, f in enumerate(factors)])
    if doc["representation"] is not None:
        return mo.config_to_manifold(
            _build(mo.RepresentationConfig, doc["representation"], "eval.representation"))
    raise ConfigError("eval config requires 'manifold' or 'representation'")


def cmd_eval(config_path, out_dir, seed_override=None) -> int:
    doc = _load_config(config_path, "eval")
    seed = _seed(doc["seed"], seed_override)
    m = _eval_manifold(doc)
    samples = _read(_read_jsonl, doc["samples"], "points")
    reference = _read(_read_jsonl, doc["reference"], "points")
    for name, arr in (("samples", samples), ("reference", reference)):
        if arr.size and arr.shape[1] != m.total_ambient_dim:
            raise ConfigError(f"{name} dimension {arr.shape[1]} does not match "
                              f"the manifold ({m.total_ambient_dim})")
    report = me.evaluate_samples(
        m, samples, reference,
        bandwidth=doc["bandwidth"],
        modes=_modes(doc["modes"], m),
        assign_radius=doc["assign_radius"],
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=1)
    with open(out / "report.csv", "w") as fh:
        fh.write(me.CSV_HEADER + "\n")
        fh.write(report.csv_row(seed, doc["guidance_scale"]) + "\n")
    print(f"mmd={report.mmd:.6g} -> {out / 'report.json'}")
    return 0


def cmd_sweep(config_path, out_dir, checkpoint_path=None, seed_override=None) -> int:
    doc = _load_config(config_path, "sweep")
    workers = max(1, _read(int, os.environ.get("RMG_THREADS", "1"), "RMG_THREADS"))
    scales = doc["guidance_scales"]
    if not scales:
        raise ConfigError("sweep config requires a nonempty 'guidance_scales' list")
    for i, scale in enumerate(scales):
        _check(scale, float, False, f"sweep.guidance_scales[{i}]")
    sample = _fill(doc["sample"], "sweep.sample")
    if sample["num_samples"] < 1:
        raise ConfigError(f"sweep.sample.num_samples must be >= 1, got {sample['num_samples']}")
    scoring = _fill(doc["eval"], "sweep.eval")
    base_seed = _seed(doc["seed"], seed_override)
    ckpt_path = checkpoint_path or doc["checkpoint"]
    if not ckpt_path:
        raise ConfigError("sweep requires a checkpoint")
    ckpt, _, _, prior = _read(_load_model, ckpt_path, "checkpoint")
    m = ckpt.manifold
    reference = _read(_read_jsonl, scoring["reference"], "points")
    modes = _modes(scoring["modes"], m)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def run_row(index_scale):
        index, scale = index_scale
        seed = base_seed + index
        try:
            points = _sample_points(
                ckpt, prior,
                num_steps=sample["num_steps"],
                guidance_scale=float(scale),
                seed=seed,
                num_samples=sample["num_samples"],
                condition=sample["condition"],
                use_ema=sample["use_ema"],
            )
            row_dir = out / f"row_{index}"
            row_dir.mkdir(exist_ok=True)
            _write_jsonl(points, row_dir / "samples.jsonl")
            report = me.evaluate_samples(
                m, points, reference,
                bandwidth=scoring["bandwidth"],
                modes=modes,
                assign_radius=scoring["assign_radius"],
            )
            return report.csv_row(seed, float(scale)) + ","
        except RmgError as exc:
            return f"{seed},{float(scale):.12g},,,,,,{type(exc).__name__}: {exc}"

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_row, enumerate(scales)))
    else:
        rows = [run_row(pair) for pair in enumerate(scales)]
    with open(out / "sweep.csv", "w") as fh:
        fh.write(me.CSV_HEADER + ",error\n")
        for row in rows:
            fh.write(row + "\n")
    print(f"wrote {len(rows)} sweep rows to {out / 'sweep.csv'}")
    return 0


def cmd_validate(config_path, out_dir, seed_override=None) -> int:
    doc = _load_config(config_path, "validate")
    tol = float(doc["tolerance"])
    if not tol >= 0:  # NaN fails too
        raise ConfigError(f"validate.tolerance must be >= 0, got {tol}")
    seq = _read(partial(mo.load_motion, tol=tol), doc["input"], "motion")
    print(f"{len(seq)} frames valid (tolerance {tol})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rmgflow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "sample", "convert", "eval", "sweep", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".")
        if name in ("sample", "sweep"):
            p.add_argument("--checkpoint", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, args.out, args.seed)
        if args.command == "sample":
            return cmd_sample(args.checkpoint, args.config, args.out, args.seed)
        if args.command == "convert":
            return cmd_convert(args.config, args.out, args.seed)
        if args.command == "eval":
            return cmd_eval(args.config, args.out, args.seed)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out, args.checkpoint, args.seed)
        if args.command == "validate":
            return cmd_validate(args.config, args.out, args.seed)
        raise ConfigError(f"unknown command {args.command}")
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RmgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
