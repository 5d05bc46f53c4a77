"""The README's two key tables list exactly the keys, JSON types and
defaults that ``cli.SCHEMA`` and the configured dataclasses declare, in
their order, and no other line of the README looks like a key row."""

import json
import re
from pathlib import Path

from rmgflow import cli
from rmgflow import manifold as mf
from rmgflow import metrics as me
from rmgflow import motion as mo
from rmgflow import net as nn
from rmgflow.errors import _JSON_NAMES, REQUIRED, _dataclass_schema

README = Path(__file__).resolve().parents[1] / "README.md"

SECTIONS = {
    "representation": _dataclass_schema(mo.RepresentationConfig),
    "train.network": _dataclass_schema(nn.NetworkSpec, ("input_dim",)),
    "train.train": _dataclass_schema(nn.TrainConfig),
    "train.task": _dataclass_schema(me.ToyTaskSpec, ("representation", "skeleton")),
    "train.task.components[i]": _dataclass_schema(me.MixtureComponent),
    "eval.manifold": _dataclass_schema(mf.ManifoldSpec),
    "eval.manifold.factors[i]": _dataclass_schema(mf.FactorSpec),
}


def _row(where: str, key: str, typ: type, default) -> str:
    shown = "required" if default is REQUIRED else f"`{json.dumps(default)}`"
    kind = _JSON_NAMES[typ].split(" ", 1)[1]
    return f"| `{where}` | `{key}` | {kind} | {shown} |"


def test_readme_key_tables_match_the_schema():
    want = [_row(where, key, typ, default)
            for schemas in (cli.SCHEMA, SECTIONS) for where, schema in schemas.items()
            for key, (typ, default) in schema.items()]
    readme = README.read_text()
    cli_section = readme.split("## CLI\n")[1].split("\n## ")[0]
    assert [line for line in cli_section.splitlines() if line.startswith("| `")] == want
    assert [line for line in readme.splitlines()
            if re.match(r"\| `[^`]+` \| `[^`]+` \|", line)] == want
