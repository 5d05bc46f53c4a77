"""The README's two key tables list exactly the keys, JSON types and
defaults that ``cli.SCHEMA`` and the configured dataclasses declare."""

import json
import re
from pathlib import Path

from rmgflow import cli
from rmgflow import manifold as mf
from rmgflow import metrics as me
from rmgflow import motion as mo
from rmgflow import net as nn

README = Path(__file__).resolve().parents[1] / "README.md"

SECTIONS = {
    "representation": cli._dataclass_schema(mo.RepresentationConfig),
    "train.network": cli._dataclass_schema(nn.NetworkSpec, ("input_dim",)),
    "train.train": cli._dataclass_schema(nn.TrainConfig),
    "train.task": cli._dataclass_schema(me.ToyTaskSpec, ("representation", "skeleton")),
    "train.task.components[i]": cli._dataclass_schema(me.MixtureComponent),
    "eval.manifold.factors[i]": cli._dataclass_schema(mf.FactorSpec),
}


def _row(where: str, key: str, typ: type, default) -> str:
    shown = "required" if default is cli.REQUIRED else f"`{json.dumps(default)}`"
    kind = cli._JSON_NAMES[typ].split(" ", 1)[1]
    return f"| `{where}` | `{key}` | {kind} | {shown} |"


def _rendered() -> set[str]:
    return {_row(where, key, typ, default)
            for schemas in (cli.SCHEMA, SECTIONS) for where, schema in schemas.items()
            for key, (typ, default) in schema.items()}


def test_readme_key_tables_match_the_schema():
    rows = {line for line in README.read_text().splitlines()
            if re.match(r"\| `[^`]+` \| `[^`]+` \|", line)}
    assert rows == _rendered()
