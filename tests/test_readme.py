"""README.md's CLI section against the spec layer: its examples build, and its
spec reference names exactly the kinds, fields and config defaults there are."""
import json
import re
from pathlib import Path

from meandev import (BacktestConfig, config_from_spec, distortion_from_spec, g_from_spec,
                     model_from_spec)
from meandev.distortion import _KINDS as H_KINDS
from meandev.distributions import _KINDS as MODEL_KINDS
from meandev.portfolio import _CONFIG_FIELDS
from meandev.riskweight import _KINDS as G_KINDS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
CLI = README[README.index("\n## CLI\n"):README.index("\n## Demos\n")]
KINDS = {"--g": G_KINDS, "--h": H_KINDS, "--model": MODEL_KINDS}
BUILDERS = {"--g": g_from_spec, "--h": distortion_from_spec, "--model": model_from_spec,
            "--config": config_from_spec}


def table_rows(first_header):
    """The cells of each row of the markdown table whose header starts with first_header."""
    lines = CLI[CLI.index(f"| {first_header}"):].splitlines()
    rows = []
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_every_cli_example_builds():
    examples = re.findall(r"(--g|--h|--model|--config) '(\{.*?\})'", CLI)
    assert {flag for flag, _ in examples} == set(BUILDERS)
    for flag, text in examples:
        BUILDERS[flag](json.loads(text))


def test_reference_names_every_kind_and_field():
    named = {flag: {} for flag in KINDS}
    for flag, kinds, fields in table_rows("flag"):
        flag = flag.strip("`")
        for kind in re.findall(r"`(\w+)`", kinds):
            named[flag][kind] = set(re.findall(r"`(\w+)`", fields))
    for flag, kinds in KINDS.items():
        assert named[flag] == {kind: set(table) for kind, (_, table) in kinds.items()}, flag


def test_reference_config_defaults_match_backtest_config():
    rows = table_rows("key")
    assert [key.strip("`") for key, _ in rows] == list(_CONFIG_FIELDS)
    default = BacktestConfig()
    for key, text in rows:
        attr, reader = _CONFIG_FIELDS[key.strip("`")]
        value = text.split(" (")[0]
        assert reader(json.loads(value)) == getattr(default, attr), key
