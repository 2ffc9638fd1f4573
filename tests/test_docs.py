"""The README's config reference agrees with the one copy of the defaults."""

import pathlib

from tnnsim import cli
from tnnsim.network import CONFIG_KEYS, NetworkConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def config_reference() -> dict[str, str]:
    """Key -> listed default, from the README's "Config reference" table."""
    section = README.read_text().split("## Config reference", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    table = {}
    for row in rows:
        keys, default = (cell.strip() for cell in row.strip("|").split("|")[:2])
        for key in keys.split("/"):
            table[key.strip().strip("`")] = default.strip("`")
    return table


def test_network_defaults_match_readme():
    table = config_reference()
    defaults = NetworkConfig(layers=((1, 1),), pixel_count=1).to_mapping()
    assert table["layers"] == "required"
    listed = {key: table.get(key) for key in CONFIG_KEYS if key != "layers"}
    assert listed == {key: defaults[key] for key in listed}


def test_readme_lists_every_config_key():
    assert set(config_reference()) == cli._CONFIG_KEYS
