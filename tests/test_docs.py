"""The README agrees with the code it describes: the config reference with
the one copy of the defaults, and the kernel memory bound with
``neuron.kernel_bytes``."""

import math
import pathlib
import re

import pytest

from tnnsim import cli
from tnnsim.network import CONFIG_KEYS, NetworkConfig
from tnnsim.neuron import kernel_bytes
from tnnsim.stdp import StdpParams

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


def readme_kernel_bound() -> tuple[str, str, str]:
    """The README's backticked kernel bound and its ``depth`` and ``words``."""
    text = " ".join(README.read_text().split())
    found = re.search(
        r"`neuron\.kernel_bytes`, is `([^`]+)` bytes, "
        r"with `depth = ([^`]+)` and `words = ([^`]+)`",
        text,
    )
    assert found, "README no longer states the kernel bound"
    return found.groups()


@pytest.mark.parametrize(
    "neurons, lines, w_max, period",
    [
        (640, 1568, 7, 16),
        (20000, 8, 2, 256),
        (3, 200000, 7, 4096),
        (30, 70000, 7, 1024),
        (4, 3, 7, 4),  # depth capped by the period
        (1, 1, 1, 2),
    ],
)
def test_readme_kernel_bound_matches_code(neurons, lines, w_max, period):
    bound, depth_expr, words_expr = readme_kernel_bound()
    names = {"min": min, "ceil": math.ceil, "neurons": neurons, "lines": lines,
             "w_max": w_max, "period": period}
    names["depth"] = eval(depth_expr, {"__builtins__": {}}, names)
    names["words"] = eval(words_expr, {"__builtins__": {}}, names)
    config = NetworkConfig(
        layers=((1, 1),), pixel_count=1, period=period, stdp_params=StdpParams(w_max=w_max)
    )
    assert names["depth"] == config.plane_depth
    expected = kernel_bytes(neurons, lines, names["depth"], period)
    assert eval(bound, {"__builtins__": {}}, names) == expected
