"""Every ```python block of README.md runs as written, each on its own,
and every ```json block is a problem configuration that loads."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from osc_llei import load_config

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
CONFIGS = re.findall(r"^```json\n(.*?)^```$", README.read_text(), flags=re.S | re.M)


def test_readme_has_python_blocks() -> None:
    assert len(BLOCKS) >= 4


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, capsys) -> None:
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_readme_config_loads(index) -> None:
    load_config(json.loads(CONFIGS[index]))
