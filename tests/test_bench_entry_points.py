"""Every library entry point the benchmark wraps still resolves.

bench/design.json names the spans it times as "module:attr[.attr]"
targets.  The benchmark reports a missing target and keeps running, so
a rename or deletion in the library would silently drop a per-layer
metric; this test makes it fail instead.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

DESIGN = Path(__file__).resolve().parent.parent / "bench" / "design.json"
TARGETS = sorted({e["target"] for e in json.loads(DESIGN.read_text())["entry_points"]})


def test_design_lists_entry_points() -> None:
    assert TARGETS


@pytest.mark.parametrize("target", TARGETS)
def test_entry_point_resolves(target: str) -> None:
    modname, path = target.split(":")
    owner = importlib.import_module(modname)
    for attr in path.split("."):
        assert hasattr(owner, attr), f"{target}: {owner!r} has no attribute {attr!r}"
        owner = getattr(owner, attr)
