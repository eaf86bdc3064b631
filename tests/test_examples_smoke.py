"""Smoke tests: the fast examples must run end-to-end.

The slower, sweep-heavy examples (climate_campaign, fidelity_report,
timeseries_roi, hacc_checkpoint) are exercised manually /
by CI at a longer budget; the three quick ones run here so a broken public
API surfaces immediately.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = ["quickstart.py", "custom_pipeline.py",
                 "stf_async_pipeline.py"]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys, monkeypatch):
    path = EXAMPLES / script
    assert path.exists(), script
    # examples guard on __main__, so run them as such
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 50  # produced real output


def test_examples_inventory_documented():
    """Every example script appears in examples/README.md."""
    readme = (EXAMPLES / "README.md").read_text()
    for script in EXAMPLES.glob("*.py"):
        assert script.name in readme, script.name
