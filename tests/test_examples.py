"""Smoke tests: every example script runs end to end.

The examples' row counts are scaled down via their module constants so
the whole file stays fast; the scripts' own internal assertions
(answers verified against naive scans) still run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_quickstart(capsys):
    module = load_example("quickstart")
    module.main()
    out = capsys.readouterr().out
    assert "[ok]" in out
    assert "MISMATCH" not in out


def test_dss_dashboard(capsys):
    module = load_example("dss_dashboard")
    module.NUM_ROWS = 5_000
    module.main()
    assert "[verified]" in capsys.readouterr().out


def test_index_advisor(capsys):
    module = load_example("index_advisor")
    module.NUM_ROWS = 5_000
    module.main()
    out = capsys.readouterr().out
    assert "Recommended:" in out or "No design fits" in out


def test_compression_study(capsys):
    module = load_example("compression_study")
    module.NUM_ROWS = 5_000
    module.main()
    out = capsys.readouterr().out
    assert "bbc" in out and "wah" in out


def test_scientific_data(capsys):
    module = load_example("scientific_data")
    module.NUM_ROWS = 5_000
    module.main()
    out = capsys.readouterr().out
    assert "[verified]" in out
    assert "equi-depth" in out
