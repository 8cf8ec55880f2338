"""Smoke test: every script under ``demos/`` runs to completion and prints."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a demo that wrote a file would leave it here
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(script), run_name="__main__")
    assert out.getvalue().strip()
    assert list(tmp_path.iterdir()) == []
