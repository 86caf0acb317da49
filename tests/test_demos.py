"""Smoke test: the demos run to completion against the current API (the two
long ones as their --quick pass).

The demos run in-process, so the package resolves exactly as it does for
the rest of the suite; each runs in a temporary working directory.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name", ["delta_kernel", "fluid_modes", "plate_limit", "surface_geometry"]
)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"demo_{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.slow
@pytest.mark.parametrize("name", ["traveling_wave", "convergence_study"])
def test_long_demo_quick_pass(name, tmp_path, monkeypatch, capsys):
    # --quick: the wave at N = 16, the study on the 16/32 ladder
    monkeypatch.chdir(tmp_path)
    path = str(DEMOS / f"demo_{name}.py")
    monkeypatch.setattr("sys.argv", [path, "--quick"])
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out.strip()
