"""Smoke test: the print-only demos run against the current API.

region_gallery.py is left out because it rewrites the SVGs tracked in
demos/.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["counterexample_slopes",
                                  "divergence_diagnostic",
                                  "geometry_certification",
                                  "group_structures"])
def test_demo_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}",
                                                  DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert out.strip()
    assert "np.float64" not in out
