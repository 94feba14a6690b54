"""Every script under scripts/ imports against the current API and defines main."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_loads_and_defines_main(path):
    namespace = runpy.run_path(str(path), run_name="not_main")
    assert callable(namespace.get("main"))
