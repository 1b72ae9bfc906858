"""Smoke tests for the example scripts.

Every example must at least compile; the fast ones run end-to-end in a
subprocess (the slow experiment walkthroughs are exercised through the
same library calls by the experiments tests, so a compile check suffices
for them here).  A fast example with a recorded copy of its output under
``tests/golden/examples/`` must print exactly that.
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "examples"

#: Examples cheap enough to execute in the test suite.
FAST_EXAMPLES = ["quickstart.py", "cache_design_study.py", "multilevel_memory.py"]


def test_examples_exist():
    names = {path.name for path in ALL_EXAMPLES}
    assert {"quickstart.py", "robot_vision_system.py",
            "media_codec_system.py", "schedulability_explorer.py",
            "multilevel_memory.py", "cache_design_study.py"} <= names


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    golden = GOLDEN_DIR / (pathlib.Path(name).stem + ".txt")
    if golden.exists():
        assert result.stdout == golden.read_text()
    else:
        assert "bound holds: True" in result.stdout


def test_examples_have_docstrings_and_main():
    for path in ALL_EXAMPLES:
        source = path.read_text()
        assert source.lstrip().startswith(('"""', "#!")), path.name
        assert 'if __name__ == "__main__":' in source, path.name
