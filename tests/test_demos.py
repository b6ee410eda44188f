import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_python(args, tmp_path):
    """Run Python in tmp_path on the source tree, RuntimeWarnings as errors."""
    # Scripts write their files under tempfile's directory: point it at tmp_path.
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    # The pytest configuration's warning filter does not reach a subprocess.
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    done = run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = run_python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    assert "propagation accuracy:" in done.stdout and "visual separation:" in done.stdout
