"""The demos run end to end against the public API.

Each script in ``demos/`` runs as a subprocess and must exit 0; the ones
that take ``--samples`` run at a reduced sample count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SAMPLES = "20000"


def test_demos_are_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    argv = [sys.executable, str(demo)]
    if "--samples" in demo.read_text(encoding="utf-8"):
        argv += ["--samples", SAMPLES]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
