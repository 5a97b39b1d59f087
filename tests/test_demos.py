"""The demos run end to end against the public API.

Each script in ``demos/`` runs as a subprocess and must exit 0; the ones
that take ``--samples`` run at a reduced sample count, and those in
``PINNED_STDOUT`` must print the pinned text.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SAMPLES = "20000"

# stdout at SAMPLES samples, recorded before the reversal scan became one
# Monte Carlo pass for both sets and every sigma
PINNED_STDOUT = {
    "worst_case_reversal": """\
diverging-noise risks per vertex, c = 0.75:
  x = 0.50  ->  v1: 1.324659, v2: 1.306278, vx: 0.808860   sup = 1.324659 at v1
  x = 1.30  ->  v1: 1.385120, v2: 1.383614, vx: 1.340221   sup = 1.385120 at v1

worst-case limiting risk along the family x -> conv{v1, v2, (x, 1)}:
  at x = 0       envelope = 1.423379
  minimum        envelope = 1.324041 at x = 0.4287
  at x = 1/c     envelope = 1.388889
  the dip means shrinking the set first helps, then hurts, the worst case

Monte Carlo sup-risk scan at n = 20000 (common random numbers):
   sigma   sup small set   sup large set
     1.0        0.423045        0.459106
     2.0        0.813358        0.814104
     5.0        1.144450        1.103487
    10.0        1.264613        1.211484
    20.0        1.328153        1.266747
  certified reversal at sigma = 10: the smaller set
  has strictly larger worst-case risk by more than four standard errors
""",
}


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
    if demo.stem in PINNED_STDOUT:
        assert proc.stdout == PINNED_STDOUT[demo.stem]
