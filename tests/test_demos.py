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

# stdout at SAMPLES samples, recorded when the scan's sup columns became
# exact and Monte Carlo moved to a cross-check at each set's winner
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

exact sup-risk over 99 candidates per set, and Monte Carlo
at each winner with n = 20000 (common random numbers):
   sigma   sup small set   sup large set   MC small   MC large
     1.0        0.420700        0.461357     0.4196     0.4591
     2.0        0.812686        0.816690     0.8134     0.8141
     5.0        1.142909        1.108832     1.1445     1.1035
    10.0        1.262969        1.215459     1.2646     1.2115
    20.0        1.323905        1.269826     1.3244     1.2667
  reversal from sigma = 5: the smaller set has the
  strictly larger exact worst-case risk over its candidates
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
