"""One owner per input rule: every entry point refuses a bad argument by name.

``exact_risk`` owns "sigma is one positive finite real", ``geometry`` owns
"theta* is a finite point of P", through ``_real_array`` "vertices and
generators are real numbers, not complex, bool or text" and, through
``ExampleGeometry``, "c and x are real numbers, not bools", and
``montecarlo`` owns "counts are
integers", in ``_effective_sigma``, the effective noise
sigma / sqrt(n_obs), and, in ``_worker_count``, "``RISKREV_THREADS`` is a
positive integer".  Each row of the table below calls one entry point,
public or that owner, with one bad value and expects a ``ValueError`` whose
message starts with the argument's name.  A point that is a valid argument
but has no finite projection is refused by the projection itself, with a
``ProjectionError`` naming the point's row.
"""

import math
import os
from unittest import mock

import pytest

import numpy as np

from riskrev.asymptotics import limiting_risk, small_noise_risk, statistical_dimension_mc, vertex_probabilities_2d
from riskrev.exact_risk import RiskQuery, risk_segment_exact
from riskrev.geometry import (
    ConvexPolytope,
    ExampleGeometry,
    ProjectionError,
    project_cone_nonneg,
    project_cone_nonneg_batch,
    tangent_cone_2d,
)
from riskrev.montecarlo import MCConfig, _effective_sigma, _worker_count, mc_risks

TRI = ExampleGeometry(c=1.0).triangle()
CFG = MCConfig(n=100)


def threads_from(raw):
    """The thread count that ``RISKREV_THREADS=raw`` gives."""
    with mock.patch.dict(os.environ, {"RISKREV_THREADS": raw}):
        return _worker_count()


REFUSALS = {
    "mc_risks-sigma-array": (
        lambda: mc_risks(TRI, [[0.0, 0.0]], [1.0, 2.0], CFG), r"^sigma must be a scalar"),
    "RiskQuery-sigma-array": (
        lambda: RiskQuery(theta_star=(0.0, 0.0), sigma=[1.0, 2.0]), r"^sigma must be a scalar"),
    "small_noise_risk-sigma-array": (
        lambda: small_noise_risk(TRI, (0.0, 0.0), [1.0, 2.0]), r"^sigma must be a scalar"),
    "RiskQuery-sigma-text": (
        lambda: RiskQuery(theta_star=(0.0, 0.0), sigma="x"), r"^sigma must be a positive finite real, got 'x'$"),
    "RiskQuery-theta-2d": (
        lambda: RiskQuery(theta_star=[[0.0, 0.0], [1.0, 1.0]], sigma=1.0), r"^theta_star must be a point"),
    "RiskQuery-theta-text": (
        lambda: RiskQuery(theta_star="x", sigma=1.0), r"^theta_star must be numeric"),
    "tangent_cone_2d-theta-nan": (
        lambda: tangent_cone_2d(TRI, (math.nan, 0.0)), r"^theta must be finite$"),
    "tangent_cone_2d-theta-2d": (
        lambda: tangent_cone_2d(TRI, [[0.0, 0.0], [1.0, 0.0]]), r"^theta must be a point"),
    "tangent_cone_2d-theta-3-vector": (
        lambda: tangent_cone_2d(TRI, (0.0, 0.0, 0.0)), r"^theta must have dimension 2$"),
    "small_noise_risk-theta-nan": (
        lambda: small_noise_risk(TRI, (math.nan, 0.0), 0.1), r"^theta must be finite$"),
    "small_noise_risk-generators-theta-nan": (
        lambda: small_noise_risk(TRI, (math.nan, 0.0), 0.1, generators=[[1.0, 0.0]], n=10),
        r"^theta must be finite$"),
    "small_noise_risk-generators-theta-outside": (
        lambda: small_noise_risk(TRI, (5.0, 5.0), 0.1, generators=[[1.0, 0.0]], n=10),
        r"^theta .* must belong to the polytope$"),
    "limiting_risk-theta-nan": (
        lambda: limiting_risk(TRI, (0.0, math.nan), vertex_probabilities_2d(TRI)), r"^theta must be finite$"),
    "_effective_sigma-sigma": (
        lambda: _effective_sigma(-1.0, 4), r"^sigma must be a positive finite real, got -1\.0$"),
    "_effective_sigma-n_obs-zero": (lambda: _effective_sigma(1.0, 0), r"^n_obs must be at least 1, got 0$"),
    "RiskQuery-sigma-none": (
        lambda: RiskQuery(theta_star=(0.0, 0.0), sigma=None), r"^sigma must be a positive finite real, got None$"),
    "RiskQuery-sigma-bool": (
        lambda: RiskQuery(theta_star=(0.0, 0.0), sigma=True), r"^sigma must be a positive finite real, got True$"),
    "ExampleGeometry-c-bool": (lambda: ExampleGeometry(c=True), r"^c must be a positive finite real, got True$"),
    "ExampleGeometry-c-text": (lambda: ExampleGeometry(c="1"), r"^c must be a positive finite real, got '1'$"),
    "ExampleGeometry-x-bool": (lambda: ExampleGeometry(c=0.5, x=True), r"^x must lie in .*, got True$"),
    "ExampleGeometry-x-text": (lambda: ExampleGeometry(c=0.5, x="1"), r"^x must lie in .*, got '1'$"),
    "risk_segment_exact-t_star-bool": (
        lambda: risk_segment_exact(ExampleGeometry(c=0.5), True, 1.0), r"^t_star must lie in \[0, 1\], got True$"),
    "_effective_sigma-n_obs-fraction": (
        lambda: _effective_sigma(1.0, 1.5), r"^n_obs must be an integer, got 1\.5$"),
    "RISKREV_THREADS-empty": (
        lambda: threads_from(""), r"^RISKREV_THREADS must be a positive integer, got ''$"),
    "RISKREV_THREADS-negative": (
        lambda: threads_from("-1"), r"^RISKREV_THREADS must be a positive integer, got '-1'$"),
    "RISKREV_THREADS-fraction": (
        lambda: threads_from("2.5"), r"^RISKREV_THREADS must be a positive integer, got '2\.5'$"),
    "RISKREV_THREADS-exponent": (
        lambda: threads_from("1e3"), r"^RISKREV_THREADS must be a positive integer, got '1e3'$"),
    "ConvexPolytope-vertices-dict": (
        lambda: ConvexPolytope({"a": 1}), r"^vertices must be numeric, got \{'a': 1\}$"),
    "ConvexPolytope-vertices-complex": (lambda: ConvexPolytope([[1 + 2j, 0]]), r"^vertices must be numeric"),
    "ConvexPolytope-vertices-complex-array": (
        lambda: ConvexPolytope(np.array([[1 + 2j, 0.0], [0.0, 1.0]])), r"^vertices must be numeric"),
    "ConvexPolytope-vertices-text": (
        lambda: ConvexPolytope([["0", "0"], ["1", "0"]]), r"^vertices must be numeric"),
    "ConvexPolytope-vertices-bool": (
        lambda: ConvexPolytope([[True, False], [False, True]]), r"^vertices must be numeric"),
    "project_cone_nonneg_batch-generators-dict": (
        lambda: project_cone_nonneg_batch({"a": 1}, [[1.0, 0.0]]), r"^generators must be numeric, got \{'a': 1\}$"),
    "project_cone_nonneg_batch-generators-complex": (
        lambda: project_cone_nonneg_batch([[1j, 0.0]], [[1.0, 0.0]]), r"^generators must be numeric"),
    "project_cone_nonneg-generators-dict": (
        lambda: project_cone_nonneg({"a": 1}, [1.0, 0.0]), r"^generators must be numeric"),
    "statistical_dimension_mc-generators-text": (
        lambda: statistical_dimension_mc([["1", "0"]], n=10), r"^generators must be numeric"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


PROJECTION_REFUSALS = {
    "project_cone_nonneg_batch-non-finite-rows": (
        lambda: project_cone_nonneg_batch([[1.0, 0.0], [0.0, 1.0]], [[math.nan, 1.0], [-math.inf, 2.0], [math.inf, 0.0]]),
        r"^point 0 \[nan, 1\.0\] has no finite distance to the cone$"),
    "project_cone_nonneg-nan": (
        lambda: project_cone_nonneg([[1.0, 0.0], [0.0, 1.0]], [math.nan, 1.0]),
        r"^point 0 \[nan, 1\.0\] has no finite distance to the cone$"),
}


@pytest.mark.parametrize("call, message", PROJECTION_REFUSALS.values(), ids=PROJECTION_REFUSALS.keys())
def test_projection_refuses_non_finite_points(call, message):
    with pytest.raises(ProjectionError, match=message):
        call()
