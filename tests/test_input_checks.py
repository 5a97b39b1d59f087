"""One owner per input rule: every entry point refuses a bad argument by name.

``geometry`` owns the number rules: ``_real`` decides "this scalar is a real
number, not a bool", ``_real_array`` "every entry of this array is one, not
a bool, text, complex or None" and ``_integer`` "this count is an integer,
not a bool"; every public numeric argument goes through them.  On top of
these, ``geometry`` owns "theta* is a finite point of P", "generators are a
nonempty, finite m x d array within the enumeration's cap" and, through
``ExampleGeometry``, "c and x are real numbers"; ``exact_risk`` owns "sigma
is one positive finite real"; ``montecarlo`` owns, in ``_effective_sigma``,
the effective noise sigma / sqrt(n_obs), and, in ``_worker_count``,
"``RISKREV_THREADS`` is a positive integer".  Each row of the table below
calls one entry point, public or that owner, with one bad value and expects
a ``ValueError`` whose message starts with the argument's name.  A point
that is a valid argument but has no finite projection is refused by the
projection itself, with a ``ProjectionError`` naming the point's row.
"""
import math
import os
from unittest import mock

import pytest

import numpy as np

from riskrev.asymptotics import (
    VertexDistribution,
    delta_x,
    envelope_curve,
    limiting_risk,
    small_noise_risk,
    statistical_dimension_mc,
    vertex_probabilities_2d,
)
from riskrev.exact_risk import RiskQuery, risk_segment_exact, risk_triangle_exact
from riskrev.gaussfn import (
    int_phi_cdf,
    int_phi_cdf_linear,
    int_z_phi_phi,
    owens_t,
    std_normal_cdf,
    std_normal_cdf_minus_half,
    std_normal_pdf,
)
from riskrev.geometry import (
    Cone2D,
    ConeKind,
    ConvexPolytope,
    ExampleGeometry,
    ProjectionError,
    normal_cone_angle_2d,
    project_cone_nonneg,
    project_cone_nonneg_batch,
    project_polytope,
    project_polytope_batch,
    project_triangle_example,
    tangent_cone_2d,
)
from riskrev.montecarlo import MCConfig, _effective_sigma, _worker_count, cauchy_cdf, mc_risks

G1 = ExampleGeometry(c=1.0)
TRI = G1.triangle()
CUBE = ConvexPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
SEGMENT_3D = ConvexPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
EYE = [[1.0, 0.0], [0.0, 1.0]]
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
    "small_noise_risk-generators-dimension": (
        lambda: small_noise_risk(SEGMENT_3D, (0.0, 0.0, 0.0), 0.1, generators=[[1.0, 0.0]], n=10),
        r"^generators have dimension 2, but the polytope has dimension 3$"),
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
    "ExampleGeometry-c-beyond-float": (
        lambda: ExampleGeometry(c=10**400), r"^c must be a positive finite real, got 1000"),
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
    "ConvexPolytope-vertices-bool-in-list": (
        lambda: ConvexPolytope([[1.5, True], [0.0, 0.0]]), r"^vertices must be numeric, got \[\[1\.5, True\], "),
    "ConvexPolytope-vertices-beyond-float": (
        lambda: ConvexPolytope([[10**400, 0], [0, 0]]), r"^vertices must be numeric, got \[\[1000"),
    "ConvexPolytope-vertices-none": (
        lambda: ConvexPolytope([[0.0, None], [1.0, 0.0]]), r"^vertices must be numeric"),
    "project_polytope_batch-Y-text": (lambda: project_polytope_batch(TRI, [["0.5", "0"]]), r"^Y must be numeric"),
    "project_polytope_batch-Y-bool-in-list": (
        lambda: project_polytope_batch(TRI, [[0.5, True]]), r"^Y must be numeric"),
    "project_polytope_batch-Y-complex": (
        lambda: project_polytope_batch(TRI, np.array([[0.5 + 3j, 0.0]])), r"^Y must be numeric"),
    "project_polytope_batch-Y-dict": (
        lambda: project_polytope_batch(TRI, {"a": 1}), r"^Y must be numeric, got \{'a': 1\}$"),
    "project_polytope-y-text": (lambda: project_polytope(TRI, ["0.5", "2"]), r"^y must be numeric"),
    "project_polytope-y-bool-in-list": (lambda: project_polytope(CUBE, [0.5, True, 0.0]), r"^y must be numeric"),
    "project_polytope-y-complex": (lambda: project_polytope(CUBE, [0.5j, 0.0, 0.0]), r"^y must be numeric"),
    "project_polytope-y-dict": (lambda: project_polytope(TRI, {"a": 1}), r"^y must be numeric"),
    "project_triangle_example-y-text": (lambda: project_triangle_example(G1, ["1", "1"]), r"^y must be numeric"),
    "project_triangle_example-y-bool-in-list": (
        lambda: project_triangle_example(G1, [0.5, True]), r"^y must be numeric"),
    "project_triangle_example-y-complex": (
        lambda: project_triangle_example(G1, [0.5 + 1j, 0.0]), r"^y must be numeric"),
    "project_cone_nonneg_batch-Z-text": (lambda: project_cone_nonneg_batch(EYE, [["1", "0"]]), r"^Z must be numeric"),
    "project_cone_nonneg_batch-Z-bool-in-list": (
        lambda: project_cone_nonneg_batch(EYE, [[0.5, True]]), r"^Z must be numeric"),
    "project_cone_nonneg_batch-Z-complex": (
        lambda: project_cone_nonneg_batch(EYE, np.array([[1j, 0.0]])), r"^Z must be numeric"),
    "project_cone_nonneg_batch-Z-dict": (
        lambda: project_cone_nonneg_batch(EYE, {"a": 1}), r"^Z must be numeric, got \{'a': 1\}$"),
    "project_cone_nonneg-z-text": (lambda: project_cone_nonneg(EYE, ["1", "0"]), r"^z must be numeric"),
    "project_cone_nonneg-z-bool-in-list": (lambda: project_cone_nonneg(EYE, [0.5, True]), r"^z must be numeric"),
    "project_cone_nonneg-z-complex": (lambda: project_cone_nonneg(EYE, [1j, 0.0]), r"^z must be numeric"),
    "project_cone_nonneg-z-dict": (lambda: project_cone_nonneg(EYE, {"a": 1}), r"^z must be numeric"),
    "project_cone_nonneg-generators-vector": (
        lambda: project_cone_nonneg([1.0, 0.0], [1.0, 0.0]), r"^generators must be a nonempty m x d array$"),
    "statistical_dimension_mc-generators-bool-in-list": (
        lambda: statistical_dimension_mc([[1.0, True]], n=10), r"^generators must be numeric"),
    "std_normal_pdf-x-text": (lambda: std_normal_pdf("1"), r"^x must be numeric, got '1'$"),
    "std_normal_cdf-x-bool-in-list": (lambda: std_normal_cdf([0.5, True]), r"^x must be numeric"),
    "std_normal_cdf_minus_half-x-complex": (lambda: std_normal_cdf_minus_half(1j), r"^x must be numeric"),
    "std_normal_pdf-x-dict": (lambda: std_normal_pdf({"a": 1}), r"^x must be numeric"),
    "owens_t-h-bool": (lambda: owens_t(True, 1.0), r"^h must be numeric, got True$"),
    "owens_t-a-text": (lambda: owens_t(1.0, "1"), r"^a must be numeric, got '1'$"),
    "owens_t-a-bool-in-list": (lambda: owens_t(1.0, [1.0, True]), r"^a must be numeric"),
    "owens_t-a-complex": (lambda: owens_t(1.0, 1j), r"^a must be numeric"),
    "int_phi_cdf-m-text": (lambda: int_phi_cdf("1", 0.5, 1), r"^m must be numeric, got '1'$"),
    "int_phi_cdf_linear-b-bool": (lambda: int_phi_cdf_linear(1.0, True), r"^b must be numeric, got True$"),
    "int_z_phi_phi-a-complex": (lambda: int_z_phi_phi(1.0, 1j, 0.5), r"^a must be numeric"),
    "risk_segment_exact-sigma-bool-in-list": (
        lambda: risk_segment_exact(G1, 0, [1.0, True]), r"^sigma must be a positive finite real, got \[1\.0, True\]$"),
    "risk_triangle_exact-sigma-complex": (
        lambda: risk_triangle_exact(G1, np.array([1.0 + 1j])), r"^sigma must be a positive finite real"),
    "RiskQuery-theta-bool-in-list": (
        lambda: RiskQuery(theta_star=[0.0, True], sigma=1.0), r"^theta_star must be numeric"),
    "mc_risks-theta-bool-in-list": (lambda: mc_risks(TRI, [[0, True]], 1.0, CFG), r"^theta_star must be numeric"),
    "delta_x-x-bool": (lambda: delta_x(0.5, True), r"^x must lie in \(0, 1/c\), got True$"),
    "delta_x-x-text": (lambda: delta_x(0.5, "1"), r"^x must lie in \(0, 1/c\), got '1'$"),
    "delta_x-x-complex": (lambda: delta_x(0.5, 1j), r"^x must lie in \(0, 1/c\), got 1j$"),
    "envelope_curve-x_grid-text": (lambda: envelope_curve(0.75, ["0", "1"]), r"^x_grid must be numeric"),
    "envelope_curve-x_grid-bool-in-list": (lambda: envelope_curve(0.75, [0.5, True]), r"^x_grid must be numeric"),
    "envelope_curve-x_grid-complex": (lambda: envelope_curve(0.75, [0.5j]), r"^x_grid must be numeric"),
    "envelope_curve-x_grid-dict": (lambda: envelope_curve(0.75, {"a": 1}), r"^x_grid must be numeric"),
    "VertexDistribution-probs-bool": (
        lambda: VertexDistribution((True, False)), r"^probs must be numeric, got \(True, False\)$"),
    "VertexDistribution-probs-text": (lambda: VertexDistribution(("0.5", "0.5")), r"^probs must be numeric"),
    "VertexDistribution-probs-complex": (lambda: VertexDistribution((1 + 0j,)), r"^probs must be numeric"),
    "normal_cone_angle_2d-i-bool": (lambda: normal_cone_angle_2d(TRI, True), r"^i must be an integer, got True$"),
    "normal_cone_angle_2d-i-fraction": (lambda: normal_cone_angle_2d(TRI, 1.5), r"^i must be an integer, got 1\.5$"),
    "normal_cone_angle_2d-i-text": (lambda: normal_cone_angle_2d(TRI, "1"), r"^i must be an integer, got '1'$"),
    "cauchy_cdf-r-bool": (lambda: cauchy_cdf(True), r"^r must be numeric, got True$"),
    "cauchy_cdf-r-complex": (lambda: cauchy_cdf([0.5, 1j]), r"^r must be numeric"),
    "Cone2D-apex_angle-text": (
        lambda: Cone2D(ConeKind.HALFPLANE, "3.14"), r"^apex angle '3\.14' inconsistent with kind"),
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
