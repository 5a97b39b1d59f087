"""Acceptance suite: nine headline checks, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every criterion carries its stated numerical
tolerance and wall-clock budget; the Monte Carlo checks run at full
sample size (10^6), so the whole suite takes a few minutes, dominated by
the worst-case reversal scan.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import quad

from riskrev.asymptotics import (
    limiting_risk,
    statistical_dimension_2d,
    statistical_dimension_mc,
    vertex_probabilities_2d,
    vertex_probabilities_mc,
    worst_case_limiting_risk,
)
from riskrev.cli import main
from riskrev.exact_risk import (
    RiskQuery,
    large_noise_limit_diff,
    risk_difference,
    risk_segment_exact,
    risk_triangle_exact,
    small_noise_diff_coeff,
)
from riskrev.gaussfn import (
    QUADRATURE_TOL,
    int_phi_cdf,
    int_phi_cdf_linear,
    int_z_phi_phi,
    owens_t,
    std_normal_cdf,
    std_normal_pdf,
)
from riskrev.geometry import (
    Cone2D,
    ConeKind,
    ConvexPolytope,
    ExampleGeometry,
    project_polytope,
    project_triangle_example,
)
from riskrev.montecarlo import (
    DEFAULT_SEED,
    KS_CRITICAL_0P1,
    MCConfig,
    cauchy_ratio_check,
    mc_risk,
)

FULL_N = 1_000_000


def _report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_worst_case_vertex_triples():
    """Per-vertex limiting risks and their sup for the movable triangle."""
    expected = {
        0.5: ((1.324659, 1.306278, 0.808860), 1.324659),
        1.3: ((1.385120, 1.383614, 1.340221), 1.385120),
    }

    def compute():
        out = {}
        for x in expected:
            poly = ExampleGeometry(c=0.75, x=x).theta_x_polytope()
            dist = vertex_probabilities_2d(poly)
            risks = tuple(limiting_risk(poly, v, dist) for v in poly.vertices)
            out[x] = (risks, *worst_case_limiting_risk(poly, dist))
        return out

    compute()  # warm up allocators before timing
    elapsed = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        got = compute()
        elapsed = min(elapsed, time.perf_counter() - t0)
    ok = elapsed < 1e-3
    worst_err = 0.0
    for x, (risks, sup) in expected.items():
        for a, b in zip(got[x][0], risks):
            worst_err = max(worst_err, abs(a - b))
        worst_err = max(worst_err, abs(got[x][1] - sup))
        ok = ok and got[x][2] == 0  # sup attained at v1 in both configurations
    ok = ok and worst_err <= 5e-7
    _report(1, ok, f"max deviation {worst_err:.2e} <= 5e-7, {elapsed*1e3:.2f} ms < 1 ms")


def test_criterion_2_envelope_argmin(tmp_path):
    """Envelope command on a 1e-4 grid locates the interior minimizer."""
    out = tmp_path / "envelope.csv"
    t0 = time.perf_counter()
    code = main(
        ["envelope", "--c", "0.75", "--x-sweep", "0:1.3333:13334", "--out", str(out)]
    )
    elapsed = time.perf_counter() - t0
    footer = json.loads(out.read_text().strip().split("\n")[-1][2:])
    argmin = footer["argmin_x"]
    ok = code == 0 and abs(argmin - 0.4290) <= 1e-4 + 1e-12 and elapsed < 1.0
    _report(2, ok, f"argmin {argmin:.6f} within 1e-4 of 0.4290, {elapsed:.2f} s < 1 s")


def test_criterion_3_exact_vs_monte_carlo_grid():
    """Both exact formulas vs full-size Monte Carlo over a 25-cell grid."""
    t0 = time.perf_counter()
    cells_ok = 0
    worst_z = 0.0
    index = 0
    for c in (0.2, 0.5, 1.0, 2.0, 5.0):
        g = ExampleGeometry(c=c)
        for sigma in (0.1, 1.0, 5.0, 20.0, 100.0):
            q = RiskQuery(theta_star=(0.0, 0.0), sigma=sigma)
            cell_pass = True
            for poly, exact in (
                (g.segment(), risk_segment_exact(g, 0.0, sigma)),
                (g.triangle(), risk_triangle_exact(g, sigma).total),
            ):
                est = mc_risk(poly, q, MCConfig(n=FULL_N, seed=DEFAULT_SEED + index))
                z = abs(est.mean - exact) / est.stderr if est.stderr > 0 else 0.0
                worst_z = max(worst_z, z)
                cell_pass = cell_pass and z <= 4.0
            cells_ok += cell_pass
            index += 1
    elapsed = time.perf_counter() - t0
    ok = cells_ok >= 24 and elapsed < 120.0
    _report(
        3,
        ok,
        f"{cells_ok}/25 cells within 4 stderr at n=1e6 (worst z {worst_z:.2f}), "
        f"{elapsed:.0f} s < 120 s",
    )


def test_criterion_4_difference_asymptotics():
    """Small-noise slope and large-noise limit of the risk difference."""
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_abs = 0.0
    for c in (0.5, 1.0, 2.0):
        g = ExampleGeometry(c=c)
        slope = risk_difference(g, 1e-3) / 1e-6
        want = small_noise_diff_coeff(c)
        worst_rel = max(worst_rel, abs(slope - want) / abs(want))
        tail = risk_difference(g, 1e4)
        worst_abs = max(worst_abs, abs(tail - large_noise_limit_diff(c)))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 0.02 and worst_abs <= 1e-3 and elapsed < 1.0
    _report(
        4,
        ok,
        f"slope rel err {worst_rel:.2e} <= 2e-2, tail abs err {worst_abs:.2e} <= 1e-3, "
        f"{elapsed:.2f} s < 1 s",
    )


def test_criterion_5_sign_pattern():
    """Pointwise reversal signs: where the smaller set wins and loses."""
    t0 = time.perf_counter()
    small_noise = risk_difference(ExampleGeometry(c=0.5), 0.01)
    wide_large = risk_difference(ExampleGeometry(c=0.5), 50.0)
    narrow_large = risk_difference(ExampleGeometry(c=2.0), 50.0)
    elapsed = time.perf_counter() - t0
    ok = small_noise < 0.0 < wide_large and narrow_large < 0.0 and elapsed < 1.0
    _report(
        5,
        ok,
        f"diff(0.5, 0.01)={small_noise:.3e}<0, diff(0.5, 50)={wide_large:.3e}>0, "
        f"diff(2, 50)={narrow_large:.3e}<0, {elapsed:.2f} s < 1 s",
    )


def test_criterion_6_statistical_dimension():
    """Tangent-cone statistical dimensions: analytic, Monte Carlo, and risk."""
    t0 = time.perf_counter()
    ray = statistical_dimension_2d(Cone2D(ConeKind.RAY, 0.0))
    wedge = statistical_dimension_2d(Cone2D(ConeKind.WEDGE, math.pi / 4.0))
    full = statistical_dimension_2d(Cone2D(ConeKind.FULL, 2.0 * math.pi))
    analytic_ok = ray == 0.5 and abs(wedge - 0.75) < 1e-15 and full == 2.0

    r = 1.0 / math.sqrt(2.0)
    cones = [
        ([[1.0, 0.0]], 0.5),
        ([[r, r], [0.0, 1.0]], 0.75),
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], 2.0),
    ]
    mc_ok = True
    for gens, want in cones:
        est = statistical_dimension_mc(gens, n=FULL_N)
        mc_ok = mc_ok and abs(est.mean - want) <= 4.0 * max(est.stderr, 1e-12)

    sigma = 1e-3
    g = ExampleGeometry(c=1.0)
    risk_ok = True
    for poly, want in ((g.segment(), 0.5), (g.triangle(), 0.75)):
        est = mc_risk(poly, RiskQuery(theta_star=(0.0, 0.0), sigma=sigma), MCConfig(n=FULL_N))
        risk_ok = risk_ok and abs(est.mean / sigma**2 - want) <= 0.03 * want
    elapsed = time.perf_counter() - t0
    ok = analytic_ok and mc_ok and risk_ok and elapsed < 60.0
    _report(
        6,
        ok,
        f"analytic {analytic_ok}, mc-within-4se {mc_ok}, small-noise-risk-3% {risk_ok}, "
        f"{elapsed:.0f} s < 60 s",
    )


def test_criterion_7_vertex_selection():
    """Vertex-selection frequencies and the diverging-noise risk limit."""
    t0 = time.perf_counter()
    freq_ok = True
    limit_ok = True
    for c, x in ((1.0, 0.0), (0.75, 0.5), (0.75, 1.3)):
        g = ExampleGeometry(c=c, x=x)
        poly = g.theta_x_polytope()
        ana = vertex_probabilities_2d(poly)
        emp = vertex_probabilities_mc(poly, n=FULL_N)
        for p_hat, p in zip(emp.probs, ana.probs):
            margin = 4.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / FULL_N)
            freq_ok = freq_ok and abs(p_hat - p) <= margin
        want = limiting_risk(poly, (0.0, 0.0), ana)
        est = mc_risk(poly, RiskQuery(theta_star=(0.0, 0.0), sigma=1e4), MCConfig(n=FULL_N))
        limit_ok = limit_ok and abs(est.mean - want) <= 4.0 * est.stderr + 1e-3
    elapsed = time.perf_counter() - t0
    ok = freq_ok and limit_ok and elapsed < 60.0
    _report(
        7,
        ok,
        f"frequencies-within-4se {freq_ok}, limit-risk-match {limit_ok}, "
        f"{elapsed:.0f} s < 60 s",
    )


def test_criterion_8_finite_sigma_reversal(tmp_path):
    """Worst-case reversal scan finds a finite noise level at full size."""
    out = tmp_path / "reversal.json"
    t0 = time.perf_counter()
    code = main(
        [
            "reversal",
            "--c", "0.75",
            "--x-small", "1.3",
            "--x-large", "0.5",
            "--sigma-sweep", "1,2,5,10,20,50,100",
            "--samples", str(FULL_N),
            "--out", str(out),
        ]
    )
    elapsed = time.perf_counter() - t0
    record = json.loads(out.read_text())
    sigma = record["reversal_sigma"]
    ok = code == 0 and sigma is not None and elapsed < 600.0
    _report(8, ok, f"reversal detected at sigma={sigma}, {elapsed:.0f} s < 600 s")


def test_criterion_9_property_suites():
    """Projection axioms, quadrature checks, Cauchy ratios, region table."""
    t0 = time.perf_counter()

    # projection axioms on 10^4 random (polytope, point) instances
    rng = np.random.default_rng(20240613)
    axioms_ok = True
    for _ in range(500):
        poly = ConvexPolytope(rng.normal(size=(int(rng.integers(3, 9)), 2)))
        for _ in range(20):
            y, y2 = rng.normal(scale=3.0, size=(2, 2))
            p = project_polytope(poly, y)
            p2 = project_polytope(poly, y2)
            idem = np.linalg.norm(project_polytope(poly, p) - p) <= 1e-8
            nonexp = np.linalg.norm(p - p2) <= np.linalg.norm(y - y2) + 1e-8
            vi = np.max((poly.vertices - p) @ (y - p)) <= 1e-8 * (1.0 + np.linalg.norm(y))
            axioms_ok = axioms_ok and idem and nonexp and vi

    # closed-form Gaussian integrals vs direct quadrature
    quad_ok = True
    for _ in range(120):
        m = rng.uniform(0.05, 5.0)
        a = rng.uniform(-4.0, 4.0)
        b = rng.uniform(-4.0, 4.0)
        w1, _ = quad(lambda z: std_normal_pdf(z) * std_normal_cdf(a + b * z), 0.0, m,
                     epsabs=1e-13, epsrel=1e-13)
        w2, _ = quad(lambda z: std_normal_pdf(z) * std_normal_cdf(b * z), 0.0, m,
                     epsabs=1e-13, epsrel=1e-13)
        w3, _ = quad(lambda z: z * std_normal_pdf(z) * std_normal_pdf(a + b * z), 0.0, m,
                     epsabs=1e-14, epsrel=1e-13)
        h = rng.uniform(-3.0, 3.0)
        w4, _ = quad(lambda z: math.exp(-0.5 * h * h * (1 + z * z)) / (1 + z * z) / (2 * math.pi),
                     0.0, b, epsabs=1e-13, epsrel=1e-13)
        quad_ok = quad_ok and abs(int_phi_cdf(m, a, b) - w1) <= QUADRATURE_TOL
        quad_ok = quad_ok and abs(int_phi_cdf_linear(m, b) - w2) <= QUADRATURE_TOL
        quad_ok = quad_ok and abs(int_z_phi_phi(m, a, b) - w3) <= QUADRATURE_TOL
        quad_ok = quad_ok and abs(owens_t(h, b) - w4) <= QUADRATURE_TOL

    # coordinate ratios of uniform directions are Cauchy (0.1% KS level)
    report = cauchy_ratio_check(n=FULL_N)
    cauchy_ok = (
        report.scaled_full < KS_CRITICAL_0P1
        and report.scaled_cond_first < KS_CRITICAL_0P1
        and report.scaled_cond_second < KS_CRITICAL_0P1
    )

    # region-table projector equals the generic one
    region_ok = True
    for c in (0.2, 0.5, 1.0, 2.0, 5.0):
        g = ExampleGeometry(c=c)
        tri = g.triangle()
        shift = np.array([0.5 / c, 0.5])
        for y in rng.normal(scale=2.5, size=(2000, 2)) + shift:
            p_region, _ = project_triangle_example(g, y)
            p_generic = project_polytope(tri, y)
            region_ok = region_ok and np.linalg.norm(p_region - p_generic) <= 1e-8

    elapsed = time.perf_counter() - t0
    ok = axioms_ok and quad_ok and cauchy_ok and region_ok and elapsed < 120.0
    _report(
        9,
        ok,
        f"axioms {axioms_ok}, quadrature {quad_ok}, cauchy {cauchy_ok}, "
        f"regions {region_ok}, {elapsed:.0f} s < 120 s",
    )
