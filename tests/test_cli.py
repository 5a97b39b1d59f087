"""Command-line interface tests.

Runs the entry point in-process with explicit argv and captured output.
Covers exit codes (0 success, 2 usage, 3 numerical), exact CSV headers,
metadata lines, byte stability across repeat runs and thread counts,
cross-command consistency, the verification mode on CSV and JSON output,
and the plot-script companion files.
"""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from riskrev import _csvformat, cli, exact_risk
from riskrev.cli import main, parse_sweep
from riskrev.exact_risk import risk_polygon_exact, risk_segment_exact, risk_triangle_exact
from riskrev.geometry import ExampleGeometry

TRIANGLE_FILE = {"dim": 2, "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweepParsing:
    def test_linear(self):
        np.testing.assert_allclose(parse_sweep("0:1:5"), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_log(self):
        np.testing.assert_allclose(parse_sweep("0.1:10:3:log"), [0.1, 1.0, 10.0])

    def test_explicit_list(self):
        np.testing.assert_allclose(parse_sweep("1,2,5,10"), [1.0, 2.0, 5.0, 10.0])

    def test_invalid(self):
        for text in ("1:0:5", "0:1:1", "-1:1:5:log", "0:1:5:cubic", "a,b", ""):
            with pytest.raises(ValueError):
                parse_sweep(text)

    @pytest.mark.parametrize("scale", ["", ":log"])
    def test_more_points_than_memory_exits_two(self, capsys, scale):
        # 10^15 points are 8 PB, past a 47-bit address space: the allocation
        # fails under any overcommit setting, and no smaller size is tried
        sweep = "0.01:1:1000000000000000" + scale
        with pytest.raises(ValueError, match=rf"^sweep '{sweep}' has 1000000000000000 points, more than memory holds$"):
            parse_sweep(sweep)
        code, out, err = run_cli(capsys, ["diff-curve", "--c-list", "0.5", "--sigma-sweep", sweep])
        assert (code, out) == (2, "") and "has 1000000000000000 points" in err


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == 2
        assert "subcommand" in err

    def test_missing_required_flag(self, capsys):
        rev = ["reversal", "--c", "0.75", "--sigma-sweep", "1"]
        cases = [
            (["risk", "--set", "triangle", "--sigma", "1"], "--c"),
            (["risk", "--set", "triangle", "--c", "1"], "--sigma"),
            (["envelope", "--x-sweep", "0:1:5"], "--c"),
            (rev + ["--x-large", "0.5"], "--x-small"),
            (rev + ["--x-small", "1.3"], "--x-large"),
        ]
        for argv, flag in cases:
            try:  # argparse exits by itself for the flags it requires
                code = main(argv)
            except SystemExit as exit_:
                code = exit_.code
            err = capsys.readouterr().err
            assert code == 2, argv
            assert flag in err, argv

    def test_t_star_only_for_segment(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["risk", "--set", "triangle", "--c", "1", "--sigma", "1", "--t-star", "0.5"],
        )
        assert code == 2

    def test_bad_sigma(self, capsys):
        code, _, _ = run_cli(capsys, ["risk", "--set", "segment", "--c", "1", "--sigma", "-2"])
        assert code == 2

    def test_reversal_rejects_unnested_x(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "reversal",
                "--c", "0.75",
                "--x-small", "0.5",
                "--x-large", "1.3",
                "--sigma-sweep", "1,2",
            ],
        )
        assert code == 2
        assert "nested" in err

    def test_statdim_theta_outside_polytope(self, capsys, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(TRIANGLE_FILE))
        code, _, _ = run_cli(
            capsys, ["statdim", "--polytope-file", str(path), "--theta", "3,3"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["statdim", "--polytope-file", "{file}", "--theta", "0,0"],
            ["risk", "--set", "polytope-file", "--file", "{file}", "--theta", "0,0", "--sigma", "1", "--mc"],
        ],
        ids=["statdim", "risk"],
    )
    @pytest.mark.parametrize(
        "vertices", [{"a": 1}, [["0", "0"], ["1", "0"]], [[10**400, 0], [0, 0]]], ids=["object", "text", "huge"]
    )
    def test_non_numeric_polytope_file_exits_two(self, capsys, tmp_path, argv, vertices):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "vertices": vertices}))
        code, _, err = run_cli(capsys, [arg.format(file=path) for arg in argv])
        assert code == 2
        assert "vertices must be numeric" in err

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2


class TestRiskCommand:
    def test_segment_exact_record(self, capsys):
        code, out, _ = run_cli(
            capsys, ["risk", "--set", "segment", "--c", "1", "--sigma", "1"]
        )
        assert code == 0
        record = json.loads(out)
        want = risk_segment_exact(ExampleGeometry(c=1.0), 0.0, 1.0)
        assert record["exact"] == pytest.approx(want, rel=1e-15)
        assert record["metadata"]["seed"] == 20240613
        assert record["sigma_effective"] == 1.0

    def test_json_is_single_sorted_line(self, capsys):
        _, out, _ = run_cli(capsys, ["risk", "--set", "triangle", "--c", "2", "--sigma", "0.5"])
        assert out.count("\n") == 1 and out.endswith("\n")
        line = out.strip()
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))

    def test_n_obs_rescales_noise(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["risk", "--set", "triangle", "--c", "1", "--sigma", "2", "--n-obs", "4"],
        )
        record = json.loads(out)
        assert record["sigma_effective"] == pytest.approx(1.0, rel=1e-15)
        want = risk_triangle_exact(ExampleGeometry(c=1.0), 1.0).total
        assert record["exact"] == pytest.approx(want, rel=1e-15)

    def test_mc_estimate_brackets_exact(self, capsys):
        _, out, _ = run_cli(
            capsys,
            [
                "risk", "--set", "triangle", "--c", "1", "--sigma", "1",
                "--mc", "--samples", "100000",
            ],
        )
        record = json.loads(out)
        assert abs(record["mc_mean"] - record["exact"]) <= 4.0 * record["mc_stderr"]

    def test_non_planar_polytope_file_requires_mc(self, capsys, tmp_path):
        path = tmp_path / "cube.json"
        path.write_text(json.dumps({"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        code, _, err = run_cli(
            capsys,
            ["risk", "--set", "polytope-file", "--file", str(path),
             "--theta", "0.1,0.1,0.1", "--sigma", "1"],
        )
        assert code == 2
        assert "--mc" in err

    def test_polytope_file_mc(self, capsys, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(TRIANGLE_FILE))
        code, out, _ = run_cli(
            capsys,
            ["risk", "--set", "polytope-file", "--file", str(path),
             "--theta", "0.2,0.2", "--sigma", "0.5", "--mc", "--samples", "20000"],
        )
        assert code == 0
        record = json.loads(out)
        assert 0.0 < record["mc_mean"] < 2.0
        assert abs(record["mc_mean"] - record["exact"]) <= 4.0 * record["mc_stderr"]

    @pytest.mark.parametrize(
        "total, code", [(-1e-300, 3), (2.0 * (1.0 + 2e-9), 3), (math.inf, 3), (2.0 * (1.0 + 1e-10), 0)]
    )
    def test_exact_risk_outside_zero_to_squared_diameter_fails(self, capsys, monkeypatch, tmp_path, total, code):
        # the triangle's squared diameter is 2.  At sigma = 2^-10 every strip
        # and vertex piece at theta* = (0.2, 0.2) underflows to 0, so the
        # total is the interior, 2 sigma^2 = 2^-19 times the fan brackets' sum.
        # The engine asks for every edge's brackets in one call, as (1, 3, 1)
        # here; the first edge's is the only one not zero
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(TRIANGLE_FILE))

        def brackets(a, *rest):
            out = np.zeros(np.shape(a))
            out[:, 0] = total * 2.0**19
            return out

        monkeypatch.setattr(exact_risk, "_fan_bracket", brackets)
        got, out, err = run_cli(
            capsys,
            ["risk", "--set", "polytope-file", "--file", str(path), "--theta", "0.2,0.2", "--sigma", str(2.0**-10)],
        )
        assert got == code
        if code:
            assert f"polygon risk at theta* [0.2, 0.2], sigma 0.0009765625 is {total!r}, not a finite value in [0, 2.0]" in err
        else:
            assert json.loads(out)["exact"] == total

    @pytest.mark.parametrize(
        "vertices, theta, argv",
        [
            ([[0.0, 0.0], [2.0, 1.0], [0.0, 1.0]], "0,0", ["--set", "triangle", "--c", "0.5"]),
            ([[0.0, 0.0], [2.0, 1.0]], "0.6,0.3", ["--set", "segment", "--c", "0.5", "--t-star", "0.3"]),
        ],
        ids=["triangle", "segment"],
    )
    @pytest.mark.parametrize("sigma", ["0.05", "1", "30"])
    def test_planar_polytope_file_is_exact(self, capsys, tmp_path, vertices, theta, argv, sigma):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"dim": 2, "vertices": vertices}))
        code, out, _ = run_cli(
            capsys,
            ["risk", "--set", "polytope-file", "--file", str(path), "--theta", theta, "--sigma", sigma],
        )
        assert code == 0
        record = json.loads(out)
        assert "mc_mean" not in record
        _, want, _ = run_cli(capsys, ["risk", *argv, "--sigma", sigma])
        want = json.loads(want)["exact"]
        assert abs(record["exact"] - want) <= 1e-12 * max(1.0, want)

    def test_triangle_keeps_its_digits_at_diverging_noise(self, capsys):
        # the closed form's interior once cancelled here and was 2.386591802637349
        code, out, _ = run_cli(capsys, ["risk", "--set", "triangle", "--c", "0.5", "--sigma", "1e7"])
        assert code == 0
        engine = risk_polygon_exact(ExampleGeometry(c=0.5).triangle(), (0.0, 0.0), 1e7).total
        assert abs(json.loads(out)["exact"] - engine) <= 1e-12 * engine

    def test_mismatched_dim_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 3, "vertices": [[0.0, 0.0], [1.0, 1.0]]}))
        code, _, _ = run_cli(
            capsys,
            ["risk", "--set", "polytope-file", "--file", str(path),
             "--theta", "0,0", "--sigma", "1", "--mc"],
        )
        assert code == 2


class TestCurveCommands:
    def test_diff_curve_header_and_consistency(self, capsys):
        code, out, _ = run_cli(
            capsys, ["diff-curve", "--c-list", "0.5,1", "--sigma-sweep", "0.5:2:4"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# {")
        assert lines[1] == "c,sigma,risk_S,risk_L,diff"
        assert len(lines) == 2 + 2 * 4
        for line in lines[2:]:
            c, sigma, risk_s, risk_l, diff = map(float, line.split(","))
            g = ExampleGeometry(c=c)
            assert risk_s == pytest.approx(risk_segment_exact(g, 0.0, sigma), rel=1e-12)
            assert risk_l == pytest.approx(risk_triangle_exact(g, sigma).total, rel=1e-12)
            assert diff == pytest.approx(risk_s - risk_l, abs=1e-12 * max(1.0, abs(diff)))

    def test_heatmap_matches_diff_curve(self, capsys):
        _, heat_out, _ = run_cli(
            capsys, ["heatmap", "--c-sweep", "0.5:1:2", "--sigma-sweep", "1:4:3"]
        )
        _, curve_out, _ = run_cli(
            capsys, ["diff-curve", "--c-list", "0.5,1", "--sigma-sweep", "1:4:3"]
        )
        heat = heat_out.strip().split("\n")
        curve = curve_out.strip().split("\n")
        assert heat[1] == "c,sigma,diff"
        heat_diffs = [line.split(",")[2] for line in heat[2:]]
        curve_diffs = [line.split(",")[4] for line in curve[2:]]
        assert heat_diffs == curve_diffs

    def test_one_closed_form_call_per_grid(self, capsys, monkeypatch):
        calls = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "risk_segment_exact")
        counted(cli, "risk_triangle_exact")
        counted(exact_risk, "owens_t")
        code, out, _ = run_cli(
            capsys, ["heatmap", "--c-sweep", "0.2:3:200", "--sigma-sweep", "0.01:1e4:200:log"]
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 2 + 200 * 200
        # the whole (c, sigma) grid is one call per set.  Owen's T is called
        # per kind of piece and block of noise levels, not per edge or per
        # cell: the engine takes every edge and vertex at once, the triangle's
        # 200 x 3 rows in 2 blocks of at most 109 sigmas (_BLOCK entries).  In
        # each block the vertex cones' first orthant argument calls it once on
        # v3's rows, where that argument is 0, as a column, and once on v2's;
        # the second argument twice, near and far form, as v2's slope c
        # crosses 1 on this grid.  The fan triangles' closed form calls it
        # twice in the block of small sigma only.  The segment has no fan
        # triangle and no orthant: 2 x 4 + 2 = 10 calls
        assert calls == {"risk_segment_exact": 1, "risk_triangle_exact": 1, "owens_t": 10}

    def test_heatmap_cell_outside_the_range_exits_three(self, capsys, monkeypatch):
        bracket = exact_risk._fan_bracket
        monkeypatch.setattr(
            exact_risk, "_fan_bracket",
            lambda a, tau, *rest: np.where((tau == 1.0) & (rest[-1] == 2.5), -1.0, bracket(a, tau, *rest)),
        )
        code, out, err = run_cli(capsys, ["heatmap", "--c-sweep", "0.5:1:2", "--sigma-sweep", "1:4:3"])
        assert (code, out) == (3, "")
        assert "triangle risk at c 1.0, sigma 2.5 is " in err and "not a finite value in [0, 2.0]" in err

    def test_diff_curve_keeps_its_digits_at_diverging_noise(self, capsys):
        # the triangle's interior once cancelled here and printed 0.566772071019884 at sigma = 1e6
        code, out, _ = run_cli(capsys, ["diff-curve", "--c-list", "0.2", "--sigma-sweep", "1e5,1e6"])
        assert code == 0
        diff = float(out.strip().split("\n")[-1].split(",")[4])
        assert abs(diff - 0.5668275821692532) <= 1e-12

    def test_non_finite_cell_names_its_column(self, capsys, monkeypatch):
        # risk_S comes from one segment call over the (c, sigma) grid
        monkeypatch.setattr(
            cli, "risk_segment_exact",
            lambda gs, t, sigma: np.where(sigma > 1.0, np.nan, np.ones((len(gs), 1))),
        )
        code, out, err = run_cli(capsys, ["diff-curve", "--c-list", "1", "--sigma-sweep", "0.5:2:4"])
        assert code == 3
        assert out == ""
        assert "non-finite value for 'risk_S': nan" in err

    def test_formatted_fields_carry_full_precision(self, capsys):
        _, out, _ = run_cli(capsys, ["diff-curve", "--c-list", "1", "--sigma-sweep", "0.7:1.3:3"])
        row = out.strip().split("\n")[2].split(",")
        sigma = float(row[1])
        want = risk_segment_exact(ExampleGeometry(c=1.0), 0.0, sigma)
        assert abs(float(row[2]) - want) <= 1e-12 * abs(want)

    def test_envelope_header_and_footer(self, capsys):
        code, out, _ = run_cli(
            capsys, ["envelope", "--c", "0.75", "--x-sweep", "0:1.3333:201"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "x,risk_v1,risk_v2,risk_vx,envelope"
        footer = json.loads(lines[-1][2:])
        rows = [list(map(float, line.split(","))) for line in lines[2:-1]]
        best = min(rows, key=lambda r: r[4])
        assert footer["argmin_x"] == pytest.approx(best[0], abs=1e-12)
        assert footer["envelope_min"] == pytest.approx(best[4], rel=1e-12)
        # the interior dip: argmin away from both ends of the family
        assert 0.2 < footer["argmin_x"] < 0.7

    def test_envelope_grid_beyond_domain(self, capsys):
        code, _, _ = run_cli(capsys, ["envelope", "--c", "0.75", "--x-sweep", "0:2:5"])
        assert code == 2

    def test_json_format_for_tables(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["diff-curve", "--c-list", "1", "--sigma-sweep", "1:2:2", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["header"] == ["c", "sigma", "risk_S", "risk_L", "diff"]
        assert len(payload["rows"]) == 2


class TestByteStability:
    def test_repeat_runs_identical(self, capsys):
        argv = ["risk", "--set", "triangle", "--c", "1", "--sigma", "1", "--mc",
                "--samples", "30000"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_thread_count_invariance(self, capsys, monkeypatch):
        argv = ["risk", "--set", "triangle", "--c", "0.5", "--sigma", "2", "--mc",
                "--samples", "40000"]
        monkeypatch.setenv("RISKREV_THREADS", "1")
        _, serial, _ = run_cli(capsys, argv)
        monkeypatch.setenv("RISKREV_THREADS", "3")
        _, threaded, _ = run_cli(capsys, argv)
        assert serial == threaded

    def test_reversal_thread_count_invariance(self, capsys, monkeypatch):
        # one chunk of 60,000 planar rows: 120,000 normals over 4 draw slabs
        argv = ["reversal", "--c", "0.75", "--x-small", "1.3", "--x-large", "0.5",
                "--sigma-sweep", "2,5", "--samples", "60000"]
        outputs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("RISKREV_THREADS", threads)
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_seed_changes_mc_output(self, capsys):
        base = ["risk", "--set", "triangle", "--c", "1", "--sigma", "1", "--mc",
                "--samples", "20000"]
        _, a, _ = run_cli(capsys, base)
        _, b, _ = run_cli(capsys, base + ["--seed", "7"])
        assert json.loads(a)["mc_mean"] != json.loads(b)["mc_mean"]


class TestStatdim:
    def test_analytic_values(self, capsys, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(TRIANGLE_FILE))
        for theta, want in [("0,0", 1.0), ("0.5,0", 1.5), ("0.2,0.2", 2.0)]:
            code, out, _ = run_cli(
                capsys, ["statdim", "--polytope-file", str(path), "--theta", theta]
            )
            assert code == 0
            record = json.loads(out)
            assert record["method"] == "analytic"
            assert record["delta"] == pytest.approx(want, abs=1e-12)

    def test_segment_interior_is_a_line(self, capsys, tmp_path):
        path = tmp_path / "seg.json"
        path.write_text(json.dumps({"dim": 2, "vertices": [[0.0, 0.0], [1.0, 1.0]]}))
        code, out, _ = run_cli(capsys, ["statdim", "--polytope-file", str(path), "--theta", "0.5,0.5"])
        assert code == 0
        assert json.loads(out)["delta"] == 1.0

    def test_mc_route(self, capsys):
        code, out, _ = run_cli(
            capsys, ["statdim", "--generators", "1,0;0,1", "--samples", "40000"]
        )
        assert code == 0
        record = json.loads(out)
        assert record["method"] == "mc"
        assert abs(record["delta"] - 1.0) <= 4.0 * record["stderr"]

    def test_requires_exactly_one_route(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, ["statdim"])
        assert code == 2
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(TRIANGLE_FILE))
        code, _, _ = run_cli(
            capsys,
            ["statdim", "--polytope-file", str(path), "--theta", "0,0",
             "--generators", "1,0"],
        )
        assert code == 2


class TestReversalCommand:
    def test_small_sigma_yields_null(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["reversal", "--c", "0.75", "--x-small", "1.3", "--x-large", "0.5",
             "--sigma-sweep", "0.05", "--samples", "5000"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["reversal_sigma"] is None
        assert record["sigma_grid"] == [0.05]
        assert len(record["sup_small"]) == 1

    def test_csv_rendering_rows_per_sigma(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["reversal", "--c", "0.75", "--x-small", "1.3", "--x-large", "0.5",
             "--sigma-sweep", "0.05,0.1", "--samples", "3000", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "mc_large,mc_small,sigma_grid,stderr_large,stderr_small,sup_large,sup_small"
        assert len(lines) == 4


class TestVerifyAndArtifacts:
    def _write(self, capsys, tmp_path, argv, name):
        path = tmp_path / name
        code, out, _ = run_cli(capsys, argv + ["--out", str(path)])
        assert code == 0
        assert out == ""
        return path

    def test_roundtrip_exact_table(self, capsys, tmp_path):
        path = self._write(
            capsys, tmp_path,
            ["diff-curve", "--c-list", "1,2", "--sigma-sweep", "0.1:10:150:log"],
            "dc.csv",
        )
        code, out, _ = run_cli(capsys, ["--verify", str(path)])
        assert code == 0
        assert "OK" in out

    def test_roundtrip_mc_record(self, capsys, tmp_path):
        path = self._write(
            capsys, tmp_path,
            ["risk", "--set", "segment", "--c", "1", "--sigma", "1", "--mc",
             "--samples", "20000", "--format", "csv"],
            "risk.csv",
        )
        code, _, _ = run_cli(capsys, ["--verify", str(path)])
        assert code == 0

    def test_roundtrip_envelope_with_footer(self, capsys, tmp_path):
        path = self._write(
            capsys, tmp_path,
            ["envelope", "--c", "0.75", "--x-sweep", "0:1.3333:301"],
            "env.csv",
        )
        code, _, _ = run_cli(capsys, ["--verify", str(path)])
        assert code == 0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["heatmap", "--c-sweep", "0.2:3:40", "--sigma-sweep", "0.05:50:40:log"],
            ["diff-curve", "--c-list", "0.5,1,2", "--sigma-sweep", "0.01:100:200:log"],
            ["envelope", "--c", "0.75", "--x-sweep", "0:1.3333:13334"],
            ["heatmap", "--c-sweep", "0.2:3:200", "--sigma-sweep", "0.01:1e4:200:log"],
        ],
        ids=["heatmap", "diff-curve", "envelope", "heatmap-benchmark"],
    )
    def test_roundtrip_readme_tables(self, capsys, tmp_path, argv, fmt):
        path = self._write(capsys, tmp_path, argv + ["--format", fmt], "out." + fmt)
        code, out, _ = run_cli(capsys, ["--verify", str(path)])
        assert code == 0
        assert "OK" in out

    def test_tampered_row_detected(self, capsys, tmp_path):
        path = self._write(
            capsys, tmp_path,
            ["heatmap", "--c-sweep", "0.5:1:3", "--sigma-sweep", "1:4:3"],
            "heat.csv",
        )
        lines = path.read_text().split("\n")
        cells = lines[2].split(",")
        cells[2] = str(float(cells[2]) + 1e-3)
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines))
        code, _, err = run_cli(capsys, ["--verify", str(path)])
        assert code == 3
        assert "verification failed" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["heatmap", "--c-sweep", "0.2:3:40", "--sigma-sweep", "0.05:50:40:log"],
            ["envelope", "--c", "0.75", "--x-sweep", "0:1.3333:13334"],
        ],
        ids=["heatmap", "envelope"],
    )
    def test_tampered_cell_in_readme_table_detected(self, capsys, tmp_path, argv):
        path = self._write(capsys, tmp_path, argv, "table.csv")
        lines = path.read_text().split("\n")
        row = 2 + cli.VERIFY_STRIDE  # the second row --verify rechecks
        cells = lines[row].split(",")
        cells[-1] = repr(float(cells[-1]) * (1 + 1e-6) + 1e-6)
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines))
        code, _, err = run_cli(capsys, ["--verify", str(path)])
        assert code == 3
        assert f"row {cli.VERIFY_STRIDE}, column {lines[1].split(',')[-1]}:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["risk", "--set", "triangle", "--c", "1", "--sigma", "2"],
            ["risk", "--set", "segment", "--c", "1", "--sigma", "1", "--mc",
             "--samples", "20000"],
            ["statdim", "--generators", "1,0;0,1", "--samples", "20000"],
            ["reversal", "--c", "0.75", "--x-small", "1.3", "--x-large", "0.5",
             "--sigma-sweep", "0.05,2", "--samples", "3000"],
            ["diff-curve", "--c-list", "0.5,1", "--sigma-sweep", "0.1:10:150:log",
             "--format", "json"],
        ],
        ids=["risk", "risk-mc", "statdim", "reversal", "diff-curve"],
    )
    def test_roundtrip_json(self, capsys, tmp_path, argv):
        path = self._write(capsys, tmp_path, argv, "out.json")
        assert path.read_text().startswith("{")
        code, out, _ = run_cli(capsys, ["--verify", str(path)])
        assert code == 0
        assert "OK" in out

    @pytest.mark.parametrize("method", ["analytic", "mc"])
    def test_statdim_csv_roundtrip(self, capsys, tmp_path, method):
        poly = tmp_path / "tri.json"
        poly.write_text(json.dumps(TRIANGLE_FILE))
        route = {
            "analytic": ["--polytope-file", str(poly), "--theta", "0.5,0"],
            "mc": ["--generators", "1,0;0,1", "--samples", "20000"],
        }[method]
        path = self._write(capsys, tmp_path, ["statdim", *route, "--format", "csv"], "sd.csv")
        metadata, header = path.read_text().split("\n")[:2]
        assert json.loads(metadata[2:])["method"] == method
        assert header == {"analytic": "delta", "mc": "delta,stderr"}[method]
        code, _, _ = run_cli(capsys, ["--verify", str(path)])
        assert code == 0

    def test_tampered_json_detected(self, capsys, tmp_path):
        path = self._write(
            capsys, tmp_path,
            ["risk", "--set", "triangle", "--c", "1", "--sigma", "2"],
            "risk.json",
        )
        payload = json.loads(path.read_text())
        payload["exact"] += 1e-3
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, ["--verify", str(path)])
        assert code == 3
        assert "exact" in err

    REVERSAL = ["reversal", "--c", "0.75", "--x-small", "1.3", "--x-large", "0.5",
                "--sigma-sweep", "0.05,2", "--samples", "3000"]

    @pytest.mark.parametrize("key, value", [("reversal_sigma", 0.05), ("edge_points", 7)])
    def test_tampered_json_record_entry_detected(self, capsys, tmp_path, key, value):
        path = self._write(capsys, tmp_path, self.REVERSAL, "rev.json")
        payload = json.loads(path.read_text())
        assert payload[key] != value
        payload[key] = value
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, ["--verify", str(path)])
        assert code == 3
        assert key in err

    @pytest.mark.parametrize("key, value", [("reversal_sigma", 0.05), ("edge_points", 7)])
    def test_tampered_csv_metadata_extra_detected(self, capsys, tmp_path, key, value):
        path = self._write(capsys, tmp_path, self.REVERSAL + ["--format", "csv"], "rev.csv")
        first, rest = path.read_text().split("\n", 1)
        metadata = json.loads(first[2:])
        assert metadata[key] != value
        metadata[key] = value
        path.write_text("# " + json.dumps(metadata) + "\n" + rest)
        code, _, err = run_cli(capsys, ["--verify", str(path)])
        assert code == 3
        assert key in err

    def test_verify_rejects_plain_csv(self, capsys, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n1,2\n")
        code, _, _ = run_cli(capsys, ["--verify", str(path)])
        assert code == 2

    def test_plot_script_emitted(self, capsys, tmp_path):
        path = self._write(
            capsys, tmp_path,
            ["envelope", "--c", "0.75", "--x-sweep", "0:1.3333:11",
             "--emit-plot-script"],
            "env.csv",
        )
        script = tmp_path / "env.csv.plot.py"
        assert script.exists()
        text = script.read_text()
        assert "matplotlib" in text and str(path) in text

    def test_plot_script_refused_before_writing(self, capsys, tmp_path):
        out = tmp_path / "r.csv"
        code, _, err = run_cli(
            capsys,
            ["risk", "--set", "triangle", "--c", "1", "--sigma", "2", "--format", "csv",
             "--out", str(out), "--emit-plot-script"],
        )
        assert code == 2
        assert "plot template" in err
        assert list(tmp_path.iterdir()) == []

    def test_plot_script_requires_out(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["envelope", "--c", "0.75", "--x-sweep", "0:1:5", "--emit-plot-script"],
        )
        assert code == 2


def _edit_metadata(path, edit):
    """Apply ``edit`` to the metadata of a CSV or JSON output file in place."""
    text = path.read_text()
    if text.startswith("{"):
        payload = json.loads(text)
        edit(payload["metadata"])
        path.write_text(json.dumps(payload))
    else:
        first, rest = text.split("\n", 1)
        metadata = json.loads(first[2:])
        edit(metadata)
        path.write_text("# " + json.dumps(metadata) + "\n" + rest)


# the nine README examples, with few samples so that a recomputation is quick
README_EXAMPLES = [
    ["risk", "--set", "triangle", "--c", "1", "--sigma", "2"],
    ["risk", "--set", "segment", "--c", "0.5", "--sigma", "1", "--t-star", "0.25"],
    ["risk", "--set", "polytope-file", "--file", "poly.json", "--theta", "0.1,0.2", "--sigma", "1", "--mc"],
    ["diff-curve", "--c-list", "0.5,1,2", "--sigma-sweep", "0.01:100:200:log"],
    ["heatmap", "--c-sweep", "0.2:3:40", "--sigma-sweep", "0.05:50:40:log"],
    ["envelope", "--c", "0.75", "--x-sweep", "0:1.3333:13334"],
    ["statdim", "--polytope-file", "poly.json", "--theta", "0,0"],
    ["statdim", "--generators", "1,0;0,1"],
    ["reversal", "--c", "0.75", "--x-small", "1.3", "--x-large", "0.5", "--sigma-sweep", "1,2,5,10,20"],
]

# metadata edits of the fuzz: delete the key, or set it to a value of each JSON type
_DELETE = object()
FUZZ_VALUES = {"deleted": _DELETE, "null": None, "list": [1], "text": "x", "true": True}


class TestVerifyRefusesBadMetadata:
    """A file is refused, with exit 2, when its metadata would be refused on the command line."""

    RISK_MC = ["risk", "--set", "segment", "--c", "1", "--sigma", "1", "--mc", "--samples", "3000"]
    RISK_TRIANGLE = ["risk", "--set", "triangle", "--c", "1", "--sigma", "2"]
    RISK_SEGMENT = ["risk", "--set", "segment", "--c", "0.5", "--sigma", "1", "--t-star", "0.25"]
    ENVELOPE = ["envelope", "--c", "0.75", "--x-sweep", "0:1.3333:13"]
    REVERSAL = ["reversal", "--c", "0.75", "--x-small", "1.3", "--x-large", "0.5", "--sigma-sweep", "1,5",
                "--samples", "2000"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("key, value", [("samples", 3000.9), ("n_obs", 1.5)])
    def test_non_integral_count(self, capsys, tmp_path, fmt, key, value):
        path = tmp_path / ("risk." + fmt)
        assert main([*self.RISK_MC, "--format", fmt, "--out", str(path)]) == 0
        _edit_metadata(path, lambda metadata: metadata.update({key: value}))
        code, out, err = run_cli(capsys, ["--verify", str(path)])
        assert (code, out) == (2, "")
        assert f"must be an integer, got {value!r}" in err

    @pytest.mark.parametrize("dim", [2.5, True])
    @pytest.mark.parametrize(
        "argv",
        [
            ["statdim", "--polytope-file", "POLY", "--theta", "0,0"],
            ["risk", "--set", "polytope-file", "--file", "POLY", "--theta", "0,0", "--sigma", "1", "--mc",
             "--samples", "100"],
        ],
        ids=["statdim", "risk"],
    )
    def test_non_integral_polytope_dim(self, capsys, tmp_path, argv, dim):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({**TRIANGLE_FILE, "dim": dim}))
        code, out, err = run_cli(capsys, [str(path) if arg == "POLY" else arg for arg in argv])
        assert (code, out) == (2, "")
        assert f"dim must be an integer, got {dim!r}" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv", README_EXAMPLES, ids=[f"{i}-{argv[0]}" for i, argv in enumerate(README_EXAMPLES)]
    )
    def test_fuzzed_metadata_never_crashes(self, capsys, tmp_path, monkeypatch, argv, fmt):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "poly.json").write_text(json.dumps(TRIANGLE_FILE))
        path = tmp_path / ("out." + fmt)
        assert main([*argv, "--samples", "2000", "--format", fmt, "--out", str(path)]) == 0
        original = path.read_text()
        codes = {}
        for key in sorted(cli._read_output(original).metadata):
            for name, value in FUZZ_VALUES.items():
                path.write_text(original)
                _edit_metadata(path, lambda m: m.pop(key) if value is _DELETE else m.update({key: value}))
                codes[key, name] = main(["--verify", str(path)])
                capsys.readouterr()
        assert set(codes.values()) <= {0, 2, 3}, codes
        assert codes["command", "deleted"] == codes["n_obs", "text"] == 2
        # a number or a flag that the command uses is refused, not converted, if its JSON type is wrong
        used = {key for key, value in cli._read_output(original).metadata.items() if value is not None}
        wrong = {key: ("null", "list", "text", "true") for key in ("c", "sigma", "x_small", "x_large")}
        wrong.update(t_star=("list", "text", "true"), mc=("null", "list", "text"))
        for key in used & set(wrong):
            assert all(codes[key, name] == 2 for name in wrong[key]), key

    @pytest.mark.parametrize(
        "argv, key, value, message",
        [
            (RISK_TRIANGLE, "c", True, "c must be a positive finite real, got True"),
            (RISK_TRIANGLE, "c", "1", "c must be a positive finite real, got '1'"),
            (RISK_TRIANGLE, "sigma", None, "sigma must be a positive finite real, got None"),
            (RISK_TRIANGLE, "sigma", True, "sigma must be a positive finite real, got True"),
            (RISK_TRIANGLE, "sigma", "2", "sigma must be a positive finite real, got '2'"),
            (RISK_TRIANGLE, "mc", "x", "mc must be true or false, got 'x'"),
            (RISK_TRIANGLE, "mc", 1, "mc must be true or false, got 1"),
            (RISK_SEGMENT, "t_star", True, "t_star must lie in [0, 1], got True"),
            (ENVELOPE, "c", True, "c must be a positive finite real, got True"),
            (REVERSAL, "x_small", True, "x must lie in [0, 1/c]"),
            (REVERSAL, "x_large", None, "--x-small and --x-large are required"),
        ],
    )
    def test_wrong_json_type_is_named(self, capsys, tmp_path, monkeypatch, argv, key, value, message):
        path = tmp_path / "out.json"
        assert main([*argv, "--format", "json", "--out", str(path)]) == 0
        _edit_metadata(path, lambda metadata: metadata.update({key: value}))

        def no_monte_carlo(*args):
            raise AssertionError("Monte Carlo ran before the metadata was checked")

        monkeypatch.setattr(cli, "mc_risk", no_monte_carlo)
        monkeypatch.setattr(cli, "detect_finite_sigma_reversal", no_monte_carlo)
        code, out, err = run_cli(capsys, ["--verify", str(path)])
        assert (code, out) == (2, "")
        assert message in err


# The metadata line and header of each subcommand, as they were before the
# command table replaced the per-command wrappers.  statdim's CSV line also
# carries the record's string "method", which could not be rendered before.
CONTRACT = [
    (
        ["risk", "--set", "triangle", "--c", "1", "--sigma", "2", "--format", "csv"],
        '# {"c":1.0,"command":"risk","file":null,"mc":false,"n_obs":1,"samples":1000000,'
        '"seed":20240613,"set":"triangle","sigma":2.0,"t_star":null,"theta":null}',
        "exact,sigma_effective",
    ),
    (
        ["diff-curve", "--c-list", "0.5,1", "--sigma-sweep", "1:2:2"],
        '# {"c_list":[0.5,1.0],"command":"diff-curve","n_obs":1,"samples":1000000,'
        '"seed":20240613,"sigma_sweep":"1:2:2"}',
        "c,sigma,risk_S,risk_L,diff",
    ),
    (
        ["heatmap", "--c-sweep", "0.5:1:2", "--sigma-sweep", "1:2:2"],
        '# {"c_sweep":"0.5:1:2","command":"heatmap","n_obs":1,"samples":1000000,'
        '"seed":20240613,"sigma_sweep":"1:2:2"}',
        "c,sigma,diff",
    ),
    (
        ["envelope", "--c", "0.75", "--x-sweep", "0:1:3"],
        '# {"c":0.75,"command":"envelope","n_obs":1,"samples":1000000,"seed":20240613,'
        '"x_sweep":"0:1:3"}',
        "x,risk_v1,risk_v2,risk_vx,envelope",
    ),
    (
        ["statdim", "--generators", "1,0;0,1", "--samples", "1000", "--format", "csv"],
        '# {"command":"statdim","generators":"1,0;0,1","method":"mc","n_obs":1,'
        '"polytope_file":null,"samples":1000,"seed":20240613,"theta":null}',
        "delta,stderr",
    ),
    (
        ["reversal", "--c", "0.75", "--x-small", "1.3", "--x-large", "0.5",
         "--sigma-sweep", "0.05", "--samples", "1000", "--format", "csv"],
        '# {"c":0.75,"command":"reversal","edge_points":32,"n_obs":1,"reversal_sigma":null,'
        '"samples":1000,"seed":20240613,"sigma_sweep":"0.05","x_large":0.5,"x_small":1.3}',
        "mc_large,mc_small,sigma_grid,stderr_large,stderr_small,sup_large,sup_small",
    ),
]


@pytest.mark.parametrize("argv", [argv for argv, _, _ in CONTRACT], ids=lambda argv: argv[0])
def test_only_risk_averages_observations(capsys, argv):
    assert {argv[0] for argv, _, _ in CONTRACT} == set(cli.SUBCOMMANDS)
    code, out, err = run_cli(capsys, [*argv, "--n-obs", "4"])
    if argv[0] == "risk":
        assert code == 0
        header, row = out.split("\n")[1:3]
        assert dict(zip(header.split(","), row.split(",")))["sigma_effective"] == "1"  # 2 / sqrt(4)
    else:
        assert (code, out) == (2, "")
        assert f"--n-obs must be 1 for {argv[0]}, got 4" in err
    assert run_cli(capsys, [*argv, "--n-obs", "1"])[0] == 0


# sha256 of the CSV and JSON text of the README's exact-table examples and
# of the benchmark's 200 x 200 heatmap.  The exact tables were recorded
# while every CSV cell was CPython's '%.15g' of its double, one cell at a
# time; the numpy renderer that formats each distinct double once keeps
# every byte of them.  The heatmaps and the diff-curve were recorded again
# when the triangle's interior became the polygon engine's, which moved
# their diff column toward the engine by at most 9.3e-6 relative, and again
# when the segment and the triangle became calls of the engine's kernel,
# which moved the heatmap's diff by at most 7.0e-15 and the diff-curve's
# risk_L by at most 9.7e-15 relative.  The reversal example, at 2*10^4 samples, was recorded when its sup columns
# became the exact maximum over the candidates, with Monte Carlo columns
# at the two winners.
BENCHMARK_HEATMAP = ("heatmap", "--c-sweep", "0.2:3:200", "--sigma-sweep", "0.01:1e4:200:log")
PINNED_TABLE_DIGESTS = {
    BENCHMARK_HEATMAP: (
        "eb14346ed4b0bb1317aeccbd06ffc882254fc6a6f46d619481556c190bf1bcbb",
        "72d0ef2ebdb342457c8dbc3bd2d0d4e7c0d1114ee78e4bdd1780f8b72157d5cc",
    ),
    ("heatmap", "--c-sweep", "0.2:3:40", "--sigma-sweep", "0.05:50:40:log"): (
        "b09df268ccc0f6ea33def53e57fb56ed8e48e223dbc4c0cb4a93f3c86f6e71a8",
        "6b481c8739ec31d3415ba9097779a31969801fab720e46d71b86476e551c6617",
    ),
    ("diff-curve", "--c-list", "0.5,1,2", "--sigma-sweep", "0.01:100:200:log"): (
        "7f8bc27693aaacc6b9b90358a9b4dae1ddcdf155435c7dee38bb15911424ae5b",
        "905114f5567a1f6e1e71a0861b720d3253bf3cb5a2a7cd8f4e7a9bea2364be89",
    ),
    ("envelope", "--c", "0.75", "--x-sweep", "0:1.3333:13334"): (
        "0a1318c7f8a17f9d77999015e46039a29156c722a96dd2b5ea3be9d08f0f670e",
        "e49a42491f0aee6d6a0de5b9e828ab54d6147185b6b69a855b63fe4e0e055087",
    ),
    ("reversal", "--c", "0.75", "--x-small", "1.3", "--x-large", "0.5", "--sigma-sweep", "1,2,5,10,20",
     "--samples", "20000"): (
        "beac9ca1a42d268bbc5ee4a5017de19dd28d373d11928c8d9a077e70516bae20",
        "fd38eb1652d4572517d8fb375856bbd4d7fc59dd64c02a601d3a4e510866440a",
    ),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv", sorted(PINNED_TABLE_DIGESTS),
        ids=lambda argv: "heatmap-benchmark" if argv == BENCHMARK_HEATMAP else argv[0],
    )
    def test_readme_table_keeps_its_bytes(self, capsys, argv, fmt):
        code, out, _ = run_cli(capsys, [*argv, "--format", fmt])
        assert code == 0
        want = PINNED_TABLE_DIGESTS[argv][("csv", "json").index(fmt)]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


def _format_edge_values() -> np.ndarray:
    """Doubles where ``%.15g`` changes notation or rounding, plus the extremes."""
    tiny = np.nextafter(0.0, 1.0)  # 5e-324, the smallest subnormal
    normal_min = np.finfo(float).tiny
    big = np.finfo(float).max
    edges = [0.0, -0.0, tiny, -tiny, 2 * tiny, 1e-310, np.nextafter(normal_min, 0.0), normal_min,
             big, -big, np.nextafter(big, 0.0), 0.5, 1.0, 123456789012345.6, 0.1 + 0.2]
    for decade in (1e-5, 1e-4, 1e15, 1e16):
        for value in (decade, 0.99999999999999995 * decade, 0.9999999999999995 * decade,
                      1.0000000000000005 * decade):
            edges += [value, np.nextafter(value, 0.0), np.nextafter(value, np.inf), -value]
    return np.array(edges, dtype=float)


class TestFormatContract:
    """CSV cells are ``f"{v:.15g}"`` joined by commas, whatever renders them."""

    @staticmethod
    def _check(table: np.ndarray):
        output = cli.Output({"command": "test"}, header=list("abcde")[: table.shape[1]], rows=table)
        body = cli.render_csv(output).split("\n")[2:-1]
        want = [",".join(f"{v:.15g}" for v in row) for row in table.tolist()]
        assert body == want

    @classmethod
    def _check_values(cls, values: np.ndarray):
        """Row-major cells of five columns, zero-padded."""
        cls._check(np.concatenate([values, np.zeros(-len(values) % 5)]).reshape(-1, 5))

    def test_edge_values(self):
        self._check_values(_format_edge_values())

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20240613).integers(0, 2**64, size=200_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert len(values) > 100_000
        self._check_values(values)

    # tables whose columns repeat values, as a (c, sigma) grid's do; random
    # bit patterns never repeat one

    def test_repeated_signed_zeros(self):
        rng = np.random.default_rng(1)
        zeros = np.where(rng.random(4000) < 0.5, 0.0, -0.0)
        mixed = np.where(rng.random(4000) < 0.9, zeros, 1.5)
        self._check(np.column_stack([zeros, mixed, rng.standard_normal(4000)]))

    def test_repeated_extremes(self):
        tiny = np.nextafter(0.0, 1.0)
        big = np.finfo(float).max
        extremes = np.array([tiny, -tiny, 2 * tiny, 1e-310, big, -big, np.nextafter(big, 0.0)])
        rng = np.random.default_rng(2)
        self._check(np.column_stack([rng.choice(extremes, 3000), rng.choice(_format_edge_values(), 3000)]))

    def test_one_value_beside_distinct_values(self):
        distinct = np.random.default_rng(3).standard_normal(2000)
        self._check(np.column_stack([np.full(2000, 0.1 + 0.2), distinct, np.full(2000, -0.0)]))

    def test_grid_columns(self):
        c, sigma = np.meshgrid(np.linspace(0.2, 3, 50), np.geomspace(0.01, 1e4, 50), indexing="ij")
        self._check(np.column_stack([c.ravel(), sigma.ravel(), np.sin(c * sigma).ravel()]))

    @pytest.mark.parametrize("rows", [0, 1])
    def test_tiny_tables(self, rows):
        self._check(np.column_stack([np.full(rows, -0.0), np.full(rows, 1e16), np.full(rows, 5e-324)]))

    # the exact vectorised range, 1e-8 <= |x| < 1e15, and its edges

    def test_fast_range_values(self):
        rng = np.random.default_rng(20261020)
        values = (1 + rng.random(10**6)) * 10.0 ** rng.uniform(-8, 15, 10**6)
        self._check_values(np.where(rng.random(10**6) < 0.5, -values, values))

    @pytest.mark.parametrize("scale", [2.0**-10, 1.0, 2.0**20])
    def test_exact_decimal_ties(self, scale):
        # M / 2^15 for odd M has 16 significant digits, the last a 5: a true tie at 15
        ties = np.arange(32769, 327680, 2) / 2.0**15
        assert f"{ties[0]:.15g}" == "1.00003051757812"
        self._check_values(ties * scale)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{e}") for e in range(-9, 17)])
        values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        self._check_values(np.concatenate([values, -values]))

    def test_rounding_carries_into_the_next_decade(self):
        carries = np.array([999999999999999.5, 99999999999999.95, 9.9999999999999995e-5])
        assert f"{carries[2]:.15g}" == "0.0001"
        self._check_values(np.concatenate([carries, -carries]))

    def test_non_finite_cells(self):
        self._check(np.array([[np.inf, -np.inf, np.nan], [np.nan, 1.5, -np.inf], [-0.0, 0.0, 1e-300]]))

    def test_fallback_cells_are_counted(self):
        table = np.array([[np.nan, 1e300, 0.5], [np.nan, -0.0, 1e-9]])
        assert _csvformat._fallback_cells(table) == 4

    @pytest.mark.parametrize(
        "argv",
        [BENCHMARK_HEATMAP, ("envelope", "--c", "0.75", "--x-sweep", "0:1.3333:13334")],
        ids=["heatmap-benchmark", "envelope"],
    )
    def test_benchmark_tables_take_no_fallback(self, argv):
        args = cli.build_parser().parse_args(argv)
        params = {k: v for k, v in vars(args).items() if k not in cli._RUN_OPTIONS}
        _, _, rows, _ = cli._table(cli.SUBCOMMANDS[args.command].compute(params))
        assert _csvformat._fallback_cells(rows) == 0

    def test_list_rows_match_array_rows(self):
        table = _format_edge_values()[:40].reshape(8, 5)
        as_array = cli.Output({"command": "test"}, header=list("abcde"), rows=table)
        as_lists = cli.Output({"command": "test"}, header=list("abcde"), rows=table.tolist())
        assert cli.render_csv(as_array) == cli.render_csv(as_lists)


@pytest.mark.parametrize(
    "argv, flags, ignored",
    [
        (["heatmap", "--c-sweep", "0.5:1:3", "--sigma-sweep", "1,2"], ["--seed", "5"], "--seed"),
        (["diff-curve", "--c-list", "0.5", "--sigma-sweep", "1,2"], ["--seed", "5", "--samples", "7"],
         "--samples and --seed"),
        (["envelope", "--c", "0.75", "--x-sweep", "0:1:5"], ["--samples", "7"], "--samples"),
        (["statdim", "--polytope-file", "FILE", "--theta", "0,0"], ["--seed", "5"], "--seed"),
        (["risk", "--set", "segment", "--c", "2", "--sigma", "0.5"], ["--seed", "5"], "--seed"),
    ],
    ids=["heatmap", "diff-curve", "envelope", "statdim", "risk"],
)
def test_ignored_seed_and_samples_are_named_on_stderr(capsys, tmp_path, argv, flags, ignored):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(TRIANGLE_FILE))
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    code, out, err = run_cli(capsys, argv + flags)
    assert code == 0
    assert err == f"note: {argv[0]} draws no Monte Carlo samples here; {ignored} ignored\n"
    # the results are those of the defaults; only the metadata echoes the flags
    _, default_out, default_err = run_cli(capsys, argv)
    assert default_err == ""

    def results(text):
        if text.startswith("{"):
            return {k: v for k, v in json.loads(text).items() if k != "metadata"}
        return text.split("\n")[1:]

    assert results(out) == results(default_out)


def test_runs_that_draw_say_nothing_about_seed(capsys):
    argv = ["reversal", "--c", "0.75", "--x-small", "1.3", "--x-large", "0.5",
            "--sigma-sweep", "0.05", "--samples", "1000", "--seed", "5", "--format", "csv"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith('# {"c":0.75,"command":"reversal"')
    code, _, err = run_cli(capsys, ["risk", "--set", "segment", "--c", "2", "--sigma", "0.5",
                                    "--mc", "--samples", "1000", "--seed", "5"])
    assert (code, err) == (0, "")


def test_metadata_and_header_contract(capsys):
    for argv, metadata, header in CONTRACT:
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        assert out.split("\n")[:2] == [metadata, header], argv


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "riskrev.cli", "risk", "--set", "segment",
         "--c", "2", "--sigma", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    want = risk_segment_exact(ExampleGeometry(c=2.0), 0.0, 0.5)
    assert record["exact"] == pytest.approx(want, rel=1e-15)
