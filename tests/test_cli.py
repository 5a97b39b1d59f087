"""Command-line interface tests.

Runs the entry point in-process with explicit argv and captured output.
Covers exit codes (0 success, 2 usage, 3 numerical), exact CSV headers,
metadata lines, byte stability across repeat runs and thread counts,
cross-command consistency, the verification mode on CSV and JSON output,
and the plot-script companion files.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from riskrev.cli import main, parse_sweep
from riskrev.exact_risk import risk_segment_exact, risk_triangle_exact
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

    def test_polytope_file_requires_mc(self, capsys, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(TRIANGLE_FILE))
        code, _, err = run_cli(
            capsys,
            ["risk", "--set", "polytope-file", "--file", str(path),
             "--theta", "0.2,0.2", "--sigma", "1"],
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
        assert "exact" not in record

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
        assert lines[1] == "sigma_grid,stderr_large,stderr_small,sup_large,sup_small"
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
        "sigma_grid,stderr_large,stderr_small,sup_large,sup_small",
    ),
]


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
