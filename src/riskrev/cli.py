"""Command-line front end emitting risk tables and records as CSV/JSON.

Subcommands: ``risk`` (one evaluation point), ``diff-curve`` and ``heatmap``
(segment-minus-triangle risk difference over noise/slope grids), ``envelope``
(limiting-risk envelope over the movable-vertex family), ``statdim``
(statistical dimension, analytic or Monte Carlo), and ``reversal``
(finite-noise worst-case reversal scan).

``SUBCOMMANDS`` is the one table of these commands: each entry holds the
help text, the flags, the computation and an optional plot body.  The
argument parser, the metadata dict (``command``, the command's own flags,
``seed``, ``samples`` and ``n_obs``) and the ``--emit-plot-script`` lookup
are all built from it.  A computation takes the metadata dict and returns
an :class:`Output`: a table of rows, rendered as CSV by default, or a flat
record, rendered as JSON by default.  :func:`_table` turns either into the
metadata, header, rows and footer that CSV output holds and that
``--verify`` compares.

Output is byte-stable: JSON is a single line with sorted keys, CSV uses
fixed 15-significant-digit decimals and starts with a ``# {...}`` metadata
line.  ``--verify`` reads either format back, recomputes from its metadata
and re-checks a sample of rows.

Exit codes: 0 success, 2 usage or validation error, 3 numerical failure.
"""

import argparse
import json
import math
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .asymptotics import (
    detect_finite_sigma_reversal,
    envelope_curve,
    statistical_dimension_2d,
    statistical_dimension_mc,
)
from .exact_risk import RiskQuery, risk_segment_exact, risk_triangle_exact
from .geometry import ConvexPolytope, ExampleGeometry, ProjectionError, tangent_cone_2d
from .montecarlo import DEFAULT_SEED, MCConfig, mc_risk

DEFAULT_SAMPLES = 1_000_000

# every 100th row is recomputed by --verify
VERIFY_STRIDE = 100
VERIFY_RTOL = 1e-9
VERIFY_STDERR_FACTOR = 4.0

# result column -> its standard error column; such pairs get the
# statistical comparison in --verify instead of the 1e-9 one
_STDERR_COLUMN = {
    "mc_mean": "mc_stderr",
    "sup_small": "stderr_small",
    "sup_large": "stderr_large",
    "delta": "stderr",
}


class _NumericalFailure(RuntimeError):
    """A computation produced a non-finite or otherwise unusable number."""


class SweepScale(Enum):
    LINEAR = "linear"
    LOG = "log"


@dataclass(frozen=True)
class SweepSpec:
    """Grid description ``start:stop:points[:scale]`` used by sweep flags."""

    start: float
    stop: float
    points: int
    scale: SweepScale = SweepScale.LINEAR

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("sweep endpoints must be finite")
        if self.start >= self.stop:
            raise ValueError("sweep requires start < stop")
        if self.points < 2:
            raise ValueError("sweep requires at least 2 points")
        if self.scale is SweepScale.LOG and self.start <= 0.0:
            raise ValueError("log sweep requires start > 0")

    def values(self) -> np.ndarray:
        if self.scale is SweepScale.LOG:
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


def parse_sweep(text: str) -> np.ndarray:
    """Parse ``start:stop:points[:scale]`` or an explicit ``v1,v2,...`` list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(f"sweep must be start:stop:points[:scale], got {text!r}")
        scale = SweepScale.LINEAR
        if len(parts) == 4:
            try:
                scale = SweepScale(parts[3].strip())
            except ValueError:
                raise ValueError(f"sweep scale must be 'linear' or 'log', got {parts[3]!r}") from None
        spec = SweepSpec(
            start=float(parts[0]), stop=float(parts[1]), points=int(parts[2]), scale=scale
        )
        return spec.values()
    values = parse_float_list(text)
    if len(values) < 1:
        raise ValueError("sweep list must be nonempty")
    return np.asarray(values)


def parse_float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"values must be finite, got {text!r}")
    return values


def parse_point(text: str) -> tuple[float, ...]:
    values = parse_float_list(text)
    if len(values) < 1:
        raise ValueError("point must have at least one coordinate")
    return tuple(values)


def load_polytope(path: str) -> ConvexPolytope:
    """Read a polytope file: JSON object with ``dim`` and ``vertices``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as err:
        raise ValueError(f"cannot read polytope file {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"polytope file {path!r} is not valid JSON: {err}") from err
    if not isinstance(payload, dict) or "dim" not in payload or "vertices" not in payload:
        raise ValueError(f"polytope file {path!r} must contain 'dim' and 'vertices'")
    polytope = ConvexPolytope(payload["vertices"])
    if int(payload["dim"]) != polytope.dim:
        raise ValueError(
            f"polytope file {path!r}: declared dim {payload['dim']} does not match vertices"
        )
    return polytope


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class Output:
    """One command's result: flat record and/or tabular rows plus metadata.

    A computed table's ``rows`` is a 2-D float array; one read back from a
    file by ``--verify`` is a list of lists.
    """

    metadata: dict
    record: dict | None = None
    header: list | None = None
    rows: np.ndarray | list | None = None
    footer: dict | None = None


def _check_finite(output: Output):
    """Raise on the first non-finite float of the record or of a table column, naming its key."""
    columns = {k: v for k, v in (output.record or {}).items() if isinstance(v, (float, list, tuple))}
    if output.rows is not None:
        columns.update(zip(output.header, np.asarray(output.rows, dtype=float).T))
    for key, values in columns.items():
        bad = np.asarray(values, dtype=float)[~np.isfinite(values)]
        if bad.size:
            raise _NumericalFailure(f"non-finite value for {key!r}: {float(bad[0])!r}")


# ---------------------------------------------------------------------------
# command computations, callable both from the CLI and from --verify


def compute_risk(params: dict) -> Output:
    which = params["set"]
    sigma = float(params["sigma"])
    n_obs = int(params["n_obs"])
    if sigma <= 0 or not math.isfinite(sigma):
        raise ValueError("--sigma must be a positive finite real")
    if n_obs < 1:
        raise ValueError("--n-obs must be at least 1")
    sigma_eff = sigma / math.sqrt(n_obs)
    record = {"sigma_effective": sigma_eff}

    if which in ("segment", "triangle"):
        if params.get("c") is None:
            raise ValueError(f"--c is required for --set {which}")
        geometry = ExampleGeometry(c=float(params["c"]))
        if which == "segment":
            t_star = float(params.get("t_star") or 0.0)
            record["exact"] = risk_segment_exact(geometry, t_star, sigma_eff)
            polytope = geometry.segment()
            theta = tuple(t_star * geometry.v2)
        else:
            if params.get("t_star") is not None:
                raise ValueError("--t-star applies only to --set segment")
            record["exact"] = risk_triangle_exact(geometry, sigma_eff).total
            polytope = geometry.triangle()
            theta = (0.0, 0.0)
        if params.get("theta") is not None:
            raise ValueError("--theta applies only to --set polytope-file")
    elif which == "polytope-file":
        if params.get("file") is None or params.get("theta") is None:
            raise ValueError("--set polytope-file requires --file and --theta")
        if params.get("t_star") is not None:
            raise ValueError("--t-star applies only to --set segment")
        if not params["mc"]:
            raise ValueError("general polytopes have no closed form; pass --mc")
        polytope = load_polytope(params["file"])
        theta = tuple(float(v) for v in params["theta"])
    else:
        raise ValueError(f"unknown set {which!r}")

    if params["mc"]:
        estimate = mc_risk(
            polytope,
            RiskQuery(theta_star=theta, sigma=sigma_eff),
            MCConfig(n=int(params["samples"]), seed=int(params["seed"])),
        )
        record["mc_mean"] = estimate.mean
        record["mc_stderr"] = estimate.stderr
    return Output(params, record=record)


def _one_observation(params: dict):
    """Refuse an ``--n-obs`` other than 1; only ``risk`` averages observations."""
    if params["n_obs"] != 1:
        raise ValueError(f"--n-obs must be 1 for {params['command']}, got {params['n_obs']!r}")


def _diff_table(c_values, sigmas: np.ndarray) -> np.ndarray:
    """Columns ``c, sigma, risk_S, risk_L, diff``, c-major: one closed-form call per set covers the grid."""
    geometries = [ExampleGeometry(c=float(c)) for c in c_values]
    risk_s = risk_segment_exact(geometries, 0.0, sigmas)
    risk_l = risk_triangle_exact(geometries, sigmas).total
    c_column = np.repeat(np.asarray(c_values, dtype=float), len(sigmas))
    sigma_column = np.tile(sigmas, len(geometries))
    return np.column_stack([c_column, sigma_column, risk_s.ravel(), risk_l.ravel(), (risk_s - risk_l).ravel()])


def compute_diff_curve(params: dict) -> Output:
    _one_observation(params)
    if not params["c_list"]:
        raise ValueError("--c-list must contain at least one value")
    table = _diff_table(params["c_list"], parse_sweep(params["sigma_sweep"]))
    return Output(params, header=["c", "sigma", "risk_S", "risk_L", "diff"], rows=table)


def compute_heatmap(params: dict) -> Output:
    _one_observation(params)
    table = _diff_table(parse_sweep(params["c_sweep"]), parse_sweep(params["sigma_sweep"]))
    return Output(params, header=["c", "sigma", "diff"], rows=table[:, [0, 1, 4]])


def compute_envelope(params: dict) -> Output:
    _one_observation(params)
    columns = envelope_curve(float(params["c"]), parse_sweep(params["x_sweep"]))
    x, *_, envelope = columns
    best = int(np.argmin(envelope))
    footer = {"argmin_x": float(x[best]), "envelope_min": float(envelope[best])}
    header = ["x", "risk_v1", "risk_v2", "risk_vx", "envelope"]
    return Output(params, header=header, rows=np.column_stack(columns), footer=footer)


def compute_statdim(params: dict) -> Output:
    _one_observation(params)
    has_polytope = params.get("polytope_file") is not None
    has_generators = params.get("generators") is not None
    if has_polytope == has_generators:
        raise ValueError("pass exactly one of --polytope-file/--theta or --generators")
    if has_polytope:
        if params.get("theta") is None:
            raise ValueError("--polytope-file requires --theta")
        polytope = load_polytope(params["polytope_file"])
        cone = tangent_cone_2d(polytope, np.asarray(params["theta"], dtype=float))
        return Output(params, record={"delta": statistical_dimension_2d(cone), "method": "analytic"})
    generators = [parse_point(part) for part in params["generators"].split(";") if part.strip()]
    estimate = statistical_dimension_mc(
        generators, n=int(params["samples"]), seed=int(params["seed"])
    )
    return Output(params, record={"delta": estimate.mean, "stderr": estimate.stderr, "method": "mc"})


def compute_reversal(params: dict) -> Output:
    _one_observation(params)
    x_small = float(params["x_small"])
    x_large = float(params["x_large"])
    if x_small <= x_large:
        raise ValueError(
            "sets are not strictly nested: --x-small must exceed --x-large "
            "(a larger x is a smaller set)"
        )
    c = float(params["c"])
    scan = detect_finite_sigma_reversal(
        ExampleGeometry(c=c, x=x_small),
        ExampleGeometry(c=c, x=x_large),
        parse_sweep(params["sigma_sweep"]),
        n=int(params["samples"]),
        seed=int(params["seed"]),
    )
    return Output(params, record=asdict(scan))


# ---------------------------------------------------------------------------
# the command table


def _arg(parse):
    """An argparse ``type`` that reports ``parse``'s own ValueError message."""

    def convert(text):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return convert


@dataclass(frozen=True)
class Command:
    """One subcommand: help text, flags, computation and optional plot body.

    ``flags`` holds ``(option, argparse keyword arguments)`` pairs; each
    flag's parsed value goes into the metadata under its argparse dest,
    beside ``command``, ``seed``, ``samples`` and ``n_obs``.
    ``plot`` is the body of the ``--emit-plot-script`` companion script,
    which reads the CSV columns as ``rows[name]``.
    """

    help: str
    flags: tuple
    compute: Callable[[dict], Output]
    plot: str | None = None


SUBCOMMANDS = {
    "risk": Command(
        "risk at one (theta*, sigma) point",
        (
            ("--set", dict(required=True, choices=["segment", "triangle", "polytope-file"])),
            ("--c", dict(type=float)),
            ("--sigma", dict(type=float, required=True)),
            ("--t-star", dict(type=float)),
            ("--file", dict(help="polytope JSON file with dim and vertices")),
            ("--theta", dict(type=_arg(parse_point), help="true parameter, comma-separated coordinates")),
            ("--mc", dict(action="store_true", help="add a Monte Carlo estimate")),
        ),
        compute_risk,
    ),
    "diff-curve": Command(
        "risk difference along a noise sweep",
        (
            ("--c-list", dict(required=True, type=_arg(parse_float_list))),
            ("--sigma-sweep", dict(required=True)),
        ),
        compute_diff_curve,
        """
for c in sorted(set(rows["c"])):
    part = rows[rows["c"] == c]
    plt.plot(part["sigma"], part["diff"], label=f"c={c:g}")
plt.axhline(0.0, color="black", linewidth=0.8)
plt.xscale("log")
plt.xlabel("sigma")
plt.ylabel("risk difference (segment - triangle)")
plt.legend()
""",
    ),
    "heatmap": Command(
        "risk difference over a (c, sigma) grid",
        (("--c-sweep", dict(required=True)), ("--sigma-sweep", dict(required=True))),
        compute_heatmap,
        """
plt.tripcolor(rows["c"], rows["sigma"], rows["diff"], shading="gouraud")
plt.yscale("log")
plt.xlabel("c")
plt.ylabel("sigma")
plt.colorbar(label="risk difference (segment - triangle)")
""",
    ),
    "envelope": Command(
        "limiting-risk envelope over x",
        (("--c", dict(type=float, required=True)), ("--x-sweep", dict(required=True))),
        compute_envelope,
        """
plt.plot(rows["x"], rows["risk_v1"], label="risk at v1")
plt.plot(rows["x"], rows["risk_v2"], label="risk at v2")
plt.plot(rows["x"], rows["risk_vx"], label="risk at vx")
plt.plot(rows["x"], rows["envelope"], "k--", label="envelope")
plt.xlabel("x")
plt.ylabel("limiting risk")
plt.legend()
""",
    ),
    "statdim": Command(
        "statistical dimension of a tangent cone",
        (
            ("--polytope-file", {}),
            ("--theta", dict(type=_arg(parse_point))),
            ("--generators", dict(help="semicolon-separated cone generators, e.g. '1,0;0,1'")),
        ),
        compute_statdim,
    ),
    "reversal": Command(
        "worst-case reversal scan over sigma",
        (
            ("--c", dict(type=float, required=True)),
            ("--x-small", dict(type=float, required=True)),
            ("--x-large", dict(type=float, required=True)),
            ("--sigma-sweep", dict(required=True)),
        ),
        compute_reversal,
        """
plt.errorbar(rows["sigma_grid"], rows["sup_small"], yerr=rows["stderr_small"],
             label="sup-risk, smaller set")
plt.errorbar(rows["sigma_grid"], rows["sup_large"], yerr=rows["stderr_large"],
             label="sup-risk, larger set")
plt.xscale("log")
plt.xlabel("sigma")
plt.ylabel("estimated sup-risk")
plt.legend()
""",
    ),
}


# parsed options that steer a run but are not part of its metadata
_RUN_OPTIONS = ("verify", "out", "format", "emit_plot_script")


# ---------------------------------------------------------------------------
# rendering


def _table(output: Output):
    """``(metadata, header, rows, footer)`` of an output, as its CSV holds them.

    A record becomes its equal-length list columns, or, if it has none, one
    row of its numeric scalars; its other entries join the metadata.
    """
    if output.record is None:
        return output.metadata, output.header, output.rows, output.footer
    record = output.record
    columns = {k: v for k, v in record.items() if isinstance(v, (list, tuple))} or {
        k: [v] for k, v in record.items() if isinstance(v, (int, float))
    }
    if len({len(v) for v in columns.values()}) != 1:
        raise ValueError("cannot tabulate record with unequal list lengths")
    extras = {k: v for k, v in record.items() if k not in columns}
    header = sorted(columns)
    rows = [list(row) for row in zip(*(columns[k] for k in header))]
    return {**output.metadata, **extras}, header, rows, None


def render_csv(output: Output) -> str:
    """The CSV text: every cell formatted ``%.15g`` by one ``%`` over the whole table."""
    metadata, header, rows, footer = _table(output)
    cells = np.asarray(rows, dtype=float).ravel().tolist()
    row_format = ",".join(["%.15g"] * len(header)) + "\n"
    body = (row_format * len(rows)) % tuple(cells)
    text = "# " + _json_line(metadata) + "\n" + ",".join(header) + "\n" + body
    if footer:
        text += "# " + _json_line(footer) + "\n"
    return text


def render_json(output: Output) -> str:
    if output.record is not None:
        payload = {"metadata": output.metadata, **output.record}
    else:
        payload = {"metadata": output.metadata, "header": output.header, "rows": np.asarray(output.rows).tolist()}
        if output.footer:
            payload["footer"] = output.footer
    return _json_line(payload) + "\n"


def _plot_script(body: str, csv_path: str) -> str:
    return (
        f'"""Companion plot for {csv_path}: run with python."""\n'
        "import numpy as np\n"
        "import matplotlib\n"
        'matplotlib.use("Agg")\n'
        "import matplotlib.pyplot as plt\n\n"
        f'rows = np.genfromtxt("{csv_path}", delimiter=",", names=True, comments="#")\n'
        f"{body}"
        "plt.tight_layout()\n"
        f'plt.savefig("{csv_path}.png", dpi=150)\n'
        f'print("wrote {csv_path}.png")\n'
    )


# ---------------------------------------------------------------------------
# --verify


def _read_output(text: str) -> Output:
    """Parse a CSV or JSON file written by :func:`render_csv`/:func:`render_json`."""
    if text.startswith("{"):
        payload = json.loads(text)
        metadata = payload.pop("metadata", None) if isinstance(payload, dict) else None
        if not isinstance(metadata, dict):
            raise ValueError("not a verifiable JSON output: missing metadata object")
        if "rows" in payload:
            return Output(metadata, header=payload.get("header"), rows=payload["rows"],
                          footer=payload.get("footer"))
        return Output(metadata, record=payload)
    lines = [line for line in text.split("\n") if line != ""]
    if not lines or not lines[0].startswith("# "):
        raise ValueError("not a verifiable CSV: missing leading metadata line")
    metadata = json.loads(lines[0][2:])
    if not isinstance(metadata, dict):
        raise ValueError("not a verifiable CSV: metadata line is not an object")
    if len(lines) < 2:
        raise ValueError("CSV has no header line")
    rows = []
    footer = None
    for line in lines[2:]:
        if line.startswith("# "):
            footer = json.loads(line[2:])
            continue
        rows.append([float(part) for part in line.split(",")])
    return Output(metadata, header=lines[1].split(","), rows=rows, footer=footer)


def _verify_value(got: float, want: float, stderr: float | None) -> bool:
    if stderr is not None:
        return abs(got - want) <= VERIFY_STDERR_FACTOR * stderr + 1e-12
    return abs(got - want) <= VERIFY_RTOL * (1.0 + abs(want))


def _entry_failures(kind: str, got: dict, want: dict) -> list:
    """Entries of ``want`` that ``got`` lacks or differs in; floats compare as table cells do."""
    def same(mine, value):
        if isinstance(value, float) and type(mine) in (int, float):
            return _verify_value(mine, value, None)
        return type(mine) is type(value) and mine == value

    return [f"{kind} {key}: file {got.get(key)!r} vs recomputed {value!r}"
            for key, value in want.items() if key not in got or not same(got[key], value)]


def run_verify(path: str) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        metadata, header, rows, footer = _table(_read_output(handle.read()))
    command = metadata.get("command")
    if command not in SUBCOMMANDS:
        raise ValueError(f"metadata names unknown command {command!r}")
    want_metadata, want_header, want_rows, want_footer = _table(SUBCOMMANDS[command].compute(metadata))
    want_rows = np.asarray(want_rows, dtype=float).tolist()
    if header != want_header:
        raise ValueError(f"header mismatch: file has {header}, recomputation has {want_header}")
    if len(rows) != len(want_rows):
        raise ValueError(f"row count mismatch: file has {len(rows)}, expected {len(want_rows)}")
    checked = 0
    # the metadata line also holds the record's scalar entries
    failures = _entry_failures("metadata", metadata, want_metadata)
    for index in range(0, len(rows), VERIFY_STRIDE):
        for col, name in enumerate(header):
            got = rows[index][col]
            want = want_rows[index][col]
            stderr = None
            stderr_name = _STDERR_COLUMN.get(name)
            if stderr_name in header:
                stderr = want_rows[index][header.index(stderr_name)]
            if not _verify_value(got, want, stderr):
                failures.append(f"row {index}, column {name}: file {got!r} vs recomputed {want!r}")
        checked += 1
    failures += _entry_failures("footer", footer or {}, want_footer or {})
    if failures:
        raise _NumericalFailure("verification failed: " + "; ".join(failures))
    print(f"verified {checked} of {len(rows)} rows of {path}: OK")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskrev",
        description="Exact, asymptotic, and Monte Carlo risks of polytope-constrained "
        "least squares in the planar Gaussian sequence model.",
    )
    parser.add_argument(
        "--verify", metavar="PATH", help="recheck a previously emitted CSV or JSON output instead of running a command"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    common.add_argument("--out", metavar="PATH", help="write output to this file instead of stdout")
    common.add_argument("--format", choices=["csv", "json"], default=None)
    common.add_argument("--n-obs", type=int, default=1)
    common.add_argument(
        "--emit-plot-script",
        action="store_true",
        help="write a matplotlib companion script next to the CSV named by --out",
    )
    sub = parser.add_subparsers(dest="command")
    for name, command in SUBCOMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for option, kwargs in command.flags:
            p.add_argument(option, **kwargs)
    return parser


def _emit(output: Output, args) -> None:
    """Write the output, and its plot script if asked; check both before writing."""
    fmt = args.format or ("csv" if output.rows is not None else "json")
    plot = SUBCOMMANDS[args.command].plot
    if args.emit_plot_script:
        if not args.out or fmt != "csv":
            raise ValueError("--emit-plot-script requires --out with CSV output")
        if plot is None:
            raise ValueError(f"no plot template for command {args.command!r}")
    text = render_csv(output) if fmt == "csv" else render_json(output)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.emit_plot_script:
        with open(args.out + ".plot.py", "w", encoding="utf-8", newline="") as handle:
            handle.write(_plot_script(plot, args.out))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verify is not None:
            if args.command is not None:
                raise ValueError("--verify replaces a subcommand; pass only one of them")
            return run_verify(args.verify)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand or --verify is required", file=sys.stderr)
            return 2
        params = {k: v for k, v in vars(args).items() if k not in _RUN_OPTIONS}
        output = SUBCOMMANDS[args.command].compute(params)
        _check_finite(output)
        _emit(output, args)
        return 0
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ProjectionError, _NumericalFailure, FloatingPointError, OverflowError, ZeroDivisionError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
