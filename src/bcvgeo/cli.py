"""Command-line front end: verification reports, branch trajectories, meshes.

Subcommands
-----------
verify      run named verification suites at one parameter pair, JSON report
integrate   march the rotational branch ODE, CSV trajectory
mesh        export a surface as a Wavefront OBJ with a residual header

Exit codes: 0 success / all suites pass, 1 suites ran but failed, 2 usage or
input error, 3 numeric domain failure.  Outputs are UTF-8 with LF endings.
CSV and OBJ floats have fixed 17-significant-digit formatting and the JSON
report writes floats by repr, so identical flags and seeds reproduce
byte-identical files (wall-clock timing is only included on request, to
keep the default report deterministic).  The OBJ header names an input
CSV by its file name only, so a mesh's bytes do not depend on the
directory the input lives in.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from array import array

import numpy as np

from . import __version__, biconservative as bic, immersion as imm, rotation as rot
from ._spline import CubicSpline
from .ambient import BcvParams
from .errors import BcvError, DomainError
from .suites import SUITE_NAMES, run_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _write_text(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _add_params(parser: argparse.ArgumentParser):
    parser.add_argument("--kappa", type=float, required=True,
                        help="base curvature of the ambient family")
    parser.add_argument("--tau", type=float, required=True,
                        help="bundle curvature of the ambient family")


def _params_from(args, parser) -> BcvParams:
    try:
        return BcvParams(args.kappa, args.tau)
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args, parser) -> int:
    params = _params_from(args, parser)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    started = time.perf_counter()
    report = run_report(params, args.suite, seed=args.seed)
    if args.timing:
        report["wall_time_s"] = time.perf_counter() - started
    _write_text(args.out, json.dumps(report, indent=2, allow_nan=False) + "\n")
    return EXIT_OK if report["pass"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# integrate


def _cmd_integrate(args, parser) -> int:
    """The branch trajectory from (--r0, --sigma0) as CSV; an input that
    ProfileState or IntegrationConfig rejects exits 2 with the usage line.
    A trajectory with a value that is not finite, as where tau^2 r^2
    overflows, raises BcvError naming its first row and column, and writes
    nothing."""
    params = _params_from(args, parser)
    try:
        init = rot.ProfileState(s=0.0, r=args.r0, z=0.0, sigma=args.sigma0)
        cfg = rot.IntegrationConfig(step=args.step, s_max=args.smax,
                                    max_steps=args.max_steps)
        traj = rot.integrate_noncmc_branch(params, init, cfg)
    except (DomainError, ValueError) as exc:
        parser.error(str(exc))
    columns = ("s", "r", "z", "sigma", "f", "R1", "R2", "obstruction")   # no f'
    table = np.column_stack([getattr(traj, c) for c in columns])
    finite = np.isfinite(table)
    if not finite.all():
        i, j = divmod(int(np.argmin(finite)), len(columns))
        raise BcvError(f"trajectory row {i} (s = {float(table[i, 0])!r}) has "
                       f"{columns[j]} = {float(table[i, j])!r}, which is not finite")
    row = ",".join(["{:.17g}"] * len(columns))
    lines = [",".join(columns)]
    lines.extend(map(row.format, *table.T.tolist()))
    lines.append(f"# status: {traj.status}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# mesh


def _read_csv_columns(path, required, parser):
    """The columns `required` of the CSV file `path`, as a mapping of name
    to float array, read in one pass; an input error exits 2 through
    `parser`, naming the file, and the line where there is one.

    The header is the first line with any text, a leading "#" dropped; its
    comma-separated cells, stripped of blanks and double quotes, name the
    columns, and the first of two equal names counts.  Below it, a line
    with no text before a "#" (blank, or a comment such as `integrate`'s
    closing "# status:" line) is skipped, and so is the text after a "#".
    Every other line is a data row with as many cells as the header.  A
    cell in a required column is a number by one rule: stripped of
    whitespace, it is ASCII, has no "_" and is read by `float`.  The first
    line that breaks a rule is the one named.  The required columns must be
    at least 4 rows long, and then finite: the first line with a non-finite
    value is named.
    """
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            lines = enumerate(fh, 1)
            header = ""
            for _, line in lines:
                header = line.strip().removeprefix("#").strip()
                if header:
                    break
            if not header:
                parser.error(f"{path}: no header line, the file is empty")
            names = [c.strip(' \t"') for c in header.split(",")]
            missing = [c for c in required if c not in names]
            if missing:
                parser.error(f"{path}: missing columns {', '.join(missing)}")
            index = [names.index(c) for c in required]
            values = [array("d") for _ in required]
            nonfinite = None   # (line, column, cell) of the first non-finite value
            for n, line in lines:
                text = line.partition("#")[0]
                if not text.strip():
                    continue
                cells = text.split(",")
                if len(cells) != len(names):
                    parser.error(f"{path}: line {n} has {len(cells)} cells, "
                                 f"the header {len(names)}")
                for c, i, column in zip(required, index, values):
                    cell = cells[i].strip()
                    try:
                        if "_" in cell or not cell.isascii():
                            raise ValueError
                        column.append(float(cell))
                    except ValueError:
                        parser.error(f"{path}: line {n}: column {c} is not a number: {cell!r}")
                    if nonfinite is None and not math.isfinite(column[-1]):
                        nonfinite = (n, c, cell)
    except OSError as exc:
        parser.error(f"cannot read {path}: {exc}")
    if len(values[0]) < 4:
        parser.error(f"{path}: need at least 4 rows for a spline profile")
    if nonfinite:
        parser.error("{}: line {}: column {} is not finite: {!r}".format(path, *nonfinite))
    return {c: np.array(column) for c, column in zip(required, values)}


def _mesh_surface(args, parser):
    params = _params_from(args, parser)
    if args.kind == "hopf-cylinder":
        if args.r0 is None:
            parser.error("--r0 must be given for hopf-cylinder")
        try:
            surface = rot.hopf_cylinder(params, args.r0)
        except DomainError as exc:
            parser.error(str(exc))
        return params, surface, f"hopf-cylinder r0 {args.r0:.17g}"
    if args.kind == "revolution":
        if args.profile is None:
            parser.error("--profile FILE.csv is required for revolution")
        columns = _read_csv_columns(args.profile, ("s", "r", "z", "sigma"), parser)
        s = columns["s"]
        if not np.all(np.diff(s) > 0):
            parser.error(f"{args.profile}: s column must be strictly increasing")
        profile = rot.spline_profile_columns(*columns.values())
        surface = rot.revolution_surface(params, profile,
                                         (float(s[0]), float(s[-1])))
        return params, surface, f"revolution profile {os.path.basename(args.profile)}"
    if args.kind == "hopf-tube":
        if args.base is None:
            parser.error("--base FILE.csv is required for hopf-tube")
        xy = np.array(list(_read_csv_columns(args.base, ("x", "y"), parser).values()))
        closed = bool(np.all(abs(xy[:, 0] - xy[:, -1]) < 1e-12))
        sp = CubicSpline(np.linspace(0.0, 1.0, xy.shape[1]), xy, periodic=closed)
        surface = rot.hopf_tube(sp, lambda u: sp(u, 1), u_domain=(0.0, 1.0))
        return params, surface, f"hopf-tube base {os.path.basename(args.base)}"
    parser.error(f"unknown mesh kind {args.kind!r}")


def _cmd_mesh(args, parser) -> int:
    if args.nu < 2 or args.nv < 2:
        parser.error("--nu and --nv must be at least 2")
    params, surface, spec = _mesh_surface(args, parser)
    us, vs = surface.grid(args.nu, args.nv)
    tb = np.empty((args.nu, args.nv))
    try:
        # one batched call per grid row: u fixed, all v
        for i, u in enumerate(us):
            tb[i] = np.linalg.norm(
                bic.tangential_bitension(imm.Stages(surface, params, u, vs)), axis=0)
        # the vertices row by row, u slow and v fast, as the faces number them
        xyz = surface.coords(*(g.ravel() for g in np.meshgrid(us, vs, indexing="ij")))
    except BcvError as exc:
        print(f"mesh aborted, no output written: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    i, j = np.unravel_index(np.argmax(tb), tb.shape)
    lines = [
        f"# bcvgeo {__version__} mesh {spec}",
        f"# kappa {params.kappa:.17g} tau {params.tau:.17g} nu {args.nu} nv {args.nv}",
        f"# max_tangential_bitension {tb[i, j]:.17g}",
        f"# worst_uv {us[i]:.17g} {vs[j]:.17g}",
    ]
    lines.extend(map("v {:.17g} {:.17g} {:.17g}".format, *xyz.tolist()))
    for i in range(args.nu - 1):
        for j in range(args.nv - 1):
            a = i * args.nv + j + 1
            b = (i + 1) * args.nv + j + 1
            lines.append(f"f {a} {b} {b + 1} {a + 1}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every negative float literal as a
    value, exponent notation included.  argparse's own pattern takes -1e-06,
    the form repr() gives a negative float below 1e-4 in magnitude, for an
    option.  No bcvgeo option looks like a number, so nothing else changes;
    each subcommand's parser is of the same class."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `bcvgeo` parser, built on the first call and shared after it:
    parsing keeps no state in the parser, so every call of :func:`main` in
    one process can use the same one."""
    parser = _Parser(
        prog="bcvgeo",
        description="Verification tooling for surfaces in the "
                    "Bianchi-Cartan-Vranceanu 3-spaces.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    _add_params(p_verify)
    p_verify.add_argument("--suite", action="append", choices=SUITE_NAMES,
                          help="suite to run (repeatable; default: all)")
    p_verify.add_argument("--seed", type=int, default=42,
                          help="seed for the suite sampling (default 42)")
    p_verify.add_argument("--timing", action="store_true",
                          help="include wall time in the report "
                               "(breaks byte-for-byte reproducibility)")
    p_verify.add_argument("--out", default=None, help="output file (default stdout)")
    p_verify.set_defaults(fn=_cmd_verify, parser=p_verify)

    p_int = sub.add_parser("integrate", help="integrate the rotational branch")
    _add_params(p_int)
    p_int.add_argument("--r0", type=float, required=True, help="initial radius")
    p_int.add_argument("--sigma0", type=float, required=True,
                       help="initial profile angle (radians)")
    p_int.add_argument("--step", type=float, default=rot.IntegrationConfig.step,
                       help="RK4 step (default %(default)g)")
    p_int.add_argument("--smax", type=float, default=rot.IntegrationConfig.s_max,
                       help="arclength horizon (default %(default)g)")
    p_int.add_argument("--max-steps", type=int, default=rot.IntegrationConfig.max_steps,
                       help="row budget (default %(default)d)")
    p_int.add_argument("--out", default=None, help="output file (default stdout)")
    p_int.set_defaults(fn=_cmd_integrate, parser=p_int)

    p_mesh = sub.add_parser("mesh", help="export a surface mesh as OBJ")
    p_mesh.add_argument("kind", choices=("hopf-cylinder", "revolution", "hopf-tube"))
    _add_params(p_mesh)
    p_mesh.add_argument("--r0", type=float, default=None, help="cylinder radius")
    p_mesh.add_argument("--profile", default=None,
                        help="profile CSV with columns s,r,z,sigma")
    p_mesh.add_argument("--base", default=None,
                        help="base-curve CSV with columns x,y")
    p_mesh.add_argument("--nu", type=int, default=16, help="grid size in u (default 16)")
    p_mesh.add_argument("--nv", type=int, default=16, help="grid size in v (default 16)")
    p_mesh.add_argument("--out", default=None, help="output file (default stdout)")
    p_mesh.set_defaults(fn=_cmd_mesh, parser=p_mesh)
    return parser


def main(argv=None) -> int:
    """Run one `bcvgeo` command and return its exit code; a usage error
    exits 2 through argparse.  The parser is built on the first call in a
    process, not at import, and reused by every later call."""
    args = build_parser().parse_args(argv)
    try:
        # input errors are reported with the subcommand's own usage line
        return args.fn(args, args.parser)
    except DomainError as exc:
        print(f"numeric domain failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BcvError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
