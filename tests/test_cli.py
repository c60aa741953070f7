import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import bcvgeo

RUN = [sys.executable, "-m", "bcvgeo"]
# the child process imports the same bcvgeo as the tests
SRC = os.path.dirname(os.path.dirname(bcvgeo.__file__))
PINNED = Path(__file__).parent / "data" / "cli_outputs.json"


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(RUN + list(args), capture_output=True, text=True, env=env)


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def strict_json(text):
    """The JSON document `text`, which may hold no NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


class TestVerify:
    def test_all_suites_pass(self):
        res = run_cli("verify", "--kappa", "0", "--tau", "0.5")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["pass"] is True
        assert [s["name"] for s in report["suites"]] == [
            "frame", "ricci", "submersion", "gauss-codazzi",
            "biconservative", "theorem44", "theorem52",
        ]
        assert all(s["pass"] for s in report["suites"])

    def test_single_suite_filter(self):
        res = run_cli("verify", "--kappa", "1", "--tau", "0.5", "--suite", "frame")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert len(report["suites"]) == 1
        assert report["suites"][0]["name"] == "frame"
        assert report["suites"][0]["samples"] == 100

    def test_unknown_suite_rejected(self):
        res = run_cli("verify", "--kappa", "0", "--tau", "0.5", "--suite", "nonsense")
        assert res.returncode == 2
        assert "nonsense" in res.stderr

    def test_invalid_params_rejected(self):
        res = run_cli("verify", "--kappa", "nan", "--tau", "0.5", "--suite", "frame")
        assert res.returncode == 2
        assert "finite" in res.stderr

    def test_byte_identical_reports(self):
        args = ("verify", "--kappa", "1", "--tau", "1",
                "--suite", "frame", "--suite", "theorem52")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_theorem52_passes_at_non_default_seed(self):
        res = run_cli("verify", "--kappa", "1", "--tau", "1",
                      "--suite", "theorem52", "--seed", "1")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["pass"] is True

    @pytest.mark.parametrize("kappa", ["-1e-12", "-1e-20"])
    def test_small_negative_kappa_passes(self, kappa):
        # the sampling radius stays of order one as kappa -> 0-
        res = run_cli("verify", f"--kappa={kappa}", "--tau", "0.5")
        assert res.returncode == 0, res.stderr or res.stdout
        assert json.loads(res.stdout)["pass"] is True

    def test_negative_seed_rejected(self):
        res = run_cli("verify", "--kappa", "1", "--tau", "1", "--suite", "theorem52",
                      "--seed", "-1")
        assert res.returncode == 2
        assert "--seed" in res.stderr and "Traceback" not in res.stderr

    def test_input_error_shows_verify_usage(self):
        res = run_cli("verify", "--kappa", "1", "--tau", "1", "--seed", "-1")
        assert res.returncode == 2
        assert res.stderr.startswith("usage: bcvgeo verify")

    @pytest.mark.parametrize("kappa", ["-4.5", "-6", "-14.4", "-100", "1e308"])
    def test_narrow_domain_gives_a_report(self, kappa):
        # below kappa = -4 theorem52's old r0 window [0.6, 0.8 rmax] was empty;
        # at kappa = 1e308 the metric is singular, as 1/F^2 underflows
        res = run_cli("verify", f"--kappa={kappa}", "--tau", "0.5")
        assert res.returncode in (0, 1, 3), res.stderr
        assert "Traceback" not in res.stderr
        if res.returncode == 3:
            assert res.stderr.startswith("numeric")
        else:
            report = json.loads(res.stdout)
            assert report["pass"] is (res.returncode == 0)
            assert report["suites"][-1]["name"] == "theorem52"

    @pytest.mark.parametrize("tau", ["1e8", "1e20", "1e100"])
    def test_large_tau_is_a_numeric_failure(self, tau):
        # the chart partials of the Hopf cylinders lose their rank to
        # rounding: a numeric failure, not exit 1, which says that suites
        # ran and failed, and no traceback from a singular inverse; from
        # tau = 1e100 the metric overflows, and that is reported by the same
        # checks with no numpy warning
        res = run_cli("verify", "--kappa", "0", "--tau", tau)
        assert res.returncode == 3, res.stderr
        assert re.fullmatch(r"numeric failure: hopf-cylinder-r(1|0\.5): chart partials dependent "
                            r"at \(u, v\) = \(0\.753982, -0\.76\), det I = 0\.000e\+00\n",
                            res.stderr), res.stderr

    @pytest.mark.parametrize("tau", ["1e102", "1e103", "1e120"])
    def test_theorem52_at_huge_tau_is_a_failing_report(self, tau):
        # (1 + tau^2 hi^2)^1.5 in the suite's floor passes 1.8e308 here; the
        # floor divides by q2 and sqrt(q2) instead, so no OverflowError.  The
        # per-row identity overflows, and its check fails on the value that
        # is not finite, with no numpy warning; that value is reported as
        # null, so the report stays strict JSON
        res = run_cli("verify", "--kappa", "1", "--tau", tau, "--suite", "theorem52")
        assert res.returncode == 1, res.stderr
        assert res.stderr == ""
        report = strict_json(res.stdout)
        assert report["pass"] is False
        assert report["suites"][0]["max_residual"] is None
        assert re.search(r"; identity (inf|nan) < ", report["suites"][0]["note"])

    @pytest.mark.parametrize("suite", ["ricci", "frame", "submersion"])
    def test_single_suite_at_huge_tau_is_a_strict_failing_report(self, suite):
        # the frame components overflow, and each suite fails on a residual
        # that is not finite, reported as null, with no numpy warning
        res = run_cli("verify", "--kappa", "1", "--tau", "1e170", "--suite", suite)
        assert res.returncode == 1, res.stderr
        assert res.stderr == ""
        report = strict_json(res.stdout)
        assert report["pass"] is False
        assert report["suites"][0]["max_residual"] is None

    @pytest.mark.parametrize("kappa", ["1", "0", "-1"])
    @pytest.mark.parametrize("tau", ["1e170", "1e200"])
    def test_overflowing_tau_is_a_numeric_failure(self, kappa, tau):
        # the frame and submersion suites overflow before the Hopf cylinders'
        # Gram determinant turns NaN; only the numeric failure is printed
        res = run_cli("verify", "--kappa", kappa, "--tau", tau)
        assert res.returncode == 3, res.stderr
        assert res.stderr == ("numeric failure: hopf-cylinder-r0.5: chart partials dependent "
                              "at (u, v) = (0.753982, -0.76), det I = nan\n"), res.stderr

    def test_timing_flag_adds_wall_time(self):
        res = run_cli("verify", "--kappa", "0", "--tau", "0.5",
                      "--suite", "frame", "--timing")
        report = json.loads(res.stdout)
        assert "wall_time_s" in report
        plain = run_cli("verify", "--kappa", "0", "--tau", "0.5", "--suite", "frame")
        assert "wall_time_s" not in json.loads(plain.stdout)


class TestInProcessDriver:
    """Successive `cli.main` calls in one process, as the benchmark makes
    them, write what a fresh process writes for each argv: nothing leaks
    from one call to the next through the shared parser."""

    ARGVS = [
        ["verify", "--kappa", "1", "--tau", "1", "--suite", "theorem52", "--suite", "frame"],
        ["verify", "--kappa", "1", "--tau", "1"],
        ["verify", "--kappa", "nan", "--tau", "0.5"],
        ["verify", "--kappa", "0", "--suite", "frame"],
        ["integrate", "--kappa", "0", "--tau", "0.5", "--r0", "1.1", "--sigma0", "1.5",
         "--smax", "0.05"],
        ["mesh", "hopf-cylinder", "--kappa", "1", "--tau", "1", "--r0", "0.8",
         "--nu", "4", "--nv", "3"],
    ]

    def test_outputs_equal_fresh_processes(self, capsys, monkeypatch):
        from bcvgeo import cli

        # usage lines wrap at the terminal width; fix it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        codes = []
        for argv in self.ARGVS:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            res = run_cli(*argv)
            assert (code, out, err) == (res.returncode, res.stdout, res.stderr), argv
            codes.append(code)
        assert codes == [0, 0, 2, 2, 0, 0]


class TestIntegrate:
    def test_csv_structure_and_step(self, tmp_path):
        out = tmp_path / "traj.csv"
        res = run_cli("integrate", "--kappa", "1", "--tau", "1",
                      "--r0", "1", "--sigma0", "0.7853981634",
                      "--smax", "0.05", "--out", str(out))
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "s,r,z,sigma,f,R1,R2,obstruction"
        assert lines[-1].startswith("# status:")
        s_vals = [float(l.split(",")[0]) for l in lines[1:-1]]
        assert np.allclose(np.diff(s_vals), 1e-3, atol=1e-12)

    def test_stationary_radius_column(self):
        res = run_cli("integrate", "--kappa", "3", "--tau", "1",
                      "--r0", "0.6666666667", "--sigma0", "1.5707963268",
                      "--smax", "0.2")
        assert res.returncode == 0
        rows = [l for l in res.stdout.splitlines()[1:] if not l.startswith("#")]
        r_vals = [float(l.split(",")[1]) for l in rows]
        assert max(abs(r - 2.0 / 3.0) for r in r_vals) < 1e-6

    def test_tiny_radius_rejected(self):
        res = run_cli("integrate", "--kappa", "0", "--tau", "0.5",
                      "--r0", "1e-9", "--sigma0", "0.5")
        assert res.returncode == 2

    @pytest.mark.parametrize("flag", ["--step", "--smax"])
    def test_nan_step_or_horizon_rejected(self, flag):
        res = run_cli("integrate", "--kappa", "1", "--tau", "1", "--r0", "1",
                      "--sigma0", "1", flag, "nan")
        assert res.returncode == 2
        assert "finite" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("flag,value", [("--step", "nan"), ("--smax", "nan"),
                                            ("--step", "inf"), ("--r0", "0")])
    def test_input_error_shows_integrate_usage(self, flag, value):
        # ProfileState and IntegrationConfig check the values; the command
        # turns their errors into exit 2
        flags = {"--kappa": "1", "--tau": "1", "--r0": "1", "--sigma0": "1", flag: value}
        res = run_cli("integrate", *[a for kv in flags.items() for a in kv])
        assert res.returncode == 2
        assert res.stderr.startswith("usage: bcvgeo integrate")

    def test_row_budget_far_above_the_rows_marched(self):
        # the trajectory is sized to its 11 rows, not to the budget
        res = run_cli("integrate", "--kappa", "0", "--tau", "0.5", "--r0", "1",
                      "--sigma0", "1", "--max-steps", "1000000000000", "--smax", "0.01")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert len(lines) == 1 + 11 + 1 and lines[-1] == "# status: smax_reached"

    def test_state_fields_are_the_reference_loop(self):
        # the profile CSV that `mesh revolution` reads: s, r, z and sigma
        # are the rows of the one-loop reference march, each float with .17g
        from bcvgeo.ambient import EPS_F
        from bcvgeo.rotation import EPS_R
        from reference_kernel import COLUMNS, branch_kernel

        res = run_cli("integrate", "--kappa", "0.0", "--tau", "0.5", "--r0", "1.1",
                      "--sigma0", "1.5", "--smax", "1.0")
        assert res.returncode == 0, res.stderr
        ref = np.empty((20000, len(COLUMNS)))
        n, _ = branch_kernel(0.0, 0.5, 1.1, 0.0, 1.5, 0.0, 1e-3, 20000, 1.0,
                             10 * EPS_R, EPS_F, ref)
        expected = [",".join(f"{x:.17g}" for x in row) for row in ref[:n, :4].tolist()]
        rows = res.stdout.splitlines()[1:-1]
        assert [",".join(l.split(",")[:4]) for l in rows] == expected

    def test_overflowing_tau_is_a_numeric_failure(self):
        # tau^2 overflows: R1 is NaN and the obstruction and z infinite, so
        # the command writes no rows and names the first value that is not
        # finite, row 0's R1, with no numpy warning
        res = run_cli("integrate", "--kappa", "1", "--tau", "1e155", "--r0", "1",
                      "--sigma0", "1", "--smax", "0.003")
        assert res.returncode == 3, res.stderr
        assert res.stdout == ""
        assert res.stderr == ("numeric failure: trajectory row 0 (s = 0.0) has R1 = nan, "
                              "which is not finite\n")

    def test_byte_identical_runs(self):
        args = ("integrate", "--kappa", "0", "--tau", "0.5",
                "--r0", "1", "--sigma0", "1.0", "--smax", "0.5")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


class TestMesh:
    def test_cylinder_obj_structure(self, tmp_path):
        out = tmp_path / "cyl.obj"
        res = run_cli("mesh", "hopf-cylinder", "--r0", "1", "--nu", "16",
                      "--nv", "16", "--kappa", "0", "--tau", "0.5",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        v_lines = [l for l in lines if l.startswith("v ")]
        f_lines = [l for l in lines if l.startswith("f ")]
        assert len(v_lines) == 256
        assert len(f_lines) == 225
        header = [l for l in lines if l.startswith("# max_tangential_bitension")]
        assert len(header) == 1
        assert float(header[0].split()[-1]) < 1e-6
        # quad indices are 1-based and in range
        for l in f_lines:
            idx = [int(tok) for tok in l.split()[1:]]
            assert len(idx) == 4
            assert all(1 <= i <= 256 for i in idx)

    def test_missing_profile_rejected(self):
        res = run_cli("mesh", "revolution", "--profile", "missing.csv",
                      "--kappa", "0", "--tau", "0.5")
        assert res.returncode == 2

    def test_revolution_chained_from_integrate(self, tmp_path):
        prof = tmp_path / "profile.csv"
        res = run_cli("integrate", "--kappa", "1", "--tau", "1", "--r0", "1",
                      "--sigma0", "1.0", "--smax", "1.0", "--out", str(prof))
        assert res.returncode == 0
        out = tmp_path / "rev.obj"
        res = run_cli("mesh", "revolution", "--profile", str(prof),
                      "--kappa", "1", "--tau", "1", "--nu", "8", "--nv", "8",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert len([l for l in lines if l.startswith("v ")]) == 64
        assert len([l for l in lines if l.startswith("f ")]) == 49

    def test_tube_from_base_csv(self, tmp_path):
        base = tmp_path / "base.csv"
        ts = np.linspace(0.0, 2 * math.pi, 41)
        rows = ["x,y"] + [f"{1.3 * math.cos(t)},{1.3 * math.sin(t)}" for t in ts]
        base.write_text("\n".join(rows) + "\n")
        out = tmp_path / "tube.obj"
        res = run_cli("mesh", "hopf-tube", "--base", str(base),
                      "--kappa", "0", "--tau", "0.5", "--nu", "10", "--nv", "6",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert len([l for l in lines if l.startswith("v ")]) == 60

    def test_domain_exit_gives_exit_3_and_no_output(self, tmp_path):
        # profile marching straight through the domain boundary of a
        # negatively curved base
        prof = tmp_path / "bad.csv"
        s = np.linspace(0.0, 1.0, 21)
        r = 1.3 + s  # reaches r = 2.3 > 2 where F < 0 for kappa = -1
        rows = ["s,r,z,sigma"] + [f"{si},{ri},0.0,0.0" for si, ri in zip(s, r)]
        prof.write_text("\n".join(rows) + "\n")
        out = tmp_path / "bad.obj"
        res = run_cli("mesh", "revolution", "--profile", str(prof),
                      "--kappa", "-1", "--tau", "0.5", "--nu", "6", "--nv", "6",
                      "--out", str(out))
        assert res.returncode == 3
        assert not out.exists()

    def test_byte_identical_meshes(self):
        args = ("mesh", "hopf-cylinder", "--r0", "1", "--nu", "8", "--nv", "8",
                "--kappa", "0", "--tau", "0.5")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_output_independent_of_input_directory(self, tmp_path):
        # the header names the input CSV; one file copied into two
        # directories whose paths differ in length must give the same bytes
        inputs = _mesh_inputs(tmp_path)
        for kind, flag in (("revolution", "--profile"), ("hopf-tube", "--base")):
            args = inputs[kind]
            src = args[args.index(flag) + 1]
            outs = []
            for d in ("a", "a_much_longer_directory_name"):
                (tmp_path / d).mkdir(exist_ok=True)
                copy = str(tmp_path / d / os.path.basename(src))
                shutil.copy(src, copy)
                res = run_cli("mesh", kind, *[copy if a == src else a for a in args],
                              "--nu", "6", "--nv", "5")
                assert res.returncode == 0, res.stderr
                outs.append(res.stdout)
            assert outs[0] == outs[1], kind
            assert outs[0].splitlines()[0].endswith(f" {os.path.basename(src)}")


def _mesh_inputs(tmp_path):
    """Fixed inputs for the three mesh kinds: a branch profile from
    `integrate` and a closed ellipse base curve."""
    prof = tmp_path / "profile.csv"
    res = run_cli("integrate", "--kappa", "0.0", "--tau", "0.5", "--r0", "1.1",
                  "--sigma0", "1.5", "--smax", "1.0", "--out", str(prof))
    assert res.returncode == 0, res.stderr
    base = tmp_path / "ellipse.csv"
    rows = ["x,y"] + [f"{math.cos(2 * math.pi * (i % 64) / 64)!r},"
                      f"{0.7 * math.sin(2 * math.pi * (i % 64) / 64)!r}" for i in range(65)]
    base.write_text("\n".join(rows) + "\n")
    return {
        "hopf-cylinder": ["--kappa", "1.0", "--tau", "1.0", "--r0", "0.9"],
        "revolution": ["--kappa", "0.0", "--tau", "0.5", "--profile", str(prof)],
        "hopf-tube": ["--kappa", "-1.0", "--tau", "0.5", "--base", str(base)],
    }


def pinned_cli_outputs():
    """Exit code, sha256 and byte length of the output of `integrate` at
    three pairs, of `mesh` of each kind at 16x16 and of the two spline-backed
    kinds on a non-square grid, from `cli.main` in this process.  The first
    `integrate` runs to the default --smax (5,001 rows) and writes the
    profile that `mesh revolution` reads; the others write to stdout."""
    from bcvgeo import cli

    def run(argv, out=None):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        data = Path(out).read_bytes() if out else buf.getvalue().encode("utf-8")
        return {"argv": argv, "exit": code, "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data)}

    with tempfile.TemporaryDirectory() as tmp:
        prof = os.path.join(tmp, "profile.csv")
        base = os.path.join(tmp, "ellipse.csv")
        rows = ["x,y"] + [f"{math.cos(2 * math.pi * (i % 64) / 64)!r},"
                          f"{0.7 * math.sin(2 * math.pi * (i % 64) / 64)!r}" for i in range(65)]
        Path(base).write_text("\n".join(rows) + "\n", encoding="utf-8")
        grid = ["--nu", "16", "--nv", "16"]
        cases = [
            run(["integrate", "--kappa", "0.0", "--tau", "0.5", "--r0", "1.1",
                 "--sigma0", "1.5", "--out", prof], prof),
            run(["integrate", "--kappa", "1.0", "--tau", "1.0", "--r0", "1.0",
                 "--sigma0", "1.0", "--smax", "1.0"]),
            run(["integrate", "--kappa", "-1.0", "--tau", "0.5", "--r0", "0.9",
                 "--sigma0", "1.2", "--smax", "2.0"]),
            run(["mesh", "hopf-cylinder", "--kappa", "1.0", "--tau", "1.0", "--r0", "0.9",
                 *grid]),
            run(["mesh", "revolution", "--kappa", "0.0", "--tau", "0.5", "--profile", prof,
                 *grid]),
            run(["mesh", "hopf-tube", "--kappa", "-1.0", "--tau", "0.5", "--base", base,
                 *grid]),
            # non-square grids: a transposed vertex or face order changes their bytes
            run(["mesh", "revolution", "--kappa", "0.0", "--tau", "0.5", "--profile", prof,
                 "--nu", "10", "--nv", "6"]),
            run(["mesh", "hopf-tube", "--kappa", "-1.0", "--tau", "0.5", "--base", base,
                 "--nu", "9", "--nv", "5"]),
        ]
    # the input files live in a temporary directory: pin their names only
    for case in cases:
        case["argv"] = [os.path.basename(a) if a in (prof, base) else a
                        for a in case["argv"]]
    return cases


def test_cli_outputs_are_pinned():
    """The outputs equal tests/data/cli_outputs.json byte for byte.  When an
    output is meant to change, regenerate the file from the repository root
    with

        PYTHONPATH=src:tests python -c "import json, test_cli as t; \\
            print(json.dumps(t.pinned_cli_outputs(), indent=1))" > tests/data/cli_outputs.json
    """
    want = json.loads(PINNED.read_text(encoding="utf-8"))
    got = pinned_cli_outputs()
    assert [c["argv"] for c in got] == [c["argv"] for c in want]
    for g, w in zip(got, want):
        assert g == w, g["argv"]


def _header(text, key):
    return [l.split()[2:] for l in text.splitlines() if l.startswith(f"# {key} ")]


class TestMeshBitension:
    # max_tangential_bitension of the per-vertex implementation that the
    # batched one replaced, on the inputs of _mesh_inputs at 16x16.  The
    # residual is differenced through nested 1e-4 and 1e-3 stencils, so
    # rounding amplifies by about 1e7; 1e-7 bounds the reordering.
    RECORDED = {"hopf-cylinder": 3.2088268607820204e-08,
                "revolution": 0.17344847957255383,
                "hopf-tube": 6.6444366006773272}

    def test_max_bitension_matches_recorded_values(self, tmp_path):
        for kind, extra in _mesh_inputs(tmp_path).items():
            res = run_cli("mesh", kind, *extra, "--nu", "16", "--nv", "16")
            assert res.returncode == 0, res.stderr
            (value,), = _header(res.stdout, "max_tangential_bitension")
            assert abs(float(value) - self.RECORDED[kind]) < 1e-7, kind

    def test_worst_uv_is_the_per_vertex_argmax(self, tmp_path):
        from bcvgeo import biconservative as bic
        from bcvgeo import cli
        from bcvgeo.immersion import Stages

        args = ["mesh", "hopf-tube", *_mesh_inputs(tmp_path)["hopf-tube"],
                "--nu", "9", "--nv", "5"]
        res = run_cli(*args)
        assert res.returncode == 0, res.stderr
        parser = cli.build_parser()
        params, surface, _ = cli._mesh_surface(parser.parse_args(args), parser)
        us, vs = surface.grid(9, 5)
        norms = [[np.linalg.norm(bic.tangential_bitension_arrays(Stages(surface, params, u, v)))
                  for v in vs] for u in us]
        i, j = np.unravel_index(np.argmax(norms), (9, 5))
        (u, v), = _header(res.stdout, "worst_uv")
        assert (float(u), float(v)) == (us[i], vs[j])
        assert len([l for l in res.stdout.splitlines()
                    if l.startswith("# max_tangential_bitension")]) == 1


# rows of a smooth profile inside the (0, 0.5) domain, and a closed ellipse
PROFILE_ROWS = [f"{0.1 * i!r},{1.0 + 0.05 * i!r},{0.02 * i!r},{0.3 + 0.01 * i!r}"
                for i in range(8)]
BASE_ROWS = [f"{math.cos(2 * math.pi * i / 12)!r},{0.7 * math.sin(2 * math.pi * i / 12)!r}"
             for i in range(13)]
INPUTS = {"--profile": ("revolution", "s,r,z,sigma", PROFILE_ROWS),
          "--base": ("hopf-tube", "x,y", BASE_ROWS)}


def mesh_from(capsys, tmp_path, flag, lines, name="in.csv"):
    """Exit code, OBJ lines after the first (which names the file) and
    stderr of `mesh` at (0, 0.5) on a 4x4 grid, the input CSV holding
    `lines`; an exception escaping `cli.main` fails the test."""
    from bcvgeo import cli

    path = tmp_path / name
    # lone surrogates in `lines` stand for bytes that are not UTF-8
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))
    kind = INPUTS[flag][0]
    try:
        code = cli.main(["mesh", kind, "--kappa", "0", "--tau", "0.5", flag, str(path),
                         "--nu", "4", "--nv", "4"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.splitlines()[1:], err


class TestMeshInputErrors:
    """The CSV grammar of `_read_csv_columns`, for --profile and --base.  An
    accepted variant gives the mesh of the plain file; a rejected input exits
    2 with a message naming the file, and the line where there is one."""

    def test_non_finite_profile_value_is_a_usage_error(self, tmp_path):
        prof = tmp_path / "profile.csv"
        rows = ["s,r,z,sigma"] + [f"{0.1 * i},{'nan' if i == 3 else 1.0 + 0.1 * i},0.0,0.2"
                                  for i in range(8)]
        prof.write_text("\n".join(rows) + "\n")
        res = run_cli("mesh", "revolution", "--profile", str(prof),
                      "--kappa", "0", "--tau", "0.5", "--nu", "4", "--nv", "4")
        assert res.returncode == 2
        assert str(prof) in res.stderr and "column r" in res.stderr
        assert "Traceback" not in res.stderr

    def test_non_finite_base_value_is_a_usage_error(self, tmp_path):
        base = tmp_path / "base.csv"
        ts = np.linspace(0.0, 2 * math.pi, 21)
        rows = ["x,y"] + [f"{'nan' if i == 5 else math.cos(t)},{math.sin(t)}"
                          for i, t in enumerate(ts)]
        base.write_text("\n".join(rows) + "\n")
        res = run_cli("mesh", "hopf-tube", "--base", str(base),
                      "--kappa", "0", "--tau", "0.5", "--nu", "4", "--nv", "4")
        assert res.returncode == 2
        assert str(base) in res.stderr and "column x" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("kappa,r0", [("1", None), ("1", "0"), ("1", "nan"),
                                          ("-1", "2.5")])   # F(2.5) < 0 at kappa = -1
    def test_input_error_shows_mesh_usage(self, kappa, r0):
        # hopf_cylinder checks r0; the command turns its error into exit 2
        r0_flag = [] if r0 is None else ["--r0", r0]
        res = run_cli("mesh", "hopf-cylinder", "--kappa", kappa, "--tau", "0.5", *r0_flag)
        assert res.returncode == 2
        assert res.stderr.startswith("usage: bcvgeo mesh")

    @staticmethod
    def variants(header, rows):
        spaced = ", ".join(header.split(","))
        return {
            "spaced header": [spaced] + rows,
            "commented header": ["# " + header] + rows,
            "quoted header": [",".join(f'"{c}"' for c in header.split(","))] + rows,
            "blank lines and comments": ["", header, ""] + rows[:3] + ["", " \t", "  # note"]
                                        + rows[3:] + ["# status: smax_reached"],
            "blanks around cells": [header] + [c.replace(",", " , ") for c in rows],
            "inline comment": [header] + [rows[0] + " # first row"] + rows[1:],
            "latin-1 comment": [header] + rows + ["# caf\udce9"],
            "CRLF line ends": [header + "\r"] + [row + "\r" for row in rows],
            "columns reordered and extra": [",".join(["extra"] + header.split(",")[::-1])]
                                           + [",".join(["abc"] + row.split(",")[::-1])
                                              for row in rows],
            "first of two equal names": [f"{header},{header.split(',')[0]}"]
                                        + [row + ",abc" for row in rows],
            "NBSP around cells": [header] + [f"\xa0{c}\xa0".replace(",", "\xa0,\xa0")
                                             for c in rows],
            "em spaces around cells": [header] + [f"\u2003{c}\u2003".replace(",", "\u2003,\u2003")
                                                  for c in rows],
        }

    @pytest.mark.parametrize("flag", list(INPUTS))
    def test_accepted_variants_give_the_plain_mesh(self, capsys, tmp_path, flag):
        _, header, rows = INPUTS[flag]
        code, plain, err = mesh_from(capsys, tmp_path, flag, [header] + rows)
        assert code == 0, err
        assert len([l for l in plain if l.startswith("v ")]) == 16
        for name, lines in self.variants(header, rows).items():
            assert mesh_from(capsys, tmp_path, flag, lines) == (0, plain, ""), name

    @pytest.mark.parametrize("flag", list(INPUTS))
    @pytest.mark.parametrize("cell", ["abc", "", "1_2", "0x1p-2"])
    def test_non_numeric_cell_names_file_line_and_column(self, capsys, tmp_path, flag, cell):
        _, header, rows = INPUTS[flag]
        first = header.split(",")[0]
        bad = rows[:3] + [cell + rows[3][rows[3].index(","):]] + rows[4:]
        code, _, err = mesh_from(capsys, tmp_path, flag, [header] + bad)
        assert code == 2
        assert f"in.csv: line 5: column {first} is not a number: {cell!r}" in err

    @pytest.mark.parametrize("flag", list(INPUTS))
    def test_ragged_row_names_file_and_line(self, capsys, tmp_path, flag):
        _, header, rows = INPUTS[flag]
        width = len(header.split(","))
        short = rows[:3] + [rows[3].rsplit(",", 1)[0]] + rows[4:]
        code, _, err = mesh_from(capsys, tmp_path, flag, [header] + short)
        assert code == 2
        assert f"in.csv: line 5 has {width - 1} cells, the header {width}" in err
        # a row longer than the header, though its extra cell is in no
        # required column
        long = rows[:5] + [rows[5] + ",9"] + rows[6:]
        code, _, err = mesh_from(capsys, tmp_path, flag, ["", header] + long)
        assert code == 2
        assert f"in.csv: line 8 has {width + 1} cells, the header {width}" in err

    @pytest.mark.parametrize("flag", list(INPUTS))
    @pytest.mark.parametrize("lines", [[], ["", "  "]])
    def test_empty_file_is_a_usage_error(self, capsys, tmp_path, flag, lines):
        code, _, err = mesh_from(capsys, tmp_path, flag, lines)
        assert code == 2
        assert "in.csv: no header line, the file is empty" in err

    @pytest.mark.parametrize("flag", list(INPUTS))
    def test_missing_columns(self, capsys, tmp_path, flag):
        _, header, rows = INPUTS[flag]
        last = header.rsplit(",", 1)[1]
        lines = [header.rsplit(",", 1)[0]] + [row.rsplit(",", 1)[0] for row in rows]
        code, _, err = mesh_from(capsys, tmp_path, flag, lines)
        assert code == 2
        assert f"in.csv: missing columns {last}" in err
        # a comment line above the header is read as the header
        code, _, err = mesh_from(capsys, tmp_path, flag, ["# made by hand", header] + rows)
        assert code == 2
        assert f"in.csv: missing columns {', '.join(header.split(','))}" in err

    @pytest.mark.parametrize("flag", list(INPUTS))
    @pytest.mark.parametrize("n_rows", [0, 1, 3])
    def test_fewer_than_four_rows(self, capsys, tmp_path, flag, n_rows):
        _, header, rows = INPUTS[flag]
        code, _, err = mesh_from(capsys, tmp_path, flag, [header] + rows[:n_rows])
        assert code == 2
        assert "in.csv: need at least 4 rows for a spline profile" in err
        assert "Warning" not in err

    @pytest.mark.parametrize("flag", list(INPUTS))
    def test_first_non_finite_value_names_its_line(self, capsys, tmp_path, flag):
        _, header, rows = INPUTS[flag]
        last = header.split(",")[-1]

        def with_last(row, cell):
            return row.rsplit(",", 1)[0] + "," + cell

        bad = rows[:3] + [with_last(rows[3], "inf")] + rows[4:5] + [with_last(rows[5], "nan")]
        code, _, err = mesh_from(capsys, tmp_path, flag, [header] + bad + rows[6:])
        assert code == 2
        assert f"in.csv: line 5: column {last} is not finite: 'inf'" in err
        # a file too short for a spline is named as such first
        code, _, err = mesh_from(capsys, tmp_path, flag, [header] + bad[2:5])
        assert code == 2
        assert "in.csv: need at least 4 rows for a spline profile" in err

    @pytest.mark.parametrize("flag", list(INPUTS))
    def test_bad_cell_below_a_padded_number_names_its_own_line(self, capsys, tmp_path, flag):
        # the padded number on line 3 is read, so the error is at line 6
        _, header, rows = INPUTS[flag]
        first, second = header.split(",")[:2]
        bad = (rows[:1] + ["\xa0" + rows[1]] + rows[2:4]
               + ["abc" + rows[4][rows[4].index(","):]] + rows[5:])
        code, _, err = mesh_from(capsys, tmp_path, flag, [header] + bad)
        assert code == 2
        assert f"in.csv: line 6: column {first} is not a number: 'abc'" in err
        # and a padded cell is not named for a bad cell beside it
        bad = rows[:3] + ["\u2003" + rows[3].replace(",", ",0.\u20031", 1)] + rows[4:]
        code, _, err = mesh_from(capsys, tmp_path, flag, [header] + bad)
        assert code == 2
        assert f"in.csv: line 5: column {second} is not a number: '0.\\u20031" in err

    @pytest.mark.parametrize("flag", list(INPUTS))
    def test_non_utf8_byte_in_a_cell_is_not_a_number(self, capsys, tmp_path, flag):
        # the byte 0xe9, decoded as U+FFFD
        _, header, rows = INPUTS[flag]
        first = header.split(",")[0]
        bad = rows[:3] + ["1\udce9" + rows[3][rows[3].index(","):]] + rows[4:]
        code, _, err = mesh_from(capsys, tmp_path, flag, [header] + bad)
        assert code == 2
        assert f"in.csv: line 5: column {first} is not a number: '1\ufffd'" in err
