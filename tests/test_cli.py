import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import bcvgeo

RUN = [sys.executable, "-m", "bcvgeo"]
# the child process imports the same bcvgeo as the tests
SRC = os.path.dirname(os.path.dirname(bcvgeo.__file__))


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(RUN + list(args), capture_output=True, text=True, env=env)


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

    def test_timing_flag_adds_wall_time(self):
        res = run_cli("verify", "--kappa", "0", "--tau", "0.5",
                      "--suite", "frame", "--timing")
        report = json.loads(res.stdout)
        assert "wall_time_s" in report
        plain = run_cli("verify", "--kappa", "0", "--tau", "0.5", "--suite", "frame")
        assert "wall_time_s" not in json.loads(plain.stdout)


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

        args = ["mesh", "hopf-tube", *_mesh_inputs(tmp_path)["hopf-tube"],
                "--nu", "9", "--nv", "5"]
        res = run_cli(*args)
        assert res.returncode == 0, res.stderr
        parser = cli.build_parser()
        params, surface, _ = cli._mesh_surface(parser.parse_args(args), parser)
        us, vs = surface.grid(9, 5)
        norms = [[np.linalg.norm(bic.tangential_bitension_arrays(surface, params, u, v))
                  for v in vs] for u in us]
        i, j = np.unravel_index(np.argmax(norms), (9, 5))
        (u, v), = _header(res.stdout, "worst_uv")
        assert (float(u), float(v)) == (us[i], vs[j])
        assert len([l for l in res.stdout.splitlines()
                    if l.startswith("# max_tangential_bitension")]) == 1


class TestMeshInputErrors:
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
