"""Building and loading the compiled march: a failed build leaves the Python
march in use with the same output, a library is loaded only when it was
built from the source bytes at hand, and both marches fail alike."""

import contextlib
import ctypes
import hashlib
import importlib.util
import io
import json
import re
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from bcvgeo import _kernels, cli

PINNED = Path(__file__).parent / "data" / "cli_outputs.json"
ARGS = (1.0, 1.0, 1.0, 0.25, 1.0, 0.0, 1e-3, 20000, 3.0, 0.05, 1e-9)


@pytest.fixture
def cache_dir(monkeypatch, tmp_path):
    """An empty library cache under `sys.pycache_prefix`; the march is built
    or loaded afresh on first use, and again after the test from the
    package's own cache."""
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    _kernels._compiled_march.cache_clear()
    cache = Path(importlib.util.cache_from_source(_kernels.__file__)).parent
    assert cache.is_relative_to(tmp_path)
    yield cache
    _kernels._compiled_march.cache_clear()


def compiled_rows(march, kappa, tau, r0, z0, sigma0, s0, step, max_rows, s_max, r_stop, f_stop):
    """`branch_march`'s (rows, status) from a compiled march: six values a
    row, (s, r, z, sigma, sin sigma, cos sigma)."""
    state = (ctypes.c_double * 4)(s0, r0, z0, sigma0)
    n = ctypes.c_longlong()
    buf = np.empty(6 * max_rows)
    status = march(kappa, tau, state, step, max_rows, s_max, r_stop, f_stop, buf.ctypes.data,
                   ctypes.byref(n))
    return buf[:6 * n.value].tolist(), status


@pytest.mark.parametrize("cc", ["false", "no-such-compiler-command", ""])
def test_failed_build_leaves_the_python_march(cache_dir, monkeypatch, cc):
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: cc if name == "CC" else config_var(name))
    assert _kernels._compiled_march() is None
    assert list(cache_dir.glob("*")) == []
    # the integrate runs that print to stdout give the pinned bytes
    pinned = [c for c in json.loads(PINNED.read_text(encoding="utf-8"))
              if c["argv"][0] == "integrate" and "--out" not in c["argv"]]
    assert pinned
    for case in pinned:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case["argv"])
        data = out.getvalue().encode("utf-8")
        assert (code, hashlib.sha256(data).hexdigest(), len(data), err.getvalue()) == \
            (case["exit"], case["sha256"], case["bytes"], ""), case["argv"]


def test_library_from_other_source_is_never_loaded(cache_dir):
    source = _kernels._SOURCE.read_bytes()
    other = source.replace(b"s = s + step;", b"s = s + 2.0 * step;")
    assert other != source
    stale = _kernels.build_march(other, cache_dir)
    if stale is None:
        pytest.skip("no C compiler could build _march.c here")
    want = _kernels.branch_march(*ARGS)
    assert compiled_rows(stale, *ARGS) != want
    march = _kernels._compiled_march()
    assert march is not None
    assert compiled_rows(march, *ARGS) == want
    # writing the library removed the other one
    libs = list(cache_dir.glob("_march.*"))
    assert len(libs) == 1
    # and a second load finds its own library, not the other
    assert compiled_rows(_kernels.build_march(source, cache_dir), *ARGS) == want
    assert list(cache_dir.glob("_march.*")) == libs


def test_argtypes_follow_the_c_prototype():
    # a signature changed on one side only must fail here, not pass garbage to C
    march = _kernels._compiled_march()
    if march is None:
        pytest.skip("no C compiler could build _march.c here")
    source = _kernels._SOURCE.read_text(encoding="ascii")
    params = re.search(r"\bint branch_march\(([^)]*)\)", source).group(1).split(",")
    assert len(march.argtypes) == len(params)
    scalars = {"double": ctypes.c_double, "long long": ctypes.c_longlong}
    for param, argtype in zip(params, march.argtypes):
        base, pointer, _ = re.fullmatch(r"\s*(double|long long)\s*(\*?)\s*(\w+)\s*", param).groups()
        want = ({ctypes.POINTER(scalars[base]), ctypes.c_void_p} if pointer
                else {scalars[base]})
        assert argtype in want, param


@pytest.mark.usefixtures("march")
def test_overflowing_integrate_fails_alike():
    # r overflows before s = pi while sigma stays near 0: math.sin raises
    # where libm's sin gives NaN, and both marches report it as usage error
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        cli.main(["integrate", "--kappa", "1", "--tau", "0.5", "--r0", "1", "--sigma0",
                  "1e-300", "--smax", "5"])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert err.getvalue().endswith("bcvgeo integrate: error: math domain error\n")
