"""Hot numeric kernel: fixed-step marching of the rotational branch.

The candidate non-constant-curvature family of rotation surfaces is driven
by the angle form of the profile equations,

    r'     = F cos(sigma),              F = 1 + kappa r^2 / 4
    z'     = sin(sigma) sqrt(1 + tau^2 r^2)
    sigma' = sin(sigma) (kappa r / 4 - 1 / (3 r)),

solved by classical RK4 at a fixed step.  The march records the whole
row (s, r, z, sigma, sin sigma, cos sigma), s accumulated step by step
from s0.  Each row's sin and cos are libm's, taken once at the top of the
row before it is stored, and RK4 stage 1 reuses them.  Stages 2, 3 and 4
are one loop over their offsets (h/2, h/2, h) and weights (2, 2, 1): each
stage is guarded, takes its sin once, for z' and sigma' both, and adds
each rate to its running sum as it is made, which is the left-to-right
sum k1 + 2 k2 + 2 k3 + k4 (the tests compare every row with a reference
loop that writes the four stages out, bit for bit).  `run_branch_kernel`
returns the six columns, sized to the rows marched.  The trajectory and
the reduced formulas evaluated along its rows live in `bcvgeo.rotation`;
its residual columns take the recorded sin and cos, so no numpy pass
computes them again.

The march runs compiled where it can.  `_march.c`, next to this module, is
`branch_march` written line for line in its operation order, with the same
stage guards and status codes.  On first use in a process the source is
built with the C compiler Python was configured with (`sysconfig`'s CC)
into a shared library where this module's bytecode goes (`__pycache__/`
next to it, or that directory's mirror under `sys.pycache_prefix`).  The
library is named by the interpreter's cache tag and a hash of the source
bytes, the flags and the platform, so a library built from other source
bytes is never loaded; writing a new one removes those of the same cache
tag under other hashes.  It is written to a temporary name and moved into
place with `os.replace`, so a concurrent build never loads a partial file,
and is loaded with `ctypes`.  `sys.dont_write_bytecode` does not apply:
the library is not bytecode, and a process that could not keep it would
compile it again.  The first use in a fresh install pays one compiler run
(0.13 s with gcc 12 on a 2-core x86-64 VM) inside whatever call marches
first.  Where there is no compiler, the build fails, or the cache cannot be
written, the march stays in Python (`branch_march`), silently and in every
process; on a read-only install creating the library's temporary directory
fails before any compiler runs.  Nothing else selects between the two.

Both marches give the same rows bit for bit as long as:

  - the compiler evaluates each expression as written in double precision:
    no FMA contraction (`-ffp-contract=off`) and no fast-math, so nothing
    is reassociated or rounded differently;
  - the library calls the same libm `sin` and `cos` that `math.sin` and
    `math.cos` call: `-fno-builtin-sin -fno-builtin-cos` keep the compiler
    from folding the pairs into `sincos`, which need not round alike
    (`sqrt` is correctly rounded wherever it is computed).

The compiled march fills a row buffer in chunks that grow geometrically and
resumes each chunk from the state after the last row, so no buffer is
sized to the row budget, and the first holds no more than the rows the
horizon s_max implies, plus one; each column is gathered from the buffers
into a compact array.
Where `math.sin` or `math.cos` would raise ValueError on an infinite
argument (libm returns NaN), the compiled march stops before it stores the
row and `run_branch_kernel` raises the same ValueError.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.util
import math
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

STATUS_SMAX = 0
STATUS_MAX_STEPS = 1
STATUS_NEAR_AXIS = 2
STATUS_DOMAIN_EXIT = 3

STATUS_NAMES = {
    STATUS_SMAX: "smax_reached",
    STATUS_MAX_STEPS: "max_steps_reached",
    STATUS_NEAR_AXIS: "near_axis",
    STATUS_DOMAIN_EXIT: "domain_exit",
}

_SOURCE = Path(__file__).with_name("_march.c")
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-builtin-sin",
           "-fno-builtin-cos")
_BUILD_TIMEOUT_S = 120
_FIRST_CHUNK_ROWS = 4096   # most rows of the compiled march's first buffer; later ones double
_MATH_DOMAIN = -1          # the compiled march met an infinite sin or cos argument
_ROW_WIDTH = 6             # s, r, z, sigma, sin sigma, cos sigma


def branch_march(kappa, tau, r0, z0, sigma0, s0, step, max_rows, s_max, r_stop, f_stop):
    """March the branch system, recording (s, r, z, sigma, sin sigma, cos sigma)
    for each row.

    Returns (rows, status_code), rows a flat list s_0, r_0, z_0, sigma_0,
    sin sigma_0, cos sigma_0, s_1, ...; row i sits at arclength s0 + i step,
    accumulated step by step.  Stops on s >= s_max, row budget, r <= r_stop
    (axis), or F <= f_stop (domain boundary); stage values are guarded the
    same way so a step can never be committed through the singular set.
    Each row's sin and cos are taken at its top, before it is stored, and
    stage 1 reuses them; stages 2 to 4 are one loop, in which each takes
    its sin once, for z' and sigma' both, and adds its rates to the running
    sums, weighted 2, 2 and 1.  Takes Python floats (numpy scalars slow
    every operation of the loop).  `_march.c` is this loop in C; this one runs where that
    cannot be built and is the tests' reference for it.
    """
    s, r, z, sig = s0, r0, z0, sigma0
    rows = []
    status = STATUS_MAX_STEPS
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    kq = 0.25 * kappa           # the products below associate left, so
    half = 0.5 * step           # hoisting these factors changes no bit
    t2 = tau * tau
    s_last = s_max - half
    stages = ((half, 2.0), (half, 2.0), (step, 1.0))   # offsets and weights of stages 2 to 4
    for _ in range(max_rows):
        sin1, cos1 = sin(sig), cos(sig)
        rows.extend((s, r, z, sig, sin1, cos1))
        if s >= s_last:
            status = STATUS_SMAX
            break

        # RK4 step: stage 1 from the row's sin and cos, then stages 2 to 4,
        # each guarded before its rates are made; the running sums are
        # k1 + 2 k2 + 2 k3 + k4 from the left
        kr = (1.0 + kq * r * r) * cos1
        kz = sin1 * sqrt(1.0 + t2 * r * r)
        kg = sin1 * (kq * r - 1.0 / (3.0 * r))
        sum_r, sum_z, sum_g = kr, kz, kg
        for offset, weight in stages:
            rs = r + offset * kr
            gs = sig + offset * kg
            F = 1.0 + kq * rs * rs
            if rs <= r_stop or F <= f_stop:
                status = STATUS_NEAR_AXIS if rs <= r_stop else STATUS_DOMAIN_EXIT
                break
            sn = sin(gs)
            kr = F * cos(gs)
            kz = sn * sqrt(1.0 + t2 * rs * rs)
            kg = sn * (kq * rs - 1.0 / (3.0 * rs))
            sum_r += weight * kr
            sum_z += weight * kz
            sum_g += weight * kg
        if status != STATUS_MAX_STEPS:
            break

        r_new = r + step * sum_r / 6.0
        if r_new <= r_stop or 1.0 + kq * r_new * r_new <= f_stop:
            status = STATUS_NEAR_AXIS if r_new <= r_stop else STATUS_DOMAIN_EXIT
            break
        z = z + step * sum_z / 6.0
        sig = sig + step * sum_g / 6.0
        r = r_new
        s = s + step
    return rows, status


def build_march(source: bytes, cache_dir: Path):
    """The `branch_march` function of the library built from the C `source`,
    cached in `cache_dir`; None when the build or the load fails.

    The library is named by the interpreter's cache tag and a hash of the
    source bytes, the flags and the platform.  A cached library of that name
    is loaded as it is.  Otherwise the source is compiled with `sysconfig`'s
    CC under a temporary name and moved into place, and the libraries of
    the same cache tag under other hashes are removed.  The compiler's
    output is captured, never shown.
    """
    # the hash of hash-based .pyc files, which loads no OpenSSL as hashlib does
    key = importlib.util.source_hash(b"\0".join(
        [source, " ".join(_CFLAGS).encode(), sysconfig.get_platform().encode()]))
    tag = sys.implementation.cache_tag
    lib = cache_dir / f"_march.{tag}-{key.hex()}.so"
    try:
        if not lib.exists():
            # read only here: the configuration variables hold 0.4 MB resident
            cc = sysconfig.get_config_var("CC")
            if not cc:
                return None
            cache_dir.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache_dir) as tmp:
                c_file, built = Path(tmp, "_march.c"), Path(tmp, lib.name)
                c_file.write_bytes(source)
                subprocess.run([*shlex.split(cc), *_CFLAGS, "-o", str(built), str(c_file), "-lm"],
                               capture_output=True, check=True, timeout=_BUILD_TIMEOUT_S)
                os.replace(built, lib)
            for old in cache_dir.glob(f"_march.{tag}-*.so"):
                if old != lib:
                    with contextlib.suppress(OSError):
                        old.unlink()
        march = ctypes.CDLL(str(lib)).branch_march
    except (OSError, ValueError, subprocess.SubprocessError, AttributeError):
        return None
    march.argtypes = [ctypes.c_double, ctypes.c_double, ctypes.POINTER(ctypes.c_double),
                      ctypes.c_double, ctypes.c_longlong, ctypes.c_double, ctypes.c_double,
                      ctypes.c_double, ctypes.c_void_p, ctypes.POINTER(ctypes.c_longlong)]
    march.restype = ctypes.c_int
    return march


@functools.cache
def _compiled_march():
    """The compiled march from `_march.c`, built or loaded on first use; None
    where it cannot be, and the march stays in Python.  The library is kept
    where this module's bytecode goes: `__pycache__/` next to it, or that
    directory's mirror under `sys.pycache_prefix`."""
    try:
        source = _SOURCE.read_bytes()
        cache_dir = Path(importlib.util.cache_from_source(__file__)).parent
    except (OSError, NotImplementedError):
        return None
    return build_march(source, cache_dir)


def run_branch_kernel(kappa, tau, r0, z0, sigma0, s0, step, max_rows, s_max, r_stop, f_stop):
    """March the branch from (s0, r0, z0, sigma0) for at most max_rows rows.

    Marches compiled where it can (see the module docstring), in a first
    buffer of 4,096 rows, or of the rows that the horizon s_max implies plus
    one where those are fewer, and then in buffers of twice the last size,
    up to the rows left in the budget, each resumed from the state the last
    one stopped at; otherwise with `branch_march`.  Returns (rows,
    status_code, s, r, z, sigma, sin_sigma, cos_sigma), the row count
    first, each column a compact 1-D array of `rows` floats gathered from
    the row buffers.  The sin and cos columns are libm's `sin` and `cos` of
    the sigma column, bit for bit.  Every argument is coerced to a Python
    float (max_rows to int) before the march.
    """
    kappa, tau, r0, z0, sigma0, s0, step, s_max, r_stop, f_stop = map(
        float, (kappa, tau, r0, z0, sigma0, s0, step, s_max, r_stop, f_stop))
    max_rows = int(max_rows)
    march = _compiled_march()
    if march is None:
        rows, status = branch_march(kappa, tau, r0, z0, sigma0, s0, step, max_rows, s_max,
                                    r_stop, f_stop)
        chunks = [np.array(rows)]
    else:
        state = (ctypes.c_double * 4)(s0, r0, z0, sigma0)
        n = ctypes.c_longlong()
        chunks = []
        size = max(0, min(max_rows, _FIRST_CHUNK_ROWS))
        # a march that ends at s_max records about (s_max - s0) / step + 1
        # rows; one more spares the rounding of s, and a longer march goes on
        # in the next buffer
        horizon = (s_max - s0) / step + 2.0 if step > 0.0 else math.inf
        if 1.0 <= horizon < size:
            size = int(horizon)
        while True:
            buf = np.empty(_ROW_WIDTH * size)
            status = march(kappa, tau, state, step, size, s_max, r_stop, f_stop,
                           buf.ctypes.data, ctypes.byref(n))
            if status == _MATH_DOMAIN:
                raise ValueError("math domain error")   # as math.sin and math.cos raise
            chunks.append(buf[:_ROW_WIDTH * n.value])
            max_rows -= size
            if status != STATUS_MAX_STEPS or max_rows <= 0:
                break
            size = min(max_rows, 2 * size)
    columns = [np.concatenate([c[j::_ROW_WIDTH] for c in chunks]) for j in range(_ROW_WIDTH)]
    return len(columns[0]), status, *columns
