"""Hot numeric kernel: fixed-step marching of the rotational branch.

The candidate non-constant-curvature family of rotation surfaces is driven
by the angle form of the profile equations,

    r'     = F cos(sigma),              F = 1 + kappa r^2 / 4
    z'     = sin(sigma) sqrt(1 + tau^2 r^2)
    sigma' = sin(sigma) (kappa r / 4 - 1 / (3 r)),

solved by classical RK4 at a fixed step.  The march records the whole
state row (s, r, z, sigma), s accumulated step by step from s0, and each
RK4 stage takes its sin(sigma) once, for z' and sigma' both (the tests
compare every row with a reference loop bit for bit).
`run_branch_kernel` returns the four columns, sized to the rows marched.
The trajectory and the reduced formulas evaluated along its rows live in
`bcvgeo.rotation`.

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
sized to the row budget; each column is gathered from the buffers into a
compact array.
Where `math.sin` or `math.cos` would raise ValueError on an infinite
argument (libm returns NaN), the compiled march stops and
`run_branch_kernel` raises the same ValueError.
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
_FIRST_CHUNK_ROWS = 4096   # rows of the compiled march's first buffer; later ones double
_MATH_DOMAIN = -1          # the compiled march met an infinite sin or cos argument


def branch_march(kappa, tau, r0, z0, sigma0, s0, step, max_rows, s_max, r_stop, f_stop):
    """March the branch system, recording the state (s, r, z, sigma) of each row.

    Returns (rows, status_code), rows a flat list s_0, r_0, z_0, sigma_0,
    s_1, ...; row i sits at arclength s0 + i step, accumulated step by step.
    Stops on s >= s_max, row budget, r <= r_stop (axis), or F <= f_stop
    (domain boundary); stage values are guarded the same way so a step can
    never be committed through the singular set.  Each stage takes its sin
    once, for z' and sigma' both.  Takes Python floats (numpy scalars slow
    every operation of the loop).  `_march.c` is this loop in C; this one
    runs where that cannot be built, is the tests' reference for it, and
    takes the one-step probes of `rotation.refine_sign_change`, which no
    suite calls.
    """
    s, r, z, sig = s0, r0, z0, sigma0
    rows = []
    status = STATUS_MAX_STEPS
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    kq = 0.25 * kappa           # the products below associate left, so
    half = 0.5 * step           # hoisting these factors changes no bit
    t2 = tau * tau
    s_last = s_max - half
    for _ in range(max_rows):
        rows.extend((s, r, z, sig))
        if s >= s_last:
            status = STATUS_SMAX
            break

        # RK4 step with per-stage guards
        sin1 = sin(sig)
        k1r = (1.0 + kq * r * r) * cos(sig)
        k1z = sin1 * sqrt(1.0 + t2 * r * r)
        k1g = sin1 * (kq * r - 1.0 / (3.0 * r))

        r2_ = r + half * k1r
        g2_ = sig + half * k1g
        F2 = 1.0 + kq * r2_ * r2_
        if r2_ <= r_stop or F2 <= f_stop:
            status = STATUS_NEAR_AXIS if r2_ <= r_stop else STATUS_DOMAIN_EXIT
            break
        sin2 = sin(g2_)
        k2r = F2 * cos(g2_)
        k2z = sin2 * sqrt(1.0 + t2 * r2_ * r2_)
        k2g = sin2 * (kq * r2_ - 1.0 / (3.0 * r2_))

        r3_ = r + half * k2r
        g3_ = sig + half * k2g
        F3 = 1.0 + kq * r3_ * r3_
        if r3_ <= r_stop or F3 <= f_stop:
            status = STATUS_NEAR_AXIS if r3_ <= r_stop else STATUS_DOMAIN_EXIT
            break
        sin3 = sin(g3_)
        k3r = F3 * cos(g3_)
        k3z = sin3 * sqrt(1.0 + t2 * r3_ * r3_)
        k3g = sin3 * (kq * r3_ - 1.0 / (3.0 * r3_))

        r4_ = r + step * k3r
        g4_ = sig + step * k3g
        F4 = 1.0 + kq * r4_ * r4_
        if r4_ <= r_stop or F4 <= f_stop:
            status = STATUS_NEAR_AXIS if r4_ <= r_stop else STATUS_DOMAIN_EXIT
            break
        sin4 = sin(g4_)
        k4r = F4 * cos(g4_)
        k4z = sin4 * sqrt(1.0 + t2 * r4_ * r4_)
        k4g = sin4 * (kq * r4_ - 1.0 / (3.0 * r4_))

        r_new = r + step * (k1r + 2.0 * k2r + 2.0 * k3r + k4r) / 6.0
        if r_new <= r_stop or 1.0 + kq * r_new * r_new <= f_stop:
            status = STATUS_NEAR_AXIS if r_new <= r_stop else STATUS_DOMAIN_EXIT
            break
        z = z + step * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
        sig = sig + step * (k1g + 2.0 * k2g + 2.0 * k3g + k4g) / 6.0
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

    Marches compiled where it can (see the module docstring), in buffers of
    4,096 rows and then of twice the last size, up to the rows left in the
    budget, each resumed from the state the last one stopped at; otherwise
    with `branch_march`.  Returns (rows, status_code, s, r, z, sigma), each
    column a compact 1-D array of `rows` floats gathered from the row
    buffers.  Every argument is coerced to a Python float (max_rows to int)
    before the march.
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
        while True:
            buf = np.empty(4 * size)
            status = march(kappa, tau, state, step, size, s_max, r_stop, f_stop,
                           buf.ctypes.data, ctypes.byref(n))
            if status == _MATH_DOMAIN:
                raise ValueError("math domain error")   # as math.sin and math.cos raise
            chunks.append(buf[:4 * n.value])
            max_rows -= size
            if status != STATUS_MAX_STEPS or max_rows <= 0:
                break
            size = min(max_rows, 2 * size)
    s, r, z, sigma = (np.concatenate([c[j::4] for c in chunks]) for j in range(4))
    return len(s), status, s, r, z, sigma
