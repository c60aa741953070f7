"""Span recording around bcvgeo's public functions, and the per-layer metrics.

Spans are recorded from the benchmark's side: each traced function is
replaced, in every bcvgeo module that binds it by name, by a wrapper that
appends one span (name, start, end, parent, op id) to in-memory arrays.
Nothing is written until the run ends.  Self time is derived from the spans:
a span's duration minus the durations of its direct children (single
thread, so children never overlap).
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

from workloads import KNOWN_DEFECT_RAISER

# (module, attribute, span name).  The span name of run_suite carries the
# suite name, taken from its first argument.
TRACED = (
    ("bcvgeo.cli", "main", "cli"),
    ("bcvgeo.suites", "run_suite", "suites"),
    ("bcvgeo.immersion", "surface_jet", "immersion.surface_jet"),
    ("bcvgeo.immersion", "shape_operator", "immersion.shape_operator"),
    ("bcvgeo.immersion", "gauss_residual", "immersion.gauss_residual"),
    ("bcvgeo.immersion", "codazzi_residual", "immersion.codazzi_residual"),
    ("bcvgeo.immersion", "compatibility_residual", "immersion.compatibility_residual"),
    ("bcvgeo.biconservative", "tangential_bitension", "biconservative.tangential_bitension"),
    ("bcvgeo.ambient", "christoffels", "ambient.christoffels"),
    ("bcvgeo.ambient", "ricci", "ambient.ricci"),
    ("bcvgeo.rotation", "integrate_noncmc_branch", "rotation.integrate_noncmc_branch"),
    ("bcvgeo.rotation", "refine_sign_change", "rotation.refine_sign_change"),
    ("bcvgeo._kernels", "run_branch_kernel", "rotation.run_branch_kernel"),
)


def _bcvgeo_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "bcvgeo" or n.startswith("bcvgeo."))]


class Patches:
    """Replaces a function at every bcvgeo module that binds it; undoes it."""

    def __init__(self):
        self._undo = []

    def replace(self, original, wrapper):
        for mod in _bcvgeo_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def replace_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class Tracer:
    """In-memory span recorder plus the exact counters taken at the same
    boundaries (kernel rows, unique jet keys, exceptions by op, span name
    and class)."""

    def __init__(self):
        self.codes = {}
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.op_id = -1
        self.rows = 0
        self.jet_keys_unique = 0
        self._jet_keys = set()
        self._keepalive = []
        self._default_cfg = None
        self.errors = Counter()
        self._patches = Patches()

    def _code(self, name):
        if name not in self.codes:
            self.codes[name] = len(self.names)
            self.names.append(name)
        return self.codes[name]

    def begin_op(self, op_id):
        self.op_id = op_id
        self._jet_keys.clear()
        self._keepalive.clear()

    def install(self):
        from bcvgeo.immersion import DEFAULT_FD, ParametricSurface

        self._default_cfg = DEFAULT_FD
        for modname, attr, name in TRACED:
            fn = getattr(sys.modules[modname], attr)
            self._patches.replace(fn, self._wrap(fn, name))
        self._patches.replace_method(
            ParametricSurface, "coords",
            self._wrap(ParametricSurface.coords, "immersion.chart"))

    def restore(self):
        self._patches.restore()

    def _wrap(self, fn, name):
        code = None if name == "suites" else self._code(name)
        is_jet = name == "immersion.surface_jet"
        is_kernel = name == "rotation.run_branch_kernel"
        stack = self._stack

        def traced(*args, **kwargs):
            c = self._code("suites." + args[0]) if code is None else code
            idx = len(self.start)
            self.name.append(c)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            if is_jet:
                self._note_jet(args, kwargs)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(self.op_id, self.names[c], type(exc).__name__)] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if is_kernel:
                self.rows += result[0]
            return result

        return traced

    def _note_jet(self, args, kwargs):
        S, params, u, v = args[:4]
        cfg = args[4] if len(args) > 4 else kwargs.get("cfg", self._default_cfg)
        # ids stay unique within the op because the objects are kept alive
        key = (id(S), float(u), float(v), params, id(cfg))
        if key not in self._jet_keys:
            self._jet_keys.add(key)
            self._keepalive.append((S, cfg))
            self.jet_keys_unique += 1

    # ------------------------------------------------------------------

    def summary(self, completed_ops):
        """Per-name call counts, self and total time, plus the span-derived
        jet counts (inside tangential_bitension, inside completed ops)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        calls = Counter()
        total = Counter()
        self_s = Counter()
        tb = self.codes.get("biconservative.tangential_bitension", -2)
        jet = self.codes.get("immersion.surface_jet", -2)
        under_tb = bytearray(n)
        tb_by_op = Counter()
        jets_under_tb_by_op = Counter()
        jets_completed = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                under_tb[i] = under_tb[p] or self.name[p] == tb
            if self.name[i] == tb:
                tb_by_op[self.op[i]] += 1
            elif self.name[i] == jet:
                jets_under_tb_by_op[self.op[i]] += under_tb[i]
                jets_completed += self.op[i] in completed_ops
        for i in range(n):
            nm = self.names[self.name[i]]
            calls[nm] += 1
            total[nm] += dur[i]
            self_s[nm] += dur[i] - child[i]
        return {"calls": calls, "total": total, "self": self_s,
                "tb_by_op": tb_by_op, "jets_under_tb_by_op": jets_under_tb_by_op,
                "jets_completed": jets_completed, "spans": n}

    def write(self, path, t_origin):
        """Spans as gzipped CSV: span, parent, op, name, start_s, end_s."""
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.op[i]},"
                         f"{self.names[self.name[i]]},"
                         f"{self.start[i] - t_origin:.9f},{self.end[i] - t_origin:.9f}\n")


def layer_metrics(tracer, s, samples, bytes_out, overhead):
    """The per-layer metrics named in BENCHMARK.json, from one traced pass
    and its summary `s`."""
    calls, self_s, total = s["calls"], s["self"], s["total"]
    jets = calls["immersion.surface_jet"]
    tb_calls = calls["biconservative.tangential_bitension"]
    kernel_s = self_s["rotation.run_branch_kernel"]
    m = {
        "immersion.surface_jet.calls": (jets, "count"),
        "immersion.surface_jet.self_s": (self_s["immersion.surface_jet"], "s"),
        "immersion.surface_jet.unique_frac": (
            tracer.jet_keys_unique / jets if jets else 0.0, "ratio"),
        "immersion.jets_per_sample": (
            s["jets_completed"] / samples if samples else 0.0, "jets/sample"),
        "immersion.chart.calls": (calls["immersion.chart"], "count"),
        "immersion.shape_operator.calls": (calls["immersion.shape_operator"], "count"),
        "immersion.shape_operator.self_s": (self_s["immersion.shape_operator"], "s"),
    }
    for fn in ("gauss_residual", "codazzi_residual", "compatibility_residual"):
        m[f"immersion.{fn}.self_s"] = (self_s[f"immersion.{fn}"], "s")
    m.update({
        "biconservative.tangential_bitension.calls": (tb_calls, "count"),
        "biconservative.tangential_bitension.self_s": (
            self_s["biconservative.tangential_bitension"], "s"),
        "biconservative.tangential_bitension.jets_per_call": (
            sum(s["jets_under_tb_by_op"].values()) / tb_calls if tb_calls else 0.0,
            "jets/call"),
        "ambient.christoffels.calls": (calls["ambient.christoffels"], "count"),
        "ambient.christoffels.self_s": (self_s["ambient.christoffels"], "s"),
        "ambient.ricci.calls": (calls["ambient.ricci"], "count"),
        "rotation.run_branch_kernel.calls": (calls["rotation.run_branch_kernel"], "count"),
        "rotation.run_branch_kernel.self_s": (kernel_s, "s"),
        "rotation.rows": (tracer.rows, "count"),
        "rotation.rows_per_s": (tracer.rows / kernel_s if kernel_s else 0.0, "1/s"),
        "rotation.refine_sign_change.calls": (calls["rotation.refine_sign_change"], "count"),
        "rotation.refine_sign_change.self_s": (self_s["rotation.refine_sign_change"], "s"),
        "rotation.integrate_noncmc_branch.self_s": (
            self_s["rotation.integrate_noncmc_branch"], "s"),
        "rotation.fd_check_failures": (sum(
            n for (_, name, cls), n in tracer.errors.items()
            if (name, cls) == KNOWN_DEFECT_RAISER), "count"),
    })
    for suite in sys.modules["bcvgeo.suites"].SUITE_NAMES:
        m[f"suites.{suite}.s"] = (total[f"suites.{suite}"], "s")
    m["cli.self_s"] = (self_s["cli"], "s")
    m["cli.bytes_out"] = (bytes_out, "bytes")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return {k: (float(v) if u == "s" else v, u) for k, (v, u) in m.items()}
