#!/usr/bin/env python3
"""Check that the traced run's exact counts repeat across runs at one seed.

Runs `run.py --trace 1` twice per workload, each in its own process, and
compares every count-valued per-layer metric (calls, rows, jets per sample
or call, unique jet fraction, bytes out, failed share of ops).  On mesh-bitension it also checks
that tangential_bitension evaluates JETS_PER_TB_CALL jets per call on the
Hopf cylinder, the figure of the program at the time the benchmark was
defined; a change that alters jet counting on purpose is expected to move it.

    python3 perfbench/check_counts.py [--seed N]

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT_UNITS = ("count", "jets/sample", "jets/call", "bytes")
JETS_PER_TB_CALL = 46.0
KIND_LINE = "jets per tangential_bitension call by op kind "


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--trace", "1"], capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    per_kind = json.loads(next(l for l in lines if l.startswith(KIND_LINE))[len(KIND_LINE):])
    exact = {k: m["value"] for k, m in result["metrics"].items()
             if m["unit"] in EXACT_UNITS or k.endswith(".unique_frac") or k == "fail_frac"}
    return exact, per_kind


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in ("verify-grid", "mesh-bitension", "branch-sweep"):
        (first, kinds), (second, _) = (traced_run(workload, args.seed) for _ in range(2))
        diff = sorted(k for k in first if first[k] != second.get(k))
        print(f"{workload}: {len(first)} exact counts, "
              f"{'identical' if not diff else 'differ: ' + ', '.join(diff)}")
        ok = ok and not diff
        if workload == "mesh-bitension":
            got = kinds.get("hopf-cylinder")
            print(f"{workload}: hopf-cylinder jets per tangential_bitension call "
                  f"{got} (expected {JETS_PER_TB_CALL})")
            ok = ok and got == JETS_PER_TB_CALL
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
