"""Regenerate the pinned outputs under tests/data and print what moved.

Run from the repository root, before rewriting the files:

    PYTHONPATH=src:tests python tests/pinned_diff.py

The outputs come from `test_suites.pinned_reports` and
`test_cli.pinned_cli_outputs`, which the regeneration commands in
`test_default_reports_are_pinned` and `test_cli_outputs_are_pinned` print;
those commands stay the only writers of the files.  Every field that
differs is printed, parsed from the JSON: a `verify` run's argv, exit code
and top-level report fields, then each suite entry's fields; a CLI output's
argv, exit code, digest and length.  Only `max_residual`, `sha256` and
`bytes` may move.  A change in any other field (argv, exit code, suite
names, pass, tolerance, samples, note) is a violation and makes the exit
status 1.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

DATA = Path(__file__).parent / "data"
MAY_MOVE = {"max_residual", "sha256", "bytes"}


def report_units(entry):
    """[(unit, fields)] of one pinned `verify` run: the run itself (argv,
    exit code, the report's top-level fields), then each suite entry by
    position."""
    run = {"argv": entry["argv"], "exit": entry["exit"]}
    try:
        report = json.loads(entry["stdout"])
    except json.JSONDecodeError:
        return [("run", {**run, "stdout": entry["stdout"]})]
    suites = report.pop("suites", [])
    return [("run", {**run, **report})] + [(f"suite {i}", s) for i, s in enumerate(suites)]


def diff_entries(want, got, units):
    """(lines, violations, fields, counts): one line per field that differs
    between paired entries, the lines whose field may not move, the names
    of the fields that differ, and per kind of unit a Counter of units seen
    ("total") and of units that differ ("moved")."""
    lines, violations, fields = [], [], set()
    counts = {"total": Counter(), "moved": Counter()}
    if len(want) != len(got):
        violations.append(f"{len(want)} entries pinned, {len(got)} regenerated")
    for w, g in zip(want, got):
        label = " ".join(map(str, w["argv"]))
        uw, ug = units(w), units(g)
        if len(uw) != len(ug):
            violations.append(f"[{label}] {len(uw)} units pinned, {len(ug)} regenerated")
        for (unit, fw), (_, fg) in zip(uw, ug):
            kind = unit.split()[0]
            counts["total"][kind] += 1
            name = fw.get("name", unit)
            keys = list(fw) + [k for k in fg if k not in fw]
            moved = [k for k in keys if fw.get(k) != fg.get(k)]
            counts["moved"][kind] += bool(moved)
            fields.update(moved)
            for k in moved:
                old, new = fw.get(k), fg.get(k)
                line = f"[{label}] {name}.{k}: {old!r} -> {new!r}"
                if isinstance(old, float) and isinstance(new, float) and old:
                    line += f" (rel {abs(new - old) / abs(old):.2e})"
                lines.append(line)
                if k not in MAY_MOVE:
                    violations.append(line)
    return lines, violations, fields, counts


def main() -> int:
    import test_cli
    import test_suites

    cases = [("verify_reports.json", test_suites.pinned_reports, report_units),
             ("cli_outputs.json", test_cli.pinned_cli_outputs, lambda e: [("output", e)])]
    status = 0
    for name, generate, units in cases:
        want = json.loads((DATA / name).read_text(encoding="utf-8"))
        got = generate()
        lines, violations, fields, counts = diff_entries(want, got, units)
        for line in lines:
            print(f"{name} {line}")
        tally = ", ".join(f"{counts['moved'][k]} of {n} {k}" for k, n in counts["total"].items())
        print(f"{name}: {tally} entries differ; fields moved: {', '.join(sorted(fields)) or 'none'}")
        for line in violations:
            print(f"{name} MUST NOT MOVE {line}", file=sys.stderr)
        status |= bool(violations)
    return status


if __name__ == "__main__":
    sys.exit(main())
