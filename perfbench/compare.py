"""Compare benchmark results: one row per workload and metric, with each
side's median and quartiles.

Usage: python3 perfbench/compare.py OLD NEW

OLD and NEW are results files written by run.py, or directories of them.
A directory pools its runs: the quartiles are taken over the runs' values,
as when ten runs of the parent are set against ten runs of a change.  With a
single file, the quartiles are taken over that run's passes.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: Path) -> dict:
    """(workload, trace) -> metric -> {"unit", "values"}."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    out = {}
    for run in runs:
        key = (run["workload"], run["trace"])
        for name, m in run["metrics"].items():
            slot = out.setdefault(key, {}).setdefault(name, {"unit": m["unit"],
                                                             "runs": [], "samples": []})
            slot["runs"].append(m["value"])
            slot["samples"].extend(m.get("samples", [m["value"]]))
    for metrics in out.values():
        for slot in metrics.values():
            slot["values"] = slot["runs"] if len(slot["runs"]) > 1 else slot["samples"]
    return out


def summary(values) -> tuple:
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def print_table(old: dict, new: dict) -> None:
    print(f"{'workload':18s} {'metric':40s} {'unit':6s} "
          f"{'old median [q1, q3]':>34s} {'new median [q1, q3]':>34s} {'change':>8s}")
    for key in sorted(set(old) | set(new)):
        workload = f"{key[0]}{' (trace)' if key[1] else ''}"
        for name in sorted(set(old.get(key, {})) | set(new.get(key, {}))):
            cells = []
            for side in (old, new):
                slot = side.get(key, {}).get(name)
                if slot is None:
                    cells.append(None)
                    continue
                cells.append(summary(slot["values"]))
            unit = (old.get(key, {}).get(name) or new[key][name])["unit"]
            text = [f"{m:.4g} [{lo:.4g}, {hi:.4g}]" if m is not None else "-"
                    for m, lo, hi in (c or (None, None, None) for c in cells)]
            change = "-"
            if cells[0] and cells[1] and cells[0][0]:
                change = f"{(cells[1][0] - cells[0][0]) / abs(cells[0][0]):+.1%}"
            print(f"{workload:18s} {name:40s} {unit:6s} {text[0]:>34s} {text[1]:>34s} "
                  f"{change:>8s}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (Path(a) for a in argv)
    for p in (old, new):
        if not p.exists():
            print(f"error: {p} does not exist", file=sys.stderr)
            return 2
    print_table(load(old), load(new))
    return 0


if __name__ == "__main__":
    sys.exit(main())
