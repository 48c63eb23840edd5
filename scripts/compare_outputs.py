#!/usr/bin/env python3
"""Compare the summary.csv, oracle.csv, trace_*.csv and manifest.json of two sweep output directories.

    python3 scripts/compare_outputs.py DIR_A DIR_B [--rtol 1e-12] [--atol 1e-12]

Cells are compared one by one and each lands in one of three classes:

- identical: the same text;
- within tolerance: both are finite numbers, not both integers, and
  |a - b| <= atol + rtol * max(|a|, |b|);
- different: anything else, including integer cells that differ at all.

``--atol`` is for cells that sit near 0, such as a trace's distance to a
multiplier that the run has reached: there a last-digit change of the
multiplier is a relative difference of order 1.

One line per column (per controller in summary.csv) that is not entirely
identical gives the counts and the largest relative and absolute
differences. A different header or row count is a difference too, and so
are a row whose cell count differs from the header's on either side (the
first such row is named by its number) and a file present on one side only
(summary.csv and oracle.csv must be on both). ``manifest.json`` must be
the same JSON apart from its ``out_dir``, which names the directory the
sweep wrote to; each top-level key that differs is named. Exits 1 when any
cell or file differs, 0 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

FILES = ("summary.csv", "oracle.csv")


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _number(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return None


def compare_cell(a: str, b: str, rtol: float, atol: float = 0.0):
    """('identical' | 'within' | 'different', relative difference, absolute difference)."""
    if a == b:
        return "identical", 0.0, 0.0
    x, y = _number(a), _number(b)
    if x is None or y is None or (isinstance(x, int) and isinstance(y, int)):
        return "different", math.inf, math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return "different", math.inf, math.inf
    diff = abs(x - y)
    rel = diff / max(abs(x), abs(y)) if diff else 0.0
    return ("within" if diff <= atol + rtol * max(abs(x), abs(y)) else "different"), rel, diff


def compare_file(path_a, path_b, rtol: float, atol: float = 0.0) -> bool:
    """Print a report for one file pair; True when nothing differs."""
    name = os.path.basename(path_a)
    rows_a, rows_b = _read(path_a), _read(path_b)
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        print(f"{name}: headers differ")
        return False
    if len(rows_a) != len(rows_b):
        print(f"{name}: {len(rows_a) - 1} rows against {len(rows_b) - 1}")
        return False
    header = rows_a[0]
    # zip would stop at the shorter of header and row: a cell too many or too few would go unseen
    ragged = [k for k, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), 1)
              if len(row_a) != len(header) or len(row_b) != len(header)]
    if ragged:
        k = ragged[0]
        print(f"{name}: row {k} has {len(rows_a[k])} cells against {len(rows_b[k])}, header {len(header)} "
              f"({len(ragged)} such rows)")
        return False
    group_col = header.index("controller") if "controller" in header else None
    stats = {}  # (controller or "", column) -> counts
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        group = row_a[group_col] + " " if group_col is not None else ""
        for col, a, b in zip(header, row_a, row_b):
            kind, rel, diff = compare_cell(a, b, rtol, atol)
            s = stats.setdefault(
                (group, col), {"identical": 0, "within": 0, "different": 0, "max_rel": 0.0, "max_abs": 0.0}
            )
            s[kind] += 1
            s["max_rel"] = max(s["max_rel"], rel)
            s["max_abs"] = max(s["max_abs"], diff)
    cells = sum(s["identical"] + s["within"] + s["different"] for s in stats.values())
    identical = sum(s["identical"] for s in stats.values())
    print(f"{name}: {len(rows_a) - 1} rows, {cells} cells, {identical} identical")
    ok = True
    for (group, col), s in stats.items():
        if s["within"] or s["different"]:
            print(
                f"  {group}{col}: {s['identical']} identical, {s['within']} within tolerance, "
                f"{s['different']} different, max relative difference {s['max_rel']:.3g}, "
                f"max absolute difference {s['max_abs']:.3g}"
            )
            ok = ok and not s["different"]
    return ok


def compare_manifest(path_a, path_b) -> bool:
    """Print a report for two manifest.json files; True when they agree apart from ``out_dir``."""
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.pop("out_dir", None)
        docs.append(doc)
    # compared as JSON text, so that 100 and 100.0 differ as they do on disk
    differing = sorted(key for key in docs[0].keys() | docs[1].keys()
                       if json.dumps(docs[0].get(key)) != json.dumps(docs[1].get(key)))
    print("manifest.json: " + (f"differs in {', '.join(differing)}" if differing else "identical apart from out_dir"))
    return not differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--rtol", type=float, default=0.0, help="relative tolerance for float cells")
    parser.add_argument("--atol", type=float, default=0.0, help="absolute tolerance for float cells")
    args = parser.parse_args(argv)
    present = {name for d in (args.dir_a, args.dir_b) for name in os.listdir(d)}
    traces = sorted(name for name in present if name.startswith("trace_") and name.endswith(".csv"))
    manifest = ["manifest.json"] if "manifest.json" in present else []
    ok = True
    for name in [*FILES, *traces, *manifest]:
        path_a, path_b = os.path.join(args.dir_a, name), os.path.join(args.dir_b, name)
        if not (os.path.exists(path_a) and os.path.exists(path_b)):
            print(f"{name}: missing in {args.dir_a if not os.path.exists(path_a) else args.dir_b}")
            ok = False
            continue
        if name in manifest:
            ok = compare_manifest(path_a, path_b) and ok
        else:
            ok = compare_file(path_a, path_b, args.rtol, args.atol) and ok
    print("same within tolerance" if ok else "DIFFERENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
