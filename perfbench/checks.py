"""Output checks. An operation whose output fails one of these counts as
failed, exactly like one that exits non-zero or raises."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

EXPECTED_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def expected_hashes(workload: str) -> dict[str, str]:
    """Pinned sha256 of each output of a workload at the default seed."""
    with open(EXPECTED_JSON, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def check_features(path: str, ids) -> str | None:
    """A feature CSV has a series_id header, one row per id in order, and
    the same number of finite values on every row."""
    if not os.path.exists(path):
        return f"{os.path.basename(path)} missing"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["series_id"] or len(rows[0]) < 2:
        return f"{os.path.basename(path)}: bad header"
    width = len(rows[0])
    if [r[0] if r else "" for r in rows[1:]] != list(ids):
        return f"{os.path.basename(path)}: rows do not match the input series"
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            return (f"{os.path.basename(path)}:{lineno}: {len(row)} fields, "
                    f"expected {width}")
        try:
            if not all(math.isfinite(float(v)) for v in row[1:]):
                return f"{os.path.basename(path)}:{lineno}: non-finite value"
        except ValueError:
            return f"{os.path.basename(path)}:{lineno}: non-numeric value"
    return None


def check_report(path: str, folds: int) -> str | None:
    """An evaluation report has one line per fold and ends with the mean."""
    if not os.path.exists(path):
        return f"{os.path.basename(path)} missing"
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fold_lines = [ln for ln in lines if ln.startswith("fold ")]
    if len(fold_lines) != folds:
        return (f"{os.path.basename(path)}: {len(fold_lines)} fold lines, "
                f"expected {folds}")
    if not lines or not lines[-1].startswith("mean "):
        return f"{os.path.basename(path)}: no mean line"
    return None


def same_bytes(path: str, reference: str) -> str | None:
    for p in (path, reference):
        if not os.path.exists(p):
            return f"{os.path.basename(p)} missing"
    if sha256(path) != sha256(reference):
        return (f"{os.path.basename(path)} differs from "
                f"{os.path.basename(reference)}")
    return None
