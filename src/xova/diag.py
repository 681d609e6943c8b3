"""Merging training reports into comparison tables for figure reproduction.

Works on the JSON dictionaries written by ``TrainReport.write_json``, so
reports can be merged long after the training processes are gone. All
reports in one merge must come from the same dataset.
"""

from __future__ import annotations

import json

from .errors import ConfigError, is_number
from .trainer import REPORT_FORMAT, _mean, write_csv


def _reject_constant(token: str):
    raise ValueError(f"{token} is not strict JSON")


def load_report(path) -> dict:
    """The report at ``path``, with the types and ranges of the fields that
    the tables read checked: a ConfigError names the file and the field.
    Reports are strict JSON, so a NaN or Infinity token is rejected too."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh, parse_constant=_reject_constant)
        except ValueError as err:
            raise ConfigError(f"{path}: not a training report (invalid JSON: {err})") from None
    if not isinstance(report, dict) or report.get("format") != REPORT_FORMAT:
        raise ConfigError(f"{path}: not a training report (format field mismatch)")
    missing = sorted({"dataset", "init", "loss", "iterations", "labels"} - report.keys())
    if missing:
        raise ConfigError(f"{path}: not a training report (no {', '.join(missing)} field)")

    def need(ok: bool, field: str, what: str) -> None:
        if not ok:
            raise ConfigError(f"{path}: not a training report ({field} must be {what})")

    # The types of exactly the fields that the tables below read.
    dataset, iterations, labels = report["dataset"], report["iterations"], report["labels"]
    need(isinstance(dataset, dict) and isinstance(dataset.get("digest"), str),
         "dataset.digest", "a string")
    for key in ("init", "loss"):
        need(isinstance(report[key], str), key, "a string")
    fractions = iterations.get("active_fraction_mean") if isinstance(iterations, dict) else None
    need(isinstance(fractions, list) and all(is_number(v) and 0 <= v <= 1 for v in fractions),
         "iterations.active_fraction_mean", "a list of numbers in [0, 1]")
    need(isinstance(labels, list) and all(isinstance(row, dict) for row in labels),
         "labels", "a list of objects")
    # a number too large for a float, such as 1e400, reads as inf
    for i, row in enumerate(labels):
        for key, whole in (("positives", True), ("outer_iters", True), ("wall_ms", False)):
            value = row.get(key)
            need(is_number(value, whole) and 0 <= value < float("inf"), f"labels[{i}].{key}",
                 "a whole number >= 0" if whole else "a finite number >= 0")
    return report


def method_names(reports: list[dict]) -> list[str]:
    """Short unique column names: init kind, qualified by loss/index on clashes."""
    names = [r["init"] for r in reports]
    if len(set(names)) < len(names):
        names = [f"{r['init']}:{r['loss']}" for r in reports]
    seen: dict[str, int] = {}
    out = []
    for name in names:
        seen[name] = seen.get(name, 0) + 1
        out.append(name if seen[name] == 1 else f"{name}#{seen[name]}")
    return out


def check_same_dataset(reports: list[dict]) -> None:
    digests = {r["dataset"]["digest"] for r in reports}
    if len(digests) > 1:
        raise ConfigError(
            "reports come from different datasets and cannot be merged "
            f"(digests: {sorted(digests)})"
        )


def active_fraction_table(reports: list[dict]) -> tuple[list[str], list[list]]:
    """Rows of (iteration, mean active fraction per method); None for exhausted methods."""
    check_same_dataset(reports)
    names = method_names(reports)
    series = [r["iterations"]["active_fraction_mean"] for r in reports]
    depth = max((len(s) for s in series), default=0)
    rows = []
    for i in range(depth):
        rows.append([i] + [s[i] if i < len(s) else None for s in series])
    return ["iteration"] + names, rows


def positives_buckets(max_positives: int) -> list[tuple[int, int]]:
    """Half-open power-of-two buckets [1,2), [2,4), ... covering max_positives."""
    buckets = []
    lo = 1
    while lo <= max(max_positives, 1):
        buckets.append((lo, lo * 2))
        lo *= 2
    return buckets


def bucket_table(reports: list[dict]) -> tuple[list[str], list[list]]:
    """Per positives-bucket mean wall time and outer iterations, per method."""
    check_same_dataset(reports)
    names = method_names(reports)
    max_pos = max(
        (row["positives"] for r in reports for row in r["labels"]), default=0
    )
    buckets = positives_buckets(max_pos)
    has_zero = any(row["positives"] == 0 for r in reports for row in r["labels"])
    edges: list[tuple[int, int]] = ([(0, 1)] if has_zero else []) + buckets

    header = ["bucket_lo", "bucket_hi"]
    for name in names:
        header += [f"{name}:mean_wall_ms", f"{name}:mean_outer_iters", f"{name}:n_labels"]

    rows = []
    for lo, hi in edges:
        row: list = [lo, hi]
        for r in reports:
            in_bucket = [x for x in r["labels"] if lo <= x["positives"] < hi]
            if in_bucket:
                wall = _mean([x["wall_ms"] for x in in_bucket])
                iters = _mean([x["outer_iters"] for x in in_bucket])
                row += [wall, iters, len(in_bucket)]
            else:
                row += [None, None, 0]
        rows.append(row)
    return header, rows


def write_summary(report_paths: list, out_prefix: str) -> tuple[str, str]:
    """Merge reports and write ``<prefix>.active_fraction.csv`` and
    ``<prefix>.positives_buckets.csv``. Returns the two paths."""
    reports = [load_report(p) for p in report_paths]
    if not reports:
        raise ConfigError("no reports to merge")
    frac_path = f"{out_prefix}.active_fraction.csv"
    bucket_path = f"{out_prefix}.positives_buckets.csv"
    for path, (header, rows) in ((frac_path, active_fraction_table(reports)),
                                 (bucket_path, bucket_table(reports))):
        write_csv(path, header, ([f"{v:.6g}" if isinstance(v, float) else v for v in row]
                                 for row in rows))
    return frac_path, bucket_path
