"""Merging training reports into comparison tables for figure reproduction.

Works on the JSON dictionaries written by ``TrainReport.write_json``, so
reports can be merged long after the training processes are gone. All
reports in one merge must come from the same dataset.
"""

from __future__ import annotations

import json

from .errors import ConfigError


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except ValueError as err:
            raise ConfigError(f"{path}: not a training report (invalid JSON: {err})") from None
    if not isinstance(report, dict) or report.get("format") != "xova-report v1":
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
    need(isinstance(fractions, list) and all(_is_number(v, float) for v in fractions),
         "iterations.active_fraction_mean", "a list of numbers")
    need(isinstance(labels, list) and all(isinstance(row, dict) for row in labels),
         "labels", "a list of objects")
    for i, row in enumerate(labels):
        for key, kind in (("positives", int), ("outer_iters", float), ("wall_ms", float)):
            need(_is_number(row.get(key), kind), f"labels[{i}].{key}",
                 "an integer" if kind is int else "a number")
    return report


def _is_number(value, kind: type) -> bool:
    """An int, or also a float when ``kind`` is float; never a bool."""
    return isinstance(value, (int, kind)) and not isinstance(value, bool)


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
                wall = sum(x["wall_ms"] for x in in_bucket) / len(in_bucket)
                iters = sum(x["outer_iters"] for x in in_bucket) / len(in_bucket)
                row += [wall, iters, len(in_bucket)]
            else:
                row += [None, None, 0]
        rows.append(row)
    return header, rows


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    def fmt(v) -> str:
        if v is None:
            return ""
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_summary(report_paths: list, out_prefix: str) -> tuple[str, str]:
    """Merge reports and write ``<prefix>.active_fraction.csv`` and
    ``<prefix>.positives_buckets.csv``. Returns the two paths."""
    reports = [load_report(p) for p in report_paths]
    if not reports:
        raise ConfigError("no reports to merge")
    frac_path = f"{out_prefix}.active_fraction.csv"
    bucket_path = f"{out_prefix}.positives_buckets.csv"
    header, rows = active_fraction_table(reports)
    _write_csv(frac_path, header, rows)
    header, rows = bucket_table(reports)
    _write_csv(bucket_path, header, rows)
    return frac_path, bucket_path
