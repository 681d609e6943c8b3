"""Evaluation: precision@k and macro-averaged binary precision/recall."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .errors import ConfigError, DimensionMismatchError
from .trainer import OvaModel, score_blocks, topk_from_scores


@dataclass
class EvalResult:
    p_at: dict[int, float]
    macro_precision: float
    macro_recall: float
    n_test: int

    def to_json_dict(self) -> dict:
        return {
            "n_test": self.n_test,
            "p_at": {str(k): v for k, v in sorted(self.p_at.items())},
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("metric,k,value\n")
            for k in sorted(self.p_at):
                fh.write(f"p_at,{k},{self.p_at[k]:.6f}\n")
            fh.write(f"macro_precision,,{self.macro_precision:.6f}\n")
            fh.write(f"macro_recall,,{self.macro_recall:.6f}\n")


def _check_compatible(model: OvaModel, test: Dataset) -> None:
    if test.dim != model.dim:
        raise DimensionMismatchError(
            f"test feature dimension {test.dim} != model dimension {model.dim}"
        )
    if test.n_labels != model.n_labels:
        raise DimensionMismatchError(
            f"test label count {test.n_labels} != model label count {model.n_labels}"
        )


def precision_at_k(model: OvaModel, test: Dataset, ks: list[int]) -> dict[int, float]:
    """Mean over test instances of ``|top-k predictions & relevant| / k``."""
    _check_compatible(model, test)
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        return {}
    if ks[0] < 1 or ks[-1] > model.n_labels:
        raise ConfigError(f"k must lie in [1, {model.n_labels}], got {ks}")
    if test.n == 0:
        return {k: 0.0 for k in ks}
    kmax = ks[-1]
    hit_sums = {k: 0.0 for k in ks}
    for lo, block in score_blocks(model, test.features):
        for r in range(block.shape[0]):
            top = topk_from_scores(block[r], kmax)
            relevant = set(int(j) for j in test.labels[lo + r])
            hits = np.cumsum([1 if int(j) in relevant else 0 for j in top])
            for k in ks:
                hit_sums[k] += hits[k - 1] / k
    return {k: hit_sums[k] / test.n for k in ks}


def macro_binary_pr(model: OvaModel, test: Dataset) -> tuple[float, float]:
    """Unweighted per-label means of binary precision and recall.

    An instance is predicted positive for a label when its score is > 0.
    Labels with neither a test positive nor a predicted positive carry no
    signal and are excluded from the averages; 0/0 ratios inside a counted
    label are taken as 0.
    """
    _check_compatible(model, test)
    l = model.n_labels
    tp = np.zeros(l, dtype=np.int64)
    fp = np.zeros(l, dtype=np.int64)
    fn = np.zeros(l, dtype=np.int64)
    for lo, block in score_blocks(model, test.features):
        pred = block > 0.0
        rel = np.zeros(pred.shape, dtype=bool)
        for r in range(pred.shape[0]):
            rel[r, test.labels[lo + r]] = True
        tp += np.sum(pred & rel, axis=0)
        fp += np.sum(pred & ~rel, axis=0)
        fn += np.sum(~pred & rel, axis=0)

    counted = (tp + fn > 0) | (tp + fp > 0)
    if not np.any(counted):
        return 0.0, 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        prec = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 0.0)
        rec = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), 0.0)
    return float(np.mean(prec[counted])), float(np.mean(rec[counted]))


def evaluate(model: OvaModel, test: Dataset, ks: list[int]) -> EvalResult:
    p_at = precision_at_k(model, test, ks)
    prec, rec = macro_binary_pr(model, test)
    return EvalResult(p_at=p_at, macro_precision=prec, macro_recall=rec, n_test=test.n)
