"""Evaluation: precision@k and macro-averaged binary precision/recall."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, label_matrix
from .errors import ConfigError, DimensionMismatchError
from .trainer import OvaModel, block_topk, score_blocks


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
    return evaluate(model, test, ks).p_at


def macro_binary_pr(model: OvaModel, test: Dataset) -> tuple[float, float]:
    """Unweighted per-label means of binary precision and recall (see :func:`evaluate`)."""
    result = evaluate(model, test, [])
    return result.macro_precision, result.macro_recall


def evaluate(model: OvaModel, test: Dataset, ks: list[int]) -> EvalResult:
    """precision@k for each k in ``ks`` and macro binary precision/recall,
    from one scoring pass over the test set.

    Top-k ties go to the lower label. For the binary metrics an instance is
    predicted positive for a label when its score is > 0. Labels with
    neither a test positive nor a predicted positive carry no signal and
    are excluded from the averages; 0/0 ratios inside a counted label are
    taken as 0.
    """
    _check_compatible(model, test)
    ks = sorted(set(int(k) for k in ks))
    if ks and (ks[0] < 1 or ks[-1] > model.n_labels):
        raise ConfigError(f"k must lie in [1, {model.n_labels}], got {ks}")
    kmax = ks[-1] if ks else 0
    l = model.n_labels
    hits = np.zeros(kmax, dtype=np.int64)  # relevant labels at each rank, over instances
    tp = np.zeros(l, dtype=np.int64)
    fp = np.zeros(l, dtype=np.int64)
    fn = np.zeros(l, dtype=np.int64)
    relevant = label_matrix(test).to_scipy()
    for lo, block in score_blocks(model, test.features):
        rel = relevant[lo : lo + block.shape[0]].toarray() > 0.0
        if kmax:
            hits += np.take_along_axis(rel, block_topk(block, kmax), axis=1).sum(axis=0)
        pred = block > 0.0
        tp += np.sum(pred & rel, axis=0)
        fp += np.sum(pred & ~rel, axis=0)
        fn += np.sum(~pred & rel, axis=0)

    cum = np.cumsum(hits)
    p_at = {k: float(cum[k - 1] / (k * test.n)) if test.n else 0.0 for k in ks}
    counted = (tp + fn > 0) | (tp + fp > 0)
    prec = rec = 0.0
    if np.any(counted):  # a zero denominator has tp == 0, so the ratio is 0/1
        prec = float(np.mean((tp / np.maximum(tp + fp, 1))[counted]))
        rec = float(np.mean((tp / np.maximum(tp + fn, 1))[counted]))
    return EvalResult(p_at=p_at, macro_precision=prec, macro_recall=rec, n_test=test.n)
