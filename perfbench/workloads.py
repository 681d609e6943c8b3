"""The benchmark's workloads and the seeded generators of their input files.

Run as a script to write the train and test files of the workload that
``DIR/workload.json`` describes::

    python3 perfbench/workloads.py --work DIR --seed 1

The package under test never sees the generators, only the files they
write; the benchmark runs this script in a child process so that the
generator's memory is not part of the measured process.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass

import bootstrap  # first: pins the thread pools before numpy loads

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # "topic" or "tail"
    n: int  # rows before the train/test split
    d: int
    l: int
    test_frac: float = 0.2
    tail: float = 1.2  # tail exponent of the "tail" generator


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("topic", "topic", 2500, 2500, 200, test_frac=0.4),
        Workload("tail", "tail", 10000, 2000, 200),
    )
}


# The topic recipe (ROADMAP item 1), tuned so that the labels overlap.
LABEL_ZIPF = 1.1
EXTRA_LABELS_MEAN = 2.0  # a row has 1 + Poisson(2) labels
BACKGROUND_DRAWS = 60
TOPIC_SIZE = 40
TOPIC_DRAWS = 15
TOPIC_NOISE = 0.7


def topic_arrays(seed: int, n: int, d: int, l: int):
    """Topic-model rows shaped like EURLex-4K: CSR arrays plus label lists.

    Label frequencies follow a Zipf law and each row carries
    ``1 + Poisson(EXTRA_LABELS_MEAN)`` distinct labels. A row draws
    ``BACKGROUND_DRAWS`` words Zipf(1) over all ``d`` features, plus
    ``TOPIC_DRAWS`` words for each of its labels from a ``TOPIC_SIZE``-word
    topic. Topics are drawn from one pool of mid-frequency words, so they
    overlap, and a share ``TOPIC_NOISE`` of each label's draws come from a
    random other label's topic, so that no label is separable by its own
    words alone. Values are ``log(1 + tf) * idf``, rows are L2-normalised.
    """
    rng = np.random.default_rng(seed)
    label_p = np.arange(1, l + 1, dtype=np.float64) ** -LABEL_ZIPF
    label_p /= label_p.sum()
    feat_p = 1.0 / np.arange(1, d + 1, dtype=np.float64)
    feat_p /= feat_p.sum()
    feat_perm = rng.permutation(d)
    pool = feat_perm[d // 50 : d // 3]
    topics = np.stack([rng.choice(pool, size=TOPIC_SIZE, replace=False) for _ in range(l)])

    n_labels = np.minimum(1 + rng.poisson(EXTRA_LABELS_MEAN, size=n), l)
    labels = [np.sort(rng.choice(l, size=int(k), replace=False, p=label_p)) for k in n_labels]
    background = feat_perm[rng.choice(d, size=(n, BACKGROUND_DRAWS), p=feat_p)]

    rows = []
    for i, lbls in enumerate(labels):
        src = np.repeat(lbls, TOPIC_DRAWS)
        noisy = rng.random(src.size) < TOPIC_NOISE
        src[noisy] = rng.integers(l, size=int(noisy.sum()))
        words = topics[src, rng.integers(TOPIC_SIZE, size=src.size)]
        rows.append(np.unique(np.concatenate([background[i], words]), return_counts=True))

    df = np.zeros(d, dtype=np.int64)
    for idx, _ in rows:
        df[idx] += 1
    idf = np.log((1.0 + n) / (1.0 + df))
    # A word in every row has idf 0; drop it rather than store explicit zeros.
    rows = [(idx[idf[idx] > 0], tf[idf[idx] > 0]) for idx, tf in rows]

    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([idx.size for idx, _ in rows])
    indices = np.concatenate([idx for idx, _ in rows]).astype(np.int64)
    data = np.concatenate([np.log1p(tf) * idf[idx] for idx, tf in rows])
    sq = np.zeros(n)
    np.add.at(sq, np.repeat(np.arange(n), np.diff(indptr)), data * data)
    data /= np.repeat(np.sqrt(sq), np.diff(indptr))
    return indptr, indices, data, labels


def make_dataset(xova, w: Workload, seed: int):
    """The workload's whole dataset, before the train/test split."""
    if w.data == "tail":
        return xova.generate_synthetic(w.n, w.d, w.l, w.tail, seed)
    indptr, indices, data, labels = topic_arrays(seed, w.n, w.d, w.l)
    features = xova.SparseMatrix(indptr, indices, data, w.d)
    return xova.Dataset(features=features, labels=labels, n_labels=w.l)


def write_files(xova, w: Workload, seed: int, out_dir: str) -> tuple[str, str]:
    """Write ``train.txt`` and ``test.txt`` for one workload and seed."""
    train, test = xova.split_dataset(make_dataset(xova, w, seed), w.test_frac, seed)
    paths = os.path.join(out_dir, "train.txt"), os.path.join(out_dir, "test.txt")
    xova.write_xmc_dataset(train, paths[0])
    xova.write_xmc_dataset(test, paths[1])
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True, help="directory holding workload.json")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.work, "workload.json"), encoding="utf-8") as fh:
        w = Workload(**json.load(fh))
    write_files(bootstrap.import_xova(), w, args.seed, args.work)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
