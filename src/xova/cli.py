"""Command-line interface: train, predict, eval, synth, diag-summary.

Exit codes are a stable contract: 0 success, 1 usage/configuration error,
2 data or model error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import diag
from .dataio import augment_bias, compute_label_stats, generate_synthetic, load_xmc_dataset, split_dataset, write_xmc_dataset
from .errors import (
    ConfigError,
    DimensionMismatchError,
    ModelFormatError,
    NumericalError,
    ParseError,
    XovaError,
)
from .initializers import INIT_KINDS, InitStrategy
from .losses import MarginLoss, parse_loss
from .metrics import evaluate
from .solver import SolverConfig
from .trainer import TrainConfig, load_model, predict_topk, save_model, train_ova

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="xova", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a one-vs-all model")
    defaults = TrainConfig()
    p.add_argument("--data", required=True, help="training file (text benchmark format)")
    p.add_argument("--loss", choices=[loss.token for loss in MarginLoss],
                   default=defaults.loss.token)
    p.add_argument("--init", choices=INIT_KINDS, default="aop")  # the library's default is zero
    p.add_argument("--bias-scale", type=float, default=defaults.init.bias_scale)
    p.add_argument("--ovap-stop", type=float, default=defaults.init.ovap_stop_rel)
    p.add_argument("--aop-s", type=float, default=None)
    p.add_argument("--aop-t", type=float, default=None,
                   help="default -2 for squared hinge, -3 for logistic")
    p.add_argument("--c", type=float, default=defaults.c, help="loss weight C")
    p.add_argument("--eps", type=float, default=defaults.solver.eps_outer,
                   help="outer stopping ratio")
    p.add_argument("--eps-cg", type=float, default=defaults.solver.eps_cg)
    p.add_argument("--clip", type=float, default=defaults.clip_threshold)
    p.add_argument("--threads", type=int, default=defaults.threads)
    p.add_argument("--no-augment", action="store_true",
                   help="skip the bias-feature augmentation of the input data")
    p.add_argument("--model-out", required=True)
    p.add_argument("--diag-out", default=None,
                   help="write the report JSON here and a per-label CSV next to it")

    p = sub.add_parser("predict", help="write top-k labels for each instance")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="precision@k and macro binary precision/recall")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", default="1,3,5", help="comma-separated list of k values")
    p.add_argument("--json", default=None, help="optional JSON output path")
    p.add_argument("--csv", default=None, help="optional CSV output path")

    p = sub.add_parser("synth", help="generate a seeded long-tailed synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--tail", type=float, default=1.2)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--test-out", default=None)
    p.add_argument("--test-frac", type=float, default=0.2)

    p = sub.add_parser("diag-summary", help="merge training reports into comparison CSVs")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--out", required=True,
                   help="output prefix; writes <out>.active_fraction.csv and <out>.positives_buckets.csv")
    return parser


def _load_for_model(model, path):
    """Load an evaluation/prediction dataset and match the model's augmentation."""
    ds = load_xmc_dataset(path)
    if model.bias_index is not None:
        if ds.dim != model.dim - 1:
            raise DimensionMismatchError(
                f"model expects {model.dim - 1} raw features (+bias), data has {ds.dim}"
            )
        ds = augment_bias(ds)
    elif ds.dim != model.dim:
        raise DimensionMismatchError(
            f"model dimension {model.dim} != data dimension {ds.dim}"
        )
    if ds.n_labels != model.n_labels:
        raise DimensionMismatchError(
            f"model has {model.n_labels} labels, data header says {ds.n_labels}"
        )
    return ds


def _cmd_train(args) -> int:
    loss = parse_loss(args.loss)
    init = InitStrategy(
        kind=args.init,
        bias_scale=args.bias_scale,
        ovap_stop_rel=args.ovap_stop,
        aop_s=args.aop_s,
        aop_t=args.aop_t,
    )
    cfg = TrainConfig(
        loss=loss,
        init=init,
        solver=SolverConfig(eps_outer=args.eps, eps_cg=args.eps_cg),
        c=args.c,
        clip_threshold=args.clip,
        threads=args.threads,
    )
    marks = [time.perf_counter()]
    ds = load_xmc_dataset(args.data)
    if not args.no_augment:
        ds = augment_bias(ds)
    marks.append(time.perf_counter())
    stats = compute_label_stats(ds)
    marks.append(time.perf_counter())
    model, report = train_ova(ds, stats, cfg)
    marks.append(time.perf_counter())
    save_model(model, args.model_out)
    marks.append(time.perf_counter())
    report.phases = {
        f"{phase}_ms": 1e3 * (end - start)
        for phase, start, end in zip(("parse", "stats", "train", "save"), marks, marks[1:])
    }
    elapsed = marks[3] - marks[2]
    if args.diag_out:
        report.write_json(args.diag_out)
        report.write_labels_csv(args.diag_out + ".labels.csv")
    params = cfg.resolved_init_params()
    param_str = (
        "(" + ", ".join(f"{k}={v:g}" for k, v in params.items()) + ")" if params else ""
    )
    print(
        f"trained {len(report.labels)} labels [{loss.token}, init={init.kind}{param_str}] "
        f"in {elapsed:.2f} s, mean outer iterations {report.mean_outer_iters():.2f}, "
        f"hvp touches {report.total_hvp_touches}"
    )
    if report.n_failed:
        print(f"numerical failure: {report.n_failed} labels failed; the model was written "
              "anyway (see report)", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    ds = _load_for_model(model, args.data)
    rows = predict_topk(model, ds.features, args.k)
    with open(args.out, "w", encoding="utf-8") as fh:
        for pairs in rows:
            fh.write(" ".join(f"{j}:{score:.6g}" for j, score in pairs) + "\n")
    return EXIT_OK


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError:
        raise ConfigError(f"invalid k list {text!r}; expected e.g. '1,3,5'") from None
    if not ks:
        raise ConfigError("empty k list")
    return ks


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = _load_for_model(model, args.data)
    ks = _parse_k_list(args.k)
    result = evaluate(model, ds, ks)
    for k in ks:
        print(f"P@{k} {result.p_at[k]:.4f}")
    print(f"macro-P {result.macro_precision:.4f}")
    print(f"macro-R {result.macro_recall:.4f}")
    if args.json:
        result.write_json(args.json)
    if args.csv:
        result.write_csv(args.csv)
    return EXIT_OK


def _cmd_synth(args) -> int:
    ds = generate_synthetic(args.n, args.d, args.l, args.tail, args.seed)
    if args.test_out:
        train, test = split_dataset(ds, args.test_frac, args.seed)
        write_xmc_dataset(train, args.out)
        write_xmc_dataset(test, args.test_out)
        print(f"wrote {train.n} train and {test.n} test instances")
    else:
        write_xmc_dataset(ds, args.out)
        print(f"wrote {ds.n} instances")
    return EXIT_OK


def _cmd_diag_summary(args) -> int:
    frac_path, bucket_path = diag.write_summary(args.reports, args.out)
    print(f"wrote {frac_path} and {bucket_path}")
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
    "diag-summary": _cmd_diag_summary,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ModelFormatError, DimensionMismatchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except XovaError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
