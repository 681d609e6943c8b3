"""What the traced run wraps, and the per-layer metrics derived from its spans.

Every time below is summed over one round of the workload (set-up, the
four ``train_ova`` calls, model I/O, ``xova predict`` and ``evaluate``),
and over worker threads where ``train_ova`` runs several. The metrics in
the training block carry the init they were measured under as a suffix.
README.md maps each metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import math
from collections import defaultdict

from tracing import self_times

INITS = ("zero", "bias", "ovap", "aop")

# float64 value plus int64 index per stored nonzero
BYTES_PER_NNZ = 16

# Terminations counted as failed labels.
FAILED_TERMINATIONS = ("numerical_failure", "line_search_failed", "max_outer")


def _nnz(args, result):
    return {"nnz": args[0].nnz}


def _copied_nnz(args, result):
    return {"nnz": 0 if result is args[0] else result.nnz}


def _cg(args, result):
    return {"iters": result[1]}


def _newton(args, result):
    trace = result[1]
    return {
        "outer": trace.outer_iters,
        "hvp": trace.hvp_touches,
        "active_sum": sum(r.active_fraction for r in trace.rows),
    }


def _line_search(args, result):
    lam, accepted = result
    cfg = args[3]
    if not accepted:
        return {"trials": cfg.ls_max_steps}
    return {"trials": round(math.log(lam) / math.log(cfg.ls_beta)) + 1}


def _tokens(args, result):
    return {"tokens": result.features.nnz + sum(int(lbls.size) for lbls in result.labels)}


def _init(args, result):
    return {"init": args[2].init.kind}


def targets(xova):
    """``(owner, attribute, span name, options)`` for every wrapped call.

    Each function is replaced where its caller looks it up: the trainer
    reaches the initializers through its own module globals, the solver
    reaches the kernels through ``xova.solver``/``xova.losses``, and the
    CLI through its own imports.
    """
    from xova import cli, dataio, losses, metrics, solver, trainer
    from xova.sparse import SparseMatrix

    t = [
        (SparseMatrix, "matvec", "sparse.matvec", {"attrs": _nnz}),
        (SparseMatrix, "rmatvec", "sparse.rmatvec", {"attrs": _nnz}),
        (SparseMatrix, "rmatvec_squared", "sparse.rmatvec_squared", {"attrs": _nnz}),
        (SparseMatrix, "submatrix", "sparse.submatrix", {"attrs": _copied_nnz}),
        (solver, "gradient", "solver.gradient", {}),
        (solver, "newton_cg", "solver.newton_cg", {"attrs": _newton}),
        (solver, "cg_solve", "solver.cg_solve", {"attrs": _cg}),
        (solver, "backtracking_search", "solver.line_search", {"attrs": _line_search}),
        (trainer, "ovap_solve", "initializers.ovap_solve", {}),
        (trainer, "aop_init", "initializers.aop_init", {}),
        (trainer, "train_ova", "trainer.train_ova", {"root": True, "attrs": _init}),
        (trainer, "save_model", "trainer.save_model", {}),
        (trainer, "load_model", "trainer.load_model", {}),
        (cli, "load_model", "trainer.load_model", {}),
        (cli, "predict_topk", "trainer.predict_topk", {}),
        (cli, "main", "cli.main", {"root": True}),
        (dataio, "load_xmc_dataset", "dataio.load_xmc_dataset", {"attrs": _tokens}),
        (cli, "load_xmc_dataset", "dataio.load_xmc_dataset", {"attrs": _tokens}),
        (dataio, "augment_bias", "dataio.augment_bias", {}),
        (cli, "augment_bias", "dataio.augment_bias", {}),
        (dataio, "compute_label_stats", "dataio.compute_label_stats", {}),
        (metrics, "evaluate", "metrics.evaluate", {"root": True}),
        (metrics, "precision_at_k", "metrics.precision_at_k", {}),
        (metrics, "macro_binary_pr", "metrics.macro_binary_pr", {}),
    ]
    t += [(losses, f, f"losses.{f}", {}) for f in ("phi", "dphi", "ddphi")]
    return t


def _per_init(stem: str) -> list[str]:
    return [f"{stem}.{init}" for init in INITS]


PER_INIT_STEMS = (
    "sparse.full_pass.s",
    "sparse.full_pass.nnz",
    "sparse.hvp.s",
    "sparse.hvp.nnz",
    "sparse.submatrix.s",
    "sparse.submatrix.nnz",
    "sparse.rmatvec_squared.s",
    "losses.s",
    "solver.newton_cg.self_s",
    "solver.cg_solve.self_s",
    "solver.cg_iters",
    "solver.outer_iters",
    "solver.hvp_touches",
    "solver.active_fraction",
    "solver.line_search.s",
    "solver.line_search.trials_per_step",
    "solver.grad0_ref.s",
    "trainer.overhead.s",
)

# From the spans of one traced round.
SPAN_METRICS = [
    "dataio.load_xmc_dataset.s",
    "dataio.load_xmc_dataset.tokens",
    "dataio.augment_bias.s",
    "dataio.compute_label_stats.s",
    *[m for stem in PER_INIT_STEMS for m in _per_init(stem)],
    "sparse.bytes_computed",
    "initializers.ovap_solve.s",
    "initializers.aop_init.s",
    "trainer.save_model.s",
    "trainer.load_model.s",
    "trainer.predict_topk.s",
    "metrics.precision_at_k.s",
    "metrics.macro_binary_pr.s",
    "cli.predict.self_s",
]

# From the untraced rounds of the same run, and from the run's files.
UNTRACED_METRICS = [
    *_per_init("trainer.label_ms.p50"),
    *_per_init("trainer.label_ms.p95"),
    "trainer.parallel_efficiency",
    "trainer.model_nnz",
    "trainer.model_bytes",
    "trace.overhead_frac",
]

PER_LAYER_METRICS = SPAN_METRICS + UNTRACED_METRICS


def span_metrics(spans) -> dict[str, float]:
    """The :data:`SPAN_METRICS` of one traced round."""
    own, _ = self_times(spans)
    by_sid = {s.sid: s for s in spans}
    root_init = {
        s.trace: s.attrs["init"] for s in spans if s.name == "trainer.train_ova" and s.attrs
    }
    out = defaultdict(float)
    solves = defaultdict(int)  # per-label newton_cg calls, per init
    iters = defaultdict(float)  # outer iterations of those calls, per init
    searches = defaultdict(int)
    for s in spans:
        name, a = s.name, s.attrs or {}
        parent = by_sid.get(s.parent)
        pname = parent.name if parent else ""
        init = root_init.get(s.trace)
        if init is None:
            if name.startswith(("dataio.", "trainer.", "metrics.")) and name != "metrics.evaluate":
                out[f"{name}.s"] += s.dur
            if name == "dataio.load_xmc_dataset":
                out["dataio.load_xmc_dataset.tokens"] += a["tokens"]
            elif name == "cli.main":
                out["cli.predict.self_s"] += own[s.sid]
            continue
        if name in ("sparse.matvec", "sparse.rmatvec"):
            kind = "hvp" if pname == "solver.cg_solve" else "full_pass"
            out[f"sparse.{kind}.s.{init}"] += s.dur
            out[f"sparse.{kind}.nnz.{init}"] += a["nnz"]
            out["sparse.bytes_computed"] += a["nnz"] * BYTES_PER_NNZ
        elif name == "sparse.submatrix":
            out[f"sparse.submatrix.s.{init}"] += s.dur
            out[f"sparse.submatrix.nnz.{init}"] += a["nnz"]
            out["sparse.bytes_computed"] += a["nnz"] * BYTES_PER_NNZ
        elif name == "sparse.rmatvec_squared":
            out[f"sparse.rmatvec_squared.s.{init}"] += s.dur
            out["sparse.bytes_computed"] += a["nnz"] * BYTES_PER_NNZ
        elif name.startswith("losses."):
            out[f"losses.s.{init}"] += s.dur
        elif name == "solver.newton_cg":
            out[f"solver.newton_cg.self_s.{init}"] += own[s.sid]
            out[f"solver.hvp_touches.{init}"] += a["hvp"]
            if pname != "initializers.ovap_solve":
                solves[init] += 1
                iters[init] += a["outer"]
                out[f"solver.active_fraction.{init}"] += a["active_sum"]
        elif name == "solver.cg_solve":
            out[f"solver.cg_solve.self_s.{init}"] += own[s.sid]
            out[f"solver.cg_iters.{init}"] += a["iters"]
        elif name == "solver.line_search":
            out[f"solver.line_search.s.{init}"] += s.dur
            out[f"solver.line_search.trials_per_step.{init}"] += a["trials"]
            searches[init] += 1
        elif name == "solver.gradient" and pname == "trainer.train_ova":
            out[f"solver.grad0_ref.s.{init}"] += s.dur
        elif name == "trainer.train_ova":
            out[f"trainer.overhead.s.{init}"] += own[s.sid]
        elif name.startswith("initializers."):
            out[f"{name}.s"] += s.dur
    for init in INITS:
        out[f"solver.outer_iters.{init}"] = iters[init] / max(solves[init], 1)
        # mean active fraction over every accepted outer iteration
        out[f"solver.active_fraction.{init}"] /= max(iters[init], 1)
        out[f"solver.line_search.trials_per_step.{init}"] /= max(searches[init], 1)
    return {m: float(out[m]) for m in SPAN_METRICS}
