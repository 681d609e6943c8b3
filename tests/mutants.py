"""Mutation gate: each mutant below must make its named tests fail.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants only

A mutant is a name, a file under the repository root, an exact old text
that occurs in that file exactly once, its new text, and the test files (or
node ids) that must catch it. For each mutant the script copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory, applies the
mutant there, and runs ``pytest -x`` on its tests against the copy, with a
per-mutant timeout; a failing run or a timeout kills the mutant. The script
exits 1 if a mutant survives, if an old text is not found exactly once, or
if the tests do not pass on the unmutated copy. It uses the standard
library only, and is not collected by the tier-1 suite.

To add a mutant, append a :class:`Mutant` to ``MUTANTS``, run the script
with its name, and keep the mutant only once it is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # relative to the repository root


SOLVER, SPARSE = "src/xova/solver.py", "src/xova/sparse.py"
TEST_SOLVER, TEST_SPARSE = "tests/test_solver.py", "tests/test_sparse_core.py"

MUTANTS = [
    # the weight paths of a Newton step
    Mutant("sparse_crossover_inclusive", SOLVER,
           "if sum(map(len, idx)) < _SPARSE_BELOW", "if sum(map(len, idx)) <= _SPARSE_BELOW",
           (TEST_SOLVER,)),
    Mutant("dense_crossover_exclusive", SOLVER,
           "if sum(map(len, idx)) >= _DENSE_FROM", "if sum(map(len, idx)) > _DENSE_FROM",
           (TEST_SOLVER,)),
    Mutant("sparse_output_not_zeroed", SPARSE,
           "        out.fill(0.0)\n        _sparsetools.csr_todense",
           "        _sparsetools.csr_todense",
           (TEST_SPARSE,)),
    Mutant("label_major_rows_at_active_rows_only", SOLVER,
           "label_major[j] = values(j, slice(None))",
           "label_major[j, idx[j]] = values(j, idx[j])",
           ("tests/test_acceptance.py", TEST_SOLVER)),
    Mutant("hessian_vec_reads_margins_outside_active", SOLVER,
           "    m = np.full(problem.n, np.inf)\n    m[active] = margins(problem, w)[active]\n",
           "    m = margins(problem, w)\n",
           (TEST_SOLVER,)),
    # the rest of the solver
    Mutant("stopping_references_not_counted", SOLVER,
           "if len(grad0_refs) != b:", "if False:",
           (TEST_SOLVER,)),
    Mutant("nan_columns_not_mended", SOLVER,
           "    if np.isnan(T).any():\n        for j", "    if False:\n        for j",
           (TEST_SOLVER,)),
    Mutant("hvp_subset_reads_the_wrong_weights", SOLVER,
           "XD[:, j] *= DD[:, k]", "XD[:, j] *= DD[:, j]",
           (TEST_SOLVER,)),
    Mutant("line_search_starts_at_half_a_step", SOLVER,
           "    lam = 1.0\n    for _ in range(cfg.ls_max_steps):",
           "    lam = cfg.ls_beta\n    for _ in range(cfg.ls_max_steps):",
           (TEST_SOLVER,)),
    Mutant("preconditioner_without_the_identity", SOLVER,
           "m_inv += 1.0 - cfg.precond_alpha", "m_inv += 0.0",
           (TEST_SOLVER, "tests/test_trainer.py")),
    Mutant("given_references_ignored_for_the_pass", SOLVER,
           "at_zero = [k for k, ref in enumerate(grad0_refs) if ref is None]",
           "at_zero = list(range(b))",
           (TEST_SOLVER,)),
    Mutant("gradient_coefficients_scaled_down", SOLVER,
           "    return c * losses.dphi(loss, m[idx]) * signs[idx]",
           "    return 0.9 * c * losses.dphi(loss, m[idx]) * signs[idx]",
           ("tests/test_oracle.py",)),
    # initializers
    Mutant("aop_orthogonal_branch_uses_t", "src/xova/initializers.py",
           "u = s / aa", "u = t / aa",
           ("tests/test_initializers.py",)),
    Mutant("aop_t_default_of_the_other_loss", "src/xova/initializers.py",
           "AOP_DEFAULT_T[loss] if self.aop_t is None",
           "AOP_DEFAULT_T[next(x for x in MarginLoss if x is not loss)] if self.aop_t is None",
           ("tests/test_initializers.py",)),
    Mutant("aop_positive_share_off_by_one", "src/xova/initializers.py",
           "alpha = p_count / pre.n", "alpha = p_count / (pre.n + 1)",
           ("tests/test_initializers.py", "tests/test_acceptance.py")),
    # trainer
    Mutant("clip_keeps_only_weights_above_the_threshold", "src/xova/trainer.py",
           "np.abs(w) >= cfg.clip_threshold", "np.abs(w) > cfg.clip_threshold",
           ("tests/test_trainer.py",)),
    Mutant("no_pass_over_x_when_the_means_overflow", "src/xova/trainer.py",
           "refs.append(ref if np.isfinite(ref) else None)", "refs.append(ref)",
           ("tests/test_trainer.py",)),
    # data I/O and the sparse checks
    Mutant("non_finite_values_accepted", "src/xova/dataio.py",
           "    if not finite.all():\n        pos = int(np.argmin(finite))",
           "    if False:\n        pos = int(np.argmin(finite))",
           ("tests/test_dataio.py",)),
    Mutant("content_after_the_last_instance_accepted", "src/xova/dataio.py",
           'if "".join(extra).strip() or fh.read().strip():', "if False:",
           ("tests/test_dataio.py",)),
    Mutant("global_mean_over_one_row_too_many", "src/xova/dataio.py",
           "xbar = X.rmatvec(np.ones(n)) / n", "xbar = X.rmatvec(np.ones(n)) / (n + 1)",
           ("tests/test_dataio.py", "tests/test_initializers.py")),
    Mutant("last_column_index_accepted", SPARSE,
           "and indices.max() < n_cols)", "and indices.max() <= n_cols)",
           (TEST_SPARSE,)),
    # scoring
    Mutant("top_k_ties_to_the_higher_column", "src/xova/trainer.py",
           "chosen[over] &= ~ties | (np.cumsum(ties, axis=1) <= need)",
           "chosen[over] &= ~ties | (np.cumsum(ties[:, ::-1], axis=1)[:, ::-1] <= need)",
           ("tests/test_metrics.py", "tests/test_trainer.py")),
    Mutant("binary_positive_at_zero_score", "src/xova/metrics.py",
           "pred = block > 0.0", "pred = block >= 0.0",
           ("tests/test_metrics.py",)),
    Mutant("labels_with_only_predicted_positives_not_counted", "src/xova/metrics.py",
           "counted = (tp + fn > 0) | (tp + fp > 0)", "counted = tp + fn > 0",
           ("tests/test_metrics.py",)),
]


def copy_tree(dest: str) -> None:
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part),
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def environ(work: str) -> dict[str, str]:
    """The environment in which ``import xova`` finds the copy ``work``, ahead
    of an installed package."""
    return dict(os.environ, PYTHONPATH=os.path.join(work, "src"), PYTHONDONTWRITEBYTECODE="1")


def run_tests(work: str, tests: tuple[str, ...]) -> str:
    """``passed``, ``failed`` or ``timeout`` for the tests in the copy
    ``work``; any other pytest outcome (no tests, a usage error) raises."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=work, env=environ(work), capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode in (0, 1, 2):  # 2: interrupted, as by an import error at collection
        return "passed" if done.returncode == 0 else "failed"
    raise RuntimeError(f"pytest exited {done.returncode} on {tests}:\n{done.stdout}{done.stderr}")


def read(root: str, mutant: Mutant) -> str:
    with open(os.path.join(root, mutant.file), encoding="utf-8") as fh:
        return fh.read()


def apply(work: str, mutant: Mutant) -> None:
    """Replace ``mutant``'s old text by its new text in the copy ``work``."""
    text = read(work, mutant).replace(mutant.old, mutant.new)
    with open(os.path.join(work, mutant.file), "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    if unknown := set(argv) - {m.name for m in MUTANTS}:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    errors = [f"{m.name}: old text found {count} times in {m.file}"
              for m in chosen if (count := read(ROOT, m).count(m.old)) != 1]
    if errors:
        print("\n".join(errors))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        clean = os.path.join(tmp, "clean")
        copy_tree(clean)
        where = subprocess.run([sys.executable, "-c", "import xova; print(xova.__file__)"],
                               cwd=clean, env=environ(clean), capture_output=True, text=True)
        if not where.stdout.startswith(clean):
            print(f"xova is not imported from the copy: {where.stdout}{where.stderr}")
            return 1
        tests = tuple(sorted({t for m in chosen for t in m.tests}))
        if run_tests(clean, tests) != "passed":
            print(f"the tests fail without a mutant: {' '.join(tests)}")
            return 1
        survivors = []
        for mutant in chosen:
            work = os.path.join(tmp, mutant.name)
            copy_tree(work)
            apply(work, mutant)
            start = time.perf_counter()
            outcome = run_tests(work, mutant.tests)
            print(f"{mutant.name}: {'survived' if outcome == 'passed' else 'killed'}"
                  f" ({outcome}, {time.perf_counter() - start:.1f} s)", flush=True)
            if outcome == "passed":
                survivors.append(mutant.name)
            shutil.rmtree(work)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
