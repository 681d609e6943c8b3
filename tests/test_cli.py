import csv
import hashlib
import json

import pytest

import xova.trainer as trainer_mod
from xova import diag
from xova.cli import main
from xova.errors import ConfigError
from xova.initializers import InitStrategy
from xova.trainer import OvaModel, TrainConfig, load_model, save_model

from conftest import make_matrix


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic train/test pair shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(
        [
            "synth",
            "--n", "300", "--d", "25", "--l", "10",
            "--tail", "1.2", "--seed", "11",
            "--out", str(root / "train.txt"),
            "--test-out", str(root / "test.txt"),
            "--test-frac", "0.2",
        ]
    )
    assert rc == 0
    return root


# Files whose 1e308 values overflow the solver's products.
HUGE_VALUES = {
    "one_huge_value": "3 2 2\n0 0:1e308 1:1.0\n1 0:1.0 1:2.0\n0,1 0:0.5\n",
    "three_huge_values": "3 3 2\n0 0:1e308 1:1.0\n1 1:1e308 2:2.0\n0,1 0:1e308\n",
}


def strict_json(path):
    """The JSON document at ``path``; NaN and the infinities are not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def train_args(root, model="model.txt", **over):
    args = {
        "--data": str(root / "train.txt"),
        "--loss": "squared-hinge",
        "--init": "aop",
        "--model-out": str(root / model),
        "--threads": "1",
    }
    args.update(over)
    out = ["train"]
    for k, v in args.items():
        if v is None:
            out.append(k)
        else:
            out.extend([k, v])
    return out


class TestSynth:
    def test_deterministic_files(self, tmp_path):
        for name in ("a.txt", "b.txt"):
            rc = main(
                ["synth", "--n", "50", "--d", "10", "--l", "4", "--tail", "1.0",
                 "--seed", "3", "--out", str(tmp_path / name)]
            )
            assert rc == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_header_and_split_size(self, workdir):
        train = (workdir / "train.txt").read_text().splitlines()
        test = (workdir / "test.txt").read_text().splitlines()
        assert train[0] == "240 25 10"
        assert test[0] == "60 25 10"

    def test_invalid_sizes_exit_1(self, tmp_path):
        rc = main(["synth", "--n", "0", "--d", "5", "--l", "2", "--seed", "1",
                   "--out", str(tmp_path / "x.txt")])
        assert rc == 1


class TestTrain:
    def test_train_writes_model_and_report(self, workdir, capsys):
        rc = main(train_args(workdir) + ["--diag-out", str(workdir / "report.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trained 10 labels" in out
        header = (workdir / "model.txt").read_bytes().split(b"\n", 1)[0].decode().split()
        del header[4]  # the nonzero count
        assert header == "xova v2 10 26 25 squared-hinge aop".split()
        report = json.loads((workdir / "report.json").read_text())
        assert list(report) == [
            "format", "dataset", "loss", "init", "init_params", "solver", "c",
            "clip_threshold", "threads", "config_digest", "totals", "phases", "iterations",
            "labels",
        ]
        assert list(report["phases"]) == ["parse_ms", "stats_ms", "train_ms", "save_ms"]
        assert all(ms >= 0 for ms in report["phases"].values())
        assert report["phases"]["train_ms"] >= report["totals"]["wall_ms"]
        assert list(report["dataset"]) == ["n", "dim", "n_labels", "digest"]
        assert list(report["totals"]) == [
            "wall_ms", "hvp_touches", "labels_trained", "failed", "init_wall_ms", "init_hvp_touches",
            "init_failure",
        ]
        assert report["totals"]["init_failure"] is None
        assert list(report["iterations"]) == ["active_fraction_mean", "step_size_mean", "count"]
        assert list(report["labels"][0]) == [
            "label", "positives", "outer_iters", "hvp_touches", "wall_ms", "final_loss",
            "termination", "cpu_ms", "first_step_size", "failure",
        ]
        assert all(label["failure"] is None for label in report["labels"])
        assert report["init_params"] == {"s": 1.0, "t": -2.0}
        # the solver's fixed constants are not settings
        assert list(report["solver"]) == ["eps_outer", "eps_cg", "max_cg"]
        # the run's flags are all at their defaults but --init aop
        assert report["config_digest"] == TrainConfig(init=InitStrategy("aop")).digest()
        labels_csv = (workdir / "report.json.labels.csv").read_text().splitlines()
        assert labels_csv[0] == (
            "label,positives,outer_iters,hvp_touches,wall_ms,final_loss,termination,cpu_ms,"
            "first_step_size,failure"
        )
        assert all(line.endswith(",") for line in labels_csv[1:])
        assert len(labels_csv) == 11

    def test_no_options_is_the_library_default_with_aop(self, workdir):
        # every default but --init comes from the config classes
        report = workdir / "bare.json"
        rc = main(["train", "--data", str(workdir / "train.txt"),
                   "--model-out", str(workdir / "bare.model"), "--diag-out", str(report)])
        assert rc == 0
        digest = json.loads(report.read_text())["config_digest"]
        assert digest == TrainConfig(init=InitStrategy("aop")).digest()

    def test_logistic_default_t_is_minus_three(self, workdir):
        rc = main(
            train_args(workdir, model="log.model")
            + ["--loss", "logistic", "--diag-out", str(workdir / "log.json")]
        )
        assert rc == 0
        report = json.loads((workdir / "log.json").read_text())
        assert report["init_params"]["t"] == -3.0

    def test_explicit_aop_t_respected(self, workdir):
        rc = main(
            train_args(workdir, model="t5.model")
            + ["--loss", "logistic", "--aop-t", "-5", "--diag-out", str(workdir / "t5.json")]
        )
        assert rc == 0
        assert json.loads((workdir / "t5.json").read_text())["init_params"]["t"] == -5.0

    def test_aop_targets_s_not_above_t_warn_once(self, workdir, recwarn):
        rc = main(train_args(workdir, model="st.model") + ["--aop-s", "-3", "--aop-t", "1"])
        assert rc == 0
        assert sum("margin targets" in str(w.message) for w in recwarn) == 1

    def test_bias_init_without_augmentation_exit_1(self, workdir, capsys):
        rc = main(train_args(workdir, model="x.model") + ["--init", "bias", "--no-augment"])
        assert rc == 1
        assert "bias" in capsys.readouterr().err

    def test_reproducible_across_threads(self, workdir, monkeypatch):
        # blocks of 3 labels: 10 labels make four blocks for four workers on any host
        monkeypatch.setattr(trainer_mod, "_BLOCK_LABELS", 3)
        monkeypatch.setattr(trainer_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        rc1 = main(train_args(workdir, model="m1.model", **{"--threads": "1"}))
        rc2 = main(train_args(workdir, model="m2.model", **{"--threads": "4"}))
        assert rc1 == rc2 == 0
        assert (workdir / "m1.model").read_bytes() == (workdir / "m2.model").read_bytes()

    def test_missing_data_exit_2(self, workdir):
        rc = main(train_args(workdir, **{"--data": str(workdir / "nope.txt")}))
        assert rc == 2

    def test_empty_data_file_exit_2(self, tmp_path, capsys):
        data = tmp_path / "empty.txt"
        data.write_text("")
        rc = main(["train", "--data", str(data), "--model-out", str(tmp_path / "m.model")])
        assert rc == 2
        assert "line 1: empty file" in capsys.readouterr().err

    @pytest.mark.parametrize("init, message", [
        ("zero", "dimension must be >= 1"),
        ("bias", "bias initialization needs a bias-augmented dataset"),
        ("ovap", "dimension must be >= 1"),
        ("aop", "zero-dimensional feature space"),
    ])
    def test_zero_dimensional_data_exit_1(self, tmp_path, capsys, init, message):
        data = tmp_path / "d0.txt"
        data.write_text("3 0 1\n0\n0\n0\n")
        rc = main(["train", "--data", str(data), "--no-augment", "--init", init,
                   "--model-out", str(tmp_path / "m.model")])
        assert rc == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(HUGE_VALUES))
    @pytest.mark.parametrize("init", ["zero", "bias", "ovap", "aop"])
    def test_numerical_failure_exit_3_after_writing_model(self, tmp_path, capsys, init, name):
        text = HUGE_VALUES[name]
        d = int(text.split()[1])
        data = tmp_path / "huge.txt"
        data.write_text(text)
        model = tmp_path / "huge.model"
        rc = main(["train", "--data", str(data), "--init", init, "--model-out", str(model),
                   "--diag-out", str(tmp_path / "huge.json")])
        assert rc == 3
        assert "trained 2 labels" in capsys.readouterr().out
        loaded = load_model(model)
        assert (loaded.n_labels, loaded.dim, loaded.bias_index) == (2, d + 1, d)
        report = json.loads((tmp_path / "huge.json").read_text())
        # From -1 at the bias, label 1's positives start at margin -1, inside
        # the margin, and its stopping reference |grad(0)| overflows to inf: a
        # numerical failure, as in every other case.
        assert report["totals"]["failed"] == 2

    def test_failure_at_the_start_writes_strict_json(self, tmp_path):
        # the aop start of the one label is not finite, so it has no finite loss
        data = tmp_path / "huge.txt"
        data.write_text("3 2 1\n0 0:1e308 1:1.0\n 0:1e308 1:2.0\n 1:1.0\n")
        rc = main(["train", "--data", str(data), "--model-out", str(tmp_path / "m.model"),
                   "--diag-out", str(tmp_path / "huge.json")])
        assert rc == 3
        report = strict_json(tmp_path / "huge.json")
        [label] = report["labels"]
        assert label["termination"] == "numerical_failure"
        assert label["final_loss"] is None
        csv_row = (tmp_path / "huge.json.labels.csv").read_text().splitlines()[1]
        assert ",nan,numerical_failure," in csv_row

    @pytest.mark.parametrize("init", ["zero", "bias", "ovap", "aop"])
    def test_failed_labels_say_why(self, tmp_path, capsys, init):
        # zero, bias and ovap fail on the first gradient, aop at its start;
        # ovap's shared solve fails too
        data = tmp_path / "huge.txt"
        data.write_text("3 2 1\n0 0:1e308 1:1.0\n 0:1e308 1:2.0\n 1:1.0\n")
        out = tmp_path / "huge.json"
        rc = main(["train", "--data", str(data), "--init", init,
                   "--model-out", str(tmp_path / "m.model"), "--diag-out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: 1 labels failed") and err.count("\n") == 1
        report = strict_json(out)
        want = ("non-finite objective at the initial point" if init == "aop"
                else "non-finite gradient")
        assert [label["failure"] for label in report["labels"]] == [want]
        assert report["totals"]["init_failure"] == (want if init == "ovap" else None)
        with open(str(out) + ".labels.csv", newline="") as fh:
            [row] = list(csv.DictReader(fh))
        assert row["termination"] == "numerical_failure"
        assert row["failure"] == want

    @pytest.mark.parametrize("init", ["zero", "bias", "ovap", "aop"])
    def test_an_overflowing_stopping_reference_exit_3(self, tmp_path, capsys, init):
        # The unlabeled rows' 1e308 values overflow |grad(0)| of the one label.
        # From the bias start those rows sit outside the margin and the
        # gradient is finite, so only the reference stops bias; the others
        # meet the overflow in the gradient itself.
        data = tmp_path / "ref.txt"
        data.write_text("6 2 1\n" + " 0:1e308 1:1\n" * 4 + "0 1:2\n" * 2)
        out = tmp_path / "ref.json"
        rc = main(["train", "--data", str(data), "--init", init,
                   "--model-out", str(tmp_path / "m.model"), "--diag-out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: 1 labels failed")
        assert err.count("\n") == 1
        [label] = strict_json(out)["labels"]
        assert label["termination"] == "numerical_failure"
        assert label["failure"] == ("non-finite stopping reference" if init == "bias"
                                    else "non-finite gradient")

    def test_a_finite_gradient_beyond_1e154_is_not_a_gradient_failure(self, tmp_path):
        # |grad(0)| = 2e160 is finite, though its entry's square overflows.
        # The curvature 2e320 is not: the preconditioner's diagonal is
        # infinite, so the preconditioned gradient is 0 and CG fails at its
        # set-up, before a step: the start is kept.
        data = tmp_path / "big.txt"
        data.write_text("2 1 1\n0 0:1e160\n 0:1\n")
        out = tmp_path / "big.json"
        rc = main(["train", "--data", str(data), "--init", "zero",
                   "--model-out", str(tmp_path / "m.model"), "--diag-out", str(out)])
        assert rc == 3
        [label] = json.loads(out.read_text())["labels"]
        assert label["failure"] == (
            "zero preconditioned gradient in CG: the Hessian diagonal is too large"
        )
        assert (label["outer_iters"], label["final_loss"]) == (0, 2.0)

    def test_non_finite_data_exit_2(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_text("2 2 2\n0 0:1.0 1:1.0\n1 0:nan\n")
        rc = main(["train", "--data", str(data), "--model-out", str(tmp_path / "m.model")])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err
        assert not (tmp_path / "m.model").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--clip", "nan"), ("--eps", "nan"), ("--eps-cg", "nan"), ("--c", "nan"),
         ("--aop-s", "nan"), ("--aop-t", "inf")],
    )
    def test_non_finite_config_exit_1(self, workdir, tmp_path, capsys, flag, value):
        model = tmp_path / "m.model"
        rc = main(train_args(workdir, **{"--model-out": str(model), flag: value}))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not model.exists()

    def test_huge_row_count_exit_2(self, tmp_path, capsys):
        data = tmp_path / "big.txt"
        data.write_text("1000000000000000 2 2\n0 0:1.0\n")
        rc = main(["train", "--data", str(data), "--model-out", str(tmp_path / "m.model")])
        assert rc == 2
        assert "line 3: expected 1000000000000000 instance lines" in capsys.readouterr().err

    def test_usage_error_exit_1(self):
        assert main(["train", "--loss", "squared-hinge"]) == 1
        assert main(["train", "--data", "x", "--model-out", "y", "--loss", "bogus"]) == 1

    def test_train_takes_no_seed(self, workdir, tmp_path, capsys):
        # training is deterministic, so there is no seed to set
        model = tmp_path / "m.model"
        rc = main(train_args(workdir, **{"--model-out": str(model), "--seed": "3"}))
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not model.exists()


@pytest.fixture(scope="module")
def trained(workdir):
    model = workdir / "pe.model"
    rc = main(train_args(workdir, model="pe.model"))
    assert rc == 0
    return model


class TestPredictEval:

    def test_predict_lines(self, workdir, trained):
        out = workdir / "pred.txt"
        rc = main(["predict", "--model", str(trained), "--data", str(workdir / "test.txt"),
                   "--k", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 60
        first = lines[0].split()
        assert len(first) == 3
        scores = [float(tok.split(":")[1]) for tok in first]
        assert scores == sorted(scores, reverse=True)

    def test_predict_empty_file(self, workdir, trained, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("0 25 10\n")
        out = tmp_path / "pred.txt"
        rc = main(["predict", "--model", str(trained), "--data", str(empty),
                   "--k", "1", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == ""

    def test_predict_dim_mismatch_exit_2(self, workdir, trained, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 7 10\n 0:1.0\n")
        rc = main(["predict", "--model", str(trained), "--data", str(bad),
                   "--k", "1", "--out", str(tmp_path / "p.txt")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("bias, header, message", [
        (True, "1 24 10", "model expects 25 raw features (+bias), data has 24"),
        (False, "1 24 10", "data dimension 24 != model dimension 25"),
        (True, "1 25 9", "model has 10 labels, data header says 9"),
    ], ids=["bias_dimension", "dimension", "label_count"])
    def test_data_that_does_not_fit_the_model_exit_2(self, tmp_path, capsys, command, bias,
                                                     header, message):
        # a model of 10 labels over 25 raw features, with or without the bias column
        model = tmp_path / "m.model"
        weights = make_matrix([{}] * 10, 25 + bias)
        save_model(OvaModel(weights, 25 if bias else None, "squared-hinge", "zero"), model)
        data = tmp_path / "d.txt"
        data.write_text(header + "\n 0:1.0\n")
        out = ["--out", str(tmp_path / "p.txt")] if command == "predict" else []
        rc = main([command, "--model", str(model), "--data", str(data), "--k", "1", *out])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("k, message", [
        ("1,x", "invalid k list '1,x'; expected e.g. '1,3,5'"),
        (",", "empty k list"),
    ], ids=["not_a_number", "empty"])
    def test_bad_k_list_exit_1(self, workdir, trained, capsys, k, message):
        rc = main(["eval", "--model", str(trained), "--data", str(workdir / "test.txt"),
                   "--k", k])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_eval_prints_and_json(self, workdir, trained, capsys, tmp_path):
        jpath = tmp_path / "eval.json"
        rc = main(["eval", "--model", str(trained), "--data", str(workdir / "test.txt"),
                   "--k", "1,3,5", "--json", str(jpath)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P@1 " in out and "P@3 " in out and "P@5 " in out
        assert "macro-P" in out and "macro-R" in out
        data = json.loads(jpath.read_text())
        assert {"n_test", "p_at", "macro_precision", "macro_recall"} <= data.keys()
        assert type(data["n_test"]) is int and data["n_test"] >= 0
        values = [*data["p_at"].values(), data["macro_precision"], data["macro_recall"]]
        assert all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
        assert all(0 <= v <= 1 for v in values)

    def test_eval_csv_rows_are_the_json_values(self, workdir, trained, tmp_path):
        jpath, cpath = tmp_path / "eval.json", tmp_path / "eval.csv"
        rc = main(["eval", "--model", str(trained), "--data", str(workdir / "test.txt"),
                   "--k", "1,3,5", "--json", str(jpath), "--csv", str(cpath)])
        assert rc == 0
        data = json.loads(jpath.read_text())
        with open(cpath, newline="", encoding="utf-8") as fh:
            rows = [(r["metric"], r["k"], r["value"]) for r in csv.DictReader(fh)]
        assert rows == [
            *(("p_at", k, f"{v:.6f}") for k, v in data["p_at"].items()),
            ("macro_precision", "", f"{data['macro_precision']:.6f}"),
            ("macro_recall", "", f"{data['macro_recall']:.6f}"),
        ]
        assert [k for _, k, _ in rows[:3]] == ["1", "3", "5"]

    @pytest.mark.parametrize(
        "init, predict_digest, eval_digest",
        [
            ("zero", "4d49bbd7523fccf1", "bb75a27eeef0c7c8"),
            ("bias", "5c8eefc87306b249", "d6a6e653b700c8c3"),
            ("ovap", "16e9edb2c056ecaf", "0ba8d0f5128d28f3"),
            ("aop", "f3e2cdc1cf9f3ec8", "ac6532612c6eb9ff"),
        ],
    )
    def test_scoring_bytes_are_pinned(self, tmp_path, init, predict_digest, eval_digest):
        # the CI's 40-label data, each init trained with the command's defaults
        train, test, model = (str(tmp_path / f) for f in ("train.txt", "test.txt", "m.bin"))
        assert main(["synth", "--n", "300", "--d", "25", "--l", "40", "--seed", "11",
                     "--out", train, "--test-out", test]) == 0
        assert main(["train", "--data", train, "--init", init, "--model-out", model]) == 0
        pred, ev = tmp_path / "pred.txt", tmp_path / "eval.json"
        assert main(["predict", "--model", model, "--data", test, "--k", "5",
                     "--out", str(pred)]) == 0
        assert main(["eval", "--model", model, "--data", test, "--k", "1,3,5",
                     "--json", str(ev)]) == 0
        digests = [hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in (pred, ev)]
        assert digests == [predict_digest, eval_digest]

    def test_k_list_order_independent(self, workdir, trained, capsys):
        rc = main(["eval", "--model", str(trained), "--data", str(workdir / "test.txt"),
                   "--k", "5,1,3"])
        assert rc == 0
        out1 = capsys.readouterr().out
        rc = main(["eval", "--model", str(trained), "--data", str(workdir / "test.txt"),
                   "--k", "1,3,5"])
        assert rc == 0
        assert capsys.readouterr().out == out1

    def test_perfect_model_p1(self, tmp_path, capsys):
        # single instance, single label, hand-built perfect model
        data = tmp_path / "d.txt"
        data.write_text("1 2 2\n1 0:1.0\n")
        model = tmp_path / "m.model"
        save_model(OvaModel(make_matrix([{}, {0: 2.0}], 2), None, "squared-hinge", "zero"), model)
        rc = main(["eval", "--model", str(model), "--data", str(data), "--k", "1"])
        assert rc == 0
        assert "P@1 1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("damage, match", [
        (lambda b: b[:-1], "file holds"),
        (lambda b: b"xova v1 10 26 -1 squared-hinge zero\n" + b"0 0\n" * 10, "version 'v1'"),
    ], ids=["cut_by_one_byte", "v1_text"])
    def test_damaged_model_exit_2(self, workdir, trained, tmp_path, capsys, damage, match):
        model = tmp_path / "bad.model"
        model.write_bytes(damage(trained.read_bytes()))
        rc = main(["predict", "--model", str(model), "--data", str(workdir / "test.txt"),
                   "--k", "1", "--out", str(tmp_path / "p.txt")])
        assert rc == 2
        assert match in capsys.readouterr().err


class TestNotUtf8:
    """A byte that is not UTF-8 is a data error on its line, for every command
    that reads a data file: exit 2, one line on stderr, no traceback."""

    @pytest.mark.parametrize("command", ["train", "predict", "eval"])
    @pytest.mark.parametrize("raw, line", [
        (b"2 3 1\xff\n0 0:1\n0 1:1\n", 1),
        (b"2 3 1\n0 0:1\n0\xff 1:1\n", 3),
        (b"2 3 1\n0 0:1\n0 1:\xff\n", 3),
    ], ids=["header", "label_field", "value"])
    def test_exit_2_naming_the_line(self, tmp_path, capsys, command, raw, line):
        data = tmp_path / "d.txt"
        data.write_bytes(raw)
        model = tmp_path / "m.model"
        if command == "train":
            args = ["--model-out", str(model)]
        else:
            save_model(OvaModel(make_matrix([{}], 4), 3, "squared-hinge", "zero"), model)
            args = ["--model", str(model), "--k", "1"]
            args += ["--out", str(tmp_path / "p.txt")] if command == "predict" else []
        rc = main([command, "--data", str(data), *args])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: invalid character")
        assert err.count("\n") == 1 and err.endswith("\n")


REPORT_HEAD ='{"format": "xova-report v1", "init": "zero", "loss": "squared-hinge", '
LABEL_HEAD = (REPORT_HEAD + '"dataset": {"digest": "d"}, "iterations": {"active_fraction_mean": '
              '[]}, "labels": [{')


class TestDiagSummary:
    def test_merge_and_columns(self, workdir, tmp_path):
        for init in ("zero", "aop"):
            rc = main(
                train_args(workdir, model=f"{init}.model")
                + ["--init", init, "--diag-out", str(workdir / f"{init}.json")]
            )
            assert rc == 0
        prefix = tmp_path / "cmp"
        rc = main(["diag-summary", "--reports", str(workdir / "zero.json"),
                   str(workdir / "aop.json"), "--out", str(prefix)])
        assert rc == 0
        frac = (tmp_path / "cmp.active_fraction.csv").read_text().splitlines()
        assert frac[0] == "iteration,zero,aop"
        first_row = frac[1].split(",")
        assert first_row[0] == "0"
        assert float(first_row[1]) == 1.0  # zero init, squared hinge
        buckets = (tmp_path / "cmp.positives_buckets.csv").read_text().splitlines()
        header = buckets[0].split(",")
        assert header[:2] == ["bucket_lo", "bucket_hi"]
        los = [int(r.split(",")[0]) for r in buckets[1:]]
        his = [int(r.split(",")[1]) for r in buckets[1:]]
        pow_rows = [(lo, hi) for lo, hi in zip(los, his) if lo >= 1]
        assert all(hi == 2 * lo for lo, hi in pow_rows)
        # edges cover the maximum positive count
        report = json.loads((workdir / "zero.json").read_text())
        max_pos = max(r["positives"] for r in report["labels"])
        assert his[-1] > max_pos

    def test_single_report(self, workdir, tmp_path):
        prefix = tmp_path / "single"
        rc = main(["diag-summary", "--reports", str(workdir / "zero.json"),
                   "--out", str(prefix)])
        assert rc == 0
        frac = (tmp_path / "single.active_fraction.csv").read_text().splitlines()
        assert frac[0] == "iteration,zero"

    def test_mixed_datasets_rejected(self, workdir, tmp_path, capsys):
        other = tmp_path / "other"
        rc = main(["synth", "--n", "100", "--d", "25", "--l", "10", "--tail", "1.2",
                   "--seed", "99", "--out", str(tmp_path / "other.txt")])
        assert rc == 0
        rc = main(["train", "--data", str(tmp_path / "other.txt"), "--init", "zero",
                   "--model-out", str(tmp_path / "o.model"),
                   "--diag-out", str(tmp_path / "o.json")])
        assert rc == 0
        rc = main(["diag-summary", "--reports", str(workdir / "zero.json"),
                   str(tmp_path / "o.json"), "--out", str(tmp_path / "bad")])
        assert rc == 1
        assert "different datasets" in capsys.readouterr().err
        # the command asks for one report at least; the Python API checks it
        with pytest.raises(ConfigError, match="no reports to merge"):
            diag.write_summary([], str(tmp_path / "none"))

    @pytest.mark.parametrize("init", ["aop,v2", '"aop" v2'], ids=["comma", "quote"])
    def test_tables_stay_well_formed_for_any_method_name(self, tmp_path, init):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({
            "format": "xova-report v1", "init": init, "loss": "squared-hinge",
            "dataset": {"digest": "d"}, "iterations": {"active_fraction_mean": [1.0, 0.5]},
            "labels": [{"positives": 3, "outer_iters": 2, "wall_ms": 1.5}],
        }))
        assert main(["diag-summary", "--reports", str(path), "--out", str(tmp_path / "s")]) == 0
        for table, names in [
            ("active_fraction", ["iteration", init]),
            ("positives_buckets", ["bucket_lo", "bucket_hi", f"{init}:mean_wall_ms",
                                   f"{init}:mean_outer_iters", f"{init}:n_labels"]),
        ]:
            with open(tmp_path / f"s.{table}.csv", newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert header == names
            assert rows and all(len(row) == len(header) for row in rows)

    def test_bucket_means_add_in_label_order(self):
        # sum() compensates float rounding from Python 3.12 on, and would give 1/3
        labels = [{"positives": 1, "outer_iters": 1, "wall_ms": w} for w in (1e16, 1.0, -1e16)]
        report = {"init": "zero", "loss": "squared-hinge", "dataset": {"digest": "d"},
                  "labels": labels}
        assert diag.bucket_table([report])[1] == [[1, 2, 0.0, 1.0, 3]]

    @pytest.mark.parametrize("runs, names", [
        ([("zero", "squared-hinge"), ("aop", "squared-hinge")], ["zero", "aop"]),
        ([("zero", "squared-hinge"), ("zero", "logistic")],
         ["zero:squared-hinge", "zero:logistic"]),
        ([("aop", "logistic"), ("aop", "logistic")], ["aop:logistic", "aop:logistic#2"]),
        # a report's own string may end as a numbered name does
        ([("aop", "sq"), ("aop", "sq"), ("aop", "sq#2"), ("aop", "sq")],
         ["aop:sq", "aop:sq#2", "aop:sq#2#2", "aop:sq#3"]),
    ], ids=["by_init", "by_init_and_loss", "numbered", "numbered_on_until_unused"])
    def test_method_names(self, runs, names):
        assert diag.method_names([{"init": i, "loss": l} for i, l in runs]) == names

    @pytest.mark.parametrize(
        "text",
        [
            "[1,2]",
            "not json",
            '{"format": "xova-report v1"}',
            REPORT_HEAD + '"dataset": 5, "iterations": {"active_fraction_mean": []}, "labels": []}',
            REPORT_HEAD + '"dataset": {"digest": "d"}, "iterations": {}, "labels": []}',
            REPORT_HEAD + '"dataset": {"digest": "d"}, "iterations": {"active_fraction_mean": []}, '
            '"labels": [{"positives": "x"}]}',
            # strict JSON holds no NaN or Infinity, and a count is a whole number >= 0
            LABEL_HEAD + '"positives": 3, "outer_iters": 2, "wall_ms": NaN}]}',
            LABEL_HEAD + '"positives": 3, "outer_iters": 2, "wall_ms": -Infinity}]}',
            LABEL_HEAD + '"positives": 3, "outer_iters": 2, "wall_ms": 1e400}]}',
            LABEL_HEAD + '"positives": 3, "outer_iters": 2, "wall_ms": -1.0}]}',
            LABEL_HEAD + '"positives": -3, "outer_iters": 2, "wall_ms": 1.0}]}',
            LABEL_HEAD + '"positives": 3, "outer_iters": 2.5, "wall_ms": 1.0}]}',
            REPORT_HEAD + '"dataset": {"digest": "d"}, "iterations": {"active_fraction_mean": '
            '[Infinity]}, "labels": []}',
        ],
        ids=["list", "not_json", "no_fields", "dataset_int", "no_active_fraction",
             "positives_str", "wall_ms_nan", "wall_ms_minus_inf", "wall_ms_overflow",
             "wall_ms_negative", "positives_negative", "outer_iters_fraction",
             "active_fraction_inf"],
    )
    def test_malformed_report_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "r.json"
        path.write_text(text)
        rc = main(["diag-summary", "--reports", str(path), "--out", str(tmp_path / "s")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("row, named", [
        ('"positives": -3, "outer_iters": 2, "wall_ms": 1.0', "labels[0].positives must be"),
        ('"positives": 3, "outer_iters": 2, "wall_ms": NaN', "NaN is not strict JSON"),
    ], ids=["field", "token"])
    def test_malformed_report_names_what_is_wrong(self, tmp_path, capsys, row, named):
        path = tmp_path / "r.json"
        path.write_text(LABEL_HEAD + row + "}]}")
        rc = main(["diag-summary", "--reports", str(path), "--out", str(tmp_path / "s")])
        assert rc == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "s.positives_buckets.csv").exists()


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
