import csv
import json

import numpy as np
import pytest

from xova.cli import main
from xova.initializers import InitStrategy
from xova.trainer import OvaModel, TrainConfig, load_model, save_model

from conftest import make_matrix

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


EVAL_SCHEMA = {
    "type": "object",
    "required": ["n_test", "p_at", "macro_precision", "macro_recall"],
    "properties": {
        "n_test": {"type": "integer", "minimum": 0},
        "p_at": {
            "type": "object",
            "additionalProperties": {"type": "number", "minimum": 0, "maximum": 1},
        },
        "macro_precision": {"type": "number", "minimum": 0, "maximum": 1},
        "macro_recall": {"type": "number", "minimum": 0, "maximum": 1},
    },
}


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
            "label", "positives", "outer_iters", "hvp_touches", "wall_ms", "cpu_ms", "final_loss",
            "termination", "first_step_size", "failure",
        ]
        assert all(label["failure"] is None for label in report["labels"])
        assert report["init_params"] == {"s": 1.0, "t": -2.0}
        # the solver's fixed constants are not settings
        assert list(report["solver"]) == ["eps_outer", "eps_cg", "max_outer", "max_cg"]
        # the run's flags are all at their defaults but --init aop
        assert report["config_digest"] == TrainConfig(init=InitStrategy("aop")).digest()
        labels_csv = (workdir / "report.json.labels.csv").read_text().splitlines()
        assert labels_csv[0] == (
            "label,positives,outer_iters,hvp_touches,wall_ms,final_loss,termination,cpu_ms,failure"
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

    def test_bias_init_without_augmentation_exit_1(self, workdir, capsys):
        rc = main(train_args(workdir, model="x.model") + ["--init", "bias", "--no-augment"])
        assert rc == 1
        assert "bias" in capsys.readouterr().err

    def test_reproducible_across_threads(self, workdir):
        rc1 = main(train_args(workdir, model="m1.model", **{"--threads": "1"}))
        rc2 = main(train_args(workdir, model="m2.model", **{"--threads": "4"}))
        assert rc1 == rc2 == 0
        assert (workdir / "m1.model").read_bytes() == (workdir / "m2.model").read_bytes()

    def test_missing_data_exit_2(self, workdir):
        rc = main(train_args(workdir, **{"--data": str(workdir / "nope.txt")}))
        assert rc == 2

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
        # From -1 at the bias, the only row of the first file with a huge value
        # is negative for label 1 and starts outside the margin, so label 1 converges.
        one_fails = (init, name) == ("bias", "one_huge_value")
        assert report["totals"]["failed"] == (1 if one_fails else 2)

    def test_failure_at_the_start_writes_strict_json(self, tmp_path):
        # the aop start of the one label is not finite, so it has no finite loss
        data = tmp_path / "huge.txt"
        data.write_text("3 2 1\n0 0:1e308 1:1.0\n 0:1e308 1:2.0\n 1:1.0\n")
        rc = main(["train", "--data", str(data), "--model-out", str(tmp_path / "m.model"),
                   "--diag-out", str(tmp_path / "huge.json")])
        assert rc == 3

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads((tmp_path / "huge.json").read_text(), parse_constant=reject)
        [label] = report["labels"]
        assert label["termination"] == "numerical_failure"
        assert label["final_loss"] is None
        csv_row = (tmp_path / "huge.json.labels.csv").read_text().splitlines()[1]
        assert ",nan,numerical_failure," in csv_row

    @pytest.mark.parametrize("init", ["zero", "bias", "ovap", "aop"])
    def test_failed_labels_say_why(self, tmp_path, init):
        # zero, bias and ovap fail on the first gradient, aop at its start;
        # ovap's shared solve fails too
        data = tmp_path / "huge.txt"
        data.write_text("3 2 1\n0 0:1e308 1:1.0\n 0:1e308 1:2.0\n 1:1.0\n")
        out = tmp_path / "huge.json"
        rc = main(["train", "--data", str(data), "--init", init,
                   "--model-out", str(tmp_path / "m.model"), "--diag-out", str(out)])
        assert rc == 3
        report = json.loads(out.read_text())
        want = ("non-finite objective at the initial point" if init == "aop"
                else "non-finite gradient")
        assert [label["failure"] for label in report["labels"]] == [want]
        assert report["totals"]["init_failure"] == (want if init == "ovap" else None)
        with open(str(out) + ".labels.csv", newline="") as fh:
            [row] = list(csv.DictReader(fh))
        assert row["termination"] == "numerical_failure"
        assert row["failure"] == want

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

    def test_eval_prints_and_json(self, workdir, trained, capsys, tmp_path):
        jpath = tmp_path / "eval.json"
        rc = main(["eval", "--model", str(trained), "--data", str(workdir / "test.txt"),
                   "--k", "1,3,5", "--json", str(jpath)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P@1 " in out and "P@3 " in out and "P@5 " in out
        assert "macro-P" in out and "macro-R" in out
        data = json.loads(jpath.read_text())
        if jsonschema is not None:
            jsonschema.validate(data, EVAL_SCHEMA)

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


REPORT_HEAD = '{"format": "xova-report v1", "init": "zero", "loss": "squared-hinge", '


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
        ],
        ids=["list", "not_json", "no_fields", "dataset_int", "no_active_fraction",
             "positives_str"],
    )
    def test_malformed_report_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "r.json"
        path.write_text(text)
        rc = main(["diag-summary", "--reports", str(path), "--out", str(tmp_path / "s")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
