import dataclasses

import numpy as np
import pytest

from xova import dataio
from xova.dataio import (
    Dataset,
    augment_bias,
    compute_label_stats,
    dataset_digest,
    generate_synthetic,
    load_xmc_dataset,
    split_dataset,
    write_xmc_dataset,
)
from xova.errors import ConfigError, DimensionMismatchError, InvalidEntryError, ParseError, XovaError
from xova.sparse import SparseMatrix

from conftest import dense_matrix, entries, make_matrix


def write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParsing:
    def test_basic(self, tmp_path):
        ds = load_xmc_dataset(write(tmp_path, "2 3 2\n0,1 0:0.5 2:1.0\n1 1:2.0\n"))
        assert ds.n == 2 and ds.dim == 3 and ds.n_labels == 2
        assert ds.labels[0].tolist() == [0, 1]
        assert entries(ds.features.row(0)) == {0: 0.5, 2: 1.0}
        assert ds.labels[1].tolist() == [1]
        assert ds.labels[0].dtype == np.int64

    def test_empty_label_field(self, tmp_path):
        ds = load_xmc_dataset(write(tmp_path, "1 3 2\n 1:2.0\n"))
        assert ds.labels[0].size == 0
        assert entries(ds.features.row(0)) == {1: 2.0}

    def test_tab_ends_the_label_field(self, tmp_path):
        ds = load_xmc_dataset(write(tmp_path, "3 5 3\n1\t3:1.0\n1,2\t3:1.0 4:2.0\n\t0:1.0\n"))
        assert [a.tolist() for a in ds.labels] == [[1], [1, 2], []]
        assert [entries(ds.features.row(i)) for i in range(3)] == [
            {3: 1.0}, {3: 1.0, 4: 2.0}, {0: 1.0}
        ]

    def test_labels_without_features(self, tmp_path):
        ds = load_xmc_dataset(write(tmp_path, "1 3 2\n1\n"))
        assert ds.labels[0].tolist() == [1]
        assert ds.features.row(0).indices.size == 0

    def test_empty_instance_line(self, tmp_path):
        ds = load_xmc_dataset(write(tmp_path, "1 3 2\n\n"))
        assert ds.labels[0].size == 0 and ds.features.row(0).indices.size == 0

    @pytest.mark.parametrize("error", [ParseError])
    def test_format_errors_name_their_line(self, error):
        err = error("bad token", 4)
        assert (str(err), err.line) == ("line 4: bad token", 4)
        assert isinstance(err, XovaError) and isinstance(err, ValueError)

    def test_feature_index_out_of_range(self, tmp_path):
        with pytest.raises(ParseError, match=r"index 5.*dimension 3") as e:
            load_xmc_dataset(write(tmp_path, "1 3 2\n0 5:1.0\n"))
        assert e.value.line == 2

    def test_label_out_of_range(self, tmp_path):
        with pytest.raises(ParseError, match="label id 7"):
            load_xmc_dataset(write(tmp_path, "1 3 2\n7 0:1.0\n"))

    def test_non_numeric_value(self, tmp_path):
        with pytest.raises(ParseError, match="non-numeric") as e:
            load_xmc_dataset(write(tmp_path, "2 3 2\n0 0:1.0\n1 1:abc\n"))
        assert e.value.line == 3

    def test_malformed_header(self, tmp_path):
        with pytest.raises(ParseError, match="header"):
            load_xmc_dataset(write(tmp_path, "2 3\n"))
        with pytest.raises(ParseError):
            load_xmc_dataset(write(tmp_path, "a b c\n"))
        with pytest.raises(ParseError, match="header counts must lie in"):
            load_xmc_dataset(write(tmp_path, "1 99999999999999999999 1\n\n"))

    def test_truncated_file(self, tmp_path):
        with pytest.raises(ParseError, match="ends after 1"):
            load_xmc_dataset(write(tmp_path, "2 3 1\n0 0:1.0\n"))

    def test_extra_content(self, tmp_path):
        with pytest.raises(ParseError, match="unexpected content"):
            load_xmc_dataset(write(tmp_path, "1 3 1\n0 0:1.0\n0 0:1.0\n"))

    def test_duplicate_feature_index(self, tmp_path):
        with pytest.raises(ParseError, match="duplicate feature index 1"):
            load_xmc_dataset(write(tmp_path, "1 3 1\n0 1:1.0 1:2.0\n"))

    def test_features_and_labels_in_any_order(self, tmp_path):
        ds = load_xmc_dataset(write(tmp_path, "1 3 2\n1,0 2:1.0 0:0.5\n"))
        assert ds.labels[0].tolist() == [0, 1]
        assert entries(ds.features.row(0)) == {0: 0.5, 2: 1.0}

    def test_duplicate_feature_index_out_of_order(self, tmp_path):
        with pytest.raises(ParseError, match="duplicate feature index 1") as e:
            load_xmc_dataset(write(tmp_path, "1 3 1\n0 1:1.0 0:3.0 1:2.0\n"))
        assert e.value.line == 2

    def test_rows_in_reverse_order_parse_like_their_sorted_twin(self, tmp_path):
        ds = generate_synthetic(300, 25, 40, 1.2, 11)
        write_xmc_dataset(ds, tmp_path / "sorted.txt")
        header, *lines = (tmp_path / "sorted.txt").read_text().splitlines()
        reversed_lines = []
        for line in lines:
            head, *pairs = line.split(" ")
            reversed_lines.append(" ".join([head, *pairs[::-1]]))
        assert reversed_lines != lines
        text = "\n".join([header, *reversed_lines]) + "\n"
        twin = load_xmc_dataset(write(tmp_path, text, "reversed.txt"))
        sorted_ds = load_xmc_dataset(tmp_path / "sorted.txt")
        assert twin.features == sorted_ds.features == ds.features
        assert twin.features.indices.dtype == sorted_ds.features.indices.dtype
        assert dataset_digest(twin) == dataset_digest(sorted_ds) == dataset_digest(ds)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ("2:1.0 1:1.0 0:3.0 1:2.0", "duplicate feature index 1"),
            ("2:1.0 2147483648:1.0 0:1.0", "feature index 2147483648 out of range"),
            ("2:1.0 -1:1.0", "feature index -1 out of range"),
        ],
        ids=["duplicate", "beyond_int32", "negative"],
    )
    def test_bad_index_in_an_unsorted_row_names_its_line(self, tmp_path, pairs, message):
        text = f"3 3 1\n0 2:1.0 0:1.0\n0 {pairs}\n0 1:1.0\n"
        with pytest.raises(ParseError, match=message) as e:
            load_xmc_dataset(write(tmp_path, text))
        assert e.value.line == 3

    def test_duplicate_label(self, tmp_path):
        with pytest.raises(ParseError, match="duplicate label"):
            load_xmc_dataset(write(tmp_path, "1 3 2\n0,0 1:1.0\n"))

    def test_bad_feature_token(self, tmp_path):
        with pytest.raises(ParseError, match="index:value"):
            load_xmc_dataset(write(tmp_path, "1 3 1\n0 nocolon\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_value(self, tmp_path, value):
        text = f"3 3 1\n0 0:1.0\n0 2:0.5 1:{value}\n0 0:nan\n"
        with pytest.raises(ParseError, match="non-finite value .* for feature 1") as e:
            load_xmc_dataset(write(tmp_path, text))
        assert e.value.line == 3

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1_0 3 1\n", 1),
            ("2 3 2\n0 0:1.0\n0 0:1_5\n", 3),
            ("2 3 2\n0 0:1.0\n0 1_0:1.0\n", 3),
            ("2 3 2\n0 0:1.0\n0 1:\u0661\n", 3),
            ("2 3 2\n0 0:1.0\n\u0661 1:1.0\n", 3),
            ("2 3 2\n0 0:1.0\n0,1_0 1:1.0\n", 3),
        ],
        ids=["header", "value", "index", "arabic_indic_value", "arabic_indic_label", "label"],
    )
    def test_digit_separator_or_non_ascii(self, tmp_path, text, line):
        with pytest.raises(ParseError, match="invalid character") as e:
            load_xmc_dataset(write(tmp_path, text))
        assert e.value.line == line

    def test_empty_dataset_allowed(self, tmp_path):
        ds = load_xmc_dataset(write(tmp_path, "0 3 2\n"))
        assert ds.n == 0 and ds.dim == 3


def many_rows(n, header_n=None):
    """A valid file of ``n`` rows, about 30 characters each."""
    rows = [f"{i % 7},{i % 7 + 1} {i % 5}:{i / 3!r} 9:-{i}" for i in range(n)]
    return "\n".join([f"{n if header_n is None else header_n} 10 8", *rows]) + "\n"


# one line per read, a few lines per read, and the default: several reads of
# many_rows(5000)
READ_SIZES = [1, 100, dataio._READ_BYTES]


class TestReads:
    """Instance lines are read ``_READ_BYTES`` characters at a time; the read
    size changes nothing a file gives, nor the line an error names."""

    def test_many_rows_takes_several_default_reads(self):
        assert len(many_rows(5000)) > 2 * dataio._READ_BYTES

    @pytest.mark.parametrize("read_bytes", READ_SIZES)
    def test_content_past_n_in_the_last_read_is_checked(self, tmp_path, monkeypatch, read_bytes):
        monkeypatch.setattr(dataio, "_READ_BYTES", read_bytes)
        blank = load_xmc_dataset(write(tmp_path, "2 3 1\n0 0:1.0\n0 1:1.0\n \n\n", "blank.txt"))
        assert blank.n == 2
        with pytest.raises(ParseError, match="unexpected content after 2 instance lines") as e:
            load_xmc_dataset(write(tmp_path, "2 3 1\n0 0:1.0\n0 1:1.0\n\n0 2:1.0\n"))
        assert e.value.line == 4

    @pytest.mark.parametrize("read_bytes", READ_SIZES)
    def test_a_short_file_names_the_line_after_its_last(self, tmp_path, monkeypatch, read_bytes):
        monkeypatch.setattr(dataio, "_READ_BYTES", read_bytes)
        with pytest.raises(ParseError, match="expected 5003 instance lines, file ends after 5000") as e:
            load_xmc_dataset(write(tmp_path, many_rows(5000, header_n=5003)))
        assert e.value.line == 5002

    @pytest.mark.parametrize("read_bytes", READ_SIZES)
    def test_a_fault_in_a_later_read_names_its_line(self, tmp_path, monkeypatch, read_bytes):
        monkeypatch.setattr(dataio, "_READ_BYTES", read_bytes)
        lines = many_rows(5000).split("\n")
        lines[4000] += " 3:abc"
        with pytest.raises(ParseError, match="non-numeric") as e:
            load_xmc_dataset(write(tmp_path, "\n".join(lines)))
        assert e.value.line == 4001

    @pytest.mark.parametrize("read_bytes", READ_SIZES)
    def test_a_crlf_file_loads_as_its_lf_twin(self, tmp_path, monkeypatch, read_bytes):
        text = many_rows(5000)
        lf = load_xmc_dataset(write(tmp_path, text, "lf.txt"))
        (tmp_path / "crlf.txt").write_bytes(text.replace("\n", "\r\n").encode())
        monkeypatch.setattr(dataio, "_READ_BYTES", read_bytes)
        crlf = load_xmc_dataset(tmp_path / "crlf.txt")
        assert crlf.features == lf.features
        assert dataset_digest(crlf) == dataset_digest(lf)

    @pytest.mark.parametrize("read_bytes", READ_SIZES)
    def test_a_written_file_loads_and_writes_back_its_bytes(self, tmp_path, monkeypatch,
                                                           read_bytes):
        # 3000 rows take two default reads
        write_xmc_dataset(generate_synthetic(3000, 200, 40, 1.2, 12), tmp_path / "a.txt")
        assert (tmp_path / "a.txt").stat().st_size > dataio._READ_BYTES
        monkeypatch.setattr(dataio, "_READ_BYTES", read_bytes)
        write_xmc_dataset(load_xmc_dataset(tmp_path / "a.txt"), tmp_path / "b.txt")
        assert (tmp_path / "b.txt").read_bytes() == (tmp_path / "a.txt").read_bytes()


class TestRoundTrip:
    def test_parse_write_reparse(self, tmp_path):
        text = "3 4 3\n0,2 0:0.5 3:1.25\n 1:0.3333333333333333\n1\n"
        ds = load_xmc_dataset(write(tmp_path, text))
        out = tmp_path / "rt.txt"
        write_xmc_dataset(ds, out)
        ds2 = load_xmc_dataset(out)
        assert ds2.n == ds.n and ds2.dim == ds.dim and ds2.n_labels == ds.n_labels
        assert ds2.features == ds.features
        for a, b in zip(ds.labels, ds2.labels):
            assert a.tolist() == b.tolist()

    def test_refuses_augmented(self, tmp_path):
        ds = load_xmc_dataset(write(tmp_path, "1 2 1\n0 0:1.0\n"))
        with pytest.raises(ConfigError):
            write_xmc_dataset(augment_bias(ds), tmp_path / "x.txt")

    @pytest.mark.parametrize("labels, message, bad", [
        ([[5], [1, 0]], "instance 0: label index 5 out of range", (0, 5)),
        ([[1], [1, 0]], "instance 1: label index 0 repeated or out of order", (1, 0)),
    ], ids=["out of range", "out of order"])
    def test_refuses_label_ids_that_label_stats_would_reject(self, tmp_path, labels, message, bad):
        # such a file would not load, or would load as another dataset
        with pytest.raises(InvalidEntryError, match=message) as err:
            ds = Dataset(make_matrix([{0: 1.0}, {1: 2.0}], 2), [np.array(a) for a in labels], 2)
            write_xmc_dataset(ds, tmp_path / "x.txt")
        assert (err.value.row, err.value.col) == bad
        assert not (tmp_path / "x.txt").exists()


class TestAugmentBias:
    def test_appends_constant_one(self):
        ds = Dataset(make_matrix([{0: 0.5}, {}], 3), [np.array([0]), np.array([], dtype=np.int64)], 1)
        out = augment_bias(ds)
        assert out.dim == 4 and out.bias_index == 3
        assert entries(out.features.row(0)) == {0: 0.5, 3: 1.0}
        assert entries(out.features.row(1)) == {3: 1.0}

    def test_double_augment_rejected(self):
        ds = Dataset(make_matrix([{0: 0.5}], 3), [np.array([0])], 1)
        once = augment_bias(ds)
        with pytest.raises(ConfigError, match="already"):
            augment_bias(once)

    def test_labels_shared(self):
        ds = Dataset(make_matrix([{0: 0.5}], 3), [np.array([0])], 1)
        assert augment_bias(ds).Y is ds.Y

    @pytest.mark.parametrize(
        "text, indptr, indices, data",
        [
            ("0 6 5\n", [0], [], []),
            ("3 4 2\n0 1:2.0 3:1.5\n1 \n0,1 0:1.0\n", [0, 3, 4, 6], [1, 3, 4, 4, 0, 4],
             [2.0, 1.5, 1.0, 1.0, 1.0, 1.0]),
        ],
        ids=["no-rows", "row-without-features"],
    )
    def test_exact_arrays(self, tmp_path, text, indptr, indices, data):
        out = augment_bias(load_xmc_dataset(write(tmp_path, text)))
        X = out.features
        assert out.bias_index == X.n_cols - 1 == int(text.split()[1])
        assert X.indptr.tolist() == indptr
        assert X.indices.tolist() == indices
        assert X.data.tolist() == data


class TestLabelStats:
    def three_point(self):
        X = make_matrix([{0: 1.0}, {1: 1.0}, {0: 1.0, 1: 1.0}], 2)
        labels = [np.array([0]), np.array([], dtype=np.int64), np.array([], dtype=np.int64)]
        return Dataset(X, labels, 1)

    def test_three_point_example(self):
        stats = compute_label_stats(self.three_point())
        assert stats.positives[0].tolist() == [0] and stats.positives[0].dtype == np.int64
        np.testing.assert_allclose(stats.xbar, [2 / 3, 2 / 3])
        assert entries(stats.pbar.row(0)) == {0: 1.0}
        nbar = np.array([1 / 2, 1.0])  # mean of rows 1 and 2
        np.testing.assert_allclose(
            2 * nbar + 1 * stats.pbar.row(0).to_dense(2), 3 * stats.xbar, rtol=1e-12
        )

    def test_all_positive_label_equals_global_mean(self):
        X = make_matrix([{0: 1.0}, {1: 1.0}, {0: 1.0, 1: 1.0}], 2)
        ds = Dataset(X, [np.array([0])] * 3, 1)
        stats = compute_label_stats(ds)
        np.testing.assert_array_equal(stats.pbar.row(0).to_dense(2), stats.xbar)

    def test_label_with_no_positives(self):
        X = make_matrix([{0: 1.0}], 2)
        ds = Dataset(X, [np.array([], dtype=np.int64)], 2)
        stats = compute_label_stats(ds)
        assert stats.pbar.row(0).indices.size == 0 and stats.positives[0].size == 0

    def test_empty_dataset_rejected(self):
        ds = Dataset(make_matrix([], 2), [], 1)
        with pytest.raises(ConfigError):
            compute_label_stats(ds)

    def test_mean_identity_on_synthetic(self):
        ds = augment_bias(generate_synthetic(300, 20, 12, 1.2, 3))
        stats = compute_label_stats(ds)
        D = dense_matrix(ds.features)
        n = ds.n
        for j in range(ds.n_labels):
            pos = stats.positives[j]
            neg = np.setdiff1d(np.arange(n), pos)
            nbar = D[neg].mean(axis=0) if neg.size else np.zeros(ds.dim)
            lhs = neg.size * nbar + pos.size * stats.pbar.row(j).to_dense(ds.dim)
            assert np.max(np.abs(lhs - n * stats.xbar)) <= 1e-9 * n

    def test_assignment_count(self):
        ds = generate_synthetic(200, 15, 9, 1.0, 11)
        stats = compute_label_stats(ds)
        total = sum(lbls.size for lbls in ds.labels)
        assert sum(p.size for p in stats.positives) == total

    def test_xbar_sq(self):
        # <xbar, xbar> is no statistic: only the aop start reads it, and
        # train_ova computes it from xbar there
        stats = compute_label_stats(self.three_point())
        assert [f.name for f in dataclasses.fields(stats)] == ["positives", "pbar", "xbar", "n"]


class TestSyntheticGenerator:
    @pytest.mark.parametrize(
        "args, digest",
        [
            ((10000, 2000, 200, 1.2, 5), "ba0e969e4a48fa59"),  # the benchmark's tail workload
            ((300, 25, 40, 1.2, 11), "6acc151be07c413d"),
            ((500, 50, 80, 0.8, 3), "7f3f12371d03933f"),
            ((50, 2, 10, 2.0, 7), "04029f2ca35caa82"),  # more labels than signature features
        ],
    )
    def test_output_is_pinned(self, args, digest):
        assert dataset_digest(generate_synthetic(*args)) == digest

    def test_deterministic(self, tmp_path):
        a = generate_synthetic(150, 20, 8, 1.2, 42)
        b = generate_synthetic(150, 20, 8, 1.2, 42)
        assert a.features == b.features
        assert all(x.tolist() == y.tolist() for x, y in zip(a.labels, b.labels))
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        write_xmc_dataset(a, pa)
        write_xmc_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_counts_non_increasing(self):
        ds = generate_synthetic(400, 30, 100, 1.2, 5)
        counts = np.zeros(100, dtype=int)
        for lbls in ds.labels:
            counts[lbls] += 1
        assert np.all(np.diff(counts) <= 0)

    def test_tail_fraction_pinned(self):
        # regression constant measured once from this generator build
        ds = generate_synthetic(1000, 60, 50, 1.2, 7)
        counts = np.zeros(50, dtype=int)
        for lbls in ds.labels:
            counts[lbls] += 1
        frac = float(np.mean(counts <= 5))
        assert frac > 0.4
        assert frac == pytest.approx(0.48, abs=1e-12)

    def test_features_non_negative_sorted(self):
        ds = generate_synthetic(120, 25, 10, 1.5, 2)
        assert np.all(ds.features.data >= 0.0)
        assert ds.bias_index is None

    def test_tiny_sizes(self):
        ds = generate_synthetic(1, 1, 1, 0.5, 0)
        assert ds.n == 1 and ds.dim == 1 and ds.n_labels == 1

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            generate_synthetic(0, 3, 2, 1.0, 1)
        with pytest.raises(ConfigError):
            generate_synthetic(5, 3, 2, -1.0, 1)


class TestDataset:
    def test_one_label_list_per_row(self):
        with pytest.raises(DimensionMismatchError, match="1 label lists for 2 instances"):
            Dataset(make_matrix([{0: 1.0}, {}], 1), [np.array([0])], 1)

    def test_a_label_matrix_is_checked_like_label_lists(self):
        X = make_matrix([{0: 1.0}, {}], 1)
        Y = SparseMatrix.stack([np.array([0]), np.array([], dtype=np.int64)], None, 2)
        assert Dataset(X, Y, 2).Y is Y
        with pytest.raises(DimensionMismatchError, match="2 label columns for 3 labels"):
            Dataset(X, Y, 3)
        with pytest.raises(DimensionMismatchError, match="2 label lists for 1 instances"):
            Dataset(make_matrix([{}], 1), Y, 2)

    def test_label_ids_that_are_not_integers_rejected(self):
        X = make_matrix([{0: 1.0}], 1)
        for ids in (np.array([1.5]), np.array([True])):
            with pytest.raises(InvalidEntryError, match="instance 0: label index .* not an integer"):
                Dataset(X, [ids], 3)
        # concatenated beside an integer part, a bool part would read as int64
        X = make_matrix([{0: 1.0}, {0: 1.0}], 1)
        for labels in ([np.array([1]), np.array([True])], [[1], [True]], [np.array([1]), [True]]):
            with pytest.raises(InvalidEntryError,
                               match="instance 1: label index True .* not an integer"):
                Dataset(X, labels, 3)

    def test_a_label_matrix_holds_ones_only(self):
        # other entries would weigh the positive means and read as "not relevant"
        X = make_matrix([{0: 1.0}, {0: 2.0}], 1)
        for data, where in (([2.0, -3.0], (0, 0)), ([1.0, np.nan], (1, 0))):
            Y = SparseMatrix([0, 1, 2], [0, 0], data, 1)
            with pytest.raises(InvalidEntryError, match=f"instance {where[0]}: label 0 has entry"
                               ) as e:
                Dataset(X, Y, 1)
            assert (e.value.row, e.value.col) == where


class TestSplit:
    @pytest.mark.parametrize("fraction", [-0.1, 1.0])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(ConfigError, match="test fraction"):
            split_dataset(generate_synthetic(20, 5, 3, 1.2, 1), fraction, 1)

    def test_sizes_and_determinism(self):
        ds = generate_synthetic(200, 20, 10, 1.2, 9)
        tr1, te1 = split_dataset(ds, 0.2, 9)
        tr2, te2 = split_dataset(ds, 0.2, 9)
        assert te1.n == 40 and tr1.n == 160
        assert tr1.features == tr2.features and te1.features == te2.features
        assert tr1.n_labels == ds.n_labels == te1.n_labels

    def test_rejects_augmented(self):
        ds = augment_bias(generate_synthetic(50, 10, 4, 1.2, 1))
        with pytest.raises(ConfigError):
            split_dataset(ds, 0.1, 1)


class TestDigest:
    def test_digest_distinguishes(self):
        a = generate_synthetic(80, 10, 4, 1.2, 1)
        b = generate_synthetic(80, 10, 4, 1.2, 2)
        assert dataset_digest(a) != dataset_digest(b)
        assert dataset_digest(a) == dataset_digest(generate_synthetic(80, 10, 4, 1.2, 1))

    def test_digest_pinned(self):
        X = SparseMatrix([0, 2, 2, 3], [0, 2, 1], [0.5, -1.0, 2.0], 3)
        labels = [np.array([0, 1]), np.array([], dtype=np.int64), np.array([1])]
        # Hashes int64 indices whatever dtype the matrix stores them in.
        assert dataset_digest(Dataset(X, labels, 2)) == "d951c3e370be8e3b"

    def test_digest_of_no_rows_pinned(self):
        # no row, so no label bytes are hashed, not even a separator
        X = SparseMatrix([0], [], [], 3)
        assert dataset_digest(Dataset(X, [], 2)) == "63e6d6a5a1bdec68"
