import csv
import os

import numpy as np
import pytest

import casfluct as cf
from casfluct.dataset import load_dataset, read_csv, save_dataset

VALID_ROWS = [
    "0.62, 420.0, 11.0, 10, 0.1",
    "0.75, 350.5, 9.5, 10, 0.1",
    "1.0, 250.25, 8.0, 10, 0.1",
    "2.0, 120.125, 5.0, 100, 1.0",
    "3.0, 75.0, 4.0, 100, 1.0",
    "4.5, 48.0, 3.5, 100, 1.0",
    "6.0, 36.0, 3.0, 100, 1.0",
]


def test_load_valid_dataset(write_dataset_csv):
    path = write_dataset_csv(VALID_ROWS, comments=["synthetic example"])
    ds = load_dataset(path)
    assert len(ds) == 7
    assert np.all(np.diff(ds.d_um) > 0)
    assert ds.d_um[0] == 0.62
    assert ds.force_udyne[3] == 120.125
    assert ds.n_samples[0] == 10
    # SI views
    assert ds.d_m[0] == pytest.approx(0.62e-6, rel=1e-15)
    assert ds.force_N[0] == pytest.approx(420e-11, rel=1e-15)


def test_zero_sigma_row_reports_line(write_dataset_csv):
    rows = list(VALID_ROWS)
    rows[2] = "1.0, 250.0, 0.0, 10, 0.1"
    path = write_dataset_csv(rows)
    with pytest.raises(cf.DatasetError) as err:
        load_dataset(path)
    # header is line 1, so the broken row is line 4
    assert 4 in err.value.lines
    assert "sigma" in str(err.value)


def test_header_only_is_empty_dataset_error(write_dataset_csv):
    path = write_dataset_csv([])
    with pytest.raises(cf.DatasetError, match="empty"):
        load_dataset(path)


def test_missing_header_rejected(write_dataset_csv):
    path = write_dataset_csv(VALID_ROWS, header="d, F, s, n, w")
    with pytest.raises(cf.DatasetError, match="header"):
        load_dataset(path)


def test_unsorted_rows_name_offending_line(write_dataset_csv):
    rows = [VALID_ROWS[1], VALID_ROWS[0]] + VALID_ROWS[2:]
    path = write_dataset_csv(rows)
    with pytest.raises(cf.DatasetError) as err:
        load_dataset(path)
    assert 3 in err.value.lines


def test_duplicate_distance_rejected(write_dataset_csv):
    rows = VALID_ROWS + [VALID_ROWS[-1]]
    path = write_dataset_csv(rows)
    with pytest.raises(cf.DatasetError):
        load_dataset(path)


def test_malformed_rows_all_reported(write_dataset_csv):
    rows = list(VALID_ROWS)
    rows[1] = "0.75, oops, 9.5, 10, 0.1"
    rows[4] = "3.0, 75.0, 4.0"
    path = write_dataset_csv(rows)
    with pytest.raises(cf.DatasetError) as err:
        load_dataset(path)
    assert set(err.value.lines) == {3, 6}


def test_error_message_names_ten_bad_rows_and_counts_the_rest(write_dataset_csv, tmp_path, capsys):
    from casfluct.cli import main

    path = write_dataset_csv(VALID_ROWS[:1] + [f"{i}, oops, 1.0, 10, 0.1" for i in range(1, 201)])
    with pytest.raises(cf.DatasetError) as err:
        load_dataset(path)
    assert err.value.lines == list(range(3, 203))
    message = str(err.value)
    assert message.count(f"{path}:") == 10
    assert f"{path}:12: " in message and f"{path}:13: " not in message
    assert message.endswith(" | and 190 more")
    assert main(["fit-beta", "--data", str(path), "-o", str(tmp_path / "fit.json")]) == 1
    assert capsys.readouterr().err == f"casfluct fit-beta: {message}\n"


def test_comments_and_blank_lines_ignored(write_dataset_csv):
    rows = ["# a comment", "", VALID_ROWS[0], "# another", VALID_ROWS[1], VALID_ROWS[2], VALID_ROWS[3]]
    path = write_dataset_csv(rows)
    assert len(load_dataset(path)) == 4


def test_roundtrip_bit_identical(write_dataset_csv, tmp_path):
    path = write_dataset_csv(VALID_ROWS)
    ds = load_dataset(path)
    out = tmp_path / "echo.csv"
    save_dataset(ds, out, comments=["rewritten"])
    ds2 = load_dataset(out)
    for name in ("d_um", "force_udyne", "sigma_udyne", "bin_width_um"):
        assert np.array_equal(getattr(ds, name), getattr(ds2, name))
    assert np.array_equal(ds.n_samples, ds2.n_samples)


def test_multi_line_comments_roundtrip(write_dataset_csv, tmp_path):
    ds = load_dataset(write_dataset_csv(VALID_ROWS))
    out = tmp_path / "commented.csv"
    save_dataset(ds, out, comments=["two\nlines", "", "crlf\r\nend\r"])
    assert out.read_text().splitlines()[:5] == ["# two", "# lines", "# ", "# crlf", "# end"]
    assert np.array_equal(load_dataset(out).force_udyne, ds.force_udyne)


def test_roundtrip_preserves_awkward_floats(tmp_path):
    ds = cf.ForceDataset(
        d_um=np.array([0.1, 0.2, 0.30000000000000004]),
        force_udyne=np.array([1e-5, 123.45600000000002, 7.0]),
        sigma_udyne=np.array([0.1, 0.2, 0.3]),
        n_samples=np.array([1, 2, 3]),
        bin_width_um=np.array([0.1, 0.1, 0.1]),
    )
    out = tmp_path / "awkward.csv"
    save_dataset(ds, out)
    ds2 = load_dataset(out)
    assert np.array_equal(ds.d_um, ds2.d_um)
    assert np.array_equal(ds.force_udyne, ds2.force_udyne)


def test_save_is_atomic(write_dataset_csv, tmp_path, monkeypatch):
    ds = load_dataset(write_dataset_csv(VALID_ROWS))
    out = tmp_path / "kept.csv"
    out.write_text("old contents\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_dataset(ds, out)
    assert out.read_text() == "old contents\n"
    assert list(tmp_path.glob(".tmp-*.part")) == []


def test_constructor_invariants():
    with pytest.raises(cf.DatasetError):
        cf.ForceDataset(
            d_um=np.array([1.0, 0.5]),
            force_udyne=np.array([1.0, 2.0]),
            sigma_udyne=np.array([0.1, 0.1]),
            n_samples=np.array([1, 1]),
            bin_width_um=np.array([0.1, 0.1]),
        )
    with pytest.raises(cf.DatasetError):
        cf.ForceDataset(
            d_um=np.array([]),
            force_udyne=np.array([]),
            sigma_udyne=np.array([]),
            n_samples=np.array([]),
            bin_width_um=np.array([]),
        )


def test_negative_bin_width_rejected_as_load_dataset_would(tmp_path):
    # a dataset save_dataset writes must load back, and load_dataset refuses w < 0
    with pytest.raises(cf.DatasetError, match="^all bin_width_um must be >= 0$"):
        cf.ForceDataset(
            d_um=np.array([1.0, 2.0, 3.0]),
            force_udyne=np.array([1.0, 2.0, 3.0]),
            sigma_udyne=np.array([0.1, 0.1, 0.1]),
            n_samples=np.array([1, 1, 1]),
            bin_width_um=np.array([0.1, -0.2, 0.1]),
        )


@pytest.mark.parametrize(
    "index, row, rule",
    [
        (0, "0.0, 420.0, 11.0, 10, 0.1", "d_um must be > 0"),
        (2, "1.0, 250.25, 8.0, 0, 0.1", "n_samples must be >= 1"),
        (2, "1.0, 250.25, 8.0, 10, -0.1", "bin_width_um must be >= 0"),
        (2, "1.0, 250.25, -8.0, 0, 0.1", "sigma_udyne must be > 0; n_samples must be >= 1"),
    ],
    ids=["d-zero", "n-zero", "width-negative", "two-rules"],
)
def test_broken_bin_names_path_and_line(index, row, rule, write_dataset_csv):
    rows = list(VALID_ROWS)
    rows[index] = row
    path = write_dataset_csv(rows)
    with pytest.raises(cf.DatasetError) as err:
        load_dataset(path)
    line = index + 2  # the header is line 1
    assert err.value.lines == [line]
    assert str(err.value) == f"{path}:{line}: {rule}"


@pytest.mark.parametrize(
    "column, values, message",
    [
        ("d_um", [0.0, 2.0, 3.0], "all d_um must be > 0"),
        ("sigma_udyne", [0.1, 0.0, 0.1], "all sigma_udyne must be > 0"),
        ("n_samples", [1, 0, 1], "all n_samples must be >= 1"),
    ],
)
def test_constructor_bin_rules(column, values, message):
    columns = dict(
        d_um=[1.0, 2.0, 3.0],
        force_udyne=[1.0, 2.0, 3.0],
        sigma_udyne=[0.1, 0.1, 0.1],
        n_samples=[1, 1, 1],
        bin_width_um=[0.1, 0.1, 0.1],
    )
    columns[column] = values
    with pytest.raises(cf.DatasetError, match=f"^{message}$"):
        cf.ForceDataset(**{name: np.array(v) for name, v in columns.items()})


def _read_each_line_with_csv(path, parse):
    """Header, rows and bad line numbers with every line split by the csv module: read_csv's reference."""
    header, rows, bad = None, {}, []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in next(csv.reader([line], skipinitialspace=True))]
        if header is None:
            header = fields
            continue
        try:
            if len(fields) != len(header):
                raise ValueError("field count")
            rows[lineno] = parse(fields)
        except ValueError:
            bad.append(lineno)
    return header, rows, bad


MIXED_LINES = [
    '# a comment, with "quotes"',
    'd_um,  "label, with comma" , note',
    "0.5, plain, x",
    '0.6, "quoted, comma", y',
    ' 0.7 ,  spaced  ,  "  padded  "',
    '0.8,"",',
    '0.9, a "b" c, z',
    '1.0, "x"y, z',
    "",
    "1.1,\ttab\t,\t",
]
MIXED_BAD = ["1.2, too, many, fields", '1.3, "one, field"', "oops, x, y", '"nan", x, y']


def test_read_csv_splits_plain_and_quoted_lines_as_the_csv_module_does(tmp_path):
    path = tmp_path / "mixed.csv"
    columns = ["d_um", "label, with comma", "note"]

    def parse(fields):
        value = float(fields[0])
        if value != value:
            raise ValueError("nan")
        return (value, *fields[1:])

    path.write_text("\n".join(MIXED_LINES) + "\n")
    header, rows = read_csv(path, columns, parse)
    assert (header, rows, []) == _read_each_line_with_csv(path, parse)
    assert rows[4] == (0.6, "quoted, comma", "y") and rows[10] == (1.1, "tab", "")
    path.write_text("\n".join(MIXED_LINES + MIXED_BAD) + "\n")
    with pytest.raises(cf.DatasetError) as err:
        read_csv(path, columns, parse)
    assert err.value.lines == _read_each_line_with_csv(path, parse)[2] == [11, 12, 13, 14]


def test_byte_order_mark_is_skipped(tmp_path):
    """A spreadsheet's UTF-8 byte-order mark before the header changes nothing that loads."""
    from casfluct.cli import _load_theory_curve

    texts = {
        "data": "\n".join(["d_um, force_udyne, sigma_udyne, n_samples, bin_width_um", *VALID_ROWS]),
        "theory": "d_um,F_udyne\n" + "".join(f"{d},{300.0 / d**3!r}\n" for d in (0.5, 1.0, 2.0, 4.0, 8.0)),
        "eps": "xi_ev,eps\n0.01,9e5\n0.1,9e3\n1.0,80.0\n10.0,1.8\n",
    }
    # each loaded object as the bytes of the arrays it holds
    loaders = {
        "data": lambda path: [column.tobytes() for column in vars(load_dataset(path)).values()],
        "theory": lambda path: [row.tobytes() for row in _load_theory_curve(path)._rows[0]],
        "eps": lambda path: [cf.load_eps_table(path).xi_ev.tobytes(), cf.load_eps_table(path).eps.tobytes()],
    }
    for name, text in texts.items():
        plain, marked = tmp_path / f"{name}.csv", tmp_path / f"{name}-bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert loaders[name](marked) == loaders[name](plain)
    bad = tmp_path / "bad-bom.csv"
    bad.write_text(texts["data"].replace(VALID_ROWS[2], "1.0, 250.0, 0.0, 10, 0.1"), encoding="utf-8-sig")
    with pytest.raises(cf.DatasetError, match=f"{bad}:4") as err:
        load_dataset(bad)
    assert err.value.lines == [4]
