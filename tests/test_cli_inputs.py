"""CLI input edges: config-file values, missing K and W, --min-observed,
data with no series, and the error paths of the labels and feature CSV
readers. Each pins the exit code and the whole message."""

import numpy as np
import pytest

from pdbpe import load_model
from pdbpe.cli import main
from pdbpe.data_io import read_features_csv


def _write_data(path, ids, length=40, seed=5):
    rng = np.random.default_rng(seed)
    with open(path, "w") as fh:
        fh.write("series_id,channel,t,value\n")
        for i, sid in enumerate(ids):
            vals = rng.normal(size=length)
            if i % 2 == 0:
                vals[8:20] += 2.5
            for t, v in enumerate(vals):
                fh.write(f"{sid},hr,{t},{v:.6f}\n")
    return str(path)


def _write_text(path, text):
    path.write_text(text)
    return str(path)


IDS = [f"s{i}" for i in range(12)]
LABELS = "series_id,label,group_id\n" + "".join(
    f"{sid},{'ab'[i % 2]},g{i // 3}\n" for i, sid in enumerate(IDS))


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """(data, labels, model, features) paths of one discover run."""
    root = tmp_path_factory.mktemp("fitted")
    data = _write_data(root / "data.csv", IDS)
    labels = _write_text(root / "labels.csv", LABELS)
    model, features = str(root / "m.json"), str(root / "f.csv")
    assert main(["discover", "--data", data, "--k", "4", "--w", "2",
                 "--model-out", model, "--features-out", features]) == 0
    return data, labels, model, features


def _discover(tmp_path, data, *flags):
    return main(["discover", "--data", data,
                 "--model-out", str(tmp_path / "m.json"),
                 "--features-out", str(tmp_path / "f.csv"), *flags])


def _evaluate(tmp_path, data, labels, *flags):
    return main(["evaluate", "--data", data, "--labels", labels,
                 "--folds", "2", "--knn-k", "1",
                 "--report-out", str(tmp_path / "r.txt"), *flags])


# ---------------------------------------------------------------------------
# Config files

@pytest.mark.parametrize("text, message", [
    ("K = x\nW = 2\n", "config K: expected an integer, got 'x'"),
    ("K = 4\nW = 2.5\n", "config W: expected an integer, got '2.5'"),
    ("K = 4\nW = 2\nP = y\n", "config P: expected a number, got 'y'"),
    ("K = 4\nW = 2\ncorrelation_threshold = high\n",
     "config correlation_threshold: expected a number, got 'high'"),
    ("K = 4\nW = 2\nvariations = ,\n", "variations: empty list"),
    ("K = 4\nW = 2\nvariations = original, bogus\n",
     "unknown variation 'bogus'; expected one of autoregressive, original, "
     "rcs, rcsm"),
    ("K = 4\nW = 2\nmultivariate_mode = Nope\n",
     "unknown multivariate mode 'Nope'"),
])
def test_bad_config_value_is_data_error(tmp_path, capsys, text, message):
    data = _write_data(tmp_path / "data.csv", IDS)
    cfg = _write_text(tmp_path / "run.cfg", text)
    assert _discover(tmp_path, data, "--config", cfg) == 2
    assert capsys.readouterr().err == f"pdbpe: data error: {message}\n"
    assert not (tmp_path / "m.json").exists()


def test_unknown_config_key_and_empty_key_are_data_errors(tmp_path, capsys):
    data = _write_data(tmp_path / "data.csv", IDS)
    cfg = _write_text(tmp_path / "run.cfg", "K = 4\nW = 2\nzeta = 1\nalpha = 2\n")
    assert _discover(tmp_path, data, "--config", cfg) == 2
    assert capsys.readouterr().err == (
        f"pdbpe: data error: {cfg}: unknown config keys ['alpha', 'zeta']\n")
    cfg = _write_text(tmp_path / "run.cfg", "# run\nK = 4\n = 3\n")
    assert _discover(tmp_path, data, "--config", cfg) == 2
    assert capsys.readouterr().err == f"pdbpe: data error: {cfg}:3: empty key\n"


def test_config_values_match_the_same_flags(tmp_path, capsys):
    data = _write_data(tmp_path / "data.csv", IDS)
    cfg = _write_text(tmp_path / "run.cfg",
                      "K = 4\nW = 2\nP = 0.2\nU = 0.001\n"
                      "correlation_threshold = 0.9\niqr_multiplier = 2\n"
                      "variations = RCS, original\n"
                      "multivariate_mode = WHITEN_COLLAPSE\n")
    assert _discover(tmp_path, data, "--config", cfg) == 0
    from_file = (tmp_path / "m.json").read_bytes()
    # Names match without regard to case, in a flag as in the file.
    for mode in ("whiten_collapse", "WHITEN_COLLAPSE"):
        assert _discover(tmp_path, data, "--k", "4", "--w", "2", "--p", "0.2",
                         "--u", "0.001", "--corr-threshold", "0.9",
                         "--iqr-multiplier", "2", "--variations",
                         "rcs,original", "--multivariate-mode", mode) == 0
        assert (tmp_path / "m.json").read_bytes() == from_file
    capsys.readouterr()


@pytest.mark.parametrize("flags, message", [
    (["--variations", "original,bogus"],
     "unknown variation 'bogus'; expected one of autoregressive, original, "
     "rcs, rcsm"),
    (["--multivariate-mode", "Nope"], "unknown multivariate mode 'Nope'"),
])
def test_bad_name_flag_is_data_error_as_in_a_config_file(tmp_path, capsys,
                                                         flags, message):
    data = _write_data(tmp_path / "data.csv", IDS)
    assert _discover(tmp_path, data, "--k", "4", "--w", "2", *flags) == 2
    assert capsys.readouterr().err == f"pdbpe: data error: {message}\n"
    assert not (tmp_path / "m.json").exists()


# ---------------------------------------------------------------------------
# evaluate without K or W

@pytest.mark.parametrize("flags, message", [
    (["--w", "2"], "provide --k, --k-grid, or K in a config file"),
    (["--k", "4"], "provide --w, --w-grid, or W in a config file"),
    (["--w-grid", "2,3"], "provide --k, --k-grid, or K in a config file"),
])
def test_evaluate_without_k_or_w_is_usage_error(tmp_path, capsys, fitted,
                                                flags, message):
    data, labels, _, _ = fitted
    assert _evaluate(tmp_path, data, labels, *flags) == 1
    assert capsys.readouterr().err == f"pdbpe: error: {message}\n"
    assert not (tmp_path / "r.txt").exists()


def test_evaluate_takes_w_from_a_config_file(tmp_path, capsys, fitted):
    data, labels, _, _ = fitted
    cfg = _write_text(tmp_path / "run.cfg", "W = 2\n")
    assert _evaluate(tmp_path, data, labels, "--config", cfg) == 1
    assert capsys.readouterr().err == (
        "pdbpe: error: provide --k, --k-grid, or K in a config file\n")
    assert _evaluate(tmp_path, data, labels, "--config", cfg,
                     "--k", "4") == 0
    assert "grid: K=[4] W=[2]" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# --min-observed

def _data_with_short_series(tmp_path):
    """IDS at 40 samples, then two series of 5 samples each."""
    data = _write_data(tmp_path / "data.csv", IDS)
    with open(data, "a") as fh:
        for sid in ("short0", "short1"):
            for t in range(5):
                fh.write(f"{sid},hr,{t},{t * 0.5}\n")
    return data


def test_discover_min_observed_drops_short_series(tmp_path, capsys):
    data = _data_with_short_series(tmp_path)
    assert _discover(tmp_path, data, "--k", "4", "--w", "2",
                     "--min-observed", "10") == 0
    out = capsys.readouterr().out
    assert out.startswith("dropped 2 series below 10 observed timesteps\n"
                          "read 12 series, channels: hr\n")
    assert read_features_csv(str(tmp_path / "f.csv")).ids == tuple(IDS)
    assert load_model(str(tmp_path / "m.json")).n_training_series == 12
    # Nothing is dropped at the shortest series' own count.
    assert _discover(tmp_path, data, "--k", "4", "--w", "2",
                     "--min-observed", "5") == 0
    assert capsys.readouterr().out.startswith("read 14 series")


def test_evaluate_min_observed_drops_short_series(tmp_path, capsys):
    data = _data_with_short_series(tmp_path)
    labels = _write_text(tmp_path / "labels.csv",
                         LABELS + "short0,a,g9\nshort1,b,g9\n")
    assert _evaluate(tmp_path, data, labels, "--k", "4", "--w", "2",
                     "--min-observed", "10") == 0
    out = capsys.readouterr().out
    assert out.startswith("dropped 2 series below 10 observed timesteps\n"
                          "pdbpe evaluation report\n")
    assert "series evaluated: 12 (unlabeled dropped: 0)\n" in out
    assert "series evaluated: 12 " in (tmp_path / "r.txt").read_text()


# ---------------------------------------------------------------------------
# Data with no series

def test_data_with_only_a_header_has_no_series(tmp_path, capsys, fitted):
    _, labels, model, _ = fitted
    data = _write_text(tmp_path / "data.csv", "series_id,channel,t,value\n")
    assert _discover(tmp_path, data, "--k", "4", "--w", "2") == 2
    assert capsys.readouterr().err == "pdbpe: data error: no series to fit on\n"
    assert main(["transform", "--model", model, "--data", data,
                 "--features-out", str(tmp_path / "f.csv")]) == 2
    assert capsys.readouterr().err == (
        "pdbpe: data error: no series to transform\n")
    assert _evaluate(tmp_path, data, labels, "--k", "4", "--w", "2") == 2
    assert capsys.readouterr().err == (
        "pdbpe: data error: no labeled series to evaluate\n")
    assert not any(tmp_path.glob("[mfr].*"))


def test_empty_data_file_is_data_error(tmp_path, capsys):
    data = _write_text(tmp_path / "data.csv", "")
    assert _discover(tmp_path, data, "--k", "4", "--w", "2") == 2
    assert capsys.readouterr().err == (
        f"pdbpe: data error: {data}: empty file, expected header "
        f"series_id,channel,t,value\n")


# ---------------------------------------------------------------------------
# Labels CSV

@pytest.mark.parametrize("text, message", [
    ("", "{path}: empty labels file"),
    ("series_id,lab\ns0,a\n", "{path}:1: bad header ['series_id', 'lab'], "
     "expected series_id,label[,group_id]"),
    ("series_id,label\ns0,a\n ,b\n", "{path}:3: empty series_id"),
    ("series_id,label\ns0, \n", "{path}:2: empty label"),
], ids=["empty", "header", "series-id", "label"])
def test_bad_labels_file_is_data_error(tmp_path, capsys, fitted, text,
                                       message):
    data = fitted[0]
    labels = _write_text(tmp_path / "labels.csv", text)
    expected = f"pdbpe: data error: {message.format(path=labels)}\n"
    assert _discover(tmp_path, data, "--k", "4", "--w", "2",
                     "--labels", labels) == 2
    assert capsys.readouterr().err == expected
    assert _evaluate(tmp_path, data, labels, "--k", "4", "--w", "2") == 2
    assert capsys.readouterr().err == expected
    assert not any(tmp_path.glob("[mfr].*"))


def test_blank_line_in_labels_file_is_skipped(tmp_path, capsys, fitted):
    data = fitted[0]
    lines = LABELS.splitlines(keepends=True)
    gappy = _write_text(tmp_path / "gappy.csv",
                        "".join(lines[:4] + ["\n"] + lines[4:] + ["\n"]))
    assert _discover(tmp_path, data, "--k", "4", "--w", "2", "--labels",
                     gappy, "--centroids") == 0
    with_gaps = (tmp_path / "f.csv").read_bytes()
    plain = _write_text(tmp_path / "labels.csv", LABELS)
    assert _discover(tmp_path, data, "--k", "4", "--w", "2", "--labels",
                     plain, "--centroids") == 0
    assert (tmp_path / "f.csv").read_bytes() == with_gaps
    capsys.readouterr()


# ---------------------------------------------------------------------------
# inspect's feature CSV

def _inspect(fitted, features, labels=None):
    _, fitted_labels, model, _ = fitted
    return main(["inspect", "--model", model, "--features", features,
                 "--labels", labels or fitted_labels, "--top", "3"])


def test_inspect_labels_naming_no_feature_row_is_data_error(
        tmp_path, capsys, fitted):
    labels = _write_text(tmp_path / "labels.csv",
                         "series_id,label\nx0,a\nx1,b\n")
    assert _inspect(fitted, fitted[3], labels) == 2
    assert capsys.readouterr().err == (
        "pdbpe: data error: no feature rows have labels\n")


def _edited_features(tmp_path, fitted, edit):
    """fitted's feature CSV with edit applied to its list of lines."""
    with open(fitted[3]) as fh:
        lines = fh.read().splitlines(keepends=True)
    return _write_text(tmp_path / "features.csv", "".join(edit(lines)))


def _set_field(line, i, text):
    """line with its field i replaced by text."""
    fields = line.split(",")
    fields[i] = text
    return ",".join(fields)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: ["id" + lines[0][len("series_id"):]] + lines[1:],
     "{path}: not a feature CSV (missing series_id header)"),
    (lambda lines: [], "{path}: not a feature CSV (missing series_id header)"),
    (lambda lines: lines[:2] + [lines[2].rstrip("\n") + ",1\n"] + lines[3:],
     "{path}:3: expected {n} fields, got {m}"),
    (lambda lines: lines[:1] + [lines[1].split(",")[0] + ",abc,"
                                + ",".join(lines[1].split(",")[2:])]
     + lines[2:],
     "{path}:2: bad value: could not convert string to float: 'abc'"),
    (lambda lines: lines[:1] + [_set_field(lines[1], 1, "nan"),
                                _set_field(lines[2], 2, "inf")] + lines[3:],
     "{path}:2: value must be finite, got 'nan'"),
    (lambda lines: lines[:2] + [_set_field(lines[2], 3, "-Infinity")]
     + lines[3:],
     "{path}:3: value must be finite, got '-Infinity'"),
    (lambda lines: lines[:3] + [_set_field(lines[3], 1, "1e999")] + lines[4:],
     "{path}:4: value must be finite, got '1e999'"),
], ids=["header", "empty", "field-count", "value", "nan", "inf", "overflow"])
def test_bad_feature_csv_is_data_error(tmp_path, capsys, fitted, edit,
                                       message):
    path = _edited_features(tmp_path, fitted, edit)
    n = len(read_features_csv(fitted[3]).names) + 1
    assert _inspect(fitted, path) == 2
    assert capsys.readouterr().err == "pdbpe: data error: " + message.format(
        path=path, n=n, m=n + 1) + "\n"


def test_blank_line_in_feature_csv_is_skipped(tmp_path, capsys, fitted):
    assert _inspect(fitted, fitted[3]) == 0
    plain = capsys.readouterr().out
    path = _edited_features(tmp_path, fitted,
                            lambda lines: lines[:3] + ["\n"] + lines[3:])
    assert _inspect(fitted, path) == 0
    assert capsys.readouterr().out == plain
    assert "top 3 features by ANOVA F:" in plain
