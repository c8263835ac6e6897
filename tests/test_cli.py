"""Command-line behavior: flows, logs, exit codes, determinism."""

import copy
import csv
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdbpe.cli import main
from pdbpe import load_model
from pdbpe.data_io import read_features_csv


def _write_motif_corpus(tmp_path, n=16, length=48, seed=3):
    rng = np.random.default_rng(seed)
    data = tmp_path / "data.csv"
    labels = tmp_path / "labels.csv"
    with open(data, "w") as fh:
        fh.write("series_id,channel,t,value\n")
        for i in range(n):
            vals = rng.normal(size=length)
            if i % 2 == 0:
                vals[10:22] += 2.5
            for t, v in enumerate(vals):
                fh.write(f"s{i},hr,{t},{v:.6f}\n")
    with open(labels, "w") as fh:
        fh.write("series_id,label,group_id\n")
        for i in range(n):
            fh.write(f"s{i},{'a' if i % 2 == 0 else 'b'},g{i // 4}\n")
    return str(data), str(labels)


def test_discover_transform_round_trip(tmp_path, capsys):
    data, _ = _write_motif_corpus(tmp_path)
    model_path = tmp_path / "model.json"
    feats_path = tmp_path / "train.csv"
    code = main(["discover", "--data", data, "--k", "4", "--w", "3",
                 "--model-out", str(model_path),
                 "--features-out", str(feats_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "patterns," in out and "stop threshold" in out
    assert model_path.exists() and feats_path.exists()

    feats2 = tmp_path / "again.csv"
    code = main(["transform", "--model", str(model_path), "--data", data,
                 "--features-out", str(feats2)])
    assert code == 0
    assert feats_path.read_bytes() == feats2.read_bytes()


def test_discover_reports_pattern_and_feature_counts(tmp_path, capsys):
    # A single series cycling 0,1,2,3 eight times mines exactly six rules:
    # the three pair merges of the cycle, then three doubling merges of the
    # whole motif. Four base symbols plus six patterns = ten features.
    data = tmp_path / "cycle.csv"
    with open(data, "w") as fh:
        fh.write("series_id,channel,t,value\n")
        for t in range(32):
            fh.write(f"s0,x,{t},{float(t % 4)}\n")
    code = main(["discover", "--data", str(data), "--k", "4", "--w", "1",
                 "--variations", "original",
                 "--model-out", str(tmp_path / "m.json"),
                 "--features-out", str(tmp_path / "f.csv")])
    assert code == 0
    out = capsys.readouterr().out
    assert "6 patterns, 10 features" in out
    model = load_model(str(tmp_path / "m.json"))
    vocab = model.vocabularies[list(model.vocabularies)[0]]
    assert [r.train_frequency for r in vocab.rules] == [8, 8, 8, 4, 2, 1]


def test_config_file_with_flag_override(tmp_path):
    data, _ = _write_motif_corpus(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("K = 3\nW = 2\nvariations = original, rcs\n")
    code = main(["discover", "--data", data, "--config", str(cfg),
                 "--k", "4",
                 "--model-out", str(tmp_path / "m.json"),
                 "--features-out", str(tmp_path / "f.csv")])
    assert code == 0
    model = load_model(str(tmp_path / "m.json"))
    assert model.config.K == 4  # flag wins
    assert model.config.W == 2  # from file
    assert len(model.config.variations) == 2


def test_exit_codes(tmp_path, capsys):
    data, labels = _write_motif_corpus(tmp_path)
    # Usage error: missing required flag.
    assert main(["discover", "--data", data]) == 1
    # Usage error: K and W are required somewhere.
    assert main(["discover", "--data", data,
                 "--model-out", str(tmp_path / "m.json"),
                 "--features-out", str(tmp_path / "f.csv")]) == 1
    # Data error: file does not exist.
    assert main(["discover", "--data", str(tmp_path / "nope.csv"),
                 "--k", "4", "--w", "2",
                 "--model-out", str(tmp_path / "m.json"),
                 "--features-out", str(tmp_path / "f.csv")]) == 2
    # Data error: invalid hyperparameter.
    assert main(["discover", "--data", data, "--k", "1", "--w", "2",
                 "--model-out", str(tmp_path / "m.json"),
                 "--features-out", str(tmp_path / "f.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 105. MiB for an array with shape "
                 "(5244, 5244) and data type int32"),
     "pdbpe: data error: out of memory: Unable to allocate 105. MiB for an "
     "array with shape (5244, 5244) and data type int32"),
    (MemoryError(), "pdbpe: data error: out of memory")],
    ids=["numpy", "bare"])
def test_out_of_memory_is_one_line_data_error(tmp_path, capsys, monkeypatch,
                                              error, line):
    def fit_pipeline(*args, **kwargs):
        raise error
    monkeypatch.setattr("pdbpe.cli.fit_pipeline", fit_pipeline)
    data, _ = _write_motif_corpus(tmp_path)
    code = main(["discover", "--data", data, "--k", "4", "--w", "2",
                 "--model-out", str(tmp_path / "m.json"),
                 "--features-out", str(tmp_path / "f.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [line]
    assert "Traceback" not in err


def test_constant_data_is_numeric_error(tmp_path, capsys):
    data = tmp_path / "flat.csv"
    with open(data, "w") as fh:
        fh.write("series_id,channel,t,value\n")
        for s in range(3):
            for t in range(20):
                fh.write(f"s{s},x,{t},7.25\n")
    code = main(["discover", "--data", str(data), "--k", "4", "--w", "2",
                 "--model-out", str(tmp_path / "m.json"),
                 "--features-out", str(tmp_path / "f.csv")])
    assert code == 3
    assert "numeric error" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_inspect_top_patterns_and_spans(tmp_path, capsys):
    data, labels = _write_motif_corpus(tmp_path)
    model_path, feats_path = str(tmp_path / "m.json"), str(tmp_path / "f.csv")
    main(["discover", "--data", data, "--k", "4", "--w", "3",
          "--model-out", model_path, "--features-out", feats_path])
    capsys.readouterr()
    spans_path = tmp_path / "spans.csv"
    code = main(["inspect", "--model", model_path, "--features", feats_path,
                 "--labels", labels, "--data", data, "--top", "3",
                 "--period-minutes", "30", "--spans-out", str(spans_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "top 3 features by ANOVA F" in out
    assert "duration=" in out and "h)" in out  # 30 min periods reach hours
    lines = spans_path.read_text().splitlines()
    assert lines[0] == "feature,series_id,start,end"
    assert len(lines) > 1
    first = lines[1].split(",")
    assert int(first[2]) < int(first[3])


def test_spans_csv_quotes_ids(tmp_path, capsys):
    # Each id holds a character that must be quoted; every span row still
    # reads back as 4 fields carrying the id.
    rng = np.random.default_rng(3)
    ids = ["s,0", 's"1', "s\n2", "s\r3", "s4", "s5"]
    data, labels = tmp_path / "data.csv", tmp_path / "labels.csv"
    with open(data, "w", newline="") as dfh, \
            open(labels, "w", newline="") as lfh:
        dfh.write("series_id,channel,t,value\n")
        lfh.write("series_id,label\n")
        for i, sid in enumerate(ids):
            quoted = '"' + sid.replace('"', '""') + '"'
            vals = rng.normal(size=48)
            if i % 2 == 0:
                vals[10:22] += 2.5
            for t, v in enumerate(vals):
                dfh.write(f"{quoted},hr,{t},{v:.6f}\n")
            lfh.write(f"{quoted},{'a' if i % 2 == 0 else 'b'}\n")
    model_path, feats_path = str(tmp_path / "m.json"), str(tmp_path / "f.csv")
    spans_path = tmp_path / "spans.csv"
    assert main(["discover", "--data", str(data), "--k", "4", "--w", "3",
                 "--model-out", model_path, "--features-out", feats_path]) == 0
    assert main(["inspect", "--model", model_path, "--features", feats_path,
                 "--labels", str(labels), "--data", str(data), "--top", "1000",
                 "--spans-out", str(spans_path)]) == 0
    capsys.readouterr()
    with open(spans_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["feature", "series_id", "start", "end"]
    assert all(len(row) == 4 for row in rows)
    assert {row[1] for row in rows[1:]} == set(ids)


def test_inspect_summary_only_and_usage_errors(tmp_path, capsys):
    data, labels = _write_motif_corpus(tmp_path)
    model_path = str(tmp_path / "m.json")
    main(["discover", "--data", data, "--k", "4", "--w", "3",
          "--model-out", model_path, "--features-out", str(tmp_path / "f.csv")])
    capsys.readouterr()
    assert main(["inspect", "--model", model_path, "--top", "0"]) == 0
    out = capsys.readouterr().out
    assert "patterns identified" in out
    # Ranking needs features alongside labels.
    assert main(["inspect", "--model", model_path, "--labels", labels]) == 1
    # Spans need the raw data.
    assert main(["inspect", "--model", model_path,
                 "--spans-out", str(tmp_path / "s.csv")]) == 1
    capsys.readouterr()


def test_evaluate_report_is_deterministic(tmp_path, capsys):
    data, labels = _write_motif_corpus(tmp_path)
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    args = ["evaluate", "--data", data, "--labels", labels, "--k", "4",
            "--w", "3", "--folds", "4", "--seed", "7", "--knn-k", "3"]
    assert main(args + ["--report-out", str(r1)]) == 0
    assert main(args + ["--report-out", str(r2)]) == 0
    capsys.readouterr()
    assert r1.read_bytes() == r2.read_bytes()
    text = r1.read_text()
    assert "task: classification" in text
    assert "mean accuracy:" in text
    assert text.count("fold ") == 4


def test_evaluate_regression_autodetected(tmp_path, capsys):
    data, _ = _write_motif_corpus(tmp_path, n=12)
    labels = tmp_path / "reg_labels.csv"
    with open(labels, "w") as fh:
        fh.write("series_id,label\n")
        for i in range(12):
            fh.write(f"s{i},{i * 0.5}\n")
    report = tmp_path / "r.txt"
    code = main(["evaluate", "--data", data, "--labels", str(labels),
                 "--k", "4", "--w", "3", "--folds", "3",
                 "--report-out", str(report)])
    assert code == 0
    capsys.readouterr()
    text = report.read_text()
    assert "task: regression" in text
    assert "metric: rmse" in text
    assert "ridge" in text


def test_evaluate_metric_must_fit_task(tmp_path, capsys):
    data, _ = _write_motif_corpus(tmp_path, n=12)
    labels = tmp_path / "reg_labels.csv"
    with open(labels, "w") as fh:
        fh.write("series_id,label\n")
        for i in range(12):
            fh.write(f"s{i},{i * 0.5}\n")
    code = main(["evaluate", "--data", data, "--labels", str(labels),
                 "--k", "4", "--w", "3", "--folds", "3",
                 "--task", "regression", "--metric", "accuracy",
                 "--report-out", str(tmp_path / "r.txt")])
    assert code == 1
    assert "accuracy" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


def test_evaluate_group_aware_requires_groups(tmp_path, capsys):
    data, _ = _write_motif_corpus(tmp_path, n=12)
    labels = tmp_path / "nogroup.csv"
    with open(labels, "w") as fh:
        fh.write("series_id,label\n")
        for i in range(12):
            fh.write(f"s{i},{'a' if i % 2 else 'b'}\n")
    code = main(["evaluate", "--data", data, "--labels", str(labels),
                 "--k", "4", "--w", "3", "--folds", "3", "--group-aware",
                 "--report-out", str(tmp_path / "r.txt")])
    assert code == 2
    assert ("series 's0' has no group id; group-aware folds require one"
            in capsys.readouterr().err)
    # One blank group id among the others is named the same way.
    with open(labels, "w") as fh:
        fh.write("series_id,label,group_id\n")
        for i in range(12):
            group = "" if i == 7 else f"g{i // 2}"
            fh.write(f"s{i},{'a' if i % 2 else 'b'},{group}\n")
    code = main(["evaluate", "--data", data, "--labels", str(labels),
                 "--k", "4", "--w", "3", "--folds", "3", "--group-aware",
                 "--report-out", str(tmp_path / "r.txt")])
    assert code == 2
    assert "series 's7' has no group id" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


def test_evaluate_more_folds_than_groups_names_the_groups(tmp_path, capsys):
    data, _ = _write_motif_corpus(tmp_path)
    labels = tmp_path / "groups.csv"
    with open(labels, "w") as fh:
        fh.write("series_id,label,group_id\n")
        for i in range(16):
            fh.write(f"s{i},{'a' if i % 2 else 'b'},g{i}\n")
    code = main(["evaluate", "--data", data, "--labels", str(labels),
                 "--k", "4", "--w", "3", "--folds", "20", "--group-aware",
                 "--report-out", str(tmp_path / "r.txt")])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot deal 16 groups into 20 folds" in err
    assert "kfold_split" not in err
    assert not (tmp_path / "r.txt").exists()


def test_evaluate_grid_reports_per_fold_choice(tmp_path, capsys):
    data, labels = _write_motif_corpus(tmp_path)
    report = tmp_path / "r.txt"
    code = main(["evaluate", "--data", data, "--labels", labels,
                 "--k-grid", "3,4", "--w", "3", "--folds", "3",
                 "--inner-folds", "2", "--knn-k", "3",
                 "--report-out", str(report)])
    assert code == 0
    capsys.readouterr()
    text = report.read_text()
    assert "grid: K=[3, 4] W=[3]" in text
    for line in text.splitlines():
        if line.startswith("fold "):
            assert "K=3" in line or "K=4" in line


def test_transform_unknown_channel_fails(tmp_path, capsys):
    data, _ = _write_motif_corpus(tmp_path)
    model_path = str(tmp_path / "m.json")
    main(["discover", "--data", data, "--k", "4", "--w", "3",
          "--model-out", model_path, "--features-out", str(tmp_path / "f.csv")])
    other = tmp_path / "other.csv"
    with open(other, "w") as fh:
        fh.write("series_id,channel,t,value\n")
        for t in range(30):
            fh.write(f"q,resp,{t},{t * 0.1}\n")
    code = main(["transform", "--model", model_path, "--data", str(other),
                 "--features-out", str(tmp_path / "g.csv")])
    assert code == 2
    assert "channel" in capsys.readouterr().err


def _transform_corrupted_model(tmp_path, corrupt):
    """Run `pdbpe transform` in a subprocess with a freshly discovered model
    that corrupt(doc) has edited."""
    data, _ = _write_motif_corpus(tmp_path)
    model_path = tmp_path / "m.json"
    assert main(["discover", "--data", data, "--k", "4", "--w", "3",
                 "--model-out", str(model_path),
                 "--features-out", str(tmp_path / "f.csv")]) == 0
    doc = json.loads(model_path.read_text())
    corrupt(doc)
    model_path.write_text(json.dumps(doc))
    return subprocess.run([sys.executable, "-m", "pdbpe.cli", "transform",
                           "--model", str(model_path), "--data", data,
                           "--features-out", str(tmp_path / "g.csv")],
                          capture_output=True, text=True)


def test_transform_model_missing_key_is_data_error(tmp_path, capsys):
    r = _transform_corrupted_model(
        tmp_path, lambda doc: doc.pop("n_training_series"))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert "n_training_series" in r.stderr


def _left_out_of_range(rules):
    rules[0][1] = 999


def _left_is_later_symbol(rules):
    rules[0][1] = rules[3][0]


def _new_symbol_gap(rules):
    rules[2][0] = 500


@pytest.mark.parametrize("corrupt_rules", [
    _left_out_of_range, _left_is_later_symbol, _new_symbol_gap])
def test_transform_rejects_invalid_merge_rules(tmp_path, capsys, corrupt_rules):
    r = _transform_corrupted_model(
        tmp_path,
        lambda doc: corrupt_rules(doc["vocabularies"]["hr"]["original"]["rules"]))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert "vocabulary hr/original: rule" in r.stderr
    assert not (tmp_path / "g.csv").exists()


def _base_size_mismatch(doc):
    doc["vocabularies"]["hr"]["rcs"]["base_size"] = 7


def _view_missing(doc):
    del doc["vocabularies"]["hr"]["rcs"]


@pytest.mark.parametrize("corrupt,message", [
    (_base_size_mismatch, "vocabulary hr/rcs: base_size 7, expected 4"),
    (_view_missing, "vocabularies do not cover")])
def test_transform_rejects_invalid_vocabularies(tmp_path, capsys, corrupt,
                                                message):
    r = _transform_corrupted_model(tmp_path, corrupt)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert message in r.stderr


@pytest.mark.parametrize("flags", [
    ["--k-grid", "3,x"], ["--folds", "1"],
    ["--k-grid", "3,4", "--inner-folds", "1"], ["--knn-k", "0"]])
def test_evaluate_bad_flag_values_are_usage_errors(tmp_path, capsys, flags):
    data, labels = _write_motif_corpus(tmp_path, n=12)
    argv = ["evaluate", "--data", data, "--labels", labels, "--k", "4",
            "--w", "3", "--folds", "3", "--report-out",
            str(tmp_path / "r.txt")]
    code = main(argv + flags)
    assert code == 1
    assert capsys.readouterr().err.startswith("pdbpe: error: ")
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("task_flags,flags", [
    ([], ["--knn-k", "0"]), (["--task", "regression"], ["--knn-k", "0"]),
    ([], ["--inner-folds", "1"]),
    ([], ["--k-grid", "4,4", "--inner-folds", "1"])],
    ids=["auto-knn-k", "regression-knn-k", "single-point-inner-folds",
         "repeated-point-inner-folds"])
def test_evaluate_ignores_flags_the_run_does_not_use(tmp_path, capsys,
                                                     task_flags, flags):
    # Ridge regression has no k-NN; one (K, W) point has no inner split.
    data, _ = _write_motif_corpus(tmp_path, n=12)
    labels = tmp_path / "reg_labels.csv"
    with open(labels, "w") as fh:
        fh.write("series_id,label\n")
        for i in range(12):
            fh.write(f"s{i},{i * 0.5}\n")
    report = tmp_path / "r.txt"
    code = main(["evaluate", "--data", data, "--labels", str(labels),
                 "--k", "4", "--w", "3", "--folds", "3",
                 "--report-out", str(report)] + task_flags + flags)
    assert code == 0, capsys.readouterr().err
    assert "task: regression" in report.read_text()


def _evaluate_rejected(tmp_path, capsys, monkeypatch, labels, flags):
    """Run evaluate with fitting disabled; return (exit code, stderr)."""
    data, class_labels = _write_motif_corpus(tmp_path, n=12)
    if labels is not None:
        with open(tmp_path / "own_labels.csv", "w", encoding="utf-8") as fh:
            fh.write("series_id,label\n")
            for i, label in enumerate(labels):
                fh.write(f"s{i},{label}\n")
        class_labels = str(tmp_path / "own_labels.csv")

    def no_fit(*args, **kwargs):
        raise AssertionError("fit_pipeline was called")

    monkeypatch.setattr("pdbpe.evaluate.fit_pipeline", no_fit)
    code = main(["evaluate", "--data", data, "--labels", class_labels,
                 "--k", "4", "--w", "3", "--folds", "3",
                 "--report-out", str(tmp_path / "r.txt")] + flags)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not (tmp_path / "r.txt").exists()
    return code, err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_evaluate_non_finite_regression_label_is_data_error(
        tmp_path, capsys, monkeypatch, bad):
    labels = [str(i % 3) for i in range(12)]
    labels[5] = bad
    code, err = _evaluate_rejected(tmp_path, capsys, monkeypatch, labels, [])
    assert code == 2
    assert f"series 's5': label '{bad}' is not a finite number" in err


@pytest.mark.parametrize("lam", ["nan", "-1", "inf"])
def test_evaluate_bad_ridge_lambda_is_usage_error(tmp_path, capsys,
                                                  monkeypatch, lam):
    labels = [str(i * 0.5) for i in range(12)]
    code, err = _evaluate_rejected(tmp_path, capsys, monkeypatch, labels,
                                   ["--ridge-lambda", lam])
    assert code == 1
    assert err.startswith("pdbpe: error: ") and "ridge_lambda" in err


@pytest.mark.parametrize("flags,size", [
    (["--knn-k", "1000"], 8),
    (["--knn-k", "1000", "--metric", "auc"], 8),
    (["--knn-k", "5", "--k-grid", "3,4", "--inner-folds", "2"], 4)],
    ids=["accuracy", "auc", "inner-plan"])
def test_evaluate_knn_k_above_smallest_training_split_is_data_error(
        tmp_path, capsys, monkeypatch, flags, size):
    code, err = _evaluate_rejected(tmp_path, capsys, monkeypatch, None, flags)
    assert code == 2
    assert f"knn_k={flags[1]} exceeds the smallest training split, " \
           f"{size} series" in err


def test_evaluate_positive_label_no_series_carries_is_data_error(
        tmp_path, capsys, monkeypatch):
    code, err = _evaluate_rejected(tmp_path, capsys, monkeypatch, None,
                                   ["--metric", "auc", "--positive-label", "zz"])
    assert code == 2
    assert "positive label 'zz' is carried by no series" in err


def _extra_discretizer(doc):
    doc["discretizers"]["spare"] = doc["discretizers"]["hr"]




def test_transform_ignores_extra_discretizer(tmp_path, capsys):
    r = _transform_corrupted_model(tmp_path, _extra_discretizer)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()


@pytest.mark.parametrize("table,what", [
    ("discretizers", "discretizer"), ("rcsm_medians", "run-length medians")])
def test_transform_rejects_missing_channel_tables(tmp_path, capsys, table,
                                                  what):
    r = _transform_corrupted_model(tmp_path,
                                   lambda doc: doc[table].pop("hr"))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert f"no {what} for mined channels ['hr']" in r.stderr


@pytest.mark.parametrize("mask", ["variance_kept", "final_kept"])
def test_transform_rejects_pruning_mask_of_wrong_length(tmp_path, capsys,
                                                        mask):
    r = _transform_corrupted_model(
        tmp_path, lambda doc: doc["schema"][mask].__delitem__(slice(-3, None)))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert f"schema {mask} has" in r.stderr
    assert not (tmp_path / "g.csv").exists()


def _edges(change):
    def corrupt(doc):
        disc = doc["discretizers"]["hr"]
        disc["edges"] = change(disc["edges"])
    return corrupt


_BAD_EDGES = "discretizer hr: bin edges must be 5 finite, non-decreasing"


def _other_k(doc):
    # K 3 with 4 edges is a valid discretizer, but not for a K=4 model.
    disc = doc["discretizers"]["hr"]
    disc["K"], disc["edges"] = 3, disc["edges"][:4]


@pytest.mark.parametrize("corrupt,message", [
    (_edges(lambda e: e[:1]), _BAD_EDGES),
    (_edges(lambda e: e[:-1]), _BAD_EDGES),
    (_edges(lambda e: e[::-1]), _BAD_EDGES),
    (_other_k, "discretizer hr: K 3, expected 4")],
    ids=["one-edge", "k-edges", "descending", "other-k"])
def test_transform_rejects_degenerate_bin_edges(tmp_path, capsys, corrupt,
                                                message):
    r = _transform_corrupted_model(tmp_path, corrupt)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert message in r.stderr
    assert not (tmp_path / "g.csv").exists()


_DELETE = object()


def _set(*path, value):
    """Corruption that sets the value at path, or deletes it for _DELETE."""
    def corrupt(doc):
        for key in path[:-1]:
            doc = doc[key]
        if value is _DELETE:
            del doc[path[-1]]
        else:
            doc[path[-1]] = value
    return corrupt


def _rename_mined_channel(doc):
    # Every copy of the mined channel is renamed; the data channel is not.
    renamed = json.loads(json.dumps(doc).replace('"hr', '"zz'))
    doc.update(renamed, channels=doc["channels"])


def _two_entry_rule(doc):
    rules = doc["vocabularies"]["hr"]["original"]["rules"]
    rules[0] = rules[0][:2]


def _doubling_chain(doc):
    # 40 supported rules (s, s) whose last pattern is 2**40 symbols long.
    vocab = doc["vocabularies"]["hr"]["original"]
    rules = vocab["rules"]
    for _ in range(40):
        top = vocab["base_size"] + len(rules) - 1
        rules.append([top + 1, top, top, 10**6, 10**6])


_COLUMNS = "schema columns differ"


@pytest.mark.parametrize("corrupt,message", [
    (_set("schema", "columns", -1, "symbol", value=999), _COLUMNS),
    (_set("schema", "columns", 0, "name", value="hr.original.S9"), _COLUMNS),
    (_set("schema", "columns", 0, "channel", value=["hr"]), _COLUMNS),
    (_set("config", "multivariate_mode", value="whiten_collapse"),
     "mined_channels differ from ['combined']"),
    (_rename_mined_channel, "mined_channels differ from ['hr']"),
    (_two_entry_rule, "malformed model artifact"),
    (lambda doc: doc["schema"].update(variance_kept=None, final_kept=None),
     "malformed model artifact"),
    (_doubling_chain, "schema columns are shorter than the supported patterns"),
    (_set("rcsm_medians", "hr", "1", value=-5), "run-length medians must map"),
    (_set("rcsm_medians", "hr", "4", value=2), "run-length medians must map"),
    (_set("config", "W", value=3.5), "W must be an integer")],
    ids=["symbol-999", "renamed-column", "channel-list", "mode-flipped",
         "mined-channel-renamed", "two-entry-rule", "null-masks",
         "doubling-chain", "negative-median", "median-symbol-beyond-K",
         "fractional-W"])
def test_transform_rejects_artifact_that_differs_from_its_derivation(
        tmp_path, capsys, corrupt, message):
    start = time.perf_counter()
    r = _transform_corrupted_model(tmp_path, corrupt)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert message in r.stderr
    assert not (tmp_path / "g.csv").exists()
    # Includes the discover run; expanding the doubling chain would not end.
    assert time.perf_counter() - start < 2


_POOL = [_DELETE, None, -1, 0, 999, 2**70, 1.5, "x", "", [], {}, [[1, 2]],
         True, False]


def _json_paths(node, path=()):
    """Path of every value below node, as key/index tuples."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


@pytest.fixture(scope="module")
def centroid_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("artifact")
    data, labels = _write_motif_corpus(tmp)
    model = tmp / "m.json"
    assert main(["discover", "--data", data, "--labels", labels, "--k", "4",
                 "--w", "3", "--centroids", "--model-out", str(model),
                 "--features-out", str(tmp / "f.csv")]) == 0
    return tmp, data, labels, json.loads(model.read_text())


def test_transform_never_raises_on_a_corrupted_artifact(centroid_model):
    tmp, data, labels, doc = centroid_model
    # Sections first, so the long column list does not crowd out the rest.
    sections = {key: [p for p in _json_paths(doc) if p[0] == key]
                for key in doc}
    argv = ["transform", "--model", str(tmp / "bad.json"), "--data", data,
            "--labels", labels, "--features-out", str(tmp / "g.csv")]

    @settings(derandomize=True, deadline=None, max_examples=200,
              database=None)
    @given(st.data())
    def check(draw):
        section = draw.draw(st.sampled_from(sorted(sections)))
        path = draw.draw(st.sampled_from(sections[section]))
        value = draw.draw(st.sampled_from(_POOL))
        bad = copy.deepcopy(doc)
        _set(*path, value=value)(bad)
        (tmp / "bad.json").write_text(json.dumps(bad))
        assert main(argv) in (0, 2)

    check()


def test_centroid_flow_through_cli(tmp_path, capsys):
    data, labels = _write_motif_corpus(tmp_path)
    model_path = str(tmp_path / "m.json")
    feats = tmp_path / "f.csv"
    code = main(["discover", "--data", data, "--labels", labels,
                 "--k", "4", "--w", "3", "--centroids",
                 "--model-out", model_path, "--features-out", str(feats)])
    assert code == 0
    capsys.readouterr()
    matrix = read_features_csv(str(feats))
    assert any(n.startswith("centroid.") for n in matrix.names)
    # Transforming needs group ids too: without labels it must fail.
    code = main(["transform", "--model", model_path, "--data", data,
                 "--features-out", str(tmp_path / "g.csv")])
    assert code == 2
    code = main(["transform", "--model", model_path, "--data", data,
                 "--labels", labels, "--features-out", str(tmp_path / "g.csv")])
    assert code == 0
    assert feats.read_bytes() == (tmp_path / "g.csv").read_bytes()
    capsys.readouterr()


def test_centroid_transform_names_the_series_without_a_group(centroid_model,
                                                             capsys):
    tmp, data, labels, _ = centroid_model
    rows = open(labels).read().splitlines()
    # Blank the group ids of s5 and s6 (rows 6 and 7 after the header).
    for i in (6, 7):
        rows[i] = rows[i].rsplit(",", 1)[0] + ","
    blanked = tmp / "blanked.csv"
    blanked.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    code = main(["transform", "--model", str(tmp / "m.json"), "--data", data,
                 "--labels", str(blanked), "--features-out", str(tmp / "g.csv")])
    assert code == 2
    assert "series 's5' has no group id" in capsys.readouterr().err


def test_oversized_csv_field_is_data_error(tmp_path, capsys):
    data, _ = _write_motif_corpus(tmp_path)
    model, feats = str(tmp_path / "m.json"), str(tmp_path / "f.csv")
    assert main(["discover", "--data", data, "--k", "4", "--w", "3",
                 "--model-out", model, "--features-out", feats]) == 0
    big = "9" * 200_000
    bad_data = tmp_path / "bad.csv"
    bad_data.write_text(f"series_id,channel,t,value\ns0,hr,0,1.0\ns0,hr,1,{big}\n")
    bad_labels = tmp_path / "bad_labels.csv"
    bad_labels.write_text(f"series_id,label\ns0,{big}\n")
    capsys.readouterr()
    assert main(["discover", "--data", str(bad_data), "--k", "4", "--w", "3",
                 "--model-out", str(tmp_path / "m2.json"),
                 "--features-out", str(tmp_path / "f2.csv")]) == 2
    assert "bad.csv:3: malformed CSV" in capsys.readouterr().err
    assert main(["inspect", "--model", model, "--features", feats,
                 "--labels", str(bad_labels)]) == 2
    assert "bad_labels.csv:2: malformed CSV" in capsys.readouterr().err


def test_deeply_nested_model_file_is_data_error(tmp_path, capsys):
    data, _ = _write_motif_corpus(tmp_path)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main(["transform", "--model", str(deep), "--data", data,
                 "--features-out", str(tmp_path / "g.csv")]) == 2
    assert "deep.json: not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("mode", ["per_channel", "whiten_collapse"])
def test_values_too_large_to_normalize_are_numeric_error(tmp_path, capsys,
                                                         mode):
    rng = np.random.default_rng(4)
    data = tmp_path / "data.csv"
    with open(data, "w") as fh:
        fh.write("series_id,channel,t,value\n")
        for i in range(6):
            for ch in ("hr", "bp"):
                scale = 1e200 if (i, ch) == (2, "hr") else 1.0
                for t, v in enumerate(rng.normal(size=30) * scale):
                    fh.write(f"s{i},{ch},{t},{float(v)!r}\n")
    assert main(["discover", "--data", str(data), "--k", "4", "--w", "2",
                 "--multivariate-mode", mode,
                 "--model-out", str(tmp_path / "m.json"),
                 "--features-out", str(tmp_path / "f.csv")]) == 3
    assert "series 's2': values too large to" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


# Fields that a hostile or damaged data CSV may hold.
_BAD_FIELDS = ["9" * 200_000, str(2**24), str(10**13), "-1", "x", "nan",
               "inf", "1e200", "1e308"]


def test_data_csv_fuzz_exits_0_2_or_3(tmp_path, capsys):
    data, model = tmp_path / "data.csv", str(tmp_path / "m.json")
    feats, again = tmp_path / "f.csv", tmp_path / "g.csv"

    @settings(derandomize=True, deadline=None, max_examples=200,
              database=None)
    @given(n_series=st.integers(1, 6), channels=st.sampled_from(["hr", "hr,bp"]),
           bad_rate=st.sampled_from([0.0, 0.0, 0.01, 0.05]),
           seed=st.integers(0, 2**32 - 1))
    def check(n_series, channels, bad_rate, seed):
        rng = np.random.default_rng(seed)
        rows = []
        for i in range(n_series):
            length = int(rng.integers(1, 31))
            for ch in channels.split(","):
                wave = np.sin(np.arange(length) * rng.uniform(0.1, 1.0))
                for t, v in enumerate(wave + rng.normal(0, 0.3, length)):
                    # Gaps, but the last sample fixes the series' length.
                    if t == length - 1 or rng.random() > 0.1:
                        rows.append([f"s{i}", ch, str(t), repr(float(v))])
        for row in rows:
            if rng.random() < bad_rate:
                row[int(rng.integers(2, 4))] = str(rng.choice(_BAD_FIELDS))
        data.write_text("series_id,channel,t,value\n"
                        + "".join(",".join(r) + "\n" for r in rows))
        for mode in ("per_channel", "whiten_collapse"):
            code = main(["discover", "--data", str(data), "--k", "4",
                         "--w", "2", "--multivariate-mode", mode,
                         "--model-out", model, "--features-out", str(feats)])
            assert code in (0, 2, 3)
            if code == 0:
                assert main(["transform", "--model", model, "--data",
                             str(data), "--features-out", str(again)]) == 0
                assert again.read_bytes() == feats.read_bytes()
        capsys.readouterr()

    check()
