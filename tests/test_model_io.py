"""Model artifact round trips and fingerprints."""

import json

import numpy as np
import pytest

from pdbpe import (DataError, PipelineConfig, fit_pipeline, load_model,
                   save_model, transform_dataset)
from pdbpe.model_io import (FORMAT_NAME, FORMAT_VERSION, fingerprint_model,
                            model_from_dict, model_to_dict)
from synth import random_dataset


def _fitted(tmp_path, centroids=False, seed=0):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n_series=8, n_channels=2, length=48,
                        with_groups=centroids)
    model, matrix = fit_pipeline(ds, PipelineConfig(K=4, W=3),
                                 centroids=centroids)
    return ds, model, matrix


def test_round_trip_preserves_transform_exactly(tmp_path):
    ds, model, matrix = _fitted(tmp_path)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    out = transform_dataset(loaded, ds)
    assert out.names == matrix.names
    assert np.array_equal(out.values, matrix.values)
    assert fingerprint_model(loaded) == fingerprint_model(model)


def test_save_load_save_is_byte_stable(tmp_path):
    _, model, _ = _fitted(tmp_path, seed=1)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(model, str(p1))
    save_model(load_model(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_keeps_centroid_flag(tmp_path):
    ds, model, matrix = _fitted(tmp_path, centroids=True, seed=2)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    assert json.loads(path.read_text())["centroids"] is True
    loaded = load_model(str(path))
    assert loaded.centroids is True
    out = transform_dataset(loaded, ds)
    assert out.names == matrix.names
    assert np.array_equal(out.values, matrix.values)


def test_legacy_centroid_table_loads_as_flag(tmp_path):
    ds, model, matrix = _fitted(tmp_path, centroids=True, seed=2)
    doc = model_to_dict(model)
    # Earlier artifacts stored one mean vector per training group; their
    # values were never read.
    doc["centroids"] = {"g0": [0.5] * 3, "nobody": [0.0]}
    loaded = model_from_dict(doc)
    assert loaded.centroids is True
    assert np.array_equal(transform_dataset(loaded, ds).values, matrix.values)
    doc["centroids"] = False
    assert model_from_dict(doc).centroids is False
    del doc["centroids"]
    assert model_from_dict(doc).centroids is False
    for bad in (None, [], 1, 0, "x"):
        doc["centroids"] = bad
        with pytest.raises(DataError, match="centroids must be true or false"):
            model_from_dict(doc)


def test_artifact_is_versioned_json(tmp_path):
    _, model, _ = _fitted(tmp_path, seed=3)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    doc = json.loads(path.read_text())
    assert doc["format"] == FORMAT_NAME
    assert doc["format_version"] == FORMAT_VERSION
    assert set(doc["vocabularies"]) == set(model.mined_channels)
    assert "centroids" not in doc


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError):
        load_model(str(bad))
    bad.write_text(json.dumps({"format": "other"}))
    with pytest.raises(DataError):
        load_model(str(bad))
    bad.write_text(json.dumps({"format": FORMAT_NAME, "format_version": 99}))
    with pytest.raises(DataError):
        load_model(str(bad))


def test_load_skips_a_leading_byte_order_mark(tmp_path):
    _, model, _ = _fitted(tmp_path, seed=5)
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    save_model(model, str(plain))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert (fingerprint_model(load_model(str(marked)))
            == fingerprint_model(model))


def test_load_names_a_file_that_is_not_utf8(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"format": "\xff"}')
    with pytest.raises(DataError, match=r"bad\.json: not UTF-8 text"):
        load_model(str(bad))


def test_load_rejects_missing_fields(tmp_path):
    _, model, _ = _fitted(tmp_path, seed=4)
    doc = model_to_dict(model)
    del doc["discretizers"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_model(str(bad))


def test_fingerprint_distinguishes_models(tmp_path):
    _, model_a, _ = _fitted(tmp_path, seed=5)
    _, model_b, _ = _fitted(tmp_path, seed=6)
    assert fingerprint_model(model_a) != fingerprint_model(model_b)
