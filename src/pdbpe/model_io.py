"""Model artifact serialization.

The artifact is a versioned JSON document (key-value with nested lists).
Floats are written with Python's shortest round-trip repr, so loading a
saved model reproduces transforms bit-exactly. The field layout is described
in the README.

Loading derives what fitting derives and rejects an artifact whose stored
copy differs: the mined channels, each vocabulary's base size and each
discretizer's bin count ``K``, and the schema columns with their names and
decoded patterns. Run-length medians must map symbols in ``[0, K)`` to
lengths of at least 1. Every failure is a ``DataError``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .core import (PipelineConfig, Variation, parse_multivariate_mode,
                   parse_variation)
from .data_io import open_text
from .discretize import Discretizer
from .errors import DataError
from .features import FeatureDescriptor, build_schema
from .bpe import MergeRule, Vocabulary
from .pipeline import FittedModel, mined_channels_of

FORMAT_NAME = "pdbpe-model"
FORMAT_VERSION = 1


def model_to_dict(model: FittedModel) -> dict[str, Any]:
    config = model.config
    doc: dict[str, Any] = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        # vars() keeps a dataclass's field order, which is the key order.
        "config": {**vars(config),
                   "variations": [v.value for v in config.variations],
                   "multivariate_mode": config.multivariate_mode.value},
        "channels": list(model.channels),
        "mined_channels": list(model.mined_channels),
        "n_training_series": model.n_training_series,
        "discretizers": {
            ch: {**vars(disc), "edges": [float(e) for e in disc.edges]}
            for ch, disc in model.discretizers.items()},
        "rcsm_medians": {
            ch: {str(sym): med for sym, med in sorted(m.items())}
            for ch, m in model.rcsm_medians.items()
        },
        "vocabularies": {
            ch: {
                variation.value: _vocab_to_dict(model.vocabularies[(ch, variation)])
                for variation in config.variations
            } for ch in model.mined_channels
        },
        "schema": {
            "columns": [_descriptor_to_dict(c) for c in model.schema.columns],
            "variance_kept": [int(b) for b in model.schema.variance_kept],
            "final_kept": [int(b) for b in model.schema.final_kept],
        },
    }
    if model.centroids:
        doc["centroids"] = True
    return doc


def _vocab_to_dict(vocab: Vocabulary) -> dict[str, Any]:
    return {
        "base_size": vocab.base_size,
        "n_series": vocab.n_series,
        "initial_pair_slots": vocab.initial_pair_slots,
        "stop_threshold": vocab.stop_threshold,
        "rules": [[r.new_symbol, r.left, r.right, r.train_frequency,
                   r.train_series_support] for r in vocab.rules],
    }


def _descriptor_to_dict(col: FeatureDescriptor) -> dict[str, Any]:
    return {**vars(col), "variation": col.variation.value,
            "decoded": list(col.decoded)}


def model_from_dict(doc: dict[str, Any]) -> FittedModel:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise DataError("not a pdbpe model artifact")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version!r}; "
                        f"this build reads version {FORMAT_VERSION}")
    try:
        cfg = doc["config"]
        config = PipelineConfig(
            K=cfg["K"], W=cfg["W"], P=float(cfg["P"]),
            U=float(cfg["U"]),
            correlation_threshold=float(cfg["correlation_threshold"]),
            iqr_multiplier=float(cfg["iqr_multiplier"]),
            variations=tuple(parse_variation(v) for v in cfg["variations"]),
            multivariate_mode=parse_multivariate_mode(cfg["multivariate_mode"]))
        channels = tuple(doc["channels"])
        if (not all(isinstance(ch, str) for ch in channels)
                or len(set(channels)) != len(channels)):
            raise DataError("channels must be distinct names")
        mined = mined_channels_of(channels, config.multivariate_mode)
        if tuple(doc["mined_channels"]) != mined:
            raise DataError(f"mined_channels differ from {list(mined)}, which "
                            f"the channels and multivariate_mode define")
        n_training_series = int(doc["n_training_series"])
        discretizers = {}
        for ch, d in doc["discretizers"].items():
            try:
                if int(d["K"]) != config.K:
                    raise DataError(f"K {d['K']}, expected {config.K}")
                discretizers[ch] = Discretizer(
                    K=config.K, lower_fence=float(d["lower_fence"]),
                    upper_fence=float(d["upper_fence"]),
                    edges=np.array(d["edges"], dtype=np.float64))
            except DataError as exc:
                raise DataError(f"discretizer {ch}: {exc}") from None
        rcsm_medians = {
            ch: {int(sym): int(med) for sym, med in m.items()}
            for ch, m in doc["rcsm_medians"].items()}
        if any(not 0 <= sym < config.K or med < 1
               for m in rcsm_medians.values() for sym, med in m.items()):
            raise DataError(f"run-length medians must map symbols in "
                            f"[0, {config.K}) to lengths of at least 1")
        vocabularies: dict[tuple[str, Variation], Vocabulary] = {}
        # Rules that each double the one before define patterns far longer
        # than the artifact: count their base symbols before expanding them.
        expanded, min_support = 0, n_training_series * config.P
        for ch, per_var in doc["vocabularies"].items():
            for var_name, v in per_var.items():
                variation = parse_variation(var_name)
                rules = tuple(MergeRule(*map(int, r)) for r in v["rules"])
                base_size = int(v["base_size"])
                try:
                    if base_size != config.base_size(variation):
                        raise DataError(f"base_size {base_size}, expected "
                                        f"{config.base_size(variation)}")
                    vocabularies[(ch, variation)] = Vocabulary(
                        base_size=base_size, rules=rules,
                        n_series=int(v["n_series"]),
                        initial_pair_slots=int(v["initial_pair_slots"]),
                        stop_threshold=float(v["stop_threshold"]))
                except DataError as exc:
                    raise DataError(f"vocabulary {ch}/{variation.value}: "
                                    f"{exc}") from None
                length = [1] * base_size
                for r in rules:
                    length.append(length[r.left] + length[r.right])
                    if r.train_series_support >= min_support:
                        expanded += length[-1]
        views = {(ch, v) for ch in mined for v in config.variations}
        if set(vocabularies) != views:
            raise DataError("vocabularies do not cover exactly the mined "
                            "channels and configured variations")
        for what, table in (("discretizer", discretizers),
                            ("run-length medians", rcsm_medians)):
            missing = [ch for ch in mined if ch not in table]
            if missing:
                raise DataError(f"no {what} for mined channels {missing}")
        sch = doc["schema"]
        if expanded > sum(len(c["decoded"]) for c in sch["columns"]):
            raise DataError("schema columns are shorter than the supported "
                            "patterns they decode")
        schema = build_schema(mined, config.variations, vocabularies,
                              n_training_series, config.P, config.K)
        expected = [_descriptor_to_dict(c) for c in schema.columns]
        if sch["columns"] != expected:
            raise DataError("schema columns differ from the columns that the "
                            "config and vocabularies define")
        for mask in ("variance_kept", "final_kept"):
            kept = sch[mask]
            if len(kept) != len(expected):
                raise DataError(f"schema {mask} has {len(kept)} entries for "
                                f"{len(expected)} columns")
            setattr(schema, mask, tuple(bool(b) for b in kept))
        # Artifacts written before the flag hold a per-group table here.
        centroids = doc.get("centroids", False)
        if isinstance(centroids, dict):
            centroids = True
        if not isinstance(centroids, bool):
            raise DataError("centroids must be true or false")
    except (KeyError, TypeError, ValueError, AttributeError, IndexError,
            OverflowError) as exc:
        raise DataError(f"malformed model artifact: {exc}") from exc
    return FittedModel(config=config, channels=channels,
                       n_training_series=n_training_series,
                       discretizers=discretizers, rcsm_medians=rcsm_medians,
                       vocabularies=vocabularies, schema=schema,
                       centroids=centroids)


def save_model(model: FittedModel, path: str) -> None:
    doc = model_to_dict(model)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")


def load_model(path: str) -> FittedModel:
    try:
        with open_text(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's recursion limit.
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    return model_from_dict(doc)


def fingerprint_model(model: FittedModel) -> str:
    """Stable content hash of the fitted state (used to check that CV folds
    were fitted on different training data)."""
    payload = json.dumps(model_to_dict(model), sort_keys=True,
                         allow_nan=False).encode()
    return hashlib.sha256(payload).hexdigest()
