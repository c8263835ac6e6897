"""Model artifact serialization.

The artifact is a versioned JSON document (key-value with nested lists).
Floats are written with Python's shortest round-trip repr, so loading a
saved model reproduces transforms bit-exactly. The field layout is described
in the README.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .core import (PipelineConfig, Variation, parse_multivariate_mode,
                   parse_variation)
from .discretize import Discretizer
from .errors import DataError
from .features import FeatureDescriptor, FeatureSchema
from .bpe import MergeRule, Vocabulary
from .pipeline import FittedModel
from .variations import RcsmMedians

FORMAT_NAME = "pdbpe-model"
FORMAT_VERSION = 1


def model_to_dict(model: FittedModel) -> dict[str, Any]:
    config = model.config
    doc: dict[str, Any] = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "config": {
            "K": config.K,
            "W": config.W,
            "P": config.P,
            "U": config.U,
            "correlation_threshold": config.correlation_threshold,
            "iqr_multiplier": config.iqr_multiplier,
            "variations": [v.value for v in config.variations],
            "multivariate_mode": config.multivariate_mode.value,
        },
        "channels": list(model.channels),
        "mined_channels": list(model.mined_channels),
        "n_training_series": model.n_training_series,
        "discretizers": {
            ch: {
                "K": disc.K,
                "lower_fence": disc.lower_fence,
                "upper_fence": disc.upper_fence,
                "edges": [float(e) for e in disc.edges],
            } for ch, disc in model.discretizers.items()
        },
        "rcsm_medians": {
            ch: {str(sym): med for sym, med in sorted(m.medians.items())}
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
            "variance_kept": [int(b) for b in model.schema.variance_kept]
            if model.schema.variance_kept is not None else None,
            "final_kept": [int(b) for b in model.schema.final_kept]
            if model.schema.final_kept is not None else None,
        },
    }
    if model.centroid_table is not None:
        doc["centroids"] = {gid: [float(v) for v in vec]
                            for gid, vec in sorted(model.centroid_table.items())}
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
    return {
        "channel": col.channel,
        "variation": col.variation.value,
        "symbol": col.symbol,
        "decoded": list(col.decoded),
        "name": col.name,
        "is_pattern": col.is_pattern,
    }


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
            K=int(cfg["K"]), W=int(cfg["W"]), P=float(cfg["P"]),
            U=float(cfg["U"]),
            correlation_threshold=float(cfg["correlation_threshold"]),
            iqr_multiplier=float(cfg["iqr_multiplier"]),
            variations=tuple(parse_variation(v) for v in cfg["variations"]),
            multivariate_mode=parse_multivariate_mode(cfg["multivariate_mode"]))
        channels = tuple(doc["channels"])
        n_training_series = int(doc["n_training_series"])
        mined_channels = tuple(doc["mined_channels"])
        discretizers = {
            ch: Discretizer(K=int(d["K"]), lower_fence=float(d["lower_fence"]),
                            upper_fence=float(d["upper_fence"]),
                            edges=np.array(d["edges"], dtype=np.float64))
            for ch, d in doc["discretizers"].items()}
        rcsm_medians = {
            ch: RcsmMedians({int(sym): int(med) for sym, med in m.items()})
            for ch, m in doc["rcsm_medians"].items()}
        vocabularies: dict[tuple[str, Variation], Vocabulary] = {}
        for ch, per_var in doc["vocabularies"].items():
            for var_name, v in per_var.items():
                variation = parse_variation(var_name)
                rules = tuple(MergeRule(new_symbol=int(r[0]), left=int(r[1]),
                                        right=int(r[2]), train_frequency=int(r[3]),
                                        train_series_support=int(r[4]))
                              for r in v["rules"])
                where = f"vocabulary {ch}/{variation.value}"
                base_size = int(v["base_size"])
                if base_size != config.base_size(variation):
                    raise DataError(f"{where}: base_size {base_size}, "
                                    f"expected {config.base_size(variation)}")
                try:
                    vocabularies[(ch, variation)] = Vocabulary(
                        base_size=base_size, rules=rules,
                        n_series=int(v["n_series"]),
                        initial_pair_slots=int(v["initial_pair_slots"]),
                        stop_threshold=float(v["stop_threshold"]))
                except DataError as exc:
                    raise DataError(f"{where}: {exc}") from None
        views = {(ch, v) for ch in mined_channels for v in config.variations}
        if set(vocabularies) != views:
            raise DataError("vocabularies do not cover exactly the mined "
                            "channels and configured variations")
        for what, table in (("discretizer", discretizers),
                            ("run-length medians", rcsm_medians)):
            missing = [ch for ch in mined_channels if ch not in table]
            if missing:
                raise DataError(f"no {what} for mined channels {missing}")
        sch = doc["schema"]
        columns = tuple(FeatureDescriptor(
            channel=c["channel"], variation=parse_variation(c["variation"]),
            symbol=int(c["symbol"]), decoded=tuple(int(s) for s in c["decoded"]),
            name=c["name"], is_pattern=bool(c["is_pattern"]))
            for c in sch["columns"])
        schema = FeatureSchema(
            columns=columns,
            variance_kept=tuple(bool(b) for b in sch["variance_kept"])
            if sch.get("variance_kept") is not None else None,
            final_kept=tuple(bool(b) for b in sch["final_kept"])
            if sch.get("final_kept") is not None else None)
        centroid_table = None
        if "centroids" in doc:
            centroid_table = {gid: np.array(vec, dtype=np.float64)
                              for gid, vec in doc["centroids"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model artifact: {exc}") from exc
    return FittedModel(config=config, channels=channels,
                       mined_channels=mined_channels,
                       n_training_series=n_training_series,
                       discretizers=discretizers, rcsm_medians=rcsm_medians,
                       vocabularies=vocabularies, schema=schema,
                       centroid_table=centroid_table)


def save_model(model: FittedModel, path: str) -> None:
    doc = model_to_dict(model)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")


def load_model(path: str) -> FittedModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    return model_from_dict(doc)


def fingerprint_model(model: FittedModel) -> str:
    """Stable content hash of the fitted state (used to check that CV folds
    were fitted on different training data)."""
    payload = json.dumps(model_to_dict(model), sort_keys=True,
                         allow_nan=False).encode()
    return hashlib.sha256(payload).hexdigest()
