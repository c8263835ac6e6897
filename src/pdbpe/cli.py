"""Command-line interface.

Commands: discover (fit a model and write training features), transform
(apply a saved model to new data), inspect (show top patterns, value ranges,
durations, and occurrence spans), evaluate (cross-validated scoring with an
optional hyperparameter grid).

Exit codes: 0 success, 1 usage error, 2 data or schema error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

import numpy as np

from .core import (Dataset, PipelineConfig, Variation, ingest_filter,
                   parse_multivariate_mode, parse_variation)
from .data_io import (csv_row, read_config_file, read_data_csv,
                      read_features_csv, read_labels_csv, write_features_csv)
from .errors import DataError, NumericError, UsageError
from .evaluate import cross_validate, detect_task, kfold_split
from .features import anova_f_rank
from .model_io import load_model, save_model
from .pipeline import (FittedModel, fit_pipeline, pattern_spans,
                       transform_dataset)

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERIC_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


# ---------------------------------------------------------------------------
# Config assembly

def _parse_number(raw: str, key: str, kind: type = float) -> float:
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise DataError(f"config {key}: expected {noun}, got {raw!r}") from None


def _parse_variations(raw: str, key: str) -> tuple[Variation, ...]:
    names = [p for p in (s.strip() for s in raw.split(",")) if p]
    if not names:
        raise DataError(f"{key}: empty list")
    return tuple(parse_variation(name) for name in names)


# Config key -> (flag attribute, parser of its text form).
_CONFIG_KEYS = {
    "K": ("k", partial(_parse_number, kind=int)),
    "W": ("w", partial(_parse_number, kind=int)),
    "P": ("p", _parse_number),
    "U": ("u", _parse_number),
    "correlation_threshold": ("corr_threshold", _parse_number),
    "iqr_multiplier": ("iqr_multiplier", _parse_number),
    "variations": ("variations", _parse_variations),
    "multivariate_mode": ("multivariate_mode",
                          lambda raw, key: parse_multivariate_mode(raw)),
}


def _config_fields(args) -> dict:
    """Merge config file values with CLI flags (flags win)."""
    raw: dict = {}
    if getattr(args, "config", None):
        raw = read_config_file(args.config)
        unknown = set(raw) - set(_CONFIG_KEYS)
        if unknown:
            raise DataError(f"{args.config}: unknown config keys {sorted(unknown)}")
    fields = {key: parse(raw[key], key)
              for key, (_attr, parse) in _CONFIG_KEYS.items() if key in raw}
    for key, (attr, parse) in _CONFIG_KEYS.items():
        flag = getattr(args, attr)
        if flag is not None:
            # Numeric flags arrive typed from argparse; the rest are text.
            fields[key] = parse(flag, key) if isinstance(flag, str) else flag
    return fields


def _build_config(args) -> PipelineConfig:
    fields = _config_fields(args)
    if "K" not in fields or "W" not in fields:
        raise UsageError("K and W are required (flags --k/--w or a config file)")
    return PipelineConfig(**fields)


def _add_fit_flags(sub) -> None:
    """The flags of the commands that fit pipelines, discover and evaluate:
    the data, the config file and its keys, and the fit options."""
    sub.add_argument("--data", required=True, help="long-format data CSV")
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--k", type=int, default=None, help="alphabet size K (2..100)")
    sub.add_argument("--w", type=int, default=None, help="PAA window W (1..15)")
    sub.add_argument("--p", type=float, default=None,
                     help="min fraction of series a pattern must appear in")
    sub.add_argument("--u", type=float, default=None,
                     help="frequency floor as a fraction of initial pair slots")
    sub.add_argument("--corr-threshold", type=float, default=None,
                     help="drop features correlated above this (default 0.95)")
    sub.add_argument("--iqr-multiplier", type=float, default=None,
                     help="outlier fence width in IQRs (default 1.5)")
    sub.add_argument("--variations", default=None,
                     help="comma list: original,rcs,rcsm,autoregressive")
    sub.add_argument("--multivariate-mode", default=None,
                     help="per_channel or whiten_collapse")
    sub.add_argument("--min-observed", type=int, default=0,
                     help="drop series with fewer observed timesteps")
    sub.add_argument("--centroids", action="store_true",
                     help="append group-centroid features (needs group ids)")


def _read_dataset(args) -> Dataset:
    min_observed = args.min_observed
    if min_observed < 0:
        raise UsageError(f"--min-observed must be >= 0, got {min_observed}")
    dataset = read_data_csv(args.data, args.labels)
    before = len(dataset)
    if min_observed > 0:
        dataset = ingest_filter(dataset, min_observed)
        dropped = before - len(dataset)
        if dropped:
            print(f"dropped {dropped} series below {min_observed} observed timesteps")
    return dataset


# ---------------------------------------------------------------------------
# discover

def cmd_discover(args) -> int:
    config = _build_config(args)
    dataset = _read_dataset(args)
    if len(dataset) == 0:
        raise DataError("no series to fit on")
    print(f"read {len(dataset)} series, channels: {', '.join(dataset.channels)}")
    variation_names = ",".join(v.value for v in config.variations)
    print(f"fitting K={config.K} W={config.W} variations={variation_names} "
          f"mode={config.multivariate_mode.value}")
    model, matrix = fit_pipeline(dataset, config, centroids=args.centroids)
    for ch in model.mined_channels:
        for variation in config.variations:
            vocab = model.vocabularies[(ch, variation)]
            n_pat = len(vocab.rules)
            print(f"  {ch}/{variation.value}: {n_pat} patterns, "
                  f"{vocab.base_size + n_pat} features "
                  f"(stop threshold {vocab.stop_threshold:.12g}, "
                  f"T={vocab.initial_pair_slots}, N={vocab.n_series})")
    identified, emitted = model.pattern_counts()
    print(f"support filter: {emitted} of {identified} patterns kept "
          f"(min support {model.n_training_series * config.P:.12g} series)")
    n_raw = len(model.schema.columns)
    n_var = sum(model.schema.variance_kept)
    n_final = sum(model.schema.final_kept)
    print(f"pruning: {n_raw} columns -> {n_var} after variance -> "
          f"{n_final} after correlation")
    save_model(model, args.model_out)
    write_features_csv(matrix, args.features_out)
    print(f"wrote model to {args.model_out}")
    print(f"wrote features ({matrix.values.shape[0]} x {matrix.values.shape[1]}) "
          f"to {args.features_out}")
    return 0


# ---------------------------------------------------------------------------
# transform

def cmd_transform(args) -> int:
    model = load_model(args.model)
    dataset = _read_dataset(args)
    if len(dataset) == 0:
        raise DataError("no series to transform")
    matrix = transform_dataset(model, dataset)
    write_features_csv(matrix, args.features_out)
    print(f"wrote features ({matrix.values.shape[0]} x {matrix.values.shape[1]}) "
          f"to {args.features_out}")
    return 0


# ---------------------------------------------------------------------------
# inspect

def _duration_text(steps: int, W: int, period_minutes: float) -> str:
    minutes = steps * W * period_minutes
    text = f"{minutes:g} min"
    if minutes >= 60:
        text += f" ({minutes / 60:g} h)"
    return text


def _decoded_display(model: FittedModel, desc) -> str:
    if desc.variation is Variation.AUTOREGRESSIVE:
        # Step symbols are shifted by K-1; show the signed step sizes.
        shift = model.config.K - 1
        return " ".join(f"{s - shift:+d}" for s in desc.decoded)
    return " ".join(str(s) for s in desc.decoded)


def _value_ranges(model: FittedModel, desc) -> str:
    if desc.variation is Variation.AUTOREGRESSIVE:
        return "bin-index steps"
    disc = model.discretizers[desc.channel]
    parts = []
    for sym in desc.decoded:
        lo, hi = disc.bin_bounds(int(sym))
        parts.append(f"[{lo:.3g},{hi:.3g})")
    return " ".join(parts)


def cmd_inspect(args) -> int:
    if args.labels and not args.features:
        raise UsageError("ranking needs --features together with --labels")
    if args.spans_out and not args.data:
        raise UsageError("--spans-out needs --data to locate occurrences")
    model = load_model(args.model)
    config = model.config
    final_cols = model.schema.final_columns()
    longest = config.W * max((len(c.decoded) for c in final_cols), default=1)
    if not 0 < args.period_minutes * longest < np.inf:
        raise UsageError(f"--period-minutes must be a finite number > 0 that "
                         f"keeps every duration finite, got "
                         f"{args.period_minutes!r}")
    # Every input is read and checked before the report's first line.
    by_name = {c.name: c for c in final_cols}
    if args.labels:
        matrix = read_features_csv(args.features)
        labels = read_labels_csv(args.labels)
        rows = [i for i, sid in enumerate(matrix.ids) if sid in labels]
        if not rows:
            raise DataError("no feature rows have labels")
        keep_cols = [j for j, name in enumerate(matrix.names) if name in by_name]
        values = matrix.values[np.ix_(rows, keep_cols)]
        names = [matrix.names[j] for j in keep_cols]
        y = [labels[matrix.ids[i]].label for i in rows]
        ranked = anova_f_rank(values, y, names=names)
    else:
        ranked = [(c.name, None) for c in final_cols if c.is_pattern]
    top = ranked[:max(args.top, 0)]
    shown = [by_name[name] for name, _ in top]
    if args.data:
        spans = pattern_spans(model, read_data_csv(args.data), shown)

    print(f"model: K={config.K} W={config.W} "
          f"variations={','.join(v.value for v in config.variations)} "
          f"mode={config.multivariate_mode.value}")
    print(f"channels: {', '.join(model.channels)} "
          f"(mined: {', '.join(model.mined_channels)})")
    for ch in model.mined_channels:
        for variation in config.variations:
            vocab = model.vocabularies[(ch, variation)]
            emitted = sum(1 for c in model.schema.columns
                          if c.channel == ch and c.variation == variation
                          and c.is_pattern)
            kept = sum(1 for c in final_cols
                       if c.channel == ch and c.variation == variation)
            print(f"  {ch}/{variation.value}: base {vocab.base_size}, "
                  f"{len(vocab.rules)} patterns identified, {emitted} supported, "
                  f"{kept} columns after pruning")
    print(f"final feature count: {len(final_cols)}"
          + (" (x2 with centroids)" if model.centroids else ""))

    if args.top <= 0:
        return 0

    print(f"top {len(top)} features" + (" by ANOVA F:" if args.labels else ":"))
    for desc, (name, score) in zip(shown, top):
        f_text = f"  F={score:.6g}" if score is not None else ""
        steps = len(desc.decoded)
        print(f"  {name}: [{_decoded_display(model, desc)}]  "
              f"len={steps} duration={_duration_text(steps, config.W, args.period_minutes)}  "
              f"values={_value_ranges(model, desc)}{f_text}")

    if args.data:
        for desc in shown:
            per_series = spans[desc.name]
            total = sum(len(v) for v in per_series.values())
            print(f"  spans {desc.name}: {total} occurrences in "
                  f"{len(per_series)} series")
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8", newline="") as fh:
                fh.write("feature,series_id,start,end\n")
                for desc in shown:
                    for sid, sp in spans[desc.name].items():
                        for lo, hi in sp:
                            fh.write(csv_row([desc.name, sid, str(lo),
                                              str(hi)]))
            print(f"wrote spans to {args.spans_out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate

def _parse_grid(raw: str | None, flag: str) -> list[int] | None:
    if not raw:
        return None
    try:
        return [int(x) for x in raw.split(",")]
    except ValueError:
        raise UsageError(f"{flag}: expected a comma list of integers, "
                         f"got {raw!r}") from None


def cmd_evaluate(args) -> int:
    k_grid = _parse_grid(args.k_grid, "--k-grid")
    w_grid = _parse_grid(args.w_grid, "--w-grid")
    fields = _config_fields(args)
    if k_grid is None:
        if "K" not in fields:
            raise UsageError("provide --k, --k-grid, or K in a config file")
        k_grid = [fields["K"]]
    if w_grid is None:
        if "W" not in fields:
            raise UsageError("provide --w, --w-grid, or W in a config file")
        w_grid = [fields["W"]]
    fields["K"] = k_grid[0]
    fields["W"] = w_grid[0]
    base_config = PipelineConfig(**fields)

    dataset = _read_dataset(args)
    labeled = Dataset(tuple(ts for ts in dataset if ts.label is not None))
    dropped = len(dataset) - len(labeled)
    if len(labeled) == 0:
        raise DataError("no labeled series to evaluate")
    task = detect_task(labeled) if args.task == "auto" else args.task
    group_ids = [ts.group_id for ts in labeled] if args.group_aware else None
    plan = kfold_split(labeled.ids, args.folds, seed=args.seed,
                       group_ids=group_ids)
    result = cross_validate(
        labeled, base_config, plan, task, metric=args.metric, knn_k=args.knn_k,
        ridge_lambda=args.ridge_lambda, positive_label=args.positive_label,
        centroids=args.centroids, k_grid=k_grid, w_grid=w_grid,
        inner_folds=args.inner_folds)
    metric = result.metric

    lines: list[str] = []
    lines.append("pdbpe evaluation report")
    lines.append(f"data: {args.data}")
    lines.append(f"labels: {args.labels}")
    lines.append(f"series evaluated: {len(labeled)} (unlabeled dropped: {dropped})")
    lines.append(f"task: {task}")
    lines.append(f"metric: {metric}")
    predictor = (f"ridge(lambda={args.ridge_lambda:g})" if task == "regression"
                 else f"knn(k={args.knn_k})")
    lines.append(f"predictor: {predictor}")
    lines.append(f"folds: {plan.k}  seed: {plan.seed}  "
                 f"group_aware: {'yes' if plan.group_aware else 'no'}")
    lines.append(f"grid: K={k_grid} W={w_grid}")
    lines.append(
        f"config: P={base_config.P:g} U={base_config.U:g} "
        f"corr={base_config.correlation_threshold:g} "
        f"iqr={base_config.iqr_multiplier:g} "
        f"variations={','.join(v.value for v in base_config.variations)} "
        f"mode={base_config.multivariate_mode.value}"
        + (" centroids=yes" if args.centroids else ""))

    for f in result.folds:
        lines.append(f"fold {f.fold}: K={f.config.K} W={f.config.W} "
                     f"n_train={f.n_train} n_test={f.n_test} "
                     f"features={f.n_features} "
                     f"patterns_identified={f.n_patterns_identified} "
                     f"patterns_emitted={f.n_patterns_emitted} "
                     f"{metric}={f.value:.6f}")
    lines.append(f"mean {metric}: {result.mean:.6f}")
    report = "\n".join(lines) + "\n"
    with open(args.report_out, "w", encoding="utf-8") as fh:
        fh.write(report)
    sys.stdout.write(report)
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> _Parser:
    parser = _Parser(prog="pdbpe",
                     description="Pattern-vocabulary features for time series")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="fit a model on a dataset")
    _add_fit_flags(p)
    p.add_argument("--labels", default=None,
                   help="series_id,label[,group_id] CSV (group ids enable --centroids)")
    p.add_argument("--model-out", required=True)
    p.add_argument("--features-out", required=True)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("transform", help="apply a saved model to new data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", default=None,
                   help="labels CSV, used for group ids when the model has centroids")
    p.add_argument("--features-out", required=True)
    p.set_defaults(func=cmd_transform, min_observed=0)

    p = sub.add_parser("inspect", help="show patterns from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", default=None, help="feature CSV for ranking")
    p.add_argument("--labels", default=None, help="labels CSV for ANOVA ranking")
    p.add_argument("--data", default=None, help="data CSV for occurrence spans")
    p.add_argument("--top", type=int, default=10,
                   help="patterns to show; 0 prints the schema summary only")
    p.add_argument("--period-minutes", type=float, default=1.0,
                   help="real-time duration of one sample")
    p.add_argument("--spans-out", default=None,
                   help="write feature,series_id,start,end occurrence spans CSV")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("evaluate", help="cross-validated scoring")
    _add_fit_flags(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--k-grid", default=None, help="comma list of K values")
    p.add_argument("--w-grid", default=None, help="comma list of W values")
    p.add_argument("--task", choices=["auto", "regression", "classification"],
                   default="auto")
    p.add_argument("--metric", choices=["rmse", "accuracy", "auc"], default=None)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--inner-folds", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--group-aware", action="store_true",
                   help="keep each group's series in one fold")
    p.add_argument("--knn-k", type=int, default=5)
    p.add_argument("--ridge-lambda", type=float, default=1.0)
    p.add_argument("--positive-label", default=None, help="positive class for auc")
    p.add_argument("--report-out", required=True)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"pdbpe: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (DataError, ValueError) as exc:
        print(f"pdbpe: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except NumericError as exc:
        print(f"pdbpe: numeric error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except OSError as exc:
        print(f"pdbpe: i/o error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except MemoryError as exc:
        print(f"pdbpe: data error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
