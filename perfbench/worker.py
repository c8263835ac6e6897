"""Run a workload's operations inside one fresh interpreter.

    python perfbench/worker.py WORKLOAD DIR OPS [--trace PREFIX]

OPS is a comma list of fit, transform, evaluate and check. CLI workloads
run each operation through ``pdbpe.cli.main(argv)`` with DIR as the working
directory; library workloads call ``fit_pipeline``, ``transform_dataset``
and ``cross_validate`` on the arrays in DIR. ``check`` writes the artifacts
the output checks compare: the training input transformed with the fitted
model, and the model loaded and saved again.

With --trace, spans of every wrapped pdbpe function are recorded and
PREFIX-spans.jsonl and PREFIX-layers.json are written. The last line of
standard output is a JSON object with each operation's wall time and error.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from spans import Tracer, function_table, unattributed  # noqa: E402

import pdbpe.cli  # noqa: E402
import pdbpe.evaluate  # noqa: E402
import pdbpe.pipeline  # noqa: E402
# Bound here, outside the package, so tracing never rebinds them: the
# library workload's untimed reads and writes show in no layer.
from pdbpe.core import PipelineConfig  # noqa: E402
from pdbpe.data_io import write_features_csv  # noqa: E402
from pdbpe.model_io import load_model, save_model  # noqa: E402


class LibraryOps:
    """The library workload's operations. Only the pdbpe calls are timed;
    they are looked up on their modules at call time so a traced run calls
    the wrappers. Inputs are built and outputs written outside the timing."""

    def __init__(self, w: wl.Workload, directory: str):
        self.train, self.heldout = wl.load_datasets(directory)
        self.config = PipelineConfig(K=int(w.flag("--k")), W=int(w.flag("--w")))
        self.folds = int(w.flag("--folds"))
        self.model = None

    def run(self, op: str) -> tuple[float, float]:
        if op == "fit":
            t0 = time.perf_counter()
            self.model, matrix = pdbpe.pipeline.fit_pipeline(self.train,
                                                             self.config)
            t1 = time.perf_counter()
            save_model(self.model, wl.MODEL)
            write_features_csv(matrix, wl.FEATURES)
        elif op == "transform":
            model = self.model or load_model(wl.MODEL)
            t0 = time.perf_counter()
            matrix = pdbpe.pipeline.transform_dataset(model, self.heldout)
            t1 = time.perf_counter()
            write_features_csv(matrix, wl.HELDOUT_FEATURES)
        elif op == "evaluate":
            t0 = time.perf_counter()
            plan = pdbpe.evaluate.kfold_split(self.train.ids, self.folds, seed=0)
            result = pdbpe.evaluate.cross_validate(self.train, self.config,
                                                   plan, "classification")
            t1 = time.perf_counter()
            _write_cv_report(result)
        elif op == "check":
            t0 = time.perf_counter()
            model = load_model(wl.MODEL)
            matrix = pdbpe.pipeline.transform_dataset(model, self.train)
            write_features_csv(matrix, wl.TRAIN_TRANSFORM)
            save_model(model, wl.RESAVED_MODEL)
            t1 = time.perf_counter()
        else:
            raise ValueError(f"unknown operation {op!r}")
        return t0, t1


def _write_cv_report(result) -> None:
    lines = [f"pdbpe cross-validation: {len(result.folds)} folds, "
             f"metric {result.metric}"]
    for f in result.folds:
        lines.append(f"fold {f.fold}: n_train={f.n_train} n_test={f.n_test} "
                     f"features={f.n_features} "
                     f"patterns_identified={f.n_patterns_identified} "
                     f"patterns_emitted={f.n_patterns_emitted} "
                     f"{f.metric}={f.value:.6f} model={f.model_fingerprint}")
    mean = float(np.mean([f.value for f in result.folds]))
    lines.append(f"mean {result.metric}: {mean:.6f}")
    with open(wl.REPORT, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class CliOps:
    """A CLI workload's operations, run in-process through pdbpe.cli.main."""

    def __init__(self, w: wl.Workload):
        self.w = w

    def run(self, op: str) -> tuple[float, float]:
        t0 = time.perf_counter()
        if op == "check":
            self._main(["transform", "--model", wl.MODEL, "--data", wl.TRAIN_CSV,
                        "--features-out", wl.TRAIN_TRANSFORM])
            save_model(load_model(wl.MODEL), wl.RESAVED_MODEL)
        else:
            self._main(self.w.argv(op))
        return t0, time.perf_counter()

    @staticmethod
    def _main(argv) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pdbpe.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()[-300:]}")


def resolved_threads():
    try:
        from pdbpe.parallel import thread_count
    except ImportError:
        return None
    return thread_count()


def main(argv: list[str]) -> int:
    trace_prefix = None
    if "--trace" in argv:
        i = argv.index("--trace")
        trace_prefix = os.path.abspath(argv[i + 1])
        argv = argv[:i] + argv[i + 2:]
    name, directory, ops = argv[0], os.path.abspath(argv[1]), argv[2].split(",")
    w = wl.WORKLOADS[name]
    os.chdir(directory)
    runner = CliOps(w) if w.cli else LibraryOps(w, directory)

    tracer = None
    if trace_prefix:
        tracer = Tracer()
        tracer.install()
    results, windows = [], {}
    try:
        for op_id, op in enumerate(ops):
            if tracer:
                tracer.op = op_id
            start = time.perf_counter()
            error = None
            try:
                windows[op_id] = runner.run(op)
            except Exception as exc:  # reported as a failed operation
                windows[op_id] = (start, time.perf_counter())
                error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            t0, t1 = windows[op_id]
            results.append({"op": op, "wall_s": t1 - t0, "error": error})
    finally:
        if tracer:
            tracer.uninstall()

    if tracer:
        tracer.write(trace_prefix + "-spans.jsonl")
        remainder = unattributed(tracer.spans, windows)
        # Per operation too, so each layer's share of an operation shows.
        by_op = {ops[i]: function_table([s for s in tracer.spans if s.op == i])
                 for i in windows}
        with open(trace_prefix + "-layers.json", "w", encoding="utf-8") as fh:
            json.dump({"functions": function_table(tracer.spans),
                       "by_op": by_op,
                       "op_wall_s": {ops[i]: t1 - t0
                                     for i, (t0, t1) in windows.items()},
                       "absent": tracer.absent,
                       "counter_failures": tracer.counter_failures,
                       "unattributed_s": {ops[i]: v for i, v in remainder.items()},
                       "spans": len(tracer.spans)}, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "ops": results,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": os.cpu_count(), "pdbpe_threads": resolved_threads()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
