"""pdbpe benchmark: one workload, end-to-end timings or a traced run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; pdbpe is run from ``src/`` as it stands.
Inputs are generated from the seed before any timing. One client runs the
operations in a closed loop, each starting after the previous one ends,
with ``PDBPE_THREADS`` unset as users run it.

--trace 0 repeats rounds of fit, transform and evaluate for S seconds (at
least MIN_ROUNDS rounds), each operation in a process of its own, and
reports the median of each operation's samples. --trace 1 runs one untraced
and one traced round of fit, transform and evaluate, each round in one fresh
process, and reports the per-layer metrics. Every operation's output
is checked; failures count in ``failed``. The last line of standard output
is the result as JSON; the full record is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

MIN_ROUNDS = 3
SETUP_PER_ROUND = 2
WORKER = os.path.join(HERE, "worker.py")

# The speed of a shared VM drifts by up to 1.9x over minutes, which moves
# every raw timing of a run together. Each run therefore also times this
# fixed task, which does not use pdbpe: an interpreter start-up, a numpy
# import, Python pair counting and a numpy sort, the kinds of work pdbpe
# does. Timings are reported scaled to a machine on which the task takes
# REFERENCE_S: raw median * REFERENCE_S / the run's median task time.
REFERENCE_TASK = """\
import numpy as np
seq = [i * 7919 % 13 for i in range(150000)]
pairs = {}
for p in zip(seq, seq[1:]):
    pairs[p] = pairs.get(p, 0) + 1
np.sort(np.random.default_rng(0).normal(size=300000))
"""
REFERENCE_S = 0.25

# Output files of each operation and the check that reads them.
OUTPUTS = {"fit": (wl.MODEL, wl.FEATURES), "transform": (wl.HELDOUT_FEATURES,),
           "evaluate": (wl.REPORT,)}
METRIC_OF = {"fit": "fit_s", "transform": "transform_s", "evaluate": "evaluate_s"}


class Run:
    """Operations of one benchmark run and their outcome."""

    def __init__(self, w: wl.Workload, seed: int, directory: str):
        self.w = w
        self.dir = directory
        self.env = dict(os.environ)
        self.env.pop("PDBPE_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), self.env.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failures: list[str] = []
        self.first_hashes: dict[str, str] = {}
        self.pinned = checks.expected_hashes(w.name) if seed == wl.DEFAULT_SEED else {}
        self.worker_env: dict = {}

    def record(self, what: str, error: str | None) -> bool:
        self.attempted += 1
        if error:
            self.failures.append(f"{what}: {error}")
        return error is None

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    # -- operations ---------------------------------------------------------

    def time_code(self, code: str) -> float:
        """Wall time of a fresh interpreter running code."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code],
                              env=self.env, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {code.splitlines()[0]!r} failed:\n"
                             f"{proc.stderr}")
        return wall

    def cli_op(self, op: str) -> tuple[float, str | None]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pdbpe.cli", *self.w.argv(op)],
                              cwd=self.dir, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        wall = time.perf_counter() - t0
        error = None
        if proc.returncode != 0:
            error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return wall, error

    def worker(self, ops, trace_prefix=None) -> list[tuple[str, float, str | None]]:
        """Run ops in one fresh worker process; (op, wall, error) each."""
        cmd = [sys.executable, WORKER, self.w.name, self.dir, ",".join(ops)]
        if trace_prefix:
            cmd += ["--trace", trace_prefix]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True)
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            error = f"worker exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            return [(op, 0.0, error) for op in ops]
        self.worker_env = out["env"]
        return [(r["op"], r["wall_s"], r["error"]) for r in out["ops"]]

    def clear_outputs(self, op: str) -> None:
        for name in OUTPUTS[op]:
            if os.path.exists(self.path(name)):
                os.remove(self.path(name))

    def check_outputs(self, op: str) -> str | None:
        """Structure of each output, identical bytes in every round, and
        the pinned hash at the default seed."""
        if op == "fit":
            error = checks.check_features(self.path(wl.FEATURES),
                                          wl.train_ids(self.w))
            if error is None and not os.path.exists(self.path(wl.MODEL)):
                error = f"{wl.MODEL} missing"
        elif op == "transform":
            error = checks.check_features(self.path(wl.HELDOUT_FEATURES),
                                          wl.heldout_ids(self.w))
        else:
            error = checks.check_report(self.path(wl.REPORT),
                                        int(self.w.flag("--folds")))
        if error:
            return error
        for name in OUTPUTS[op]:
            digest = checks.sha256(self.path(name))
            first = self.first_hashes.setdefault(name, digest)
            if digest != first:
                return f"{name} differs from the first round"
            if name in self.pinned and digest != self.pinned[name]:
                return f"{name} sha256 {digest[:12]} != pinned {self.pinned[name][:12]}"
        return None

    def operation(self, op: str) -> tuple[float, str | None]:
        """Run one operation in a fresh process and check its outputs
        before the next operation can overwrite them: a `pdbpe` process on
        CLI workloads, a worker process on library workloads."""
        self.clear_outputs(op)
        if self.w.cli:
            wall, error = self.cli_op(op)
        else:
            (_, wall, error), = self.worker([op])
        return wall, error or self.check_outputs(op)

    def record_all(self, results) -> list[tuple[str, float]]:
        """Record (op, wall, error) results; returns (op, wall) of those
        that succeeded and passed their output checks."""
        return [(op, wall) for op, wall, error in results if self.record(op, error)]

    def in_process(self, trace_prefix=None) -> list[tuple[str, float]]:
        """fit, transform and evaluate in one worker process, optionally
        traced. Each writes its own files, so all are checked at the end."""
        for op in wl.OPS:
            self.clear_outputs(op)
        return self.record_all([(op, wall, error or self.check_outputs(op))
                                for op, wall, error in
                                self.worker(wl.OPS, trace_prefix)])

    def final_checks(self) -> None:
        """Model load and re-save gives identical bytes; transform of the
        training input gives discover's feature bytes."""
        (_, _, error), = self.worker(["check"])
        if error:
            self.record("check", error)
            return
        self.record("model_resave", checks.same_bytes(
            self.path(wl.RESAVED_MODEL), self.path(wl.MODEL)))
        self.record("train_transform", checks.same_bytes(
            self.path(wl.TRAIN_TRANSFORM), self.path(wl.FEATURES)))


def timed(run: Run, seconds: float) -> dict:
    setup: list[float] = []
    reference: list[float] = []
    samples: dict[str, list[float]] = {m: [] for m in METRIC_OF.values()}
    rounds = 0
    start = time.perf_counter()
    # Stop before a round would overrun the run's length.
    while rounds < MIN_ROUNDS or \
            (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        # Set-up and reference samples in every round spread them over the
        # run, so a slow spell of the machine cannot fall on all of them.
        for _ in range(SETUP_PER_ROUND):
            setup.append(run.time_code("import pdbpe.cli"))
            reference.append(run.time_code(REFERENCE_TASK))
        for op, wall in run.record_all((op, *run.operation(op)) for op in wl.OPS):
            samples[METRIC_OF[op]].append(wall)
        rounds += 1
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    run.final_checks()
    samples = {"setup_s": setup, **samples}
    raw = {name: statistics.median(values) if values else 0.0
           for name, values in samples.items()}
    scale = REFERENCE_S / statistics.median(reference)
    metrics = {name: (value * scale, "s") for name, value in raw.items()}
    metrics["peak_rss_mb"] = (peak, "MB")
    return {"metrics": metrics, "rounds": rounds, "raw_s": raw,
            "scale": scale, "samples": {**samples, "reference": reference}}


def traced(run: Run, prefix: str) -> dict:
    untraced = run.in_process()
    traced_ops = run.in_process(prefix)
    run.final_checks()
    try:
        with open(prefix + "-layers.json", encoding="utf-8") as fh:
            layers = json.load(fh)
    except FileNotFoundError:  # the traced worker died; its ops count as failed
        layers = {"functions": {}, "by_op": {}, "op_wall_s": {}, "absent": [],
                  "counter_failures": {}, "unattributed_s": {}}
    table = layers["functions"]
    values = spans.layer_values(table)
    plain = sum(wall for _, wall in untraced)
    values["trace_overhead_frac"] = (
        sum(wall for _, wall in traced_ops) / plain - 1.0 if plain else 0.0)
    for op in wl.OPS:
        values[f"{op}.unattributed_s"] = layers["unattributed_s"].get(op, 0.0)
    values["trace.absent"] = len(layers["absent"])
    values["trace.errors"] = spans.trace_errors(table, layers["counter_failures"])
    metrics = {name: (values[name], unit) for name, unit, _ in spans.metric_specs()}
    return {"metrics": metrics, "shares": self_shares(layers),
            "absent": layers["absent"],
            "counter_failures": layers["counter_failures"],
            "untraced_ops": dict(untraced), "traced_ops": dict(traced_ops)}


def self_shares(layers: dict, top: int = 4) -> dict[str, dict[str, float]]:
    """Per traced operation: the wrapped functions with the most self time,
    each as a share of the operation's in-process wall time."""
    out = {}
    for op, table in layers["by_op"].items():
        wall = layers["op_wall_s"][op]
        ranked = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:top]
        out[op] = {name: row["self_s"] / wall for name, row in ranked}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pdbpe", "cli.py")):
        print(f"perfbench: no pdbpe sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}"
    run = Run(w, args.seed, os.path.join(HERE, "work", tag))
    inputs = wl.prepare(w, args.seed, run.dir)

    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    if args.trace:
        outcome = traced(run, os.path.join(results_dir, f"{tag}-trace"))
    else:
        outcome = timed(run, args.seconds)
    failed = len(run.failures)
    outputs = {name: checks.sha256(run.path(name))
               for names in OUTPUTS.values() for name in names
               if os.path.exists(run.path(name))}
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": inputs, "env": run.worker_env,
              "attempted": run.attempted, "failed": failed,
              "failures": run.failures, "outputs_sha256": outputs,
              **{k: v for k, v in outcome.items() if k != "metrics"},
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in outcome["metrics"].items()}}
    with open(os.path.join(results_dir, f"{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {w.name} seed {args.seed}: {inputs['series']}+"
          f"{inputs['heldout_series']} series x {inputs['samples']} samples x "
          f"{inputs['channels']} channels, {inputs['csv_rows']} CSV rows, "
          f"{inputs['csv_bytes']} CSV bytes")
    print("env: " + ", ".join(f"{k}={v}" for k, v in run.worker_env.items()))
    if not args.trace:
        counts = ", ".join(f"{k}={len(v)}" for k, v in outcome["samples"].items())
        print(f"rounds: {outcome['rounds']} (samples: {counts})")
        print(f"raw wall medians (scaled by {outcome['scale']:.4f} below): "
              + ", ".join(f"{k}={v:.4f} s" for k, v in outcome["raw_s"].items()))
    print(f"ops: {run.attempted} attempted, {failed} failed")
    for op, shares in outcome.get("shares", {}).items():
        print(f"{op} self time: " + ", ".join(
            f"{name} {share:.0%}" for name, share in shares.items()))
    for name, (value, unit) in outcome["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    for name, failure in outcome.get("counter_failures", {}).items():
        print(f"TRACE ERROR counts of {name} not taken in {failure['calls']} "
              f"calls: {failure['error']}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
