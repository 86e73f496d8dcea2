#!/usr/bin/env python3
"""Seeded relusynth benchmark: the shallow, deep and verify workloads.

    python3 bench/run.py --workload shallow --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one table

Run from the repository root.  The package is imported from ./src.  One
run is one client in one process doing ops one after another (a closed
loop), in whole passes over a seeded pool of rounds, until the ops have
taken ``--seconds`` seconds.
BLAS is pinned to one thread.  With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics; with ``--trace 1`` rounds
alternate untraced and traced, and the metrics are the per-layer ones
plus the tracing overhead.  A record of the run (op counts per kind, seed,
nproc, numpy version, BLAS threads, commit) and, when traced, the spans,
go to .bench_out/.  See bench/README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is first imported

import argparse
import json
import resource
import statistics
import subprocess

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("shallow", "deep", "verify")
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB", "net_params": "count"}


class SetupError(Exception):
    pass


def import_library():
    """Import relusynth from ./src and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "relusynth", "__init__.py")):
        raise SetupError(f"no relusynth package under {SRC}")
    sys.path.insert(0, SRC)
    import importlib
    import types

    pkg = importlib.import_module("relusynth")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "relusynth"):
        raise SetupError(f"relusynth imported from {pkg.__file__}, not {SRC}")
    mods = {m: importlib.import_module(f"relusynth.{m}") for m in
            ("core", "simplex", "arrangement", "ordering", "bundles", "shallow",
             "deep", "affine", "randmat", "cli", "report")}
    return pkg, types.SimpleNamespace(**mods)


def blas_threads():
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


class Stats:
    """Outcomes of the ops of one run."""

    def __init__(self):
        self.times = []
        self.by_kind = {}
        self.params = 0
        self.deep_layers = []
        self.correct = True
        self.errors = []

    def record(self, op, seconds, outcome, book, detail=None):
        self.times.append(seconds)
        kind = self.by_kind.setdefault(op.kind, {"attempted": 0, "failed": 0})
        kind["attempted"] += 1
        if outcome != "ok":
            kind["failed"] += 1
        if outcome == "wrong":
            self.correct = False
            if len(self.errors) < 20:
                self.errors.append(f"{op.slot}: {detail}")
        if book:
            self.params += book.get("params", 0)
            hidden = book.get("hidden", [])
            if len(hidden) > 1:
                self.deep_layers.append(len(hidden))

    @property
    def attempted(self):
        return sum(k["attempted"] for k in self.by_kind.values())

    @property
    def failed(self):
        return sum(k["failed"] for k in self.by_kind.values())


def run_round(lib, ops, stats, tracer=None):
    """Run one round's ops in order; return the seconds the ops took."""
    import oracle

    outputs = {}
    total = 0.0
    for op in ops:
        span = tracer.begin("op." + op.kind) if tracer else None
        t0 = time.perf_counter()
        try:
            result, error = op.run(lib, outputs), None
        except Exception as exc:  # an op failing is data, not a crash
            result, error = None, exc
        dt = time.perf_counter() - t0
        if tracer:
            tracer.finish(span)
        total += dt
        book = None
        if error is not None:
            known = op.fault_match is not None and op.fault_match(error)
            outcome, detail = ("fault" if known else "wrong"), f"{type(error).__name__}: {error}"
        else:
            try:
                book = op.check(result, outputs)
                outcome, detail = "ok", None
                outputs[op.slot] = dict(book, result=result)
            except oracle.KnownFault as fault:
                outcome, detail = ("fault" if fault.name == op.fault else "wrong"), str(fault)
            except oracle.CheckFailed as exc:
                outcome, detail = "wrong", str(exc)
        stats.record(op, dt, outcome, book, detail)
    return total


def setup(lib, name, seed):
    """Inputs from the seed, their JSON, and one untimed warm-up op (on
    fixed inputs where the workload synthesizes, so its cost does not
    depend on the seed)."""
    import workloads

    make_round, _, count = workloads.WORKLOADS[name]
    if name == "verify":
        nets = workloads.verify_setup(lib, seed)
        rounds = [make_round(nets, seed, r) for r in range(count)]
        warm_up = rounds[0][0]
    else:
        rounds = [make_round(seed, r) for r in range(count)]
        warm_up = make_round(workloads.FIXED_SEED, 0)[0]
    run_round(lib, [warm_up], Stats())
    return rounds


def layer_metrics(tracer, rounds, stats, overhead_pct):
    t = tracer.totals()

    def calls(*names):
        return sum(t.get(n, {}).get("calls", 0) for n in names) / rounds

    def self_s(*names):
        return sum(t.get(n, {}).get("self_s", 0.0) for n in names) / rounds

    bundles = ("bundles.same_classification_bundle", "bundles.common_point_bundle")
    json_core = [f"core.{c}.{m}" for c in ("Network", "DiscretePWL")
                 for m in ("to_json", "to_json_dict", "from_json", "from_json_dict")]
    json_report = [f"report.ConstructionReport.{m}"
                   for m in ("to_json", "to_json_dict", "from_json", "from_json_dict")]
    sep_calls = t.get("ordering.separate", {}).get("calls", 0)
    fb = t.get("core.forward_batch", {"calls": 0, "self_s": 0.0})
    flop = tracer.counts.get("forward_batch.flop", 0.0)
    m = {}
    for name in ("simplex.solve_lp", "ordering.maximum_hyperplane", "ordering.separate",
                 "shallow.build_staircase", "affine.interference_avoiding_weights",
                 "affine.transform_hyperplane", "core.forward_traced", "core.forward_batch",
                 "core.numeric_rank", "core.solve_constrained"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("ordering.distinguishable_order", "deep.build_partition_tree",
                 "affine.widen_network", "cli.verify_network"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["ordering.separate.separable_ratio"] = (
        tracer.counts.get("separate.separable", 0.0) / sep_calls if sep_calls else 0.0, "ratio")
    m["bundles.calls"] = (calls(*bundles), "count")
    m["bundles.self_s"] = (self_s(*bundles), "s")
    m["deep.build.self_s"] = (self_s("deep.deep_build", "deep.decoder_build",
                                     "deep.rebuild_deep_with_widths",
                                     "deep.rebuild_deep_from_plan"), "s")
    m["deep.hidden_layers"] = (statistics.fmean(stats.deep_layers) if stats.deep_layers
                               else 0.0, "count")
    m["core.forward_batch.gflop"] = (flop / 1e9 / rounds, "GFLOP")
    m["core.forward_batch.gflop_per_s"] = (flop / 1e9 / fb["self_s"] if fb["self_s"] else 0.0,
                                           "GFLOP/s")
    m["core.json.self_s"] = (self_s(*json_core), "s")
    m["report.to_json.self_s"] = (self_s(*json_report), "s")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def run_workload(name, seed, seconds, trace):
    pkg, lib = import_library()
    sys.path.insert(0, BENCH_DIR)
    import numpy as np

    import selftest
    import workloads
    from tracer import Tracer

    import_s = time.perf_counter() - T_START
    try:
        selftest.run()
    except AssertionError as exc:
        raise SetupError(f"checker self-test failed: {exc}") from exc
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rounds = setup(lib, name, seed)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    # whole passes over the pool of rounds, so every metric (net_params
    # too) covers the same instances however fast the machine is
    stats = Stats()
    tracer = Tracer(pkg) if trace else None
    op_time = plain_time = traced_time = 0.0
    passes = 0
    while op_time < seconds:
        for ops in rounds:
            if trace:
                # the same round untraced, then traced: the pair gives the overhead
                plain_time += run_round(lib, ops, Stats())
                tracer.install()
                try:
                    traced_time += run_round(lib, ops, stats, tracer)
                finally:
                    tracer.uninstall()
                op_time = plain_time + traced_time
            else:
                op_time += run_round(lib, ops, stats)
        passes += 1

    times = np.array(stats.times)
    _, tail_pct, _ = workloads.WORKLOADS[name]
    completed = stats.attempted - stats.failed
    if trace:
        overhead = 100.0 * (traced_time / plain_time - 1.0)
        metrics = layer_metrics(tracer, passes * len(rounds), stats, overhead)
    else:
        metrics = {
            "ops_per_s": completed / float(times.sum()),
            "op_p50_ms": float(np.median(times)) * 1e3,
            "op_tail_ms": float(np.percentile(times, tail_pct)) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "net_params": stats.params / passes,
        }
        metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": passes, "rounds_per_pass": len(rounds), "ops_per_round": len(rounds[0]),
        "tail_percentile": tail_pct, "ops": stats.by_kind, "errors": stats.errors,
        "nproc": os.cpu_count(), "numpy": np.__version__, "blas_threads": blas_threads(),
        "commit": commit(),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(dict(record, metrics={k: v for k, (v, _) in metrics.items()}), fh, indent=1)
    if trace:
        tracer.dump(stem + "-spans.json")

    print(f"workload {name}: seed {seed}, {passes} passes of {len(rounds)} rounds of "
          f"{record['ops_per_round']} ops, nproc {record['nproc']}, numpy {record['numpy']}, "
          f"BLAS threads {record['blas_threads']}, commit {record['commit']}")
    for kind, c in stats.by_kind.items():
        print(f"  ops {kind:18s} attempted {c['attempted']:6d}  failed {c['failed']:6d}")
    for err in stats.errors:
        print(f"  WRONG {err}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:44s} {value:14.6g} {unit}")
    return {
        "correct": stats.correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Every workload in its own process, then one table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':9s} {'attempted':>9s} {'failed':>7s} correct  metrics")
    for name, res in rows.items():
        ms = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name:9s} {res['attempted']:9d} {res['failed']:7d} {str(res['correct']):7s}  {ms}")
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
