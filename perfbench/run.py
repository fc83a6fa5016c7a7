"""framecalc benchmark: four seeded closed-loop workloads through the public API.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 40 --trace 0

One caller in one process runs the workload's op list in order, each op only
after the previous one returned (``cli`` runs its children one at a time):
whole blocks of ops until a third of ``--seconds`` has passed, then the same
ops twice more, and each op's latency is the median of its three passes.
Every output is checked against ``oracle``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
prefix of the op list untraced, then traced, then a fixed layer probe, and
prints the per-layer metrics. The last line of stdout is one JSON object.
``--workload all`` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path
from typing import NamedTuple

# BLAS and OpenMP run single-threaded here and in every child: with the
# default two threads on a 2-vCPU guest, eigh at n=32 took 0.12 ms in one run
# and 16 ms in the next.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("power-family", "convergence", "gabor-window", "cli")
# The run repeats the ops of its first pass, each time on fresh objects, and
# takes each op's median: on a shared 2-vCPU KVM guest the speed of
# interpreter-bound code drifts by +-25% over seconds.
PASSES = 3
SETUP_REPEATS = 5
CHILD_PROBE_REPEATS = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
MIN_OPS = 40  # per pass, so the tail is at least the 75th percentile
FACTORIZE_SIZES = ((8, 5), (32, 3), (128, 1))  # (n, repeats) of the optimal_bounds probe
CLI_SUBCOMMANDS = ("analyze", "alpha", "dual", "perturb", "gabor", "examples")
CLI_KINDS = CLI_SUBCOMMANDS + ("invalid",)


class Record(NamedTuple):
    kind: str
    latency_ns: int
    reason: str | None
    err_kappa_eps: float | None


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples (exact for the ladder)."""
    per_mille = round(p * 10)
    return max(1, -(-per_mille * n // 1000))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    return sorted(values)[rank(p, len(values)) - 1]


def tail_rule(n: int) -> tuple[float, int]:
    """Highest ladder percentile with at least ten samples beyond it, and
    how many lie beyond; the median when fewer than twenty samples exist."""
    for p in reversed(TAIL_LADDER):
        if n - rank(p, n) >= TAIL_MIN_BEYOND:
            return p, n - rank(p, n)
    return 50.0, n - rank(50.0, n)


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

# Output types the checks read; anything else is a wrong answer, not a crash.
MALFORMED_OUTPUT = (AttributeError, TypeError, ValueError, KeyError, IndexError)


def run_op(wl, fc, op, state, op_id: int, tracer=None) -> Record:
    out = failure = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                out = wl.execute(fc, op, state)
            else:
                out = tracer.call_op(op_id, f"op.{op.kind}", wl.execute, fc, op, state)
        except Exception as exc:  # every failure is recorded under a reason; none is retried
            failure = exc
        latency = time.perf_counter_ns() - start
    if failure is not None:
        return Record(op.kind, latency, wl.classify(op, failure), None)
    if caught:
        return Record(op.kind, latency, f"warning:{caught[0].category.__name__}", None)
    try:
        outcome = wl.check(op, out)
    except MALFORMED_OUTPUT:
        return Record(op.kind, latency, "wrong_answer", None)
    return Record(op.kind, latency, outcome.reason, outcome.err_kappa_eps)


def run_pass(wl, fc, ops, state_args, *, seconds=None, limit=None, tracer=None) -> list[Record]:
    """Closed loop over ``ops`` (cycled): stop after ``limit`` ops, or at the
    first block boundary once ``seconds`` have passed and ``MIN_OPS`` ran."""
    state = wl.open_state(*state_args)
    records = []
    start = time.perf_counter()
    op_id = 0
    while True:
        op = ops[op_id % len(ops)]
        if limit is not None and op_id >= limit:
            break
        at_boundary = op_id == 0 or op.block != ops[(op_id - 1) % len(ops)].block
        if limit is None and at_boundary and op_id >= MIN_OPS and time.perf_counter() - start >= seconds:
            break
        records.append(run_op(wl, fc, op, state, op_id, tracer))
        op_id += 1
    return records


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_child(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=child_env(), check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def setup_seconds(workload: str) -> list[float]:
    """Fresh interpreters, each timing its own import of framecalc and warm-up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", workload],
            cwd=ROOT, env=child_env(), check=True, capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def setup_probe(workload: str) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import framecalc

    from workloads import WORKLOADS

    WORKLOADS[workload].warm_up(framecalc)
    print(repr(time.perf_counter() - start))
    return 0


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def op_list_hash(ops) -> str:
    digest = hashlib.sha256()

    def feed(value):
        if hasattr(value, "tobytes"):
            digest.update(value.tobytes())
        elif isinstance(value, dict):
            for key in sorted(value):
                digest.update(key.encode())
                feed(value[key])
        elif isinstance(value, tuple):
            for item in value:
                feed(item)
        else:
            digest.update(repr(value).encode())

    for op in ops:
        feed(tuple(op))
    return digest.hexdigest()


def provenance(seed: int, ops) -> dict:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "framecalc").glob("*.py")):
        source.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {key: os.environ.get(key) for key in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "ops_generated": len(ops),
        "op_list_sha256": op_list_hash(ops),
    }


# ---------------------------------------------------------------------------
# End-to-end metrics (untraced run)
# ---------------------------------------------------------------------------


def end_to_end(passes: list[list[Record]], setup: list[float], rss_mb: float) -> tuple[dict, list[str]]:
    """Metrics over the ops of the run; an op's latency is the median of its
    passes and it succeeds only if it succeeded in every pass."""
    n = len(passes[0])
    latencies = [statistics.median(p[i].latency_ns for p in passes) / 1e6 for i in range(n)]
    ok = sum(all(p[i].reason is None for p in passes) for i in range(n))
    executions = [r for p in passes for r in p]
    failed = sum(r.reason is not None for r in executions)
    errors = [r.err_kappa_eps for r in executions if r.reason is None and r.err_kappa_eps is not None]
    tail_p, beyond = tail_rule(n)
    busy_s = sum(latencies) / 1e3
    metrics = {
        "ops_per_s": (ok / busy_s, "ops/s", f"{ok} ok of {n} ops, {busy_s:.3f} s in ops"),
        "op_p50_ms": (statistics.median(latencies), "ms", f"n={n}"),
        "op_tail_ms": (percentile(latencies, tail_p), "ms", f"p{tail_p:g}, {beyond} samples beyond, n={n}"),
        "fail_share": (failed / len(executions), "ratio", f"{failed}/{len(executions)} executions"),
        "err_kappa_eps_max": (max(errors, default=0.0), "ratio", f"n={len(errors)} exact answers"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh set-ups"),
        "peak_rss_mb": (rss_mb, "MB", ""),
    }
    return metrics, [f"  {name:<20} {value:<22.10g} {unit:<6} {note}" for name, (value, unit, note) in metrics.items()]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run)
# ---------------------------------------------------------------------------


def orders(op) -> int:
    if op.kind == "run_convergence":
        return op.args["n_max"] + 1
    return op.args["order"] + 1 if "order" in op.args else 0


def gabor_macs(op) -> tuple[int, int]:
    """(2M+1)*G*(2S+1) multiply-adds and the phase-matrix bytes of one tightness_check."""
    if op.kind != "tightness_check":
        return 0, 0
    a = op.args
    grid = 2 * round(a["halfwidth"] * a["k"]) + 1
    shifts = 2 * math.ceil(a["halfwidth"] + math.pi / (a["p0"] * a["q0"])) + 1
    rows = 2 * a["M"] + 1
    return rows * grid * shifts, rows * grid * 16


def layer_metrics(ops, untraced: list[Record], traced: list[Record], recorded) -> dict:
    """Per-layer values of one op list; None where the ops never reach the layer."""
    from spans import is_outermost_factorization, layer_of, self_times
    from workloads import FRAME_KINDS

    n = len(traced)
    op_ns = sum(s.end_ns - s.start_ns for s in recorded if s.parent is None)
    top_ns = sum(s.end_ns - s.start_ns for s in recorded if s.parent is not None and recorded[s.parent].parent is None)
    own = self_times(recorded)
    layer_ns: Counter = Counter()
    calls: Counter = Counter()
    window_ns = 0
    factorizations: Counter = Counter()
    for i, span in enumerate(recorded):
        if span.parent is None:
            continue
        layer_ns[layer_of(span.name)] += own[i]
        calls[span.name] += 1
        if span.name == "gabor.window_g" and recorded[span.parent].name != "gabor.window_g":
            window_ns += span.end_ns - span.start_ns
        if is_outermost_factorization(recorded, i):
            factorizations[ops[span.op_id % len(ops)].kind] += 1
    kinds = Counter(r.kind for r in traced)
    total_orders = sum(orders(ops[i % len(ops)]) for i in range(n))
    macs = [gabor_macs(ops[i % len(ops)]) for i in range(n)]
    macs_total = sum(count for count, _ in macs)
    tightness_ns = sum(own[i] for i, s in enumerate(recorded) if s.name == "gabor.tightness_check")

    def per(value, count, scale=1e6):
        return value / scale / count if count and value else None

    def median_ms(kind):
        values = [r.latency_ns / 1e6 for r in untraced if r.kind == kind]
        return statistics.median(values) if values else None

    metrics = {
        "linalg.factorizations_per_op": sum(factorizations.values()) / n,
        "linalg.self_ms_per_op": per(layer_ns["linalg"], n),
        "linalg.share": layer_ns["linalg"] / op_ns,
        "frames.frame_operator_per_op": calls["frames.frame_operator"] / n,
        "frames.self_ms_per_op": per(layer_ns["frames"], n),
        "frames.reuse_share": sum(r.kind in FRAME_KINDS for r in traced) / n,
        "approx.orders_per_op": total_orders / n,
        "approx.self_ms_per_order": per(layer_ns["approx"], total_orders),
        "approx.share": layer_ns["approx"] / op_ns,
        "approx.bound_errors": sum(r.reason in ("bound_violated", "log_bound_overflow") for r in traced),
        "gabor.window_ms_per_op": per(window_ns, n),
        "gabor.tightness_self_ms_per_op": per(tightness_ns, n),
        "gabor.macs_computed": macs_total,
        "gabor.gmacs_per_s": macs_total / tightness_ns if tightness_ns else None,
        "gabor.phase_mb": max(size for _, size in macs) / 1e6,
        "cli.contract_violations": sum(
            r.reason is not None and r.reason not in ("wrong_answer", "bound_violated") for r in traced if r.kind in CLI_KINDS
        ),
        "trace.overhead_share": op_ns / sum(r.latency_ns for r in untraced) - 1.0,
        "trace.coverage": top_ns / op_ns,
        "fail_share": sum(r.reason is not None for r in untraced) / len(untraced),
        "err_kappa_eps_max": max(
            (r.err_kappa_eps for r in untraced if r.reason is None and r.err_kappa_eps is not None), default=0.0
        ),
    }
    for kind in ("construct",) + FRAME_KINDS:
        metrics[f"linalg.factorizations_per_op.{kind}"] = factorizations[kind] / kinds[kind] if kinds[kind] else 0.0
        metrics[f"frames.{kind}_ms"] = median_ms(kind)
    for kind in CLI_SUBCOMMANDS:
        metrics[f"cli.{kind}_ms"] = median_ms(kind)
    return metrics


def traced_pass(wl, fc, ops, state_args, limit):
    """The same ops untraced, then traced."""
    from spans import Tracer

    untraced = run_pass(wl, fc, ops, state_args, limit=limit)
    with Tracer() as tracer:
        traced = run_pass(wl, fc, ops, state_args, limit=limit, tracer=tracer)
    return untraced, traced, tracer


def standalone_probes(fc, np) -> dict:
    """Layer timings that do not depend on the workload."""
    import oracle

    rng = np.random.default_rng(0)
    m = {}
    for n, repeats in FACTORIZE_SIZES:
        samples = []
        for _ in range(repeats):
            truth = oracle.make_frame(rng, 2 * n, oracle.spectrum(rng, n, 1.0, 100.0))
            frame = fc.Frame(n, truth.vectors)
            start = time.perf_counter_ns()
            fc.optimal_bounds(frame)
            samples.append((time.perf_counter_ns() - start) / 1e6)
        m[f"linalg.factorize_ms.n{n}"] = statistics.median(samples)
    python = [sys.executable, "-c"]
    m["cli.interpreter_ms"] = 1e3 * statistics.median(
        timed_child(python + ["import numpy"]) for _ in range(CHILD_PROBE_REPEATS)
    )
    m["cli.import_ms"] = 1e3 * statistics.median(
        timed_child(python + ["import framecalc"]) for _ in range(CHILD_PROBE_REPEATS)
    )
    samples = []
    for _ in range(CHILD_PROBE_REPEATS):
        start = time.perf_counter_ns()
        fc.builtin_checks()
        samples.append((time.perf_counter_ns() - start) / 1e6)
    m["reference.builtin_checks_ms"] = statistics.median(samples)
    return m


def per_layer(wl, fc, np, ops, seed: int, workdir: str) -> tuple[dict, list[str], list[Record]]:
    from workloads import WORKLOADS

    env = child_env()
    limit = sum(op.block < wl.trace_blocks for op in ops)
    untraced, traced, tracer = traced_pass(wl, fc, ops, (seed, workdir, env), limit)
    metrics = layer_metrics(ops, untraced, traced, tracer.spans)
    # Layers this workload never reaches are timed on every workload's probe ops.
    probe = {}
    for other in WORKLOADS.values():
        probe_ops = other.probe_ops()
        p_untraced, p_traced, p_tracer = traced_pass(other, fc, probe_ops, (0, workdir + "-probe", env), len(probe_ops))
        for key, value in layer_metrics(probe_ops, p_untraced, p_traced, p_tracer.spans).items():
            if value is not None and probe.get(key) is None:
                probe[key] = value
    notes = {}
    for key, value in metrics.items():
        if value is None:
            metrics[key] = probe[key]
            notes[key] = "(layer probe)"
    metrics.update(standalone_probes(fc, np))
    for key in ("linalg.factorize_ms.n8", "linalg.factorize_ms.n32", "linalg.factorize_ms.n128",
                "cli.interpreter_ms", "cli.import_ms", "reference.builtin_checks_ms"):  # fmt: skip
        notes[key] = "(layer probe)"
    tracer.write(OUT / f"trace-{wl.name}-seed{seed}.jsonl")
    lines = [f"  {key:<42} {metrics[key]:<22.10g} {notes.get(key, '')}" for key in sorted(metrics)]
    lines.append(f"  spans: {len(tracer.spans)}, written to {OUT.name}/trace-{wl.name}-seed{seed}.jsonl")
    return metrics, lines, untraced + traced


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "framecalc" / "__init__.py").is_file():
        print(f"error: framecalc sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.workload == "all":
        for name in WORKLOAD_NAMES:
            argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run([sys.executable, str(Path(__file__))] + argv, cwd=ROOT).returncode
            if code != 0:
                return code
        return 0

    import numpy as np

    from workloads import KNOWN_DEFECTS, WORKLOADS

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    wl = WORKLOADS[args.workload]
    ops = wl.generate(args.seed)
    info = provenance(args.seed, ops)
    workdir = str(OUT / f"{wl.name}-seed{args.seed}-pid{os.getpid()}")

    sys.path.insert(0, str(SRC))
    import framecalc as fc

    wl.warm_up(fc)
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, lines, records = per_layer(wl, fc, np, ops, args.seed, workdir)
            wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
            note = f"traced run: the first {wl.trace_blocks} block(s) untraced, then traced"
        else:
            setup = setup_seconds(wl.name)
            state_args = (args.seed, workdir, child_env())
            passes = [run_pass(wl, fc, ops, state_args, seconds=args.seconds / PASSES)]
            for _ in range(PASSES - 1):
                passes.append(run_pass(wl, fc, ops, state_args, limit=len(passes[0])))
            records = [r for p in passes for r in p]
            all_metrics, lines = end_to_end(passes, setup, peak_rss_mb(wl.name))
            wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {key: value for key, (value, _, _) in all_metrics.items()}
            note = f"closed loop, 1 caller, {len(passes[0])} ops x {PASSES} passes"
    finally:
        for path in (workdir, workdir + "-probe"):
            shutil.rmtree(path, ignore_errors=True)

    reasons = Counter(r.reason for r in records if r.reason is not None)
    unknown = [reason for reason in reasons if reason not in KNOWN_DEFECTS]
    print(f"workload {wl.name} seed {args.seed} ({note})")
    print("\n".join(lines))
    print("failures by reason:" + ("" if reasons else " none"))
    for reason, count in sorted(reasons.items()):
        print(f"  {reason:<32} {count:>6}  {'UNEXPECTED' if reason in unknown else 'known defect'}")
    print("provenance: " + json.dumps(info))
    result = {
        "correct": not unknown,
        "attempted": len(records),
        "failed": sum(reasons.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
