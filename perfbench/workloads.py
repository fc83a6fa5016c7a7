"""The four workloads: seeded op generators, executors and checks.

Each workload turns a seed into a list of ``Op``; ``execute`` runs one op
through framecalc's public API (looked up on the package at call time, so a
tracer's rebinding applies) and ``check`` compares its output with ``oracle``,
which never calls framecalc. A failed op gets a reason code; the codes in
``KNOWN_DEFECTS`` are defects of the library kept in the workloads on purpose.

Op lists are made of blocks. What sets an op's cost (sizes, condition
bands, series orders, grid sizes, subcommands) follows a fixed plan inside
each block, in a seeded order, and a run stops only at a block boundary, so
every run does the same mix of work under every seed; the seed draws the
values inside the plan.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from itertools import product
from typing import NamedTuple

import numpy as np

import oracle

KNOWN_DEFECTS = {
    "stamped_bounds_revalidation": "dual_frame/alpha_frame re-validate stamped bounds "
    "and miss by ~1e-6 relative on ill-conditioned frames (ValueError)",
    "log_bound_overflow": "log_bound converts (N+1)! to float and raises OverflowError "
    "at N >= 170 (CLI: exit 1 with a traceback)",
    "overflow_runtime_warning": "entries near 1e308 overflow S = V^T V with a numpy "
    "RuntimeWarning before the input error",
    "gabor_wrapped_modulation": "tightness_check on a modulation range that wraps the "
    "grid's frequency period returns a wrong ratio, with no warning",
    "bound_slack_rounding_floor": "run_convergence flags a bound violation once the bound "
    "falls below the rounding floor (~kappa*eps) of the measured error; its slack is a "
    "fixed 1e-13",
    "ill_conditioned_identity_check": "proposition1_check fails its own 1e-9 identity "
    "check on frames with kappa >= 1e6: S = V^T V squares kappa before Jacobi",
}

# Below this condition number a failed bounds re-validation is not the known
# defect but a new one.
REVALIDATION_KAPPA = 1e6

ALPHAS = (-1.0, -0.5, -0.25, 0.5)


class Op(NamedTuple):
    kind: str
    args: dict
    truth: object = None
    block: int = 0


class Outcome(NamedTuple):
    reason: str | None  # None when the op succeeded
    err_kappa_eps: float | None = None  # set when the op has an exact answer


OK = Outcome(None)


def balanced(rng: np.random.Generator, values, count: int) -> list:
    """``count`` draws in which every run of len(values) is a permutation."""
    picks: list = []
    while len(picks) < count:
        picks.extend(values[i] for i in rng.permutation(len(values)))
    return picks[:count]


def _exact(error: float, kappa: float) -> Outcome:
    ratio = error / (kappa * oracle.EPS)
    if oracle.accepted(error, kappa):
        return Outcome(None, ratio)
    return Outcome("wrong_answer", ratio)


class Workload:
    name = ""
    trace_blocks = 1  # blocks in the traced run: fixed, so its counts repeat exactly

    def open_state(self, seed: int, workdir: str, env: dict) -> dict:
        """Per-pass state handed to ``execute`` (frames built so far)."""
        return {}

    def warm_up(self, fc) -> None:
        state: dict = {}
        for op in self.probe_ops():
            self.execute(fc, op, state)

    def classify(self, op: Op, exc: BaseException) -> str:
        """Reason code of an op that raised."""
        return f"exception:{type(exc).__name__}"


# ---------------------------------------------------------------------------
# power-family: frames and linalg
# ---------------------------------------------------------------------------

# A block is a cycle of ten frames, sizes 8:16:32:64 in the ratio 4:3:2:1.
# The cost of a frame's ops is set by its size, its condition number and
# which ops it gets, so those follow the slot; the seed draws the bases, the
# spectra inside each band, the count ratios, the probes and the op order.
FRAME_SIZES = (64, 8, 16, 8, 32, 8, 16, 8, 32, 16)
# log10(kappa) band of each slot: 80% of frames in [1, 1e4], 20% in
# [1e4, 1e11]. Jacobi is nearly free as kappa -> 1, so the [1, 10^0.5] band
# sits on an n=8 slot where that swing is small. The ill-conditioned defects
# set in between 1e7 and 1e9, so of the two high bands [1e4, 1e6] never
# shows them and [1e9, 1e11] always does.
KAPPA_BANDS = ((2.0, 2.5), (0.0, 0.5), (1.0, 1.5), (0.5, 1.0), (3.0, 3.5),
               (1.5, 2.0), (4.0, 6.0), (3.5, 4.0), (9.0, 11.0), (2.5, 3.0))  # fmt: skip
COUNT_RATIOS = (1.25, 2.0, 4.0)
FRAME_KINDS = ("alpha_frame", "dual_frame", "reconstruct", "diagnostics", "proposition1_check")
PROP1_SAMPLES = 32


def power_frame(rng: np.random.Generator, n: int, ratio: float, kappa: float) -> oracle.Truth:
    lam_min = 10.0 ** rng.uniform(-0.5, 0.5)
    lam = oracle.spectrum(rng, n, lam_min, lam_min * kappa)
    return oracle.make_frame(rng, math.ceil(ratio * n), lam)


# Ops per frame (4 to 6) by slot. With 57 ops in a block the median falls
# among the n=16 ops and the 75th percentile among the n=32 ones, not on the
# edge between two sizes.
OPS_PER_FRAME = (4, 5, 5, 4, 6, 4, 5, 4, 6, 4)


def frame_plan(slot: int) -> list[tuple[str, float]]:
    """The (kind, alpha) ops of the frame in ``slot``: every kind once, or
    one dropped or one repeated, rotating with the slot. alpha = -1/2 makes the
    re-validated family tight and its check nearly free, so it is planned too."""
    kinds = list(FRAME_KINDS)
    if OPS_PER_FRAME[slot] == 4:
        kinds.remove(FRAME_KINDS[slot % 5])
    elif OPS_PER_FRAME[slot] == 6:
        kinds.append(FRAME_KINDS[(slot + 2) % 5])
    return [(kind, ALPHAS[(slot + j) % len(ALPHAS)]) for j, kind in enumerate(kinds)]


class PowerFamily(Workload):
    name = "power-family"

    def generate(self, seed: int, frames: int = 300) -> list[Op]:
        rng = np.random.default_rng(seed)
        ratios = balanced(rng, COUNT_RATIOS, frames)
        ops = []
        for i in range(frames):
            slot, block = i % len(FRAME_SIZES), i // len(FRAME_SIZES)
            low, high = KAPPA_BANDS[slot]
            truth = power_frame(rng, FRAME_SIZES[slot], ratios[i], 10.0 ** rng.uniform(low, high))
            slack = 1.0 + rng.uniform(0.0, 0.05, 2)
            bounds = (float(truth.lam[0] / slack[0]), float(truth.lam[-1] * slack[1]))
            ops.append(Op("construct", {"frame": i, "bounds": bounds}, truth, block))
            planned = frame_plan(slot)
            for index in rng.permutation(len(planned)):
                kind, alpha = planned[index]
                args = {"frame": i, "alpha": alpha}
                if kind == "reconstruct":
                    args["f"] = rng.standard_normal(truth.vectors.shape[1])
                if kind == "proposition1_check":
                    args["seed"] = int(rng.integers(0, 2**31))
                ops.append(Op(kind, args, truth, block))
        return ops

    def probe_ops(self) -> list[Op]:
        truth = power_frame(np.random.default_rng(0), 16, 2.0, 100.0)
        bounds = (float(truth.lam[0]), float(truth.lam[-1]))
        ops = [Op("construct", {"frame": 0, "bounds": bounds}, truth)]
        for kind in FRAME_KINDS:
            ops.append(Op(kind, {"frame": 0, "alpha": 0.5, "f": np.ones(16), "seed": 1}, truth))
        return ops

    def execute(self, fc, op: Op, frames: dict):
        args = op.args
        if op.kind == "construct":
            frame = fc.Frame(op.truth.vectors.shape[1], op.truth.vectors, args["bounds"])
            frames[args["frame"]] = frame
            return frame
        frame = frames[args["frame"]]
        if op.kind == "alpha_frame":
            return fc.alpha_frame(frame, args["alpha"])
        if op.kind == "dual_frame":
            return fc.dual_frame(frame)
        if op.kind == "reconstruct":
            return fc.reconstruct(frame, args["alpha"], args["f"])
        if op.kind == "diagnostics":
            return fc.diagnostics(frame)
        return fc.proposition1_check(frame, args["alpha"], PROP1_SAMPLES, seed=args["seed"])

    def check(self, op: Op, out) -> Outcome:
        truth = op.truth
        lam, kappa = truth.lam, truth.kappa
        lam_min, lam_max = float(lam[0]), float(lam[-1])
        if op.kind == "construct":
            return OK if out.declared_bounds == op.args["bounds"] else Outcome("wrong_answer")
        if op.kind in ("alpha_frame", "dual_frame"):
            alpha = -1.0 if op.kind == "dual_frame" else op.args["alpha"]
            expected = oracle.stamped_bounds(lam_min, lam_max, alpha)
            error = max(
                oracle.rel_err(out.vectors, oracle.family(truth, lam**alpha)),
                oracle.rel_err(out.declared_bounds, expected),
            )
            return _exact(error, kappa)
        if op.kind == "reconstruct":
            return _exact(oracle.rel_err(out, op.args["f"]), kappa)
        if op.kind == "diagnostics":
            if not (out.is_frame and out.kernel_trivial and out.inverse_norm is not None):
                return Outcome("wrong_answer")
            error = max(
                abs(out.lambda_min - lam_min) / lam_min,
                abs(out.lambda_max - lam_max) / lam_max,
                abs(out.inverse_norm * lam_min - 1.0),
            )
            return _exact(error, kappa)
        # proposition1_check
        if not out.passed:
            return Outcome("ill_conditioned_identity_check" if kappa >= REVALIDATION_KAPPA else "bound_violated")
        if out.samples != PROP1_SAMPLES + len(lam):
            return Outcome("wrong_answer")
        expected = oracle.stamped_bounds(lam_min, lam_max, op.args["alpha"])
        return _exact(oracle.rel_err((out.lower, out.upper), expected), kappa)

    def classify(self, op: Op, exc: BaseException) -> str:
        if isinstance(exc, ValueError) and "do not enclose" in str(exc) and op.truth.kappa >= REVALIDATION_KAPPA:
            return "stamped_bounds_revalidation"
        return super().classify(op, exc)


# ---------------------------------------------------------------------------
# convergence: approx
# ---------------------------------------------------------------------------

REGIMES = ("below", "straddling", "above")
N_MAXES = (10, 40, 100, 200)
DIRECT_ORDERS = (5, 10, 20, 40)
DIRECT_CALLS = {
    oracle.NEUMANN: "neumann_dual",
    oracle.BINOMIAL: "binomial_tight",
    oracle.LOGARITHMIC: "log_dual",
}
# Two convergence runs per scheme for every direct call of each scheme.
CALLS = tuple(("run_convergence", s) for s in oracle.SCHEMES for _ in range(2)) + tuple(
    (DIRECT_CALLS[s], s) for s in oracle.SCHEMES
)
SHAPES = ((4, 2), (4, 8), (8, 2), (8, 8))  # (n, count/n)
# A block is every combination of call, N_max, sample count and shape: 288 ops.
CONVERGENCE_BLOCK = tuple(product(CALLS, N_MAXES, (32, 256), SHAPES))


def regime_spectrum(rng: np.random.Generator, n: int, regime: str, ratio: float) -> np.ndarray:
    """Eigenvalues with lam_max/lam_min = ratio, placed below, across or above one
    far enough that bounds loosened by up to 10% stay in the same regime."""
    if regime == "below":
        lam_max = 10.0 ** rng.uniform(-1.5, -0.1)
        lam_min = lam_max / ratio
    elif regime == "above":
        lam_min = 10.0 ** rng.uniform(0.1, 1.5)
        lam_max = lam_min * ratio
    else:
        t = rng.uniform(0.2, 0.8)
        lam_min, lam_max = ratio**-t, ratio ** (1.0 - t)
    return oracle.spectrum(rng, n, lam_min, lam_max)


class Convergence(Workload):
    name = "convergence"

    def generate(self, seed: int, blocks: int = 14) -> list[Op]:
        rng = np.random.default_rng(seed)
        count = blocks * len(CONVERGENCE_BLOCK)
        plan = balanced(rng, CONVERGENCE_BLOCK, count)
        regimes = balanced(rng, REGIMES, count)
        loosened = balanced(rng, (False, True), count)
        orders = balanced(rng, DIRECT_ORDERS, count)
        ops = []
        for i in range(count):
            (kind, scheme), n_max, samples, (n, per) = plan[i]
            if scheme == oracle.BINOMIAL:
                ratio = rng.uniform(1.05, 2.4)
            else:
                ratio = 10.0 ** rng.uniform(0.02, 4.0)
            lam = regime_spectrum(rng, n, regimes[i], ratio)
            truth = oracle.make_frame(rng, n * per, lam)
            lower, upper = float(lam[0]), float(lam[-1])
            if loosened[i]:
                lower /= 1.0 + rng.uniform(0.0, 0.1)
                upper *= 1.0 + rng.uniform(0.0, 0.1)
            args = {"scheme": scheme, "A": lower, "B": upper}
            if kind == "run_convergence":
                args.update(n_max=n_max, samples=samples, seed=int(rng.integers(0, 2**31)))
            else:
                args["order"] = orders[i]
            ops.append(Op(kind, args, truth, i // len(CONVERGENCE_BLOCK)))
        return ops

    def probe_ops(self) -> list[Op]:
        rng = np.random.default_rng(0)
        lam = regime_spectrum(rng, 8, "straddling", 2.0)
        truth = oracle.make_frame(rng, 16, lam)
        args = {"A": float(lam[0]), "B": float(lam[-1]), "n_max": 40, "samples": 32, "seed": 1}
        return [Op("run_convergence", dict(args, scheme=s), truth) for s in oracle.SCHEMES]

    def execute(self, fc, op: Op, state: dict):
        args = op.args
        frame = fc.Frame(op.truth.vectors.shape[1], op.truth.vectors)
        if op.kind == "run_convergence":
            return fc.run_convergence(
                frame, args["scheme"], args["A"], args["B"], args["n_max"], args["samples"], args["seed"]
            )
        return getattr(fc, op.kind)(frame, args["A"], args["B"], args["order"])

    def check(self, op: Op, out) -> Outcome:
        args = op.args
        scheme, lower, upper = args["scheme"], args["A"], args["B"]
        truth = op.truth
        if op.kind != "run_convergence":
            order = args["order"]
            multiplier = oracle.series_multipliers(scheme, truth.lam, lower, upper, order)[order]
            return _exact(oracle.rel_err(out.vectors, oracle.family(truth, multiplier)), truth.kappa)
        return check_convergence_rows(
            scheme,
            truth.lam,
            lower,
            upper,
            [(row.order, row.measured_error, row.analytical_bound) for row in out.rows],
            args["n_max"],
        )

    def classify(self, op: Op, exc: BaseException) -> str:
        if (
            isinstance(exc, OverflowError)
            and op.kind == "run_convergence"
            and op.args["scheme"] == oracle.LOGARITHMIC
            and op.args["n_max"] >= 170
        ):
            return "log_bound_overflow"
        return super().classify(op, exc)


def check_convergence_rows(scheme, lam, lower, upper, rows, n_max) -> Outcome:
    """Rows (N, measured, bound) against the independent bounds and the
    spectral prediction of the measured error. A row the library counts as
    violated is the rounding-floor defect when its measured error is at the
    rounding floor, and a broken bound otherwise."""
    if [row[0] for row in rows] != list(range(n_max + 1)):
        return Outcome("wrong_answer")
    predicted = oracle.predicted_errors(scheme, lam, lower, upper, n_max)
    reason = None
    for (order, measured, bound), expected in zip(rows, predicted):
        if not oracle.bounds_close(bound, oracle.analytical_bound(scheme, lower, upper, order)):
            return Outcome("wrong_answer")
        if abs(measured - expected) > oracle.SERIES_RTOL * expected + oracle.SERIES_ATOL:
            return Outcome("wrong_answer")
        if not oracle.library_bound_holds(measured, bound):
            if measured > oracle.rounding_floor(lower, upper):
                return Outcome("bound_violated")
            reason = "bound_slack_rounding_floor"
    return Outcome(reason)


# ---------------------------------------------------------------------------
# gabor-window: gabor only
# ---------------------------------------------------------------------------

GRID_DIVISIONS = (32, 64, 128)
HALFWIDTHS = (8, 12, 24)
# A block is every grid size and half width, with one op in eight wrapped: 72 ops.
GABOR_BLOCK = tuple(product(GRID_DIVISIONS, HALFWIDTHS, (True,) + (False,) * 7))


# q0 = r*pi/p0. Past r ~ 1.3 the window's edges (width (2 - r)*pi/p0) get so
# steep that M <= 0.9*k/r truncates them on the k=32 grid and the library
# rightly warns, so r stays below that.
R_RANGE = (1.0, 1.3)


def gabor_args(rng: np.random.Generator, p0: float, k: int, halfwidth: int, wrapped: bool) -> dict:
    r = rng.uniform(*R_RANGE)
    limit = k / r  # M * p0 reaches the grid's Nyquist frequency here
    if wrapped:  # twice past Nyquist: the sum folds over the whole spectrum
        mod_order = math.ceil(rng.uniform(2.0, 2.2) * limit)
    else:
        mod_order = math.floor(rng.uniform(0.75, 0.9) * limit)
    q0 = r * math.pi / p0
    return {"p0": p0, "q0": q0, "k": k, "halfwidth": halfwidth, "M": mod_order, "wrapped": wrapped}


class GaborWindow(Workload):
    name = "gabor-window"

    def generate(self, seed: int, blocks: int = 40) -> list[Op]:
        rng = np.random.default_rng(seed)
        count = blocks * len(GABOR_BLOCK)
        plan = balanced(rng, GABOR_BLOCK, count)
        p0s = balanced(rng, (0.5, 1.0, 2.0), count)
        probes = balanced(rng, ("window", "signal"), count)
        parseval = balanced(rng, (False, True), count)
        ops = []
        for i in range(count):
            args = gabor_args(rng, p0s[i], *plan[i])
            args.update(probe=probes[i], parseval=parseval[i], signal_seed=int(rng.integers(0, 2**31)))
            ops.append(Op("tightness_check", args, None, i // len(GABOR_BLOCK)))
        return ops

    def probe_ops(self) -> list[Op]:
        rng = np.random.default_rng(0)
        return [
            Op("tightness_check", dict(gabor_args(rng, 1.0, 64, 12, False), probe=probe, parseval=False, signal_seed=1))
            for probe in ("window", "signal")
        ]

    @staticmethod
    def gain(args: dict) -> float:
        return math.sqrt(args["p0"] * args["q0"] / (2.0 * math.pi)) if args["parseval"] else 1.0

    def execute(self, fc, op: Op, state: dict):
        args = op.args
        q0 = args["q0"]
        params = fc.GaborParams(
            p0=args["p0"], q0=q0, grid_step=q0 / args["k"], grid_halfwidth=args["halfwidth"] * q0, mod_order=args["M"]
        )
        if args["probe"] == "window":
            signal = fc.window_g(fc.sample_grid(params), params)
        else:
            signal = fc.gabor_probe_signals(params, count=2, seed=args["signal_seed"])[1]
        return fc.tightness_check(signal, params, window_gain=self.gain(args))

    def check(self, op: Op, out) -> Outcome:
        args = op.args
        target = oracle.gabor_target(args["p0"], args["q0"], self.gain(args))
        error = abs(out.ratio - target) / target
        if abs(out.target - target) > 1e-12 * target or error > oracle.GABOR_RTOL or out.truncation_warning:
            return Outcome("gabor_wrapped_modulation" if args["wrapped"] else "wrong_answer", error / oracle.EPS)
        return Outcome(None, error / oracle.EPS)



# ---------------------------------------------------------------------------
# cli: python -m framecalc subprocesses, one at a time
# ---------------------------------------------------------------------------

N, BH, LG = oracle.SCHEMES
# A block of 24 ops: 20 valid subcommands and 4 invalid inputs (one in six),
# each on a planned file; the alphas, seeds and window parameters are drawn.
CLI_BLOCK = (
    ("analyze", {"file": "a3"}), ("analyze", {"file": "b16"}),
    ("analyze", {"file": "c32"}), ("analyze", {"file": "d16"}),
    ("alpha", {"file": "b16"}), ("alpha", {"file": "c32"}), ("alpha", {"file": "d16"}),
    ("dual", {"file": "a3"}), ("dual", {"file": "c32"}), ("dual", {"file": "d16"}),
    ("perturb", {"file": "b16", "scheme": N, "n_max": None}),
    ("perturb", {"file": "c32", "scheme": N, "n_max": 200}),
    ("perturb", {"file": "a3", "scheme": BH, "n_max": None}),
    ("perturb", {"file": "b16", "scheme": BH, "n_max": 200}),
    ("perturb", {"file": "c32", "scheme": LG, "n_max": None}),
    ("perturb", {"file": "b16", "scheme": LG, "n_max": 200}),
    ("gabor", {"k": 32}), ("gabor", {"k": 64}),
    ("examples", {}), ("examples", {}),
    ("invalid", {"file": "malformed", "target": "analyze"}),
    ("invalid", {"file": "bool_dim", "target": "dual"}),
    ("invalid", {"file": "huge", "target": "alpha"}),
    ("invalid", {"file": "malformed", "target": "perturb"}),
)  # fmt: skip
CLI_FRAMES = {  # name: (n, count, kappa range); "d16" is the kappa = 1e10 frame
    "a3": (3, 5, (1.5, 2.5)),
    "b16": (16, 32, (1.5, 2.5)),
    "c32": (32, 64, (10.0, 1000.0)),
    "d16": (16, 32, (1e10, 1e10)),
}
CLI_TIMEOUT_S = 120


def _frame_json(vectors: np.ndarray) -> str:
    rows = ", ".join("[" + ", ".join(format(float(x), ".17g") for x in row) + "]" for row in vectors)
    return '{"dim": %d, "vectors": [%s]}\n' % (vectors.shape[1], rows)


def cli_files(rng: np.random.Generator) -> tuple[dict, dict]:
    """Input files (name -> text) and the ground truth of the frame files."""
    truths, files = {}, {}
    for name, (n, count, (k_lo, k_hi)) in CLI_FRAMES.items():
        kappa = math.exp(rng.uniform(math.log(k_lo), math.log(k_hi))) if k_hi > k_lo else k_lo
        lam_min = 10.0 ** rng.uniform(-0.5, 0.5)
        truths[name] = oracle.make_frame(rng, count, oracle.spectrum(rng, n, lam_min, lam_min * kappa))
        files[f"{name}.json"] = _frame_json(truths[name].vectors)
    files["malformed.json"] = '{"dim": 3,, "vectors": [[1.0, 0.0, 0.0]]}\n'
    files["bool_dim.json"] = '{"dim": true, "vectors": [[1.0], [0.5]]}\n'
    files["huge.json"] = _frame_json(rng.uniform(0.5, 1.0, (4, 3)) * 1e308)
    return files, truths


class Cli(Workload):
    name = "cli"

    @staticmethod
    def files(seed: int) -> tuple[dict, dict]:
        return cli_files(np.random.default_rng([seed, 1]))

    def open_state(self, seed: int, workdir: str, env: dict) -> dict:
        os.makedirs(workdir, exist_ok=True)
        for name, text in self.files(seed)[0].items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        return {"cwd": workdir, "env": env, "command": [sys.executable, "-m", "framecalc"]}

    def generate(self, seed: int, blocks: int = 40) -> list[Op]:
        truths = self.files(seed)[1]
        rng = np.random.default_rng(seed)
        ops = []
        for i, (kind, planned) in enumerate(balanced(rng, CLI_BLOCK, blocks * len(CLI_BLOCK))):
            args = dict(planned)
            if kind == "alpha":
                args["alpha"] = float(rng.choice(ALPHAS))
            elif kind == "perturb":
                args["seed"] = int(rng.integers(0, 1000))
            elif kind == "gabor":
                args = gabor_args(rng, float(rng.choice((0.5, 1.0, 2.0))), planned["k"], 8, False)
            ops.append(Op(kind, args, truths.get(args.get("file")), i // len(CLI_BLOCK)))
        return ops

    def probe_ops(self) -> list[Op]:
        """One op per subcommand, on the files of seed 0."""
        rng = np.random.default_rng(0)
        truths = self.files(0)[1]
        ops = [Op(k, {"file": "b16"}, truths["b16"]) for k in ("analyze", "dual")]
        ops.append(Op("alpha", {"file": "b16", "alpha": 0.5}, truths["b16"]))
        ops.append(Op("perturb", {"file": "b16", "scheme": oracle.NEUMANN, "n_max": None, "seed": 0}, truths["b16"]))
        ops.append(Op("gabor", gabor_args(rng, 1.0, 32, 8, False)))
        ops.append(Op("examples", {}))
        return ops

    def warm_up(self, fc) -> None:
        import framecalc.cli

        with contextlib.redirect_stdout(io.StringIO()):
            framecalc.cli.main(["gabor", "--M", "8", "--halfwidth", "8"])

    @staticmethod
    def argv(op: Op) -> list[str]:
        args = op.args
        path = f"{args.get('file')}.json"
        if op.kind == "analyze":
            return ["analyze", path]
        if op.kind == "alpha":
            return ["alpha", path, "--alpha", repr(args["alpha"])]
        if op.kind == "dual":
            return ["dual", path]
        if op.kind == "perturb":
            extra = [] if args["n_max"] is None else ["--N-max", str(args["n_max"])]
            return ["perturb", path, "--scheme", args["scheme"].lower(), "--seed", str(args["seed"])] + extra
        if op.kind == "gabor":
            q0 = args["q0"]
            return [
                "gabor", "--p0", repr(args["p0"]), "--q0", repr(q0), "--grid-step", repr(q0 / args["k"]),
                "--halfwidth", repr(args["halfwidth"] * q0), "--M", str(args["M"]),
            ]  # fmt: skip
        if op.kind == "examples":
            return ["examples"]
        target = args["target"]
        tail = {"alpha": ["--alpha", "0.5"], "perturb": ["--scheme", "neumann"]}.get(target, [])
        return [target, path] + tail

    def execute(self, fc, op: Op, state: dict):
        """``state`` carries the child command prefix, environment and directory."""
        return subprocess.run(
            state["command"] + self.argv(op),
            cwd=state["cwd"],
            env=state["env"],
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )

    def check(self, op: Op, proc) -> Outcome:
        err = proc.stderr
        if op.kind == "invalid":
            if "RuntimeWarning" in err and op.args["file"] == "huge":
                return Outcome("overflow_runtime_warning")
            one_line = err.count("\n") == 1 and err.startswith("error: ")
            return OK if proc.returncode == 2 and one_line else Outcome("contract_violation")
        if proc.returncode != 0 or err:
            if "OverflowError" in err and op.kind == "perturb" and op.args["scheme"] == oracle.LOGARITHMIC:
                return Outcome("log_bound_overflow")
            if "do not enclose" in err and op.truth is not None and op.truth.kappa >= REVALIDATION_KAPPA:
                return Outcome("stamped_bounds_revalidation")
            if not ("bound violated" in err and proc.returncode == 1 and "Traceback" not in err):
                return Outcome("contract_violation")
        return self._check_output(op, proc.stdout, proc.returncode)

    def _check_output(self, op: Op, stdout: str, returncode: int) -> Outcome:
        """Parse and check the output of a child that exited as expected;
        unparsable output raises, which the runner counts as a wrong answer."""
        truth = op.truth
        if op.kind == "examples":
            lines = stdout.strip().splitlines()
            passed, total = lines[-1].split()[0].split("/")
            ok = passed == total and all(line.startswith("PASS") for line in lines[:-1])
            return OK if ok and int(total) == len(lines) - 1 else Outcome("wrong_answer")
        if op.kind == "gabor":
            report = json.loads(stdout)
            target = oracle.gabor_target(op.args["p0"], op.args["q0"], 1.0)
            error = abs(report["ratio"] - target) / target
            ok = error <= oracle.GABOR_RTOL and not report["truncation_warning"]
            return Outcome(None if ok else "wrong_answer", error / oracle.EPS)
        lam, kappa = truth.lam, truth.kappa
        if op.kind == "analyze":
            report = json.loads(stdout)
            if not report["is_frame"] or report["num_vectors"] != len(truth.vectors):
                return Outcome("wrong_answer")
            error = max(
                abs(report["lambda_min"] / lam[0] - 1.0),
                abs(report["lambda_max"] / lam[-1] - 1.0),
                abs(report["inverse_norm"] * lam[0] - 1.0),
                oracle.rel_err(report["eigenvalues"], lam),
            )
            return _exact(error, kappa)
        if op.kind in ("alpha", "dual"):
            frame = json.loads(stdout)
            if op.kind == "dual":
                alpha, expected = -1.0, oracle.lstsq_dual(truth.vectors)
            else:
                alpha = op.args["alpha"]
                expected = oracle.family(truth, lam**alpha)
            bounds = oracle.stamped_bounds(float(lam[0]), float(lam[-1]), alpha)
            error = max(oracle.rel_err(frame["vectors"], expected), oracle.rel_err(frame["bounds"], bounds))
            return _exact(error, kappa)
        # perturb
        lines = stdout.strip().splitlines()
        if lines[0] != "scheme,A,B,N,measured_error,analytical_bound":
            return Outcome("wrong_answer")
        cells = [line.split(",") for line in lines[1:]]
        if any(cell[0] != op.args["scheme"] for cell in cells):
            return Outcome("wrong_answer")
        lower, upper = float(cells[0][1]), float(cells[0][2])
        if not oracle.accepted(max(abs(lower / lam[0] - 1.0), abs(upper / lam[-1] - 1.0)), kappa):
            return Outcome("wrong_answer")
        rows = [(int(c[3]), float(c[4]), float(c[5])) for c in cells]
        n_max = 10 if op.args["n_max"] is None else op.args["n_max"]
        outcome = check_convergence_rows(op.args["scheme"], lam, lower, upper, rows, n_max)
        if (outcome.reason is None) != (returncode == 0):
            return Outcome("contract_violation")
        return outcome


WORKLOADS = {w.name: w for w in (PowerFamily(), Convergence(), GaborWindow(), Cli())}
