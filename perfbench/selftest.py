"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the library's own suite does not collect it.
"""

from __future__ import annotations

import inspect
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import framecalc  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    wl = WORKLOADS[name]
    first = run.op_list_hash(wl.generate(11))
    assert first == run.op_list_hash(wl.generate(11))
    assert first != run.op_list_hash(wl.generate(12))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_block_has_the_same_plan(name):
    ops = WORKLOADS[name].generate(3)
    plans = {}
    for op in ops:
        plans.setdefault(op.block, []).append(op.kind)
    sizes = {block: sorted(kinds) for block, kinds in plans.items()}
    assert len({tuple(kinds) for kinds in sizes.values()}) == 1


def test_tail_rule_keeps_ten_samples_beyond():
    assert run.tail_rule(20) == (50.0, 10)
    assert run.tail_rule(58) == (75.0, 14)
    assert run.tail_rule(100) == (90.0, 10)
    assert run.tail_rule(99) == (75.0, 24)
    assert run.tail_rule(10_000) == (99.9, 10)
    for n in range(20, 3000):
        p, beyond = run.tail_rule(n)
        assert beyond == n - math.ceil(p * n / 100.0 - 1e-9) >= 10
        higher = [q for q in run.TAIL_LADDER if q > p]
        assert all(n - math.ceil(q * n / 100.0 - 1e-9) < 10 for q in higher)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 90.0) == 90.0
    assert run.percentile(values, 99.9) == 100.0
    assert run.percentile([5.0], 50.0) == 5.0


def _namespaces():
    modules = [m for n, m in sys.modules.items() if n == "framecalc" or n.startswith("framecalc.")]
    modules.append(np.linalg)
    return {
        (module.__name__, attr): value
        for module in modules
        for attr, value in vars(module).items()
        if inspect.isfunction(value) or attr in spans.NUMPY_FACTORIZATIONS
    }


def test_tracer_rebinds_and_restores_every_namespace():
    import framecalc.cli  # noqa: F401  (the CLI module is one of the namespaces)

    before = _namespaces()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert framecalc.alpha_frame is not before[("framecalc", "alpha_frame")]
            assert framecalc.frames.alpha_frame is framecalc.alpha_frame
            assert framecalc.reference.alpha_frame is framecalc.alpha_frame
            assert framecalc.cli.jacobi_eigh is framecalc.linalg.jacobi_eigh
            assert np.linalg.eigh is not before[("numpy.linalg", "eigh")]
            raise RuntimeError("leave the block early")
    assert _namespaces() == before


def test_self_time_subtracts_child_coverage():
    recorded = [
        spans.Span("op.x", 0, 100, None, 0),
        spans.Span("frames.alpha_frame", 10, 60, 0, 0),
        spans.Span("linalg.jacobi_eigh", 20, 40, 1, 0),
        spans.Span("numpy.linalg.eigh", 25, 30, 2, 0),
        spans.Span("linalg.symmetrize", 70, 75, 0, 0),
    ]
    assert spans.self_times(recorded) == [45, 30, 15, 5, 5]
    outermost = [i for i in range(len(recorded)) if spans.is_outermost_factorization(recorded, i)]
    assert outermost == [2]


def _traced_counts(name):
    wl = WORKLOADS[name]
    ops = wl.probe_ops()
    untraced, traced, tracer = run.traced_pass(wl, framecalc, ops, (0, "unused", {}), len(ops))
    metrics = run.layer_metrics(ops, untraced, traced, tracer.spans)
    names = [s.name for s in tracer.spans]
    counts = {k: v for k, v in metrics.items() if k.startswith("linalg.factorizations") or k in COUNTS}
    return counts, names


COUNTS = (
    "frames.frame_operator_per_op",
    "frames.reuse_share",
    "approx.orders_per_op",
    "approx.bound_errors",
    "gabor.macs_computed",
    "cli.contract_violations",
)


def test_traced_counts_repeat_exactly_and_match_the_call_structure():
    first, names = _traced_counts("power-family")
    second, _ = _traced_counts("power-family")
    assert first == second
    expected = {
        "construct": 1,
        "alpha_frame": 2,
        "dual_frame": 2,
        "diagnostics": 3,
        "proposition1_check": 4,
        "reconstruct": 4,
    }
    for kind, count in expected.items():
        assert first[f"linalg.factorizations_per_op.{kind}"] == count
    assert "frames.frame_operator" in names and "linalg.jacobi_eigh" in names


def test_gabor_window_makes_no_factorization():
    counts, names = _traced_counts("gabor-window")
    assert counts["linalg.factorizations_per_op"] == 0
    assert counts["gabor.macs_computed"] > 0
    assert "gabor.tightness_check" in names


def test_oracle_does_not_import_framecalc():
    code = "import sys; import oracle, workloads; sys.exit('framecalc' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], cwd=HERE).returncode == 0


def test_series_multipliers_converge_to_the_exact_powers():
    lam = np.array([0.3, 0.7, 1.4, 2.5])
    lower, upper = 0.25, 2.6
    neumann = oracle.series_multipliers(oracle.NEUMANN, lam, lower, upper, 400)[-1]
    binomial = oracle.series_multipliers(oracle.BINOMIAL, lam, 0.9, 2.6, 400)[-1]
    log = oracle.series_multipliers(oracle.LOGARITHMIC, lam, lower, upper, 60)[-1]
    np.testing.assert_allclose(neumann, 1.0 / lam, rtol=1e-12)
    np.testing.assert_allclose(log, 1.0 / lam, rtol=1e-12)
    np.testing.assert_allclose(binomial[1:], 1.0 / np.sqrt(lam[1:]), rtol=1e-12)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_an_unexpected_exception_gets_its_own_reason(name):
    wl = WORKLOADS[name]
    op = wl.generate(1)[0]
    assert wl.classify(op, RuntimeError("boom")) == "exception:RuntimeError"


def test_checks_reject_a_wrong_answer():
    wl = WORKLOADS["power-family"]
    ops = wl.probe_ops()
    frames = {}
    wl.execute(framecalc, ops[0], frames)
    alpha_op = ops[1]
    good = wl.execute(framecalc, alpha_op, frames)
    assert wl.check(alpha_op, good).reason is None
    bad = SimpleNamespace(vectors=good.vectors * (1.0 + 1e-6), declared_bounds=good.declared_bounds)
    assert wl.check(alpha_op, bad).reason == "wrong_answer"
