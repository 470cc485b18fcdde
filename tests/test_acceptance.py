"""Acceptance suite: one test per shipped claim, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. Each test prints its measured numbers (visible with ``-s``
or on failure).
"""
import time

import pytest

from sqkd.cli import main
from sqkd.keyrate import DEPOLARIZING, EQUAL, HALF, explicit, key_rate, noise_threshold
from sqkd.verification import (
    check_isometries,
    check_lemma_trd,
    check_thm1_equivalence,
    check_thm2_equivalence,
    continuity_residual,
    epsilon_residual,
    main_bound_residual,
    symmetric_diagnostics_sample,
    uncertainty_residual,
)

SEED = 42


@pytest.fixture(scope="module")
def sym_sample():
    """100 symmetric attacks per error rate in {0, 0.02, 0.05, 0.1}."""
    return symmetric_diagnostics_sample(100, SEED)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_criterion_01_noise_tolerance_table():
    expectations = [
        (EQUAL, 0.0614, 0.0002),
        (DEPOLARIZING, 0.0482, 0.0002),
        (HALF, 0.075, 0.0005),
    ]
    for model, expected, tolerance in expectations:
        value, elapsed = timed(noise_threshold, model)
        print(f"threshold[{model}] = {value:.6f} (expected {expected} +- {tolerance}, {elapsed:.3f}s)")
        assert abs(value - expected) <= tolerance
        assert elapsed < 1.0


def test_criterion_02_perfect_channel_rate():
    for model in (EQUAL, DEPOLARIZING, HALF, explicit(0.0)):
        report = key_rate(0.0, model)
        print(f"r(0, {model}) = {report.r}")
        assert abs(report.r - 1.0) <= 1e-12


def test_criterion_03_collective_to_restricted_equivalence():
    report, elapsed = timed(check_thm1_equivalence, 200, SEED)
    print(f"max trace distance = {report.max_residual:.3e} over {report.trials} attacks ({elapsed:.1f}s)")
    assert report.trials == 200
    assert report.max_residual <= 1e-9
    assert report.passed
    assert elapsed < 60.0


def test_criterion_04_restricted_to_reduced_equivalence():
    report = check_thm2_equivalence(200, SEED)
    print(f"max trace distance = {report.max_residual:.3e} over {report.trials} attacks")
    assert report.trials == 200
    assert report.max_residual <= 1e-9
    assert report.passed


def test_criterion_05_trace_norm_bound():
    report = check_lemma_trd(1000, SEED)
    print(f"max residual = {report.max_residual:.3e} over {report.trials} vector pairs")
    assert report.trials == 1000
    assert report.max_residual <= 1e-9
    assert report.passed


def test_criterion_06_uncertainty_relation(sym_sample):
    worst = max(uncertainty_residual(diag) for diag in sym_sample)
    print(f"max uncertainty violation = {worst:.3e} over {len(sym_sample)} attacks")
    assert worst <= 1e-9


def test_criterion_07_continuity_bound(sym_sample):
    worst_continuity = max(continuity_residual(diag) for diag in sym_sample)
    worst_epsilon = max(epsilon_residual(diag) for diag in sym_sample)
    print(f"max continuity violation = {worst_continuity:.3e}, max trace-distance excess = {worst_epsilon:.3e}")
    assert worst_continuity <= 1e-9
    assert worst_epsilon <= 1e-9


def test_criterion_08_key_rate_lower_bound(sym_sample):
    worst = max(main_bound_residual(diag) for diag in sym_sample)
    print(f"max lower-bound violation = {worst:.3e} over {len(sym_sample)} attacks")
    assert worst <= 1e-9


def test_criterion_09_isometry_residuals():
    report = check_isometries(200, SEED)
    print(f"max residual = {report.max_residual:.3e} over {report.trials} attacks")
    assert report.max_residual <= 1e-10
    assert report.passed


def test_criterion_10_verify_determinism(tmp_path, capsys):
    outputs = []
    for name in ("first", "second"):
        for fmt in ("csv", "json"):
            target = tmp_path / f"{name}.{fmt}"
            code = main([
                "verify", "--trials", "5", "--seed", "7",
                "--format", fmt, "--output", str(target),
            ])
            capsys.readouterr()
            assert code == 0
            outputs.append(target.read_bytes())
    first_csv, first_json, second_csv, second_json = outputs
    print(f"csv bytes = {len(first_csv)}, json bytes = {len(first_json)}")
    assert first_csv == second_csv
    assert first_json == second_json
