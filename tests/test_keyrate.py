"""Tests for the key-rate bound, noise thresholds, and error-rate models.

The frozen reference numbers in this module were computed with an
independent script using only the math stdlib, then pasted here.
"""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sqkd.keyrate
from sqkd.keyrate import (
    DEPOLARIZING,
    EQUAL,
    FLOOR_BRANCH,
    HALF,
    MAIN_BRANCH,
    KeyRateReport,
    QxModel,
    ThresholdAtBoundary,
    continuity_bound,
    continuity_penalty,
    explicit,
    key_rate,
    keyrate_curve,
    noise_threshold,
    reflect_entropy_bound,
    resend_entropy_bound,
)
from sqkd.linalg import binary_entropy
from threshold_reference import scan_threshold

EXACT = 1e-12

# independently computed references
CONTINUITY_AT_HALF = 1.877443751081734
DELTA_NEAR_THRESHOLD = 0.543397557487552  # q = 0.0614
DELTA_AT_TENTH = 0.746960136903252
REFLECT_BOUND_AT_5PC = 0.713603042884044
EQUAL_THRESHOLD = 0.061490470079
DEPOLARIZING_THRESHOLD = 0.048220727323
HALF_THRESHOLD = 0.075069560814

# every model with a threshold that the CLI's rate, threshold and curve are run on
THRESHOLD_MODELS = [EQUAL, DEPOLARIZING, HALF] + [QxModel.parse(f"explicit:{k * 0.005:.3f}") for k in range(23)]
SCAN_GRID = [i * 1e-3 for i in range(501)]


def test_qx_model_parsing_round_trips():
    assert QxModel.parse("equal") == EQUAL
    assert QxModel.parse("depolarizing") == DEPOLARIZING
    assert QxModel.parse("half") == HALF
    model = QxModel.parse("explicit:0.3")
    assert model == explicit(0.3)
    assert QxModel.parse(str(model)) == model
    assert str(EQUAL) == "equal"
    for bad in ("", "exact", "explicit:", "explicit:0.6", "explicit:nan"):
        with pytest.raises(ValueError):
            QxModel.parse(bad)
    with pytest.raises(ValueError):
        explicit(-0.1)
    # only explicit takes a value; another kind would ignore it
    for kind in ("equal", "depolarizing", "half"):
        with pytest.raises(ValueError):
            QxModel(kind, 0.3)
    with pytest.raises(ValueError):
        QxModel("half", float("nan"))
    assert QxModel("half", 0.0) == HALF


def test_qx_model_values():
    q = 0.1
    assert abs(EQUAL.q_x(q) - 0.1) < EXACT
    assert abs(DEPOLARIZING.q_x(q) - 0.18) < EXACT
    assert abs(HALF.q_x(q) - 0.05) < EXACT
    assert abs(explicit(0.3).q_x(q) - 0.3) < EXACT
    assert abs(explicit(0.3).q_x(0.4) - 0.3) < EXACT
    # depolarizing: 2q(1 - q) saturates at one half
    assert abs(DEPOLARIZING.q_x(0.5) - 0.5) < EXACT


def test_continuity_bound_values():
    assert continuity_bound(0.0) == 0.0
    assert abs(continuity_bound(0.5) - CONTINUITY_AT_HALF) < EXACT
    assert abs(continuity_bound(1.0) - 3.0) < EXACT
    with pytest.raises(ValueError):
        continuity_bound(-0.1)


def test_continuity_penalty_values():
    assert continuity_penalty(0.0) == 0.0
    assert abs(continuity_penalty(0.0614) - DELTA_NEAR_THRESHOLD) < EXACT
    assert abs(continuity_penalty(0.1) - DELTA_AT_TENTH) < EXACT
    assert abs(continuity_penalty(0.5) - 1.5) < EXACT
    with pytest.raises(ValueError):
        continuity_penalty(1.2)


@given(st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
def test_penalty_matches_scaled_continuity_bound(q):
    # the two are implemented from separate formulas; they must agree anyway
    assert abs(continuity_penalty(q) - 0.5 * continuity_bound(4.0 * q * (1.0 - q))) <= EXACT


def test_penalty_identity_on_grid():
    for q in np.arange(0.0, 0.5 + 1e-9, 1e-3):
        q = float(q)
        assert abs(continuity_penalty(q) - 0.5 * continuity_bound(4.0 * q * (1.0 - q))) <= EXACT


def test_reflect_entropy_bound():
    assert reflect_entropy_bound(0.0) == 1.0
    assert abs(reflect_entropy_bound(0.5)) < EXACT
    assert abs(reflect_entropy_bound(0.05) - REFLECT_BOUND_AT_5PC) < EXACT
    with pytest.raises(ValueError):
        reflect_entropy_bound(0.6)
    with pytest.raises(ValueError):
        reflect_entropy_bound(-0.01)


def test_resend_entropy_bound_branches():
    value, branch = resend_entropy_bound(1.0, 0.0)
    assert value == 1.0 and branch == MAIN_BRANCH
    # at q = 0.05 the penalty is about 0.657, so 0.6 falls below twice it
    value, branch = resend_entropy_bound(0.6, 0.05)
    assert branch == FLOOR_BRANCH
    assert abs(value - 0.3) < EXACT
    with pytest.raises(ValueError):
        resend_entropy_bound(-0.1, 0.05)
    with pytest.raises(ValueError):
        resend_entropy_bound(0.5, 1.2)


def test_resend_entropy_bound_crossover_continuous():
    # at s = 2 * penalty the two branches agree, and the main branch is chosen
    for q in (0.01, 0.05, 0.1, 0.25):
        crossover = 2.0 * continuity_penalty(q)
        if crossover > 1.0:
            continue
        value, branch = resend_entropy_bound(crossover, q)
        assert branch == MAIN_BRANCH
        assert abs(value - continuity_penalty(q)) < EXACT


def test_key_rate_at_zero_noise():
    # any model describing a perfect channel (no residual X noise) gives r = 1
    for model in (EQUAL, DEPOLARIZING, HALF, explicit(0.0)):
        report = key_rate(0.0, model)
        assert abs(report.r - 1.0) <= EXACT
        assert report.branch == MAIN_BRANCH
        assert report.epsilon == 0.0
    # a pinned nonzero X rate keeps the rate below 1 even with no Z noise
    report = key_rate(0.0, explicit(0.3))
    assert abs(report.r - reflect_entropy_bound(0.3)) <= EXACT


def test_key_rate_frozen_reports():
    report = key_rate(0.03, EQUAL)
    assert abs(report.epsilon - 0.1164) < EXACT
    assert abs(report.delta - 0.327457434808692) < EXACT
    assert abs(report.s_tau_bound - 0.805608142168424) < EXACT
    assert report.branch == MAIN_BRANCH
    assert abs(report.g - 0.478150707359732) < EXACT
    assert abs(report.r - 0.283758849528156) < EXACT

    report = key_rate(0.05, EQUAL)
    assert report.branch == FLOOR_BRANCH
    assert abs(report.g - 0.356801521442022) < EXACT
    assert abs(report.r - 0.070404564326066) < EXACT

    report = key_rate(0.0614, EQUAL)
    assert abs(report.r - 0.000533737459711) < EXACT
    assert report.r > 0.0

    report = key_rate(0.1, EQUAL)
    assert abs(report.r - (-0.203493390383922)) < EXACT


@given(st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
def test_key_rate_invariants(q):
    report = key_rate(q, DEPOLARIZING)
    assert abs(report.epsilon - 4.0 * q * (1.0 - q)) <= EXACT
    assert abs(report.r - (report.g - binary_entropy(q))) <= EXACT
    expected_branch = MAIN_BRANCH if report.s_tau_bound >= 2.0 * report.delta else FLOOR_BRANCH
    assert report.branch == expected_branch
    assert report.q == q and abs(report.q_x - DEPOLARIZING.q_x(q)) <= EXACT


def test_key_rate_validation():
    with pytest.raises(ValueError):
        key_rate(-0.01, EQUAL)
    with pytest.raises(ValueError):
        key_rate(0.51, EQUAL)


def test_key_rate_evaluates_the_penalty_once(monkeypatch):
    calls = []

    def counted(q):
        calls.append(q)
        return continuity_penalty(q)

    monkeypatch.setattr(sqkd.keyrate, "continuity_penalty", counted)
    for q in (0.0, 0.03, 0.05, 0.5):
        calls.clear()
        key_rate(q, EQUAL)
        assert calls == [q]


def test_report_fields_match_the_public_bounds_bitwise():
    # delta is the penalty key_rate evaluated once; g is what resend_entropy_bound gives
    for model in (EQUAL, DEPOLARIZING, HALF, explicit(0.3)):
        for q in SCAN_GRID:
            report = key_rate(q, model)
            assert report.delta == continuity_penalty(q)
            assert (report.g, report.branch) == resend_entropy_bound(report.s_tau_bound, q)
            assert report.s_tau_bound == reflect_entropy_bound(report.q_x)


def test_noise_threshold_builds_no_report(monkeypatch):
    built = []
    monkeypatch.setattr(KeyRateReport, "__post_init__", lambda self: built.append(self.q))
    assert abs(noise_threshold(EQUAL) - EQUAL_THRESHOLD) < 5e-6
    assert built == []
    key_rate(0.03, EQUAL)
    assert built == [0.03]


@pytest.mark.parametrize("model", THRESHOLD_MODELS, ids=str)
def test_threshold_reads_the_rates_of_key_rate(monkeypatch, model):
    # every rate the bisection reads is key_rate's r at that point, bit for bit
    seen = []
    point = sqkd.keyrate._point

    def recorded(q, m):
        fields = point(q, m)
        seen.append((q, fields[-1]))
        return fields

    with monkeypatch.context() as patch:
        patch.setattr(sqkd.keyrate, "_point", recorded)
        noise_threshold(model)
    # two grid ends, at most 9 steps over the 500 grid cells, 10 halvings of a cell to 1e-6
    assert len(seen) <= 21, f"{model}: {len(seen)} points read"
    mismatched = [q for q, r in seen if r != key_rate(q, model).r]
    assert not mismatched, f"{model}: r differs from key_rate at {mismatched[:5]}"


@pytest.mark.parametrize("grid", [SCAN_GRID, [i / 40000 for i in range(20001)]], ids=["501", "20001"])
def test_rate_is_nonincreasing_in_q(grid):
    # noise_threshold's grid bisection finds the cell a full scan would only because
    # r never rises; its docstring gives the argument, this checks it in floats
    def assert_nonincreasing(model, rates):
        rises = np.flatnonzero(np.diff(rates) > 0.0)
        assert rises.size == 0, f"{model}: r rises after Q = {[grid[i] for i in rises[:5]]}"

    for model in (EQUAL, DEPOLARIZING, HALF):
        assert_nonincreasing(model, np.array([key_rate(q, model).r for q in grid]))
    # an explicit model fixes s_tau, so its rate is the larger resend branch at the
    # same delta(Q), minus h(Q), which is key_rate's float arithmetic elementwise
    delta = np.array([continuity_penalty(q) for q in grid])
    h = np.array([binary_entropy(q) for q in grid])
    every = len(grid) // 20  # the points checked against key_rate bitwise
    for k in range(501):
        model = QxModel.parse(f"explicit:{k / 1000:.3f}")
        s_tau = reflect_entropy_bound(model.value)
        rates = np.where(s_tau >= 2.0 * delta, s_tau - delta, 0.5 * s_tau) - h
        assert list(rates[::every]) == [key_rate(q, model).r for q in grid[::every]]
        assert_nonincreasing(model, rates)


def _outcome(search, model, tol):
    """The value ``search`` returns as hex, or the type and message of what it raises."""
    try:
        return search(model, tol).hex()
    except (ArithmeticError, RuntimeError, ValueError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("model", THRESHOLD_MODELS + [explicit(0.25), explicit(0.4999), explicit(0.5)], ids=str)
def test_threshold_matches_the_grid_scan(model):
    # the bisection over grid indices finds the cell the full 501-point scan found
    for tol in (1e-3, 1e-6, 1e-9, 1e-18, math.inf):
        assert _outcome(noise_threshold, model, tol) == _outcome(scan_threshold, model, tol), (model, tol)


def test_threshold_at_the_boundary_matches_the_grid_scan(monkeypatch):
    # no model's rate stays nonnegative up to Q = 1/2; shifted up by 1, equal's
    # rate is exactly 0 there, which still counts as no sign change
    point = sqkd.keyrate._point
    monkeypatch.setattr(sqkd.keyrate, "_point", lambda q, m: (*point(q, m)[:-1], point(q, m)[-1] + 1.0))
    outcome = _outcome(noise_threshold, EQUAL, 1e-6)
    assert outcome[0] is ThresholdAtBoundary
    assert outcome == _outcome(scan_threshold, EQUAL, 1e-6)


def test_report_as_dict_schema():
    row = key_rate(0.03, EQUAL).as_dict()
    assert list(row) == ["Q", "Q_X", "epsilon", "delta", "s_tau_bound", "branch", "g", "r"]
    assert row["branch"] == MAIN_BRANCH
    assert isinstance(row["Q"], float)


def test_noise_threshold_frozen_values():
    assert abs(noise_threshold(EQUAL) - EQUAL_THRESHOLD) < 5e-6
    assert abs(noise_threshold(DEPOLARIZING) - DEPOLARIZING_THRESHOLD) < 5e-6
    assert abs(noise_threshold(HALF) - HALF_THRESHOLD) < 5e-6


def test_noise_threshold_is_a_sign_change():
    for model in (EQUAL, DEPOLARIZING, HALF):
        q_star = noise_threshold(model, tol=1e-9)
        assert key_rate(q_star - 1e-6, model).r > 0.0
        assert key_rate(q_star + 1e-6, model).r < 0.0


def test_noise_threshold_validation():
    with pytest.raises(ValueError):
        noise_threshold(EQUAL, tol=0.0)
    with pytest.raises(ValueError):
        noise_threshold(EQUAL, tol=-1e-6)


def test_noise_threshold_without_a_positive_rate_raises_arithmetic_error():
    # r(0) = 1 - h(Q_X) is positive for every explicit Q_X below 1/2 and 0 at
    # 1/2: a valid model with no threshold, not a usage error
    with pytest.raises(ArithmeticError, match=r"key rate at Q=0 is 0\.0, not positive"):
        noise_threshold(explicit(0.5))
    assert 0.0 < noise_threshold(explicit(0.4999)) < 1e-6


class _OscillatingModel(QxModel):
    """A pathological model whose rate is not monotone in the noise level."""

    def q_x(self, q):
        return 0.25 * (1.0 + math.sin(200.0 * q))


def test_noise_threshold_rejects_non_monotone_rate():
    with pytest.raises(ValueError):
        noise_threshold(_OscillatingModel("equal"))


def test_model_name_is_not_a_model():
    # a name is not a model: QxModel.parse turns one into the other
    for call in (
        lambda: key_rate(0.03, "equal"),
        lambda: keyrate_curve(0.0, 0.1, 3, "equal"),
        lambda: noise_threshold("equal"),
    ):
        with pytest.raises(ValueError, match="QxModel"):
            call()


def test_threshold_at_boundary_attributes():
    err = ThresholdAtBoundary(0.125)
    assert err.boundary_rate == 0.125
    assert "0.125" in str(err)
    # the boundary case cannot occur for any admissible model: at the top of
    # the range the penalty alone exceeds the reflect bound, so r(0.5) < 0
    for model in (EQUAL, DEPOLARIZING, HALF, explicit(0.0), explicit(0.5)):
        assert key_rate(0.5, model).r < 0.0


def test_keyrate_curve_small_grid():
    reports = keyrate_curve(0.0, 0.1, 3, EQUAL)
    assert [round(rep.q, 12) for rep in reports] == [0.0, 0.05, 0.1]
    assert abs(reports[0].r - 1.0) <= EXACT
    assert reports[1].r > 0.0 > reports[2].r
    with pytest.raises(ValueError):
        keyrate_curve(0.1, 0.0, 3, EQUAL)
    with pytest.raises(ValueError):
        keyrate_curve(0.0, 0.6, 3, EQUAL)
    with pytest.raises(ValueError):
        keyrate_curve(0.0, 0.1, 1, EQUAL)


def test_keyrate_curve_brackets_threshold():
    q_star = noise_threshold(EQUAL)
    reports = keyrate_curve(0.0, 0.5, 51, EQUAL)
    signs = [rep.r > 0.0 for rep in reports]
    flips = [i for i in range(1, len(signs)) if signs[i - 1] and not signs[i]]
    assert len(flips) == 1
    i = flips[0]
    assert reports[i - 1].q <= q_star <= reports[i].q
