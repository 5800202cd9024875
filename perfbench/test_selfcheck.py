"""Self-checks of the benchmark that run no workload.

Each correctness check must accept a right value and reject the same value
corrupted a little: a centre value off by 1e-6, d₂ with its sign flipped,
one Taylor sample altered.  Run with

    python -m pytest perfbench/test_selfcheck.py
"""

import hashlib
import math

import numpy as np

import checks


def _summary(body: str) -> str:
    return body[:-1] + f', "content_hash": "{hashlib.sha256(body.encode()).hexdigest()}"}}\n'


def test_content_hash():
    text = _summary('{"command": "x", "config": {}, "results": {"v": 1.5}}')
    assert checks.content_hash(text) is None
    assert checks.content_hash(text.replace("1.5", "1.6")) is not None
    assert checks.content_hash('{"command": "x"}\n') is not None


def test_ground_state_center():
    assert checks.ground_state_center(2.206200864659) is None
    assert checks.ground_state_center(2.206200864659 + 1e-6) is not None


def test_ansatz_scales():
    sigma = math.pi / 0.6
    rate = math.exp(-2 * sigma) / math.sqrt(sigma)
    good = {"sigma_min": sigma, "rate_scale": rate, "residual_sup": 3e-4,
            "sup_over_rate": 3e-4 / rate}
    assert checks.ansatz_scales(good, 0.3, 2) is None
    assert checks.ansatz_scales({**good, "rate_scale": rate * (1 + 1e-9)}, 0.3, 2) is not None
    assert checks.ansatz_scales({**good, "sup_over_rate": 1.0}, 0.3, 2) is not None


def test_spectrum():
    good = [-2.01, -2.0, -0.004, 0.003, 0.45, 0.6]
    assert checks.spectrum(good, k=2) is None
    assert checks.spectrum([-2.01, -1.9, -0.004, 0.003, 0.45, 0.6], k=2) is not None
    assert checks.spectrum([-2.01, -2.0, -0.004, 0.05, 0.09, 0.6], k=2) is not None
    assert checks.spectrum(good + [1.0], k=2) is not None


def test_symmetric_d():
    assert checks.symmetric_d([-3e-18, 2e-19], rate=1.2e-5) is None
    assert checks.symmetric_d([-3e-18, 1e-12], rate=1.2e-5) is not None


def test_newton_and_dancer_rows():
    row = {"eps": 0.3, "residual_history": [0.5, 1e-12], "evenness_defect": 1e-15,
           "period_defect": 3e-15, "half_period_defect": 2.2}
    assert checks.dancer_row(row) is None
    assert checks.dancer_row({**row, "residual_history": [0.5, 6.8e-9]}) is not None
    assert checks.dancer_row({**row, "evenness_defect": 1e-6}) is not None
    assert checks.dancer_row({**row, "half_period_defect": 1e-3}) is not None
    assert checks.newton_residual(1e-11) is None
    assert checks.newton_residual(float("nan")) is not None
    assert checks.psi_slope(-2.0) is None
    assert checks.psi_slope(-1.4) is not None
    assert checks.gap_spread(1e-7) is None
    assert checks.gap_spread(2e-3) is not None


def test_taylor_closed_form_rejects_one_altered_sample():
    a, b = checks.taylor_samples(1000, 7)
    good = checks.taylor_closed_form(a, b)
    assert checks.taylor_max(good, 1000, 7) is None
    # the reference regenerates its samples from the seed, so a report built
    # from samples with one (a, b) altered no longer matches
    neg = np.flatnonzero(a + b < 0)
    worst = neg[np.argmax(np.abs(a[neg] + b[neg]) ** 3 / np.abs(b[neg]) ** 3)]
    a2 = a.copy()
    a2[worst] *= 1.5
    assert checks.taylor_max(checks.taylor_closed_form(a2, b), 1000, 7) is not None
    assert checks.taylor_max(good, 1000, 8) is not None


def test_exponential_pair_closed_form():
    # midpoint rule on the same cell, independent of the formula
    y0 = 8.0
    x = np.linspace(-y0 / 2, y0 / 2, 400001)
    mid = 0.5 * (x[1:] + x[:-1])
    quad = float(np.sum(np.exp(-2 * np.abs(mid) - np.abs(mid - y0)) * np.diff(x)))
    assert checks.close_to(quad, checks.exp_pair_integral(y0), 1e-6, "midpoint") is None
    ref = checks.exp_pair_integral(12.0)
    assert checks.close_to(ref * (1 + 5e-9), ref, 1e-8, "value") is None
    assert checks.close_to(ref * (1 + 1e-6), ref, 1e-8, "value") is not None


def test_mesh_limit():
    d_proj = np.array([-1.11103798e-07, 1.11155703e-07])
    d_int = np.array([-1.11102654e-07, 1.11155269e-07])
    assert checks.mesh_limit(d_proj, d_int) is None
    assert checks.mesh_limit(d_proj, d_int * np.array([1.0, -1.0])) is not None
    assert checks.mesh_limit(d_proj * np.array([1.0, -1.0]), d_int * np.array([1.0, -1.0])) is not None
    assert checks.mesh_limit(d_proj, d_int * 1.2) is not None


def test_second_order():
    assert checks.second_order([6.15e-5, 1.538e-5, 3.845e-6]) is None
    assert checks.second_order([6.15e-5, 3.0e-5, 1.5e-5]) is not None


def test_gauss_legendre_panels():
    from workloads import _panels

    # 2 ∫_{-6}^{6} ∫_0^{30} e^{-(x²+t²)} dt dx = π erf(6)
    xs, wx = _panels(-6.0, 6.0, 0.5)
    ts, wt = _panels(0.0, 30.0, 0.5)
    value = 2 * wx @ np.exp(-xs[:, None] ** 2 - ts[None, :] ** 2) @ wt
    assert abs(value - math.pi * math.erf(6.0)) < 1e-12
