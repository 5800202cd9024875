"""Correctness checks made apart from the program.

Every check takes plain numbers (or the text a command printed) and returns
``None`` when the value is right, or a one-line reason when it is not.  None
of them compares against an earlier output of the program: each reference is
a closed form, a literature constant, a symmetry the continuum problem has, or
a quadrature rule computed here.  The module imports numpy only, so the
self-checks in ``test_selfcheck.py`` run without the package.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# U(0) of the 2-D cubic ground state −ΔU + U − U³ = 0 (the Townes profile).
TOWNES_CENTER = 2.2062008646
NEWTON_TOL = 1e-11


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def content_hash(text: str) -> str | None:
    """The sha256 the CLI prints must cover the rendered body before it."""
    head, sep, tail = text.rstrip("\n").rpartition(', "content_hash": "')
    if not sep or not tail.endswith('"}') or len(tail) != 66:
        return "no trailing content_hash field"
    recorded = tail[:64]
    recomputed = hashlib.sha256((head + "}").encode()).hexdigest()
    if recorded != recomputed:
        return f"content_hash {recorded[:12]}… differs from recomputed {recomputed[:12]}…"
    return None


def ground_state_center(center: float) -> str | None:
    if abs(center - TOWNES_CENTER) > 1e-8:
        return f"U(0) = {center!r} is not the Townes value {TOWNES_CENTER} to 1e-8"
    return None


def ansatz_scales(results: dict, eps: float, k: int) -> str | None:
    """σ̲ = π/(kε) for a uniform configuration; rate = e^{−2σ̲} σ̲^{−1/2} at N = 2."""
    sigma = math.pi / (k * eps)
    rate = math.exp(-2 * sigma) / math.sqrt(sigma)
    if _rel(results["sigma_min"], sigma) > 1e-12:
        return f"sigma_min {results['sigma_min']!r} != pi/(k eps) = {sigma!r}"
    if _rel(results["rate_scale"], rate) > 1e-12:
        return f"rate_scale {results['rate_scale']!r} != {rate!r}"
    if _rel(results["sup_over_rate"] * rate, results["residual_sup"]) > 1e-12:
        return "sup_over_rate is not residual_sup / rate_scale"
    return None


def spectrum(eigenvalues, k: int, p: float = 3.0) -> str | None:
    """k peaks: k values within 2 % of 1−p, k in (−0.1, 0.1), all below 1."""
    ev = np.asarray(eigenvalues, dtype=float)
    bottom = int(np.sum(np.abs(ev - (1 - p)) < 0.02 * abs(1 - p)))
    near = int(np.sum(np.abs(ev) < 0.1))
    if bottom != k:
        return f"{bottom} eigenvalues within 2% of {1 - p}, expected {k}"
    if near != k:
        return f"{near} eigenvalues in (-0.1, 0.1), expected {k}"
    if np.any(ev >= 1.0):
        return f"eigenvalue >= 1 in {ev.tolist()}"
    return None


def symmetric_d(d_coeffs, rate: float) -> str | None:
    """Equally spaced peaks: rotation symmetry forces every d_i to 0."""
    worst = float(np.max(np.abs(d_coeffs)))
    if worst > 1e-9 * rate:
        return f"max |d_i| = {worst:.3e} is not roundoff against rate {rate:.3e}"
    return None


def gap_spread(spread: float) -> str | None:
    if not spread < 1e-3:
        return f"equilibrated gap spread {spread:.3e} not below 1e-3"
    return None


def newton_residual(residual: float, tol: float = NEWTON_TOL) -> str | None:
    if not residual <= tol:
        return f"Newton residual {residual:.3e} above the requested {tol:.0e}"
    return None


def dancer_row(row: dict, tol: float = NEWTON_TOL) -> str | None:
    reason = newton_residual(row["residual_history"][-1], tol)
    if reason:
        return f"eps={row['eps']}: {reason}"
    for key in ("evenness_defect", "period_defect"):
        if not row[key] <= 1e-9:
            return f"eps={row['eps']}: {key} {row[key]:.3e} above 1e-9"
    if not row["half_period_defect"] > 0.5:
        return f"eps={row['eps']}: half-period defect {row['half_period_defect']:.3e} not above 0.5"
    return None


def psi_slope(slope: float) -> str | None:
    if not slope <= -1.5:
        return f"psi decay slope {slope:.3f} above -1.5"
    return None


def taylor_samples(samples: int, seed: int):
    """The (a, b) draws of ``taylor_remainder_check``, regenerated from its seed."""
    rng = np.random.default_rng(seed)
    log_a = rng.uniform(np.log(1e-3), np.log(1e3), samples)
    log_b = rng.uniform(np.log(1e-3), np.log(1e3), samples)
    signs = rng.choice((-1.0, 1.0), samples)
    return np.exp(log_a), signs * np.exp(log_b)


def taylor_closed_form(a: np.ndarray, b: np.ndarray) -> float:
    """sup of |a+b|³/|b|³ over a+b < 0; for p = 3 the remainder is 0 elsewhere."""
    neg = a + b < 0
    return float(np.max(np.abs(a[neg] + b[neg]) ** 3 / np.abs(b[neg]) ** 3))


def taylor_max(max_ratio: float, samples: int, seed: int) -> str | None:
    ref = taylor_closed_form(*taylor_samples(samples, seed))
    if _rel(max_ratio, ref) > 1e-12:
        return f"max ratio {max_ratio!r} != closed form {ref!r} (seed {seed})"
    return None


def exp_pair_integral(y0: float) -> float:
    """∫ e^{−2|x|} e^{−|x−y₀|} dx over the cell (−y₀/2, y₀/2), y₀ > 0."""
    return math.exp(-y0) * ((1 - math.exp(-1.5 * y0)) / 3 + 1 - math.exp(-0.5 * y0))


def close_to(value: float, ref: float, rtol: float, what: str) -> str | None:
    if not _rel(value, ref) <= rtol:
        return f"{what} = {value!r} differs from {ref!r} by more than {rtol:.0e} (relative)"
    return None


def mesh_limit(d_proj, d_int) -> str | None:
    """Criterion 07 at σ = 8, plus the peak-swap symmetry d₁ = −d₂."""
    d_proj, d_int = np.asarray(d_proj), np.asarray(d_int)
    rel = float(np.max(np.abs(d_int - d_proj) / np.abs(d_proj)))
    if not rel <= 0.10:
        return f"projection and interaction mesh limits differ by {rel:.3e} (> 10%)"
    for name, d in (("d_proj", d_proj), ("d_int", d_int)):
        asym = abs(float(d.sum())) / float(np.max(np.abs(d)))
        if not asym <= 5e-3:
            return f"{name}: |d1 + d2| / max|d_i| = {asym:.3e} above 5e-3"
    return None


def second_order(errors) -> str | None:
    """Each mesh halving must cut the manufactured-solution error by 3.6–4.4."""
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    if not all(3.6 < r < 4.4 for r in ratios):
        return f"refinement error ratios {ratios} outside (3.6, 4.4)"
    return None
