"""The four workloads: what each operation runs and how its output is checked.

Each workload is a list of operations.  ``run`` does the timed work and
returns its raw output; ``check`` looks at that output afterwards, outside
the timed region, and returns ``None`` or the reason it is wrong.  All
numerical inputs are fixed (the seeds 5, 7 and 3/7/11 are part of the
acceptance criteria these operations come from); ``--seed`` sets the order
in which a pass runs them.

The package is imported by ``run.py`` before this module, as part of the
timed set-up; this module only looks the modules up.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


class Workload:
    def prepare(self) -> None:
        """Inputs and references made once per run, outside set-up and passes."""

    def operations(self) -> list[Operation]:
        raise NotImplementedError


def _mod(name):
    return sys.modules[f"multipeak.{name}"]


def make_grid(eps: float, R: float = 12.0, h: float = 0.25):
    """The CLI's grid policy: widths near h, n₁ a multiple of 4 (desk: 84×48 at ε = 0.3)."""
    period = 2 * np.pi / eps
    n1 = max(8, 4 * round(period / (4 * h)))
    n2 = max(4, round(R / h))
    return _mod("domain").StripGrid(eps, R, n1, n2)


def _all_checks(*reasons):
    return next((r for r in reasons if r), None)


# ------------------------------------------------------------------ cli_cold

CLI_COMMANDS = {
    "groundstate": ["groundstate", "--dim", "2", "--p", "3"],
    "ansatz": ["ansatz", "--eps", "0.3", "--k", "2"],
    "spectrum": ["spectrum", "--eps", "0.3", "--k", "2", "--weighted-report"],
    "reduce": ["reduce", "--eps", "0.3", "--k", "2"],
    "equilibrate": ["equilibrate", "--eps", "0.3", "--k", "2", "--perturb", "0.05"],
    "dancer": ["dancer", "--eps-sweep", "0.35,0.3,0.25,0.2", "--k", "1"],
    "oracle_taylor": ["oracle", "taylor", "--n", "100000", "--seed", "7"],
    "oracle_interactions": ["oracle", "interactions", "--a", "2", "--b", "1", "--y0", "12"],
}


def _check_cli_results(name: str, results: dict) -> str | None:
    if name == "groundstate":
        return checks.ground_state_center(results["center_value"])
    if name == "ansatz":
        return checks.ansatz_scales(results, eps=0.3, k=2)
    if name == "spectrum":
        return checks.spectrum(results["eigenvalues"], k=2)
    if name == "reduce":
        sigma = math.pi / 0.6
        return checks.symmetric_d(results["d_coeffs"], math.exp(-2 * sigma) / math.sqrt(sigma))
    if name == "equilibrate":
        return checks.gap_spread(results["gap_relative_spread"])
    if name == "dancer":
        return _all_checks(
            *(checks.dancer_row(row) for row in results["runs"]),
            checks.psi_slope(results["psi_decay"]["slope"]),
        )
    if name == "oracle_taylor":
        return checks.taylor_max(results["max_ratio"], 100000, 7)
    return _all_checks(
        checks.close_to(results["value"], checks.exp_pair_integral(12.0), 1e-8, "value"),
        checks.close_to(results["mass_constant"], 4 / 3, 1e-8, "mass_constant"),
    )


class CliCold(Workload):
    """Each README command as a fresh ``python -m multipeak.cli`` process."""

    def __init__(self, root, out_dir, tracer):
        self.root = root
        self.out_dir = out_dir
        self.tracer = tracer
        self.first_output: dict[str, str] = {}

    def _command(self, name: str, argv: list[str]):
        sidecar = self.out_dir / f"cli-{name}.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "multipeak.cli", *argv]
        else:
            cmd = [sys.executable, str(self.root / "perfbench" / "child.py"),
                   "cli", str(sidecar), *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if self.tracer is not None and sidecar.exists():
            side = json.loads(sidecar.read_text())
            sidecar.unlink()
            # whole-command figures sit beside the self times of the spans
            self.tracer.self_time[f"cli.{name}"] += wall
            self.tracer.self_time["cli.import"] += side["import_s"]
            self.tracer.add_child_spans(side["spans"])
            for key, value in side["metrics"].items():
                if key.endswith("_s"):
                    self.tracer.self_time[key[:-2]] += value
                else:
                    self.tracer.counts[key] += value
        return proc

    def _check(self, name: str, proc) -> str | None:
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        text = proc.stdout
        reason = checks.content_hash(text)
        if reason:
            return reason
        first = self.first_output.setdefault(name, text)
        if text != first:
            return "output differs from the first pass of this run"
        return _check_cli_results(name, json.loads(text)["results"])

    def operations(self):
        return [
            Operation(name, lambda n=name, a=argv: self._command(n, a),
                      lambda proc, n=name: self._check(n, proc))
            for name, argv in CLI_COMMANDS.items()
        ]


# ---------------------------------------------------------------- mesh_limit

def sigma8_configuration():
    """Criterion 07's two peaks at half-gap σ = 8 on a cell of length 2σ + 8σ/3."""
    sigma = 8.0
    eps = 2 * np.pi / (2 * sigma + 8 * sigma / 3)
    return _mod("ansatz").PeakConfiguration(eps, (-np.pi, -np.pi + 2 * sigma * eps))


class MeshLimit(Workload):
    """Criterion 07's σ = 8 mesh limit and a manufactured Helmholtz solve, 148×48 → 592×195."""

    def __init__(self, profile):
        self.profile = profile

    def _d_mesh_limit(self):
        config = sigma8_configuration()
        return _mod("reduction").d_mesh_limit(config, self.profile, make_grid(config.epsilon))

    def _helmholtz(self):
        """Max error of the solve for cos(2εx₁) cos(πx₂/2R) on three halved grids."""
        dom = _mod("domain")
        grid = make_grid(sigma8_configuration().epsilon)
        errors = []
        for _ in range(3):
            X1, X2 = grid.meshes()
            R = grid.transverse_extent
            exact = np.cos(2 * grid.epsilon * X1) * np.cos(np.pi * X2 / (2 * R))
            lam = 1 + (2 * grid.epsilon) ** 2 + (np.pi / (2 * R)) ** 2
            u = dom.solve_helmholtz(dom.GridField(grid, lam * exact), tol=1e-12)
            errors.append(float(np.max(np.abs(u.data - exact))))
            grid = grid.refined()
        return errors

    def operations(self):
        return [
            Operation("d_mesh_limit_sigma8", self._d_mesh_limit,
                      lambda d: checks.mesh_limit(*d)),
            Operation("helmholtz_manufactured", self._helmholtz, checks.second_order),
        ]


# --------------------------------------------------------------- desk_newton

def _newton_checked(sol) -> str | None:
    if isinstance(sol, Exception):
        return f"{type(sol).__name__}: {sol}"
    return checks.newton_residual(sol.newton_history[-1])


class DeskNewton(Workload):
    """Newton, the equilibrate → Newton chain and weighted solves on the desk grids."""

    def __init__(self, profile):
        self.profile = profile

    def _bundle(self, eps, k, config=None):
        ans = _mod("ansatz")
        config = config or ans.uniform_configuration(eps, k)
        return ans.build_ansatz(config, self.profile, make_grid(eps))

    def _newton(self, eps, k):
        dnc = _mod("dancer")
        sol = dnc.newton_solve(self._bundle(eps, k), tol=checks.NEWTON_TOL)
        if k == 1:
            return sol, dnc.verify_evenness(sol), dnc.minimal_period_gaps(sol)
        return sol, None, None

    @staticmethod
    def _check_newton(out) -> str | None:
        sol, even, gaps = out
        reason = _newton_checked(sol)
        if reason or even is None:
            return reason
        # criterion 09's gates on the single peak
        full, half = gaps
        if not (sol.iterations <= 8 and even < 10 * checks.NEWTON_TOL
                and full < 1e-9 and half > 0.5):
            return (f"criterion 09: iterations {sol.iterations}, evenness {even:.2e}, "
                    f"period defects ({full:.1e}, {half:.2f})")
        return None

    def _two_start(self):
        """Criterion 09's uniqueness probe: two bumped starts, seed 5."""
        dnc, dom = _mod("dancer"), _mod("domain")
        bundle = self._bundle(0.3, 2)
        rng = np.random.default_rng(5)
        sols = []
        for _ in range(2):
            bump = 1e-3 * rng.standard_normal(bundle.grid.shape)
            start = dom.GridField(bundle.grid, bundle.ubar.data + bump)
            sols.append(dnc.newton_solve(bundle, initial=start, tol=checks.NEWTON_TOL))
        return sols, dnc.align_and_compare(sols[0].field, sols[1].field)

    @staticmethod
    def _check_two_start(out) -> str | None:
        sols, diff = out
        reason = _all_checks(*(_newton_checked(s) for s in sols))
        if reason:
            return reason
        if not diff < 1e-6:
            return f"criterion 09: two-start aligned difference {diff:.2e} not below 1e-6"
        return None

    def _equilibrate_newton(self, k, eps):
        """Criterion 08 (seed 7 draws k = 2 first, then k = 3), then Newton from the result."""
        ans, red, dnc = _mod("ansatz"), _mod("reduction"), _mod("dancer")
        rng = np.random.default_rng(7)
        draws = {2: rng.uniform(-1, 1, 2), 3: rng.uniform(-1, 1, 3)}
        uniform = ans.uniform_configuration(eps, k)
        gap_angle = 2 * np.pi / k
        perturbed = ans.PeakConfiguration(
            eps, tuple(a + 0.05 * gap_angle * s for a, s in zip(uniform.angles, draws[k]))
        )
        tol = 1e-2 * ans.residual_rate(uniform.sigma_min, 2)
        result = red.equilibrate(perturbed, self.profile, make_grid, tol=tol)
        sym = red.equilibrate(uniform, self.profile, make_grid, tol=tol)
        try:
            sol = dnc.newton_solve(self._bundle(eps, k, result.config), tol=checks.NEWTON_TOL)
        except dnc.NewtonError as exc:
            sol = exc
        return uniform, tol, result, sym, sol

    @staticmethod
    def _check_equilibrate_newton(out) -> str | None:
        uniform, tol, result, sym, sol = out
        gaps = np.asarray(result.config.gaps)
        cell = uniform.period / uniform.k
        dev = float(np.max(np.abs(gaps - cell)) / cell)
        if not dev < 1e-3:
            return f"criterion 08: gap deviation {dev:.2e} not below 1e-3"
        if not (sym.newton_steps == 0 and np.max(np.abs(sym.d_history[0])) < tol):
            return "criterion 08: uniform start is not already equilibrated"
        return _newton_checked(sol)

    def _off_lattice(self):
        """k = 2, ε = 0.3 with both peaks moved 0.37 h₁ off the grid lattice."""
        ans, dnc = _mod("ansatz"), _mod("dancer")
        grid = make_grid(0.3)
        config = ans.uniform_configuration(0.3, 2).shifted(0.37 * grid.h1 * 0.3)
        return dnc.newton_solve(self._bundle(0.3, 2, config), tol=checks.NEWTON_TOL)

    def prepare(self):
        """The k = 2 bundle, near-kernel basis and right-hand side −M(ū) of the weighted solves."""
        ans, spec, dom = _mod("ansatz"), _mod("spectrum"), _mod("domain")
        bundle = self._bundle(0.3, 2)
        basis = spec.near_kernel_basis(spec.lowest_eigenpairs(bundle, count=6), bundle)
        rhs = dom.GridField(bundle.grid, -ans.residual(bundle).data)
        self.weighted_inputs = (rhs, bundle, basis)

    def _weighted(self, eta):
        return _mod("weighted").weighted_report(*self.weighted_inputs, eta)

    @staticmethod
    def _check_weighted(report) -> str | None:
        # the a priori estimate: the weighted solution is controlled by the weighted input
        if not 0 < report.ratio < 10.0:
            return f"weighted ratio {report.ratio:.3e} at eta {report.eta} outside (0, 10)"
        return None

    def operations(self):
        ops = [
            Operation("newton_k1", lambda: self._newton(0.3, 1), self._check_newton),
            Operation("newton_k2", lambda: self._newton(0.3, 2), self._check_newton),
            Operation("newton_k3", lambda: self._newton(0.2, 3), self._check_newton),
            Operation("two_start_k2", self._two_start, self._check_two_start),
            Operation("equilibrate_newton_k2", lambda: self._equilibrate_newton(2, 0.3),
                      self._check_equilibrate_newton),
            Operation("equilibrate_newton_k3", lambda: self._equilibrate_newton(3, 0.2),
                      self._check_equilibrate_newton),
            Operation("off_lattice_newton_k2", self._off_lattice, _newton_checked),
        ]
        wgt = _mod("weighted")
        ops += [
            Operation(f"weighted_report_eta{eta}", lambda e=eta: self._weighted(e),
                      self._check_weighted)
            for eta in wgt.DEFAULT_ETAS
        ]
        return ops


# The three operations the pinned-Newton fault fails today: the bordered
# step drops its multiplier, so off the lattice there is no root to find.
KNOWN_FAULTS = {
    "equilibrate_newton_k2": ("NewtonError", "Newton residual"),
    "equilibrate_newton_k3": ("NewtonError", "Newton residual"),
    "off_lattice_newton_k2": ("NewtonError", "Newton residual"),
}


# ------------------------------------------------------------------- oracles

def _panels(lo, hi, width, order=10):
    """Composite Gauss–Legendre nodes and weights on [lo, hi]."""
    n = max(1, math.ceil((hi - lo) / width - 1e-9))
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def gauss_legendre_2d(profile, x_range, power_f, y0, power_g, tilt=0.0):
    """2 ∫∫ U(|(x,t)|)^a [U(|(x−y₀,t)|)^b or e^{tilt·x}] dt dx, t over (0, 30).

    A tensor product of 10-point panels of width 0.5, evaluated in row
    blocks so the reference does not set the process's peak memory.
    """
    gs = _mod("groundstate")
    xs, wx = _panels(*x_range, 0.5)
    ts, wt = _panels(0.0, 30.0, 0.5)
    total = 0.0
    for start in range(0, xs.size, 64):
        X, T = np.meshgrid(xs[start:start + 64], ts, indexing="ij")
        vals = gs.eval_radial(profile, np.hypot(X, T)) ** power_f
        if tilt:
            vals = vals * np.exp(tilt * X)
        else:
            vals = vals * gs.eval_radial(profile, np.hypot(X - y0, T)) ** power_g
        total += wx[start:start + 64] @ vals @ wt
    return 2.0 * total


N1_SEPARATIONS = (8.0, 10.0, 12.0, 16.0)
N2_SEPARATIONS = (12.0, 8.0)


class Oracles(Workload):
    """Criterion 11's interaction quadratures and criterion 12's Taylor checks."""

    def __init__(self, profile, tracer):
        self.profile = profile
        self.tracer = tracer
        self.reference: dict[str, float] = {}

    def prepare(self):
        """The Gauss–Legendre references, computed outside the timed passes."""
        for y0 in N2_SEPARATIONS:
            self.reference[f"quad{y0:g}"] = gauss_legendre_2d(
                self.profile, (-y0 / 2, y0 / 2), 2, y0, 1)
        self.reference["mass"] = gauss_legendre_2d(
            self.profile, (-40.0, 40.0), 2, 0.0, 0, tilt=1.0)

    def _integrand(self, radial):
        """A per-point callable as criterion 11 passes it; counts calls when traced."""
        tracer = self.tracer
        if tracer is None:
            return radial

        def counted(r):
            tracer.counts["asymptotics.integrand_evals"] += 1
            return radial(r)

        return counted

    def _spec(self, y0, dimension):
        asy, gs, profile = _mod("asymptotics"), _mod("groundstate"), self.profile
        if dimension == 1:
            f = self._integrand(lambda r: math.exp(-r))
        else:
            f = self._integrand(lambda r: float(gs.eval_radial(profile, np.asarray([r]))[0]))
        return asy.InteractionSpec(f, f, a=2.0, b=1.0, y0=y0, dimension=dimension)

    def _limit_n1(self):
        return _mod("asymptotics").interaction_limit(self._spec(12.0, 1), N1_SEPARATIONS)

    @staticmethod
    def _check_limit_n1(est) -> str | None:
        for y0, value in zip(est.separations, est.rescaled):
            ref = checks.exp_pair_integral(y0) * math.exp(y0)
            reason = checks.close_to(value, ref, 1e-8, f"N=1 rescaled integral at y0={y0:g}")
            if reason:
                return reason
        return checks.close_to(est.limit, 4 / 3, 0.02, "N=1 extrapolated limit")

    def _quadrature(self, y0):
        asy = _mod("asymptotics")
        spec = self._spec(y0, 2)
        value = asy.interaction_quadrature(spec)
        return value, asy.rescale(spec, value)

    def _check_quadrature(self, y0, out) -> str | None:
        value, rescaled = out
        reason = checks.close_to(value, self.reference[f"quad{y0:g}"], 1e-5,
                                 f"N=2 integral at y0={y0:g} against Gauss-Legendre")
        if reason or y0 != 12.0:
            return reason
        target = self.profile.tail_L0 * self.reference["mass"]
        return checks.close_to(rescaled, target, 0.10,
                               "N=2 rescaled integral at y0=12 against L0*C0")

    def operations(self):
        asy = _mod("asymptotics")
        ops = [
            Operation("interaction_limit_n1", self._limit_n1, self._check_limit_n1),
            *(
                Operation(f"quadrature_n2_y{y0:g}", lambda y=y0: self._quadrature(y),
                          lambda out, y=y0: self._check_quadrature(y, out))
                for y0 in N2_SEPARATIONS
            ),
            Operation("mass_constant_n2", lambda: asy.mass_constant(self._spec(12.0, 2)),
                      lambda c: checks.close_to(c, self.reference["mass"], 1e-5,
                                                "N=2 mass constant against Gauss-Legendre")),
        ]
        ops += [
            Operation(f"taylor_seed{seed}",
                      lambda s=seed: asy.taylor_remainder_check(100000, 3.0, s),
                      lambda rep, s=seed: checks.taylor_max(rep.max_ratio, 100000, s))
            for seed in (3, 7, 11)
        ]
        return ops
