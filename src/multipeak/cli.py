"""Command-line entry point.

Every workflow is a subcommand, and each oracle kind (`oracle taylor`,
`oracle interactions`) is one with its own flags.  `PARAMS` declares each
command's run parameters once; a parameter comes from its flag, else the
optional INI config file ([common], then the command's section; both
oracle kinds read [oracle]), else its default.  A usage error (a malformed
flag value, a missing subcommand), an INI key that no command takes there
and inputs that contradict each other are config errors.
Summaries are JSON with all floats rendered at 17 significant digits and a
sha256 content hash of the config and results; the config lists every
resolved parameter, derived ones included, so equal runs hash alike
however they were spelled and reproduce bit-identical output (no
timestamps).  Exit codes: 0 success, 2 config error (raised while a
command resolves and validates its inputs), 3 numerical failure (raised
after that), 4 assertion failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import ansatz as ans
from . import asymptotics as asym
from . import dancer as dnc
from . import domain as dom
from . import groundstate as gs
from . import reduction as red
from . import spectrum as spec
from . import weighted as wgt

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ASSERTION = 4


class ConfigError(ValueError):
    pass


class AssertionFailure(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    """A usage error (bad flag value, missing subcommand) is a config error."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _render(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = (f'"{k}": {_render(v)}' for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def emit_summary(command: str, config: dict, results: dict, out: str | None) -> str:
    body = {"command": command, "config": config, "results": results}
    digest = hashlib.sha256(_render(body).encode()).hexdigest()
    body["content_hash"] = digest
    text = _render(body) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"unparsable list {text!r}") from exc


# The run parameters of each command, in the order its summary lists them:
# INI name (the flag with "_" for "-") -> (parser, default).  A default of
# None marks a parameter that is required or that the command derives.
_EXPONENT = dict(dim=(int, 2), p=(float, 3.0))
_STRIP = dict(_EXPONENT, eps=(float, None), k=(int, None))
_GRID = dict(h=(float, 0.25), transverse=(float, 12.0))
_BUNDLE = dict(_STRIP, peaks=(_float_list, None), **_GRID)

PARAMS = {
    "groundstate": _EXPONENT,
    "ansatz": _BUNDLE,
    "spectrum": dict(_BUNDLE, count=(int, None)),
    "reduce": dict(_BUNDLE, tol=(float, 1e-13)),
    "equilibrate": dict(_STRIP, k=(int, 2), perturb=(float, 0.05), tol=(float, None), **_GRID),
    "dancer": dict(_STRIP, eps_sweep=(_float_list, None), k=(int, 1), eta=(float, 0.3),
                   tol=(float, 1e-11), **_GRID),
    "oracle-taylor": dict(p=(float, 3.0), n=(int, 100000), seed=(int, 7)),
    "oracle-interactions": dict(a=(float, 2.0), b=(float, 1.0), y0=(float, 12.0), dim=(int, 1)),
}
_LIST_FLAGS = {f"--{name.replace('_', '-')}" for params in PARAMS.values()
               for name, (parse, _) in params.items() if parse is _float_list}


def _load_config(path: str | None, command: str) -> dict:
    """[common] then the command's section, each key checked against PARAMS."""
    if not path:
        return {}
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file {path} not found")
    merged = {}
    for sect in ("common", command.partition("-")[0]):
        if parser.has_section(sect):
            known = {name for cmd, params in PARAMS.items()
                     if sect in ("common", cmd.partition("-")[0]) for name in params}
            unknown = sorted(set(parser[sect]) - known)
            if unknown:
                raise ConfigError(f"unknown key {', '.join(unknown)} in [{sect}] of {path}")
            merged.update(parser[sect])
    return merged


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Each parameter of the command from its flag, else the INI file, else its default."""
    ini = _load_config(args.config, command)
    cfg = {}
    for name, (parse, default) in PARAMS[command].items():
        value = getattr(args, name)
        if value is None and name in ini:
            try:
                value = parse(ini[name])
            except ValueError as exc:
                raise ConfigError(f"bad config value for {name}: {ini[name]}") from exc
        cfg[name] = default if value is None else value
    return cfg


def _require(cfg: dict, key: str):
    if cfg[key] is None:
        raise ConfigError(f"missing required parameter: {key}")
    return cfg[key]


def _check(ok: bool, constraint: str) -> None:
    """NaN-safe: a comparison with NaN is False, so NaN fails the check."""
    if not ok:
        raise ConfigError(f"constraint violated: {constraint}")


def _check_tol(tol: float) -> None:
    """A stop tolerance is positive and finite: tol = inf would stop a solve unconverged."""
    _check(0 < tol < np.inf, f"0 < tol < inf (got {tol})")


def _strip_grids(cfg: dict, epsilons) -> dict[float, dom.StripGrid]:
    """Check dim = 2 (the strip operator is planar) and p, then build the grid of each ε."""
    _check(cfg["dim"] == 2, f"dim = 2 on the strip (got {cfg['dim']})")
    gs.validate_exponent(2, cfg["p"])
    return {e: dom.make_grid(e, cfg["transverse"], cfg["h"]) for e in epsilons}


@functools.cache
def _profile(p):
    return gs.solve_ground_state(2, p)


def _bundle_inputs(cfg):
    """(configuration, grid) of a single-ε command; k defaults to the peak count, or 1."""
    eps = _require(cfg, "eps")
    grid = _strip_grids(cfg, [eps])[eps]
    peaks = cfg["peaks"]
    if cfg["k"] is None:
        cfg["k"] = len(peaks) if peaks else 1
    if peaks:
        _check(cfg["k"] == len(peaks), f"k = {cfg['k']} is the number of peaks {peaks}")
        return ans.PeakConfiguration(eps, peaks), grid
    return ans.uniform_configuration(eps, cfg["k"]), grid


# ---------------------------------------------------------------- commands
#
# Each command takes the resolved parameters, validates them, writes back
# the ones it derives and returns the closure computing the results, so main
# maps a failure to an exit code by the phase it comes from.


def cmd_groundstate(args, cfg):
    gs.validate_exponent(cfg["dim"], cfg["p"])

    def compute():
        profile = gs.solve_ground_state(cfg["dim"], cfg["p"])
        if args.profile_out:
            with open(args.profile_out, "w") as fh:
                fh.write(profile.to_json())
        return {
            "center_value": profile.center_value,
            "tail_L0": profile.tail_L0,
            "tail_match_radius": profile.tail_match_radius,
        }

    return compute


def cmd_ansatz(args, cfg):
    config, grid = _bundle_inputs(cfg)
    rate = ans.residual_rate(config.sigma_min, 2)

    def compute():
        bundle = ans.build_ansatz(config, _profile(cfg["p"]), grid)
        res = ans.residual(bundle)
        sup = res.sup_norm()
        return {
            "sigma_min": bundle.config.sigma_min,
            "half_gaps": list(bundle.config.half_gaps),
            "residual_sup": sup,
            "residual_l2": dom.l2_norm(res),
            "rate_scale": rate,
            "sup_over_rate": sup / rate,
        }

    return compute


def cmd_spectrum(args, cfg):
    config, grid = _bundle_inputs(cfg)
    if cfg["count"] is None:
        cfg["count"] = 2 * config.k + 2
    _check(2 * config.k + 1 <= cfg["count"] <= 4 * config.k + 4,
           f"2k + 1 <= count <= 4k + 4 (got {cfg['count']} for k = {config.k})")

    def compute():
        bundle = ans.build_ansatz(config, _profile(cfg["p"]), grid)
        result = spec.lowest_eigenpairs(bundle, count=cfg["count"])
        basis = spec.near_kernel_basis(result, bundle)
        results = {
            "eigenvalues": result.eigenvalues,
            "near_kernel_count": result.near_kernel_count,
            "overlap_matrix": result.overlap_matrix,
            "alphas": basis.alphas,
            "alignment_residuals": basis.alignment_residuals,
        }
        if args.weighted_report:
            phis = [dom.GridField(grid, phi.reshape(grid.shape)) for phi in basis.Phi.T]
            results["weighted_eigenvector_norms"] = [
                {"eta": eta, "norms": [wgt.weighted_sup(phi, config, eta) for phi in phis]}
                for eta in wgt.DEFAULT_ETAS
            ]
        return results

    return compute


def cmd_reduce(args, cfg):
    config, grid = _bundle_inputs(cfg)
    _check_tol(cfg["tol"])
    rate = ans.residual_rate(config.sigma_min, 2)

    def compute():
        state = red.reduce(config, _profile(cfg["p"]), grid, tol=cfg["tol"])
        results = {
            "sigma_min": config.sigma_min,
            "sup_norm": state.sup_norm,
            "h1_norm": state.h1_norm,
            "iterations": state.iterations,
            "d_coeffs": state.d_coeffs,
            "sup_over_rate": state.sup_norm / rate,
        }
        if args.weighted_report:
            results["weighted_correction"] = [
                {"eta": eta, "norm": wgt.weighted_sup(state.correction, config, eta)}
                for eta in wgt.DEFAULT_ETAS
            ]
        return results

    return compute


def cmd_equilibrate(args, cfg):
    eps, k = _require(cfg, "eps"), cfg["k"]
    grids = _strip_grids(cfg, [eps])  # equilibrate moves angles at fixed ε
    _check(k >= 2, f"equilibrate requires k >= 2 (got k = {k})")
    uniform = ans.uniform_configuration(eps, k)
    angles = list(uniform.angles)
    angles[1] += cfg["perturb"] * 2 * np.pi / k
    initial = ans.PeakConfiguration(eps, tuple(angles))
    if cfg["tol"] is None:  # the size of d at the equilibrium sought, not at the start
        cfg["tol"] = 1e-2 * ans.residual_rate(uniform.sigma_min, 2)
    _check_tol(cfg["tol"])

    def compute():
        result = red.equilibrate(initial, _profile(cfg["p"]), grids.__getitem__, tol=cfg["tol"])
        gaps = np.asarray(result.config.gaps)
        return {
            "initial_angles": list(initial.angles),
            "final_angles": list(result.config.angles),
            "final_gaps": gaps,
            "uniform_gap": 2 * np.pi / (k * eps),
            "gap_relative_spread": float((gaps.max() - gaps.min()) / (2 * np.pi / (k * eps))),
            "newton_steps": result.newton_steps,
            "d_history": [list(d) for d in result.d_history],
        }

    return compute


def cmd_dancer(args, cfg):
    k, eta, tol = cfg["k"], cfg["eta"], cfg["tol"]
    _check(0 < eta < 1, f"0 < eta < 1 (got {eta})")
    _check_tol(tol)
    if cfg["eps_sweep"] is not None:
        _check(cfg["eps"] is None, f"eps or eps-sweep, not both (got eps = {cfg['eps']})")
        epsilons = list(cfg["eps_sweep"])
        _check(len(set(epsilons)) == len(epsilons),
               f"distinct eps in sweep (got {cfg['eps_sweep']})")
    else:
        epsilons = [_require(cfg, "eps")]
    grids = _strip_grids(cfg, epsilons)
    configs = [ans.uniform_configuration(e, k) for e in epsilons]

    def compute():
        profile = _profile(cfg["p"])
        rows = []
        for e, config in zip(epsilons, configs):
            bundle = ans.build_ansatz(config, profile, grids[e])
            sol = dnc.newton_solve(bundle, tol=tol)
            evenness = dnc.verify_evenness(sol)
            if evenness > 10 * max(tol, 1e-9):
                raise AssertionFailure(
                    f"evenness defect {evenness:.3e} above threshold at eps={e}"
                )
            full, half = dnc.minimal_period_gaps(sol)
            rows.append({
                "eps": e,
                "iterations": sol.iterations,
                "residual_history": sol.newton_history,
                "multiplier": sol.multiplier,
                "min_value": float(sol.field.data.min()),
                "evenness_defect": evenness,
                "period_defect": full,
                "half_period_defect": half,
            })
        results: dict = {"runs": rows}
        if len(epsilons) >= 3:
            report = dnc.psi_decay_fit(profile, epsilons, k, eta, grids.__getitem__)
            results["psi_decay"] = {
                "epsilons": report.epsilons,
                "weighted_sups": report.weighted_sups,
                "abscissa": report.abscissa,
                "slope": report.slope,
            }
        return results

    return compute


def cmd_oracle_taylor(args, cfg):
    asym.validate_taylor_check(cfg["n"], cfg["p"])
    _check(cfg["seed"] >= 0, f"seed >= 0 (got {cfg['seed']})")

    def compute():
        report = asym.taylor_remainder_check(cfg["n"], cfg["p"], cfg["seed"])
        return {
            "max_ratio": report.max_ratio,
            "argmax": list(report.argmax),
            "samples": report.samples,
        }

    return compute


def cmd_oracle_interactions(args, cfg):
    spec_ = asym.InteractionSpec(f=lambda r: np.exp(-r), g=lambda r: np.exp(-r), a=cfg["a"],
                                 b=cfg["b"], y0=cfg["y0"], dimension=cfg["dim"])

    def compute():
        value = asym.interaction_quadrature(spec_)
        return {
            "value": value,
            "rescaled": asym.rescale(spec_, value),
            "mass_constant": asym.mass_constant(spec_),
        }

    return compute


_COMMANDS = {
    "groundstate": (cmd_groundstate, "radial ground-state profile"),
    "ansatz": (cmd_ansatz, "multi-peak ansatz residual norms"),
    "spectrum": (cmd_spectrum, "weighted eigenpairs of the linearization"),
    "reduce": (cmd_reduce, "Lyapunov-Schmidt correction"),
    "equilibrate": (cmd_equilibrate, "drive peak positions to d = 0"),
    "dancer": (cmd_dancer, "Newton solve and decay probes"),
    "oracle-taylor": (cmd_oracle_taylor, "Taylor-remainder property check"),
    "oracle-interactions": (cmd_oracle_interactions, "two-peak interaction quadrature"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multipeak",
        description="Multi-peak periodic solutions of -Du + u - u^p = 0 on a strip",
    )
    parser.add_argument("--config", help="INI config file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = None
    leaves = {}
    for command, (func, text) in _COMMANDS.items():
        group, _, kind = command.partition("-")
        if kind and kinds is None:
            kinds = sub.add_parser(group, help="stand-alone asymptotic oracles").add_subparsers(
                dest="kind", required=True)
        sp = leaves[command] = (kinds if kind else sub).add_parser(kind or group, help=text)
        sp.set_defaults(func=func, command=command)
        sp.add_argument("--out", default=None, help="summary JSON path (default stdout)")
        for name, (parse, _) in PARAMS[command].items():
            sp.add_argument(f"--{name.replace('_', '-')}", type=parse, default=None)
    leaves["groundstate"].add_argument("--profile-out", default=None)
    for command in ("spectrum", "reduce"):
        leaves[command].add_argument("--weighted-report", action="store_true")
    return parser


def _fail(code: int, kind: str, exc: Exception) -> int:
    sys.stderr.write(json.dumps({"error": kind, "detail": str(exc)}) + "\n")
    return code


def main(argv=None) -> int:
    tokens = []  # `--peaks -3.1,0.2` as `--peaks=-3.1,0.2`, which argparse reads as two flags
    for token in sys.argv[1:] if argv is None else argv:
        with contextlib.suppress(ConfigError):
            if tokens and tokens[-1] in _LIST_FLAGS and _float_list(token):
                token = tokens.pop() + "=" + token
        tokens.append(token)
    try:
        args = build_parser().parse_args(tokens)
        for path in (args.out, getattr(args, "profile_out", None)):
            _check(not path or os.path.isdir(os.path.dirname(path) or "."),
                   f"the directory of {path} exists")
            _check(not path or not os.path.isdir(path), f"{path} is not a directory")
        cfg = _resolve(args, args.command)
        compute = args.func(args, cfg)
    except SystemExit:  # --help, printed by argparse
        return 0
    except ValueError as exc:  # ConfigError and the validators of the layers
        return _fail(EXIT_CONFIG, "config", exc)
    config = {name: value for name, value in cfg.items() if value is not None}
    try:
        emit_summary(args.command, config, compute(), args.out)
    except AssertionFailure as exc:
        return _fail(EXIT_ASSERTION, "assertion", exc)
    except Exception as exc:  # after validation every failure is numerical
        return _fail(EXIT_NUMERICAL, "numerical", exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
