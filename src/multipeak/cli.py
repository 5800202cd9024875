"""Command-line entry point.

Every workflow is a subcommand; run parameters come from an optional INI
config file overridden by flags.  Summaries are JSON with all floats
rendered at 17 significant digits and a sha256 content hash of the
resolved configuration and results, so identical inputs reproduce
bit-identical output (no timestamps).  Exit codes: 0 success, 2 config
error (raised while a command resolves and validates its inputs), 3
numerical failure (raised after that), 4 assertion failure.
"""

from __future__ import annotations

import argparse
import configparser
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


def _parse_peaks(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"unparsable peak list {text!r}") from exc


def _load_config(path: str | None, section: str) -> dict:
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
    for sect in ("common", section):
        if parser.has_section(sect):
            merged.update(parser[sect])
    return merged


def _resolve(args: argparse.Namespace, section: str, casts: dict) -> dict:
    """Merge config-file values and CLI flags (flags win) with type casts."""
    base = _load_config(args.config, section)
    out = {}
    for key, cast in casts.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            out[key] = flag_val
        elif key in base:
            try:
                out[key] = cast(base[key])
            except ValueError as exc:
                raise ConfigError(f"bad config value for {key}: {base[key]}") from exc
    return out


def _require(cfg: dict, key: str):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"missing required parameter: {key}")
    return cfg[key]


def _check(ok: bool, constraint: str) -> None:
    """NaN-safe: a comparison with NaN is False, so NaN fails the check."""
    if not ok:
        raise ConfigError(f"constraint violated: {constraint}")


def _exponent(cfg) -> tuple[int, float]:
    n, p = cfg.get("dim", 2), cfg.get("p", 3.0)
    gs.validate_exponent(n, p)
    return n, p


def _strip_exponent(cfg) -> tuple[int, float]:
    """(N, p) of a strip command; the strip operator is the planar one."""
    _check(cfg.get("dim", 2) == 2, f"dim = 2 on the strip (got {cfg.get('dim')})")
    return _exponent(cfg)


def _grid(cfg, eps: float) -> dom.StripGrid:
    return dom.make_grid(eps, cfg.get("transverse", 12.0), cfg.get("h", 0.25))


@functools.cache
def _profile(n, p):
    return gs.solve_ground_state(n, p)


# parameters of the single-ε commands, in the order their summaries list them
_BUNDLE_CASTS = dict(dim=int, p=float, eps=float, k=int, peaks=_parse_peaks,
                     h=float, transverse=float)


def _bundle_inputs(cfg):
    """Resolve (configuration, grid, N, p) of a single-ε command."""
    eps = _require(cfg, "eps")
    grid = _grid(cfg, eps)
    if cfg.get("peaks"):
        config = ans.PeakConfiguration(eps, cfg["peaks"])
    else:
        config = ans.uniform_configuration(eps, cfg.get("k", 1))
    n, p = _strip_exponent(cfg)
    return config, grid, n, p


# ---------------------------------------------------------------- commands
#
# Each command resolves and validates its inputs, then returns its summary
# name, the resolved config and the closure computing the results, so main
# maps a failure to an exit code by the phase it comes from.


def cmd_groundstate(args):
    cfg = _resolve(args, "groundstate", dict(dim=int, p=float))
    cfg.setdefault("dim", 2)
    cfg.setdefault("p", 3.0)
    _exponent(cfg)

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

    return "groundstate", cfg, compute


def cmd_ansatz(args):
    cfg = _resolve(args, "ansatz", _BUNDLE_CASTS)
    config, grid, n, p = _bundle_inputs(cfg)

    def compute():
        bundle = ans.build_ansatz(config, _profile(n, p), grid)
        res = ans.residual(bundle)
        rate = ans.residual_rate(bundle.config.sigma_min, bundle.profile.dimension)
        return {
            "sigma_min": bundle.config.sigma_min,
            "half_gaps": list(bundle.config.half_gaps),
            "residual_sup": res.sup_norm(),
            "residual_l2": ans.residual_l2(bundle),
            "rate_scale": rate,
            "sup_over_rate": res.sup_norm() / rate,
        }

    return "ansatz", cfg, compute


def cmd_spectrum(args):
    cfg = _resolve(args, "spectrum", dict(_BUNDLE_CASTS, count=int))
    config, grid, n, p = _bundle_inputs(cfg)
    count = cfg.get("count", 2 * config.k + 2)
    _check(count >= 2 * config.k + 1, f"count >= 2k + 1 (got {count} for k = {config.k})")

    def compute():
        bundle = ans.build_ansatz(config, _profile(n, p), grid)
        result = spec.lowest_eigenpairs(bundle, count=count)
        basis = spec.near_kernel_basis(result, bundle)
        results = {
            "eigenvalues": result.eigenvalues,
            "near_kernel_count": result.near_kernel_count,
            "overlap_matrix": result.overlap_matrix,
            "alphas": basis.alphas,
            "alignment_residuals": basis.alignment_residuals,
        }
        if args.weighted_report:
            results["weighted_eigenvector_norms"] = [
                {
                    "eta": eta,
                    "norms": [
                        wgt.weighted_sup(phi, bundle.config, eta)
                        for phi in basis.fields
                    ],
                }
                for eta in wgt.DEFAULT_ETAS
            ]
        return results

    return "spectrum", cfg, compute


def cmd_reduce(args):
    cfg = _resolve(args, "reduce", dict(_BUNDLE_CASTS, tol=float))
    config, grid, n, p = _bundle_inputs(cfg)
    tol = cfg.get("tol", 1e-13)
    _check(tol > 0, f"tol > 0 (got {tol})")

    def compute():
        state = red.reduce(config, _profile(n, p), grid, tol=tol)
        rate = ans.residual_rate(config.sigma_min, n)
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
                {
                    "eta": eta,
                    "norm": wgt.weighted_sup(state.correction, config, eta),
                }
                for eta in wgt.DEFAULT_ETAS
            ]
        return results

    return "reduce", cfg, compute


def cmd_equilibrate(args):
    cfg = _resolve(
        args,
        "equilibrate",
        dict(dim=int, p=float, eps=float, k=int, perturb=float, tol=float,
             h=float, transverse=float),
    )
    eps = _require(cfg, "eps")
    grids = {eps: _grid(cfg, eps)}  # equilibrate moves angles at fixed ε
    k = cfg.get("k", 2)
    _check(k >= 2, f"equilibrate requires k >= 2 (got k = {k})")
    n, p = _strip_exponent(cfg)
    base = ans.uniform_configuration(eps, k)
    perturb = cfg.get("perturb", 0.05)
    angles = list(base.angles)
    angles[1] += perturb * 2 * np.pi / k
    initial = ans.PeakConfiguration(eps, tuple(angles))
    rate = ans.residual_rate(initial.sigma_min, n)
    tol = cfg.get("tol", 1e-2 * rate)
    _check(tol > 0, f"tol > 0 (got {tol})")

    def compute():
        result = red.equilibrate(initial, _profile(n, p), grids.__getitem__, tol=tol)
        gaps = np.asarray(result.config.gaps)
        return {
            "initial_angles": list(initial.angles),
            "final_angles": list(result.config.angles),
            "final_gaps": gaps,
            "uniform_gap": 2 * np.pi / (k * eps),
            "gap_relative_spread": float(
                (gaps.max() - gaps.min()) / (2 * np.pi / (k * eps))
            ),
            "newton_steps": result.newton_steps,
            "d_history": [list(d) for d in result.d_history],
        }

    return "equilibrate", cfg, compute


def cmd_dancer(args):
    cfg = _resolve(
        args,
        "dancer",
        dict(dim=int, p=float, eps=float, k=int, eta=float,
             h=float, transverse=float, tol=float),
    )
    n, p = _strip_exponent(cfg)
    k = cfg.get("k", 1)
    eta = cfg.get("eta", 0.3)
    tol = cfg.get("tol", 1e-11)
    _check(0 < eta < 1, f"0 < eta < 1 (got {eta})")
    _check(tol > 0, f"tol > 0 (got {tol})")
    if args.eps_sweep:
        epsilons = [float(t) for t in args.eps_sweep.split(",")]
        _check(len(set(epsilons)) == len(epsilons),
               f"distinct eps in sweep (got {args.eps_sweep})")
    else:
        epsilons = [_require(cfg, "eps")]
    grids = {e: _grid(cfg, e) for e in epsilons}
    configs = [ans.uniform_configuration(e, k) for e in epsilons]

    def compute():
        profile = _profile(n, p)
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
            rows.append(
                {
                    "eps": e,
                    "iterations": sol.iterations,
                    "residual_history": sol.newton_history,
                    "multiplier": sol.multiplier,
                    "min_value": float(sol.field.data.min()),
                    "evenness_defect": evenness,
                    "period_defect": full,
                    "half_period_defect": half,
                }
            )
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

    return "dancer", cfg, compute


def cmd_oracle(args):
    if args.oracle_kind == "taylor":
        cfg = _resolve(args, "oracle", dict(p=float, n=int, seed=int))
        cfg.setdefault("p", 3.0)
        cfg.setdefault("n", 100000)
        cfg.setdefault("seed", 7)
        asym.validate_taylor_exponent(cfg["p"])
        _check(cfg["n"] >= 1, f"n >= 1 (got {cfg['n']})")
        _check(cfg["seed"] >= 0, f"seed >= 0 (got {cfg['seed']})")

        def compute():
            report = asym.taylor_remainder_check(cfg["n"], cfg["p"], cfg["seed"])
            return {
                "max_ratio": report.max_ratio,
                "argmax": list(report.argmax),
                "samples": report.samples,
            }

        return "oracle-taylor", cfg, compute

    cfg = _resolve(args, "oracle", dict(a=float, b=float, y0=float, dim=int))
    cfg.setdefault("a", 2.0)
    cfg.setdefault("b", 1.0)
    cfg.setdefault("y0", 12.0)
    cfg.setdefault("dim", 1)
    spec_ = asym.InteractionSpec(
        f=lambda r: np.exp(-r),
        g=lambda r: np.exp(-r),
        a=cfg["a"],
        b=cfg["b"],
        y0=cfg["y0"],
        dimension=cfg["dim"],
    )

    def compute():
        value = asym.interaction_quadrature(spec_)
        return {
            "value": value,
            "rescaled": asym.rescale(spec_, value),
            "mass_constant": asym.mass_constant(spec_),
        }

    return "oracle-interactions", cfg, compute


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multipeak",
        description="Multi-peak periodic solutions of -Du + u - u^p = 0 on a strip",
    )
    parser.add_argument("--config", help="INI config file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, grid=True):
        sp.add_argument("--out", default=None, help="summary JSON path (default stdout)")
        sp.add_argument("--dim", type=int, default=None)
        sp.add_argument("--p", type=float, default=None)
        if grid:
            sp.add_argument("--eps", type=float, default=None)
            sp.add_argument("--h", type=float, default=None)
            sp.add_argument("--transverse", type=float, default=None)
            sp.add_argument("--k", type=int, default=None)

    p_gs = sub.add_parser("groundstate", help="radial ground-state profile")
    common(p_gs, grid=False)
    p_gs.add_argument("--profile-out", default=None)
    p_gs.set_defaults(func=cmd_groundstate)

    p_an = sub.add_parser("ansatz", help="multi-peak ansatz residual norms")
    common(p_an)
    p_an.add_argument("--peaks", type=_parse_peaks, default=None)
    p_an.set_defaults(func=cmd_ansatz)

    p_sp = sub.add_parser("spectrum", help="weighted eigenpairs of the linearization")
    common(p_sp)
    p_sp.add_argument("--peaks", type=_parse_peaks, default=None)
    p_sp.add_argument("--count", type=int, default=None)
    p_sp.add_argument("--weighted-report", action="store_true")
    p_sp.set_defaults(func=cmd_spectrum)

    p_rd = sub.add_parser("reduce", help="Lyapunov-Schmidt correction")
    common(p_rd)
    p_rd.add_argument("--peaks", type=_parse_peaks, default=None)
    p_rd.add_argument("--tol", type=float, default=None)
    p_rd.add_argument("--weighted-report", action="store_true")
    p_rd.set_defaults(func=cmd_reduce)

    p_eq = sub.add_parser("equilibrate", help="drive peak positions to d = 0")
    common(p_eq)
    p_eq.add_argument("--perturb", type=float, default=None)
    p_eq.add_argument("--tol", type=float, default=None)
    p_eq.set_defaults(func=cmd_equilibrate)

    p_dn = sub.add_parser("dancer", help="Newton solve and decay probes")
    common(p_dn)
    p_dn.add_argument("--eta", type=float, default=None)
    p_dn.add_argument("--tol", type=float, default=None)
    p_dn.add_argument("--eps-sweep", default=None, help="comma-separated epsilons")
    p_dn.set_defaults(func=cmd_dancer)

    p_or = sub.add_parser("oracle", help="stand-alone asymptotic oracles")
    p_or.add_argument("oracle_kind", choices=("taylor", "interactions"))
    p_or.add_argument("--out", default=None)
    p_or.add_argument("--p", type=float, default=None)
    p_or.add_argument("--n", type=int, default=None)
    p_or.add_argument("--seed", type=int, default=None)
    p_or.add_argument("--a", type=float, default=None)
    p_or.add_argument("--b", type=float, default=None)
    p_or.add_argument("--y0", type=float, default=None)
    p_or.add_argument("--dim", type=int, default=None)
    p_or.set_defaults(func=cmd_oracle)
    return parser


def _fail(code: int, kind: str, exc: Exception) -> int:
    sys.stderr.write(json.dumps({"error": kind, "detail": str(exc)}) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        for path in (args.out, getattr(args, "profile_out", None)):
            _check(not path or os.path.isdir(os.path.dirname(path) or "."),
                   f"the directory of {path} exists")
        command, cfg, compute = args.func(args)
    except ValueError as exc:  # ConfigError and the validators of the layers
        return _fail(EXIT_CONFIG, "config", exc)
    try:
        emit_summary(command, cfg, compute(), args.out)
    except AssertionFailure as exc:
        return _fail(EXIT_ASSERTION, "assertion", exc)
    except Exception as exc:  # after validation every failure is numerical
        return _fail(EXIT_NUMERICAL, "numerical", exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
