"""Command-line front end: reproducibility, config merging, exit codes."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import multipeak
from multipeak import asymptotics, groundstate, reduction
from multipeak.ansatz import residual_rate, uniform_configuration
from multipeak.cli import (
    EXIT_CONFIG, EXIT_NUMERICAL, PARAMS, _render, _resolve, build_parser, main,
)


def run(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def test_groundstate_reproducible(tmp_path):
    code1, f1 = run(tmp_path, "a.json", ["groundstate", "--dim", "1", "--p", "3"])
    code2, f2 = run(tmp_path, "b.json", ["groundstate", "--dim", "1", "--p", "3"])
    assert code1 == code2 == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_spectrum_reproducible(tmp_path):
    args = ["spectrum", "--eps", "0.3", "--k", "2"]
    code1, f1 = run(tmp_path, "s1.json", args)
    code2, f2 = run(tmp_path, "s2.json", args)
    assert code1 == code2 == 0
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["groundstate", "--dim", "2", "--p", "3"],
        ["groundstate", "--dim", "3", "--p", "4.9"],
        ["spectrum", "--eps", "0.3", "--k", "2"],
    ],
    ids=" ".join,
)
def test_fresh_processes_and_blas_threads_agree(tmp_path, args):
    """Byte-identical output from fresh processes with 1 and 2 BLAS threads;
    N = 3, p = 4.9 is the ground state's longest run of dense solves."""
    src = str(Path(multipeak.__file__).parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / f"threads{threads}.json"
        subprocess.run([sys.executable, "-m", "multipeak.cli", *args, "--out", str(out)],
                       env=env, check=True, timeout=120)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "args",
    [["--dim", "3", "--p", "3"], ["--p", "7"], ["--p", "12"], ["--p", "14"], ["--p", "20"],
     ["--dim", "3", "--p", "4.9"]],
    ids=" ".join,
)
def test_groundstate_admissible_inputs_run(tmp_path, args):
    """N = 3, p = 3 and 4.9 and N = 2, p = 7, 12, 14 and 20 are admissible, so they exit 0."""
    code, f = run(tmp_path, "g.json", ["groundstate", *args])
    assert code == 0
    assert json.loads(f.read_text())["results"]["center_value"] > 1


@pytest.mark.parametrize(
    "args, reason",
    [(["--dim", "3", "--p", "4.99"], "ground state is not positive and decreasing"),
     (["--p", "25"], "core length 0.000433 needs stored nodes finer than 0.0003125")],
    ids=" ".join,
)
def test_groundstate_core_beyond_the_nodes_exits_numerical(args, reason, capsys):
    """At N = 3, p = 4.99 the core is too narrow for the collocation nodes, and
    the collocated U rises in the tail; at N = 2, p = 25 the nodes resolve it,
    but storing it would take more than 38,401 nodes.  Both exit 3 and say why."""
    assert main(["groundstate", *args]) == EXIT_NUMERICAL
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "numerical"
    assert reason in error["detail"]


def test_content_hash_verifies(tmp_path):
    code, f = run(tmp_path, "g.json", ["groundstate", "--dim", "1", "--p", "3"])
    assert code == 0
    doc = json.loads(f.read_text())
    recorded = doc.pop("content_hash")
    recomputed = hashlib.sha256(_render(doc).encode()).hexdigest()
    assert recorded == recomputed


def test_render_is_json():
    text = _render(
        {"a": [1.5, 2, True, None], "b": {"c": float("1e-300")}, "s": "x"}
    )
    assert json.loads(text) == {
        "a": [1.5, 2, True, None],
        "b": {"c": 1e-300},
        "s": "x",
    }


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[common]\ndim = 2\np = 3\n[ansatz]\neps = 0.3\nk = 2\n")
    base = ["--config", str(cfg), "ansatz"]
    code1, f1 = run(tmp_path, "c1.json", base)
    code2, f2 = run(tmp_path, "c2.json", base)
    assert code1 == code2 == 0
    assert f1.read_bytes() == f2.read_bytes()
    # a flag overrides the file value and changes the resolved config
    code3, f3 = run(tmp_path, "c3.json", base + ["--k", "1"])
    assert code3 == 0
    assert json.loads(f3.read_text())["config"]["k"] == 1


def test_equal_resolved_runs_hash_alike(tmp_path):
    """Typed defaults and an INI file give the summary of the bare flags."""
    cfg = tmp_path / "run.ini"
    cfg.write_text("[common]\np = 3\nh = 0.25\n[ansatz]\neps = 0.3\nk = 2\n")
    spellings = [
        ["ansatz", "--eps", "0.3", "--k", "2"],
        ["ansatz", "--eps", "0.3", "--k", "2", "--dim", "2", "--p", "3", "--h", "0.25",
         "--transverse", "12"],
        ["--config", str(cfg), "ansatz"],
    ]
    outs = []
    for i, args in enumerate(spellings):
        code, f = run(tmp_path, f"h{i}.json", args)
        assert code == 0
        outs.append(f.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    # a list value may start with "-" with or without "="
    peaks = [run(tmp_path, f"p{i}.json", ["ansatz", "--eps", "0.3", *flag])
             for i, flag in enumerate((["--peaks=-3.14,0"], ["--peaks", "-3.14,0"]))]
    assert [code for code, _ in peaks] == [0, 0]
    assert peaks[0][1].read_bytes() == peaks[1][1].read_bytes()


@pytest.mark.parametrize(
    "line, unset",
    [
        ("groundstate", ""),
        ("ansatz --eps 0.3 --peaks=-3.14,0", ""),
        ("spectrum --eps 0.3 --k 2", "peaks"),
        ("reduce --eps 0.3", "peaks"),
        ("equilibrate --eps 0.3", ""),
        ("dancer --eps-sweep 0.35,0.3,0.25", "eps"),
        ("dancer --eps 0.3", "eps_sweep"),
        ("oracle taylor", ""),
        ("oracle interactions", ""),
    ],
)
def test_config_lists_every_resolved_parameter(line, unset):
    """Derived parameters (k, count, tol) are written back; only absent inputs stay unset."""
    args = build_parser().parse_args(line.split())
    cfg = _resolve(args, args.command)
    args.func(args, cfg)  # validates and derives; computes nothing
    assert list(cfg) == list(PARAMS[args.command])
    assert {name for name, value in cfg.items() if value is None} == set(unset.split())


def test_eps_sweep_from_ini(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[dancer]\neps_sweep = 0.35,0.3,0.25\nk = 1\n")
    args = build_parser().parse_args(["--config", str(cfg), "dancer"])
    resolved = _resolve(args, "dancer")
    args.func(args, resolved)
    assert resolved["eps_sweep"] == (0.35, 0.3, 0.25) and resolved["eps"] is None


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["oracle", "taylor", "--help"]) == 0
    assert "--seed" in capsys.readouterr().out


def test_peaks_set_k(tmp_path):
    code, f = run(tmp_path, "p.json", ["ansatz", "--eps", "0.3", "--peaks=-3.14,0"])
    assert code == 0
    assert json.loads(f.read_text())["config"]["k"] == 2


@pytest.mark.parametrize("section", ["common", "ansatz"])
def test_unknown_ini_key_is_a_config_error(tmp_path, capsys, section):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\nhh = 0.1\n")
    assert main(["--config", str(cfg), "ansatz", "--eps", "0.3", "--k", "2"]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "config" and "hh" in err["detail"]


def test_missing_config_file():
    assert main(["--config", "/nonexistent.ini", "ansatz"]) == EXIT_CONFIG


def test_invalid_exponent_exit_code():
    assert main(["ansatz", "--eps", "0.3", "--k", "2", "--p", "1.5"]) == EXIT_CONFIG


def test_missing_required_parameter():
    assert main(["reduce", "--k", "2"]) == EXIT_CONFIG


def test_numerical_failure_exit_code():
    # peaks too close for a clean near kernel: numerical failure, not config
    assert main(["spectrum", "--eps", "1.2", "--k", "2"]) == EXIT_NUMERICAL


def test_reduce_where_the_eigen_count_failed(tmp_path):
    """At ε = 0.7 only one eigenvalue is within 0.1 of 0, but the translation
    frame needs no count: the uniform pair's d_i cancel by symmetry."""
    code, f = run(tmp_path, "r.json", ["reduce", "--eps", "0.7", "--k", "2"])
    assert code == 0
    results = json.loads(f.read_text())["results"]
    rate = residual_rate(results["sigma_min"], 2)
    assert max(abs(d) for d in results["d_coeffs"]) <= 1e-9 * rate


def test_reduce_weighted_report(tmp_path):
    """--weighted-report adds sup |v| e^{ηd} for each η of DEFAULT_ETAS, in order:
    each at least sup |v| (e^{ηd} ≥ 1) and not decreasing in η; the other
    results are those of the run without the flag."""
    from multipeak.weighted import DEFAULT_ETAS

    args = ["reduce", "--eps", "0.3", "--k", "2"]
    code, f = run(tmp_path, "w.json", args + ["--weighted-report"])
    assert code == 0
    results = json.loads(f.read_text())["results"]
    report = results.pop("weighted_correction")
    assert [entry["eta"] for entry in report] == list(DEFAULT_ETAS)
    norms = [entry["norm"] for entry in report]
    assert norms[0] >= results["sup_norm"] and norms == sorted(norms)
    code, f = run(tmp_path, "r.json", args)
    assert code == 0 and results == json.loads(f.read_text())["results"]


@pytest.mark.parametrize(
    "args, reason",
    [
        (["--eps", "0.9"], "Newton diverging: step"),
        (["--eps", "0.3", "--p", "7"], "core length is l = (p U(0)^(p-1))^(-1/2) = 0.05607, "
                                          "so h must be at most 2.5 l = 0.1402"),
        (["--eps", "0.4", "--tol", "2e-21"], "after 5 iterations, tol = 2e-21"),
        (["--eps", "0.3", "--tol", "1e-20"], "or tol is below v's roundoff"),
    ],
    ids=["contraction", "unresolved-core", "unconverged", "roundoff-tol"],
)
def test_reduce_numerical_failures(args, reason, capsys):
    """Too close a pair makes the correction's Newton steps grow, at p = 7 the
    desk grid does not resolve the core (h = 0.25 > 2.5ℓ), and a tol below the
    roundoff of v is refused at the first step solved at the floor term that
    falls under that roundoff (ε = 0.4 and 0.3): all exit 3 and say why."""
    assert main(["reduce", "--k", "2", *args]) == EXIT_NUMERICAL
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "numerical"
    assert reason in error["detail"]


@pytest.mark.parametrize("command", ["dancer", "spectrum"])
def test_unresolved_core_exits_numerical(command, capsys):
    """The resolution check guards every command that needs the translation
    modes resolved: on the desk grid at p = 7 Newton would otherwise report a
    solution and the spectrum a near-kernel count that do not name the cause."""
    assert main([command, "--eps", "0.3", "--k", "2", "--p", "7"]) == EXIT_NUMERICAL
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error["error"] == "numerical"
    assert "so h must be at most 2.5 l = 0.1402" in error["detail"]


def test_equilibrate_line_search_failure_exits_numerical(monkeypatch, capsys):
    """Every trial step diverging (ContractionError) fails the line search: exit 3,
    one JSON line and no traceback.  The first two `reduce` runs, the start and
    the Jacobian's column at k = 2, are real."""
    real, runs = reduction.reduce, []

    def diverging(*args, **kwargs):
        runs.append(1)
        if len(runs) > 2:
            raise reduction.ContractionError("scripted divergence")
        return real(*args, **kwargs)

    monkeypatch.setattr(reduction, "reduce", diverging)
    assert main(["equilibrate", "--eps", "0.3", "--k", "2", "--perturb", "0.05"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err) == {"error": "numerical", "detail": "equilibrate line search failed"}
    assert len(runs) == 2 + 8


def test_equilibrate_default_tol_from_the_uniform_configuration(tmp_path):
    """The default tol is 1e-2 of the residual rate at the uniform half-gap, the
    equilibrium sought: from the perturbed start's smaller half-gap it was 1.05e-4
    at --perturb -0.6, met with the gaps still 9.7 % apart."""
    code, out = run(tmp_path, "e.json", ["equilibrate", "--eps", "0.3", "--k", "2",
                                         "--perturb", "-0.6"])
    doc = json.loads(out.read_text())
    assert code == 0
    assert doc["config"]["tol"] == 1e-2 * residual_rate(uniform_configuration(0.3, 2).sigma_min, 2)
    assert doc["results"]["gap_relative_spread"] < 1e-3


@pytest.mark.parametrize("args, computes", [
    (["oracle", "taylor", "--out"], (asymptotics, "taylor_remainder_check")),
    (["groundstate", "--profile-out"], (groundstate, "solve_ground_state")),
], ids=["out", "profile-out"])
def test_output_path_that_is_a_directory_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                           args, computes):
    """An existing directory given as an output path exits 2 before computing,
    not 3 at the write after the whole computation."""

    def computing(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    monkeypatch.setattr(*computes, computing)
    assert main(args + [str(tmp_path)]) == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config" and "is not a directory" in error["detail"]


def test_oracle_taylor_deterministic(tmp_path):
    args = ["oracle", "taylor", "--n", "2000", "--seed", "9"]
    code1, f1 = run(tmp_path, "t1.json", args)
    code2, f2 = run(tmp_path, "t2.json", args)
    assert code1 == code2 == 0
    assert f1.read_bytes() == f2.read_bytes()
    doc = json.loads(f1.read_text())
    assert doc["results"]["max_ratio"] <= 1.0 + 1e-12


@pytest.fixture
def deadline():
    """Fail a command that has not returned within 10 s instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError("command did not exit within 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


DESK = ["ansatz", "--eps", "0.3", "--k", "2"]


@pytest.mark.parametrize(
    "args",
    [
        DESK + [flag, value]
        for flag in ("--h", "--transverse", "--eps", "--p")
        for value in ("0", "-0.25", "nan", "inf")
    ]
    + [
        DESK + ["--h", "100"],
        DESK + ["--h", "0.001"],
        ["dancer", "--eps", "0.3", "--tol", "-1"],
        ["dancer", "--eps", "0.3", "--eta", "1.5"],
        ["dancer", "--eps-sweep", "0.3,0.3,0.3", "--k", "1"],
        ["reduce", "--eps", "0.3", "--k", "2", "--tol", "nan"],
        ["reduce", "--eps", "0.3", "--k", "2", "--tol", "inf"],
        ["equilibrate", "--eps", "0.3", "--k", "2", "--tol", "inf"],
        ["dancer", "--eps", "0.3", "--k", "1", "--tol", "inf"],
        ["spectrum", "--eps", "0.3", "--k", "0"],
        ["spectrum", "--eps", "0.3", "--k", "2", "--dim", "3"],
        DESK + ["--dim", "1"],
        ["reduce", "--eps", "0.3", "--k", "2", "--dim", "3"],
        ["equilibrate", "--eps", "0.3", "--k", "2", "--dim", "1"],
        ["dancer", "--eps", "0.3", "--dim", "3"],
        ["spectrum", "--eps", "0.3", "--k", "3", "--count", "6"],
        ["spectrum", "--eps", "0.3", "--k", "2", "--count", "13"],
        ["spectrum", "--eps", "0.3", "--k", "2", "--count", "4100"],
        DESK + ["--transverse", "1"],
        DESK + ["--transverse", "3.9"],
        DESK + ["--out", "/no/such/dir/a.json"],
        ["groundstate", "--profile-out", "/no/such/dir/p.json"],
        ["oracle", "taylor", "--out", "/no/such/dir/t.json"],
        ["oracle", "taylor", "--n", "0"],
        ["oracle", "taylor", "--p", "100"],
        ["oracle", "taylor", "--p", "150"],
        ["oracle", "interactions", "--y0", "nan"],
        ["oracle", "interactions", "--y0", "750"],
        ["oracle", "taylor", "--n", "10000001"],
        ["ansatz", "--eps", "0.0084", "--k", "1"],
        ["reduce", "--eps", "0.0084", "--k", "1"],
        ["equilibrate", "--eps", "0.004", "--k", "2"],
        ["ansatz", "--eps", "0.3", "--h", "1e-310"],
        ["ansatz", "--eps", "1e-310", "--k", "1"],
        ["ansatz", "--eps", "0.3", "--transverse", "1e308"],
        ["ansatz", "--eps", "0.3", "--k", "10000000"],
        ["dancer", "--eps", "0.3", "--k", "3000000"],
        ["oracle", "taylor", "--y0", "5"],
        ["oracle", "interactions", "--seed", "3"],
        ["ansatz", "--eps", "0.3", "--k", "3", "--peaks=-3.14,0"],
        ["dancer", "--eps", "0.3", "--eps-sweep", "0.35,0.3,0.25"],
        DESK[:-1] + ["x"],
        pytest.param([], id="(no subcommand)"),
        ["oracle"],
    ],
    ids=" ".join,
)
def test_invalid_input_is_a_config_error(args, deadline, capsys):
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.splitlines()[-1])["error"] == "config"


@pytest.mark.parametrize("args", [["ansatz", "--eps", "0.3", "--h", "1e-300"],
                                  ["ansatz", "--eps", "1e-300", "--k", "1"]], ids=" ".join)
def test_huge_finite_node_count_is_one_short_error(args, capsys):
    """A finite node count far above the cap is rejected with no numpy overflow
    warning (under warnings as errors it would escape main) and a short detail:
    one stderr line, the error JSON."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "config" and "unknowns, above the cap" in error["detail"]
    assert len(error["detail"]) < 200


def test_oracle_interactions_mass_constant_where_a_minus_b_is_small(tmp_path):
    """At a − b = 0.1 most of C₀ lies beyond |x| = 40: 2πa/(a²−b²)^{3/2} on the plane."""
    code, f = run(tmp_path, "i.json", ["oracle", "interactions", "--a", "1.1", "--b", "1",
                                       "--y0", "12", "--dim", "2"])
    assert code == 0
    c0 = json.loads(f.read_text())["results"]["mass_constant"]
    assert c0 == pytest.approx(71.81970408876022, rel=1e-12, abs=0)


@pytest.mark.parametrize("a, code, detail", [("1.05", EXIT_CONFIG, "R0 = 40/min(1, a-b) <="),
                                             ("1e300", EXIT_NUMERICAL, "underflows to 0")])
def test_oracle_interactions_out_of_range_exits(a, code, detail, capsys):
    """a − b so small that the mass constant's range R₀ = 40/(a − b) reaches past
    where e^{−r} underflows is rejected; an integral that underflows to 0 fails
    and prints no result."""
    assert main(["oracle", "interactions", "--a", a, "--b", "1", "--y0", "12"]) == code
    out, err = capsys.readouterr()
    assert out == "" and detail in json.loads(err)["detail"]


def test_linalg_failure_after_validation_is_numerical(monkeypatch, capsys):
    """LinAlgError subclasses ValueError; raised while computing it still exits 3."""

    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(asymptotics, "taylor_remainder_check", singular)
    assert main(["oracle", "taylor", "--n", "10"]) == EXIT_NUMERICAL
    assert json.loads(capsys.readouterr().err)["error"] == "numerical"
