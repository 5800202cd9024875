"""Benchmark of the multipeak pipeline: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports the package from
the checkout's ``src`` and refuses to run (exit 2) when there is none.  One
process drives the work: a closed loop with a single client, operations one
after another, BLAS/OpenMP pinned to one thread.  After the set-up it runs
whole passes over the workload's operations until S seconds have gone,
at least one, in an order drawn from the seed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Untraced runs report the
end-to-end metrics of BENCHMARK.json, traced runs the per-layer ones (0
where the workload does not call the layer); lines before it, starting
with ``#``, name the machine, the passes and every failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
WORKLOADS = ("cli_cold", "mesh_limit", "desk_newton", "oracles")
# the modules each in-process workload calls, imported as part of its set-up
SETUP_MODULES = {
    "mesh_limit": ("multipeak", "multipeak.reduction"),
    "desk_newton": ("multipeak", "multipeak.dancer", "multipeak.weighted"),
    "oracles": ("multipeak", "multipeak.asymptotics"),
}


def cold_import_seconds() -> float:
    """Wall time of ``python -c "import multipeak.cli"``, interpreter start included."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import multipeak.cli"], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def child_setup_seconds(modules) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "setup", *modules],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_passes(ops, seed: int, seconds: float, tracer):
    """Whole passes until ``seconds`` have gone; returns (passes, failures, attempted)."""
    rng = random.Random(seed)
    passes, failures, attempted = [], [], 0
    start = time.perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        wall = 0.0
        for op in order:
            if tracer is not None:
                tracer.set_operation(f"{len(passes)}:{op.name}")
            t0 = time.perf_counter()
            try:
                out = op.run()
                reason = None
            except Exception as exc:  # a failing operation is counted, not fatal
                reason = f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - t0
            if reason is None:
                reason = op.check(out)
            attempted += 1
            if reason:
                failures.append((len(passes), op.name, reason))
        passes.append({"wall": wall, "layers": tracer.take() if tracer else {}})
        if time.perf_counter() - start >= seconds:
            return passes, failures, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "multipeak" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {src / 'multipeak'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)

    tracer = Tracer() if args.trace else None
    if args.workload == "cli_cold":
        setup = [cold_import_seconds() for _ in range(SETUP_SAMPLES)]
        profile = None
    else:
        modules = SETUP_MODULES[args.workload]
        seconds, profile = child.setup(modules, tracer)
        setup = [seconds]
        if tracer is None:
            setup += [child_setup_seconds(modules) for _ in range(SETUP_SAMPLES - 1)]
    setup_layers = tracer.take() if tracer else {}

    # after the set-up, which pays for importing numpy and scipy
    import numpy
    import scipy
    import workloads

    if args.workload == "cli_cold":
        workload = workloads.CliCold(ROOT, OUT, tracer)
    elif args.workload == "mesh_limit":
        workload = workloads.MeshLimit(profile)
    elif args.workload == "desk_newton":
        workload = workloads.DeskNewton(profile)
    else:
        workload = workloads.Oracles(profile, tracer)
    if tracer is not None:
        tracer.set_operation("prepare")
    workload.prepare()
    if tracer is not None:
        tracer.take()  # preparation is neither set-up nor a pass

    passes, failures, attempted = run_passes(
        workload.operations(), args.seed, args.seconds, tracer)
    walls = [p["wall"] for p in passes]

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} pass_wall_s={[round(w, 3) for w in walls]} "
          f"setup_s={[round(t, 3) for t in setup]}")
    print(f"# {platform.platform()}, {len(os.sched_getaffinity(0))} cpus, "
          f"Python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, {'/'.join(THREAD_VARS)}=1, one client")
    known = workloads.KNOWN_FAULTS
    unexpected = 0
    for n, name, reason in failures:
        expected = name in known and reason.startswith(known[name])
        unexpected += not expected
        print(f"# failed ({'known fault' if expected else 'UNEXPECTED'}) "
              f"pass {n} {name}: {' | '.join(reason.splitlines())}")

    if tracer is None:
        if args.workload == "cli_cold":
            rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mib": rss_kib / 1024,
        }
        wanted = spec["end_to_end"]
    else:
        values = {}
        for m in spec["per_layer"]:
            name = m["name"]
            per_pass = statistics.median(p["layers"].get(name, 0) for p in passes)
            cast = int if m["unit"] == "count" else float
            values[name] = cast(setup_layers.get(name, 0) + per_pass)
        wanted = spec["per_layer"]
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_path)
        print(f"# spans: {len(tracer.span_name)} written to {trace_path.relative_to(ROOT)}")
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
