"""The two things the benchmark runs in a fresh interpreter.

    python perfbench/child.py setup MODULE...
        Import the modules, solve the N = 2, p = 3 ground state and print the
        seconds that took: one sample of an in-process workload's set-up.

    python perfbench/child.py cli SIDECAR ARG...
        Import ``multipeak.cli``, wrap the package's public functions and run
        ``multipeak.cli.main(ARG...)``; the summary goes to standard output
        as usual, the import time and the spans to the JSON file SIDECAR.

Top-level imports are the standard library and ``tracing`` (itself standard
library only), so every set-up sample starts from the same imports and pays
for numpy and scipy itself.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from tracing import Tracer


def setup(modules, tracer=None):
    """(seconds, profile): import ``modules``, then the ground-state profile.

    The first evaluation of the profile is part of it, since it builds the
    interpolating spline every later evaluation uses.  With a tracer, the
    wrappers go in after the imports so the solve itself is traced.
    """
    t0 = time.perf_counter()
    for name in modules:
        importlib.import_module(name)
    if tracer is not None:
        tracer.install()
        tracer.set_operation("setup")
    gs = sys.modules["multipeak.groundstate"]
    profile = gs.solve_ground_state(2, 3.0)
    gs.eval_radial(profile, [0.0])
    return time.perf_counter() - t0, profile


def run_cli(sidecar: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    cli = importlib.import_module("multipeak.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.set_operation(argv[0])
    code = cli.main(argv)
    sys.stdout.flush()
    with open(sidecar, "w") as fh:
        json.dump(
            {"import_s": import_s, "metrics": tracer.take(), "spans": list(tracer.spans())},
            fh,
        )
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        seconds, _ = setup(sys.argv[2:])
        print(repr(seconds))
    elif sys.argv[1] == "cli":
        sys.exit(run_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
