"""One fresh interpreter running one workload once (started by run.py).

Usage: python3 perfbench/child.py <workload> <seed> <setup|run|trace>

Prints "ready <CLOCK_MONOTONIC seconds>" once kinassim is imported and the
inputs are built (the end of set-up).  Unless the mode is "setup", it then
runs the workload and prints one JSON line with its timings, checks and
``ru_maxrss``.  In "trace" mode the layers are wrapped before set-up and the
spans are written to .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import kinassim  # noqa: E402  (must come from this checkout's src/)

if not Path(kinassim.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"kinassim was imported from {kinassim.__file__}, not from {ROOT / 'src'}")

import numpy  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in WORKLOADS or argv[2] not in ("setup", "run", "trace"):
        print(f"{__doc__}\nworkloads: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    workload = WORKLOADS[name]
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install(callers=[workloads])
    inputs = workload.setup(seed)
    print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    if mode == "setup":
        return 0
    cpu = time.process_time()
    twins = workload.run(inputs)
    cpu = time.process_time() - cpu
    record = {
        "wall_s": twins.wall_s,
        "cpu_s": cpu,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": twins.attempted,
        "failed": twins.failed,
        "problems": twins.problems,
        "final_l1_rel": twins.final_l1_rel,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{name}-seed{seed}.npz")
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
