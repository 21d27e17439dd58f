"""Twin-experiment benchmark for kinassim.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload thacker_twin --seed 0 --seconds 30 --trace 0

Each repetition is a fresh interpreter (perfbench/child.py) that imports
kinassim from ./src, builds one workload's inputs from the seed, runs it
single-threaded through the public API and checks every twin.  Repetitions
are started until ``--seconds`` is used up, with at least three untraced ones.

--trace 0 prints the end-to-end metrics (medians over the repetitions):
  wall_s        time inside run_twin / sweep_lambda
  setup_s       launch of a fresh interpreter until kinassim is imported and
                the inputs are built
  peak_rss_mb   ru_maxrss of an interpreter that ran the workload once
  final_l1_rel  final relative L1 error (median over the twins of a sweep)
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of tracer.py and trace.overhead_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give every metric with
its unit, failed_ratio, and the environment.  Everything measured is also
written to .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3  # untraced repetitions per run, even if they overrun --seconds
RUN_LIMIT_S = 170  # a run, children included, ends within this
_STARTED = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildError(RuntimeError):
    pass


def launch(workload: str, seed: int, mode: str) -> dict:
    """Run child.py once; returns its record plus the measured set-up time.

    Set-up time runs from just before the launch to the child's "ready"
    stamp, both read from the system-wide CLOCK_MONOTONIC.
    """
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), workload, str(seed), mode],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S - (time.perf_counter() - _STARTED))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"{mode} child for {workload} did not finish in time") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise ChildError(f"{mode} child for {workload} exited with {proc.returncode}")
    record = json.loads(lines[-1]) if mode != "setup" else {}
    record["setup_s"] = float(lines[0].split()[1]) - launched
    return record


def repeat(seconds: float, batch, min_calls: int = 1) -> list:
    """Call ``batch`` at least ``min_calls`` times, then until the next call
    would likely overrun ``seconds``."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(batch())
        last = time.perf_counter() - t0
        if len(results) >= min_calls and time.perf_counter() - start + last > seconds:
            return results


def environment(versions: dict) -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), **versions}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None
            )
    except OSError:
        env["cpu_model"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    env["caches"] = caches
    env["commit"] = None
    if (ROOT / ".git").exists():
        try:
            env["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    env["blas_threads"] = 1
    return env


def tally(records: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = sorted({p for r in records for p in r["problems"]})
    return attempted, failed, problems


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    # a set-up-only launch after each repetition spreads the set-up samples
    # over the whole run; the run's first launch (cold bytecode and page
    # cache) is not counted
    reps = repeat(
        seconds,
        lambda: (launch(workload, seed, "run"), launch(workload, seed, "setup")),
        MIN_REPS,
    )
    runs = [r for r, _ in reps]
    setups = [r["setup_s"] for r in runs[1:]] + [s["setup_s"] for _, s in reps]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for r in runs),
        "final_l1_rel": statistics.median(r["final_l1_rel"] for r in runs),
    }
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in runs],
    }
    return metrics, runs, samples


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    pairs = repeat(seconds, lambda: (launch(workload, seed, "run"), launch(workload, seed, "trace")))
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    layers = {}
    for key in traced[0]["layers"]:
        values = [t["layers"][key] for t in traced]
        layers[key] = statistics.median(values) if key.endswith(("_s", "ns_per_interface")) else values[0]
    layers["trace.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced) - statistics.median(p["wall_s"] for p in plain)
    )
    samples = {"wall_s": [p["wall_s"] for p in plain], "traced_wall_s": [t["wall_s"] for t in traced]}
    return layers, plain + traced, samples


# The layer map README.md predicts: the workloads on which each layer is
# called.  A deviation is reported, not failed, because an optimisation may
# legitimately stop calling a layer.
LAYER_MAP = {
    "kinetic.upwind_power_moment.calls": {"thacker_twin", "dambreak_fine"},
    "observation.interpolate_in_time.calls": {"thacker_twin"},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of workloads.py")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "kinassim" / "__init__.py").is_file():
        print(f"error: no kinassim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            measured, records, samples = per_layer(args.workload, args.seed, args.seconds)
        else:
            measured, records, samples = end_to_end(args.workload, args.seed, args.seconds)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # report exactly the metrics BENCHMARK.json declares for this mode
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in units.items()}
    attempted, failed, problems = tally(records)
    env = environment(records[0]["versions"])
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_ratio = {failed / attempted:.6g} ({failed}/{attempted} twins)")
    for problem in problems:
        print(f"{args.workload} check failed: {problem}")
    if args.trace:
        deviations = [
            k for k, called_on in LAYER_MAP.items() if (measured[k] > 0) != (args.workload in called_on)
        ]
        print(f"{args.workload} layer map: {'as predicted' if not deviations else 'deviates at ' + ', '.join(deviations)}")
    print("env " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, "samples": samples,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
