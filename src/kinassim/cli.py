"""Command-line entry point.

Exit codes: 0 success, 1 configuration error, 2 runtime/solver error.
"""
from __future__ import annotations

import argparse
import sys

from .assimilation import gain_list, run_twin, sweep_lambda
from .config import ConfigError, _atomic_write, _report_dir, emit_csv, parse_config
from .metrics import sweep_minimum
from .observation import observability_check


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinassim",
        description="Kinetic nudging data assimilation twin experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write a CSV report to this path")
        p.add_argument("--quiet", action="store_true", help="suppress the summary")

    p_burgers = sub.add_parser("run-burgers", help="run a Burgers twin experiment")
    p_burgers.add_argument("config")
    common(p_burgers)

    p_sv = sub.add_parser("run-sv", help="run a Saint-Venant twin experiment")
    p_sv.add_argument("config")
    common(p_sv)

    p_sweep = sub.add_parser("sweep-lambda", help="sweep the nudging gain")
    p_sweep.add_argument("config")
    p_sweep.add_argument(
        "--lambdas", required=True, help="comma-separated gain values"
    )
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel runs")
    common(p_sweep)

    p_obs = sub.add_parser(
        "observability", help="constant-speed transport observability check"
    )
    p_obs.add_argument("--speed", type=float, required=True)
    p_obs.add_argument("--interval", required=True, help="a,b with 0 < a < b < 1")
    p_obs.add_argument("--horizon", type=float, required=True)
    common(p_obs)
    return parser


def _load(path: str, expected_model: str | None = None):
    config = parse_config(path)
    if expected_model is not None and config.model != expected_model:
        raise ConfigError(
            f"config model is {config.model!r}; this subcommand expects "
            f"{expected_model!r}"
        )
    return config


def _run_single(args, expected_model: str) -> int:
    config = _load(args.config, expected_model)
    result = run_twin(config)
    if args.out:
        emit_csv(result, args.out)
    if not args.quiet:
        print(
            f"steps={len(result.dt_history)} t_final={result.errors.times[-1]:g} "
            f"final_l1_rel={result.final_l1_rel:.6g} "
            f"final_sobolev={result.final_sobolev:.6g}"
        )
        if args.out:
            print(f"report written to {args.out}")
    return 0


def _run_sweep(args) -> int:
    try:
        lam_values = gain_list(v for v in args.lambdas.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"--lambdas {args.lambdas!r}: {exc}") from None
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    config = _load(args.config)
    points = sweep_lambda(config, lam_values, jobs=args.jobs)
    if args.out:
        emit_csv(points, args.out)
    if not args.quiet:
        for p in points:
            status = f"FAILED ({p.failed})" if p.failed else (
                f"l1_rel={p.final_l1_rel:.6g} sobolev={p.final_sobolev:.6g}"
            )
            print(f"lambda={p.lam:g}: {status}")
        usable = [(p.lam, p.final_sobolev) for p in points if p.failed is None]
        if len(usable) >= 3:
            lam_opt, err_min, interior = sweep_minimum(sorted(usable))
            kind = "interior" if interior else "endpoint"
            print(f"lambda_opt={lam_opt:g} ({kind}) min_sobolev={err_min:.6g}")
    return 0


def _run_observability(args) -> int:
    try:
        a, b = (float(v) for v in args.interval.split(","))
    except ValueError:
        raise ConfigError(f"--interval must be 'a,b', got {args.interval!r}")
    try:
        res = observability_check(args.speed, (a, b), args.horizon)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if not args.quiet:
        print(
            f"observable={'true' if res.observable else 'false'} "
            f"T_min={res.t_min:g} X_inf={res.x_inf:g}"
        )
    if args.out:
        _atomic_write(args.out, ["observable,t_min,x_inf",
                                 f"{int(res.observable)},{res.t_min!r},{res.x_inf!r}"])
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.out:  # refused before any run
            try:
                _report_dir(args.out)
            except ValueError as exc:
                raise ConfigError(f"--out: {exc}") from None
        if args.command == "run-burgers":
            return _run_single(args, "burgers")
        if args.command == "run-sv":
            return _run_single(args, "shallow_water")
        if args.command == "sweep-lambda":
            return _run_sweep(args)
        return _run_observability(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver/runtime failures
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
