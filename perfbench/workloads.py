"""The benchmark's workloads: inputs, the timed calls, and the output checks.

Each workload builds its twin configurations from the shipped fixtures (the
"set-up" that ``setup_s`` times), runs them through the public API only
(``run_twin`` / ``sweep_lambda(jobs=1)``), and checks every twin it ran.
Why each workload exists is written down in README.md next to this file.
"""
from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from kinassim import (
    BoundaryKind,
    GainSchedule,
    Grid1D,
    RunConfig,
    TemporalMode,
    dam_break_state,
    run_twin,
    sweep_lambda,
)
from kinassim.config import fixture_path, parse_config
from kinassim.observation import NoiseSpec

# Relative amplitude of the seeded observer perturbation.  At 1% the truth
# run is untouched, the Burgers xi-grid is unchanged (the observer stays
# below the truth's maximum) and final errors move by under 1% (README.md).
PERTURBATION = 0.01

# Truth mass drift allowed on the reflective-wall Saint-Venant workloads:
# a few hundred ulps of the total, i.e. roundoff only.
MASS_TOL = 1e-13

BURGERS_EPS = (0.05, 0.02, 0.005)
BURGERS_LAMBDAS = (10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0)


@dataclasses.dataclass(frozen=True)
class Reference:
    """``final_l1_rel`` recorded on seed 0 and the relative tolerance the
    check allows (twice the shift a CFL safety change 0.95 -> 0.90 causes,
    at least 5%; see README.md)."""

    final_l1_rel: float
    rel_tol: float

    def problem(self, value: float) -> str | None:
        if abs(value - self.final_l1_rel) <= self.rel_tol * self.final_l1_rel:
            return None
        return (
            f"final_l1_rel {value!r} differs from the reference "
            f"{self.final_l1_rel!r} by more than {self.rel_tol:.0%}"
        )


def perturbation(seed: int, grid: Grid1D) -> np.ndarray | None:
    """Smooth seeded factor 1 + PERTURBATION * s(x) with |s| <= 1.

    Seed 0 returns None: the shipped inputs are used bit for bit.
    """
    if seed == 0:
        return None
    rng = np.random.default_rng(seed)
    x = (grid.centers - grid.x_min) / grid.length
    amp = rng.uniform(-1.0, 1.0, 4)
    phase = rng.uniform(0.0, 2.0 * math.pi, 4)
    shape = sum(a * np.sin(math.pi * (k + 1) * x + p) for k, (a, p) in enumerate(zip(amp, phase)))
    return 1.0 + PERTURBATION * shape / np.sum(np.abs(amp))


def _perturb_sw(config: RunConfig, seed: int) -> RunConfig:
    factor = perturbation(seed, config.grid)
    if factor is not None:
        obs = config.observer_state
        config.observer_state = dataclasses.replace(obs, h=obs.h * factor, q=obs.q * factor)
    return config


def _sw_problems(config: RunConfig, result) -> list[str]:
    """Finite outputs, nonnegative depths, truth mass conserved (walls)."""
    problems = []
    arrays = {
        "l1_rel": result.errors.l1_rel,
        "sobolev": result.errors.sobolev,
        "energy_observer": result.energy_observer,
        "energy_truth": result.energy_truth,
        "observer.h": result.final_observer.h,
        "observer.q": result.final_observer.q,
        "truth.h": result.final_truth.h,
        "truth.q": result.final_truth.q,
    }
    for name, values in arrays.items():
        if not np.all(np.isfinite(values)):
            problems.append(f"{name} is not finite")
    for name in ("observer.h", "truth.h"):
        if np.any(arrays[name] < 0.0):
            problems.append(f"{name} has negative depths")
    if config.grid.bc is BoundaryKind.REFLECTIVE_WALL:
        m0, m1 = config.truth_state.mass(), result.final_truth.mass()
        if not abs(m1 - m0) <= MASS_TOL * m0:
            problems.append(f"truth mass drifted from {m0!r} to {m1!r}")
    return problems


@dataclasses.dataclass
class Twins:
    """What one execution of a workload produced."""

    wall_s: float = 0.0
    attempted: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    failed: int = 0
    final_l1_rel: float = math.nan


class SingleTwin:
    """One ``run_twin`` on a Saint-Venant configuration."""

    def __init__(self, build, reference: Reference):
        self.build = build
        self.reference = reference

    def setup(self, seed: int) -> RunConfig:
        return _perturb_sw(self.build(), seed)

    def run(self, config: RunConfig) -> Twins:
        out = Twins(attempted=1)
        start = time.perf_counter()
        try:
            result = run_twin(config)
        except Exception as exc:  # a twin that raises is a failed twin
            out.wall_s = time.perf_counter() - start
            out.problems.append(f"run_twin raised {type(exc).__name__}: {exc}")
            out.failed = 1
            return out
        out.wall_s = time.perf_counter() - start
        out.final_l1_rel = result.final_l1_rel
        problems = _sw_problems(config, result)
        mismatch = self.reference.problem(out.final_l1_rel)
        if mismatch:
            problems.append(mismatch)
        out.problems += problems
        out.failed = int(bool(problems))
        return out


class BurgersSweep:
    """The criterion-8 sweep: 3 noise levels x 6 gains on the collapse lane."""

    reference = Reference(0.2429079831300389, 0.10)

    def setup(self, seed: int) -> list[RunConfig]:
        configs = []
        for eps in BURGERS_EPS:
            config = parse_config(fixture_path("burgers_noisy_eps002.cfg"))
            config.noise = NoiseSpec(epsilon=eps, r=1.0, alpha=0.25)
            factor = perturbation(seed, config.grid)
            if factor is not None:
                config.observer_u0 = config.observer_u0 * factor
            configs.append(config)
        return configs

    def run(self, configs: list[RunConfig]) -> Twins:
        out = Twins()
        points = []
        for config in configs:
            start = time.perf_counter()
            points += sweep_lambda(config, BURGERS_LAMBDAS, jobs=1)
            out.wall_s += time.perf_counter() - start
        out.attempted = len(points)
        errors = []
        for p in points:
            if p.failed is not None:
                out.problems.append(f"lambda={p.lam:g} raised {p.failed}")
                out.failed += 1
            elif not (math.isfinite(p.final_l1_rel) and math.isfinite(p.final_sobolev)):
                out.problems.append(f"lambda={p.lam:g} returned non-finite errors")
                out.failed += 1
            else:
                errors.append(p.final_l1_rel)
        if errors:
            out.final_l1_rel = float(np.median(errors))
            mismatch = self.reference.problem(out.final_l1_rel)
            if mismatch:
                out.problems.append(mismatch)
                out.failed = out.attempted
        return out


def _thacker() -> RunConfig:
    return parse_config(fixture_path("thacker.cfg"))


def _dambreak_fine() -> RunConfig:
    # the README library example, refined to 4000 cells and cut at t = 0.05
    grid = Grid1D(4000, 0.0, 1.0, BoundaryKind.REFLECTIVE_WALL)
    return RunConfig(
        model="shallow_water",
        grid=grid,
        t_final=0.05,
        gain=GainSchedule(20.0, temporal_mode=TemporalMode.EVERY_STEP),
        truth_state=dam_break_state(grid, 2.0, 1.0, 0.5),
        observer_state=dam_break_state(grid, 1.5, 1.5, 0.5),
    )


WORKLOADS = {
    "thacker_twin": SingleTwin(_thacker, Reference(0.0019221747780061465, 0.50)),
    "burgers_sweep": BurgersSweep(),
    "dambreak_fine": SingleTwin(_dambreak_fine, Reference(0.08751299229243324, 0.05)),
}
