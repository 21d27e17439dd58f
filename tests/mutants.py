"""The mutation table: deliberate faults that the tests must catch.

Each mutant replaces one exact text in one file of ``src/kinassim`` and
names the invariant it breaks and the checks expected to kill it: pytest
node ids, or ``record:TEXT`` for the cases of the output record
(``tests/record.py --check``) whose name contains TEXT.

    python tests/mutants.py          # every mutant of the table
    python tests/mutants.py ID ...   # the named mutants

The runner first checks that every expected killer passes on the checkout
as it is.  For each mutant it then copies the checkout's ``src/``,
``tests/``, ``perfbench/`` and ``pyproject.toml`` to a temporary directory,
applies the replacement there, and runs the expected killers, the pytest
ones with ``-x``.  If they all pass, it runs the rest of tier-1 and the
whole output record before it calls the mutant a survivor.  It exits 1 when
a killer fails without a mutant, when a mutant survives, and when a
mutant's text is not found exactly once in its file, so a refactor that
moves the text has to bring the table along.  Run it from the root of a
checkout.

This file is not collected by pytest (its name does not start with
``test_``).
"""
from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    id: str
    invariant: str
    file: str  # relative to src/kinassim
    old: str
    new: str
    killers: tuple[str, ...]


MUTANTS = (
    Mutant(
        "hydrostatic_correction_zeroed",
        "the hydrostatic correction g/2 (H_cell^2 - H_rec^2) keeps a lake at rest",
        "shallow_water.py",
        "partial(np.multiply, half_g, f_q_sides, f_q_sides)",
        "partial(np.multiply, 0.0, f_q_sides, f_q_sides)",
        ("tests/test_acceptance.py::test_criterion_2_lake_at_rest",),
    ),
    Mutant(
        "relaxation_at_half_the_gain",
        "the Burgers nudge relaxes exactly at the gain lam",
        "burgers.py",
        "return u - np.expm1(-lam * dt) * gap",
        "return u - np.expm1(-0.5 * lam * dt) * gap",
        ("tests/test_burgers.py::TestKineticStep::test_uniform_relaxation_exact",),
    ),
    Mutant(
        "truth_released_one_step_early",
        "the loop releases only the truth fields behind the observers",
        "assimilation.py",
        "truth.release(n)\n",
        "truth.release(n + 1)\n",
        ("tests/test_assimilation.py::TestTruthLeads",),
    ),
    Mutant(
        "observations_from_the_newer_state",
        "an observation is sampled from the recorded state nearest its time",
        "assimilation.py",
        "newer = nearest_recorded(np.array([self.t, t]), times[k])",
        "newer = True",
        ("tests/test_assimilation.py::TestTruthLeads",),
    ),
    Mutant(
        "truth_paired_with_every_substep",
        "the truth steps beside the first observer substep of each truth step only",
        "assimilation.py",
        "if j == 0 and lane is truth.lane and not truth.done:",
        "if lane is truth.lane and not truth.done:",
        ("tests/test_assimilation.py::TestTruthWindow",),
    ),
    Mutant(
        "innovation_weights_unnormalised",
        "the nudge relaxes toward the weighted mean of the innovation terms",
        "assimilation.py",
        "return np.divide(gap, weight, gap), weight",
        "return gap, weight",
        ("tests/test_assimilation.py::TestShallowWaterTwin::test_mollified_smoke",),
    ),
    Mutant(
        "settle_floor_a_silent_clamp",
        "a negative depth past roundoff is reported, not clamped",
        "shallow_water.py",
        "floor *= -1e-13",
        "floor *= -1e300",
        ("tests/test_invariants.py::TestStepBatches"
         "::test_saint_venant_failing_row_reports_its_own_minimum",),
    ),
    Mutant(
        "cfl_safety_read_low",
        "a twin steps at the configured cfl_safety",
        "assimilation.py",
        "safety, grid = config.cfl_safety, config.grid",
        "safety, grid = config.cfl_safety - 0.001, config.grid",
        ("tests/test_assimilation.py::TestObservedDepthCFL"
         "::test_deeper_observation_tightens_the_bound", "record:burgers_clean/"),
    ),
    Mutant(
        "rectangle_energy_on_the_semicircle",
        "the energy flux combines P_1, P_2 and P_3 by the profile's chi^2",
        "kinetic.py",
        "    if profile is ChiProfile.RECTANGLE:\n        return 0.5 * (p3 + c2 * p1)",
        "    if True:\n        return 0.5 * (p3 + c2 * p1)",
        ("tests/test_kinetic.py::TestHalflineEnergyFlux",),
    ),
    Mutant(
        "semicircle_energy_p1_low",
        "the semicircle's energy flux carries its whole P_1 term",
        "kinetic.py",
        "(2.0 * c2 / 3.0 - u * u / 6.0) * p1",
        "(2.0 * c2 / 3.0 - u * u / 6.0) * p1 * 0.999",
        ("tests/test_kinetic.py::TestHalflineEnergyFlux",),
    ),
    Mutant(
        "burgers_target_at_the_step_start",
        "a Burgers lane relaxes toward the truth at the end of the step",
        "assimilation.py",
        "    target_level = 1\n",
        "    target_level = 0\n",
        ("tests/test_invariants.py::TestNoisyObservationBound",),
    ),
    Mutant(
        "flat_bed_momentum_moment_high",
        "the flat-bed form's full momentum moment is h (u^2 + c^2)",
        "shallow_water.py",
        "partial(np.multiply, h, full_q, full_q),",
        "partial(np.multiply, h, full_q, full_q), partial(np.multiply, 1.01, full_q, full_q),",
        ("tests/test_shallow_water.py::TestStokerDamBreak",),
    ),
    Mutant(
        "gains_reversed_across_rows",
        "each row of a stacked sweep relaxes at its own gain",
        "assimilation.py",
        "return lams.reshape((-1,) + (1,) * (state.ndim - 1))",
        "return lams[::-1].reshape((-1,) + (1,) * (state.ndim - 1))",
        ("tests/test_invariants.py::TestSweepBatches::test_rows_equal_single_twins",),
    ),
    Mutant(
        "wall_passes_mass",
        "a wall's ghost cell mirrors the velocity, so no mass crosses it",
        "shallow_water.py",
        "calls = _ghost_calls(ghosted, bed.bc, np.array([[1.0], [-1.0]]))",
        "calls = _ghost_calls(ghosted, bed.bc, np.array([[1.0], [1.0]]))",
        ("tests/test_acceptance.py::test_criterion_3_positivity_and_mass",),
    ),
    Mutant(
        "flat_form_on_a_sloped_bed",
        "only a bed whose every entry is equal takes the flat-bed form",
        "shallow_water.py",
        "self.flat = bool((z_b == z_b[0]).all())",
        "self.flat = True",
        ("tests/test_acceptance.py::test_criterion_2_lake_at_rest",),
    ),
    Mutant(
        "state_arrays_writeable",
        "an SWState's arrays are read-only",
        "shallow_water.py",
        "object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=float)))",
        "object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))",
        ("tests/test_shallow_water.py::TestStatesAndWorkBuffers"
         "::test_fields_and_arrays_cannot_be_changed",),
    ),
    Mutant(
        "window_fires_on_a_time_at_its_end",
        "a window fires on the observation times in [t_lo, t_hi), its end excluded",
        "assimilation.py",
        "if bisect_left(times, t_lo) == bisect_left(times, t_hi):",
        "if bisect_left(times, t_lo) == bisect_left(times, math.nextafter(t_hi, math.inf)):",
        ("tests/test_assimilation.py::TestObservationFiring",),
    ),
    Mutant(
        "last_window_closed",
        "the run's last window has no end, so times past the truth's last step fire",
        "assimilation.py",
        "end = math.inf if last else times[n + 1]",
        "end = times[n + 1]",
        ("tests/test_assimilation.py::TestObservationFiring",),
    ),
)


def run(args: list[str], cwd: Path) -> bool:
    """Whether ``args`` exits 0 in ``cwd``; its output is dropped."""
    done = subprocess.run(args, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def pytest(*args: str) -> list[str]:
    return [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]


def record(only: str | None = None) -> list[str]:
    args = [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
            "tests/record.py", "--check"]
    return args + (["--only", only] if only else [])


def killer_command(killer: str) -> list[str]:
    if killer.startswith("record:"):
        return record(killer.removeprefix("record:"))
    return pytest(killer)


def copy_of_checkout(tmp: str) -> Path:
    """The parts of the checkout a check reads, copied into ``tmp``."""
    tree = Path(tmp)
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, tree / name)
    return tree


def verdict(mutant: Mutant, tree: Path) -> str:
    """``killed``, ``killed by the rest`` or ``survived``: the mutant applied
    in the copy ``tree``, its expected killers first."""
    path = tree / "src" / "kinassim" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise LookupError(f"its text is found {text.count(mutant.old)} times in "
                          f"{mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))
    for killer in mutant.killers:
        if not run(killer_command(killer), tree):
            return "killed"
    if not (run(pytest(), tree) and run(record(), tree)):
        return "killed by the rest"
    return "survived"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="run only these mutants")
    ids = parser.parse_args(argv).ids
    unknown = set(ids) - {m.id for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    mutants = [m for m in MUTANTS if not ids or m.id in ids]
    # a killer that fails without a mutant (a renamed test, a stale record)
    # would kill every mutant it is given: each must pass on the checkout
    killers = list(dict.fromkeys(k for m in mutants for k in m.killers))
    with tempfile.TemporaryDirectory() as tmp:
        tree = copy_of_checkout(tmp)
        failing = [k for k in killers if not run(killer_command(k), tree)]
    if failing:
        print(f"killers that fail without a mutant: {', '.join(failing)}")
        return 1
    failed = 0
    for mutant in mutants:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            try:
                outcome = verdict(mutant, copy_of_checkout(tmp))
            except LookupError as exc:
                outcome = str(exc)
        failed += outcome not in ("killed", "killed by the rest")
        print(f"{mutant.id}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{failed} of {len(mutants)} mutants survived or were not found" if failed
          else f"all {len(mutants)} mutants were killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
