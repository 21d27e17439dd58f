"""The output record: what a fixed set of twin runs and sweeps produce.

Each case is a shipped fixture with key edits, run through ``run_twin`` (its
loaded configuration edited further by a function where the keys cannot say
it) or ``sweep_lambda``, or a fixture's states stepped through the public
Saint-Venant calls (``sv_forward_step``, ``sv_observer_step``,
``sv_interface_flux``, ``sv_cfl`` and ``energy_budget``), or a fixture's
truth field stepped through one public Burgers step.  The record keeps, for
every array a case yields (error
series, time steps, final states, energies, sweep points), its SHA-256 and a
float summary (shape, NaN count, and over the other entries sum, sum of |x|,
min and max; the last value), and for a case that raises, its exception
type and text.

    python tests/record.py --check   # compare with tests/record.json
    python tests/record.py --write   # re-record (an output change)

``--check`` compares the hashes bit for bit when the host fingerprint (CPU
model, Python and numpy versions) matches the record's, and otherwise the
summaries within 1e-12 relative; it prints which mode it used and exits 1
on any difference.  Run it from the root of a checkout; it imports kinassim
from ``src``.

This file is not collected by pytest (its name does not start with
``test_``): a full run takes under a minute on a 2-core host.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from kinassim import run_twin, sweep_lambda  # noqa: E402
from kinassim.burgers import (  # noqa: E402
    KineticField,
    burgers_cfl,
    step_collapse_macroscopic,
    step_kinetic_burgers,
    step_kinetic_linear,
    step_macroscopic_burgers,
)
from kinassim.config import fixture_path, parse_config  # noqa: E402
from kinassim.grid import XiGrid  # noqa: E402
from kinassim.shallow_water import (  # noqa: E402
    energy_budget,
    hydrostatic_reconstruct,
    sv_cfl,
    sv_forward_step,
    sv_interface_flux,
    sv_observer_step,
)

RECORD = Path(__file__).resolve().parent / "record.json"
REL_TOL = 1e-12

FIXTURES = ("burgers_clean", "burgers_noisy_eps0002", "burgers_noisy_eps002", "dam_break",
            "lake_at_rest", "thacker", "thacker_noisy")
BURGERS = FIXTURES[:3]
TEMPORAL = ("every_step", "interpolated", "at_observation_times")
OBSERVER_MODES = ("bgk", "collapse", "macroscopic")


def edited(fixture: str, edits: dict) -> str:
    """The text of ``fixture``.cfg with ``edits``: (section, key) -> value,
    None deleting the key."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    parser.read(fixture_path(f"{fixture}.cfg"))
    for (section, key), value in edits.items():
        if value is None:
            parser.remove_option(section, key)
            continue
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, str(value))
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def load(fixture: str, edits: dict):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{fixture}.cfg")
        with open(path, "w") as fh:
            fh.write(edited(fixture, edits))
        return parse_config(path)


def observer_mode(mode: str) -> dict:
    # the Engquist-Osher lane has no xi grid, so its config sets no n_xi
    edits = {("observer", "mode"): mode}
    if mode == "macroscopic":
        edits[("observer", "n_xi")] = None
    return edits


def dividing(config):
    """The Engquist-Osher observer of ``config`` with an unobserved pulse of
    height 3 ahead of the observed window [0, 0.5]: its bound is about a
    third of the truth's, so it divides every truth step."""
    x = config.grid.centers
    config.observer_u0 = config.observer_u0 + np.where((x >= 0.55) & (x <= 0.7), 3.0, 0.0)
    config.obs_mask = (0.0, 0.5)
    return config


def fixed_speed(config):
    """``config`` on the single-speed linear lane at speed 0.5."""
    config.fixed_xi = 0.5
    return config


def bumped_observer_bed(config):
    """The observer of ``config`` on its truth's grid over a bed with a bump
    of height 0.05 at x = 0.25: the two share no bed, so they step apart."""
    state = config.observer_state
    x = state.grid.centers
    config.observer_state = replace(
        state, z_b=state.z_b + 0.05 * np.exp(-(((x - 0.25) / 0.05) ** 2)))
    return config


PUBLIC_STEPS = 20
PUBLIC_LAMBDA = 10.0
LINEAR_SPEED = 0.5
BURGERS_STEPS = ("kinetic_burgers", "kinetic_linear", "macroscopic_burgers", "collapse",
                 "collapse_nudged")


def cases() -> dict:
    """name -> (kind, fixture, edits, extra): kind "twin" (extra None, or a
    function that edits the loaded configuration), "sweep" (extra the gains)
    or "public" (extra names the public call, see ``public_arrays`` and
    ``burgers_arrays``)."""
    out = {}
    for fixture in FIXTURES:
        modes = OBSERVER_MODES if fixture in BURGERS else (None,)
        for mode in modes:
            for temporal in TEMPORAL:
                edits = {("gain", "temporal"): temporal}
                name = f"{fixture}/{temporal}"
                if mode is not None:
                    edits.update(observer_mode(mode))
                    name += f"/{mode}"
                out[name] = ("twin", fixture, edits, None)
    out["thacker/mollified_lambda1_t3"] = ("twin", "thacker", {
        ("gain", "temporal"): "mollified", ("gain", "sigma"): 0.1, ("gain", "lambda"): 1.0,
        ("model", "t_final"): 3.0}, None)
    # a strong mollified gain: its depths stay nonnegative because every
    # innovation is measured against the observer's current depth
    out["thacker/mollified_lambda10_t3"] = ("twin", "thacker", {
        ("gain", "temporal"): "mollified", ("gain", "sigma"): 0.1, ("gain", "lambda"): 10.0,
        ("model", "t_final"): 3.0}, None)
    mollified = {("gain", "temporal"): "mollified", ("gain", "sigma"): 0.04}
    out["burgers_clean/mollified"] = ("twin", "burgers_clean", mollified, None)
    for lam in (1.0, 10.0):
        out[f"thacker_noisy/mollified_lambda{lam:g}_t3"] = ("twin", "thacker_noisy", {
            ("gain", "temporal"): "mollified", ("gain", "sigma"): 0.1, ("gain", "lambda"): lam,
            ("model", "t_final"): 3.0}, None)
    for fixture in ("burgers_noisy_eps0002", "burgers_noisy_eps002"):
        out[f"{fixture}/mollified"] = ("twin", fixture, mollified, None)
    for mode in ("collapse", "macroscopic"):
        out[f"burgers_clean/mollified/{mode}"] = ("twin", "burgers_clean", {
            **mollified, **observer_mode(mode)}, None)
    for temporal in TEMPORAL:
        out[f"burgers_clean/dividing_engquist_osher/{temporal}"] = ("twin", "burgers_clean", {
            **observer_mode("macroscopic"), ("gain", "temporal"): temporal,
            ("model", "t_final"): 0.3}, dividing)
    out["dam_break/refined_truth_lambda20"] = ("twin", "dam_break", {
        ("gain", "lambda"): 20.0, ("truth", "resolution_factor"): 2}, None)
    out["burgers_clean/engquist_osher_pulse2"] = ("twin", "burgers_clean", {
        **observer_mode("macroscopic"), ("observer", "value"): 2.0}, None)
    out["thacker/every_step_t3"] = ("twin", "thacker", {
        ("gain", "temporal"): "every_step", ("model", "t_final"): 3.0}, None)
    for temporal in ("interpolated", "at_observation_times"):
        # observation times 0.001 apart, closer than a truth step (about 0.004)
        out[f"thacker/dense_observations/{temporal}"] = ("twin", "thacker", {
            ("gain", "temporal"): temporal, ("observations", "every"): 0.001,
            ("model", "t_final"): 0.3}, None)
    # the rectangle profile, a periodic domain, a refined truth on a bowl and
    # a truth-read target NaN outside its window through the stacked step
    out["thacker/rectangle_t1"] = ("twin", "thacker", {
        ("model", "profile"): "rectangle", ("model", "t_final"): 1.0}, None)
    out["thacker/refined_truth_t1"] = ("twin", "thacker", {
        ("truth", "resolution_factor"): 2, ("model", "t_final"): 1.0}, None)
    rectangle_dam_break = {("model", "profile"): "rectangle", ("gain", "lambda"): 20.0,
                           ("observer", "h_left"): 1.5, ("observer", "h_right"): 1.5}
    out["dam_break/rectangle_lambda20"] = ("twin", "dam_break", rectangle_dam_break, None)
    out["dam_break/rectangle_lambda20_periodic_t0.2"] = ("twin", "dam_break", {
        **rectangle_dam_break, ("grid", "bc"): "periodic", ("model", "t_final"): 0.2}, None)
    out["dam_break/rectangle_lambda20_window"] = ("twin", "dam_break", {
        **rectangle_dam_break, ("observations", "mask_lo"): 0.3,
        ("observations", "mask_hi"): 0.6}, None)
    # the fixed-speed linear lane, and a Saint-Venant observer on a bed of its
    # own over the truth's grid
    for temporal in ("every_step", "at_observation_times"):
        out[f"burgers_clean/fixed_speed/{temporal}"] = ("twin", "burgers_clean", {
            ("gain", "temporal"): temporal}, fixed_speed)
    out["dam_break/bumped_observer_bed_lambda20_t0.2"] = ("twin", "dam_break", {
        ("gain", "lambda"): 20.0, ("model", "t_final"): 0.2}, bumped_observer_bed)
    for fixture in ("thacker", "dam_break"):
        for call in ("forward", "observer", "observer_window"):
            out[f"{fixture}/public_{call}"] = ("public", fixture, {}, call)
    out["thacker/public_interface_flux"] = ("public", "thacker", {}, "interface_flux")
    for call in BURGERS_STEPS:
        out[f"burgers_clean/public_{call}"] = ("public", "burgers_clean", {}, call)
    for fixture in ("thacker", "dam_break"):
        for profile in ("semicircle", "rectangle"):
            out[f"{fixture}/public_energy_budget/{profile}"] = (
                "public", fixture, {("model", "profile"): profile}, "energy_budget")
    for fixture in ("thacker", "thacker_noisy"):  # criterion 9
        out[f"{fixture}/sweep"] = ("sweep", fixture, {}, [1.0, 3.0, 10.0, 30.0, 100.0])
    for mode in ("bgk", "macroscopic"):  # one stacked group, one group per gain
        out[f"burgers_clean/sweep_t0.3/{mode}"] = ("sweep", "burgers_clean", {
            **observer_mode(mode), ("model", "t_final"): 0.3}, [0.0, 10.0, 100.0])
    for eps in (0.05, 0.02, 0.005):  # criterion 8
        out[f"burgers_noisy_eps002/sweep_eps{eps:g}"] = (
            "sweep", "burgers_noisy_eps002", {("noise", "epsilon"): eps},
            [10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0])
    return out


def state_arrays(prefix: str, state) -> dict:
    if isinstance(state, np.ndarray):
        return {prefix: state}
    if hasattr(state, "q"):  # a Saint-Venant state
        return {f"{prefix}.h": state.h, f"{prefix}.q": state.q}
    return {f"{prefix}.values": state.values}  # a kinetic field


def public_arrays(config, call: str) -> dict:
    """``PUBLIC_STEPS`` public calls on the fixture's states.

    "forward" steps the truth at its ``sv_cfl`` bound; "observer" and
    "observer_window" step the observer at gain ``PUBLIC_LAMBDA`` toward the
    mirrored depth of that forward truth, observed everywhere or on the
    middle third of the cells only (NaN elsewhere), at the smaller bound of
    the two states.  Each records the depths, discharges and steps, and
    ``sv_cfl`` at lambda 0 and ``PUBLIC_LAMBDA`` on every state it passes.
    "interface_flux" is the reconstructed flux of the forward truth after
    the steps.  "energy_budget" steps as "observer" and records the
    observer's ``energy_budget`` against the observed depth before every
    step."""
    truth, observer = config.truth_state, config.observer_state
    n = truth.grid.n_cells
    window = np.full(n, np.nan)
    window[n // 3:2 * n // 3] = 1.0
    stepped = truth if call in ("forward", "interface_flux") else observer
    h, q, dts, cfl, budgets = [stepped.h], [stepped.q], [], [], []
    for _ in range(PUBLIC_STEPS):
        cfl.append([sv_cfl(s, lam) for s in (truth, observer) for lam in (0.0, PUBLIC_LAMBDA)])
        if stepped is truth:
            dt = sv_cfl(truth, 0.0)
            truth = stepped = sv_forward_step(truth, dt)
        else:
            dt = min(sv_cfl(truth, PUBLIC_LAMBDA), sv_cfl(observer, PUBLIC_LAMBDA))
            obs = truth.h[::-1] * (window if call == "observer_window" else 1.0)
            budgets.append(energy_budget(observer, obs_h=obs))
            observer = stepped = sv_observer_step(observer, obs, PUBLIC_LAMBDA, dt)
            truth = sv_forward_step(truth, dt)
        h.append(stepped.h)
        q.append(stepped.q)
        dts.append(dt)
    if call == "interface_flux":
        rec = hydrostatic_reconstruct(truth)
        u = truth.velocity
        u = np.concatenate([-u[:1], u, -u[-1:]])  # the wall ghosts mirror u
        f_h, f_q_left, f_q_right = sv_interface_flux(rec.h_sides, rec.h_cells,
                                                     np.stack([u[:-1], u[1:]]),
                                                     truth.profile, truth.g)
        return {"f_h": f_h, "f_q_left": f_q_left, "f_q_right": f_q_right}
    if call == "energy_budget":
        return {name: np.array([getattr(b, name) for b in budgets])
                for name in ("zeta_hat", "zeta_tilde", "flux")}
    return {"h": np.array(h), "q": np.array(q), "dt": np.array(dts), "sv_cfl": np.array(cfl)}


def burgers_arrays(config, call: str) -> dict:
    """``PUBLIC_STEPS`` transport steps of one public Burgers step from the
    truth field, each at the bound of the twin's lane for that step.

    "kinetic_burgers" starts from the cell-averaged indicator of the truth
    on the xi grid the twin spans, and "collapse" and "collapse_nudged" step
    on that grid, the latter at gain ``PUBLIC_LAMBDA`` toward the observer's
    initial field; "kinetic_linear" transports at ``LINEAR_SPEED``, and
    "macroscopic_burgers" is the Engquist-Osher step.  Each records the
    field after every step (the xi-integral of the kinetic density, whose
    final values are recorded too) and the steps."""
    grid, safety, u, obs = config.grid, config.cfl_safety, config.truth_u0, config.observer_u0
    xi = XiGrid.spanning(min(float(np.min(u)), float(np.min(obs))),
                         max(float(np.max(u)), float(np.max(obs))), config.xi_margin, config.n_xi)
    state = KineticField.from_macroscopic(u, xi, grid) if call == "kinetic_burgers" else u
    fields, dts = [u], []
    for _ in range(PUBLIC_STEPS):
        if call == "macroscopic_burgers":
            dt = burgers_cfl(grid.dx, max(float(np.max(np.abs(state))), 1e-12), safety)
            state = step_macroscopic_burgers(state, dt, grid)
        elif call == "kinetic_linear":
            dt = burgers_cfl(grid.dx, LINEAR_SPEED, safety)
            state = step_kinetic_linear(state, LINEAR_SPEED, dt, grid)
        else:
            dt = burgers_cfl(grid.dx, xi.speed_sup, safety)
            if call == "kinetic_burgers":
                state = step_kinetic_burgers(state, dt)
            elif call == "collapse":
                state = step_collapse_macroscopic(state, None, 0.0, dt, grid, xi)
            else:
                state = step_collapse_macroscopic(state, obs, PUBLIC_LAMBDA, dt, grid, xi)
        fields.append(state.macroscopic() if call == "kinetic_burgers" else state)
        dts.append(dt)
    out = {"u": np.array(fields), "dt": np.array(dts)}
    if call == "kinetic_burgers":
        out["values"] = state.values
    return out


def arrays_of(kind: str, fixture: str, edits: dict, extra) -> dict:
    config = load(fixture, edits)
    if kind == "public":
        return (burgers_arrays if config.model == "burgers" else public_arrays)(config, extra)
    if kind == "sweep":
        points = sweep_lambda(config, extra)
        failed = [p.failed for p in points if p.failed is not None]
        if failed:
            raise RuntimeError(f"sweep points failed: {failed}")
        return {"final_l1_rel": np.array([p.final_l1_rel for p in points]),
                "final_sobolev": np.array([p.final_sobolev for p in points])}
    result = run_twin(config if extra is None else extra(config))
    errors = result.errors
    out = {f"errors.{name}": getattr(errors, name)
           for name in ("times", "l1_rel", "l1_abs", "l2_abs", "sobolev")}
    out["dt_history"], out["recorded_dt"] = result.dt_history, result.recorded_dt
    out.update(state_arrays("final_truth", result.final_truth))
    out.update(state_arrays("final_observer", result.final_observer))
    for name in ("energy_observer", "energy_truth"):
        if getattr(result, name) is not None:
            out[name] = getattr(result, name)
    return out


def summary(a: np.ndarray) -> dict:
    """The array's shape, SHA-256 and float summary; NaN entries (such as
    ``recorded_dt`` at t = 0) are counted, and the sums and extremes are
    taken over the others."""
    a = np.ascontiguousarray(a, dtype=float)
    flat = a.ravel()
    values = flat[~np.isnan(flat)]
    return {
        "shape": list(a.shape),
        "sha256": hashlib.sha256(a.tobytes()).hexdigest(),
        "nan": int(flat.size - values.size),
        "sum": float(np.sum(values)),
        "abs_sum": float(np.sum(np.abs(values))),
        "min": float(np.min(values)) if values.size else None,
        "max": float(np.max(values)) if values.size else None,
        "last": float(flat[-1]) if flat.size else None,
    }


def run_case(spec) -> dict:
    try:
        arrays = arrays_of(*spec)
    except Exception as exc:  # a refusal is an output too
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"arrays": {name: summary(a) for name, a in arrays.items()}}


def fingerprint() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"cpu_model": cpu or platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def close(a, b, scale) -> bool:
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * scale


def differences(name: str, want: dict, got: dict, exact: bool) -> list[str]:
    """What differs between the recorded and the new output of one case."""
    if "error" in want or "error" in got:
        if want.get("error") != got.get("error"):
            return [f"{name}: error {want.get('error')!r} -> {got.get('error')!r}"]
        return []
    out = []
    if set(want["arrays"]) != set(got["arrays"]):
        return [f"{name}: arrays {sorted(want['arrays'])} -> {sorted(got['arrays'])}"]
    for key, w in want["arrays"].items():
        g = got["arrays"][key]
        if exact:
            if w["sha256"] != g["sha256"] or w["shape"] != g["shape"]:
                out.append(f"{name} {key}: sha256 differs")
            continue
        if (w["shape"], w["nan"]) != (g["shape"], g["nan"]):
            out.append(f"{name} {key}: shape {w['shape']} -> {g['shape']}, "
                       f"NaN entries {w['nan']} -> {g['nan']}")
            continue
        abs_sum = w["abs_sum"]
        scale = max(abs_sum, g["abs_sum"])
        for field in ("sum", "abs_sum", "min", "max", "last"):
            x, y = w[field], g[field]
            if not close(x, y, scale if field in ("sum", "abs_sum") else
                         max(abs(x or 0.0), abs(y or 0.0))):
                out.append(f"{name} {key}: {field} {x!r} -> {y!r}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true", help="compare with the record")
    action.add_argument("--write", action="store_true", help="re-record")
    parser.add_argument("--only", help="run only the cases whose name contains this text")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    specs = {name: spec for name, spec in cases().items()
             if args.only is None or args.only in name}
    outputs = {name: run_case(spec) for name, spec in specs.items()}
    elapsed = time.perf_counter() - start
    count = sum(len(o.get("arrays", ())) for o in outputs.values())
    if args.write:
        if args.only is not None:
            parser.error("--write records every case; drop --only")
        lines = [f" {json.dumps(name)}: {json.dumps(output)}" for name, output in outputs.items()]
        RECORD.write_text(f'{{"host": {json.dumps(fingerprint())}, "cases": {{\n'
                          + ",\n".join(lines) + "\n}}\n")
        print(f"recorded {len(outputs)} cases, {count} arrays, in {elapsed:.1f} s")
        return 0
    record = json.loads(RECORD.read_text())
    exact = record["host"] == fingerprint()
    print("mode: " + ("bit for bit (same host fingerprint)" if exact else
                      f"summaries within {REL_TOL:g} relative (host {fingerprint()} "
                      f"against {record['host']})"))
    problems = [f"{name}: not in the record" for name in outputs if name not in record["cases"]]
    if args.only is None:
        problems += [f"{name}: not run" for name in record["cases"] if name not in outputs]
    for name, got in outputs.items():
        if name in record["cases"]:
            problems += differences(name, record["cases"][name], got, exact)
    for line in problems:
        print(line)
    print(f"checked {len(outputs)} cases, {count} arrays, in {elapsed:.1f} s: "
          + ("unchanged" if not problems else f"{len(problems)} differences"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
