"""Sectioned key-value run configuration and CSV report emission.

The config format is a flat INI document.  One table, ``_KEYS``, declares
every ``[section] key``: the model kinds it acts on, how its text is read and
the dataclass field it feeds.  The table gives the whitelist, the refusal of
a key that does nothing for the file's model kind, and the ``[section] key``
an error names.  The dataclasses (``RunConfig``, ``GainSchedule``,
``NoiseSpec``, ``Grid1D``, ``SWState``) make every range check, and a key
left out takes its field's default.  Every physical quantity carries SI units
(meters, seconds).  Reports embed the fully resolved configuration as
``# key = value`` comment lines so a run is reproducible from its report
alone.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
import os
import re
import tempfile
from importlib import resources

import numpy as np

from .assimilation import (
    BurgersObserverMode,
    GainSchedule,
    RunConfig,
    RunResult,
    TemporalMode,
)
from .grid import BoundaryKind, Grid1D
from .kinetic import ChiProfile
from .observation import NoiseSpec
from .shallow_water import (
    SWState,
    dam_break_state,
    lake_at_rest_state,
    parabolic_bowl_bathymetry,
    thacker_setup,
)


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _choice(enum):
    """Reader of the value of one member of ``enum``."""
    members = {m.value: m for m in enum}

    def read(text: str):
        if text not in members:
            raise ValueError(f"unknown value {text!r} (expected one of {sorted(members)})")
        return members[text]

    return read


_BURGERS, _SW = ("burgers",), ("shallow_water",)
_BOTH = _BURGERS + _SW


def _initial_keys(state: str) -> dict:
    """The initial-condition keys of [truth] or [observer]; ``ic`` names the
    errors of the field ``state``."""
    return {
        "ic": (_BOTH, str, state),
        **{key: (_BURGERS, _real, None, ("ic", "square_pulse"))
           for key in ("lo", "hi", "value")},
        **{key: (_BURGERS, _real, None, ("ic", "sine")) for key in ("amplitude", "mean")},
        "eta": (_SW, _real, None, ("ic", "lake_at_rest")),
        **{key: (_SW, _real, None, ("ic", "dam_break"))
           for key in ("h_left", "h_right", "x_split")},
    }


# [section] key -> (the model kinds it acts on, the reader of its text, the
# dataclass field it feeds[, (the key of its section whose value decides
# whether it is read, then the values that read it)]).  parse_config builds
# the fields in _BUILT from their keys itself, and those keys name the
# field's errors; it reads the keys of field None alone.
_KEYS = {
    "model": {
        "kind": (_BOTH, str, "model"),
        "g": (_SW, _real, "g"),
        "profile": (_SW, _choice(ChiProfile), "profile"),
        "cfl_safety": (_BOTH, _real, "cfl_safety"),
        "t_final": (_BOTH, _real, "t_final"),
    },
    "grid": {
        "n_cells": (_BOTH, int, "n_cells"),
        "x_min": (_BOTH, _real, "x_min"),
        "x_max": (_BOTH, _real, "x_max"),
        "bc": (_BOTH, _choice(BoundaryKind), "bc"),
        "bathymetry": (_SW, str, None),
        "bowl_a": (_SW, _real, None, ("bathymetry", "parabolic_bowl")),
        "bowl_hm": (_SW, _real, None, ("bathymetry", "parabolic_bowl")),
    },
    "truth": {
        **_initial_keys("truth_state"),
        "resolution_factor": (_SW, int, "resolution_factor"),
    },
    "observer": {
        **_initial_keys("observer_state"),
        "mode": (_BURGERS, _choice(BurgersObserverMode), "observer_mode"),
        # the Engquist-Osher lane (mode = macroscopic) has no xi grid
        "n_xi": (_BURGERS, int, "n_xi", ("mode", "bgk", "collapse")),
        "xi_margin": (_BURGERS, _real, "xi_margin", ("mode", "bgk", "collapse")),
    },
    "gain": {
        "lambda": (_BOTH, _real, "lam"),
        "temporal": (_BOTH, _choice(TemporalMode), "temporal_mode"),
        "sigma": (_BOTH, _real, "sigma", ("temporal", "mollified")),
    },
    "observations": {
        "count": (_BOTH, int, "obs_times"),
        "t_first": (_BOTH, _real, "obs_times"),
        "t_last": (_BOTH, _real, "obs_times"),
        "every": (_BOTH, _real, "obs_times"),
        "mask_lo": (_BOTH, _real, "obs_mask"),
        "mask_hi": (_BOTH, _real, "obs_mask"),
    },
    "noise": {
        "epsilon": (_BOTH, _real, "epsilon"),
        "r": (_BOTH, _real, "r"),
        "alpha": (_BOTH, _real, "alpha"),
    },
    "output": {
        "record_every": (_BOTH, int, "record_every"),
        "sobolev_order": (_BOTH, _real, "sobolev_order"),
    },
}
_BUILT = {"obs_times", "obs_mask", "truth_state", "observer_state", "resolution_factor"}

# The defaults that differ from the dataclasses', by model kind.
_KIND_DEFAULTS = {
    "burgers": {"bc": BoundaryKind.DIRICHLET_ZERO,
                "temporal_mode": TemporalMode.AT_OBSERVATION_TIMES},
    "shallow_water": {"bc": BoundaryKind.REFLECTIVE_WALL,
                      "temporal_mode": TemporalMode.AT_OBSERVATION_TIMES},
}


def _read(path: str) -> tuple[str, dict[str, dict]]:
    """The model kind and the values of the file, by section and key."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from None
    kind = parser.get("model", "kind", fallback="")
    if not kind:
        raise ConfigError("[model] missing required key 'kind'")
    if kind not in _KIND_DEFAULTS:
        raise ConfigError(f"[model] kind must be burgers or shallow_water, got {kind!r}")
    given = {}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(
                f"unknown section [{section}] (expected one of {sorted(_KEYS)})"
            )
        rows = _KEYS[section]
        given[section] = {}
        for key, text in parser[section].items():
            if key not in rows:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}] (allowed: {sorted(rows)})"
                )
            kinds, read = rows[key][:2]
            if kind not in kinds:
                raise ConfigError(
                    f"[{section}] {key} does nothing for kind = {kind} "
                    f"(only for kind = {kinds[0]})"
                )
            if text == "":  # left to its default
                continue
            try:
                given[section][key] = read(text)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    return kind, given


def _need(given: dict, section: str, key: str):
    try:
        return given[section][key]
    except KeyError:
        raise ConfigError(f"[{section}] missing required key {key!r}") from None


def _named(exc: ValueError, given: dict) -> ConfigError:
    """A dataclass's ``exc`` as the ConfigError that names the ``[section]
    key`` of the first field its message names: the keys of that field given
    in the file, or all of them."""
    message = str(exc)
    for word in re.findall(r"\w+", message):
        rows = [(section, key) for section, keys in _KEYS.items()
                for key, row in keys.items() if row[2] == word]
        if rows:
            section = rows[0][0]
            keys = ", ".join(
                [key for _, key in rows if key in given.get(section, {})]
                or [key for _, key in rows]
            )
            if not message.startswith(f"{keys} "):
                message = f"{keys}: {message}"
            return ConfigError(f"[{section}] {message}")
    return ConfigError(message)


def _fields(cls, values: dict) -> dict:
    """The entries of ``values`` that set a field of the dataclass ``cls``
    as they are: those of a field in _BUILT are left to parse_config."""
    return {f.name: values[f.name] for f in dataclasses.fields(cls)
            if f.name in values and f.name not in _BUILT}


def _refuse_unread(given: dict, section: str, selector: str, choice: str) -> None:
    """Refuse a key of [section] that ``selector = choice`` does not read,
    as the last entry of its _KEYS row records."""
    for key in given.get(section, {}):
        row = _KEYS[section][key]
        if len(row) > 3 and row[3][0] == selector and choice not in row[3][1:]:
            raise ConfigError(f"[{section}] {key} does nothing for {selector} = {choice} "
                              f"(only for {selector} = {', '.join(row[3][1:])})")


def _burgers_ic(given: dict, section: str, grid: Grid1D) -> np.ndarray:
    keys = given.get(section, {})
    kind = keys.get("ic", "zero")
    x = grid.centers
    if kind == "zero":
        u = np.zeros(grid.n_cells)
    elif kind == "square_pulse":
        lo, hi = _need(given, section, "lo"), _need(given, section, "hi")
        u = np.where((x >= lo) & (x <= hi), keys.get("value", 1.0), 0.0)
    elif kind == "sine":
        u = keys.get("mean", 0.0) + keys.get("amplitude", 1.0) * np.sin(
            2.0 * np.pi * (x - grid.x_min) / grid.length
        )
    else:
        raise ConfigError(f"[{section}] unknown Burgers ic {kind!r}")
    _refuse_unread(given, section, "ic", kind)
    return u


def _sw_state(given: dict, section: str, grid: Grid1D, bowl, physics: dict) -> SWState:
    kind = _need(given, section, "ic")
    if kind == "lake_at_rest":
        z_b = (parabolic_bowl_bathymetry(grid, *bowl) if bowl is not None
               else np.zeros(grid.n_cells))
        state = lake_at_rest_state(grid, z_b, _need(given, section, "eta"), **physics)
    elif kind == "dam_break":
        depths = (_need(given, section, key) for key in ("h_left", "h_right", "x_split"))
        state = dam_break_state(grid, *depths, **physics)
    elif kind in ("thacker_planar", "thacker_rest"):
        if bowl is None:
            raise ConfigError(
                f"[{section}] ic {kind!r} needs bathymetry = parabolic_bowl"
            )
        a, h_m = bowl
        try:
            truth, rest = thacker_setup(a, grid.length, h_m, grid.n_cells, **physics)
        except ValueError as exc:
            if "bowl diameter" not in str(exc):
                raise
            raise ConfigError(f"[grid] bowl_a: {exc}") from None
        state = truth if kind == "thacker_planar" else rest
    else:
        raise ConfigError(f"[{section}] unknown shallow-water ic {kind!r}")
    _refuse_unread(given, section, "ic", kind)
    return state


def _bowl(given: dict, grid: Grid1D) -> tuple[float, float]:
    """The (a, h_m) of [grid] bowl_a and bowl_hm.  parabolic_bowl_bathymetry
    makes their range check; it runs once on ``grid`` before any state is
    built, so that its refusal names the key whatever the ic."""
    bowl = _need(given, "grid", "bowl_a"), _need(given, "grid", "bowl_hm")
    try:
        parabolic_bowl_bathymetry(grid, *bowl)
    except ValueError as exc:
        key = "bowl_hm" if "h_m" in str(exc) else "bowl_a"
        raise ConfigError(f"[grid] {key}: {exc}") from None
    return bowl


def _observation_times(observations: dict, t_final: float) -> np.ndarray | None:
    if "every" in observations:
        clash = [key for key in ("count", "t_first", "t_last") if key in observations]
        if clash:
            raise ConfigError(f"[observations] every and {', '.join(clash)} cannot be "
                              "combined: every sets the observation times on its own")
        every = observations["every"]
        if every <= 0.0:
            raise ConfigError("[observations] every must be positive")
        return np.arange(0.0, t_final + every / 2.0, every)
    if "count" in observations:
        count = observations["count"]
        if count < 1:
            raise ConfigError("[observations] count must be >= 1")
        t_last = observations.get("t_last", t_final)
        return np.linspace(observations.get("t_first", t_last / count), t_last, count)
    span = [key for key in ("t_first", "t_last") if key in observations]
    if span:
        raise ConfigError(f"[observations] {', '.join(span)} without count: the "
                          "observation times are count points from t_first to t_last")
    return None


def _build(kind: str, given: dict) -> RunConfig:
    values = {**_KIND_DEFAULTS[kind], **{
        _KEYS[section][key][2]: value for section, keys in given.items()
        for key, value in keys.items()
    }}
    _need(given, "grid", "n_cells")
    _refuse_unread(given, "gain", "temporal", values["temporal_mode"].value)
    if kind == "burgers":
        mode = values.get("observer_mode", RunConfig.observer_mode)
        _refuse_unread(given, "observer", "mode", mode.value)
    grid = Grid1D(**_fields(Grid1D, values))
    observations = given.get("observations", {})
    if ("mask_lo" in observations) != ("mask_hi" in observations):
        raise ConfigError("[observations] mask_lo and mask_hi must be given together")
    run = dict(
        grid=grid,
        gain=GainSchedule(**_fields(GainSchedule, values)),
        obs_times=_observation_times(observations, values.get("t_final", RunConfig.t_final)),
        obs_mask=(observations["mask_lo"], observations["mask_hi"])
        if "mask_lo" in observations else None,
    )
    if "noise" in given:
        _need(given, "noise", "epsilon")
        run["noise"] = NoiseSpec(**_fields(NoiseSpec, values))
    if kind == "burgers":
        run.update(truth_u0=_burgers_ic(given, "truth", grid),
                   observer_u0=_burgers_ic(given, "observer", grid))
    else:
        bathymetry = given.get("grid", {}).get("bathymetry", "flat")
        if bathymetry not in ("flat", "parabolic_bowl"):
            raise ConfigError(f"[grid] unknown bathymetry {bathymetry!r}")
        _refuse_unread(given, "grid", "bathymetry", bathymetry)
        bowl = None if bathymetry == "flat" else _bowl(given, grid)
        factor = given.get("truth", {}).get("resolution_factor",
                                            RunConfig.truth_resolution_factor)
        physics = _fields(SWState, values)
        run.update(
            truth_state=_sw_state(given, "truth", grid.refined(factor), bowl, physics),
            observer_state=_sw_state(given, "observer", grid, bowl, physics),
            truth_resolution_factor=factor,
        )
    return RunConfig(**_fields(RunConfig, values), **run)


def parse_config(path: str) -> RunConfig:
    """Parse and validate a run configuration file."""
    kind, given = _read(path)
    try:
        return _build(kind, given)
    except ConfigError:
        raise
    except ValueError as exc:
        raise _named(exc, given) from None


def fixture_path(name: str) -> str:
    """Filesystem path of a shipped configuration fixture."""
    return str(resources.files("kinassim").joinpath("configs", name))


# --- CSV emission -----------------------------------------------------------

RUN_HEADER = "t,l1_rel,l1_abs,sobolev_s,energy_total,dt"
SWEEP_HEADER = "lambda,final_l1_rel,final_sobolev"


def _fmt(value) -> str:
    if value is None:
        value = math.nan
    return repr(float(value))


def _atomic_write(path: str, lines: list[str]):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def emit_csv(result, path: str):
    """Write a run or sweep report; floats use shortest round-trip decimals."""
    if isinstance(result, RunResult):
        lines = [f"# {k} = {v}" for k, v in result.config_echo.items()]
        lines.append(RUN_HEADER)
        errors = result.errors
        for i, t in enumerate(errors.times):
            energy = (
                result.energy_observer[i]
                if result.energy_observer is not None
                else math.nan
            )
            row = (t, errors.l1_rel[i], errors.l1_abs[i], errors.sobolev[i], energy,
                   result.recorded_dt[i])
            lines.append(",".join(_fmt(v) for v in row))
        _atomic_write(path, lines)
        return
    points = sorted(result, key=lambda p: p.lam)
    lines = [SWEEP_HEADER]
    for p in points:
        lines.append(",".join(_fmt(v) for v in (p.lam, p.final_l1_rel, p.final_sobolev)))
    _atomic_write(path, lines)


def read_csv(path: str):
    """Read back an emitted report: (echo dict, header columns, float rows)."""
    echo: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[float]] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                echo[key.strip()] = value.strip()
                continue
            if not header:
                header = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
    return echo, header, np.asarray(rows)
