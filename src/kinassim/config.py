"""Sectioned key-value run configuration and CSV report emission.

The config format is a flat INI document; every key is validated against a
per-section whitelist and every physical quantity carries SI units (meters,
seconds).  Reports embed the fully resolved configuration as ``# key = value``
comment lines so a run is reproducible from its report alone.
"""
from __future__ import annotations

import configparser
import math
import os
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
from .kinetic import GRAVITY, ChiProfile
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


_SECTION_KEYS = {
    "model": {"kind", "g", "profile", "cfl_safety", "t_final"},
    "grid": {"n_cells", "x_min", "x_max", "bc", "bathymetry", "bowl_a", "bowl_hm"},
    "truth": {"ic", "lo", "hi", "value", "amplitude", "mean", "eta", "h_left",
              "h_right", "x_split", "resolution_factor"},
    "observer": {"ic", "lo", "hi", "value", "amplitude", "mean", "eta", "h_left",
                 "h_right", "x_split", "mode", "n_xi", "xi_margin"},
    "gain": {"lambda", "temporal", "sigma"},
    "observations": {"count", "t_first", "t_last", "every", "mask_lo", "mask_hi"},
    "noise": {"epsilon", "r", "alpha"},
    "output": {"record_every", "sobolev_order"},
}

# Keys that act on one model kind only, refused in a file of the other kind.
_KIND_ONLY_KEYS = {
    "shallow_water": {
        "model": {"g", "profile"},
        "grid": {"bathymetry", "bowl_a", "bowl_hm"},
        "truth": {"resolution_factor"},
    },
    "burgers": {"observer": {"mode", "n_xi", "xi_margin"}},
}


class _Section:
    """Typed access to one config section with named-field errors."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.raw = dict(parser[name]) if parser.has_section(name) else {}

    def _get(self, key, cast, default):
        if key not in self.raw or self.raw[key] == "":
            return default
        try:
            return cast(self.raw[key])
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key}: {exc}") from None

    def real(self, key, default=None):
        def cast(v):
            value = float(v)
            if not math.isfinite(value):
                raise ValueError(f"expected a finite number, got {v!r}")
            return value

        return self._get(key, cast, default)

    def integer(self, key, default=None):
        return self._get(key, int, default)

    def text(self, key, default=None):
        return self._get(key, str, default)

    def require(self, value, key):
        if value is None:
            raise ConfigError(f"[{self.name}] missing required key {key!r}")
        return value


def _enum_lookup(section, key, value, table):
    try:
        return table[value]
    except KeyError:
        raise ConfigError(
            f"[{section}] {key}: unknown value {value!r} "
            f"(expected one of {sorted(table)})"
        ) from None


def _refuse_other_kind_keys(parser: configparser.ConfigParser, kind: str):
    for owner, sections in _KIND_ONLY_KEYS.items():
        if owner == kind:
            continue
        for section, keys in sections.items():
            if parser.has_section(section):
                for key in parser[section]:
                    if key in keys:
                        raise ConfigError(
                            f"[{section}] {key} does nothing for kind = {kind} "
                            f"(only for kind = {owner})"
                        )


def _validate_keys(parser: configparser.ConfigParser):
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(
                f"unknown section [{section}] (expected one of {sorted(_SECTION_KEYS)})"
            )
        allowed = _SECTION_KEYS[section]
        for key in parser[section]:
            if key not in allowed:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}] (allowed: {sorted(allowed)})"
                )


def _burgers_ic(sec: _Section, grid: Grid1D) -> np.ndarray:
    kind = sec.text("ic", "zero")
    x = grid.centers
    if kind == "zero":
        return np.zeros(grid.n_cells)
    if kind == "square_pulse":
        lo = sec.require(sec.real("lo"), "lo")
        hi = sec.require(sec.real("hi"), "hi")
        value = sec.real("value", 1.0)
        return np.where((x >= lo) & (x <= hi), value, 0.0)
    if kind == "sine":
        amp = sec.real("amplitude", 1.0)
        mean = sec.real("mean", 0.0)
        return mean + amp * np.sin(
            2.0 * np.pi * (x - grid.x_min) / grid.length
        )
    raise ConfigError(f"[{sec.name}] unknown Burgers ic {kind!r}")


def _sw_state(sec: _Section, grid: Grid1D, z_b, profile, g, bowl) -> SWState:
    kind = sec.require(sec.text("ic"), "ic")
    if kind == "lake_at_rest":
        eta = sec.require(sec.real("eta"), "eta")
        return lake_at_rest_state(grid, z_b, eta, profile, g)
    if kind == "dam_break":
        h_left = sec.require(sec.real("h_left"), "h_left")
        h_right = sec.require(sec.real("h_right"), "h_right")
        x_split = sec.require(sec.real("x_split"), "x_split")
        return dam_break_state(grid, h_left, h_right, x_split, profile, g)
    if kind in ("thacker_planar", "thacker_rest"):
        if bowl is None:
            raise ConfigError(
                f"[{sec.name}] ic {kind!r} needs bathymetry = parabolic_bowl"
            )
        a, h_m = bowl
        truth, rest = thacker_setup(a, grid.length, h_m, grid.n_cells, profile, g)
        return truth if kind == "thacker_planar" else rest
    raise ConfigError(f"[{sec.name}] unknown shallow-water ic {kind!r}")


def parse_config(path: str) -> RunConfig:
    """Parse and validate a run configuration file."""
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
    _validate_keys(parser)

    model_sec = _Section(parser, "model")
    kind = model_sec.require(model_sec.text("kind"), "kind")
    if kind not in ("burgers", "shallow_water"):
        raise ConfigError(f"[model] kind must be burgers or shallow_water, got {kind!r}")
    _refuse_other_kind_keys(parser, kind)
    g = model_sec.real("g", GRAVITY)
    profile = _enum_lookup(
        "model", "profile", model_sec.text("profile", "semicircle"),
        {p.value: p for p in ChiProfile},
    )
    cfl_safety = model_sec.real("cfl_safety", 0.95)
    if not 0.0 < cfl_safety <= 1.0:
        raise ConfigError("[model] cfl_safety must lie in (0, 1]")
    t_final = model_sec.real("t_final", 1.0)
    if t_final <= 0.0:
        raise ConfigError("[model] t_final must be positive")

    grid_sec = _Section(parser, "grid")
    n_cells = grid_sec.require(grid_sec.integer("n_cells"), "n_cells")
    x_min = grid_sec.real("x_min", 0.0)
    x_max = grid_sec.real("x_max", 1.0)
    default_bc = "reflective_wall" if kind == "shallow_water" else "dirichlet_zero"
    bc = _enum_lookup(
        "grid", "bc", grid_sec.text("bc", default_bc),
        {b.value: b for b in BoundaryKind},
    )
    try:
        grid = Grid1D(n_cells, x_min, x_max, bc)
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from None

    gain_sec = _Section(parser, "gain")
    lam = gain_sec.real("lambda", 0.0)
    if lam < 0.0:
        raise ConfigError("[gain] lambda must be nonnegative")
    temporal = _enum_lookup(
        "gain", "temporal", gain_sec.text("temporal", "at_observation_times"),
        {m.value: m for m in TemporalMode},
    )
    sigma = gain_sec.real("sigma")
    try:
        gain = GainSchedule(lam, temporal_mode=temporal, sigma=sigma)
    except ValueError as exc:
        raise ConfigError(f"[gain] {exc}") from None

    obs_sec = _Section(parser, "observations")
    obs_times = None
    if "every" in obs_sec.raw:
        every = obs_sec.real("every")
        if every is None or every <= 0.0:
            raise ConfigError("[observations] every must be positive")
        obs_times = np.arange(0.0, t_final + every / 2.0, every)
    elif "count" in obs_sec.raw:
        count = obs_sec.integer("count")
        if count is None or count < 1:
            raise ConfigError("[observations] count must be >= 1")
        t_last = obs_sec.real("t_last", t_final)
        t_first = obs_sec.real("t_first", t_last / count)
        obs_times = np.linspace(t_first, t_last, count)
    mask_lo, mask_hi = obs_sec.real("mask_lo"), obs_sec.real("mask_hi")
    if (mask_lo is None) != (mask_hi is None):
        raise ConfigError("[observations] mask_lo and mask_hi must be given together")
    obs_mask = None if mask_lo is None else (mask_lo, mask_hi)

    noise = None
    if parser.has_section("noise"):
        noise_sec = _Section(parser, "noise")
        try:
            noise = NoiseSpec(
                epsilon=noise_sec.require(noise_sec.real("epsilon"), "epsilon"),
                r=noise_sec.real("r", 1.0),
                alpha=noise_sec.real("alpha", 0.0),
            )
        except ValueError as exc:
            raise ConfigError(f"[noise] {exc}") from None

    out_sec = _Section(parser, "output")
    record_every = out_sec.integer("record_every", 1)
    sobolev_order = out_sec.real("sobolev_order", 0.125)

    truth_sec = _Section(parser, "truth")
    observer_sec = _Section(parser, "observer")
    common = dict(
        model=kind,
        grid=grid,
        t_final=t_final,
        gain=gain,
        cfl_safety=cfl_safety,
        record_every=record_every,
        sobolev_order=sobolev_order,
        obs_times=obs_times,
        obs_mask=obs_mask,
        noise=noise,
    )
    try:
        if kind == "burgers":
            mode = _enum_lookup(
                "observer", "mode", observer_sec.text("mode", "bgk"),
                {m.value: m for m in BurgersObserverMode},
            )
            xi_margin = observer_sec.real("xi_margin", 1.0)
            if xi_margin < 0.0:
                raise ConfigError("[observer] xi_margin must be nonnegative")
            n_xi = observer_sec.integer("n_xi", 64)
            if n_xi < 1:
                raise ConfigError("[observer] n_xi must be >= 1")
            return RunConfig(
                truth_u0=_burgers_ic(truth_sec, grid),
                observer_u0=_burgers_ic(observer_sec, grid),
                observer_mode=mode,
                n_xi=n_xi,
                xi_margin=xi_margin,
                **common,
            )
        bathy_kind = grid_sec.text("bathymetry", "flat")
        bowl = None
        if bathy_kind == "parabolic_bowl":
            bowl = (
                grid_sec.require(grid_sec.real("bowl_a"), "bowl_a"),
                grid_sec.require(grid_sec.real("bowl_hm"), "bowl_hm"),
            )
            z_b = parabolic_bowl_bathymetry(grid, *bowl)
        elif bathy_kind == "flat":
            z_b = np.zeros(grid.n_cells)
        else:
            raise ConfigError(f"[grid] unknown bathymetry {bathy_kind!r}")
        factor = truth_sec.integer("resolution_factor", 1)
        if factor < 1:
            raise ConfigError("[truth] resolution_factor must be >= 1")
        truth_grid = grid.refined(factor) if factor > 1 else grid
        truth_zb = (
            parabolic_bowl_bathymetry(truth_grid, *bowl)
            if bowl is not None
            else np.zeros(truth_grid.n_cells)
        )
        truth_state = _sw_state(truth_sec, truth_grid, truth_zb, profile, g, bowl)
        observer_state = _sw_state(observer_sec, grid, z_b, profile, g, bowl)
        return RunConfig(
            truth_state=truth_state,
            observer_state=observer_state,
            truth_resolution_factor=factor,
            **common,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
