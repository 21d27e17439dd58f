import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import kinassim
from kinassim import cli
from kinassim.assimilation import BurgersObserverMode, TemporalMode, run_twin
from kinassim.config import (
    ConfigError,
    emit_csv,
    fixture_path,
    parse_config,
    read_csv,
)
from kinassim.assimilation import SweepPoint


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


MINIMAL = """
    [model]
    kind = burgers

    [grid]
    n_cells = 16
"""


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.gain.lam == 0.0
        assert cfg.obs_times is None and cfg.obs_mask is None
        assert cfg.noise is None
        assert cfg.cfl_safety == 0.95
        assert cfg.observer_mode is BurgersObserverMode.BGK
        assert np.all(cfg.truth_u0 == 0.0)

    def test_negative_gain_rejected_with_field_name(self, tmp_path):
        body = MINIMAL + "\n[gain]\nlambda = -2.0\n"
        with pytest.raises(ConfigError, match=r"\[gain\] lambda"):
            parse_config(write_cfg(tmp_path, body))

    @pytest.mark.parametrize("section,key,value", [
        ("model", "t_final", "nan"),
        ("model", "cfl_safety", "nan"),
        ("gain", "lambda", "nan"),
        ("gain", "lambda", "inf"),
        ("grid", "x_max", "-inf"),
        ("output", "sobolev_order", "nan"),
        ("observer", "xi_margin", "inf"),
    ])
    def test_non_finite_real_rejected_with_field_name(self, tmp_path, section, key, value):
        path = tmp_path / "nonfinite.cfg"
        sections = {"model": "kind = burgers\n", "grid": "n_cells = 16\n"}
        sections[section] = sections.get(section, "") + f"{key} = {value}\n"
        path.write_text("".join(f"[{name}]\n{text}\n" for name, text in sections.items()))
        message = rf"\[{section}\] {key}: expected a finite number"
        with pytest.raises(ConfigError, match=message):
            parse_config(str(path))

    def test_negative_xi_margin_rejected_with_field_name(self, tmp_path):
        body = MINIMAL + "\n[observer]\nxi_margin = -0.1\n"
        with pytest.raises(ConfigError, match=r"\[observer\] xi_margin"):
            parse_config(write_cfg(tmp_path, body))

    def test_zero_xi_margin_accepted(self, tmp_path):
        body = MINIMAL + "\n[observer]\nxi_margin = 0\n"
        assert parse_config(write_cfg(tmp_path, body)).xi_margin == 0.0

    @pytest.mark.parametrize("n_xi", ["0", "-3"])
    def test_n_xi_below_one_rejected_with_field_name(self, tmp_path, n_xi):
        # refused with the key named (exit 1), not by the xi grid at run time (exit 2)
        path = write_cfg(tmp_path, MINIMAL + f"\n[observer]\nn_xi = {n_xi}\n")
        with pytest.raises(ConfigError, match=r"\[observer\] n_xi must be >= 1"):
            parse_config(path)
        assert cli.main(["run-burgers", path, "--quiet"]) == 1

    def test_decreasing_observation_times_rejected(self, tmp_path):
        body = MINIMAL + "\n[observations]\ncount = 3\nt_first = 0.5\nt_last = 0.1\n"
        with pytest.raises(ConfigError, match="obs_times"):
            parse_config(write_cfg(tmp_path, body))

    @pytest.mark.parametrize("section,key", [
        ("gain", "lambdah"),
        # removed: the window is [observations] mask_lo/mask_hi, and
        # interpolation is temporal = interpolated
        ("gain", "mask_lo"),
        ("gain", "mask_hi"),
        ("observations", "interpolate"),
        # removed with the seeded uniform noise variant
        ("noise", "kind"),
        ("noise", "seed"),
    ])
    def test_unknown_key_rejected(self, tmp_path, section, key):
        body = MINIMAL + f"\n[{section}]\n{key} = 2.0\n"
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[{section}\\]"):
            parse_config(write_cfg(tmp_path, body))

    @pytest.mark.parametrize("kind,section,key,value", [
        ("burgers", "model", "g", "3.0"),
        ("burgers", "model", "profile", "rectangle"),
        ("burgers", "grid", "bathymetry", "flat"),
        ("burgers", "grid", "bowl_a", "1.0"),
        ("burgers", "grid", "bowl_hm", "0.5"),
        ("burgers", "truth", "resolution_factor", "2"),
        ("shallow_water", "observer", "mode", "bgk"),
        ("shallow_water", "observer", "n_xi", "64"),
        ("shallow_water", "observer", "xi_margin", "1.0"),
        # initial-condition keys of the other kind's ic
        ("burgers", "truth", "eta", "1.0"),
        ("burgers", "truth", "h_left", "2.0"),
        ("burgers", "truth", "x_split", "0.5"),
        ("shallow_water", "truth", "lo", "0.1"),
        ("shallow_water", "truth", "value", "1.0"),
        ("shallow_water", "truth", "amplitude", "1.0"),
    ])
    def test_key_of_the_other_model_kind_rejected(self, tmp_path, kind, section, key, value):
        # accepted before, and acting on nothing
        fixture = "burgers_clean.cfg" if kind == "burgers" else "thacker.cfg"
        body = Path(fixture_path(fixture)).read_text()
        assert f"[{section}]\n" in body and f"\n{key} =" not in body
        path = tmp_path / "other_kind.cfg"
        path.write_text(body.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} does nothing for kind = {kind}"):
            parse_config(str(path))
        assert cli.main(["run-burgers" if kind == "burgers" else "run-sv", str(path),
                         "--quiet"]) == 1

    @pytest.mark.parametrize("fixture,section,keys,message", [
        # a zero or negative g died at run time (exit 2) after a sqrt warning
        ("dam_break.cfg", "model", {"g": "0"},
         r"\[model\] g must be positive and finite, got 0\.0"),
        ("dam_break.cfg", "model", {"g": "-9.81"}, r"\[model\] g must be positive"),
        # a window holding no cell centre ran at the error of gain 0
        ("burgers_clean.cfg", "observations", {"mask_lo": "0.8", "mask_hi": "0.2"},
         r"\[observations\] mask_lo, mask_hi: obs_mask \(0\.8, 0\.2\) holds no cell centre"),
        ("burgers_clean.cfg", "observations", {"mask_lo": "5", "mask_hi": "6"},
         r"\[observations\] mask_lo, mask_hi: obs_mask \(5\.0, 6\.0\) holds no cell centre"),
        # every won over count and t_last without a word
        ("burgers_clean.cfg", "observations", {"every": "0.5"},
         r"\[observations\] every and count, t_last cannot be combined"),
        # the messages below named the field but not [section] key
        ("burgers_clean.cfg", "output", {"record_every": "0"},
         r"\[output\] record_every must be >= 1"),
        ("burgers_clean.cfg", "output", {"sobolev_order": "1.5"},
         r"\[output\] sobolev_order must lie in \[0, 1\)"),
        ("burgers_clean.cfg", "observations", {"t_first": "1.5", "t_last": "0.5"},
         r"\[observations\] count, t_first, t_last: obs_times must be"),
        # refused before the refined grid of 0 cells could blame [grid] n_cells
        ("dam_break.cfg", "truth", {"resolution_factor": "0"},
         r"\[truth\] resolution_factor must be >= 1, got 0"),
        # a lake at rest divided by zero (exit 2); a Thacker ic named no key
        ("lake_at_rest.cfg", "grid", {"bowl_a": "0"},
         r"\[grid\] bowl_a: bowl half-width a must be positive, got 0\.0"),
        ("thacker.cfg", "grid", {"bowl_a": "0"},
         r"\[grid\] bowl_a: bowl half-width a must be positive, got 0\.0"),
        ("lake_at_rest.cfg", "grid", {"bowl_hm": "-0.5"},
         r"\[grid\] bowl_hm: bowl depth h_m must be positive, got -0\.5"),
        ("thacker.cfg", "grid", {"bowl_hm": "0"},
         r"\[grid\] bowl_hm: bowl depth h_m must be positive, got 0\.0"),
        # a Thacker bowl as wide as the domain named no key
        ("thacker.cfg", "grid", {"bowl_a": "2.5"},
         r"\[grid\] bowl_a: domain must be longer than the bowl diameter"),
        # keys the chosen ic or bathymetry never reads were accepted and ignored
        ("dam_break.cfg", "truth", {"eta": "5.0"},
         r"\[truth\] eta does nothing for ic = dam_break \(only for ic = lake_at_rest\)"),
        ("burgers_clean.cfg", "observer", {"amplitude": "2.0"},
         r"\[observer\] amplitude does nothing for ic = square_pulse \(only for ic = sine\)"),
        ("dam_break.cfg", "grid", {"bowl_a": "1.0"},
         r"\[grid\] bowl_a does nothing for bathymetry = flat "
         r"\(only for bathymetry = parabolic_bowl\)"),
        # keys the chosen observer or temporal mode never reads were accepted
        # and ignored: the Engquist-Osher lane has no xi grid, and only the
        # mollified gain reads sigma
        ("burgers_clean.cfg", "observer", {"mode": "macroscopic", "xi_margin": "5.0"},
         r"\[observer\] xi_margin does nothing for mode = macroscopic "
         r"\(only for mode = bgk, collapse\)"),
        ("burgers_clean.cfg", "observer", {"mode": "macroscopic"},  # beside n_xi = 64
         r"\[observer\] n_xi does nothing for mode = macroscopic "
         r"\(only for mode = bgk, collapse\)"),
        ("burgers_clean.cfg", "gain", {"sigma": "0.3"},
         r"\[gain\] sigma does nothing for temporal = at_observation_times "
         r"\(only for temporal = mollified\)"),
        ("thacker.cfg", "gain", {"sigma": "0.1"},
         r"\[gain\] sigma does nothing for temporal = interpolated "
         r"\(only for temporal = mollified\)"),
        # a boundary kind the model's solver cannot run parsed, then exited 2
        ("burgers_clean.cfg", "grid", {"bc": "reflective_wall"},
         r"\[grid\] bc reflective_wall is not supported by the burgers solver "
         r"\(supported: dirichlet_zero, periodic\)"),
        ("dam_break.cfg", "grid", {"bc": "dirichlet_zero"},
         r"\[grid\] bc dirichlet_zero is not supported by the shallow_water solver "
         r"\(supported: reflective_wall, periodic\)"),
    ])
    def test_refusal_names_section_key(self, tmp_path, capsys, fixture, section, keys, message):
        body = Path(fixture_path(fixture)).read_text()
        for key, value in keys.items():
            edited, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", body, flags=re.M)
            body = edited if count else body.replace(f"[{section}]\n",
                                                     f"[{section}]\n{key} = {value}\n")
        path = tmp_path / fixture
        path.write_text(body)
        with pytest.raises(ConfigError, match=message):
            parse_config(str(path))
        command = "run-burgers" if fixture.startswith("burgers") else "run-sv"
        assert cli.main([command, str(path), "--quiet"]) == 1
        assert re.search(f"config error: {message}", capsys.readouterr().err)

    @pytest.mark.parametrize("fixture, edits, message", [
        ("burgers_clean.cfg", [(r"^temporal = .*$", "temporal = sometimes")],
         "[gain] temporal: unknown value 'sometimes'"),
        ("burgers_clean.cfg", [(r"^kind = .*\n", "")], "[model] missing required key 'kind'"),
        ("burgers_clean.cfg", [(r"^kind = .*$", "kind = euler")],
         "[model] kind must be burgers or shallow_water, got 'euler'"),
        ("burgers_clean.cfg", [(r"^n_cells = .*\n", "")], "[grid] missing required key 'n_cells'"),
        ("burgers_clean.cfg", [(r"^\[truth\]\nic = .*$", "[truth]\nic = triangle")],
         "[truth] unknown Burgers ic 'triangle'"),
        ("dam_break.cfg", [(r"^\[observer\]\nic = .*$", "[observer]\nic = tsunami")],
         "[observer] unknown shallow-water ic 'tsunami'"),
        ("thacker.cfg", [(r"^bathymetry = .*$", "bathymetry = flat"), (r"^bowl_.*\n", "")],
         "[truth] ic 'thacker_planar' needs bathymetry = parabolic_bowl"),
        ("thacker.cfg", [(r"^every = .*$", "every = 0.0")],
         "[observations] every must be positive, got 0.0"),
        ("thacker.cfg", [(r"^every = .*$", "every = -0.05")],
         "[observations] every must be positive, got -0.05"),
        ("burgers_clean.cfg", [(r"^count = .*$", "count = 0")],
         "[observations] count must be >= 1, got 0"),
        ("burgers_clean.cfg", [(r"^t_last = .*$", "t_last = 2.0\nmask_lo = 0.1")],
         "[observations] mask_lo and mask_hi must be given together, got mask_lo = 0.1 alone"),
        ("thacker.cfg", [(r"^mask_lo = .*\n", "")],
         "[observations] mask_lo and mask_hi must be given together, got mask_hi = 2.5 alone"),
        ("dam_break.cfg", [(r"^bathymetry = .*$", "bathymetry = ramp")],
         "[grid] unknown bathymetry 'ramp'"),
    ], ids=["unknown_enum_value", "missing_kind", "unknown_kind", "missing_required_key",
            "unknown_burgers_ic", "unknown_shallow_water_ic", "thacker_ic_on_a_flat_bed",
            "every_zero", "every_negative", "count_zero", "mask_lo_alone", "mask_hi_alone",
            "unknown_bathymetry"])
    def test_refusal_names_the_key_and_value(self, tmp_path, capsys, fixture, edits, message):
        body = Path(fixture_path(fixture)).read_text()
        for pattern, replacement in edits:
            body, count = re.subn(pattern, replacement, body, flags=re.M)
            assert count  # the edit applies
        path = tmp_path / fixture
        path.write_text(body)
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(str(path))
        command = "run-sv" if "shallow_water" in body else "run-burgers"
        assert cli.main([command, str(path), "--quiet"]) == 1
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["truth", "observer"])
    def test_bowl_under_a_dam_break_rejected(self, tmp_path, capsys, section):
        # the flat-bed dam break dropped the bowl: both beds read 0.0
        body = Path(fixture_path("dam_break.cfg")).read_text().replace(
            "bathymetry = flat", "bathymetry = parabolic_bowl\nbowl_a = 0.3\nbowl_hm = 0.5")
        if section == "observer":  # a truth that reads the bowl
            body = re.sub(r"\[truth\]\n(.+\n)+", "[truth]\nic = lake_at_rest\neta = 1.0\n", body)
        path = tmp_path / "bowl_dam_break.cfg"
        path.write_text(body)
        message = (rf"\[grid\] bathymetry = parabolic_bowl does nothing for \[{section}\] "
                   r"ic = dam_break, a flat-bed state")
        with pytest.raises(ConfigError, match=message):
            parse_config(str(path))
        assert cli.main(["run-sv", str(path), "--quiet"]) == 1
        assert re.search(f"config error: {message}", capsys.readouterr().err)

    @pytest.mark.parametrize("keys", [["t_first"], ["t_last"], ["t_first", "t_last"]])
    def test_observation_span_without_count_rejected(self, tmp_path, capsys, keys):
        # parsed to no observation times, so the truth was observed at every step
        body = Path(fixture_path("burgers_clean.cfg")).read_text().replace("count = 30\n", "")
        body = re.sub(r"^t_last = .*\n", "", body, flags=re.M)
        span = {"t_first": "0.5", "t_last": "1.5"}
        body = body.replace("[observations]\n", "[observations]\n" + "".join(
            f"{key} = {span[key]}\n" for key in keys))
        path = tmp_path / "span.cfg"
        path.write_text(body)
        message = rf"\[observations\] {', '.join(keys)} without count"
        with pytest.raises(ConfigError, match=message):
            parse_config(str(path))
        assert cli.main(["run-burgers", str(path), "--quiet"]) == 1
        assert re.search(f"config error: {message}", capsys.readouterr().err)

    @pytest.mark.parametrize("old,new", [
        # thacker_setup builds its states on [0, x_max - x_min] with walls:
        # the window shifted by 1 m, and a periodic grid ran with walls
        ("x_min = 0.0\nx_max = 4.0", "x_min = 1.0\nx_max = 5.0"),
        ("bc = reflective_wall", "bc = periodic"),
    ], ids=["shifted", "periodic"])
    def test_states_off_the_configured_grid_rejected(self, tmp_path, old, new):
        body = Path(fixture_path("thacker.cfg")).read_text()
        assert old in body
        path = tmp_path / "thacker.cfg"
        path.write_text(body.replace(old, new))
        with pytest.raises(ConfigError, match="observer_state must lie on"):
            parse_config(str(path))

    def test_mollified_gain_without_observations_rejected(self, tmp_path):
        body = MINIMAL + "\n[gain]\nlambda = 1.0\ntemporal = mollified\nsigma = 0.1\n"
        with pytest.raises(ConfigError, match="mollified gain needs obs_times"):
            parse_config(write_cfg(tmp_path, body))

    def test_unknown_section_rejected(self, tmp_path):
        body = MINIMAL + "\n[extras]\nfoo = 1\n"
        with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
            parse_config(write_cfg(tmp_path, body))

    def test_malformed_syntax_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nkind burgers\n")
        with pytest.raises(ConfigError, match="line"):
            parse_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/nowhere.cfg")

    def test_thacker_fixture_reproduces_setup(self):
        cfg = parse_config(fixture_path("thacker.cfg"))
        assert cfg.model == "shallow_water"
        assert cfg.grid.n_cells == 300
        assert cfg.t_final == 15.0
        assert cfg.obs_mask == (1.5, 2.5)
        assert cfg.gain.temporal_mode is TemporalMode.INTERPOLATED
        # 0.05 s cadence over [0, 15]
        assert len(cfg.obs_times) == 301
        assert cfg.obs_times[1] - cfg.obs_times[0] == pytest.approx(0.05)
        assert cfg.truth_state.h.max() == pytest.approx(0.5, abs=1e-2)

    def test_all_fixtures_parse(self):
        for name in (
            "burgers_clean.cfg",
            "burgers_noisy_eps002.cfg",
            "burgers_noisy_eps0002.cfg",
            "thacker.cfg",
            "thacker_noisy.cfg",
            "lake_at_rest.cfg",
            "dam_break.cfg",
        ):
            parse_config(fixture_path(name))

    def test_echo_carries_resolved_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        echo = cfg.echo()
        assert echo["cfl_safety"] == 0.95
        assert echo["lambda"] == 0.0
        assert echo["sobolev_order"] == 0.125


class TestEmitCsv:
    def run_result(self):
        cfg = parse_config(fixture_path("burgers_clean.cfg"))
        cfg.t_final = 0.05
        cfg.obs_times = cfg.obs_times[cfg.obs_times <= 0.05]
        if len(cfg.obs_times) == 0:
            cfg.obs_times = None
        return run_twin(cfg)

    def test_run_round_trip_exact(self, tmp_path):
        result = self.run_result()
        path = str(tmp_path / "run.csv")
        emit_csv(result, path)
        echo, header, rows = read_csv(path)
        assert header == ["t", "l1_rel", "l1_abs", "sobolev_s", "energy_total", "dt"]
        assert echo["model"] == "burgers"
        np.testing.assert_array_equal(rows[:, 0], result.errors.times)
        np.testing.assert_array_equal(rows[:, 1], result.errors.l1_rel)
        np.testing.assert_array_equal(rows[:, 3], result.errors.sobolev)
        assert np.all(np.isnan(rows[:, 4]))  # no energy channel for Burgers
        # dt is the truth step that ends at each row's time
        ends = np.searchsorted(np.cumsum(result.dt_history), result.errors.times[1:])
        assert np.isnan(rows[0, 5])
        np.testing.assert_array_equal(rows[1:, 5], result.dt_history[ends])

    def test_sweep_csv_sorted(self, tmp_path):
        points = [
            SweepPoint(100.0, 0.5, 0.2),
            SweepPoint(1.0, 0.9, 0.7),
            SweepPoint(10.0, 0.6, 0.3),
        ]
        path = str(tmp_path / "sweep.csv")
        emit_csv(points, path)
        _, header, rows = read_csv(path)
        assert header == ["lambda", "final_l1_rel", "final_sobolev"]
        assert rows.shape == (3, 3)
        np.testing.assert_array_equal(rows[:, 0], [1.0, 10.0, 100.0])
        np.testing.assert_array_equal(rows[1], [10.0, 0.6, 0.3])

    def test_missing_directory_or_a_directory_refused(self, tmp_path):
        # a missing directory raised FileNotFoundError naming a temp file
        missing = str(tmp_path / "missing" / "x.csv")
        with pytest.raises(ValueError, match=f"the directory of {re.escape(repr(missing))} "
                                             "does not exist"):
            emit_csv([], missing)
        with pytest.raises(ValueError, match=f"{re.escape(repr(str(tmp_path)))} is a directory"):
            emit_csv([], str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_empty_sweep_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        emit_csv([], path)
        _, header, rows = read_csv(path)
        assert header == ["lambda", "final_l1_rel", "final_sobolev"]
        assert rows.size == 0


def run_python(*args):
    # the child imports the kinassim under test, installed or not
    src = os.path.dirname(os.path.dirname(kinassim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(*args):
    return run_python("-m", "kinassim", *args)


def forbidden_run(*args, **kwargs):
    raise AssertionError("a refused command ran")


class TestCli:
    def test_observability_verdict(self):
        proc = run_cli(
            "observability", "--speed", "1", "--interval", "0.25,0.75",
            "--horizon", "0.6",
        )
        assert proc.returncode == 0
        assert "observable=true" in proc.stdout
        assert "T_min=0.5" in proc.stdout

    @pytest.mark.parametrize("args", [
        ("observability", "--speed", "1", "--interval", "0.25,0.75", "--horizon", "0.6"),
        ("run-burgers", fixture_path("burgers_clean.cfg")),
        ("run-sv", fixture_path("lake_at_rest.cfg")),
        ("sweep-lambda", fixture_path("burgers_clean.cfg"), "--lambdas", "1"),
    ], ids=lambda args: args[0])
    def test_observability_rejects_seed(self, args):
        # every run is deterministic: a seed is a usage error, not ignored
        proc = run_cli(*args, "--quiet", "--seed", "3")
        assert proc.returncode == 1
        assert "unrecognized arguments: --seed 3" in proc.stderr

    @pytest.mark.parametrize("speed, horizon, message", [
        ("nan", "1", "speed must be finite, got nan"),
        ("1", "nan", "horizon must be finite, got nan"),
        ("inf", "1", "speed must be finite, got inf"),
        ("-inf", "1", "speed must be finite, got -inf"),
        ("1", "inf", "horizon must be finite, got inf"),
        ("1e308", "1e308", r"speed \* horizon overflows"),
    ])
    def test_observability_refuses_non_finite_input(self, tmp_path, capsys, speed, horizon,
                                                    message):
        # a NaN failed on float-to-integer conversion with no field named,
        # and an infinite speed, horizon or distance left as an OverflowError
        out = tmp_path / "obs.csv"
        assert cli.main(["observability", f"--speed={speed}", "--interval", "0.25,0.75",
                         f"--horizon={horizon}", "--out", str(out)]) == 1
        assert re.search(f"config error: {message}", capsys.readouterr().err)
        assert not out.exists()

    def test_run_sv_writes_csv(self, tmp_path):
        out = str(tmp_path / "r.csv")
        cfg = write_cfg(
            tmp_path,
            """
            [model]
            kind = shallow_water
            t_final = 0.05

            [grid]
            n_cells = 40
            bathymetry = flat

            [truth]
            ic = dam_break
            h_left = 2.0
            h_right = 1.0
            x_split = 0.5

            [observer]
            ic = dam_break
            h_left = 2.0
            h_right = 1.0
            x_split = 0.5
            """,
        )
        proc = run_cli("run-sv", cfg, "--out", out)
        assert proc.returncode == 0, proc.stderr
        echo, header, rows = read_csv(out)
        assert echo["model"] == "shallow_water"
        assert np.all(np.isfinite(rows[:, 4]))  # energy column populated

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[gain]\nlambda = -1\n")
        proc = run_cli("run-burgers", cfg)
        assert proc.returncode == 1
        assert "config error" in proc.stderr

    def test_non_finite_value_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[gain]\nlambda = nan\n")
        proc = run_cli("run-burgers", cfg)
        assert proc.returncode == 1
        assert "[gain] lambda" in proc.stderr

    def test_bad_sobolev_order_is_config_error(self, tmp_path):
        # refused before the truth phase runs; it used to exit 2 after it
        cfg = write_cfg(tmp_path, MINIMAL + "\n[output]\nsobolev_order = 1.5\n")
        proc = run_cli("run-burgers", cfg)
        assert proc.returncode == 1
        assert "sobolev_order must lie in [0, 1)" in proc.stderr

    def test_model_mismatch_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL)
        proc = run_cli("run-sv", cfg)
        assert proc.returncode == 1

    def test_solver_failure_exit_code(self, tmp_path):
        # the config parses but the run fails: a noisy observation of the
        # sine lies past a xi grid spanned with no margin
        cfg = write_cfg(
            tmp_path,
            """
            [model]
            kind = burgers

            [grid]
            n_cells = 16

            [truth]
            ic = sine

            [observer]
            mode = collapse
            xi_margin = 0

            [gain]
            lambda = 10

            [observations]
            count = 4
            t_last = 0.04

            [noise]
            epsilon = 0.5
            """,
        )
        proc = run_cli("run-burgers", cfg)
        assert proc.returncode == 2
        assert "runtime error" in proc.stderr
        assert "lies outside the xi grid" in proc.stderr

    def test_sweep_reports_optimum(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            """
            [model]
            kind = burgers
            t_final = 0.2

            [grid]
            n_cells = 40

            [truth]
            ic = square_pulse
            lo = 0.2
            hi = 0.4
            value = 1.0

            [observer]
            ic = zero
            mode = macroscopic

            [gain]
            temporal = every_step
            """,
        )
        proc = run_cli("sweep-lambda", cfg, "--lambdas", "1,10,100")
        assert proc.returncode == 0, proc.stderr
        assert "lambda_opt=" in proc.stdout

    @pytest.mark.parametrize("lambdas", ["nan", "1,inf", "-1", "1,10,10,100", "0,1,1"])
    def test_sweep_bad_gain_is_config_error(self, tmp_path, lambdas):
        # a NaN gain used to come back as a failed point with exit code 0; a
        # repeated gain ran and printed every twin, then the summary exited 2
        cfg = write_cfg(tmp_path, MINIMAL)
        proc = run_cli("sweep-lambda", cfg, "--lambdas", lambdas)
        assert proc.returncode == 1
        assert "config error: --lambdas" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_jobs_below_one_is_config_error(self, tmp_path, capsys, jobs):
        # ran sequentially and exited 0
        cfg = write_cfg(tmp_path, MINIMAL)
        assert cli.main(["sweep-lambda", cfg, "--lambdas", "0,1", "--jobs", jobs,
                         "--quiet"]) == 1
        assert f"config error: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-burgers", "sweep-lambda", "observability"])
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, monkeypatch, command, target):
        # the run went to its end, then exited 2 naming a temp file
        for name in ("run_twin", "sweep_lambda", "observability_check"):
            monkeypatch.setattr(cli, name, forbidden_run)
        out = str(tmp_path / "missing" / "x.csv") if target == "missing" else str(tmp_path)
        args = {"run-burgers": [write_cfg(tmp_path, MINIMAL)],
                "sweep-lambda": [write_cfg(tmp_path, MINIMAL), "--lambdas", "0,1"],
                "observability": ["--speed", "1", "--interval", "0.25,0.75",
                                  "--horizon", "2"]}[command]
        assert cli.main([command, *args, "--out", out, "--quiet"]) == 1
        reason = "does not exist" if target == "missing" else "is a directory"
        assert re.search(rf"config error: --out: .*{reason}", capsys.readouterr().err)

    def test_quiet_suppresses_output(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL, name="quiet.cfg")
        proc = run_cli("run-burgers", cfg, "--quiet")
        assert proc.returncode == 0
        assert proc.stdout == ""


def load_benchmark_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTracer:
    """perfbench/tracer.py looks the traced functions up by name; a rename
    or deletion breaks ``--trace 1``."""

    def test_every_span_resolves(self):
        tracer = load_benchmark_tracer()
        for span, (module, names) in tracer.SPANS.items():
            home = importlib.import_module(f"kinassim.{module}")
            for name in names:
                assert callable(getattr(home, name, None)), f"{span}: {module}.{name}"

    def test_interface_counter_reads_the_depth_argument(self):
        from kinassim.kinetic import upwind_power_moment

        assert list(inspect.signature(upwind_power_moment).parameters)[1] == "h"


class TestRuntimeDependencies:
    """The package needs numpy alone at run time; scipy is for the tests."""

    def test_source_imports_only_stdlib_numpy_and_itself(self):
        allowed = set(sys.stdlib_module_names) | {"numpy", "kinassim"}
        for path in sorted(Path(kinassim.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] in allowed, f"{path.name} imports {name}"

    def test_twins_run_without_scipy(self):
        code = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None  # any scipy import now raises ImportError
            import kinassim
            from kinassim.config import fixture_path, parse_config
            for name in ("lake_at_rest.cfg", "burgers_clean.cfg"):
                print(name, kinassim.run_twin(parse_config(fixture_path(name))).final_l1_rel)
        """)
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count(".cfg ") == 2

    def test_import_leaves_out_the_process_pool(self):
        # concurrent.futures.process cost about 19 ms of every import of the
        # package; only a sweep on a pool (jobs > 1) needs it
        code = "import kinassim, sys; sys.exit('concurrent.futures.process' in sys.modules)"
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
