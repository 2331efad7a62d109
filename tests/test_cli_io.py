import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nematic_hydro
from nematic_hydro import ibm, kinetic, macro
from nematic_hydro.cli_io import cli
from nematic_hydro.cli_io.config import SCHEMAS, ConfigError, parse_config, serialize_config
from nematic_hydro.cli_io.output import (
    coefficient_table_rows,
    config_hash,
    emit_coefficient_table,
    format_cell,
    load_coefficient_row,
    read_field_snapshot,
    read_observation_binary,
    write_csv,
    write_field_snapshot,
    write_observation_binary,
)
from nematic_hydro.gci.coefficients import COEFFICIENT_NAMES
from nematic_hydro.gci.corrector import CORRECTOR_CHANNELS
from nematic_hydro.macro import CflViolation, MacroField

IBM_TEXT = """\
# comment survives anywhere  # even twice
[ibm]
N = 200
d = 2
nu = 1.0
D = 0.5   # trailing comment
R = 0.2
dt = 0.005
T = 0.05
observe_every = 2
"""


class TestConfigParsing:
    def test_round_trip_is_identity(self):
        cfg = parse_config(IBM_TEXT)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    def test_defaults_materialized(self):
        cfg = parse_config("[coeffs]\n")
        assert cfg.params["kappas"] == (0.5, 1.0, 2.0, 4.0, 8.0)
        assert cfg.params["ds"] == (2, 3, 4)
        assert cfg.seed == 0
        assert cfg.out_dir == "."

    def test_list_values_parsed(self):
        cfg = parse_config("[coeffs]\nkappas = 1.5, 2.5\nds = 2,4\n")
        assert cfg.params["kappas"] == (1.5, 2.5)
        assert cfg.params["ds"] == (2, 4)

    def test_overrides(self):
        cfg = parse_config("[coeffs]\n").with_overrides(seed=7, out="/tmp/x")
        assert cfg.seed == 7
        assert cfg.out_dir == "/tmp/x"

    @pytest.mark.parametrize(
        "text,code,line",
        [
            ("[ibm]\nN = abc\n", "type-mismatch", 2),
            ("[ibm]\nNN = 3\n", "unknown-key", 2),
            ("[ibm]\nN = 10\n", "missing-key", 0),
            ("[ibm]\nN = 10\nN = 20\n", "syntax", 3),
            ("[ibm]\n[kinetic]\n", "section", 2),
            ("N = 10\n", "section", 1),
            ("kappas = 1.0\n[coeffs]\n", "section", 1),
            ("", "section", 0),
            ("[unknown]\n", "section", 1),
            ("[ibm\n", "syntax", 1),
            ("[ibm]\njust words\n", "syntax", 2),
            ("[ibm]\nN = -5\n", "bad-value", 2),
            ("[coeffs]\nkappas = 1.0, abc\n", "type-mismatch", 2),
            ("[coeffs]\nkappas = ,\n", "type-mismatch", 2),
            ("[ibm]\nkernel = gaussian\n", "bad-value", 2),
            ("[kinetic]\nd = 0\n", "bad-value", 2),
            ("[kinetic]\nT = inf\n", "bad-value", 2),
            ("[macro]\namplitude = -inf\n", "bad-value", 2),
            ("[ibm]\ncoarse_bandwidth = inf\n", "bad-value", 2),
            ("[coeffs]\nkappas = 1.0, inf\n", "bad-value", 2),
        ],
    )
    def test_diagnostics_carry_code_and_line(self, text, code, line):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.code == code
        assert err.value.line == line
        if line:
            assert f"line {line}:" in str(err.value)

    def test_allowed_values_come_from_their_owners(self):
        assert SCHEMAS["ibm"]["kernel"].choices is ibm.KERNELS
        assert SCHEMAS["kinetic"]["u_policy"].choices is kinetic.U_POLICIES
        assert SCHEMAS["macro"]["d"].choices is macro.DIMENSIONS

    def test_every_section_has_one_run_and_one_subcommand(self):
        sub = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert set(cli._RUNS) == set(SCHEMAS) == set(sub.choices)


class TestOutputFormats:
    def test_float_cells_have_17_significant_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[0.1, 3]])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1.0000000000000001e-01,3"
        assert float(lines[1].split(",")[0]) == 0.1  # exact round trip

    def test_format_cell_types(self):
        assert format_cell(True) == "true"
        assert format_cell(np.bool_(False)) == "false"
        assert format_cell(np.int64(7)) == "7"
        assert format_cell("ok") == "ok"

    def test_observation_binary_round_trip(self, tmp_path, rng):
        rows = rng.standard_normal((5, 6))
        path = tmp_path / "obs.bin"
        write_observation_binary(path, 200, 2, 0.005, rows)
        header, back = read_observation_binary(path)
        assert header == {"version": 1, "N": 200, "d": 2, "dt": 0.005}
        assert np.array_equal(back, rows)

    def test_observation_binary_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKxxxxxxxxxxxxxxxx")
        with pytest.raises(ValueError):
            read_observation_binary(path)

    def test_field_snapshot_round_trip(self, tmp_path, rng):
        rho = 1.0 + 0.1 * rng.random((6, 6))
        u = rng.standard_normal((6, 6, 2))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        field = MacroField(rho=rho, u=u, dx=0.25, time=1.5)
        path = tmp_path / "snap.bin"
        write_field_snapshot(path, field)
        back = read_field_snapshot(path)
        assert np.array_equal(back.rho, rho)
        assert np.array_equal(back.u, u)
        assert back.dx == 0.25 and back.time == 1.5

    def test_field_snapshot_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError):
            read_field_snapshot(path)


class TestCoefficientTable:
    def test_table_row_and_load(self, tmp_path, coeffs_k2d3):
        path = tmp_path / "coefficients.csv"
        emit_coefficient_table([2.0], [3], path, "deadbeef", n=1024)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["kappa", "d", "status"]
        cells = dict(zip(header, lines[1].split(",")))
        assert cells["status"] == "ok"
        assert cells["theorem_H1"] == cells["theorem_E1"]  # bitwise in text
        assert float(cells["max_discrepancy"]) < 1e-8
        loaded = load_coefficient_row(path, 2.0, 3)
        for name in COEFFICIENT_NAMES:
            assert getattr(loaded, name) == getattr(coeffs_k2d3, name), name
        side = json.loads((tmp_path / "coefficients.csv.json").read_text())
        assert side["config_sha256"] == "deadbeef"
        assert side["rows"] == 1

    def test_solver_failure_lands_in_status(self, tmp_path):
        header, rows = coefficient_table_rows([2.0], [1], n=64)
        assert rows[0][2].startswith("error:")
        assert "," not in rows[0][2]
        assert np.isnan(rows[0][3])
        path = tmp_path / "bad.csv"
        write_csv(path, header, rows)
        with pytest.raises(ValueError):
            load_coefficient_row(path, 2.0, 1)

    def test_profile_solve_failure_lands_in_status(self):
        _, rows = coefficient_table_rows([200.0], [2], n=4096)
        assert rows[0][2].startswith("error: profile c/k: not positive definite")
        assert np.isnan(rows[0][3:]).all()

    def test_overflowing_kappa_lands_in_status(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, rows = coefficient_table_rows([1415.0, 2000.0], [2], n=64)
        for row in rows:
            assert row[2].startswith("error: profile ") and "not finite" in row[2], row[2]
            assert np.isnan(row[3:]).all()

    def test_missing_row_raises(self, tmp_path):
        header, rows = coefficient_table_rows([2.0], [1], n=64)
        path = tmp_path / "bad.csv"
        write_csv(path, header, rows)
        with pytest.raises(ValueError):
            load_coefficient_row(path, 8.0, 2)


KINETIC_TEXT = """\
[kinetic]
kappa = 2.0
D = 1.0
n = 64
dt = 0.01
T = 0.2
n_samples = 4
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestMain:
    def test_kinetic_success(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, KINETIC_TEXT)
        out = tmp_path / "out"
        code = cli.main(["kinetic", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        table = (out / "relaxation.csv").read_text().splitlines()
        assert table[0] == "time,l1_distance,dissipation,quadratic_entropy"
        assert len(table) == 6  # header + 5 sampled rows
        side = json.loads((out / "relaxation.csv.json").read_text())
        assert set(side) >= {"config_sha256", "code_version", "columns"}
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["config_sha256"] == side["config_sha256"]
        assert "canonical_config" in meta

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[kinetic]\nbogus = 1\n")
        assert cli.main(["kinetic", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_non_finite_horizon_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, KINETIC_TEXT.replace("T = 0.2", "T = inf"))
        assert cli.main(["kinetic", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "[bad-value]" in capsys.readouterr().err

    def test_unreadable_config_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert cli.main(["kinetic", "--config", str(missing)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_section_subcommand_mismatch_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, KINETIC_TEXT)
        assert cli.main(["ibm", "--config", str(cfg)]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_degenerate_eigenvalue_exit_4(self, tmp_path, capsys):
        text = (
            "[kinetic]\nkappa = 4.0\nD = 1.0\nn = 32\ndt = 0.01\nT = 0.05\n"
            "width = 1e6\nu_policy = self-consistent\n"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        code = cli.main(["kinetic", "--config", str(cfg), "--out", str(out)])
        assert code == 4
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [CflViolation("dt too large"), ArithmeticError("overflow")])
    def test_numerical_failure_exit_3(self, tmp_path, capsys, monkeypatch, exc):
        def boom(p, chash, out, args):
            raise exc

        monkeypatch.setitem(cli._RUNS, "kinetic", boom)
        cfg = write_cfg(tmp_path, KINETIC_TEXT)
        assert cli.main(["kinetic", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_ibm_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, IBM_TEXT)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["ibm", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli.main(["ibm", "--config", str(cfg), "--out", str(out_b)]) == 0
        for name in ("observations.csv", "observations.bin", "observations.csv.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["ibm"], IBM_TEXT.replace("T = 0.05", "T = 0.001")),
            (["validate", "--suite", "cross"], "[validate]\ncross_T = 1e-5\n"),
            (["macro"], "[macro]\nkappa = 4.0\nd = 2\ngrid_n = 16\nT = 1e-9\n"),
            (["kinetic"], KINETIC_TEXT.replace("T = 0.2", "T = 1e-4")),
        ],
        ids=["ibm", "validate-cross", "macro", "kinetic"],
    )
    def test_horizon_shorter_than_one_step_exit_2(self, tmp_path, capsys, argv, text):
        cfg = write_cfg(tmp_path, text)
        assert cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "shorter than one step" in capsys.readouterr().err

    def test_validate_has_no_radius_key(self, tmp_path, capsys):
        # the equilibrium suite runs the global kernel, which reads no radius
        cfg = write_cfg(tmp_path, "[validate]\nR = 0.4\n")
        argv = ["validate", "--suite", "equilibrium", "--config", str(cfg)]
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert "[unknown-key]" in capsys.readouterr().err

    def test_seed_override_changes_config_hash(self, tmp_path):
        cfg = write_cfg(tmp_path, IBM_TEXT)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["ibm", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli.main(["ibm", "--config", str(cfg), "--out", str(out_b), "--seed", "1"]) == 0
        ha = json.loads((out_a / "observations.csv.json").read_text())["config_sha256"]
        hb = json.loads((out_b / "observations.csv.json").read_text())["config_sha256"]
        assert ha != hb

    def test_ibm_emits_coarse_fields_when_asked(self, tmp_path):
        text = IBM_TEXT + "coarse_grid = 8\ncoarse_bandwidth = 0.1\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["ibm", "--config", str(cfg), "--out", str(out)]) == 0
        rho = np.load(out / "coarse_rho.npy")
        assert rho.shape == (8, 8)
        assert (out / "coarse_u.npy.json").exists()

    def test_macro_with_precomputed_coefficients(self, tmp_path):
        table = tmp_path / "coefficients.csv"
        emit_coefficient_table([4.0], [2], table, "cafe", n=256)
        text = "[macro]\nkappa = 4.0\nd = 2\ngrid_n = 16\nT = 1e-3\nsnapshots = 2\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        code = cli.main(
            ["macro", "--config", str(cfg), "--out", str(out), "--coeffs", str(table)]
        )
        assert code == 0
        snaps = sorted(out.glob("snapshot_*.bin"))
        assert len(snaps) == 3
        first = read_field_snapshot(snaps[0])
        last = read_field_snapshot(snaps[-1])
        assert first.time == 0.0
        assert last.time > 0.0
        assert abs(last.mass() - first.mass()) < 1e-12 * first.mass()
        csv_lines = (out / "snapshot_00000.csv").read_text().splitlines()
        assert csv_lines[0] == "x,rho,u1,u2"
        assert len(csv_lines) == 17

    def test_macro_missing_coefficient_row_exit_2(self, tmp_path, capsys):
        table = tmp_path / "coefficients.csv"
        emit_coefficient_table([4.0], [2], table, "cafe", n=256)
        text = "[macro]\nkappa = 2.0\nd = 2\ngrid_n = 16\nT = 1e-3\n"
        cfg = write_cfg(tmp_path, text)
        code = cli.main(
            ["macro", "--config", str(cfg), "--out", str(tmp_path / "o"), "--coeffs", str(table)]
        )
        assert code == 2
        assert "no row" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [1, 4])
    def test_macro_unsupported_dimension_exit_2(self, tmp_path, capsys, monkeypatch, d):
        # refused by the schema, before a field is built or a profile solved
        monkeypatch.setattr(cli, "solve_bundle", lambda *args: pytest.fail("profiles solved"))
        cfg = write_cfg(tmp_path, f"[macro]\nkappa = 4.0\nd = {d}\ngrid_n = 16\nT = 1e-3\n")
        assert cli.main(["macro", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"key 'd' must be one of 2, 3, got {d} [bad-value]" in err
        assert "Traceback" not in err

    def test_macro_nonpositive_initial_density_exit_2(self, tmp_path, capsys):
        text = "[macro]\nkappa = 4.0\nd = 2\ngrid_n = 16\nT = 1e-3\namplitude = 1.5\n"
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["macro", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "density must be positive" in capsys.readouterr().err

    def test_macro_non_finite_initial_direction_exit_2(self, tmp_path, capsys):
        text = "[macro]\nkappa = 4.0\nd = 2\ngrid_n = 16\nT = 1e-3\nwave = nan\n"
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["macro", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        # the parser refuses the non-finite wave before any field is built
        assert "key 'wave' must be finite" in capsys.readouterr().err

    def test_validate_scaling_suite(self, tmp_path):
        cfg = write_cfg(tmp_path, "[validate]\neps = 0.2, 0.1\n")
        out = tmp_path / "out"
        code = cli.main(
            ["validate", "--suite", "scaling", "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "scaling_report.json").read_text())
        assert report["suite"] == "scaling"
        assert 1.8 <= report["slope"] <= 2.2
        assert (out / "scaling_report.json.json").exists()
        assert (out / "scaling_curve.csv").exists()

    def test_validate_corrector_solves_one_bundle_per_resolution(self, tmp_path, monkeypatch):
        solved = []
        real = cli.solve_bundle

        def counting(kappa, d, n):
            solved.append(n)
            return real(kappa, d, n)

        monkeypatch.setattr(cli, "solve_bundle", counting)
        for n, expected in ((256, [64, 128, 256]), (2048, [512, 1024, 2048])):
            solved.clear()
            cfg = write_cfg(tmp_path, f"[validate]\nn = {n}\n")
            out = tmp_path / f"out{n}"
            code = cli.main(
                ["validate", "--suite", "corrector", "--config", str(cfg), "--out", str(out)]
            )
            assert code == 0
            assert solved == expected
            report = json.loads((out / "corrector_report.json").read_text())
            assert report["resolutions"] == expected
            header = (out / "corrector_curve.csv").read_text().splitlines()[0].split(",")
            assert header[2:] == list(CORRECTOR_CHANNELS.values())
            assert set(report["channels"]) == set(CORRECTOR_CHANNELS.values())

    def test_validate_corrector_in_the_plane(self, tmp_path):
        # at d = 2 the suite's own state must keep (grad u) u = 0
        cfg = write_cfg(tmp_path, "[validate]\nd = 2\nn = 1024\n")
        out = tmp_path / "out"
        code = cli.main(
            ["validate", "--suite", "corrector", "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "corrector_report.json").read_text())
        assert report["residual"] < 1e-6
        assert set(report["channels"]) == set(CORRECTOR_CHANNELS.values())

    def test_validate_requires_suite(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["validate"])


SRC = str(Path(nematic_hydro.__file__).resolve().parents[1])


def test_cli_import_leaves_scipy_stats_unloaded():
    # each of these is slow to import: no code of the program uses scipy.stats
    # (the equilibrium study computes its KS distance itself), scipy.spatial
    # serves only the local particle kernels, and the profiles need no
    # scipy.interpolate, which would also load scipy.optimize
    slow = ("scipy.stats", "scipy.interpolate", "scipy.spatial", "scipy.optimize")
    code = (
        "import sys, nematic_hydro.cli_io.cli; "
        f"print(sorted(m for m in {slow!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.stdout.strip() == "[]"


def test_equilibrium_suite_leaves_scipy_stats_unloaded(tmp_path):
    cfg = write_cfg(tmp_path, "[validate]\nN = 200\nT = 0.01\n")
    argv = ["validate", "--suite", "equilibrium", "--config", str(cfg),
            "--out", str(tmp_path / "o")]
    code = (
        "import sys\n"
        "from nematic_hydro.cli_io import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, 'scipy.stats' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.stdout.split() == ["0", "False"]
    assert (tmp_path / "o" / "equilibrium_report.json").exists()


@pytest.mark.parametrize(
    "text, exit_code",
    [("[coeffs]\nkappas = 1.0\nds = 2\nn = 64\n", 0), ("[coeffs]\nbogus = 1\n", 2)],
    ids=["runs", "unknown-key"],
)
def test_python_m_runs_the_cli(tmp_path, text, exit_code):
    cfg, out = write_cfg(tmp_path, text), tmp_path / "o"
    done = subprocess.run(
        [sys.executable, "-m", "nematic_hydro.cli_io.cli", "coeffs", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == exit_code, done.stderr
    assert (out / "coefficients.csv").exists() == (exit_code == 0)


@pytest.mark.parametrize(
    "run, text, exit_code, name",
    [
        ("kinetic", "[kinetic]\nkappa = 1420\nD = 1.0\nn = 64\ndt = 0.1\nT = 0.2\n", 3, "kappa"),
        ("kinetic", "[kinetic]\nkappa = 4\nD = 1.0\nn = 64\ndt = 0.1\nT = 0.2\n"
                    "width = 1e-300\n", 2, "width"),
        ("kinetic", "[kinetic]\nkappa = 4\nD = 1.0\nn = 64\ndt = 0.1\nT = 0.2\n"
                    "center = 1e300\n", 2, "center"),
        ("ibm", "[ibm]\nN = 20\nd = 2\nnu = 1.0\nD = 0.5\nR = 0.3\ndt = 0.01\nT = 0.02\n"
                "coarse_grid = 3\ncoarse_bandwidth = 1e300\n", 2, "coarse_bandwidth"),
        ("ibm", "[ibm]\nN = 20\nd = 2\nnu = 1.0\nD = 0.5\nR = 0.3\ndt = 0.01\nT = 0.02\n"
                "coarse_grid = 3\ncoarse_bandwidth = 1e154\n", 0, None),
    ],
    ids=["kinetic-kappa", "kinetic-width", "kinetic-center", "ibm-coarse-bandwidth",
         "ibm-wide-coarse-bandwidth"],
)
def test_extreme_accepted_values_end_in_documented_exits_without_warnings(
    tmp_path, capsys, run, text, exit_code, name
):
    cfg, out = write_cfg(tmp_path, text), tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([run, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == exit_code, err
    if exit_code == 0:  # the widest smoothing leaves the mean density
        assert err == ""
        assert np.allclose(np.load(out / "coarse_rho.npy"), 20.0, rtol=1e-12, atol=0.0)
    else:
        assert len(err.splitlines()) == 1 and name in err, err


# the smallest run of each subcommand at dimension d
DIMENSION_RUNS = {
    "coeffs": "[coeffs]\nkappas = 2.0\nds = {d}\nn = 64\n",
    "ibm": "[ibm]\nN = 20\nd = {d}\nnu = 1.0\nD = 0.5\nR = 0.3\ndt = 0.01\nT = 0.02\n",
    "kinetic": "[kinetic]\nkappa = 2.0\nD = 1.0\nn = 8\ndt = 0.1\nT = 0.1\nd = {d}\nn_samples = 1\n",
    "macro": "[macro]\nkappa = 4.0\nd = {d}\ngrid_n = 8\nT = 0.01\nn_profile = 64\nsnapshots = 1\n",
    "gci": "[validate]\nd = {d}\nn = 256\ntrials = 1\n",
    "corrector": "[validate]\nd = {d}\nn = 256\ntrials = 1\n",
}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("run", list(DIMENSION_RUNS))
def test_every_dimension_ends_in_a_documented_exit_code(tmp_path, capsys, run, d):
    cfg, out = write_cfg(tmp_path, DIMENSION_RUNS[run].format(d=d)), tmp_path / "o"
    argv = ["validate", "--suite", run] if run in ("gci", "corrector") else [run]
    code = cli.main([*argv, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if run == "coeffs":
        status = (out / "coefficients.csv").read_text().splitlines()[1].split(",")[2]
        assert (status == "ok") == (d > 1), status
        err = status
    if d == 1:
        assert code in (0, 2) and re.search(r"\bd\b", err), err
    if run in ("gci", "corrector") and d == 5:  # 100^4 or 96^4 sphere nodes
        assert code == 2 and "above the budget" in err, err
