"""End-to-end CLI behavior: exit codes, artifacts, config round-trips."""

import copy
import dataclasses
import json
import os
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acgf.cli
import acgf.energy
import acgf.experiments
import acgf.flow
import acgf.runio
from acgf.cli import main
from acgf.config import config_from_dict, load_config
from acgf.errors import ConfigError
from acgf.meshes import MAX_MESH_BYTES, DiscMesh, IntervalMesh
from acgf.runio import fmt, read_snapshot_values
from conftest import json_values, key_paths, per_row_snapshot_values

BASE = {
    "mesh": {"kind": "interval", "L": 1.0, "n": 16},
    "energy": {"kappa": 0.2, "perturbation": {"kind": "neg_quadratic"}},
    "flow": {"tau": 0.05, "T": 0.5},
    "initial": {"kind": "two_phase", "amplitude": 0.9},
    "forcing": {"kind": "zero"},
    "snapshot_every": 5,
    "seed": 3,
}

DISC = {
    "mesh": {"kind": "disc", "R": 1.0, "nr": 6, "ntheta": 12},
    "energy": {"kappa": 0.2, "perturbation": {"kind": "neg_quadratic"}},
    "flow": {"tau": 0.05, "T": 0.2},
    "initial": {"kind": "two_phase", "amplitude": 0.9},
    "seed": 3,
}


SNAPSHOT_ROWS = ["node_id,x,y,is_boundary,value"] + [f"{i},0,0,0,0.5" for i in range(17)]


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRun:
    def test_minimal_run_writes_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        lines = (tmp_path / "out" / "trace.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 10  # one row per step
        assert lines[0].startswith(
            "step,time,phi_reg,free_energy,rate_norm,inner_iters,inner_residual")
        assert (tmp_path / "out" / "config_echo.json").exists()
        snaps = sorted(p.name for p in (tmp_path / "out").glob("snapshot_*.csv"))
        assert snaps == ["snapshot_000000.csv", "snapshot_000005.csv", "snapshot_000010.csv"]

    def test_no_temp_files_left_behind(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        leftovers = [p for p in (tmp_path / "out").iterdir() if p.name.startswith(".tmp")]
        assert leftovers == []

    def test_tau_guard_rejected_before_running(self, tmp_path):
        bad = dict(BASE, flow={"tau": 0.6, "T": 1.0})
        cfg = write_cfg(tmp_path, bad)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section,field,value", [
        ("energy", "kappa", float("inf")),
        ("energy", "eps", float("nan")),
        ("flow", "tau", float("nan")),
        ("flow", "T", float("inf")),
        ("flow", "inner_tol", float("inf")),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, section, field, value):
        bad = dict(BASE, **{section: {**BASE[section], field: value}})
        cfg = write_cfg(tmp_path, bad)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("patch,message", [
        ({"snapshot_every": "5"}, "snapshot_every must be a number"),
        ({"mesh": {**BASE["mesh"], "n": "16"}}, "mesh.n must be a number"),
        ({"energy": {**BASE["energy"], "kappa": "0.2"}}, "energy.kappa must be a number"),
        ({"mesh": [BASE["mesh"]]}, "mesh: expected an object"),
        ({"flow": {**BASE["flow"], "inner_max_iters": 2.5}},
         "flow.inner_max_iters must be an integer"),
        ({"forcing": {"kind": "constant", "bulk": float("nan"), "boundary": 0.0}},
         "forcing.bulk must be finite"),
        ({"forcing": {"kind": "constant", "bulk": 0.0, "boundary": float("nan")}},
         "forcing.boundary must be finite"),
        ({"mesh": {"kind": "disc", "nr": 4294967296.0}}, "mesh.nr, mesh.ntheta: "),
        ({"lamda": 0.001}, "lamda: unknown field"),
        ({"flow": {**BASE["flow"], "dt": 5}}, "flow.dt: unknown field"),
        ({"flow": {**BASE["flow"], "semi_implicit_G": False}},
         "flow.semi_implicit_G: the fully implicit scheme was removed"),
        ({"mesh": {"kind": "disc", "n": 999}}, "mesh.n: unknown field (allowed for kind disc"),
        ({"forcing": {"kind": "zero", "bulk": 3}},
         "forcing.bulk: unknown field (allowed for kind zero"),
        ({"energy": {**BASE["energy"], "kappa": 1e300}},
         "kappa must be positive with a finite square"),
        ({"initial": {"kind": "random", "amplitude": -1}},
         "initial.amplitude: -1.0 leaves the empty or unbounded range [1.0, -1.0]"),
    ])
    def test_ill_typed_field_rejected(self, tmp_path, capsys, patch, message):
        cfg = write_cfg(tmp_path, dict(BASE, **patch))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path,energy", [
        ("energy.bulk_potential", {"bulk_potential": {"lo": 1.0, "hi": -1.0}}),
        ("energy.bdry_potential", {"bdry_potential": {"lo": 1.0, "hi": -1.0}}),
        ("energy.bdry_potential", {"bdry_potential": {"kind": "tabulated", "points": [[0, 0]]}}),
        ("energy.perturbation", {"perturbation": {"kind": "tabulated",
                                                  "points": [[0, 0], [0, 1]]}}),
        ("energy.perturbation.bulk", {"perturbation": {"bulk": {"kind": "tabulated",
                                                                "points": [[0, 0]]}}}),
        ("energy.perturbation.boundary", {"perturbation": {"boundary": {"kind": "tabulated",
                                                                        "points": [[0, 0]]}}}),
    ])
    def test_bad_well_or_perturbation_part_named_by_its_path(self, tmp_path, capsys, path,
                                                             energy):
        cfg = write_cfg(tmp_path, dict(BASE, energy={**BASE["energy"], **energy}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {path}: " in err and "energy: energy" not in err

    @pytest.mark.parametrize("path,value", [
        ("energy.kappa", 1e300), ("energy.eps", 1e200), ("energy.delta", 2.0),
        ("energy.lambda", 0.0), ("mesh.L", -1.0), ("mesh.n", 1), ("mesh.R", 0.0),
        ("mesh.nr", 1), ("mesh.ntheta", 2),
    ])
    def test_out_of_range_field_named_by_its_path(self, tmp_path, capsys, path, value):
        section, name = path.split(".")
        base = DISC if name in ("R", "nr", "ntheta") else BASE
        cfg = write_cfg(tmp_path, dict(base, **{section: {**base[section], name: value}}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {path} must " in err and err.count(path) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flow,ratio", [({"tau": 0.05, "T": 1e300}, "2e+301"),
                                            ({"tau": 1e-10, "T": 1e300}, "inf")])
    def test_step_count_above_the_ceiling_rejected(self, tmp_path, capsys, flow, ratio):
        cfg = write_cfg(tmp_path, dict(BASE, flow=flow))
        with mock.patch.object(acgf.cli, "run_flow", _at_most_two_steps):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"flow: T / tau = {ratio} asks for more than" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(BASE, initial={"kind": "random"}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
        assert "--seed: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_override_reaches_the_built_state(self, tmp_path):
        # --seed is applied before the run is built, so it draws the random initial state
        def outputs(name, seed, *args):
            cfg = write_cfg(tmp_path, dict(BASE, initial={"kind": "random"}, seed=seed),
                            f"{name}.json")
            assert main(["run", "--config", cfg, "--out", str(tmp_path / name), *args]) == 0
            return [(tmp_path / name / f).read_bytes()
                    for f in ("trace.csv", "snapshot_000000.csv")]

        overridden = outputs("overridden", 7, "--seed", "9")
        assert overridden == outputs("seed9", 9)
        assert overridden[1] != outputs("seed7", 7)[1]

    def test_infeasible_initial_rejected(self, tmp_path):
        bad = dict(BASE, initial={"kind": "constant", "value": 1.5})
        cfg = write_cfg(tmp_path, bad)
        assert main(["run", "--config", cfg]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_integer_too_long_to_parse(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"seed": 1' + "0" * 5000 + "}")
        assert main(["run", "--config", str(path)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_snapshot_round_trips_as_initial_condition(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        snap = str(out / "snapshot_000010.csv")
        values = read_snapshot_values(snap, 17)
        restart = dict(BASE, initial={"kind": "file", "path": snap})
        cfg2 = load_config(write_cfg(tmp_path, restart, "restart.json"))
        mesh, p, _, u0, _ = cfg2.build_all()
        assert np.array_equal(u0, values)

    def test_zero_padded_id_beyond_int_digits_reads_as_its_node(self, tmp_path):
        # int() refuses more than 4300 digits; zero padding leaves the id in range
        snap = tmp_path / "snap.csv"
        rows = [SNAPSHOT_ROWS[0], "0,0,0,0,0.5", "1,0,0,0,0.25", "0" * 5000 + "2,0,0,0,0.125"]
        snap.write_text("\n".join(rows) + "\n")
        assert read_snapshot_values(str(snap), 3).tolist() == [0.5, 0.25, 0.125]

    @pytest.mark.parametrize("line,row,message", [
        (5, "3.5,0,0,0,0.5", "node_id must be a non-negative integer"),
        (5, "3_0,0,0,0,0.5", "node_id must be a non-negative integer"),
        (5, "3,0,0,0,half", "value must be a number"),
        (5, "3,0,0,0,inf", "value must be finite"),
        (5, "3,0,0,0,nan", "value must be finite"),
        (19, "3,0,0,0,0.25", "node id 3 appears twice"),
        (5, "3,0,0,0,0_5", "value must be a number"),
        (5, "3,0,0,0,\uff11.5", "value must be a number"),
        (5, "\u0663,0,0,0,0.5", "node_id must be a non-negative integer"),
        (5, "1" + "0" * 5000 + ",0,0,0,0.5", f"node id 1{'0' * 5000} out of range for this mesh"),
    ], ids=["fractional-id", "underscored-id", "text-value", "inf", "nan", "duplicate-id",
            "underscored-value", "fullwidth-value", "arabic-indic-id", "id-beyond-int-digits"])
    def test_malformed_snapshot_row_rejected(self, tmp_path, capsys, line, row, message):
        snap = tmp_path / "snap.csv"
        snap.write_text("\n".join(SNAPSHOT_ROWS[:line - 1] + [row] + SNAPSHOT_ROWS[line:]) + "\n")
        wells = {"kind": "quadratic", "c": 1.0}
        cfg = write_cfg(tmp_path, dict(BASE, initial={"kind": "file", "path": str(snap)},
                                       energy={**BASE["energy"], "bulk_potential": wells,
                                               "bdry_potential": wells}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"initial.path: {snap} row {line} ({row!r}): {message}" in err
        assert not (tmp_path / "o").exists()

    def test_undecodable_snapshot_rejected(self, tmp_path, capsys):
        snap = tmp_path / "snap.csv"
        snap.write_bytes(b"node_id,x,y,is_boundary,value\n0,0,0,0,\xff\n")
        cfg = write_cfg(tmp_path, dict(BASE, initial={"kind": "file", "path": str(snap)}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"initial.path: cannot read {snap}" in capsys.readouterr().err

    def test_unwritable_output_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        cfg = write_cfg(tmp_path, BASE)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "file" / "o")]) == 2
        assert "cannot write outputs: " in capsys.readouterr().err

    @pytest.mark.parametrize("mesh", [
        *({"kind": "disc", "R": R, "nr": 4, "ntheta": 8}
          for R in (1e-100, 1e-170, 5e-324, 1e100, 1e150, 1e200, 1e300)),
        {"kind": "interval", "L": 1e-320, "n": 8},
        {"kind": "interval", "L": 5e-324, "n": 8},
    ], ids=lambda mesh: f"{mesh['kind']}-{mesh.get('R', mesh.get('L'))}")
    def test_mesh_out_of_double_range_exits_2_without_a_warning(self, tmp_path, capsys, mesh):
        # its cell operators or node masses under- or overflow though every field is positive
        cfg = write_cfg(tmp_path, {**BASE, "mesh": mesh})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        fields = "mesh.R, mesh.nr, mesh.ntheta" if mesh["kind"] == "disc" else "mesh.L, mesh.n"
        assert f"{fields} = " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("R", [1e-60, 1e60])
    def test_extreme_radius_in_double_range_builds(self, R):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = config_from_dict({**DISC, "mesh": {"kind": "disc", "R": R, "nr": 4, "ntheta": 8}}
                                    ).build_all()[0]
        assert np.isfinite(mesh.cell_ops).all() and np.all(mesh.mass > 0.0)

    @pytest.mark.parametrize("above", [0, 1], ids=["largest", "one-more"])
    def test_interval_node_count_bounded_by_mesh_memory(self, tmp_path, capsys, above):
        n = MAX_MESH_BYTES // IntervalMesh.node_bytes - 1 + above  # n cells, n + 1 nodes
        cfg = write_cfg(tmp_path, {**BASE, "mesh": {"kind": "interval", "L": 1.0, "n": n}})
        tracemalloc.start()
        try:
            with mock.patch.object(acgf.cli, "run_flow", lambda *a, **k: (None, [], [])):
                code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if above:
            assert code == 2
            assert f"mesh.n: {n + 1} nodes need" in capsys.readouterr().err
            assert peak < 2**20  # refused before the mesh arrays are made
        else:
            assert code == 0
            assert peak <= MAX_MESH_BYTES

    def test_indefinite_newton_matrix_exits_1(self, tmp_path, capsys, monkeypatch):
        hessian = acgf.energy.hessian
        monkeypatch.setattr(acgf.energy, "hessian", lambda *a: -hessian(*a))
        cfg = write_cfg(tmp_path, BASE)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "step 1: Newton matrix is not positive definite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_newton_matrix_exits_1(self, tmp_path, capsys, monkeypatch, value):
        hessian = acgf.energy.hessian

        def spoiled(*a):
            band = hessian(*a)
            band[0, 3] = value
            return band

        monkeypatch.setattr(acgf.energy, "hessian", spoiled)
        cfg = write_cfg(tmp_path, BASE)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "step 1: non-finite Newton matrix" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestConfigEcho:
    def test_round_trip_identical(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, BASE))
        echo = cfg.resolved()
        reparsed = config_from_dict(json.loads(json.dumps(echo)))
        assert reparsed.resolved() == echo

    def test_echo_with_the_removed_scheme_flag_reparses(self, tmp_path):
        # as written before the fully implicit scheme was removed
        echo = {**BASE, "energy": {
            "kappa": 0.2, "eps": 0.0, "delta": 0.1, "lambda": 0.1,
            "bulk_potential": {"kind": "indicator", "lo": -1.0, "hi": 1.0},
            "bdry_potential": {"kind": "indicator", "lo": -1.0, "hi": 1.0},
            "perturbation": {"kind": "neg_quadratic"}},
            "flow": {"tau": 0.05, "T": 0.5, "inner_tol": 4.123105625617661e-09,
                     "inner_max_iters": 200, "semi_implicit_G": True},
            "output_dir": "out"}
        cfg = load_config(write_cfg(tmp_path, echo))
        assert cfg.resolved() == {**echo, "flow": {k: v for k, v in echo["flow"].items()
                                                   if k != "semi_implicit_G"}}
        out = tmp_path / "o"
        assert main(["run", "--config", write_cfg(tmp_path, echo, "echo.json"),
                     "--out", str(out)]) == 0
        assert main(["run", "--config", write_cfg(tmp_path, BASE), "--out", str(tmp_path / "b")]) == 0
        assert (out / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()

    def test_inner_tol_resolved_to_a_number(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, BASE))
        assert cfg.flow["inner_tol"] == pytest.approx(1e-9 * np.sqrt(17))

    def test_echo_lists_every_field(self, tmp_path):
        wells = {"kind": "quadratic"}
        raw = dict(BASE, energy={"kappa": 0.2, "bulk_potential": wells, "bdry_potential": wells,
                                 "perturbation": {"bulk": {"kind": "neg_quadratic"}}},
                   initial={"kind": "random"}, forcing={"kind": "constant", "bulk": 0.5})
        out = tmp_path / "o"
        assert main(["run", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 0
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["energy"]["bulk_potential"] == echo["energy"]["bdry_potential"] \
            == {"kind": "quadratic", "c": 1.0}
        assert echo["energy"]["perturbation"] == {"bulk": {"kind": "neg_quadratic"},
                                                  "boundary": {"kind": "none"}}
        assert echo["initial"] == {"kind": "random", "amplitude": 1.0}
        assert echo["forcing"] == {"kind": "constant", "bulk": 0.5, "boundary": 0.0}
        assert config_from_dict(echo).resolved() == echo

    def test_seed_and_out_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(BASE, seed=1))
        out = str(tmp_path / "elsewhere")
        assert main(["run", "--config", cfg, "--out", out, "--seed", "9"]) == 0
        echo = json.loads((tmp_path / "elsewhere" / "config_echo.json").read_text())
        assert echo["seed"] == 9 and echo["output_dir"] == out


class TestSweepCommands:
    def test_sweep_eps_single_entry_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, DISC)
        out = str(tmp_path / "rep")
        rc = main(["sweep-eps", "--config", cfg, "--out", out,
                   "--eps-list", "0.5", "--eps0", "0.5"])
        assert rc == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert report["passed"] and report["e_h"] == [0.0]
        assert (tmp_path / "rep" / "summary.csv").exists()

    def test_sweep_eps_empty_list_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, DISC)
        assert main(["sweep-eps", "--config", cfg, "--eps-list", "", "--eps0", "0.0"]) == 2

    def test_sweep_eps_on_an_interval_names_no_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE)
        assert main(["sweep-eps", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--eps-list", "0.5", "--eps0", "0.0"]) == 2
        assert "configuration error: the eps sweep needs a disc mesh" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_eps_decreasing(self, tmp_path):
        cfg = write_cfg(tmp_path, DISC)
        out = str(tmp_path / "rep2")
        rc = main(["sweep-eps", "--config", cfg, "--out", out,
                   "--eps-list", "0.8,0.3", "--eps0", "0.0"])
        assert rc == 0
        report = json.loads((tmp_path / "rep2" / "report.json").read_text())
        assert report["e_h"][1] < report["e_h"][0]
        assert len(list((tmp_path / "rep2").glob("trace_*.csv"))) == 3

    def test_sweep_reg(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = str(tmp_path / "reg")
        rc = main(["sweep-reg", "--config", cfg, "--out", out,
                   "--pairs", "0.5:0.5,0.25:0.25,0.125:0.125"])
        assert rc == 0
        # pair params must not smuggle commas into the summary rows
        for line in (tmp_path / "reg" / "summary.csv").read_text().strip().splitlines():
            assert line.count(",") == 3

    def test_sweep_reg_bad_pairs_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        assert main(["sweep-reg", "--config", cfg, "--pairs", "0.5"]) == 2

    @pytest.mark.parametrize("command,args,message", [
        ("sweep-reg", ["--pairs", "a:b"], "--pairs: expected a finite real, got 'a'"),
        ("sweep-reg", ["--pairs", "0.5:0.5,0.25:inf"], "--pairs: expected a finite real, got 'inf'"),
        ("sweep-dep", ["--magnitudes", "inf"], "--magnitudes: expected a finite real, got 'inf'"),
        ("sweep-dep", ["--magnitudes", "nan"], "--magnitudes: expected a finite real, got 'nan'"),
        ("sweep-eps", ["--eps-list", "0.5,nan", "--eps0", "0.0"],
         "--eps-list: expected a finite real, got 'nan'"),
        ("sweep-reg", ["--pairs", "0.5:-inf"], "--pairs: expected a finite real, got '-inf'"),
    ])
    def test_malformed_number_flag_rejected(self, tmp_path, capsys, command, args, message):
        cfg = write_cfg(tmp_path, DISC)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")] + args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,args,message", [
        ("sweep-eps", ["--eps-list", "0_8,0_4", "--eps0", "0.0"],
         "--eps-list: expected a finite real, got '0_8'"),
        ("sweep-dep", ["--magnitudes", "0_1"], "--magnitudes: expected a finite real, got '0_1'"),
        ("sweep-reg", ["--pairs", "\uff10.5:0.5"],
         "--pairs: expected a finite real, got '\uff10.5'"),
        ("sweep-dep", ["--magnitudes", "0.1,\u0660.01"],
         "--magnitudes: expected a finite real, got '\u0660.01'"),
        ("sweep-eps", ["--eps-list", "0.5", "--eps0", "0_5"],
         "--eps0: expected a finite real, got '0_5'"),
        ("sweep-eps", ["--eps-list", "0.5", "--eps0", "\uff10.5"],
         "--eps0: expected a finite real, got '\uff10.5'"),
    ], ids=["eps-list", "magnitudes", "pairs", "magnitudes-arabic-indic", "eps0-separator",
            "eps0-fullwidth"])
    def test_digit_separator_or_non_ascii_digit_rejected(self, tmp_path, capsys, command, args,
                                                        message):
        # float() reads "0_8" as 8 and "\uff10.5" (a fullwidth zero) as 0.5
        cfg = write_cfg(tmp_path, DISC)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")] + args) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,args,message", [
        ("sweep-reg", ["--pairs", "2:0.5"], "--pairs: delta must lie in (0, 1], got 2.0"),
        ("sweep-reg", ["--pairs", "0.5:0.5,0.25:0"], "--pairs: lambda must lie in (0, 1], got 0.0"),
        ("sweep-eps", ["--eps-list", "0.5", "--eps0", "-1"],
         "--eps0: eps must be nonnegative with a finite square, got -1.0"),
        ("sweep-eps", ["--eps-list", "1e200", "--eps0", "0"],
         "--eps-list: eps must be nonnegative with a finite square, got 1e+200"),
        ("sweep-eps", ["--eps-list", "0.5", "--eps0", "inf"],
         "--eps0: expected a finite real, got 'inf'"),
        ("sweep-dep", ["--magnitudes", "1e300"],
         "--magnitudes: 1e+300 gives the data perturbation a squared norm of inf"),
        ("sweep-dep", ["--magnitudes", "0.1,-0.01"], "--magnitudes: must be positive"),
        ("sweep-dep", ["--magnitudes", "0.01,0.1"], "--magnitudes: must descend"),
        ("sweep-reg", ["--pairs", "0.25:0.25,0.5:0.5"], "--pairs: must descend"),
        ("sweep-eps", ["--eps-list", "0.1,0.4", "--eps0", "0"],
         "--eps-list: must approach eps0 strictly"),
    ])
    def test_every_member_checked_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                   command, args, message):
        def no_solve(*a, **kw):
            raise AssertionError("a member was solved before every member was checked")

        monkeypatch.setattr(acgf.experiments, "run_flow", no_solve)
        cfg = write_cfg(tmp_path, DISC)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")] + args) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_dep(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        out = str(tmp_path / "dep")
        rc = main(["sweep-dep", "--config", cfg, "--out", out,
                   "--magnitudes", "0.1,0.01"])
        assert rc == 0
        report = json.loads((tmp_path / "dep" / "report.json").read_text())
        assert report["verdicts"]["deterministic_baseline"]


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("flow,perturbation,magnitude,null", [
    # L_g = 1000 at the stability guard: exp(2 L_g T) overflows a float
    ({"tau": 5e-4, "T": 0.36}, {"kind": "tabulated", "points": [[-1, 1000], [1, -1000]]},
     "0.1", "envelope"),
    # every response ratio underflows to 0, so their spread is infinite
    ({"tau": 0.05, "T": 0.1}, {"kind": "neg_quadratic"}, "1e-160", "ratio_spread"),
], ids=["overflowing-envelope", "vanishing-ratios"])
def test_sweep_dep_report_is_strict_json(tmp_path, capsys, flow, perturbation, magnitude, null):
    payload = dict(BASE, mesh={"kind": "interval", "L": 1.0, "n": 4}, flow=flow,
                   energy={"kappa": 0.2, "perturbation": perturbation})
    out = tmp_path / "dep"
    assert main(["sweep-dep", "--config", write_cfg(tmp_path, payload), "--out", str(out),
                 "--magnitudes", magnitude]) == 0
    assert capsys.readouterr().err == ""
    report = strict_json((out / "report.json").read_text())
    assert report["extra"][null] is None and report["passed"]


@pytest.mark.parametrize("command,args", [
    ("run", []),
    ("sweep-eps", ["--eps-list", "0.5", "--eps0", "0.0"]),
    ("sweep-reg", ["--pairs", "0.5:0.5,0.25:0.25"]),
    ("sweep-dep", ["--magnitudes", "0.1"]),
])
def test_thread_count_is_not_a_setting(tmp_path, capsys, monkeypatch, command, args):
    monkeypatch.setenv("ACGF_THREADS", "0")
    args = [command, "--config", write_cfg(tmp_path, DISC), "--out", str(tmp_path / "o")] + args
    assert main(args + ["--threads", "2"]) == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert main(args) == 0


def test_probe_mosco_is_not_a_command(tmp_path, capsys):
    args = ["probe-mosco", "--config", write_cfg(tmp_path, DISC), "--out", str(tmp_path / "o")]
    assert main(args) == 2
    assert "invalid choice: 'probe-mosco'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


def test_sweep_reports_are_byte_stable(tmp_path):
    cfg = write_cfg(tmp_path, DISC)
    out = str(tmp_path / "stable")
    args = ["sweep-eps", "--config", cfg, "--out", out,
            "--eps-list", "0.6,0.3", "--eps0", "0.0"]
    assert main(args) == 0
    first = (tmp_path / "stable" / "report.json").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "stable" / "report.json").read_bytes() == first


@pytest.mark.parametrize("mesh", [IntervalMesh(1.0, 8), DiscMesh(1.0, 4, 8)],
                         ids=["interval", "disc"])
def test_snapshot_bytes_match_per_row_formatting(tmp_path, mesh):
    rng = np.random.default_rng(7)
    extremes = np.resize([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
                         mesh.num_nodes)
    snapshots = [(0, rng.uniform(-1.0, 1.0, mesh.num_nodes)),
                 (3, rng.standard_normal(mesh.num_nodes) * 1e-300), (5, extremes)]
    acgf.runio.write_run_outputs(str(tmp_path), mesh, {}, [], snapshots)
    for step, values in snapshots:
        rows = ["node_id,x,y,is_boundary,value"] + [
            ",".join([str(i), fmt(mesh.coords[i, 0]), fmt(mesh.coords[i, 1]),
                      "1" if mesh.is_boundary[i] else "0", fmt(values[i])])
            for i in range(mesh.num_nodes)]
        expected = ("\n".join(rows) + "\n").encode("utf-8")
        assert (tmp_path / f"snapshot_{step:06d}.csv").read_bytes() == expected


ID_FAULTS = ["+3", "1_0", "\u0663", "3.0", " 3", "3\x85", "1" + "0" * 25]
VALUE_FAULTS = ["0_5", "\uff11.5", "nan", "inf", "-inf", "1e999", "half", "", "0.5\x0b1"]
LINE_ENDS = ["\n", "\n", "\r\n", "\r"]
PADDING = ["", "", " ", "\t", "\x0b", "\x85"]


@st.composite
def faulty_snapshots(draw):
    """(text, node count) of a snapshot CSV whose rows carry randomly injected faults."""
    n = draw(st.integers(3, 10))
    rows = [[str(i), "0", "0", "0", "%.17g" % draw(st.floats(allow_nan=False, allow_infinity=False))]
            for i in draw(st.permutations(range(n)))]
    for k in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        row = rows[k]
        fault = draw(st.sampled_from(["fields", "id", "range", "duplicate", "value", "padding"]))
        if fault == "fields":
            rows[k] = draw(st.sampled_from([row[:4], row + ["0"], row[:1]]))
        elif fault == "id":
            row[0] = draw(st.sampled_from(ID_FAULTS))
        elif fault == "range":
            row[0] = draw(st.sampled_from([str(n), str(n + 7), "00" + row[0], "0" * 30 + str(n)]))
        elif fault == "duplicate":
            row[0] = rows[draw(st.integers(0, n - 1))][0]
        elif fault == "value":
            row[-1] = draw(st.sampled_from(VALUE_FAULTS))
        else:
            row[draw(st.sampled_from([0, -1]))] += draw(st.sampled_from(["\x0b", "\x85"]))
    if draw(st.booleans()):
        del rows[draw(st.integers(0, len(rows) - 1))]
    lines = ["node_id,x,y,is_boundary,value"] + [",".join(r) for r in rows]
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    if draw(st.integers(0, 3)) == 0:  # str.splitlines() ends a line here, a file does not
        ends[draw(st.integers(0, len(ends) - 1))] = draw(st.sampled_from(["\x0b", "\x85"]))
    text = ""
    for line, end in zip(lines, ends):
        if draw(st.integers(0, 4)) == 0:  # a blank line
            text += draw(st.sampled_from(PADDING)) + draw(st.sampled_from(LINE_ENDS))
        pad = st.sampled_from(PADDING)
        text += draw(pad) + line + draw(pad) + end
    return text, n


def read_outcome(read, path, nodes):
    try:
        return read(path, nodes).tobytes()
    except ConfigError as e:
        return str(e)


@settings(max_examples=400, deadline=None)
@given(faulty_snapshots())
def test_snapshot_reader_agrees_with_the_per_row_reader(case):
    text, nodes = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snap.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert (read_outcome(read_snapshot_values, path, nodes)
                == read_outcome(per_row_snapshot_values, path, nodes))


def test_fmt_round_trips_float64():
    for x in (np.pi, 1.0 / 3.0, 1e-17, -2.5e300):
        assert float(fmt(x)) == x


def test_trace_values_round_trip(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "rt"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert len(row) == len(header) == 13
    # full-precision reals with '.' decimal
    phi = float(row[header.index("phi_reg")])
    assert np.isfinite(phi)


def test_config_error_lists_field(tmp_path):
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"flow": {"tau": -1.0, "T": 1.0}})
    assert "tau" in str(exc.value)


# a 4 x 8 disc run of two steps with every section and optional field present,
# so that the fuzz test below can replace each of them
FUZZ_BASE = {
    "mesh": {"kind": "disc", "R": 1.0, "nr": 4, "ntheta": 8},
    "energy": {
        "kappa": 0.2, "eps": 0.5, "delta": 0.1, "lambda": 0.1,
        "bulk_potential": {"kind": "tabulated", "points": [[-1, 0.5], [0, 0], [1, 0.5]]},
        "bdry_potential": {"kind": "indicator", "lo": -1.0, "hi": 1.0},
        "perturbation": {"kind": "neg_quadratic"},
    },
    "flow": {"tau": 0.25, "T": 0.5, "inner_tol": 1e-8, "inner_max_iters": 50},
    "initial": {"kind": "random", "amplitude": 0.9},
    "forcing": {"kind": "constant", "bulk": 0.5, "boundary": -0.5},
    "snapshot_every": 1, "seed": 2, "output_dir": "out",
}


# numbers stay small, but for two huge ones, so that no mesh gets large; the
# mesh size ceiling has tests of its own
SMALL_JSON = json_values(st.integers(-64, 64) | st.floats(-64.0, 64.0)
                         | st.sampled_from([1e300, -1e300]))


def _at_most_two_steps(mesh, p, fp, u0, forcing, snapshot_every=0, guide=None):
    """run_flow cut to two steps: a longer T or a smaller tau adds run time, not exit paths.

    A guide comes from a run cut the same way, so it holds the states of two steps too.
    """
    fp = dataclasses.replace(fp, T=min(fp.T, 2.0 * fp.tau))
    return acgf.flow.run_flow(mesh, p, fp, u0, forcing, snapshot_every=snapshot_every,
                              guide=guide)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(key_paths(FUZZ_BASE))), SMALL_JSON)
def test_run_exits_0_1_or_2_whatever_one_field_holds(path, value):
    raw = copy.deepcopy(FUZZ_BASE)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(acgf.cli, "run_flow", _at_most_two_steps):
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        assert main(["run", "--config", cfg, "--out", os.path.join(tmp, "out")]) in (0, 1, 2)


# text for the number flags of the sweep commands: numbers, near-numbers and junk
NUMBER_TEXT = (st.floats().map(str) | st.integers(-3, 3).map(str)
               | st.text(alphabet="0123456789.:-+einfa_ ", max_size=6))
FLAG_TEXT = (st.lists(NUMBER_TEXT | st.tuples(NUMBER_TEXT, NUMBER_TEXT).map(":".join),
                      max_size=4).map(",".join)
             | st.text(max_size=8))
SWEEPS = [("sweep-eps", "--eps-list", ["--eps0", "0.0"]), ("sweep-reg", "--pairs", []),
          ("sweep-dep", "--magnitudes", [])]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SWEEPS), FLAG_TEXT)
def test_sweeps_exit_0_1_or_2_whatever_the_flag_holds(sweep, text):
    command, flag, rest = sweep
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(acgf.experiments, "run_flow", _at_most_two_steps):
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(FUZZ_BASE, fh)
        args = [command, "--config", cfg, "--out", os.path.join(tmp, "out"), flag, text]
        assert main(args + rest) in (0, 1, 2)
