"""Configuration resolution and the initial/forcing builders."""

import numpy as np
import pytest

from acgf.config import config_from_dict
from acgf.errors import ConfigError


def test_defaults_fill_in():
    cfg = config_from_dict({})
    assert cfg.mesh["kind"] == "interval" and cfg.mesh["n"] == 64
    assert cfg.energy["kappa"] == 1.0
    assert cfg.energy["bulk_potential"]["kind"] == "indicator"
    assert cfg.flow["inner_tol"] is not None
    assert cfg.forcing["kind"] == "zero"


def test_initial_constant_and_random_feasible():
    cfg = config_from_dict({"initial": {"kind": "constant", "value": 0.25}})
    mesh, p, _, u0, _ = cfg.build_all()
    assert np.all(u0 == 0.25)
    cfg = config_from_dict({"initial": {"kind": "random", "amplitude": 0.5}, "seed": 4})
    mesh, p, _, u0, _ = cfg.build_all()
    assert np.all(np.abs(u0) <= 0.5)
    # same seed reproduces the draw
    mesh2, p2, _, u0b, _ = config_from_dict(
        {"initial": {"kind": "random", "amplitude": 0.5}, "seed": 4}).build_all()
    assert np.array_equal(u0, u0b)


def test_two_phase_halves_by_first_coordinate():
    cfg = config_from_dict({
        "mesh": {"kind": "disc", "R": 1.0, "nr": 4, "ntheta": 8},
        "initial": {"kind": "two_phase", "amplitude": 0.7},
    })
    mesh, _, _, u0, _ = cfg.build_all()
    assert np.all(u0[mesh.coords[:, 0] < 0] == 0.7)
    assert np.all(u0[mesh.coords[:, 0] >= 0] == -0.7)


def test_forcing_tabulated_from_config():
    cfg = config_from_dict({
        "forcing": {"kind": "tabulated", "times": [0.0, 0.2],
                    "bulk": [1.0, -1.0], "boundary": [0.5, -0.5]},
    })
    mesh, _, _, _, forcing = cfg.build_all()
    early = forcing.at_time(0.1)
    late = forcing.at_time(0.3)
    assert early[1] == 1.0 and early[0] == 0.5
    assert late[1] == -1.0 and late[0] == -0.5


def test_unknown_kinds_rejected_with_field_names():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"mesh": {"kind": "hexgrid"}})
    assert "mesh.kind" in str(exc.value)
    with pytest.raises(ConfigError):
        config_from_dict({"initial": {"kind": "wavelet"}})
    with pytest.raises(ConfigError):
        config_from_dict({"forcing": {"kind": "noise"}})


def test_multiple_errors_reported_together():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({
            "energy": {"kappa": -1.0},
            "flow": {"tau": -0.1, "T": 1.0},
        })
    msg = str(exc.value)
    assert "kappa" in msg and "tau" in msg


def test_fully_implicit_flag_parses():
    cfg = config_from_dict({
        "energy": {"perturbation": {"kind": "neg_quadratic"}},
        "flow": {"tau": 0.6, "T": 1.0, "semi_implicit_G": False},
    })
    fp = cfg.build_flow_params()
    assert not fp.semi_implicit_g
    # the fully implicit path has its own convexity guard
    with pytest.raises(ConfigError):
        config_from_dict({
            "energy": {"perturbation": {"kind": "neg_quadratic"}},
            "flow": {"tau": 1.2, "T": 2.0, "semi_implicit_G": False},
        })


def test_initial_file_read_once_and_copied(tmp_path, monkeypatch):
    import acgf.runio as runio
    from acgf.meshes import IntervalMesh

    mesh = IntervalMesh(1.0, 8)
    values = np.linspace(-0.5, 0.5, mesh.num_nodes)
    path = tmp_path / "snap.csv"
    path.write_text(runio.snapshot_to_csv(mesh, values))
    reads = []
    original = runio.read_snapshot_values
    monkeypatch.setattr(runio, "read_snapshot_values",
                        lambda *a: reads.append(a) or original(*a))
    cfg = config_from_dict({"mesh": {"kind": "interval", "n": 8},
                            "initial": {"kind": "file", "path": str(path)}})
    u0 = cfg.build_all()[3]
    u0[:] = 0.0
    assert np.array_equal(cfg.build_all()[3], values)
    assert len(reads) == 1
