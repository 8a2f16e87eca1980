"""Configuration resolution and the initial/forcing builders."""

import copy
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgf.config import RunConfig, config_from_dict
from acgf.errors import ConfigError
from conftest import json_values, key_paths


def test_defaults_fill_in():
    cfg = config_from_dict({})
    assert cfg.mesh["kind"] == "interval" and cfg.mesh["n"] == 64
    assert cfg.energy["kappa"] == 1.0
    assert cfg.energy["bulk_potential"]["kind"] == "indicator"
    assert cfg.flow["inner_tol"] is not None
    assert cfg.build_all()[2].inner_tol == cfg.flow["inner_tol"]
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
    # the 64-cell interval's end node has w_bulk 1/128 of its mass 129/128
    assert early[1] == 1.0 and early[0] == pytest.approx(0.5 + 0.5 / 129, rel=1e-15)
    assert late[1] == -1.0 and late[0] == pytest.approx(-0.5 - 0.5 / 129, rel=1e-15)


def test_unknown_kinds_rejected_with_field_names():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"mesh": {"kind": "hexgrid"}})
    assert "mesh.kind" in str(exc.value)
    with pytest.raises(ConfigError):
        config_from_dict({"initial": {"kind": "wavelet"}})
    with pytest.raises(ConfigError):
        config_from_dict({"forcing": {"kind": "noise"}})


def test_step_count_bound():
    from acgf.flow import MAX_STEPS

    assert config_from_dict({"flow": {"tau": 1.0, "T": MAX_STEPS}}).build_all()[2].num_steps \
        == MAX_STEPS
    with pytest.raises(ConfigError, match="flow: T / tau"):
        config_from_dict({"flow": {"tau": 1.0, "T": MAX_STEPS * (1 + 1e-15)}})


def test_multiple_errors_reported_together():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({
            "energy": {"kappa": -1.0},
            "flow": {"tau": -0.1, "T": 1.0},
        })
    msg = str(exc.value)
    assert "kappa" in msg and "tau" in msg


def test_initial_file_read_once_and_copied(tmp_path, monkeypatch):
    import acgf.runio as runio
    from acgf.meshes import IntervalMesh

    mesh = IntervalMesh(1.0, 8)
    values = np.linspace(-0.5, 0.5, mesh.num_nodes)
    path = tmp_path / "snap.csv"
    path.write_text(runio._snapshot_csv(runio._row_prefixes(mesh), values))
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


@pytest.mark.parametrize("raw,message", [
    ({"initial": {"kind": "file", "path": 3}}, "initial.path must be a string"),
    ({"initial": {"kind": "file"}}, "initial.path: required"),
    ({"output_dir": {"a": 1}}, "output_dir must be a string"),
    ({"initial": {"kind": "random"}, "seed": -1}, "seed: must be >= 0"),
    ({"snapshot_every": -1}, "snapshot_every: must be >= 0"),
    ({"flow": {"semi_implicit_G": "false"}}, "flow.semi_implicit_G: the fully implicit scheme"),
    ({"energy": {"bulk_potential": {"kind": "indicator", "lo": "-1"}}},
     "energy.bulk_potential.lo must be a number"),
    ({"energy": {"perturbation": {"bulk": None}}}, "energy.perturbation.bulk: expected an object"),
    ({"energy": {"perturbation": {"kind": "tabulated", "points": [[0, 1], [1]]}}},
     "energy.perturbation.points must be a list of [t, value] pairs"),
    ({"forcing": {"kind": "tabulated", "times": 0.0, "bulk": [1.0], "boundary": [1.0]}},
     "forcing.times must be a list of numbers"),
    ({"lamda": 0.001}, "lamda: unknown field"),
    ({"snapshot_evry": 1}, "snapshot_evry: unknown field"),
    ({"flow": {"dt": 5}}, "flow.dt: unknown field"),
    ({"mesh": {"kind": "disc", "nt": 8}}, "mesh.nt: unknown field"),
    ({"energy": {"kapa": 0.2}}, "energy.kapa: unknown field"),
    ({"initial": {"kind": "constant", "val": 0.5}}, "initial.val: unknown field"),
    ({"forcing": {"kind": "constant", "bdry": 1.0}}, "forcing.bdry: unknown field"),
    ({"energy": {"bulk_potential": {"kind": "indicator", "low": -1.0}}},
     "energy.bulk_potential.low: unknown field"),
    ({"energy": {"perturbation": {"kind": "tabulated", "point": [[0, 0], [1, 1]]}}},
     "energy.perturbation.point: unknown field"),
    ({"energy": {"perturbation": {"bulk": {"kind": "none", "c": 1.0}}}},
     "energy.perturbation.bulk.c: unknown field"),
    ({"flow": {"semi_implicit_G": False}}, "scheme was removed; only true is accepted, got False"),
    ({"flow": {"semi_implicit_G": 1}}, "scheme was removed; only true is accepted, got 1"),
    ({"mesh": {"kind": "disc", "n": 999}},
     "mesh.n: unknown field (allowed for kind disc: R, kind, nr, ntheta)"),
    ({"mesh": {"kind": "interval", "nr": 4}}, "mesh.nr: unknown field (allowed for kind interval"),
    ({"forcing": {"kind": "zero", "bulk": 3}},
     "forcing.bulk: unknown field (allowed for kind zero: kind)"),
    ({"forcing": {"bulk": 3}}, "forcing.bulk: unknown field (allowed for kind zero: kind)"),
    ({"forcing": {"kind": "constant", "times": [0.0]}}, "forcing.times: unknown field"),
    ({"initial": {"kind": "two_phase", "value": 0.1}}, "initial.value: unknown field"),
    ({"initial": {"amplitude": 0.5}},
     "initial.amplitude: unknown field (allowed for kind constant: kind, value)"),
    ({"initial": {"kind": "random", "path": "x.csv"}}, "initial.path: unknown field"),
    ({"energy": {"bulk_potential": {"kind": "quadratic", "lo": -1.0}}},
     "energy.bulk_potential.lo: unknown field (allowed for kind quadratic: c, kind)"),
    ({"energy": {"bdry_potential": {"kind": "indicator", "points": [[0, 0], [1, 1]]}}},
     "energy.bdry_potential.points: unknown field"),
    ({"energy": {"perturbation": {"kind": "neg_quadratic", "points": [[0, 0], [1, 1]]}}},
     "energy.perturbation.points: unknown field"),
    ({"energy": {"perturbation": {"kind": "none", "bulk": {"kind": "neg_quadratic"}}}},
     "energy.perturbation.kind: unknown field (allowed: boundary, bulk)"),
    ({"energy": {"perturbation": {"boundary": {"kind": "none", "bulk": {}}}}},
     "energy.perturbation.boundary.bulk: unknown field"),
    ({"initial": {"kind": "file", "path": "a\0.csv"}},
     "initial.path must be a string without NUL characters"),
    ({"output_dir": "out\0"}, "output_dir must be a string without NUL characters"),
    ({"energy": {"bulk_potential": {"kind": "mystery"}}},
     "energy.bulk_potential.kind: unknown kind 'mystery'"),
    ({"energy": {"bulk_potential": {"kind": 3}}}, "energy.bulk_potential.kind: unknown kind 3"),
    ({"energy": {"perturbation": {"kind": "cubic"}}},
     "energy.perturbation.kind: unknown kind 'cubic'"),
    ({"energy": {"bdry_potential": {"kind": "tabulated"}}},
     "energy.bdry_potential.points: required"),
    ({"energy": {"perturbation": {"bulk": {"kind": "tabulated"}}}},
     "energy.perturbation.bulk.points: required"),
    ({"forcing": {"kind": "tabulated", "times": [0.0], "bulk": [1.0]}},
     "forcing.boundary: required"),
    ({"mesh": {"kind": "disc", "nr": -4}}, "mesh.nr: must be >= 0"),
    ({"energy": {"kappa": 10**400}}, "energy.kappa must be finite"),
    ({"flow": {"T": 1e300}}, "flow: T / tau = 1e+302 asks for more than the 1048576 time steps"),
    ({"flow": {"tau": 1e-10, "T": 1e300}}, "flow: T / tau = inf asks for more than the 1048576"),
])
def test_ill_typed_field_named(raw, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(raw)


# every section and optional field present, so each can be replaced by junk
FULL = {
    "mesh": {"kind": "disc", "R": 1.0, "nr": 4, "ntheta": 8},
    "energy": {
        "kappa": 0.2, "eps": 0.5, "delta": 0.1, "lambda": 0.1,
        "bulk_potential": {"kind": "tabulated", "points": [[-1, 0.5], [0, 0], [1, 0.5]]},
        "bdry_potential": {"kind": "indicator", "lo": -1.0, "hi": 1.0},
        "perturbation": {"bulk": {"kind": "tabulated", "points": [[-1, 1], [1, -1]]},
                         "boundary": {"kind": "neg_quadratic"}},
    },
    "flow": {"tau": 0.01, "T": 0.02, "inner_tol": 1e-8, "inner_max_iters": 50,
             "semi_implicit_G": True},
    "initial": {"kind": "two_phase", "amplitude": 0.9},
    "forcing": {"kind": "tabulated", "times": [0.0, 0.01], "bulk": [0.1, 0.2],
                "boundary": [0.0, 0.1]},
    "snapshot_every": 1, "seed": 2, "output_dir": "out",
}


JSON = json_values(st.integers() | st.floats())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(key_paths(FULL))), JSON)
def test_any_json_value_yields_config_or_config_error(path, value):
    raw = copy.deepcopy(FULL)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        assert isinstance(config_from_dict(raw), RunConfig)
    except ConfigError:
        pass
