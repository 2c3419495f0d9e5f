"""Config validation, rate fitting, and deterministic artifact output."""

from __future__ import annotations

import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latcb
import latcb.lattice
from latcb import cli
from latcb.cli import main
from latcb.dynamics import InitialData, solve_cb_wave
from latcb.harness import (
    _CHECKS,
    _FIELD_SPECS,
    _PARAMS,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    _initial_field,
    _macro_force,
    csv_text,
    fit_rate,
    run,
)

from latcb.stability import legendre_hadamard_min, stability_constant
from latcb.static import SolverError
from latcb.stress import CBModel

import csv_reference
from point_gap import trig_grad

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CHAIN_POT = {"variant": "harmonic_chain", "a1": 2.0, "a2": -0.25}
LJ_POT = {"variant": "pair", "d": 1, "r_cut": 3.0, "phi": {"kind": "lennard_jones"}}
LJ_SQUARE_POT = {"variant": "pair", "d": 2, "r_cut": 2.0, "phi": {"kind": "lennard_jones"}}


def _stability_cfg(**over):
    obj = {
        "experiment": "stability",
        "potential": CHAIN_POT,
        "params": {"eigenprobe_N": 16},
        "tolerances": {"gamma_value": 1.0, "eigenprobe_value": 2.0},
        "seed": 0,
    }
    obj.update(over)
    return obj


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation_errors():
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig.from_dict({"experiment": "banana"})
    with pytest.raises(ConfigError, match="root"):
        ExperimentConfig.from_dict(["not", "a", "dict"])
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_dict(_stability_cfg(seed=-1))
    with pytest.raises(ConfigError, match="^config field 'params': must be a JSON object$"):
        ExperimentConfig.from_dict(_stability_cfg(params=["T", 1.0]))
    with pytest.raises(ConfigError, match="variant"):
        ExperimentConfig.from_dict({"experiment": "stability", "potential": {}})
    with pytest.raises(ConfigError, match="not resolvable"):
        ExperimentConfig.from_dict(
            {"experiment": "stability", "potential": {"variant": "nope"}}
        )
    with pytest.raises(ConfigError, match="geometry.d"):
        ExperimentConfig.from_dict(_stability_cfg(geometry={"d": 2}))


@pytest.mark.parametrize("d", ["x", None, 1.5, True])
def test_geometry_d_must_be_an_integer(tmp_path, capsys, d):
    path = _write_cfg(tmp_path, _stability_cfg(geometry={"d": d}))
    assert run(path, out_dir=tmp_path / "out") == 2
    assert "config error: config field 'geometry.d': must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("over, key", [({"experiment": ["stability"]}, "experiment"),
                                       ({"seed": True}, "seed"),
                                       ({"params": ["T", 1.0]}, "params")])
def test_config_root_types_return_two(tmp_path, capsys, over, key):
    # a list experiment is unhashable, a bool seed is an int to Python, and a
    # block must be an object before its keys are read
    path = _write_cfg(tmp_path, _stability_cfg(**over))
    assert run(path, out_dir=tmp_path / "out") == 2
    assert f"config error: config field {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["../esc/x", "sub/x", "..", ".", "a\\b", ""])
def test_name_must_be_a_plain_file_name(tmp_path, capsys, name):
    path = _write_cfg(tmp_path, _stability_cfg(name=name))
    assert run(path, out_dir=tmp_path / "out") == 2
    assert "config error: config field 'name'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_dotted_name_is_legal():
    assert ExperimentConfig.from_dict(_stability_cfg(name="statics_lj_delta0.01")).name == (
        "statics_lj_delta0.01")


@pytest.mark.parametrize("powers, coeffs", [([-12, -6], [1.0]), ([-12], [1.0, -2.0]), ([], [])])
def test_power_law_length_mismatch_returns_two(tmp_path, capsys, powers, coeffs):
    pot = {"variant": "pair", "d": 1, "r_cut": 3.0,
           "phi": {"kind": "power_law", "powers": powers, "coeffs": coeffs}}
    path = _write_cfg(tmp_path, {"experiment": "stability", "potential": pot})
    assert run(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error: config field 'potential': not resolvable" in err
    assert "powers and coeffs must be nonempty and of equal length" in err


_POWER_OVERFLOW = {"kind": "power_law", "powers": [-12, -6], "coeffs": [1e307, -2.0]}


@pytest.mark.parametrize("experiment", ["stability", "dispersion"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("pot, quantity", [
    ({"variant": "pair", "r_cut": 2.0, "phi": _POWER_OVERFLOW}, "phi''"),
    ({"variant": "eam", "r_cut": 1.5, "psi": _POWER_OVERFLOW}, "psi''"),
], ids=["pair", "eam"])
def test_nonfinite_reference_state_exits_two(tmp_path, capsys, experiment, d, pot, quantity):
    # phi'' (psi'') overflows at the reference bonds: before the check a 2D
    # stability run wrote "gamma": NaN and a dispersion run exited 3
    path = _write_cfg(tmp_path, {"experiment": experiment, "potential": {**pot, "d": d}})
    out = tmp_path / "out"
    assert main([experiment, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: config field 'potential': not resolvable: "
        f"{quantity} is not finite at the reference bond lengths\n")
    assert not out.exists()


def test_config_defaults():
    cfg = ExperimentConfig.from_dict(
        {"experiment": "stress-consistency", "potential": LJ_POT,
         "geometry": {"eps_list": [0.125, 0.0625, 0.03125]}}
    )
    assert cfg.name == "stress_consistency"
    assert cfg.seed == 0
    # instability-demo runs without a potential block
    demo = ExperimentConfig.from_dict({"experiment": "instability-demo"})
    assert demo.name == "instability_demo"


def test_eps_list_rules():
    def cfg(geometry):
        return ExperimentConfig.from_dict(
            {"experiment": "stress-consistency", "potential": LJ_POT,
             "geometry": geometry}
        )

    assert cfg({"eps_list": [0.03125, 0.125, 0.0625]}).eps_list() == [0.125, 0.0625, 0.03125]
    for bad in (
        {"eps_list": [0.3, 0.125, 0.0625]},          # not a reciprocal
        {"eps_list": [1.0 / 3.0, 0.125, 0.0625]},    # coarser than 1/4
        {"eps_list": [0.125, 0.125, 0.0625]},        # duplicate
        {"eps_list": [0.125, 0.0625]},               # too short
        {"eps_list": [0.125, 0.0625, 0.0]},          # zero spacing
        {"eps_list": [0.125, 0.0625, "x"]},          # not a number
        {"N_list": [8, 16, 32]},                     # not a geometry key
        {},                                           # missing entirely
    ):
        with pytest.raises(ConfigError):
            cfg(bad).eps_list()


@pytest.mark.parametrize("eps_list, written", [
    (["0.125", "0.0625", "0.03125"], "'0.125'"),  # strings that float() would read
    ([0.125, "1e-1", 0.03125], "'1e-1'"),         # a string that would run as 0.1
    ([0.125, 0.0625, True], "True"),              # a bool, once named as 1.0
])
def test_eps_list_entries_must_be_json_numbers(tmp_path, capsys, eps_list, written):
    cfg = {"experiment": "static-converge", "potential": LJ_POT,
           "geometry": {"eps_list": eps_list}}
    assert run(_write_cfg(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err.strip() == (
        "config error: config field 'geometry': spacings must be reciprocals of integers "
        f">= 4; got {written}")
    assert not (tmp_path / "out").exists()


def test_config_hash_ignores_key_order():
    a = ExperimentConfig.from_dict(_stability_cfg())
    flipped = dict(reversed(list(_stability_cfg().items())))
    b = ExperimentConfig.from_dict(flipped)
    assert a.config_hash == b.config_hash
    c = ExperimentConfig.from_dict(_stability_cfg(seed=1))
    assert c.config_hash != a.config_hash


def test_initial_field_amplitude_conventions():
    f = _initial_field({"grad_amplitude": 0.05, "mode": 2})
    # gradient sup of a sin(2 pi m X) is 2 pi m a
    X = (np.arange(512) / 512.0)[:, None]
    assert float(np.max(np.abs(trig_grad(f, X)))) == pytest.approx(0.05, rel=1e-6)
    g = _initial_field({"amplitude": 0.3, "mode": 1, "kind": "cos"})
    assert g.eval(np.array([[0.0]]))[0, 0] == pytest.approx(0.3, rel=1e-14)
    h = _initial_field({"terms": [[[1], 0, "sin", 0.1], [[2], 0, "cos", 0.05]]})
    assert h.eval(np.array([[0.25]]))[0, 0] == pytest.approx(0.1 - 0.05, rel=1e-12)
    with pytest.raises(ValueError, match="nonzero mode"):
        _initial_field({"grad_amplitude": 0.05, "mode": 0})


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(
    p=st.floats(min_value=0.5, max_value=3.0),
    logc=st.floats(min_value=-10.0, max_value=2.0),
)
def test_fit_rate_recovers_exact_powers(p, logc):
    eps = [0.25, 0.125, 0.0625, 0.03125]
    errors = [np.exp(logc) * e**p for e in eps]
    rep = fit_rate(eps, errors)
    assert rep.slope == pytest.approx(p, rel=1e-9, abs=1e-10)
    assert rep.intercept == pytest.approx(logc, rel=1e-6, abs=1e-8)
    assert rep.fit_residual < 1e-10
    assert rep.dropped == []


def test_fit_rate_order_independent():
    eps = [0.03125, 0.25, 0.0625, 0.125]
    errors = [float(e) ** 2 for e in eps]
    a = fit_rate(eps, errors)
    b = fit_rate(sorted(eps, reverse=True), sorted(errors, reverse=True))
    assert a.slope == pytest.approx(b.slope, rel=1e-14)
    assert a.eps == b.eps  # normalized coarse-to-fine


def test_fit_rate_noise_floor_drop():
    eps = [0.25, 0.125, 0.0625, 0.03125]
    errors = [5e-11, 1e-4, 2.5e-5, 6.25e-6]  # coarsest point is solver noise
    rep = fit_rate(eps, errors, noise_floor=1e-11)
    assert rep.dropped == [0.25]
    assert len(rep.eps) == 3
    assert rep.slope == pytest.approx(2.0, rel=1e-10)
    # only three points: the drop is skipped even below the floor
    rep3 = fit_rate(eps[1:], errors[1:], noise_floor=1.0)
    assert rep3.dropped == []
    # no floor given: all points enter
    rep_nf = fit_rate(eps, errors)
    assert rep_nf.dropped == [] and len(rep_nf.eps) == 4


def test_fit_rate_input_errors():
    with pytest.raises(ValueError):
        fit_rate([0.25, 0.125], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_rate([0.25, 0.125, 0.0625], [1.0, -0.5, 0.25])
    # repeated spacings leave the slope undetermined (lstsq returned -0.2796 here)
    with pytest.raises(ValueError, match="^rate fits need distinct spacings$"):
        fit_rate([0.5, 0.5, 0.5], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="^rate fits need distinct spacings$"):
        fit_rate([0.25, 0.125, 0.25], [1.0, 0.5, 0.9])
    with pytest.raises(ValueError, match="non-finite slope"):
        fit_rate([0.25, 0.125, 0.0625], [1.0, math.nan, 0.25])


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def _write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path

def test_run_stability_end_to_end(tmp_path, capsys):
    path = _write_cfg(tmp_path, _stability_cfg(name="chain"))
    code = run(path, out_dir=tmp_path / "out")
    assert code == 0
    report = json.loads((tmp_path / "out" / "chain.report.json").read_text())
    assert report["passed"] is True
    assert report["gamma"] == pytest.approx(1.0, abs=1e-6)
    assert report["alternating_quotient"] == pytest.approx(2.0, abs=1e-10)
    assert report["experiment"] == "stability"
    assert len(report["config_sha256"]) == 64
    csv_text = (tmp_path / "out" / "chain.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0].startswith("# latcb ")
    assert "# columns: quantity,value" in lines
    assert any(line.startswith("gamma,") for line in lines)
    out = capsys.readouterr().out
    assert "PASS chain:gamma_value" in out


@pytest.mark.parametrize("pot", [CHAIN_POT, LJ_POT, LJ_SQUARE_POT])
def test_stability_run_takes_the_lh_minimum_once(tmp_path, monkeypatch, pot):
    """gamma is stability_constant's value, its k -> 0 limit the reported lh_min."""
    calls = []

    def counted(M):
        calls.append(M)
        return legendre_hadamard_min(M)

    monkeypatch.setattr(latcb.stability, "legendre_hadamard_min", counted)
    obj = _stability_cfg(name="once", potential=pot, params={}, tolerances={"gamma_min": -1e9})
    assert run(_write_cfg(tmp_path, obj), out_dir=tmp_path / "out") == 0
    assert len(calls) == 1
    report = json.loads((tmp_path / "out" / "once.report.json").read_text())
    monkeypatch.undo()
    cfg = ExperimentConfig.from_dict(obj)
    assert report["gamma"] == stability_constant(cfg.P, n_grid=cfg.values["n_grid"])
    assert report["lh_min"] == legendre_hadamard_min(CBModel(cfg.P))


def test_csv_cells_format_by_one_rule():
    # floats by their shortest round-trip repr, every other cell by str; exact
    # Python floats take a fast path with the same text
    cells = [True, np.bool_(False), 3, np.int64(4), 0.1, np.float64(0.1), np.float32(0.1),
             np.float64(5e-324), "gamma", None, math.nan, np.float64(math.nan), math.inf,
             -math.inf, np.float64(-math.inf), -0.0, np.float64(-0.0), 1e-310, 1 / 3]
    line = csv_text([], [f"c{i}" for i in range(len(cells))], [cells]).splitlines()[-1]
    assert line == ("True,False,3,4,0.1,0.1,0.10000000149011612,5e-324,gamma,None,nan,nan,inf,"
                    "-inf,-inf,-0.0,-0.0,1e-310,0.3333333333333333")


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_SIGNED_NANS = [_bits_float(b) for b in (0x7FF8000000000000, 0xFFF8000000000000,
                                         0x7FF8000000000001, 0xFFF0000000000001)]
_CSV_SPECIALS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072e-308,
                 *_SIGNED_NANS, np.float64(-0.0), np.float32(-0.0), np.float64(math.nan)]
_csv_cells = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits_float),  # any bit pattern: NaN payloads, subnormals
    st.floats(allow_subnormal=True),
    st.sampled_from(_CSV_SPECIALS),
    st.floats(allow_subnormal=True).map(np.float64),
    st.floats(width=32, allow_subnormal=True).map(np.float32),
    st.integers(-2**70, 2**70),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(alphabet="ab,-. ", max_size=3),
    st.none(),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(_csv_cells, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.lists(st.sampled_from(pool), max_size=6), max_size=8)))
@example([])
@example([[]])
@example([[0.0, 1.5], [-0.0, 1.5], [0.0, -1.5]])
@example([[x] for x in _SIGNED_NANS + [math.inf, -math.inf, 5e-324, -0.0, 0.0]])
@example([[1.5, "a", None], [], [True, np.float32(0.1), 0.1, 3, np.float64(0.1)], [2.5]])
def test_csv_matches_the_per_row_reference(rows):
    """Bytes of the one-pass writer equal the per-row loop's, on mixed-type and
    ragged tables that repeat cells (NaNs of any sign and payload, +-inf,
    subnormals, 0.0 next to -0.0), the empty table and zero-length rows."""
    with tempfile.TemporaryDirectory() as tmp:
        want = Path(tmp, "want.csv")
        args = (["c1", "c2"], ["a", "b"], rows)
        csv_reference.write_csv(want, *args)
        assert csv_text(*args).encode() == want.read_bytes()


def test_run_outputs_are_byte_identical(tmp_path):
    path = _write_cfg(tmp_path, _stability_cfg(name="det"))
    for sub in ("a", "b"):
        assert run(path, out_dir=tmp_path / sub) == 0
    for fname in ("det.csv", "det.report.json"):
        a = (tmp_path / "a" / fname).read_bytes()
        b = (tmp_path / "b" / fname).read_bytes()
        assert a == b


def test_run_failing_band_returns_one(tmp_path, capsys):
    obj = _stability_cfg(name="bad_band")
    obj["tolerances"] = {"gamma_value": 5.0}
    path = _write_cfg(tmp_path, obj)
    assert run(path, out_dir=tmp_path) == 1
    report = json.loads((tmp_path / "bad_band.report.json").read_text())
    assert report["passed"] is False
    assert "FAIL bad_band:gamma_value" in capsys.readouterr().out


def test_run_config_errors_return_two(tmp_path, capsys):
    assert run(tmp_path / "missing.json") == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(garbled) == 2
    ok = _write_cfg(tmp_path, _stability_cfg())
    assert run(ok, out_dir=tmp_path, expect_experiment="dispersion") == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_run_runtime_errors_return_three(tmp_path, capsys):
    # a valid config whose displacement leaves the admissible set (kappa 0.25)
    obj = {
        "experiment": "stress-consistency",
        "potential": LJ_POT,
        "geometry": {"eps_list": [0.125, 0.0625, 0.03125]},
        "params": {"displacement": {"grad_amplitude": 0.5, "mode": 1}},
    }
    path = _write_cfg(tmp_path, obj)
    assert run(path, out_dir=tmp_path) == 3
    assert "runtime error: AdmissibilityError" in capsys.readouterr().err


@pytest.mark.parametrize("artifact", ["cfg.csv", "cfg.report.json"])
def test_unwritable_artifact_exits_three_and_leaves_no_tmp_file(tmp_path, capsys, artifact):
    # a directory where an artifact goes cannot be replaced, even by root
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    assert run(_write_cfg(tmp_path, _stability_cfg(name="cfg")), out_dir=out) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("runtime error: IsADirectoryError: ")
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert not list(out.glob("*.tmp"))


def test_unencodable_report_changes_no_artifact(tmp_path, capsys, monkeypatch):
    # the report is encoded before either artifact is touched
    out = tmp_path / "out"
    out.mkdir()
    (out / "cfg.csv").write_bytes(b"an earlier run's table\n")
    runner = EXPERIMENTS["stability"]

    def unencodable(cfg, workers):
        report, columns, rows = runner(cfg, workers)
        report["extra"] = {1, 2}  # no check reads it; json.dumps rejects a set
        return report, columns, rows

    monkeypatch.setitem(EXPERIMENTS, "stability", unencodable)
    assert run(_write_cfg(tmp_path, _stability_cfg(name="cfg")), out_dir=out) == 3
    assert capsys.readouterr().err.startswith("runtime error: TypeError: ")
    assert (out / "cfg.csv").read_bytes() == b"an earlier run's table\n"
    assert sorted(p.name for p in out.iterdir()) == ["cfg.csv"]


def test_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run(path, out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read config {path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, edit, message", [
    ("static_converge_lj", lambda obj: obj["params"].update(delta=1000.0),
     "SolverError: continuum start left the admissible region: stencil norm 0.49479 "
     "exceeds kappa=0.25 (Cauchy-Born gradient)"),
    ("stress_consistency_lj", lambda obj: obj["params"]["displacement"].update(grad_amplitude=0.5),
     "AdmissibilityError: stencil norm 0.450158 exceeds kappa=0.25 "
     "(lattice displacement of period N=8)"),
])
def test_inadmissible_states_exit_three_with_a_location(tmp_path, capsys, config, edit, message):
    obj = json.loads((CONFIGS / f"{config}.json").read_text())
    edit(obj)
    assert run(_write_cfg(tmp_path, obj), out_dir=tmp_path / "out", workers=1) == 3
    assert capsys.readouterr().err.strip() == f"runtime error: {message}"


@pytest.mark.parametrize("experiment", ["static-converge", "dynamic-converge"])
def test_two_dimensional_sweep_exits_two(tmp_path, capsys, experiment):
    obj = {
        "experiment": experiment,
        "potential": {"variant": "pair", "d": 2, "r_cut": 2.0,
                      "phi": {"kind": "lennard_jones"}},
        "geometry": {"eps_list": [0.125, 0.0625, 0.03125]},
    }
    path = _write_cfg(tmp_path, obj)
    assert run(path, out_dir=tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error: config field 'geometry.d'" in err
    assert "one-dimensional" in err


def _static_cfg(**params):
    return {
        "experiment": "static-converge",
        "name": "static3",
        "potential": LJ_POT,
        "geometry": {"eps_list": [0.125, 0.0625, 0.03125]},
        "params": {"n_grid": 64, **params},
    }


def _dynamic_cfg(**params):
    return {
        "experiment": "dynamic-converge",
        "potential": LJ_POT,
        "geometry": {"eps_list": [0.0625, 0.03125, 0.015625]},
        "params": params,
    }


def _demo_cfg(**params):
    return {"experiment": "instability-demo", "params": params}


STRETCHED_LJ_POT = {**LJ_POT, "A": [[1.11]]}  # gamma = lh_min = -0.869
UNSTABLE_CHAIN_POT = {"variant": "harmonic_chain", "a1": -1.0, "a2": 0.5}  # gamma = -1, LH > 0


@pytest.mark.parametrize("pot, gamma", [(STRETCHED_LJ_POT, "-0.869257"),
                                        (UNSTABLE_CHAIN_POT, "-1")], ids=["stretched_lj", "chain"])
@pytest.mark.parametrize("obj", [
    _static_cfg(),
    {**_dynamic_cfg(T=0.1, U0={"grad_amplitude": 0.05, "mode": 1}),
     "tolerances": {"slope_band": [1.8, 2.2]}},
], ids=["static", "dynamic"])
def test_sweeps_on_an_unstable_reference_exit_three(tmp_path, capsys, obj, pot, gamma):
    # the convergence theorems need gamma > 0; unguarded, three of these four
    # runs pass their slope band (the stretched chain's statics at saddles)
    path = _write_cfg(tmp_path, {**obj, "potential": pot})
    assert run(path, out_dir=tmp_path / "out") == 3
    assert capsys.readouterr().err.strip() == (
        f"runtime error: SolverError: reference lattice is unstable (gamma={gamma})")


@pytest.mark.parametrize(
    "obj",
    [
        _dynamic_cfg(cfl=0),
        _dynamic_cfg(cfl=-0.1),
        _dynamic_cfg(T=0.0),
        _dynamic_cfg(T=float("inf")),
        _dynamic_cfg(n_snap=1),
        _dynamic_cfg(n_grid=63),
        _dynamic_cfg(n_grid=4),
        _dynamic_cfg(quadrature=0),
        _dynamic_cfg(cfl="fast"),
        _static_cfg(solver_tol=0.0),
        _static_cfg(delta=0.0),
        _static_cfg(delta="x"),
        _static_cfg(n_grid=100.5),
        _static_cfg(quadrature=0),
        _demo_cfg(cfl=0.0),
        _demo_cfg(eps=1.0 / 63.0),
        _demo_cfg(eps=0.3),
        _demo_cfg(eps=0.0),
        {"experiment": "stability", "potential": CHAIN_POT, "params": {"n_grid": 0}},
    ],
)
def test_run_bad_numeric_params_return_two(tmp_path, capsys, obj):
    path = _write_cfg(tmp_path, obj)
    assert run(path, out_dir=tmp_path / "out") == 2
    assert "config error: config field 'params." in capsys.readouterr().err


@pytest.mark.parametrize(
    "obj, key",
    [
        (_stability_cfg(params={"eigenprobe_n": 16}), "eigenprobe_n"),
        (_static_cfg(half_dt_check=True), "half_dt_check"),
        (_dynamic_cfg(delta_halving=True), "delta_halving"),
        (_dynamic_cfg(force={"mode": 1}), "force"),
        (_demo_cfg(n_grid=32), "n_grid"),
    ],
)
def test_unread_params_return_two(tmp_path, capsys, obj, key):
    path = _write_cfg(tmp_path, obj)
    assert run(path, out_dir=tmp_path / "out") == 2
    assert (f"config error: config field 'params.{key}': not read by the {obj['experiment']} "
            "experiment") in capsys.readouterr().err


@pytest.mark.parametrize("obj", [_static_cfg(delta_halving=True), _dynamic_cfg(half_dt_check=True)])
def test_retired_params_are_accepted(obj):
    # no-op switches that the shipped configs carry, each for its own experiment
    assert ExperimentConfig.from_dict(obj).params == obj["params"]


def _runner_cfg(experiment, **params):
    pot = {"stability": CHAIN_POT, "dispersion": LJ_POT, "stress-consistency": LJ_POT}
    geometry = {"eps_list": [0.125, 0.0625, 0.03125]} if experiment == "stress-consistency" else {}
    return {"experiment": experiment, "potential": pot.get(experiment, {}), "geometry": geometry,
            "params": params}


@pytest.mark.parametrize(
    "obj, key",
    [
        (_runner_cfg("stress-consistency", n_per_cell=0), "n_per_cell"),
        (_runner_cfg("stress-consistency", n_per_cell=2.5), "n_per_cell"),
        (_runner_cfg("dispersion", n_k=0), "n_k"),
        (_runner_cfg("dispersion", n_k="many"), "n_k"),
        (_runner_cfg("stability", eigenprobe_N=3), "eigenprobe_N"),
        (_runner_cfg("stability", eigenprobe_N=2), "eigenprobe_N"),
        (_demo_cfg(window_start=-0.5), "window_start"),
        (_demo_cfg(window_start=13.0), "window_start"),  # 3 |log(1/64)| = 12.48
        (_demo_cfg(eps=0.125, window_start=6.5), "window_start"),  # 3 |log(1/8)| = 6.24
        (_demo_cfg(a_stable="x"), "a_stable"),
        (_demo_cfg(a_stable=[2.0]), "a_stable"),
        (_demo_cfg(a_unstable=[-1.0, float("nan")]), "a_unstable"),
        (_demo_cfg(a_unstable=[-1.0, 0.5, 0.0]), "a_unstable"),
    ],
)
def test_run_bad_runner_params_name_the_field(tmp_path, capsys, obj, key):
    path = _write_cfg(tmp_path, obj)
    assert run(path, out_dir=tmp_path / "out") == 2
    assert f"config error: config field 'params.{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "obj, key",
    [
        (_stability_cfg(tolerances={"gamma_vlaue": 5.0}), "gamma_vlaue"),  # read by no check
        (_stability_cfg(tolerances={"gamma_abs_tol": 1e-3}), "gamma_abs_tol"),  # no gamma_value
        ({**_static_cfg(), "tolerances": {"min_ratio_min": 1.0}}, "min_ratio_min"),
        (_stability_cfg(tolerances={"gamma_value": "x"}), "gamma_value"),
        (_stability_cfg(tolerances={"gamma_min": True}), "gamma_min"),
        (_stability_cfg(tolerances={"gamma_value": 1.0, "gamma_abs_tol": None}),
         "gamma_abs_tol"),
        ({**_static_cfg(), "tolerances": {"slope_band": [2.2]}}, "slope_band"),
        ({**_static_cfg(), "tolerances": {"slope_band": [2.2, 1.8]}}, "slope_band"),
        ({**_static_cfg(), "tolerances": {"slope_band": 2.0}}, "slope_band"),
        ({**_static_cfg(), "tolerances": {"half_ratio_band": [0.4, float("inf")]}},
         "half_ratio_band"),
    ],
)
def test_run_bad_tolerances_return_two(tmp_path, capsys, obj, key):
    path = _write_cfg(tmp_path, obj)
    argv = [obj["experiment"], "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"config error: config field 'tolerances.{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "force",
    [{"mode": 0}, {"terms": [[[1], 0, "sin", 0.0], [[2], 0, "cos", 0.0]]}],
)
def test_unloadable_force_returns_two(tmp_path, capsys, force):
    with pytest.raises(ValueError, match="zero size"):
        _macro_force(force, 0.01)
    path = _write_cfg(tmp_path, _static_cfg(force=force))
    assert run(path, out_dir=tmp_path / "out") == 2
    assert "config error: config field 'params.force'" in capsys.readouterr().err


def _stress_cfg(**params):
    return {
        "experiment": "stress-consistency",
        "potential": LJ_POT,
        "geometry": {"eps_list": [0.125, 0.0625, 0.03125]},
        "params": params,
    }


_MODE_ZERO = {"grad_amplitude": 0.05, "mode": 0}


@pytest.mark.parametrize(
    "obj, key",
    [
        (_dynamic_cfg(U0=_MODE_ZERO), "U0"),
        (_dynamic_cfg(U1=_MODE_ZERO), "U1"),
        (_stress_cfg(displacement=_MODE_ZERO), "displacement"),
        (_dynamic_cfg(U0={"terms": []}), "U0"),
        (_stress_cfg(displacement={"kind": "tan"}), "displacement"),
        (_stress_cfg(displacement=0.05), "displacement"),
    ],
)
def test_unmakeable_field_returns_two(tmp_path, capsys, obj, key):
    path = _write_cfg(tmp_path, obj)
    assert run(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"config error: config field 'params.{key}': cannot make a field" in err
    assert not (tmp_path / "out").exists()


def _mode(m):
    return {"grad_amplitude": 0.005, "mode": m, "kind": "sin"}


@pytest.mark.parametrize(
    "obj, key, top, n_grid",
    [
        # sin(2 pi 8 j / 16) vanishes at every grid point: U0 would be sampled as zero
        (_dynamic_cfg(n_grid=16, U0=_mode(8)), "U0", 8, 16),
        (_dynamic_cfg(U1={"amplitude": 0.001, "mode": 64}), "U1", 64, 128),
        (_static_cfg(n_grid=16, force={"mode": 8, "kind": "sin"}), "force", 8, 16),
        ({**_static_cfg(), "params": {"force": {"mode": -128}}}, "force", 128, 256),
    ],
)
def test_aliased_mode_returns_two(tmp_path, capsys, obj, key, top, n_grid):
    path = _write_cfg(tmp_path, obj)
    argv = [obj["experiment"], "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert (f"config error: config field 'params.{key}': mode {top} aliases on the continuum "
            f"grid of n_grid = {n_grid}") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "obj",
    [
        _dynamic_cfg(n_grid=16, U0=_mode(7), U1={"amplitude": 0.001, "mode": 7}),
        _dynamic_cfg(U0=_mode(63)),
        _static_cfg(n_grid=16, force={"mode": 7, "kind": "sin"}),
        {**_static_cfg(), "params": {"force": {"mode": 127}}},
    ],
)
def test_highest_unaliased_mode_is_accepted(obj):
    ExperimentConfig.from_dict(obj)


LJ_SQUARE_POT = {"variant": "pair", "d": 2, "r_cut": 2.0, "phi": {"kind": "lennard_jones"}}
_TERMS_2D = {"terms": [[[1, 0], 0, "sin", 0.005]]}


@pytest.mark.parametrize(
    "obj, key",
    [
        ({**_stress_cfg(), "potential": LJ_SQUARE_POT}, "displacement"),
        ({**_stress_cfg(displacement=_TERMS_2D), "potential": LJ_SQUARE_POT}, "displacement"),
        (_stress_cfg(displacement=_TERMS_2D), "displacement"),
        (_dynamic_cfg(U1=_TERMS_2D), "U1"),
        (_static_cfg(force=_TERMS_2D), "force"),
    ],
)
def test_field_of_wrong_dimension_returns_two(tmp_path, capsys, obj, key):
    # the built field must have the potential's dimension and components
    path = _write_cfg(tmp_path, obj)
    assert run(path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"config error: config field 'params.{key}': the field has d = " in err
    assert not (tmp_path / "out").exists()


def _pinned(*checks):
    return [{"name": n, "passed": True, "constraint": c} for n, c in checks]


_SLOPE = "slope in [1.8, 2.2]"
SHIPPED_CHECKS = {
    "dispersion_lj": _pinned(("min_ratio_min", "min ratio >= 50.0")),
    "instability_demo": _pinned(
        ("growth_lower_bound", "min ratio >= 1.0"),
        ("stable_chain_bounded", "max norm <= 0.00048828125"),
        ("smooth_probe_bounded", "max norm <= 0.00048828125"),
        ("cb_modulus_positive", "modulus > 0.0"),
    ),
    "stability_chain_stable": _pinned(
        ("gamma_value", "|gamma - 1.0| <= 1e-06"),
        ("gamma_min", "gamma >= 0.0"),
        ("eigenprobe_value", "|quotient - 2.0| <= 1e-10"),
    ),
    "stability_chain_unstable": _pinned(
        ("gamma_value", "|gamma - -1.0| <= 1e-06"),
        ("eigenprobe_value", "|quotient - -1.0| <= 1e-10"),
    ),
    "stability_lj": _pinned(
        ("gamma_value", "|gamma - 70.6106531415735| <= 1e-06"),
        ("gamma_min", "gamma >= 0.0"),
    ),
    "static_converge_lj": _pinned(
        ("error_slope", _SLOPE), ("delta_halving", "ratios in [0.4, 0.6]")
    ),
    "stress_consistency_lj": _pinned(("stress_slope", _SLOPE), ("divergence_slope", _SLOPE)),
}


def _run_checks(tmp_path, path):
    """Exit code and the checks of ``run`` on a config, without the observed values."""
    code = run(path, out_dir=tmp_path / "out")
    name = json.loads(path.read_text())["name"]
    report = json.loads((tmp_path / "out" / f"{name}.report.json").read_text())
    observed = [c.pop("observed") for c in report["checks"]]
    return code, report["checks"], observed


@pytest.mark.parametrize("name", sorted(SHIPPED_CHECKS))
def test_shipped_config_checks_are_pinned(tmp_path, name):
    # every shipped config except the two long dynamic_converge_lj sweeps
    code, checks, _ = _run_checks(tmp_path, CONFIGS / f"{name}.json")
    assert (code, checks) == (0, SHIPPED_CHECKS[name])


def test_eigenprobe_check_without_probe_fails(tmp_path):
    obj = _stability_cfg(name="noprobe", params={}, tolerances={"eigenprobe_value": 2.0})
    code, checks, observed = _run_checks(tmp_path, _write_cfg(tmp_path, obj))
    assert code == 1 and observed == [None]
    assert checks == [{"name": "eigenprobe_value", "passed": False,
                       "constraint": "|quotient - 2.0| <= 1e-10"}]


def test_half_dt_control_is_strict(tmp_path):
    obj = {**_dynamic_cfg(T=1.0 / 64.0, n_snap=3, n_grid=32), "name": "dt",
           "tolerances": {"half_dt_rel_max": 1.0}}
    code, checks, (rel,) = _run_checks(tmp_path, _write_cfg(tmp_path, obj))
    assert code == 0 and 0.0 < rel < 1.0
    assert checks == _pinned(("half_dt_control", "relative change < 1.0"))
    obj["tolerances"]["half_dt_rel_max"] = rel  # equality fails the control
    code, checks, _ = _run_checks(tmp_path, _write_cfg(tmp_path, obj))
    assert code == 1
    assert checks == [{"name": "half_dt_control", "passed": False,
                       "constraint": f"relative change < {rel}"}]


@pytest.mark.parametrize("a_unstable, modulus", [([-1.0, -0.5], -3.0), ([-2.0, 0.5], 0.0)])
def test_demo_with_unstable_continuum_fails_modulus_check(tmp_path, capsys, a_unstable, modulus):
    # a1 + 4 a2 <= 0: the continuum is not stable either, so the demo shows nothing
    obj = {"experiment": "instability-demo", "name": "cbunstable",
           "params": {"eps": 0.0625, "a_unstable": a_unstable},
           "tolerances": {"cb_modulus_min": 0.0}}
    code, checks, observed = _run_checks(tmp_path, _write_cfg(tmp_path, obj))
    assert (code, observed) == (1, [modulus])
    assert checks == [{"name": "cb_modulus_positive", "passed": False,
                       "constraint": "modulus > 0.0"}]
    assert f"FAIL cbunstable:cb_modulus_positive observed={modulus}" in capsys.readouterr().out


def test_stable_factor_scales_with_eps_squared(tmp_path):
    # the shipped demo (eps = 1/64) pins 2 / 64^2; here eps = 1/16
    obj = {"experiment": "instability-demo", "name": "demo16", "params": {"eps": 0.0625},
           "tolerances": {"stable_factor": 2.0}}
    code, checks, _ = _run_checks(tmp_path, _write_cfg(tmp_path, obj))
    assert code == 0
    assert checks == _pinned(("stable_chain_bounded", f"max norm <= {2.0 / 16**2}"),
                             ("smooth_probe_bounded", f"max norm <= {2.0 / 16**2}"))


def test_shipped_configs_validate():
    paths = sorted(CONFIGS.glob("*.json"))
    assert len(paths) == 9
    for path in paths:
        ExperimentConfig.from_file(path)


def test_table_rows_name_experiments():
    # a row with a typo'd experiment would silently never apply
    for row in _PARAMS:
        assert row[1] and set(row[1]) <= EXPERIMENTS.keys(), row
    for row in _CHECKS:
        assert row[0] in EXPERIMENTS, row
    assert _FIELD_SPECS.keys() <= EXPERIMENTS.keys()


def test_param_defaults_pass_their_checks():
    for experiment in EXPERIMENTS:
        resolved = {}
        for key, experiments, default, kind, ok, rule in _PARAMS:
            if experiment not in experiments or default is None:
                continue
            for v in default.values() if isinstance(default, dict) else [default]:
                assert isinstance(v, kind) and ok(v, resolved), (experiment, key, v, rule)
            resolved[key] = v


_DEFAULTS_CASES = {
    "stability": {"potential": CHAIN_POT},
    "dispersion": {"potential": LJ_POT},
    "stress-consistency": {"potential": LJ_POT,
                           "geometry": {"eps_list": [0.125, 0.0625, 0.03125]}},
    "static-converge": {"potential": LJ_POT, "geometry": {"eps_list": [0.125, 0.0625, 0.03125]}},
    # at the default U0 the continuum loses hyperbolicity before the default T
    "dynamic-converge": {"potential": LJ_POT,
                         "geometry": {"eps_list": [0.0625, 0.03125, 0.015625]},
                         "params": {"U0": {"grad_amplitude": 0.005, "mode": 1}}},
    "instability-demo": {},
}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_spelled_out_defaults_are_byte_identical(tmp_path, experiment):
    # every _PARAMS default written into the config changes nothing but the config hash
    base = {"experiment": experiment, "name": "defaults", "params": {},
            **_DEFAULTS_CASES[experiment]}
    params = dict(base["params"])
    for key, experiments, default, kind, ok, rule in _PARAMS:
        if experiment in experiments:
            v = default[1] if isinstance(default, dict) else default
            params[key] = list(v) if isinstance(v, tuple) else v
    outputs = []
    for sub, obj in (("bare", base), ("spelled", {**base, "params": params})):
        path = _write_cfg(tmp_path, obj, name=f"{sub}.json")
        assert run(path, out_dir=tmp_path / sub) == 0
        sha = ExperimentConfig.from_file(path).config_hash
        outputs.append([(tmp_path / sub / f).read_text().replace(sha, "<sha>")
                        for f in ("defaults.csv", "defaults.report.json")])
    assert outputs[0] == outputs[1]


def test_workers_below_one_exit_two(tmp_path, capsys):
    path = _write_cfg(tmp_path, _static_cfg())
    assert main(["static-converge", "--config", str(path), "--out", str(tmp_path),
                 "--workers", "0"]) == 2
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "static3.csv").exists()


def test_cli_builds_one_parser_per_process(tmp_path, capsys):
    cli.build_parser.cache_clear()
    missing = str(tmp_path / "missing.json")
    assert main(["stability", "--config", missing]) == 2
    assert main(["dispersion", "--config", missing]) == 2
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    with pytest.raises(SystemExit) as exc:
        main(["stability"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("over, message", [
    ({"d": 4}, "d must be the integer 1, 2 or 3; got 4"),
    ({"d": 1.5}, "d must be the integer 1, 2 or 3; got 1.5"),
    ({"d": True}, "d must be the integer 1, 2 or 3; got True"),
    ({"d": "1"}, "d must be the integer 1, 2 or 3; got '1'"),
    ({"r_cut": math.inf}, "r_cut must be finite; got inf"),
    ({"r_cut": 1e9}, "r_cut = 1000000000.0 in d = 1 gives at least 2000000000 directions; "
                     "at most 128 are supported"),
    ({"d": 3, "r_cut": 300.0}, "r_cut = 300.0 in d = 3 gives at least 1800 directions; "
                               "at most 128 are supported"),
    ({"d": 3, "r_cut": 4.0}, "r_cut = 4.0 in d = 3 gives 256 directions; "
                             "at most 128 are supported"),
], ids=["d4", "d1.5", "d_true", "d_str", "r_cut_inf", "r_cut_1e9", "d3_r_cut_300", "d3_r_cut_4"])
def test_bad_potential_geometry_exits_two(tmp_path, capsys, monkeypatch, over, message):
    # before, d = 4 and an infinite or huge r_cut ended in a traceback (exit
    # 1, a failed band) and a non-integer d ran as d = 1
    if over.get("r_cut", 0.0) > 100.0:
        # a huge box is refused before it is built
        def no_box(axes):
            raise AssertionError("the stencil box was built")

        monkeypatch.setattr(latcb.lattice, "tensor_grid", no_box)
    path = _write_cfg(tmp_path, {"experiment": "stability", "potential": {**LJ_POT, **over}})
    out = tmp_path / "out"
    assert main(["stability", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: config field 'potential': not resolvable: {message}\n")
    assert not out.exists()


def test_negative_seed_override_exits_two(tmp_path, capsys):
    # a --seed override obeys the config's rule: a nonnegative integer
    args = ["stability", "--config", str(CONFIGS / "stability_chain_stable.json"),
            "--out", str(tmp_path)]
    assert main([*args, "--seed", "-3"]) == 2
    assert capsys.readouterr().err == (
        "config error: seed must be a nonnegative integer, got -3\n")
    assert list(tmp_path.iterdir()) == []
    assert main([*args, "--seed", "0"]) == 0


EAM_CHAIN_POT = {"variant": "eam", "d": 1, "r_cut": 2.0, "phi": {"kind": "morse"},
                 "psi": {"kind": "exp"}, "embed": {"coeffs": [0.0, 1.0, 0.3, -0.05]}}


@pytest.mark.parametrize(
    "obj",
    [
        _static_cfg(),
        {**_dynamic_cfg(T=1.0 / 64.0, n_snap=3, n_grid=32), "name": "dynamic3"},
        {**_static_cfg(), "name": "static3_eam", "potential": EAM_CHAIN_POT},
    ],
)
def test_parallel_sweep_is_byte_identical(tmp_path, obj):
    path = _write_cfg(tmp_path, obj)
    for workers in (1, 2):
        argv = [obj["experiment"], "--config", str(path), "--out",
                str(tmp_path / f"w{workers}"), "--workers", str(workers)]
        assert main(argv) == 0
    for fname in (f"{obj['name']}.csv", f"{obj['name']}.report.json"):
        assert (tmp_path / "w1" / fname).read_bytes() == (tmp_path / "w2" / fname).read_bytes()


@pytest.mark.parametrize("delta, code, err", [
    (107.5, 1, ""),
    (108.0, 3, "runtime error: SolverError: continuum Hessian is not positive definite "
               "(p.Hp = -6.522e-05 at Newton iteration 5)\n"),
])
def test_static_sweep_at_the_continuum_fold(tmp_path, capsys, delta, code, err):
    # the shipped LJ-chain sweep: at delta 107.5 every lattice batch converges
    # (4, 4, 4, 4 and 3 Newton iterations) but the rate checks fail; at 108
    # the continuum equilibrium has folded away
    obj = json.loads((CONFIGS / "static_converge_lj.json").read_text())
    obj["params"]["delta"] = delta
    path = _write_cfg(tmp_path, obj)
    for workers in (1, 2):
        argv = ["static-converge", "--config", str(path), "--out", str(tmp_path / f"w{workers}"),
                "--workers", str(workers)]
        assert main(argv) == code
        assert capsys.readouterr().err == err
        if code == 1:
            rows = (tmp_path / f"w{workers}" / "static_converge_lj.csv").read_text().splitlines()
            assert [row.split(",")[3] for row in rows[5:]] == ["4", "4", "4", "4", "3"]


def test_parallel_sweep_reports_its_own_continuum_failure(tmp_path, capsys):
    # c09: the sweep's wave loses hyperbolicity, and so, later, does the
    # half-cfl control's.  The waves' job goes to the pool first and solves
    # the sweep's wave first, so at either worker count the run exits 3 with
    # the sweep's wave's error.
    path = CONFIGS / "dynamic_converge_lj.json"
    cfg = ExperimentConfig.from_file(path)
    v = cfg.values
    with pytest.raises(SolverError) as info:
        solve_cb_wave(CBModel(cfg.P), InitialData(cfg.fields["U0"], cfg.fields["U1"]),
                      np.linspace(0.0, v["T"], v["n_snap"]), n_grid=v["n_grid"], cfl=v["cfl"])
    want = f"runtime error: SolverError: {info.value}\n"
    assert "lost hyperbolicity (modulus <= 0) at T=0.144856" in want
    for workers in (1, 2):
        argv = ["dynamic-converge", "--config", str(path), "--out", str(tmp_path / f"w{workers}"),
                "--workers", str(workers)]
        assert main(argv) == 3
        assert capsys.readouterr().err == want


def _cli(*args) -> subprocess.CompletedProcess:
    """``python -m latcb.cli`` in a subprocess that imports this test run's latcb."""
    src = str(Path(latcb.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "latcb.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_cli_subprocess_bad_config(tmp_path):
    proc = _cli("stability", "--config", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


@pytest.mark.parametrize("over, field", [
    ({"potential": {"variant": "pair", "d": 1, "rcut": 3.0}}, "potential"),
    ({"potential": {**LJ_POT, "phi": {"kind": "lennard_jones", "well": 2.0}}}, "potential"),
    ({"geometry": {"d": 1, "eps_list": [0.125, 0.0625, 0.03125]}}, "geometry.eps_list"),
])
def test_cli_unread_potential_or_geometry_key_exits_two(tmp_path, over, field):
    # a misspelt "rcut" used to run with r_cut 1.0 and report gamma 72 for 70.61
    proc = _cli("stability", "--config", str(_write_cfg(tmp_path, _stability_cfg(**over))),
                "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert f"config error: config field {field!r}" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_geometry_keys_outside_the_sweep_exit_two():
    with pytest.raises(ConfigError, match="geometry.N_list"):
        ExperimentConfig.from_dict(
            {"experiment": "stress-consistency", "potential": LJ_POT,
             "geometry": {"eps_list": [0.125, 0.0625, 0.03125], "N_list": [8, 16, 32]}})
    with pytest.raises(ConfigError, match="geometry.N"):
        ExperimentConfig.from_dict({"experiment": "instability-demo", "geometry": {"N": 64}})
    with pytest.raises(ConfigError, match="geometry.d"):
        ExperimentConfig.from_dict({"experiment": "instability-demo", "geometry": {"d": 2}})
    with pytest.raises(ConfigError, match="'potential': not read"):
        ExperimentConfig.from_dict({"experiment": "instability-demo", "potential": LJ_POT})


def test_cli_subprocess_runs_instability(tmp_path):
    cfg = {
        "experiment": "instability-demo",
        "name": "demo16",
        "params": {"eps": 0.0625},
        "tolerances": {"growth_ratio_min": 1.0, "stable_factor": 2.0,
                       "cb_modulus_min": 0.0},
    }
    path = _write_cfg(tmp_path, cfg)
    proc = _cli("instability-demo", "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert "PASS demo16:growth_lower_bound" in proc.stdout
    assert (tmp_path / "out" / "demo16.csv").exists()
