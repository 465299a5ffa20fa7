"""Configuration parsing, snapshot format, command-line front end."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from pnpns import integrator, mms
from pnpns.cli import main
from pnpns.config import blob_concentration, build_initial_state, load_config
from pnpns.errors import (
    ConfigError,
    MassMismatchError,
    NoConvergenceError,
    NonPositiveConcentrationError,
    RejectedGridError,
    SnapshotError,
)
from pnpns.integrator import initialize
from pnpns.pnp import LINE_REBUILD_PERIOD
from pnpns.snapshot import (
    FIELD_ORDER,
    HEADER_SIZE,
    REF_FIELDS,
    read_snapshot,
    read_snapshot_meta,
    write_snapshot,
)
from pnpns.spectral import Field
from pnpns.state import PhysParams, SchemeConfig, mass


def write_config(path, **overrides):
    doc = {
        "physics": {"epsilon": 1.0, "kappa": 1.0, "diffusion": 1.0, "viscosity": 1.0},
        "grid": {"n_modes": 16},
        "time": {"dt": 0.05, "t_final": 0.15},
        "solver": {"newton_tol": 1e-10},
        "initial": {"preset": "uniform", "value": 1.0},
        "output": {"dir": str(path.parent / "out")},
    }
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    path.write_text(json.dumps(doc))
    return path


def rewrite_meta(path, changes, payload_n=None):
    """Replace snapshot metadata entries in place; a None value drops the key.

    With payload_n the fields are replaced by ones on a payload_n grid, so
    that the payload size agrees with a rewritten n_modes.
    """
    raw = path.read_bytes()
    meta_len = struct.unpack("<I", raw[12:16])[0]
    meta = json.loads(raw[HEADER_SIZE:HEADER_SIZE + meta_len])
    for key, value in changes.items():
        if value is None:
            meta.pop(key)
        else:
            meta[key] = value
    meta_bytes = json.dumps(meta).encode()
    header = raw[:12] + struct.pack("<I", len(meta_bytes)) + raw[16:HEADER_SIZE]
    payload = raw[HEADER_SIZE + meta_len:]
    if payload_n is not None:
        payload = np.ones(6 * payload_n**2, dtype="<f8").tobytes()
    path.write_bytes(header + meta_bytes + payload)


@pytest.fixture
def sample_state():
    params = PhysParams(epsilon=1.0, kappa=10000.0)
    cfg = SchemeConfig(n_modes=16, dt=1e-4, t_final=1e-4)
    state = initialize(blob_concentration(0.8 * np.pi, 0.8 * np.pi),
                       blob_concentration(1.2 * np.pi, 1.2 * np.pi),
                       None, params, cfg)
    return state, params


class TestConfig:
    def test_valid_config_parses(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.json")
        config = load_config(cfg_path)
        assert config.scheme.n_modes == 16
        assert config.scheme.dt == 0.05
        assert config.params.kappa == 1.0
        assert config.initial["preset"] == "uniform"

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.json")
        doc = json.loads(cfg_path.read_text())
        doc["grid"]["resolution"] = 4
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_config(cfg_path)
        # the keys of removed options (the 3/2-rule product, the objective
        # tracking that nothing read) are unknown too
        for removed in ({"dealias": False}, {"track_functional": True}):
            cfg_path = write_config(tmp_path / "run.json", solver=removed)
            with pytest.raises(ConfigError):
                load_config(cfg_path)

    def test_unknown_section_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.json", extra={"a": 1})
        with pytest.raises(ConfigError):
            load_config(cfg_path)

    def test_nonpositive_dt_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.json",
                                time={"dt": -0.1, "t_final": 1.0})
        with pytest.raises(ConfigError):
            load_config(cfg_path)

    def test_missing_dt_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.json", time={"t_final": 1.0})
        with pytest.raises(ConfigError):
            load_config(cfg_path)

    def test_indivisible_horizon_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.json",
                                time={"dt": 0.04, "t_final": 0.1})
        with pytest.raises(ConfigError):
            load_config(cfg_path)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_nonfinite_physics_exits_1(self, tmp_path, capsys, value):
        # json reads Infinity and NaN, and Infinity passes the schema's exclusiveMinimum
        cfg_path = write_config(tmp_path / "run.json", physics={"kappa": value})
        assert main(["run", str(cfg_path)]) == 1
        assert not (tmp_path / "out").exists()
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("time, field", [
        ({"dt": 0.05, "t_final": np.nan}, "t_final"),
        ({"dt": 0.05, "t_final": np.inf}, "t_final"),
        ({"dt": 0.05, "t_final": 0.15, "snapshot_times": [np.nan, 0.05]}, "snapshot_times"),
        ({"dt": 0.05, "t_final": 0.15, "snapshot_times": [0.05, np.inf]}, "snapshot_times"),
    ])
    def test_nonfinite_times_rejected(self, tmp_path, time, field):
        # a NaN snapshot time sorts first, is never reached and held back every later one
        cfg_path = write_config(tmp_path / "run.json", time=time)
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            load_config(cfg_path)
        assert main(["run", str(cfg_path)]) == 1
        assert not (tmp_path / "out").exists()

    def test_convergence_needs_dt_list(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.json")
        with pytest.raises(ConfigError):
            load_config(cfg_path, need_dt_list=True)

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_presets_build(self, tmp_path):
        for preset in ({"preset": "uniform", "value": 2.0},
                       {"preset": "mms", "variant": "divergence-free"}):
            cfg_path = write_config(tmp_path / "run.json", initial=preset)
            config = load_config(cfg_path)
            state, forcing = build_initial_state(config)
            assert state.p.values.min() > 0
            assert (forcing is not None) == (preset["preset"] == "mms")


class TestSnapshot:
    def test_round_trip_bitwise(self, tmp_path, sample_state):
        state, params = sample_state
        path = write_snapshot(state, params, tmp_path / "snap.bin")
        loaded = read_snapshot(path)
        for name in ("p", "n", "psi", "phi"):
            assert np.array_equal(getattr(loaded, name).values,
                                  getattr(state, name).values)
        assert np.array_equal(loaded.u.values, state.u.values)
        assert loaded.time == state.time
        assert loaded.step_index == state.step_index
        assert PhysParams(**read_snapshot_meta(path)["params"]) == params

    @pytest.mark.parametrize("changes, payload_n", [
        ({"time": None}, None),
        ({"n_modes": 7}, 7),
        ({"n_modes": "abc"}, None),
    ], ids=["missing-time", "odd-n-modes", "text-n-modes"])
    def test_malformed_metadata_rejected(self, tmp_path, sample_state, capsys,
                                         changes, payload_n):
        state, params = sample_state
        path = write_snapshot(state, params, tmp_path / "snap.bin")
        rewrite_meta(path, changes, payload_n)
        with pytest.raises(SnapshotError):
            read_snapshot(path)
        assert main(["inspect", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_nonpositive_concentration_rejected(self, tmp_path, sample_state, capsys):
        state, params = sample_state
        p_vals = state.p.values.copy()
        p_vals[0, 0] = -1.0
        bad = dataclasses.replace(state, p=Field(state.grid, p_vals))
        path = write_snapshot(bad, params, tmp_path / "snap.bin")
        with pytest.raises(NonPositiveConcentrationError):
            read_snapshot(path)
        assert main(["inspect", str(path)]) == 1
        assert "p must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_payload_rejected(self, tmp_path, sample_state, capsys, value):
        state, params = sample_state
        path = write_snapshot(state, params, tmp_path / "snap.bin")
        raw = bytearray(path.read_bytes())
        raw[-8:] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="non-finite"):
            read_snapshot(path)
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_truncated_payload(self, tmp_path, sample_state):
        state, params = sample_state
        path = write_snapshot(state, params, tmp_path / "snap.bin")
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_bad_magic(self, tmp_path, sample_state):
        state, params = sample_state
        path = write_snapshot(state, params, tmp_path / "snap.bin")
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTASNAP"
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError):
            read_snapshot_meta(path)

    def test_grid_mismatch_rejected(self, tmp_path, sample_state):
        state, params = sample_state
        path = write_snapshot(state, params, tmp_path / "snap.bin")
        with pytest.raises(RejectedGridError):
            read_snapshot(path, expected_n_modes=64)

    @staticmethod
    def with_line_reference(state, age=1, ref=None):
        if ref is None:
            ref = np.stack((state.p.values, state.n.values))
        return dataclasses.replace(state, line_ref=Field(state.grid, ref), line_age=age)

    def test_round_trip_keeps_the_line_reference(self, tmp_path, sample_state):
        state, params = sample_state
        state = self.with_line_reference(state, age=LINE_REBUILD_PERIOD)
        path = write_snapshot(state, params, tmp_path / "snap.bin")
        assert read_snapshot_meta(path)["fields"] == list(FIELD_ORDER + REF_FIELDS)
        loaded = read_snapshot(path)
        assert loaded.line_age == LINE_REBUILD_PERIOD
        assert np.array_equal(loaded.line_ref.values, state.line_ref.values)
        assert not loaded.line_ref.values.flags.writeable
        assert read_snapshot(write_snapshot(sample_state[0], params, path)).line_ref is None

    def test_nonpositive_line_reference_rejected(self, tmp_path, sample_state, capsys):
        state, params = sample_state
        ref = np.stack((state.p.values, state.n.values))
        ref[1, 0, 0] = 0.0
        path = write_snapshot(self.with_line_reference(state, ref=ref), params,
                              tmp_path / "snap.bin")
        with pytest.raises(NonPositiveConcentrationError):
            read_snapshot(path)
        assert main(["inspect", str(path)]) == 1
        assert "line_ref_n must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_line_reference_rejected(self, tmp_path, sample_state, capsys, value):
        state, params = sample_state
        path = write_snapshot(self.with_line_reference(state), params, tmp_path / "snap.bin")
        raw = bytearray(path.read_bytes())
        raw[-8:] = np.array([value], dtype="<f8").tobytes()  # the last cell of line_ref_n
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="non-finite"):
            read_snapshot(path)
        assert main(["inspect", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("age", [0, LINE_REBUILD_PERIOD + 1, "2", None],
                             ids=["zero", "past-period", "text", "missing"])
    def test_line_age_out_of_range_rejected(self, tmp_path, sample_state, capsys, age):
        state, params = sample_state
        path = write_snapshot(self.with_line_reference(state), params, tmp_path / "snap.bin")
        rewrite_meta(path, {"line_age": age})
        with pytest.raises(SnapshotError, match="line_age"):
            read_snapshot(path)
        assert main(["inspect", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_line_age_without_reference_rejected(self, tmp_path, sample_state):
        state, params = sample_state
        path = write_snapshot(state, params, tmp_path / "snap.bin")
        rewrite_meta(path, {"line_age": 1})
        with pytest.raises(SnapshotError, match="line_age"):
            read_snapshot(path)

    def test_reference_fields_need_version_2(self, tmp_path, sample_state):
        state, params = sample_state
        path = write_snapshot(self.with_line_reference(state), params, tmp_path / "snap.bin")
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="field order"):
            read_snapshot(path)


class TestCommands:
    def test_run_writes_diagnostics(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "run.json")
        assert main(["run", str(cfg_path)]) == 0
        csv_path = tmp_path / "out" / "diagnostics.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("step,time,mass_p,mass_n,min_p")
        assert len(lines) == 4  # header + 3 steps
        masses = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(masses) == pytest.approx(min(masses), rel=1e-14)

    def test_run_is_byte_deterministic(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "run.json",
            time={"dt": 0.05, "t_final": 0.15, "snapshot_times": [0.1]})
        out = tmp_path / "out"

        def artifacts():
            assert main(["run", str(cfg_path)]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        assert artifacts() == artifacts()

    def test_run_with_snapshots(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "run.json",
            time={"dt": 0.05, "t_final": 0.15, "snapshot_times": [0.05, 0.15]})
        assert main(["run", str(cfg_path)]) == 0
        out = tmp_path / "out"
        assert (out / "snapshot_0000.bin").exists()
        assert (out / "snapshot_0001.bin").exists()
        assert (out / "plotdata_0000.csv").exists()
        meta = read_snapshot_meta(out / "snapshot_0000.bin")
        assert meta["time"] == pytest.approx(0.05)

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "run.json",
                                time={"dt": -1.0, "t_final": 1.0})
        assert main(["run", str(cfg_path)]) == 1
        assert not (tmp_path / "out").exists()
        assert "error" in capsys.readouterr().err

    def test_solver_failure_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path / "run.json",
            initial={"preset": "mms"},
            time={"dt": 0.1, "t_final": 0.2},
            solver={"newton_max_iter": 1})
        assert main(["run", str(cfg_path)]) == 2
        assert "solver failure" in capsys.readouterr().err

    def test_solver_failure_keeps_completed_rows(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path / "run.json",
                                time={"dt": 0.05, "t_final": 0.25})
        real_advance = integrator.advance
        calls = 0

        def failing_advance(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == 3:
                raise NoConvergenceError("injected failure", 7, 1.0)
            return real_advance(*args, **kwargs)

        monkeypatch.setattr(integrator, "advance", failing_advance)
        assert main(["run", str(cfg_path)]) == 2
        lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        assert lines[0].startswith("step,time,")
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]

    def test_typed_step_failure_keeps_completed_rows(self, tmp_path, monkeypatch, capsys):
        cfg_path = write_config(tmp_path / "run.json",
                                time={"dt": 0.05, "t_final": 0.25})
        real_advance = integrator.advance
        calls = 0

        def failing_advance(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == 3:
                raise MassMismatchError("injected mass loss")
            return real_advance(*args, **kwargs)

        monkeypatch.setattr(integrator, "advance", failing_advance)
        assert main(["run", str(cfg_path)]) == 2
        assert "solver failure: injected mass loss" in capsys.readouterr().err
        lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        assert lines[0].startswith("step,time,")
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]

    def test_interrupted_run_keeps_streamed_rows(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path / "run.json",
                                time={"dt": 0.05, "t_final": 0.25})
        real_advance = integrator.advance
        calls = 0

        def interrupted_advance(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == 3:
                raise KeyboardInterrupt
            return real_advance(*args, **kwargs)

        monkeypatch.setattr(integrator, "advance", interrupted_advance)
        with pytest.raises(KeyboardInterrupt):
            main(["run", str(cfg_path)])
        lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        assert lines[0].startswith("step,time,")
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]

    def test_convergence_command(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path / "conv.json",
            initial={"preset": "mms"},
            time={"dt_list": [0.02, 0.01], "t_final": 0.06})
        assert main(["convergence", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "err_p" in out
        csv_lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
        assert csv_lines[0] == ("dt,err_p,err_n,err_u,err_psi,"
                                "order_p,order_n,order_u,order_psi")
        assert len(csv_lines) == 3
        first_row = csv_lines[1].split(",")
        assert first_row[5] == ""  # no order on the first row
        second_row = csv_lines[2].split(",")
        assert float(second_row[5]) == pytest.approx(1.0, abs=0.5)

    def test_convergence_honours_solver_options(self, tmp_path, capsys):
        # every solver option reaches the study's runs, not only newton_tol
        cfg_path = write_config(
            tmp_path / "conv.json", grid={"n_modes": 8}, solver={"newton_max_iter": 1},
            initial={"preset": "mms"},
            time={"dt_list": [0.02, 0.01], "t_final": 0.02})
        assert main(["convergence", str(cfg_path)]) == 2
        assert "solver failure" in capsys.readouterr().err

    def test_convergence_worker_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # the worker's NoConvergenceError must unpickle in the parent process
        monkeypatch.setenv("PNPNS_THREADS", "2")
        cfg_path = write_config(
            tmp_path / "conv.json", grid={"n_modes": 8}, solver={"newton_tol": 1e-30},
            initial={"preset": "mms"},
            time={"dt_list": [0.02, 0.01], "t_final": 0.02})
        assert main(["convergence", str(cfg_path)]) == 2
        assert "solver failure" in capsys.readouterr().err

    def test_convergence_rejects_run_config(self, tmp_path):
        cfg_path = write_config(tmp_path / "conv.json",
                                initial={"preset": "mms"})
        assert main(["convergence", str(cfg_path)]) == 1

    def test_convergence_requires_mms(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "conv.json",
            time={"dt_list": [0.02, 0.01], "t_final": 0.06})
        assert main(["convergence", str(cfg_path)]) == 1

    def test_inspect(self, tmp_path, sample_state, capsys):
        state, params = sample_state
        path = write_snapshot(state, params, tmp_path / "snap.bin")
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "16 x 16" in out
        assert "mass" in out

    def test_inspect_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "junk.bin"
        bad.write_bytes(b"garbage")
        assert main(["inspect", str(bad)]) == 1

    def test_from_snapshot_preset(self, tmp_path):
        params = PhysParams()
        cfg = SchemeConfig(n_modes=16, dt=0.02, t_final=0.02)
        case = mms.make_case(params)
        state = case.initial_state(cfg)
        snap = write_snapshot(state, params, tmp_path / "start.bin")
        cfg_path = write_config(
            tmp_path / "run.json",
            time={"dt": 0.02, "t_final": 0.06},
            initial={"preset": "from_snapshot", "path": str(snap)})
        assert main(["run", str(cfg_path)]) == 0

    def test_restart_with_another_dt_exits_1(self, tmp_path, capsys):
        params = PhysParams()
        cfg = SchemeConfig(n_modes=16, dt=0.02, t_final=0.1)
        state = dataclasses.replace(mms.make_case(params).initial_state(cfg),
                                    step_index=5, time=0.1)
        snap = write_snapshot(state, params, tmp_path / "start.bin")
        cfg_path = write_config(
            tmp_path / "run.json",
            time={"dt": 0.01, "t_final": 0.02},
            initial={"preset": "from_snapshot", "path": str(snap)})
        # the diagnostics of the run whose snapshot is restarted
        prior = tmp_path / "out" / "diagnostics.csv"
        prior.parent.mkdir()
        prior.write_bytes(b"step,time\n1,0.02\n")
        assert main(["run", str(cfg_path)]) == 1
        assert "a restart keeps its dt" in capsys.readouterr().err
        assert prior.read_bytes() == b"step,time\n1,0.02\n"  # rejected before it is opened

    def test_from_snapshot_wrong_grid(self, tmp_path, sample_state):
        state, params = sample_state
        snap = write_snapshot(state, params, tmp_path / "start.bin")
        cfg_path = write_config(
            tmp_path / "run.json",
            grid={"n_modes": 32},
            initial={"preset": "from_snapshot", "path": str(snap)})
        assert main(["run", str(cfg_path)]) == 1
