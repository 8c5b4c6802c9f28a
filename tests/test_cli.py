"""Tests for the command-line pipeline: config, caching, subcommands."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from bcsgl import bdg_verifier as bv
from bcsgl import cli

REFERENCE_TC = 0.6716278342041448


def write_config(tmp_path, name="config.json", **entries):
    base = {"D": 1.0, "outputs": str(tmp_path / "out")}
    base.update(entries)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def fast_grids(**overrides):
    grids = {"h_list": [0.25, 0.125], "fiber_m": 4, "torus_n_max": 8}
    grids.update(overrides)
    return grids


#: ``fast_grids`` caps the Bloch ladder at 4 fibers (8 or 16 where a test
#: raises it), below what h = 1/4 and, at a cap of 4, h = 1/8 need, so a
#: sweep over them warns that the ladder reached its cap unconverged.  The
#: tests of the command-line contracts (artifacts, cache, bytes, dropped
#: points) on such grids expect that warning, and only that one.
coarse_ladder = pytest.mark.filterwarnings(
    "ignore:Bloch quadrature at h=.* reached the cap m_fibers=.* unconverged"
    ":UserWarning")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


class TestValidate:
    def test_minimal_config_fills_documented_defaults(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code, out = run_cli(capsys, "--config", str(path), "validate")
        assert code == 0
        norm = out["normalized"]
        assert norm["potential"] == {"family": "gaussian_well", "g": 2.0,
                                     "w": 1.0, "mu": 1.0, "dim": 1}
        assert norm["fields"]["W"] == [[1, 0.5]]
        assert norm["grids"]["gap"]["cutoff"] > 0
        assert norm["grids"]["h_list"] == [0.125, 0.0625, 0.03125, 0.015625]
        assert len(out["config_hash"]) == 64

    def test_builtin_reference_config_is_valid(self, capsys):
        code, out = run_cli(capsys, "validate")
        assert code == 0
        assert out["normalized"]["D"] == 1.0

    def test_missing_d_is_named(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"potential": {"g": 2.0}}))
        code, out = run_cli(capsys, "--config", str(path), "validate")
        assert code == 2
        assert out["stage"] == "config"
        assert any(v["key"] == "D" for v in out["violations"])

    def test_negative_well_depth_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, potential={"g": -2.0})
        code, out = run_cli(capsys, "--config", str(path), "validate")
        assert code == 2
        assert any(v["key"] == "potential.g" for v in out["violations"])

    def test_every_violation_listed(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "grids": {"h_list": [0.125, 0.25]},
            "seed": "zero",
            "mystery": 1,
        }))
        code, out = run_cli(capsys, "--config", str(path), "validate")
        assert code == 2
        keys = {v["key"] for v in out["violations"]}
        assert {"D", "grids.h_list", "seed", "mystery"} <= keys

    def test_h_list_outside_unit_interval(self, tmp_path, capsys):
        path = write_config(tmp_path, grids={"h_list": [2.0, 1.5]})
        code, out = run_cli(capsys, "--config", str(path), "validate")
        assert code == 2
        assert any(v["key"] == "grids.h_list" for v in out["violations"])

    def test_missing_file(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "--config", str(tmp_path / "absent.json"), "validate")
        assert code == 2
        assert "not found" in out["violations"][0]["message"]

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out = run_cli(capsys, "--config", str(path), "validate")
        assert code == 2
        assert "invalid JSON" in out["violations"][0]["message"]

    def test_flag_overrides_enter_the_hash(self, tmp_path, capsys):
        path = write_config(tmp_path)
        _, base = run_cli(capsys, "--config", str(path), "validate")
        _, seeded = run_cli(capsys, "--config", str(path), "--seed", "7",
                            "validate")
        _, swept = run_cli(capsys, "--config", str(path), "--h-list",
                           "0.25,0.125", "validate")
        assert seeded["normalized"]["seed"] == 7
        assert swept["normalized"]["grids"]["h_list"] == [0.25, 0.125]
        assert base["config_hash"] != seeded["config_hash"]
        assert base["config_hash"] != swept["config_hash"]

    def test_integer_and_float_potential_share_a_hash(self, tmp_path,
                                                      capsys):
        as_int = write_config(tmp_path, name="int.json",
                              potential={"g": 2, "w": 1, "mu": 1})
        as_float = write_config(tmp_path, name="float.json",
                                potential={"g": 2.0, "w": 1.0, "mu": 1.0})
        _, first = run_cli(capsys, "--config", str(as_int), "validate")
        _, second = run_cli(capsys, "--config", str(as_float), "validate")
        assert first["normalized"]["potential"] == \
            second["normalized"]["potential"]
        assert first["config_hash"] == second["config_hash"]

    @pytest.mark.parametrize("entries, key", [
        ({"potential": {"dim": True}}, "potential.dim"),
        ({"potential": {"dim": 1.0}}, "potential.dim"),
        ({"grids": {"gap": {"cutoff": "12", "n_points": 512}}},
         "grids.gap.cutoff"),
        ({"grids": {"gap": {"cutoff": 12.0, "n_points": 512.9}}},
         "grids.gap.n_points"),
    ])
    def test_wrongly_typed_value_is_named(self, tmp_path, capsys, entries,
                                          key):
        path = write_config(tmp_path, **entries)
        code, out = run_cli(capsys, "--config", str(path), "validate")
        assert code == 2
        assert out["stage"] == "config"
        assert [v["key"] for v in out["violations"]] == [key]

    def test_bad_h_list_flag(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code, out = run_cli(capsys, "--config", str(path), "--h-list",
                            "0.25,oops", "validate")
        assert code == 2
        assert out["violations"][0]["key"] == "--h-list"


class TestConfigObjects:
    def test_frequency_amplitude_lists_build_fields(self, tmp_path):
        path = write_config(
            tmp_path, fields={"W": [[0, 0.3], [2, 0.4]], "A": [[1, 0.2]]})
        cfg = cli.validate_config(path)
        import numpy as np
        x = np.linspace(0.0, 1.0, 7)
        expected_w = 0.3 + 0.4 * np.cos(2 * np.pi * 2 * x)
        assert np.allclose(cfg.w_field.evaluate(x).real, expected_w,
                           atol=1e-12)
        expected_a = 0.2 * np.cos(2 * np.pi * x)
        assert np.allclose(cfg.a_field.evaluate(x).real, expected_a,
                           atol=1e-12)

    def test_config_error_message_lists_keys(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"potential": {"w": -1.0}}))
        with pytest.raises(cli.ConfigError) as err:
            cli.validate_config(path)
        assert "D" in str(err.value)
        keys = {v["key"] for v in err.value.violations}
        assert "potential.w" in keys


class TestStages:
    def test_tc_writes_artifact(self, tmp_path, capsys):
        path = write_config(tmp_path, grids=fast_grids())
        code, out = run_cli(capsys, "--config", str(path), "tc")
        assert code == 0
        assert out["T_c"] == pytest.approx(REFERENCE_TC, rel=1e-9)
        assert out["cached"] is False
        gap = json.loads((tmp_path / "out" / "gap.json").read_text())
        assert gap["key"] == cli._Run(cli.validate_config(path), 1).keys["gap"]

    def test_gap_artifact_records_the_search(self, tmp_path, capsys):
        # the rank of -V = B B^T behind the Newton estimate, the n x n
        # factorizations taken and the width of the sign tests' band are
        # part of the record, and as deterministic as the rest of it
        path = write_config(tmp_path, grids=fast_grids())
        run_cli(capsys, "--config", str(path), "tc")
        gap = json.loads((tmp_path / "out" / "gap.json").read_text())
        search = gap["solution"]["tc_search"]
        assert set(search) == {"attraction_rank", "newton_steps",
                               "certificate_tests", "replay_tests",
                               "bracket_rel_width", "dense_tests",
                               "factor_residual"}
        assert isinstance(search["attraction_rank"], int)
        assert 0 < search["attraction_rank"] <= 64
        assert search["dense_tests"] == 0
        assert 0.0 < search["factor_residual"] <= 1e-13

    def test_cache_hit_preserves_bytes(self, tmp_path, capsys):
        path = write_config(tmp_path, grids=fast_grids())
        run_cli(capsys, "--config", str(path), "coeffs")
        gap_file = tmp_path / "out" / "gap.json"
        coeffs_file = tmp_path / "out" / "coeffs.json"
        before = (gap_file.read_bytes(), coeffs_file.read_bytes())
        code, out = run_cli(capsys, "--config", str(path), "coeffs")
        assert code == 0
        assert out["cached"] is True
        assert (gap_file.read_bytes(), coeffs_file.read_bytes()) == before

    def test_stale_cache_never_reused(self, tmp_path, capsys):
        path = write_config(tmp_path, grids=fast_grids())
        _, first = run_cli(capsys, "--config", str(path), "tc")
        changed = write_config(tmp_path, name="changed.json",
                               grids=fast_grids(), D=2.0)
        code, second = run_cli(capsys, "--config", str(changed), "tc")
        assert code == 0
        assert second["cached"] is False
        assert second["config_hash"] != first["config_hash"]

    def test_code_change_invalidates_cache(self, tmp_path, capsys,
                                           monkeypatch):
        path = write_config(tmp_path, grids=fast_grids())
        _, first = run_cli(capsys, "--config", str(path), "tc")
        _, warm = run_cli(capsys, "--config", str(path), "tc")
        assert warm["cached"] is True
        monkeypatch.setattr(cli, "_code_digest", lambda: "0" * 64)
        code, second = run_cli(capsys, "--config", str(path), "tc")
        assert code == 0
        assert second["cached"] is False
        assert second["config_hash"] != first["config_hash"]

    def test_no_pairing_exits_3_without_downstream(self, tmp_path, capsys):
        path = write_config(tmp_path, potential={"g": 0.0})
        code, out = run_cli(capsys, "--config", str(path), "coeffs")
        assert code == 3
        assert out["stage"] == "gap"
        assert out["kind"] == "no-pairing"
        assert "no pairing" in out["message"]
        assert not (tmp_path / "out" / "gap.json").exists()
        assert not (tmp_path / "out" / "coeffs.json").exists()

    @pytest.mark.parametrize("command, owner, attr, stage, artifact", [
        ("tc", cli, "find_tc", "gap", "gap.json"),
        ("coeffs", cli, "compute_coefficients", "coeffs", "coeffs.json"),
        ("gl-min", cli, "minimize", "gl-min", "gl.json"),
        ("verify-thm2", bv, "alpha_delta_distance", "verify-thm2",
         "sweeps/trace_expansion.json"),
    ])
    def test_failing_stage_exits_3_without_artifact(
            self, tmp_path, capsys, monkeypatch, command, owner, attr, stage,
            artifact):
        def failing(*args, **kwargs):
            raise FloatingPointError("stage lost")

        monkeypatch.setattr(owner, attr, failing)
        path = write_config(tmp_path, grids=fast_grids())
        code, out = run_cli(capsys, "--config", str(path), command)
        assert code == 3
        assert out["stage"] == stage
        assert out["kind"] == "numerical"
        assert "stage lost" in out["message"]
        assert not (tmp_path / "out" / artifact).exists()

    @coarse_ladder
    def test_sweep_after_cached_gap_matches_fresh_sweep(self, tmp_path,
                                                        capsys):
        # the sweep decodes gap.json on a cache hit and the freshly solved
        # gap otherwise; both must give the same bytes
        path = write_config(
            tmp_path, grids=fast_grids(h_list=[0.25, 0.125, 0.0625]))
        artifact = tmp_path / "out" / "sweeps" / "trace_expansion.json"
        run_cli(capsys, "--config", str(path), "verify-thm2")
        fresh = artifact.read_bytes()
        shutil.rmtree(tmp_path / "out")
        run_cli(capsys, "--config", str(path), "tc")
        code, out = run_cli(capsys, "--config", str(path), "verify-thm2")
        assert code == 0
        assert out["cached"] is False
        assert artifact.read_bytes() == fresh

    def test_gl_min_reports_energy(self, tmp_path, capsys):
        path = write_config(tmp_path, grids=fast_grids())
        code, out = run_cli(capsys, "--config", str(path), "gl-min")
        assert code == 0
        assert out["converged"] is True
        assert out["energy"] < 1e-4
        assert (tmp_path / "out" / "gl.json").exists()


class TestSweepCommands:
    @coarse_ladder
    def test_trace_sweep_passes_on_coarse_grid(self, tmp_path, capsys):
        path = write_config(
            tmp_path, grids=fast_grids(h_list=[0.25, 0.125, 0.0625]))
        code, out = run_cli(capsys, "--config", str(path), "verify-thm2")
        assert code == 0
        assert out["gates"]["order_ok"] is True
        payload = json.loads(
            (tmp_path / "out" / "sweeps" / "trace_expansion.json")
            .read_text())
        assert payload["passed"] is True
        assert len(payload["report"]["observed"]) == 3

    @coarse_ladder
    def test_failed_gate_exits_4_but_writes_artifact(self, tmp_path,
                                                     capsys):
        # two coarse points are far from the asymptotic regime, so the
        # distance sweep's order gate fails; the artifact must still land
        path = write_config(tmp_path, grids=fast_grids())
        code, out = run_cli(capsys, "--config", str(path), "verify-thm3")
        assert code == 4
        assert out["status"] == "regression"
        assert out["gates"]["passed"] is False
        payload = json.loads(
            (tmp_path / "out" / "sweeps" / "pair_distance.json").read_text())
        assert payload["passed"] is False

    @coarse_ladder
    def test_workers_do_not_change_sweep_bytes(self, tmp_path, capsys):
        # one fiber pass writes both the trace and the pair artifact
        path = write_config(
            tmp_path, grids=fast_grids(h_list=[0.25, 0.125, 0.0625]))
        artifacts = [tmp_path / "out" / "sweeps" / f"{name}.json"
                     for name in ("trace_expansion", "pair_distance")]
        run_cli(capsys, "--config", str(path), "--workers", "1",
                "verify-thm2")
        serial = [artifact.read_bytes() for artifact in artifacts]
        for artifact in artifacts:
            artifact.unlink()
        shutil.rmtree(tmp_path / "out" / "points")
        run_cli(capsys, "--config", str(path), "--workers", "4",
                "verify-thm2")
        assert [artifact.read_bytes() for artifact in artifacts] == serial

    def test_workers_do_not_change_ladder_bytes(self, tmp_path, capsys):
        # with a cap of 16 the Bloch ladder stops below it at every h
        path = write_config(
            tmp_path,
            grids=fast_grids(h_list=[0.125, 0.0625, 0.03125], fiber_m=16))
        sweeps = tmp_path / "out" / "sweeps"
        run_cli(capsys, "--config", str(path), "--workers", "1",
                "verify-thm2")
        serial = {p.name: p.read_bytes() for p in sweeps.glob("*.json")}
        assert set(serial) == {"trace_expansion.json", "pair_distance.json"}
        used = [e["m_fibers"] for e in json.loads(
            serial["trace_expansion.json"])["report"]["extras"]]
        assert max(used) < 16
        shutil.rmtree(sweeps)
        shutil.rmtree(tmp_path / "out" / "points")
        run_cli(capsys, "--config", str(path), "--workers", "4",
                "verify-thm2")
        assert {p.name: p.read_bytes()
                for p in sweeps.glob("*.json")} == serial

    def test_workers_do_not_change_energy_ladder_bytes(self, tmp_path,
                                                       capsys):
        # with a cap of 16 the energy sweep's ladder stops below it at
        # every h, and each point records it
        path = write_config(
            tmp_path,
            grids=fast_grids(h_list=[0.125, 0.0625, 0.03125], fiber_m=16))
        artifact = tmp_path / "out" / "sweeps" / "energy_upper_bound.json"
        run_cli(capsys, "--config", str(path), "--workers", "1",
                "verify-energy")
        serial = artifact.read_bytes()
        extras = json.loads(serial)["report"]["extras"]
        assert all(e["m_fibers"] < 16 and e["capped"] is False
                   and e["delta_f_bcs_diff"] <= e["f_bcs_diff_floor"]
                   for e in extras)
        artifact.unlink()
        shutil.rmtree(tmp_path / "out" / "points")
        run_cli(capsys, "--config", str(path), "--workers", "4",
                "verify-energy")
        assert artifact.read_bytes() == serial

    @coarse_ladder
    @pytest.mark.parametrize("command, name, observable", [
        ("verify-thm2", "trace_expansion", "alpha_delta_distance"),
        ("verify-thm3", "pair_distance", "alpha_delta_distance"),
        ("verify-energy", "energy_upper_bound", "trial_state_energy"),
    ])
    def test_dropped_finest_point_fails_the_sweep(self, tmp_path, capsys,
                                                  monkeypatch, command, name,
                                                  observable):
        h_list = [0.25, 0.125, 0.0625, 0.03125]
        original = getattr(bv, observable)

        def failing_at_finest(sol, psi, a, w, h, **kwargs):
            if h == h_list[-1]:
                raise FloatingPointError("finest point lost")
            return original(sol, psi, a, w, h, **kwargs)

        monkeypatch.setattr(bv, observable, failing_at_finest)
        path = write_config(tmp_path, grids=fast_grids(h_list=h_list))
        code, out = run_cli(capsys, "--config", str(path), command)
        assert code == 4
        assert out["status"] == "regression"
        assert out["gates"]["finest_point_ok"] is False
        payload = json.loads(
            (tmp_path / "out" / "sweeps" / f"{name}.json").read_text())
        assert payload["passed"] is False
        assert payload["report"]["h_values"] == h_list[:-1]
        assert payload["report"]["failures"] == [
            [h_list[-1], "FloatingPointError('finest point lost')"]]

    @coarse_ladder
    @pytest.mark.parametrize("command, name", [
        ("verify-thm2", "trace_expansion"),
        ("verify-thm3", "pair_distance"),
        ("verify-energy", "energy_upper_bound"),
    ])
    def test_workers_do_not_change_folded_sweep_bytes(self, tmp_path, capsys,
                                                      monkeypatch, command,
                                                      name):
        kinds = set()
        original = bv.build_fiber

        def recording(*args, **kwargs):
            op = original(*args, **kwargs)
            kinds.add(op.matrix.dtype.kind)
            return op

        monkeypatch.setattr(bv, "build_fiber", recording)
        # eight fibers: partnered nodes plus the unpartnered 0 and pi
        path = write_config(
            tmp_path,
            grids=fast_grids(h_list=[0.25, 0.125, 0.0625], fiber_m=8))
        artifact = tmp_path / "out" / "sweeps" / f"{name}.json"
        run_cli(capsys, "--config", str(path), "--workers", "1", command)
        serial = artifact.read_bytes()
        artifact.unlink()
        shutil.rmtree(tmp_path / "out" / "points")
        run_cli(capsys, "--config", str(path), "--workers", "2", command)
        assert artifact.read_bytes() == serial
        # A = 0 and W = 0.5 cos make the GL state real, so the energy
        # sweep runs on real fibers; the other two probe a complex psi
        assert kinds == ({"f"} if command == "verify-energy" else {"c"})


class TestSharedFiberPass:
    """verify-thm2 and verify-thm3 come from one fiber pass per h."""

    H_LIST = [0.25, 0.125, 0.0625]

    @coarse_ladder
    def test_one_build_and_one_eigh_per_fiber(self, tmp_path, capsys,
                                              monkeypatch):
        built, solves = [], []
        build, eigh, eigvalsh = (bv.build_fiber, np.linalg.eigh,
                                 np.linalg.eigvalsh)

        def recording_build(basis, xi, *args):
            op = build(basis, xi, *args)
            built.append((basis.h, xi, op.matrix.shape[0]))
            return op

        def recording(kind, solver):
            def solve(matrix, *args, **kwargs):
                solves.append((kind, matrix.shape[0]))
                return solver(matrix, *args, **kwargs)
            return solve

        monkeypatch.setattr(bv, "build_fiber", recording_build)
        monkeypatch.setattr(np.linalg, "eigh", recording("eigh", eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            recording("eigvalsh", eigvalsh))
        path = write_config(tmp_path, grids=fast_grids(h_list=self.H_LIST))
        code, first = run_cli(capsys, "--config", str(path), "--workers",
                              "1", "verify-thm2")
        assert code == 0 and first["cached"] is False
        # each Bloch-ladder node built at most once per h, and the nodes
        # built at h are the half grid of the M recorded for h
        extras = json.loads(
            (tmp_path / "out" / "sweeps" / "trace_expansion.json")
            .read_text())["report"]["extras"]
        assert len(extras) == len(self.H_LIST)
        for h, extra in zip(self.H_LIST, extras):
            nodes = [xi for h_built, xi, _ in built if h_built == h]
            assert len(nodes) == len(set(nodes)), h
            np.testing.assert_array_equal(
                sorted(nodes),
                bv.FiberBasis(0.5, 1, extra["m_fibers"]).half_nodes)
        # one eigh of each 2N fiber and no eigvalsh of one
        full = [n for _, _, n in built]
        assert sorted(n for kind, n in solves
                      if kind == "eigh" and n in full) == sorted(full)
        assert not [n for kind, n in solves
                    if kind == "eigvalsh" and n in full]
        assert (tmp_path / "out" / "sweeps" / "pair_distance.json").is_file()

        built.clear()
        # (exit 4: three coarse points miss the pair-order gate)
        _, second = run_cli(capsys, "--config", str(path), "verify-thm3")
        assert second["sweep"] == "pair_distance"
        assert second["cached"] is True
        assert built == []

    def test_cold_all_reports_both_sweeps_uncached(self, full_run):
        # the second sweep comes from memory, not from disk
        _, summary = full_run
        cached = summary["cached_stages"]
        assert cached["trace_expansion"] is False
        assert cached["pair_distance"] is False


class TestArtifactWrites:
    def test_dump_json_replaces_whole_file(self, tmp_path, monkeypatch):
        path = tmp_path / "sub" / "artifact.json"
        cli._dump_json(path, {"value": 1})
        assert json.loads(path.read_text()) == {"value": 1}
        assert [p.name for p in path.parent.iterdir()] == ["artifact.json"]

        def interrupted(src, dst):
            raise OSError("interrupted before the rename")

        monkeypatch.setattr(cli.os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            cli._dump_json(path, {"value": 2})
        # the old artifact survives whole and no temporary file is left
        assert json.loads(path.read_text()) == {"value": 1}
        assert [p.name for p in path.parent.iterdir()] == ["artifact.json"]


class TestCacheContracts:
    """Each stage, h point and the property suite key on their own
    inputs, so an edit recomputes only what depends on it."""

    H_LIST = [0.25, 0.125, 0.0625]
    ARTIFACTS = ("gap.json", "coeffs.json", "gl.json", "report.csv",
                 "properties.json", "sweeps/trace_expansion.json",
                 "sweeps/pair_distance.json", "sweeps/energy_upper_bound.json")

    @staticmethod
    def pipeline(path, **overrides):
        """``run_pipeline`` with one worker; returns ``cached_stages``."""
        cfg = cli.validate_config(path, overrides)
        return cli.run_pipeline(cfg, workers=1)["cached_stages"]

    @staticmethod
    def points(out):
        return {p.name for p in (out / "points").glob("*.json")}

    @pytest.mark.parametrize("content", [b"[]", b"\x80\xff not utf-8"])
    def test_corrupt_artifact_is_recomputed(self, tmp_path, capsys,
                                            content):
        path = write_config(tmp_path, grids=fast_grids())
        _, first = run_cli(capsys, "--config", str(path), "tc")
        gap_file = tmp_path / "out" / "gap.json"
        fresh = gap_file.read_bytes()
        gap_file.write_bytes(content)
        code, out = run_cli(capsys, "--config", str(path), "tc")
        assert code == 0
        assert out["cached"] is False
        assert out["T_c"] == first["T_c"]
        assert gap_file.read_bytes() == fresh

    @coarse_ladder
    def test_edited_h_list_writes_the_bytes_of_a_cold_run(
            self, tmp_path, capsys, monkeypatch):
        # the edited list is a subset of the first one, so every point it
        # needs is cached and no fiber is built
        full = write_config(tmp_path, grids=fast_grids(h_list=self.H_LIST))
        edited = ["--h-list", "0.25,0.125"]
        run_cli(capsys, "--config", str(full), "all")

        def no_fiber(*args, **kwargs):
            raise AssertionError("an h point was recomputed")

        monkeypatch.setattr(bv, "alpha_delta_distance", no_fiber)
        monkeypatch.setattr(bv, "trial_state_energy", no_fiber)
        _, warm = run_cli(capsys, "--config", str(full), *edited, "all")
        monkeypatch.undo()
        cached = warm["pipeline"]["cached_stages"]
        assert {k for k, hit in cached.items() if not hit} == {
            "trace_expansion", "pair_distance", "energy_upper_bound"}

        cold_dir = tmp_path / "cold"
        _, cold = run_cli(capsys, "--config", str(full), "--out",
                          str(cold_dir), *edited, "all")
        assert not any(cold["pipeline"]["cached_stages"].values())
        for name in self.ARTIFACTS:
            assert (tmp_path / "out" / name).read_bytes() == \
                (cold_dir / name).read_bytes(), name
        assert self.points(cold_dir) < self.points(tmp_path / "out")
        for summary in (warm, cold):
            summary["pipeline"].pop("cached_stages")
        assert warm == cold

    @coarse_ladder
    def test_seed_change_keeps_the_gap_and_the_fiber_sweeps(
            self, tmp_path, capsys, monkeypatch):
        from bcsgl import properties
        seeds = []
        monkeypatch.setattr(properties, "run_suite",
                            lambda seed: seeds.append(seed) or [])
        path = write_config(tmp_path, grids=fast_grids(h_list=self.H_LIST))
        run_cli(capsys, "--config", str(path), "all")
        before = self.points(tmp_path / "out")
        _, out = run_cli(capsys, "--config", str(path), "--seed", "3", "all")
        cached = out["pipeline"]["cached_stages"]
        assert {k for k, hit in cached.items() if not hit} == {
            "gl-min", "energy_upper_bound", "properties"}
        assert seeds == [0, 3]
        # three new energy points, no new fiber point
        assert len(self.points(tmp_path / "out") - before) == 3

    @coarse_ladder
    @pytest.mark.parametrize("overrides, recomputed", [
        ({"D": 2.0}, {"gap", "coeffs", "gl-min", "trace_expansion",
                      "pair_distance", "energy_upper_bound"}),
        ({"fields": {"A": [[1, 0.2]]}}, {"gl-min", "trace_expansion",
                                         "pair_distance",
                                         "energy_upper_bound"}),
        ({"grids": fast_grids(fiber_m=8)}, {"trace_expansion",
                                            "pair_distance",
                                            "energy_upper_bound"}),
    ])
    def test_input_change_invalidates_its_dependents(self, tmp_path,
                                                     monkeypatch, overrides,
                                                     recomputed):
        from bcsgl import properties
        # the suite keys on the seed alone, which no case changes
        monkeypatch.setattr(properties, "run_suite", lambda seed: [])
        path = write_config(tmp_path, grids=fast_grids())
        assert not any(self.pipeline(path).values())
        before = self.points(tmp_path / "out")
        changed = write_config(tmp_path, name="changed.json",
                               **{"grids": fast_grids(), **overrides})
        cached = self.pipeline(changed)
        assert {k for k, hit in cached.items() if not hit} == recomputed
        # every fiber and energy point of the h-list is new
        assert len(self.points(tmp_path / "out") - before) == 4
        assert all(self.pipeline(changed).values())

    @coarse_ladder
    def test_dropped_point_is_retried(self, tmp_path, capsys, monkeypatch):
        h_list = [*self.H_LIST, 0.03125]
        original, calls, lost = bv.alpha_delta_distance, [], [h_list[-1]]

        def failing(sol, psi, a, w, h, **kwargs):
            calls.append(h)
            if h in lost:
                raise FloatingPointError("finest point lost")
            return original(sol, psi, a, w, h, **kwargs)

        monkeypatch.setattr(bv, "alpha_delta_distance", failing)
        path = write_config(tmp_path, grids=fast_grids(h_list=h_list))
        code, _ = run_cli(capsys, "--config", str(path), "verify-thm2")
        assert code == 4
        lost.clear()
        calls.clear()
        code, out = run_cli(capsys, "--config", str(path), "verify-thm2")
        assert out["cached"] is False
        assert out["gates"]["finest_point_ok"] is True
        # the kept points are read back; only the dropped one is computed
        assert calls == [h_list[-1]]
        report = json.loads((tmp_path / "out" / "sweeps" / "pair_distance.json")
                            .read_text())["report"]
        assert report["h_values"] == h_list
        assert report["failures"] == []

    @coarse_ladder
    def test_energy_sweep_keeps_the_remainder_check_of_a_cached_point(
            self, tmp_path, capsys, monkeypatch):
        # an unconverged remainder quadrature warns only in the run that
        # computes the point; the sweep record keeps both values, also
        # when it is rebuilt from the cached points
        original = bv.trial_state_energy

        def unconverged(*args, **kwargs):
            res = original(*args, **kwargs)
            return {**res, "term_remainder_check": 2.0 * res["term_remainder"]}

        def no_point(*args, **kwargs):
            raise AssertionError("an energy point was recomputed")

        monkeypatch.setattr(bv, "trial_state_energy", unconverged)
        path = write_config(tmp_path, grids=fast_grids())
        run_cli(capsys, "--config", str(path), "verify-energy")
        artifact = tmp_path / "out" / "sweeps" / "energy_upper_bound.json"
        first = json.loads(artifact.read_text())["report"]
        artifact.unlink()
        monkeypatch.setattr(bv, "trial_state_energy", no_point)
        _, out = run_cli(capsys, "--config", str(path), "verify-energy")
        assert out["cached"] is False
        report = json.loads(artifact.read_text())["report"]
        assert report["failures"] == []
        assert report["extras"] == first["extras"]
        assert len(report["extras"]) == 2
        for extra in report["extras"]:
            assert extra["term_remainder"] != 0.0
            assert extra["term_remainder_check"] == 2.0 * extra["term_remainder"]


class TestWorkerPool:
    """One pool of ``--workers`` threads runs the h points of every sweep,
    their fibers and the property suite."""

    H_LIST = [0.25, 0.125, 0.0625]

    def test_at_most_workers_fibers_in_flight(self, tmp_path, monkeypatch):
        lock, running, peak, threads = threading.Lock(), [0], [0], set()
        build = bv.build_fiber

        def counted(*args, **kwargs):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
                threads.add(threading.get_ident())
            try:
                # long enough for every computing thread to overlap
                time.sleep(0.002)
                return build(*args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(bv, "build_fiber", counted)
        path = write_config(tmp_path, grids=fast_grids(h_list=self.H_LIST))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cli.run_pipeline(cli.validate_config(path), workers=2)
        assert 1 <= peak[0] <= 2
        # the main thread only waits: every fiber ran on the pool
        assert threading.get_ident() not in threads

    def test_more_workers_than_cores_write_the_serial_bytes(self, tmp_path):
        # a stress run: eight threads on few cores, switching every
        # microsecond, write every file a one-worker run writes
        def files(out):
            return {p.relative_to(out): p.read_bytes()
                    for p in out.rglob("*") if p.is_file()}

        path = write_config(tmp_path, grids=fast_grids(h_list=self.H_LIST))
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cli.run_pipeline(cli.validate_config(path, {"outputs": str(serial)}),
                             workers=1)
            thread = threading.Thread(
                target=cli.run_pipeline, daemon=True,
                args=(cli.validate_config(path, {"outputs": str(pooled)}),),
                kwargs={"workers": 8})
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                thread.start()
                thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        assert not thread.is_alive(), "the pooled run did not return"
        assert files(pooled) == files(serial)

    def test_pool_leaves_the_warning_filters_and_reports_warnings(
            self, tmp_path, monkeypatch):
        # the coarse grids cap the Bloch ladder on pool threads; the
        # warning still reaches the caller, and no thread edits the
        # process-wide filter list
        on_pool = []
        ladder = bv._bloch_ladder

        def recording(*args, **kwargs):
            on_pool.append(threading.current_thread()
                           is not threading.main_thread())
            return ladder(*args, **kwargs)

        # every edit of the filter list (catch_warnings, simplefilter)
        # reports itself to the warnings module; none may come from a pool
        # thread, where it could race another and leave a filter behind
        edited_on = []
        mutated = warnings._filters_mutated

        def reporting():
            edited_on.append(threading.current_thread())
            mutated()

        monkeypatch.setattr(bv, "_bloch_ladder", recording)
        monkeypatch.setattr(warnings, "_filters_mutated", reporting)
        path = write_config(tmp_path, grids=fast_grids(h_list=self.H_LIST))
        before = list(warnings.filters)
        with pytest.warns(UserWarning, match="reached the cap m_fibers=4"):
            cli.run_pipeline(cli.validate_config(path), workers=2)
        assert warnings.filters == before
        assert on_pool and all(on_pool)
        assert all(t is threading.main_thread() for t in edited_on)

    def test_failing_point_is_listed_and_not_cached(self, tmp_path, capsys,
                                                    monkeypatch):
        # three of four points survive, so the sweep keeps them
        h_list, lost = [*self.H_LIST, 0.03125], self.H_LIST[1]
        original, failed_on = bv.alpha_delta_distance, []

        def failing(sol, psi, a, w, h, **kwargs):
            if h == lost:
                failed_on.append(threading.current_thread())
                raise FloatingPointError("point lost")
            return original(sol, psi, a, w, h, **kwargs)

        monkeypatch.setattr(bv, "alpha_delta_distance", failing)
        path = write_config(tmp_path, grids=fast_grids(h_list=h_list))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code, out = run_cli(capsys, "--config", str(path), "--workers",
                                "2", "verify-thm2")
        assert code in (cli.EXIT_OK, cli.EXIT_REGRESSION)
        assert failed_on and failed_on[0] is not threading.main_thread()
        kept = [h for h in h_list if h != lost]
        report = json.loads((tmp_path / "out" / "sweeps"
                             / "trace_expansion.json").read_text())["report"]
        assert report["h_values"] == kept
        assert report["failures"] == [[lost, "FloatingPointError('point lost')"]]
        fiber = cli._Run(cli.validate_config(path), 1).keys["fiber"]
        assert {p.name for p in (tmp_path / "out" / "points").glob("*")} == {
            f"{cli._key(fiber, h)}.json" for h in kept}

    @pytest.mark.parametrize("attr, stage", [("find_tc", "gap"),
                                             ("minimize", "gl-min")])
    def test_failed_stage_starts_no_point(self, tmp_path, monkeypatch, attr,
                                          stage):
        from bcsgl import properties
        started = []

        def failing(*args, **kwargs):
            raise FloatingPointError("stage lost")

        def point(*args, **kwargs):
            started.append(args[4])
            raise AssertionError("a sweep point started")

        monkeypatch.setattr(cli, attr, failing)
        monkeypatch.setattr(bv, "alpha_delta_distance", point)
        monkeypatch.setattr(bv, "trial_state_energy", point)
        monkeypatch.setattr(properties, "run_suite", lambda seed: [])
        path = write_config(tmp_path, grids=fast_grids(h_list=self.H_LIST))
        result, stdout = {}, io.StringIO()

        def run():
            with contextlib.redirect_stdout(stdout):
                result["code"] = cli.main(["--config", str(path),
                                           "--workers", "2", "all"])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive(), "all did not return"
        assert result["code"] == cli.EXIT_NUMERICAL
        out = json.loads(stdout.getvalue())
        assert out["stage"] == stage and "stage lost" in out["message"]
        assert started == []
        assert not (tmp_path / "out" / "points").exists()


class TestPropTests:
    def test_prop_tests_pass(self, capsys):
        code, out = run_cli(capsys, "prop-tests")
        assert code == 0
        assert out["total"] == 20
        assert out["passed"] == 20
        assert out["failures"] == []

    def test_prop_tests_never_reads_the_cached_suite(self, tmp_path, capsys,
                                                     monkeypatch):
        from bcsgl import properties
        out_dir = tmp_path / "out"
        cli._dump_json(out_dir / "properties.json", {
            "key": cli._key("properties", 0), "total": 99, "passed": 99,
            "failures": [], "all_passed": True})
        monkeypatch.setattr(properties, "run_suite", lambda seed: [])
        code, out = run_cli(capsys, "--out", str(out_dir), "prop-tests")
        assert code == 0
        assert out["total"] == 0

    def test_prop_failures_enumerated(self, capsys, monkeypatch):
        from bcsgl import specfun
        original = specfun.g1
        monkeypatch.setattr(specfun, "g1", lambda z: -original(z))
        code, out = run_cli(capsys, "prop-tests")
        assert code == 4
        assert out["failures"]
        entry = out["failures"][0]
        assert {"module", "name", "witness"} <= set(entry)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """``bcsgl all`` on the built-in config: its output directory and the
    pipeline summary."""
    out_dir = tmp_path_factory.mktemp("pipeline")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["--out", str(out_dir), "--workers", "4", "all"])
    assert code == cli.EXIT_OK
    return out_dir, json.loads(stdout.getvalue())["pipeline"]


class TestFullPipeline:
    def test_acceptance_artifacts_present(self, full_run):
        out_dir, _ = full_run
        for name in ("gap.json", "coeffs.json", "gl.json", "report.csv",
                     "properties.json",
                     "sweeps/trace_expansion.json",
                     "sweeps/pair_distance.json",
                     "sweeps/energy_upper_bound.json"):
            assert (out_dir / name).is_file(), name

    def test_every_gate_passes_on_reference_run(self, full_run):
        _, summary = full_run
        assert summary["all_gates_passed"], summary["sweeps"]
        assert summary["sweeps"]["trace_expansion"]["fitted_order"] > 4.5
        assert summary["sweeps"]["pair_distance"]["fitted_order"] > 2.3
        assert summary["sweeps"]["energy_upper_bound"]["fitted_order"] > 0.8

    def test_energy_artifact_names_one_order(self, full_run):
        # the report and the gate both carry the order of the gaps to the
        # GL value, not that of the scaled energies themselves
        out_dir, _ = full_run
        payload = json.loads(
            (out_dir / "sweeps" / "energy_upper_bound.json").read_text())
        report, gates = payload["report"], payload["gates"]
        assert report["fitted_order"] == gates["fitted_order"]
        assert gates["fitted_order"] == bv.fit_order(report["h_values"],
                                                     gates["gaps"])

    def test_rerun_is_byte_identical(self, full_run):
        out_dir, _ = full_run
        files = sorted(p for p in out_dir.rglob("*") if p.is_file())
        before = {p: p.read_bytes() for p in files}
        cfg = cli.validate_config(None, {"outputs": str(out_dir)})
        summary = cli.run_pipeline(cfg, workers=4)
        assert all(summary["cached_stages"].values())
        assert {p: p.read_bytes() for p in files} == before

    def test_copied_output_directory_is_a_cache_hit(self, full_run, tmp_path,
                                                    capsys):
        # the output path is not part of the config hash
        out_dir, _ = full_run
        copy = tmp_path / "copy"
        shutil.copytree(out_dir, copy)
        files = sorted(p for p in copy.rglob("*") if p.is_file())
        before = {p: p.read_bytes() for p in files}
        code, out = run_cli(capsys, "--out", str(copy), "--workers", "2",
                            "all")
        assert code == 0
        assert all(out["pipeline"]["cached_stages"].values())
        assert {p: p.read_bytes() for p in files} == before

    def test_report_csv_schema(self, full_run):
        # one row per kept point of each sweep artifact, in artifact order
        out_dir, _ = full_run
        lines = (out_dir / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "sweep,h,observable,target,residual"
        expected = []
        for name in ("trace_expansion", "pair_distance",
                     "energy_upper_bound"):
            report = json.loads(
                (out_dir / "sweeps" / f"{name}.json").read_text())["report"]
            # the artifact holds the record h_sweep returns
            assert set(report) == set(bv.h_sweep(lambda h: h, [0.5, 0.25]))
            ref = report["reference"]
            expected += [f"{name},{h!r},{obs!r},{ref!r},{obs - ref!r}"
                         for h, obs in zip(report["h_values"],
                                           report["observed"])]
        assert lines[1:] == expected


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "bcsgl.cli", "--help"],
            capture_output=True, text=True, check=False)
        assert result.returncode == 0
        for name in ("validate", "tc", "coeffs", "gl-min", "verify-thm2",
                     "verify-thm3", "verify-energy", "prop-tests", "all"):
            assert name in result.stdout

    def test_version_is_a_string(self):
        import bcsgl
        assert isinstance(bcsgl.__version__, str) and bcsgl.__version__
        with pytest.raises(AttributeError):
            bcsgl.no_such_attribute

    def test_console_entry_owns_the_thread_policy(self, monkeypatch):
        # the 'bcsgl' script sets each unset BLAS/OpenMP thread variable to
        # 1 when more than one worker runs, and leaves a set one alone
        import bcsgl
        names = bcsgl.THREAD_VARIABLES
        monkeypatch.setattr(cli, "main", lambda args: cli.EXIT_OK)

        def entry(*argv, **env):
            for name in names:
                monkeypatch.setenv(name, "unset")
                monkeypatch.delenv(name)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            assert bcsgl.main([*argv, "validate"]) == cli.EXIT_OK
            return {name: os.environ.get(name) for name in names}

        one = dict.fromkeys(names, "1")
        assert entry("--workers", "2") == one
        assert entry("--workers=3") == one
        assert entry("--workers", "2", OPENBLAS_NUM_THREADS="4") == {
            **one, "OPENBLAS_NUM_THREADS": "4"}
        assert entry("--workers", "1") == dict.fromkeys(names)
        assert entry() == (one if (os.cpu_count() or 1) > 1
                           else dict.fromkeys(names))
        # abbreviated and repeated options count as the CLI's parser reads
        # them, so a one-worker run sets no variable
        assert entry("--worker", "1") == dict.fromkeys(names)
        assert entry("--work=1") == dict.fromkeys(names)
        assert entry("--w", "2") == one
        assert entry("--workers", "2", "--wo", "1") == dict.fromkeys(names)
        for argv in (["--workers", "2"], ["--workers=3"], ["--worker", "1"],
                     ["--work=1"], ["--w", "5"], ["--w=1"],
                     ["--workers", "2", "--wo", "1"], ["--seed", "2"], []):
            parsed = cli._build_parser().parse_args([*argv, "validate"])
            assert bcsgl._worker_count(argv) == parsed.workers, argv

    def test_console_entry_sets_the_policy_before_numpy(self, tmp_path):
        # fresh interpreters: the package loads no NumPy, the entry sets
        # the variables before NumPy loads, and importing the CLI as a
        # library sets none
        import bcsgl
        names = list(bcsgl.THREAD_VARIABLES)
        entry = ("import json, os, sys\nimport bcsgl\n"
                 "assert 'numpy' not in sys.modules\n"
                 "seen = []\n"
                 "class Probe:\n"
                 "    def find_spec(self, name, path=None, target=None):\n"
                 "        if name == 'numpy':\n"
                 f"            seen.append([os.environ.get(v) for v in {names}])\n"
                 "sys.meta_path.insert(0, Probe())\n"
                 "code = bcsgl.main(sys.argv[1:])\n"
                 "print(json.dumps([code, seen[0]]))")
        library = ("import json, os\nimport bcsgl.cli\n"
                   f"print(json.dumps([0, [os.environ.get(v) for v in {names}]]))")
        src = str(Path(cli.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))

        def variables(code):
            result = subprocess.run(
                [sys.executable, "-c", code, "--workers", "2", "validate"],
                env=env, cwd=tmp_path, capture_output=True, text=True,
                check=False)
            assert result.returncode == 0, result.stderr
            status, seen = json.loads(result.stdout.strip().splitlines()[-1])
            assert status == cli.EXIT_OK
            return seen

        assert variables(entry) == ["1"] * len(names)
        assert variables(library) == [None] * len(names)

    def test_pipeline_imports_only_the_scipy_it_runs(self, tmp_path):
        # Each command runs in a fresh interpreter, which then lists the
        # SciPy modules it holds.  The package runs on NumPy alone, so
        # every command holds none.
        listing = ("print(json.dumps([code, sorted(m for m in sys.modules "
                   "if m.split('.')[0] == 'scipy')]))")
        script = ("import json, sys\nimport bcsgl.cli\n"
                  "code = bcsgl.cli.main(sys.argv[1:])\n" + listing)
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        config = str(write_config(tmp_path, grids=fast_grids()))

        def start(*argv, code=script):
            return subprocess.Popen(
                [sys.executable, "-c", code, "--config", config, *argv],
                env=env, cwd=tmp_path, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)

        def modules(process, codes=(cli.EXIT_OK,)):
            out, err = process.communicate(timeout=300)
            assert process.returncode == 0, err
            code, names = json.loads(out.strip().splitlines()[-1])
            assert code in codes, out
            return names

        # the coarse grids fail sweep gates (exit 4) after every stage ran
        swept = (cli.EXIT_OK, cli.EXIT_REGRESSION)
        runs = {
            "validate": (start("validate"),),
            "tc": (start("--out", "tc", "tc"),),
            "verify-thm2": (start("--out", "fiber", "verify-thm2"), swept),
            "prop-tests": (start("prop-tests"),),
            "all": (start("--out", "all", "all"), swept),
        }
        loaded = {command: modules(*run) for command, run in runs.items()}
        # the second fiber sweep reads back what verify-thm2 wrote
        loaded["verify-thm3"] = modules(
            start("--out", "fiber", "verify-thm3"), swept)

        for command, names in loaded.items():
            assert names == [], command
