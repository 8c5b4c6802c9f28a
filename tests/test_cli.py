"""Tests for the command-line pipeline: config, caching, subcommands."""

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bcsgl
from bcsgl import bdg_verifier as bv
from bcsgl import cli
from bcsgl import gap_solver as gs
from bcsgl import gl_coeffs as gc
from bcsgl import gl_minimizer as gm
from pair_blocks import dense_alpha, fiber_matrix, held_arrays

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


def _config(**entries):
    """A config file's content: ``D = 1`` and ``entries``."""
    return {"D": 1.0, **entries}


_GAP_KEYS = "must be null or an object with keys 'cutoff' and 'n_points'"
_PAIR = "must be a [frequency, amplitude] pair"
_FREQUENCY = "frequency must be an integer >= 0"
_AMPLITUDE = "amplitude must be a finite number"
_FINITE = "must be a finite number"
_COUNT = "must be an integer >= 1"
_H_LIST = "must be a nonempty list of finite numbers"
_OBJECT = "must be an object"

#: One row per violation the validation emits: a config file's content
#: and the exact ``(key, message)`` list it gives.
VIOLATIONS = [pytest.param(*row, id=row_id) for row_id, *row in [
    ("top-level-list", [], [("", "top level must be a JSON object")]),
    ("top-level-string", "x", [("", "top level must be a JSON object")]),
    ("top-level-number", 3, [("", "top level must be a JSON object")]),
    ("unknown-key", _config(mystery=1), [("mystery", "unknown key")]),
    ("missing-D", {}, [("D", "required (temperature-distance parameter; "
                             "no default)")]),
    ("D-zero", _config(D=0), [("D", "must be a finite number > 0")]),
    ("D-negative", _config(D=-1.5), [("D", "must be a finite number > 0")]),
    ("D-string", _config(D="1"), [("D", "must be a finite number > 0")]),
    ("D-bool", _config(D=True), [("D", "must be a finite number > 0")]),
    ("D-infinite", _config(D=math.inf), [("D", "must be a finite number > 0")]),
    ("potential-list", _config(potential=[]), [("potential", _OBJECT)]),
    ("potential-unknown", _config(potential={"depth": 2}),
     [("potential.depth", "unknown key")]),
    ("family", _config(potential={"family": "lorentz_well"}),
     [("potential.family", "must be 'gaussian_well' or 'square_well'")]),
    ("g-string", _config(potential={"g": "2"}), [("potential.g", _FINITE)]),
    ("g-infinite", _config(potential={"g": math.inf}),
     [("potential.g", _FINITE)]),
    ("w-nan", _config(potential={"w": math.nan}), [("potential.w", _FINITE)]),
    ("mu-infinite", _config(potential={"mu": -math.inf}),
     [("potential.mu", _FINITE)]),
    ("mu-bool", _config(potential={"mu": False}), [("potential.mu", _FINITE)]),
    ("g-negative", _config(potential={"g": -1}),
     [("potential.g", "well depth g must be >= 0, got -1.0")]),
    ("w-zero", _config(potential={"w": 0}),
     [("potential.w", "well width w must be positive, got 0.0")]),
    ("w-negative", _config(potential={"w": -2.5}),
     [("potential.w", "well width w must be positive, got -2.5")]),
    ("dim", _config(potential={"dim": 2}),
     [("potential.dim", "the pipeline runs in dimension 1")]),
    ("potential-all", _config(potential={
        "family": "x", "g": -1, "w": 0, "dim": 3, "extra": 0}),
     [("potential.extra", "unknown key"),
      ("potential.family", "must be 'gaussian_well' or 'square_well'"),
      ("potential.g", "well depth g must be >= 0, got -1.0"),
      ("potential.w", "well width w must be positive, got 0.0"),
      ("potential.dim", "the pipeline runs in dimension 1")]),
    ("fields-list", _config(fields=[]), [("fields", _OBJECT)]),
    ("fields-unknown", _config(fields={"V": []}),
     [("fields.V", "unknown key")]),
    ("W-object", _config(fields={"W": {}}), [("fields.W", "must be a list "
                                               "of [frequency, amplitude] "
                                               "pairs")]),
    ("A-null", _config(fields={"A": None}), [("fields.A", "must be a list "
                                               "of [frequency, amplitude] "
                                               "pairs")]),
    ("W-triple", _config(fields={"W": [[1, 0.5, 2]]}),
     [("fields.W[0]", _PAIR)]),
    ("W-number", _config(fields={"W": [3]}), [("fields.W[0]", _PAIR)]),
    ("W-negative-frequency", _config(fields={"W": [[-1, 0.5]]}),
     [("fields.W[0]", _FREQUENCY)]),
    ("W-fractional-frequency", _config(fields={"W": [[1.5, 0.5]]}),
     [("fields.W[0]", _FREQUENCY)]),
    ("A-bool-frequency", _config(fields={"A": [[True, 0.5]]}),
     [("fields.A[0]", _FREQUENCY)]),
    ("A-infinite-amplitude", _config(fields={"A": [[1, math.inf]]}),
     [("fields.A[0]", _AMPLITUDE)]),
    ("A-string-amplitude", _config(fields={"A": [[0, "x"]]}),
     [("fields.A[0]", _AMPLITUDE)]),
    ("fields-each-entry", _config(fields={
        "W": [[1, 0.5], [2], [-1, 0], [2, math.nan]], "A": [[1, 0.1], "a"],
        "B": 0}),
     [("fields.B", "unknown key"), ("fields.W[1]", _PAIR),
      ("fields.W[2]", _FREQUENCY), ("fields.W[3]", _AMPLITUDE),
      ("fields.A[1]", _PAIR)]),
    ("grids-string", _config(grids="fine"), [("grids", _OBJECT)]),
    ("grids-unknown", _config(grids={"n": 3}), [("grids.n", "unknown key")]),
    ("gap-number", _config(grids={"gap": 12}), [("grids.gap", _GAP_KEYS)]),
    ("gap-missing-key", _config(grids={"gap": {"cutoff": 12}}),
     [("grids.gap", _GAP_KEYS)]),
    ("gap-extra-key", _config(grids={"gap": {
        "cutoff": 12, "n_points": 64, "dq": 0.1}}), [("grids.gap", _GAP_KEYS)]),
    ("gap-infinite-cutoff", _config(grids={"gap": {
        "cutoff": math.inf, "n_points": 64}}), [("grids.gap.cutoff", _FINITE)]),
    ("gap-string-n-points", _config(grids={"gap": {
        "cutoff": 12, "n_points": "64"}}),
     [("grids.gap.n_points", "must be an integer")]),
    ("gap-negative-cutoff", _config(grids={"gap": {
        "cutoff": -12, "n_points": 64}}),
     [("grids.gap", "cutoff must be positive")]),
    ("gap-few-points", _config(grids={"gap": {"cutoff": 12, "n_points": 7}}),
     [("grids.gap", "n_points must be at least 8")]),
    # coverage is checked only against a valid potential
    ("gap-uncovered-invalid-potential", _config(
        potential=3, grids={"gap": {"cutoff": 3.0, "n_points": 64}}),
     [("potential", _OBJECT)]),
    ("gap-uncovered-square-well", _config(
        potential={"family": "square_well", "w": 0.5, "mu": 2},
        grids={"gap": {"cutoff": 10, "n_points": 64}}),
     [("grids.gap", "momentum cutoff 10.000 below kinematic coverage "
                    "threshold 12.000 (sqrt(2 mu) + 5/w)")]),
    ("torus-n-max-zero", _config(grids={"torus_n_max": 0}),
     [("grids.torus_n_max", _COUNT)]),
    ("torus-n-max-float", _config(grids={"torus_n_max": 8.0}),
     [("grids.torus_n_max", _COUNT)]),
    ("fiber-m-zero", _config(grids={"fiber_m": 0}),
     [("grids.fiber_m", _COUNT)]),
    ("fiber-m-string", _config(grids={"fiber_m": "16"}),
     [("grids.fiber_m", _COUNT)]),
    ("h-list-empty", _config(grids={"h_list": []}),
     [("grids.h_list", _H_LIST)]),
    ("h-list-string", _config(grids={"h_list": "0.1"}),
     [("grids.h_list", _H_LIST)]),
    ("h-list-nan", _config(grids={"h_list": [0.1, math.nan]}),
     [("grids.h_list", _H_LIST)]),
    ("h-list-outside", _config(grids={"h_list": [2.0, 1.5]}),
     [("grids.h_list", "entries must lie in (0, 1)")]),
    ("h-list-increasing", _config(grids={"h_list": [0.125, 0.25]}),
     [("grids.h_list", "must be strictly decreasing")]),
    ("h-list-repeated", _config(grids={"h_list": [0.125, 0.125]}),
     [("grids.h_list", "must be strictly decreasing")]),
    ("h-list-outside-and-increasing", _config(grids={"h_list": [0.5, 1.5]}),
     [("grids.h_list", "entries must lie in (0, 1)"),
      ("grids.h_list", "must be strictly decreasing")]),
    ("grids-all", _config(grids={
        "gap": {"cutoff": 0, "n_points": 64}, "torus_n_max": -1,
        "fiber_m": 1.5, "h_list": [], "z": 0}),
     [("grids.z", "unknown key"), ("grids.gap", "cutoff must be positive"),
      ("grids.torus_n_max", _COUNT), ("grids.fiber_m", _COUNT),
      ("grids.h_list", _H_LIST)]),
    ("outputs-empty", _config(outputs=""),
     [("outputs", "must be a nonempty path string")]),
    ("outputs-number", _config(outputs=3),
     [("outputs", "must be a nonempty path string")]),
    ("seed-string", _config(seed="zero"), [("seed", "must be an integer")]),
    ("seed-float", _config(seed=1.0), [("seed", "must be an integer")]),
    ("seed-bool", _config(seed=True), [("seed", "must be an integer")]),
    ("seed-negative", _config(seed=-1), [("seed", "must be an integer >= 0")]),
    ("every-section", {
        "potential": {"g": -1, "w": 0}, "fields": {"A": [[0, None]]},
        "grids": {"h_list": [0.125, 0.25]}, "outputs": "", "seed": "zero",
        "mystery": 1},
     [("mystery", "unknown key"),
      ("potential.g", "well depth g must be >= 0, got -1.0"),
      ("potential.w", "well width w must be positive, got 0.0"),
      ("D", "required (temperature-distance parameter; no default)"),
      ("fields.A[0]", _AMPLITUDE),
      ("grids.h_list", "must be strictly decreasing"),
      ("outputs", "must be a nonempty path string"),
      ("seed", "must be an integer")]),
]]


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
            "potential": {"g": -1, "w": 0},
            "grids": {"h_list": [0.125, 0.25]},
            "seed": "zero",
            "mystery": 1,
        }))
        code, out = run_cli(capsys, "--config", str(path), "validate")
        assert code == 2
        keys = {v["key"] for v in out["violations"]}
        assert {"D", "potential.g", "potential.w", "grids.h_list", "seed",
                "mystery"} <= keys

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

    @pytest.mark.parametrize("gap, message", [
        ({"cutoff": 0, "n_points": 512}, "cutoff must be positive"),
        ({"cutoff": 12, "n_points": 4}, "n_points must be at least 8"),
        ({"cutoff": 3.0, "n_points": 64}, "momentum cutoff 3.000 below "
         "kinematic coverage threshold 6.414 (sqrt(2 mu) + 5/w)"),
    ])
    def test_gap_grid_out_of_range_is_named(self, tmp_path, capsys, gap,
                                            message):
        # validation checks the grid itself, in the words of the gap solve,
        # so 'tc' stops at the config as 'validate' does
        path = write_config(tmp_path, grids={"gap": gap})
        for command in ("validate", "tc"):
            code, out = run_cli(capsys, "--config", str(path), command)
            assert code == 2
            assert out == {"status": "error", "stage": "config",
                           "violations": [{"key": "grids.gap",
                                           "message": message}]}
        spec = cli.validate_config(write_config(tmp_path, "ok.json")).potential
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gs._validate(spec, gs.MomentumGrid(**gap))

    def test_bad_h_list_flag(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code, out = run_cli(capsys, "--config", str(path), "--h-list",
                            "0.25,oops", "validate")
        assert code == 2
        assert out["violations"][0]["key"] == "--h-list"

    @pytest.mark.parametrize("raw, violations", VIOLATIONS)
    def test_each_violation_is_named(self, tmp_path, capsys, raw,
                                     violations):
        # the whole config file, and every violation in the order given
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        code, out = run_cli(capsys, "--config", str(path), "validate")
        assert code == 2
        assert out == {"status": "error", "stage": "config", "violations": [
            {"key": key, "message": message} for key, message in violations]}

    @pytest.mark.parametrize("flag", [["--out", "o"], ["--seed", "3"],
                                      ["--h-list", "0.1,0.05"]],
                             ids=["out", "seed", "h-list"])
    @pytest.mark.parametrize("raw", [[], "x", 3],
                             ids=["list", "string", "number"])
    def test_non_object_top_level_with_a_flag(self, tmp_path, capsys, raw,
                                              flag):
        # a flag overrides a key of the top-level object, so it is applied
        # only once the file is one
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        code, out = run_cli(capsys, "--config", str(path), *flag, "validate")
        assert code == 2
        assert out["violations"] == [
            {"key": "", "message": "top level must be a JSON object"}]

    @pytest.mark.parametrize("command", ["validate", "gl-min"])
    def test_negative_config_seed_is_a_violation(self, tmp_path, capsys,
                                                 command):
        # NumPy's generators take no negative seed, so the config names it
        # before any stage runs
        path = write_config(tmp_path, seed=-1)
        code, out = run_cli(capsys, "--config", str(path), command)
        assert code == 2
        assert out["violations"] == [
            {"key": "seed", "message": "must be an integer >= 0"}]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "gl-min", "prop-tests"])
    def test_negative_seed_flag_is_a_usage_error(self, command):
        # the parser refuses it before any config is read
        with pytest.raises(SystemExit) as exit_, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            cli.main(["--seed", "-1", command])
        assert exit_.value.code == 2
        assert "--seed: not a non-negative integer: '-1'" in err.getvalue()



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
        # the rank of -V = B B^T behind the search, its r x r and n x n
        # evaluations of lambda_min(T) and the factor's truncation residual
        # are part of the record, and as deterministic as the rest of it
        path = write_config(tmp_path, grids=fast_grids())
        run_cli(capsys, "--config", str(path), "tc")
        gap = json.loads((tmp_path / "out" / "gap.json").read_text())
        search = gap["solution"]["tc_search"]
        assert set(search) == {"attraction_rank", "lambda_evals", "dense_evals",
                               "factor_residual"}
        assert isinstance(search["attraction_rank"], int)
        assert 0 < search["attraction_rank"] <= 64
        assert search["lambda_evals"] == 7
        assert search["dense_evals"] == 0
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
        ("tc", gs, "find_tc", "gap", "gap.json"),
        ("coeffs", gc, "compute_coefficients", "coeffs", "coeffs.json"),
        ("gl-min", gm, "minimize", "gl-min", "gl.json"),
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

    def test_gl_min_warns_when_not_converged(self, tmp_path, capsys,
                                             monkeypatch):
        # descents cut at one step return a state that is not converged;
        # the stage warns, naming the starts (on stderr outside pytest),
        # and still writes its artifact
        monkeypatch.setattr(gm, "_MAX_STEPS", 1)
        path = write_config(tmp_path, grids=fast_grids())
        with pytest.warns(UserWarning, match="GL minimum not converged: the "
                          "descents from constant-1, constant-0.5"):
            code, out = run_cli(capsys, "--config", str(path), "gl-min")
        assert code == 0
        assert out["converged"] is False
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
    def test_one_point_sweep_writes_valid_json(self, tmp_path, capsys):
        # one h point leaves no fit: its order is null, as its local
        # orders are, and not NaN, which RFC 8259 JSON has no word for;
        # the order gate fails and the command exits 4
        def no_constants(name):
            raise ValueError(f"{name} in JSON")

        path = write_config(tmp_path, grids=fast_grids(h_list=[0.125]))
        code = cli.main(["--config", str(path), "verify-thm3"])
        out = json.loads(capsys.readouterr().out, parse_constant=no_constants)
        assert code == 4
        assert out["gates"]["fitted_order"] is None
        assert out["gates"]["order_ok"] is False
        for name in ("trace_expansion", "pair_distance"):
            payload = json.loads(
                (tmp_path / "out" / "sweeps" / f"{name}.json").read_text(),
                parse_constant=no_constants)
            assert payload["report"]["fitted_order"] is None
            assert payload["report"]["local_orders"] == []
            assert payload["gates"]["order_ok"] is False

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
            kinds.add(fiber_matrix(op).dtype.kind)
            return op

        monkeypatch.setattr(bv, "build_fiber", recording)
        # eight fibers: partnered nodes plus the self-partnered 0 and pi
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


def solved_windows(spans, n, mirror):
    """The windows a fiber pass solves: all of ``spans`` but the images,
    under the fiber's reflection ``i -> n - 1 - mirror - i``, of earlier
    windows."""
    if mirror is None:
        return spans
    end = n - mirror
    return [(lo, hi, a, b) for i, (lo, hi, a, b) in enumerate(spans)
            if (end - hi, end - lo, end - b, end - a) not in spans[:i]]


class TestSharedFiberPass:
    """verify-thm2 and verify-thm3 come from one fiber pass per h."""

    H_LIST = [0.25, 0.125, 0.0625]

    @coarse_ladder
    def test_one_build_and_one_eigh_per_window(self, tmp_path, capsys,
                                               monkeypatch):
        built, passes, solves = [], [], []
        build, fiber_pass, eigh, eigvalsh = (
            bv.build_fiber, bv._fiber_pass, np.linalg.eigh,
            np.linalg.eigvalsh)

        def recording_build(basis, xi, *args):
            op = build(basis, xi, *args)
            built.append((basis.h, xi, op))
            return op

        def recording_pass(op, beta, mirror=None):
            # one worker: the eigensolves between entry and exit are the
            # pass's own
            solves.clear()
            fp = fiber_pass(op, beta, mirror)
            passes.append((op, list(solves), fp.window, mirror))
            return fp

        def recording(kind, solver):
            def solve(matrix, *args, **kwargs):
                solves.append((kind, matrix.shape[0]))
                return solver(matrix, *args, **kwargs)
            return solve

        monkeypatch.setattr(bv, "build_fiber", recording_build)
        monkeypatch.setattr(bv, "_fiber_pass", recording_pass)
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
        # one pass per fiber: an eigh of each solved window's 2w x 2w
        # matrix and of its two w x w free blocks, no eigvalsh, and neither
        # the 2N x 2N fiber nor its N x N blocks assembled.  The fibers
        # xi = 0 and xi = pi solve one window of each mirror pair
        assert ([id(op) for _, _, op in built]
                == [id(op) for op, _, _, _ in passes])
        assert sorted(mirror for *_, mirror in passes
                      if mirror is not None) == [0, 0, 0, 1, 1, 1]
        derived = 0
        for op, fiber_solves, (_, buffer, _), mirror in passes:
            n = len(op.momenta)
            spans = bv._window_spans(n, buffer, mirror)
            solved = solved_windows(spans, n, mirror)
            assert len(spans) > 1
            derived += len(spans) - len(solved)
            assert sorted(fiber_solves) == sorted(
                ("eigh", size) for lo, hi, _, _ in solved
                for size in (2 * (hi - lo), hi - lo, hi - lo))
            assert held_arrays(op) == []
        assert derived > 0
        assert (tmp_path / "out" / "sweeps" / "pair_distance.json").is_file()

        built.clear()
        # (exit 4: three coarse points miss the pair-order gate)
        _, second = run_cli(capsys, "--config", str(path), "verify-thm3")
        assert second["sweep"] == "pair_distance"
        assert second["cached"] is True
        assert built == []

    @coarse_ladder
    @pytest.mark.parametrize("command, fitted, others", [
        ("verify-thm2", ["trace_expansion", "pair_distance"],
         ["verify-thm3"]),
        ("verify-thm3", ["pair_distance", "trace_expansion"],
         ["verify-thm2"]),
        ("verify-energy", ["energy_upper_bound"], []),
    ])
    def test_a_sweep_command_writes_the_artifacts_of_its_kind(
            self, tmp_path, capsys, monkeypatch, command, fitted, others):
        # a sweep command refits its own sweep, then every other sweep
        # that shares its h points, each once (a second refit would find
        # its own bytes and report the sweep cached), and writes no other;
        # those sweeps then compute nothing and are cache hits
        built, labels = [], []
        build, h_sweep = bv.build_fiber, cli.h_sweep

        def recording_build(basis, xi, *args):
            built.append((basis.h, xi))
            return build(basis, xi, *args)

        def recording_sweep(*args, label, **kwargs):
            labels.append(label)
            return h_sweep(*args, label=label, **kwargs)

        monkeypatch.setattr(bv, "build_fiber", recording_build)
        monkeypatch.setattr(cli, "h_sweep", recording_sweep)
        path = write_config(tmp_path, grids=fast_grids(h_list=self.H_LIST))
        _, first = run_cli(capsys, "--config", str(path), command)
        assert first["cached"] is False
        assert labels == fitted
        sweeps = tmp_path / "out" / "sweeps"
        assert {p.stem for p in sweeps.glob("*.json")} == set(fitted)
        built.clear()
        for other in others:
            _, second = run_cli(capsys, "--config", str(path), other)
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

    @coarse_ladder
    def test_summary_reports_the_stage_artifacts(self, tmp_path, capsys):
        # a cold and a warm all report T_c, the coefficients and the GL
        # energy from the payloads of gap.json, coeffs.json and gl.json
        path = write_config(tmp_path, grids=fast_grids())
        out = tmp_path / "out"

        def files():
            return {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        code, cold = run_cli(capsys, "--config", str(path), "all")
        written = files()
        gap, coeffs, gl = (json.loads(written[out / name]) for name in
                           ("gap.json", "coeffs.json", "gl.json"))
        summary = cold["pipeline"]
        # as JSON text, which holds the repr of each float: bit for bit
        reported = [summary[k] for k in ("T_c", "coefficients", "gl_energy")]
        stored = [gap["solution"]["T_c"], coeffs["coefficients"],
                  gl["state"]["energy"]]
        assert json.dumps(reported, sort_keys=True) == json.dumps(
            stored, sort_keys=True)
        # the warm run refits report.csv and rewrites it whole, even from
        # bytes that are not UTF-8
        (out / "report.csv").write_bytes(b"\x80\xff not utf-8")
        warm_code, warm = run_cli(capsys, "--config", str(path), "all")
        assert warm_code == code
        assert not any(summary.pop("cached_stages").values())
        assert all(warm["pipeline"].pop("cached_stages").values())
        assert warm == cold
        assert files() == written

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
    def test_cold_all_solves_the_gap_once(self, tmp_path, capsys,
                                          monkeypatch):
        # the property suite checks the run's own gap solution
        calls, find_tc = [], gs.find_tc
        monkeypatch.setattr(gs, "find_tc",
                            lambda *args: calls.append(args) or find_tc(*args))
        path = write_config(tmp_path, grids=fast_grids())
        _, out = run_cli(capsys, "--config", str(path), "all")
        assert len(calls) == 1
        assert out["properties"]["all_passed"] is True

    @coarse_ladder
    def test_suite_keys_on_the_stages_it_checks(self, tmp_path, capsys):
        # an edited h-list reads the suite back; another potential is
        # another run, whose suite is computed anew
        path = write_config(tmp_path, grids=fast_grids(h_list=self.H_LIST))
        run_cli(capsys, "--config", str(path), "all")
        _, edited = run_cli(capsys, "--config", str(path), "--h-list",
                            "0.25,0.125", "all")
        assert edited["pipeline"]["cached_stages"]["properties"] is True
        deeper = write_config(tmp_path, name="deeper.json",
                              grids=fast_grids(h_list=self.H_LIST),
                              potential={"g": 2.5})
        _, other = run_cli(capsys, "--config", str(deeper), "all")
        assert other["pipeline"]["cached_stages"]["properties"] is False
        assert other["properties"]["all_passed"] is True

    @coarse_ladder
    def test_seed_change_keeps_the_gap_and_the_fiber_sweeps(
            self, tmp_path, capsys, monkeypatch):
        from bcsgl import properties
        seeds = []
        monkeypatch.setattr(properties, "run_suite",
                            lambda run: seeds.append(run.seed) or [])
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
                      "pair_distance", "energy_upper_bound", "properties"}),
        ({"fields": {"A": [[1, 0.2]]}}, {"gl-min", "trace_expansion",
                                         "pair_distance",
                                         "energy_upper_bound", "properties"}),
        ({"grids": fast_grids(fiber_m=8)}, {"trace_expansion",
                                            "pair_distance",
                                            "energy_upper_bound"}),
    ])
    def test_input_change_invalidates_its_dependents(self, tmp_path,
                                                     monkeypatch, overrides,
                                                     recomputed):
        from bcsgl import properties
        monkeypatch.setattr(properties, "run_suite", lambda run: [])
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
    def test_hand_edited_sweep_is_rewritten(self, tmp_path, capsys,
                                            monkeypatch):
        # a sweep is a view of its h points: an artifact that carries the
        # right key but not the fit of those points is refitted from
        # them, and no point is computed for it
        path = write_config(tmp_path, grids=fast_grids(h_list=self.H_LIST))
        artifact = tmp_path / "out" / "sweeps" / "pair_distance.json"
        run_cli(capsys, "--config", str(path), "verify-thm3")
        fresh = artifact.read_bytes()
        edited = json.loads(fresh)
        edited["gates"] = {**edited["gates"], "passed": True,
                           "order_ok": True}
        cli._dump_json(artifact, edited)

        def no_point(*args, **kwargs):
            raise AssertionError("an h point was recomputed")

        monkeypatch.setattr(bv, "alpha_delta_distance", no_point)
        code, out = run_cli(capsys, "--config", str(path), "verify-thm3")
        assert code == cli.EXIT_REGRESSION
        assert out["cached"] is False
        assert out["gates"] == json.loads(fresh)["gates"]
        assert artifact.read_bytes() == fresh

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
    """One executor of ``--workers`` threads runs the h points of every
    sweep, each with its fibers, and the property suite."""

    H_LIST = [0.25, 0.125, 0.0625]

    def test_at_most_workers_fibers_in_flight(self, tmp_path, monkeypatch):
        from bcsgl import properties
        lock, running, peak, threads = threading.Lock(), [0], [0], set()
        build = bv.build_fiber
        suite, suite_threads = properties.run_suite, []
        # the h point (its h) each thread runs
        owner, owners = threading.local(), []

        def owned(run, value):
            def wrapper(*args, **kwargs):
                owner.value = value(*args)
                try:
                    return run(*args, **kwargs)
                finally:
                    del owner.value
            return wrapper

        def counted(basis, *args, **kwargs):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
                threads.add(threading.get_ident())
                owners.append((getattr(owner, "value", None), basis.h))
            try:
                # long enough for every computing thread to overlap
                time.sleep(0.002)
                return build(basis, *args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(bv, "build_fiber", counted)
        for observable in ("alpha_delta_distance", "trial_state_energy"):
            monkeypatch.setattr(bv, observable, owned(
                getattr(bv, observable), lambda sol, psi, a, w, h: h))
        monkeypatch.setattr(properties, "run_suite", lambda run: (
            suite_threads.append(threading.get_ident()) or suite(run)))
        path = write_config(tmp_path, grids=fast_grids(h_list=self.H_LIST))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cli.run_pipeline(cli.validate_config(path), workers=2)
        assert 1 <= peak[0] <= 2
        # the main thread only waits: every fiber ran on the executor
        assert threading.get_ident() not in threads
        # every fiber ran on the thread of its own h point, and the
        # suite, which builds none, ran once, on the executor too
        assert all(own == h for own, h in owners), owners
        assert {own for own, _ in owners} == set(self.H_LIST)
        assert len(suite_threads) == 1
        assert threading.get_ident() not in suite_threads

    _STAGES = {"find_tc", "compute_coefficients", "minimize"}

    @coarse_ladder
    @pytest.mark.parametrize("command, computed", [
        ("tc", {"find_tc"}),
        ("coeffs", {"find_tc", "compute_coefficients"}),
        ("gl-min", _STAGES),
        ("prop-tests", {*_STAGES, "run_suite"}),
        ("verify-thm2", {"find_tc", "alpha_delta_distance"}),
        ("verify-energy", {*_STAGES, "trial_state_energy"}),
        ("all", {*_STAGES, "run_suite", "alpha_delta_distance",
                 "trial_state_energy"}),
    ])
    def test_main_thread_only_waits(self, tmp_path, capsys, monkeypatch,
                                    command, computed):
        # in a fresh directory every stage, h point and the property suite
        # of a command computes, each on the executor: the main thread
        # only reads back, decodes, queues and waits
        from bcsgl import properties
        ran = {}

        def spy(name, run):
            def recording(*args, **kwargs):
                ran.setdefault(name, set()).add(threading.get_ident())
                return run(*args, **kwargs)
            return recording

        for owner, name in ((gs, "find_tc"), (gc, "compute_coefficients"),
                            (gm, "minimize"), (properties, "run_suite"),
                            (bv, "alpha_delta_distance"),
                            (bv, "trial_state_energy")):
            monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
        path = write_config(tmp_path, grids=fast_grids())
        code, _ = run_cli(capsys, "--config", str(path), "--workers", "2",
                          command)
        assert code in (cli.EXIT_OK, cli.EXIT_REGRESSION)
        assert set(ran) == computed
        assert not any(threading.get_ident() in ids
                       for ids in ran.values()), ran

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

    def test_failing_fiber_is_listed_and_not_cached(self, tmp_path, capsys,
                                                    monkeypatch):
        # the eigensolver fails on the fiber at xi = 0 of one point, whose
        # middle momentum is its xi; the sweep drops that point alone
        h_list, lost = [*self.H_LIST, 0.03125], self.H_LIST[1]
        fiber_pass = bv._fiber_pass

        def failing(op, beta, mirror=None):
            if op.h == lost and op.momenta[op.momenta.size // 2] == 0.0:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return fiber_pass(op, beta, mirror)

        monkeypatch.setattr(bv, "_fiber_pass", failing)
        path = write_config(tmp_path, grids=fast_grids(h_list=h_list))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code, _ = run_cli(capsys, "--config", str(path), "--workers",
                              "2", "verify-thm2")
        assert code in (cli.EXIT_OK, cli.EXIT_REGRESSION)
        kept = [h for h in h_list if h != lost]
        report = json.loads((tmp_path / "out" / "sweeps"
                             / "trace_expansion.json").read_text())["report"]
        assert report["h_values"] == kept
        assert report["failures"] == [[lost, "RuntimeError('eigensolver "
                                             "failed on the fiber at "
                                             "xi=0.000000')"]]
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

        # the CLI looks each stage function up on its defining module
        owner = {"find_tc": gs, "minimize": gm}[attr]
        monkeypatch.setattr(owner, attr, failing)
        monkeypatch.setattr(bv, "alpha_delta_distance", point)
        monkeypatch.setattr(bv, "trial_state_energy", point)
        monkeypatch.setattr(properties, "run_suite", lambda run: [])
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
    def test_prop_tests_pass(self, tmp_path, capsys):
        code, out = run_cli(capsys, "--out", str(tmp_path / "out"),
                            "prop-tests")
        assert code == 0
        assert out["total"] == out["passed"] == 6
        assert out["failures"] == []
        assert out["all_passed"] is True
        assert out["cached"] is False

    @coarse_ladder
    def test_prop_tests_reads_the_suite_of_all(self, tmp_path, capsys,
                                               monkeypatch):
        # prop-tests checks the run of its config: after `all`, it reads
        # that run's properties.json back and computes nothing
        from bcsgl import properties
        path = write_config(tmp_path, grids=fast_grids())
        run_cli(capsys, "--config", str(path), "all")
        stored = json.loads((tmp_path / "out" / "properties.json").read_text())

        def no_suite(run):
            raise AssertionError("the suite ran again")

        monkeypatch.setattr(properties, "run_suite", no_suite)
        monkeypatch.setattr(gs, "find_tc", no_suite)
        code, out = run_cli(capsys, "--config", str(path), "prop-tests")
        assert code == 0
        assert out.pop("cached") is True
        assert out.pop("status") == "ok"
        assert out.pop("config_hash") == cli.validate_config(path).config_hash
        assert out == {k: v for k, v in stored.items() if k != "key"}

    def test_square_well_witnesses_are_the_wells(self, tmp_path, capsys,
                                                 monkeypatch):
        # the suite checks the run it reads: on the (2, 1, 1) square well
        # the dense eigenvalue is that well's, on its grid at the T_c of
        # its gap.json, and B3's two forms are its coeffs.json's
        from bcsgl import properties
        results, run_suite = [], properties.run_suite
        monkeypatch.setattr(properties, "run_suite", lambda run: (
            results.extend(run_suite(run)) or results))
        path = write_config(tmp_path, potential={
            "family": "square_well", "g": 2.0, "w": 1.0, "mu": 1.0})
        code, out = run_cli(capsys, "--config", str(path), "prop-tests")
        assert code == 0
        assert out["all_passed"] is True
        assert out["passed"] == len(results) == 6
        sol = gs.GapSolution.from_dict(json.loads(
            (tmp_path / "out" / "gap.json").read_text())["solution"])
        assert sol.spec == gs.PotentialSpec.square(2.0, 1.0, 1.0)
        witness = {r.name: r.witness for r in results}
        matrix = gs.build_gap_matrix(sol.spec, sol.grid, sol.T_c)
        assert witness["critical_eigenvalue_residual"][
            "lambda_min_at_tc"] == float(np.linalg.eigvalsh(matrix)[0])
        b3 = json.loads((tmp_path / "out" / "coeffs.json").read_text())[
            "coefficients"]["B3"]
        assert witness["quartic_alternative_form"]["relative_difference"] \
            == abs(gc.b3_alternative_form(sol) - b3) / abs(b3)

    @coarse_ladder
    def test_failing_suite_exits_3_naming_it(self, tmp_path, capsys,
                                             monkeypatch):
        from bcsgl import properties

        def failing(run):
            raise FloatingPointError("suite lost")

        monkeypatch.setattr(properties, "run_suite", failing)
        path = write_config(tmp_path, grids=fast_grids())
        code, out = run_cli(capsys, "--config", str(path), "all")
        assert code == cli.EXIT_NUMERICAL
        assert out["stage"] == "properties"
        assert out["kind"] == "numerical"
        assert "suite lost" in out["message"]
        assert not (tmp_path / "out" / "properties.json").exists()

    def test_prop_failures_enumerated(self, tmp_path, capsys, monkeypatch):
        # a gap stage that scales the profile for another D than the one
        # it records breaks the balance condition and B3's normalization
        # identity: exit 4, the two failures with their witnesses
        original = gs.normalize
        monkeypatch.setattr(gs, "normalize", lambda sol, D: replace(
            original(sol, 1.001 * D), D=D))
        code, out = run_cli(capsys, "--out", str(tmp_path / "out"),
                            "prop-tests")
        assert code == 4
        assert out["status"] == "regression"
        assert [f["name"] for f in out["failures"]] == [
            "normalization_balance", "quartic_alternative_form"]
        assert out["failures"][0]["witness"]["relative_residual"] > 1e-8


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
        assert gates["fitted_order"] == bcsgl.fit_order(report["h_values"],
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
            assert set(report) == set(bcsgl.h_sweep(lambda h: h, [0.5, 0.25]))
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
        # a dangling or malformed option stops in the CLI's parser with its
        # usage error, before any variable is set
        for argv in (["--workers"], ["--workers=two"], ["--w", "validate"],
                     ["--workers", "0", "validate"],
                     ["--workers", "-3", "validate"]):
            for name in names:
                monkeypatch.delenv(name, raising=False)
            with pytest.raises(SystemExit) as exit_, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                bcsgl.main(argv)
            assert exit_.value.code == 2, argv
            assert "--workers" in err.getvalue(), argv
            assert {name: os.environ.get(name) for name in names} == \
                dict.fromkeys(names), argv

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_workers_below_one_is_a_usage_error(self, value):
        # a worker count counts threads: the parser refuses what is not a
        # positive integer, before any command runs
        with pytest.raises(SystemExit) as exit_, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            cli.main(["--workers", value, "validate"])
        assert exit_.value.code == 2
        assert f"--workers: not a positive integer: '{value}'" in \
            err.getvalue()

    def test_console_entry_sets_the_policy_before_numpy(self, tmp_path):
        # fresh interpreters: the package loads no NumPy, the entry sets
        # the variables before NumPy loads (in the gap stage of 'tc'),
        # and importing the CLI as a library sets none
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
        config = str(write_config(tmp_path, grids=fast_grids()))

        def variables(code):
            result = subprocess.run(
                [sys.executable, "-c", code, "--config", config,
                 "--workers", "2", "tc"],
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
        # SciPy modules it holds and NumPy and the numerical modules of
        # the package.  The package runs on NumPy alone, so every command
        # holds no SciPy; the CLI imports the standard library alone, so
        # a command holds NumPy and the numerical modules only when one
        # of its stages computes.
        listing = ("print(json.dumps([code, sorted(m for m in sys.modules "
                   "if m.split('.')[0] == 'scipy' or m == 'numpy' "
                   "or m.startswith('bcsgl.') and m != 'bcsgl.cli')]))")
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
            return set(names)

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
        # the second fiber sweep reads back what verify-thm2 wrote, a
        # second all on the same directory reads back every artifact, and
        # a third with an edited h-list refits its sweeps from points on
        # disk
        loaded["verify-thm3"] = modules(
            start("--out", "fiber", "verify-thm3"), swept)
        loaded["all, warm"] = modules(start("--out", "all", "all"), swept)
        loaded["all, edited"] = modules(
            start("--out", "all", "--h-list", "0.25", "all"), swept)

        numerical = {"numpy", *(f"bcsgl.{name}" for name in (
            "specfun", "gap_solver", "gl_coeffs", "gl_minimizer",
            "bdg_verifier", "properties"))}
        assert loaded == {
            "validate": set(),
            "tc": {"numpy", "bcsgl.specfun", "bcsgl.gap_solver"},
            "verify-thm2": numerical - {"bcsgl.properties"},
            "prop-tests": numerical - {"bcsgl.bdg_verifier"},
            "all": numerical,
            "verify-thm3": set(),
            "all, warm": set(),
            "all, edited": set(),
        }
