import argparse
import csv
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import oracle
from entb92 import cli, qcore, rates, session
from entb92.bell import analytic_ch, analytic_ch_max
from entb92.cli import build_parser
from entb92.rates import STRATEGIES, optimal_theta, pm_reference_rate
from entb92.session import MAX_ROUNDS

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"
FIXTURES = Path(__file__).parent / "fixtures"


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def curve_outputs(tmp_path_factory):
    from entb92.cli import main
    out = tmp_path_factory.mktemp("curve") / "curve.csv"
    assert main(["curve", "--output", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def thresholds_output(tmp_path_factory):
    from entb92.cli import main
    out = tmp_path_factory.mktemp("thr") / "thresholds.json"
    assert main(["thresholds", "--output", str(out)]) == 0
    return out


class TestCurve:
    def test_structure(self, curve_outputs):
        header, rows = read_csv(curve_outputs)
        assert header == ["theta_deg", "s_ch", "s_ch_max", "bob_angle_deg"]
        assert len(rows) == 89
        assert rows[0][0] == 1.0 and rows[-1][0] == 89.0

    def test_rows_are_the_analytic_functions_bit_for_bit(self, tmp_path, run_cli):
        # one statement of each curve and one arctan: the array rows equal the validated scalar functions, and
        # those equal the curves and the receiver angle that the rate solver's two strategies optimise
        grid = ["--points", "20000", "--theta-min-deg", "0.001", "--theta-max-deg", "89.999"]
        want = []
        for deg in np.linspace(0.001, 89.999, 20000).tolist():
            theta = math.radians(deg)
            s_max, bob_angle = analytic_ch_max(theta)
            want.append([deg, analytic_ch(theta), s_max, math.degrees(bob_angle)])
            fixed, tuned = (rates._setting(theta, strategy, rates._FLOAT) for strategy in STRATEGIES)
            assert (want[-1][1], s_max, bob_angle) == (fixed[2], tuned[2], tuned[0]), deg
        code, _, _ = run_cli("curve", *grid, "--format", "json", "--output", str(tmp_path / "c.json"))
        assert code == 0
        rows = json.loads((tmp_path / "c.json").read_text())["rows"]
        got = [[row[k] for k in ("theta_deg", "s_ch", "s_ch_max", "bob_angle_deg")] for row in rows]
        assert [[v.hex() for v in row] for row in got] == [[v.hex() for v in row] for row in want]
        code, _, _ = run_cli("curve", *grid, "--output", str(tmp_path / "c.csv"))
        assert code == 0
        lines = (tmp_path / "c.csv").read_text().splitlines()[1:]
        assert lines == [",".join("%.12g" % v for v in row) for row in want]

    def test_reference_row(self, curve_outputs):
        _, rows = read_csv(curve_outputs)
        by_deg = {row[0]: row for row in rows}
        assert by_deg[60.0][1] == 0.125
        assert by_deg[60.0][2] == pytest.approx(
            oracle.ch_max_closed(math.pi / 3), abs=1e-12)

    def test_optimized_column_dominates(self, curve_outputs):
        _, rows = read_csv(curve_outputs)
        for row in rows:
            th = math.radians(row[0])
            assert row[2] >= row[1] - 1e-12
            assert math.tan(math.radians(row[3])) == pytest.approx(
                math.sin(th), abs=1e-9)

    def test_manifest_lists_output_with_hash(self, curve_outputs,
                                             schema_validator):
        manifest_path = curve_outputs.parent / "curve.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        schema_validator("manifest").validate(manifest)
        assert manifest["subcommand"] == "curve"
        entries = {e["path"]: e["sha256"] for e in manifest["outputs"]}
        assert entries[str(curve_outputs)] == sha256(curve_outputs)

    def test_json_format(self, tmp_path, run_cli, schema_validator):
        out = tmp_path / "curve.json"
        code, _, _ = run_cli("curve", "--points", "5", "--format", "json",
                             "--output", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        schema_validator("curve").validate(data)
        assert len(data["rows"]) == 5
        assert set(data["rows"][0]) == {"theta_deg", "s_ch", "s_ch_max",
                                        "bob_angle_deg"}

    def test_invalid_grid_rejected(self, tmp_path, run_cli):
        code, _, err = run_cli("curve", "--theta-min-deg", "0.0",
                               "--output", str(tmp_path / "x.csv"))
        assert code == 2
        assert err.strip() != ""

    @pytest.mark.parametrize("subcommand", ["curve", "attack-demo"])
    def test_grid_rounding_to_zero_radians_rejected(self, tmp_path, run_cli, subcommand):
        # 5e-324 degrees is positive, but 0.0 in radians: rejected before the output is opened
        out = tmp_path / "grid.csv"
        code, _, err = run_cli(subcommand, "--theta-min-deg", "5e-324", "--output", str(out))
        assert code == 2 and "0 < min < max < 90" in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["curve", "attack-demo"])
    @pytest.mark.parametrize("points", ["1000001", "1000000000000"])
    def test_oversized_grid_rejected_before_allocation(self, tmp_path, run_cli, monkeypatch,
                                                       subcommand, points):
        from entb92 import cli

        def no_grid(*args, **kwargs):
            raise AssertionError(f"{subcommand} built its grid before validating --points")

        monkeypatch.setattr(cli, "_grid_blocks", no_grid)
        monkeypatch.setattr(cli, "_setting", no_grid)
        out = tmp_path / "grid.csv"
        code, _, err = run_cli(subcommand, "--points", points, "--output", str(out))
        assert code == 2
        assert "at most 1000000 points" in err
        assert not out.exists()

    @pytest.mark.parametrize("start, stop, points, step_kind", [
        (1.0, 89.0, 89, "normal"),
        (0.001, 89.999, 257, "normal"),
        (1.0, 89.0, 1_000_000, "normal"),
        (1e-310, 2e-310, 89, "subnormal"),
        (1e-320, 2e-320, 1_000_000, "zero"),
    ], ids=["default", "257", "million", "subnormal-step", "zero-step"])
    def test_grid_blocks_are_linspace_bit_for_bit(self, start, stop, points, step_kind):
        step = (stop - start) / (points - 1)
        assert step_kind == ("zero" if step == 0.0 else "subnormal" if step < sys.float_info.min else "normal")
        args = argparse.Namespace(theta_min_deg=start, theta_max_deg=stop, points=points)
        blocks = list(cli._theta_grid_degrees(args))
        assert max(map(len, blocks)) == min(cli._BLOCK, points)
        assert np.concatenate(blocks).tobytes() == np.linspace(start, stop, points).tobytes()


class TestRateCurve:
    def test_small_grid(self, tmp_path, run_cli):
        out = tmp_path / "rc.csv"
        code, _, _ = run_cli("rate-curve", "--p-max", "0.002",
                             "--p-step", "0.001", "--output", str(out))
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["p", "normalized_rate", "theta_star_deg",
                          "pm_reference"]
        np.testing.assert_allclose([r[0] for r in rows], [0.0, 0.001, 0.002],
                                   atol=1e-15)
        for row in rows:
            theta_star, rep = optimal_theta(row[0])
            assert row[1] == pytest.approx(rep.normalized_rate, abs=1e-9)
            assert row[2] == pytest.approx(math.degrees(theta_star), abs=1e-6)
            assert row[3] == pytest.approx(pm_reference_rate(row[0]),
                                           abs=1e-12)

    def test_step_must_divide_range(self, tmp_path, run_cli):
        code, _, err = run_cli("rate-curve", "--p-max", "0.0025",
                               "--p-step", "0.001",
                               "--output", str(tmp_path / "rc.csv"))
        assert code == 2
        assert "multiple" in err

    @pytest.mark.parametrize("p_max, p_step, message", [
        ("inf", "0.1", "finite"),
        ("0.04", "inf", "finite"),
        ("nan", "0.01", "finite"),
        ("0.04", "nan", "finite"),
        ("1.5", "0.75", "exceed 1"),
        ("0.04", "4e-12", "at most"),
        ("0.04", "1e-320", "at most"),
        ("1e-13", "3e-14", "multiple"),
    ])
    def test_bad_grid_rejected_before_any_solve(self, tmp_path, run_cli, monkeypatch,
                                                p_max, p_step, message):
        from entb92 import cli

        def no_solve(*args, **kwargs):
            raise AssertionError("rate-curve solved a point before validating its grid")

        monkeypatch.setattr(cli, "optimal_theta", no_solve)
        out = tmp_path / "rc.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli("rate-curve", "--p-max", p_max,
                                   "--p-step", p_step, "--output", str(out))
        assert code == 2
        assert message in err
        assert not out.exists()

    def test_default_json_is_pinned(self, tmp_path, run_cli):
        # 17 digits: the golden file pins every theta* to the ulp, which the 12-digit CSV golden cannot
        out = tmp_path / "rate_curve.json"
        assert run_cli("rate-curve", "--format", "json", "--output", str(out))[0] == 0
        assert out.read_bytes() == (FIXTURES / "rate_curve_golden.json").read_bytes()

    def test_full_range_accepted(self, tmp_path, run_cli):
        out = tmp_path / "rc.csv"
        code, _, _ = run_cli("rate-curve", "--p-max", "1", "--p-step", "0.5",
                             "--output", str(out))
        assert code == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == [0.0, 0.5, 1.0]


class TestThresholds:
    def test_values(self, thresholds_output):
        data = json.loads(thresholds_output.read_text())
        eff = data["efficiency"]
        assert eff["symmetric"]["value"] == pytest.approx(0.75, abs=1e-3)
        assert eff["bob_perfect"]["value"] == pytest.approx(2 / 3, abs=1e-3)
        assert eff["alice_perfect"]["value"] == pytest.approx(0.50, abs=1e-3)
        noise = data["max_depolarization"]
        assert noise["fixed_settings"]["value"] == pytest.approx(0.0336,
                                                                 abs=5e-4)
        assert noise["ch_max"]["value"] == pytest.approx(0.0234, abs=5e-4)

    def test_schema(self, thresholds_output, schema_validator):
        data = json.loads(thresholds_output.read_text())
        schema_validator("thresholds").validate(data)

    def test_default_json_is_pinned(self, thresholds_output):
        # the golden file was written by the default invocation and is kept byte for byte
        assert thresholds_output.read_bytes() == (FIXTURES / "thresholds_golden.json").read_bytes()

    def test_bracket_fields(self, thresholds_output):
        data = json.loads(thresholds_output.read_text())
        for entry in data["efficiency"].values():
            lo, hi = entry["bracket"]
            assert lo <= entry["value"] <= hi
            assert hi - lo <= 2 * entry["tolerance"] + 1e-12


class TestSimulate:
    def test_basic_run(self, tmp_path, run_cli, schema_validator):
        out = tmp_path / "session.json"
        code, _, _ = run_cli("simulate", "--theta-deg", "60",
                             "--rounds", "50000", "--seed", "4",
                             "--output", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        schema_validator("session_result").validate(data)
        assert data["config"]["seed"] == 4
        assert data["config"]["n_rounds"] == 50000
        assert data["aborted"] is False
        assert data["rate_report"]["rate"] > 0

    def test_worker_invariance_bytes(self, tmp_path, run_cli):
        outs = []
        for tag, workers in (("a", "1"), ("b", "4")):
            out = tmp_path / f"{tag}.json"
            code, _, _ = run_cli("simulate", "--theta-deg", "60",
                                 "--rounds", "200000", "--seed", "99",
                                 "--workers", workers,
                                 "--output", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_negative_zero_depol_writes_the_same_session(self, tmp_path, run_cli):
        outs = []
        for tag, depol in (("plus", "0"), ("minus", "-0.0")):
            out = tmp_path / f"{tag}.json"
            code, _, _ = run_cli("simulate", "--theta-deg", "60", "--rounds", "20000",
                                 "--seed", "3", "--depol", depol, "--output", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert b'"depol_p": 0.0' in outs[1]
        # the manifest still echoes the flag as given
        manifest = json.loads((tmp_path / "minus.json.manifest.json").read_text())
        assert math.copysign(1.0, manifest["parameters"]["depol"]) == -1.0

    def test_attacked_session_aborts(self, tmp_path, run_cli):
        out = tmp_path / "attacked.json"
        code, _, _ = run_cli("simulate", "--theta-deg", "60",
                             "--rounds", "100000", "--seed", "8",
                             "--attack", "usd", "--output", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["aborted"] is True
        assert data["s_ch_estimate"]["value"] < 0

    def test_insufficient_statistics_exit_code(self, tmp_path, run_cli):
        out = tmp_path / "tiny.json"
        code, _, _ = run_cli("simulate", "--theta-deg", "60", "--rounds", "1",
                             "--seed", "0", "--output", str(out))
        assert code == 3
        data = json.loads(out.read_text())
        assert data["insufficient_statistics"] is True

    def test_invalid_angle_rejected(self, tmp_path, run_cli):
        code, _, err = run_cli("simulate", "--theta-deg", "0", "--rounds",
                               "100", "--output", str(tmp_path / "x.json"))
        assert code == 2
        assert err.strip() != ""

    def test_missing_required_parameter(self, tmp_path, run_cli):
        code, _, _ = run_cli("simulate", "--rounds", "100",
                             "--output", str(tmp_path / "x.json"))
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path, run_cli):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_deg": 60, "rounds": 5000,
                                   "seed": 1, "depol": 0.01}))
        out = tmp_path / "s.json"
        code, _, _ = run_cli("simulate", "--config", str(cfg), "--seed", "9",
                             "--output", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["config"]["seed"] == 9
        assert data["config"]["n_rounds"] == 5000
        assert data["config"]["channel"]["depol_p"] == 0.01

    def test_unknown_config_key_rejected(self, tmp_path, run_cli):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_deg": 60, "rounds": 100,
                                   "mystery": 1}))
        code, _, err = run_cli("simulate", "--config", str(cfg),
                               "--output", str(tmp_path / "s.json"))
        assert code == 2
        assert "mystery" in err

    @pytest.mark.parametrize("contents, needle", [
        ({"eta_a": None}, "eta_a"),
        ({"rounds": [1000]}, "rounds"),
        ({"depol": {"p": 0.01}}, "depol"),
        ({"test_fraction": True}, "test_fraction"),
        ({"abort_threshold": "0.1"}, "abort_threshold"),
        ({"seed": 1.7}, "seed"),
        ({"rounds": 100.5}, "rounds"),
        ({"chunk_size": 65536}, "unknown config keys"),
        ({"attack": None}, "attack"),
        ([60, 100], "JSON object"),
        ({"eta_a": 10 ** 400}, "eta_a"),
    ])
    def test_config_value_types_rejected(self, tmp_path, run_cli, contents, needle):
        if isinstance(contents, dict):
            contents = {"theta_deg": 60, "rounds": 100, **contents}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(contents))
        code, _, err = run_cli("simulate", "--config", str(cfg),
                               "--output", str(tmp_path / "s.json"))
        assert code == 2
        assert needle in err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--rounds", "1000000000000000"], f"n_rounds must lie in [1, {MAX_ROUNDS}]"),
        (["--rounds", str(MAX_ROUNDS + 1)], f"n_rounds must lie in [1, {MAX_ROUNDS}]"),
    ], ids=["many-chunks", "one-over"])
    def test_oversized_round_count_rejected_before_sampling(self, tmp_path, run_cli, monkeypatch,
                                                            argv, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("rounds drawn for an oversized session")

        monkeypatch.setattr(session, "_words", no_draw)
        code, _, err = run_cli("simulate", "--theta-deg", "60", *argv,
                               "--output", str(tmp_path / "s.json"))
        assert code == 2
        assert message in err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("bad", ["output", "table_csv", "manifest"])
    def test_unwritable_output_rejected_before_sampling(self, tmp_path, run_cli, monkeypatch, bad):
        def no_draw(*args, **kwargs):
            raise AssertionError("rounds drawn before the outputs were checked")

        monkeypatch.setattr(session, "_words", no_draw)
        paths = {"output": tmp_path / "o.json", "table_csv": tmp_path / "t.csv"}
        if bad == "manifest":
            blocked = tmp_path / "o.json.manifest.json"
            blocked.mkdir()  # a directory where the manifest would be written
        else:
            blocked = paths[bad] = tmp_path / "missing" / paths[bad].name
        code, _, err = run_cli("simulate", "--theta-deg", "60", "--rounds", "100",
                               "--output", str(paths["output"]), "--table-csv", str(paths["table_csv"]))
        assert code == 2
        assert str(blocked) in err
        assert list(tmp_path.rglob("*")) == ([blocked] if bad == "manifest" else [])

    @pytest.mark.parametrize("table", ["o.json", "o.json.manifest.json"])
    def test_colliding_outputs_rejected_before_sampling(self, tmp_path, run_cli, monkeypatch, table):
        def no_draw(*args, **kwargs):
            raise AssertionError("rounds drawn before the outputs were checked")

        monkeypatch.setattr(session, "_words", no_draw)
        code, _, err = run_cli("simulate", "--theta-deg", "60", "--rounds", "100",
                               "--output", str(tmp_path / "o.json"), "--table-csv", str(tmp_path / table))
        assert code == 2
        assert "must not share a path" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("link", [os.link, os.symlink])
    @pytest.mark.parametrize("table", ["t.csv", "o.json.manifest.json"])
    def test_existing_outputs_naming_one_file_rejected(self, tmp_path, run_cli, link, table):
        # distinct names that an earlier run left pointing at one file
        (tmp_path / "o.json").write_text("kept")
        link(tmp_path / "o.json", tmp_path / table)
        argv = ["--table-csv", str(tmp_path / table)] if table == "t.csv" else []
        code, _, err = run_cli("simulate", "--theta-deg", "60", "--rounds", "100",
                               "--output", str(tmp_path / "o.json"), *argv)
        assert code == 2
        assert "must not share a path" in err
        assert (tmp_path / "o.json").read_text() == "kept"

    @pytest.mark.parametrize("name, flags", [
        ("lossy", ["--eta-a", "0.9", "--eta-b", "0.8", "--depol", "0.02"]),
        ("usd", ["--attack", "usd"]),
    ], ids=["lossy", "usd"])
    def test_session_is_pinned(self, tmp_path, run_cli, name, flags):
        # the golden files were written by this invocation and are kept byte for byte;
        # the manifest is not pinned, since it records the output paths
        out, table = tmp_path / "s.json", tmp_path / "t.csv"
        code, _, _ = run_cli("simulate", "--theta-deg", "60", "--rounds", "20000", "--seed", "7", *flags,
                             "--output", str(out), "--table-csv", str(table))
        assert code == 0
        assert out.read_bytes() == (FIXTURES / f"session_{name}_golden.json").read_bytes()
        assert table.read_bytes() == (FIXTURES / f"session_{name}_golden.csv").read_bytes()

    def test_table_csv_side_output(self, tmp_path, run_cli):
        out = tmp_path / "s.json"
        side = tmp_path / "table.csv"
        code, _, _ = run_cli("simulate", "--theta-deg", "60",
                             "--rounds", "20000", "--seed", "2",
                             "--output", str(out), "--table-csv", str(side))
        assert code == 0
        header, rows = read_csv(side)
        assert header == ["alice_setting", "bob_setting", "alice_outcome",
                          "bob_outcome", "count"]
        assert len(rows) == 36
        assert sum(int(r[4]) for r in rows) == 20000
        # side output must be listed in the manifest
        manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
        assert any(e["path"] == str(side) for e in manifest["outputs"])


class TestAttackDemo:
    def test_attacked_column_never_positive(self, tmp_path, run_cli):
        out = tmp_path / "demo.csv"
        code, _, _ = run_cli("attack-demo", "--points", "21",
                             "--output", str(out))
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["theta_deg", "s_ch_clean", "s_ch_attacked"]
        for row in rows:
            th = math.radians(row[0])
            assert row[1] == pytest.approx(oracle.ch_closed(th), abs=1e-11)
            assert row[2] <= 1e-12
            assert row[2] == pytest.approx(oracle.attacked_ch(th), abs=1e-10)

    def test_json_format_schema(self, tmp_path, run_cli, schema_validator):
        out = tmp_path / "demo.json"
        code, _, _ = run_cli("attack-demo", "--points", "5", "--format",
                             "json", "--output", str(out))
        assert code == 0
        schema_validator("attack_demo").validate(json.loads(out.read_text()))

    def test_default_csv_is_pinned(self, tmp_path, run_cli):
        # the golden file was written by the default invocation and is kept byte for byte
        out = tmp_path / "attack_demo.csv"
        assert run_cli("attack-demo", "--output", str(out))[0] == 0
        assert out.read_bytes() == (FIXTURES / "attack_demo_golden.csv").read_bytes()

    def test_500_point_json_is_pinned(self, tmp_path, run_cli):
        # 17 digits: the golden file pins every attacked value to the ulp
        out = tmp_path / "attack_demo.json"
        assert run_cli("attack-demo", "--points", "500", "--format", "json", "--output", str(out))[0] == 0
        assert out.read_bytes() == (FIXTURES / "attack_demo_500_golden.json").read_bytes()

    @pytest.mark.parametrize("argv, blocks", [([], [89]), (["--points", "600"], [256, 256, 88])])
    def test_one_born_contraction_per_block(self, tmp_path, run_cli, monkeypatch, argv, blocks):
        # born_ch keeps the angles on the last axis: one batch of grids per 256-row block, none per angle
        shapes = []
        born_grids = session._born_grids

        def counted(*stages):
            grids = born_grids(*stages)
            shapes.append(grids.shape)
            return grids
        monkeypatch.setattr(session, "_born_grids", counted)
        assert run_cli("attack-demo", *argv, "--output", str(tmp_path / "demo.csv"))[0] == 0
        assert shapes == [(2, 2, 3, 3, n) for n in blocks]

    def test_blocks_give_the_values_of_one_block(self, tmp_path, run_cli, monkeypatch):
        argv = ["attack-demo", "--points", "50", "--format", "json"]
        assert run_cli(*argv, "--output", str(tmp_path / "one.json"))[0] == 0
        monkeypatch.setattr(cli, "_BLOCK", 7)  # eight blocks, the last one short
        assert run_cli(*argv, "--output", str(tmp_path / "many.json"))[0] == 0
        assert (tmp_path / "many.json").read_bytes() == (tmp_path / "one.json").read_bytes()


class TestParserReuse:
    """``main`` builds its parser once per process, and no call leaves state for the next."""

    CALLS = [
        ["curve", "--points", "5", "--format", "json", "--output", "curve.json"],
        ["curve", "--points", "5", "--output", "curve.csv"],  # --format is back at its default
        ["rate-curve", "--p-max", "0.01", "--p-step", "0.01", "--output", "rate.csv"],
        ["simulate", "--theta-deg", "60", "--output", "session.json"],  # no --rounds: exits 2
    ]

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, run_cli, package_env, monkeypatch):
        def files():
            found = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
            for path in tmp_path.iterdir():
                path.unlink()
            return found

        monkeypatch.chdir(tmp_path)
        in_process = [run_cli(*argv)[::2] for argv in self.CALLS]
        in_process_files = files()
        fresh = []
        for argv in self.CALLS:
            proc = subprocess.run([sys.executable, "-m", "entb92.cli", *argv], cwd=tmp_path,
                                  capture_output=True, text=True, env=package_env)
            fresh.append((proc.returncode, proc.stderr))
        assert [code for code, _ in in_process] == [0, 0, 0, 2]
        assert "rounds is required" in in_process[-1][1]
        assert in_process == fresh
        assert len(in_process_files) == 6 and in_process_files == files()
        assert in_process_files["curve.csv"].startswith(b"theta_deg,s_ch,")

    def test_import_builds_no_parser_and_main_builds_one(self, tmp_path, package_env):
        script = textwrap.dedent(f"""
            import argparse, json
            built = []
            init = argparse.ArgumentParser.__init__

            def counting_init(self, *args, **kwargs):
                built.append(1)
                init(self, *args, **kwargs)

            argparse.ArgumentParser.__init__ = counting_init
            from entb92 import cli
            counts = [len(built)]
            for _ in range(2):
                try:
                    cli.main(["curve", "--points", "1", "--output", {str(tmp_path / "c.csv")!r}])
                except SystemExit:
                    counts.append(len(built))
            print(json.dumps(counts))
            """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=package_env)
        assert proc.returncode == 0, proc.stderr
        at_import, first_call, second_call = json.loads(proc.stdout)
        assert at_import == 0 and first_call == second_call > 0

    def test_handler_patched_after_first_call_runs(self, tmp_path, run_cli, monkeypatch):
        assert run_cli("curve", "--points", "3", "--output", str(tmp_path / "c.csv"))[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_curve", lambda args: seen.append(args.points) or 7)
        assert run_cli("curve", "--points", "4", "--output", str(tmp_path / "d.csv"))[0] == 7
        assert seen == [4]


ANALYTIC_SUBCOMMANDS = ["attack-demo", "curve", "rate-curve", "thresholds"]


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("subcommand", ["simulate"])
def test_nonpositive_workers_rejected(tmp_path, run_cli, subcommand, workers):
    out = tmp_path / "out"
    code, _, err = run_cli(subcommand, "--theta-deg", "60", "--rounds", "100", "--workers", workers,
                           "--output", str(out))
    assert code == 2
    assert "--workers" in err and "positive integer" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, argv", [
    ("curve", ["--points", "3"]),
    ("rate-curve", ["--p-max", "0.001", "--p-step", "0.001"]),
    ("thresholds", []),
    ("attack-demo", ["--points", "3"]),
    ("simulate", ["--theta-deg", "60", "--rounds", "100"]),
])
def test_unwritable_manifest_rejected_before_computing(tmp_path, run_cli, subcommand, argv):
    blocked = tmp_path / "out.manifest.json"
    blocked.mkdir()  # a directory where the manifest would be written
    code, _, err = run_cli(subcommand, *argv, "--output", str(tmp_path / "out"))
    assert code == 2
    assert str(blocked) in err
    assert list(tmp_path.iterdir()) == [blocked]


@pytest.mark.parametrize("subcommand, flag", [
    *(pytest.param(name, flag, id=name + flag[0])
      for name in ANALYTIC_SUBCOMMANDS for flag in (["--workers", "2"], ["--seed", "1"])),
    pytest.param("thresholds", ["--format", "json"], id="thresholds--format"),
    pytest.param("simulate", ["--format", "json"], id="simulate--format"),
    pytest.param("simulate", ["--chunk-size", "7"], id="simulate--chunk-size"),
])
def test_flags_a_subcommand_does_not_read_are_rejected(tmp_path, run_cli, subcommand, flag):
    out = tmp_path / "out"
    extra = ["--theta-deg", "60", "--rounds", "100"] if subcommand == "simulate" else []
    code, _, err = run_cli(subcommand, *extra, *flag, "--output", str(out))
    assert code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, argv, parameters, seed", [
    ("curve", ["--points", "3"],
     {"points": 3, "theta_min_deg": 1.0, "theta_max_deg": 89.0, "format": "csv"}, None),
    ("rate-curve", ["--p-max", "0.001", "--p-step", "0.001", "--format", "json"],
     {"p_max": 0.001, "p_step": 0.001, "format": "json"}, None),
    ("thresholds", [], {}, None),
    ("attack-demo", ["--points", "3"],
     {"points": 3, "theta_min_deg": 1.0, "theta_max_deg": 89.0, "format": "csv"}, None),
    ("simulate", ["--theta-deg", "60", "--rounds", "100", "--seed", "3"],
     {"theta_deg": 60.0, "rounds": 100, "test_fraction": 0.25, "eta_a": 1.0, "eta_b": 1.0,
      "depol": 0.0, "attack": "none", "abort_threshold": 0.0, "seed": 3,
      "workers": 1}, 3),
], ids=["curve", "rate-curve", "thresholds", "attack-demo", "simulate"])
def test_manifest_records_the_parameters_read(tmp_path, run_cli, schema_validator,
                                              subcommand, argv, parameters, seed):
    out = tmp_path / "out"
    code, _, _ = run_cli(subcommand, *argv, "--output", str(out))
    assert code in (0, 3)
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    schema_validator("manifest").validate(manifest)
    assert manifest["subcommand"] == subcommand
    assert manifest["parameters"] == parameters
    assert type(manifest["seed"]) is type(seed) and manifest["seed"] == seed
    assert [e["path"] for e in manifest["outputs"]] == [str(out)]


@pytest.mark.parametrize("subcommand, argv", [
    ("curve", ["--points", "3"]),
    ("curve", ["--points", "3", "--format", "json"]),
    ("rate-curve", ["--p-max", "0.001", "--p-step", "0.001"]),
    ("rate-curve", ["--p-max", "0.001", "--p-step", "0.001", "--format", "json"]),
    ("thresholds", []),
    ("attack-demo", ["--points", "3"]),
    ("attack-demo", ["--points", "3", "--format", "json"]),
    ("simulate", ["--theta-deg", "60", "--rounds", "100"]),
    ("simulate", ["--theta-deg", "60", "--rounds", "100", "--table-csv"]),
])
def test_manifest_digests_are_those_of_the_files(tmp_path, run_cli, subcommand, argv):
    # the writers hash the bytes they write; the manifest must list what is on disk
    if argv[-1:] == ["--table-csv"]:
        argv = [*argv, str(tmp_path / "table.csv")]
    out = tmp_path / "out"
    code, _, _ = run_cli(subcommand, *argv, "--output", str(out))
    assert code == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    written = sorted(str(path) for path in tmp_path.iterdir() if path.name != "out.manifest.json")
    assert sorted(e["path"] for e in manifest["outputs"]) == written
    assert all(e["sha256"] == sha256(Path(e["path"])) for e in manifest["outputs"])
    # outputs are overwritten in place and cut to length: an old file longer or shorter than the new
    # content, the manifest included, ends up as the fresh run wrote it
    fresh = {path: path.read_bytes() for path in tmp_path.iterdir()}
    for old in (lambda data: data + b"x" * 5000, lambda data: data[:len(data) // 2]):
        for path, data in fresh.items():
            path.write_bytes(old(data))
        assert run_cli(subcommand, *argv, "--output", str(out))[0] == 0
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == fresh
        assert all(path.stat().st_size == len(data) for path, data in fresh.items())
        assert all(e["sha256"] == sha256(Path(e["path"])) for e in manifest["outputs"])


def test_no_subcommand_builds_density_matrices(tmp_path, monkeypatch):
    # the density-matrix pipeline is the reference; every subcommand computes from closed forms
    def refuse(*args, **kwargs):
        raise AssertionError("density matrix or POVM built by a subcommand")

    monkeypatch.setattr(qcore.DensityMatrix, "__init__", refuse)
    monkeypatch.setattr(qcore.Povm, "__init__", refuse)
    with pytest.raises(AssertionError):  # the guard is live
        qcore.DensityMatrix(np.eye(2) / 2)
    session._shared_distributions.cache_clear()
    for argv in (["curve"], ["attack-demo", "--format", "json"], ["rate-curve"], ["thresholds"],
                 ["simulate", "--theta-deg", "60", "--rounds", "3000", "--attack", "usd", "--depol", "0.01",
                  "--table-csv", str(tmp_path / "table.csv")]):
        assert cli.main([*argv, "--output", str(tmp_path / "out")]) == 0, argv


class TestWriter:
    """The one writer every output goes through, and its block encoders."""

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            cli._write_text(str(tmp_path / "out"), ["a"])
        finally:
            os.umask(old)
        assert (tmp_path / "out").stat().st_mode & 0o777 == 0o666 & ~umask

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_device_is_written_and_never_truncated(self):
        blocks = ["header\n", "", "rows\n" * 1000]
        assert cli._write_text(os.devnull, blocks) == hashlib.sha256("".join(blocks).encode()).hexdigest()

    def test_digest_is_of_the_utf8_bytes(self, tmp_path):
        out = tmp_path / "out"
        assert cli._write_text(str(out), ["\u00b5s", "", "\n"]) == sha256(out)
        assert out.read_text(encoding="utf-8") == "\u00b5s\n"

    @staticmethod
    def random_table(rng, n_rows, n_cols):
        """A header and rows of floats over the whole range, with +-0.0, subnormals, non-finite values and ints."""
        names = ["theta_deg", "s_ch", "Zeta", "a%s", 'q"uote', "\u00e9t\u00e9", "_", "p", "count", "s"]
        header = [names[k] for k in rng.permutation(len(names))[:n_cols]]
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308,
                    math.nan, math.inf, -math.inf, 1e16, 1e-7, 0.1, 7, -3, 0, 2 ** 60]
        rows = []
        for _ in range(n_rows):
            row = (rng.standard_normal(n_cols) * 10.0 ** rng.integers(-320, 300, n_cols)).tolist()
            for k in np.flatnonzero(rng.random(n_cols) < 0.3):
                row[k] = specials[rng.integers(len(specials))]
            rows.append(row)
        return header, rows

    @pytest.mark.parametrize("seed", range(6))
    def test_json_blocks_equal_json_dumps(self, seed):
        rng = np.random.default_rng(seed)
        for n_rows in (0, 1, 2, 37):
            header, rows = self.random_table(rng, n_rows, int(rng.integers(1, 11)))
            want = json.dumps({"rows": [dict(zip(header, map(float, row))) for row in rows]},
                              indent=2, sort_keys=True) + "\n"
            cuts = sorted(rng.integers(0, n_rows + 1, 3).tolist())
            blocks = [rows[a:b] for a, b in zip([0, *cuts], [*cuts, n_rows])]  # empty blocks included
            assert "".join(cli._json_blocks(cli._Rows(header, blocks))) == want

    def test_json_blocks_of_a_document(self):
        doc = {"b": [1, 2.5, None], "a": {"z": -0.0, "y": "\u00b5"}}
        assert list(cli._json_blocks(doc)) == [json.dumps(doc, indent=2, sort_keys=True) + "\n"]

    @pytest.mark.parametrize("seed", range(3))
    def test_csv_lines_are_12_digits_of_each_float(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        header, rows = self.random_table(rng, 40, 5)
        want = "".join(",".join(line) + "\n" for line in [header, *(["%.12g" % float(v) for v in row] for row in rows)])
        out = tmp_path / "out.csv"
        cli._write_csv(str(out), header, [rows[:13], [], rows[13:]])
        assert out.read_text(encoding="utf-8") == want


def test_readme_flag_table_matches_parser():
    lines = README.read_text().splitlines()
    start = lines.index("| subcommand | flags |") + 2
    documented = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names, flags = re.split(r"(?<!\\)\|", line)[1:-1]
        for name in re.findall(r"`([a-z-]+)`", names):
            documented[name] = set(re.findall(r"`(--[a-z-]+)", flags))
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {o for a in sp._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
              for name, sp in subparsers.choices.items()}
    assert documented == parsed


def declared_console_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


class TestEntryPoint:
    def test_console_script(self, tmp_path, package_env):
        ep = EntryPoint(name="entb92", value=declared_console_scripts()["entb92"],
                        group="console_scripts")
        assert callable(ep.load())
        # The launcher pip generates for a console script.
        launcher = tmp_path / "entb92"
        launcher.write_text(
            "import sys\n"
            f"from {ep.module} import {ep.attr}\n"
            f"sys.exit({ep.attr}())\n")
        out = tmp_path / "c.csv"
        proc = subprocess.run([sys.executable, str(launcher), "curve",
                               "--points", "3", "--output", str(out)],
                              capture_output=True, text=True, env=package_env)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        proc = subprocess.run([sys.executable, str(launcher), "bogus"],
                              capture_output=True, text=True, env=package_env)
        assert proc.returncode == 2

    @pytest.mark.skipif(shutil.which("entb92") is None,
                        reason="entb92 console script not on PATH")
    def test_installed_console_script(self, tmp_path):
        out = tmp_path / "c.csv"
        proc = subprocess.run([shutil.which("entb92"), "curve", "--points", "3",
                               "--output", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()

    def test_module_invocation_unknown_command(self, package_env):
        proc = subprocess.run([sys.executable, "-m", "entb92.cli", "bogus"],
                              capture_output=True, text=True, env=package_env)
        assert proc.returncode == 2
