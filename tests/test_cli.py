import argparse
import copy
import hashlib
import inspect
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toricstab import cli, complexes, exactla, fans, hermite, oracles, polynomials
from toricstab.cli import EXIT_INTERNAL, EXIT_PARSE, main
from toricstab.oracles import run_band, run_vandermonde


# a fixture path, for the tests that run in the repository root
H1 = "fixtures/hirzebruch1.json"


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestFanCommands:
    def test_analyze_hirzebruch(self, fixtures_dir, capsys):
        code, out, _ = run_cli(["fan", "analyze", str(fixtures_dir / "hirzebruch1.json")], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] and doc["smooth"] and doc["complete"] and doc["spans_lattice"]
        assert doc["r_min"] == 2
        assert doc["primitive_collections"] == [[1, 3], [2, 4]]
        assert doc["cox_rank"] == 2
        d = doc["degree_vector"]
        assert d[2] == d[0] and d[3] == 1 * d[0] + d[1]

    def test_analyze_bundle_with_stability(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["fan", "analyze", str(fixtures_dir / "hirzebruch1.json"),
             "--degrees", "5,7,5,12", "--n", "2", "--e1"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["stability"]["stability_dim"] == 8
        assert doc["complex"]["max_faces"] == [[0, 1], [0, 3], [1, 2], [2, 3]]
        assert doc["e1"]["cells"]

    def test_analyze_n_without_degrees_exits_4(self, fixtures_dir, capsys):
        h1 = str(fixtures_dir / "hirzebruch1.json")
        code, out, err = run_cli(["fan", "analyze", h1, "--n", "3"], capsys)
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "--n needs --degrees"
        # with --degrees, n defaults to 2
        _, implicit, _ = run_cli(["fan", "analyze", h1, "--degrees", "5,7,5,12"], capsys)
        _, explicit, _ = run_cli(["fan", "analyze", h1, "--degrees", "5,7,5,12", "--n", "2"], capsys)
        assert implicit == explicit and json.loads(implicit)["stability"]["n"] == 2

    @pytest.mark.parametrize("flag", ["--n", "--e1"])
    def test_analyze_refuses_flags_without_degrees_before_loading(self, flag, fixtures_dir,
                                                                  capsys, monkeypatch):
        # the refusal comes first: an invalid fan exits 4 here, not 3, and
        # no fan is validated
        def unreachable(fan):
            raise RuntimeError("the fan was loaded")

        monkeypatch.setattr(fans, "validate_fan", unreachable)
        argv = ["fan", "analyze", str(fixtures_dir / "bad_line.json"), flag] + (
            ["3"] if flag == "--n" else [])
        code, out, err = run_cli(argv, capsys)
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == f"{flag} needs --degrees"

    def test_analyze_affine_has_null_r_min(self, fixtures_dir, capsys):
        code, out, _ = run_cli(["fan", "analyze", str(fixtures_dir / "affine2.json")], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["r_min"] is None
        assert doc["primitive_collections"] == []
        assert doc["degree_vector"] is None
        assert doc["degree_search_exhausted"] is False
        assert "degree_search_bound" not in doc

    def test_analyze_half_plane_search_exhausted(self, tmp_path, capsys):
        # nonzero kernel, but every kernel vector has a negative entry
        doc = {"dim": 2, "rays": [[1, 0], [1, 1], [0, 1]], "max_cones": [[0, 1], [1, 2]]}
        path = tmp_path / "half_plane.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["fan", "analyze", str(path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["degree_vector"] is None
        assert doc["degree_search_exhausted"] is True

    def test_analyze_cp2(self, fixtures_dir, capsys):
        code, out, _ = run_cli(["fan", "analyze", str(fixtures_dir / "cp2.json")], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["smooth"] and doc["complete"]
        assert doc["r_min"] == 3
        assert doc["degree_vector"] == [1, 1, 1]

    def test_validate_invalid_fan_exits_3(self, fixtures_dir, capsys):
        code, out, _ = run_cli(["fan", "validate", str(fixtures_dir / "bad_line.json")], capsys)
        assert code == 3
        doc = json.loads(out)
        assert not doc["valid"]
        assert doc["violations"]

    def test_validate_over_cone_pair_cap_exits_5_quickly(self, tmp_path, capsys):
        # rays (c - i, 1) in the upper half plane, consecutive pairs as cones:
        # a valid fan that is not complete, so only the pairwise check decides
        # it; 363 cones make 65,703 pairs
        c = 363
        doc = {"dim": 2, "rays": [[c - i, 1] for i in range(c + 1)],
               "max_cones": [[i, i + 1] for i in range(c)]}
        path = tmp_path / "path_fan.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run_cli(["fan", "validate", str(path)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 5 and out == ""
        assert json.loads(err)["error"] == (
            "the pairwise fan check is capped at 65536 cone pairs, this one has 65703")

    def test_analyze_invalid_fan_exits_3(self, fixtures_dir, capsys):
        code, _, err = run_cli(["fan", "analyze", str(fixtures_dir / "bad_line.json")], capsys)
        assert code == 3
        assert "violations" in json.loads(err)

    def test_truncated_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"dim": 2, "rays": [[1,')
        code, _, err = run_cli(["fan", "analyze", str(bad)], capsys)
        assert code == 2
        assert "malformed JSON" in json.loads(err)["error"]

    def test_bad_index_pointer_exits_2(self, tmp_path, capsys):
        doc = {"dim": 1, "rays": [[1]], "max_cones": [[4]]}
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["fan", "analyze", str(path)], capsys)
        assert code == 2
        assert json.loads(err)["pointer"] == "/max_cones/0/0"

    def test_fan_power(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["fan", "power", str(fixtures_dir / "cp1.json"), "--n", "2"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["fan"]["dim"] == 2
        assert len(doc["fan"]["rays"]) == 4

    def test_fan_power_fourth_power_is_fast(self, fixtures_dir, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(
            ["fan", "power", str(fixtures_dir / "hirzebruch1.json"), "--n", "4"], capsys
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        # 4 facets of 2 rays each give 4 * 4^2 power facets
        assert len(json.loads(out)["fan"]["max_cones"]) == 64

    def test_fan_power_over_facet_cap_exits_5(self, fixtures_dir, capsys):
        # 4 facets of 2 rays each give 4 * 200^2 power facets
        code, out, err = run_cli(
            ["fan", "power", str(fixtures_dir / "hirzebruch1.json"), "--n", "200"], capsys
        )
        assert code == 5 and out == ""
        assert "capped" in json.loads(err)["error"]


class TestComplexCommands:
    def test_power_over_facet_cap_exits_5_quickly(self, tmp_path, capsys):
        r = 24
        path = tmp_path / "polygon.json"
        path.write_text(json.dumps({"vertices": r, "max_faces": [[i, (i + 1) % r] for i in range(r)]}))
        start = time.perf_counter()
        code, out, err = run_cli(["complex", "power", str(path), "--n", "3"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 5 and out == ""
        doc = json.loads(err)
        assert doc["tool"] == "toricctl" and "capped" in doc["error"]

    def test_power_from_fan_file(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["complex", "power", str(fixtures_dir / "cp1.json"), "--n", "2"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["complex"]["vertices"] == 4
        assert len(doc["complex"]["max_faces"]) == 4

    def test_primitives_from_complex_file(self, tmp_path, capsys):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps({"vertices": 2, "max_faces": [[0], [1]]}))
        code, out, _ = run_cli(["complex", "primitives", str(path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["primitive_collections"] == [[1, 2]]
        assert doc["r_min"] == 2

    def test_primitives_of_a_cone_with_a_line(self, fixtures_dir, capsys):
        # the cone [0, 1] is a facet of the complex though it is no valid cone
        code, out, _ = run_cli(
            ["complex", "primitives", str(fixtures_dir / "bad_line.json")], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["primitive_collections"] == [] and doc["r_min"] is None

    def test_primitives_from_fan_file(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["complex", "primitives", str(fixtures_dir / "hirzebruch2.json")], capsys
        )
        doc = json.loads(out)
        assert doc["primitive_collections"] == [[1, 3], [2, 4]] and doc["r_min"] == 2


class TestPolyCommands:
    def test_check_planted(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["poly", "check", "--fan", str(fixtures_dir / "cp1.json"),
             "--system", str(fixtures_dir / "system_planted_cp1.json"), "--n", "2"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["member"] is False
        assert doc["witness"]["collection"] == [1, 2]

    def test_check_generic(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["poly", "check", "--fan", str(fixtures_dir / "cp1.json"),
             "--system", str(fixtures_dir / "system_generic_cp1.json"), "--n", "2"],
            capsys,
        )
        doc = json.loads(out)
        assert code == 0 and doc["member"] is True and doc["witness"] is None

    def test_check_contractible_note(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["poly", "check", "--fan", str(fixtures_dir / "cp1.json"),
             "--system", str(fixtures_dir / "system_generic_cp1.json"), "--n", "5"],
            capsys,
        )
        doc = json.loads(out)
        assert doc["member"] is True and "contractible" in doc["note"]

    def test_check_root_form(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["poly", "check", "--fan", str(fixtures_dir / "cp1.json"),
             "--system", str(fixtures_dir / "system_root_cp1.json"), "--n", "2"],
            capsys,
        )
        doc = json.loads(out)
        assert doc["member"] is False and doc["representation"] == "root"

    def test_check_prints_the_common_root_exactly(self, fixtures_dir, tmp_path, capsys):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"roots": [[["1/3", "1/5", 2]], [["1/3", "1/5", 2], [1, 0, 1]]]}))
        code, out, _ = run_cli(["poly", "check", "--fan", str(fixtures_dir / "cp1.json"),
                                "--system", str(path), "--n", "2"], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["member"] is False
        assert doc["witness"]["common_root"] == ["1/3", "1/5"]

    def test_check_shape_mismatch_exits_4(self, fixtures_dir, capsys):
        code, _, err = run_cli(
            ["poly", "check", "--fan", str(fixtures_dir / "hirzebruch1.json"),
             "--system", str(fixtures_dir / "system_planted_cp1.json"), "--n", "2"],
            capsys,
        )
        assert code == 4

    def test_stabilize(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["poly", "stabilize", "--system", str(fixtures_dir / "system_root_cp1.json"),
             "--a", "1,2"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["degrees_before"] == [2, 2]
        assert doc["degrees_after"] == [3, 4]

    def test_stabilize_needs_root_form(self, fixtures_dir, capsys):
        code, _, _ = run_cli(
            ["poly", "stabilize", "--system", str(fixtures_dir / "system_generic_cp1.json"),
             "--a", "1,1"],
            capsys,
        )
        assert code == 4

    def test_jet(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["poly", "jet", "--system", str(fixtures_dir / "system_planted_cp1.json"),
             "--n", "2"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        # z^2 and z^2 + 2z
        assert doc["jets"][0][0] == [["0", "0"], ["0", "0"], ["1", "0"]]
        assert doc["jets"][0][1] == [["0", "0"], ["2", "0"], ["1", "0"]]


class TestOracleCommands:
    def test_jetsection_passes(self, capsys):
        code, out, _ = run_cli(["oracle", "jetsection", "--trials", "10", "--seed", "3"], capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_vandermonde_fixed_shape(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "vandermonde", "--trials", "5", "--seed", "1",
             "--k", "2", "--n", "2", "--d", "6"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["passed"] == 5

    def test_vandermonde_below_regime_is_oracle_failure(self, capsys):
        # d = 3 < n*k = 4: the claim fails and the random targets are inconsistent
        code, out, _ = run_cli(
            ["oracle", "vandermonde", "--trials", "2", "--seed", "1",
             "--k", "2", "--n", "2", "--d", "3"],
            capsys,
        )
        doc = json.loads(out)
        assert code == 1 and doc["ok"] is False and len(doc["failures"]) == 2
        assert all(f["detail"]["rank"] == 3 for f in doc["failures"])

    def test_band_small(self, capsys):
        code, out, _ = run_cli(["oracle", "band", "--trials", "5", "--seed", "2"], capsys)
        assert code == 0 and json.loads(out)["ok"]

    def test_seed_flag_is_the_only_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TORICCTL_SEED", "777")
        code, out, _ = run_cli(["oracle", "jetsection", "--trials", "3", "--seed", "1"], capsys)
        assert code == 0
        assert json.loads(out)["seed"] == 1

    @pytest.mark.parametrize("suite", ["band", "complement", "jetsection"])
    @pytest.mark.parametrize("flag", ["--k", "--n", "--d"])
    def test_shape_flags_outside_vandermonde_exit_parse_error(self, suite, flag, capsys):
        # only vandermonde declares them, so argparse refuses them elsewhere
        code, out, err = run_cli(["oracle", suite, "--trials", "1", flag, "3"], capsys)
        assert code == EXIT_PARSE and out == ""
        assert json.loads(err)["error"] == f"toricctl: unrecognized arguments: {flag} 3"

    @pytest.mark.parametrize("argv", [["oracle", "--seed", "3", "band"],
                                      ["oracle", "--trials", "3", "jetsection"],
                                      ["fan", "--n", "2", "power", H1],
                                      ["--seed", "3", "oracle", "band"],
                                      ["--bogus", "fan"],
                                      ["--seed", "3", "fan"]])
    def test_flags_before_the_command_exit_parse_error(self, argv, capsys, fixtures_dir,
                                                       monkeypatch):
        # a suite's flags follow its name, as every command's do, and the
        # error says so rather than naming the flag's value as the command
        monkeypatch.chdir(fixtures_dir.parent)
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_PARSE and out == ""
        flag = next(i for i, arg in enumerate(argv) if arg.startswith("-"))
        assert json.loads(err)["error"] == (
            f"{' '.join(['toricctl'] + argv[:flag])}: flags follow the command name, "
            f"and {argv[flag]} comes before it")

    def test_a_negative_number_before_the_suite_is_no_flag(self, capsys):
        code, out, err = run_cli(["oracle", "-1", "band"], capsys)
        assert code == EXIT_PARSE and out == ""
        assert json.loads(err)["error"].startswith(
            "toricctl oracle: argument suite: invalid choice: '-1'")

    def test_a_bad_suite_flag_names_the_suite(self, capsys):
        code, _, err = run_cli(["oracle", "band", "--trials", "two"], capsys)
        assert code == EXIT_PARSE
        assert json.loads(err)["error"] == (
            "toricctl oracle band: argument --trials: expected a positive integer, got 'two'")

    def test_complement_reads_trials_as_samples(self, capsys, monkeypatch):
        calls = []
        run_complement = oracles.run_complement

        def recording(seed, **given):
            calls.append((seed, given))
            return run_complement(seed, **given)

        monkeypatch.setattr(oracles, "run_complement", recording)
        code, out, _ = run_cli(["oracle", "complement", "--trials", "7", "--seed", "2"], capsys)
        assert code == 0 and json.loads(out)["ok"]
        assert calls == [(2, {"samples": 7})]

    @pytest.mark.parametrize("flag,value", [("--k", 3), ("--n", 3), ("--d", 40)])
    def test_vandermonde_reads_each_shape_flag(self, flag, value, capsys, monkeypatch):
        calls = []

        def recording(seed, **given):
            calls.append(given)
            return run_vandermonde(seed, **given)

        monkeypatch.setattr(oracles, "run_vandermonde", recording)
        code, out, _ = run_cli(["oracle", "vandermonde", "--trials", "2", flag, str(value)], capsys)
        assert code == 0 and json.loads(out)["passed"] == 2
        assert calls == [{"trials": 2, flag[2:]: value}]

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(["oracle", "band", "--trials", "4", "--seed", "11"], capsys)
        _, second, _ = run_cli(["oracle", "band", "--trials", "4", "--seed", "11"], capsys)
        assert first == second


# The output corpus: every command on every fixture, the oracle suites and
# the error paths.  Each entry pins the sha256 of (exit code, stdout,
# stderr) from an in-process main run in the repository root, where a
# bare fixture name stands for its path under fixtures/.  A change to a
# report, a message, a suite's defaults or draws, or the help text shows here.
COMMAND_DIGESTS = {
    "fan analyze affine2.json": "f0d5eaa74886bb9227fa3435aea870f615a618abc587433378ec5be5271b2fcb",
    "fan analyze bad_line.json": "6c435c18b142b91b4851050f46af8ebc727b228b839f5921f68e3329d6b391a9",
    "fan analyze complex_ring.json": "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan analyze cp1.json": "0745773601b2cdfbe12e8d7a5fb678f38592f5fdd8a7560c2297dd82b1da7562",
    "fan analyze cp2.json": "9e7c38bce5587b22f89b5cb0bc334657c0dfd8f1fb2d66f6f48e10c8b9b91d1c",
    "fan analyze cp3.json": "c8ea1556b19ac77f6f7ad22387171f9a4bcd00b8072e7754c314dece4e9ec9d7",
    "fan analyze hirzebruch1.json": "7761b4df03ceabed6e20c155d885cf2ca2e19b23cd0520e0d4b32027db4a887c",
    "fan analyze hirzebruch2.json": "f6e84b881fb0188abe835db0063d212e73bd0237bd9eb3ea3c1e6f2eeb3e7ac5",
    "fan analyze hirzebruch3.json": "10a3d42f556ff6092abcd07150d4df1e1c41c7054bd52a7380ead710316aa239",
    "fan analyze system_generic_cp1.json":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan analyze system_planted_cp1.json":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan analyze system_root_cp1.json":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan analyze affine2.json --degrees 5,7,5,12 --n 2 --e1":
        "13cbeeccfc04562b06d32e1bf813268da49c4ec3b78602e8fa53c4b37a76d9e2",
    "fan analyze bad_line.json --degrees 5,7,5,12 --n 2 --e1":
        "6c435c18b142b91b4851050f46af8ebc727b228b839f5921f68e3329d6b391a9",
    "fan analyze complex_ring.json --degrees 5,7,5,12 --n 2 --e1":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan analyze cp1.json --degrees 5,7,5,12 --n 2 --e1":
        "13cbeeccfc04562b06d32e1bf813268da49c4ec3b78602e8fa53c4b37a76d9e2",
    "fan analyze cp2.json --degrees 5,7,5,12 --n 2 --e1":
        "81b24f171695ea63808812e36691e4e6a969f6f0f6c5f46df78f1b123687542c",
    "fan analyze cp3.json --degrees 5,7,5,12 --n 2 --e1":
        "4b256a384cb53ca2b5dfbca0a92605e0a05c55ae275b3ac1dc8e7b744b07287e",
    "fan analyze hirzebruch1.json --degrees 5,7,5,12 --n 2 --e1":
        "a3c0cc891438060b2b7dc3b49ed016b937bf98be226a31e597a9417557b5da8f",
    "fan analyze hirzebruch2.json --degrees 5,7,5,12 --n 2 --e1":
        "11c8d23d0c62538e161249ede35271809c8d6d5eea4c919749e50cc12b635f7b",
    "fan analyze hirzebruch3.json --degrees 5,7,5,12 --n 2 --e1":
        "4043055248ffbe36ea935c623af27116eac9c14eb264a42c3f9c3cc47e666a3f",
    "fan analyze system_generic_cp1.json --degrees 5,7,5,12 --n 2 --e1":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan analyze system_planted_cp1.json --degrees 5,7,5,12 --n 2 --e1":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan analyze system_root_cp1.json --degrees 5,7,5,12 --n 2 --e1":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan validate affine2.json": "913935b7951535c3e3b57738b9513d871c145134e6b21a2b1e16ad5f1124929e",
    "fan validate bad_line.json": "53eb8a879882234aac34e916162044a42053649933a00ec03a10340656e63278",
    "fan validate complex_ring.json":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan validate cp1.json": "21723b6af1c81df190867ff76f2090229caf7c639d1043c523057badb2c73a8e",
    "fan validate cp2.json": "4e186a960d115d2bf76898f30ea52d9bae87b0d8f6967a5b523b79ed3d64bc0a",
    "fan validate cp3.json": "b0449c65bfcef954e3b3a2240d6d416a28f69dc4bd1bfa5595793aab27e3212e",
    "fan validate hirzebruch1.json": "a8f2ec24230437c5feba4a1ced5a7da751873126dea29c25ff7fbbe083b092af",
    "fan validate hirzebruch2.json": "dbc89b49b0082d38e1bd7b72d5320bce1d4ab947ed3cda5697f826ce9e552899",
    "fan validate hirzebruch3.json": "82b710a94210311c6fde0acf9d1fa0b55d94bc7799562cefd1e37509065043e3",
    "fan validate system_generic_cp1.json":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan validate system_planted_cp1.json":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan validate system_root_cp1.json":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan power affine2.json --n 2": "ecd3a09936b3bbb109337efe85817a8ed45ae3ae33ffabb6ba201dc2e4477dc1",
    "fan power bad_line.json --n 2": "6c435c18b142b91b4851050f46af8ebc727b228b839f5921f68e3329d6b391a9",
    "fan power complex_ring.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan power cp1.json --n 2": "d8198620a095b3aece990e1bd22a33d3a5fc88d9cffffa8f44829879e7fef59b",
    "fan power cp2.json --n 2": "c652bc59ecd7194b42f6fce4645360dd15876a4bd34f7119d526e0ed60fd3681",
    "fan power cp3.json --n 2": "db4461dcf6ea54ee81691f9a7371222e6aa185ee6f5db0978f26b27a1a035656",
    "fan power hirzebruch1.json --n 2":
        "750b1d0f842bc465e6b1e9ad36fb01a20be2cfc59f272e1cb0cbc6a489da4e47",
    "fan power hirzebruch2.json --n 2":
        "1210eda178765b6e3893570511be5b08cdeef0c027b9f6f8b97ce8c68d638e92",
    "fan power hirzebruch3.json --n 2":
        "1319e4d648e1cb03167adcea99193ea2e26ba2d728a2a38d83e281e6fb0e2b42",
    "fan power system_generic_cp1.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan power system_planted_cp1.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "fan power system_root_cp1.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "complex power affine2.json --n 2":
        "9f0e6082ea9aa03c9ec91d2454923a3c799580c403c35968cad97ad18de92cff",
    "complex power bad_line.json --n 2":
        "e7a7a73b00da77d85f2f51d5743fb4b0335fcada68cdf6d7849fe93e6adf26bd",
    "complex power complex_ring.json --n 2":
        "838cbc3ea67b973cb152bd28b4eb466e7200d8d5f3cdec53f520e10fb6a9875b",
    "complex power cp1.json --n 2": "8062ea6a45ddc1c38210de7bbfacf6146c0e228a6882ec7f25ee0ef4856fa301",
    "complex power cp2.json --n 2": "6f1a56dd51ae0e1acbced44dc94337313107c742ef3582827ebbdd8bcbe71586",
    "complex power cp3.json --n 2": "a600bf0fd22445590b4c6754e451dad5e0e68a6406ce169941b5e521d54123b3",
    "complex power hirzebruch1.json --n 2":
        "3bd5f7cea762c57ccc47a4bdd936dc08865bdbf43e0f5344ff8bac461f716c7b",
    "complex power hirzebruch2.json --n 2":
        "92abcf95236d371f3cae71fa3ba0be2842f8e6dc3d28b0eb2c0ba7f0c482320c",
    "complex power hirzebruch3.json --n 2":
        "5bd67881d20afc96cecb276aaef55ab51dbc0053b5ed5eae49d005f02565accb",
    "complex power system_generic_cp1.json --n 2":
        "ac645e97add82e12c9c1be31f6cd2f2edfefdb3269339cd4366c8d44f6cdcd60",
    "complex power system_planted_cp1.json --n 2":
        "ac645e97add82e12c9c1be31f6cd2f2edfefdb3269339cd4366c8d44f6cdcd60",
    "complex power system_root_cp1.json --n 2":
        "ac645e97add82e12c9c1be31f6cd2f2edfefdb3269339cd4366c8d44f6cdcd60",
    "complex primitives affine2.json":
        "d80b9edb3f63db20f493d196bf72183f9dd85cafc4d06b6370c9c7c631a0f955",
    "complex primitives bad_line.json":
        "0b9e573a03c94eb8bc8a3342d134875045b733952e2dd68cd2ffeb8c13e4f298",
    "complex primitives complex_ring.json":
        "798db7259113ec7d7ffda5d8dbac0a5e64bff89084b38800bee1a838cb9a35f3",
    "complex primitives cp1.json": "e893371bc4473449feca460c74e029f868f7c74d3c8be25347c3e97475851b6a",
    "complex primitives cp2.json": "2ae19b4b01d9b793d485ac8c8f05686b131e1f95897d5a3794217be5e935b615",
    "complex primitives cp3.json": "e625d46b4f75bdd4fc29db56ec6c700a13e29132e38b05c8394ee05a0f8b062a",
    "complex primitives hirzebruch1.json":
        "47fbe96621984d4ffc34e50b8936950b50c3f05a35c2f9aa4708294a73c5f711",
    "complex primitives hirzebruch2.json":
        "b971119c8a707d5440ddd4123ac15eee20a5f31f5dff9c8b6054969a4179201d",
    "complex primitives hirzebruch3.json":
        "1089f755a7cb4c17c220dad51008cd66c3e33ca43f31e09fb2340b69ad18664a",
    "complex primitives system_generic_cp1.json":
        "ac645e97add82e12c9c1be31f6cd2f2edfefdb3269339cd4366c8d44f6cdcd60",
    "complex primitives system_planted_cp1.json":
        "ac645e97add82e12c9c1be31f6cd2f2edfefdb3269339cd4366c8d44f6cdcd60",
    "complex primitives system_root_cp1.json":
        "ac645e97add82e12c9c1be31f6cd2f2edfefdb3269339cd4366c8d44f6cdcd60",
    "poly check --fan affine2.json --system system_planted_cp1.json --n 2":
        "4a7afbd52852630372bd5e82211cc8ecf570d4242b92f07590304e5715f3cadb",
    "poly check --fan bad_line.json --system system_planted_cp1.json --n 2":
        "6c435c18b142b91b4851050f46af8ebc727b228b839f5921f68e3329d6b391a9",
    "poly check --fan complex_ring.json --system system_planted_cp1.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "poly check --fan cp1.json --system system_planted_cp1.json --n 2":
        "566041fca0c9be6fa90eb796b3deefe8d5e956ca71f508b06f88f9e76d50f8db",
    "poly check --fan cp2.json --system system_planted_cp1.json --n 2":
        "a237bdc03b04d3745635561a20798934c1478aa1a1c3fd5ea48aa6bd05485545",
    "poly check --fan cp3.json --system system_planted_cp1.json --n 2":
        "24dabc33f75f2b44705380e2fed9d195d99ff02f2759cf9a51ff27218d0f2c0f",
    "poly check --fan hirzebruch1.json --system system_planted_cp1.json --n 2":
        "24dabc33f75f2b44705380e2fed9d195d99ff02f2759cf9a51ff27218d0f2c0f",
    "poly check --fan hirzebruch2.json --system system_planted_cp1.json --n 2":
        "24dabc33f75f2b44705380e2fed9d195d99ff02f2759cf9a51ff27218d0f2c0f",
    "poly check --fan hirzebruch3.json --system system_planted_cp1.json --n 2":
        "24dabc33f75f2b44705380e2fed9d195d99ff02f2759cf9a51ff27218d0f2c0f",
    "poly check --fan system_generic_cp1.json --system system_planted_cp1.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "poly check --fan system_planted_cp1.json --system system_planted_cp1.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "poly check --fan system_root_cp1.json --system system_planted_cp1.json --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "poly check --fan cp1.json --system affine2.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system bad_line.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system complex_ring.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system cp1.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system cp2.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system cp3.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system hirzebruch1.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system hirzebruch2.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system hirzebruch3.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly check --fan cp1.json --system system_generic_cp1.json --n 2":
        "4a97ee56eae0162d91f337048a13623b1a45e160768880d3e7c7ee11caed4439",
    "poly check --fan cp1.json --system system_root_cp1.json --n 2":
        "bf4c74e5cd56ef515fb2da7c36d47b51ce1e902f3f3cce7b432bebe103cf9854",
    "poly stabilize --system affine2.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system bad_line.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system complex_ring.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system cp1.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system cp2.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system cp3.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system hirzebruch1.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system hirzebruch2.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system hirzebruch3.json --a 1,2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly stabilize --system system_generic_cp1.json --a 1,2":
        "2f64674a68f97b24a147fba5ca62e4ea18147671c27d36ee8e7b0341678064bb",
    "poly stabilize --system system_planted_cp1.json --a 1,2":
        "2f64674a68f97b24a147fba5ca62e4ea18147671c27d36ee8e7b0341678064bb",
    "poly stabilize --system system_root_cp1.json --a 1,2":
        "2cfecbd0ac160b50105481e00c239febfc8941eda174ace3b493bec13568cb43",
    "poly jet --system affine2.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system bad_line.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system complex_ring.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system cp1.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system cp2.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system cp3.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system hirzebruch1.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system hirzebruch2.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system hirzebruch3.json --n 2":
        "1390312d186d7e74b266dcfeb619e111d4128a28b469699d07705a4d3e97c51e",
    "poly jet --system system_generic_cp1.json --n 2":
        "ef89deb5d8a724b1a44b4c42865fba1c375d121d924a5a061efb9edb2ada9449",
    "poly jet --system system_planted_cp1.json --n 2":
        "0fc891c3b7c1b34ae60dab2d4736b43d0f3d4a69fd248eabfda4eccc1ee8d7d3",
    "poly jet --system system_root_cp1.json --n 2":
        "064de732cdb2848af67895a3c9cd12f247e01aba5b71e84568a89420cd4c42db",
    "stability report --fan affine2.json --degrees 5,7,5,12 --n 2":
        "13cbeeccfc04562b06d32e1bf813268da49c4ec3b78602e8fa53c4b37a76d9e2",
    "stability report --fan bad_line.json --degrees 5,7,5,12 --n 2":
        "6c435c18b142b91b4851050f46af8ebc727b228b839f5921f68e3329d6b391a9",
    "stability report --fan complex_ring.json --degrees 5,7,5,12 --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "stability report --fan cp1.json --degrees 5,7,5,12 --n 2":
        "13cbeeccfc04562b06d32e1bf813268da49c4ec3b78602e8fa53c4b37a76d9e2",
    "stability report --fan cp2.json --degrees 5,7,5,12 --n 2":
        "81b24f171695ea63808812e36691e4e6a969f6f0f6c5f46df78f1b123687542c",
    "stability report --fan cp3.json --degrees 5,7,5,12 --n 2":
        "476c162ffc0f21c4a2a84845423a50114ad31a8db3d4c3325b7585087b92378c",
    "stability report --fan hirzebruch1.json --degrees 5,7,5,12 --n 2":
        "4dd1b387b4d6acde4a69b8e56d15c75937772d7547bd30ba7bc7ee0d5da6d11d",
    "stability report --fan hirzebruch2.json --degrees 5,7,5,12 --n 2":
        "15cd30b908ea59943d4803555abd7402b6e6be02e1dc95451d014ec2ef65f6c6",
    "stability report --fan hirzebruch3.json --degrees 5,7,5,12 --n 2":
        "d2d76db7f170c6d414c881045498fbe136869e000fd4fa380c5799a3143f0d08",
    "stability report --fan system_generic_cp1.json --degrees 5,7,5,12 --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "stability report --fan system_planted_cp1.json --degrees 5,7,5,12 --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "stability report --fan system_root_cp1.json --degrees 5,7,5,12 --n 2":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "stability e1 --fan affine2.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "13cbeeccfc04562b06d32e1bf813268da49c4ec3b78602e8fa53c4b37a76d9e2",
    "stability e1 --fan bad_line.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "6c435c18b142b91b4851050f46af8ebc727b228b839f5921f68e3329d6b391a9",
    "stability e1 --fan complex_ring.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "stability e1 --fan cp1.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "13cbeeccfc04562b06d32e1bf813268da49c4ec3b78602e8fa53c4b37a76d9e2",
    "stability e1 --fan cp2.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "81b24f171695ea63808812e36691e4e6a969f6f0f6c5f46df78f1b123687542c",
    "stability e1 --fan cp3.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "2745682477bed00669fa54b45285dd343eeaff8ed9b90f8c348a04a0d06929b0",
    "stability e1 --fan hirzebruch1.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "4f828e96ee5a01121f960cdfd8ae1c37961cc8c561aa4572be975467c314297f",
    "stability e1 --fan hirzebruch2.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "1c05f34fd2431397f62f033b3fcd98ef579aa3e8390f1182fe891c6f9980b1bb",
    "stability e1 --fan hirzebruch3.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "4aaa9e27043267430bf11ac97a76524bb2fa7d677f7d62f94fb0eaf07fd50e8e",
    "stability e1 --fan system_generic_cp1.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "stability e1 --fan system_planted_cp1.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "stability e1 --fan system_root_cp1.json --degrees 5,7,5,12 --n 2 --s-max 8":
        "81e6b31d52f7d212b5b6f0919aa218348e87bc0df03fc6b1beff6de080503b4c",
    "--version": "761fd90b184a445a07987104035364caba85ae039841f87e81a8ee835eb767b6",
    "--help": "9a0466fdab09b019da1eb19984ef4d28a13910de4240085637ec11da19dba0ec",
    "nope": "e552aa8ccc9fc810c31f59e7c84b49ffbb4f66590b2232d446a6269e39efe57d",
    "fan": "7d90371216227e871dd500daa8cf4b949cc403f4824803bdbeaa119392266271",
    "oracle": "980fb17c188be7426d51afa625270bac7b3a3391deb04b941179b6640dd949ae",
    "fan nope": "b6f35216d17dda15a08e039c18545aeb1e69afa29185b924e7b05247828e5819",
    "oracle nope": "91b30f9df26bd2a7f64e4eff8cf0f269644302a7068febca34d72cab9a46b663",
    "fan --help": "0f487bab0d6464e82351c71da9bd7e2e639c67564506aa9856973356cdb73496",
    "fan analyze --help": "a69ef21e2c0eacce9df76d5451cfa879d434a809339a7b928996eb010198add7",
    "poly stabilize --help": "480533d00fee7d25b401dbdc4d7dc27ad216784c8e132cf41ce8636db1e2b312",
    "stability e1 --help": "7ea7f02ed90890dbc7003a73e3ae3d00823899b1007ebe086ee940292180b441",
    "fan analyze hirzebruch1.json --n 3":
        "847e4df34a604afc0a6be09e6b71c684b23f12cd56a965c8bc689124ed6ce2a8",
    "fan analyze hirzebruch1.json --e1":
        "64b6ac54dbb093e2dc93d63e4482f0077d18ca1fe93c2d0c413b3547e9f14359",
    "fan analyze bad_line.json --n 3":
        "847e4df34a604afc0a6be09e6b71c684b23f12cd56a965c8bc689124ed6ce2a8",
    "fan analyze hirzebruch1.json --degrees 5,7,5,12":
        "1a7ae3fb42b242dabf17af606b52078610b0caacf48494bbdc20c2666cfb5753",
    "fan analyze hirzebruch1.json --degrees 5,7,5,12 --n 1":
        "1ba46afa7afbe3df85a6bc017604b7cff925e7d26fd19188dfb04e0c69af7f30",
    "fan analyze hirzebruch1.json --degrees 5,7":
        "2d1dc81b6ba9b2f439adf1fdc725051f83763ec1cdbbee4bf1aec1784341a9e1",
    "fan analyze hirzebruch1.json --degrees 0,7,5,12":
        "7db40b8f02330cf906faa3fa7c9756c94731e67774db4157fd723be303502ecc",
    "fan analyze hirzebruch1.json --degrees 5,x,5,12":
        "523f697358155a0dc36b2ca87e0704809494e6804626dda003a25a707fc24198",
    "fan analyze bad_line.json --degrees 5,x":
        "6c435c18b142b91b4851050f46af8ebc727b228b839f5921f68e3329d6b391a9",
    "fan analyze hirzebruch1.json --degrees=-1,7,5,12":
        "7db40b8f02330cf906faa3fa7c9756c94731e67774db4157fd723be303502ecc",
    "stability report --fan hirzebruch1.json --degrees 5,7,5,12 --n 1":
        "254eab7e22d3ccded7e9a071b0e9a0ab56bd836fac36ccabf86cc604eaa87da6",
    "stability report --fan hirzebruch1.json --degrees 5,7 --n 2":
        "2d1dc81b6ba9b2f439adf1fdc725051f83763ec1cdbbee4bf1aec1784341a9e1",
    "stability report --fan hirzebruch1.json --degrees 5,7 --n 1":
        "2d1dc81b6ba9b2f439adf1fdc725051f83763ec1cdbbee4bf1aec1784341a9e1",
    "stability report --fan hirzebruch1.json --degrees 0,7,5,12 --n 2":
        "7db40b8f02330cf906faa3fa7c9756c94731e67774db4157fd723be303502ecc",
    "stability report --fan hirzebruch1.json --degrees 0,7,5,12 --n 1":
        "7db40b8f02330cf906faa3fa7c9756c94731e67774db4157fd723be303502ecc",
    "stability report --fan hirzebruch1.json --degrees x --n 2":
        "3d937256ee90534a5c2f519d5c7778a6b43b441dc6819bb9e5f76aaf88e2f523",
    "stability report --fan hirzebruch1.json --degrees=-1,7,5,12 --n 2":
        "7db40b8f02330cf906faa3fa7c9756c94731e67774db4157fd723be303502ecc",
    "stability report --fan affine2.json --degrees 5,7 --n 2":
        "4082b6fe5402b0323928a9cc36532603e5a215941599a2ab2aa9e855b8fd4c2d",
    "stability report --fan hirzebruch1.json --degrees 5,7,5,12":
        "f532a9b87e446964d4e8b701a6246d23fedbbae0eb20a38fe5fe98c3d757fb4c",
    "stability e1 --fan hirzebruch1.json --degrees 5,7,5,12 --n 1":
        "3a55b2ca05ad50e8260c77e247334ba65e7df89106e19667892b06b6abaf914e",
    "stability e1 --fan hirzebruch1.json --degrees 5,7 --n 1":
        "2d1dc81b6ba9b2f439adf1fdc725051f83763ec1cdbbee4bf1aec1784341a9e1",
    "stability e1 --fan hirzebruch1.json --degrees 0,7,5,12 --n 3":
        "7db40b8f02330cf906faa3fa7c9756c94731e67774db4157fd723be303502ecc",
    "stability e1 --fan hirzebruch1.json --degrees 5,7,5,12 --n 2 --table":
        "c1678f6220facb86caf4aff4499e4408d945d6fb087de2516fcaeeab3fbffdc0",
    "stability e1 --fan hirzebruch1.json --degrees 5,7,5,12 --n 2 --s-max 8 --table":
        "219f26979ea4fb2851dc02606dd1ada957275fef074d773002f48b2ce924a490",
    "stability e1 --fan hirzebruch1.json --degrees 5,7,5,12 --n 2 --s-max -1":
        "d4bb3263ba250c681b8a202ed72704c535994d9bf828bb317220cdf1f96203d6",
    "poly stabilize --system system_root_cp1.json --a 1,x":
        "205922e7a31f79a3727756e1bb200297545ec1733e47cec39a5e8058cb98a6b8",
    "poly stabilize --system system_root_cp1.json --a 1":
        "dc72820e3be3e896ace1c4563707da7c6ef2de2f9d84c6f1ef3be0c67d26a549",
    "poly stabilize --system system_root_cp1.json --a 0,0":
        "a9ac99d194e3fbc4ec1733d0f4c722b16a485aaf2fe8eef7f259220aa9b68802",
    "poly stabilize --system system_root_cp1.json --a=-1,1":
        "68807f7b200ba380ea8d6266d9e6c5f105d0f1e8f02a5db796340a98f9212799",
    "poly check --fan cp1.json --n 2":
        "449646cced9a4a0b97c2d7293ff17b6851fc6ca027b098f2f1cd14df4b74f67e",
    "poly check --fan cp1.json --system system_planted_cp1.json --n 1":
        "b999cd970e105bda3daef7c863276126593c9a51fab49f0b5077f9829412122a",
    "poly check --fan cp1.json --system system_generic_cp1.json --n 5":
        "3640768fe7c2c53dcce3721a9b288af49c9402ab33876ab87dabfcaa6e5faf4b",
    "poly jet --system system_generic_cp1.json --n 1":
        "5aca5d9d4e0b71448475f89bd82dc47031d6c05db75d363b757d21f6051173d1",
    "fan power cp1.json": "7cfa04a22dbd7134daaa430e9d1374f3f8d1dd255fe29af7b3ac586e1189a14d",
    "fan power cp1.json --n 1": "91475b02e06b7143e436cd28f9e4d9b9ffe8db06a86cdc7bb3ad624cf36dcbd2",
    "fan power hirzebruch1.json --n 200":
        "9681ad98eadaff1a979726010d47047b8a113b955832589d874d38c9b5930eaf",
    "complex power complex_ring.json --n 1":
        "ff3278653cd3948bcec7cef2570e48184869568b3609e4bd9cc825da25333668",
    "fan validate nope.json": "0dbfe779f4e760aec2961a2fc365f7af485d033aa7cce9dc3a5b9d13078f2e9c",
    "oracle band --bogus": "c8ec1e836801359a48e32b970f1edf8aefbc596f830bc3e12f075dd998f7820c",
    "oracle band --trials 70000": "1eb914d34f4cb0683621c3298f319d457564155d4088e00a751b2261875a63a3",
}
ORACLE_DIGESTS = {
    "vandermonde --trials 3 --seed 4":
        "8d4f2e8a88d58dd7b363ef9c85537fcf9b8bdaed1a27e09c77560a43941d8208",
    "vandermonde --k 2 --n 2 --d 5 --trials 2":
        "4f5bdb4727718bf997a93503cbe59a42e72b42ebfc7c21f722e32b0b78791f4e",
    "vandermonde --k 2": "96e0aaa50b9d782f188e9b828e66384289450253814df71f269d17821f939d29",
    "band --trials 3 --seed 2": "1d230661c86bd06dfd49a5d4415f3b06e02d86c7ddb60dc1d4ccb1604c76c3f1",
    "band": "46e82d8a834e4f9f04745caede6a6a634dbe56c541f271a1b79b28d3583e2a56",
    "complement --trials 5": "8d43d4130d9ca0ba7ea2ed25aa52997b0c880220dba024c4bd7a8b0a28416e52",
    "jetsection --trials 4 --seed 9":
        "13871b6937af65921b842edd47ce6de818795a69f39f79b05e3edc52671a0fd2",
    "jetsection": "f09efe1800af273bfc0cf03ae8e8aee75512f62b35f9fb6d49b4f5903eabf39e",
    "complement": "fc6da64b8064b7df18af4537ae3b5df1fff693715067a4794481d6fd081dfd0a",
    "vandermonde --trials 2 --seed 1 --k 2 --n 2 --d 3":
        "5836d4f5f26ceb938ff9f1200fe06169c999b72b183f1dc9c9ff76ba5db3fadd",
}


def _pinned_digest(argv, fixtures_dir, capsys, monkeypatch):
    monkeypatch.chdir(fixtures_dir.parent)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    argv = [f"fixtures/{a}" if a.endswith(".json") else a for a in argv.split()]
    result = run_cli(argv, capsys)
    return hashlib.sha256(json.dumps(result).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", list(COMMAND_DIGESTS))
def test_command_output_is_pinned(argv, fixtures_dir, capsys, monkeypatch):
    assert _pinned_digest(argv, fixtures_dir, capsys, monkeypatch) == COMMAND_DIGESTS[argv]


@pytest.mark.parametrize("argv", list(ORACLE_DIGESTS))
def test_oracle_output_is_pinned(argv, fixtures_dir, capsys, monkeypatch):
    digest = _pinned_digest("oracle " + argv, fixtures_dir, capsys, monkeypatch)
    assert digest == ORACLE_DIGESTS[argv]


class TestStabilityCommands:
    def test_report(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["stability", "report", "--fan", str(fixtures_dir / "hirzebruch1.json"),
             "--degrees", "5,7,5,12", "--n", "2"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["stability_dim"] == 8
        assert doc["connectivity"] == 3
        assert doc["degree_null"] is True

    def test_report_n1(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["stability", "report", "--fan", str(fixtures_dir / "hirzebruch1.json"),
             "--degrees", "5,7,5,12", "--n", "1"],
            capsys,
        )
        doc = json.loads(out)
        assert doc["stability_dim"] == 3 and doc["kind"] == "homology"

    def test_report_wrong_degree_count_exits_4(self, fixtures_dir, capsys):
        code, _, _ = run_cli(
            ["stability", "report", "--fan", str(fixtures_dir / "hirzebruch1.json"),
             "--degrees", "5,7", "--n", "2"],
            capsys,
        )
        assert code == 4

    def test_e1_table_only(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["stability", "e1", "--fan", str(fixtures_dir / "hirzebruch1.json"),
             "--degrees", "5,7,5,12", "--n", "2", "--s-max", "8", "--table"],
            capsys,
        )
        assert code == 0
        assert out.startswith("s\\k") and "legend" in out

    def test_e1_grid_and_table(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            ["stability", "e1", "--fan", str(fixtures_dir / "hirzebruch1.json"),
             "--degrees", "5,7,5,12", "--n", "2", "--s-max", "13"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        cells = {(c["k"], c["s"]): c["status"] for c in doc["cells"]}
        assert cells[(1, 5)] == "zero"
        assert cells[(1, 6)] == "possibly_nonzero"
        assert cells[(3, 12)] == "tail_unknown"
        assert "legend" in doc["table"]


@pytest.mark.parametrize(
    "argv",
    [
        ["fan", "analyze", H1, "--degrees", "5,7,5,12", "--n", "0"],
        ["fan", "power", H1, "--n", "0"],
        ["complex", "power", H1, "--n", "-1"],
        ["poly", "check", "--fan", H1, "--system", "fixtures/system_planted_cp1.json", "--n", "0"],
        ["poly", "jet", "--system", "fixtures/system_generic_cp1.json", "--n", "0"],
        ["oracle", "vandermonde", "--trials", "0", "--k", "2", "--n", "1", "--d", "3"],
        ["oracle", "vandermonde", "--k", "0", "--n", "1", "--d", "3"],
        ["oracle", "vandermonde", "--k", "2", "--n", "0", "--d", "3"],
        ["oracle", "vandermonde", "--k", "2", "--n", "1", "--d", "0"],
        ["oracle", "band", "--trials", "two"],
        ["stability", "report", "--fan", H1, "--degrees", "5,7,5,12", "--n", "0"],
        ["stability", "e1", "--fan", H1, "--degrees", "5,7,5,12", "--n", "0"],
    ],
    ids=lambda argv: " ".join(argv[:2] + [argv[argv.index(bad) - 1] for bad in ("0", "-1", "two")
                                          if bad in argv]),
)
def test_non_positive_counts_exit_parse_error(argv, capsys, fixtures_dir, monkeypatch):
    monkeypatch.chdir(fixtures_dir.parent)
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_PARSE
    assert out == ""
    assert "expected a positive integer" in err


@pytest.mark.parametrize("argv,message", [
    (["poly", "stabilize", "--system", "fixtures/system_root_cp1.json", "--a", "-1,1"],
     "shift entries must be >= 0"),
    (["fan", "analyze", H1, "--degrees", "-1,7,5,12"], "all degrees must be >= 1"),
    (["stability", "report", "--fan", H1, "--degrees", "-1,7,5,12", "--n", "2"],
     "all degrees must be >= 1"),
    (["stability", "e1", "--fan", H1, "--degrees", "-1,7,5,12", "--n", "2"],
     "all degrees must be >= 1"),
], ids=["poly stabilize", "fan analyze", "stability report", "stability e1"])
def test_integer_list_starting_negative_is_a_value(argv, message, capsys, fixtures_dir,
                                                  monkeypatch):
    # argparse once read -1,1 as an option and exited 2 with "expected one argument"
    monkeypatch.chdir(fixtures_dir.parent)
    code, out, err = run_cli(argv, capsys)
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == message


def test_parser_reads_integer_lists_through_argparse_private_matcher():
    # _Parser replaces the private pattern that argparse's _parse_optional
    # tests before it reads an argument starting with "-" as an option; an
    # argparse that renames it, or reads it elsewhere, fails here
    assert "self._negative_number_matcher.match(" in inspect.getsource(
        argparse.ArgumentParser._parse_optional)
    matcher = cli._Parser()._negative_number_matcher
    assert all(matcher.match(text) for text in ("-1", "-.5", "-2.5", "-1,1", "-1,7,5,12", "-1,-2"))
    assert not any(matcher.match(text) for text in ("-1,", "-1,x", "-a", "--a", "-1.5,2"))


def test_negative_s_max_exits_parse_error(capsys, fixtures_dir, monkeypatch):
    monkeypatch.chdir(fixtures_dir.parent)
    argv = ["stability", "e1", "--fan", H1, "--degrees", "5,7,5,12", "--n", "2", "--s-max", "-1"]
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_PARSE
    assert out == ""
    assert "expected a non-negative integer" in err


def test_oracle_without_trials_is_vacuous():
    for result in (run_vandermonde(5, trials=0), run_band(5, trials=0)):
        doc = result.to_dict()
        assert not result.ok and doc["ok"] is False and doc["vacuous"] is True
    assert "vacuous" not in run_vandermonde(5, trials=1, k=2, n=1, d=3).to_dict()


def test_vandermonde_point_pool_counts_the_distinct_fractions():
    pool = {Fraction(p, q) for p in range(-50, 51) for q in range(1, 51)}
    assert oracles.POINT_POOL == len(pool)


@pytest.mark.parametrize("shape", [
    ["--k", "3100", "--n", "1", "--d", "3100"],  # more points than the pool holds
    ["--k", "200", "--n", "1", "--d", "200"],  # 40,000 cells in the regime
    ["--k", "300", "--n", "1", "--d", "120"],  # 36,000 cells below it (d < n*k)
    ["--k", "2", "--n", "1", "--d", "1025"],  # a degree past its cap
], ids=lambda shape: "x".join(shape[1::2]))
def test_vandermonde_over_cap_exits_5_quickly(shape):
    # a fresh process with a timeout, since the uncapped point draw never ends
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parent.parent)}
    argv = [sys.executable, "-m", "toricstab.cli", "oracle", "vandermonde", "--trials", "1"]
    start = time.perf_counter()
    proc = subprocess.run(argv + shape, env=env, capture_output=True, text=True, timeout=20)
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 5 and proc.stdout == ""
    assert "capped" in json.loads(proc.stderr)["error"]


def test_vandermonde_partly_fixed_shapes_run():
    # a fixed k or n draws d from [n*k, max(n*k, 30)], never an empty range
    assert run_vandermonde(3, trials=4, k=10).ok
    assert run_vandermonde(3, trials=4, n=9).ok


def test_vandermonde_fails_a_rank_the_full_matrix_contradicts(monkeypatch):
    # verify_rank_claim reads only the leading square block in the regime;
    # the oracle ranks the whole stacked matrix and records both ranks
    assert run_vandermonde(4, trials=3, k=3, n=2, d=10).ok
    monkeypatch.setattr(oracles, "rank", lambda rows: len(rows) - 1)
    result = run_vandermonde(4, trials=3, k=3, n=2, d=10)
    assert result.passed == 0 and len(result.failures) == 3
    assert all(f["detail"]["rank"] == 6 and f["detail"]["full_rank"] == 5 and f["detail"]["dim"] == 4
               for f in result.failures)


def test_vandermonde_trial_in_regime_ranks_the_block_and_the_full_matrix(monkeypatch):
    # hermite_dimension answers in closed form, so a trial eliminates the
    # square block (verify_rank_claim) and the full matrix (the oracle) once
    shapes = []

    def recording_rank(rows):
        shapes.append((len(rows), len(rows[0])))
        return exactla.rank(rows)

    monkeypatch.setattr(hermite, "rank", recording_rank)
    monkeypatch.setattr(oracles, "rank", recording_rank)
    assert run_vandermonde(4, trials=1, k=3, n=2, d=10).ok
    assert shapes == [(6, 6), (6, 10)]


def test_vandermonde_below_regime_under_the_cap_is_fast():
    # 128 x 64 stacked rows: Bareiss on [A | b] took 36 s a trial, two ranks
    # modulo P take well under a second
    start = time.perf_counter()
    result = run_vandermonde(1, trials=1, k=32, n=4, d=64)
    assert time.perf_counter() - start < 5.0
    assert result.failures[0]["detail"]["dim"] is None


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "toricstab.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "toricctl" in proc.stdout


def test_cross_process_determinism(fixtures_dir):
    argv = [sys.executable, "-m", "toricstab.cli", "fan", "analyze",
            str(fixtures_dir / "hirzebruch1.json"), "--degrees", "5,7,5,12", "--e1"]
    first = subprocess.run(argv, capture_output=True, text=True)
    second = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# a valid fan whose third ray lies in no cone, and one whose third ray runs
# through the interior of its only cone
STRAY_RAY = {"dim": 2, "rays": [[1, 0], [0, 1], [1, 1]], "max_cones": [[0, 1]]}
INTERIOR_RAY = {"dim": 2, "rays": [[1, 0], [0, 1], [1, 1]], "max_cones": [[0, 1, 2]]}
SQUARE_CONE = {"dim": 3, "rays": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]],
               "max_cones": [[0, 1, 2, 3]]}


def _write_fan_and_system(tmp_path, doc):
    """Write a fan document and a coefficient-form system with one linear
    polynomial per ray; return both paths."""
    fan_path = tmp_path / "fan.json"
    fan_path.write_text(json.dumps(doc))
    rays = doc.get("rays")
    count = len(rays) if isinstance(rays, list) and rays else 2
    system = {"degrees": [1] * count,
              "polys": [[[str(k + 1), "0"], ["1", "0"]] for k in range(count)]}
    system_path = tmp_path / "system.json"
    system_path.write_text(json.dumps(system))
    return str(fan_path), str(system_path), ",".join("2" * count)


def _fan_reading_commands(fan, system, degrees):
    return {
        "fan analyze": ["fan", "analyze", fan],
        "fan validate": ["fan", "validate", fan],
        "fan power": ["fan", "power", fan, "--n", "2"],
        "complex primitives": ["complex", "primitives", fan],
        "complex power": ["complex", "power", fan, "--n", "2"],
        "stability report": ["stability", "report", "--fan", fan, "--degrees", degrees, "--n", "2"],
        "stability e1": ["stability", "e1", "--fan", fan, "--degrees", degrees, "--n", "2"],
        "poly check": ["poly", "check", "--fan", fan, "--system", system, "--n", "1"],
    }


@pytest.mark.parametrize(
    "command", ["fan analyze", "fan power", "poly check", "stability report", "stability e1"]
)
def test_ray_in_no_cone_exits_invalid_fan(command, tmp_path, capsys):
    # K_Sigma is read only on fans whose rays all span cones, each of them
    # simplicial: a stray ray and a non-simplicial cone both exit 3
    cases = [(STRAY_RAY, "ray 2 spans no cone of the fan"),
             (INTERIOR_RAY, "cone [0, 1, 2] is not simplicial"),
             (SQUARE_CONE, "cone [0, 1, 2, 3] is not simplicial")]
    for source, message in cases:
        fan, system, degrees = _write_fan_and_system(tmp_path, source)
        code, out, err = run_cli(_fan_reading_commands(fan, system, degrees)[command], capsys)
        assert code == 3 and out == ""
        doc = json.loads(err)
        assert doc["tool"] == "toricctl" and doc["error"] == message


@pytest.mark.parametrize("source", [INTERIOR_RAY, SQUARE_CONE])
def test_non_simplicial_fan_validates_and_has_a_complex(source, tmp_path, capsys):
    # one strongly convex cone is a valid fan, and its rays form one facet
    fan, system, degrees = _write_fan_and_system(tmp_path, source)
    commands = _fan_reading_commands(fan, system, degrees)
    code, out, _ = run_cli(commands["fan validate"], capsys)
    assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run_cli(commands["complex primitives"], capsys)
    assert code == 0 and json.loads(out)["primitive_collections"] == []


def test_generic_poly_check_needs_no_dualization(tmp_path, capsys, monkeypatch):
    # a generic system is decided by face tests alone: with every dualization
    # step capped at 0 sets, poly check still answers on a 10-gon (it exited
    # 5 when every call dualized K_Sigma), and a planted system still exits 5
    monkeypatch.setattr(complexes, "DUALIZATION_CAP", 0)
    rays = [[1, 0], [2, 1], [1, 1], [1, 2], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1]]
    fan = tmp_path / "10gon.json"
    fan.write_text(json.dumps({"dim": 2, "rays": rays, "max_cones": [[k, (k + 1) % 10] for k in range(10)]}))
    generic = tmp_path / "generic.json"
    generic.write_text(json.dumps({"roots": [[[k, 0, 1], [k, 1, 1]] for k in range(10)]}))
    planted = tmp_path / "planted.json"
    planted.write_text(json.dumps({"roots": [[[0, 3, 2]]] * 10}))
    check = ["poly", "check", "--fan", str(fan), "--n", "2", "--system"]
    code, out, _ = run_cli(check + [str(generic)], capsys)
    assert code == 0 and json.loads(out)["member"] is True
    code, _, _ = run_cli(check + [str(planted)], capsys)
    assert code == 5


_SWEEP_DOCS = sorted(p.name for p in (pathlib.Path(__file__).parent.parent / "fixtures").glob("*.json"))
_SWEEP_DOCS += ["stray-ray", "interior-ray"]


@pytest.mark.parametrize("command", sorted(_fan_reading_commands("F", "S", "D")))
@pytest.mark.parametrize("source", _SWEEP_DOCS)
def test_fan_reading_commands_never_trace_back(source, command, fixtures_dir, tmp_path, capsys):
    if source in ("stray-ray", "interior-ray"):
        doc = STRAY_RAY if source == "stray-ray" else INTERIOR_RAY
    else:
        doc = json.loads((fixtures_dir / source).read_text())
    fan, system, degrees = _write_fan_and_system(tmp_path, doc)
    code, _, err = run_cli(_fan_reading_commands(fan, system, degrees)[command], capsys)
    assert code in range(6)
    assert "Traceback" not in err
    if err:
        assert json.loads(err)["tool"] == "toricctl"


def test_fan_power_rejects_json_booleans(tmp_path, capsys):
    # true is not the integer 1 in a fan document
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"dim": True, "rays": [[True], [-1]], "max_cones": [[0], [True]]}))
    code, out, err = run_cli(["fan", "power", str(path), "--n", "1"], capsys)
    assert code == EXIT_PARSE and out == ""
    assert json.loads(err)["pointer"] == "/dim"


# system documents that fail the typed checks of system_from_json, with the
# command that reads them and the JSON pointer of the fault; NaN and Infinity
# are written as json.dump writes them, which json.load reads back
_BAD_SYSTEMS = {
    "multiplicity 0": ({"roots": [[[0.0, 0.0, 0]], [[1.0, 0.0, 1]]]}, "stabilize", "/roots/0/0"),
    "multiplicity 1.5": ({"roots": [[[0.0, 0.0, 1]], [[1.0, 0.0, 1.5]]]}, "stabilize", "/roots/1/0"),
    "multiplicity true": ({"roots": [[[0.0, 0.0, 1], [2.0, 0.0, True]]]}, "stabilize", "/roots/0/1"),
    "string degree": ({"degrees": ["1"], "polys": [[["0", "0"], ["1", "0"]]]}, "jet", "/degrees/0"),
    "zero degree": ({"degrees": [1, 0], "polys": [[["0", "0"], ["1", "0"]], [["1", "0"]]]},
                    "jet", "/degrees/1"),
    "NaN coordinate": ({"roots": [[[float("nan"), 0.0, 1]]]}, "stabilize", "/roots/0/0"),
    "Infinity coordinate": ({"roots": [[[0.0, float("inf"), 1]]]}, "stabilize", "/roots/0/0"),
    "boolean coordinate": ({"roots": [[[True, False, 1]], [[1.0, 0.0, 1]]]}, "stabilize",
                           "/roots/0/0"),
    # a coefficient is a [re, im] array: not an object with two keys, and
    # not a two-character string read as ("1", "2")
    "object coefficient": ({"degrees": [1, 1], "polys": [[["0", "0"], ["1", "0"]],
                                                         [{"a": 1, "b": 2}, ["1", "0"]]]},
                           "jet", "/polys/1"),
    "string coefficient": ({"degrees": [1], "polys": [["12", ["1", "0"]]]}, "jet", "/polys/0"),
}


@pytest.mark.parametrize("probe", sorted(_BAD_SYSTEMS))
def test_bad_system_document_exits_parse_error(probe, tmp_path, capsys):
    doc, command, pointer = _BAD_SYSTEMS[probe]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    argv = ["poly", command, "--system", str(path)]
    argv += ["--a", "1"] if command == "stabilize" else ["--n", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_PARSE and out == ""
    assert "Traceback" not in err
    envelope = json.loads(err)
    assert envelope["tool"] == "toricctl" and envelope["pointer"] == pointer


# complex documents that fail the typed checks of SimplicialComplex.from_json,
# with the JSON pointer of the fault
_BAD_COMPLEXES = {
    "float vertex": ({"vertices": 3, "max_faces": [[1.0, 2]]}, "/max_faces/0/0"),
    "boolean vertex": ({"vertices": 3, "max_faces": [[True, 2]]}, "/max_faces/0/0"),
    "boolean vertex count": ({"vertices": True, "max_faces": [[0]]}, "/vertices"),
    "float vertex count": ({"vertices": 2.5, "max_faces": [[0, 1]]}, "/vertices"),
    "string vertex count": ({"vertices": "3", "max_faces": [[0, 2]]}, "/vertices"),
}


@pytest.mark.parametrize("command", ["primitives", "power"])
@pytest.mark.parametrize("probe", sorted(_BAD_COMPLEXES))
def test_bad_complex_document_exits_parse_error(probe, command, tmp_path, capsys):
    doc, pointer = _BAD_COMPLEXES[probe]
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(doc))
    argv = ["complex", command, str(path)] + (["--n", "2"] if command == "power" else [])
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_PARSE and out == ""
    envelope = json.loads(err)
    assert envelope["tool"] == "toricctl" and envelope["pointer"] == pointer


def test_complex_vertex_count_is_capped(tmp_path, capsys):
    # at r = 10^30 the power complex's facet count n^(r - |F|) does not
    # finish, and 1 << r overflows in the dualization
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"vertices": 10 ** 30, "max_faces": [[0]]}))
    for argv in (["complex", "primitives", str(path)], ["complex", "power", str(path), "--n", "2"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 5 and out == ""
        assert "capped at 65536 vertices" in json.loads(err)["error"]


@pytest.mark.parametrize("coefficient", ["1e400000", "1e999999999"])
def test_exponent_beyond_printable_digits_exits_parse_error(coefficient, fixtures_dir, tmp_path,
                                                            capsys):
    # read as an exact rational this is a 400001- or 10^9-digit integer
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"degrees": [1, 1], "polys": [[["0", "0"], ["1", "0"]],
                                                             [[coefficient, "0"], ["1", "0"]]]}))
    argv = ["poly", "check", "--fan", str(fixtures_dir / "cp1.json"), "--n", "1",
            "--system", str(path)]
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_PARSE and out == ""
    assert "Traceback" not in err
    envelope = json.loads(err)
    assert envelope["tool"] == "toricctl" and envelope["pointer"] == "/polys/1"


def test_jet_beyond_printable_digits_exits_cap(tmp_path, capsys):
    # each coefficient parses, but the derivative doubles N to 4301 digits
    big = "9" * 4300
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"degrees": [2, 2], "polys": [
        [["0", "0"], [big, "0"], ["1", "0"]], [["1", "0"], [big, "0"], ["1", "0"]]]}))
    code, out, err = run_cli(["poly", "jet", "--system", str(path), "--n", "2"], capsys)
    assert code == 5 and out == ""
    assert "Traceback" not in err
    envelope = json.loads(err)
    assert envelope["tool"] == "toricctl" and "4300" in envelope["error"]
    # the same system prints at n = 1, where no coefficient grows
    code, out, _ = run_cli(["poly", "jet", "--system", str(path), "--n", "1"], capsys)
    assert code == 0 and json.loads(out)["jets"][0][0][1] == [big, "0"]


def test_stabilize_far_left_root_stays_exact(tmp_path, capsys):
    # the stabilization map is the identity left of N - 1, however far left
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"roots": [[[0.0, 0.0, 1]], [[-800.0, 0.0, 1]]]}))
    code, out, err = run_cli(["poly", "stabilize", "--system", str(path), "--a", "1,0"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["system"]["roots"][1] == [["-800", "0", 1]]


def test_roots_beyond_printing_exit_cap(fixtures_dir, tmp_path, capsys):
    # a 4300-digit root parses, but its image under the stabilization map
    # has more digits than Python prints; a common root of 10^400, beyond
    # float range, prints as its exact digits
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"roots": [[["9" * 4300, 0, 1]], [[0, 0, 1]]]}))
    code, out, err = run_cli(["poly", "stabilize", "--system", str(path), "--a", "1,0"], capsys)
    assert code == 5 and out == "" and "4300" in json.loads(err)["error"]
    path.write_text(json.dumps({"roots": [[["1e400", 0, 2]], [["1e400", 0, 2]]]}))
    code, out, err = run_cli(["poly", "check", "--fan", str(fixtures_dir / "cp1.json"),
                              "--system", str(path), "--n", "2"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["witness"]["common_root"] == ["1" + "0" * 400, "0"]


def test_stabilize_unprintable_root_exits_5(tmp_path, capsys):
    # the library raises the cap when it prints the moved root
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"roots": [[["9" * 4300, 0, 1]], [[0, 0, 1]]]}))
    code, out, err = run_cli(["poly", "stabilize", "--system", str(path), "--a", "1,0"], capsys)
    assert code == 5 and out == ""
    assert json.loads(err)["error"] == "a value has more than 4300 digits to print"


@pytest.mark.parametrize("system,shifts,message", [
    ("system_generic_cp1.json", "1,1", "stabilize needs a root-form system"),
    ("system_root_cp1.json", "1", "shift vector must have length 2"),
    ("system_root_cp1.json", "1,-1", "shift entries must be >= 0"),
    ("system_root_cp1.json", "0,0", "shift vector must be nonzero"),
])
def test_stabilize_shape_and_form_errors_exit_4(system, shifts, message, fixtures_dir, capsys):
    argv = ["poly", "stabilize", "--system", str(fixtures_dir / system), "--a", shifts]
    code, out, err = run_cli(argv, capsys)
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == message


def test_defect_in_stabilize_exits_internal(fixtures_dir, capsys, monkeypatch):
    # only a typed error names an exit code: a bare ValueError is a defect
    def broken(system, shifts):
        raise ValueError("injected defect")

    monkeypatch.setattr(polynomials, "stabilize", broken)
    argv = ["poly", "stabilize", "--system", str(fixtures_dir / "system_root_cp1.json"), "--a", "1,1"]
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_INTERNAL and out == ""
    assert json.loads(err)["exception"] == "ValueError"


@pytest.mark.parametrize("text", ["1" * 4301, "[" * 100_000], ids=["long int", "deep nesting"])
@pytest.mark.parametrize("kind", ["fan", "system", "complex"])
def test_unreadable_json_exits_parse_error(kind, text, fixtures_dir, tmp_path, capsys):
    # json.load raises ValueError past 4300 digits and RecursionError past
    # the interpreter's depth; json.dumps cannot write such an int
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    argv = {"fan": ["fan", "validate", str(path)],
            "system": ["poly", "check", "--fan", str(fixtures_dir / "cp1.json"), "--system",
                       str(path), "--n", "2"],
            "complex": ["complex", "primitives", str(path)]}[kind]
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_PARSE and out == ""
    envelope = json.loads(err)
    assert envelope["tool"] == "toricctl" and str(path) in envelope["error"]


def test_check_stray_ray_fan_before_system_size(tmp_path, capsys):
    # is_member reads K_Sigma before it compares the polynomial count
    fan, system, _ = _write_fan_and_system(tmp_path, STRAY_RAY)
    (tmp_path / "system.json").write_text(json.dumps({"roots": [[[0, 0, 1]]]}))
    code, out, err = run_cli(["poly", "check", "--fan", fan, "--system", system, "--n", "2"],
                             capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ray 2 spans no cone of the fan"


@pytest.mark.parametrize("suite", ["band", "complement", "jetsection"])
def test_oracle_run_over_cap_exits_5_quickly(suite, capsys, monkeypatch):
    start = time.perf_counter()
    code, out, err = run_cli(["oracle", suite, "--trials", str(oracles.ORACLE_TRIAL_CAP + 1)],
                             capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 5 and out == ""
    assert "capped at 65536" in json.loads(err)["error"]
    # the cap itself runs
    monkeypatch.setattr(oracles, "ORACLE_TRIAL_CAP", 2)
    code, out, _ = run_cli(["oracle", suite, "--trials", "2"], capsys)
    assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize("degree", [6, 12])
def test_stabilized_member_stays_member_at_every_depth(degree, fixtures_dir, tmp_path, capsys):
    # roots 0, ..., d - 1 and -1 + i, ..., -d + i on cp(1): the anchors the
    # shifts append to the two polynomials stay distinct at every depth
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"roots": [[[k, 0, 1] for k in range(degree)],
                                          [[-k, 1, 1] for k in range(1, degree + 1)]]}))
    check = ["poly", "check", "--fan", str(fixtures_dir / "cp1.json"), "--n", "2",
             "--system", str(path)]
    for shift in ("2,2", "1,1", "1,1"):
        code, out, _ = run_cli(check, capsys)
        assert code == 0 and json.loads(out)["member"]
        code, out, _ = run_cli(["poly", "stabilize", "--system", str(path), "--a", shift], capsys)
        assert code == 0
        path.write_text(json.dumps(json.loads(out)["system"]))
    code, out, _ = run_cli(check, capsys)
    assert code == 0 and json.loads(out)["member"]


def test_vandermonde_run_over_cap_exits_5_before_a_trial(monkeypatch, capsys):
    # each trial passes the per-trial caps, but 500 of them would take
    # about 3 s each
    def trial(*_):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(oracles, "verify_rank_claim", trial)
    code, out, err = run_cli(["oracle", "vandermonde", "--k", "256", "--n", "1", "--d", "128"],
                             capsys)
    assert code == 5 and out == ""
    assert "capped" in json.loads(err)["error"]
    monkeypatch.undo()
    # the benchmark's fixed shape stays under the run cap, as acceptance 3's
    # default run does
    assert run_vandermonde(0, trials=6, k=4, n=3, d=24).ok


@pytest.mark.parametrize(
    "argv",
    [
        ["stability", "e1", "--fan", H1, "--degrees", "5,7,5,12", "--n", "2", "--s-max", "16384"],
        ["stability", "e1", "--fan", H1, "--degrees", "5,7,5,12", "--n", "2", "--s-max", "16384",
         "--table"],
        ["fan", "analyze", H1, "--degrees", "600,600,600,1200", "--e1"],
    ],
    ids=["e1", "e1 table", "fan analyze"],
)
def test_e1_window_over_cap_exits_5_quickly(argv, capsys, fixtures_dir, monkeypatch):
    # d' = 2 and s_max = 16384 give 65,540 cells; degrees of 600 give 456,322
    monkeypatch.chdir(fixtures_dir.parent)
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 5 and out == ""
    envelope = json.loads(err)
    assert envelope["tool"] == "toricctl" and "capped at 65536 cells" in envelope["error"]


def test_e1_window_at_cap_prints(capsys, fixtures_dir, monkeypatch):
    monkeypatch.chdir(fixtures_dir.parent)
    argv = ["stability", "e1", "--fan", H1, "--degrees", "5,7,5,12", "--n", "2", "--s-max", "16383",
            "--table"]
    code, out, _ = run_cli(argv, capsys)
    # a header, one row per s in [0, 16383], a legend
    assert code == 0 and len(out.splitlines()) == 16384 + 2


def test_jet_above_coefficient_cap_exits_5_quickly(fixtures_dir, capsys):
    # degree 2: n = 21846 asks for 65,538 coefficients per polynomial
    argv = ["poly", "jet", "--system", str(fixtures_dir / "system_planted_cp1.json")]
    start = time.perf_counter()
    code, out, err = run_cli(argv + ["--n", "21846"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 5 and out == ""
    envelope = json.loads(err)
    assert envelope["tool"] == "toricctl" and "capped at 65536 coefficients" in envelope["error"]
    code, out, _ = run_cli(argv + ["--n", "21845"], capsys)
    assert code == 0 and len(json.loads(out)["jets"][0]) == 21845


def _missing_triples_document(tmp_path, k):
    """A complex on [3k] whose facets each miss one of k disjoint triples; its
    3^k minimal non-faces pick one vertex from each triple."""
    facets = [[v for v in range(3 * k) if v // 3 != i] for i in range(k)]
    path = tmp_path / f"triples{k}.json"
    path.write_text(json.dumps({"vertices": 3 * k, "max_faces": facets}))
    return str(path)


def test_dualization_above_cap_exits_5_quickly(tmp_path, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["complex", "primitives", _missing_triples_document(tmp_path, 11)],
                             capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 5 and out == ""
    envelope = json.loads(err)
    assert envelope["tool"] == "toricctl" and "dualization capped at 65536" in envelope["error"]
    code, out, _ = run_cli(["complex", "primitives", _missing_triples_document(tmp_path, 10)],
                           capsys)
    assert code == 0 and len(json.loads(out)["primitive_collections"]) == 3 ** 10


def test_simplex_iteration_cap_exits_5(fixtures_dir, capsys, monkeypatch):
    monkeypatch.setattr(exactla, "SIMPLEX_MAX_ITER", 0)
    code, out, err = run_cli(["fan", "analyze", str(fixtures_dir / "hirzebruch1.json")], capsys)
    assert code == 5 and out == ""
    assert json.loads(err)["error"] == "the simplex is capped at 0 pivots"


def test_unbounded_simplex_exits_internal(fixtures_dir, capsys, monkeypatch):
    # Bland's phase one is never unbounded, so reaching it is a defect
    def unbounded(a_rows, b):
        raise exactla.SimplexError("phase-one objective unbounded")

    monkeypatch.setattr(fans, "lp_feasible", unbounded)
    code, out, err = run_cli(["fan", "analyze", str(fixtures_dir / "hirzebruch1.json")], capsys)
    assert code == EXIT_INTERNAL and out == ""
    assert json.loads(err)["exception"] == "SimplexError"


def test_unexpected_exception_exits_internal_with_envelope(fixtures_dir, capsys, monkeypatch):
    def broken(fan):
        raise RuntimeError("injected defect")

    # the command looks validate_fan up in fans when it runs
    monkeypatch.setattr(fans, "validate_fan", broken)
    code, out, err = run_cli(["fan", "validate", str(fixtures_dir / "cp1.json")], capsys)
    assert code == EXIT_INTERNAL == 6 and out == ""
    assert "Traceback" not in err
    envelope = json.loads(err)
    assert envelope["tool"] == "toricctl" and envelope["exception"] == "RuntimeError"
    assert "injected defect" in envelope["error"]


def test_analyze_with_e1_dualizes_at_most_three_times(fixtures_dir, capsys, monkeypatch):
    calls = []
    dualize = complexes.minimal_non_faces

    def counted(complex_):
        calls.append(complex_)
        return dualize(complex_)

    monkeypatch.setattr(complexes, "minimal_non_faces", counted)
    argv = ["fan", "analyze", str(fixtures_dir / "hirzebruch1.json"),
            "--degrees", "5,7,5,12", "--e1"]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(calls) <= 3


# mutation sweep: fixture documents with one to three nodes replaced, deleted
# or (array elements) duplicated, through every command that reads them
_FAN_FIXTURES = sorted(p.name for p in (pathlib.Path(__file__).parent.parent / "fixtures")
                       .glob("*.json") if not p.name.startswith(("system_", "complex_")))
_SYSTEM_FIXTURES = sorted(p.name for p in (pathlib.Path(__file__).parent.parent / "fixtures")
                          .glob("system_*.json"))
_COMPLEX_FIXTURES = sorted(p.name for p in (pathlib.Path(__file__).parent.parent / "fixtures")
                           .glob("complex_*.json"))
_REPLACEMENTS = [0, -1, 10 ** 30, 1.5, True, None, "", "1/2", float("nan"), [], {}]


def _node_paths(doc, path=()):
    """The key paths of every node below the document root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _node_paths(value, path + (key,))


def _mutate(doc, data):
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        op = data.draw(st.sampled_from(["replace", "delete", "duplicate"]), label="op")
        paths = [p for p in _node_paths(doc)
                 if op != "duplicate" or isinstance(_at(doc, p[:-1]), list)]
        if not paths:
            continue
        path = data.draw(st.sampled_from(paths), label="node")
        parent, key = _at(doc, path[:-1]), path[-1]
        if op == "replace":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(_REPLACEMENTS), label="value"))
        elif op == "delete":
            del parent[key]
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_documents_end_in_a_documented_exit_code(data, fixtures_dir, tmp_path, capsys):
    name = data.draw(st.sampled_from(_FAN_FIXTURES + _SYSTEM_FIXTURES + _COMPLEX_FIXTURES),
                     label="fixture")
    doc = _mutate(json.loads((fixtures_dir / name).read_text()), data)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    if name in _COMPLEX_FIXTURES:
        commands = [["complex", "primitives", str(path)], ["complex", "power", str(path), "--n", "2"]]
    else:
        if name in _SYSTEM_FIXTURES:
            fan, system, degrees = str(fixtures_dir / "cp1.json"), str(path), "2,2"
        else:
            fan, system, degrees = _write_fan_and_system(tmp_path, doc)
        commands = list(_fan_reading_commands(fan, system, degrees).values()) + [
            ["fan", "analyze", fan, "--degrees", degrees, "--e1"],
            ["poly", "jet", "--system", system, "--n", "2"],
            ["poly", "stabilize", "--system", system, "--a", "1,0"],
        ]
    for argv in commands:
        code, _, err = run_cli(argv, capsys)
        assert code in range(6), (argv, doc, err)
        assert "Traceback" not in err
        if err:
            assert json.loads(err)["tool"] == "toricctl"
    # malformed command lines around the document: an unknown flag, a bad
    # int, a missing positional and a missing subcommand
    bad_int = next(argv for argv in commands if argv[-2:] == ["--n", "2"])[:-1] + ["two"]
    for argv, named in [(commands[0] + ["--bogus"], "--bogus"), (bad_int, "--n"),
                        (commands[0][:2], "path"), (commands[0][:1], "command")]:
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_PARSE and out == "", argv
        envelope = json.loads(err)
        assert envelope["tool"] == "toricctl" and named in envelope["error"], (argv, err)
