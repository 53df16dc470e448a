"""Command-line surface: subcommands, file formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import byzfc
from byzfc.cli import main
from byzfc.decoder import config_to_json_dict
from byzfc.probability import philox, sample_iid


def run_python(args):
    """A fresh interpreter that imports this checkout's byzfc."""
    env = dict(os.environ)
    src = str(Path(byzfc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExamples:
    def test_list(self, capsys):
        code, out, _ = run_cli(["examples", "list"], capsys)
        assert code == 0
        names = {e["name"] for e in json.loads(out)}
        assert "example-3-2-erasure" in names

    def test_export_and_reuse(self, tmp_path, capsys):
        code, out, _ = run_cli(["examples", "export", "example-3-2-erasure",
                                "--out", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "example-3-2-erasure.pmf.json").exists()
        assert (tmp_path / "example-3-2-erasure.uvw.json").exists()

    def test_unknown_example_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["examples", "export", "nope", "--out",
                                str(tmp_path)], capsys)
        assert code == 2


class TestCheckViability:
    def test_viable_example(self, capsys):
        code, out, _ = run_cli(["check-viability", "--example",
                                "example-3-2-erasure:uv", "--threshold", "2"], capsys)
        assert code == 0
        assert json.loads(out)["viable"] is True

    def test_nonviable_with_witness(self, tmp_path, capsys):
        code, out, _ = run_cli(["check-viability", "--example",
                                "example-3-2-erasure:uvw", "--threshold", "2",
                                "--out", str(tmp_path)], capsys)
        assert code == 0
        d = json.loads((tmp_path / "viability.json").read_text())
        assert d["viable"] is False
        assert [1, 2] in d["witness"]["collection"]

    def test_float_pmf_rejected_exit_2(self, tmp_path, capsys):
        from byzfc.examples_lib import three_user_erasure_pmf, three_user_erasure_f_uv
        p = three_user_erasure_pmf()
        f = three_user_erasure_f_uv()
        floats = [float(v) for v in p.mass.reshape(-1)]
        (tmp_path / "p.json").write_text(json.dumps({**p.to_json_dict(), "mass": floats,
                                                     "mode": "float"}))
        (tmp_path / "f.json").write_text(json.dumps(f.to_json_dict()))
        code, _, err = run_cli(["check-viability", "--pmf", str(tmp_path / "p.json"),
                                "--function", str(tmp_path / "f.json"),
                                "--threshold", "2"], capsys)
        assert code == 2
        assert "a pmf must be exact" in err

    def test_missing_inputs_exit_2(self, capsys):
        code, _, _ = run_cli(["check-viability", "--threshold", "2"], capsys)
        assert code == 2


class TestBuildG:
    def test_table_emitted(self, capsys):
        code, out, _ = run_cli(["build-g", "--example", "example-3-2-erasure:uv",
                                "--collection", "[[0],[1,2]]"], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["collection"] == [[0], [1, 2]]
        assert len(d["table"]) == 2 * 3 * 3 * 3


class TestDecodeCommand:
    def test_config_then_decode(self, tmp_path, capsys):
        code, _, _ = run_cli(["build-config", "--example", "example-3-2-erasure:uv",
                              "--threshold", "2", "--delta", "0.1",
                              "--out", str(tmp_path)], capsys)
        assert code == 0
        from byzfc.examples_lib import three_user_erasure_pmf
        blk = sample_iid(three_user_erasure_pmf().to_float(), 600, seed=9)
        (tmp_path / "block.json").write_text(json.dumps(blk.to_json_dict()))
        code, out, _ = run_cli(["decode", "--config",
                                str(tmp_path / "decoder_config.json"),
                                "--block", str(tmp_path / "block.json")], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["kind"] == "estimate" and len(d["sequence"]) == 600


class TestMssCommand:
    def test_three_axis_output(self, tmp_path, capsys):
        from byzfc.examples_lib import two_user_copy_pmf
        p = two_user_copy_pmf()
        (tmp_path / "p.json").write_text(json.dumps(p.to_json_dict()))
        code, out, _ = run_cli(["mss", "--pmf", str(tmp_path / "p.json")], capsys)
        assert code == 0
        d = json.loads(out)
        assert "ystar" in d and d["ystar"]["class_count"] >= 2


class TestSimulateAndSweep:
    def scenario_file(self, tmp_path, extra=None):
        d = {"example": "example-3-2-erasure:uv", "n": 500, "trials": 3,
             "delta": 0.1, "gamma": 0.05, "seed": 3, "name": "clitest"}
        if extra:
            d.update(extra)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(d))
        return str(path)

    def test_simulate(self, tmp_path, capsys):
        code, _, _ = run_cli(["simulate", self.scenario_file(tmp_path),
                              "--out", str(tmp_path)], capsys)
        assert code == 0
        rep = json.loads((tmp_path / "clitest.json").read_text())
        assert sum(rep["counts"].values()) == 3
        csv_text = (tmp_path / "clitest.csv").read_text()
        assert len(csv_text.strip().splitlines()) == 4

    def test_simulate_with_attack(self, tmp_path, capsys):
        path = self.scenario_file(tmp_path, {"adversary_set": [1, 2],
                                             "strategy": {"kind": "resample_w"}})
        code, out, _ = run_cli(["simulate", path], capsys)
        assert code == 0

    def test_simulate_with_a_channel_of_strings(self, tmp_path, capsys):
        # a channel, like a pmf, is exact when its mode is absent
        channel = {"input_axes": [[0, 1]], "output_axes": [[0, 1]],
                   "rows": ["9/10", "1/10", "1/10", "9/10"]}
        path = self.scenario_file(tmp_path, {"adversary_set": [0], "strategy": {
            "kind": "memoryless", "channel": channel}})
        code, out, _ = run_cli(["simulate", path], capsys)
        assert code == 0 and sum(json.loads(out)["counts"].values()) == 3

    def test_sweep(self, tmp_path, capsys):
        code, out, _ = run_cli(["sweep", self.scenario_file(tmp_path),
                                "--axis", "n", "--values", "200,400"], capsys)
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 2

    def test_bad_scenario_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"example": "example-3-2-erasure", "n": 0,
                                    "trials": 1}))
        code, _, _ = run_cli(["simulate", str(path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "", ".", "..", 7])
    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--axis", "n",
                                                        "--values", "200"]])
    def test_name_must_be_a_plain_file_name(self, tmp_path, capsys, name, command):
        results = tmp_path / "results"
        results.mkdir()
        path = self.scenario_file(tmp_path, {"name": name})
        code, _, err = run_cli([command[0], path, *command[1:], "--out", str(results)],
                               capsys)
        assert code == 2 and "plain file name" in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["results", "scenario.json"]


class TestEntryPoint:
    def test_module_invocation(self):
        out = run_python(["-m", "byzfc.cli", "examples", "list"])
        assert out.returncode == 0, out.stderr
        assert "example-3-2-erasure" in out.stdout

    def test_screened_decode_never_imports_the_lp_solver(self):
        # the bounds settle every view set of an honest block, so the LP
        # path, and with it scipy.optimize, is never loaded
        script = "\n".join([
            "import sys",
            "from byzfc import AdversaryStructure, build_decoder_config, decode, sample_iid",
            "from byzfc.examples_lib import three_user_erasure_f_uv, three_user_erasure_pmf",
            "p = three_user_erasure_pmf()",
            "cfg = build_decoder_config(p, three_user_erasure_f_uv(),",
            "                           AdversaryStructure.threshold(3, 2), 0.1)",
            "assert decode(cfg, sample_iid(p.to_float(), 5000, seed=1)).kind == 'estimate'",
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))",
        ])
        out = run_python(["-c", script])
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_a_verdict_never_imports_scipy(self):
        # the dual's float step runs on numpy alone: scipy.linalg, and more so
        # scipy.optimize, would double a verdict's memory
        script = "\n".join([
            "import sys",
            "from byzfc import AdversaryStructure, check_viability, viability",
            "from byzfc.examples_lib import random_function, random_pmf",
            "p = random_pmf((2, 2, 2, 2, 2), seed=5, zero_frac=0.3, max_weight=3)",
            "regions = viability.Regions(p)",
            "t42 = AdversaryStructure.threshold(4, 2)",
            "assert check_viability(p, random_function(p, 2, seed=6), t42, regions=regions).viable",
            "assert any(r._route == 'dual' for r in regions.values())",
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
        ])
        out = run_python(["-c", script])
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_ternary_verdicts_build_no_tableau(self):
        # the ternary (3,3,3,3) threshold-2 rungs: every region the bits leave
        # open is a single point, and the dual pins each one, those whose
        # reduced rows have dependent columns included
        script = "\n".join([
            "import sys",
            "from byzfc import (Alphabet, AdversaryStructure, check_viability,",
            "                   constant_function, viability)",
            "from byzfc.examples_lib import random_pmf",
            "def refused(*args, **kwargs):",
            "    raise AssertionError('a tableau was built')",
            "viability.Tableau = refused",
            "for seed in (2, 5):",
            "    p = random_pmf((3, 3, 3, 3), seed=seed, zero_frac=0.3, max_weight=3)",
            "    f = constant_function(p.axes, Alphabet.binary(), 0)",
            "    assert check_viability(p, f, AdversaryStructure.threshold(3, 2)).viable",
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
        ])
        out = run_python(["-c", script])
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_lp_error_maps_to_3(self, monkeypatch, capsys):
        import byzfc.cli as cli
        from byzfc.simplex import LPError

        def boom(args):
            raise LPError("synthetic failure")

        monkeypatch.setitem(cli.__dict__, "cmd_mss", boom)
        parser = cli.build_parser()
        args = parser.parse_args(["mss", "--pmf", "x.json"])
        args.func = boom
        try:
            code = boom(args)
        except LPError:
            code = 3
        assert code == 3
        # and through main()
        monkeypatch.setattr(cli, "_load_json", lambda p: (_ for _ in ()).throw(
            LPError("synthetic")))
        code = cli.main(["mss", "--pmf", "whatever.json"])
        assert code == 3


class TestDecodeCertified:
    def test_flipped_block_decodes_through_the_lp(self, tmp_path, capsys):
        # user 0 flipping its bit leaves view sets to the certified LP; the
        # removed --exact flag is a usage error
        code, _, _ = run_cli(["build-config", "--example", "example-3-2-erasure:uv",
                              "--threshold", "2", "--delta", "0.1",
                              "--out", str(tmp_path)], capsys)
        assert code == 0
        from byzfc.examples_lib import three_user_erasure_pmf
        blk = sample_iid(three_user_erasure_pmf().to_float(), 5000, seed=1)
        bits = blk.user_seqs[0]
        flips = philox(2).random(blk.n) < 0.18
        blk = blk.replace_users({0: np.where(flips, 1 - bits, bits)})
        (tmp_path / "block.json").write_text(json.dumps(blk.to_json_dict()))
        args = ["decode", "--config", str(tmp_path / "decoder_config.json"),
                "--block", str(tmp_path / "block.json")]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert json.loads(out)["kind"] == "estimate"
        with pytest.raises(SystemExit) as exit_:
            run_cli(args + ["--exact"], capsys)
        assert exit_.value.code == 2


class TestSweepCsv:
    def test_per_value_csvs_written(self, tmp_path, capsys):
        d = {"example": "example-3-2-erasure:uv", "n": 300, "trials": 2,
             "seed": 3, "name": "sw"}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(d))
        code, _, _ = run_cli(["sweep", str(path), "--axis", "n",
                              "--values", "200,300", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "sw[n=200].csv").exists()
        assert (tmp_path / "sw[n=300].csv").exists()


class TestMalformedInput:
    SCENARIO = {"example": "example-3-2-erasure:uv", "n": 100, "trials": 1, "seed": 1}

    @pytest.mark.parametrize("case", ["n-null", "top-level-list", "adversary-set-int",
                                      "axes-int", "short-users", "delta-null", "nan-pmf",
                                      "witness-index", "mode-bogus", "exact-over-float",
                                      "delta-nan", "sweep-gamma-nan", "pmf-mode-unknown",
                                      "gtable-codomain", "gtable-axes", "build-g-conflict",
                                      "gtable-table-short", "gtable-defined-string",
                                      "viable-string", "gtable-twice", "n-float", "n-bool",
                                      "seed-float", "radius-bool-string",
                                      "config-delta-string", "witness-scenario-float",
                                      "split-fraction-string", "structure-k-bool",
                                      "function-table-short", "ragged-users",
                                      "pmf-mass-bools", "pmf-mass-strings", "pmf-mass-ragged",
                                      "pmf-exact-bools", "build-g-side-axis",
                                      "build-g-negative-user", "build-g-axis-7",
                                      "block-extra-users", "adversary-set-bools",
                                      "adversary-set-floats", "build-g-bool-user",
                                      "build-g-float-user", "mss-float-pmf",
                                      "pmf-zero-denominator", "channel-zero-denominator",
                                      "nan-channel", "channel-mode-float",
                                      "channel-row-near-one", "pmf-axes-strings",
                                      "pmf-axes-string", "function-table-string",
                                      "function-codomain-string", "block-side-string",
                                      "block-user-row-string", "block-users-string",
                                      "channel-axes-strings", "gtable-collection-foreign",
                                      "config-structure-k-2", "config-structure-k-4",
                                      "config-function-side-axis",
                                      "structure-threshold-and-sets"])
    def test_exits_2_with_one_line(self, case, tmp_path, capsys, erasure_pmf,
                                   erasure_config):
        def put(name, obj):
            path = tmp_path / name
            path.write_text(json.dumps(obj))
            return str(path)

        scenario = self.SCENARIO
        block = sample_iid(erasure_pmf.to_float(), 20, seed=1).to_json_dict()
        config = config_to_json_dict(erasure_config)
        g0 = config["g_tables"][0]

        def memoryless(rows, *mode):
            channel = {"input_axes": [[0, 1]], "output_axes": [[0, 1]], "rows": rows,
                       **{"mode": m for m in mode}}
            return ["simulate", put("s.json", {**scenario, "adversary_set": [0], "strategy": {
                "kind": "memoryless", "channel": channel}})]

        def viability(pmf, function):
            return ["check-viability", "--threshold", "1", "--pmf", put("p.json", pmf),
                    "--function", put("f.json", function)]

        # a JSON string where a list belongs is refused, not read as its characters
        ab_law = {"axes": [[0, 1], ["a", "b"]], "mass": ["1/4"] * 4}
        abba = {"axes": [[0, 1], ["a", "b"]], "codomain": ["a", "b"], "table": list("abba")}

        def decode_with_g0(g):
            return ["decode", "--config", put("c.json", {
                **config, "g_tables": [g, *config["g_tables"][1:]]}),
                    "--block", put("b.json", block)]

        def decode_with_config(**fields):
            # the config carries its verdict, so nothing recomputes it
            return ["decode", "--config", put("c.json", {**config, **fields, "g_tables": []}),
                    "--block", put("b.json", block)]

        args = {
            "n-null": lambda: ["simulate", put("s.json", {**scenario, "n": None})],
            "top-level-list": lambda: ["simulate", put("s.json", [scenario])],
            "adversary-set-int": lambda: ["simulate",
                                          put("s.json", {**scenario, "adversary_set": 5})],
            "axes-int": lambda: ["check-viability", "--threshold", "1",
                                 "--pmf", put("p.json", {"axes": 3, "mass": [1]}),
                                 "--function", put("f.json", {})],
            "short-users": lambda: ["decode", "--config", put("c.json", config),
                                    "--block", put("b.json", {**block,
                                                              "users": block["users"][:2]})],
            "delta-null": lambda: ["decode", "--config", put("c.json", {**config, "delta": None}),
                                   "--block", put("b.json", block)],
            "nan-pmf": lambda: ["mss", "--pmf", put("p.json", {"axes": [[0, 1], [0, 1]],
                                                                "mass": [float("nan"), 1, 0, 0]})],
            "witness-index": lambda: ["simulate", put("s.json", {
                **scenario, "adversary_set": [1, 2],
                "strategy": {"kind": "witness_dmc", "from_example": "example-3-2-erasure:uvw",
                             "scenario": 7}})],
            "mode-bogus": lambda: ["decode", "--config", put("c.json", {**config, "mode": "bogus"}),
                                   "--block", put("b.json", block)],
            "exact-over-float": lambda: ["decode", "--config", put("c.json", {
                **config, "mode": "exact", "pmf": {
                    **config["pmf"], "mode": "float",
                    "mass": [float(v) for v in erasure_pmf.mass.reshape(-1)]}}),
                                         "--block", put("b.json", block)],
            "delta-nan": lambda: ["simulate", put("s.json", {**scenario, "delta": float("nan")})],
            "sweep-gamma-nan": lambda: ["sweep", put("s.json", scenario),
                                        "--axis", "gamma", "--values", "nan"],
            "pmf-mode-unknown": lambda: ["mss", "--pmf", put("p.json", {
                "axes": [[0, 1], [0, 1]], "mass": [0.5, 0, 0, 0.5], "mode": "exakt"})],
            "gtable-codomain": lambda: decode_with_g0({**g0, "codomain": g0["codomain"][::-1]}),
            "gtable-axes": lambda: decode_with_g0(
                {**g0, "axes": [g0["axes"][0][::-1], *g0["axes"][1:]]}),
            "build-g-conflict": lambda: ["build-g", "--example", "example-3-2-erasure:uvw",
                                         "--collection", "[[0],[1,2]]"],
            "gtable-table-short": lambda: decode_with_g0({**g0, "table": g0["table"][:-1]}),
            "gtable-defined-string": lambda: decode_with_g0(
                {**g0, "defined": ["false", *g0["defined"][1:]]}),
            "viable-string": lambda: ["decode", "--config", put("c.json", {
                **config, "viable": "false"}), "--block", put("b.json", block)],
            "gtable-twice": lambda: ["decode", "--config", put("c.json", {
                **config, "g_tables": [*config["g_tables"], g0]}),
                                     "--block", put("b.json", block)],
            "n-float": lambda: ["simulate", put("s.json", {**scenario, "n": 5000.7})],
            "n-bool": lambda: ["simulate", put("s.json", {**scenario, "n": True})],
            "seed-float": lambda: ["simulate", put("s.json", {**scenario, "seed": 1.5})],
            "radius-bool-string": lambda: ["simulate", put("s.json", {
                **scenario, "delta": True, "gamma": "0.5"})],
            "config-delta-string": lambda: ["decode", "--config", put("c.json", {
                **config, "delta": "0.1"}), "--block", put("b.json", block)],
            "witness-scenario-float": lambda: ["simulate", put("s.json", {
                **scenario, "adversary_set": [1, 2],
                "strategy": {"kind": "witness_dmc", "from_example": "example-3-2-erasure:uvw",
                             "scenario": 1.7}})],
            "split-fraction-string": lambda: ["simulate", put("s.json", {
                **scenario, "adversary_set": [1, 2],
                "strategy": {"kind": "block_split", "first": {"kind": "honest"},
                             "second": {"kind": "resample_w"}, "fraction": "0.25"}})],
            "structure-k-bool": lambda: ["check-viability", "--example", "single-user-erasure",
                                         "--structure", put("st.json", {"k": True,
                                                                        "threshold": 1})],
            # the sets would give a viable verdict, the threshold a non-viable one
            "structure-threshold-and-sets": lambda: [
                "check-viability", "--example", "example-3-2-erasure:uvw", "--structure",
                put("st.json", {"k": 3, "threshold": 2, "sets": [[], [0]]})],
            "function-table-short": lambda: ["decode", "--config", put("c.json", {
                **config, "function": {**config["function"],
                                       "table": config["function"]["table"][:-1]}}),
                                             "--block", put("b.json", block)],
            "pmf-mass-bools": lambda: ["mss", "--pmf", put("p.json", {
                "axes": [[0, 1], [0, 1]], "mass": [True, False, False, False]})],
            "pmf-mass-strings": lambda: ["mss", "--pmf", put("p.json", {
                "axes": [[0, 1], [0, 1]], "mass": ["half", "0", "0", "1/2"]})],
            "pmf-mass-ragged": lambda: ["mss", "--pmf", put("p.json", {
                "axes": [[0, 1], [0, 1]], "mass": [[0.5, 0, 0], [0.5]]})],
            "pmf-exact-bools": lambda: ["mss", "--pmf", put("p.json", {
                "axes": [[0, 1], [0, 1]], "mass": [True, False, False, False],
                "mode": "exact"})],
            "ragged-users": lambda: ["decode", "--config", put("c.json", config),
                                     "--block", put("b.json", {**block, "users": [
                                         block["users"][0][:-1], *block["users"][1:]]})],
            "build-g-side-axis": lambda: ["build-g", "--example", "example-3-2-erasure:uv",
                                          "--collection", "[[0],[3]]"],
            "build-g-negative-user": lambda: ["build-g", "--example", "example-3-2-erasure:uv",
                                              "--collection", "[[0],[-1]]"],
            "build-g-axis-7": lambda: ["build-g", "--example", "example-3-2-erasure:uv",
                                       "--collection", "[[0],[7]]"],
            "build-g-bool-user": lambda: ["build-g", "--example", "example-3-2-erasure:uv",
                                          "--collection", "[[0],[true]]"],
            "build-g-float-user": lambda: ["build-g", "--example", "example-3-2-erasure:uv",
                                           "--collection", "[[0],[1.0]]"],
            "block-extra-users": lambda: ["decode", "--config", put("c.json", config),
                                          "--block", put("b.json", {**block, "users": [
                                              *block["users"], block["users"][0]]})],
            "adversary-set-bools": lambda: ["simulate", put("s.json", {
                **scenario, "adversary_set": [True, 2]})],
            "adversary-set-floats": lambda: ["simulate", put("s.json", {
                **scenario, "adversary_set": [1.0, 2.0]})],
            "mss-float-pmf": lambda: ["mss", "--pmf", put("p.json", {
                "axes": [[0, 1], [0, 1], [0, 1]], "mass": [0.5, 0, 0, 0, 0, 0, 0, 0.5],
                "mode": "float"})],
            "pmf-zero-denominator": lambda: ["check-viability", "--threshold", "1",
                                             "--pmf", put("p.json", {"axes": [[0, 1]],
                                                                     "mass": ["1/0", "1"],
                                                                     "mode": "exact"}),
                                             "--function", put("f.json", {})],
            "channel-zero-denominator": lambda: ["simulate", put("s.json", {
                **scenario, "adversary_set": [0], "strategy": {"kind": "memoryless", "channel": {
                    "input_axes": [[0, 1]], "output_axes": [[0, 1]],
                    "rows": ["1/0", "1", "0", "1"], "mode": "exact"}}})],
            "nan-channel": lambda: memoryless([float("nan"), 1, 0, 1]),
            "channel-mode-float": lambda: memoryless([0.9, 0.1, 0.1, 0.9], "float"),
            "channel-row-near-one": lambda: memoryless([0.9, 0.1, 0.1, 0.9000000001]),
            "pmf-axes-strings": lambda: viability({**ab_law, "axes": ["ab", "xy"]},
                                                  {**abba, "axes": [["a", "b"], ["x", "y"]]}),
            "pmf-axes-string": lambda: viability({**ab_law, "axes": "ab"}, abba),
            "function-table-string": lambda: viability(ab_law, {**abba, "table": "abba"}),
            "function-codomain-string": lambda: viability(ab_law, {**abba, "codomain": "ab"}),
            "block-side-string": lambda: ["decode", "--config", put("c.json", config),
                                          "--block", put("b.json", {
                                              **block, "side": "e" * len(block["side"])})],
            "block-user-row-string": lambda: ["decode", "--config", put("c.json", config),
                                              "--block", put("b.json", {**block, "users": [
                                                  "0" * len(block["side"]),
                                                  *block["users"][1:]]})],
            "block-users-string": lambda: ["decode", "--config", put("c.json", config),
                                           "--block", put("b.json", {**block, "users": "abc"})],
            "channel-axes-strings": lambda: ["simulate", put("s.json", {
                **scenario, "adversary_set": [0], "strategy": {"kind": "memoryless", "channel": {
                    "input_axes": ["01"], "output_axes": ["01"],
                    "rows": [1, 0, 0, 1]}}})],
            "gtable-collection-foreign": lambda: decode_with_g0(
                {**g0, "collection": [["x"], [7, 9]]}),
            "config-structure-k-2": lambda: decode_with_config(
                structure={"k": 2, "threshold": 1}),
            "config-structure-k-4": lambda: decode_with_config(
                structure={"k": 4, "threshold": 1}),
            "config-function-side-axis": lambda: decode_with_config(function={
                **config["function"], "axes": [*config["function"]["axes"][:-1], [0, 1, "z"]]}),
        }[case]()
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert err.startswith("configuration error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("case, kind", [("structure-set-string", "str"),
                                            ("structure-sets-string", "str"),
                                            ("gtable-collection-strings", "str"),
                                            ("build-g-set-string", "str"),
                                            ("build-g-set-int", "int")])
    def test_a_string_is_not_read_as_a_set_of_users(self, case, kind, tmp_path, capsys,
                                                    erasure_config):
        def put(name, obj):
            path = tmp_path / name
            path.write_text(json.dumps(obj))
            return str(path)

        def structure(sets):
            return ["check-viability", "--example", "example-3-2-erasure:uv",
                    "--structure", put("st.json", {"k": 3, "sets": sets})]

        def build_g(collection):
            return ["build-g", "--example", "example-3-2-erasure:uv", "--collection", collection]

        config = config_to_json_dict(erasure_config)
        config["g_tables"][0]["collection"] = ["0", "12"]
        block = sample_iid(erasure_config.base.to_float(), 20, seed=1).to_json_dict()
        args = {
            "structure-set-string": lambda: structure(["12", [0]]),
            "structure-sets-string": lambda: structure("12"),
            "gtable-collection-strings": lambda: ["decode", "--config", put("c.json", config),
                                                  "--block", put("b.json", block)],
            "build-g-set-string": lambda: build_g('[[0],"12"]'),
            "build-g-set-int": lambda: build_g("[0,1]"),
        }[case]()
        code, _, err = run_cli(args, capsys)
        assert code == 2 and len(err.splitlines()) == 1
        assert f"must be a list, not {kind}" in err

    def test_fault_while_resolving_a_witness_is_internal(self, tmp_path, monkeypatch):
        import byzfc.adversary as adversary

        def broken(*args):
            raise TypeError("synthetic fault")

        monkeypatch.setattr(adversary, "check_viability", broken)
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**self.SCENARIO, "adversary_set": [1, 2], "strategy": {
            "kind": "witness_dmc", "from_example": "example-3-2-erasure:uvw", "scenario": 1}}))
        with pytest.raises(RuntimeError) as info:
            main(["simulate", str(path)])
        assert isinstance(info.value.__cause__, TypeError)
