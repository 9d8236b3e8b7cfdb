import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ralp
from ralp import simulator
from ralp.catalog import catalog_lookup
from ralp.cli import (
    EXIT_BAD_FLAG,
    EXIT_CAPACITY,
    EXIT_CLOSED_OUTPUT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNKNOWN_CATALOG,
    main,
)
from ralp.profiler import ProfilerConfig, profile
from conftest import JUNK_INTEGERS, JUNK_WORDS, MUTATION_OPS, mutate

GIB = 1 << 30
DATA = Path(__file__).parent / "data"


# Two blocks whose parameters are 10**280 apart.
CONCENTRATED_BLOCKS = ("model two batch=1 input=8x8x1\nb1 block params=1 out=4 flops=100\n"
                       f"b2 block params={10**280} out=4 flops=100\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(**overrides):
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(ralp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(overrides)
    return env


def test_importing_the_cli_loads_no_numpy():
    # The package has no run-time dependencies; numpy is for the tests only.
    probe = "import sys, ralp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


ENGINE_PROBE = """
import contextlib, io, sys
import ralp, ralp.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {commands!r}:
        assert ralp.cli.main(argv) == 0, argv
{api}
print(sorted(m for m in sys.modules if m in ("ralp.simulator", "ralp.fairshare")))
"""

PLANNER_API = """
text = (ralp.catalog._CATALOG_DIR / "vgg11.model").read_text()
model = ralp.parse_model(text)
ralp.profile(model, ralp.ProfilerConfig())
ralp.compare_strategies(model, [2, 8])
"""


@pytest.mark.parametrize("commands, api, loaded", [
    ([["profile", "lenet"], ["split", "vgg11"], ["volumes", "vgg11", "--workers", "8"],
      ["catalog"]], PLANNER_API, []),
    ([["simulate", "vgg11_16gpu_baseline.scn"]], "", ["ralp.fairshare", "ralp.simulator"]),
], ids=["planning", "simulate"])
def test_only_the_simulate_command_loads_the_engine(commands, api, loaded):
    probe = ENGINE_PROBE.format(commands=commands, api=api)
    result = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == str(loaded)


def test_a_star_import_binds_each_export_to_its_modules_object():
    # In a fresh process, so that the package resolves every name on first use.
    probe = ("import importlib, ralp\nnames = {}\nexec('from ralp import *', names)\n"
             "print(len(ralp.__all__), [name for name in ralp.__all__ if names[name] is not\n"
             "    getattr(importlib.import_module('ralp.' + ralp._EXPORTS[name]), name)])")
    result = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "35 []"
    with pytest.raises(AttributeError, match="^module 'ralp' has no attribute 'simulator_run'$"):
        ralp.simulator_run


@pytest.mark.parametrize("argv", [["catalog"], ["catalog", "--json"], ["profile", "lenet"],
                                  ["profile", "inception-v3"]])
def test_a_closed_stdout_ends_the_command_quietly(argv):
    # The pipe's read end is closed before the child starts, so every write
    # to it fails with EPIPE, whether it happens while printing or at the
    # flush before exit.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "ralp.cli", *argv], stdout=write_end,
                                stderr=subprocess.PIPE, env=child_env(), timeout=60)
    finally:
        os.close(write_end)
    assert b"Traceback" not in result.stderr
    assert (result.returncode, result.stderr) == (EXIT_CLOSED_OUTPUT, b"")


class TestProfileCommand:
    def test_vgg11_profile(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "vgg11", "--threshold", "-0.5")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["eligible"] is True
        assert payload["layers"][payload["split_index"]]["name"] == "fc1"

    def test_googlenet_not_eligible_at_selective_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "googlenet", "--threshold", "-1.5")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["eligible"] is False
        assert payload["split_index"] is None

    def test_missing_descriptor_file_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "profile", "missing.model")
        assert code == EXIT_PARSE
        assert "missing.model" in err

    def test_unknown_catalog_name(self, capsys):
        code, _, err = run_cli(capsys, "profile", "nosuchnet")
        assert code == EXIT_UNKNOWN_CATALOG
        assert "vgg11" in err  # lists what is available

    @pytest.mark.parametrize("make", ["undecodable", "directory"])
    def test_unreadable_descriptor_is_parse_error(self, capsys, tmp_path, make):
        path = tmp_path / "x.model"
        if make == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"model x batch=1 input=4\nf fc out=2 \xff\n")
        code, out, err = run_cli(capsys, "profile", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith(f"error: cannot read model descriptor {str(path)!r}: ")

    @pytest.mark.parametrize("text, message", [
        ("model x batch=1 input=4\noops\n",
         "line 2, column 1: layer line needs <name> <kind> [key=value ...]"),
        ("# only a comment\n", "line 1, column 1: empty descriptor (no 'model' header)"),
        ("model m batch=1 input=4 elem_bytes=0\nf fc out=2\n",
         "line 1, column 1: model m: bytes_per_element must be >= 1"),
    ], ids=["layer-line", "no-header", "element-bytes"])
    def test_descriptor_syntax_error_reports_location(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.model"
        bad.write_text(text)
        code, out, err = run_cli(capsys, "profile", str(bad))
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("command", ["profile", "volumes"])
    def test_sizes_beyond_float_range_are_parse_errors(self, capsys, tmp_path, command):
        huge = tmp_path / "huge.model"
        huge.write_text("\nmodel huge batch=1\na fc params=1" + "0" * 400 + " out=10\n"
                        "b fc params=5 out=2\n")
        code, out, err = run_cli(capsys, command, str(huge))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == (f"error: {huge}: line 2, column 1: model huge: parameter bytes reach "
                       "2**960, too large for float arithmetic\n")

    @pytest.mark.parametrize("command", ["profile", "volumes"])
    def test_layers_10_to_the_280_apart(self, capsys, tmp_path, command):
        # From a ratio of about 10**216, the float moments' m2**1.5
        # underflowed to a zero divisor.  Two layers r apart have the index
        # skewness (1 - r) / sqrt(r); both blocks make the cut excluded.
        path = tmp_path / "two.model"
        path.write_text(CONCENTRATED_BLOCKS)
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, err) == (EXIT_OK, "")
        if command == "profile":
            assert '  "skewness": -1e+140,' in out.splitlines()
            assert json.loads(out)["split_index"] is None
        else:
            assert out.splitlines()[1].startswith("two,baseline,8,")

    def test_literal_skewness_of_sizes_that_cube_past_the_float_range(self, capsys, tmp_path):
        # 2**345 parameter bytes is below the 2**960 bound on totals, but
        # its cube is not.  One large layer and two equal small ones give a
        # skewness of 1 / sqrt(2).
        big = tmp_path / "big.model"
        big.write_text(f"model big batch=1\na fc params={2**343} out=10\n"
                       "b fc params=5 out=4\nc fc params=5 out=2\n")
        code, out, err = run_cli(capsys, "profile", str(big), "--mode", "literal_values")
        assert (code, err) == (EXIT_OK, "")
        payload = json.loads(out)
        assert payload["layers"][0]["param_bytes"] == 2**345
        assert payload["skewness"] == pytest.approx(2**-0.5)

    def test_bad_mode_flag(self, capsys):
        code, _, err = run_cli(capsys, "profile", "vgg11", "--mode", "sideways")
        assert code == EXIT_BAD_FLAG
        assert err == ("error: unknown skewness mode 'sideways'; "
                       "expected index_weighted or literal_values\n")

    def test_bad_threshold_reported_before_bad_mode(self, capsys):
        code, _, err = run_cli(capsys, "profile", "vgg11", "--threshold=nan", "--mode", "sideways")
        assert (code, err) == (EXIT_BAD_FLAG, "error: bad --threshold value 'nan'\n")
        # An option string of the parser after --threshold is a flag, not
        # the threshold, so argparse reports the missing value.
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "profile", "vgg11", "--threshold", "--mode", "sideways")
        assert exc.value.code == EXIT_PARSE
        assert "argument --threshold: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold(self, capsys, value):
        code, out, err = run_cli(capsys, "profile", "vgg11", f"--threshold={value}")
        assert code == EXIT_BAD_FLAG
        assert out == ""
        assert err == f"error: bad --threshold value {value!r}\n"

    @pytest.mark.parametrize("command", ["profile", "split"])
    def test_a_non_negative_threshold_warns_in_one_stderr_line(self, capsys, command):
        # Even where warnings are errors, the command prints the warning as
        # one line of its own and the report it would print without it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "lenet", "--threshold", "0.5")
        assert code == EXIT_OK
        assert err == ("warning: threshold 0.5 is non-negative; the eligibility gate "
                       "expects a negative cutoff\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            payload = profile(catalog_lookup("lenet"), ProfilerConfig(0.5)).to_dict()
        if command == "split":
            del payload["layers"], payload["mode"]
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "profile", "resnet-50")
        _, out2, _ = run_cli(capsys, "profile", "resnet-50")
        assert out1 == out2


class TestSplitCommand:
    def test_split_summary(self, capsys):
        code, out, _ = run_cli(capsys, "split", "vgg11")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["split_index"] == 13
        assert payload["eligible"] is True

    @pytest.mark.parametrize("mode", ["index_weighted", "literal_values"])
    def test_split_is_profile_without_layers_and_mode(self, capsys, mode):
        _, full, _ = run_cli(capsys, "profile", "alexnet", "--mode", mode)
        _, brief, _ = run_cli(capsys, "split", "alexnet", "--mode", mode)
        expected = json.loads(full)
        del expected["layers"], expected["mode"]
        assert brief == json.dumps(expected, indent=2) + "\n"


class TestVolumesCommand:
    def test_ring_at_eight_workers_matches_report(self, capsys):
        code, out, _ = run_cli(capsys, "volumes", "alexnet", "--workers", "8",
                               "--strategies", "ring")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        total = int(lines[1].split(",")[3])
        assert total == pytest.approx(3.23 * GIB, rel=0.03)

    def test_single_worker_ring_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "volumes", "alexnet", "--workers", "1",
                               "--strategies", "ring")
        assert code == EXIT_OK
        assert int(out.strip().split("\n")[1].split(",")[3]) == 0

    def test_all_strategies_ralp_smallest(self, capsys):
        code, out, _ = run_cli(capsys, "volumes", "vgg11", "--workers", "8",
                               "--strategies", "all")
        assert code == EXIT_OK
        lines = out.strip().split("\n")[1:]
        assert len(lines) == 3
        totals = {line.split(",")[1]: int(line.split(",")[3]) for line in lines}
        assert totals["ralp"] == min(totals.values())

    def test_csv_quotes_a_comma_in_the_model_name(self, capsys, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("model le,net batch=1 input=8x8x3\nc conv k=3 cout=4\nf fc out=10\n")
        code, out, _ = run_cli(capsys, "volumes", str(path))
        assert code == EXIT_OK
        header, *rows = csv.reader(io.StringIO(out))
        assert len(rows) == 3
        assert all(len(row) == len(header) == 6 and row[0] == "le,net" for row in rows)

    def test_invalid_strategy_name(self, capsys):
        code, _, err = run_cli(capsys, "volumes", "vgg11", "--strategies", "gossip")
        assert code == EXIT_BAD_FLAG
        assert "gossip" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "volumes", "lenet", "--workers", "2,4",
                               "--strategies", "baseline", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [row["W"] for row in payload] == [2, 4]

    def test_reproduce_table3(self, capsys):
        code, out, _ = run_cli(capsys, "volumes", "vgg11", "--reproduce-table3")
        assert code == EXIT_OK
        rows = dict(line.split(",", 1) for line in out.strip().split("\n")[1:])
        assert rows["vgg11"].endswith("6.93")

    def test_reproduce_table3_resolves_its_model(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "volumes", "nosuchmodel", "--reproduce-table3")
        assert (code, out) == (EXIT_UNKNOWN_CATALOG, "")
        assert "nosuchmodel" in err
        bad = tmp_path / "bad.model"
        bad.write_text("model m batch=1 input=0x0x3\n")
        code, out, err = run_cli(capsys, "volumes", str(bad), "--reproduce-table3")
        assert (code, out) == (EXIT_PARSE, "")
        assert "line 1, column 17: bad shape" in err

    def test_bad_workers_value(self, capsys):
        code, _, _ = run_cli(capsys, "volumes", "vgg11", "--workers", "eight")
        assert code == EXIT_BAD_FLAG

    @pytest.mark.parametrize("flag, value, message", [
        ("--gpus", "1", "--gpus must be >= 2, got 1"),
        ("--gpus", "-2", "--gpus must be >= 2, got -2"),
        ("--gpus", "0", "--gpus must be >= 2, got 0"),
        ("--split", "0", "--split must be in 1..15 for vgg11, got 0"),
        ("--split", "99", "--split must be in 1..15 for vgg11, got 99"),
        ("--workers", "0", "--workers must be >= 1, got 0"),
        ("--workers", "8,0", "--workers must be >= 1, got 0"),
    ])
    def test_bad_flag_exits_before_printing(self, capsys, flag, value, message):
        code, out, err = run_cli(capsys, "volumes", "vgg11", f"{flag}={value}")
        assert code == EXIT_BAD_FLAG
        assert out == ""
        assert message in err

    def test_split_of_a_one_layer_model_names_the_missing_split_point(self, capsys, tmp_path):
        (tmp_path / "m.model").write_text("model m batch=1 input=4\nf fc out=3\n")
        code, out, err = run_cli(capsys, "volumes", str(tmp_path / "m.model"), "--split", "1")
        assert (code, out) == (EXIT_BAD_FLAG, "")
        assert err == "error: --split has no value for m: one layer has no split point, got 1\n"

    @pytest.mark.parametrize("strategies", ["baseline", "ring", "baseline,ring"])
    def test_split_without_ralp_rows_is_bad_flag(self, capsys, strategies):
        code, out, err = run_cli(capsys, "volumes", "vgg11", "--strategies", strategies, "--split", "3")
        assert code == EXIT_BAD_FLAG
        assert out == ""
        assert "--split" in err and repr(strategies) in err

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "8"), ("--split", "3"), ("--gpus", "16"), ("--strategies", "all"), ("--format", "csv"),
    ])
    def test_reproduce_table3_rejects_table_flags(self, capsys, flag, value):
        # Even a flag's default value is refused: the fixed table ignores it.
        code, out, err = run_cli(capsys, "volumes", "vgg11", "--reproduce-table3", flag, value)
        assert code == EXIT_BAD_FLAG
        assert out == ""
        assert flag in err


class TestSimulateCommand:
    def test_bundled_baseline_scenario(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "simulate", "vgg11_16gpu_baseline.scn",
                               "--out", str(out_path))
        assert code == EXIT_OK
        assert "images_per_sec" in out
        payload = json.loads(out_path.read_text())
        assert payload["jobs"][0]["comm_fraction"] > 0.5

    def test_zero_steps_rejected(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "vgg11_16gpu_baseline.scn", "--steps", "0")
        assert code == EXIT_BAD_FLAG
        assert "steps" in err

    def test_missing_scenario_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "nope.scn")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("make", ["bundled-name-in-missing-dir", "undecodable", "directory"])
    def test_unreadable_scenario_is_parse_error(self, capsys, tmp_path, make):
        # Only a bare name falls back to the bundled scenario of that name.
        path = tmp_path / "missing" / "vgg11_16gpu_ralp.scn"
        if make == "directory":
            path.mkdir(parents=True)
        elif make == "undecodable":
            path.parent.mkdir()
            path.write_bytes(b"job a model=lenet strategy=ring workers=2 # \xff\n")
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith(f"error: cannot read scenario {str(path)!r}: ")

    @pytest.mark.parametrize("flag", ["--out", "--timeline"])
    def test_unwritable_output_is_bad_flag(self, capsys, tmp_path, flag):
        dest = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "simulate", "vgg11_16gpu_baseline.scn", flag, str(dest))
        assert code == EXIT_BAD_FLAG
        assert out == ""
        assert err.startswith(f"error: {flag}: cannot write {str(dest)!r}: ")

    def test_batch_beyond_float_range_names_the_job_line(self, capsys, tmp_path):
        scn = tmp_path / "e.scn"
        scn.write_text("steps 1\njob a model=vgg11 strategy=baseline workers=2 ps=1 batch=1"
                       + "0" * 320 + "\n")
        code, out, err = run_cli(capsys, "simulate", str(scn))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith(f"error: {scn}: line 2: job 'a': model vgg11: activation bytes "
                              "per step reach 2**960")

    @pytest.mark.parametrize("strategy", ["baseline", "ring"])
    def test_model_without_work_names_the_job_line(self, capsys, tmp_path, strategy):
        # Every task of its step would take 0 s.
        (tmp_path / "pool.model").write_text("model p batch=2 input=8x8x4\np1 pool window=2\n")
        scn = tmp_path / "e.scn"
        ps = 1 if strategy == "baseline" else 0
        scn.write_text(f"steps 1\njob a model=pool.model strategy={strategy} workers=2 ps={ps}\n")
        code, out, err = run_cli(capsys, "simulate", str(scn))
        assert (code, out) == (EXIT_PARSE, "")
        assert err == (f"error: {scn}: line 2: job 'a': model p has no parameters and no flops, "
                       "so its steps would take no time\n")

    @pytest.mark.parametrize("layers, why", [
        # Skewness -43.2 passes the gate, but every boundary is conv-conv.
        ("c1 conv k=1 cout=1\nc2 conv k=1 cout=2\nc3 conv k=1 cout=4\n"
         "c4 conv k=3 cout=512 pad=1\n",
         "it has no split point: each boundary before its last layer is excluded or costs "
         "more than splitting after it"),
        ("f1 fc out=512\nf2 fc out=2\n",
         "its skewness 5.519735183902608 is not below the threshold -0.5"),
        ("f fc out=3\n", "it has fewer than 2 layers"),
        ("b1 block params=0 out=4 flops=100\nb2 block params=0 out=4 flops=100\n",
         "it has no parameters"),
        # Skewness -1e140 passes the gate; the one boundary is block-block.
        (CONCENTRATED_BLOCKS.split("\n", 1)[1],
         "it has no split point: each boundary before its last layer is excluded or costs "
         "more than splitting after it"),
    ], ids=["no-split-point", "skewness", "one-layer", "no-parameters", "concentrated"])
    def test_auto_split_names_why_the_model_is_not_partitionable(self, capsys, tmp_path,
                                                                 layers, why):
        (tmp_path / "x.model").write_text("model x batch=1 input=8x8x1\n" + layers)
        scn = tmp_path / "e.scn"
        scn.write_text("steps 1\njob a model=x.model strategy=ralp workers=2\n")
        code, out, err = run_cli(capsys, "simulate", str(scn))
        assert (code, out) == (EXIT_PARSE, "")
        assert err == (f"error: {scn}: line 2: job 'a': model x is not partitionable ({why}); "
                       "use strategy=baseline\n")

    def test_auto_split_of_layers_10_to_the_280_apart(self, capsys, tmp_path):
        # An activation between the blocks gives the gate's -1e140 a cut.
        head, b1, b2 = CONCENTRATED_BLOCKS.splitlines()
        (tmp_path / "x.model").write_text(f"{head}\n{b1}\na1 act\n{b2}\n")
        scn = tmp_path / "e.scn"
        scn.write_text("steps 1\njob a model=x.model strategy=ralp split=auto workers=2\n")
        code, out, err = run_cli(capsys, "simulate", str(scn))
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("a: strategy=ralp workers=2 ")

    def test_infinite_cluster_rates_name_the_cluster_line(self, capsys, tmp_path):
        scn = tmp_path / "e.scn"
        scn.write_text("steps 1\ncluster flops=inf memcopy=inf link=inf intra=inf\n"
                       "job a model=vgg11 strategy=baseline workers=2 ps=1\n")
        code, out, err = run_cli(capsys, "simulate", str(scn))
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: {scn}: line 2: key 'flops' needs a number, got 'inf'\n"

    @pytest.mark.parametrize("key, rate, cluster", [
        ("flops", "gpu_flops_per_sec", "machines=8"),
        ("memcopy", "memcopy_bytes_per_sec", "machines=8"),
        ("link", "link_bytes_per_sec", "machines=8"),
        # One machine, so the transfers stay on it.
        ("intra", "intra_machine_bytes_per_sec", "machines=1"),
    ])
    def test_rate_that_makes_a_task_endless_is_parse_error(self, capsys, tmp_path, key, rate,
                                                          cluster):
        scn = tmp_path / "e.scn"
        scn.write_text(f"cluster {cluster} gpus=4 {key}=1e-320\n"
                       "job a model=vgg11 strategy=baseline workers=2 ps=1\n")
        code, out, err = run_cli(capsys, "simulate", str(scn))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == (f"error: {scn}: job 'a': cluster rate {rate}=1e-320 makes a task take "
                       "inf s\n")

    def test_capacity_exceeded(self, capsys, tmp_path):
        scn = tmp_path / "big.scn"
        scn.write_text(
            "cluster machines=1 gpus=2\n"
            "job a model=lenet strategy=baseline workers=4 ps=1\n"
        )
        code, out, err = run_cli(capsys, "simulate", str(scn))
        assert code == EXIT_CAPACITY
        assert out == ""
        assert err == (f"error: {scn}: line 2: job 'a': cluster is full: 2 slots cannot host "
                       "the requested replicas\n")

    @pytest.mark.parametrize("text", [
        "cluster machines=8 gpus=4 flops=2.921890578432e-296\n"
        "job a model=vgg11 strategy=baseline workers=2 ps=1\nsteps 2\n",
        # One push alone ends within the float range; eight sharing the PS
        # downlink do not.
        "cluster machines=16 gpus=1 link=2.1258133759999999e-299\n"
        "job a model=vgg11 strategy=baseline workers=8 ps=1\n",
    ], ids=["delay", "shared-flow"])
    def test_clock_past_the_float_range_is_parse_error(self, capsys, tmp_path, text):
        scn = tmp_path / "late.scn"
        scn.write_text(text)
        code, out, err = run_cli(capsys, "simulate", str(scn))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith(f"error: {scn}: job 'a': the simulated clock passes the float "
                              "range after ")
        assert err.endswith(" s\n") and err.count("\n") == 1

    def test_an_ordinary_step_time_prints_six_decimals(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "vgg11_16gpu_baseline.scn")
        assert (code, out) == (EXIT_OK, "vgg11: strategy=baseline workers=8 step_time=3.435854s "
                               "images_per_sec=149.0 comm_fraction=0.847 wire_bytes=8503253504\n")

    @pytest.mark.parametrize("seconds, shown", [(99999999999.99998, "99999999999.999985"),
                                                (1e11, "1.000000e+11")])
    def test_step_times_from_1e11_s_print_in_exponent_form(self, capsys, monkeypatch,
                                                            seconds, shown):
        # Six decimals of 1e11 s would be 18 significant digits, more than a
        # float holds.
        monkeypatch.setattr(simulator.JobReport, "avg_step_time", property(lambda job: seconds))
        code, out, _ = run_cli(capsys, "simulate", "vgg11_16gpu_baseline.scn")
        assert code == EXIT_OK
        assert f" step_time={shown}s " in out

    def test_a_lone_job_whose_repeated_steps_pass_the_float_range(self, capsys, tmp_path):
        # A step takes about 7e307 s: two fit the float range, three do not.
        scn = tmp_path / "late.scn"
        scn.write_text("cluster machines=8 gpus=4 flops=4.2e-296\n"
                       "job a model=vgg11 strategy=baseline workers=2 ps=1\n")
        code, out, _ = run_cli(capsys, "simulate", str(scn), "--steps", "2")
        assert code == EXIT_OK
        assert out.startswith("a: strategy=baseline workers=2 step_time=6.957515e+307s ")
        code, out, err = run_cli(capsys, "simulate", str(scn), "--steps", "3")
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith(f"error: {scn}: job 'a': the simulated clock passes the float "
                              "range after ")

    @pytest.mark.parametrize("steps", [2 ** 63, 10 ** 20])
    @pytest.mark.parametrize("where", ["flag", "line"])
    @pytest.mark.parametrize("names", [("a",), ("a", "b")], ids=["lone", "two"])
    def test_more_steps_than_a_report_holds_fail_before_the_event_loop(
            self, capsys, tmp_path, monkeypatch, steps, where, names):
        # Counts from 2**63 up are past any list's length.  Two jobs
        # simulate every step, so an event loop started on such a count
        # would run until stopped: the count fails before it starts, and
        # a lone job's message and exit code are the same.
        def started(env):
            raise AssertionError("the event loop started")

        monkeypatch.setattr(simulator._Env, "run", started)
        argv = ("--steps", str(steps)) if where == "flag" else ()
        scn = tmp_path / "many.scn"
        scn.write_text(("" if argv else f"steps {steps}\n")
                       + "".join(f"job {name} model=lenet strategy=ring workers=2\n"
                                 for name in names))
        code, out, err = run_cli(capsys, "simulate", str(scn), *argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert err.endswith(f": job 'a': {steps} steps are more than a report can hold\n")
        assert err.count("\n") == 1

    def test_a_lone_job_whose_records_fit_no_list(self, capsys):
        # 2**62 fits sys.maxsize, so the count passes the scenario's check,
        # but no list holds 2**62 records; CPython refuses before allocating.
        code, out, err = run_cli(capsys, "simulate", "vgg11_16gpu_ralp.scn",
                                 "--steps", "4611686018427387904")
        assert (code, out) == (EXIT_PARSE, "")
        assert err.endswith(": job 'vgg11': 4611686018427387904 steps are more than a report "
                            "can hold\n")
        assert err.count("\n") == 1

    def test_the_step_count_is_checked_before_the_clock(self, capsys, tmp_path):
        # The shared-flow clock case above, with a step count no report
        # can hold: the count fails first, when the scenario is built.
        scn = tmp_path / "late.scn"
        scn.write_text("steps 99999999999999999999\n"
                       "cluster machines=16 gpus=1 link=2.1258133759999999e-299\n"
                       "job a model=vgg11 strategy=baseline workers=8 ps=1\n")
        code, out, err = run_cli(capsys, "simulate", str(scn))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == (f"error: {scn}: job 'a': 99999999999999999999 steps are more than "
                       "a report can hold\n")

    def test_non_ascii_job_name_under_an_ascii_locale(self, tmp_path):
        # Scenario, report and timeline files are UTF-8 whatever the
        # locale; the summary escapes what the locale cannot encode.
        (tmp_path / "u.scn").write_text("job jöb model=lenet strategy=ring workers=2\n",
                                        encoding="utf-8")
        env = child_env(LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                        PYTHONIOENCODING="")
        result = subprocess.run([sys.executable, "-m", "ralp.cli", "simulate", "u.scn",
                                 "--out", "r.json", "--timeline", "t.csv"],
                                cwd=tmp_path, env=env, capture_output=True, timeout=60)
        assert (result.returncode, result.stderr) == (EXIT_OK, b"")
        assert result.stdout.startswith(b"j\\xf6b: strategy=ring workers=2 ")
        rows = list(csv.reader(io.StringIO((tmp_path / "t.csv").read_text(encoding="utf-8"))))
        assert [row[0] for row in rows] == ["job", "jöb", "jöb"]
        assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["jobs"][0]["job"] == "jöb"

    @pytest.mark.parametrize("line, message", [
        ("job a model=lenet strategy=baseline workers=x ps=1",
         "key 'workers' needs an integer, got 'x'"),
        ("job a model=lenet strategy=baseline workers= ps=1", "expected key=value, got 'workers='"),
        ("cluster flops=x", "line 2: key 'flops' needs a number, got 'x'"),
        ("cluster machines=2.5", "line 2: key 'machines' needs an integer, got '2.5'"),
        ("job a model=lenet strategy=baseline workers=0 ps=1", "worker_count must be >= 1"),
        ("job a model=vgg11 strategy=ralp workers=2 ps=1 split=99", "split_index 99 out of range"),
        ("job a model=lenet strategy=baseline workers=2 ps=1 batch=0", "batch_size must be >= 1"),
        ("job a model=lenet strategy=baseline workers=2 ps=1 gpu=4", "unknown key 'gpu'"),
        ("cluster machines=2 gpus=2 bogus=3", "unknown key 'bogus'"),
        ("job a model=lenet strategy=baseline workers=2 ps=1 gpu4", "expected key=value"),
        ("job a model=lenet strategy=baseline workers=2 workers=3 ps=1", "duplicate key 'workers'"),
        ("job a model=lenet strategy=baseline workers=2 ps=1 split=3", "split= applies only"),
        ("job a model=lenet strategy=bogus workers=2 ps=1 split=3", "unknown strategy 'bogus'"),
        ("cluster machines=0 gpus=4", "bad cluster spec: cluster needs at least one machine"),
        ("cluster link=0", "bad cluster spec: cluster rate link_bytes_per_sec must be > 0"),
        ("job a", "job line needs a name and key=value pairs"),
        ("job a strategy=ring workers=2", "job 'a' needs model="),
        ("job a model=lenet strategy=baseline workers=2 ps=0",
         "job 'a': baseline needs at least one parameter server"),
        ("place a", "place line needs a job name"),
        ("place a worker 0 0", "expected: place <job> worker|ps <idx> <machine> <gpu>"),
        ("steps", "expected: steps <n>"),
    ])
    def test_bad_scenario_line_names_its_line(self, capsys, tmp_path, line, message):
        scn = tmp_path / "bad.scn"
        scn.write_text(f"# line 1\n{line}\njob b model=lenet strategy=ring workers=2\n")
        code, _, err = run_cli(capsys, "simulate", str(scn))
        assert code == EXIT_PARSE
        assert err.startswith(f"error: {scn}: line 2: ")
        assert message in err

    @pytest.mark.parametrize("text, code, message", [
        ("job a model=lenet strategy=ring workers=2\njob a model=lenet strategy=ring workers=2\n"
         "bogus x\n", EXIT_PARSE, "line 2: duplicate job name 'a' (first declared on line 1)"),
        ("job a model=nosuch strategy=baseline workers=x ps=1\n",
         EXIT_PARSE, "line 1: key 'workers' needs an integer, got 'x'"),
        ("cluster machines=1 gpus=2\njob a model=lenet strategy=baseline workers=4 ps=1\n"
         "job b model=nosuch strategy=baseline workers=1 ps=1\n",
         EXIT_CAPACITY, "line 2: job 'a': cluster is full"),
    ], ids=["duplicate-job-before-unknown-directive", "bad-value-before-unknown-model",
            "full-cluster-before-later-unknown-model"])
    def test_problems_are_reported_in_file_order(self, capsys, tmp_path, text, code, message):
        scn = tmp_path / "bad.scn"
        scn.write_text(text)
        got, _, err = run_cli(capsys, "simulate", str(scn))
        assert got == code
        assert err.startswith(f"error: {scn}: {message}")

    @pytest.mark.parametrize("text, code, line, message", [
        ("job a model=lenet strategy=baseline workers=2 ps=1\nplace ghost worker 0 3 1\n",
         EXIT_PARSE, 2, "place line for undeclared job 'ghost'"),
        ("cluster machines=4 gpus=2\njob a model=lenet strategy=baseline workers=1 ps=1\n"
         "place a worker 0 9 0\nplace a ps 0 1 0\n",
         EXIT_CAPACITY, 3, "machine 9 outside the 4-machine cluster"),
        ("cluster machines=4 gpus=2\njob a model=lenet strategy=baseline workers=1 ps=1\n"
         "place a worker 0 -1 0\nplace a ps 0 1 0\n",
         EXIT_CAPACITY, 3, "machine -1 outside the 4-machine cluster"),
        ("cluster machines=4 gpus=2\njob a model=lenet strategy=baseline workers=1 ps=1\n"
         "place a worker 0 0 0\nplace a ps 0 1 2\n",
         EXIT_CAPACITY, 4, "gpu 2 outside a 2-GPU machine"),
        ("cluster machines=4 gpus=2\njob a model=lenet strategy=baseline workers=1 ps=1\n"
         "place a worker 0 0 0\nplace a ps 0 0 0\n",
         EXIT_CAPACITY, 4, "slot (0, 0) already taken on line 3"),
        ("job a model=lenet strategy=baseline workers=2 ps=1\n"
         "place a worker 0 0 0\nplace a ps 0 1 0\n",
         EXIT_PARSE, 1, "worker placements must cover 0..1"),
        ("job a model=lenet strategy=baseline workers=1 ps=1\nplace a worker 0 0 0\n",
         EXIT_PARSE, 1, "ps placements must cover 0..0"),
        ("cluster machines=2 gpus=2\njob g model=lenet strategy=ring workers=2\n"
         "place g worker 0 0 0\nplace g worker 1 1 0\nplace g ps 0 0 1\n",
         EXIT_PARSE, 2, "job 'g' has no ps processes to place"),
        ("job a model=lenet strategy=ring workers=2\njob a model=lenet strategy=ring workers=2\n",
         EXIT_PARSE, 2, "duplicate job name 'a'"),
        ("cluster machines=2 gpus=2\njob a model=lenet strategy=baseline workers=2 ps=1\n"
         "job b model=lenet strategy=ring workers=2\n",
         EXIT_CAPACITY, 3, "job 'b': cluster is full: 4 slots cannot host"),
        ("job a model=lenet strategy=ring workers=2\nplace a spread bogus words here\n",
         EXIT_PARSE, 2, "expected: place <job> spread"),
        ("job a model=lenet strategy=baseline workers=1 ps=1\nplace a spread\n"
         "place a worker 0 0 0\nplace a ps 0 1 0\n",
         EXIT_PARSE, 3, "job 'a': slot placement contradicts the spread placement on line 2"),
        ("job a model=lenet strategy=baseline workers=1 ps=1\nplace a worker 0 0 0\n"
         "place a ps 0 1 0\nplace a spread\n",
         EXIT_PARSE, 4, "job 'a': spread placement contradicts the slot placement on line 2"),
        ("job a model=lenet strategy=ring workers=2\nplace a spread\n# again\nplace a spread\n",
         EXIT_PARSE, 4, "job 'a': second spread placement (first on line 2)"),
        ("job a model=lenet strategy=baseline workers=1 ps=1\nplace a worker 0 0 0\n"
         "place a worker 0 1 0\nplace a ps 0 2 0\n",
         EXIT_PARSE, 3, "job 'a': worker 0 is already placed"),
    ], ids=["undeclared-job", "machine-past-end", "negative-machine", "gpu-past-end",
            "double-booked", "workers-uncovered", "ps-uncovered", "ps-on-ring", "duplicate-job",
            "spread-job-past-full", "spread-extra-words", "slots-after-spread",
            "spread-after-slots", "spread-twice", "worker-placed-twice"])
    def test_bad_placement_names_its_line(self, capsys, tmp_path, text, code, line, message):
        scn = tmp_path / "bad.scn"
        scn.write_text(text)
        got, _, err = run_cli(capsys, "simulate", str(scn))
        assert got == code
        assert err.startswith(f"error: {scn}: line {line}: ")
        assert message in err

    @pytest.mark.parametrize("text, message", [
        ("cluster machines=1 gpus=2\ncluster machines=8 gpus=4\n"
         "job a model=lenet strategy=baseline workers=4 ps=1\n",
         "line 2: second cluster line (first on line 1)"),
        ("job a model=lenet strategy=baseline workers=4 ps=1\nsteps 2\nsteps 1\n",
         "line 3: second steps line (first on line 2)"),
    ], ids=["cluster", "steps"])
    def test_repeated_directive_names_both_lines(self, capsys, tmp_path, text, message):
        scn = tmp_path / "twice.scn"
        scn.write_text(text)
        code, _, err = run_cli(capsys, "simulate", str(scn))
        assert code == EXIT_PARSE
        assert message in err

    def test_bad_descriptor_in_scenario_names_the_model_file(self, capsys, tmp_path):
        (tmp_path / "z.model").write_text("model z batch=1 input=4\nf fc out=2\nc2 oops\n")
        scn = tmp_path / "e.scn"
        scn.write_text("steps 1\njob a model=z.model strategy=baseline workers=1 ps=1\n")
        code, _, err = run_cli(capsys, "simulate", str(scn))
        assert code == EXIT_PARSE
        assert err.startswith(f"error: {scn}: line 2: job 'a': z.model: "
                              "line 3, column 4: unknown layer kind 'oops'")

    @pytest.mark.parametrize("make", ["missing", "undecodable", "directory"])
    def test_unreadable_model_in_scenario_names_the_job_line(self, capsys, tmp_path, make):
        path = tmp_path / "missing.model"
        if make == "directory":
            path.mkdir()
        elif make == "undecodable":
            path.write_bytes(b"model z batch=1 input=4\nf fc out=2\xff\n")
        # Next to the scenario only a file counts, so the directory is named in full.
        ref = str(path) if make == "directory" else path.name
        scn = tmp_path / "e.scn"
        scn.write_text(f"steps 1\njob a model={ref} strategy=baseline workers=1 ps=1\n")
        code, out, err = run_cli(capsys, "simulate", str(scn))
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith(f"error: {scn}: line 2: job 'a': {ref}: ")

    def test_unknown_model_in_scenario_names_the_job_line(self, capsys, tmp_path):
        scn = tmp_path / "e.scn"
        scn.write_text("# line 1\njob a model=nosuch strategy=baseline workers=1 ps=1\n")
        code, _, err = run_cli(capsys, "simulate", str(scn))
        assert code == EXIT_UNKNOWN_CATALOG
        assert err.startswith(f"error: {scn}: line 2: job 'a': unknown benchmark 'nosuch'; "
                              "available: alexnet, ")

    def test_place_spread_line(self, capsys, tmp_path):
        scn = tmp_path / "spread.scn"
        scn.write_text("job a model=lenet strategy=baseline workers=2 ps=1\nplace a spread\n")
        code, out, _ = run_cli(capsys, "simulate", str(scn))
        assert code == EXIT_OK
        assert "a: strategy=baseline workers=2" in out

    @pytest.mark.parametrize("name", ["vgg11_16gpu_baseline", "vgg11_16gpu_ralp"])
    def test_bundled_reports_match_recorded_bytes(self, capsys, tmp_path, name):
        report, timeline = tmp_path / "report.json", tmp_path / "steps.csv"
        code, _, _ = run_cli(capsys, "simulate", f"{name}.scn", "--steps", "3",
                             "--out", str(report), "--timeline", str(timeline))
        assert code == EXIT_OK
        assert report.read_bytes() == (DATA / f"{name}_steps3.json").read_bytes()
        assert timeline.read_bytes() == (DATA / f"{name}_steps3.csv").read_bytes()

    def test_scenario_with_local_descriptor(self, capsys, tmp_path):
        (tmp_path / "toy.model").write_text(
            "model toy batch=2 input=8x8x3\nc1 conv k=3 cout=4 pad=1\nf1 fc out=10\n"
        )
        scn = tmp_path / "toy.scn"
        scn.write_text(
            "cluster machines=2 gpus=2\n"
            "job t model=toy.model strategy=baseline workers=1 ps=1\nsteps 2\n"
        )
        code, out, _ = run_cli(capsys, "simulate", str(scn))
        assert code == EXIT_OK
        assert "t:" in out

    def test_deterministic_summary(self, capsys):
        _, out1, _ = run_cli(capsys, "simulate", "vgg11_16gpu_ralp.scn")
        _, out2, _ = run_cli(capsys, "simulate", "vgg11_16gpu_ralp.scn")
        assert out1 == out2

    def test_timeline_csv(self, capsys, tmp_path):
        timeline = tmp_path / "steps.csv"
        code, _, _ = run_cli(capsys, "simulate", "vgg11_16gpu_baseline.scn",
                             "--steps", "2", "--timeline", str(timeline))
        assert code == EXIT_OK
        lines = timeline.read_text().strip().split("\n")
        assert lines[0].startswith("job,step,worker,")
        # 8 workers x 2 steps
        assert len(lines) == 1 + 16
        fields = lines[1].split(",")
        categories = [float(x) for x in fields[3:7]]
        assert sum(categories) == float(fields[7])

    def test_timeline_csv_quotes_a_comma_in_the_job_name(self, capsys, tmp_path):
        scn, timeline = tmp_path / "c.scn", tmp_path / "steps.csv"
        scn.write_text("job a,b model=lenet strategy=ring workers=2\n")
        code, _, _ = run_cli(capsys, "simulate", str(scn), "--timeline", str(timeline))
        assert code == EXIT_OK
        with timeline.open(newline="") as f:
            header, *rows = csv.reader(f)
        assert len(rows) == 2
        assert all(len(row) == len(header) == 8 and row[0] == "a,b" for row in rows)


class TestCatalogCommand:
    def test_lists_all_models(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == EXIT_OK
        for name in ("alexnet", "vgg19", "resnet-50"):
            assert name in out

    def test_json_listing(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--json")
        payload = json.loads(out)
        assert {entry["name"] for entry in payload} >= {"vgg11", "lenet"}


class TestPlanDigest:
    """sha256 of every planning command's output on the whole catalog,
    recorded before the layer sums were cached and before the descriptor
    parser stopped tokenizing with a regex, and again when the skewness
    came to be computed from exact integer moments (the last digits of 13
    of the 16 profile reports' skewness moved).  Any byte that moves in any
    report changes it."""

    def test_catalog_reports(self, capsys):
        runs = [("catalog",), ("catalog", "--json"), ("volumes", "vgg11", "--reproduce-table3")]
        for name in ralp.catalog_names():
            runs += [("profile", name, "--mode", mode) for mode in ("index_weighted", "literal_values")]
            runs.append(("split", name))
            runs.append(("volumes", name, "--workers", "1,8,15", "--gpus", "16", "--format", "json"))
        digest = hashlib.sha256()
        for argv in runs:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (EXIT_OK, ""), argv
            digest.update(f"{' '.join(argv)}\n{out}".encode())
        assert len(runs) == 35
        assert digest.hexdigest() == "33edee063c1204c8bbc08224963423bfd3cbdb229a6062c0411964e6025ce0f5"


_PACKAGE = Path(str(resources.files("ralp")))
_FUZZ_SOURCES = sorted(_PACKAGE.glob("scenarios/*.scn")) + sorted(_PACKAGE.glob("catalog_data/*.model"))
_JUNK = st.one_of(st.integers(*JUNK_INTEGERS).map(str), st.sampled_from(JUNK_WORDS))
_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(MUTATION_OPS), st.integers(0, 1 << 16), st.integers(0, 1 << 16), _JUNK),
    min_size=1,
    max_size=3,
)


class TestFuzzedInputs:
    @given(source=st.sampled_from(_FUZZ_SOURCES), mutations=_MUTATIONS, steps=st.integers(1, 3))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_file_exits_with_a_documented_code(self, capsys, tmp_path, source, mutations, steps):
        path = tmp_path / source.name
        path.write_text(mutate(source.read_text(), mutations))
        if path.suffix == ".scn":
            runs = [("simulate", str(path), "--steps", str(steps))]
        else:
            runs = [("profile", str(path)), ("volumes", str(path), "--workers", "1,8")]
        for argv in runs:
            code, _, _ = run_cli(capsys, *argv)
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_UNKNOWN_CATALOG, EXIT_BAD_FLAG, EXIT_CAPACITY)


# Lines that read the number 2 where the formats take an integer, in a
# descriptor (read by ``profile``) and a scenario (read by ``simulate``).
_INTEGER_LINES = [
    ("m.model", "model m batch={} input=4\nf fc out=2\n"),
    ("m.model", "model m batch=1 elem_bytes={} input=4\nf fc out=2\n"),
    ("m.model", "model m batch=1 input={}x2x3\nc conv k=1 cout=2\n"),
    ("m.model", "model m batch=1 input=4\nf fc out={}\n"),
    ("m.model", "model m batch=1 input=4x4x3\nc conv k={} cout=2\n"),
    ("m.model", "model m batch=1\nb block params={} out=2 flops=0\n"),
    ("m.model", "model m batch=1\nb block params=1 out=12 flops=0 shape={}x2x3\n"),
    ("m.scn", "cluster machines={} gpus=2\njob j model=lenet strategy=ring workers=2\n"),
    ("m.scn", "job j model=lenet strategy=ring workers={}\n"),
    ("m.scn", "job j model=lenet strategy=baseline workers=2 ps=1 batch={}\n"),
    ("m.scn", "job j model=vgg11 strategy=ralp workers=2 ps=1 split={}\n"),
    ("m.scn", "steps {}\njob j model=lenet strategy=ring workers=2\n"),
    ("m.scn", "job j model=lenet strategy=ring workers=2\nplace j worker 0 0 0\nplace j worker 1 {} 0\n"),
]


# Command lines that end in an integer flag, which reads 2 there, given
# as one word with '=' or as the word after the flag.
_INTEGER_FLAGS = [
    ("argv", "simulate vgg11_16gpu_ralp.scn --steps={}"),
    ("argv", "simulate vgg11_16gpu_ralp.scn --steps {}"),
    ("argv", "volumes vgg11 --split={}"),
    ("argv", "volumes vgg11 --split {}"),
    ("argv", "volumes lenet --gpus={}"),
    ("argv", "volumes lenet --workers={}"),
    ("argv", "volumes lenet --workers {}"),
    ("argv", "volumes lenet --workers=1,{}"),
]


@pytest.mark.parametrize("name, template", _INTEGER_LINES + _INTEGER_FLAGS)
@pytest.mark.parametrize("spelling", ["2", "+2", "0_2", "２", "٢", "abc", "-1e1"])
def test_an_integer_is_ascii_digits(capsys, tmp_path, name, template, spelling):
    # Python's int() reads the first five spellings as 2; the formats and
    # the flags take only ASCII digits after an optional '-'.  A flag's
    # value that starts with '-' is its value also as a word of its own.
    code, out, err = _run_site(capsys, tmp_path, name, template, spelling)
    if spelling == "2":
        assert (code, err) == (EXIT_OK, "")
    else:
        _assert_named(code, out, err, tmp_path, name, template, spelling)


@pytest.mark.parametrize("name, template", [
    *(("m.scn", f"cluster {key}={{}}\njob j model=lenet strategy=ring workers=2\n")
      for key in ("flops", "memcopy", "link", "intra")),
    # '-' first, as a non-negative threshold warns; argparse alone takes a
    # word such as '-2e9' for a flag.
    ("argv", "profile lenet --threshold=-{}"),
    ("argv", "profile lenet --threshold -{}"),
])
@pytest.mark.parametrize("spelling", ["2e9", "2.0e9", "2e+9", "1e3", "２e9", "2_000e6", "+2e9",
                                      "inf", "nan", "1e999", "abc", "1_0", ".5e1"])
def test_a_number_is_an_integer_with_a_fraction_and_exponent(capsys, tmp_path, name, template,
                                                             spelling):
    # Python's float() reads the first seven spellings as finite numbers,
    # the next three as non-finite values, '1_0' as 10 and '.5e1' as 5; the
    # rates and --threshold take only the first four.
    code, out, err = _run_site(capsys, tmp_path, name, template, spelling)
    if spelling in ("2e9", "2.0e9", "2e+9", "1e3"):
        assert (code, err) == (EXIT_OK, "")
    else:
        _assert_named(code, out, err, tmp_path, name, template, spelling)


@pytest.mark.parametrize("argv", ["profile lenet --thresh -2e9", "profile lenet --thresh=-2e9",
                                  "simulate vgg11_16gpu_ralp.scn --st 2", "volumes lenet --work 8"])
def test_a_flag_is_spelled_in_full(capsys, argv):
    # A prefix of a flag names no flag, in either spelling, so its words are
    # left over.
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (EXIT_PARSE, "")
    assert f"error: unrecognized arguments: {' '.join(argv.split()[2:])}\n" in captured.err


def _run_site(capsys, tmp_path, name, template, spelling):
    """Run the command line ``template`` if ``name`` is ``argv``, else the
    command that reads file ``name`` holding ``template``, with ``spelling``
    put in."""
    if name == "argv":
        return run_cli(capsys, *template.format(spelling).split())
    path = tmp_path / name
    path.write_text(template.format(spelling), encoding="utf-8")
    return run_cli(capsys, "simulate" if name.endswith(".scn") else "profile", str(path))


def _assert_named(code, out, err, tmp_path, name, template, spelling):
    """A rejected flag value exits 4 naming the flag and the value (the
    last of a list); a rejected value in a file exits 2 naming its line."""
    assert out == ""
    if name == "argv":
        words = template.format(spelling).split()
        flag, value = words[-1].split("=", 1) if words[-1].startswith("--") else words[-2:]
        assert (code, err) == (EXIT_BAD_FLAG, f"error: bad {flag} value {value.split(',')[-1]!r}\n")
    else:
        line = template[:template.index("{}")].count("\n") + 1
        assert code == EXIT_PARSE
        assert f"{tmp_path / name}: line {line}" in err
