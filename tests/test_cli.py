import builtins
import csv
import errno
import hashlib
import io
import json
import math
import multiprocessing
import os
import pickle
import sys
import threading
from pathlib import Path

import pytest
import yaml

from omnisched import cli, memsim, pipeline
from omnisched.cli import main
from omnisched.config import reproduce_scenario_doc
from omnisched.errors import InvalidSpecError, OmniSchedError
from omnisched.workload import (
    Modality,
    WorkloadTrace,
    save_trace,
)

from oracles import timeline_rows_reference


@pytest.fixture
def trace_file(tmp_path):
    trace = WorkloadTrace(range(8), [Modality.TEXT] * 8, [7, 5, 4, 3, 1, 8, 2, 6])
    p = tmp_path / "trace.ndjson"
    save_trace(trace, p)
    return p


@pytest.fixture
def cost_model_file(tmp_path):
    doc = {
        "encoders": [
            {"modality": "image", "unit_costs": [1.0, 1.0], "tp_divisible": [False, True]},
            {"modality": "text", "unit_costs": [0.5]},
        ],
        "llm_layer_costs": [1.0] * 4,
    }
    p = tmp_path / "cost.json"
    p.write_text(json.dumps(doc))
    return p


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestPack:
    def test_single_policy_writes_report(self, trace_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["pack", "--trace", str(trace_file), "--capacity", "8",
                   "--policy", "ffd", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "packing.csv")
        assert len(rows) == 1
        assert rows[0]["policy"] == "ffd"
        assert float(rows[0]["fill_fraction"]) > 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["reports"][0]["fill_fraction"] > 0
        assert (out / "config.resolved").exists()

    def test_missing_trace_maps_to_domain_error(self, tmp_path, capsys):
        rc = main(["pack", "--trace", str(tmp_path / "nope.ndjson"), "--capacity", "8",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["kind"] == "trace-not-found"

    def test_policy_all_emits_row_per_policy(self, trace_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["pack", "--trace", str(trace_file), "--capacity", "8",
                   "--policy", "all", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "packing.csv")
        assert sorted(r["policy"] for r in rows) == ["ffd", "padded", "stream"]


class TestSimulate:
    def test_two_layouts_two_result_groups(self, trace_file, cost_model_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--trace", str(trace_file), "--capacity", "8",
                   "--cost-model", str(cost_model_file),
                   "--layouts", "1x2x1,1x4x1", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "comparison.csv")
        assert {r["layout"] for r in rows} == {"1x2x1", "1x4x1"}
        summary = json.loads((out / "summary.json").read_text())
        assert "headline_ratio" in summary
        assert set(summary["headline_ratio"]) == {"1x2x1", "1x4x1"}

    def test_timeline_csv_schema(self, trace_file, cost_model_file, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--trace", str(trace_file), "--capacity", "8",
              "--cost-model", str(cost_model_file), "--layouts", "1x2x1", "--out", str(out)])
        rows = read_csv(out / "timeline_1x2x1_ffd_balanced.csv")
        assert set(rows[0]) == {"stage", "kind", "start", "end", "microbatch"}
        assert {r["kind"] for r in rows} <= {"F", "B", "idle"}

    @pytest.mark.parametrize("argv,kind", [
        ("simulate --trace {trace} --capacity 8 --cost-model {cost} --layouts 1x16x1",
         "too-few-layers"),
        ("plan --cost-model {cost} --layouts 1x64x1", "too-few-units"),
        ("pack --trace {trace} --capacity 5", "oversize-sample"),
    ], ids=["simulate", "plan", "pack"])
    def test_too_few_units_surfaced(self, argv, kind, trace_file, cost_model_file, tmp_path, capsys):
        # a run that fails after reading its config leaves no run directory
        out = tmp_path / "out"
        rc = main(argv.format(trace=trace_file, cost=cost_model_file).split() + ["--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["kind"] == kind
        assert not out.exists()


class TestRoute:
    def test_rows_per_step_and_expert(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["route", "--experts", "8", "--top-k", "2", "--tokens", "128",
                   "--steps", "5", "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "route.csv")
        assert len(rows) == 5 * 8
        assert set(rows[0]) == {"step", "expert", "f", "pbar", "bias", "cov", "aux_loss"}

    def test_zero_bias_step_keeps_bias_flat(self, tmp_path):
        out = tmp_path / "out"
        main(["route", "--experts", "4", "--top-k", "1", "--tokens", "64",
              "--steps", "4", "--seed", "3", "--bias-step", "0", "--out", str(out)])
        rows = read_csv(out / "route.csv")
        assert all(float(r["bias"]) == 0.0 for r in rows)

    def test_same_seed_identical_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["route", "--experts", "8", "--top-k", "2", "--tokens", "256",
                  "--steps", "6", "--seed", "42", "--out", str(out)])
            outs.append((out / "route.csv").read_bytes())
        assert outs[0] == outs[1]


class TestMem:
    def test_writes_contrast_rows(self, trace_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["mem", "--trace", str(trace_file), "--capacity", "8", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "memsim.csv")
        assert {r["scenario"] for r in rows} == {"per-sample", "ffd-packed"}


class TestConfigPrecedence:
    def test_flag_beats_config_file(self, trace_file, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "capacity": 4,
            "trace": {"path": str(trace_file)},
        }))
        out = tmp_path / "out"
        main(["pack", "--config", str(cfg), "--capacity", "8", "--policy", "ffd",
              "--out", str(out)])
        resolved = yaml.safe_load((out / "config.resolved").read_text())
        assert resolved["capacity"] == 8

    def test_env_seed_default(self, trace_file, tmp_path, monkeypatch):
        monkeypatch.setenv("OMNISCHED_SEED", "777")
        out = tmp_path / "out"
        main(["pack", "--trace", str(trace_file), "--capacity", "8", "--policy", "ffd",
              "--out", str(out)])
        resolved = yaml.safe_load((out / "config.resolved").read_text())
        assert resolved["seed"] == 777


def test_usage_error_exit_code_1(capsys):
    assert main(["pack", "--capacity", "notanint"]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "usage"


def test_unknown_command_exit_code_1(capsys):
    assert main(["frobnicate"]) == 1


def test_reproduce_smoke(tmp_path):
    # full determinism check lives in the acceptance suite; this is the wiring
    out = tmp_path / "rep"
    rc = main(["reproduce", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["throughput_ratio_min"] > 1.0
    for doc in summary["layouts"].values():
        assert doc["idle_fraction_optimized"] <= doc["idle_fraction_baseline"]
        assert doc["imbalance_optimized"] <= doc["imbalance_baseline"]
    frag = summary["fragmentation"]
    assert frag["per_sample_baseline"]["fragmentation_ratio"] > 0
    assert frag["ffd_packed"]["fragmentation_ratio"] == 0.0
    assert (out / "comparison.csv").exists()
    assert (out / "packing.csv").exists()
    assert (out / "memsim.csv").exists()



def test_summaries_read_the_comparison_rows(trace_file, cost_model_file, tmp_path):
    # reproduce's per-layout contrast and simulate's headline are the rows' values
    out = tmp_path / "rep"
    assert main(["reproduce", "--out", str(out)]) == 0
    cells = {(r["layout"], r["packing_policy"], r["plan_policy"]): r for r in read_csv(out / "comparison.csv")}
    layouts = json.loads((out / "summary.json").read_text())["layouts"]
    assert set(layouts) == {layout for layout, _, _ in cells}
    for label, doc in layouts.items():
        for suffix, cell in (("baseline", ("padded", "naive")), ("optimized", ("ffd", "balanced"))):
            row = cells[(label, *cell)]
            for name in ("throughput", "bubble_fraction", "idle_fraction", "imbalance"):
                assert doc[f"{name}_{suffix}"] == float(row[name])
        assert doc["throughput_ratio"] == float(cells[label, "ffd", "balanced"]["ratio_vs_baseline"])

    out = tmp_path / "sim"
    assert main(["simulate", "--trace", str(trace_file), "--capacity", "8", "--cost-model",
                 str(cost_model_file), "--layouts", "1x2x1,1x4x1", "--out", str(out)]) == 0
    headline = json.loads((out / "summary.json").read_text())["headline_ratio"]
    assert headline == {
        r["layout"]: float(r["ratio_vs_baseline"])
        for r in read_csv(out / "comparison.csv")
        if (r["packing_policy"], r["plan_policy"]) == ("ffd", "balanced")
    }
    assert set(headline) == {"1x2x1", "1x4x1"}


# Numbers that leave the float range, on a 20-line text trace and a cost model
# of one text encoder unit plus LLM layers: each used to give a traceback or
# write Infinity or NaN.
@pytest.mark.parametrize("argv,config,unit_cost,layer_costs,error", [
    (["simulate", "--capacity", str(2**1100)], {}, 1.0, [1.0, 1.0], ("invalid-config", "capacity")),
    (["simulate", "--capacity", "8"], {"backward_ratio": 1.0e308}, 1.0, [1.0, 1.0], ("invalid-spec", None)),
    (["simulate", "--capacity", "8"], {}, 1.0, [1e306, 1e306], ("invalid-spec", None)),
    (["plan", "--layouts", "1x1x1"], {}, 1.0, [1e308, 1e308], ("invalid-spec", None)),
    (["simulate", "--capacity", "8"], {}, 1e-320, [1e-320, 1e-320], ("invalid-spec", None)),
], ids=["capacity-2**1100", "backward-ratio-1e308", "layer-costs-1e306", "plan-layer-costs-1e308",
        "unit-costs-1e-320"])
def test_numbers_out_of_float_range_are_domain_errors(argv, config, unit_cost, layer_costs, error,
                                                      tmp_path, capsys):
    trace = WorkloadTrace(range(20), [Modality.TEXT] * 20, [i % 8 + 1 for i in range(20)])
    save_trace(trace, tmp_path / "trace.ndjson")
    cost = {"encoders": [{"modality": "text", "unit_costs": [unit_cost]}], "llm_layer_costs": layer_costs}
    (tmp_path / "cost.json").write_text(json.dumps(cost))
    (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(config))
    argv = argv + ["--config", str(tmp_path / "cfg.yaml"), "--cost-model", str(tmp_path / "cost.json")]
    if argv[0] == "simulate":
        argv += ["--trace", str(tmp_path / "trace.ndjson")]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    line, = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert (err["kind"], err["context"].get("key")) == error
    assert not out.exists()


# Router values whose draws, loss or bias leave the float range: each used to
# write NaN or Infinity into summary.json or route.csv, with numpy warnings.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("setting,column", [
    ({"logit_std": 1.0e308}, "pbar"),
    ({"aux_coefficient": 1.0e308}, "aux_loss"),
    ({"bias_step": 1.0e308}, "bias"),
])
def test_routing_out_of_float_range_is_a_domain_error(setting, column, tmp_path, capsys):
    router = {"num_experts": 4, "top_k": 1, "mean_offsets": [1, 0, 0, 0], "tokens_per_step": 16, "steps": 3}
    (tmp_path / "cfg.yaml").write_text(yaml.safe_dump({"router": {**router, **setting}}))
    out = tmp_path / "out"
    assert main(["route", "--config", str(tmp_path / "cfg.yaml"), "--out", str(out)]) == 2
    line, = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["kind"] == "invalid-spec"
    assert f"column {column} " in err["message"]
    assert not out.exists()


# Sizes under numpy's 2**63-byte limit that no host can hold: numpy refuses
# the 4 EiB allocation at once. Each used to be a numpy traceback.
@pytest.mark.parametrize("tokens,steps", [(4, 2**58), (2**58, 1)])
def test_router_too_big_for_memory_is_a_domain_error(tokens, steps, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["route", "--experts", "2", "--top-k", "1", "--tokens", str(tokens), "--steps", str(steps)]
    assert main(argv + ["--out", str(out)]) == 2
    line, = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert (err["kind"], err["context"]) == ("out-of-memory", {"command": "route"})
    assert not out.exists()


def test_default_offsets_too_big_for_memory_is_a_domain_error(tmp_path, capsys):
    # The sizes pass every bound (1 * 2**59 * 8 < 2**63), but the config's
    # default mean_offsets, a list of 2**59 floats, asks for 2**62 bytes at
    # once. The config is read inside the run, so this is not a traceback.
    out = tmp_path / "out"
    argv = ["route", "--experts", str(2**59), "--top-k", "1", "--tokens", "1", "--steps", "1"]
    assert main(argv + ["--out", str(out)]) == 2
    line, = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert (err["kind"], err["context"]) == ("out-of-memory", {"command": "route"})
    assert not out.exists()


@pytest.mark.parametrize("key,policies", [
    ("packing_policies", ["padded", "stream"]),
    ("plan_policies", ["naive"]),
])
def test_reproduce_needs_both_contrast_cells(tmp_path, capsys, key, policies):
    doc = reproduce_scenario_doc()
    doc[key] = policies
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    out = tmp_path / "rep"
    assert main(["reproduce", "--scenario", str(scenario), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "invalid-config"
    assert not out.exists()


def test_unknown_allocator_in_config_writes_nothing(trace_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"memsim": {"allocator": "buddy"}}))
    out = tmp_path / "out"
    rc = main(["mem", "--config", str(cfg), "--trace", str(trace_file), "--capacity", "8",
               "--out", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["kind"] == "invalid-config"
    assert not out.exists()


def test_repeated_layout_flag_is_a_config_error(trace_file, cost_model_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["simulate", "--trace", str(trace_file), "--capacity", "8", "--cost-model",
               str(cost_model_file), "--layouts", "1x2x1,1x2x1", "--out", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert (err["kind"], err["context"]["key"]) == ("invalid-config", "layouts[1]")
    assert not out.exists()


def test_nan_cost_model_is_a_domain_error(cost_model_file, tmp_path, capsys):
    doc = json.loads(cost_model_file.read_text())
    doc["llm_layer_costs"][1] = float("nan")
    cost_model_file.write_text(json.dumps(doc))  # writes the NaN literal
    out = tmp_path / "out"
    rc = main(["plan", "--cost-model", str(cost_model_file), "--layouts", "1x2x1",
               "--out", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["kind"] == "invalid-spec"
    assert not out.exists()


def test_trace_with_cost_per_token_is_rejected(tmp_path, capsys):
    trace = tmp_path / "trace.ndjson"
    trace.write_text('{"id": 0, "modality": "text", "length": 5, "cost_per_token": 2.0}\n')
    rc = main(["pack", "--trace", str(trace), "--capacity", "8", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["kind"] == "trace-parse"
    assert err["context"]["fields"] == ["cost_per_token"]


@pytest.mark.parametrize("command,doc", [
    ("pack", {"capacity": 0}),
    ("pack", {"capacity": "abc"}),
    ("simulate", {"capacity": 8, "packing_policies": ["padded", "bogus"]}),
    ("simulate", {"capacity": 8, "plan_policies": ["naive", "bogus"]}),
    ("pack", {"capacity": 2**63}),
    ("mem", {"capacity": 2**63}),
])
def test_bad_config_values_write_nothing(command, doc, trace_file, cost_model_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--trace", str(trace_file), "--out", str(out)]
    if command == "simulate":
        argv += ["--cost-model", str(cost_model_file), "--layouts", "1x2x1"]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err.strip())["kind"] == "invalid-config"
    assert not out.exists()


def test_huge_integer_in_trace_is_a_parse_error(tmp_path, capsys):
    trace = tmp_path / "trace.ndjson"
    trace.write_text('{"id": 0, "modality": "text", "length": 1' + "0" * 4999 + "}\n")
    out = tmp_path / "out"
    assert main(["pack", "--trace", str(trace), "--capacity", "8", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["kind"] == "trace-parse"
    assert not out.exists()


@pytest.mark.parametrize("flag,name", [("--config", "deep.yaml"), ("--cost-model", "deep.json")])
def test_deeply_nested_file_is_a_config_error(flag, name, trace_file, tmp_path, capsys):
    # past the parsers' recursion limit: a RecursionError, not a parse error
    deep = tmp_path / name
    deep.write_text(("a: " if flag == "--config" else "") + "[" * 1000 + "]" * 1000 + "\n")
    out = tmp_path / "out"
    if flag == "--config":
        argv = ["pack", "--config", str(deep), "--trace", str(trace_file)]
    else:
        argv = ["plan", "--cost-model", str(deep), "--layouts", "1x2x1"]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    err = json.loads(err[0])
    assert (err["kind"], err["context"]["path"]) == ("invalid-config", str(deep))
    assert not out.exists()


UNREADABLE = [
    PermissionError(errno.EACCES, os.strerror(errno.EACCES)),
    IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR)),
    OSError(errno.EIO, os.strerror(errno.EIO)),
]


class _FailingRead(io.RawIOBase):
    """A readable stream whose every read fails with ``exc``."""

    def __init__(self, exc):
        self.exc = exc

    def readable(self):
        return True

    def readinto(self, buffer):
        raise self.exc


def assert_one_error(capsys, out, kind, path):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])
    assert (doc["kind"], doc["context"]["path"]) == (kind, str(path))
    assert not out.exists()
    return doc


@pytest.mark.parametrize("exc", UNREADABLE, ids=["EACCES", "EISDIR", "EIO"])
@pytest.mark.parametrize("fail_at", ["open", "read", "fallback-open"])
def test_unreadable_trace_is_trace_not_found(fail_at, exc, tmp_path, monkeypatch, capsys):
    # the suite may run as root, which no file mode stops, so Path.open fails on purpose
    trace = tmp_path / "trace.ndjson"
    bad_line = "not json\n" if fail_at == "fallback-open" else ""  # sends load_trace to its per-line reader
    trace.write_text('{"id": 0, "modality": "text", "length": 5}\n' + bad_line)
    opens = []
    real_open = Path.open

    def failing_open(self, *args, **kwargs):
        if self != trace:
            return real_open(self, *args, **kwargs)
        opens.append(self)
        if fail_at == "read":
            return io.TextIOWrapper(io.BufferedReader(_FailingRead(exc)), encoding="utf-8")
        if fail_at == "open" or len(opens) == 2:
            raise exc
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", failing_open)
    out = tmp_path / "out"
    assert main(["pack", "--trace", str(trace), "--capacity", "8", "--out", str(out)]) == 2
    doc = assert_one_error(capsys, out, "trace-not-found", trace)
    assert doc["message"] == f"cannot read trace file {trace}: {exc.strerror}"
    assert len(opens) == (2 if fail_at == "fallback-open" else 1)


@pytest.mark.parametrize("exc", UNREADABLE, ids=["EACCES", "EISDIR", "EIO"])
@pytest.mark.parametrize("flag,what", [("--config", "config"), ("--cost-model", "cost model")])
def test_unreadable_config_file_is_a_config_error(flag, what, exc, trace_file, cost_model_file, tmp_path,
                                                  monkeypatch, capsys):
    if flag == "--config":
        target = tmp_path / "cfg.yaml"
        target.write_text(yaml.safe_dump({"capacity": 8}))
        argv = ["pack", "--config", str(target), "--trace", str(trace_file)]
    else:
        target = cost_model_file
        argv = ["plan", "--cost-model", str(target), "--layouts", "1x2x1"]
    real_read_text = Path.read_text

    def failing_read_text(self, *args, **kwargs):
        if self == target:
            raise exc
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", failing_read_text)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    doc = assert_one_error(capsys, out, "invalid-config", target)
    assert doc["message"] == f"cannot read {what} file {target}: {exc.strerror}"


@pytest.mark.parametrize("target", ["afile", "afile/sub"])
def test_out_that_cannot_be_a_directory_is_an_output_error(target, trace_file, tmp_path, capsys):
    (tmp_path / "afile").write_text("keep\n")
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / target
    argv = ["pack", "--trace", str(trace_file), "--capacity", "8", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])
    assert doc["kind"] == "output"
    assert doc["context"]["path"] == str(out)
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "afile").read_text() == "keep\n"


@pytest.mark.parametrize("target,kind", [
    ("afile/sub", "output"),  # no staging directory can be made: before the command computes
    ("afile", "trace-not-found"),  # out is a file: found only as the files are moved, after the compute
])
def test_output_error_before_the_compute_wins(target, kind, tmp_path, capsys):
    (tmp_path / "afile").write_text("keep\n")
    before = sorted(tmp_path.rglob("*"))
    argv = ["pack", "--trace", str(tmp_path / "missing.ndjson"), "--capacity", "8", "--out", str(tmp_path / target)]
    assert main(argv) == 2
    line, = capsys.readouterr().err.splitlines()
    assert json.loads(line)["kind"] == kind
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_run_leaves_no_missing_parent_of_out(trace_file, tmp_path, monkeypatch, capsys):
    def full_disk(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_write_csv", full_disk)
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "gap" / "a" / "b" / "run"
    argv = ["pack", "--trace", str(trace_file), "--capacity", "8", "--out", str(out)]
    assert main(argv) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["kind"] == "output"
    assert sorted(tmp_path.rglob("*")) == before  # no gap/a/b, no temporary directory


def dict_writer_bytes(path, fields, rows):
    """What ``csv.DictWriter`` writes for ``rows`` given as dicts."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return path.read_bytes()


def test_csv_bytes_match_dict_writer(trace_file, cost_model_file, tmp_path, monkeypatch):
    # comm_latency > 0 gives idle rows and non-integer times
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"comm_latency": 0.3, "backward_ratio": 1.7}))
    captured, results = {}, []
    write_csv = cli._write_csv
    timeline_rows = pipeline.ScheduleResult.timeline_rows

    def spy(path, fields, rows):
        captured[path.name] = (fields, list(rows))
        write_csv(path, fields, rows)

    def timeline_spy(result):
        results.append(result)
        return timeline_rows(result)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)  # the spies see no worker process's calls
    monkeypatch.setattr(cli, "_write_csv", spy)
    monkeypatch.setattr(pipeline.ScheduleResult, "timeline_rows", timeline_spy)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--trace", str(trace_file), "--capacity", "8",
                 "--cost-model", str(cost_model_file), "--layouts", "1x4x1",
                 "--out", str(out)]) == 0
    assert main(["route", "--experts", "4", "--top-k", "2", "--tokens", "32", "--steps", "3",
                 "--seed", "5", "--out", str(out)]) == 0

    # timeline lines reach the writer as text; the reference rows are tuples
    timeline_names = [name for name in captured if name.startswith("timeline_")]
    assert len(timeline_names) == len(results)
    name = "timeline_1x4x1_ffd_balanced.csv"
    fields, lines = captured[name]
    assert all(isinstance(line, str) for line in lines)
    rows = timeline_rows_reference(results[timeline_names.index(name)])
    assert len(rows) == len(lines)
    assert any(kind == "idle" for _, kind, *_ in rows)
    assert any(start != int(start) for _, _, start, _, _ in rows)
    dicts = [dict(zip(fields, row)) for row in rows]
    assert (out / name).read_bytes() == dict_writer_bytes(tmp_path / "ref.csv", fields, dicts)
    fields, rows = captured["route.csv"]
    assert all(type(row) is tuple and len(row) == len(fields) for row in rows)
    dicts = [dict(zip(fields, row)) for row in rows]
    assert (out / "route.csv").read_bytes() == dict_writer_bytes(tmp_path / "ref.csv", fields, dicts)


@pytest.mark.parametrize("row", [
    {"a": 1},
    {"a": 1, "b": 2, "c": 3},
    {"a": 1, "c": 3},
])
def test_csv_dict_row_keys_must_match_fields(tmp_path, row):
    with pytest.raises(ValueError):
        cli._write_csv(tmp_path / "x.csv", ["a", "b"], [{"a": 0, "b": 0}, row])


# One small run per command, with relative paths so that config.resolved names
# no machine path. comm_latency > 0 gives the timelines idle rows and
# non-integer times.
RUN_ARGVS = {
    "pack": ["pack", "--trace", "trace.ndjson", "--capacity", "8", "--policy", "all"],
    "plan": ["plan", "--cost-model", "cost.json", "--layouts", "1x2x1,1x4x1"],
    "simulate": ["simulate", "--config", "sim.yaml", "--trace", "trace.ndjson", "--capacity", "8",
                 "--cost-model", "cost.json", "--layouts", "1x2x1,1x4x1"],
    "route": ["route", "--experts", "8", "--top-k", "2", "--tokens", "64", "--steps", "4",
              "--seed", "3"],
    "mem": ["mem", "--trace", "trace.ndjson", "--capacity", "8"],
    "reproduce": ["reproduce"],
}


def run_digests(command, directory):
    """sha256 of every file the command's run writes, run in ``directory``."""
    (directory / "sim.yaml").write_text(yaml.safe_dump({"comm_latency": 0.3, "backward_ratio": 1.7}))
    assert main(RUN_ARGVS[command] + ["--out", "out"]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((directory / "out").iterdir())}


@pytest.mark.parametrize("command", sorted(RUN_ARGVS))
def test_run_directory_bytes(command, trace_file, cost_model_file, tmp_path, monkeypatch):
    # tests/data/run_digests.json pins every output byte of every command
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OMNISCHED_SEED", raising=False)
    golden = json.loads((Path(__file__).parent / "data" / "run_digests.json").read_text())
    assert run_digests(command, tmp_path) == golden[command]


def sum_python312(iterable, /, start=0):
    """A port of CPython 3.12's ``builtin_sum_impl``: ints add exactly; once
    the sum is a float, float items add with Neumaier's compensation, which
    3.10 and 3.11 do not apply, and ints as C longs; any other item falls back
    to ``+`` for the rest."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
            else:
                result = total + item
                break
        else:
            return total + compensation if compensation and math.isfinite(compensation) else total
    for item in items:
        result = result + item
    return result


@pytest.mark.parametrize("command", sorted(RUN_ARGVS))
def test_run_directory_bytes_under_python_312_sum(command, trace_file, cost_model_file, tmp_path, monkeypatch):
    # Python 3.12's sum() compensates float rounding; the pinned bytes must
    # not depend on it. The port is checked first: ten 0.1s add to 1.0
    # under it, and one ulp short of 1.0 left to right.
    expected = 1.0 if sys.version_info >= (3, 12) else 0.9999999999999999
    assert (sum_python312([0.1] * 10), sum([0.1] * 10)) == (1.0, expected)
    monkeypatch.setattr(builtins, "sum", sum_python312)
    test_run_directory_bytes(command, trace_file, cost_model_file, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", ["config.resolved", "packing.csv"])
def test_output_file_that_is_a_directory_is_an_output_error(name, trace_file, tmp_path, capsys):
    out = tmp_path / "od"
    (out / name).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    argv = ["pack", "--trace", str(trace_file), "--capacity", "8", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])
    assert doc["kind"] == "output"
    assert doc["context"]["path"] == str(out / name)
    assert sorted(tmp_path.rglob("*")) == before  # nothing written, no temporary directory left


# simulate's cells are simulated and their timeline files written by forked
# worker processes when there are two or more usable CPUs; ``_usable_cpus`` is
# patched to force the worker count.

SIM_ARGV = ["simulate", "--config", "sim.yaml", "--trace", "trace.ndjson", "--capacity", "8",
            "--cost-model", "cost.json", "--layouts", "1x2x1,1x4x1,2x2x2"]


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each process pool started, in order."""
    import concurrent.futures

    sizes = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return sizes


@pytest.fixture
def sim_dir(trace_file, cost_model_file, tmp_path, monkeypatch):
    """The working directory of ``SIM_ARGV``: trace.ndjson, cost.json, and a
    sim.yaml whose comm_latency > 0 gives idle rows and non-integer times."""
    (tmp_path / "sim.yaml").write_text(yaml.safe_dump({"comm_latency": 0.3, "backward_ratio": 1.7}))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def sim_run(monkeypatch, workers, out="out"):
    """``simulate`` in ``sim_dir`` with ``workers`` usable CPUs."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    return main(SIM_ARGV + ["--out", out])


def assert_nothing_left(directory, before, threads):
    """No new path under ``directory``, no child process, no new thread."""
    assert sorted(directory.rglob("*")) == before
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("comm", [0.3, 0.0])
def test_pool_writes_the_one_worker_bytes(comm, sim_dir, monkeypatch, pool_sizes):
    schedules = []  # the recorded schedules, seen only where they are made: in this process with one worker
    simulate = pipeline.simulate_1f1b

    def simulate_spy(*args):
        result = simulate(*args)
        if result.op_starts:
            schedules.append(result)
        return result

    monkeypatch.setattr(pipeline, "simulate_1f1b", simulate_spy)
    (sim_dir / "sim.yaml").write_text(yaml.safe_dump({"comm_latency": comm, "backward_ratio": 1.7}))
    threads = threading.active_count()
    runs = {}
    for workers in (1, 2, 3):
        assert sim_run(monkeypatch, workers, out=f"out{workers}") == 0
        runs[workers] = {p.name: p.read_bytes() for p in sorted((sim_dir / f"out{workers}").iterdir())}
    assert pool_sizes == [2, 3]
    assert len([name for name in runs[1] if name.startswith("timeline_")]) == 3 * 3 * 2
    assert runs[2] == runs[1] and runs[3] == runs[1]
    assert multiprocessing.active_children() == [] and threading.active_count() == threads

    # with no comm latency, an op that waited on another stage starts at that
    # op's end: its start text is looked up among the formatted ends
    looked_up = 0
    assert len(schedules) == 18  # the one-worker run's cells
    for schedule in schedules:
        ends = {t for stage_ends in schedule.op_ends for t in stage_ends}
        for starts, stage_ends in zip(schedule.op_starts, schedule.op_ends):
            waited = [start for start, prev in zip(starts[1:], stage_ends) if start != prev]
            looked_up += sum(start in ends for start in waited)
        rows = timeline_rows_reference(schedule)
        assert "".join(schedule.timeline_rows()) == "".join(
            f"{s},{kind},{start!r},{end!r},{mb}\r\n" for s, kind, start, end, mb in rows)
    assert (looked_up > 0) == (comm == 0.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_memory_error_writing_timelines_is_out_of_memory(workers, sim_dir, monkeypatch, capsys, pool_sizes):
    def no_memory(result):
        raise MemoryError

    monkeypatch.setattr(pipeline.ScheduleResult, "timeline_rows", no_memory)
    before, threads = sorted(sim_dir.rglob("*")), threading.active_count()
    assert sim_run(monkeypatch, workers) == 2
    line, = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert (err["kind"], err["context"]) == ("out-of-memory", {"command": "simulate"})
    assert err["message"] == "simulate does not fit in memory"
    assert pool_sizes == ([2] if workers == 2 else [])
    assert_nothing_left(sim_dir, before, threads)


def test_failed_timeline_write_is_the_same_error_on_workers(sim_dir, monkeypatch, capsys, pool_sizes):
    write_csv = cli._write_csv

    def full_disk_for_one(path, fields, rows):
        if path.name == "timeline_1x4x1_stream_naive.csv":
            raise OSError(errno.ENOSPC, "No space left on device")
        write_csv(path, fields, rows)

    monkeypatch.setattr(cli, "_write_csv", full_disk_for_one)
    before, threads = sorted(sim_dir.rglob("*")), threading.active_count()
    errors = []
    for workers in (1, 2):
        assert sim_run(monkeypatch, workers) == 2
        line, = capsys.readouterr().err.splitlines()
        errors.append(json.loads(line))
        assert_nothing_left(sim_dir, before, threads)
    assert pool_sizes == [2]
    assert errors[0]["kind"] == "output"
    assert errors[0]["context"]["path"] == str(Path("out") / "timeline_1x4x1_stream_naive.csv")
    assert errors[1] == errors[0]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fail_pp,unwritable,kind", [
    (4, "timeline_1x2x1_padded_naive.csv", "output"),  # the write fails in an earlier cell
    (2, "timeline_1x4x1_padded_naive.csv", "invalid-spec"),  # the compute fails in an earlier cell
])
def test_first_failure_in_cell_order_wins(fail_pp, unwritable, kind, workers, sim_dir, monkeypatch, capsys,
                                          pool_sizes):
    simulate, write_csv = pipeline.simulate_1f1b, cli._write_csv

    def failing_simulate(plan, *args):
        if plan.layout.pp == fail_pp:
            raise InvalidSpecError("the schedule leaves the float range")
        return simulate(plan, *args)

    def full_disk_for_one(path, fields, rows):
        if path.name == unwritable:
            raise OSError(errno.ENOSPC, "No space left on device")
        write_csv(path, fields, rows)

    monkeypatch.setattr(pipeline, "simulate_1f1b", failing_simulate)
    monkeypatch.setattr(cli, "_write_csv", full_disk_for_one)
    before, threads = sorted(sim_dir.rglob("*")), threading.active_count()
    assert sim_run(monkeypatch, workers) == 2
    line, = capsys.readouterr().err.splitlines()
    assert json.loads(line)["kind"] == kind
    assert pool_sizes == ([2] if workers == 2 else [])
    assert_nothing_left(sim_dir, before, threads)


def test_worker_that_dies_is_a_domain_error(sim_dir, monkeypatch, capsys, pool_sizes):
    parent = os.getpid()
    timeline_rows = pipeline.ScheduleResult.timeline_rows

    def die_in_worker(result):
        if os.getpid() != parent:
            os._exit(1)
        return timeline_rows(result)

    monkeypatch.setattr(pipeline.ScheduleResult, "timeline_rows", die_in_worker)
    before, threads = sorted(sim_dir.rglob("*")), threading.active_count()
    assert sim_run(monkeypatch, 2) == 2
    line, = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert (err["kind"], err["context"]) == ("worker-died", {"command": "simulate"})
    assert pool_sizes == [2]
    assert_nothing_left(sim_dir, before, threads)


def test_parent_formats_no_timeline(sim_dir, monkeypatch, pool_sizes):
    # each cell is simulated recorded and its timeline written on a worker;
    # the parent takes back only the numbers of its comparison row
    parent, formatted, taken = os.getpid(), [], []
    timeline_rows = pipeline.ScheduleResult.timeline_rows
    comparison = cli._comparison

    def count_in_parent(result):
        formatted.append(os.getpid())
        return timeline_rows(result)

    def comparison_spy(config, trace, cell, map):
        def taking(*args):
            for result in map(*args):
                taken.append(result)
                yield result
        return comparison(config, trace, cell, taking)

    monkeypatch.setattr(pipeline.ScheduleResult, "timeline_rows", count_in_parent)
    monkeypatch.setattr(cli, "_comparison", comparison_spy)
    assert sim_run(monkeypatch, 2) == 0
    assert pool_sizes == [2]
    assert formatted.count(parent) == 0
    assert len(taken) == 18 and all(result.op_starts == () == result.op_ends for result in taken)
    assert len(list((sim_dir / "out").glob("timeline_*.csv"))) == 18


# reproduce computes its packing report, allocator rows and cells on forked
# workers once its cells' summed pp * m reaches cli._FORK_CELL_WORK; patching
# that to 0 and _usable_cpus forces the worker count on the shipped scenario.

def rep_run(monkeypatch, workers, scenario=None, out="out"):
    """``reproduce`` in the working directory with ``workers`` usable CPUs and
    forking forced, on the shipped scenario changed by ``scenario``."""
    monkeypatch.setattr(cli, "_FORK_CELL_WORK", 0)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    argv = ["reproduce", "--out", out]
    if scenario is not None:
        Path("scenario.yaml").write_text(yaml.safe_dump({**reproduce_scenario_doc(), **scenario}))
        argv += ["--scenario", "scenario.yaml"]
    return main(argv)


def test_reproduce_bytes_do_not_depend_on_the_worker_count(sim_dir, monkeypatch, pool_sizes):
    threads = threading.active_count()
    runs = {}
    for workers in (1, 2, 3):
        assert rep_run(monkeypatch, workers, out=f"out{workers}") == 0
        runs[workers] = {p.name: p.read_bytes() for p in sorted((sim_dir / f"out{workers}").iterdir())}
    assert pool_sizes == [2, 3]
    assert len(runs[1]) == 5 and runs[2] == runs[1] and runs[3] == runs[1]
    assert multiprocessing.active_children() == [] and threading.active_count() == threads


def test_shipped_reproduce_starts_no_pool_on_two_cpus(sim_dir, monkeypatch, pool_sizes):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert main(["reproduce", "--out", "out"]) == 0
    assert pool_sizes == []


@pytest.mark.parametrize("scenario,kind", [
    ({"backward_ratio": 1.0e308}, "invalid-spec"),  # a cell's schedule leaves the float range, on a worker
    ({"capacity": 64}, "oversize-sample"),  # in the workers' packings and the parent's
], ids=["float-range", "oversize-sample"])
def test_error_on_a_worker_is_the_one_process_error(scenario, kind, sim_dir, monkeypatch, capsys, pool_sizes):
    before, threads = sorted(sim_dir.rglob("*")), threading.active_count()
    errors = []
    for workers in (1, 2):
        assert rep_run(monkeypatch, workers, scenario) == 2
        line, = capsys.readouterr().err.splitlines()
        errors.append(json.loads(line))
        (sim_dir / "scenario.yaml").unlink()
        assert_nothing_left(sim_dir, before, threads)
    assert pool_sizes == [2]
    assert errors[0]["kind"] == kind
    assert errors[1] == errors[0]


def test_memory_error_on_a_reproduce_worker_is_out_of_memory(sim_dir, monkeypatch, capsys, pool_sizes):
    parent = os.getpid()
    simulate_allocator = memsim.simulate_allocator

    def no_memory_in_worker(*args):
        if os.getpid() != parent:
            raise MemoryError
        return simulate_allocator(*args)

    monkeypatch.setattr(memsim, "simulate_allocator", no_memory_in_worker)
    before, threads = sorted(sim_dir.rglob("*")), threading.active_count()
    assert rep_run(monkeypatch, 2) == 2
    line, = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"kind": "out-of-memory", "message": "reproduce does not fit in memory",
                                "context": {"command": "reproduce"}}
    assert pool_sizes == [2]
    assert_nothing_left(sim_dir, before, threads)


def test_reproduce_worker_that_dies_is_a_domain_error(sim_dir, monkeypatch, capsys, pool_sizes):
    parent = os.getpid()
    left_sum = pipeline.left_sum

    def die_in_worker(values):  # simulate_1f1b's last step
        if os.getpid() != parent:
            os._exit(1)
        return left_sum(values)

    monkeypatch.setattr(pipeline, "left_sum", die_in_worker)
    before, threads = sorted(sim_dir.rglob("*")), threading.active_count()
    assert rep_run(monkeypatch, 2) == 2
    line, = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert (err["kind"], err["context"]) == ("worker-died", {"command": "reproduce"})
    assert "`worker-died`" in (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    assert pool_sizes == [2]
    assert_nothing_left(sim_dir, before, threads)


def error_classes(cls=OmniSchedError):
    return [cls] + [sub for child in cls.__subclasses__() for sub in error_classes(child)]


@pytest.mark.parametrize("cls", error_classes(), ids=lambda cls: cls.__name__)
def test_errors_survive_pickling(cls):
    # a worker's error reaches the parent pickled
    error = cls("a message", path="out", positions=[1, 2])
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert (copy.kind, copy.message, copy.context) == (cls.kind, "a message", {"path": "out", "positions": [1, 2]})
    assert copy.to_dict() == error.to_dict()


@pytest.mark.parametrize("command,workers", [("reproduce", 1), ("simulate", 1), ("simulate", 2)])
def test_failed_call_into_a_new_out_leaves_nothing(command, workers, sim_dir, monkeypatch, capsys):
    # fail the k-th os.mkdir (mkdtemp's too), os.rename or os.replace of a
    # clean run into a new nested out, for every k of that run
    calls, fail_at = [], [0]

    def failing(real):
        def call(*args, **kwargs):
            calls.append(real.__name__)
            if len(calls) == fail_at[0]:
                raise OSError(errno.EIO, "Input/output error")
            return real(*args, **kwargs)
        return call

    for name in ("mkdir", "rename", "replace"):
        monkeypatch.setattr(os, name, failing(getattr(os, name)))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
    argv = ["reproduce"] if command == "reproduce" else SIM_ARGV
    assert main(argv + ["--out", "clean/a/run"]) == 0
    clean = list(calls)
    assert clean.count("rename") == 1 and clean.count("replace") == 0
    before, threads = sorted(sim_dir.rglob("*")), threading.active_count()
    for k in range(1, len(clean) + 1):
        calls.clear()
        fail_at[0] = k
        assert main(argv + ["--out", "new/a/run"]) == 2
        line, = capsys.readouterr().err.splitlines()
        assert json.loads(line)["kind"] == "output"
        assert_nothing_left(sim_dir, before, threads)


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_timeline_open_or_write_into_a_new_out_leaves_nothing(workers, sim_dir, monkeypatch, capsys):
    # fail the k-th open, write or writelines of a timeline file, counted
    # across the forked workers, for every k of a clean run into a new nested out
    count, fail_at = multiprocessing.Value("i", 0), [0]

    def tick():
        with count.get_lock():
            count.value += 1
            if count.value == fail_at[0]:
                raise OSError(errno.ENOSPC, "No space left on device")

    class FailingFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            tick()
            return self.fh.write(text)

        def writelines(self, lines):
            tick()
            return self.fh.writelines(lines)

    real_open = Path.open

    def failing_open(path, *args, **kwargs):
        if not path.name.startswith("timeline_"):
            return real_open(path, *args, **kwargs)
        tick()
        return FailingFile(real_open(path, *args, **kwargs))

    monkeypatch.setattr(Path, "open", failing_open)
    assert sim_run(monkeypatch, workers, out="clean/a/run") == 0
    clean = count.value
    assert clean == 18 * 3  # per timeline: the open, the header's write, the lines' writelines
    before, threads = sorted(sim_dir.rglob("*")), threading.active_count()
    for k in range(1, clean + 1):
        count.value, fail_at[0] = 0, k
        assert sim_run(monkeypatch, workers, out="new/a/run") == 2
        line, = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["kind"] == "output"
        assert err["context"]["path"].startswith(str(Path("new/a/run/timeline_")))
        assert_nothing_left(sim_dir, before, threads)


def test_new_out_has_the_mode_mkdir_gives(sim_dir):
    assert main(["reproduce", "--out", "new/run"]) == 0
    (sim_dir / "probe").mkdir()
    mode = (sim_dir / "probe").stat().st_mode & 0o777
    assert (sim_dir / "new" / "run").stat().st_mode & 0o777 == mode
    assert (sim_dir / "new").stat().st_mode & 0o777 == mode


def test_default_offsets_out_of_memory_message_ends_in_the_command(tmp_path, capsys):
    # the failed list allocation raises a MemoryError with no text
    out = tmp_path / "out"
    argv = ["route", "--experts", "576460752303423488", "--top-k", "1", "--tokens", "1", "--steps", "1"]
    assert main(argv + ["--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"kind": "out-of-memory", "message": "route does not fit in memory",
                   "context": {"command": "route"}}
    assert not out.exists()
