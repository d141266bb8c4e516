"""The config reader: golden ``config.resolved`` bytes, key-path errors,
and a fuzz test of the CLI's input boundary."""

import argparse
import contextlib
import io
import json
import math
import shutil
from functools import partial
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from omnisched import cli
from omnisched.errors import InvalidSpecError
from omnisched.moe import GaussianLogitSource, RouterConfig
from omnisched.workload import LogNormalLength, Modality, SyntheticTraceSpec, UniformLength

DATA = Path(__file__).parent / "data"

# Cost model file with integer costs and one encoder without tp_divisible:
# config.resolved records floats and the default flags.
COST_MODEL = {
    "encoders": [
        {"modality": "image", "unit_costs": [1, 2.5], "tp_divisible": [False, True]},
        {"modality": "text", "unit_costs": [0.5]},
    ],
    "llm_layer_costs": [1, 1.5, 1.0, 2],
}

# A config whose values are overridden by flags in places, and whose
# integer-valued numbers are recorded as floats.
FLAGGED_CONFIG = """\
name: flagged
seed: 11
trace: {path: ./trace.ndjson}
cost_model: cost.json
capacity: 64
backward_ratio: 3
comm_latency: 0.25
layouts: [1x8x1]
packing_policies: [ffd, padded]
plan_policies: [balanced]
router:
  num_experts: 8
  top_k: 2
  mean_offsets: [0.5, 0, 0, -0.5]
  logit_std: 2
  seed: 5
memsim:
  bytes_per_token: 2
  round_to: 16
output_dir: somewhere
"""

# Flags of three subcommands, parsed as each would be: together they set the
# layouts and values in the router and memsim sections.
FLAG_ARGVS = [
    ["simulate", "--layouts", "1x2x1,1x4x1"],
    ["route", "--experts", "4", "--top-k", "1", "--aux-coef", "0.5", "--bias-step", "0.125",
     "--tokens", "64", "--steps", "3"],
    ["mem", "--bytes-per-token", "4", "--allocator", "no_cache"],
]


def flagged_resolved(tmp_path, monkeypatch) -> bytes:
    """config.resolved for FLAGGED_CONFIG and the FLAG_ARGVS flags, run in ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cost.json").write_text(json.dumps(COST_MODEL))
    (tmp_path / "cfg.yaml").write_text(FLAGGED_CONFIG)
    flags = {}
    for argv in FLAG_ARGVS:
        flags.update(vars(cli._build_parser().parse_args(argv + ["--config", "cfg.yaml"])))
    config = cli._config_from_args(argparse.Namespace(**flags))
    with cli._staging(Path("out")) as run:
        cli._write_run(config, run, Path("out"), [])
    return (tmp_path / "out" / "config.resolved").read_bytes()


# Only a synthetic trace: every other value, and the synthetic name and
# seed, come from the defaults.
DEFAULTS_CONFIG = """\
trace:
  synthetic:
    sample_count: 8
    mixture: {text: 1, image: 0}
    lengths:
      text: {kind: uniform, low: 1, high: 9}
"""


def defaults_resolved(tmp_path, monkeypatch) -> bytes:
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OMNISCHED_SEED", raising=False)
    (tmp_path / "cfg.yaml").write_text(DEFAULTS_CONFIG)
    with cli._staging(Path("out")) as run:
        cli._write_run(cli._config_from_args(argparse.Namespace(config="cfg.yaml")), run, Path("out"), [])
    return (tmp_path / "out" / "config.resolved").read_bytes()


def test_shipped_scenario_resolved_bytes(tmp_path):
    out = tmp_path / "rep"
    assert cli.main(["reproduce", "--out", str(out)]) == 0
    assert (out / "config.resolved").read_bytes() == (DATA / "reproduce.resolved").read_bytes()


def test_flagged_config_resolved_bytes(tmp_path, monkeypatch):
    assert flagged_resolved(tmp_path, monkeypatch) == (DATA / "flagged.resolved").read_bytes()


def test_defaults_resolved_bytes(tmp_path, monkeypatch):
    assert defaults_resolved(tmp_path, monkeypatch) == (DATA / "defaults.resolved").read_bytes()


SYNTHETIC = "trace: {synthetic: {sample_count: 8, mixture: {text: %s}, lengths: {text: %s}}}"


@pytest.mark.parametrize("text,key", [
    ("capacty: 10", "capacty"),
    ("layouts: 5", "layouts"),
    ("packing_policies: 5", "packing_policies"),
    ("backward_ratio: abc", "backward_ratio"),
    ("backward_ratio: .nan", "backward_ratio"),
    ("backward_ratio: .inf", "backward_ratio"),
    ("comm_latency: -1", "comm_latency"),
    ("seed: 1.5", "seed"),
    ("output_dir: 5", "output_dir"),
    ("output_dir: ''", "output_dir"),
    ("router: 5", "router"),
    ("router: {top_k: 2.7}", "router.top_k"),
    ("router: {num_exprts: 4}", "router.num_exprts"),
    ("router: {logit_std: .nan}", "router.logit_std"),
    ("router: {steps: 0}", "router.steps"),
    ("router: {num_experts: 2, mean_offsets: [0, -.inf]}", "router.mean_offsets[1]"),
    ("memsim: {round_to: 0}", "memsim.round_to"),
    ("memsim: {bytes_per_token: abc}", "memsim.bytes_per_token"),
    ("cost_model: {encoders: 5, llm_layer_costs: [1]}", "cost_model.encoders"),
    ("cost_model: {encoders: [{modality: text, unit_costs: [1], tp_divsible: [true]}],"
     " llm_layer_costs: [1]}", "cost_model.encoders[0].tp_divsible"),
    (SYNTHETIC % (".nan", "{kind: uniform, low: 1, high: 4}"), "trace.synthetic.mixture.text"),
    (SYNTHETIC % ("1", "{kind: lognormal, mu: .nan, sigma: 1, max_len: 8}"),
     "trace.synthetic.lengths.text.mu"),
    # a repeat, compared as read: 1X2X1 is the layout 1x2x1
    ("layouts: [1x2x1, 1x4x1, 1X2X1]", "layouts[2]"),
    ("packing_policies: [ffd, stream, ffd]", "packing_policies[2]"),
    ("plan_policies: [balanced, balanced]", "plan_policies[1]"),
    # a degree below 1, and a top_k with no expert left unselected
    ("layouts: [1x2x1, 1x0x1]", "layouts[1]"),
    ("router: {num_experts: 4, top_k: 4, mean_offsets: [0, 0, 0, 0]}", "router.top_k"),
    # sizes numpy cannot shape a step's draw for: tokens_per_step * num_experts * 8 >= 2**63
    ("router: {num_experts: 18446744073709551616}", "router.num_experts"),
    ("router: {tokens_per_step: 1152921504606846976}", "router.tokens_per_step"),
    # a run holds (steps, num_experts) float64 columns: steps * num_experts * 8 >= 2**63
    ("router: {steps: 4611686018427387904}", "router.steps"),
    # a degree a float cannot hold
    ("layouts: [1x1x1, 1x1x9223372036854775808]", "layouts[1]"),
    # synthetic traces: bounds, weights and lengths the spec would reject
    (SYNTHETIC % ("1", "{kind: uniform, low: 5, high: 2}"), "trace.synthetic.lengths.text.high"),
    (SYNTHETIC % ("1", "{kind: uniform, low: 1, high: 9223372036854775808}"),
     "trace.synthetic.lengths.text.high"),
    (SYNTHETIC % ("0", "{kind: uniform, low: 1, high: 4}"), "trace.synthetic.mixture"),
    ("trace: {synthetic: {sample_count: 8, mixture: {text: 1.0e+308, image: 1.0e+308},"
     " lengths: {text: {kind: uniform, low: 1, high: 4}, image: {kind: uniform, low: 1, high: 4}}}}",
     "trace.synthetic.mixture"),
    ("trace: {synthetic: {sample_count: 8, mixture: {text: 1},"
     " lengths: {image: {kind: uniform, low: 1, high: 4}}}}", "trace.synthetic.lengths.text"),
    # ranges the library constructors check, re-keyed by the config reader
    ("router: {num_experts: 0}", "router.num_experts"),
    ("router: {num_experts: 1}", "router.num_experts"),
    ("router: {num_experts: -1180591620717411303424}", "router.num_experts"),
    ("router: {top_k: 0}", "router.top_k"),
    ("router: {aux_coefficient: -1}", "router.aux_coefficient"),
    ("router: {bias_step: -0.5}", "router.bias_step"),
    ("router: {logit_std: 0}", "router.logit_std"),
    ("trace: {synthetic: {sample_count: 0, mixture: {text: 1},"
     " lengths: {text: {kind: uniform, low: 1, high: 4}}}}", "trace.synthetic.sample_count"),
    (SYNTHETIC % ("-1", "{kind: uniform, low: 1, high: 4}"), "trace.synthetic.mixture.text"),
    (SYNTHETIC % ("1", "{kind: uniform, low: 0, high: 4}"), "trace.synthetic.lengths.text.low"),
    (SYNTHETIC % ("1", "{kind: lognormal, mu: 0, sigma: -1, max_len: 8}"),
     "trace.synthetic.lengths.text.sigma"),
    (SYNTHETIC % ("1", "{kind: lognormal, mu: 0, sigma: 1, max_len: 0}"),
     "trace.synthetic.lengths.text.max_len"),
])
def test_bad_value_names_its_key(text, key, tmp_path, capsys):
    (tmp_path / "cfg.yaml").write_text(text + "\n")
    out = tmp_path / "out"
    assert cli.main(["route", "--config", str(tmp_path / "cfg.yaml"), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["kind"], err["context"]["key"]) == ("invalid-config", key)
    assert not out.exists()


def test_signed_zero_reads_as_zero(tmp_path):
    # -0.0 passes each key's >= 0 rule; as a lognormal sigma it reached numpy,
    # which takes it for a scale below 0
    doc = yaml.safe_load((Path(cli.__file__).parent / "data" / "reproduce.yaml").read_text())
    doc["trace"]["synthetic"]["lengths"]["text"]["sigma"] = -0.0
    doc["trace"]["synthetic"]["mixture"]["audio"] = -0.0
    doc["comm_latency"] = -0.0
    doc["router"].update(aux_coefficient=-0.0, bias_step=-0.0)
    (tmp_path / "scenario.yaml").write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert cli.main(["reproduce", "--scenario", str(tmp_path / "scenario.yaml"), "--out", str(out)]) == 0
    resolved = yaml.safe_load((out / "config.resolved").read_text())
    zeros = [resolved["trace"]["synthetic"]["lengths"]["text"]["sigma"],
             resolved["trace"]["synthetic"]["mixture"]["audio"], resolved["comm_latency"],
             resolved["router"]["aux_coefficient"], resolved["router"]["bias_step"]]
    assert [math.copysign(1.0, z) for z in zeros] == [1.0] * 5 and not any(zeros)


def test_range_error_is_reported_in_the_config_words(tmp_path, capsys):
    # the library says std where the config says logit_std
    (tmp_path / "cfg.yaml").write_text("router: {logit_std: 0}\n")
    assert cli.main(["route", "--config", str(tmp_path / "cfg.yaml"), "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "router.logit_std: std must be finite and > 0, got 0.0"


UNIFORM = UniformLength(1, 4)


# Each range rule of the objects the config reader builds names the field it
# rejects, in the library's own names; the reader re-keys it.
@pytest.mark.parametrize("make,field", [
    (partial(RouterConfig, 1, 1), "num_experts"),
    (partial(RouterConfig, 8, 0), "top_k"),
    (partial(RouterConfig, 8, 8), "top_k"),
    (partial(RouterConfig, 8, 2, aux_coefficient=-1.0), "aux_coefficient"),
    (partial(RouterConfig, 8, 2, aux_coefficient=math.inf), "aux_coefficient"),
    (partial(RouterConfig, 8, 2, bias_step=-0.5), "bias_step"),
    (partial(GaussianLogitSource, [[0.0, 1.0]], 0), "mean_offsets"),
    (partial(GaussianLogitSource, [0.0, math.nan], 0), "mean_offsets"),
    (partial(GaussianLogitSource, [0.0, 1.0], 0, std=0.0), "std"),
    (partial(UniformLength, 0, 4), "low"),
    (partial(UniformLength, 2**63, 2**63), "low"),
    (partial(UniformLength, 5, 2), "high"),
    (partial(UniformLength, 1, 2**63), "high"),
    (partial(LogNormalLength, math.nan, 1.0, 8), "mu"),
    (partial(LogNormalLength, 0.0, -1.0, 8), "sigma"),
    (partial(LogNormalLength, 0.0, math.inf, 8), "sigma"),
    (partial(LogNormalLength, 0.0, 1.0, 0), "max_len"),
    (partial(SyntheticTraceSpec, {Modality.TEXT: 1.0}, {Modality.TEXT: UNIFORM}, 0, 0), "sample_count"),
    (partial(SyntheticTraceSpec, {}, {}, 8, 0), "weights"),
    (partial(SyntheticTraceSpec, {Modality.TEXT: -1.0}, {Modality.TEXT: UNIFORM}, 8, 0), "weights.text"),
    (partial(SyntheticTraceSpec, {Modality.TEXT: 0.0}, {Modality.TEXT: UNIFORM}, 8, 0), "weights"),
    (partial(SyntheticTraceSpec, {Modality.TEXT: 1e308, Modality.IMAGE: 1e308},
             {Modality.TEXT: UNIFORM, Modality.IMAGE: UNIFORM}, 8, 0), "weights"),
    (partial(SyntheticTraceSpec, {Modality.TEXT: 1.0, Modality.AUDIO: 0.0}, {}, 8, 0), "lengths.text"),
])
def test_constructor_range_error_names_its_field(make, field):
    with pytest.raises(InvalidSpecError) as exc:
        make()
    assert exc.value.context["field"] == field


def test_cost_model_file_is_read_like_an_inline_one(tmp_path, capsys):
    doc = {"encoders": [{"modality": "text", "unit_costs": [1], "tp_divsible": [True]}],
           "llm_layer_costs": [1, 1]}
    (tmp_path / "cost.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = ["plan", "--cost-model", str(tmp_path / "cost.json"), "--layouts", "1x2x1"]
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["context"]["key"] == "cost_model.encoders[0].tp_divsible"
    assert not out.exists()


# A key written twice in one mapping is an error, not its last value: in a
# config file, a scenario, an inline cost model or a cost-model file.
@pytest.mark.parametrize("name,text,argv,key", [
    ("cfg.yaml", "capacity: 64\ncapacity: 4096\n", ["pack", "--config"], "capacity"),
    ("cfg.yaml", "cost_model:\n  encoders: []\n  llm_layer_costs: [1, 1]\n  llm_layer_costs: [2, 2]\n",
     ["plan", "--config"], "llm_layer_costs"),
    ("scenario.yaml", "name: a\nrouter: {top_k: 1, top_k: 2}\n", ["reproduce", "--scenario"], "top_k"),
    ("cost.json", '{"encoders": [], "llm_layer_costs": [1, 1], "llm_layer_costs": [2, 2]}',
     ["plan", "--cost-model"], "llm_layer_costs"),
], ids=["config", "inline-cost-model", "scenario", "cost-model-file"])
def test_duplicate_key_is_a_config_error(name, text, argv, key, tmp_path, capsys):
    (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    assert cli.main(argv + [str(tmp_path / name), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "invalid-config"
    assert "duplicate " in err["message"] and repr(key) in err["message"]
    assert err["context"]["path"] == str(tmp_path / name)
    assert not out.exists()


def test_merge_key_may_be_overridden(tmp_path):
    # a key written once overrides the one a << merge brings, as YAML says
    (tmp_path / "cfg.yaml").write_text(
        "router:\n  <<: [{top_k: 3, steps: 2}, {top_k: 1, num_experts: 4, tokens_per_step: 16}]\n"
        "  mean_offsets: [0, 0, 0, 0]\n  top_k: 2\n")
    out = tmp_path / "out"
    assert cli.main(["route", "--config", str(tmp_path / "cfg.yaml"), "--out", str(out)]) == 0
    router = yaml.safe_load((out / "config.resolved").read_text())["router"]
    assert (router["num_experts"], router["top_k"], router["steps"]) == (4, 2, 2)


def test_flags_merge_into_the_document(tmp_path):
    (tmp_path / "cfg.yaml").write_text("router: {num_experts: 4, mean_offsets: [0, 0, 0, 0]}\n")
    out = tmp_path / "out"
    assert cli.main(["route", "--config", str(tmp_path / "cfg.yaml"), "--top-k", "3",
                     "--tokens", "16", "--steps", "2", "--out", str(out)]) == 0
    router = yaml.safe_load((out / "config.resolved").read_text())["router"]
    assert (router["num_experts"], router["top_k"], router["steps"]) == (4, 3, 2)


# Fuzz: random config documents and NDJSON traces either run, or exit 2 with a
# one-line JSON error and no output directory.

def rarely(other, strategy):
    """``strategy``, or about one time in sixteen ``other``."""
    # hypothesis favours the ends of a range, so ``other`` takes a middle value
    return st.integers(0, 15).flatmap(lambda i: other if i == 7 else strategy)


# 1e308 and 1e-320 are valid numbers whose products and sums leave the float range
NUMBERS = rarely(
    st.sampled_from([math.nan, math.inf, -math.inf, -1, -0.5, -0.0, 1e308, 1e-320, 2**64 + 1]),
    st.one_of(st.floats(0, 1e2), st.integers(0, 5)),
)
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), NUMBERS, st.text(max_size=4),
    st.lists(st.integers(-1, 3), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
MODALITY_NAMES = rarely(st.just("smell"), st.sampled_from(["text", "image", "audio", "video"]))


def maybe(strategy):
    """``strategy``, or rarely a value of the wrong type or range."""
    return rarely(JUNK, strategy)


def mapping(required=None, **optional):
    """A dict with the ``required`` keys and some of the ``optional`` ones,
    rarely with an unknown key, rarely not a dict at all."""
    required = required or {}
    return maybe(rarely(
        st.fixed_dictionaries({**required, "bogus": JUNK}, optional=optional),
        st.fixed_dictionaries(required, optional=optional),
    ))


LENGTH = st.one_of(
    mapping({"kind": st.just("uniform"), "low": maybe(st.integers(1, 8)), "high": maybe(st.integers(1, 8))}),
    mapping({"kind": maybe(st.just("lognormal")), "mu": maybe(NUMBERS), "sigma": maybe(NUMBERS),
             "max_len": maybe(st.integers(1, 10))}),
)
SYNTHETIC_TRACE = mapping(
    {
        "sample_count": maybe(st.integers(1, 8)),
        "mixture": maybe(st.dictionaries(MODALITY_NAMES, maybe(NUMBERS), max_size=3)),
        "lengths": maybe(st.dictionaries(MODALITY_NAMES, LENGTH, max_size=3)),
    },
    name=maybe(st.text(max_size=3)),
    seed=maybe(st.integers(0, 2**40)),
)
ENCODER = mapping(
    {"modality": maybe(MODALITY_NAMES),
     "unit_costs": maybe(st.lists(maybe(NUMBERS), min_size=1, max_size=3))},
    tp_divisible=maybe(st.lists(maybe(st.booleans()), max_size=3)),
)
COST_MODELS = st.one_of(
    rarely(st.just("missing.json"), st.just("cost.json")),
    mapping({"encoders": maybe(st.lists(ENCODER, max_size=2)),
             "llm_layer_costs": maybe(st.lists(maybe(NUMBERS), min_size=1, max_size=4))}),
)
LAYOUTS = st.sampled_from(["1x1x1", "1x2x1", "2x1x2", "1x0x1", "1x64x1", "1x2", "ax1x1"])
CONFIG = mapping(
    {
        "trace": st.one_of(
            mapping({"path": maybe(rarely(st.just("missing.ndjson"), st.just("trace.ndjson")))}),
            mapping({"synthetic": SYNTHETIC_TRACE}),
        ),
        "cost_model": maybe(COST_MODELS),
        # required, so that no run routes the default 4096 tokens x 200 steps
        "router": mapping(
            {"tokens_per_step": maybe(st.integers(1, 64)), "steps": maybe(st.integers(1, 3))},
            num_experts=maybe(st.integers(2, 6)), top_k=maybe(st.integers(1, 5)),
            aux_coefficient=maybe(NUMBERS), bias_step=maybe(NUMBERS),
            mean_offsets=maybe(st.lists(maybe(NUMBERS), max_size=6)), logit_std=maybe(NUMBERS),
            seed=maybe(st.integers(0, 2**40)),
        ),
    },
    name=maybe(st.text(max_size=3)),
    seed=maybe(st.integers(0, 2**40)),
    capacity=maybe(rarely(st.just(2**1100), st.integers(1, 16))),
    backward_ratio=maybe(NUMBERS),
    comm_latency=maybe(NUMBERS),
    layouts=maybe(st.lists(maybe(LAYOUTS), min_size=1, max_size=2)),
    packing_policies=maybe(st.lists(st.sampled_from(["padded", "stream", "ffd", "bogus"]), min_size=1, max_size=3)),
    plan_policies=maybe(st.lists(st.sampled_from(["naive", "balanced", "bogus"]), min_size=1, max_size=2)),
    memsim=mapping(
        bytes_per_token=maybe(st.integers(1, 4)), round_to=maybe(st.integers(1, 64)),
        allocator=maybe(st.sampled_from(["exact_reuse_cache", "no_cache", "buddy"])),
    ),
    output_dir=maybe(st.just("elsewhere")),
)
RECORD = mapping(
    id=maybe(st.integers(0, 8)),
    modality=maybe(MODALITY_NAMES),
    length=maybe(st.integers(1, 20)),
)
# a length past Python's 4,300-digit limit on int conversion
HUGE_LENGTH = '{"id": 9, "modality": "text", "length": 1' + "0" * 4999 + "}"
TRACE_LINE = st.one_of(RECORD.map(json.dumps), st.sampled_from(["", "# comment", "{", "[1,", HUGE_LENGTH]))


# --out targets: new, nested and new, an existing file, a path through a file,
# and a directory that holds a directory named like an output file
OUT_TARGETS = ["out", "new/a/out", "afile", "afile/out", "od"]


def make_out_targets(work):
    (work / "afile").write_text("keep\n")
    (work / "od" / "summary.json").mkdir(parents=True)
    (work / "od" / "keep").write_text("keep\n")


def tree(root):
    """Every path under ``root``, with its bytes (None for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def run_ok_or_exit_2(argv, work, target):
    """Run ``argv`` with ``--out work/target``: exit 0, or exit 2 with one JSON
    line on stderr and no new or changed file under ``work``."""
    out = work / target
    before = tree(work)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv + ["--out", str(out)])
    if rc == 0:
        assert out.is_dir()
        shutil.rmtree(work / Path(target).parts[0])
    else:
        assert rc == 2, err.getvalue()
        line, = err.getvalue().splitlines()
        assert set(json.loads(line)) == {"kind", "message", "context"}
    assert tree(work) == before


TRACE = "".join(
    json.dumps({"id": i, "modality": "text", "length": n}) + "\n"
    for i, n in enumerate([7, 5, 4, 3, 1, 8, 2, 6])
)


@settings(max_examples=50, deadline=None)
@given(doc=CONFIG, target=st.sampled_from(OUT_TARGETS))
def test_fuzz_config_documents(doc, target, tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    make_out_targets(work)
    (work / "trace.ndjson").write_text(TRACE)
    (work / "cost.json").write_text(json.dumps(COST_MODEL))
    (work / "cfg.yaml").write_text(yaml.safe_dump(doc))
    with contextlib.chdir(work):
        for command in ("pack", "plan", "simulate", "route", "mem"):
            run_ok_or_exit_2([command, "--config", "cfg.yaml"], work, target)
        run_ok_or_exit_2(["reproduce", "--scenario", "cfg.yaml"], work, target)


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(TRACE_LINE, max_size=8), target=st.sampled_from(OUT_TARGETS))
def test_fuzz_trace_lines(lines, target, tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    make_out_targets(work)
    (work / "trace.ndjson").write_text("\n".join(lines) + "\n")
    run_ok_or_exit_2(["pack", "--trace", str(work / "trace.ndjson"), "--capacity", "8"], work, target)
