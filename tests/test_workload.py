import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omnisched import workload
from omnisched.errors import (
    DuplicateIdError,
    EmptyTraceError,
    InvalidSpecError,
    OmniSchedError,
    TraceNotFoundError,
    TraceParseError,
)
from omnisched.workload import (
    LogNormalLength,
    Modality,
    SyntheticTraceSpec,
    UniformLength,
    WorkloadTrace,
    dump_trace,
    generate_trace,
    load_trace,
    save_trace,
    trace_stats,
)

from oracles import TraceErrorReference, generate_trace_reference, load_trace_reference


def make_spec(weights, lengths, count, seed):
    return SyntheticTraceSpec(weights=weights, lengths=lengths, sample_count=count, seed=seed)


class TestLoadTrace:
    def test_bytes_that_are_not_utf8_fail_their_line(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_bytes(b'{"id": 0, "modality": "text", "length": 5}\n\xff{"id": 1}\n')
        with pytest.raises(TraceParseError) as exc:
            load_trace(p)
        assert exc.value.context["line"] == 2

    @pytest.mark.parametrize("line", [
        '{"id": 0, "modality": "text", "length": 1' + "0" * 4999 + "}",  # 5,000 digits
        "[" * 100_000 + "]" * 100_000,
    ], ids=["5000-digit-length", "deep-nesting"])
    def test_json_past_python_limits_fails_its_line(self, tmp_path, line):
        p = tmp_path / "t.ndjson"
        p.write_text('{"id": 0, "modality": "text", "length": 5}\n' + line + "\n")
        with pytest.raises(TraceParseError) as exc:
            load_trace(p)
        assert exc.value.context["line"] == 2

    def test_three_records_in_order(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text(
            '# comment\n'
            '{"id": 3, "modality": "text", "length": 10}\n'
            '{"id": 1, "modality": "video", "length": 64}\n'
            '\n'
            '{"id": 2, "modality": "audio", "length": 7}\n'
        )
        trace = load_trace(p)
        assert trace.ids == (3, 1, 2)
        assert trace.modalities[1] is Modality.VIDEO
        assert trace.lengths == (10, 64, 7)

    def test_duplicate_id_names_offender(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text(
            '{"id": 1, "modality": "text", "length": 5}\n'
            '{"id": 7, "modality": "text", "length": 5}\n'
            '{"id": 2, "modality": "text", "length": 5}\n'
            '{"id": 3, "modality": "text", "length": 5}\n'
            '{"id": 7, "modality": "audio", "length": 9}\n'
        )
        with pytest.raises(DuplicateIdError) as exc:
            load_trace(p)
        assert exc.value.context["sample_id"] == 7
        assert exc.value.context["lines"] == [2, 5]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text("# only comments\n\n")
        with pytest.raises(EmptyTraceError):
            load_trace(p)

    @pytest.mark.parametrize("record, field", [
        ('{"id": 0, "modality": "text", "length": 3, "length": 900}', "length"),
        ('{"id": 0, "id": 1, "modality": "text", "length": 3}', "id"),
    ])
    def test_repeated_field_fails_its_line(self, tmp_path, record, field):
        p = tmp_path / "t.ndjson"
        p.write_text('{"id": 5, "modality": "text", "length": 5}\n' + record + "\n")
        with pytest.raises(TraceParseError) as exc:
            load_trace(p)
        assert exc.value.context["line"] == 2
        assert f"duplicate field {field!r}" in str(exc.value)

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text('{"id": 1, "modality": "text", "length": 5}\nnot json\n')
        with pytest.raises(TraceParseError) as exc:
            load_trace(p)
        assert exc.value.context["line"] == 2

    def test_unknown_modality_rejected(self, tmp_path):
        p = tmp_path / "t.ndjson"
        p.write_text('{"id": 1, "modality": "smell", "length": 5}\n')
        with pytest.raises(TraceParseError):
            load_trace(p)

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "t.ndjson"
        # cost_per_token is no field: no simulator read it
        for field in ("extra", "cost_per_token"):
            p.write_text(f'{{"id": 1, "modality": "text", "length": 5, "{field}": 1}}\n')
            with pytest.raises(TraceParseError) as exc:
                load_trace(p)
            assert exc.value.context["fields"] == [field]

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceNotFoundError):
            load_trace(tmp_path / "nope.ndjson")

    def test_round_trip(self, tmp_path):
        spec = make_spec(
            {Modality.TEXT: 2.0, Modality.IMAGE: 1.0},
            {Modality.TEXT: UniformLength(1, 50), Modality.IMAGE: LogNormalLength(3.0, 0.5, 100)},
            count=40,
            seed=9,
        )
        trace = generate_trace(spec)
        p = tmp_path / "t.ndjson"
        save_trace(trace, p)
        loaded = load_trace(p)
        assert columns(loaded) == columns(trace)
        # canonical serialization is a fixed point
        assert dump_trace(loaded) == p.read_text()


def columns(trace):
    return trace.ids, trace.modalities, trace.lengths


@st.composite
def drawn_traces(draw):
    ids = draw(st.lists(st.integers(min_value=-2**70, max_value=2**70), unique=True, max_size=40))
    modalities = draw(st.lists(st.sampled_from(list(Modality)), min_size=len(ids), max_size=len(ids)))
    lengths = draw(st.lists(st.integers(min_value=1, max_value=2**70), min_size=len(ids), max_size=len(ids)))
    return WorkloadTrace(ids, modalities, lengths)


@given(drawn_traces())
@settings(max_examples=200, deadline=None)
def test_round_trip_over_drawn_columns(tmp_path_factory, trace):
    p = tmp_path_factory.mktemp("rt") / "t.ndjson"
    save_trace(trace, p)
    if not len(trace):
        with pytest.raises(EmptyTraceError):
            load_trace(p)
        return
    loaded = load_trace(p)
    assert columns(loaded) == columns(trace)
    assert dump_trace(loaded) == dump_trace(trace) == p.read_text()


FIELDS = ("id", "modality", "length")
BAD_VALUES = {
    "id": [b"NaN", b"Infinity", b"true", b"false", b"null", b"1.0", b"1e2", b'"1"', b"[1]", b'{"a": 1}',
           b"-0", b"1" * 5000, b"[" * 1000 + b"]" * 1000],
    "modality": [b'"smell"', b'"TEXT"', b"1", b"null", b'["text"]', b'{"text": 1}', b'"te\\u0078t"'],
    "length": [b"0", b"-1", b"1.5", b"true", b"NaN", b'"5"', b"1" * 5000, b"2" * 40],
}


def record_line(draw, sid, fields=None):
    """One record's line: the fields in a drawn order, ``fields`` overriding
    the drawn values by raw JSON text."""
    values = {"id": str(sid).encode(), "modality": json.dumps(draw(st.sampled_from(list(Modality))).value).encode(),
              "length": str(draw(st.integers(1, 60))).encode()}
    pairs = list(values.items()) if fields is None else fields(values)
    order = draw(st.permutations(range(len(pairs))))
    spaced = draw(st.booleans())
    sep, colon = (b", ", b": ") if spaced else (b",", b":")
    return b"{" + sep.join(json.dumps(pairs[k][0]).encode() + colon + pairs[k][1] for k in order) + b"}"


def split_at_field(draw, line):
    """A record line cut into two lines just before one of its field commas."""
    cuts = [k for k, c in enumerate(line) if c == ord(",")]
    cut = draw(st.sampled_from(cuts))
    return line[:cut], line[cut + 1:]


def odd_lines(draw, fresh, used):
    """One anomaly: lines no valid trace holds, or lines that are valid only
    where a per-line reader and a careless block reader disagree. ``fresh()``
    is an unused id, ``used`` the ids so far."""
    kind = draw(st.sampled_from([
        "stray", "attached", "two-on-a-line", "split", "split-beside-two", "comment", "blank",
        "odd-whitespace", "not-utf8", "repeated-field", "bad-value", "unknown-field", "missing-field",
        "deep", "duplicate-id", "array-record", "escaped-key",
    ]))
    rec = record_line(draw, fresh())
    if kind == "stray":
        return [draw(st.sampled_from([b",", b"[", b"]", b"{", b"}", b"[]", b"{}", b"null", b"1", b'"x"']))]
    if kind == "attached":
        return [draw(st.sampled_from([rec + b",", b"," + rec, b"[" + rec, rec + b"]", b"[" + rec + b"]"]))]
    if kind == "two-on-a-line":
        return [rec + draw(st.sampled_from([b",", b", ", b" , ", b" ", b""])) + record_line(draw, fresh())]
    if kind == "split":
        return list(split_at_field(draw, rec))
    if kind == "split-beside-two":  # the count of records matches the count of lines
        head, tail = split_at_field(draw, rec)
        other = record_line(draw, fresh())
        return draw(st.sampled_from([[head, tail + b", " + other], [other + b", " + head, tail]]))
    if kind == "comment":
        return [draw(st.sampled_from([b"#", b"# " + rec, b"  #" + rec, b"#{"]))]
    if kind == "blank":
        return [draw(st.sampled_from([c.encode() for c in ("", "   ", "\t", "\x0c", "\x1c", "\u2028", "\u00a0")]))]
    if kind == "odd-whitespace":  # str.splitlines would end a line at each of these; the file does not
        space = draw(st.sampled_from([c.encode() for c in ("\x0c", "\x1c", "\x85", "\u2028", "\u00a0")]))
        return [draw(st.sampled_from([space + rec, rec + space, rec + space + record_line(draw, fresh())]))]
    if kind == "not-utf8":
        at = draw(st.integers(0, len(rec)))
        return [rec[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xef\xbb"])) + rec[at:]]
    if kind == "repeated-field":
        field = draw(st.sampled_from(FIELDS))
        again = draw(st.sampled_from([None, b"7", b'"image"', b"0"]))
        return [record_line(draw, fresh(), lambda v: [*v.items(), (field, again or v[field])])]
    if kind == "bad-value":
        field = draw(st.sampled_from(FIELDS))
        bad = draw(st.sampled_from(BAD_VALUES[field]))
        return [record_line(draw, fresh(), lambda v: [(k, bad if k == field else x) for k, x in v.items()])]
    if kind == "unknown-field":
        return [record_line(draw, fresh(), lambda v: [*v.items(), ("extra", b"1")])]
    if kind == "missing-field":
        field = draw(st.sampled_from(FIELDS))
        return [record_line(draw, fresh(), lambda v: [(k, x) for k, x in v.items() if k != field])]
    if kind == "deep":
        return [b"[" * 1000 + b"]" * 1000]
    if kind == "duplicate-id":
        return [record_line(draw, draw(st.sampled_from(sorted(used)))) if used else rec]
    if kind == "array-record":
        return [b'[["id", %d], ["modality", "text"], ["length", 5]]' % fresh()]
    return [b'{"\\u0069d": %d, "modality": "text", "length": 5}' % fresh()]


@st.composite
def trace_files(draw):
    """The bytes of an NDJSON trace file: valid records, sometimes more than
    one block of them, with up to three anomalies among them."""
    ids = iter(range(10**6, 2 * 10**6))
    used = set()

    def fresh():
        used.add(sid := next(ids))
        return sid

    lines = [record_line(draw, fresh()) for _ in range(draw(st.integers(0, 8)))]
    if draw(st.integers(0, 3)) == 0:  # past one block of the real size
        lines[draw(st.integers(0, len(lines))):0] = [b'{"id": %d, "modality": "text", "length": 3}' % fresh()
                                                      for _ in range(1100)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = odd_lines(draw, fresh, used)
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=1, max_size=4))
    text = b"".join(line + ends[k % len(ends)] for k, line in enumerate(lines))
    if draw(st.integers(0, 7)) == 0:
        text = b"\xef\xbb\xbf" + text  # a UTF-8 byte order mark
    return text


def outcome(load, path):
    """A load's columns, or its error's kind, message and context."""
    try:
        ids, modalities, lengths = load(path)
    except (OmniSchedError, TraceErrorReference) as exc:
        return exc.kind, exc.message, exc.context
    return list(ids), [getattr(m, "value", m) for m in modalities], list(lengths)


def load_columns(path):
    trace = load_trace(path)
    return trace.ids, trace.modalities, trace.lengths


R1, R2, R3 = (b'{"id": %d, "modality": "text", "length": 5}' % k for k in (1, 2, 3))


@given(trace_files(), st.sampled_from([1, 2, 3, workload._BLOCK_LINES]))
@example(R1 + b", " + R2 + b"\n", 3)  # two records on one line
@example(R1[:-1] + b', "length": 9}\n', 3)  # a field given twice
@example(R1.replace(b",", b"\n", 1) + b", " + R2 + b"\n", 3)  # split beside two: as many records as lines
@example(R1 + "\u2028".encode() + R2 + b"\n", 3)  # not a line end in a file
@example(R1 + b"\n" + R2 + b"\n" + R3 + b"\n" + R1 + b"\n", 2)  # a duplicate id in another block
@settings(max_examples=400, deadline=None)
def test_load_trace_matches_per_line_reader(tmp_path_factory, text, block_lines):
    p = tmp_path_factory.mktemp("diff") / "t.ndjson"
    p.write_bytes(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "_BLOCK_LINES", block_lines)
        assert outcome(load_columns, p) == outcome(load_trace_reference, p)


class TestGenerateTrace:
    def test_deterministic_under_seed(self):
        spec = make_spec(
            {Modality.TEXT: 1.0, Modality.AUDIO: 3.0},
            {Modality.TEXT: UniformLength(1, 100), Modality.AUDIO: LogNormalLength(4.0, 1.0, 500)},
            count=200,
            seed=1234,
        )
        assert dump_trace(generate_trace(spec)) == dump_trace(generate_trace(spec))

    def test_degenerate_uniform(self):
        spec = make_spec(
            {Modality.TEXT: 1.0}, {Modality.TEXT: UniformLength(5, 5)}, count=4, seed=0
        )
        trace = generate_trace(spec)
        assert len(trace) == 4
        assert set(trace.modalities) == {Modality.TEXT} and set(trace.lengths) == {5}

    def test_mixture_fraction_within_five_sigma(self):
        # two equal weights, n=10000: binomial sd ~ 0.005, bound at +/- 5 sigma
        spec = make_spec(
            {Modality.TEXT: 1.0, Modality.VIDEO: 1.0},
            {Modality.TEXT: UniformLength(1, 10), Modality.VIDEO: UniformLength(1, 10)},
            count=10000,
            seed=42,
        )
        trace = generate_trace(spec)
        frac = trace.modalities.count(Modality.TEXT) / len(trace)
        assert 0.45 <= frac <= 0.55

    def test_lognormal_clamped(self):
        spec = make_spec(
            {Modality.VIDEO: 1.0}, {Modality.VIDEO: LogNormalLength(10.0, 2.0, 64)}, count=300, seed=3
        )
        trace = generate_trace(spec)
        assert all(1 <= n <= 64 for n in trace.lengths)

    @given(
        mixture=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 1e-3, 0.5, 1.0, 3.0, 7.25]),
                st.one_of(
                    st.tuples(st.just("uniform"), st.integers(1, 50), st.integers(0, 5000)),
                    st.tuples(st.just("lognormal"), st.floats(-2.0, 9.0), st.floats(0.0, 3.0),
                              st.integers(1, 4096)),
                ),
            ),
            min_size=4, max_size=4,
        ).filter(lambda mixture: any(weight > 0 for weight, _ in mixture)),
        count=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_sample_searchsorted_generator(self, mixture, count, seed):
        modalities = list(workload.MODALITY_ORDER)
        weights, lengths = {}, {}
        for modality, (weight, (kind, a, b, *rest)) in zip(modalities, mixture):
            weights[modality] = weight
            lengths[modality] = UniformLength(a, a + b) if kind == "uniform" else LogNormalLength(a, b, *rest)
        trace = generate_trace(make_spec(weights, lengths, count, seed))
        reference = [(m.value, w, ("uniform", a, a + b) if kind == "uniform" else (kind, a, b, *rest))
                     for m, (w, (kind, a, b, *rest)) in zip(modalities, mixture)]
        names, drawn = generate_trace_reference(reference, count, seed)
        assert [m.value for m in trace.modalities] == names
        assert list(trace.lengths) == drawn
        assert list(trace.ids) == list(range(count))

    def test_signed_zero_sigma_draws_as_zero(self):
        def lengths(sigma):
            return generate_trace(make_spec({Modality.TEXT: 1.0}, {Modality.TEXT: LogNormalLength(5.0, sigma, 500)},
                                            count=5, seed=2)).lengths

        assert lengths(-0.0) == lengths(0.0) == (148,) * 5

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            make_spec({Modality.TEXT: 1.0}, {Modality.TEXT: UniformLength(1, 5)}, count=0, seed=0)
        with pytest.raises(InvalidSpecError):
            make_spec({Modality.TEXT: -1.0}, {Modality.TEXT: UniformLength(1, 5)}, count=1, seed=0)
        with pytest.raises(InvalidSpecError):
            make_spec({Modality.TEXT: 0.0}, {Modality.TEXT: UniformLength(1, 5)}, count=1, seed=0)
        with pytest.raises(InvalidSpecError):
            UniformLength(4, 2)
        with pytest.raises(InvalidSpecError):
            LogNormalLength(1.0, 0.5, 0)
        with pytest.raises(InvalidSpecError):
            make_spec({Modality.TEXT: 1.0}, {}, count=1, seed=0)


class TestTraceStats:
    def test_arithmetic(self):
        trace = WorkloadTrace((0, 1), (Modality.TEXT, Modality.TEXT), (3, 5))
        assert trace_stats(trace) == {
            "total_samples": 2,
            "total_tokens": 8,
            "per_modality": {
                "text": {"count": 2, "min_length": 3, "max_length": 5, "mean_length": 4, "total_tokens": 8},
            },
        }

    def test_empty_trace_absent_means(self):
        st = trace_stats(WorkloadTrace((), (), ()))
        assert st["total_samples"] == 0
        assert st["total_tokens"] == 0
        assert st["per_modality"] == {}

    def test_degenerate_distribution(self):
        spec = make_spec(
            {Modality.TEXT: 1.0}, {Modality.TEXT: UniformLength(5, 5)}, count=4, seed=0
        )
        st = trace_stats(generate_trace(spec))
        text = st["per_modality"]["text"]
        assert text["min_length"] == text["max_length"] == text["mean_length"] == 5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_totals_additive_under_concat(self, seed):
        rng = np.random.default_rng(seed)
        specs = [
            make_spec(
                {Modality.TEXT: 1.0, Modality.IMAGE: 1.0},
                {
                    Modality.TEXT: UniformLength(1, int(rng.integers(2, 50))),
                    Modality.IMAGE: UniformLength(1, int(rng.integers(2, 50))),
                },
                count=int(rng.integers(1, 40)),
                seed=int(rng.integers(0, 2**32)),
            )
            for _ in range(3)
        ]
        traces = [generate_trace(s) for s in specs]
        combined = WorkloadTrace(
            range(sum(len(t) for t in traces)),
            [m for t in traces for m in t.modalities],
            [n for t in traces for n in t.lengths],
        )
        assert trace_stats(combined)["total_tokens"] == sum(trace_stats(t)["total_tokens"] for t in traces)
        assert trace_stats(combined)["total_samples"] == sum(len(t) for t in traces)


def test_sample_validation():
    text = Modality.TEXT
    with pytest.raises(InvalidSpecError, match="sample 4: length must be >= 1, got 0") as exc:
        WorkloadTrace((3, 4), (text, text), (5, 0))
    assert exc.value.context["sample_id"] == 4
    with pytest.raises(DuplicateIdError) as exc:
        WorkloadTrace((1, 2, 1), (text, text, text), (5, 6, 7))
    assert exc.value.context["sample_id"] == 1 and exc.value.context["positions"] == [0, 2]
    for ids, modalities, lengths in [((0, 1), (text,), (5, 6)), ((0,), (text,), (5, 6)), ((0, 1), (text, text), (5,))]:
        with pytest.raises(InvalidSpecError, match="differ in length"):
            WorkloadTrace(ids, modalities, lengths)
    # the columns are tuples whatever they were given as
    assert columns(WorkloadTrace([0, 1], [text, text], [5, 6])) == ((0, 1), (text, text), (5, 6))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: LogNormalLength(NAN, 1.0, 10),
    lambda: LogNormalLength(INF, 1.0, 10),
    lambda: LogNormalLength(3.0, NAN, 10),
    lambda: LogNormalLength(3.0, INF, 10),
    lambda: make_spec({Modality.TEXT: NAN}, {Modality.TEXT: UniformLength(1, 2)}, 4, 0),
    lambda: make_spec({Modality.TEXT: INF}, {Modality.TEXT: UniformLength(1, 2)}, 4, 0),
    lambda: make_spec({Modality.TEXT: 1e308, Modality.IMAGE: 1e308},
                      {Modality.TEXT: UniformLength(1, 2), Modality.IMAGE: UniformLength(1, 2)}, 4, 0),
    lambda: UniformLength(1, 2**63),  # past numpy's int64 draws
])
def test_out_of_range_parameters_rejected(make):
    with pytest.raises(InvalidSpecError):
        make()


def test_huge_lognormal_draw_clamps_to_max_len():
    # exp of a draw past ~709.78 overflows a float
    spec = make_spec({Modality.TEXT: 1.0}, {Modality.TEXT: LogNormalLength(1e4, 1.0, 64)}, 3, 0)
    assert generate_trace(spec).lengths == (64, 64, 64)
