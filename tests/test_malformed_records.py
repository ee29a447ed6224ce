"""Malformed trace JSONL, SWF and fault-plan records.

All three formats read through :mod:`repro.util.records`, so one value
rule holds in each: numbers are finite, integers integral, flags
``true``/``false`` (or 0/1), strings strings and ``deps`` a list of
integers.  The properties take a valid line, replace exactly one known
field with junk, and require the format's own error naming the line and
that key (or SWF column) — never another exception, never a record.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FaultError
from repro.faults import (
    FAULT_KINDS, FaultPlan, FaultRecord, format_plan, parse_plan,
)
from repro.faults.plan import FAULT_CODEC
from repro.traces import (
    Trace, TraceError, TraceJob, format_jsonl, format_swf, parse_jsonl,
    parse_swf,
)
from repro.traces import jsonl as jsonl_module
from repro.util.records import RecordCodec, numbered_lines, read_jsonl

NAN, INF = math.nan, math.inf

#: junk every field refuses, whatever its type.
_ANY_JUNK = [NAN, INF, -INF, None, [], {}, {"a": 1}]
#: extra junk per declared value type.
_JUNK = {
    "float": ["x", "1", True, False, [1.0]],
    "int": [1.5, -0.5, 1e-9, "7", True, False, [1]],
    "bool": [1.5, 2, -1, "no", "true", [True]],
    "str": [7, 1.5, True, ["cn0"]],
    "deps": [1, 1.5, True, "1", [1.5], ["x"], [True], [NAN], {"1": 2}],
}


def _kind(attr, cls):
    if attr == "deps":
        return "deps"
    return cls.__dataclass_fields__[attr].type


def junk_for(kind):
    any_junk = _ANY_JUNK
    if kind == "deps":
        # ``[]`` is the default ``deps`` (no fan-in), not junk.
        any_junk = [j for j in _ANY_JUNK if j != []]
    junk = st.sampled_from(any_junk + _JUNK[kind])
    if kind == "int":
        junk |= st.floats(-1e6, 1e6).filter(lambda f: not f.is_integer())
    return junk


ints = st.integers(min_value=-1, max_value=10 ** 6)
reals = st.floats(allow_nan=False, allow_infinity=False,
                  min_value=-1e9, max_value=1e9)


@st.composite
def trace_job(draw, job_id):
    return TraceJob(
        job_id=job_id, submit_time=draw(st.floats(0, 1e6)),
        wait_time=draw(reals), run_time=draw(reals),
        procs=draw(st.integers(1, 4096)), cpu_time=draw(reals),
        mem=draw(reals), requested_procs=draw(ints),
        requested_time=draw(reals), requested_mem=draw(reals),
        status=draw(st.sampled_from([0, 1, 5])), user=draw(ints),
        group=draw(ints), executable=draw(ints), queue=draw(ints),
        partition=draw(ints), dep=draw(ints), think_time=draw(reals),
        workflow_start=draw(st.booleans()),
        deps=tuple(draw(st.lists(st.integers(1, 99), max_size=3))),
        checkpoint=draw(st.booleans()),
        stage_in_bytes=draw(st.integers(0, 10 ** 12)),
        stage_in_files=draw(st.integers(0, 64)),
        stage_out_bytes=draw(st.integers(0, 10 ** 12)),
        stage_out_files=draw(st.integers(0, 64)),
        persist=draw(st.booleans()), max_requeues=draw(ints))


@st.composite
def fault_record(draw):
    kind = draw(st.sampled_from(FAULT_KINDS))
    magnitude = 1.0
    if kind in ("link_degrade", "device_degrade"):
        magnitude = draw(st.floats(0.01, 1.0))
    elif kind == "transfer_corrupt":
        magnitude = float(draw(st.integers(1, 9)))
    return FaultRecord(
        time=draw(st.floats(0, 1e6)), kind=kind,
        target=f"cn{draw(st.integers(0, 63))}",
        duration=draw(st.floats(0, 1e6)), magnitude=magnitude,
        device="nvme0" if kind == "device_degrade" else "",
        note=draw(st.text(max_size=8)))


@st.composite
def broken_jsonl_line(draw, lines, codec, cls):
    """``(text, line number, key)`` with one field of one record line
    replaced by junk (the key may have been left at its default)."""
    lineno = draw(st.integers(2, len(lines)))
    key, attr = draw(st.sampled_from(codec.keys))
    obj = json.loads(lines[lineno - 1])
    inner = obj.get("fault", obj)
    inner[key] = draw(junk_for(_kind(attr, cls)))
    doctored = list(lines)
    doctored[lineno - 1] = json.dumps(obj)
    return "\n".join(doctored) + "\n", lineno, key


def assert_names(exc_info, lineno, key):
    text = str(exc_info.value)
    assert text.startswith(f"line {lineno}: "), text
    assert f"for {key!r}" in text, text


class TestBrokenFieldProperties:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_trace_jsonl(self, data):
        jobs = tuple(data.draw(trace_job(i)) for i in (1, 2))
        faults = (data.draw(fault_record()),)
        lines = format_jsonl(Trace(jobs=jobs, faults=faults)).splitlines()
        if data.draw(st.booleans()):        # a job line
            codec, cls = jsonl_module._CODEC, TraceJob
            lines_ok = lines[:1] + lines[2:]
        else:                               # the embedded fault line
            codec, cls = FAULT_CODEC, FaultRecord
            lines_ok = lines[:2]
        text, lineno, key = data.draw(
            broken_jsonl_line(lines_ok, codec, cls))
        with pytest.raises(TraceError) as exc_info:
            parse_jsonl(text)
        assert_names(exc_info, lineno, key)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fault_plan(self, data):
        plan = FaultPlan(records=(data.draw(fault_record()),))
        lines = format_plan(plan).splitlines()
        text, lineno, key = data.draw(
            broken_jsonl_line(lines, FAULT_CODEC, FaultRecord))
        with pytest.raises(FaultError) as exc_info:
            parse_plan(text)
        assert_names(exc_info, lineno, key)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_swf(self, data):
        jobs = tuple(data.draw(trace_job(i)) for i in (1, 2, 3))
        lines = format_swf(Trace(jobs=jobs, comments=("c",))).splitlines()
        lineno = data.draw(st.integers(2, len(lines)))
        columns = lines[lineno - 1].split()
        col = data.draw(st.integers(1, 18))
        fields = TraceJob.__dataclass_fields__
        name = list(fields)[col - 1]
        junk = ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "x",
                "true", "[]", "{}", "0x10"]
        if fields[name].type == "int":
            junk += ["1.5", "-0.5", "2.000001"]
        columns[col - 1] = data.draw(st.sampled_from(junk))
        lines[lineno - 1] = " ".join(columns)
        with pytest.raises(TraceError) as exc_info:
            parse_swf("\n".join(lines) + "\n")
        text = str(exc_info.value)
        assert text.startswith(f"line {lineno}: bad number "), text
        assert f" for {name} (column {col}: " in text, text


class TestValueRule:
    def test_integral_floats_and_flag_integers_are_accepted(self):
        t = parse_jsonl('{"id": 3.0, "submit": 0, "procs": 2.0, '
                        '"persist": 1, "checkpoint": 0, "deps": [1.0]}\n')
        job = t.jobs[0]
        assert (job.job_id, job.procs, job.deps) == (3, 2, (1,))
        assert job.persist is True and job.checkpoint is False
        assert type(job.job_id) is int and type(job.submit_time) is float

    def test_integers_widen_to_floats(self):
        rec = parse_plan('{"t": 5, "kind": "transfer_corrupt", '
                         '"node": "cn0", "magnitude": 2}\n').records[0]
        assert type(rec.time) is float and rec.magnitude == 2.0

    def test_number_too_large_for_a_float(self):
        with pytest.raises(TraceError, match="line 1: bad value .* 'run'"):
            parse_jsonl('{"id": 1, "submit": 0, "run": %d}\n' % 10 ** 400)

    @pytest.mark.parametrize("text", [
        "[" * 100000, '{"id": %s, "submit": 0}' % ("1" * 5000)])
    def test_unreadable_json_is_a_trace_error(self, text):
        with pytest.raises(TraceError, match="line 1: bad JSON"):
            parse_jsonl(text + "\n")

    @pytest.mark.parametrize("meta, key", [
        ('{"name": 5}', "name"), ('{"comments": "abc"}', "comments"),
        ('{"comments": [1]}', "comments")])
    def test_meta_fields(self, meta, key):
        for parse, error in ((parse_jsonl, TraceError),
                             (parse_plan, FaultError)):
            with pytest.raises(error, match=f"line 1: .*'{key}' in 'meta'"):
                parse('{"meta": %s}\n' % meta)

    def test_fault_validation_names_the_line(self):
        with pytest.raises(FaultError, match="line 2: unknown fault kind"):
            parse_plan('{"meta": {}}\n{"t": 1, "kind": "x", "node": "a"}\n')

    def test_missing_required_key(self):
        with pytest.raises(FaultError, match="line 1: record lacks 'kind'"):
            parse_plan('{"t": 1}\n')


class TestCodec:
    def test_to_dict_keeps_required_and_non_default_values(self):
        rec = FaultRecord(time=0.0, kind="urd_restart", target="cn0")
        assert FAULT_CODEC.to_dict(rec) == {
            "t": 0.0, "kind": "urd_restart", "node": "cn0"}

    def test_required_key_is_written_at_its_default(self):
        codec = RecordCodec(FaultRecord, (("t", "time"), ("note", "note")),
                            ("t", "note"), FaultError)
        rec = FaultRecord(time=1.0, kind="urd_restart")
        assert codec.to_dict(rec) == {"t": 1.0, "note": ""}

    def test_read_jsonl_splits_header_from_records(self):
        name, comments, rows = read_jsonl(
            '\n{"meta": {"name": "n", "comments": ["a"]}}\n\n{"x": 1}\n'
            '{"meta": {"comments": ["b"]}}\n', "default", TraceError)
        assert (name, comments, rows) == ("n", ["a", "b"], [(4, {"x": 1})])

    def test_numbered_lines_skip_blanks(self):
        assert list(numbered_lines(" a \n\n\tb\n")) == [(1, "a"), (3, "b")]
