"""Tests for the observability layer (`repro.obs`).

The centerpiece is the span-tree integrity property: *any* well-formed
usage of the tracing API — nested spans, cross-"wire" propagation,
spans adopted from another process's ring — yields a span set in which
every span's parent chain reaches a root of the same trace and no span
outlives its trace root.  ``validate_span_tree`` pins exactly that, so
the property doubles as a proof that the validator accepts everything
the API can legally produce; the corruption tests prove it rejects
what it should.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.collector import (
    chrome_trace,
    merge_spans,
    validate_chrome_trace,
    validate_span_tree,
    write_chrome_trace,
)
from repro.obs.recorder import FlightRecorder, open_recorder
from repro.obs.slo import (
    SloTracker,
    check_slo,
    histogram_percentile,
    sanitize_tenant,
    slo_report,
)
from repro.obs.tracing import (
    Span,
    SpanRing,
    TraceContext,
    Tracer,
    ctx_from_wire,
    ctx_to_wire,
)
from repro.perf.metrics_export import counters_from_openmetrics, render_openmetrics
from repro.telemetry.counters import CounterRegistry


# --------------------------------------------------------------------- #
# Span-tree integrity property (satellite: hypothesis property)
# --------------------------------------------------------------------- #

# A "program" is a tree of nested span scopes.  Each node is a tuple
# (layer_index, wire_hop, children): `layer_index` picks which Tracer
# opens the span, `wire_hop` routes the parent link through a
# ctx_to_wire/ctx_from_wire round-trip (as the gateway does), children
# run strictly inside the parent's scope — the only way the API is used.
_programs = st.recursive(
    st.tuples(st.integers(0, 3), st.booleans(), st.just(())),
    lambda kids: st.tuples(
        st.integers(0, 3),
        st.booleans(),
        st.lists(kids, max_size=4).map(tuple),
    ),
    max_leaves=24,
)


def _run_program(node, tracers, *, parent_ctx=None) -> None:
    layer, wire_hop, children = node
    tracer = tracers[layer % len(tracers)]
    parent = parent_ctx
    if wire_hop and parent is None:
        # Route the ambient parent through the wire encoding, as the
        # gateway does with the client's `trace` field.
        parent = ctx_from_wire(ctx_to_wire(Tracer.current_context()))
    with tracer.span(f"op{layer}", parent=parent) as span:
        for child in children:
            _run_program(child, tracers)
        # A leaf may also "ship" a pre-finished remote span, the way a
        # shard worker returns span dicts inside its Pipe reply.
        if not children and wire_hop:
            remote = {
                "name": "remote.op",
                "trace_id": span.trace_id,
                "span_id": f"r{id(node) & 0xFFFFFF:x}{span.span_id}",
                "parent_id": span.span_id,
                "proc": "remote",
                "start": span.start,
                "end": span.start,
            }
            tracers[0].adopt([remote])


class TestSpanTreeProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_programs, min_size=1, max_size=6))
    def test_any_legal_usage_validates(self, programs):
        """Every span has a reachable parent chain ending at a root of
        its own trace, and no span outlives the trace root."""
        ring = SpanRing(1 << 12)
        tracers = [
            Tracer(proc, ring=ring)
            for proc in ("client", "gateway", "session", "backend")
        ]
        for program in programs:
            _run_program(program, tracers)
        spans = merge_spans(ring)
        assert validate_span_tree(spans) == []
        # Each top-level program is its own trace, roots included.
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == len(programs)
        assert len({s.trace_id for s in roots}) == len(programs)
        # The root convention: trace_id IS the root's span_id.
        assert all(s.trace_id == s.span_id for s in roots)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_programs, min_size=1, max_size=4), st.integers(0, 2))
    def test_corruption_is_detected(self, programs, mode):
        ring = SpanRing(1 << 12)
        tracers = [Tracer("p", ring=ring)]
        for program in programs:
            _run_program(program, tracers)
        spans = merge_spans(ring)
        victim = spans[-1]
        if mode == 0:
            victim.parent_id = "nonexistent-span-id"
        elif mode == 1:
            victim.end = victim.start - 1.0
        else:
            # A child that outlives its trace root (or, for a root
            # victim, a dangling parent loop onto itself).
            if victim.parent_id is None:
                victim.parent_id = victim.span_id + "x"
            else:
                root = next(
                    s
                    for s in spans
                    if s.trace_id == victim.trace_id and s.parent_id is None
                )
                victim.end = root.end + 1.0
        assert validate_span_tree(spans) != []


class TestTracing:
    def test_nested_spans_parent_through_layers(self):
        ring = SpanRing()
        outer, inner = Tracer("gateway", ring=ring), Tracer("session", ring=ring)
        with outer.span("server.learn") as parent:
            with inner.span("session.learn") as child:
                assert child.trace_id == parent.trace_id
                assert child.parent_id == parent.span_id
        assert Tracer.current_context() is None
        assert [s.proc for s in ring.spans()] == ["session", "gateway"]

    def test_wire_roundtrip_and_tolerance(self):
        ctx = TraceContext("t" * 16, "s" * 16)
        assert ctx_to_wire(None) is None
        wired = ctx_to_wire(ctx)
        back = ctx_from_wire(wired)
        assert (back.trace_id, back.span_id) == (ctx.trace_id, ctx.span_id)
        for garbage in (None, "str", 7, [], {}, {"trace_id": "a"},
                        {"trace_id": 1, "span_id": 2},
                        {"trace_id": "", "span_id": "b"},
                        {"trace_id": "a" * 65, "span_id": "b"}):
            assert ctx_from_wire(garbage) is None

    def test_span_records_error_attribute(self):
        tracer = Tracer("t")
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (span,) = tracer.ring.spans()
        assert span.attrs["error"] == "ValueError"
        assert span.end >= span.start

    def test_ring_bounds_and_drop_accounting(self):
        ring = SpanRing(8)
        tracer = Tracer("t", ring=ring)
        for i in range(20):
            with tracer.span(f"s{i}"):
                pass
        assert len(ring) == 8
        assert ring.total == 20 and ring.dropped == 12
        assert [s.name for s in ring.spans()] == [f"s{i}" for i in range(12, 20)]
        drained = ring.drain()
        assert len(drained) == 8 and len(ring) == 0

    def test_adopt_span_dicts(self):
        tracer = Tracer("parent")
        shipped = [
            {"name": "shard.run", "trace_id": "t1", "span_id": "t1",
             "parent_id": None, "proc": "shard0", "start": 1.0, "end": 2.0},
        ]
        assert tracer.adopt(shipped) == 1
        (span,) = tracer.ring.spans()
        assert isinstance(span, Span) and span.proc == "shard0"
        assert span.duration == 1.0


class TestCollector:
    def _spans(self):
        ring = SpanRing()
        tracer = Tracer("client", ring=ring)
        with tracer.span("client.learn"):
            with tracer.fork("gateway").span("server.learn"):
                pass
        return ring.spans()

    def test_chrome_trace_shape_and_validation(self):
        doc = chrome_trace(self._spans(), meta={"bench": "unit"})
        assert validate_chrome_trace(doc) == []
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in slices} == {"client.learn", "server.learn"}
        procs = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert procs == {"client", "gateway"}
        assert doc["otherData"]["bench"] == "unit"
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in slices)

    def test_validate_chrome_trace_rejects_junk(self):
        assert validate_chrome_trace(None)
        assert validate_chrome_trace({})
        assert validate_chrome_trace({"traceEvents": [{"ph": "Q"}]})
        missing_meta = {
            "traceEvents": [
                {"name": "x", "ph": "X", "pid": 9, "tid": 1, "ts": 0, "dur": 1}
            ]
        }
        assert any("process_name" in p for p in validate_chrome_trace(missing_meta))

    def test_write_chrome_trace_file(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, self._spans())
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []


class TestSlo:
    def test_percentiles_from_histogram(self):
        registry = CounterRegistry()
        slo = SloTracker(registry)
        rng = random.Random(5)
        for _ in range(1000):
            slo.observe("acme", "learn", rng.uniform(0.5, 2.0))
        summary = registry.as_dict()["serve.slo.acme.learn.latency_ms"]
        p50 = histogram_percentile(summary, 0.50)
        p99 = histogram_percentile(summary, 0.99)
        assert 0.5 <= p50 <= 2.0 and 0.5 <= p99 <= 2.5
        assert p50 <= p99
        assert histogram_percentile({"count": 0}, 0.5) is None

    def test_openmetrics_roundtrip_report_and_gate(self):
        registry = CounterRegistry()
        slo = SloTracker(registry)
        for i in range(100):
            slo.observe("acme", "learn", 1.0 + (i % 5) * 0.1)
            slo.observe("beta-corp", "act", 0.2)
        slo.error("acme", "deadline_exceeded", 3)
        text = render_openmetrics(registry)
        counters = counters_from_openmetrics(text)
        report = slo_report(counters)
        tenants = report["tenants"]
        assert set(tenants) == {"acme", "beta-corp"}
        assert tenants["acme"]["ops"]["learn"]["count"] == 100
        assert tenants["acme"]["errors"]["deadline_exceeded"] == 3
        p99 = tenants["acme"]["ops"]["learn"]["p99_ms"]
        assert p99 is not None and 1.0 <= p99 <= 2.6

        ok = check_slo(report, {"default": {"p99_ms": 100.0}})
        assert ok == []
        burned = check_slo(
            report,
            {
                "default": {"p99_ms": 100.0},
                "tenants": {
                    "acme": {
                        "p99_ms": 0.5,
                        "max_errors": {"deadline_exceeded": 0},
                    }
                },
            },
        )
        assert len(burned) == 2
        assert any("error budget" in v for v in burned)

    def test_openmetrics_overflow_percentile_burns_every_budget(self):
        """A scrape carries no max: a percentile in the overflow bucket
        must still exceed every finite budget, as it does from as_dict()."""
        registry = CounterRegistry()
        slo = SloTracker(registry)
        for _ in range(100):
            slo.observe("acme", "learn", 9000.0)  # past the 5000ms top bound
        budget = {"default": {"p99_ms": 100}}
        direct = check_slo(slo_report(registry.as_dict()), budget)
        scraped = slo_report(counters_from_openmetrics(render_openmetrics(registry)))
        assert scraped["tenants"]["acme"]["ops"]["learn"]["p99_ms"] == float("inf")
        from_scrape = check_slo(scraped, budget)
        assert len(direct) == len(from_scrape) == 1
        assert "acme/learn: p99" in from_scrape[0]
        assert check_slo(scraped, {"default": {"p99_ms": 1e12}}) != []

    def test_sanitize_tenant(self):
        assert sanitize_tenant(None) == "anon"
        assert sanitize_tenant("") == "anon"
        assert sanitize_tenant("a.b c/d") == "a_b_c_d"
        assert len(sanitize_tenant("x" * 200)) == 48


class TestFlightRecorder:
    def test_rotation_bounds_disk(self, tmp_path):
        rec = FlightRecorder(tmp_path, max_records=10, max_segments=2)
        for i in range(55):
            rec.record_event("tick", i=i)
        segments = sorted(p.name for p in tmp_path.glob("flight-*.jsonl"))
        assert len(segments) == 2
        survivors = [r["i"] for r in rec.records() if r["kind"] == "tick"]
        # Only the newest two segments (<= 20 records) survive, in order.
        assert survivors == list(range(55))[-len(survivors):]
        assert 10 < len(survivors) <= 20
        rec.close()

    def test_torn_line_tolerated_and_dump(self, tmp_path):
        rec = FlightRecorder(tmp_path, max_records=100)
        rec.record_event("worker_restarted", worker=0)
        # Simulate the SIGKILL-torn trailing line the docstring promises
        # readers survive.
        rec._fh.write('{"type":"event","kind":"torn')
        rec._fh.flush()
        kinds = [r["kind"] for r in rec.records()]
        assert kinds == ["worker_restarted"]

        span = Span("client.learn", "t1", "t1", None, "client", 1.0, 2.0)
        dump = rec.dump(spans=[span])
        rec.close()
        lines = [json.loads(l) for l in open(dump, encoding="utf-8")]
        assert [r["type"] for r in lines] == ["event", "span"]
        assert lines[1]["name"] == "client.learn"

    def test_recorder_resumes_segment_numbering(self, tmp_path):
        rec1 = FlightRecorder(tmp_path, max_records=5)
        rec1.record_event("a")
        rec1.close()
        rec2 = FlightRecorder(tmp_path, max_records=5)
        rec2.record_event("b")
        rec2.close()
        names = sorted(p.name for p in tmp_path.glob("flight-*.jsonl"))
        assert names == ["flight-000000.jsonl", "flight-000001.jsonl"]
        assert [r["kind"] for r in rec2.records()] == ["a", "b"]

    def test_open_recorder_disabled(self):
        assert open_recorder(None) is None
        assert open_recorder("") is None

    def test_recorder_as_tracer_sink(self, tmp_path):
        rec = FlightRecorder(tmp_path)
        tracer = Tracer("client", sink=rec.record_span)
        with tracer.span("client.open"):
            pass
        rec.close()
        (record,) = list(rec.records())
        assert record["type"] == "span" and record["name"] == "client.open"


class TestClientSampling:
    def _client(self, trace_sample):
        from repro.serve.client import ServeClient

        client = ServeClient.__new__(ServeClient)
        client.tracer = Tracer("client")
        client.tenant = None
        client._trace_stride = (
            max(1, round(1.0 / trace_sample)) if trace_sample > 0 else 0
        )
        client._trace_tick = 0
        client.retries = 0
        sent = []
        client._attempts = lambda message, retry_safe: (
            sent.append(message) or {"ok": True}
        )
        return client, sent

    def test_hot_ops_head_sampled_deterministically(self):
        client, sent = self._client(0.25)
        for _ in range(16):
            client.request({"op": "learn", "s": 0, "a": 0, "r": 0.0, "ns": 1})
        traced = [m for m in sent if "trace" in m]
        assert len(sent) == 16 and len(traced) == 4
        # Stride sampling: every 4th request, starting with the first.
        assert [i for i, m in enumerate(sent) if "trace" in m] == [0, 4, 8, 12]
        # Sampled requests carry a complete, parseable context.
        for m in traced:
            assert ctx_from_wire(m["trace"]) is not None

    def test_structural_ops_always_traced(self):
        client, sent = self._client(0.0625)
        for _ in range(3):
            client.request({"op": "open"})
            client.request({"op": "checkpoint", "session": "s1"})
        assert all("trace" in m for m in sent)

    def test_sample_zero_disables_hot_traces(self):
        client, sent = self._client(0.0)
        for _ in range(8):
            client.request({"op": "act", "s": 0})
        assert not any("trace" in m for m in sent)
        # ...but the client span ring stays empty too: no hidden cost.
        assert client.tracer.ring.total == 0

    def test_full_sampling_traces_everything(self):
        client, sent = self._client(1.0)
        for _ in range(5):
            client.request({"op": "learn", "s": 0, "a": 0, "r": 0.0, "ns": 1})
        assert all("trace" in m for m in sent)
        assert client.tracer.ring.total == 5
