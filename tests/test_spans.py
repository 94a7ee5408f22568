"""Tests for the derived span layer: request correlation, critical-path
attribution (the telescoping-sum invariant), txn span trees with fast
path vs full 2PC, abandoned spans after a mid-2PC crash, the SLO
time-series, Chrome export, and byte-stable span JSON across parallel
worker counts (pinned against committed goldens)."""

import json
import pathlib

import pytest

from repro.__main__ import main
from repro.core import Cluster
from repro.faults import FaultPlan
from repro.obs import (
    SpanBuilder,
    build_timeseries,
    chrome_to_json,
    parse_request_id,
    render_spans_summary,
    render_waterfall,
    slo_summary,
    span_to_dict,
    spans_report,
    to_chrome,
    write_chrome,
)
from repro.protocols.multipaxos import run_multipaxos
from repro.shard import ShardedCluster
from repro.telemetry.instruments import Histogram, NullHistogram

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _spans_multipaxos(seed=0, **kwargs):
    cluster = Cluster(seed=seed, trace=True)
    run_multipaxos(cluster, n_replicas=3, n_clients=1,
                   commands_per_client=5, **kwargs)
    return SpanBuilder(cluster.trace).build()


def _sharded(seed=0, n_shards=2):
    cluster = Cluster(seed=seed, trace=True)
    return ShardedCluster(n_shards=n_shards, replicas=3, cluster=cluster)


def _cross_shard_pair(sharded):
    first = sharded.key(0)
    for i in range(1, sharded.key_space):
        if sharded.shard_of(sharded.key(i)) != sharded.shard_of(first):
            return first, sharded.key(i)
    raise AssertionError("no cross-shard pair in the key space")


def _all_spans(roots):
    for span in roots:
        yield span
        for child in span.children:
            yield child


class TestParseRequestId:
    def test_round_ids_decompose(self):
        assert parse_request_id("tx7-txn_prepare-12") == \
            ("tx7", "txn_prepare")
        assert parse_request_id("tx0-txn_lock-0") == ("tx0", "txn_lock")
        assert parse_request_id("tx3-timeout-abort-4") == \
            ("tx3", "txn_abort")

    def test_plain_client_ids_do_not(self):
        assert parse_request_id("c0-1") == (None, None)
        assert parse_request_id("tx7") == (None, None)
        # A kind marker with a non-numeric tail is not a round id.
        assert parse_request_id("tx7-txn_lock-oops") == (None, None)


class TestCriticalPathInvariant:
    def test_segments_sum_to_latency_multipaxos(self):
        spans = _spans_multipaxos()
        assert spans and all(s.completed for s in spans)
        for span in spans:
            assert span.segments, span.req
            assert sum(span.segments.values()) == \
                pytest.approx(span.latency, abs=1e-9), span.req

    def test_segments_sum_to_latency_sharded(self):
        sharded = _sharded(seed=11)
        a, b = _cross_shard_pair(sharded)
        sharded.put(a, 100)
        sharded.put(b, 10)
        assert sharded.transfer(a, b, 40) == "committed"
        sharded.settle()
        roots = SpanBuilder(sharded.cluster.trace).build()
        checked = 0
        for span in _all_spans(roots):
            if span.latency is None:
                continue
            assert sum(span.segments.values()) == \
                pytest.approx(span.latency, abs=1e-9), span.req
            checked += 1
        assert checked >= 4  # txn roots plus their round children

    def test_waterfall_and_summary_render(self):
        spans = _spans_multipaxos()
        lines = render_waterfall(spans[0])
        assert lines[0].startswith("span %s (request)" % spans[0].req)
        assert any("#" in line for line in lines[1:])
        report = spans_report(spans, protocol="multi-paxos", seed=0,
                              virtual_time=100.0)
        text = render_spans_summary(report)
        assert "completed" in text and "p999=" in text


class TestTxnSpanTrees:
    def test_single_shard_fast_path_skips_2pc(self):
        sharded = _sharded(seed=3)
        key = sharded.key(0)
        assert sharded.put(key, 7) == "committed"
        sharded.settle()
        roots = SpanBuilder(sharded.cluster.trace).build()
        txns = [s for s in roots if s.kind == "txn"]
        assert len(txns) == 1
        txn = txns[0]
        assert txn.completed and txn.outcome == "committed"
        kinds = [child.round_kind for child in txn.children]
        assert kinds == ["txn_exec"]
        assert "2pc-prepare" not in txn.segments
        assert "2pc-commit" not in txn.segments
        assert "apply" in txn.segments

    def test_cross_shard_commit_runs_full_2pc(self):
        # A general update (not key-local) needs every shard's reads
        # before its writes: a lock round, then a prepare round.
        sharded = _sharded(seed=5)
        a, b = _cross_shard_pair(sharded)
        sharded.put(a, 100)
        sharded.put(b, 10)
        assert sharded.run_transaction(
            (a, b), lambda r: {a: r[a] - 40, b: r[b] + 40}).outcome \
            == "committed"
        sharded.settle()
        roots = SpanBuilder(sharded.cluster.trace).build()
        transfer = [s for s in roots if s.kind == "txn"][-1]
        assert transfer.completed and transfer.outcome == "committed"
        kinds = {child.round_kind for child in transfer.children}
        assert kinds == {"txn_lock", "txn_prepare", "txn_commit"}
        # The reply lands when the last vote is logged; the commit
        # round completes behind it, off the transaction's path.
        commits = [c for c in transfer.children
                   if c.round_kind == "txn_commit"]
        assert commits and all(c.completed for c in commits)
        assert all(c.end_time > transfer.end_time for c in commits)
        for segment in ("lock", "2pc-prepare"):
            assert transfer.segments.get(segment, 0.0) > 0.0, segment
        assert "2pc-commit" not in transfer.segments
        # Two participant shards -> two lock rounds, two prepare rounds.
        locks = [c for c in transfer.children
                 if c.round_kind == "txn_lock"]
        assert len(locks) == 2

    def test_cross_shard_transfer_votes_in_its_lock_round(self):
        # A transfer is key-local: each participant's lock entry stages
        # its writes, so the reply follows the lock round alone.
        sharded = _sharded(seed=5)
        a, b = _cross_shard_pair(sharded)
        sharded.put(a, 100)
        sharded.put(b, 10)
        assert sharded.transfer(a, b, 40) == "committed"
        sharded.settle()
        roots = SpanBuilder(sharded.cluster.trace).build()
        transfer = [s for s in roots if s.kind == "txn"][-1]
        assert transfer.completed and transfer.outcome == "committed"
        kinds = sorted(child.round_kind for child in transfer.children)
        assert kinds == ["txn_commit"] * 2 + ["txn_lock"] * 2
        assert transfer.segments.get("lock", 0.0) > 0.0
        assert "2pc-prepare" not in transfer.segments
        assert "2pc-commit" not in transfer.segments

    def test_crash_mid_2pc_leaves_abandoned_round_spans(self):
        sharded = _sharded(seed=8)
        a, b = _cross_shard_pair(sharded)
        sharded.put(a, 50)
        victim = sharded.shard_of(b)
        FaultPlan(sharded.cluster).apply(
            [(sharded.now + 2.0, "crash", victim + "/*")])
        txn = sharded.submit(
            (a, b), lambda r: {a: r[a] - 5, b: (r[b] or 0) + 5})
        sharded.cluster.run_until(lambda: txn.outcome is not None,
                                  until=sharded.now + 2000.0)
        assert txn.outcome == "aborted"
        roots = SpanBuilder(sharded.cluster.trace).build()
        doomed = next(s for s in roots if s.req == txn.txid)
        # The coordinator still finishes the txn (outcome recorded) ...
        assert doomed.completed and doomed.outcome == "aborted"
        assert "timeout" in doomed.segments
        # ... but the crashed shard's round never got its reply.
        abandoned = [c for c in doomed.children if not c.completed]
        assert abandoned, [c.req for c in doomed.children]
        for child in abandoned:
            assert child.end == child.anchors[-1]
            entry = span_to_dict(child)
            assert entry["completed"] is False


class TestTimeseriesAndSlo:
    def test_windows_are_sparse_and_sorted(self):
        spans = _spans_multipaxos()
        rows = build_timeseries(spans, window=5.0)
        assert rows == sorted(rows, key=lambda r: r["t0"])
        assert sum(row["count"] for row in rows) == \
            sum(1 for s in spans if s.completed)
        for row in rows:
            assert row["count"] > 0  # empty windows omitted
            assert row["latency"]["p999"] is not None

    def test_slo_burn_rate_extremes(self):
        spans = _spans_multipaxos()
        strict = slo_summary(spans, threshold=0.0, budget=0.01)
        assert strict["violation_fraction"] == 1.0
        assert strict["burn_rate"] == pytest.approx(100.0)
        lax = slo_summary(spans, threshold=10 ** 9)
        assert lax["violations"] == 0
        assert lax["compliance"] == 1.0
        assert lax["worst_window_burn_rate"] == 0.0

    @pytest.mark.parametrize("window", [1.0, 5.0, 20.0, 100.0])
    def test_worst_window_is_one_of_the_reported_windows(self, window):
        """The SLO block's worst window is read off the time-series rows
        the same report carries (it used to be rebuilt at the default
        width, so ``--window 5`` printed a 100x window under a "worst
        window 20x" line), and can never burn slower than the run."""
        cluster = Cluster(seed=0, trace=True)
        run_multipaxos(cluster, n_replicas=3, n_clients=2,
                       commands_per_client=10)
        spans = SpanBuilder(cluster.trace).build()
        report = spans_report(spans, window=window, slo=5.0)
        slo = report["slo"]
        assert 0 < slo["violations"] < slo["requests"]
        assert slo["worst_window_burn_rate"] == pytest.approx(max(
            row["violation_fraction"] for row in report["timeseries"])
            / slo["budget"])
        assert slo["worst_window_burn_rate"] >= slo["burn_rate"]

    def test_report_includes_slo_block_only_when_asked(self):
        spans = _spans_multipaxos()
        plain = spans_report(spans, protocol="multi-paxos", seed=0)
        assert "slo" not in plain
        gated = spans_report(spans, protocol="multi-paxos", seed=0,
                             slo=5.0)
        assert gated["slo"]["threshold"] == 5.0


class TestChromeExport:
    def test_document_shape_and_determinism(self, tmp_path):
        spans = _spans_multipaxos()
        document = to_chrome(spans, protocol="multi-paxos")
        events = document["traceEvents"]
        assert any(e["ph"] == "M" for e in events)
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert event["dur"] >= 0 and event["ts"] >= 0
        assert chrome_to_json(document) == \
            chrome_to_json(to_chrome(_spans_multipaxos(),
                                     protocol="multi-paxos"))
        # write_chrome creates missing parent directories (ioutil).
        target = tmp_path / "deep" / "nested" / "trace.json"
        count = write_chrome(document, str(target))
        assert count == len(events)
        assert json.loads(target.read_text())["traceEvents"]


class TestHistogramSatellites:
    def test_overflow_quantile_reports_observed_max(self):
        histogram = Histogram()
        histogram.observe(5000.0)  # beyond the last finite bucket edge
        histogram.observe(9000.0)
        assert histogram.quantile(0.5) == 9000.0
        assert histogram.quantile(0.999) == 9000.0

    def test_summary_has_p999(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert "p999" in summary and summary["p999"] is not None
        assert NullHistogram().summary()["p999"] is None


class TestAnomalySpanLink:
    def test_record_links_offending_request_span(self):
        from repro.monitor.base import Monitor
        from repro.trace.events import LOCAL
        from repro.trace.tracer import row_get
        cluster = Cluster(seed=0, trace=True)
        run_multipaxos(cluster, n_replicas=3, n_clients=1,
                       commands_per_client=2)
        row = next(r for r in cluster.trace.rows()
                   if r[0] == LOCAL and r[4] == "apply"
                   and row_get(r, "req") is not None)
        anomaly = Monitor().record("synthetic violation", row=row)
        detail = dict(anomaly.detail)
        assert detail["span"] == row_get(row, "req")
        # An explicit span= wins over the derived one.
        pinned = Monitor().record("synthetic", row=row, span="x")
        assert dict(pinned.detail)["span"] == "x"


class TestSpansCli:
    def test_spans_json_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "spans.json"
        exit_code = main(["spans", "multi-paxos", "--seed", "0",
                          "--json", str(out)])
        capsys.readouterr()
        assert exit_code == 0
        golden = GOLDEN_DIR / "multi-paxos_seed0.spans.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_sharded_spans_json_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "spans.json"
        exit_code = main(["spans", "shards", "--seed", "0",
                          "--json", str(out)])
        capsys.readouterr()
        assert exit_code == 0
        golden = GOLDEN_DIR / "shards_seed0.spans.json"
        assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_parallel_spans_byte_identical(self, workers, tmp_path,
                                           capsys):
        out = tmp_path / "spans.json"
        exit_code = main(["spans", "shards", "--seed", "0",
                          "--workers", str(workers), "--json", str(out)])
        capsys.readouterr()
        assert exit_code == 0
        golden = GOLDEN_DIR / "shards_par_seed0.spans.json"
        assert out.read_bytes() == golden.read_bytes(), \
            "workers=%d span JSON diverged from the workers=1 golden" \
            % workers

    def test_unknown_request_id_exits_2(self, tmp_path, capsys):
        exit_code = main(["spans", "multi-paxos", "--seed", "0",
                          "--req", "no-such-request"])
        capsys.readouterr()
        assert exit_code == 2

    def test_single_request_waterfall(self, capsys):
        exit_code = main(["spans", "multi-paxos", "--seed", "0",
                          "--req", "c0-0"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "span c0-0 (request)" in output
