"""A shard-parallel trace pass charts exactly what one shard charts.

The shard count is forced through :func:`repro.core.shards.shard_count`
(it is no parameter of ``sample_trace`` or of the CLI); every case
compares 2–4 shards against one, on rows, CLI documents, CSV files,
merged obs counters and strict errors.
"""

from __future__ import annotations

import gzip
import json
import os
import threading
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import experiments as ex
from repro.core import shards
from repro.core.metrics import DailyIpTally, peer_counts
from repro.core.timeseries import Sampling, sample_trace
from repro.obs import Observer
from repro.traces import SegmentedTraceReader
from repro.traces.segments import TraceSlice
from repro.traces.store import TraceFormatError, TraceTruncatedError

HOUR = 3_600.0
SHARDS = (2, 3, 4)


def campaign(path: Path, **store) -> Path:
    ex.run_campaign(
        path, days=0.5, base_concurrency=150.0, seed=3, with_flash_crowd=False, **store
    )
    return path


@pytest.fixture(scope="module")
def plain(tmp_path_factory) -> Path:
    """72 windows in one uncompressed segment."""
    return campaign(tmp_path_factory.mktemp("sharded") / "plain")


@pytest.fixture(scope="module")
def segmented(tmp_path_factory) -> Path:
    """The same kind of trace over many small uncompressed segments."""
    return campaign(tmp_path_factory.mktemp("sharded") / "segmented", records_per_segment=300)


@pytest.fixture(scope="module")
def gz(tmp_path_factory) -> Path:
    """Many small ``.gz`` segments, which cut only at segment starts."""
    return campaign(
        tmp_path_factory.mktemp("sharded") / "gz", records_per_segment=250, compress=True
    )


@pytest.fixture
def force(monkeypatch):
    """``force(n)``: every pass of the test asks for ``n`` shards."""

    def set_count(count: int) -> None:
        monkeypatch.setattr(shards, "shard_count", lambda reader: count)

    return set_count


def observed(run):
    """``run(obs)``'s result and the counters and span counts of ``obs``."""
    obs = Observer()
    result = run(obs)
    counters = obs.registry.counters()
    spans = {n: h.count for n, h in obs.registry.histograms().items()}
    return result, counters, spans


def charted(trace, samplings, **kwargs):
    """``sample_trace``'s series and the counters of an observer it fed."""
    return observed(lambda obs: sample_trace(trace, samplings, obs=obs, **kwargs))


def figure_plans():
    return {
        "fig1": ex.fig1_plan(),
        "fig3": ex.fig3_plan(),
        "fig4": ex.fig4_plan(snapshot_times={"3am": 3 * HOUR, "9am": 9 * HOUR}),
        "fig5": ex.fig5_plan(),
        "fig8": ex.fig8_plan(),
    }


def all_figures(trace):
    return observed(lambda obs: ex.chart(trace, figure_plans(), obs=obs))


def windows_of(segment: Path) -> list[float]:
    return [r.time // 600.0 for r in SegmentedTraceReader(segment)]


def without_shards(counters: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in counters.items() if k != "analytics.shards"}


class TestFiguresEqualOneShard:
    @pytest.mark.parametrize("trace", ["plain", "segmented", "gz"])
    def test_rows_and_counters(self, request, force, trace):
        reader = SegmentedTraceReader(request.getfixturevalue(trace))
        force(1)
        one, one_counters, one_spans = all_figures(reader)
        assert one_counters["analytics.shards"] == 1
        for count in SHARDS:
            force(count)
            many, counters, spans = all_figures(reader)
            assert counters["analytics.shards"] == count
            assert many == one
            assert without_shards(counters) == without_shards(one_counters)
            assert spans == one_spans  # one trace pass, equal span counts

    def test_gz_segment_boundaries_straddle_windows(self, gz):
        segments = SegmentedTraceReader(gz).segment_paths()
        assert len(segments) > 4
        straddled = [
            a for a, b in zip(segments, segments[1:])
            if windows_of(a)[-1] == windows_of(b)[0]
        ]
        assert straddled, "no window crosses a segment boundary"

    def test_plain_segment_boundaries_straddle_windows(self, segmented):
        segments = SegmentedTraceReader(segmented).segment_paths()
        assert any(
            windows_of(a)[-1] == windows_of(b)[0] for a, b in zip(segments, segments[1:])
        )

    @pytest.mark.parametrize("trace", ["segmented", "gz"])
    def test_windowed_structure(self, request, force, trace):
        reader = SegmentedTraceReader(request.getfixturevalue(trace))
        force(1)
        one = ex.windowed_structure(reader)
        for count in SHARDS:
            force(count)
            assert ex.windowed_structure(reader) == one


def analyze(trace: Path, figure: str, out: Path) -> tuple[str, dict[str, bytes], dict]:
    """``repro analyze --json`` output, its CSV files and its obs metrics."""
    csv_dir, obs_dir = out / "csv", out / "obs"
    argv = ["analyze", "--trace", str(trace), "--figure", figure, "--json"]
    argv += ["--csv-dir", str(csv_dir), "--obs-dir", str(obs_dir)]
    buf = StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    csv = {p.name: p.read_bytes() for p in sorted(csv_dir.iterdir())}
    metrics = json.loads((obs_dir / "metrics.json").read_text())
    return buf.getvalue(), csv, metrics


class TestCliEqualsOneShard:
    @pytest.mark.parametrize("figure", ["all", "windows"])
    @pytest.mark.parametrize("trace", ["segmented", "gz"])
    def test_json_csv_and_obs(self, request, force, tmp_path, trace, figure):
        path = request.getfixturevalue(trace)
        force(1)
        doc, csv, metrics = analyze(path, figure, tmp_path / "one")
        assert csv
        for count in (2, 4):
            force(count)
            many_doc, many_csv, many_metrics = analyze(path, figure, tmp_path / str(count))
            assert many_doc == doc
            assert many_csv == csv
            counters = many_metrics["counters"]
            assert counters["analytics.shards"] == count
            assert without_shards(counters) == without_shards(metrics["counters"])
            assert many_metrics["gauges"] == metrics["gauges"]  # last in window order
            assert many_metrics["histograms"]["analytics.trace_pass"]["count"] == 1
            events = [
                json.loads(line)
                for line in (tmp_path / str(count) / "obs" / "events.jsonl").open()
            ]
            passes = [e for e in events if e["name"] == "analytics.trace_pass"]
            assert len(passes) == 1 and events[-1] is passes[0]
            assert sum(e["depth"] == 0 for e in events) == 1


class Seen:
    """A tap that keeps the time of every report it is shown."""

    def __init__(self):
        self.times = []

    def add(self, report):
        self.times.append(report.time)

    def merge(self, other):
        self.times.extend(other.times)


class TestEarlyExitAndTaps:
    def test_instants_only_pass_stops_where_one_shard_does(self, force, plain):
        reader = SegmentedTraceReader(plain)

        def samplings():
            return {"at": Sampling({"n": peer_counts}, instants=(2 * HOUR, 5 * HOUR))}

        force(1)
        one, one_counters, _ = charted(reader, samplings())
        total = sum(1 for _ in reader)
        assert one_counters["analytics.reports"] < total / 2  # it did stop early
        for count in SHARDS:
            force(count)
            many, counters, _ = charted(reader, samplings())
            assert many == one
            assert without_shards(counters) == without_shards(one_counters)

    def test_tap_sees_reports_before_start_once(self, force, segmented):
        reader = SegmentedTraceReader(segmented)

        def run():
            seen, tally = Seen(), DailyIpTally(seconds_per_day=HOUR)
            samplings = {
                "seen": Sampling({}, on_report=seen.add),
                "tally": Sampling({"n": peer_counts}, every=HOUR, on_report=tally.add),
            }
            series, counters, _ = charted(reader, samplings, start=3 * HOUR)
            return series, without_shards(counters), seen.times, tally.rows()

        force(1)
        one = run()
        assert one[2] == [r.time for r in reader]  # every report, pre-start ones too
        assert min(one[2]) < 3 * HOUR
        for count in SHARDS:
            force(count)
            assert run() == one

    def test_tap_without_merge_reads_one_shard(self, force, plain):
        force(4)
        seen = []
        _, counters, _ = charted(
            SegmentedTraceReader(plain), {"tap": Sampling({}, on_report=seen.append)}
        )
        assert counters["analytics.shards"] == 1

    def test_tolerant_reader_and_iterables_read_one_shard(self, force, plain):
        force(4)
        sampling = {"n": Sampling({"n": peer_counts}, every=HOUR)}
        tolerant = SegmentedTraceReader(plain, tolerant=True)
        _, counters, _ = charted(tolerant, sampling)
        assert counters["analytics.shards"] == 1
        _, counters, _ = charted(list(SegmentedTraceReader(plain)), sampling)
        assert counters["analytics.shards"] == 1


def copy_lines(src: Path, dest: Path, edit) -> Path:
    """A one-segment trace at ``dest`` holding ``edit(lines)`` of ``src``."""
    lines = [
        line
        for seg in SegmentedTraceReader(src).segment_paths()
        for line in (gzip.open(seg, "rt") if seg.suffix == ".gz" else open(seg))
    ]
    dest.write_text("".join(edit(lines)))
    return dest


def error_of(trace: Path) -> tuple[type, str]:
    with pytest.raises(TraceFormatError) as info:
        ex.windowed_structure(SegmentedTraceReader(trace))
    return type(info.value), str(info.value)


@pytest.fixture
def forks(monkeypatch):
    """The PIDs of every child the test forks."""
    pids: list[int] = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestStrictErrors:
    @pytest.mark.parametrize("at", [0.1, 0.6, 0.95])
    def test_malformed_line_same_error_and_line(self, force, forks, plain, tmp_path, at):
        def corrupt(lines):
            lines[int(len(lines) * at)] = '{"t": broken\n'
            return lines

        trace = copy_lines(plain, tmp_path / "bad.jsonl", corrupt)
        force(1)
        one = error_of(trace)
        assert f"line {int(len(trace.read_text().splitlines()) * at) + 1}:" in one[1]
        for count in SHARDS:
            force(count)
            assert error_of(trace) == one
        assert_reaped(forks)

    def test_truncated_final_line(self, force, forks, plain, tmp_path):
        trace = copy_lines(plain, tmp_path / "torn.jsonl", lambda lines: lines + ['{"t": 1'])
        force(1)
        one = error_of(trace)
        assert one[0] is TraceTruncatedError
        for count in SHARDS:
            force(count)
            assert error_of(trace) == one
        assert_reaped(forks)

    @pytest.mark.parametrize("back", [0.5, 0.8])
    def test_window_order_regression(self, force, plain, tmp_path, back):
        def regress(lines):
            # Halfway through, the trace steps back into earlier windows.
            half = len(lines) // 2
            return lines[:half] + lines[int(half * back):]

        trace = copy_lines(plain, tmp_path / "regress.jsonl", regress)
        force(1)
        one = error_of(trace)
        assert one == (TraceFormatError, "trace not time-ordered across windows")
        for count in SHARDS:
            force(count)
            assert error_of(trace) == one

    def test_cut_check_rejects_shards_that_share_a_window(self, monkeypatch, force, plain):
        whole = TraceSlice(0, 0, 0)
        monkeypatch.setattr(
            shards, "plan_shards", lambda reader, count, **kw: [reader.sliced(whole)] * 2
        )
        force(2)
        with pytest.raises(TraceFormatError, match="not time-ordered across windows"):
            ex.windowed_structure(SegmentedTraceReader(plain))


class TestShardCount:
    def test_never_exceeds_cpu_affinity(self, monkeypatch, plain):
        monkeypatch.setattr(shards, "MIN_SHARD_BYTES", 1)
        cpus = len(os.sched_getaffinity(0))
        assert shards.shard_count(SegmentedTraceReader(plain)) == cpus

    def test_small_trace_is_one_shard(self, monkeypatch, plain):
        size = sum(p.stat().st_size for p in SegmentedTraceReader(plain).segment_paths())
        monkeypatch.setattr(shards, "MIN_SHARD_BYTES", size + 1)
        assert shards.shard_count(SegmentedTraceReader(plain)) == 1

    def test_live_thread_means_one_shard(self, monkeypatch, plain):
        monkeypatch.setattr(shards, "MIN_SHARD_BYTES", 1)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert shards.shard_count(SegmentedTraceReader(plain)) == 1
        finally:
            release.set()
            thread.join()

    def test_no_fork_means_one_shard(self, monkeypatch, plain):
        monkeypatch.setattr(shards, "MIN_SHARD_BYTES", 1)
        monkeypatch.delattr(os, "fork")
        assert shards.shard_count(SegmentedTraceReader(plain)) == 1


def test_sliced_reader_streams_its_byte_range(plain, tmp_path):
    """Two slices cut on a line start read the whole trace between them."""
    segment = SegmentedTraceReader(plain).segment_paths()[0]
    data = segment.read_bytes()
    cut = data.index(b"\n", len(data) // 3) + 1
    reader = SegmentedTraceReader(plain)
    head = list(reader.sliced(TraceSlice(0, 0, 0, cut)))
    tail = list(reader.sliced(TraceSlice(0, cut, 0)))
    assert head + tail == list(reader)
    assert len(head) == data[:cut].count(b"\n")

