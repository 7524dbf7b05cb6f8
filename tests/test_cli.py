"""End-to-end tests for the command-line interface."""

import shutil
from pathlib import Path

import pytest

from repro.cli import FIGURES, build_parser, main
from repro.traces import SegmentedTraceReader


def trace_lines(trace_dir):
    return [
        line
        for path in SegmentedTraceReader(trace_dir).segment_paths()
        for line in path.read_text().splitlines(keepends=True)
    ]


def corrupt_copy(trace, tmp_path):
    """``trace`` as plain JSONL with line 447 cut mid-record."""
    lines = trace_lines(trace)
    lines[446] = lines[446][:40] + "\n"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines))
    return bad


def dirty_copy(trace, tmp_path):
    """``trace`` with its first line duplicated and its last one torn."""
    lines = trace_lines(trace)
    dirty = tmp_path / "dirty.jsonl"
    dirty.write_text(lines[0] + "".join(lines[:-1]) + lines[-1][:30])
    return dirty


#: ``repro info`` on ``cli_trace``, plain and on its ``dirty_copy`` with
#: ``--tolerant``, with the trace path replaced by ``{trace}`` and each
#: line's trailing padding stripped.
INFO_SUMMARY = """\
trace {trace}
property                      value
----------------------------  ------
                     reports    1330
reporting peers (stable IPs)     470
                    channels       8
                 span (days)   0.390
   mean reporting span (min)  18.400
       mean reports per peer   2.800
   mean window turnover rate   0.719
   mean partner-list jaccard   0.409

campaign health {trace}
property                        value
------------------------------  -----
              rounds completed     58
                 trace records   1330
            resumed from round      -
                partner policy  uusee
        server-dropped reports      6
quarantined records (recovery)      0
    truncated lines (recovery)      0
     parse failures (recovery)      0
"""
INFO_TOLERANT = """\
trace {trace}
property                      value
----------------------------  ------
                     reports    1329
reporting peers (stable IPs)     469
                    channels       8
                 span (days)   0.390
   mean reporting span (min)  18.400
       mean reports per peer   2.800
   mean window turnover rate   0.719
   mean partner-list jaccard   0.409

trace health {trace}
counter                    value
-------------------------  -------
               lines read     1331
               records ok     1329
           parse failures        0
          truncated lines        1
       duplicates dropped        1
        reordered records     1015
    max reorder depth (s)  583.600
      quarantined records        0
server drops (collection)        0
spill overflow (reporter)        0
"""


def pinned(out, trace):
    """``out`` in the form of the pinned ``INFO_*`` texts."""
    lines = out.replace(str(trace), "{trace}").splitlines()
    return "".join(line.rstrip() + "\n" for line in lines)


@pytest.fixture(scope="module")
def cli_trace(tmp_path_factory):
    """A tiny simulated campaign produced through the CLI itself."""
    path = tmp_path_factory.mktemp("cli") / "trace"
    rc = main(
        [
            "run",
            "--trace-dir",
            str(path),
            "--days",
            "0.4",
            "--base",
            "120",
            "--seed",
            "5",
            "--no-flash-crowd",
        ]
    )
    assert rc == 0
    return path


class TestParser:
    def test_commands_exist(self):
        parser = build_parser()
        for argv in (
            ["run", "--trace-dir", "d"],
            ["analyze", "--trace", "x.jsonl"],
            ["info", "--trace", "x.jsonl"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_figure_choices(self):
        parser = build_parser()
        args = parser.parse_args(["analyze", "--trace", "t", "--figure", "fig6"])
        assert args.figure == "fig6"
        with pytest.raises(SystemExit):
            parser.parse_args(["analyze", "--trace", "t", "--figure", "fig99"])

    def test_policy_choices(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--trace-dir", "d", "--policy", "tree"])
        assert args.policy == "tree"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--trace-dir", "d"])
        assert not args.resume
        assert args.checkpoint_every == 36
        assert args.keep_last == 3

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["run", "--trace-dir", "t"],
                {
                    "command": "run", "trace_dir": Path("t"), "checkpoint_dir": None,
                    "resume": False, "shards": 1, "max_restarts": 3,
                    "heartbeat_timeout": 30.0, "progress_timeout": 120.0, "days": 2.0,
                    "base": 500.0, "seed": 2006, "policy": "uusee",
                    "no_flash_crowd": False, "engine": "object", "checkpoint_every": 36,
                    "keep_last": 3, "segment_records": 100_000, "compress": False,
                    "fsync": False, "obs_dir": None, "ingest": None,
                    "ingest_transport": "tcp", "ingest_loss": 0.0, "ingest_shard": 0,
                },
            ),
            (
                ["serve", "--trace-dir", "t"],
                {
                    "command": "serve", "trace_dir": Path("t"), "host": "127.0.0.1",
                    "tcp_port": 0, "udp_port": 0, "port_file": None,
                    "segment_records": 100_000, "compress": False, "queue_high": 8192,
                    "queue_low": 2048, "obs_dir": None,
                },
            ),
            (
                ["analyze", "--trace", "t"],
                {
                    "command": "analyze", "trace": Path("t"), "figure": "all",
                    "csv_dir": None, "tolerant": False, "json": False, "obs_dir": None,
                },
            ),
            (
                ["info"],
                {"command": "info", "trace": None, "tolerant": False, "server": None},
            ),
            (
                ["obs", "summarize", "d"],
                {"command": "obs", "obs_command": "summarize", "obs_dir": Path("d")},
            ),
            (
                ["qa"],
                {
                    "command": "qa", "paths": [], "json": False,
                    "fix_suppressions": False, "list_rules": False,
                },
            ),
            (
                ["compare-overlays"],
                {
                    "command": "compare-overlays",
                    "policies": "uusee,locality:mix=0.75,hamiltonian:k=2,"
                    "random-regular:d=4,strandcast",
                    "hours": 6.0, "base": 120.0, "seed": 2006, "json": False,
                    "markdown": False,
                },
            ),
        ],
        ids=["run", "serve", "analyze", "info", "obs", "qa", "compare-overlays"],
    )
    def test_minimal_command_line_defaults(self, argv, expected):
        assert vars(build_parser().parse_args(argv)) == expected

    def test_analyze_requires_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze"])


class TestRunCampaign:
    @pytest.fixture(scope="class")
    def campaign_dir(self, tmp_path_factory):
        """A short campaign run through the CLI, then resumed to extend."""
        d = tmp_path_factory.mktemp("campaign") / "trace"
        argv = [
            "run", "--trace-dir", str(d), "--days", "0.1", "--base", "60",
            "--seed", "5", "--no-flash-crowd", "--checkpoint-every", "4",
            "--segment-records", "50",
        ]
        assert main(argv) == 0
        return d

    def test_campaign_layout(self, campaign_dir):
        assert (campaign_dir / "manifest.json").exists()
        assert list(campaign_dir.glob("seg-*.jsonl"))
        assert list((campaign_dir / "checkpoints").glob("ckpt-*.bin"))

    def test_resume_extends_campaign(self, campaign_dir, capsys):
        argv = [
            "run", "--trace-dir", str(campaign_dir), "--resume",
            "--days", "0.15", "--base", "60", "--seed", "5",
            "--no-flash-crowd", "--checkpoint-every", "4",
            "--segment-records", "50",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint at round" in out
        assert "campaign complete" in out

    def test_resume_without_checkpoints_fails_cleanly(self, tmp_path, capsys):
        rc = main(["run", "--trace-dir", str(tmp_path / "void"), "--resume"])
        assert rc == 2
        assert "no valid checkpoint" in capsys.readouterr().err

    def test_fresh_run_refuses_existing_campaign(self, campaign_dir, capsys):
        rc = main(["run", "--trace-dir", str(campaign_dir), "--days", "0.1"])
        assert rc == 2
        assert "already holds a segmented trace" in capsys.readouterr().err

    def test_analyze_and_info_read_campaign_directory(
        self, campaign_dir, capsys
    ):
        assert main(["info", "--trace", str(campaign_dir)]) == 0
        assert "reports" in capsys.readouterr().out
        rc = main(
            ["analyze", "--trace", str(campaign_dir), "--figure", "fig1"]
        )
        assert rc == 0
        assert "Fig. 1(A)" in capsys.readouterr().out


class TestRunRejectsBadSettings:
    """A setting no campaign can use fails before anything is written."""

    GOOD = ["--days", "0.05", "--base", "50", "--seed", "3", "--no-flash-crowd"]

    @pytest.mark.parametrize("shards", ["1", "2"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--checkpoint-every", "0"),
            ("--keep-last", "0"),
            ("--segment-records", "0"),
            ("--base", "-5"),
            ("--base", "nan"),
            ("--days", "-1"),
            ("--days", "inf"),
        ],
    )
    def test_bad_value_leaves_nothing(self, tmp_path, capsys, shards, flag, value):
        trace = tmp_path / "camp"
        argv = ["run", "--trace-dir", str(trace), "--shards", shards, *self.GOOD]
        assert main([*argv, flag, value]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        # no manifest, checkpoints/ or shards/: not even the directory
        assert not trace.exists()

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_corrected_rerun_succeeds_in_the_same_directory(
        self, tmp_path, capsys, shards
    ):
        trace = tmp_path / "camp"
        argv = ["run", "--trace-dir", str(trace), "--shards", shards, *self.GOOD]
        assert main([*argv, "--checkpoint-every", "0"]) == 2
        assert main(argv) == 0
        assert "campaign complete" in capsys.readouterr().out

    def test_library_entry_points_check_before_writing(self, tmp_path):
        from repro.core.experiments import run_campaign
        from repro.fleet import FleetCampaignConfig, run_fleet_campaign

        with pytest.raises(ValueError, match="checkpoint_every_rounds"):
            run_campaign(tmp_path / "one", days=0.05, checkpoint_every_rounds=0)
        with pytest.raises(ValueError, match="records_per_segment"):
            run_fleet_campaign(
                FleetCampaignConfig(
                    campaign_dir=tmp_path / "fleet",
                    num_shards=2,
                    days=0.05,
                    records_per_segment=0,
                )
            )
        assert list(tmp_path.iterdir()) == []


def test_fleet_with_no_completed_shard_fails(tmp_path, capsys, monkeypatch):
    import repro.fleet
    from repro.fleet import FleetResult
    from repro.fleet.supervisor import ShardOutcome

    def all_quarantined(config, **_):
        outcomes = {
            sid: ShardOutcome(sid, "quarantined", rounds_completed=0, restarts=3)
            for sid in range(config.num_shards)
        }
        return FleetResult(
            campaign_dir=Path(config.campaign_dir),
            outcomes=outcomes,
            merge=None,
            interrupted=False,
        )

    monkeypatch.setattr(repro.fleet, "run_fleet_campaign", all_quarantined)
    rc = main(
        ["run", "--trace-dir", str(tmp_path / "camp"), "--shards", "2",
         "--days", "0.05"]
    )
    out, err = capsys.readouterr()
    assert rc == 1
    assert "QUARANTINED shards: [0, 1]" in out
    assert "campaign complete" not in out
    assert "no shard completed" in err


class TestSimulate:
    def test_trace_created(self, cli_trace):
        segments = SegmentedTraceReader(cli_trace).segment_paths()
        assert segments
        assert sum(path.stat().st_size for path in segments) > 1000


class TestInfo:
    def test_summary_printed(self, cli_trace, capsys):
        assert main(["info", "--trace", str(cli_trace)]) == 0
        out = capsys.readouterr().out
        assert "reports" in out
        assert "reporting peers" in out

    def test_missing_trace(self, tmp_path, capsys):
        rc = main(["info", "--trace", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "no such trace" in capsys.readouterr().err

    def test_tolerant_reports_health(self, cli_trace, tmp_path, capsys):
        dirty = dirty_copy(cli_trace, tmp_path)
        assert main(["info", "--trace", str(dirty), "--tolerant"]) == 0
        out = capsys.readouterr().out
        assert "trace health" in out
        assert "duplicates dropped" in out

    def test_summary_output_is_pinned(self, cli_trace, capsys):
        assert main(["info", "--trace", str(cli_trace)]) == 0
        out = capsys.readouterr().out
        assert pinned(out, cli_trace) == INFO_SUMMARY

    def test_tolerant_output_is_pinned(self, cli_trace, tmp_path, capsys):
        dirty = dirty_copy(cli_trace, tmp_path)
        assert main(["info", "--trace", str(dirty), "--tolerant"]) == 0
        out = capsys.readouterr().out
        assert pinned(out, dirty) == INFO_TOLERANT

    def test_reads_the_trace_once(self, cli_trace, capsys, monkeypatch):
        passes = []
        original = SegmentedTraceReader.__iter__

        def counting(reader):
            passes.append(reader)
            return original(reader)

        monkeypatch.setattr(SegmentedTraceReader, "__iter__", counting)
        assert main(["info", "--trace", str(cli_trace)]) == 0
        assert len(passes) == 1

    def test_damaged_trace_exits_with_tolerant_hint(self, cli_trace, tmp_path, capsys):
        damaged = tmp_path / "damaged"
        shutil.copytree(cli_trace, damaged)
        segment = SegmentedTraceReader(damaged).segment_paths()[0]
        lines = segment.read_text().splitlines(keepends=True)
        lines[100] = "{not a report}\n"
        segment.write_text("".join(lines))
        assert main(["info", "--trace", str(damaged)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.err.count("(--tolerant skips and counts damaged records)") == 1


class TestAnalyze:
    def test_single_figure(self, cli_trace, capsys):
        assert main(["analyze", "--trace", str(cli_trace), "--figure", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "China Telecom" in out

    def test_fig4_too_short_is_skipped_gracefully(self, cli_trace, capsys):
        # the default Fig. 4 snapshots are beyond a 0.4-day trace
        assert main(["analyze", "--trace", str(cli_trace), "--figure", "fig4"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_csv_export(self, cli_trace, tmp_path, capsys):
        csv_dir = tmp_path / "csv"
        rc = main(
            [
                "analyze",
                "--trace",
                str(cli_trace),
                "--figure",
                "fig1",
                "--csv-dir",
                str(csv_dir),
            ]
        )
        assert rc == 0
        assert (csv_dir / "fig1a.csv").exists()
        assert (csv_dir / "fig1b.csv").exists()
        header = (csv_dir / "fig1a.csv").read_text().splitlines()[0]
        assert header == "t,total,stable"

    def test_missing_trace(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "analyze", "--trace", str(tmp_path / "gone.jsonl"),
                "--csv-dir", str(out),
            ]
        )
        assert rc == 2
        assert not out.exists()

    def test_all_figures_on_short_trace(self, cli_trace, capsys):
        # every analyzer either renders or reports a graceful skip
        assert main(["analyze", "--trace", str(cli_trace)]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1(A)" in out
        assert "Fig. 8" in out

    def test_corrupt_trace_aborts_with_tolerant_hint(self, cli_trace, tmp_path, capsys):
        bad = corrupt_copy(cli_trace, tmp_path)
        assert main(["analyze", "--trace", str(bad), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("malformed record on line 447") == 1
        assert "--tolerant" in captured.err

    def test_corrupt_trace_charts_under_tolerant(self, cli_trace, tmp_path, capsys):
        import json

        bad = corrupt_copy(cli_trace, tmp_path)
        assert main(["analyze", "--trace", str(bad), "--json", "--tolerant"]) == 0
        doc = json.loads(capsys.readouterr().out)
        skipped = {fig for fig, payload in doc["figures"].items() if "skipped" in payload}
        assert skipped == {"fig4"}
        assert doc["trace_health"]["parse_failures"] == 1

    def test_bad_workers_leaves_no_csv_dir(self, cli_trace, tmp_path, capsys):
        # --workers is no longer an option of analyze: the parser refuses it
        # with the usage-error status before any output directory is made
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "analyze", "--trace", str(cli_trace), "--workers", "0",
                    "--csv-dir", str(out),
                ]
            )
        assert exc.value.code == 2
        assert not out.exists()
        assert "--workers" in capsys.readouterr().err

    def test_windows_rows_equal_the_kernels(self, cli_trace, capsys):
        import json

        from repro.core.experiments import WINDOW_STRUCTURE_METRICS
        from repro.core.timeseries import observe

        argv = ["analyze", "--trace", str(cli_trace), "--figure", "windows", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)["figures"]["windows"]
        series = observe(SegmentedTraceReader(cli_trace), WINDOW_STRUCTURE_METRICS)
        expected = [
            [t / 3600.0, deg["partners"].num_peers, deg["partners"].mean(), rho, clu]
            for t, deg, rho, clu in zip(
                series.times,
                series.column("degrees"),
                series.column("reciprocity"),
                series.column("clustering"),
            )
        ]
        assert len(expected) > 10
        assert payload["rows"] == expected
        assert payload["columns"] == ["t_hours", "peers", "mean_partners", "rho", "C"]
        assert payload["analytics"] == "incremental"

    def test_windows_is_one_pass_without_snapshots(self, cli_trace, tmp_path, capsys):
        import json

        from repro.traces.store import iter_windows

        obs_dir = tmp_path / "windows-obs"
        argv = [
            "analyze", "--trace", str(cli_trace), "--figure", "windows",
            "--json", "--obs-dir", str(obs_dir),
        ]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["figures"]["windows"]["rows"]
        windows = len(list(iter_windows(SegmentedTraceReader(cli_trace), 600.0)))
        assert len(rows) == windows
        metrics = json.loads((obs_dir / "metrics.json").read_text())
        histograms = metrics["histograms"]
        assert histograms["analytics.trace_pass"]["count"] == 1
        assert histograms["analytics.incremental_window"]["count"] == windows
        assert metrics["counters"]["analytics.incremental_windows"] == windows
        assert "analytics.snapshot" not in histograms
        assert "analytics.snapshots" not in metrics["counters"]

    @pytest.mark.parametrize("tolerant", [False, True])
    def test_all_equals_merged_single_figures(self, cli_trace, tmp_path, capsys, tolerant):
        import json

        trace = dirty_copy(cli_trace, tmp_path) if tolerant else cli_trace
        extra = ["--tolerant"] if tolerant else []

        def document(figure):
            argv = ["analyze", "--trace", str(trace), "--figure", figure, "--json"]
            assert main(argv + extra) == 0
            return json.loads(capsys.readouterr().out)

        merged = {"figures": {}}
        for fig in FIGURES:
            single = document(fig)
            merged["figures"].update(single.pop("figures"))
            for key, value in single.items():
                assert merged.setdefault(key, value) == value
        assert "skipped" in merged["figures"]["fig4"]
        if tolerant:
            assert merged["trace_health"]["duplicates"] == 1
        assert document("all") == merged


class TestObservability:
    @pytest.fixture(scope="class")
    def obs_campaign(self, tmp_path_factory):
        """A short instrumented campaign: (trace_dir, obs_dir)."""
        root = tmp_path_factory.mktemp("obs-cli")
        trace_dir = root / "trace"
        obs_dir = root / "obs"
        argv = [
            "run", "--trace-dir", str(trace_dir), "--days", "0.1",
            "--base", "60", "--seed", "5", "--no-flash-crowd",
            "--obs-dir", str(obs_dir),
        ]
        assert main(argv) == 0
        return trace_dir, obs_dir

    def test_run_writes_obs_files(self, obs_campaign, capsys):
        _, obs_dir = obs_campaign
        for name in ("events.jsonl", "metrics.json", "metrics.prom"):
            assert (obs_dir / name).exists(), name

    def test_obs_summarize(self, obs_campaign, capsys):
        _, obs_dir = obs_campaign
        assert main(["obs", "summarize", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "Round-phase timings" in out
        assert "campaign.run" in out
        assert "sim.rounds" in out

    def test_obs_summarize_missing_dir(self, tmp_path, capsys):
        rc = main(["obs", "summarize", str(tmp_path / "nope")])
        assert rc == 2
        assert "no such obs directory" in capsys.readouterr().err

    def test_info_surfaces_campaign_health(self, obs_campaign, capsys):
        trace_dir, _ = obs_campaign
        assert main(["info", "--trace", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "campaign health" in out
        assert "server-dropped reports" in out

    def test_analyze_json_document(self, obs_campaign, capsys):
        import json

        trace_dir, _ = obs_campaign
        rc = main(
            ["analyze", "--trace", str(trace_dir), "--figure", "fig1", "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        fig1 = doc["figures"]["fig1"]
        assert fig1["times"]
        assert len(fig1["total"]) == len(fig1["times"])
        # collection-path loss accounting rides along for campaign dirs
        assert "campaign_health" in doc
        assert "server_dropped" in doc["campaign_health"]["health"]

    def test_analyze_json_all_figures_parses(self, cli_trace, capsys):
        import json

        assert main(["analyze", "--trace", str(cli_trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["figures"]) == {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"
        }

    def test_analyze_obs_dir_profiles_analytics(self, cli_trace, tmp_path, capsys):
        obs_dir = tmp_path / "ana-obs"
        rc = main(
            [
                "analyze", "--trace", str(cli_trace), "--figure", "fig1",
                "--obs-dir", str(obs_dir),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "Analytics timings" in out
        assert "analytics.snapshot" in out

    def test_analyze_all_is_one_trace_pass(self, cli_trace, tmp_path, capsys):
        import json

        obs_dir = tmp_path / "ana-all"
        rc = main(["analyze", "--trace", str(cli_trace), "--obs-dir", str(obs_dir)])
        assert rc == 0
        capsys.readouterr()
        metrics = json.loads((obs_dir / "metrics.json").read_text())
        assert metrics["histograms"]["analytics.trace_pass"]["count"] == 1
        assert main(["obs", "summarize", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        analytics = out[out.index("Analytics timings"):]
        assert "analytics.trace_pass" in analytics


    def test_summarize_prints_trace_read_rate(self, cli_trace, tmp_path, capsys):
        import json

        obs_dir = tmp_path / "ana-rate"
        argv = ["analyze", "--trace", str(cli_trace), "--figure", "windows"]
        assert main(argv + ["--obs-dir", str(obs_dir)]) == 0
        capsys.readouterr()
        reports = sum(1 for _ in SegmentedTraceReader(cli_trace))
        metrics = json.loads((obs_dir / "metrics.json").read_text())
        assert metrics["counters"]["analytics.reports"] == reports
        assert main(["obs", "summarize", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert f"Trace passes: 1 passes, {reports} reports, " in out
        shards = metrics["counters"]["analytics.shards"]
        assert f" reports/s, {shards:.0f} shards\n" in out


class TestCompareOverlays:
    def test_table_lists_every_policy(self, capsys):
        rc = main(
            [
                "compare-overlays", "--policies", "uusee,strandcast",
                "--hours", "1", "--base", "60", "--seed", "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "overlay comparison" in out
        assert "uusee" in out and "strandcast" in out
        assert "intra-ISP baseline" in out

    def test_json_document(self, capsys):
        import json

        rc = main(
            [
                "compare-overlays", "--policies", "strandcast",
                "--hours", "1", "--base", "60", "--seed", "5", "--json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["spec"] == "strandcast"
        assert doc["rows"][0]["max_indegree"] == 1

    def test_markdown_table(self, capsys):
        rc = main(
            [
                "compare-overlays", "--policies", "strandcast",
                "--hours", "1", "--base", "60", "--seed", "5", "--markdown",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("| policy |")

    def test_unknown_policy_fails_cleanly(self, capsys):
        rc = main(["compare-overlays", "--policies", "nope"])
        assert rc == 2
        assert "unknown partner policy" in capsys.readouterr().err

    def test_campaign_policy_spec_roundtrip(self, tmp_path, capsys):
        rc = main(
            [
                "run", "--trace-dir", str(tmp_path / "camp"), "--days", "0.05",
                "--base", "50", "--seed", "3", "--no-flash-crowd",
                "--policy", "hamiltonian:k=2",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["info", "--trace", str(tmp_path / "camp")]) == 0
        out = capsys.readouterr().out
        assert "hamiltonian:k=2" in out
        assert "k=2" in out

    def test_run_rejects_bad_policy(self, tmp_path, capsys):
        rc = main(
            [
                "run", "--trace-dir", str(tmp_path / "camp"),
                "--days", "0.05", "--policy", "locality:mix=5",
            ]
        )
        assert rc == 2
        assert "mix must be in" in capsys.readouterr().err
        assert not (tmp_path / "camp").exists()
