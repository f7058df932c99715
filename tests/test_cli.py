"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXPERIMENTS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "HPBD" in capsys.readouterr().out

    def test_run_fig01(self, capsys):
        assert main(["run", "fig01"]) == 0
        out = capsys.readouterr().out
        assert "rdma_write" in out

    def test_run_fig03(self, capsys):
        assert main(["run", "fig03"]) == 0
        assert "registration" in capsys.readouterr().out

    def test_run_fig05_tiny_with_json(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        assert main(["run", "fig05", "--scale", "64", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "testswap" in out and "paper" in out
        payload = json.loads(path.read_text())
        assert payload["scale"] == 64
        assert set(payload["results"]["fig05"]) == {
            "local", "hpbd", "nbd-ipoib", "nbd-gige", "disk"
        }

    def test_run_fig06_tiny(self, capsys):
        assert main(["run", "fig06", "--scale", "64"]) == 0
        assert "cluster" in capsys.readouterr().out

    def test_run_fig10_tiny(self, capsys):
        assert main(["run", "fig10", "--scale", "64"]) == 0
        assert "servers" in capsys.readouterr().out

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig05", "--scale", "0"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCSVExport:
    def test_csv_flag_writes_files(self, capsys, tmp_path):
        assert main(["run", "fig03", "--csv", str(tmp_path)]) == 0
        text = (tmp_path / "fig03.csv").read_text()
        assert text.startswith("sizes,")

    def test_csv_flag_ignored_for_table1(self, capsys, tmp_path):
        assert main(["run", "table1", "--csv", str(tmp_path)]) == 0
        assert not (tmp_path / "table1.csv").exists()


class TestTrace:
    def test_trace_writes_chrome_json_and_breakdown(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        csv = tmp_path / "spans.csv"
        assert main([
            "trace", "--scale", "128",
            "-o", str(out), "--csv", str(csv),
        ]) == 0
        text = capsys.readouterr().out
        assert "share of overhead" in text
        assert "wire cross-check" in text
        doc = json.loads(out.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "C"} <= phases
        assert csv.read_text().startswith("start_usec,dur_usec,")

    def test_trace_disk_device(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main([
            "trace", "--device", "disk", "--workload", "testswap",
            "--scale", "128", "-o", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "disk mechanism" in text
        # no RDMA model to cross-check on the disk path
        assert "wire cross-check" not in text

    def test_trace_bad_device_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "--device", "floppy"])


class TestCritpathCommand:
    def test_critpath_report_and_artifacts(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        report = tmp_path / "critpath.json"
        assert main([
            "critpath", "--scale", "128", "--top", "3",
            "-o", str(out), "--json", str(report),
        ]) == 0
        text = capsys.readouterr().out
        assert "aggregate blame" in text
        assert "slowest requests" in text
        assert "invariant monitors: clean" in text
        doc = json.loads(report.read_text())
        assert doc["orphan_spans"] == 0
        assert doc["violations"] == []
        assert doc["requests"] > 0
        blame = doc["blame_usec"]
        assert blame["wire"] > 0
        assert 0.0 <= doc["queueing_frac"] <= 1.0
        assert len(doc["slowest"]) <= 3
        # per-request blame in the report sums to its e2e latency
        for entry in doc["slowest"]:
            assert sum(entry["blame_usec"].values()) == pytest.approx(
                entry["e2e_usec"], rel=1e-6
            )
        chrome = json.loads(out.read_text())
        assert {"M", "X"} <= {e["ph"] for e in chrome["traceEvents"]}

    def test_critpath_nbd_device(self, capsys):
        assert main([
            "critpath", "--device", "nbd-gige", "--workload", "testswap",
            "--scale", "256", "--top", "2",
        ]) == 0
        text = capsys.readouterr().out
        assert "queueing" in text
        assert "invariant monitors: clean" in text

    def test_trace_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "--scale", "0"])


class TestReport:
    def test_report_generates_markdown(self, capsys, tmp_path, monkeypatch):
        # Patch the experiment registry to only cheap entries so the
        # report test stays fast; the full registry is exercised by the
        # benchmark suite.
        import repro.cli as cli

        small = {
            "table1": cli.EXPERIMENTS["table1"],
            "fig01": cli.EXPERIMENTS["fig01"],
            "fig03": cli.EXPERIMENTS["fig03"],
        }
        monkeypatch.setattr(cli, "EXPERIMENTS", small)
        out = tmp_path / "REPORT.md"
        assert cli.main(["report", "--scale", "64", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# HPBD reproduction report")
        assert "## fig01" in text
        assert "rdma_write" in text


class TestSweepCommand:
    def test_sweep_cold_then_cached(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main([
            "sweep", "fig05", "--scale", "64", "--cache", str(cache),
        ]) == 0
        out = capsys.readouterr().out
        assert "5 simulated, 0 cached" in out
        assert main([
            "sweep", "fig05", "--scale", "64", "--cache", str(cache),
            "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 simulated, 5 cached" in out

    def test_sweep_json_payload(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        assert main([
            "sweep", "fig10", "--scale", "64", "--no-cache", "--quiet",
            "--json", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["scale"] == 64
        points = payload["sweeps"]["fig10"]["points"]
        assert set(points) == {"fig10/n1", "fig10/n2", "fig10/n4",
                               "fig10/n8", "fig10/n16"}

    def test_sweep_force_resimulates(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["sweep", "fig06", "--scale", "64", "--cache", str(cache),
                "--quiet"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--force"]) == 0
        assert "1 simulated, 0 cached" in capsys.readouterr().out

    def test_sweep_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "fig99"])

    def test_sweep_prints_cache_summary_and_campaign(self, capsys, tmp_path):
        store = tmp_path / "camp.jsonl"
        assert main([
            "sweep", "fig05", "--scale", "64",
            "--cache", str(tmp_path / "cache"), "--quiet",
            "--campaign", str(store),
        ]) == 0
        out = capsys.readouterr().out
        assert "cache:" in out and "misses" in out
        assert f"appended run records to {store}" in out
        from repro.obs.campaign import CampaignStore

        assert len(CampaignStore(store).load()) == 5


class TestCampaignCommands:
    def _mini(self, tmp_path, name="camp.jsonl", seeds="1,2"):
        store = tmp_path / name
        assert main([
            "campaign", "campaign", "--scale", "256", "--seeds", seeds,
            "--store", str(store), "--filter", "fair-2s", "--no-cache",
            "--quiet",
        ]) == 0
        return store

    def test_campaign_runs_and_prints_aggregates(self, capsys, tmp_path):
        store = self._mini(tmp_path)
        out = capsys.readouterr().out
        assert "2 simulated" in out
        assert "95% CI" in out
        assert f"appended 2 records to {store}" in out

    def test_compare_self_is_clean_and_regression_exits_nonzero(
        self, capsys, tmp_path
    ):
        import dataclasses

        from repro.obs.campaign import CampaignStore

        base = self._mini(tmp_path, "base.jsonl", seeds="1,2")
        other = self._mini(tmp_path, "other.jsonl", seeds="3,4")
        assert main(["compare", str(base), str(other)]) == 0
        assert "0 regressions" in capsys.readouterr().out
        # degrade the test side 3x -> the gate must fire
        slow = tmp_path / "slow.jsonl"
        slow_store = CampaignStore(slow)
        for rec in CampaignStore(other).load():
            slow_store.append(dataclasses.replace(
                rec,
                metrics={
                    k: v * 3 if "usec" in k else v
                    for k, v in rec.metrics.items()
                },
            ))
        assert main(["compare", str(base), str(slow)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_compare_bench_floors(self, capsys, tmp_path):
        import dataclasses

        from repro.obs.campaign import CampaignStore

        store = self._mini(tmp_path)
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"campaign_floors": [
            {"point": "*", "metric": "violations", "max": 0},
        ]}))
        assert main(["compare", str(store), "--bench", str(bench)]) == 0
        assert "all clear" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        bad_store = CampaignStore(bad)
        for rec in CampaignStore(store).load():
            bad_store.append(dataclasses.replace(
                rec, metrics={**rec.metrics, "violations": 2.0},
            ))
        assert main(["compare", str(bad), "--bench", str(bench)]) == 1
        assert "FLOOR VIOLATION" in capsys.readouterr().err

    def test_report_campaign_html(self, capsys, tmp_path, monkeypatch):
        store = self._mini(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main([
            "report", "--campaign", str(store), "--replay-check",
        ]) == 0
        out = capsys.readouterr().out
        assert "replay check passed" in out
        html = (tmp_path / "report.html").read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "Campaign report" in html

    def test_compare_missing_store_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compare", str(tmp_path / "absent.jsonl")])


class TestBenchCommand:
    def test_bench_writes_json(self, capsys, tmp_path):
        path = tmp_path / "BENCH_simulator.json"
        assert main([
            "bench", "--json", str(path), "--events", "5000",
            "--rounds", "1", "--sweep-scale", "128",
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["event_loop"]["timeout_events_per_sec"] > 0
        assert payload["sweep"]["cached_points_resimulated"] == 0
        assert payload["sweep"]["points"] == 4

    def test_bench_floor_enforced(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        assert main([
            "bench", "--json", str(path), "--events", "2000",
            "--rounds", "1", "--skip-sweep",
            "--min-events-per-sec", "1e12",
        ]) == 1

    def test_bench_fluid_payload_and_parallel_never_null(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        assert main([
            "bench", "--json", str(path), "--events", "2000",
            "--rounds", "1", "--sweep-scale", "128",
        ]) == 0
        payload = json.loads(path.read_text())
        fb = payload["fluid_bulk"]
        assert fb["identical_results"] is True
        assert fb["event_reduction"] > 10
        # the 1-CPU regression: parallel_sec must never be null again
        assert payload["sweep"]["parallel_sec"] is not None
        assert payload["sweep"]["parallel_workers"] >= 2
        out = capsys.readouterr().out
        assert "fluid bulk fast path" in out
        if payload["sweep"]["parallel_note"]:
            assert "note:" in out

    def test_bench_profile_flags(self, capsys, tmp_path):
        import pstats

        path = tmp_path / "bench.json"
        prof = tmp_path / "bench.prof"
        assert main([
            "bench", "--json", str(path), "--events", "2000",
            "--rounds", "1", "--skip-sweep",
            "--profile", "--profile-out", str(prof),
        ]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out  # pstats table printed
        assert prof.exists()
        stats = pstats.Stats(str(prof))
        assert stats.total_calls > 0


class TestFaultsCommand:
    def test_faults_mirror_smoke(self, capsys, tmp_path):
        trace = tmp_path / "fault-trace.json"
        report = tmp_path / "faults.json"
        assert main([
            "faults", "--mode", "mirror", "--scale", "64",
            "--expect-recovery",
            "-o", str(trace), "--json", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "invariant monitors: clean" in out
        assert trace.exists()
        payload = json.loads(report.read_text())
        assert payload["counters"]["write_failovers"] > 0
        assert payload["counters"]["timeouts"] > 0
        assert payload["violations"] == []
        assert payload["blame_usec"]["fault"] > 0

    def test_faults_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["faults", "--mode", "sideways"])

    def test_faults_disk_fallback(self, capsys):
        assert main([
            "faults", "--mode", "disk", "--scale", "64", "--expect-recovery",
        ]) == 0
        out = capsys.readouterr().out
        assert "disk_fallbacks" in out
        assert "invariant monitors: clean" in out


class TestRedundancyCommand:
    def test_rs21_recovery_replay_json(self, capsys, tmp_path):
        report = tmp_path / "redundancy.json"
        assert main([
            "redundancy", "--policy", "rs(2,1)", "--expect-recovery",
            "--replay-check", "--json", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "recovery gate: rebuilt" in out
        assert "replay check: second run identical" in out
        payload = json.loads(report.read_text())
        assert payload["status"] == 0
        assert payload["violations"] == []
        assert payload["report"]["repair"]["rebuilds"] >= 1


class TestBadInput:
    """Arguments that give no valid scenario exit 2 without running."""

    def test_negative_crash_count_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["redundancy", "--policy", "rs(4,2)", "--crashes", "-1"])
        assert exc.value.code == 2
        assert "--crashes" in capsys.readouterr().err

    def test_policy_wider_than_fleet(self, capsys):
        assert main([
            "redundancy", "--policy", "rs(4,2)", "--nservers", "4",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR: ") and "needs 6 servers" in err

    def test_cluster_without_servers(self, capsys):
        assert main(["cluster", "--nservers", "0", "--skip-baseline"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR: ") and "at least one server" in err

    def test_health_plan_degrades_missing_server(self, capsys):
        # The fail-slow plan degrades mem1's link; one server has no mem1.
        assert main(["health", "--nservers", "1", "--scale", "256"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR: ") and "'mem1'" in err

    def test_redundancy_crash_beyond_fleet(self, capsys):
        # nway crashes aim at servers 2 and 4; a 2-server ring has neither.
        assert main([
            "redundancy", "--policy", "nway(2)", "--nservers", "2",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR: ") and "server 2" in err


class _FakeResult:
    def __init__(self, value, violations):
        self.value = value
        self.invariant_violations = list(violations)
        self.trace = None


class TestGateDriver:
    """``_drive`` with a stub gate: no simulation, just the verdicts."""

    VIOLATION = {
        "t_usec": 1.0, "monitor": "credits", "component": "c0",
        "message": "went negative",
    }

    def _drive(self, monkeypatch, tmp_path, values, violations=(),
               failures=(), replay=True):
        import argparse

        from repro import cli

        it = iter(values)
        monkeypatch.setattr(
            "repro.runner.run_scenario",
            lambda cfg, trace=False: _FakeResult(next(it), violations),
        )

        def build(args):
            return cli._Gate(
                "stub run...",
                (cli._Run("run", None),),
                lambda results: (
                    {"zeta": 1, "value": results["run"].value},
                    list(failures),
                ),
                lambda results, payload, failures: None,
            )

        path = tmp_path / "gate.json"
        args = argparse.Namespace(json=str(path), replay_check=replay)
        return cli._drive(build, args), path

    def test_clean_run_exits_zero(self, monkeypatch, tmp_path, capsys):
        status, path = self._drive(monkeypatch, tmp_path, [1, 1])
        assert status == 0
        out = capsys.readouterr().out
        assert "invariant monitors: clean" in out
        assert "replay check: second run identical" in out
        text = path.read_text()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        assert payload == {
            "status": 0, "value": 1, "violations": [], "zeta": 1,
        }

    def test_failed_predicate_exits_one(self, monkeypatch, tmp_path, capsys):
        status, path = self._drive(
            monkeypatch, tmp_path, [1], failures=["gate tripped"],
            replay=False,
        )
        assert status == 1
        assert "ERROR: gate tripped" in capsys.readouterr().err
        assert json.loads(path.read_text())["status"] == 1

    def test_monitor_violation_exits_one(self, monkeypatch, tmp_path, capsys):
        status, path = self._drive(
            monkeypatch, tmp_path, [1], violations=[self.VIOLATION],
            replay=False,
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "ERROR: 1 invariant violations:" in err
        assert "credits [c0]: went negative" in err
        payload = json.loads(path.read_text())
        assert payload["violations"] == [self.VIOLATION]
        assert payload["status"] == 1

    def test_diverging_replay_exits_one(self, monkeypatch, tmp_path, capsys):
        status, path = self._drive(monkeypatch, tmp_path, [1, 2])
        assert status == 1
        assert "replay diverged for the same seed (value)" in (
            capsys.readouterr().err
        )
        assert json.loads(path.read_text())["status"] == 1
