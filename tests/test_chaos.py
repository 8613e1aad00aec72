"""Tier-1: the chaos campaign harness and its CLI exit-code contract.

The acceptance bar for the robustness layer: a campaign of >= 50
injected-fault runs where every run either completes with the paper's
invariants re-verified from the trace, or terminates with a structured
error naming the fault and the last good checkpoint — no hangs, no silent
corruption.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import pytest

import repro.runtime.chaos as chaos_mod
from repro.cli import main
from repro.core.tracing import MemoryRecorder, read_jsonl, rotated_paths
from repro.runtime.chaos import (
    CampaignReport,
    FamilyScenario,
    Outcome,
    ServiceScenario,
    ShardScenario,
    format_campaign,
    iter_campaign_runs,
    run_campaign,
    verify_campaign_trace,
)

# One shared 50-run campaign: module-scoped because it is the expensive bit
# (~1.5 s) and several tests inspect different facets of the same report.
N_RUNS = 50


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("chaos") / "chaos.jsonl"
    report = run_campaign(0, N_RUNS, out=out)
    return report, out


class TestCampaignGuarantee:
    def test_every_run_survives_or_fails_structured(self, campaign):
        report, _ = campaign
        assert report.n_runs == N_RUNS
        assert len(report.outcomes) == N_RUNS
        for outcome in report.outcomes:
            assert outcome.status in ("clean", "recovered", "failed")
            if outcome.status == "failed":
                # structured terminal state: the error names the fault and
                # the last good checkpoint
                assert outcome.error
                assert outcome.checkpoint
            else:
                assert outcome.error is None

    def test_seed0_campaign_is_all_survived(self, campaign):
        report, _ = campaign
        assert report.n_failed == 0
        assert report.n_clean + report.n_recovered == N_RUNS
        assert report.ok

    def test_faults_actually_fire(self, campaign):
        report, _ = campaign
        fired = sum(o.faults_fired for o in report.outcomes)
        # every run carries a one-fault plan; the vast majority must land
        assert fired >= N_RUNS * 0.8

    def test_pair_runs_reverify_lemmas(self, campaign):
        report, _ = campaign
        pair_runs = [o for o in report.outcomes if o.checks["lemmas"] is not None]
        assert pair_runs  # the rotation always includes pair scenarios
        assert all(o.checks["lemmas"] for o in pair_runs)

    def test_all_families_covered(self, campaign):
        report, _ = campaign
        families = {o.family for o in report.outcomes}
        assert families == {"NC_PAIR", "CAPPED_PAIR", "NC_GENERAL", "NC_PAR"}

    def test_format_renders_verdict(self, campaign):
        report, _ = campaign
        text = format_campaign(report)
        assert "CAMPAIGN OK" in text
        for outcome in report.outcomes[:3]:
            assert str(outcome.run_id) in text


class TestDeterminism:
    def test_same_seed_same_outcomes(self):
        a = run_campaign(5, 10)
        b = run_campaign(5, 10)
        strip = lambda o: dataclasses.replace(o)  # frozen: compare directly
        assert [strip(o) for o in a.outcomes] == [strip(o) for o in b.outcomes]

    def test_different_seed_different_plans(self):
        a = run_campaign(1, 10)
        b = run_campaign(2, 10)
        assert [o.plan for o in a.outcomes] != [o.plan for o in b.outcomes]


class TestJsonlRoundTrip:
    def test_events_round_trip(self, campaign):
        report, out = campaign
        events = read_jsonl(out)
        assert events
        kinds = {e.kind for e in events}
        assert "fault_injected" in kinds
        assert "recovery" in kinds or report.n_recovered == 0
        # every fault_injected payload names its fault kind
        for e in events:
            if e.kind == "fault_injected":
                assert "fault" in e.payload

    def test_run_meta_headers_partition_the_file(self, campaign):
        report, out = campaign
        headers = [
            e for e in read_jsonl(out)
            if e.kind == "run_meta" and "run_id" in e.payload
        ]
        assert len(headers) == N_RUNS
        by_id = {h.payload["run_id"]: h for h in headers}
        for outcome in report.outcomes:
            header = by_id[outcome.run_id]
            assert header.payload["family"] == outcome.family
            assert header.payload["status"] == outcome.status
            assert header.payload["plan"] == outcome.plan


class TestCampaignStreamVerification:
    def test_iter_campaign_runs_partitions_by_header(self, campaign):
        report, out = campaign
        runs = list(iter_campaign_runs(out))
        assert len(runs) == N_RUNS
        assert [h["run_id"] for h, _ in runs] == [o.run_id for o in report.outcomes]
        for header, events in runs:
            assert "family" in header and "status" in header
            # The header is consumed into the slot boundary, never the body.
            assert not any(
                e.kind == "run_meta" and e.component == "campaign" for e in events
            )

    def test_verify_campaign_trace_re_checks_every_run(self, campaign):
        """The written campaign trace re-verifies offline, one bounded-memory
        pass per run: every surviving pair run's Lemma 3/4 replay must pass
        again from the file alone."""
        report, out = campaign
        verdicts = verify_campaign_trace(out)
        assert len(verdicts) == N_RUNS
        by_id = {v.header["run_id"]: v for v in verdicts}
        for outcome in report.outcomes:
            v = by_id[outcome.run_id]
            if outcome.status == "failed":
                continue  # aborted runs may leave partial kernel streams
            assert v.ok, (outcome.run_id, v.error)
            if outcome.checks["lemmas"]:
                assert v.report is not None
                assert all(c.holds for c in v.report.checks)

    def test_campaign_rotate_sink_verifies_identically(self, tmp_path):
        from repro.core.tracing import iter_trace

        base = tmp_path / "c.jsonl"
        plain = tmp_path / "plain.jsonl"
        run_campaign(3, 4, out=base, sink_spec="rotate:200")
        run_campaign(3, 4, out=plain)
        segments = rotated_paths(base)
        assert segments and not base.exists()
        rotated = verify_campaign_trace(iter_trace(segments))
        reference = verify_campaign_trace(plain)
        assert len(rotated) == 4
        assert [v.ok for v in rotated] == [v.ok for v in reference]
        assert [v.header["run_id"] for v in rotated] == [
            v.header["run_id"] for v in reference
        ]


@dataclass(frozen=True)
class Stub:
    """A scripted scenario: run ``i`` sleeps ``delay`` seconds, then ends as
    ``script[i % len(script)]`` — its status and its one check, ``ok``."""

    script: tuple[tuple[str, bool | None], ...] = (("clean", True),)
    delay: float = 0.0

    heading = "stub campaign: seed={seed}, {n_runs} runs — {failed} failed, {ticks} ticks"
    columns = (("status", "<10", "status"), ("ok", ">4", "ok"), ("ticks", ">5", "ticks"))
    detail = "{plan}"
    verdicts = FamilyScenario.verdicts
    checks = ("ok",)
    counts = ("ticks",)

    def plan(self, run_id, seed):
        return "STUB", f"stub(seed={seed})"

    def run(self, run_id, seed):
        time.sleep(self.delay)
        status, ok = self.script[run_id % len(self.script)]
        failed = status == "failed"
        recorder = MemoryRecorder()
        recorder.emit("run_meta", 0.0, "chaos", run_id=run_id)
        family, plan = self.plan(run_id, seed)
        outcome = Outcome(
            run_id=run_id, family=family, seed=seed, plan=plan, status=status,
            faults_fired=int(status != "clean"),
            error="StubError: scripted" if failed else None,
            checkpoint="attempt-3" if failed else None,
            n_events=len(recorder.events),
            checks={"ok": ok}, counts={"ticks": run_id + 1},
        )
        return outcome, recorder.events


class TestOutcomeModel:
    """The one ``ok`` rule: every status clean/recovered, no check False."""

    def test_report_ok_rejects_failed_runs(self):
        assert run_campaign(0, 2, scenario=Stub()).ok
        failing = Stub(script=(("clean", None), ("failed", None)))
        report = run_campaign(0, 2, scenario=failing)
        assert not report.ok
        assert report.n_failed == 1 and report.n_clean == 1

    def test_report_ok_rejects_broken_lemmas(self):
        assert not run_campaign(0, 1, scenario=Stub(script=(("recovered", False),))).ok

    def test_none_check_is_not_a_failure(self):
        report = run_campaign(0, 3, scenario=Stub(script=(("recovered", None),)))
        assert report.ok and report.n_recovered == 3
        assert report.total("ticks") == 1 + 2 + 3

    def test_out_headers_carry_run_identity(self, tmp_path):
        out = tmp_path / "stub.jsonl"
        report = run_campaign(4, 3, scenario=Stub(script=(("clean", True), ("failed", None))),
                              out=out)
        headers = [h for h, _ in iter_campaign_runs(out)]
        assert headers == [
            {"run_id": o.run_id, "family": "STUB", "seed": 4 * 1_000_003 + o.run_id,
             "plan": o.plan, "status": o.status}
            for o in report.outcomes
        ]
        assert [h["status"] for h in headers] == ["clean", "failed", "clean"]

    def test_stub_formats_through_its_declared_columns(self):
        report = run_campaign(1, 2, scenario=Stub(script=(("clean", True), ("failed", None))))
        assert format_campaign(report) == (
            "stub campaign: seed=1, 2 runs — 1 failed, 3 ticks\n\n"
            " run status       ok ticks  detail\n"
            "   0 clean      PASS     1  stub(seed=1000003)\n"
            "   1 failed        -     2  StubError: scripted\n\n"
            "CAMPAIGN FAILED: at least one run failed or broke a replayed lemma"
        )


def _row(run_id, family, seed, plan, status, faults, checks, counts, error=None, ckpt=None):
    return Outcome(
        run_id=run_id, family=family, seed=seed, plan=plan, status=status,
        faults_fired=faults, error=error, checkpoint=ckpt, n_events=10,
        checks=checks, counts=counts,
    )


class TestTableLayouts:
    """The one formatter reproduces the three pre-merge tables byte for byte
    (passing rows, ``-`` rows, failed rows with errors, both verdicts)."""

    def test_family_table(self):
        rows = (
            _row(0, "NC_PAIR", 17, "plan(seed=17): release_drop job=6", "recovered", 1,
                 {"lemmas": True}, {"attempts": 1}),
            _row(1, "NC_GENERAL", 18, "plan(seed=18): power_nan job=1 after=3", "clean", 0,
                 {"lemmas": None}, {"attempts": 1}),
            _row(2, "CAPPED_PAIR", 19, "plan(seed=19): oracle_lie job=1", "recovered", 1,
                 {"lemmas": False}, {"attempts": 2}),
            _row(3, "NC_PAR", 20, "plan(seed=20): machine_failure job=4", "failed", 1,
                 {"lemmas": None}, {"attempts": 4},
                 error="RecoveryExhaustedError: gave up", ckpt="attempt-3"),
        )
        sc = FamilyScenario()
        assert format_campaign(CampaignReport(7, 2, rows[:2], sc)) == (
            "chaos campaign: seed=7, 2 runs — 1 clean, 1 recovered, 0 failed\n\n"
            " run family       status     attempts faults  lemmas  detail\n"
            "   0 NC_PAIR      recovered         1      1    PASS  plan(seed=17): release_drop job=6\n"
            "   1 NC_GENERAL   clean             1      0       -  plan(seed=18): power_nan job=1 after=3\n\n"
            "CAMPAIGN OK: every run survived with guarantees intact"
        )
        assert format_campaign(CampaignReport(7, 4, rows, sc)) == (
            "chaos campaign: seed=7, 4 runs — 1 clean, 2 recovered, 1 failed\n\n"
            " run family       status     attempts faults  lemmas  detail\n"
            "   0 NC_PAIR      recovered         1      1    PASS  plan(seed=17): release_drop job=6\n"
            "   1 NC_GENERAL   clean             1      0       -  plan(seed=18): power_nan job=1 after=3\n"
            "   2 CAPPED_PAIR  recovered         2      1    FAIL  plan(seed=19): oracle_lie job=1\n"
            "   3 NC_PAR       failed            4      1       -  RecoveryExhaustedError: gave up\n\n"
            "CAMPAIGN FAILED: at least one run failed or broke a replayed lemma"
        )

    def test_shard_table(self):
        def counts(shards, killed, redisp, resume):
            return {"shards": shards, "killed": killed, "lost": 0, "redisp": redisp,
                    "fallback": 0, "degraded": 0, "resume": resume}

        rows = (
            _row(0, "NC_PAR_SHARDED", 5, "plan(seed=5): worker_kill after=1", "recovered", 2,
                 {"bitid": True, "L20": True, "lemmas": True}, counts(3, 2, 3, 1)),
            _row(1, "NC_PAR_SHARDED", 6, "plan(seed=6): shard_hang after=2", "clean", 0,
                 {"bitid": True, "L20": True, "lemmas": None}, counts(2, 0, 0, 0)),
            _row(2, "NC_PAR_SHARDED", 7, "plan(seed=7): worker_kill after=1", "failed", 1,
                 {"bitid": None, "L20": None, "lemmas": None}, counts(0, 1, 0, 0),
                 error="ShardFailedError: pool exhausted"),
        )
        sc = ShardScenario()
        assert format_campaign(CampaignReport(3, 2, rows[:2], sc)) == (
            "shard-kill campaign: seed=3, 2 runs — 2 survived, 0 failed, 2 workers SIGKILLed\n\n"
            " run status     shards killed redisp resume  bitid  L20  L3/4  detail\n"
            "   0 recovered       3      2      3      1   PASS PASS  PASS  plan(seed=5): worker_kill after=1\n"
            "   1 clean           2      0      0      0   PASS PASS     -  plan(seed=6): shard_hang after=2\n\n"
            "SHARD CAMPAIGN OK: every kill recovered, reports bit-identical, dispatch identity and lemma replay intact"
        )
        assert format_campaign(CampaignReport(3, 3, rows, sc)) == (
            "shard-kill campaign: seed=3, 3 runs — 2 survived, 1 failed, 3 workers SIGKILLed\n\n"
            " run status     shards killed redisp resume  bitid  L20  L3/4  detail\n"
            "   0 recovered       3      2      3      1   PASS PASS  PASS  plan(seed=5): worker_kill after=1\n"
            "   1 clean           2      0      0      0   PASS PASS     -  plan(seed=6): shard_hang after=2\n"
            "   2 failed          0      1      0      0      -    -     -  ShardFailedError: pool exhausted\n\n"
            "SHARD CAMPAIGN FAILED: a run failed, diverged from serial, or broke dispatch identity / lemma replay"
        )

    def test_service_table(self):
        rows = (
            _row(0, "SERVICE_KILL_RESTART", 11, "kill_restart", "recovered", 1,
                 {"bitid": True, "lemmas": True}, {"rest": 1, "quar": 0}),
            _row(1, "SERVICE_CORRUPTION", 12, "corruption", "recovered", 2,
                 {"bitid": None, "lemmas": None}, {"rest": 0, "quar": 1}),
            _row(2, "SERVICE_CONNECTION_DROP", 13, "connection_drop", "failed", 0,
                 {"bitid": None, "lemmas": None}, {"rest": 0, "quar": 0},
                 error="RuntimeError: server not healthy"),
        )
        sc = ServiceScenario()
        assert format_campaign(CampaignReport(4, 2, rows[:2], sc)) == (
            "service chaos campaign: seed=4, 2 runs — 2 survived, 0 failed\n\n"
            " run scenario         status     faults  bitid  L3/4  rest  quar  detail\n"
            "   0 kill_restart     recovered       1   PASS  PASS     1     0  seed=11\n"
            "   1 corruption       recovered       2      -     -     0     1  seed=12\n\n"
            "SERVICE CAMPAIGN OK: every crash/evict/drop recovered bit-identical with lemma replays intact"
        )
        assert format_campaign(CampaignReport(4, 3, rows, sc)) == (
            "service chaos campaign: seed=4, 3 runs — 2 survived, 1 failed\n\n"
            " run scenario         status     faults  bitid  L3/4  rest  quar  detail\n"
            "   0 kill_restart     recovered       1   PASS  PASS     1     0  seed=11\n"
            "   1 corruption       recovered       2      -     -     0     1  seed=12\n"
            "   2 connection_drop  failed          0      -     -     0     0  RuntimeError: server not healthy\n\n"
            "SERVICE CAMPAIGN FAILED: a scenario failed, diverged from its twin, or broke a lemma replay"
        )


class TestRunTimeout:
    def test_generous_timeout_changes_nothing(self):
        a = run_campaign(5, 6)
        b = run_campaign(5, 6, run_timeout=60.0)
        assert a.outcomes == b.outcomes

    def test_wedged_run_fails_structured(self, tmp_path):
        out = tmp_path / "chaos.jsonl"
        report = run_campaign(0, 2, scenario=Stub(delay=0.5), run_timeout=0.05, out=out)
        assert not report.ok
        assert report.n_failed == 2
        for outcome in report.outcomes:
            assert outcome.status == "failed"
            assert outcome.checkpoint == "run_timeout"
            assert outcome.error and "RunTimeout" in outcome.error
            assert outcome.checks == {"ok": None} and outcome.counts == {"ticks": 0}
        events = read_jsonl(out)
        assert any(e.kind == "run_timeout" for e in events)
        # the abandoned runs still get campaign headers in the sink
        headers = [h for h, _ in iter_campaign_runs(out)]
        assert [h["status"] for h in headers] == ["failed", "failed"]

    def test_cli_timeout_preserves_nonzero_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(chaos_mod, "FamilyScenario", lambda **kw: Stub(delay=0.5))
        assert main(["chaos", "--n", "1", "--timeout", "0.05"]) == 1
        assert "CAMPAIGN FAILED" in capsys.readouterr().out


class TestCliExitCodes:
    def test_chaos_exits_zero_on_survival(self, capsys):
        assert main(["chaos", "--seed", "0", "--n", "3"]) == 0
        assert "CAMPAIGN OK" in capsys.readouterr().out

    def test_chaos_exits_nonzero_on_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            chaos_mod, "FamilyScenario", lambda **kw: Stub(script=(("failed", None),))
        )
        assert main(["chaos", "--n", "1"]) == 1
        assert "CAMPAIGN FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [["--shards", "--service"], ["--shards", "--timeout", "1"],
         ["--service", "--timeout", "1"]],
        ids=["shards-service", "shards-timeout", "service-timeout"],
    )
    def test_chaos_rejects_conflicting_flags(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--n", "1", *flags])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_verify_exits_zero_when_claims_hold(self, capsys):
        assert main(["verify", "--jobs", "5", "--seed", "2"]) == 0
        assert "ALL CLAIMS HOLD" in capsys.readouterr().out

    def test_verify_exits_nonzero_when_a_claim_fails(self, capsys, monkeypatch):
        import repro.analysis.verification as verification

        real = verification.verify_paper_claims

        def sabotage(*args, **kwargs):
            checks = real(*args, **kwargs)
            broken = dataclasses.replace(
                checks[0], measured=checks[0].expected + 1e6
            )
            return [broken, *checks[1:]]

        monkeypatch.setattr(verification, "verify_paper_claims", sabotage)
        assert main(["verify", "--jobs", "5", "--seed", "2"]) == 1
        assert "SOME CLAIMS FAILED" in capsys.readouterr().out
