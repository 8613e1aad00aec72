"""Tests for the command-line interface (also the package's integration
surface — every command exercises the public API end to end)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "MAGIC"])

    def test_alpha_is_global(self):
        args = build_parser().parse_args(["--alpha", "2.5", "run"])
        assert args.alpha == 2.5


class TestRun:
    def test_nc_default(self, capsys):
        out = run_cli(capsys, "run", "--jobs", "6", "--seed", "1")
        assert "G_frac" in out and "energy" in out

    def test_clairvoyant(self, capsys):
        out = run_cli(capsys, "run", "--algorithm", "C", "--jobs", "5")
        assert "C on 5 jobs" in out

    def test_nc_general_with_densities(self, capsys):
        out = run_cli(
            capsys,
            "run",
            "--algorithm",
            "NC_GENERAL",
            "--jobs",
            "4",
            "--densities",
            "loguniform",
            "--max-step",
            "5e-2",
        )
        assert "G_frac" in out

    def test_deterministic(self, capsys):
        a = run_cli(capsys, "run", "--jobs", "6", "--seed", "9")
        b = run_cli(capsys, "run", "--jobs", "6", "--seed", "9")
        assert a == b


class TestRatio:
    def test_nc_ratio_under_theorem5(self, capsys):
        out = run_cli(capsys, "ratio", "--jobs", "6", "--seed", "4")
        ratio = float(out.splitlines()[-1].split()[-3])
        assert 1.0 <= ratio <= 2.5 + 1e-9

    def test_integral_objective(self, capsys):
        out = run_cli(capsys, "ratio", "--objective", "integral", "--jobs", "5")
        assert "integral" in out


class TestFiguresAndTables:
    def test_figures(self, capsys):
        out = run_cli(capsys, "figures", "--weight", "2.0")
        assert "Figure 1" in out and "NC" in out

    def test_lower_bound(self, capsys):
        out = run_cli(capsys, "lower-bound", "--machines", "2", "4")
        assert "k^(1-1/alpha)" in out

    def test_cluster(self, capsys):
        out = run_cli(capsys, "cluster", "--machines", "2", "--jobs", "8")
        assert "Lemma 20 assignments equal: True" in out

    def test_cluster_rejects_nonuniform(self, capsys):
        with pytest.raises(SystemExit):
            main(["cluster", "--densities", "loguniform", "--jobs", "5"])

    def test_shard_serial(self, capsys):
        out = run_cli(
            capsys, "shard", "--machines", "3", "--jobs", "9", "--serial"
        )
        assert "bit-identical: True" in out
        assert "serial (forced)" in out

    def test_shard_pool(self, capsys):
        out = run_cli(
            capsys, "shard", "--machines", "2", "--jobs", "8", "--workers", "2"
        )
        assert "bit-identical: True" in out
        assert "pool:" in out

    def test_shard_rejects_nonuniform(self, capsys):
        with pytest.raises(SystemExit):
            main(["shard", "--densities", "loguniform", "--jobs", "5", "--serial"])

    def test_chaos_shard_campaign(self, capsys):
        assert main(
            ["chaos", "--shards", "--n", "1", "--jobs", "8", "--machines", "2",
             "--kills", "1", "--hold", "0.08"]
        ) == 0
        assert "SHARD CAMPAIGN OK" in capsys.readouterr().out

    def test_table1_small(self, capsys):
        out = run_cli(
            capsys,
            "table1",
            "--uniform-jobs",
            "5",
            "--nonuniform-jobs",
            "4",
            "--seeds",
            "1",
        )
        assert "Table 1 reproduction" in out
        assert "fractional unit" in out


class TestOptBracket:
    def test_bracket_holds(self, capsys):
        out = run_cli(capsys, "opt", "--jobs", "4", "--seed", "6", "--slots", "150",
                      "--iterations", "500")
        line = out.splitlines()[-1].split()
        lower, upper = float(line[0]), float(line[1])
        assert lower <= upper * (1 + 1e-9)
        assert (upper - lower) / upper < 0.25


class TestVerifyCommand:
    def test_all_claims_hold(self, capsys):
        out = run_cli(capsys, "verify", "--jobs", "5", "--seed", "3", "--machines", "2")
        assert "ALL CLAIMS HOLD" in out
        assert "Lemma 20" in out

    def test_single_machine_skips_parallel_claims(self, capsys):
        out = run_cli(capsys, "verify", "--jobs", "4", "--seed", "2")
        assert "Lemma 20" not in out
        assert "Theorem 5" in out


class TestTraceCommand:
    def test_trace_writes_jsonl_and_passes_lemmas(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        out = run_cli(
            capsys, "trace", "--jobs", "6", "--seed", "2", "--out", str(out_path)
        )
        assert out_path.exists()
        assert "[PASS] Lemma 3" in out
        assert "[PASS] Lemma 4" in out
        assert "event ordering: OK" in out

    def test_trace_pretty_prints_events(self, capsys, tmp_path):
        out = run_cli(
            capsys,
            "trace",
            "--jobs",
            "4",
            "--seed",
            "1",
            "--events",
            "3",
            "--out",
            str(tmp_path / "t.jsonl"),
        )
        assert "run_meta" in out
        assert "more)" in out

    def test_trace_golden_corpus_case(self, capsys, tmp_path):
        import json
        import pathlib

        corpus_path = pathlib.Path(__file__).parent / "data" / "golden_corpus.json"
        key = sorted(
            k for k in json.loads(corpus_path.read_text()) if k.startswith("nc_uniform/")
        )[0]
        out = run_cli(
            capsys,
            "trace",
            "--corpus",
            str(corpus_path),
            "--case",
            key,
            "--out",
            str(tmp_path / "g.jsonl"),
        )
        assert "[PASS] Lemma 3" in out

    def test_trace_rejects_nonuniform(self, tmp_path):
        from repro.core.errors import InvalidInstanceError

        with pytest.raises(InvalidInstanceError):
            main(
                [
                    "trace",
                    "--jobs",
                    "4",
                    "--densities",
                    "loguniform",
                    "--out",
                    str(tmp_path / "t.jsonl"),
                ]
            )

    def test_trace_case_requires_corpus(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "--case", "nc_uniform/whatever"])


def _event(kind: str, component: str, payload: dict) -> dict:
    return {"kind": kind, "component": component, "sim_time": 0.0,
            "wall_time": 0.0, "payload": payload}


def _meta(instance=([0, 0.0, 10.0, 1.0],), alpha=3.0) -> dict:
    return _event("run_meta", "harness", {"alpha": alpha, "instance": list(instance)})


def _const(t0=1.0, t1=2.0, job=0, profile="const") -> dict:
    payload = {"profile": profile, "t0": t0, "t1": t1, "job": job, "speed": 1.0}
    return _event("kernel_eval", "C", payload)


#: Traces the streaming verifier must reject as a verdict, not a traceback.
MALFORMED_TRACES = {
    "sliver-then-covering-segment": [
        _meta(), _const(1.0, 1.0 + 5e-10), _const(1.0 - 2e-10, 2.0)
    ],
    "unknown-profile": [_meta(), _const(profile="spiral")],
    "missing-t0": [
        _meta(),
        _event("kernel_eval", "C", {"profile": "const", "t1": 2.0, "job": 0, "speed": 1.0}),
    ],
    "null-job": [_meta(), _const(job=None)],
    "three-field-instance-row": [_meta(instance=([0, 0.0, 1.0],))],
    "negative-volume": [_meta(instance=([0, 0.0, -1.0, 1.0],))],
    "alpha-not-a-number": [_meta(alpha="x")],
    "alpha-one": [_meta(alpha=1.0)],
}


class TestTraceStreaming:
    @pytest.mark.parametrize("shape", sorted(MALFORMED_TRACES))
    def test_replay_malformed_trace_fails_without_traceback(
        self, capsys, tmp_path, shape
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in MALFORMED_TRACES[shape])
        )
        assert main(["trace", "--replay", str(path)]) == 1
        captured = capsys.readouterr()
        assert "replay FAILED" in captured.out
        assert "Traceback" not in captured.err

    def test_sink_rotate_writes_segments_then_replays(self, capsys, tmp_path):
        base = tmp_path / "t.jsonl"
        out = run_cli(
            capsys, "trace", "--jobs", "6", "--seed", "3",
            "--out", str(base), "--sink", "rotate:20",
        )
        assert not base.exists()  # rotate writes numbered segments only
        assert (tmp_path / "t.00000.jsonl").exists()
        assert (tmp_path / "t.00001.jsonl").exists()
        assert "[PASS] Lemma 3" in out
        # --replay on the base path finds the segments and re-verifies.
        replay = run_cli(capsys, "trace", "--replay", str(base))
        assert "[PASS] Lemma 3" in replay and "[PASS] Lemma 4" in replay

    def test_sink_gzip_then_replay(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        run_cli(
            capsys, "trace", "--jobs", "5", "--seed", "2",
            "--out", str(path), "--sink", "gzip",
        )
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        replay = run_cli(capsys, "trace", "--replay", str(path))
        assert "[PASS] Lemma 3" in replay

    def test_replay_damaged_gzip_trace_fails_without_traceback(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        run_cli(
            capsys, "trace", "--jobs", "20", "--seed", "2",
            "--out", str(path), "--sink", "gzip",
        )
        raw = bytearray(path.read_bytes())
        for pos in range(20, len(raw) - 20, 5):
            raw[pos] ^= 0x55  # damage the deflate stream throughout
        path.write_bytes(bytes(raw))
        assert main(["trace", "--replay", str(path)]) == 1
        captured = capsys.readouterr()
        assert "replay FAILED" in captured.out and "damaged gzip stream" in captured.out
        assert "Traceback" not in captured.err

    def test_replay_missing_path_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no trace at"):
            main(["trace", "--replay", str(tmp_path / "nope.jsonl")])

    def test_replay_follow_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "--replay", "a.jsonl", "--follow", "b.jsonl"])

    def test_follow_finished_file(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        run_cli(capsys, "trace", "--jobs", "5", "--seed", "2", "--out", str(path))
        out = run_cli(
            capsys, "trace", "--follow", str(path),
            "--poll", "0.02", "--idle-timeout", "0.1",
        )
        assert "followed" in out and "[PASS] Lemma 3" in out

    def test_follow_partial_trace_fails_loudly(self, capsys, tmp_path):
        """A tail that ends mid-run (writer died) must exit nonzero with the
        replay error, not a traceback."""
        path = tmp_path / "t.jsonl"
        run_cli(capsys, "trace", "--jobs", "5", "--seed", "2", "--out", str(path))
        lines = path.read_text().splitlines()
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        assert main(
            ["trace", "--follow", str(partial),
             "--poll", "0.02", "--idle-timeout", "0.1"]
        ) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_shard_trace_reverifies(self, capsys, tmp_path):
        path = tmp_path / "shard.jsonl"
        out = run_cli(
            capsys, "shard", "--machines", "2", "--jobs", "8", "--serial",
            "--trace", str(path),
        )
        assert path.exists()
        assert "streamed re-verification: OK" in out
        assert "PASS Lemma 3" in out

    def test_chaos_sink_gzip(self, capsys, tmp_path):
        path = tmp_path / "chaos.jsonl.gz"
        assert main(
            ["chaos", "--seed", "5", "--n", "1", "--jobs", "5",
             "--out", str(path), "--sink", "gzip"]
        ) == 0
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        from repro.runtime.chaos import verify_campaign_trace

        verdicts = verify_campaign_trace(path)
        assert len(verdicts) == 1 and verdicts[0].ok
