"""The benchmark gate script: declared gates, the baseline diff, exit codes.

Each gated bench declares its bounds once, in its module's ``GATES``; the
bench harness writes them into the artifact's ``"gates"`` block, and
``scripts/check_bench_regression.py`` checks every fresh artifact against
its own block and then diffs it against the committed baseline.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "benchmarks" / "out"
SCRIPT = ROOT / "scripts" / "check_bench_regression.py"
sys.path.append(str(SCRIPT.parent))

from check_bench_regression import gate_problems, main  # noqa: E402

#: Every bench whose artifact carries a ``gates`` block.
GATED = {
    "general_density",
    "scale",
    "service_load",
    "service_recovery",
    "shard_scale",
    "supervisor_overhead",
    "trace_scale",
    "tracing_overhead",
}


def _declared_gates(module: Path) -> dict | None:
    """The literal module-level ``GATES`` of a bench, if it has one."""
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GATES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


@pytest.fixture
def dirs(tmp_path):
    """``(fresh, baseline)`` directories, each a copy of the committed artifacts."""
    fresh, base = tmp_path / "fresh", tmp_path / "base"
    for d in (fresh, base):
        d.mkdir()
        for path in OUT_DIR.glob("BENCH_*.json"):
            shutil.copy(path, d / path.name)
    return fresh, base


def _edit(path: Path, change) -> None:
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def _run(fresh: Path, base: Path) -> int:
    return main(["--fresh-dir", str(fresh), "--baseline-dir", str(base)])


@pytest.mark.parametrize("path", sorted(OUT_DIR.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_artifact_passes_its_gates(path):
    assert gate_problems(path.name, json.loads(path.read_text())) == []


def test_each_gated_bench_declares_its_gates_in_its_artifact():
    declared = {}
    for module in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        gates = _declared_gates(module)
        if gates is not None:
            declared[module.stem.removeprefix("bench_")] = gates
    assert set(declared) == GATED
    for name, gates in declared.items():
        assert gates, f"bench_{name}.py declares an empty GATES"
        artifact = json.loads((OUT_DIR / f"BENCH_{name}.json").read_text())
        assert artifact["gates"] == gates, f"BENCH_{name}.json is stale"


def test_min_and_max_breaches_name_file_path_and_bound():
    payload = {
        "gates": {"speedup": {"min": 5.0}, "null_overhead": {"max": 1.03}},
        "cases": [{"speedup": 4.0, "null_overhead": 9.0}],
    }
    assert gate_problems("BENCH_x.json", payload) == [
        "BENCH_x.json: cases[0].null_overhead = 9 above the max 1.03",
        "BENCH_x.json: cases[0].speedup = 4 below the min 5",
    ]


def test_breach_fails_the_script(dirs, capsys):
    fresh, base = dirs
    _edit(fresh / "BENCH_tracing_overhead.json", lambda p: p["cases"][0].update(null_overhead=9.0))
    assert _run(fresh, base) == 1
    assert "cases[0].null_overhead = 9 above the max 1.03" in capsys.readouterr().out


def test_gate_that_matches_nothing_is_reported(dirs, capsys):
    fresh, base = dirs

    def drop(payload):
        for point in payload["grid"]:
            point.pop("scale_speedup", None)

    _edit(fresh / "BENCH_scale.json", drop)
    assert _run(fresh, base) == 1
    assert "BENCH_scale.json: gate scale_speedup matches no value" in capsys.readouterr().out


def test_malformed_gate_is_reported():
    payload = {"gates": {"speedup": {"floor": 5.0}}, "speedup": 9.0}
    assert gate_problems("BENCH_x.json", payload) == [
        "BENCH_x.json: gate speedup must declare a numeric 'min' and/or 'max'"
    ]


def test_loosened_bound_is_a_baseline_diff(dirs, capsys):
    fresh, base = dirs
    _edit(fresh / "BENCH_scale.json", lambda p: p["gates"]["scale_speedup"].update(min=2.0))
    assert _run(fresh, base) == 1
    out = capsys.readouterr().out
    assert "BENCH_scale.json: gates.scale_speedup.min = 2, baseline 20" in out


def test_timing_and_gated_keys_are_not_diffed(dirs, capsys):
    fresh, base = dirs

    def retime(payload):
        for point in payload["grid"]:
            point["fast_wall_s"] *= 3.0
            if "scale_speedup" in point:
                point["scale_speedup"] = 21.0

    _edit(fresh / "BENCH_scale.json", retime)
    assert _run(fresh, base) == 0
    assert "OK" in capsys.readouterr().out


def test_deterministic_drift_and_vanished_keys_are_reported(dirs, capsys):
    fresh, base = dirs

    def drift(payload):
        payload["grid"][0]["clock"] *= 1.001
        del payload["grid"][0]["events"]

    _edit(fresh / "BENCH_scale.json", drift)
    assert _run(fresh, base) == 1
    out = capsys.readouterr().out
    assert "BENCH_scale.json: grid[0].clock" in out
    assert "BENCH_scale.json: grid[0].events vanished" in out


@pytest.mark.parametrize("side", ["fresh", "base"])
def test_truncated_json_exits_2_without_traceback(dirs, side):
    fresh, base = dirs
    target = (fresh if side == "fresh" else base) / "BENCH_scale.json"
    target.write_text(target.read_text()[:100])
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--fresh-dir", str(fresh), "--baseline-dir", str(base)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "BENCH_scale.json: not valid JSON" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_unknown_baseline_ref_exits_2(dirs, capsys):
    fresh, _ = dirs
    assert main(["--fresh-dir", str(fresh), "--baseline-ref", "no-such-ref"]) == 2
    assert "no-such-ref" in capsys.readouterr().err


def test_artifact_absent_at_a_valid_ref_is_a_new_benchmark(tmp_path, capsys):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("not a git checkout")
    payload = {"gates": {"speedup": {"min": 5.0}}, "speedup": 6.0}
    (tmp_path / "BENCH_brand_new.json").write_text(json.dumps(payload))
    assert main(["--fresh-dir", str(tmp_path), "--baseline-ref", "HEAD"]) == 0
    assert "BENCH_brand_new.json: no baseline (new benchmark)" in capsys.readouterr().out


def test_only_path_and_ref_options_remain(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    options = {word for word in capsys.readouterr().out.split() if word.startswith("--")}
    assert options == {"--help", "--fresh-dir", "--baseline-ref", "--baseline-dir"}
