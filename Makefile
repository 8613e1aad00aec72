# Convenience targets for the reproduction.
#
# Every target runs through `PYTHONPATH=src python -m pytest` so a fresh
# clone works without `pip install -e .` — the same invocation CI uses
# (the tier-1 contract in ROADMAP.md).

PYTEST := PYTHONPATH=src python -m pytest
PY := PYTHONPATH=src python

.PHONY: install install-dev install-service test bench bench-smoke bench-deterministic bench-scale bench-trace-scale bench-service bench-service-recovery bench-check lint typecheck coverage serve check ci examples reproduce trace chaos chaos-service clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

# The same pinned lists CI installs from (see requirements/README.md).
install-dev:
	pip install -r requirements/base.txt -r requirements/dev.txt

install-service:
	pip install -r requirements/service.txt

test:
	$(PYTEST) -x -q tests/

bench:
	$(PYTEST) benchmarks/ --benchmark-only

# Fast benchmark subset: the shadow-layer speedup gate (writes
# benchmarks/out/BENCH_general_density.json), the eta/beta ablation, the
# tracing zero-overhead gate, the supervisor-overhead gate, and the
# shard-pool speedup and recovery gates.  Every bench with a gate declares
# its bounds once, in its module's GATES, and fails the run on a breach.
bench-smoke:
	$(PYTEST) benchmarks/bench_general_density.py benchmarks/bench_ablation_eta_beta.py benchmarks/bench_tracing_overhead.py benchmarks/bench_supervisor_overhead.py benchmarks/bench_shard_scale.py --benchmark-only

# The parallel-machine benches (§6/§7 dispatch, global queue, lower-bound
# adversary) are deterministic: regenerate their tables and fail if any byte
# differs from the committed ones.
bench-deterministic:
	$(PYTEST) benchmarks/bench_open_problem.py benchmarks/bench_parallel.py benchmarks/bench_lower_bound.py --benchmark-only
	git diff --exit-code benchmarks/out/open_problem.txt benchmarks/out/parallel_machines.txt benchmarks/out/lower_bound.txt

# The shadow-loop n-scaling curve (writes benchmarks/out/BENCH_scale.json);
# the shipped loop's speedup over the tests/shadow_oracle.py reference is
# gated by the bench's GATES.
bench-scale:
	$(PYTEST) benchmarks/bench_scale.py --benchmark-only

# Bounded-memory verification of a >= 10^6-event trace (writes
# benchmarks/out/BENCH_trace_scale.json); the streaming peak-heap ceiling
# and its flatness across event counts are gated by the bench's GATES.
bench-trace-scale:
	$(PYTEST) benchmarks/bench_trace_scale.py --benchmark-only

# In-process load test of the scheduling service (writes
# benchmarks/out/BENCH_service_load.json); the p99 request-latency ceiling
# is gated by the bench's GATES.
bench-service:
	$(PYTEST) benchmarks/bench_service_load.py --benchmark-only

# Write-ahead journaling overhead and 100-session crash-recovery timing
# (writes benchmarks/out/BENCH_service_recovery.json); the journal-overhead
# and restore-time ceilings are gated by the bench's GATES.
bench-service-recovery:
	$(PYTEST) benchmarks/bench_service_recovery.py --benchmark-only

# Check every BENCH_*.json against its own declared gates, then diff it
# against the committed baseline (deterministic quantities must match).
bench-check:
	python scripts/check_bench_regression.py

# Lint / type gates. Both tools are optional locally (CI always runs them);
# the || branch makes `make ci` usable on machines without them.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/ tests/ benchmarks/ scripts/ && ruff format --check .; \
	else echo "ruff not installed; skipping (CI runs it)"; fi

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		MYPYPATH=src mypy --strict -p repro.core -p repro.faults -p repro.runtime -p repro.parallel -m repro.algorithms.registry -m repro.analysis.streaming -m repro.io -m repro.service.asgi -m repro.service.journal; \
	else echo "mypy not installed; skipping (CI runs it)"; fi

# Branch coverage over src/repro with the CI floor (requires pytest-cov).
coverage:
	$(PYTEST) -q tests/ --cov=src/repro --cov-branch --cov-report=term-missing --cov-fail-under=85

# Serve the scheduling API locally (requires the service extra: pydantic).
serve:
	$(PY) -m repro serve

# The one-stop entrypoint: tier-1 tests, then the benchmark smoke gate.
check: test bench-smoke

# What CI runs, locally: tier-1 tests, bench smoke, regression diff, lint, types.
ci: test bench-smoke bench-deterministic bench-check lint typecheck

examples:
	$(PY) examples/quickstart.py
	$(PY) examples/explore_dynamics.py
	$(PY) examples/cloud_scheduling.py
	$(PY) examples/datacenter_cluster.py
	$(PY) examples/adversarial_analysis.py
	$(PY) examples/reproduce_paper.py

reproduce:
	$(PYTEST) -q tests/ 2>&1 | tee test_output.txt
	$(PYTEST) benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Emit and verify a JSONL trace for a small random workload (see
# docs/observability.md).
trace:
	$(PY) -m repro trace --jobs 12 --seed 7 --out repro_trace.jsonl --events 10

# Seeded fault-injection campaign under the supervised runtime (see
# docs/robustness.md). Exits nonzero if any run fails its guarantees.
chaos:
	$(PY) -m repro chaos --seed 0 --n 30

# Service-level chaos: live `repro serve` processes killed / damaged /
# evicted / gated, with recovery verified bit-identical against never-killed
# twins (see docs/robustness.md; requires the service extra: pydantic).
chaos-service:
	$(PY) -m repro chaos --service --seed 0 --n 6 --jobs 6

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
