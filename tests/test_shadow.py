"""Unit tests for the incremental clairvoyant shadow layer.

The exactness contract — staged ``advance`` calls equal one fresh run — is
covered indirectly by the analytic simulators' suites and the golden
differential; this file exercises the shadow's own mechanics: checkpoint /
rollback, lazy-piece materialization, delta operations, the prefix oracle's
rebuild-on-regression rule, and the edge cases around simultaneous releases
and completions landing exactly on release events.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.clairvoyant import simulate_clairvoyant
from repro.algorithms.nc_uniform import simulate_nc_uniform
from repro.core.errors import SimulationError
from repro.core.job import Instance, Job
from repro.core.power import PowerLaw
from repro.core.shadow import (
    ClairvoyantShadow,
    PrefixWeightOracle,
    ShadowCounters,
    SimulationContext,
)
from repro.extensions import CappedPowerLaw
from repro.workloads import random_instance

ALPHA = 3.0


def _shadow(**kw) -> ClairvoyantShadow:
    return ClairvoyantShadow(ALPHA, **kw)


def _fresh_weight(jobs: list[Job], t: float) -> float:
    """Reference value: one fresh shadow run straight to ``t``."""
    sh = _shadow()
    for j in jobs:
        sh.insert_job(j.job_id, j.release, j.density, j.volume)
    sh.advance(t)
    return sh.remaining_weight()


JOBS = [
    Job(0, 0.0, 2.0, 1.0),
    Job(1, 0.5, 1.0, 3.0),
    Job(2, 1.25, 0.75, 2.0),
]


class TestAdvanceAndReads:
    def test_staged_advance_equals_fresh(self):
        sh = _shadow()
        for j in JOBS:
            sh.insert_job(j.job_id, j.release, j.density, j.volume)
        for t in (0.3, 0.5, 0.9, 1.25, 1.7, 2.4, 5.0):
            sh.advance(t)
            assert sh.remaining_weight() == _fresh_weight(JOBS, t)

    def test_advance_is_monotone_noop_backwards(self):
        sh = _shadow()
        sh.insert_job(0, 0.0, 1.0, 2.0)
        sh.advance(1.0)
        w = sh.remaining_weight()
        sh.advance(0.25)  # no-op, not an error
        assert sh.clock == 1.0
        assert sh.remaining_weight() == w

    def test_remaining_items_match_materialized_dict(self):
        sh = _shadow()
        for j in JOBS:
            sh.insert_job(j.job_id, j.release, j.density, j.volume)
        sh.advance(1.0)
        items = sh.remaining_items()  # non-destructive (lazy piece kept)
        sh.materialize()
        assert dict((j, v) for j, _, v in items) == sh.remaining_dict()

    def test_counters_accumulate(self):
        counters = ShadowCounters()
        sh = _shadow(counters=counters)
        sh.insert_job(0, 0.0, 1.0, 1.0)
        sh.advance(0.5)
        sh.remaining_weight()
        assert counters.inserts == 1
        assert counters.advances >= 1
        assert counters.queries == 1


class TestCheckpointRollback:
    def test_rollback_restores_exact_state(self):
        sh = _shadow()
        for j in JOBS:
            sh.insert_job(j.job_id, j.release, j.density, j.volume)
        sh.advance(0.8)
        ckpt = sh.checkpoint()
        w_at_ckpt = sh.remaining_weight()
        sh.advance(2.5)
        assert sh.remaining_weight() != w_at_ckpt
        sh.rollback(ckpt)
        assert sh.clock == ckpt.clock
        assert sh.remaining_weight() == w_at_ckpt

    def test_rollback_discards_later_inserts(self):
        sh = _shadow()
        sh.insert_job(0, 0.0, 1.0, 1.0)
        sh.advance(0.2)
        ckpt = sh.checkpoint()
        sh.insert_job(7, 0.3, 2.0, 1.0)
        sh.advance(0.4)
        sh.rollback(ckpt)
        assert 7 not in sh.remaining_dict()
        # Re-inserting the same id after rollback is allowed.
        sh.insert_job(7, 0.3, 2.0, 1.0)
        sh.advance(0.4)
        assert 7 in sh.remaining_dict()

    def test_checkpoint_materializes_lazy_piece(self):
        sh = _shadow()
        sh.insert_job(0, 0.0, 1.0, 4.0)
        sh.advance(0.5)  # inside the first decay piece — anchored, not split
        ckpt = sh.checkpoint()
        (entry,) = ckpt.remaining
        assert entry[0] == 0
        assert entry[1] < 4.0  # the piece was committed at the checkpoint

    def test_replay_after_rollback_is_bit_identical(self):
        sh = _shadow()
        for j in JOBS:
            sh.insert_job(j.job_id, j.release, j.density, j.volume)
        sh.advance(0.6)
        ckpt = sh.checkpoint()
        sh.advance(1.9)
        w_first = sh.remaining_weight()
        sh.rollback(ckpt)
        sh.advance(1.9)
        assert sh.remaining_weight() == w_first

    def test_query_with_job_equals_unfused_sequence(self):
        sh = _shadow()
        for j in JOBS[:2]:
            sh.insert_job(j.job_id, j.release, j.density, j.volume)
        sh.advance(0.7)
        base = sh.checkpoint()
        extra = Job(9, 0.7, 0.4, 5.0)
        sh.rollback(base)
        sh.insert_job(extra.job_id, extra.release, extra.density, extra.volume)
        sh.advance(1.6)
        w_unfused = sh.remaining_weight()
        w_fused = sh.query_with_job(
            base, 1.6, extra.job_id, extra.release, extra.density, extra.volume
        )
        assert w_fused == w_unfused
        # job_id=None skips the insertion.
        sh2 = _shadow()
        for j in JOBS[:2]:
            sh2.insert_job(j.job_id, j.release, j.density, j.volume)
        sh2.advance(0.7)
        base2 = sh2.checkpoint()
        sh2.rollback(base2)
        sh2.advance(1.6)
        assert sh.query_with_job(base, 1.6, None, 0.0, 0.0, 0.0) == sh2.remaining_weight()


class TestDeltas:
    def test_insert_before_committed_past_rejected(self):
        sh = _shadow()
        sh.insert_job(0, 0.0, 1.0, 0.5)
        sh.advance(math.inf)  # job completes; the loop committed past t=0
        with pytest.raises(SimulationError, match="committed past"):
            sh.insert_job(1, sh.clock * 0.5, 1.0, 1.0)

    def test_insert_at_clock_splits_like_fresh_run(self):
        # Insert with release <= clock must reproduce a fresh run that knew
        # the job all along (split of the in-progress piece at the release).
        late = Job(5, 0.6, 1.0, 2.0)
        sh = _shadow()
        for j in JOBS[:2]:
            sh.insert_job(j.job_id, j.release, j.density, j.volume)
        sh.advance(1.0)
        sh.insert_job(late.job_id, late.release, late.density, late.volume)
        assert sh.remaining_weight() == _fresh_weight(JOBS[:2] + [late], 1.0)

    def test_duplicate_and_nonpositive_rejected(self):
        sh = _shadow()
        sh.insert_job(0, 0.0, 1.0, 1.0)
        with pytest.raises(SimulationError, match="already known"):
            sh.insert_job(0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="volume"):
            sh.insert_job(1, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="volume"):
            sh.insert_job(2, 0.0, 1.0, -2.0)
        with pytest.raises(ValueError, match="density"):
            sh.insert_job(3, 0.0, 0.0, 1.0)


class TestEdgeCases:
    def test_simultaneous_releases_admitted_together(self):
        jobs = [Job(0, 1.0, 1.0, 2.0), Job(1, 1.0, 1.0, 1.0), Job(2, 1.0, 0.5, 3.0)]
        sh = _shadow()
        for j in jobs:
            sh.insert_job(j.job_id, j.release, j.density, j.volume)
        sh.advance(1.0)
        assert set(sh.remaining_dict()) == {0, 1, 2}
        assert sh.remaining_weight() == sum(j.density * j.volume for j in jobs)
        # Staged queries across the burst agree with fresh runs.
        for t in (1.0, 1.2, 1.9, 4.0):
            sh.advance(t)
            assert sh.remaining_weight() == _fresh_weight(jobs, t)

    def test_completion_exactly_at_release_event(self):
        # Volume tuned so job 0 completes exactly when job 1 is released:
        # decay from w0=1 with rho=1 reaches 0 in alpha/(alpha-1) * w0^((alpha-1)/alpha)...
        # instead, place the release at the analytically computed completion.
        sh0 = _shadow()
        sh0.insert_job(0, 0.0, 1.0, 1.0)
        sh0.advance(math.inf)
        t_done = sh0.clock
        jobs = [Job(0, 0.0, 1.0, 1.0), Job(1, t_done, 1.0, 1.0)]
        sh = _shadow()
        for j in jobs:
            sh.insert_job(j.job_id, j.release, j.density, j.volume)
        for t in (t_done * 0.5, t_done, t_done * 1.5, math.inf):
            sh.advance(t)
            ref = _fresh_weight(jobs, t) if math.isfinite(t) else 0.0
            assert sh.remaining_weight() == ref
        assert sh.remaining_dict() == {}

    def test_zero_duration_pieces_at_shared_instant(self):
        # Two jobs released together, one of negligible volume relative to
        # the other: the tiny job's decay piece is near-instant and must not
        # wedge the loop or corrupt the weight.
        jobs = [Job(0, 0.0, 1e-12, 5.0), Job(1, 0.0, 1.0, 1.0)]
        sh = _shadow()
        for j in jobs:
            sh.insert_job(j.job_id, j.release, j.density, j.volume)
        sh.advance(0.5)
        assert sh.remaining_weight() == _fresh_weight(jobs, 0.5)

    def test_shadow_matches_analytic_simulator(self):
        # The schedule recorded through the callback equals the simulator's.
        inst = Instance(JOBS)
        run = simulate_clairvoyant(inst, PowerLaw(ALPHA))
        pieces = []
        sh = _shadow(record=lambda kind, t0, t1, jid, w0: pieces.append((t0, t1, jid, w0)))
        for j in JOBS:
            sh.insert_job(j.job_id, j.release, j.density, j.volume)
        sh.advance(math.inf)
        assert pieces == [(s.t0, s.t1, s.job_id, s.x0) for s in run.schedule.segments]


class TestPrefixWeightOracle:
    def test_monotone_stream_matches_fresh(self):
        oracle = PrefixWeightOracle(ALPHA)
        added = []
        for j in JOBS:
            oracle.add_job(j.job_id, j.release, j.density, j.volume)
            added.append(j)
            t = j.release + 0.3
            assert oracle.weight_at(t) == _fresh_weight(added, t)

    def test_query_regression_triggers_rebuild(self):
        counters = ShadowCounters()
        oracle = PrefixWeightOracle(ALPHA, counters=counters)
        for j in JOBS:
            oracle.add_job(j.job_id, j.release, j.density, j.volume)
        w_late = oracle.weight_at(2.0)
        assert counters.rebuilds == 0
        w_early = oracle.weight_at(0.75)  # regression: rebuild from scratch
        assert counters.rebuilds == 1
        assert w_early == _fresh_weight(JOBS, 0.75)
        assert oracle.weight_at(2.0) == w_late

    def test_out_of_order_insert_invalidates_prefix_cache(self):
        counters = ShadowCounters()
        oracle = PrefixWeightOracle(ALPHA, counters=counters)
        oracle.add_job(0, 0.0, 1.0, 2.0)
        oracle.weight_at(3.0)
        # A job released in the oracle's committed past: the cached run no
        # longer covers the true prefix instance and must be discarded.
        oracle.add_job(1, 0.5, 3.0, 1.0)
        w = oracle.weight_at(3.0)
        assert counters.rebuilds == 1
        assert w == _fresh_weight([Job(0, 0.0, 2.0, 1.0), Job(1, 0.5, 1.0, 3.0)], 3.0)

    def test_remaining_items_at(self):
        oracle = PrefixWeightOracle(ALPHA)
        for j in JOBS:
            oracle.add_job(j.job_id, j.release, j.density, j.volume)
        items = oracle.remaining_items_at(0.9)
        assert [jid for jid, _, _ in items] == [0, 1]
        assert oracle.weight_at(0.9) == _fresh_weight(JOBS, 0.9)


class TestSimulationContext:
    def test_factories_share_counters(self):
        ctx = SimulationContext(PowerLaw(ALPHA))
        sh = ctx.shadow()
        oracle = ctx.prefix_oracle()
        sh.insert_job(0, 0.0, 1.0, 1.0)
        oracle.add_job(1, 0.0, 1.0, 1.0)
        assert ctx.counters.inserts == 2

    def test_non_power_law_rejected(self):
        from repro.core.power import TabulatedPower

        tab = TabulatedPower([0.0, 1.0, 2.0], [0.0, 1.0, 8.0])
        ctx = SimulationContext(tab)
        with pytest.raises(TypeError, match="PowerLaw"):
            ctx.shadow()

    def test_capped_power_enables_s_max(self):
        from repro.extensions.bounded_speed import CappedPowerLaw

        ctx = SimulationContext(CappedPowerLaw(ALPHA, 1.5))
        sh = ctx.shadow()
        assert sh.s_max == 1.5


class TestCountersUnchanged:
    """The event loop counts locally and writes its totals once per call;
    the totals are the ones the per-event bumps produced."""

    @pytest.mark.parametrize(
        "seed, c_counts, nc_counts",
        [
            (5, (1, 77, 40, 0), (76, 72, 39, 40)),
            (17, (1, 78, 40, 0), (77, 71, 39, 40)),
        ],
    )
    def test_clairvoyant_and_nc_uniform(self, seed, c_counts, nc_counts):
        power = PowerLaw(3.0)
        inst = random_instance(40, seed=seed, volume="exponential", density="unit")
        for simulate, want in ((simulate_clairvoyant, c_counts), (simulate_nc_uniform, nc_counts)):
            ctx = SimulationContext(power)
            simulate(inst, power, context=ctx)
            c = ctx.counters
            assert (c.advances, c.events, c.inserts, c.queries) == want, simulate.__name__

    def test_capped_variants(self):
        power = CappedPowerLaw(3.0, 1.2)
        inst = random_instance(40, seed=5, volume="exponential", density="unit", rate=3.0)
        for simulate, want in (
            (simulate_clairvoyant, (1, 98, 40, 0)),
            # Capped NC queries the empty prefix for its first job, as
            # uncapped NC always has: one advance and one query per run more
            # than the former dedicated capped loop.
            (simulate_nc_uniform, (78, 59, 39, 40)),
        ):
            ctx = SimulationContext(power)
            simulate(inst, power, context=ctx)
            c = ctx.counters
            assert (c.advances, c.events, c.inserts, c.queries) == want, simulate.__name__


class TestFork:
    """``fork`` starts a twin from the live state: advancing it equals a
    fresh replay of the same inserts and advances, and the original stays
    put."""

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 0.3, 1.0]),  # release step: ties are common
                st.sampled_from([0.2, 1.0, 3.0]),
                st.sampled_from([0.5, 1.0, 4.0]),
            ),
            min_size=1,
            max_size=10,
        ),
        reads=st.lists(st.booleans(), min_size=10, max_size=10),
        ahead=st.sampled_from([1e-9, 0.2, 1.5, 40.0]),
        s_max=st.sampled_from([None, 1.1]),
    )
    @settings(max_examples=80, deadline=None)
    def test_fork_equals_a_replay(self, rows, reads, ahead, s_max):
        live = _shadow(s_max=s_max)
        replay = _shadow(s_max=s_max)
        release = 0.0
        for i, (step, volume, density) in enumerate(rows):
            release += step
            for sh in (live, replay):
                sh.insert_job(i, release, density, volume)
                sh.advance(release)
            if reads[i]:  # reads at the clock touch the live shadow only
                live.remaining_weight()
                live.remaining_items()
            twin = live.fork()
            twin.advance(release + ahead)
            ref = _shadow(s_max=s_max)
            for k, (_, vol, den) in enumerate(rows[: i + 1]):
                r = sum(s for s, _, _ in rows[: k + 1])
                ref.insert_job(k, r, den, vol)
                ref.advance(r)
            ref.advance(release + ahead)
            assert twin.remaining_weight() == ref.remaining_weight()
            assert twin.remaining_items() == ref.remaining_items()
            assert live.clock == release
        assert live.remaining_items() == replay.remaining_items()

    def test_fork_counts_apart_and_traces_nothing(self):
        from repro.core.tracing import MemoryRecorder

        rec = MemoryRecorder()
        live = ClairvoyantShadow(ALPHA, recorder=rec)
        live.insert_job(0, 0.0, 1.0, 2.0)
        live.advance(0.0)
        before, events = live.counters.as_dict(), len(list(rec))
        twin = live.fork()
        twin.advance(5.0)
        assert twin.remaining_weight() == 0.0
        assert live.counters.as_dict() == before and len(list(rec)) == events


def test_forget_completed_keeps_every_float():
    """Dropping completed jobs' metadata between advances changes nothing
    a forward-only shadow reports."""
    inst = random_instance(60, seed=8, density="loguniform")
    kept, trimmed = _shadow(), _shadow()
    for job in inst:
        for sh in (kept, trimmed):
            sh.insert_job(job.job_id, job.release, job.density, job.volume)
            sh.advance(job.release)
        trimmed.forget_completed()
        assert trimmed.remaining_weight() == kept.remaining_weight()
        assert trimmed.remaining_items() == kept.remaining_items()
    for sh in (kept, trimmed):
        sh.advance(math.inf)
    assert trimmed.remaining_items() == kept.remaining_items() == []
