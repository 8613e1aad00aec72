"""NC-general's incremental epoch shadow against its from-scratch oracle.

:class:`~repro.core.shadow.EpochShadow` resumes every epoch rebuild from
the last raw snapshot that C's run on the new base instance still shares,
and answers one-piece queries in closed form.  Both shortcuts promise
bit-identity, not a tolerance band:

* every epoch base (clock, remaining items and their order, pending jobs,
  accumulator) equals :func:`shadow_oracle.scratch_base`, which replays C
  from ``t = 0``;
* every closed-form answer equals a forced ``query_with_job``
  restore-and-loop;
* every schedule segment equals the one the from-scratch policy
  (:func:`shadow_oracle.simulate_nc_general_scratch`) produces.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Instance, Job, PowerLaw
from repro.algorithms.nc_general import NCGeneralPolicy, simulate_nc_general
from repro.core.engine import NumericEngine
from repro.core.shadow import EpochShadow
from repro.core.tracing import MemoryRecorder
from shadow_oracle import scratch_base, simulate_nc_general_scratch

ALPHA = 3.0


def _segments(run):
    return [(s.t0, s.t1, s.job_id, s.speed) for s in run.schedule]


def _bits(x: float) -> str:
    return x.hex()


class _CheckedPolicy(NCGeneralPolicy):
    """NC-general that, at every rebuild, compares its base with the
    from-scratch oracle and, at every query the closed form answers,
    compares that answer with a forced restore-and-loop."""

    def __init__(self, power: PowerLaw, **kwargs) -> None:
        super().__init__(power, **kwargs)
        self.bases = 0
        self.closed = 0
        self.looped = 0

    def _shadow_speed(self, t, processed):
        fresh = self._epoch is None
        speed = super()._shadow_speed(t, processed)
        shadow: EpochShadow = self._shadow
        j_star, r_star, rho_star = self._epoch
        if fresh:
            _, want = scratch_base(self._released, processed, j_star, r_star, ALPHA)
            got = shadow.base
            assert _bits(got.clock) == _bits(want.clock)
            assert list(got.remaining) == list(want.remaining), "remaining items or order"
            assert [_bits(v) for _, v in got.remaining] == [_bits(v) for _, v in want.remaining]
            assert got.pending == want.pending
            assert _bits(got.w_accum) == _bits(want.w_accum)
            self.bases += 1
        v_star = processed.get(j_star, 0.0) if j_star is not None else 0.0
        args = (t, j_star, r_star, rho_star, v_star) if v_star > 0.0 else (t, None, 0.0, 0.0, 0.0)
        closed = shadow.first_piece(*args)
        if closed is None:
            self.looped += 1
        else:
            forced = shadow.shadow.query_with_job(shadow.base, *args)
            assert _bits(closed) == _bits(forced), f"closed form at t={t}"
            self.closed += 1
        return speed


def _run_checked(instance: Instance, max_step: float) -> tuple[_CheckedPolicy, list]:
    power = PowerLaw(ALPHA)
    policy = _CheckedPolicy(power)
    # The same step floor as simulate_nc_general, so the runs are comparable.
    min_step = min(1e-14, policy.epsilon**2 / 16.0)
    engine = NumericEngine(power, max_step=max_step, min_step=min_step)
    result = engine.run(instance, policy)
    return policy, [(s.t0, s.t1, s.job_id, s.speed) for s in result.schedule]


#: Release grid points; each may be nudged by a multiple of 4e-13 relative,
#: so some releases tie exactly, some fall within the shadow's 1e-12
#: admission tolerance of one another and some just outside it.
_GRID = (0.0, 0.3, 1.0, 1.7)


@st.composite
def _instances(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    jobs = []
    for i in range(n):
        base = draw(st.sampled_from(_GRID))
        nudge = draw(st.sampled_from((0, 0, 1, 2, 3)))
        release = base * (1.0 + nudge * 4e-13)
        volume = draw(st.floats(0.05, 1.5))
        density = 10.0 ** draw(st.floats(-1.0, 1.0))
        jobs.append(Job(i, release, volume, density))
    return Instance(jobs)


class TestIncrementalDifferential:
    @settings(max_examples=40, deadline=None)
    @given(instance=_instances())
    def test_bases_and_closed_form_are_bit_identical(self, instance):
        policy, segments = _run_checked(instance, max_step=5e-2)
        assert policy.bases > 0
        scratch = simulate_nc_general_scratch(instance, PowerLaw(ALPHA), max_step=5e-2)
        assert segments == _segments(scratch)

    @pytest.mark.parametrize(
        "releases",
        [
            (0.0, 0.0, 0.0, 0.5),
            (0.5, 0.5 * (1 + 4e-13), 0.5 * (1 + 8e-13), 0.9),
            (0.2, 0.2 * (1 + 1.2e-12), 0.6, 0.6),
        ],
        ids=["equal", "within-tolerance", "just-outside"],
    )
    def test_tied_releases(self, releases):
        jobs = [Job(i, r, 0.4 + 0.3 * i, (0.5, 6.0, 2.0, 9.0)[i]) for i, r in enumerate(releases)]
        instance = Instance(jobs)
        policy, segments = _run_checked(instance, max_step=2e-2)
        assert policy.bases > 0 and policy.closed > 0
        scratch = simulate_nc_general_scratch(instance, PowerLaw(ALPHA), max_step=2e-2)
        assert segments == _segments(scratch)

    def test_closed_form_answers_most_queries(self):
        rng = random.Random(7)
        release, jobs = 0.0, []
        for i in range(30):
            release += rng.expovariate(1.0)
            jobs.append(Job(i, release, rng.uniform(0.2, 2.0), 10.0 ** rng.uniform(-1, 1)))
        policy, _ = _run_checked(Instance(jobs), max_step=2e-2)
        assert policy.closed > 2 * policy.looped


def _general_batch_rows(seed: int, index: int, n: int = 300) -> list[tuple]:
    """The general-batch instance generator of ``perfbench/``: Poisson
    releases at rate 1, volumes uniform on [0.2, 2], densities log-uniform
    over [0.1, 10]."""
    rng = random.Random(f"{seed}:general-batch:{n}:{index}")
    rows, release = [], 0.0
    for i in range(n):
        release += rng.expovariate(1.0)
        volume = rng.uniform(0.2, 2.0)
        density = 10.0 ** rng.uniform(-1.0, 1.0)
        rows.append((i, release, volume, density))
    return rows


@pytest.mark.parametrize("index", [0, 1])
def test_general_batch_segments_match_scratch_oracle(index):
    """Every segment of a 300-job general-batch instance (seed 1) equals the
    from-scratch policy's; the rebuilds replay a fraction of its events."""
    power = PowerLaw(ALPHA)
    instance = Instance(Job(*r) for r in _general_batch_rows(1, index))
    run = simulate_nc_general(instance, power)
    scratch = simulate_nc_general_scratch(instance, power)
    assert _segments(run) == _segments(scratch)
    assert run.engine_steps == scratch.engine_steps
    inc, ref = run.counters, scratch.counters
    assert (inc.queries, inc.rebuilds, inc.checkpoints) == (
        ref.queries,
        ref.rebuilds,
        ref.checkpoints,
    )
    assert inc.events * 5 < ref.events


class TestEpochShadowUnit:
    def test_rebuild_resumes_after_unchanged_prefix(self):
        releases = (0.0, 0.5, 1.0, 1.5)
        rec = MemoryRecorder()
        es = EpochShadow(ALPHA, recorder=rec)
        for jid, rel in enumerate(releases):
            es.add_job(jid, rel, 1.0)
        for jid in range(3):
            es.set_volume(jid, 0.4)
        es.rebuild(1.5, now=1.5, j_star=3)
        # Job 2 (released at 1.0) grows: the run up to release 0.5 is reused.
        es.set_volume(2, 0.7)
        es.rebuild(1.5, now=1.6, j_star=3)
        # Nothing changed: resume from the last release before r* = 1.5.
        es.rebuild(1.5, now=1.7, j_star=3)
        marks = rec.events_of("shadow_rebuild")
        assert [e.payload["base_time"] for e in marks] == [0.0, 0.5, 1.0]
        released = {jid: (rel, 1.0) for jid, rel in enumerate(releases)}
        _, want = scratch_base(released, {0: 0.4, 1: 0.4, 2: 0.7}, 3, 1.5, ALPHA)
        assert es.base == want

    @staticmethod
    def _epoch(jobs, volumes, at, j_star):
        es = EpochShadow(ALPHA)
        for jid, (rel, rho) in enumerate(jobs):
            es.add_job(jid, rel, rho)
        for jid, vol in volumes.items():
            es.set_volume(jid, vol)
        return es, es.rebuild(at, now=at, j_star=j_star)

    def _check(self, es, base, t, job):
        closed = es.first_piece(t, *job)
        forced = es.shadow.query_with_job(base, t, *job)
        if closed is not None:
            assert _bits(closed) == _bits(forced), (job, t)
        return closed

    def test_first_piece_stops_at_a_due_admission(self):
        """Job 0's piece spans job 2's release at 5.0; from within the
        admission tolerance below 5.0 on, the closed form defers to the loop."""
        es, base = self._epoch(((0.0, 0.2), (1.0, 0.1), (5.0, 0.5)), {0: 20.0, 2: 0.3}, 1.0, 1)
        assert base.pending[0][0] == 5.0
        for job in ((None, 0.0, 0.0, 0.0), (1, 1.0, 0.1, 0.5)):
            for t in (1.0, 3.0, 5.0 * (1 - 2e-12)):
                assert self._check(es, base, t, job) is not None, t
            for t in (5.0 * (1 - 5e-13), 5.0, 7.0):
                assert self._check(es, base, t, job) is None, t

    def test_first_piece_stops_at_a_completion(self):
        """Up to the tie tolerance before the piece's job completes, the
        closed form answers; from there on the loop does."""
        es, base = self._epoch(((0.0, 0.2), (1.0, 0.1)), {0: 20.0}, 1.0, 1)
        ((_, vol),) = base.remaining
        beta = 1.0 - 1.0 / ALPHA
        w = 0.2 * vol
        done = base.clock + w**beta / (0.2 * beta)
        job = (None, 0.0, 0.0, 0.0)
        for t in (1.5, base.clock + (done - base.clock) * (1 - 2e-12)):
            assert self._check(es, base, t, job) is not None, t
        for t in (base.clock + (done - base.clock) * (1 - 5e-13), done, done + 1.0):
            assert self._check(es, base, t, job) is None, t

    def test_out_of_order_release_rejected(self):
        es = EpochShadow(ALPHA)
        es.add_job(0, 1.0, 1.0)
        with pytest.raises(Exception, match="before job 0"):
            es.add_job(1, 0.5, 1.0)
