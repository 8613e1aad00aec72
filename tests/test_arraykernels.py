"""Differential suite for the closed-form kernels and the shadow event loop.

Two layers of agreement are pinned here:

* **Per-kernel** — every closed form in :mod:`repro.core.kernels` against a
  numpy evaluation of the same algebra (:class:`_np`, vectorized over
  arrays, so its powers go through numpy's loops rather than libm) on a
  boundary-heavy grid (``w -> 0``, ``rho -> 0``, ``alpha`` in {2, 2.5, 3}).
  The elementary kernels must agree to a few ulp; the flow integrals
  regroup terms and get the documented 1e-12 band.
* **Whole-run** — the shipped heap-plus-accumulator loop of
  :class:`~repro.core.shadow.ClairvoyantShadow` against the O(n)-scan
  reference loop in ``tests/shadow_oracle.py``: fixed 200-job anchors, a
  hypothesis property over random small instances driven through staged
  ``advance`` / ``checkpoint`` / ``rollback`` / ``query_with_job`` calls,
  and the golden corpus replayed through the reference at the corpus's
  1e-9 acceptance bar.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels as k
from repro.core.errors import KernelDomainError
from repro.core.job import Instance, Job
from repro.core.shadow import ClairvoyantShadow, SimulationContext
from shadow_oracle import run_c, simulate_nc_general_reference

ALPHAS = (2.0, 2.5, 3.0)
#: boundary-heavy 1-D probe values for weight-like and density arguments.
WEIGHTS = (0.0, 1e-300, 1e-15, 1e-9, 0.5, 1.0, 7.25, 1e6)
RHOS = (1e-12, 1e-6, 0.25, 1.0, 42.0)
TAUS = (0.0, 1e-12, 0.1, 3.0, 1e4)
#: shared-float-expression kernels: agreement to a few ulp.
TIGHT = 5e-15
#: regrouped algebra (flow integrals): the documented band.
BAND = 1e-12
#: conditioned probe grid for the flow integrals: the 1e-12 band is claimed
#: where the segment changes the weight by at least ~1% (see
#: :func:`_flow_conditioned`); below that *both* formulations cancel
#: catastrophically and neither result carries the claimed digits.
FLOW_WEIGHTS = (0.0, 1e-15, 1e-9, 0.5, 1.0, 7.25, 1e3)
FLOW_RHOS = (1e-6, 0.25, 1.0, 42.0)
FLOW_TAUS = (0.0, 1e-12, 0.1, 3.0, 100.0)


def _flow_conditioned(w: float, rho: float, tau: float, alpha: float) -> bool:
    """Whether the flow integral over ``tau`` is well-conditioned: the
    relative change of ``w**beta`` must clear ~1% (tau == 0 is exact by
    the kernels' zero-length guard)."""
    if tau == 0.0 or w == 0.0:
        return True
    beta = 1.0 - 1.0 / alpha
    return rho * beta * tau >= 1e-2 * w**beta


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _grid2():
    return [(w, rho) for w in WEIGHTS for rho in RHOS]


def _grid_pair():
    return [(hi, lo) for hi in WEIGHTS for lo in WEIGHTS if lo <= hi]


def _arrays(*args):
    return np.broadcast_arrays(*(np.asarray(a, dtype=np.float64) for a in args))


class _np:
    """numpy evaluations of the eleven closed forms, broadcasting over their
    arguments — the reference the scalar kernels are checked against.  No
    domain checks: every probe grid stays inside the domain."""

    @staticmethod
    def beta_of(alpha):
        (a,) = _arrays(alpha)
        return 1.0 - 1.0 / a

    @staticmethod
    def speed_at(weight, alpha):
        w, a = _arrays(weight, alpha)
        return w ** (1.0 / a)

    @staticmethod
    def decay_weight_after(w0, rho, t, alpha):
        w0, rho, t, a = _arrays(w0, rho, t, alpha)
        beta = 1.0 - 1.0 / a
        return np.maximum(w0**beta - rho * beta * t, 0.0) ** (1.0 / beta)

    @staticmethod
    def decay_time_between(w0, w1, rho, alpha):
        w0, w1, rho, a = _arrays(w0, w1, rho, alpha)
        beta = 1.0 - 1.0 / a
        return np.maximum(0.0, (w0**beta - w1**beta) / (rho * beta))

    @staticmethod
    def decay_time_to_zero(w0, rho, alpha):
        return _np.decay_time_between(w0, 0.0, rho, alpha)

    @staticmethod
    def decay_energy_between(w0, w1, rho, alpha):
        w0, w1, rho, a = _arrays(w0, w1, rho, alpha)
        beta = 1.0 - 1.0 / a
        return np.maximum(0.0, (w0 ** (1.0 + beta) - w1 ** (1.0 + beta)) / (rho * (1.0 + beta)))

    @staticmethod
    def decay_flow_integral(w0, rho, tau, alpha):
        w0, rho, tau, a = _arrays(w0, rho, tau, alpha)
        energy = _np.decay_energy_between(w0, _np.decay_weight_after(w0, rho, tau, a), rho, a)
        return np.where(tau == 0.0, 0.0, (w0 * tau - energy) / rho)

    @staticmethod
    def growth_weight_after(u0, rho, t, alpha):
        u0, rho, t, a = _arrays(u0, rho, t, alpha)
        beta = 1.0 - 1.0 / a
        return (u0**beta + rho * beta * t) ** (1.0 / beta)

    @staticmethod
    def growth_time_between(u0, u1, rho, alpha):
        u0, u1, rho, a = _arrays(u0, u1, rho, alpha)
        beta = 1.0 - 1.0 / a
        return np.maximum(0.0, (u1**beta - u0**beta) / (rho * beta))

    @staticmethod
    def growth_energy_between(u0, u1, rho, alpha):
        u0, u1, rho, a = _arrays(u0, u1, rho, alpha)
        beta = 1.0 - 1.0 / a
        return np.maximum(0.0, (u1 ** (1.0 + beta) - u0 ** (1.0 + beta)) / (rho * (1.0 + beta)))

    @staticmethod
    def growth_flow_integral(u0, rho, tau, alpha):
        u0, rho, tau, a = _arrays(u0, rho, tau, alpha)
        energy = _np.growth_energy_between(u0, _np.growth_weight_after(u0, rho, tau, a), rho, a)
        return np.where(tau == 0.0, 0.0, (energy - u0 * tau) / rho)


class TestPerKernelDifferential:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_speed_at(self, alpha):
        arr = _np.speed_at(np.array(WEIGHTS), alpha)
        for i, w in enumerate(WEIGHTS):
            assert _rel(float(arr[i]), k.speed_at(w, alpha)) <= TIGHT

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_decay_weight_after(self, alpha):
        for w, rho in _grid2():
            for tau in TAUS:
                got = float(_np.decay_weight_after(w, rho, tau, alpha))
                want = k.decay_weight_after(w, rho, tau, alpha)
                assert _rel(got, want) <= TIGHT, (w, rho, tau)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_decay_time_between(self, alpha):
        for w0, w1 in _grid_pair():
            for rho in RHOS:
                got = float(_np.decay_time_between(w0, w1, rho, alpha))
                want = k.decay_time_between(w0, w1, rho, alpha)
                assert _rel(got, want) <= TIGHT, (w0, w1, rho)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_decay_time_to_zero(self, alpha):
        for w, rho in _grid2():
            got = float(_np.decay_time_to_zero(w, rho, alpha))
            want = k.decay_time_to_zero(w, rho, alpha)
            assert _rel(got, want) <= TIGHT, (w, rho)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_decay_energy_between(self, alpha):
        for w0, w1 in _grid_pair():
            for rho in RHOS:
                got = float(_np.decay_energy_between(w0, w1, rho, alpha))
                want = k.decay_energy_between(w0, w1, rho, alpha)
                assert _rel(got, want) <= TIGHT, (w0, w1, rho)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_decay_flow_integral(self, alpha):
        for w in FLOW_WEIGHTS:
            for rho in FLOW_RHOS:
                for tau in FLOW_TAUS:
                    if not _flow_conditioned(w, rho, tau, alpha):
                        continue
                    got = float(_np.decay_flow_integral(w, rho, tau, alpha))
                    want = k.decay_flow_integral(w, rho, tau, alpha)
                    assert _rel(got, want) <= BAND, (w, rho, tau)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_growth_weight_after(self, alpha):
        for u, rho in _grid2():
            for tau in TAUS:
                got = float(_np.growth_weight_after(u, rho, tau, alpha))
                want = k.growth_weight_after(u, rho, tau, alpha)
                assert _rel(got, want) <= TIGHT, (u, rho, tau)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_growth_time_between(self, alpha):
        for u1, u0 in _grid_pair():
            for rho in RHOS:
                got = float(_np.growth_time_between(u0, u1, rho, alpha))
                want = k.growth_time_between(u0, u1, rho, alpha)
                assert _rel(got, want) <= TIGHT, (u0, u1, rho)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_growth_energy_between(self, alpha):
        for u1, u0 in _grid_pair():
            for rho in RHOS:
                got = float(_np.growth_energy_between(u0, u1, rho, alpha))
                want = k.growth_energy_between(u0, u1, rho, alpha)
                assert _rel(got, want) <= TIGHT, (u0, u1, rho)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_growth_flow_integral(self, alpha):
        for u in FLOW_WEIGHTS:
            for rho in FLOW_RHOS:
                for tau in FLOW_TAUS:
                    if not _flow_conditioned(u, rho, tau, alpha):
                        continue
                    got = float(_np.growth_flow_integral(u, rho, tau, alpha))
                    want = k.growth_flow_integral(u, rho, tau, alpha)
                    assert _rel(got, want) <= BAND, (u, rho, tau)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_beta_of(self, alpha):
        assert float(_np.beta_of(alpha)) == k.beta_of(alpha)

    def test_broadcasting_matches_elementwise(self):
        """A whole 2-D grid in one broadcast call against the scalar kernel
        per element: numpy may route large arrays through SIMD
        transcendental loops whose last ulp differs from the scalar libm
        path, so they agree to a few ulp, not bit for bit."""
        w = np.array(WEIGHTS)[:, None]
        rho = np.array(RHOS)[None, :]
        out = _np.decay_weight_after(w, rho, 0.25, 3.0)
        assert out.shape == (len(WEIGHTS), len(RHOS))
        for i, wi in enumerate(WEIGHTS):
            for j, rj in enumerate(RHOS):
                single = k.decay_weight_after(wi, rj, 0.25, 3.0)
                assert _rel(float(out[i, j]), single) <= TIGHT


class TestDomainErrors:
    def test_scalar_kernel_context(self):
        with pytest.raises(KernelDomainError) as exc:
            k.decay_weight_after(-1.0, 2.0, 0.5, 3.0)
        assert exc.value.context == {"x": -1.0, "rho": 2.0, "t": 0.5}

    def test_scalar_kernel_is_value_error(self):
        with pytest.raises(ValueError):
            k.decay_time_to_zero(1.0, -2.0, 3.0)

    def test_bad_alpha_rejected(self):
        with pytest.raises(KernelDomainError):
            k.speed_at(1.0, 1.0)
        with pytest.raises(KernelDomainError):
            k.speed_at(1.0, 0.5)


def _random_rows(n: int, seed: int, *, front: bool) -> list[tuple[int, float, float, float]]:
    rng = np.random.default_rng(seed)
    vols = rng.exponential(1.0, n) + 1e-3
    dens = 10.0 ** rng.uniform(-1.0, 1.0, n)
    rels = np.zeros(n) if front else np.sort(rng.uniform(0.0, 5.0, n))
    return [(i, float(rels[i]), float(dens[i]), float(vols[i])) for i in range(n)]


def _piece_log():
    """A ``record`` callback and the list of ``(t0, t1, job, w0)`` pieces it
    collects."""
    segments: list[tuple[float, float, int, float]] = []

    def record(kind: str, t0: float, t1: float, jid: int, w0: float) -> None:
        segments.append((t0, t1, jid, w0))

    return segments, record


def _full_run(rows, alpha: float = 3.0):
    """Final clock and committed pieces of the shipped loop, advanced in one
    call."""
    segments, record = _piece_log()
    shadow = ClairvoyantShadow(alpha, record=record)
    for jid, rel, rho, vol in rows:
        shadow.insert_job(jid, rel, rho, vol)
    shadow.advance(math.inf)
    shadow.materialize()
    return shadow.clock, segments


def _oracle_run(rows, alpha: float = 3.0):
    """Final clock and pieces of the reference loop over the same rows."""
    segments, record = _piece_log()
    return run_c(rows, alpha, record=record).clock, segments


def _completions(segments) -> dict[int, tuple[float, float, float]]:
    """Each job's last piece ``(t0, t1, w0)``; ``t1`` is its completion time
    and dict order is completion order."""
    last: dict[int, tuple[float, float, float]] = {}
    for t0, t1, jid, w0 in segments:
        last.pop(jid, None)
        last[jid] = (t0, t1, w0)
    return last


def _busy_period_tails(rows, completions) -> list[int]:
    """Jobs whose completion leaves Algorithm C idle: no other job released
    by then is still active."""
    release = {jid: rel for jid, rel, _, _ in rows}
    tails = []
    for jid, (_, c, _) in completions.items():
        bound = c * (1.0 + 1e-12)
        if not any(release[i] <= bound < completions[i][1] for i in completions if i != jid):
            tails.append(jid)
    return tails


@st.composite
def _staged_cases(draw):
    """A small random instance plus a staged call plan over it.

    Releases come either from a coarse grid (simultaneous arrivals) or from
    a continuum; each stage names a horizon and the call that reaches it:
    a plain ``advance``, a ``checkpoint`` / ``rollback`` / replay, or a
    speculative ``query_with_job`` with an extra job released at the
    checkpoint (rolled back afterwards)."""
    n = draw(st.integers(min_value=1, max_value=8))
    grid = draw(st.booleans())
    rel = st.sampled_from((0.0, 0.5, 1.0, 2.0)) if grid else st.floats(0.0, 3.0)
    rows = [
        (i, draw(rel), 10.0 ** draw(st.floats(-1.0, 1.0)), draw(st.floats(1e-3, 3.0)))
        for i in range(n)
    ]
    rows.sort(key=lambda r: (r[1], r[0]))
    alpha = draw(st.sampled_from((2.0, 2.5, 3.0)))
    cuts = draw(st.lists(st.integers(1, 600), min_size=0, max_size=6, unique=True))
    calls = st.sampled_from(("advance", "replay", "query"))
    stages = [(h / 100.0, draw(calls)) for h in sorted(cuts)]
    extra = (10.0 ** draw(st.floats(-1.0, 1.0)), draw(st.floats(1e-3, 3.0)))
    return rows, alpha, stages, extra


def _weight(remaining: dict[int, float], density: dict[int, float]) -> float:
    return sum(density[j] * v for j, v in remaining.items())


class TestShadowFullRunDifferential:
    @pytest.mark.parametrize("front", [True, False])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_fast_matches_scalar(self, front, seed):
        rows = _random_rows(200, seed, front=front)
        clock_f, seg_f = _full_run(rows)
        clock_s, seg_s = _oracle_run(rows)
        assert _rel(clock_f, clock_s) <= BAND
        assert len(seg_f) == len(seg_s)
        for (a0, a1, aj, _), (b0, b1, bj, _) in zip(seg_f, seg_s):
            assert aj == bj, "event sequence diverged from the reference loop"
            assert _rel(a0, b0) <= BAND and _rel(a1, b1) <= BAND

    def test_single_job_tail_is_bit_identical(self):
        """The busy-period tail (one job left) re-derives the accumulator
        exactly, so final completion times match the reference loop bit for
        bit — finite-difference consumers rely on this."""
        rows = [(1, 0.0, 1.0, 1.0), (2, 0.2, 1.0, 2.0 + 1e-7)]
        clock_f, _ = _full_run(rows)
        clock_s, _ = _oracle_run(rows)
        assert clock_f == clock_s

    @settings(max_examples=150, deadline=None)
    @given(case=_staged_cases())
    def test_staged_calls_match_reference(self, case):
        """Property over random small instances: staged calls on the one
        shipped loop reproduce one-shot reference runs.

        * every intermediate state (remaining volumes, speculative
          ``query_with_job`` weights) and every completion time agrees with
          the reference within 1e-12 relative, with the same completion
          sequence;
        * in a one-shot run, a busy period's tail piece that starts from
          the reference's state (same start time and weight) ends at the
          reference's completion time bit for bit.
        """
        rows, alpha, stages, (x_rho, x_vol) = case
        density = {jid: rho for jid, _, rho, _ in rows}
        density[-1] = x_rho  # the speculative extra job
        scale = sum(rho * vol for _, _, rho, vol in rows) + x_rho * x_vol
        segments, record = _piece_log()
        shadow = ClairvoyantShadow(alpha, record=record)
        inserted = 0
        for horizon, call in stages:
            while inserted < len(rows) and rows[inserted][1] <= horizon:
                shadow.insert_job(*rows[inserted])
                inserted += 1
            known = rows[:inserted]
            if call == "advance":
                shadow.advance(horizon)
            else:
                ckpt = shadow.checkpoint()
                kept = len(segments)
                if call == "replay":
                    shadow.advance(horizon)
                else:
                    got = shadow.query_with_job(ckpt, horizon, -1, ckpt.clock, x_rho, x_vol)
                    ref = run_c(known + [(-1, ckpt.clock, x_rho, x_vol)], alpha, until=horizon)
                    assert abs(got - _weight(ref.remaining, density)) <= 1e-12 * scale
                shadow.rollback(ckpt)
                del segments[kept:]
                shadow.advance(horizon)
            shadow.materialize()
            ref = run_c(known, alpha, until=horizon)
            live = shadow.remaining_dict()
            assert list(live) == list(ref.remaining), "active sets diverged"
            for jid, vol in live.items():
                assert abs(vol - ref.remaining[jid]) <= 1e-12 * scale / density[jid]
        for row in rows[inserted:]:
            shadow.insert_job(*row)
        shadow.advance(math.inf)
        shadow.materialize()

        staged = _completions(segments)
        reference = _completions(_oracle_run(rows, alpha)[1])
        assert list(staged) == list(reference), "completion sequence diverged"
        for jid, (_, t1, _) in reference.items():
            assert _rel(staged[jid][1], t1) <= BAND, f"completion of job {jid}"

        one_shot = _completions(_full_run(rows, alpha)[1])
        for jid in _busy_period_tails(rows, reference):
            if one_shot[jid][0] == reference[jid][0] and one_shot[jid][2] == reference[jid][2]:
                assert one_shot[jid][1] == reference[jid][1], f"tail of job {jid}"


class _ReferencePrefix:
    """``W^C(t)`` over the jobs added so far, from a fresh reference run per
    query — the prefix oracle NC-uniform reads its speed offsets from."""

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self.rows: list[tuple[int, float, float, float]] = []

    def add_job(self, job_id: int, release: float, density: float, volume: float) -> None:
        self.rows.append((job_id, release, density, volume))

    def weight_at(self, t: float) -> float:
        run = run_c(self.rows, self.alpha, until=t)
        return _weight(run.remaining, {jid: rho for jid, _, rho, _ in self.rows})


class _ReferenceContext(SimulationContext):
    def prefix_oracle(self, *, power=None, component="shadow"):
        return _ReferencePrefix(self.power.alpha)


class TestGoldenCorpusUnderBackends:
    """The golden corpus through the scalar reference path.

    The shipped path is ``tests/test_golden_differential.py``; this replays
    one corpus entry per family with every Algorithm C value taken from the
    O(n)-scan reference loop of ``tests/shadow_oracle.py`` (the loop the
    retired ``scalar`` kernel backend ran) and holds it to the same 1e-9
    bar.
    """

    @pytest.fixture()
    def corpus(self):
        import json
        import pathlib

        return json.loads(
            (pathlib.Path(__file__).parent / "data" / "golden_corpus.json").read_text()
        )

    @pytest.mark.parametrize("prefix", ["nc_uniform/", "nc_general/"])
    def test_scalar_backend_matches_golden(self, corpus, prefix):
        from repro.algorithms.nc_uniform import simulate_nc_uniform
        from repro.core.power import PowerLaw

        key = sorted(x for x in corpus if x.startswith(prefix))[0]
        entry = corpus[key]
        inst = Instance(
            [Job(int(j), r, v, d) for j, r, v, d in entry["instance"]]
        )
        power = PowerLaw(entry["alpha"])
        if prefix == "nc_uniform/":
            run = simulate_nc_uniform(inst, power, context=_ReferenceContext(power))
        else:
            run = simulate_nc_general_reference(
                inst,
                power,
                eta=entry["eta"],
                beta=entry["beta"],
                epsilon=entry["epsilon"],
                max_step=entry["max_step"],
            )
        for jid_str, completion in entry["completions"].items():
            got = run.completion_time(int(jid_str))
            assert _rel(got, completion) <= 1e-9, f"job {jid_str} under the reference loop"
