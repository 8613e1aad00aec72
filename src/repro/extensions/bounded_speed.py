"""Extension: speed-bounded processors.

The paper's related work (§1.3, citing Bansal–Chan–Lam–Lee [6]) studies the
same objective when the machine has a *maximum speed* ``s_max``.  This module
extends the reproduction to that model with one class,
:class:`CappedPowerLaw` — ``P(s) = s**alpha`` on ``[0, s_max]``; speeds above
the cap are infeasible.  The class lives next to ``PowerLaw`` in
:mod:`repro.core.power`, so the simulators that read its cap import no
extension; this module re-exports it.  The power function carries the cap,
so the ordinary analytic simulators honour it:

* :func:`~repro.algorithms.clairvoyant.simulate_clairvoyant` clips Algorithm
  C's speed rule to ``s = min(P^{-1}(W), s_max)``: while the remaining weight
  exceeds ``P(s_max)`` the machine saturates at ``s_max`` (weight falls
  *linearly*), then the ordinary decay takes over.  Exact, event-driven.
* :func:`~repro.algorithms.nc_uniform.simulate_nc_uniform` applies the same
  clip to Algorithm NC's growth rule ``s = min(P^{-1}(W^C(r-) + W̆), s_max)``.

Simulators whose dynamics do not model the cap (NC-PAR, NC-HDF-PAR,
NC-general) refuse a capped power with ``TypeError``.

A structural observation this extension demonstrates empirically (see
``benchmarks/bench_bounded_speed.py``): Lemma 3's **energy equality survives
the cap** — the clipped NC growth profile is still a time-reversed /
rearranged copy of the clipped C decay profile, both saturating at the same
level — while Lemma 4's exact flow ratio degrades gracefully as the cap
tightens (the paper's uncapped `1/(1-1/alpha)` is recovered as
``s_max -> inf``).
"""

from __future__ import annotations

from ..core.power import CappedPowerLaw

__all__ = ["CappedPowerLaw"]
