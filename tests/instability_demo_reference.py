"""Reference instability demo with three single runs: the oracle of the batched demo.

This is ``latcb.dynamics.instability_demo`` as it was before its runs were
batched: the unstable chain's alternating probe, then the stable chain's,
then the unstable chain's smooth probe, each its own ``integrate_atomistic``
call on a chain built for it.  The tests compare its result with the
library's demo.
"""

from __future__ import annotations

import math

import numpy as np

from latcb.dynamics import _l2, _probe_field, integrate_atomistic
from latcb.lattice import DisplacementField, LatticeSpec, supercell_period
from latcb.potentials import HarmonicChain
from latcb.stress import CBModel


def instability_demo(
    eps: float,
    a_unstable: tuple = (-1.0, 0.5),
    a_stable: tuple = (2.0, -0.25),
    cfl: float = 0.2,
    window_start: float = 1.0,
) -> dict:
    N = supercell_period(eps)
    if N % 2:
        raise ValueError("1/eps must be an even integer")
    T_end = 3.0 * abs(math.log(eps))
    lattice = LatticeSpec(d=1, A=np.eye(1), N=N)
    zero = DisplacementField.zeros(lattice)

    def chain(a):
        return HarmonicChain.build(a1=a[0], a2=a[1])

    def run(P, probe_kind):
        v0 = DisplacementField(lattice, eps**2 * _probe_field(lattice, probe_kind))
        n_snap = max(64, int(math.ceil(T_end / 0.1)))
        snap = np.linspace(0.0, T_end, n_snap + 1)
        traj = integrate_atomistic(P, zero, v0, snap, cfl=cfl)
        norms = np.array([_l2(traj.v[j]) for j in range(len(traj.times))])
        return traj.times, norms

    t_u, n_u = run(chain(a_unstable), "alternating")
    in_window = t_u >= window_start
    bound = 0.5 * eps**2 * np.exp(t_u[in_window])
    growth_ratios = n_u[in_window] / bound
    t_s, n_s = run(chain(a_stable), "alternating")
    t_w, n_w = run(chain(a_unstable), "smooth")

    cb_modulus = float(CBModel(chain(a_unstable)).moduli(np.zeros((1, 1)))[0, 0, 0, 0])
    return {
        "eps": float(eps),
        "window": [float(window_start), float(T_end)],
        "times": t_u.tolist(),
        "velocity_norms": n_u.tolist(),
        "min_growth_ratio": float(np.min(growth_ratios)),
        "stable_max_norm": float(np.max(n_s)),
        "stable_bound": float(2.0 * eps**2),
        "smooth_max_norm": float(np.max(n_w)),
        "cb_modulus": cb_modulus,
    }
