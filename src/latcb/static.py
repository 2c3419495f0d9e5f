"""Static equilibria: continuum and atomistic solvers plus the error sweep.

The experiment follows the two-scale setup: a smooth macroscopic dead load
``F`` on the unit torus is scaled to the lattice as ``f(x) = eps F(eps x)``
and transferred to sites by convolution with the hat basis, which preserves
the discrete/continuum duality pairing.  For a trigonometric field that
convolution is exact in closed form: mode ``m`` is multiplied by
``prod_a sinc(m_a eps)^2`` (``TrigField.hat_smoothed``) and the smoothed
field is evaluated at the sites.  Both equilibria minimize an energy with
one damped Newton-Krylov loop (matrix-free numpy CG, preconditioned by a
Fourier symbol): the Cauchy-Born one once per load (it is scale-free) on a
spectral grid with the symbol ``C0 k^2``, the atomistic ones of all of a
load's lattice spacings in one lockstep batch with the reference dynamical
symbol.  The reported error is the
scaled L2 norm of the gradient gap between the continuum solution and the
smoothed interpolant of the atomistic one, the quantity that converges at
second order in the spacing for stable potentials and small loads.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .fields import TrigField
from .interpolation import interp_sample_shifts
from .lattice import (
    DisplacementField,
    LatticeSpec,
    gauss_rule_01,
    stacked_plan,
    supercell_period,
    tensor_grid,
)
from .potentials import (
    AdmissibilityError,
    Potential,
    _energies_and_gradient,
    hessian_operator,
)
from .stability import dynamical_symbol, stability_constants
from .stress import CBModel

__all__ = [
    "SolverError",
    "MacroForce",
    "StaticSolution",
    "make_forces",
    "solve_cb_static",
    "solve_atomistic_static",
    "interp_gradient_gap",
    "interp_value_gap",
    "static_converge_sweep",
]


class SolverError(RuntimeError):
    """Raised when an iteration fails to reach its tolerance or leaves
    the admissible region."""


# ---------------------------------------------------------------------------
# loads
# ---------------------------------------------------------------------------

@dataclass
class MacroForce:
    """Macroscopic dead load on the unit torus with its size functional.

    ``delta = ||F||_{W^{-1,2}} + ||grad F||_{L^2}`` controls solvability of
    the nonlinear problems; loads must have zero mean per component for the
    negative-order norm (and the equilibria) to exist.
    """

    field: TrigField

    def __post_init__(self):
        if float(np.max(np.abs(self.field.mean()))) > 1e-12:
            raise ValueError("macroscopic loads must have zero mean per component")

    @property
    def delta(self) -> float:
        return self.field.sobolev_norm(-1.0) + self.field.sobolev_norm(1.0)

    def scaled(self, factor: float) -> "MacroForce":
        return MacroForce(field=self.field.scale(factor))


def _hat_transfer(U: TrigField, eps: float, c: float) -> DisplacementField:
    """Site samples ``(zeta * u)(xi)`` of ``u(x) = c U(eps x)`` on the 1/eps supercell.

    In micro coordinates the hat kernel multiplies mode ``m`` of ``U`` by
    ``prod_a sinc(m_a eps)^2``, so the samples are ``c U.hat_smoothed(eps)``
    on the grid ``eps xi`` (``TrigField.sample``), exact up to roundoff.
    """
    N = supercell_period(eps)
    return DisplacementField(LatticeSpec(d=U.d, A=np.eye(U.d), N=N), c * U.hat_smoothed(eps).sample(N))


def make_forces(F: MacroForce, eps: float) -> DisplacementField:
    """Scale a macroscopic load to the lattice.

    Returns the site transfer ``f_a(xi) = (zeta * f)(xi)`` of the
    microscopic force ``f(x) = eps F(eps x)`` as a DisplacementField on the
    matching supercell: the load's modes times ``prod_a sinc(m_a eps)^2``,
    times ``eps``, sampled at ``eps xi``.  Constants pass unchanged (the hat
    kernel integrates to one).
    """
    return _hat_transfer(F.field, eps, eps)


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

@dataclass
class StaticSolution:
    """Equilibrium with solver provenance.

    ``field`` is a TrigField (continuum) or DisplacementField (lattice);
    ``residual`` is the residual norm of ``field`` that ended the iteration.
    """

    field: object
    residual: float
    iterations: int
    diagnostics: dict = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# damped Newton-Krylov (shared by both solvers)
# ---------------------------------------------------------------------------

def _line_search(xs, deltas, evaluate, bases, slopes, floors, solver: str) -> list:
    """Backtrack every row's ``x + t delta`` from t = 1 by halving, in lockstep, up to 40 times.

    ``evaluate(trials, rows)`` returns one tuple per trial that starts with
    its merit, for the trials of the rows ``rows`` (indices into the
    lists).  When it raises AdmissibilityError on several rows, each row is
    evaluated alone; an inadmissible trial counts as infinitely bad.  The
    one acceptance rule is the Armijo condition relaxed by the row's noise
    ``floor`` (merit differences cancel at roundoff once the true decrease
    is that small).  A row that meets it leaves the search and the others
    halve their common t.  Returns each row's accepted trial and its
    evaluation, so the caller never evaluates that state again.
    """
    accepted, rows, t = [None] * len(xs), tuple(range(len(xs))), 1.0
    for _ in range(40):
        trials = [xs[i] + t * deltas[i] for i in rows]
        try:
            evs = evaluate(trials, rows)
        except AdmissibilityError:
            evs = [_alone(evaluate, trial, i) if len(rows) > 1 else (math.inf,)
                   for trial, i in zip(trials, rows)]
        for i, trial, ev in zip(rows, trials, evs):
            if ev[0] <= bases[i] + 1e-4 * t * slopes[i] + floors[i]:
                accepted[i] = trial, ev
        rows = tuple(i for i in rows if accepted[i] is None)
        if not rows:
            return accepted
        t *= 0.5
    raise SolverError(f"line search failed in the {solver} solver")


def _alone(evaluate, trial, i: int) -> tuple:
    """The evaluation of row ``i``'s trial on its own; ``(inf,)`` if it is inadmissible."""
    try:
        return evaluate([trial], (i,))[0]
    except AdmissibilityError:
        return (math.inf,)


_NEWTON_MAX_ITER = 40  # Newton steps of both solvers
_CG_RTOL = 1e-12  # relative tolerance of their inner CG solves


def _lockstep_cg(H, Gs, symbols, gauges, it: int, solver: str) -> tuple[list, list]:
    """Each row's CG solve of ``(H + gauge) delta = -G`` from zero, in lockstep.

    ``Gs`` are the rows' gradients; ``H`` acts on the rows' vectors laid end
    to end along the first axis, once per lockstep iteration, on every row
    (a row whose solve has stopped ignores its part).  Everything else acts
    on each row's own slice: the preconditioner (dividing by the row's
    symbol), the dot products and norms, the gauge and the updates.  A row
    stops at ``|r| < _CG_RTOL |G|``; ``p.Hp <= 0`` or ``8 n`` steps raise
    SolverError naming Newton iteration ``it``.  Returns the steps (views
    shaped as the gradients) and the CG counts.
    """
    b = -np.concatenate(Gs)
    delta, r, p = np.zeros_like(b), b.copy(), np.zeros_like(b)
    rows, live, lo = [], [], 0
    for j, G in enumerate(Gs):
        c = slice(lo, lo + len(G))
        lo = c.stop
        d_j, r_j, p_j = (a[c].reshape(-1) for a in (delta, r, p))
        bnorm = np.linalg.norm(r_j)  # r = b so far
        stop = _CG_RTOL * bnorm
        rows.append((c, d_j, r_j, p_j, stop))
        if not bnorm < stop:
            live.append(j)
    k, rz = [0] * len(Gs), [None] * len(Gs)
    while live:
        for j in live:
            _, _, r_j, p_j, _ = rows[j]
            z = np.real(np.fft.ifft(np.fft.fft(r_j) / symbols[j]))
            rz_j = np.dot(r_j, z)
            if k[j] == 0:
                p_j[:] = z  # a contiguous copy: np.dot may sum the strided view z in another order
            else:
                p_j *= rz_j / rz[j]
                p_j += z
            rz[j] = rz_j
        Hp = H(p)
        for j in live:
            c, d_j, r_j, p_j, _ = rows[j]
            q = (Hp[c] + gauges[j](p[c])).reshape(-1)
            pq = np.dot(p_j, q)
            if not pq > 0.0:
                raise SolverError(f"{solver} Hessian is not positive definite "
                                  f"(p.Hp = {pq:.3e} at Newton iteration {it})")
            alpha = rz[j] / pq
            d_j += alpha * p_j
            r_j -= alpha * q
            k[j] += 1
            if k[j] == 8 * p_j.size:
                raise SolverError(f"inner CG failed (info={k[j]}) at Newton iteration {it}")
        live = [j for j in live if not np.linalg.norm(rows[j][2]) < rows[j][4]]
    return [delta[row[0]] for row in rows], k


def _newton_krylov(xs, evaluate, hessian, symbols, gauges, tol: float, solver: str) -> list:
    """Damped Newton-Krylov iteration of several rows in lockstep, each from
    its start in ``xs`` until its residual norm is <= ``tol``.

    The rows are independent problems of their own sizes whose states share
    their trailing shape.  The problem supplies four things.
    ``evaluate(xs, rows)`` returns one tuple per row of ``rows`` (indices in
    the order given), for its state in ``xs``: the merit, the residual norm
    and the merit's gradient ``G``.  ``hessian(xs, rows)`` returns the
    action of those rows' merit Hessians on their vectors laid end to end
    along the first axis, and is only called at states that ``evaluate``
    has accepted.  ``symbols[i]`` is the Fourier symbol of a
    constant-coefficient model of row ``i``'s Hessian, 1 at the gauge
    modes; ``gauges[i](v)`` is the component of ``v`` in row ``i``'s gauge
    modes, which its Hessian annihilates.

    Every Newton step evaluates and forms the Hessian once for the rows
    still iterating.  Each row solves ``(H + gauge) delta = -G`` by
    preconditioned CG (``_lockstep_cg``; its ``p.Hp <= 0`` stop is the
    truncated-Newton safeguard, so every step descends:
    ``<G, delta> = -delta.H delta < 0``), projects the gauge out of
    ``delta``, and backtracks along it with ``_line_search`` on its merit,
    with slope ``<G, delta>``.  The starts are projected too, so no iterate
    has a gauge component; an inadmissible start raises SolverError.  All
    but the evaluations and the Hessian act on each row's own slice, so each
    row has the bits of its solve alone; a row leaves the batch when it
    converges.  A batch fails as its first row, in the order given, that
    fails alone: on a SolverError the rows are solved alone in that order
    and the first error propagates in its row's words.  Returns per row the
    final state, its residual norm, the iteration count and the residual
    and CG-count histories.
    """
    def solve(rows):
        x = {i: xs[i] - gauges[i](xs[i]) for i in rows}
        try:
            ev = dict(zip(rows, evaluate([x[i] for i in rows], rows)))  # (merit, rnorm, G)
        except AdmissibilityError as exc:
            raise SolverError(f"{solver} start left the admissible region: {exc}") from exc
        res_hist, cg_iters, done = {i: [] for i in rows}, {i: [] for i in rows}, {}
        for it in range(1, _NEWTON_MAX_ITER + 1):
            for i in rows:
                res_hist[i].append(ev[i][1])
                if ev[i][1] <= tol:
                    done[i] = (x[i], ev[i][1], it,
                               {"residual_history": res_hist[i], "cg_iterations": cg_iters[i]})
            rows = tuple(i for i in rows if i not in done)
            if not rows:
                return [done[i] for i in sorted(done)]
            deltas, counts = _lockstep_cg(hessian([x[i] for i in rows], rows),
                                          [ev[i][2] for i in rows], [symbols[i] for i in rows],
                                          [gauges[i] for i in rows], it, solver)
            deltas = [d - gauges[i](d) for i, d in zip(rows, deltas)]
            for i, k in zip(rows, counts):
                cg_iters[i].append(k)
            accepted = _line_search(
                [x[i] for i in rows], deltas,
                lambda trials, sub: evaluate(trials, tuple(rows[j] for j in sub)),
                [ev[i][0] for i in rows],
                [float((ev[i][2] * d).sum()) for i, d in zip(rows, deltas)],
                [64.0 * x[i].size * np.finfo(float).eps * (1.0 + abs(ev[i][0])) for i in rows],
                solver)
            for i, (trial, trial_ev) in zip(rows, accepted):
                x[i], ev[i] = trial, trial_ev
        raise SolverError(
            f"{solver} Newton did not reach tol={tol:g} in {_NEWTON_MAX_ITER} iterations "
            f"(last residual {res_hist[rows[0]][-1]:.3e})"
        )

    try:
        return solve(tuple(range(len(xs))))
    except SolverError as exc:
        if len(xs) == 1:
            raise
        batch_error = exc
    for i in range(len(xs)):
        solve((i,))
    raise AssertionError("the batch fails but none of its rows does alone") from batch_error


# ---------------------------------------------------------------------------
# Cauchy-Born solver (1D spectral grid)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _ddx_symbol(n: int) -> np.ndarray:
    """The multiplier ``i k`` of d/dX on the rfft modes of ``n`` samples (read-only)."""
    ik = 1j * (2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n))
    ik.flags.writeable = False
    return ik


def _spectral_ddx(f: np.ndarray) -> np.ndarray:
    """Derivative along the last axis of the trigonometric interpolant of the samples
    ``f[..., j]`` at X = j / n, n = ``f.shape[-1]``."""
    n = f.shape[-1]
    return np.fft.irfft(_ddx_symbol(n) * np.fft.rfft(f), n=n)


def solve_cb_static(
    M: CBModel,
    F: MacroForce,
    n_grid: int = 256,
    tol: float = 1e-10,
) -> StaticSolution:
    """Cauchy-Born equilibrium on the unit torus (one dimension).

    Minimizes the grid mean of ``W(U') - F U`` over zero-mean ``U`` on a
    trigonometric collocation grid, ``U'`` the spectral derivative, with the
    shared Newton-Krylov iteration as a batch of one: the Hessian action
    ``-(C(U') v')' / n_grid`` is matrix-free and preconditioned by its
    reference symbol ``C0 k^2 / n_grid``.  The start is the linearized
    solution of ``C0 U'' = -F``.  The solution is returned as a
    trigonometric polynomial; the residual ``-d/dX S(U') - F`` is measured
    in the grid L2 norm.
    """
    if M.P.d != 1:
        raise NotImplementedError("the continuum solver is one-dimensional")
    Mg = n_grid
    Fv = F.field.sample(Mg)[:, 0]

    def evaluate(Us, rows):
        """Merit ``mean(W(U') - F U)``, residual norm and merit gradient of the one state."""
        (U,) = Us
        up = _spectral_ddx(U)
        R = -_spectral_ddx(M.stress(up[:, None, None])[:, 0, 0]) - Fv
        merit = float(np.mean(M.energy_density(up[:, None, None]) - Fv * U))
        return [(merit, float(np.sqrt(np.mean(R * R))), R / Mg)]

    def hessian(Us, rows):
        mod = M.moduli(_spectral_ddx(Us[0])[:, None, None])[:, 0, 0, 0, 0] / Mg
        return lambda v: -_spectral_ddx(mod * _spectral_ddx(v))

    # the spectral derivative annihilates the mean and, on even grids, the
    # Nyquist mode (-1)^j: both are gauge modes
    nyquist = (-1.0) ** np.arange(Mg) * (Mg % 2 == 0)

    def gauge(v):
        return np.mean(v) + nyquist * np.mean(nyquist * v)

    C0 = float(M.moduli(np.zeros((1, 1, 1)))[0, 0, 0, 0, 0])
    symbol = C0 * (2.0 * np.pi * np.fft.fftfreq(Mg, d=1.0 / Mg)) ** 2 / Mg
    symbol[0] = 1.0
    if Mg % 2 == 0:
        symbol[Mg // 2] = 1.0
    # linearized start -(C0 U')' = F: at U = 0 the merit's gradient is -F / Mg
    U = np.real(np.fft.ifft(np.fft.fft(Fv / Mg) / symbol))
    ((U, rnorm, it, diagnostics),) = _newton_krylov([U], evaluate, hessian, [symbol], [gauge],
                                                    tol, "continuum")
    diagnostics.update(grad_inf=float(np.max(np.abs(_spectral_ddx(U)))), n_grid=Mg)
    return StaticSolution(field=TrigField.from_grid_1d(U[:, None]), residual=rnorm,
                          iterations=it, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# atomistic solver
# ---------------------------------------------------------------------------

def solve_atomistic_static(
    P: Potential,
    f_a: DisplacementField,
    u0: DisplacementField | None = None,
    tol: float = 1e-10,
) -> StaticSolution:
    """Atomistic equilibrium under dead site loads (one dimension).

    Minimizes ``E(u) - <f, u>`` over zero-mean displacements with the
    shared Newton-Krylov iteration, as a batch of one
    (``_atomistic_statics``): the Hessian action is matrix-free and
    preconditioned by the reference dynamical symbol, and the translations
    are the gauge.  Convergence is declared on the sup norm of the
    assembled gradient.  The start is ``u0``, zero by default.
    """
    return _atomistic_statics(P, [(f_a, u0)], tol)[0]


def _mean(v: np.ndarray):
    """``np.mean(v)`` of a float array, bit for bit, without its Python-level
    argument handling: the same sum divided by the same count."""
    return np.add.reduce(v, axis=None) / v.size


def _atomistic_statics(P: Potential, rows, tol: float) -> list:
    """``solve_atomistic_static`` of several rows ``(f_a, u0)`` of one potential
    in one lockstep batch (see ``_newton_krylov``), each with its own bits.

    Every lockstep evaluation and Hessian acts on the rows' cells laid end to
    end (``stacked_plan``, built once per set of rows); each cell's energy
    is the sum of its own site energies.  The rows are checked in order
    before any solve.
    """
    loads, starts, symbols = [], [], []
    for f_a, u0 in rows:
        lattice = f_a.lattice
        if lattice.d != 1:
            raise NotImplementedError("the lattice solver is one-dimensional")
        fv = f_a.values
        if abs(float(np.sum(fv))) > 1e-8 * max(1.0, float(np.max(np.abs(fv)))):
            raise ValueError("site loads must sum to zero for a periodic equilibrium")
        k = 2.0 * np.pi * np.arange(lattice.N) / lattice.N
        symbol = dynamical_symbol(P, k[:, None])[:, 0, 0]
        symbol[0] = 1.0  # the gauge mode: translations
        loads.append(fv)
        starts.append(u0.values if u0 is not None else np.zeros_like(fv))
        symbols.append(np.maximum(symbol, 1e-8))
    layouts = {}

    def layout(live):
        """The stacked plan, cell bounds and stacked loads of the rows ``live``."""
        if live not in layouts:
            layouts[live] = (stacked_plan([loads[i].shape[:-1] for i in live], P.S),
                             list(itertools.accumulate((len(loads[i]) for i in live), initial=0)),
                             np.concatenate([loads[i] for i in live]))
        return layouts[live]

    def evaluate(us, live):
        """Per row: merit ``E(u) - <f, u>``, gradient sup norm and gradient."""
        plan, bounds, fv = layout(live)
        u = np.concatenate(us)
        energies, G = _energies_and_gradient(P, u, plan)
        G -= fv
        out = []
        for i, ui, lo, hi in zip(live, us, bounds, bounds[1:]):
            merit = float(energies[lo:hi].sum()) - float((loads[i] * ui).sum())
            out.append((merit, float(np.abs(G[lo:hi]).max()), G[lo:hi]))
        return out

    def hessian(us, live):
        return hessian_operator(P, np.concatenate(us), layout(live)[0])

    solved = _newton_krylov(starts, evaluate, hessian, symbols, [_mean] * len(rows), tol,
                            "lattice")
    return [StaticSolution(field=DisplacementField(f_a.lattice, u), residual=gnorm, iterations=it,
                           diagnostics=diagnostics)
            for (f_a, _), (u, gnorm, it, diagnostics) in zip(rows, solved)]


# ---------------------------------------------------------------------------
# error metric
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _gauss_offsets(q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The q^d Gauss points of the unit cell, (q^d, d), and their weights (read-only)."""
    x1, w1 = gauss_rule_01(q)
    offsets, weights = tensor_grid([x1] * d), np.prod(tensor_grid([w1] * d), axis=1)
    offsets.flags.writeable = weights.flags.writeable = False
    return offsets, weights


def _check_gap_inputs(name: str, U: TrigField, u_a: DisplacementField, eps: float) -> None:
    """Raise a ValueError naming ``name`` unless ``U`` and ``u_a`` describe one torus at ``eps``."""
    d, N, period = u_a.lattice.d, u_a.lattice.N, supercell_period(eps)
    if period != N:
        raise ValueError(f"{name}: eps = {eps!r} has period {period}, but the lattice has N = {N}")
    if U.d != d or U.n_components != d:
        raise ValueError(f"{name}: the field has d = {U.d} and {U.n_components} components, "
                         f"but the lattice needs d = {d} and {d}")


def _interp_gap(u_a: DisplacementField, eps: float, q: int, exact, interp) -> float:
    """Scaled L2 gap eps^{d/2} || u_c - I u_a ||_{L2(micro torus)} of a field or its gradient.

    ``I`` is the smoothed interpolant (``interp_sample_shifts``), which
    matches ``u_a`` at every site.  The integral is a q-point Gauss rule per
    lattice cell, which integrates the spline factors exactly: ``exact(S)``
    and ``interp(S)`` sample both sides at the points ``xi + S[o]`` of every
    cell ``xi`` for all q^d Gauss offsets ``S`` at once, as arrays of the
    same shape with one row per offset.  Each row is summed on its own and
    the weighted row sums add up in offset order.
    """
    d = u_a.lattice.d
    offsets, weights = _gauss_offsets(q, d)
    diff = exact(offsets) - interp(offsets)
    sums = np.sum((diff * diff).reshape(len(offsets), -1), axis=1)
    val = 0.0
    for w, s in zip(weights, sums):
        val += w * float(s)
    return eps ** (d / 2.0) * math.sqrt(val)


def interp_gradient_gap(U: TrigField, u_a: DisplacementField, eps: float, q: int = 6) -> float:
    """Scaled L2 gap eps^{d/2} || grad u_c - grad I u_a ||_{L2(micro torus)}.

    Equals the macroscopic norm || grad U - (grad I u_a)(. / eps) ||_{L2(unit torus)}.
    Raises ValueError unless ``eps`` is the lattice's spacing and ``U`` has
    the lattice's dimension and d components.
    """
    _check_gap_inputs("interp_gradient_gap", U, u_a, eps)
    N, axes = u_a.lattice.N, [tuple(a) for a in np.eye(U.d, dtype=int)]
    return _interp_gap(u_a, eps, q,
                       lambda S: np.stack([U.sample_shifts(N, S, deriv=a) for a in axes], -1),
                       lambda S: np.stack([interp_sample_shifts(u_a, S, deriv=a) for a in axes], -1))


def interp_value_gap(V: TrigField, v_a: DisplacementField, eps: float, q: int = 6) -> float:
    """Scaled L2 gap eps^{d/2} || v_c - I v_a ||_{L2(micro torus)}.

    ``v_c(x) = V(eps x)`` (order-one fields such as velocities).  Raises
    ValueError as ``interp_gradient_gap`` does.
    """
    _check_gap_inputs("interp_value_gap", V, v_a, eps)
    return _interp_gap(v_a, eps, q, lambda S: V.sample_shifts(v_a.lattice.N, S),
                       lambda S: interp_sample_shifts(v_a, S))


# ---------------------------------------------------------------------------
# convergence sweep
# ---------------------------------------------------------------------------

def _require_stable(P: Potential) -> None:
    """Raise SolverError unless ``P``'s reference lattice has gamma > 0, as the
    convergence theorems assume."""
    gamma, _ = stability_constants(P)
    if not gamma > 0.0:
        raise SolverError(f"reference lattice is unstable (gamma={gamma:.6g})")


def _map_members(jobs: list, workers: int) -> list:
    """``fn(*args)`` of each sweep job ``(fn, args)`` (``fn`` module-level, to pickle),
    in a process pool when ``workers > 1``, capped at the CPU count and the job
    count.  Results are read in job order, so the first failing job raises first."""
    n_proc = min(workers, os.cpu_count() or 1, len(jobs))
    if n_proc > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=n_proc) as pool:
            futures = [pool.submit(fn, *args) for fn, args in jobs]
            return [f.result() for f in futures]
    return [fn(*args) for fn, args in jobs]


def _static_run(P: Potential, F: MacroForce, eps_list, n_grid, tol, q) -> dict:
    """One load of the static sweep: its Cauchy-Born equilibrium, then every
    spacing's lattice equilibrium in one lockstep batch, then each one's gap
    to the continuum.

    Each lattice solve starts from the quasi-interpolant ``zeta * u_c`` of
    ``u_c(x) = U_c(eps x) / eps``.  The batch fails as its first spacing, in
    the order given, whose solve fails alone (``_newton_krylov``).
    """
    cb = solve_cb_static(CBModel(P), F, n_grid=n_grid, tol=min(tol, 1e-10))
    U_c = cb.field
    sols = _atomistic_statics(
        P, [(make_forces(F, eps), _hat_transfer(U_c, eps, 1.0 / eps)) for eps in eps_list], tol)
    return {"cb_residual": cb.residual,
            "members": [{"eps": float(eps),
                         "error": float(interp_gradient_gap(U_c, sol.field, eps, q=q)),
                         "residual": sol.residual,
                         "newton_iterations": sol.iterations}
                        for eps, sol in zip(eps_list, sols)]}


def static_converge_sweep(
    P: Potential,
    F: MacroForce,
    eps_list,
    n_grid: int = 256,
    tol: float = 1e-10,
    q: int = 6,
    workers: int = 1,
) -> dict:
    """Measure the static convergence rate over a spacing sweep.

    Solves the Cauchy-Born problem once per load, then builds every
    spacing's transferred site load, solves all the lattice equilibria from
    the quasi-interpolated continuum starts in one lockstep batch
    (``_static_run``), and evaluates each scaled gradient gap.  The whole
    sweep is run for ``F`` and for ``F`` scaled by one half, giving the
    linear-response control ``half_ratios`` (errors should scale by about
    0.5); each load is one pool job, the full load first, so a failure is
    the full load's before the half load's and, within a load, the
    continuum's before the first failing spacing's in ``eps_list`` order.
    An unstable reference lattice raises SolverError before any solve.
    """
    _require_stable(P)
    loads = {"full": F, "half": F.scaled(0.5)}
    runs = dict(zip(loads, _map_members(
        [(_static_run, (P, load, eps_list, n_grid, tol, q)) for load in loads.values()], workers)))

    errors = [m["error"] for m in runs["full"]["members"]]
    errors_half = [m["error"] for m in runs["half"]["members"]]
    return {
        "eps": [float(e) for e in eps_list],
        "errors": errors,
        "delta": F.delta,
        "details": runs,
        "errors_half": errors_half,
        "half_ratios": [h / f for h, f in zip(errors_half, errors)],
    }
