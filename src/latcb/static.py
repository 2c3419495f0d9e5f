"""Static equilibria: continuum and atomistic solvers plus the error sweep.

The experiment follows the two-scale setup: a smooth macroscopic dead load
``F`` on the unit torus is scaled to the lattice as ``f(x) = eps F(eps x)``
and transferred to sites by convolution with the hat basis, which preserves
the discrete/continuum duality pairing.  For a trigonometric field that
convolution is exact in closed form: mode ``m`` is multiplied by
``prod_a sinc(m_a eps)^2`` (``TrigField.hat_smoothed``) and the smoothed
field is evaluated at the sites.  The Cauchy-Born equilibrium is
solved once per load (it is scale-free); the atomistic equilibrium is
solved per lattice spacing with a Newton-Krylov iteration preconditioned by
the reference dynamical symbol.  The reported error is the scaled L2 norm
of the gradient gap between the continuum solution and the smoothed
interpolant of the atomistic one, the quantity that converges at second
order in the spacing for stable potentials and small loads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .fields import ScaledDisplacement, TrigField
from .interpolation import quasi_grad, quasi_interp, smooth_nodal_interp
from .lattice import DisplacementField, LatticeSpec, gauss_rule_01, tensor_grid
from .potentials import (
    AdmissibilityError,
    Potential,
    gradient_array,
    hessian_operator,
    total_energy,
)
from .stability import dynamical_symbol
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
    at ``eps xi``, exact up to roundoff.
    """
    N = int(round(1.0 / eps))
    if abs(N * eps - 1.0) > 1e-9:
        raise ValueError("1/eps must be an integer number of lattice cells")
    lattice = LatticeSpec(d=U.d, A=np.eye(U.d), N=N)
    vals = c * U.hat_smoothed(eps).value(lattice.site_coords() * eps)
    return DisplacementField(lattice, vals.reshape((N,) * U.d + (U.n_components,)))


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

    kind: str
    field: object
    residual: float
    iterations: int
    diagnostics: dict = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# damped-Newton acceptance (shared by both solvers)
# ---------------------------------------------------------------------------

def _line_search(x, delta, evaluate, base: float, slope: float, rnorm: float,
                 floor: float, solver: str):
    """Backtrack ``x + t delta`` from t = 1 by halving, up to 40 times.

    ``evaluate(trial)`` returns a tuple that starts with the merit and the
    residual norm of a trial; an inadmissible trial counts as infinitely
    bad.  A step is accepted on the Armijo condition relaxed by the noise
    ``floor`` (merit differences cancel at roundoff once the true decrease
    is that small) or on a plain residual decrease, which accepts steps in
    the quadratic phase.  Returns the accepted trial and its evaluation, so
    the caller never evaluates that state again.
    """
    t = 1.0
    for _ in range(40):
        trial = x + t * delta
        try:
            ev = evaluate(trial)
        except AdmissibilityError:
            ev = (math.inf, math.inf)
        if ev[0] <= base + 1e-4 * t * slope + floor or ev[1] <= (1.0 - 1e-4 * t) * rnorm:
            return trial, ev
        t *= 0.5
    raise SolverError(f"line search failed in the {solver} solver")


# ---------------------------------------------------------------------------
# Cauchy-Born solver (1D, spectral grid + dense Newton)
# ---------------------------------------------------------------------------

def _spectral_derivative_matrix(M: int) -> np.ndarray:
    """Dense differentiation matrix of the trigonometric interpolant on M points."""
    k = 2.0 * np.pi * np.fft.rfftfreq(M, d=1.0 / M)
    eye = np.eye(M)
    spec = np.fft.rfft(eye, axis=0)
    return np.fft.irfft(1j * k[:, None] * spec, n=M, axis=0)


_CB_MAX_ITER = 60  # Newton steps of the continuum solver


def solve_cb_static(
    M: CBModel,
    F: MacroForce,
    n_grid: int = 256,
    tol: float = 1e-10,
) -> StaticSolution:
    """Cauchy-Born equilibrium on the unit torus (one dimension).

    Minimizes ``int W(U') - F U`` over zero-mean ``U`` on a trigonometric
    collocation grid: damped Newton with an exact dense Jacobian, rank-one
    gauge for the constant mode, and an Armijo line search on the energy.
    The solution is returned as a trigonometric polynomial; the residual
    ``-d/dX S(U') - F`` is measured in the grid L2 norm.
    """
    if M.P.d != 1:
        raise NotImplementedError("the continuum solver is one-dimensional")
    Mg = n_grid
    X = np.arange(Mg) / Mg
    Fv = F.field.value(X[:, None])[:, 0]
    D = _spectral_derivative_matrix(Mg)
    kappa = M.P.kappa

    def modulus_of(up):
        return M.moduli(up[:, None, None])[:, 0, 0, 0, 0]

    def evaluate(U):
        """Merit ``mean(W(U') - F U)``, residual norm and residual of a state."""
        up = D @ U
        R = -(D @ M.stress(up[:, None, None])[:, 0, 0]) - Fv
        merit = float(np.mean(M.energy_density(up[:, None, None]) - Fv * U))
        return merit, float(np.sqrt(np.mean(R * R))), R

    # linearized start: C0 U'' = -F in Fourier space
    C0 = float(M.moduli(np.zeros((1, 1, 1)))[0, 0, 0, 0, 0])
    k = 2.0 * np.pi * np.fft.rfftfreq(Mg, d=1.0 / Mg)
    Fh = np.fft.rfft(Fv)
    Uh = np.zeros_like(Fh)
    Uh[1:] = Fh[1:] / (C0 * k[1:] ** 2)
    U = np.fft.irfft(Uh, n=Mg)

    res_hist = []
    # the spectral derivative annihilates the mean and (for even grids) the
    # Nyquist mode, so both are gauged out of the Newton system and stripped
    # from the start and the steps; otherwise the linear solves leave junk
    # in those modes
    gauge = np.full((Mg, Mg), 1.0 / Mg)
    if Mg % 2 == 0:
        alt = (-1.0) ** np.arange(Mg)
        gauge = gauge + np.outer(alt, alt) / Mg

    def strip_null(v):
        vh = np.fft.rfft(v)
        vh[0] = 0.0
        if Mg % 2 == 0:
            vh[-1] = 0.0
        return np.fft.irfft(vh, n=Mg)

    U = strip_null(U)
    merit_U, rnorm, R = evaluate(U)
    for it in range(1, _CB_MAX_ITER + 1):
        res_hist.append(rnorm)
        if rnorm <= tol:
            break
        up = D @ U
        if float(np.max(np.abs(up))) >= kappa:
            raise SolverError(f"continuum gradient left the admissible region (iter {it})")
        J = -D @ (modulus_of(up)[:, None] * D) + gauge
        try:
            delta = np.linalg.solve(J, -R)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise SolverError(f"Newton system singular at iteration {it}: {exc}")
        delta = strip_null(delta)
        slope = float(np.mean(R * delta))  # directional derivative of the merit
        floor = 64.0 * np.finfo(float).eps * (1.0 + abs(merit_U))
        U, (merit_U, rnorm, R) = _line_search(
            U, delta, evaluate, merit_U, slope, rnorm, floor, "continuum"
        )
    else:
        raise SolverError(
            f"continuum Newton did not reach tol={tol:g} in {_CB_MAX_ITER} iterations "
            f"(last residual {res_hist[-1]:.3e})"
        )

    up = D @ U
    field = TrigField.from_grid_1d(U[:, None])
    return StaticSolution(
        kind="cb",
        field=field,
        residual=rnorm,
        iterations=it,
        diagnostics={
            "residual_history": res_hist,
            "grad_inf": float(np.max(np.abs(up))),
            "n_grid": Mg,
        },
    )


# ---------------------------------------------------------------------------
# atomistic solver (Newton-Krylov with symbol preconditioner)
# ---------------------------------------------------------------------------

def _symbol_preconditioner(P: Potential, N: int):
    """FFT inverse of the reference dynamical symbol (gauge mode -> identity)."""
    if P.d != 1:
        raise NotImplementedError
    k = 2.0 * np.pi * np.arange(N) / N
    sym = np.real(dynamical_symbol(P, k[:, None])[:, 0, 0])
    sym[0] = 1.0
    sym = np.maximum(sym, 1e-8)

    def apply(v_flat: np.ndarray) -> np.ndarray:
        vh = np.fft.fft(v_flat)
        return np.real(np.fft.ifft(vh / sym))

    return apply


_LATTICE_MAX_ITER = 40  # Newton steps of the lattice solver
_CG_RTOL = 1e-12  # relative tolerance of its inner CG solves


def solve_atomistic_static(
    P: Potential,
    f_a: DisplacementField,
    u0: DisplacementField | None = None,
    tol: float = 1e-10,
) -> StaticSolution:
    """Atomistic equilibrium under dead site loads (one dimension).

    Newton-Krylov on zero-mean displacements: the Hessian action is
    matrix-free, inner systems are solved by conjugate gradients with an
    FFT preconditioner built from the reference symbol, and steps are
    damped by an Armijo search on ``E(u) - <f, u>``.  Convergence is
    declared on the sup norm of the assembled gradient.
    """
    lattice = f_a.lattice
    if lattice.d != 1:
        raise NotImplementedError("the lattice solver is one-dimensional")
    N = lattice.N
    fv = f_a.values
    if abs(float(np.sum(fv))) > 1e-8 * max(1.0, float(np.max(np.abs(fv)))):
        raise ValueError("site loads must sum to zero for a periodic equilibrium")
    u = (u0.values.copy() if u0 is not None else np.zeros_like(fv))
    u -= np.mean(u)
    precond = _symbol_preconditioner(P, N)

    def evaluate(vals):
        """Merit ``E(u) - <f, u>``, gradient sup norm and gradient of a state."""
        merit = total_energy(P, DisplacementField(lattice, vals)) - float(np.sum(fv * vals))
        G = gradient_array(P, vals) - fv
        return merit, float(np.max(np.abs(G))), G

    merit_u, gnorm, G = evaluate(u)
    res_hist = []
    cg_iters = []
    for it in range(1, _LATTICE_MAX_ITER + 1):
        res_hist.append(gnorm)
        if gnorm <= tol:
            break
        H = hessian_operator(P, u)

        def matvec(v_flat):
            v = v_flat.reshape(fv.shape)
            return (H(v) + np.mean(v_flat)).ravel()

        count = {"n": 0}

        def tick(_):
            count["n"] += 1

        A = LinearOperator((N, N), matvec=matvec)
        Mpre = LinearOperator((N, N), matvec=precond)
        delta_flat, info = cg(
            A, -G.ravel(), rtol=_CG_RTOL, atol=0.0, maxiter=8 * N, M=Mpre, callback=tick
        )
        cg_iters.append(count["n"])
        if info != 0:
            raise SolverError(f"inner CG failed (info={info}) at Newton iteration {it}")
        delta = delta_flat.reshape(fv.shape)
        delta -= np.mean(delta)  # keeps the iterate zero-mean
        slope = float(np.sum(G * delta))
        floor = 64.0 * N * np.finfo(float).eps * (1.0 + abs(merit_u))
        u, (merit_u, gnorm, G) = _line_search(
            u, delta, evaluate, merit_u, slope, gnorm, floor, "lattice"
        )
    else:
        raise SolverError(
            f"lattice Newton did not reach tol={tol:g} in {_LATTICE_MAX_ITER} iterations "
            f"(last gradient norm {res_hist[-1]:.3e})"
        )

    return StaticSolution(
        kind="atomistic",
        field=DisplacementField(lattice, u),
        residual=gnorm,
        iterations=it,
        diagnostics={"residual_history": res_hist, "cg_iterations": cg_iters},
    )


# ---------------------------------------------------------------------------
# error metric
# ---------------------------------------------------------------------------

def _interp_gap(u_a: DisplacementField, eps: float, q: int, exact, interp) -> float:
    """Scaled L2 gap eps^{d/2} || exact - interp(I u_a) ||_{L2(micro torus)}.

    ``I`` is the smoothed interpolant: the C^2 quasi-interpolant of the
    deconvolved lattice values, which matches ``u_a`` at every site.
    ``exact(x)`` and ``interp(w, x)`` evaluate at the points of a q-point
    Gauss rule per lattice cell, which integrates the spline factors
    exactly.
    """
    N, d = u_a.lattice.N, u_a.lattice.d
    x1, w1 = gauss_rule_01(q)
    cells = tensor_grid([np.arange(N, dtype=float)] * d)
    pts = (cells[:, None, :] + tensor_grid([x1] * d)).reshape(-1, d)
    wts = np.tile(np.prod(tensor_grid([w1] * d), axis=1), cells.shape[0])
    diff = (exact(pts) - interp(smooth_nodal_interp(u_a), pts)).reshape(pts.shape[0], -1)
    val = float(np.sum(wts * np.sum(diff * diff, axis=-1)))
    return eps ** (d / 2.0) * math.sqrt(val)


def interp_gradient_gap(U: TrigField, u_a: DisplacementField, eps: float, q: int = 6) -> float:
    """Scaled L2 gap eps^{d/2} || grad u_c - grad I u_a ||_{L2(micro torus)}.

    Equals the macroscopic norm || grad U - (grad I u_a)(. / eps) ||_{L2(unit torus)}.
    """
    return _interp_gap(u_a, eps, q, ScaledDisplacement(U, eps).grad, quasi_grad)


def interp_value_gap(V: TrigField, v_a: DisplacementField, eps: float, q: int = 6) -> float:
    """Scaled L2 gap eps^{d/2} || v_c - I v_a ||_{L2(micro torus)}.

    ``v_c(x) = V(eps x)`` (order-one fields such as velocities).
    """
    return _interp_gap(v_a, eps, q, lambda x: V.value(x * eps), quasi_interp)


# ---------------------------------------------------------------------------
# convergence sweep
# ---------------------------------------------------------------------------

def _map_members(fn, payloads: list, workers: int) -> list:
    """Sweep members in order, in a process pool when ``workers > 1``.

    The pool is capped at the CPU count and the number of members.
    """
    n_proc = min(workers, os.cpu_count() or 1, len(payloads))
    if n_proc > 1:
        with ProcessPoolExecutor(max_workers=n_proc) as pool:
            return list(pool.map(fn, payloads))
    return [fn(p) for p in payloads]


def _static_member(payload) -> dict:
    """One sweep member (module-level so process pools can pickle it)."""
    P, U_c, F, eps, tol, q = payload
    f_a = make_forces(F, eps)
    # initial guess: the quasi-interpolant zeta * u_c of u_c(x) = U_c(eps x) / eps
    u0 = _hat_transfer(U_c, eps, 1.0 / eps)
    sol = solve_atomistic_static(P, f_a, u0=u0, tol=tol)
    err = interp_gradient_gap(U_c, sol.field, eps, q=q)
    return {
        "eps": float(eps),
        "error": float(err),
        "residual": sol.residual,
        "newton_iterations": sol.iterations,
    }


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

    Solves the Cauchy-Born problem once per load, then for every spacing
    builds the transferred site load, solves the lattice equilibrium from
    the quasi-interpolated continuum start, and evaluates the scaled
    gradient gap.  The whole sweep is run for ``F`` and for ``F`` scaled by
    one half, giving the linear-response control ``half_ratios`` (errors
    should scale by about 0.5).
    """
    M = CBModel(P)
    runs = {}
    for tag, load in (("full", F), ("half", F.scaled(0.5))):
        cb = solve_cb_static(M, load, n_grid=n_grid, tol=min(tol, 1e-10))
        payloads = [(P, cb.field, load, eps, tol, q) for eps in eps_list]
        members = _map_members(_static_member, payloads, workers)
        runs[tag] = {"cb_residual": cb.residual, "members": members}

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
