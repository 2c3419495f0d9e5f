"""Reference Cauchy-Born static solver with a dense spectral Jacobian.

This is the original ``solve_cb_static``: damped Newton on a trigonometric
collocation grid, each step a dense ``n_grid x n_grid`` solve of the exact
spectral Jacobian plus a rank-two gauge for the mean and Nyquist modes.
The library now solves the same problem matrix-free with the shared
Newton-Krylov loop; the tests compare the two.
"""

from __future__ import annotations

import numpy as np

from latcb.fields import TrigField
from latcb.static import MacroForce, SolverError, StaticSolution
from latcb.stress import CBModel

from single_newton import line_search


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
    Fv = F.field.eval(X[:, None])[:, 0]
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
        U, (merit_U, rnorm, R) = line_search(U, delta, evaluate, merit_U, slope, floor,
                                             "continuum")
    else:
        raise SolverError(
            f"continuum Newton did not reach tol={tol:g} in {_CB_MAX_ITER} iterations "
            f"(last residual {res_hist[-1]:.3e})"
        )

    up = D @ U
    field = TrigField.from_grid_1d(U[:, None])
    return StaticSolution(
        field=field,
        residual=rnorm,
        iterations=it,
        diagnostics={
            "residual_history": res_hist,
            "grad_inf": float(np.max(np.abs(up))),
            "n_grid": Mg,
        },
    )
