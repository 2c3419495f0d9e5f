"""Reference Newton-Krylov loop whose inner solve is scipy's ``cg``.

This is ``latcb.static._newton_krylov`` as it was before the inner
conjugate gradients were written in numpy: the Hessian action and the
Fourier preconditioner wrapped as ``LinearOperator`` objects and handed to
``scipy.sparse.linalg.cg`` with the same tolerance and iteration cap.  The
tests swap it in for the numpy loop, one row at a time (``rows_alone``),
and compare the solves bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from latcb.potentials import AdmissibilityError
from latcb.static import _CG_RTOL, _NEWTON_MAX_ITER, SolverError

from single_newton import line_search, rows_alone


def scipy_single_newton_krylov(x, evaluate, hessian, symbol, gauge, tol: float, solver: str):
    """The Newton-Krylov iteration of one problem with scipy's ``cg`` as the inner solver."""
    shape, n = x.shape, x.size
    x = x - gauge(x)
    merit, rnorm, G = evaluate(x)
    precond = LinearOperator((n, n), matvec=lambda v: np.real(np.fft.ifft(np.fft.fft(v) / symbol)))
    res_hist, cg_iters = [], []
    for it in range(1, _NEWTON_MAX_ITER + 1):
        res_hist.append(rnorm)
        if rnorm <= tol:
            return x, rnorm, it, {"residual_history": res_hist, "cg_iterations": cg_iters}
        try:
            H = hessian(x)
        except AdmissibilityError as exc:
            raise SolverError(f"{solver} gradient left the admissible region (iter {it})") from exc

        def matvec(v):
            v = v.reshape(shape)
            return (H(v) + gauge(v)).ravel()

        ticks = []  # one entry per CG iteration
        delta, info = cg(LinearOperator((n, n), matvec=matvec), -G.ravel(), rtol=_CG_RTOL,
                         atol=0.0, maxiter=8 * n, M=precond, callback=ticks.append)
        cg_iters.append(len(ticks))
        if info != 0:
            raise SolverError(f"inner CG failed (info={info}) at Newton iteration {it}")
        delta = delta.reshape(shape)
        delta = delta - gauge(delta)
        slope = float(np.sum(G * delta))
        floor = 64.0 * n * np.finfo(float).eps * (1.0 + abs(merit))
        x, (merit, rnorm, G) = line_search(x, delta, evaluate, merit, slope, floor, solver)
    raise SolverError(
        f"{solver} Newton did not reach tol={tol:g} in {_NEWTON_MAX_ITER} iterations "
        f"(last residual {res_hist[-1]:.3e})"
    )


scipy_newton_krylov = rows_alone(scipy_single_newton_krylov)
