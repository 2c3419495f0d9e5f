"""Reference Newton-Krylov loop that solves one problem at a time.

This is ``latcb.static._newton_krylov`` as it was before the rows of a
batch were stepped in lockstep: one state, one evaluation per trial, one
Hessian, and a numpy CG on the whole vector.  ``rows_alone`` turns such a
one-problem loop into the batch contract of ``_newton_krylov``, solving
the rows one after another in the order given, so the tests can swap it in
for the lockstep loop and compare every row bit for bit.  ``line_search``
is the library's line search on one row, the one acceptance rule every
loop here shares.
"""

from __future__ import annotations

import numpy as np

from latcb.potentials import AdmissibilityError
from latcb.static import _CG_RTOL, _NEWTON_MAX_ITER, SolverError, _line_search


def line_search(x, delta, evaluate, base: float, slope: float, floor: float, solver: str):
    """``_line_search`` of the one row ``x``: the accepted trial and its evaluation."""
    ((trial, ev),) = _line_search([x], [delta], lambda trials, rows: [evaluate(trials[0])],
                                  [base], [slope], [floor], solver)
    return trial, ev


def single_newton_krylov(x, evaluate, hessian, symbol, gauge, tol: float, solver: str):
    """The damped Newton-Krylov iteration of one problem from ``x``.

    ``evaluate(x)`` returns the merit, the residual norm and the gradient;
    ``hessian(x)`` the Hessian's action on arrays of ``x``'s shape.
    """
    shape, n = x.shape, x.size
    x = x - gauge(x)
    try:
        merit, rnorm, G = evaluate(x)
    except AdmissibilityError as exc:
        raise SolverError(f"{solver} start left the admissible region: {exc}") from exc
    res_hist, cg_iters = [], []
    for it in range(1, _NEWTON_MAX_ITER + 1):
        res_hist.append(rnorm)
        if rnorm <= tol:
            return x, rnorm, it, {"residual_history": res_hist, "cg_iterations": cg_iters}
        H = hessian(x)
        b = -G.ravel()
        bnorm = np.linalg.norm(b)
        delta, r, k = np.zeros(n), b.copy(), 0
        while not np.linalg.norm(r) < _CG_RTOL * bnorm:
            z = np.real(np.fft.ifft(np.fft.fft(r) / symbol))
            rz = np.dot(r, z)
            # a contiguous copy: np.dot may sum the strided view z in another order
            p = z.copy() if k == 0 else p * (rz / rz_prev) + z
            v = p.reshape(shape)
            q = (H(v) + gauge(v)).ravel()
            pq = np.dot(p, q)
            if not pq > 0.0:
                raise SolverError(f"{solver} Hessian is not positive definite "
                                  f"(p.Hp = {pq:.3e} at Newton iteration {it})")
            alpha = rz / pq
            delta += alpha * p
            r -= alpha * q
            rz_prev, k = rz, k + 1
            if k == 8 * n:
                raise SolverError(f"inner CG failed (info={k}) at Newton iteration {it}")
        cg_iters.append(k)
        delta = delta.reshape(shape)
        delta = delta - gauge(delta)
        slope = float(np.sum(G * delta))
        floor = 64.0 * n * np.finfo(float).eps * (1.0 + abs(merit))
        x, (merit, rnorm, G) = line_search(x, delta, evaluate, merit, slope, floor, solver)
    raise SolverError(
        f"{solver} Newton did not reach tol={tol:g} in {_NEWTON_MAX_ITER} iterations "
        f"(last residual {res_hist[-1]:.3e})"
    )


def rows_alone(loop):
    """The batch contract of ``_newton_krylov`` from a one-problem ``loop``: each
    row solved alone, in the order given, so the first failing row raises."""
    def batch(xs, evaluate, hessian, symbols, gauges, tol, solver):
        return [loop(x, lambda y, i=i: evaluate([y], (i,))[0],
                     lambda y, i=i: hessian([y], (i,)), symbol, gauge, tol, solver)
                for i, (x, symbol, gauge) in enumerate(zip(xs, symbols, gauges))]
    return batch


serial_newton_krylov = rows_alone(single_newton_krylov)
