"""Restarted GMRES on a preallocated basis.

Solves A x = b for a matrix-free operator; the residual the Hessenberg
problem minimizes is b - A x, and the stopping test bounds it directly:
||b - A x|| <= max(rtol ||b||, atol), the test inexact Newton uses. A caller
that preconditions on the right passes the product A M as the operator and
maps the solution back itself, x = M y: the residual is then still the one
of the original system, and the caller can fuse the two maps into one.

The test reads the Givens estimate |g_m| of that residual, which the
rotations give at no cost, and the solve returns as soon as it is met. The
explicit b - A x costs one more product and is formed only when a cycle
ends without meeting the test: to restart from it, or to decide the
reported info after the last cycle.

Each new direction is orthogonalized against the whole basis block at once
by classical Gram-Schmidt applied twice (two matrix-vector products per
pass; Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005), which keeps
the basis orthogonal to working precision like modified Gram-Schmidt does.
The Arnoldi relation then holds to roundoff, so the estimate equals the
true residual up to roundoff.
The small least-squares problem is reduced by Givens rotations on Python
floats as the columns arrive.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

Operator = Callable[[np.ndarray], np.ndarray]

_EPS = np.finfo(float).eps


def gmres(A: Operator, b: np.ndarray, rtol: float = 1e-5, atol: float = 0.0,
          restart: int = 20, maxiter: int = 1,
          callback: Callable[[float], None] | None = None,
          callback_type: str | None = None) -> tuple[np.ndarray, int]:
    """Solve A x = b from x = 0 with at most maxiter cycles of restart steps.

    A is a callable on flat vectors. callback, when given, is called once
    per inner iteration with the relative residual estimate
    ||b - A x_k|| / ||b||.
    callback_type exists for call compatibility with scipy's gmres; only
    "pr_norm" (or None) is accepted, and it means the estimate above.

    Returns (x, info): info = 0 when a cycle's residual estimate, or the
    true residual ||b - A x|| formed at the end of an unconverged cycle,
    meets the tolerance; otherwise the number of inner iterations performed.
    """
    if callback_type not in (None, "pr_norm"):
        raise ValueError(f"unsupported callback_type {callback_type!r}")
    size = b.shape[0]
    b_norm = math.sqrt(b @ b)
    x = np.zeros(size)
    if b_norm == 0.0:
        return x, 0
    tol = max(rtol * b_norm, atol)
    restart = min(restart, size)
    # rows are only touched as the basis grows, so memory follows the iterations
    basis = np.empty((restart + 1, size))
    residual, res_norm = b, b_norm
    iters = 0

    for _cycle in range(maxiter):
        basis[0] = residual / res_norm
        g = [res_norm]  # rotated right-hand side of the least-squares problem
        r_cols: list[list[float]] = []  # columns of the triangular factor
        rotations: list[tuple[float, float]] = []
        converged = False
        for k in range(restart):
            w = A(basis[k])
            w_norm = math.sqrt(w @ w)
            v = basis[:k + 1]
            h = v @ w
            w -= h @ v
            h2 = v @ w
            w -= h2 @ v
            h += h2
            h_next = math.sqrt(w @ w)
            # happy breakdown: A v_k lies in the span, the solve is exact
            breakdown = h_next <= _EPS * w_norm
            if not breakdown:
                basis[k + 1] = w / h_next

            col = h.tolist()
            for j, (c, s) in enumerate(rotations):
                col[j], col[j + 1] = c * col[j] + s * col[j + 1], -s * col[j] + c * col[j + 1]
            diag = math.hypot(col[k], h_next)
            if diag == 0.0:
                break  # singular Hessenberg: keep the columns solved so far
            c, s = col[k] / diag, h_next / diag
            rotations.append((c, s))
            col[k] = diag
            r_cols.append(col)
            g.append(-s * g[k])
            g[k] *= c
            iters += 1
            if callback is not None:
                callback(abs(g[k + 1]) / b_norm)
            converged = abs(g[k + 1]) <= tol
            if converged or breakdown:
                break

        m = len(r_cols)
        if m == 0:
            break  # the first direction was singular: no progress possible
        r = np.zeros((m, m))
        for j, col in enumerate(r_cols):
            r[:j + 1, j] = col
        y = solve_triangular(r, np.array(g[:m]), check_finite=False)
        x += y @ basis[:m]
        if converged:
            return x, 0
        residual = b - A(x)
        res_norm = math.sqrt(residual @ residual)
        if res_norm <= tol:
            return x, 0
    return x, max(iters, 1)
