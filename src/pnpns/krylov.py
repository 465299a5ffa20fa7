"""Restarted flexible GMRES on a preallocated basis.

Solves J x = b for a matrix-free operator J with a right preconditioner P
that may change from one product to the next (flexible GMRES; Saad, SIAM J.
Sci. Comput. 14, 1993). The operator GMRES takes maps a basis vector v_k
to the pair (J P v_k, P v_k); the solve keeps each z_k = P v_k and returns
x = sum_k y_k z_k, the solution itself, with no P applied afterwards. The
flexible Arnoldi relation J Z_m = V_{m+1} H_m, with H_m the (m+1) x m
Hessenberg matrix, holds whatever P did, so the residual the Hessenberg
problem minimizes is b - J x of the x returned, and the stopping test
bounds it directly: ||b - J x|| <= rtol ||b||, the relative test inexact
Newton uses. That is what lets an inexact P, such as one applied in single
precision, serve a double-precision solve (Arioli & Duff, ETNA 33, 2009);
the update P(V y) of a fixed-preconditioner GMRES is not the x whose
residual the test bounded once P varies.

The test reads the Givens estimate |g_m| of that residual, which the
rotations give at no cost, and the solve returns as soon as it is met. A
cycle that ends without meeting it restarts from the residual of its x,
V_{m+1} (beta e_1 - H_m y), which the basis and the rotations give without
another product: every product is one inner iteration. Each z_k is kept by
reference, the array the operator allocated, so the operator must not
write to it again.

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
from scipy.linalg.blas import daxpy

#: v -> (J P v, P v): the first array is GMRES's to overwrite, the second it keeps
Operator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

_EPS = np.finfo(float).eps


def gmres(A: Operator, b: np.ndarray, rtol: float = 1e-5,
          restart: int = 20, maxiter: int = 1,
          callback: Callable[[float], None] | None = None,
          callback_type: str | None = None) -> tuple[np.ndarray, int]:
    """Solve J x = b from x = 0 with at most maxiter cycles of restart steps.

    A maps a flat vector v to the pair (J P v, P v) of fresh flat arrays
    (module docstring); P may differ from call to call. callback, when
    given, is called once per inner iteration with the relative residual
    estimate ||b - J x_k|| / ||b||.
    callback_type is accepted because perfbench's tracer (perfbench/tracing.py)
    passes callback_type="pr_norm" when it wraps pnp.gmres; only "pr_norm"
    (or None) is accepted, and it means the estimate above.

    Returns (x, info): info = 0 when a cycle's residual estimate meets the
    tolerance; otherwise the number of inner iterations performed.
    """
    if callback_type not in (None, "pr_norm"):
        raise ValueError(f"unsupported callback_type {callback_type!r}")
    size = b.shape[0]
    b_norm = math.sqrt(b @ b)
    x = np.zeros(size)
    if b_norm == 0.0:
        return x, 0
    tol = rtol * b_norm
    restart = min(restart, size)
    # rows are only touched as the basis grows, so memory follows the iterations
    basis = np.empty((restart + 1, size))
    residual, res_norm = b, b_norm
    iters = 0

    for cycle in range(maxiter):
        basis[0] = residual / res_norm
        g = [res_norm]  # rotated right-hand side of the least-squares problem
        r_cols: list[list[float]] = []  # columns of the triangular factor
        rotations: list[tuple[float, float]] = []
        directions = []  # z_k = P v_k, as the operator returned them
        converged = False
        for k in range(restart):
            w, z = A(basis[k])
            directions.append(z)
            w_norm = math.sqrt(w @ w)
            v = basis[:k + 1]
            h = v @ w
            w -= h @ v
            h2 = v @ w
            w -= h2 @ v
            h += h2
            h_next = math.sqrt(w @ w)
            if h_next > 0.0:
                basis[k + 1] = w / h_next
            # happy breakdown: J z_k lies in the span, the solve is exact
            breakdown = h_next <= _EPS * w_norm

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
        for y_k, z_k in zip(y.tolist(), directions):
            x = daxpy(z_k, x, a=y_k)  # x += y_k z_k, in place
        if converged:
            return x, 0
        if cycle + 1 == maxiter:
            break
        # b - J x = V_{m+1} Q^T (0, ..., 0, g_m): the rotations undone on the last entry
        e = [0.0] * m + [g[m]]
        for j in reversed(range(m)):
            c, s = rotations[j]
            e[j], e[j + 1] = c * e[j] - s * e[j + 1], s * e[j] + c * e[j + 1]
        residual = np.array(e) @ basis[:m + 1]
        res_norm = math.sqrt(residual @ residual)
    return x, max(iters, 1)
