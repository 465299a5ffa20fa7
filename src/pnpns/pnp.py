"""Ion-transport step: coupled positivity-preserving solve for (p, n, psi).

One time step advances the two ion concentrations c = (p, n), of valences
z = (+1, -1), implicitly through their chemical potentials
mu_i = ln c_i + z_i psi, with the convection of the previous velocity
treated explicitly and an O(dt)-augmented mobility that makes the explicit
treatment unconditionally stable:

    (c_i - c_i_old)/dt + div(c_i_old u_old) = D div(M_i grad(ln c_i + z_i psi))
    -eps lap psi = sum_i z_i c_i = p - n,   M_i = c_i_old (1 + 2 (kappa/D) dt c_i_old)

The solve is Newton-Krylov on the collocation residual in c with psi
eliminated, an Armijo backtracking line search on the residual norm, and a
fraction-to-boundary rule that keeps every iterate strictly positive. The
residual and the Jacobian share one flux kernel, D div(M_i grad(f_i + z_i psi))
(f = ln c, and f = dc/c for the Jacobian), psi from the spectrum of the
charge. On the spectral path psi stays spectral and the derivatives are
transforms: 13 per residual. There the residual, the Jacobian and P write
every intermediate into work arrays the Step1System holds, through ufunc
out= and the transforms' out= and scratch=, with the operations and their
order unchanged, so a Krylov product allocates only the two stacks it
returns and a residual the one (spectral.py says why). On the line path the
derivatives are products with the dense 1-D differentiation matrix
(Grid.diff_matrix), which the line solves hold anyway, so a residual or a
Krylov product takes 2 transforms, the charge's and psi's. The matrix
products cost less than the transforms they replace at N = 64 and more from
N = 128 on (ms per flux and charge, matrix / transforms, one BLAS thread:
0.26 / 0.60 at N = 64, 1.88 / 1.51 at N = 128). psi and mu are formed in
physical space once per step, at the solution. GMRES works on the Jacobian
right-preconditioned by a per-species operator P: each Krylov product
returns the pair (J P v, P v)
(Step1System.preconditioned_action), and flexible GMRES (krylov.gmres)
returns the Newton update itself, sum_k y_k P v_k, so P is applied once per
product and never after the solve. P only shapes the Krylov space; the
stopping test bounds ||J dc + r|| of the update returned whatever P did.
That is why the line path can apply P in float32: a P that differs from
its float64 form by ~1e-7 relative costs no products: the first three
two-blob steps at N = 64 take 3 Newton iterations and 10 / 9 / 9 products
either way. The update P y of a fixed-preconditioner GMRES would carry P's
rounding into the step: 4 Newton iterations and 12 / 13 / 13 products
there. P is chosen once per step from the previous state:

  * spectral path: (1/dt - D cbar lap)^{-1} with cbar the mean of M/c_old,
    diagonal in Fourier space; its spectra feed the Jacobian directly.
  * line path, when max c_old / min c_old of a species exceeds
    LINE_CONTRAST (a near-vacuum state): in the log variable w = dc/c_old
    the linearized operator is A = diag(c_old/dt) - D div(M grad .), whose
    spectral derivatives couple the cells of each grid line densely. P v =
    c_old w, with w from exact solves on the columns, then on the rows
    (LinePreconditioner), frozen at a reference for up to
    LINE_REBUILD_PERIOD steps. The constant-coefficient symbol cannot see a
    contrast of 1e6 in M and needs hundreds of GMRES iterations per Newton
    there; the line solves need a few.

The line solves' factors cost about half of a step to build, so they are
lagged across time steps, as a Jacobian-free Newton-Krylov solver lags its
preconditioner (Knoll & Keyes, J. Comput. Phys. 193, 2004, sec. 3): a step
that rebuilds them takes c_old as the reference, and the next steps reuse
that reference while P still scales by their own c_old. The state carries
the reference and its age (SimState.line_ref, line_age), so a snapshot
carries them too; the factors themselves live in one process-wide slot
(_line_factors). They are a deterministic function of the reference, dt and
the parameters, so a step from a reloaded state, whose factors are rebuilt,
is bitwise the step from the state in memory.

The inexact Newton iteration asks GMRES for a relative linear residual
eta_k. The first solve of a step takes eta_0 = NEWTON_GMRES_TOL. On the
spectral path each later one takes the Eisenstat-Walker forcing term
(choice 2, SIAM J. Sci. Comput. 17, 1996) with Kelley's guard against
oversolving (Iterative Methods for Linear and Nonlinear Equations, 1995,
sec. 6.3), clipped to [TOL^2, TOL]:

    eta_k = min(TOL, max(0.9 (r_k / r_{k-1})^2, 0.5 threshold / r_k, TOL^2))

so a step whose Newton model is accurate aims its last linear solve at the
Newton threshold and ends one iteration earlier. The line path keeps
eta = TOL throughout: on near-vacuum states the quadratic model is wrong,
and a tighter linear solve there costs GMRES iterations without buying the
predicted Newton reduction (first two-blob step at N = 64: 3 -> 7 GMRES at
the second Newton iteration, whose eta asked for a residual of 1.7e-10 and
got 1.1e-7; 14 Krylov products for the step instead of 10).

The step is the minimizer of a strictly convex functional over the mass
shell, which is what makes it uniquely solvable. The solver does not
evaluate that functional: the line search works on the residual norm, and
the test suite evaluates the functional as an optimality certificate.

The unknown is one C-contiguous (2, N, N) array with the species on axis 0,
so its ravel is the Krylov vector itself. Reductions and transforms run per
species slice, and numpy multiplies a stack by a matrix slice by slice,
which keeps every result bit for bit equal to the species-by-species
computation. The step speaks arrays at its boundary too: solve_step1 reads
the previous SimState and takes the sources as one (2, N, N) stack, and its
Step1Result carries the new concentrations, psi and mu as arrays, which
only integrator.advance wraps into the next state.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.linalg.lapack import dpotrf as potrf, dpotri as potri

from .errors import (
    MassMismatchError,
    NetChargeError,
    NoConvergenceError,
    NonPositiveConcentrationError,
    NonZeroMeanError,
)
from .krylov import gmres
from .spectral import Field, Grid
from .state import PhysParams, SchemeConfig, SimState

#: species names and valences along axis 0 of a stacked (2, N, N) array
SPECIES = ("p", "n")
VALENCE = np.array([1.0, -1.0]).reshape(2, 1, 1)

#: inner tolerance of the linearized Newton solves (inexact Newton): the
#: first solve of a step, every solve on the line path, and the upper clip of
#: the forcing term on the spectral path
NEWTON_GMRES_TOL = 1e-4
#: large restart: short restarts stagnate on the sharp-interface Jacobians
NEWTON_GMRES_RESTART = 300
NEWTON_GMRES_MAX_CYCLES = 2

#: a previous state with a smaller minimum concentration is rejected outright
MIN_CONCENTRATION = 1e-14

#: the ion step is preconditioned by line solves when max c_old / min c_old
#: of some species exceeds this, and by the spectral symbols otherwise. From
#: a sweep of the first two-blob step (kappa = 1e4, dt = 1e-4) over the
#: blobs' floor, in CPU ms per step with the line build on a 2-CPU VM with
#: one BLAS thread (spectral / line): 34 / 42 at contrast 8.3e2, 52 / 40 at
#: 1.4e3, 41 / 40 at 2.5e3 and 77 / 40 at 4.6e3 for N = 64; 313 / 386,
#: 437 / 413 and 576 / 385 at 8.3e2, 2.5e3 and 4.6e3 for N = 128, where the
#: O(N^4) build of the line path weighs more. Over that sweep the line path
#: takes 7-10 Krylov products per step and the spectral one 35-175; at the
#: experiment's contrast of 1.7e6 the spectral path needs 45-481 GMRES per
#: Newton. The crossover lies near 1e3 at N = 64 and 2e3 at N = 128, so
#: below 3e3 the spectral path can be up to 1.3x slower than the line path.
LINE_CONTRAST = 3e3

#: the line factors are rebuilt at c_old every LINE_REBUILD_PERIOD-th line-path
#: step and reused by the steps in between. From a sweep of the 1000-step
#: two-blob run (N = 64, kappa = 1e4, dt = 1e-4) on a shared 2-CPU VM with one
#: BLAS thread, wall time of two runs / Krylov products, by period:
#: 1: 170, 175 s / 80566; 3: 141, 158 s / 81514; 5: 142, 132 s / 82714;
#: 8: 142 s / 83918; 12: 137 s / 85468. The wall time is flat within the
#: machine's noise from 3 to 12 while the products grow with the period.
LINE_REBUILD_PERIOD = 5

#: line search constants: Armijo slope fraction and backtracking factor
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 40

#: no iterate may cross below this fraction of its current pointwise value
BOUNDARY_FRACTION = 0.1


@dataclass
class Step1Result:
    """Outcome of one ion-transport solve.

    c is the stacked (2, N, N) new concentrations (p, n), psi the potential
    and mu the stacked chemical potentials (ln p + psi, ln n - psi), all at
    the solution. krylov_iters and krylov_iters_max are the sum and the
    largest, over the Newton iterations, of the Krylov products (J P v, P v)
    each GMRES solve applied: one per GMRES iteration, restarts included
    (krylov.gmres restarts from a residual it forms without a product).
    line_ref and line_age are the next state's (SimState).
    """

    c: np.ndarray
    psi: np.ndarray
    mu: np.ndarray
    newton_iters: int
    krylov_iters: int
    krylov_iters_max: int
    final_residual: float
    line_ref: Field | None
    line_age: int


def compute_psi(grid: Grid, p: np.ndarray, n: np.ndarray, epsilon: float) -> np.ndarray:
    """Electric potential from the charge density: -eps lap psi = p - n.

    Solvable only for a neutral state: a net charge above 1e-10 of the ion
    masses raises NetChargeError.
    """
    # the charge's mean carries the roundoff of p and n, not of p - n, so it
    # is judged against the ion masses: a near-neutral state passes
    masses = grid.integral(np.abs(p)) + grid.integral(np.abs(n))
    try:
        return grid.inv_laplacian_zero_mean((p - n) / epsilon, scale=masses / epsilon)
    except NonZeroMeanError:
        net = grid.integral(p) - grid.integral(n)
        raise NetChargeError(f"net charge {net:.3e} exceeds 1e-10 of the ion masses "
                             f"{masses:.3e}") from None


def mobility(values: np.ndarray, dt: float, kappa: float, diffusion: float) -> np.ndarray:
    """Augmented mobility f (1 + 2 (kappa/D) dt f).

    The O(dt) augmentation cancels the energy contribution of the explicit
    convection; it reduces to f (1 + 2 dt f) for unit coefficients.
    """
    return values * (1.0 + 2.0 * (kappa / diffusion) * dt * values)


def _require_positive(c: np.ndarray) -> None:
    for values, name in zip(c, SPECIES):
        m = values.min()
        if m <= 0.0:
            raise NonPositiveConcentrationError(f"{name} must be positive, min={m:.3e}")


def line_outer(d: np.ndarray) -> np.ndarray:
    """K[k, a N + b] = d[k, a] d[k, b]: the (N, N^2) operand of every stack of line blocks.

    On its own memory map (_mapped), so its N^3 doubles go back to the
    system once the build that formed it drops it.
    """
    n = d.shape[0]
    outer = _mapped((n, n, n), np.float64)
    np.multiply(d[:, :, None], d[:, None, :], out=outer)
    return outer.reshape(n, n * n)


def line_blocks(outer: np.ndarray, s: np.ndarray, m: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """The (N, N, N) stack of A = diag(s) - div(m grad .) restricted to each column.

    outer is line_outer(d) for d the differentiation matrix (Grid.diff_matrix).
    Block j couples the cells of column j, which only the x derivatives do:
    d^T diag(m[:, j]) d = sum_k m[k, j] d[k, :]^T d[k, :], so the whole stack
    is the one product m^T outer, plus the diagonal s[:, j] + (m @ (d*d))[:, j],
    whose second term is the y operator's own diagonal there. The blocks of
    the rows are line_blocks(outer, s.T, m.T). Each block is symmetric
    positive definite where s > 0. Written to out when given.
    """
    n = s.shape[0]
    if out is None:
        out = np.empty((n, n, n))
    np.matmul(m.T, outer, out=out.reshape(n, n * n))
    diag = np.arange(n)
    out[:, diag, diag] += (s + m @ outer[:, ::n + 1]).T  # outer's diagonal is d*d
    return out


def _invert_spd(blocks: np.ndarray) -> np.ndarray:
    """Replace each block of a symmetric positive definite (M, N, N) stack by its inverse.

    Cholesky (LAPACK potrf, potri), half the flops of an LU inverse, one
    block at a time, so no second stack is allocated. A block that is not
    numerically positive definite, as a line through a lone concentrated
    cell in a vacuum near MIN_CONCENTRATION at kappa dt = 1e4 gives, is
    inverted by LU instead.
    """
    lower = np.tri(blocks.shape[1], k=-1, dtype=bool)
    for block in blocks:
        # LAPACK reads the C-ordered block as its transpose: the same matrix
        factor, info = potrf(block.T)
        if info == 0:
            inverse, info = potri(factor, overwrite_c=True)
        if info != 0:
            block[...] = np.linalg.inv(block)
            continue
        block[...] = inverse  # valid in the upper triangle
        # mirrored from potri's own array: a source that overlaps the block
        # would make numpy copy it first
        np.copyto(block, inverse.T, where=lower)
    return blocks


class LinePreconditioner:
    """Approximate inverse of A = diag(s) - div(m grad .) by exact line solves.

    With A = B_x + Y_off, B_x the blocks of the columns and Y_off the
    y-coupling between the cells of a row, the approximation is
    w = B_x^{-1} v, then w += B_y^{-1} (v - A w) with B_y the blocks of the
    rows; since B_x w = v, v - A w is -Y_off w. The spectral derivative
    couples the cells of one grid line densely, and a contrast of 1e6 in m
    makes that coupling matter, which a line solve resolves exactly.

    Each direction's blocks are built and inverted in float64, in scratch,
    a stack of N^3 doubles that the build lends every species, and stored
    in float32: 2 N^3 4 bytes per species, half of what float64 factors
    took, on their own memory map held by the process-wide slot
    (_line_factors), whose pages go back to the system when the slot is
    replaced. From the malloc heap they would stay resident, fragmented
    among the step's small arrays: 5-16 MB more peak memory on the two-blob
    run at N = 64. The sweeps apply the factors in float32, which halves the
    bytes each solve reads; the y-coupling stays in float64. A solve then
    differs from the float64 one by ~1e-7 relative, which flexible GMRES
    absorbs (module docstring). Factoring in float32 (spotrf, spotri) is
    not used: it was no faster on an N = 64 stack of the two-blob state (7.4
    against 8.1 ms, one BLAS thread), and its inverse differs from the
    float64 one by 2.3e-5 relative, where the float64 inverse rounded to
    float32 differs by 2.4e-8.
    """

    def __init__(self, d: np.ndarray, s: np.ndarray, m: np.ndarray, outer: np.ndarray,
                 scratch: np.ndarray):
        n = d.shape[0]
        self.d = d
        self.m = m
        self.y_diag = m @ (d * d)
        factors = _mapped((2, n, n, n), np.float32)
        for stack, (sd, md) in zip(factors, ((s, m), (s.T, m.T))):
            stack[...] = _invert_spd(line_blocks(outer, sd, md, out=scratch))
        self.inv_x, self.inv_y = factors

    def solve(self, v: np.ndarray) -> np.ndarray:
        """w ~ A^{-1} v for an (N, N) field v."""
        d = self.d
        w = _line_solves(self.inv_x, v.T).T  # column by column
        y_w = (self.m * (w @ d.T)) @ d  # -d/dy(m dw/dy), row by row
        w += _line_solves(self.inv_y, self.y_diag * w - y_w)
        return w


def _mapped(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialized array on its own private anonymous memory map."""
    pages = mmap.mmap(-1, math.prod(shape) * np.dtype(dtype).itemsize, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(pages, dtype=dtype).reshape(shape)


def _line_solves(inverses: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """inverses[j] @ rhs[j] for every line j, in float32; a float64 (N, N) array back."""
    return np.matmul(inverses, rhs.astype(np.float32)[:, :, None])[:, :, 0].astype(float)


#: the one resident set of line factors: (reference, dt, params, one
#: LinePreconditioner per species), or None
_line_slot: tuple | None = None


def _line_factors(grid: Grid, ref: Field, dt: float,
                  params: PhysParams) -> list[LinePreconditioner]:
    """The line preconditioner of each species, built at the stacked reference ref.

    The slot is keyed by the identity of ref and by (dt, params): a state
    and its successors share one reference Field, and a reloaded state,
    whose reference is a copy, rebuilds the same factors. A key on the
    array's content would let an unrelated state reuse factors it never
    built. A miss empties the slot before building, so at most one set
    (4 N^3 float32, 16 N^3 bytes) is resident. A thread that loses the slot
    to another rebuilds; the Step1System it serves keeps its own set
    meanwhile. A build forms the outer product of the differentiation matrix
    (line_outer) and one float64 scratch stack once, for the four stacks,
    and drops both when it ends: 16 N^3 bytes more while it runs.
    """
    global _line_slot
    slot = _line_slot
    if slot is not None and slot[0] is ref and slot[1] == dt and slot[2] == params:
        return slot[3]
    _line_slot = slot = None  # the old factors go before the new ones are built
    d = params.diffusion
    diff = grid.diff_matrix
    outer = line_outer(diff)
    scratch = _mapped((grid.n_modes,) * 3, np.float64)
    lines = [LinePreconditioner(diff, ci / dt, d * mobility(ci, dt, params.kappa, d),
                                outer, scratch) for ci in ref.values]
    _line_slot = (ref, dt, params, lines)
    return lines


class Step1System:
    """Per-step residual/Jacobian machinery on stacked (p, n) arrays.

    Both go through one flux kernel (_flux_div), P through one fork
    (_precondition). Computed once from the previous state: convection
    divergences, augmented mobilities, psi's symbol and the preconditioner
    (the spectral symbols, or the line solves at line_ref, looked up on the
    first Krylov product). On the line path line_ref is the previous state's
    reference while its age is below LINE_REBUILD_PERIOD, and c_old
    otherwise; line_age counts this step.

    The kernels write their intermediates into the system's work arrays, so
    one system serves one thread at a time; every array they return is new.
    """

    def __init__(self, prev: SimState, params: PhysParams, dt: float,
                 sources: np.ndarray | None = None):
        grid = prev.grid
        self.grid = grid
        self.params = params
        self.dt = dt
        self.c_prev = np.stack((prev.p.values, prev.n.values))
        self.c_prev.flags.writeable = False  # it may become the line reference
        if self.c_prev.min() < MIN_CONCENTRATION:
            raise NonPositiveConcentrationError(
                "previous state is too close to the positivity boundary"
            )
        ux, uy = prev.u.values
        self.conv = np.stack([grid.div(c * ux, c * uy) for c in self.c_prev])
        self.m = mobility(self.c_prev, dt, params.kappa, params.diffusion)
        self.source = sources
        # work arrays of the kernels below, overwritten by every residual and
        # Krylov product: f (ln c or dc/c, then the flux), two real fields and
        # three half spectra (the charge and two more)
        self._f, self._real = np.empty_like(self.c_prev), np.empty_like(self.c_prev)
        self._spec = np.empty((3, *grid.k2.shape), dtype=complex)
        # psi's symbol, complex at the spectra's shape like the grid's (spectral.py)
        self._inv_eps_k2 = (grid.inv_k2 / params.epsilon).astype(complex)

        self.line_path = max(float(ci.max() / ci.min()) for ci in self.c_prev) > LINE_CONTRAST
        self.line_ref, self.line_age = None, 0
        if self.line_path:
            if prev.line_ref is not None and prev.line_age < LINE_REBUILD_PERIOD:
                self.line_ref, self.line_age = prev.line_ref, prev.line_age + 1
            else:
                self.line_ref, self.line_age = Field(grid, self.c_prev), 1
        else:
            # spectral preconditioner (1/dt - D cbar lap)^{-1} per species, with
            # cbar the mean diffusion coefficient of the linearized operator
            # (M/c, not M itself: the Jacobian differentiates through ln c)
            d = params.diffusion
            self._pre = [(1.0 / (1.0 / dt + d * float(ratio.mean()) * grid.k2)).astype(complex)
                         for ratio in self.m / self.c_prev]

    @cached_property
    def _lines(self) -> list[LinePreconditioner]:
        """The line preconditioner of each species, looked up on the first Krylov product."""
        return _line_factors(self.grid, self.line_ref, self.dt, self.params)

    def potentials(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """psi from -eps lap psi = p - n, and the stacked mu_i = ln c_i + z_i psi.

        The one place both are formed in physical space; a net charge raises NetChargeError.
        """
        _require_positive(c)
        psi = compute_psi(self.grid, c[0], c[1], self.params.epsilon)
        return psi, np.log(c) + VALENCE * psi

    def _flux_div(self, f: np.ndarray, charge: np.ndarray) -> np.ndarray:
        """D div(M_i grad(f_i + z_i psi)) per species, written over f; psi from the charge spectrum.

        The one kernel of the residual (f = ln c) and the Jacobian (f = dc/c);
        both arguments are overwritten and f is returned. psi drops its mean,
        so a net charge is not seen here. On the line path the derivatives
        are products with the differentiation matrix d on the whole stack,
        the same collocation derivatives as the transforms: psi is
        transformed back once, 1 transform in all. On the spectral path psi
        stays spectral and each species takes 6 transforms, 12 in all, every
        intermediate in the work arrays: once f_i is transformed, its slot
        takes the species' flux.
        """
        grid = self.grid
        psi = charge
        psi *= self._inv_eps_k2
        diffusion = self.params.diffusion
        if self.line_path:
            d = grid.diff_matrix
            h = f + VALENCE * grid.irfft(psi, scratch=psi)
            return np.multiply(diffusion, d @ (self.m * (d @ h)) + (self.m * (h @ d.T)) @ d.T,
                               out=f)
        gx, gy = self._real
        spec, tmp = self._spec[1:]
        for fi, m, z in zip(f, self.m, VALENCE.flat):
            grid.rfft(fi, out=spec)
            spec += np.multiply(z, psi, out=tmp)
            # grad: the two derivative spectra of rfft(f_i) + z_i psi, transformed back
            grid.irfft(np.multiply(grid.ikx, spec, out=tmp), out=gx, scratch=tmp)
            grid.irfft(np.multiply(grid.iky, spec, out=tmp), out=gy, scratch=tmp)
            # div(m grad): ikx rfft(m gx) + iky rfft(m gy), transformed back into f_i's slot
            grid.rfft(np.multiply(m, gx, out=gx), out=spec)
            grid.rfft(np.multiply(m, gy, out=gy), out=tmp)
            np.multiply(grid.ikx, spec, out=spec)
            spec += np.multiply(grid.iky, tmp, out=tmp)
            grid.irfft(spec, out=fi, scratch=spec)
        return np.multiply(diffusion, f, out=f)

    def residual(self, c: np.ndarray) -> np.ndarray:
        """The stacked residual at c (13 transforms on the spectral path, 2 on the line path)."""
        _require_positive(c)
        r = np.subtract(c, self.c_prev)
        r /= self.dt
        r += self.conv
        r -= self._flux_div(np.log(c, out=self._f), self._charge(c))
        if self.source is not None:
            r -= self.source
        return r

    def jacobian_action(self, c: np.ndarray, dc: np.ndarray) -> np.ndarray:
        """J(c) dc for a direction given as a (2, N, N) stack or its ravel; same shape back."""
        return self._jacobian(c, dc.reshape(c.shape)).reshape(dc.shape)

    def preconditioned_action(self, c: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(J(c) P v, P v) for P the preconditioner, both shaped like v.

        The operator GMRES works on: P is applied once per product, and
        GMRES forms the update from the P v it keeps. On the spectral path P
        ends in the spectra of P v, which give the Jacobian its charge
        spectrum, so P v is transformed back once and never forward again:
        16 transforms where P followed by J takes 18. On the line path P
        takes none and J transforms the charge forward and psi back: 2
        transforms.
        """
        z, charge = self._precondition(v)
        return self._jacobian(c, z, charge).reshape(v.shape), z.reshape(v.shape)

    def _jacobian(self, c: np.ndarray, direction: np.ndarray,
                  charge: np.ndarray | None = None) -> np.ndarray:
        """J(c) direction, given the spectrum of the direction's charge (overwritten) if known."""
        if charge is None:
            charge = self._charge(direction)
        j = direction / self.dt
        j -= self._flux_div(np.divide(direction, c, out=self._f), charge)
        return j

    def _charge(self, c: np.ndarray) -> np.ndarray:
        """The spectrum of c_p - c_n, in a work array."""
        return self.grid.rfft(np.subtract(c[0], c[1], out=self._real[0]), out=self._spec[0])

    def _precondition(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """P v as a (2, N, N) stack, and the spectrum of its charge if P formed it (else None)."""
        out = np.empty_like(self.c_prev)
        v = v.reshape(out.shape)
        if self.line_path:
            for i, (line, ci, r) in enumerate(zip(self._lines, self.c_prev, v)):
                out[i] = ci * line.solve(r)  # dc = c_old w
            return out, None
        grid = self.grid
        charge, spec, tmp = self._spec
        charge[...] = 0.0
        for pre, z, r, out_i in zip(self._pre, VALENCE.flat, v, out):
            np.multiply(pre, grid.rfft(r, out=spec), out=spec)
            grid.irfft(spec, out=out_i, scratch=tmp)
            charge += np.multiply(z, spec, out=tmp)  # spectrum of sum_i z_i (P v)_i
        return out, charge

    def norm(self, r: np.ndarray) -> float:
        """Discrete L2 norm of a stacked pair, e.g. the residual (r_p, r_n)."""
        return math.sqrt(self.grid.inner(r[0], r[0]) + self.grid.inner(r[1], r[1]))


def solve_step1(prev: SimState, params: PhysParams, dt: float, cfg: SchemeConfig,
                sources: np.ndarray | None = None) -> Step1Result:
    """Newton-Krylov solve of the coupled ion-transport step.

    sources, when given, is the stacked (2, N, N) source of the two ion
    equations. Converges when the stacked residual norm drops below
    newton_tol * (1 + ||(p_old, n_old)||); a first residual that is not
    finite, as a non-finite source gives, raises NoConvergenceError. The
    Newton update is projected to zero mean so both masses are conserved to
    roundoff by construction; the fraction-to-boundary rule keeps all
    iterates strictly positive. The inner GMRES tolerance follows the
    forcing rule of the module docstring.
    """
    system = Step1System(prev, params, dt, sources)
    grid = prev.grid

    c = system.c_prev.copy()
    r = system.residual(c)
    res = system.norm(r)
    if not math.isfinite(res):
        raise NoConvergenceError("ion-transport residual is not finite", 0, res)
    threshold = cfg.newton_tol * (1.0 + system.norm(system.c_prev))
    iters = 0
    products = []  # Krylov products per Newton iteration
    eta = NEWTON_GMRES_TOL

    while res > threshold:
        if iters >= cfg.newton_max_iter:
            raise NoConvergenceError("ion-transport Newton solve exhausted", iters, res)
        rhs = -r.ravel()
        # flexible right preconditioning: GMRES returns the update z = sum_k y_k P v_k
        jp = _Counted(partial(system.preconditioned_action, c))
        z, info = gmres(jp, rhs, rtol=eta, restart=NEWTON_GMRES_RESTART,
                        maxiter=NEWTON_GMRES_MAX_CYCLES)
        products.append(jp.calls)
        # exact mass conservation: the update never moves the (0,0) mode
        dc = np.stack([d - d.mean() for d in z.reshape(c.shape)])

        alpha = min(1.0, _boundary_step(c, dc))
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            trial = c + alpha * dc
            t_r = system.residual(trial)
            t_res = system.norm(t_r)
            if t_res <= (1.0 - ARMIJO_C1 * alpha) * res:
                accepted = True
                break
            alpha *= BACKTRACK_FACTOR
        if not accepted:
            message = "ion-transport line search stalled"
            if info > 0:
                lin_res = (np.linalg.norm(system.jacobian_action(c, z) - rhs)
                           / np.linalg.norm(rhs))
                message += (f" after an unconverged inner GMRES solve ({info} iterations,"
                            f" relative residual {lin_res:.3e} > {eta:g})")
            raise NoConvergenceError(message, iters, res)
        if not system.line_path:
            eta = _forcing_term(t_res, res, threshold)
        c, r, res = trial, t_r, t_res
        iters += 1

    # updates are zero-mean per species: this also checks c_old's net charge
    psi, mu = system.potentials(c)
    for new, old, name in zip(c, system.c_prev, SPECIES):
        drift = abs(grid.integral(new) - grid.integral(old))
        if drift > 1e-11 * abs(grid.integral(old)):
            raise MassMismatchError(f"step lost {name}-mass: drift {drift:.3e}")

    return Step1Result(
        c=c,
        psi=psi,
        mu=mu,
        newton_iters=iters,
        krylov_iters=sum(products),
        krylov_iters_max=max(products, default=0),
        final_residual=res,
        line_ref=system.line_ref,
        line_age=system.line_age,
    )


def _forcing_term(res: float, res_prev: float, threshold: float) -> float:
    """Inner GMRES tolerance at Newton residual res after res_prev (module docstring)."""
    return min(NEWTON_GMRES_TOL, max(0.9 * (res / res_prev) ** 2, 0.5 * threshold / res,
                                     NEWTON_GMRES_TOL ** 2))


class _Counted:
    """A callable that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def _boundary_step(values: np.ndarray, direction: np.ndarray) -> float:
    """Largest step keeping values + a*direction >= BOUNDARY_FRACTION * values."""
    falling = direction < 0.0
    if not falling.any():
        return np.inf
    room = (1.0 - BOUNDARY_FRACTION) * values[falling]
    return float((room / -direction[falling]).min())
