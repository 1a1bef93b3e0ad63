"""Stiffness-field search over grid cells: GP regression plus Expected
Improvement acquisition, with a uniform random-search baseline.

The GP uses a squared-exponential kernel over (u, v) cell coordinates
with the length scale in cell units.  Hyperparameters are fixed per run;
sample budgets of 50-80 indentations are too small for stable online
hyperparameter fitting.

Each palpation samples a new cell, so the posterior grows instead of
being refitted: ``GPModel`` appends a Cholesky row per sample and, for
the grid it last scanned, a row of ``L⁻¹ K(x, valid cells)``.  A scan
after a new sample costs one kernel column and one O(n·m) product.  Its
two triangular solves call LAPACK's ``trtrs`` as ``solve_triangular``
does, but directly: the wrapper took 9-19 µs for a 1-2 µs solve.
A caller that repeats a search can hand ``next_cell_bo`` a pick memo, so
a repeated pick draws among known ties without a scan.

The scan's two row products stay under OpenBLAS's gemv threading cutoff
(``_vecmat``).  A threaded product wakes a helper thread that spins for
about 0.1 s afterwards (each BO pick past about 77 samples on a 0.5 mm
grid), and it splits the cells between threads, so the cells at the
split take another rounding path and the bits depend on the core count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.special import ndtr

from .errors import (Empty, Exhausted, InvalidCell, OutOfRange, SingularKernel, above, at_least,
                     check_ranges)
from .registration import SurfaceGrid

_JITTER = 1e-10
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# OpenBLAS runs a gemv on one thread while m·n < 115200 · GEMM_MULTITHREAD_THRESHOLD
# (interface/gemv.c); the threshold is 4 in the OpenBLAS that numpy and scipy ship.
_GEMV_THREAD_CUTOFF = 115200 * 4
_TRTRS, = get_lapack_funcs(("trtrs",), (np.zeros((1, 1)),))


@dataclass(frozen=True)
class StiffnessSample:
    cell: tuple[int, int]
    k: float  # N/m, >= 0


@dataclass(frozen=True)
class GPHyper:
    length_scale: float = above(0, 3.0)    # cells
    signal_var: float = above(0, 2.5e4)    # (N/m)^2
    noise_var: float = at_least(0, 25.0)   # (N/m)^2

    __post_init__ = check_ranges


@dataclass(frozen=True)
class Acquisition:
    """EI parameters: exploration offset xi and incumbent best stiffness."""

    xi: float = at_least(0)
    best_k: float

    __post_init__ = check_ranges


class GPModel:
    """Posterior over stiffness that grows one sample, at a new cell, at a time.

    ``add`` appends the cell's row of the lower Cholesky factor ``L`` of
    K(x, x) + (noise_var + jitter) I, as ``l = L⁻¹ k`` and
    ``d = √(signal_var + noise_var + jitter − l·l)``.  The prior mean is
    the sample mean, so predictions far from all data revert to it (and
    the variance to signal_var): ``var = signal_var − ‖L⁻¹kₛ‖²`` and
    ``μ = ȳ + (L⁻¹(y − ȳ))·(L⁻¹kₛ)``.  Both predictions build
    ``V = L⁻¹ K(x, cells)`` row by row in ``_posterior``; ``predict_grid``
    keeps ``V`` and the column sums of ``V²`` for the last grid it scanned
    and appends one row of each per new sample; rows left unbuilt (a pick
    memo hit in ``next_cell_bo`` scans nothing) are built by the next scan,
    by the same recurrence, so they get the same bits.  The products with ``V``
    go through ``_vecmat``, so they run on the calling thread and give the
    same bits on any core count.  ``_solve_lower`` calls LAPACK directly.
    """

    def __init__(self, hyper: GPHyper = GPHyper()):
        self.hyper = hyper
        self._x = np.zeros((0, 2))                # sampled cells in the order added, read-only
        self._y = np.zeros(0)                     # their stiffness, read-only
        self._chol = np.zeros((0, 0))             # L
        self._grid: SurfaceGrid | None = None     # grid of the scan cache, set up by predict_grid

    @property
    def n(self) -> int:
        """Number of sampled cells."""
        return len(self._y)

    @property
    def x(self) -> np.ndarray:
        return self._x

    @property
    def y(self) -> np.ndarray:
        return self._y

    def add(self, sample: StiffnessSample) -> None:
        """Record a sample at a cell not sampled before and append its row of L;
        a repeated cell raises ``InvalidCell`` and a row with no positive
        diagonal ``SingularKernel``, either leaving the model as it was."""
        cell = (int(sample.cell[0]), int(sample.cell[1]))
        if (self._x == cell).all(axis=1).any():
            raise InvalidCell(f"cell {cell} is already sampled")
        n, h = self.n, self.hyper
        k = _kernel(float(cell[0]), float(cell[1]), self._x.T, h)
        l = _solve_lower(self._chol, k) if n else k
        d2 = h.signal_var + h.noise_var + _JITTER - l @ l
        if not d2 > 0.0:
            raise SingularKernel(f"kernel not positive definite at cell {cell}")
        chol = np.zeros((n + 1, n + 1))
        chol[:n, :n] = self._chol
        chol[n, :n] = l
        chol[n, n] = math.sqrt(d2)
        self._chol = chol
        self._x = np.append(self._x, [cell], axis=0)
        self._y = np.append(self._y, float(sample.k))
        self._x.flags.writeable = self._y.flags.writeable = False

    def predict_many(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at (m, 2) cell coordinates."""
        cells = np.ascontiguousarray(np.asarray(cells, dtype=float).reshape(-1, 2).T)
        m = cells.shape[1]
        return self._posterior(cells, np.zeros((self.n, m)), np.zeros(m), 0)

    def predict_grid(self, grid: SurfaceGrid) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at ``grid.valid_cells()``, in that order.

        Uses the cached ``V`` when ``grid`` is the grid of the last scan (a
        grid's arrays are read-only), and starts a new cache otherwise.
        """
        if grid is not self._grid:
            self._grid = grid
            self._valid = np.ascontiguousarray(grid.valid_cells().T, dtype=float)  # u, v rows
            self._v = np.zeros((0, self._valid.shape[1]))  # V, in a buffer that grows
            self._v_rows = 0
            self._v_sq = np.zeros(self._valid.shape[1])    # column sums of V²
        self._v = _grown(self._v, self.n)
        out = self._posterior(self._valid, self._v, self._v_sq, self._v_rows)
        self._v_rows = self.n
        return out

    def _posterior(self, cells: np.ndarray, v: np.ndarray, v_sq: np.ndarray,
                   start: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean and variance at the (2, m) u, v rows ``cells``; first writes rows
        ``start..n`` of ``V = L⁻¹ K(x, cells)`` into ``v``, adding their squares to ``v_sq``."""
        n, h, chol, x = self.n, self.hyper, self._chol, self._x
        if n == 0:
            raise Empty("GP has no samples")
        for i in range(start, n):
            col = _kernel(x[i, 0], x[i, 1], cells, h)
            v[i] = (col - _vecmat(chol[i, :i], v[:i])) / chol[i, i]
            v_sq += v[i] * v[i]
        mean_y = float(self._y.mean())
        beta = _solve_lower(chol, self._y - mean_y)
        return mean_y + _vecmat(beta, v[:n]), np.maximum(h.signal_var - v_sq, 0.0)


def _vecmat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a length-n ``a`` and a C-contiguous (n, m) ``b``, with
    no BLAS call at or above ``_GEMV_THREAD_CUTOFF``.

    A larger product runs in column blocks whose width is a multiple of 64.
    OpenBLAS's Haswell ``dgemv_n`` gives every output the same FMA chain
    except the last m mod 4, which take a scalar tail; blocks start at
    multiples of 64 and the last one ends at m, so each output takes the
    path it takes in one single-threaded call.  Past n = 7,200 samples the
    64-column floor reaches the cutoff again.
    """
    n, m = b.shape
    if n * m < _GEMV_THREAD_CUTOFF:
        return np.matmul(a, b)
    width = max((_GEMV_THREAD_CUTOFF - 1) // n // 64 * 64, 64)
    out = np.empty(m)
    for j in range(0, m, width):
        np.matmul(a, b[:, j:j + width], out=out[j:j + width])
    return out


def _grown(buf: np.ndarray, rows: int) -> np.ndarray:
    """``buf`` if it has ``rows`` rows, else a copy with room for twice as many."""
    if buf.shape[0] >= rows:
        return buf
    out = np.zeros((max(rows, 2 * buf.shape[0], 8), buf.shape[1]))
    out[:buf.shape[0]] = buf
    return out


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``solve_triangular(chol, b, lower=True)``'s LAPACK call, without its wrapper."""
    x, info = _TRTRS(chol.T, b, lower=0, trans=1)
    if info != 0:
        raise SingularKernel(f"triangular solve failed (LAPACK info {info})")
    return x


def _kernel(u: float, v: float, cells: np.ndarray, hyper: GPHyper) -> np.ndarray:
    """Squared-exponential kernel between cell (u, v) and the (2, m) u and v rows ``cells``."""
    du = u - cells[0]
    dv = v - cells[1]
    d2 = du * du + dv * dv
    return hyper.signal_var * np.exp(-0.5 * d2 / (hyper.length_scale**2))


def gp_fit(samples: list[StiffnessSample], hyper: GPHyper = GPHyper()) -> GPModel:
    """Fit the GP by adding ``samples`` in order, each at a cell of its own."""
    if len(samples) == 0:
        raise Empty("need at least one sample")
    gp = GPModel(hyper)
    for s in samples:
        gp.add(s)
    return gp


def _ei(mu: np.ndarray, sigma: np.ndarray, best_k: float, xi: float) -> np.ndarray:
    imp = mu - best_k - xi
    pos = sigma > 1e-300
    if pos.all():  # the masked path below, without its copies
        z = imp / sigma
        return np.maximum(imp * ndtr(z) + sigma * np.exp(-0.5 * z * z) / _SQRT_2PI, 0.0)
    out = np.maximum(imp, 0.0)
    if np.any(pos):
        z = imp[pos] / sigma[pos]
        out[pos] = imp[pos] * ndtr(z) + sigma[pos] * np.exp(-0.5 * z * z) / _SQRT_2PI
    return np.maximum(out, 0.0)


def _free_valid(grid: SurfaceGrid, free: np.ndarray) -> np.ndarray:
    """``free & grid.valid_mask``, for a bool ``free`` mask of the grid's shape."""
    free = np.asarray(free)
    if free.shape != grid.valid_mask.shape:
        raise InvalidCell(f"free mask has shape {free.shape}, the grid {grid.valid_mask.shape}")
    if free.dtype != bool:
        raise InvalidCell(f"free mask has dtype {free.dtype}, not bool")
    return free & grid.valid_mask


def _nth_cell(free: np.ndarray, k: int) -> tuple[int, int]:
    """The ``k``-th set cell of the 2-D ``free``, in row-major order."""
    return divmod(int(np.flatnonzero(free)[k]), free.shape[1])


def next_cell_bo(gp: GPModel, grid: SurfaceGrid, free: np.ndarray, acq: Acquisition,
                 rng: np.random.Generator, picks: Optional[dict] = None) -> tuple[int, int]:
    """Argmax of EI over the valid cells that are set in ``free`` (a bool
    mask of the grid's shape); ties broken uniformly.

    The posterior comes from ``gp.predict_grid(grid)``, so repeated calls
    on one grid extend the model's scan cache instead of rebuilding it.
    ``picks`` maps everything a pick reads (the grid, ``gp.hyper``, the bytes
    of ``gp.x``, ``gp.y``, ``free`` and ``acq``'s floats) to the cells that tie
    for the maximum, in row-major order; a hit skips the scan and draws the
    tie as a miss does.  A call that raises stores nothing.
    """
    if gp.n < 2:
        raise OutOfRange(f"BO needs a GP with at least 2 sampled cells, got {gp.n}")
    free = _free_valid(grid, free)
    keep = free[grid.valid_mask]  # candidates among the valid cells, row-major
    if not keep.any():
        raise Exhausted("no free valid cell")
    key = None if picks is None else (grid, gp.hyper, gp.x.tobytes(), gp.y.tobytes(),
                                      free.tobytes(), np.array([acq.xi, acq.best_k]).tobytes())
    ties = None if key is None else picks.get(key)
    if ties is None:
        mu, var = gp.predict_grid(grid)
        ei = _ei(mu[keep], np.sqrt(var[keep]), acq.best_k, acq.xi)
        cols = free.shape[1]
        ties = tuple(divmod(k, cols) for k in np.flatnonzero(free)[ei == ei.max()].tolist())
        if key is not None:
            picks[key] = ties
    return ties[rng.integers(len(ties))]


def next_cell_random(grid: SurfaceGrid, free: np.ndarray,
                     rng: np.random.Generator) -> tuple[int, int]:
    """Uniform draw over the valid cells that are set in ``free``."""
    free = _free_valid(grid, free)
    if not free.any():
        raise Exhausted("no free valid cell")
    return _nth_cell(free, rng.integers(np.count_nonzero(free)))
