import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.special import ndtr

import palpsim
from palpsim import (
    Acquisition,
    GPHyper,
    SurfaceGrid,
    StiffnessSample,
    gp_fit,
    next_cell_bo,
    next_cell_random,
)
from palpsim.errors import Empty, Exhausted, InvalidCell, OutOfRange, SingularKernel
from palpsim.search import _GEMV_THREAD_CUTOFF, GPModel, _ei, _nth_cell, _solve_lower, _vecmat


def make_grid(nx=20, ny=20, mask=None):
    height = np.zeros((nx, ny))
    normal = np.zeros((nx, ny, 3))
    normal[..., 2] = 1.0
    if mask is None:
        mask = np.ones((nx, ny), dtype=bool)
    return SurfaceGrid((0.0, 0.0), 0.002, 0.002, height, normal, mask)


def free_of(grid, cells):
    """All-True mask of ``grid``'s shape with the given cells that lie on it cleared."""
    free = np.ones(grid.valid_mask.shape, dtype=bool)
    for u, v in cells:
        if 0 <= u < grid.nx and 0 <= v < grid.ny:
            free[u, v] = False
    return free


def dense_gp_oracle(samples, hyper, cells):
    """From-scratch GP solve with a plain dense linear system."""
    x = np.array([s.cell for s in samples], dtype=float)
    y = np.array([s.k for s in samples])
    mean_y = y.mean()

    def kern(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        return hyper.signal_var * np.exp(-0.5 * d2 / hyper.length_scale**2)

    kmat = kern(x, x) + (hyper.noise_var + 1e-10) * np.eye(len(x))
    cells = np.asarray(cells, dtype=float)
    ks = kern(cells, x)
    mu = mean_y + ks @ np.linalg.solve(kmat, y - mean_y)
    var = hyper.signal_var - np.einsum("ij,ji->i", ks, np.linalg.solve(kmat, ks.T))
    return mu, np.maximum(var, 0.0)


class TestGPFit:
    def test_single_sample_interpolates(self):
        hyper = GPHyper(noise_var=0.0)
        gp = gp_fit([StiffnessSample((3, 4), 500.0)], hyper)
        mu, var = gp.predict_many([(3, 4)])
        assert mu[0] == pytest.approx(500.0, abs=1e-6)

    def test_zero_samples_rejected(self):
        with pytest.raises(Empty):
            gp_fit([])

    @pytest.mark.parametrize("kw", [dict(length_scale=0.0), dict(signal_var=0.0),
                                    dict(noise_var=-30.0), dict(length_scale=float("nan"))])
    def test_hyperparameters_out_of_range(self, kw):
        with pytest.raises(OutOfRange):
            GPHyper(**kw)

    def test_noise_free_interpolation(self):
        rng = np.random.default_rng(0)
        cells = [(1, 1), (4, 9), (10, 3), (15, 15), (7, 12)]
        ks = rng.uniform(200, 600, 5)
        hyper = GPHyper(noise_var=0.0)
        gp = gp_fit([StiffnessSample(c, k) for c, k in zip(cells, ks)], hyper)
        for c, k in zip(cells, ks):
            mu, var = gp.predict_many([c])
            assert mu[0] == pytest.approx(k, abs=1e-6)
            assert var[0] <= 1e-9

    def test_kernel_that_is_not_positive_definite_is_singular(self):
        hyper = GPHyper(length_scale=1e9, signal_var=1e8, noise_var=0.0)
        with pytest.raises(SingularKernel, match=r"kernel not positive definite at cell \(0, 1\)"):
            gp_fit([StiffnessSample((0, 0), 300.0), StiffnessSample((0, 1), 500.0)], hyper)


class TestGPPredict:
    def test_far_cell_reverts_to_prior(self):
        hyper = GPHyper(length_scale=2.0, signal_var=1e4, noise_var=1.0)
        samples = [StiffnessSample((0, 0), 300.0), StiffnessSample((1, 0), 500.0)]
        gp = gp_fit(samples, hyper)
        mu, var = gp.predict_many([(200, 200)])
        assert mu[0] == pytest.approx(400.0, abs=1e-6)   # prior mean = sample mean
        assert var[0] == pytest.approx(hyper.signal_var, abs=1e-6)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        hyper = GPHyper()
        flat = rng.choice(400, size=50, replace=False)
        samples = [
            StiffnessSample((int(c // 20), int(c % 20)), float(k))
            for c, k in zip(flat, rng.uniform(200, 700, 50))
        ]
        gp = gp_fit(samples, hyper)
        cells = rng.integers(0, 20, (30, 2))
        mu_o, var_o = dense_gp_oracle(samples, hyper, cells)
        mu, var = gp.predict_many(cells)
        assert np.allclose(mu, mu_o, atol=1e-8)
        assert np.allclose(var, var_o, atol=1e-8)

    def test_variance_bounded_by_signal_var(self):
        rng = np.random.default_rng(2)
        hyper = GPHyper()
        samples = [StiffnessSample((int(u), int(v)), float(k))
                   for u, v, k in zip(rng.integers(0, 20, 25), rng.integers(0, 20, 25),
                                      rng.uniform(100, 900, 25))]
        gp = gp_fit(samples, hyper)
        _, var = gp.predict_many(rng.integers(-5, 25, (200, 2)))
        assert np.all(var <= hyper.signal_var + 1e-9)


class TestExpectedImprovement:
    def test_negative_xi_is_out_of_range(self):
        with pytest.raises(OutOfRange, match="xi must be >= 0"):
            Acquisition(xi=-1.0, best_k=500.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["xi", "best_k"])
    def test_non_finite_values_are_out_of_range(self, name, bad):
        with pytest.raises(OutOfRange, match=f"^{name} must be finite"):
            Acquisition(**{"xi": 1.0, "best_k": 500.0, name: bad})

    def test_zero_sigma_no_improvement(self):
        assert _ei(np.array([400.0]), np.array([0.0]), 450.0, 0.0)[0] == 0.0

    def test_closed_form_at_zero_z(self):
        # mu - best - xi = 0, sigma = 1 -> ei = pdf(0)
        val = _ei(np.array([500.0]), np.array([1.0]), 500.0, 0.0)[0]
        assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
        assert val == pytest.approx(0.39894, abs=1e-5)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(10**6)
        for _ in range(10):
            mu = rng.uniform(200, 800)
            sigma = rng.uniform(0.5, 200)
            xi = rng.uniform(0, 20)
            best = mu - xi - rng.uniform(-4.0, 4.0) * sigma
            draws = np.maximum(mu + sigma * z - best - xi, 0.0)
            mc = draws.mean()
            se = draws.std() / math.sqrt(draws.size)
            ana = _ei(np.array([mu]), np.array([sigma]), best, xi)[0]
            assert abs(ana - mc) <= 3 * se + 1e-12

    def test_nonnegative_and_monotone_in_sigma(self):
        mus = np.linspace(-50, 50, 21)
        sigmas = np.linspace(0.0, 30, 16)
        for mu in mus:
            vals = [_ei(np.array([mu]), np.array([s]), 0.0, 1.0)[0] for s in sigmas]
            assert all(v >= 0.0 for v in vals)
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_nonnegative_on_a_posterior(self):
        gp = gp_fit([StiffnessSample((0, 0), 300.0), StiffnessSample((5, 5), 600.0)],
                    GPHyper())
        mu, var = gp.predict_many([(2, 2)])
        assert _ei(mu, np.sqrt(var), 600.0, 1.0)[0] >= 0.0


class TestNextCellBO:
    HYPER = GPHyper(length_scale=3.0, signal_var=1e4, noise_var=1.0)

    @staticmethod
    def _samples(rng, n=10, peak=(10, 10)):
        cells = set()
        while len(cells) < n:
            cells.add((int(rng.integers(0, 20)), int(rng.integers(0, 20))))
        samples = []
        for u, v in cells:
            d2 = (u - peak[0]) ** 2 + (v - peak[1]) ** 2
            samples.append(StiffnessSample((u, v), 300.0 + 400.0 * math.exp(-d2 / 18.0)))
        return samples

    def _fitted(self, rng, n=10, peak=(10, 10)):
        return gp_fit(self._samples(rng, n, peak), self.HYPER)

    def test_exhausted(self):
        grid = make_grid(2, 2)
        gp = self._fitted(np.random.default_rng(4), n=4)
        with pytest.raises(Exhausted):
            next_cell_bo(gp, grid, np.zeros((2, 2), dtype=bool), Acquisition(0.0, 500.0),
                         np.random.default_rng(0))

    def test_forced_single_candidate(self):
        grid = make_grid(2, 2)
        gp = self._fitted(np.random.default_rng(5), n=4)
        free = free_of(grid, [(0, 0), (0, 1), (1, 0)])
        cell = next_cell_bo(gp, grid, free, Acquisition(0.0, 500.0),
                            np.random.default_rng(0))
        assert cell == (1, 1)

    def test_matches_bruteforce_ei_scan(self):
        grid = make_grid()
        rng = np.random.default_rng(6)
        samples = self._samples(rng)
        gp = gp_fit(samples, self.HYPER)
        acq = Acquisition(xi=2.0, best_k=max(s.k for s in samples))
        visited = {s.cell for s in samples}
        cell = next_cell_bo(gp, grid, free_of(grid, visited), acq, np.random.default_rng(1))
        # oracle: evaluate EI one cell at a time over the whole grid
        best_val, best_cells = -1.0, []
        for u in range(grid.nx):
            for v in range(grid.ny):
                if (u, v) in visited:
                    continue
                mu, var = gp.predict_many([(u, v)])
                val = _ei(mu, np.sqrt(var), acq.best_k, acq.xi)[0]
                if val > best_val:
                    best_val, best_cells = val, [(u, v)]
                elif val == best_val:
                    best_cells.append((u, v))
        assert cell in best_cells

    def test_finds_unimodal_peak(self):
        grid = make_grid()
        peak = (12, 7)
        hits = 0
        for run in range(10):
            rng = np.random.default_rng(100 + run)
            samples = self._samples(rng, n=10, peak=peak)
            gp = gp_fit(samples, self.HYPER)
            acq = Acquisition(xi=2.0, best_k=max(s.k for s in samples))
            cell = next_cell_bo(gp, grid, free_of(grid, [s.cell for s in samples]), acq, rng)
            if math.hypot(cell[0] - peak[0], cell[1] - peak[1]) <= 2 * 3.0:
                hits += 1
        assert hits >= 8

    def test_never_returns_visited(self):
        grid = make_grid(6, 6)
        rng = np.random.default_rng(7)
        gp = self._fitted(rng, n=6)
        free = np.add.outer(np.arange(6), np.arange(6)) % 2 == 0
        for _ in range(20):
            cell = next_cell_bo(gp, grid, free, Acquisition(0.0, 400.0), rng)
            assert free[cell]
            assert grid.is_valid(*cell)

    def test_argmax_scale_invariance(self):
        grid = make_grid()
        rng = np.random.default_rng(8)
        cells = [(2, 3), (8, 15), (11, 4), (17, 17), (5, 9), (14, 10)]
        ks = [310.0, 450.0, 520.0, 280.0, 610.0, 390.0]
        c = 7.3
        base = GPHyper(length_scale=3.0, signal_var=1e4, noise_var=0.0)
        scaled = GPHyper(length_scale=3.0, signal_var=1e4 * c * c, noise_var=0.0)
        gp1 = gp_fit([StiffnessSample(cc, kk) for cc, kk in zip(cells, ks)], base)
        gp2 = gp_fit([StiffnessSample(cc, kk * c) for cc, kk in zip(cells, ks)], scaled)
        a1 = Acquisition(xi=0.0, best_k=max(ks))
        a2 = Acquisition(xi=0.0, best_k=max(ks) * c)
        free = free_of(grid, cells)
        pick1 = next_cell_bo(gp1, grid, free, a1, np.random.default_rng(9))
        pick2 = next_cell_bo(gp2, grid, free, a2, np.random.default_rng(9))
        assert pick1 == pick2

    def test_needs_two_samples(self):
        grid = make_grid(4, 4)
        gp = gp_fit([StiffnessSample((0, 0), 100.0)], GPHyper())
        with pytest.raises(OutOfRange):
            next_cell_bo(gp, grid, free_of(grid, []), Acquisition(0.0, 100.0),
                         np.random.default_rng(0))


class TestPickMemo:
    """``next_cell_bo(..., picks)``: a hit is a miss without the scan."""

    @staticmethod
    def _scans(monkeypatch) -> list[int]:
        count, predict_grid = [0], GPModel.predict_grid

        def counted(gp, grid):
            count[0] += 1
            return predict_grid(gp, grid)

        monkeypatch.setattr(GPModel, "predict_grid", counted)
        return count

    @staticmethod
    def _case(kind):
        """Samples, hyperparameters and acquisition of a GP on which every cell
        ties (``flat_gp``) or one cell holds the EI maximum."""
        if kind == "flat":
            return ([StiffnessSample((1000, 1000), 300.0), StiffnessSample((1000, 1010), 500.0)],
                    GPHyper(), Acquisition(0.0, 500.0))
        samples = TestNextCellBO._samples(np.random.default_rng(6))
        return samples, TestNextCellBO.HYPER, Acquisition(2.0, max(s.k for s in samples))

    @pytest.mark.parametrize("kind", ["flat", "peaked"])
    def test_a_hit_is_the_miss_without_the_scan(self, monkeypatch, kind):
        samples, hyper, acq = self._case(kind)
        grid = make_grid()
        free = free_of(grid, [s.cell for s in samples])
        scans, picks = self._scans(monkeypatch), {}
        for seed in range(5):
            want_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            gp_want, gp = gp_fit(samples, hyper), gp_fit(samples, hyper)
            want = next_cell_bo(gp_want, grid, free, acq, want_rng)
            assert next_cell_bo(gp, grid, free, acq, rng, picks) == want
            assert rng.bit_generator.state == want_rng.bit_generator.state
        assert scans[0] == 5 + 1 and len(picks) == 1  # only the first memo call scans
        ties, = picks.values()
        assert ties == (tuple(map(tuple, np.argwhere(free).tolist())) if kind == "flat"
                        else (want,))
        # the hit left V unbuilt; the next scan builds it with the same bits
        for model in (gp_want, gp):
            model.add(StiffnessSample(want, 450.0))
        assert gp_state(gp, grid) == gp_state(gp_want, grid)

    @pytest.mark.parametrize("change",
                             ["none", "grid", "hyper", "xi", "best_k", "x", "y", "free"])
    def test_a_change_to_an_input_of_the_pick_is_a_miss(self, monkeypatch, change):
        samples, hyper, acq = self._case("peaked")
        grid = make_grid()
        free = free_of(grid, [s.cell for s in samples])
        picks = {}
        next_cell_bo(gp_fit(samples, hyper), grid, free, acq, np.random.default_rng(0), picks)

        def up(x):  # the next float, one bit apart
            return math.nextafter(x, math.inf)

        if change == "grid":
            grid = make_grid()  # equal content, another grid
        elif change == "hyper":
            hyper = replace(hyper, length_scale=up(hyper.length_scale))
        elif change == "xi":
            acq = Acquisition(up(acq.xi), acq.best_k)
        elif change == "best_k":
            acq = Acquisition(acq.xi, up(acq.best_k))
        elif change == "x":
            moved = tuple(np.argwhere(free)[0].tolist())  # y and free as they were
            samples = [replace(samples[0], cell=moved), *samples[1:]]
        elif change == "y":
            samples = [replace(samples[0], k=up(samples[0].k)), *samples[1:]]
        elif change == "free":
            free = free.copy()
            free[tuple(np.argwhere(free)[-1])] = False
        scans = self._scans(monkeypatch)
        next_cell_bo(gp_fit(samples, hyper), grid, free, acq, np.random.default_rng(0), picks)
        assert (scans[0], len(picks)) == ((0, 1) if change == "none" else (1, 2))

    def test_a_call_that_raises_stores_nothing(self):
        grid, picks, acq = make_grid(4, 4), {}, Acquisition(0.0, 100.0)
        one = gp_fit([StiffnessSample((0, 0), 100.0)])
        two = gp_fit([StiffnessSample((0, 0), 100.0), StiffnessSample((3, 3), 200.0)])
        for gp, free, error in [(one, free_of(grid, []), OutOfRange),
                                (two, np.zeros((4, 4), dtype=bool), Exhausted),
                                (two, np.ones((3, 3), dtype=bool), InvalidCell)]:
            with pytest.raises(error):
                next_cell_bo(gp, grid, free, acq, np.random.default_rng(0), picks)
        assert picks == {}


class TestNextCellRandom:
    def test_single_candidate(self):
        grid = make_grid(2, 1)
        cell = next_cell_random(grid, free_of(grid, [(0, 0)]), np.random.default_rng(0))
        assert cell == (1, 0)

    def test_deterministic_sequence(self):
        grid = make_grid(10, 10)
        seqs = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            free = free_of(grid, [])
            seq = []
            for _ in range(30):
                cell = next_cell_random(grid, free, rng)
                free[cell] = False
                seq.append(cell)
            seqs.append(seq)
        assert seqs[0] == seqs[1]

    def test_exhausted(self):
        grid = make_grid(1, 1)
        with pytest.raises(Exhausted):
            next_cell_random(grid, free_of(grid, [(0, 0)]), np.random.default_rng(0))

    def test_uniformity(self):
        grid = make_grid(10, 10)
        rng = np.random.default_rng(12)
        n = 10_000
        counts = np.zeros(100)
        for _ in range(n):
            u, v = next_cell_random(grid, free_of(grid, []), rng)
            counts[u * 10 + v] += 1
        p = 1.0 / 100
        sigma = math.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3 * sigma)


# -- candidate cells -------------------------------------------------------------

def listcomp_candidates(grid, free):
    """The valid cells that are set in ``free``, one at a time, as the reference."""
    cells = grid.valid_cells()
    return cells[np.array([bool(free[u, v]) for u, v in cells], dtype=bool)]


class FixedRng:
    """Stands in for a Generator whose next ``integers(n)`` returns ``i``."""

    def __init__(self, i):
        self.i = i
        self.n = None

    def integers(self, n):
        self.n = int(n)
        return self.i


def flat_gp():
    """A GP whose samples lie so far off the grid that every grid cell has
    the same posterior, so every candidate ties on EI."""
    return gp_fit([StiffnessSample((1000, 1000), 300.0),
                   StiffnessSample((1000, 1010), 500.0)], GPHyper())


def flat_bo(grid, free, rng):
    return next_cell_bo(flat_gp(), grid, free, Acquisition(0.0, 500.0), rng)


@st.composite
def grids_and_free(draw):
    """A grid and a free mask of its shape, which may be set on invalid cells."""
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    masks = st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny).map(
        lambda f: np.array(f, dtype=bool).reshape(nx, ny))
    mask = draw(masks)
    assume(mask.any())
    return make_grid(nx, ny, mask), draw(masks)


class TestCandidates:
    """Both selectors draw from the listcomp's cells, in its row-major order."""

    def _picks(self, select, grid, free):
        ref = listcomp_candidates(grid, free)
        if ref.shape[0] == 0:
            with pytest.raises(Exhausted):
                select(grid, free, FixedRng(0))
            return
        for i in range(ref.shape[0]):
            rng = FixedRng(i)
            assert select(grid, free, rng) == tuple(int(c) for c in ref[i])
            assert rng.n == ref.shape[0]

    @settings(max_examples=150, deadline=None)
    @given(case=grids_and_free())
    def test_random_matches_listcomp(self, case):
        self._picks(next_cell_random, *case)

    @settings(max_examples=60, deadline=None)
    @given(case=grids_and_free())
    def test_bo_matches_listcomp(self, case):
        self._picks(flat_bo, *case)

    def test_flat_gp_ties_everywhere(self):
        mu, var = flat_gp().predict_grid(make_grid(5, 5))
        assert np.all(mu == 400.0) and np.all(var == GPHyper().signal_var)

    @pytest.mark.parametrize("shape", [(3,), (9,), (2, 3), (3, 4), (3, 3, 1)])
    @pytest.mark.parametrize("select", [next_cell_random, flat_bo])
    def test_mask_of_another_shape_is_an_invalid_cell(self, select, shape):
        with pytest.raises(InvalidCell, match="free mask has shape"):
            select(make_grid(3, 3), np.ones(shape, dtype=bool), FixedRng(0))

    @pytest.mark.parametrize("dtype", [int, float])
    @pytest.mark.parametrize("select", [next_cell_random, flat_bo])
    def test_mask_that_is_not_bool_is_an_invalid_cell(self, select, dtype):
        # an integer mask would index the valid cells by position, not by flag
        with pytest.raises(InvalidCell, match="free mask has dtype"):
            select(make_grid(3, 3), np.ones((3, 3), dtype=dtype), FixedRng(0))

    @pytest.mark.parametrize("select", [next_cell_random, flat_bo])
    def test_free_invalid_cell_is_never_picked(self, select):
        mask = np.ones((3, 3), dtype=bool)
        mask[0, :] = mask[:, 2] = False
        grid = make_grid(3, 3, mask)
        picks = set()
        for i in range(4):
            rng = FixedRng(i)
            picks.add(select(grid, np.ones((3, 3), dtype=bool), rng))
            assert rng.n == 4
        assert picks == {(1, 0), (1, 1), (2, 0), (2, 1)}


# -- the growing posterior against a dense solve ---------------------------------

hypers = st.builds(
    lambda ls, sv, ratio: GPHyper(length_scale=ls, signal_var=sv, noise_var=sv * ratio),
    st.floats(0.5, 5.0), st.floats(1e2, 1e5), st.floats(1e-3, 1.0))
# cells run off the 8 x 8 grid on both sides; a run samples each cell once
sample_lists = st.lists(
    st.builds(StiffnessSample, st.tuples(st.integers(-3, 10), st.integers(-3, 10)),
              st.floats(0.0, 2000.0)),
    min_size=1, max_size=30, unique_by=lambda s: s.cell)
masks = st.lists(st.booleans(), min_size=64, max_size=64).map(
    lambda f: np.array(f, dtype=bool).reshape(8, 8)).filter(np.any)


def dense_ei(mu, var, best_k, xi):
    sigma = np.sqrt(var)
    imp = mu - best_k - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = imp / sigma
        ei = imp * ndtr(z) + sigma * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    return np.where(sigma > 0, np.maximum(ei, 0.0), np.maximum(imp, 0.0))


class TestGrowingPosterior:
    @settings(max_examples=150, deadline=None)
    @given(samples=sample_lists, hyper=hypers, mask=masks)
    def test_matches_dense_solve(self, samples, hyper, mask):
        grid = make_grid(8, 8, mask)
        gp = gp_fit(samples, hyper)
        mu_o, var_o = dense_gp_oracle(samples, hyper, grid.valid_cells())
        scale = max(1.0, max(abs(s.k) for s in samples))
        for mu, var in (gp.predict_grid(grid), gp.predict_many(grid.valid_cells())):
            assert np.all(np.abs(mu - mu_o) <= 1e-9 * scale)
            assert np.all(np.abs(var - var_o) <= 1e-9 * hyper.signal_var)

    @settings(max_examples=100, deadline=None)
    @given(samples=sample_lists, hyper=hypers, mask=masks, data=st.data())
    def test_adds_scan_like_a_fit(self, samples, hyper, mask, data):
        grid = make_grid(8, 8, mask)
        first = data.draw(st.integers(1, len(samples)), label="fitted")
        gp = gp_fit(samples[:first], hyper)
        gp.predict_grid(grid)
        for s in samples[first:]:
            gp.add(s)
            if data.draw(st.booleans(), label="scan"):
                gp.predict_grid(grid)
            if data.draw(st.booleans(), label="other grid"):
                gp.predict_grid(make_grid(3, 9))
        mu, var = gp.predict_grid(grid)
        fit = gp_fit(samples, hyper)
        mu_f, var_f = fit.predict_grid(grid)
        assert np.array_equal(mu, mu_f) and np.array_equal(var, var_f)
        assert np.array_equal(gp.x, fit.x) and np.array_equal(gp.y, fit.y)
        mu_m, var_m = gp.predict_many(grid.valid_cells())
        assert mu_m.tobytes() == mu.tobytes() and var_m.tobytes() == var.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(samples=sample_lists, hyper=hypers, mask=masks, xi=st.floats(0.0, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_pick_reaches_the_dense_ei_maximum(self, samples, hyper, mask, xi, seed):
        grid = make_grid(8, 8, mask)
        gp = gp_fit(samples, hyper)
        assume(gp.n >= 2)
        free = free_of(grid, [s.cell for s in samples])
        acq = Acquisition(xi=xi, best_k=max(s.k for s in samples))
        cand = listcomp_candidates(grid, free)
        rng = np.random.default_rng(seed)
        if cand.shape[0] == 0:
            with pytest.raises(Exhausted):
                next_cell_bo(gp, grid, free, acq, rng)
            return
        pick = next_cell_bo(gp, grid, free, acq, rng)
        mu, var = dense_gp_oracle(samples, hyper, cand)
        ei = dense_ei(mu, var, acq.best_k, xi)
        mine = ei[np.flatnonzero((cand == pick).all(axis=1))[0]]
        assert mine >= ei.max() - 1e-6 * max(1.0, ei.max())


def gp_state(gp, grid) -> list[bytes]:
    """The bytes of the model's cells, stiffness and both predictions on ``grid``."""
    arrays = [gp.x, gp.y, *gp.predict_many(grid.valid_cells()), *gp.predict_grid(grid)]
    return [a.tobytes() for a in arrays]


def test_invalid_cell_prints_its_message_as_given():
    exc = InvalidCell("cell (1, 1) is already sampled")
    assert isinstance(exc, KeyError)
    assert str(exc) == "cell (1, 1) is already sampled"


class TestGPModel:
    @pytest.mark.parametrize("cell", [(1, 1), (np.int64(1), np.int64(1))])
    def test_repeated_cell_is_an_invalid_cell_and_changes_nothing(self, cell):
        grid = make_grid(6, 6)
        gp = gp_fit([StiffnessSample((1, 1), 300.0), StiffnessSample((4, 2), 500.0)])
        before = gp_state(gp, grid)
        with pytest.raises(InvalidCell, match=r"cell \(1, 1\) is already sampled"):
            gp.add(StiffnessSample(cell, 400.0))
        assert gp.n == 2
        assert gp_state(gp, grid) == before

    def test_singular_kernel_is_raised_by_the_add_that_makes_it(self):
        grid = make_grid(3, 3)
        gp = GPModel(GPHyper(length_scale=1e9, signal_var=1e8, noise_var=0.0))
        gp.add(StiffnessSample((0, 0), 300.0))
        before = gp_state(gp, grid)
        with pytest.raises(SingularKernel, match=r"not positive definite at cell \(0, 1\)"):
            gp.add(StiffnessSample((0, 1), 500.0))
        assert gp.n == 1
        assert gp_state(gp, grid) == before

    def test_grid_arrays_are_read_only_copies(self):
        # the scan cache is keyed on the grid object, so its arrays must not change
        height, normal = np.zeros((4, 4)), np.zeros((4, 4, 3))
        normal[..., 2] = 1.0
        mask = np.ones((4, 4), dtype=bool)
        grid = SurfaceGrid((0.0, 0.0), 0.002, 0.002, height, normal, mask)
        for name in ("height", "normal", "valid_mask"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid, name)[0, 0] = 0
        height[1, 1], normal[1, 1], mask[1, 1] = 5.0, (0.0, 0.0, 2.0), False
        assert grid.cell_point(1, 1)[2] == grid.sample_height(0.002, 0.002) == 0.0
        assert grid.normal[1, 1].tolist() == [0.0, 0.0, 1.0] and grid.valid_mask.all()

    def test_empty_model_cannot_predict(self):
        with pytest.raises(Empty):
            GPModel(GPHyper()).predict_grid(make_grid(2, 2))

    @settings(max_examples=60, deadline=None)
    @given(samples=sample_lists, hyper=hypers, data=st.data())
    def test_x_and_y_are_read_only_and_grow_like_a_fit(self, samples, hyper, data):
        first = data.draw(st.integers(1, len(samples)), label="fitted")
        gp = gp_fit(samples[:first], hyper)
        for s in samples[first:]:
            x, y = gp.x, gp.y
            with pytest.raises(ValueError, match="read-only"):
                x[0, 0] = 99.0
            with pytest.raises(ValueError, match="read-only"):
                y[0] = 99.0
            gp.add(s)
        fit = gp_fit(samples, hyper)
        assert gp.x.tobytes() == fit.x.tobytes() and gp.y.tobytes() == fit.y.tobytes()
        assert gp.x.shape == (len(samples), 2) and gp.y.shape == (len(samples),)
        assert not gp.x.flags.writeable and not gp.y.flags.writeable


# -- each primitive of the BO pick against the one it replaced, by bytes --------

@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 90), hyper=hypers, seed=st.integers(0, 2**32 - 1))
def test_solve_lower_gives_solve_triangulars_bytes(n, hyper, seed):
    rng = np.random.default_rng(seed)
    flat = rng.choice(40 * 40, size=n, replace=False)
    gp = gp_fit([StiffnessSample((int(c // 40), int(c % 40)), float(k))
                 for c, k in zip(flat, rng.uniform(0.0, 2000.0, n))], hyper)
    chol = gp._chol
    for b in (rng.standard_normal(n) * 1e3, gp.y - gp.y.mean()):
        want = solve_triangular(chol, b, lower=True, check_finite=False)
        assert _solve_lower(chol, b).tobytes() == want.tobytes()


def masked_ei(mu, sigma, best_k, xi):
    """``_ei`` as it was before its unmasked path: every array goes through the mask."""
    imp = mu - best_k - xi
    out = np.maximum(imp, 0.0)
    pos = sigma > 1e-300
    if np.any(pos):
        z = imp[pos] / sigma[pos]
        out[pos] = imp[pos] * ndtr(z) + sigma[pos] * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    return np.maximum(out, 0.0)


TINY_SIGMAS = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, math.nextafter(1e-300, 1.0)]


@settings(max_examples=300, deadline=None)
@example(pairs=[(500.0, 0.0), (400.0, 1.0)], best_k=500.0, xi=0.0)  # imp = sigma = 0
@given(pairs=st.lists(st.tuples(st.floats(-5e3, 5e3),
                                st.sampled_from(TINY_SIGMAS) | st.floats(1e-300, 1e3)),
                      max_size=40),
       best_k=st.floats(0.0, 2e3), xi=st.floats(0.0, 10.0))
def test_ei_gives_the_masked_bytes(pairs, best_k, xi):
    mu = np.array([p[0] for p in pairs], dtype=float)
    sigma = np.array([p[1] for p in pairs], dtype=float)
    pos = sigma > 1e-300  # the cells where the whole-array formula runs
    with np.errstate(over="ignore"):  # z * z overflows for the tiniest sigmas
        got = _ei(mu, sigma, best_k, xi)
        assert got.tobytes() == masked_ei(mu, sigma, best_k, xi).tobytes()
        assert _ei(mu[pos], sigma[pos], best_k, xi).tobytes() == got[pos].tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nth_cell_is_the_argwhere_row(data):
    nx = data.draw(st.integers(1, 9), label="nx")
    ny = data.draw(st.integers(1, 9).filter(lambda n: n != nx), label="ny")
    free = np.array(data.draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny)),
                    dtype=bool).reshape(nx, ny)
    cells = np.argwhere(free)
    assert [_nth_cell(free, k) for k in range(len(cells))] == [tuple(c) for c in cells.tolist()]
    assert all(type(i) is int for k in range(len(cells)) for i in _nth_cell(free, k))


def run_child(code: str, *args: str, **env: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports this
    palpsim, with ``env`` added to the child's environment only."""
    src = str(Path(palpsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path, **env})
    assert done.returncode == 0, done.stderr
    return done.stdout


SINGLE_THREAD_PRODUCTS = """
import sys
import numpy as np
pairs = np.load(sys.argv[1])
np.savez(sys.argv[2], *[pairs[f"a{i}"] @ pairs[f"b{i}"] for i in range(len(pairs.files) // 2)])
"""

SINGLE_THREAD_SCAN = """
import pickle, sys
import numpy as np
gp, grid = pickle.loads(open(sys.argv[1], "rb").read())
np.savez(sys.argv[2], *gp.predict_grid(grid))
"""

# CPU of every thread but the main one, in ns, around one 80-pick BO trial.
HELPER_CPU_OF_A_BO_TRIAL = """
import os, time
from dataclasses import replace
from palpsim import default_config, run_experiment

def helper_ns():
    main, total = str(os.getpid()), 0
    for tid in os.listdir("/proc/self/task"):
        if tid != main:
            with open(f"/proc/self/task/{tid}/schedstat") as f:
                total += int(f.read().split()[0])
    return total

cfg = default_config("crescent", "bo", "discrete", seed=7, trials=1, budget=80)
before = helper_ns()
run_experiment(replace(cfg, grid_dx=0.0005, grid_dy=0.0005), None, verbose=False)
time.sleep(0.2)  # let a woken helper finish its spin before reading it
print(helper_ns() - before)
"""

# The two runs of ``test_golden.py``, as the JSON of its digest file.
GOLDEN_RUNS = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_golden import bo_fine_grid_picks, matrix_digests
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps({"matrix": matrix_digests(Path(tmp)), "bo_fine_grid": bo_fine_grid_picks()}))
"""


class TestBlasThreads:
    """The scan's products stay under OpenBLAS's gemv threading cutoff, so
    they give one-thread bits and wake no helper thread."""

    def test_vecmat_matches_one_blas_thread(self, tmp_path, monkeypatch):
        cut = _GEMV_THREAD_CUTOFF
        shapes = [(80, cut // 80 - 1), (80, cut // 80), (80, cut // 80 + 1), (77, 6001),
                  (80, 6001), (44, 12345), (150, 6003), (300, cut // 300 + 1), (300, 6001)]
        rng = np.random.default_rng(15)
        pairs = [(rng.standard_normal(n), rng.standard_normal((n, m))) for n, m in shapes]
        np.savez(tmp_path / "pairs.npz", **{f"{k}{i}": x for i, pair in enumerate(pairs)
                                             for k, x in zip("ab", pair)})
        run_child(SINGLE_THREAD_PRODUCTS, str(tmp_path / "pairs.npz"), str(tmp_path / "out.npz"),
                  OPENBLAS_NUM_THREADS="1")
        want = np.load(tmp_path / "out.npz")

        blocks = []
        matmul = np.matmul

        def spy(a, b, **kw):
            blocks.append(b.shape)
            return matmul(a, b, **kw)

        monkeypatch.setattr(np, "matmul", spy)
        for i, ((a, b), (n, m)) in enumerate(zip(pairs, shapes)):
            blocks.clear()
            assert _vecmat(a, b).tobytes() == want[f"arr_{i}"].tobytes(), (n, m)
            assert all(bn * bm < cut for bn, bm in blocks), blocks
            assert len(blocks) > 1 if n * m >= cut else blocks == [(n, m)]

    def test_scan_does_not_depend_on_the_thread_count(self, tmp_path):
        mask = (np.arange(78 * 78) < 6001).reshape(78, 78)
        grid = make_grid(78, 78, mask)
        rng = np.random.default_rng(15)
        cells = grid.valid_cells()[rng.choice(6001, size=80, replace=False)]
        # 10-cell length scale: every cell sums many samples' terms, so a
        # product reassociated at a thread split shows in the last bits
        gp = GPModel(GPHyper(length_scale=10.0))
        for (u, v), k in zip(cells, rng.uniform(200.0, 2000.0, size=80)):
            gp.add(StiffnessSample((int(u), int(v)), float(k)))
        (tmp_path / "gp.pkl").write_bytes(pickle.dumps((gp, grid)))
        run_child(SINGLE_THREAD_SCAN, str(tmp_path / "gp.pkl"), str(tmp_path / "out.npz"),
                  OPENBLAS_NUM_THREADS="1")
        want = np.load(tmp_path / "out.npz")
        mu, var = gp.predict_grid(grid)
        assert mu.tobytes() == want["arr_0"].tobytes()
        assert var.tobytes() == want["arr_1"].tobytes()

    def test_golden_runs_match_with_one_blas_thread(self):
        tests = Path(__file__).parent
        recorded = json.loads((tests / "golden_digests.json").read_text())
        got = json.loads(run_child(GOLDEN_RUNS, str(tests), OPENBLAS_NUM_THREADS="1"))
        assert got["matrix"] == recorded["matrix"]
        assert got["bo_fine_grid"] == recorded["bo_fine_grid"]

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir() or os.cpu_count() == 1,
                        reason="needs /proc/self/task and more than one core")
    def test_bo_trial_wakes_no_blas_helper(self):
        helper_ms = int(run_child(HELPER_CPU_OF_A_BO_TRIAL)) / 1e6
        assert helper_ms < 10.0
