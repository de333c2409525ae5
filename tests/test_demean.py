import functools
import importlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fehd.bench import DgpConfig, simulate_panel
from fehd.data import FactorIndex, first_appearance_codes
from fehd.demean import (PIVOT_RTOL, DemeanError, DemeanProblem, FactorRecord, FeDim, FeStructure,
                         _DimWork, column_drops, demean, recover_fixef)
from fehd.estimators import build_frame
from fehd.formula import expand_models, parse_formula

from oracles import dummy_ols, dummy_residualize


def fidx(codes):
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.max() + 1
    return FactorIndex(codes, int(n))


def random_two_fe(rng, n=180, g1=9, g2=6):
    c1, _ = first_appearance_codes(rng.integers(0, g1, n))
    c2, _ = first_appearance_codes(rng.integers(0, g2, n))
    y = rng.normal(size=n) + rng.normal(size=g1)[c1] + rng.normal(size=g2)[c2]
    return y, c1, c2


class TestSweep:
    def test_group_means_one_fe(self):
        res = demean(DemeanProblem(targets=np.array([1.0, 2, 3, 4]),
                                   dims=[FeDim(fidx([0, 0, 1, 1]))]))
        assert np.allclose(res.residuals.ravel(), [-0.5, 0.5, -0.5, 0.5])
        assert np.allclose(res.fe_coef[0][:, 0, 0], [1.5, 3.5])
        assert res.converged and res.sweeps == 1 and res.iterations == 0

    def test_two_fe_additive_exact(self):
        problem = DemeanProblem(targets=np.array([1.0, 2, 3, 4]),
                                dims=[FeDim(fidx([0, 0, 1, 1])), FeDim(fidx([0, 1, 0, 1]))])
        res = demean(problem)
        assert np.allclose(res.residuals, 0.0, atol=1e-12)

    def test_degenerate_slope_group_dropped(self):
        # group 1's slope column is identically zero -> its coefficient is dropped
        codes = np.array([0, 0, 1, 1])
        z = np.array([[1.0], [2.0], [0.0], [0.0]])
        problem = DemeanProblem(targets=np.array([1.0, 2, 3, 4]),
                                dims=[FeDim(fidx(codes), slopes=z, intercept=True)])
        res = demean(problem)
        assert (0, 1, 1) in res.dropped
        # group 1 still gets its intercept: residuals demeaned within the group
        assert np.allclose(res.residuals[2:, 0], [-0.5, 0.5])


class TestColumnDrops:
    def test_matches_numpy_solve(self, rng):
        G, L = 40, 3
        n = G * 5
        codes = np.repeat(np.arange(G), 5)
        z = rng.normal(size=(n, L - 1))
        work = _DimWork(FeDim(fidx(codes), slopes=z), None, n)
        assert not work.dropped.any()
        c = rng.normal(size=G * L)
        x = work.solve(c).reshape(G, L)
        expected = np.stack([np.linalg.solve(work.M[g], c.reshape(G, L)[g])
                             for g in range(G)])
        assert np.allclose(x, expected, atol=1e-10)

    def test_singular_column_dropped(self):
        # one group of two rows whose slope is zero: M = [[2, 0], [0, 0]]
        codes = np.array([0, 0])
        work = _DimWork(FeDim(fidx(codes), slopes=np.zeros((2, 1))), None, 2)
        assert np.array_equal(work.M[0], [[2.0, 0.0], [0.0, 0.0]])
        dropped = column_drops(work.M, PIVOT_RTOL)
        assert dropped[0, 1] and not dropped[0, 0]
        assert np.array_equal(dropped, work.dropped)
        x = work.solve(np.array([4.0, 1.0]))
        assert np.allclose(x, [2.0, 0.0])

    def test_later_of_two_collinear_columns_dropped(self):
        M = np.array([[[1.0, 2.0], [2.0, 4.0]], [[4.0, 2.0], [2.0, 1.0]]])
        assert column_drops(M, PIVOT_RTOL).tolist() == [[False, True], [False, True]]

    def test_scale_floors_the_threshold(self):
        # a pivot of 1e-3 survives its own diagonal but not a scale of 1e9
        M = np.array([[[1.0, 0.0], [0.0, 1e-3]]])
        assert not column_drops(M, 1e-10).any()
        assert column_drops(M, 1e-10, np.array([[1.0, 1e9]]))[0].tolist() == [False, True]


class TestPlainMode:
    def test_matches_plain_iteration_fixed_point(self, rng):
        y, c1, c2 = random_two_fe(rng)
        dims = lambda: [FeDim(fidx(c1)), FeDim(fidx(c2))]
        acc = demean(DemeanProblem(targets=y, dims=dims(), tol=1e-12))
        plain = demean(DemeanProblem(targets=y, dims=dims(), tol=1e-12), accelerate=False)
        assert np.allclose(acc.residuals, plain.residuals, atol=1e-10)


class TestDemean:
    def test_balanced_two_way_one_iteration(self, rng):
        NI, NT = 25, 8
        c1 = np.repeat(np.arange(NI), NT)
        c2 = np.tile(np.arange(NT), NI)
        y = rng.normal(size=NI * NT)
        res = demean(DemeanProblem(targets=y, dims=[FeDim(fidx(c1)), FeDim(fidx(c2))]))
        assert res.converged and res.iterations == 1

    def test_single_fe_no_iteration(self, rng):
        res = demean(DemeanProblem(targets=rng.normal(size=50),
                                   dims=[FeDim(fidx(np.arange(50) % 7))]))
        assert res.iterations == 0 and res.converged

    def test_non_convergence_flagged(self, rng):
        y, c1, c2 = random_two_fe(rng)
        res = demean(DemeanProblem(targets=y, dims=[FeDim(fidx(c1)), FeDim(fidx(c2))],
                                   tol=1e-14, max_iter=2))
        assert not res.converged

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.inf, -np.inf, np.nan])
    def test_problem_rejects_an_unusable_tol(self, tol):
        with pytest.raises(DemeanError, match="demeaning tol must be finite and > 0"):
            DemeanProblem(targets=np.zeros(4), dims=[FeDim(fidx([0, 0, 1, 1]))], tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_problem_rejects_an_unusable_max_iter(self, max_iter):
        with pytest.raises(DemeanError, match="demeaning max_iter must be >= 1"):
            DemeanProblem(targets=np.zeros(4), dims=[FeDim(fidx([0, 0, 1, 1]))],
                          max_iter=max_iter)
        # no FE dimension: nothing to iterate, but the option is as unusable
        with pytest.raises(DemeanError, match="demeaning max_iter must be >= 1"):
            DemeanProblem(targets=np.zeros(4), dims=[], max_iter=max_iter)

    def test_orthogonality_to_fe_columns(self, rng):
        y, c1, c2 = random_two_fe(rng)
        w = rng.uniform(0.5, 2.0, len(y))
        res = demean(DemeanProblem(targets=y, dims=[FeDim(fidx(c1)), FeDim(fidx(c2))],
                                   weights=w, tol=1e-12))
        r = res.residuals[:, 0]
        scale = 1e-8 * np.linalg.norm(y)
        for codes in (c1, c2):
            sums = np.bincount(codes, weights=w * r)
            assert np.abs(sums).max() < scale

    def test_idempotent(self, rng):
        y, c1, c2 = random_two_fe(rng)
        dims = lambda: [FeDim(fidx(c1)), FeDim(fidx(c2))]
        once = demean(DemeanProblem(targets=y, dims=dims(), tol=1e-12))
        twice = demean(DemeanProblem(targets=once.residuals[:, 0], dims=dims(), tol=1e-12))
        assert np.allclose(twice.residuals, once.residuals, atol=1e-9)

    def test_weight_invariance_under_constant_weights(self, rng):
        y, c1, c2 = random_two_fe(rng)
        dims = lambda: [FeDim(fidx(c1)), FeDim(fidx(c2))]
        plain = demean(DemeanProblem(targets=y, dims=dims(), tol=1e-12))
        weighted = demean(DemeanProblem(targets=y, dims=dims(), tol=1e-12,
                                        weights=np.full(len(y), 2.5)))
        assert np.allclose(plain.residuals, weighted.residuals, atol=1e-12)

    def test_matches_dummy_oracle_with_slopes(self, rng):
        n = 150
        c1, _ = first_appearance_codes(rng.integers(0, 8, n))
        c2, _ = first_appearance_codes(rng.integers(0, 5, n))
        z = rng.normal(size=(n, 1))
        y = rng.normal(size=n)
        dims = [FeDim(fidx(c1), slopes=z, intercept=True), FeDim(fidx(c2))]
        res = demean(DemeanProblem(targets=y, dims=dims, tol=1e-13))
        fe_specs = [(c1, 8, z, True), (c2, 5, None, True)]
        oracle = dummy_residualize(y[:, None], fe_specs)
        assert np.allclose(res.residuals, oracle, atol=1e-8)

    def test_batch_matches_per_column_runs(self, rng):
        y1, c1, c2 = random_two_fe(rng)
        y2 = rng.normal(size=len(y1))
        dims = lambda: [FeDim(fidx(c1)), FeDim(fidx(c2))]
        both = demean(DemeanProblem(targets=np.column_stack([y1, y2]), dims=dims()))
        solo1 = demean(DemeanProblem(targets=y1, dims=dims()))
        solo2 = demean(DemeanProblem(targets=y2, dims=dims()))
        assert np.array_equal(both.residuals[:, 0], solo1.residuals[:, 0])
        assert np.array_equal(both.residuals[:, 1], solo2.residuals[:, 0])



def chain_two_fe(rng, n=600, g1=60, g2=12):
    """Two FE whose bipartite graph is a chain: slow for plain alternation."""
    c1 = np.arange(n) % g1
    c2 = (c1 * g2) // g1
    c2 = np.where(rng.uniform(size=n) < 0.1, (c2 + 1) % g2, c2)
    y = rng.normal(size=n) + rng.normal(size=g1)[c1] + rng.normal(size=g2)[c2]
    return y, c1, c2


class TestTwoFeConjugateGradient:
    def test_weighted_matches_dummy_oracle(self, rng):
        y, c1, c2 = chain_two_fe(rng)
        w = rng.uniform(0.5, 2.0, len(y))
        res = demean(DemeanProblem(targets=y, dims=[FeDim(fidx(c1)), FeDim(fidx(c2))],
                                   weights=w, tol=1e-13))
        oracle = dummy_residualize(y[:, None], [(c1, 60, None, True), (c2, 12, None, True)],
                                   weights=w)
        assert res.converged
        assert np.allclose(res.residuals, oracle, atol=1e-9)

    def test_fewer_sweeps_than_plain_on_chain(self, rng):
        y, c1, c2 = chain_two_fe(rng)
        dims = lambda: [FeDim(fidx(c1)), FeDim(fidx(c2))]
        acc = demean(DemeanProblem(targets=y, dims=dims()))
        plain = demean(DemeanProblem(targets=y, dims=dims()), accelerate=False)
        assert acc.converged and plain.converged
        # at most one sweep per dimension-2 group plus the initial residual
        assert acc.sweeps <= 13 < plain.sweeps
        assert acc.iterations == acc.sweeps - 1

    def test_coefficients_reproduce_residuals(self, rng):
        y, c1, c2 = chain_two_fe(rng)
        res = demean(DemeanProblem(targets=y, dims=[FeDim(fidx(c1)), FeDim(fidx(c2))],
                                   tol=1e-12))
        a, b = res.fe_coef
        fitted = a[c1, 0, 0] + b[c2, 0, 0]
        assert np.allclose(res.residuals[:, 0], y - fitted, atol=1e-10)

    def test_warm_start_at_solution_takes_one_sweep(self, rng):
        y, c1, c2 = chain_two_fe(rng)
        dims = [FeDim(fidx(c1)), FeDim(fidx(c2))]
        structure = FeStructure(dims)  # the warm start: where the last call ended
        cold = demean(DemeanProblem(targets=y, dims=dims, tol=1e-12), structure=structure)
        warm = demean(DemeanProblem(targets=y, dims=dims, tol=1e-8), structure=structure)
        assert warm.converged and warm.sweeps == 1 and warm.iterations == 0
        assert np.allclose(warm.residuals, cold.residuals, atol=1e-12)

    def test_disconnected_weighted_chain_matches_dummy_oracle(self, rng):
        y1, a1, b1 = chain_two_fe(rng)
        y2, a2, b2 = chain_two_fe(rng)
        y = np.concatenate([y1, y2])
        c1 = np.concatenate([a1, a2 + 60])
        c2 = np.concatenate([b1, b2 + 12])
        w = rng.uniform(0.5, 2.0, len(y))
        res = demean(DemeanProblem(targets=y, dims=[FeDim(fidx(c1)), FeDim(fidx(c2))],
                                   weights=w, tol=1e-13))
        oracle = dummy_residualize(y[:, None], [(c1, 120, None, True), (c2, 24, None, True)],
                                   weights=w)
        assert res.converged
        assert np.allclose(res.residuals, oracle, atol=1e-9)
        a, b = res.fe_coef
        assert np.allclose(res.residuals[:, 0], y - a[c1, 0, 0] - b[c2, 0, 0], atol=1e-10)

    def test_row_order_does_not_change_residuals(self, rng):
        y, c1, c2 = chain_two_fe(rng)
        perm = rng.permutation(len(y))
        dims = lambda order: [FeDim(fidx(c1[order])), FeDim(fidx(c2[order]))]
        ident = np.arange(len(y))
        base = demean(DemeanProblem(targets=y, dims=dims(ident), tol=1e-12))
        shuffled = demean(DemeanProblem(targets=y[perm], dims=dims(perm), tol=1e-12))
        unshuffled = np.empty_like(shuffled.residuals)
        unshuffled[perm] = shuffled.residuals
        assert np.abs(unshuffled - base.residuals).max() <= 1e-12

def chain_three_fe(rng, n=600, g3=5):
    """The two-FE chain plus a third, year-like dimension crossed with the first."""
    y, c1, c2 = chain_two_fe(rng, n)
    c3 = (np.arange(n) // 60) % g3
    return y + rng.normal(size=g3)[c3], c1, c2, c3


def specs(*dims):
    """Oracle FE specs from (codes, slopes-or-None) pairs, intercepts on."""
    return [(c, int(c.max()) + 1, z, True) for c, z in dims]


class TestConjugateGradientAnyStructure:
    def test_weighted_three_fe_chain_matches_dummy_oracle(self, rng):
        y, c1, c2, c3 = chain_three_fe(rng)
        w = rng.uniform(0.5, 2.0, len(y))
        res = demean(DemeanProblem(targets=y, dims=[FeDim(fidx(c)) for c in (c1, c2, c3)],
                                   weights=w, tol=1e-13))
        oracle = dummy_residualize(y[:, None], specs((c1, None), (c2, None), (c3, None)),
                                   weights=w)
        assert res.converged and not res.dropped
        assert np.allclose(res.residuals, oracle, atol=1e-8)
        a, b, c = res.fe_coef
        fitted = a[c1, 0, 0] + b[c2, 0, 0] + c[c3, 0, 0]
        assert np.allclose(res.residuals[:, 0], y - fitted, atol=1e-10)

    @pytest.mark.parametrize("slope_dim", [0, 1])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_slopes_on_chain_match_dummy_oracle(self, rng, slope_dim, weighted):
        y, c1, c2 = chain_two_fe(rng)
        z = rng.normal(size=(len(y), 1))
        w = rng.uniform(0.5, 2.0, len(y)) if weighted else None
        zs = [z if q == slope_dim else None for q in range(2)]
        dims = [FeDim(fidx(c), slopes=zq) for c, zq in zip((c1, c2), zs)]
        res = demean(DemeanProblem(targets=y, dims=dims, weights=w, tol=1e-13))
        oracle = dummy_residualize(y[:, None], specs((c1, zs[0]), (c2, zs[1])), weights=w)
        assert res.converged and not res.dropped
        assert np.allclose(res.residuals, oracle, atol=1e-8)

    def test_degenerate_slope_group_dropped_in_second_dimension(self, rng):
        y, c1, c2 = chain_two_fe(rng)
        z = rng.normal(size=(len(y), 1))
        z[c2 == 3] = 0.0  # group 3's slope is unidentified
        dims = [FeDim(fidx(c1)), FeDim(fidx(c2), slopes=z), FeDim(fidx(np.arange(len(y)) % 4))]
        res = demean(DemeanProblem(targets=y, dims=dims, tol=1e-13))
        assert res.dropped == [(1, 3, 1)]
        assert res.fe_coef[1][3, 1, 0] == 0.0
        oracle = dummy_residualize(
            y[:, None], specs((c1, None), (c2, z), (np.arange(len(y)) % 4, None)))
        assert res.converged
        assert np.allclose(res.residuals, oracle, atol=1e-8)

    def test_disconnected_three_fe_matches_dummy_oracle(self, rng):
        y1, a1, b1, d1 = chain_three_fe(rng)
        y2, a2, b2, d2 = chain_three_fe(rng)
        y = np.concatenate([y1, y2])
        c1 = np.concatenate([a1, a2 + 60])
        c2 = np.concatenate([b1, b2 + 12])
        c3 = np.concatenate([d1, d2 + 5])
        res = demean(DemeanProblem(targets=y, dims=[FeDim(fidx(c)) for c in (c1, c2, c3)],
                                   tol=1e-13))
        oracle = dummy_residualize(y[:, None], specs((c1, None), (c2, None), (c3, None)))
        assert res.converged
        assert np.allclose(res.residuals, oracle, atol=1e-8)

    def test_three_fe_warm_start_at_solution_takes_one_sweep(self, rng):
        y, c1, c2, c3 = chain_three_fe(rng)
        dims = [FeDim(fidx(c)) for c in (c1, c2, c3)]
        structure = FeStructure(dims)
        cold = demean(DemeanProblem(targets=y, dims=dims, tol=1e-12), structure=structure)
        warm = demean(DemeanProblem(targets=y, dims=dims, tol=1e-8), structure=structure)
        assert cold.sweeps > 1
        assert warm.converged and warm.sweeps == 1 and warm.iterations == 0
        assert np.allclose(warm.residuals, cold.residuals, atol=1e-12)

    @pytest.mark.parametrize("layout", ["3fe", "slopes"])
    def test_batch_matches_per_column_runs(self, rng, layout):
        y1, c1, c2, c3 = chain_three_fe(rng)
        Y = np.column_stack([y1, rng.normal(size=len(y1)), 3.0 * y1])
        z = rng.normal(size=(len(y1), 2))
        w = rng.uniform(0.5, 2.0, len(y1))
        if layout == "3fe":
            dims = lambda: [FeDim(fidx(c)) for c in (c1, c2, c3)]
        else:
            dims = lambda: [FeDim(fidx(c1), slopes=z[:, :1]), FeDim(fidx(c2), slopes=z)]
        both = demean(DemeanProblem(targets=Y, dims=dims(), weights=w))
        for j in range(Y.shape[1]):
            solo = demean(DemeanProblem(targets=Y[:, j], dims=dims(), weights=w))
            assert np.array_equal(both.residuals[:, j], solo.residuals[:, 0])
            for cb, cs in zip(both.fe_coef, solo.fe_coef):
                assert np.array_equal(cb[:, :, j], cs[:, :, 0])

    def test_plain_mode_reaches_the_same_solution(self, rng):
        y, c1, c2, c3 = chain_three_fe(rng)
        z = rng.normal(size=(len(y), 1))
        dims = lambda: [FeDim(fidx(c1)), FeDim(fidx(c2), slopes=z), FeDim(fidx(c3))]
        acc = demean(DemeanProblem(targets=y, dims=dims(), tol=1e-12))
        plain = demean(DemeanProblem(targets=y, dims=dims(), tol=1e-12), accelerate=False)
        assert acc.converged and plain.converged and acc.sweeps < plain.sweeps
        assert np.allclose(acc.residuals, plain.residuals, atol=1e-9)


@pytest.fixture
def switch_at(monkeypatch):
    """Make the switch decision: a column switches to the factored Schur
    complement once it has made k products, or never with k None.

    The nonzero budget is lifted too: these small designs have few
    cross-table entries for the size of A.
    """
    module = importlib.import_module("fehd.demean")

    def switch(k, budget=np.inf):
        monkeypatch.setattr(module, "_factor_pays",
                            lambda ratios, *_: k is not None and len(ratios) > k)
        monkeypatch.setattr(module, "FACTOR_NNZ_BUDGET", budget)
    return switch


def two_chains(rng, make=chain_two_fe):
    """Two disjoint copies of a chain design: a disconnected FE graph."""
    (y1, *c1), (y2, *c2) = make(rng), make(rng)
    offsets = [int(c.max()) + 1 for c in c1]
    codes = [np.concatenate([a, b + o]) for a, b, o in zip(c1, c2, offsets)]
    return np.concatenate([y1, y2]), codes


class TestSchurFactorization:
    """CG restarted on a sparse LU factorization of A, checked against the dense oracle."""

    def test_disconnected_chain_switches(self, rng, switch_at):
        switch_at(2)
        y, (c1, c2) = two_chains(rng)
        res = demean(DemeanProblem(targets=y, dims=[FeDim(fidx(c1)), FeDim(fidx(c2))],
                                   tol=1e-13))
        assert res.converged and res.factor.dim == 24 and res.factor.lu_nnz > 0
        assert res.sweeps <= 2 + 1 + 3  # the factored steps converge at once
        oracle = dummy_residualize(y[:, None], specs((c1, None), (c2, None)))
        assert np.allclose(res.residuals, oracle, atol=1e-8)
        a, b = res.fe_coef
        assert np.allclose(res.residuals[:, 0], y - a[c1, 0, 0] - b[c2, 0, 0], atol=1e-10)

    def test_slope_pivot_drop_switches(self, rng, switch_at):
        switch_at(2)
        y, c1, c2 = chain_two_fe(rng)
        z = rng.normal(size=(len(y), 1))
        z[c2 == 3] = 0.0  # group 3's slope is unidentified
        c3 = np.arange(len(y)) % 4
        dims = [FeDim(fidx(c1)), FeDim(fidx(c2), slopes=z), FeDim(fidx(c3))]
        res = demean(DemeanProblem(targets=y, dims=dims, tol=1e-13))
        assert res.dropped == [(1, 3, 1)] and res.fe_coef[1][3, 1, 0] == 0.0
        assert res.converged and res.factor.dim == 12 * 2 - 1 + 4 and res.factor.lu_nnz > 0
        oracle = dummy_residualize(y[:, None], specs((c1, None), (c2, z), (c3, None)))
        assert np.allclose(res.residuals, oracle, atol=1e-8)

    @pytest.mark.parametrize("layout", ["3fe", "slopes-dim1", "slopes-dim2"])
    def test_weighted_switch_matches_dummy_oracle(self, rng, switch_at, layout):
        switch_at(2)
        y, (c1, c2, c3) = two_chains(rng, chain_three_fe)
        w = rng.uniform(0.5, 2.0, len(y))
        z = rng.normal(size=(len(y), 1))
        pairs = {"3fe": [(c1, None), (c2, None), (c3, None)],
                 "slopes-dim1": [(c1, z), (c2, None)],
                 "slopes-dim2": [(c1, None), (c2, z)]}[layout]
        dims = [FeDim(fidx(c), slopes=zq) for c, zq in pairs]
        res = demean(DemeanProblem(targets=y, dims=dims, weights=w, tol=1e-13))
        assert res.converged and res.factor.lu_nnz > 0 and not res.dropped
        oracle = dummy_residualize(y[:, None], specs(*pairs), weights=w)
        assert np.allclose(res.residuals, oracle, atol=1e-8)

    def test_switch_mid_iteration(self, rng, switch_at):
        y, c1, c2 = chain_two_fe(rng)
        w = rng.uniform(0.5, 2.0, len(y))
        dims = lambda: [FeDim(fidx(c1)), FeDim(fidx(c2))]
        switch_at(None)
        cg = demean(DemeanProblem(targets=y, dims=dims(), weights=w, tol=1e-13))
        switch_at(6)
        res = demean(DemeanProblem(targets=y, dims=dims(), weights=w, tol=1e-13))
        assert cg.factor is None and res.factor.lu_nnz > 0
        assert res.converged and 6 + 1 < res.sweeps < cg.sweeps
        oracle = dummy_residualize(y[:, None], specs((c1, None), (c2, None)), weights=w)
        assert np.allclose(res.residuals, oracle, atol=1e-8)
        assert np.allclose(res.residuals, cg.residuals, atol=1e-10)

    def test_switch_near_the_tolerance_converges_at_once(self, rng, switch_at):
        # by 30 products the residual is close to roundoff, where the shifted
        # factor alone would amplify its null-space part into the step
        switch_at(30)
        for _ in range(5):
            y, (c1, c2, c3) = two_chains(rng, chain_three_fe)
            res = demean(DemeanProblem(targets=y, dims=[FeDim(fidx(c)) for c in (c1, c2, c3)],
                                       tol=1e-13))
            assert res.converged and res.factor.lu_nnz > 0 and res.sweeps <= 30 + 3
            oracle = dummy_residualize(y[:, None], specs((c1, None), (c2, None), (c3, None)))
            assert np.allclose(res.residuals, oracle, atol=1e-8)

    def test_batch_matches_per_column_runs(self, rng, switch_at):
        switch_at(3)
        y, (c1, c2, c3) = two_chains(rng, chain_three_fe)
        # the first column lies in dimension 1's span and stops before the switch
        Y = np.column_stack([rng.normal(size=120)[c1], y, rng.normal(size=len(y)), 3.0 * y])
        w = rng.uniform(0.5, 2.0, len(y))
        dims = lambda: [FeDim(fidx(c)) for c in (c1, c2, c3)]
        both = demean(DemeanProblem(targets=Y, dims=dims(), weights=w, tol=1e-10))
        assert both.converged and both.factor.lu_nnz > 0
        for j in range(Y.shape[1]):
            solo = demean(DemeanProblem(targets=Y[:, j], dims=dims(), weights=w, tol=1e-10))
            assert (solo.factor is None) == (j == 0)
            assert np.array_equal(both.residuals[:, j], solo.residuals[:, 0])
            for cb, cs in zip(both.fe_coef, solo.fe_coef):
                assert np.array_equal(cb[:, :, j], cs[:, :, 0])
        oracle = dummy_residualize(Y, specs((c1, None), (c2, None), (c3, None)), weights=w)
        assert np.allclose(both.residuals, oracle, atol=1e-8)

    def test_batch_matches_per_column_runs_under_the_rule(self, rng, monkeypatch):
        # long chains, where the rule itself switches: the batch switches at
        # the first column's product 1, the single columns later, each
        # restarting from its initial residual
        y, (c1, c2) = two_chains(rng, lambda r: chain_two_fe(r, 10_000, 1_000, 200))
        Y = np.column_stack([rng.normal(size=2_000)[c1], y, rng.normal(size=len(y)), 3.0 * y])
        w = rng.uniform(0.5, 2.0, len(y))
        dims = lambda: [FeDim(fidx(c)) for c in (c1, c2)]
        both = demean(DemeanProblem(targets=Y, dims=dims(), weights=w, tol=1e-10))
        assert both.converged and both.factor.lu_nnz > 0
        switched = []
        for j in range(Y.shape[1]):
            solo = demean(DemeanProblem(targets=Y[:, j], dims=dims(), weights=w, tol=1e-10))
            assert (solo.factor is None) == (j == 0)
            switched.append(solo.factor and solo.factor.switch_at)
            assert np.array_equal(both.residuals[:, j], solo.residuals[:, 0])
            for cb, cs in zip(both.fe_coef, solo.fe_coef):
                assert np.array_equal(cb[:, :, j], cs[:, :, 0])
        assert min(switched[1:]) > both.factor.switch_at
        monkeypatch.setattr(importlib.import_module("fehd.demean"), "_factor_pays",
                            lambda *args: False)
        tight = demean(DemeanProblem(targets=Y, dims=dims(), weights=w, tol=1e-13))
        assert tight.converged and tight.factor is None
        assert np.abs(both.residuals - tight.residuals).max() <= 1e-8

    def test_budget_overrun_stays_on_block_jacobi(self, rng, switch_at):
        y, (c1, c2) = two_chains(rng)
        dims = lambda: [FeDim(fidx(c1)), FeDim(fidx(c2))]
        switch_at(None)
        cg = demean(DemeanProblem(targets=y, dims=dims(), tol=1e-13))
        switch_at(2, budget=1e-3)
        res = demean(DemeanProblem(targets=y, dims=dims(), tol=1e-13))
        assert res.factor.refused and res.factor.lu_nnz == 0 and res.factor.nnz > 0
        assert res.sweeps == cg.sweeps and np.array_equal(res.residuals, cg.residuals)
        oracle = dummy_residualize(y[:, None], specs((c1, None), (c2, None)))
        assert res.converged and np.allclose(res.residuals, oracle, atol=1e-8)

    def test_no_descent_direction_falls_back_to_block_jacobi(self, rng, switch_at,
                                                             monkeypatch):
        switch_at(2)
        record = FactorRecord(dim=12, nnz=0, lu_nnz=1, seconds=0.0, switch_at=2)
        monkeypatch.setattr(importlib.import_module("fehd.demean"), "_factor_schur",
                            lambda *args: (np.zeros_like, record))
        y, c1, c2 = chain_two_fe(rng)
        res = demean(DemeanProblem(targets=y, dims=[FeDim(fidx(c1)), FeDim(fidx(c2))],
                                   tol=1e-13))
        assert res.factor is record and res.converged
        oracle = dummy_residualize(y[:, None], specs((c1, None), (c2, None)))
        assert np.allclose(res.residuals, oracle, atol=1e-8)


def structure_layouts(rng, n=600):
    """(codes, slopes-or-None) per dimension: two intercept dimensions, a
    slope pair (slopes on both dimensions), three dimensions, and three led
    by a 5-group dimension, whose table with the 12-group one has a pair-key
    space under a quarter of its entries (``_cross``'s direct build)."""
    _, c1, c2, c3 = chain_three_fe(rng, n)
    z1, z2 = rng.normal(size=(2, n, 1))
    return {"2fe": [(c1, None), (c2, None)],
            "slopes": [(c1, z1), (c2, np.hstack([z2, z2 ** 2]))],
            "3fe": [(c1, None), (c2, z2), (c3, None)],
            "years": [(c3, None), (c2, None), (c1, z1)]}


def scipy_cross(module, wa, wb, buf):
    """A cross-table through scipy's COO staging, sort and duplicate sum."""
    rows, cols = module._cross_entries(wa, wb)
    return sp.csr_matrix((module._cross_values(wa, wb, buf).ravel(),
                          (rows.ravel(), cols.ravel())), shape=(wa.G * wa.L, wb.G * wb.L))


class TestFeStructure:
    """Cross-tables kept by one fit: built once, refilled per set of weights."""

    @pytest.mark.parametrize("layout", ["2fe", "slopes", "3fe", "years"])
    def test_refilled_tables_match_a_fresh_build(self, rng, layout):
        module = importlib.import_module("fehd.demean")
        pairs = structure_layouts(rng)[layout]
        dims = [FeDim(fidx(c), slopes=z) for c, z in pairs]
        n = len(pairs[0][0])
        buf = np.empty(n)
        structure = module.FeStructure(dims)
        keys = [(a, b) for a in range(len(dims)) for b in range(a + 1, len(dims))]
        for step, w in enumerate([None] + list(rng.uniform(0.01, 5.0, size=(2, n)))):
            works = [module._DimWork(d, w, n) for d in dims]
            for a, b in keys:
                table = structure.cross(a, b, works, buf)
                fresh = module._cross(works[a], works[b], buf)
                assert table is structure.tables[a, b]
                assert np.array_equal(table.indptr, fresh.indptr)
                assert np.array_equal(table.indices, fresh.indices)
                err = np.abs(table.data - fresh.data).max()
                assert err <= 1e-14 * np.abs(fresh.data).max()
            # the first set of weights builds, the later ones refill through the map
            assert sorted(structure.maps) == (keys if step else [])

    @pytest.mark.parametrize("slopes", [(0, 0), (1, 0), (0, 2), (1, 2)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_small_key_table_matches_the_scipy_build(self, rng, slopes, weighted,
                                                     monkeypatch):
        module = importlib.import_module("fehd.demean")
        n = 2000
        dims = [FeDim(fidx(first_appearance_codes(rng.integers(0, g, n))[0]),
                      slopes=rng.normal(size=(n, L)) if L else None)
                for g, L in zip((40, 7), slopes)]
        w = rng.uniform(0.01, 5.0, n) if weighted else None
        wa, wb = (module._DimWork(d, w, n) for d in dims)
        buf = np.empty(n)
        assert 4 * wa.G * wa.L * wb.G * wb.L <= n * wa.L * wb.L  # the direct build
        ref = scipy_cross(module, wa, wb, buf)
        staged, real = [], sp.csr_matrix

        def csr_matrix(arg, **kw):
            staged.append(isinstance(arg[1], tuple))  # (data, (rows, cols)): COO staging
            return real(arg, **kw)
        monkeypatch.setattr(sp, "csr_matrix", csr_matrix)
        table = module._cross(wa, wb, buf)
        monkeypatch.undo()
        assert staged == [False]
        assert table.has_canonical_format
        assert table.indices.dtype == table.indptr.dtype == np.int32
        assert np.array_equal(table.indptr, ref.indptr)
        assert np.array_equal(table.indices, ref.indices)
        if weighted or any(slopes):
            assert np.abs(table.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()
        else:  # counts
            assert np.array_equal(table.data, ref.data)

    @pytest.mark.parametrize("layout", ["2fe", "slopes", "3fe", "years"])
    def test_single_weight_demean_builds_no_map(self, rng, layout, monkeypatch):
        module = importlib.import_module("fehd.demean")

        def no_map(*args):
            raise AssertionError("a single-weight demean call built a row -> entry map")
        monkeypatch.setattr(module, "_entry_map", no_map)
        pairs = structure_layouts(rng)[layout]
        dims = [FeDim(fidx(c), slopes=z) for c, z in pairs]
        y = rng.normal(size=(len(pairs[0][0]), 2))
        w = rng.uniform(0.5, 2.0, len(y))
        for weights in (None, w):
            res = demean(DemeanProblem(targets=y, dims=dims, weights=weights, tol=1e-10))
            assert res.converged
        structure = module.FeStructure(dims)
        demean(DemeanProblem(targets=y, dims=dims, weights=w), structure=structure)
        assert structure.tables and not structure.maps

    def test_refilled_demean_matches_a_fresh_one(self, rng):
        pairs = structure_layouts(rng)["3fe"]
        dims = [FeDim(fidx(c), slopes=z) for c, z in pairs]
        y = rng.normal(size=len(pairs[0][0]))
        structure = importlib.import_module("fehd.demean").FeStructure(dims)
        for w in rng.uniform(0.5, 2.0, size=(3, len(y))):
            kept = demean(DemeanProblem(targets=y, dims=dims, weights=w, tol=1e-13),
                          structure=structure)
            fresh = demean(DemeanProblem(targets=y, dims=dims, weights=w, tol=1e-13))
            assert kept.converged and fresh.converged
            assert np.abs(kept.residuals - fresh.residuals).max() <= 1e-11
        assert structure.maps

    def test_structure_of_other_dimensions_rejected(self, rng):
        module = importlib.import_module("fehd.demean")
        y, c1, c2 = chain_two_fe(rng)
        structure = module.FeStructure([FeDim(fidx(c1)), FeDim(fidx(c2))])
        with pytest.raises(module.DemeanError, match="other dimensions"):
            demean(DemeanProblem(targets=y, dims=[FeDim(fidx(c1)), FeDim(fidx(c2))]),
                   structure=structure)


@pytest.mark.parametrize("dense_cols", [0, 8, 10**6])
@pytest.mark.parametrize("order", ["year last", "year first"])
def test_schur_matrix_matches_the_dense_formula(rng, monkeypatch, dense_cols, order):
    # A = K - C1' M1^+ C1 from the dummy designs; dense_cols 8 makes only the
    # 5-group dimension dense, so both mixed blocks are formed
    module = importlib.import_module("fehd.demean")
    monkeypatch.setattr(module, "DENSE_COLS", dense_cols)
    pairs = structure_layouts(rng)["3fe"]
    if order == "year first":
        pairs = [pairs[0], pairs[2], pairs[1]]
    dims = [FeDim(fidx(c), slopes=z) for c, z in pairs]
    n = len(pairs[0][0])
    w = rng.uniform(0.5, 2.0, n)
    works = [module._DimWork(d, w, n) for d in dims]
    structure = module.FeStructure(dims)
    buf = np.empty(n)
    C1 = [structure.cross(0, q, works, buf) for q in range(1, 3)]
    K = [(0, 1, structure.cross(1, 2, works, buf))]
    A = module._schur_matrix(works[0], works[1:], C1, K)
    D = [d.design(n) for d in dims]
    dummies = [np.hstack([np.equal.outer(c, np.arange(c.max() + 1)) * Z[:, [k]]
                          for k in range(Z.shape[1])])
               for (c, _), Z in zip(pairs, D)]
    # columns group-major, as the solver lays them out
    dummies = [X.reshape(n, Z.shape[1], -1).transpose(0, 2, 1).reshape(n, -1)
               for X, Z in zip(dummies, D)]
    D1, Dr = dummies[0], np.hstack(dummies[1:])
    C = D1.T @ (w[:, None] * Dr)
    dense = Dr.T @ (w[:, None] * Dr) - C.T @ np.linalg.pinv(D1.T @ (w[:, None] * D1)) @ C
    assert np.abs(A.toarray() - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("dense_cols", [0, 8])
@pytest.mark.parametrize("layout", ["2fe", "slopes", "3fe"])
def test_nnz_estimate_of_every_row_is_exact(rng, monkeypatch, layout, dense_cols):
    # sampling every row of A counts its pattern exactly; a block that
    # touches a dense dimension (dense_cols 8: the 5-group one) counts whole.
    # Random weights: unweighted, some entries of these designs cancel exactly
    module = importlib.import_module("fehd.demean")
    monkeypatch.setattr(module, "DENSE_COLS", dense_cols)
    monkeypatch.setattr(module, "FACTOR_SAMPLE", 10**6)
    pairs = structure_layouts(rng)[layout]
    dims = [FeDim(fidx(c), slopes=z) for c, z in pairs]
    n = len(pairs[0][0])
    w = rng.uniform(0.5, 2.0, n)
    works = [module._DimWork(d, w, n) for d in dims]
    structure = module.FeStructure(dims)
    buf = np.empty(n)
    C1 = [structure.cross(0, q, works, buf) for q in range(1, len(dims))]
    K = [(q - 1, s - 1, structure.cross(q, s, works, buf))
         for q in range(1, len(dims)) for s in range(q + 1, len(dims))]
    A = module._schur_matrix(works[0], works[1:], C1, K)
    costs = module._SwitchCosts(works[1:], C1, K)
    bounds = np.cumsum([0] + costs.widths)
    blocks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    dense = [width <= dense_cols for width in costs.widths]
    expect = sum(costs.widths[q] * costs.widths[s] if dense[q] or dense[s] else A[bq][:, bs].nnz
                 for q, bq in enumerate(blocks) for s, bs in enumerate(blocks))
    assert costs.order == A.shape[0] and costs.nnz() == expect


class FixedCosts:
    """Switch costs of a made-up design, in products of 1 flop."""

    def __init__(self, form, nnz):
        self.product, self.form, self.order, self._nnz = 1.0, form, 100, nnz

    def nnz(self):
        if self._nnz is None:
            raise AssertionError("estimated A where the products alone decide")
        return self._nnz


class TestFactorPays:
    """``_factor_pays``: predicted block-Jacobi products against A's cost."""

    def test_no_rate_before_the_second_product(self):
        module = importlib.import_module("fehd.demean")
        assert not module._factor_pays([1e6], 10, FixedCosts(0.0, 0))
        assert not module._factor_pays([1e6, 1e6], 10, FixedCosts(0.0, 0))

    def test_fast_shrink_never_estimates(self):
        # 40x per product: 1.2 products left, cheaper than forming A
        module = importlib.import_module("fehd.demean")
        assert not module._factor_pays([3e4, 800, 20], 2, FixedCosts(20.0, None))

    def test_slow_shrink_pays_on_a_sparse_a(self):
        # 2x per product down to 1e4: 13.3 products left, 15.3 in all for
        # each of the 2 columns after, 44 against 20 + 3 products for A and
        # the factored runs, and 120 nnz(A) per run more
        module = importlib.import_module("fehd.demean")
        ratios = [1e4 * 2.0 ** 2, 2e4, 1e4]
        assert module._factor_pays(ratios, 2, FixedCosts(20.0, 0.01))
        assert not module._factor_pays(ratios, 2, FixedCosts(20.0, 100))
        assert not module._factor_pays(ratios, 0, FixedCosts(20.0, None))

    def test_a_stalled_column_switches(self):
        module = importlib.import_module("fehd.demean")
        assert module._factor_pays([5e3, 5.5e3, 6e3], 0, FixedCosts(1e9, 0))


SCALE_FREE_PANELS = ("indiv_id + firm_id", "indiv_id + firm_id + year",
                     "indiv_id + firm_id_difficult", "indiv_id + firm_id_difficult[x2]")


@functools.cache
def scale_free_case(fe: str, accelerate: bool):
    """The columns y, x1, x2 of a benchmark panel, the FE dims of ``fe``, a
    tight solve and a default-tolerance solve."""
    ds = simulate_panel(DgpConfig(n=20_000, seed=0))
    dims = build_frame(ds, expand_models(parse_formula(f"y ~ x1 | {fe}"))[0]).dims
    Y = np.column_stack([ds.numeric(c) for c in ("y", "x1", "x2")])
    tight = demean(DemeanProblem(targets=Y, dims=dims, tol=1e-13), accelerate=accelerate)
    base = demean(DemeanProblem(targets=Y, dims=dims), accelerate=accelerate)
    return Y, dims, tight.residuals, base.sweeps


class TestScaleFreeStopping:
    def test_scale_is_the_floored_weighted_sd(self, rng):
        y, c1, c2 = random_two_fe(rng)
        w = rng.uniform(0.5, 2.0, len(y))
        level = np.full(len(y), 3.7)
        res = demean(DemeanProblem(targets=np.column_stack([y, level]), weights=w,
                                   dims=[FeDim(fidx(c1)), FeDim(fidx(c2))]))
        mean = np.average(y, weights=w)
        assert res.scale[0] == pytest.approx(np.sqrt(np.average((y - mean) ** 2, weights=w)))
        assert res.scale[1] == pytest.approx(1e-7 * 3.7)
        assert np.abs(res.residuals[:, 1]).max() < 1e-13

    @given(st.sampled_from(SCALE_FREE_PANELS), st.booleans(), st.integers(0, 2),
           st.integers(-6, 6))
    @settings(max_examples=30, deadline=None)
    def test_rescaling_a_column_keeps_its_relative_error(self, fe, accelerate, col, k):
        Y, dims, tight, base_sweeps = scale_free_case(fe, accelerate)
        unit = np.ones(Y.shape[1])
        unit[col] = 10.0 ** k
        tol = 1e-6
        res = demean(DemeanProblem(targets=Y * unit, dims=dims, tol=tol),
                     accelerate=accelerate)
        err = np.abs(res.residuals - tight * unit).max(axis=0)
        assert (err <= 10 * tol * res.scale).all(), err / (tol * res.scale)
        assert res.sweeps <= 1.5 * base_sweeps


class TestRecoverFixef:
    def test_single_fe_group_means(self):
        y = np.array([1.0, 2, 3, 4, 10.0])
        codes = np.array([0, 0, 1, 1, 2])
        problem = DemeanProblem(targets=y, dims=[FeDim(fidx(codes))])
        res = demean(problem)
        coefs, report = recover_fixef(res, problem.dims, np.ones(1))
        assert np.allclose(coefs[0][:, 0], [1.5, 3.5, 10.0])
        assert report.free_constants == 0

    def test_balanced_two_way_matches_dummy_coefs(self, rng):
        NI, NT = 12, 5
        c1 = np.repeat(np.arange(NI), NT)
        c2 = np.tile(np.arange(NT), NI)
        x = rng.normal(size=NI * NT)
        y = 1.5 * x + rng.normal(size=NI)[c1] + rng.normal(size=NT)[c2] \
            + rng.normal(size=NI * NT)
        # partial out x first: recover FE coefficients of y - x*gamma
        gamma, _, _ = dummy_ols(y, x[:, None], [(c1, NI, None, True), (c2, NT, None, True)])
        target = y - x * gamma[0]
        problem = DemeanProblem(targets=target, dims=[FeDim(fidx(c1)), FeDim(fidx(c2))],
                                tol=1e-12)
        res = demean(problem)
        coefs, report = recover_fixef(res, problem.dims, np.ones(1))
        assert report.free_constants == 1
        assert abs(coefs[1][0, 0]) < 1e-12  # normalized to zero at first group
        # dummy regression with level-0 dummies dropped and an intercept
        D = np.column_stack([np.ones(NI * NT)]
                            + [(c1 == k).astype(float) for k in range(1, NI)]
                            + [(c2 == k).astype(float) for k in range(1, NT)])
        beta, *_ = np.linalg.lstsq(D, target, rcond=None)
        dummy_c2 = beta[NI:]
        ours = coefs[1][1:, 0] - coefs[1][0, 0]
        assert np.allclose(ours, dummy_c2, atol=1e-8)

    def test_slope_dimension_matches_per_group_ols(self, rng):
        n = 120
        codes, _ = first_appearance_codes(rng.integers(0, 6, n))
        z = rng.normal(size=(n, 1))
        y = rng.normal(size=n)
        problem = DemeanProblem(targets=y, dims=[FeDim(fidx(codes), slopes=z)])
        res = demean(problem)
        coefs, _ = recover_fixef(res, problem.dims, np.ones(1))
        for g in range(6):
            sel = codes == g
            Zg = np.column_stack([np.ones(sel.sum()), z[sel, 0]])
            bg, *_ = np.linalg.lstsq(Zg, y[sel], rcond=None)
            assert np.allclose(coefs[0][g], bg, atol=1e-10)
