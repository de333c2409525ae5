import numpy as np
import pytest

from fehd.data import FactorIndex, first_appearance_codes
from fehd.demean import (DemeanProblem, FeDim, demean, gauss_solve_batched,
                         irons_tuck_step, recover_fixef, sweep_once)

from oracles import dummy_ols, dummy_residualize


def fidx(codes):
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.max() + 1
    return FactorIndex(codes, int(n), np.bincount(codes, minlength=n))


def random_two_fe(rng, n=180, g1=9, g2=6):
    c1, _ = first_appearance_codes(rng.integers(0, g1, n))
    c2, _ = first_appearance_codes(rng.integers(0, g2, n))
    y = rng.normal(size=n) + rng.normal(size=g1)[c1] + rng.normal(size=g2)[c2]
    return y, c1, c2


class TestSweep:
    def test_group_means_one_fe(self):
        problem = DemeanProblem(targets=np.array([1.0, 2, 3, 4]),
                                dims=[FeDim(fidx([0, 0, 1, 1]))])
        state = sweep_once([None], problem)
        res = problem.targets - state[0][problem.dims[0].index.group_of_row, 0, :]
        assert np.allclose(res.ravel(), [-0.5, 0.5, -0.5, 0.5])

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


class TestGaussSolve:
    def test_matches_numpy_solve(self, rng):
        G, L = 40, 3
        A = rng.normal(size=(G, L, L))
        M = np.einsum("gij,gkj->gik", A, A) + np.eye(L) * 0.1
        B = rng.normal(size=(G, L, 2))
        x, dropped = gauss_solve_batched(M, B)
        assert not dropped.any()
        expected = np.stack([np.linalg.solve(M[g], B[g]) for g in range(G)])
        assert np.allclose(x, expected, atol=1e-10)

    def test_singular_column_dropped(self):
        M = np.array([[[2.0, 0.0], [0.0, 0.0]]])
        B = np.array([[[4.0], [1.0]]])
        x, dropped = gauss_solve_batched(M, B)
        assert dropped[0, 1] and not dropped[0, 0]
        assert np.allclose(x[0, :, 0], [2.0, 0.0])


class TestIronsTuck:
    def test_fixed_point_returns_input(self):
        beta = np.array([1.0, -2.0])
        out = irons_tuck_step(beta, lambda b: b.copy())
        assert np.array_equal(out, beta)

    def test_affine_contraction_exact_in_one_step(self):
        a, B = 3.0, 0.5
        out = irons_tuck_step(np.array([0.0]), lambda b: a + B * b)
        assert np.allclose(out, a / (1 - B), atol=1e-14)

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
        dims = lambda: [FeDim(fidx(c1)), FeDim(fidx(c2))]
        cold = demean(DemeanProblem(targets=y, dims=dims(), tol=1e-12))
        warm = demean(DemeanProblem(targets=y, dims=dims(), tol=1e-8),
                      init_state=cold.fe_coef[1].reshape(-1, 1))
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

class TestRecoverFixef:
    def test_single_fe_group_means(self):
        y = np.array([1.0, 2, 3, 4, 10.0])
        codes = np.array([0, 0, 1, 1, 2])
        problem = DemeanProblem(targets=y, dims=[FeDim(fidx(codes))])
        res = demean(problem)
        coefs, report = recover_fixef(res, problem)
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
        coefs, report = recover_fixef(res, problem)
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
        coefs, _ = recover_fixef(res, problem)
        for g in range(6):
            sel = codes == g
            Zg = np.column_stack([np.ones(sel.sum()), z[sel, 0]])
            bg, *_ = np.linalg.lstsq(Zg, y[sel], rcond=None)
            assert np.allclose(coefs[0][g], bg, atol=1e-10)

    def test_requires_kept_coefs(self, rng):
        y, c1, c2 = random_two_fe(rng)
        problem = DemeanProblem(targets=y, dims=[FeDim(fidx(c1)), FeDim(fidx(c2))])
        res = demean(problem, keep_coefs=False)
        with pytest.raises(Exception, match="fe_coef"):
            recover_fixef(res, problem)
