"""The reference solver and sandwiches against the dense dummy oracles."""

import numpy as np
import pytest

import oracles
import reference as ref


def _instance(rng, n, group_counts, slope_dims=(), weighted=False):
    codes = oracles.connected_fe(rng, n, group_counts)
    dims, specs = [], []
    for q, c in enumerate(codes):
        Z = rng.normal(size=(n, 1)) if q in slope_dims else None
        dims.append(ref.FeDim(c, slopes=Z))
        specs.append((c, group_counts[q], Z, True))
    w = rng.uniform(0.5, 3.0, size=n) if weighted else None
    return dims, specs, w


@pytest.mark.parametrize("group_counts,slope_dims,weighted", [
    ([15, 7], (), False),
    ([15, 7], (), True),
    ([12, 6, 4], (), False),
    ([12, 6, 4], (), True),
    ([10, 5], (1,), False),
    ([10, 5], (1,), True),
    ([10, 6, 3], (2,), True),
])
def test_projection_matches_dummy_oracle(group_counts, slope_dims, weighted):
    rng = np.random.default_rng(7)
    n = 200
    dims, specs, w = _instance(rng, n, group_counts, slope_dims, weighted)
    M = rng.normal(size=(n, 3)) + rng.normal(size=group_counts[0])[dims[0].codes][:, None]
    got = ref.FeProjector(dims, weights=w).residualize(M)
    want = oracles.dummy_residualize(M, specs, weights=w)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_one_dimension_is_closed_form():
    rng = np.random.default_rng(1)
    dims, specs, w = _instance(rng, 80, [9], weighted=True)
    y = rng.normal(size=80)
    np.testing.assert_allclose(ref.FeProjector(dims, weights=w).residualize(y),
                               oracles.dummy_residualize(y[:, None], specs, w)[:, 0],
                               atol=1e-12)


def test_first_dimension_must_be_plain():
    rng = np.random.default_rng(2)
    dims, _, _ = _instance(rng, 50, [5, 4], slope_dims=(0,))
    with pytest.raises(ref.ReferenceError):
        ref.FeProjector(dims)


def test_self_check_rejects_a_wrong_projection():
    rng = np.random.default_rng(3)
    dims, _, _ = _instance(rng, 100, [8, 5])
    y = rng.normal(size=100)
    P = ref.FeProjector(dims)
    with pytest.raises(ref.ReferenceError):
        P.check_normal_equations(y, y - y.mean())


def test_k_fe_is_the_dummy_rank_on_connected_two_way_graphs():
    rng = np.random.default_rng(4)
    for _ in range(5):
        dims, specs, _ = _instance(rng, 120, [int(rng.integers(3, 15)), int(rng.integers(3, 15))])
        D = oracles.dummy_design(np.empty((120, 0)), specs)
        assert ref.k_fe(dims) == np.linalg.matrix_rank(D)


def test_k_fe_rejects_disconnected_graphs():
    a = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    b = np.array([0, 1, 0, 1, 2, 3, 2, 3])
    with pytest.raises(ref.ReferenceError):
        ref.k_fe([ref.FeDim(a), ref.FeDim(b)])


def test_sandwiches_match_the_loop_oracles():
    rng = np.random.default_rng(5)
    n, k_total = 150, 9
    X = rng.normal(size=(n, 2))
    r = rng.normal(size=n)
    g1 = rng.integers(0, 12, size=n)
    g2 = rng.integers(0, 7, size=n)
    np.testing.assert_allclose(ref.vcov_iid(X, r, n - k_total),
                               oracles.sandwich_iid(X, r, None, k_total), rtol=1e-12)
    np.testing.assert_allclose(ref.vcov_cluster(X, r, k_total, g1),
                               oracles.sandwich_cluster(X, r, None, k_total, g1), rtol=1e-12)
    np.testing.assert_allclose(ref.vcov_twoway(X, r, k_total, g1, g2),
                               oracles.sandwich_twoway(X, r, None, k_total, g1, g2),
                               rtol=1e-10)


def test_tsls_matches_a_dummy_design_2sls():
    rng = np.random.default_rng(6)
    n = 300
    dims, specs, _ = _instance(rng, n, [20, 6])
    z, u, x = rng.normal(size=(3, n))
    xe = 0.8 * z + 0.5 * u + rng.normal(size=n)
    y = 1.5 * xe - 0.3 * x + u + rng.normal(size=n)
    D = ref.FeProjector(dims).residualize(np.column_stack([y, x, xe, z]))
    gamma, r, _ = ref.tsls(D[:, 0], D[:, [1]], D[:, [2]], D[:, [3]])
    # the same 2SLS with the dummies as exogenous regressors
    dummies = oracles.dummy_design(np.empty((n, 0)), specs)
    exog = np.column_stack([x, dummies])
    Z = np.column_stack([exog, z])
    xe_hat = Z @ np.linalg.lstsq(Z, xe, rcond=None)[0]
    full = np.linalg.lstsq(np.column_stack([xe_hat, exog]), y, rcond=None)[0]
    np.testing.assert_allclose(gamma, full[:2], atol=1e-9)
