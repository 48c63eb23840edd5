"""The one LP engine, ``dual.solve_lp``'s dual simplex, against scipy's HiGHS, plus its prices as certificates.

The engine solves min c.x s.t. a.x = b, x >= 0 from a dual feasible start
basis, so each LP here is drawn with one: random prices y, c_B = y.a_B on a
random basis and c_N = y.a_N plus non-negative reduced costs, some of them 0.
Such an LP is bounded, so it is either optimal or infeasible.
"""
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from olacsim.dual import _DualSimplex, solve_lp


def dual_feasible_lp(rng):
    m = int(rng.integers(1, 5))
    n = m + int(rng.integers(0, 6))
    a = rng.normal(size=(m, n))
    basis = rng.permutation(n)[:m]
    y = rng.normal(size=m)
    c = y @ a + rng.uniform(0.0, 1.0, size=n) * (rng.random(n) < 0.7)
    c[basis] = y @ a[:, basis]
    return a, c, basis, rng.normal(size=m)


def objective(c, x, basis):
    return float(c[basis] @ x)


@pytest.mark.parametrize("seed", range(5))
def test_random_lps_match_scipy(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        a, c, basis, b = dual_feasible_lp(rng)
        x, final, _ = solve_lp(a, c, basis, b)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        if x is None:
            assert ref.status == 2
        else:
            assert ref.status == 0
            assert objective(c, x, final) == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)


@pytest.mark.parametrize("seed", range(3))
def test_duals_certify_optimality(seed):
    # x >= 0 solves a.x = b, the prices leave every reduced cost >= 0, and strong duality c.x = y.b
    rng = np.random.default_rng(100 + seed)
    checked = 0
    while checked < 25:
        a, c, basis, b = dual_feasible_lp(rng)
        x_b, final, y = solve_lp(a, c, basis, b)
        if x_b is None:
            continue
        checked += 1
        x = np.zeros(c.size)
        x[final] = x_b
        assert (x >= -1e-9).all()
        assert np.allclose(a @ x, b, atol=1e-9)
        assert (c - y @ a >= -1e-9).all()
        assert objective(c, x_b, final) == pytest.approx(y @ b, abs=1e-9)


def test_known_small_lp():
    # min x1 + x2 s.t. x1 + 2 x2 >= 3, 2 x1 + x2 >= 3, from the surplus basis: x = (1, 1), prices (1/3, 1/3)
    a = np.array([[1.0, 2.0, -1.0, 0.0], [2.0, 1.0, 0.0, -1.0]])
    c = np.array([1.0, 1.0, 0.0, 0.0])
    x, final, y = solve_lp(a, c, [2, 3], np.array([3.0, 3.0]))
    assert sorted(final.tolist()) == [0, 1]
    assert objective(c, x, final) == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)
    assert np.allclose(y, [1 / 3, 1 / 3], atol=1e-12)


def test_infeasible_lp_reported():
    # x1 + x2 = -1 has no solution with x >= 0: the leaving row has no entering column
    x, _, _ = solve_lp(np.array([[1.0, 1.0]]), np.array([1.0, 1.0]), [0], np.array([-1.0]))
    assert x is None


def test_equality_only_system():
    x, final, y = solve_lp(np.array([[1.0, 1.0]]), np.array([1.0, 1.0]), [0], np.array([1.0]))
    assert objective(np.array([1.0, 1.0]), x, final) == pytest.approx(1.0, abs=1e-12)
    assert y.tolist() == [1.0]


def test_singular_basis_raises_linalg_error():
    # columns 0 and 1 are dependent, so the start basis has no inverse
    a = np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 1.0]])
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            _DualSimplex(a, np.zeros(3), np.array([0, 1]))
    assert np.geterr() == state
