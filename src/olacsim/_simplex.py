"""Dense two-phase tableau simplex with Bland's rule, for small LPs.

Solves  min c.x  s.t.  a_ub.x <= b_ub,  a_eq.x = b_eq,  x >= 0.

Bland's rule (smallest-index entering variable, smallest-index leaving basis
variable on ratio ties) is used throughout; it prevents cycling on degenerate
problems at the cost of speed. The LPs handled here are small: the oracles'
policy and slack LPs on ``DualTables``' classes have about a hundred columns
(112 action columns and 18 rows on the two-queue instance). Dual prices of the rows are recovered from the optimal
basis with the convention that ub duals are the non-negative multipliers
lambda of the Lagrangian  c.x + sum_i lambda_i (a_ub_i . x - b_ub_i).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LPResult", "solve_lp", "SimplexError"]

_TOL = 1e-9


class SimplexError(RuntimeError):
    pass


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    duals_ub: np.ndarray | None = None
    duals_eq: np.ndarray | None = None


def _pivot(tableau, basis, row, col):
    """Pivot the full tableau (objective row included) on (row, col)."""
    piv = tableau[row] / tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, piv)
    tableau[row] = piv
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _run_simplex(tableau, basis, allowed, max_pivots):
    """Bland pivoting until optimal or unbounded; last tableau row = reduced costs."""
    m = tableau.shape[0] - 1
    for _ in range(max_pivots):
        red = tableau[-1, :-1]
        enter = -1
        for j in range(red.size):
            if allowed[j] and red[j] < -_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = np.inf
        for i in range(m):
            a = tableau[i, enter]
            if a > _TOL:
                ratio = tableau[i, -1] / a
                if ratio < best - 1e-12:
                    best = ratio
                    leave = i
                elif ratio <= best + 1e-12 and leave >= 0 and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tableau, basis, leave, enter)
    raise SimplexError("pivot limit exceeded")


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, max_pivots=None) -> LPResult:
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, dtype=float))
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, dtype=float))
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq

    if m == 0:
        if (c < -_TOL).any():
            return LPResult(status="unbounded")
        return LPResult("optimal", x=np.zeros(n), objective=0.0,
                        duals_ub=np.zeros(0), duals_eq=np.zeros(0))

    # signed system rows [a_ub | I ; a_eq | 0] with b >= 0
    b = np.concatenate([b_ub, b_eq])
    signs = np.where(b < 0, -1.0, 1.0)
    sys_rows = np.hstack(
        [np.vstack([a_ub, a_eq]), np.vstack([np.eye(m_ub), np.zeros((m_eq, m_ub))])]
    ) * signs[:, None]
    b = b * signs

    need_art = [i >= m_ub or signs[i] < 0 for i in range(m)]
    n_struct = n + m_ub
    art_col_of_row = {}
    n_cols = n_struct
    for i in range(m):
        if need_art[i]:
            art_col_of_row[i] = n_cols
            n_cols += 1
    is_art = np.zeros(n_cols, dtype=bool)
    for col in art_col_of_row.values():
        is_art[col] = True

    tableau = np.zeros((m + 1, n_cols + 1))
    tableau[:m, :n_struct] = sys_rows
    tableau[:m, -1] = b
    basis = np.empty(m, dtype=np.int64)
    for i in range(m):
        if need_art[i]:
            tableau[i, art_col_of_row[i]] = 1.0
            basis[i] = art_col_of_row[i]
        else:
            basis[i] = n + i
    orig_row = np.arange(m)

    if max_pivots is None:
        max_pivots = 5000 + 200 * m

    if art_col_of_row:
        c1 = np.zeros(n_cols)
        c1[is_art] = 1.0
        tableau[-1, :-1] = c1
        tableau[-1, -1] = 0.0
        for i in range(m):
            tableau[-1] -= c1[basis[i]] * tableau[i]
        status = _run_simplex(tableau, basis, np.ones(n_cols, dtype=bool), max_pivots)
        if status != "optimal":
            raise SimplexError("phase 1 terminated abnormally")
        phase1 = -tableau[-1, -1]
        if phase1 > 1e-7 * max(1.0, float(b.max(initial=1.0))):
            return LPResult(status="infeasible")
        # drive residual artificials out of the basis; drop redundant rows
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if is_art[basis[i]]:
                piv_col = -1
                for j in range(n_struct):
                    if abs(tableau[i, j]) > 1e-8:
                        piv_col = j
                        break
                if piv_col >= 0:
                    _pivot(tableau, basis, i, piv_col)
                else:
                    keep[i] = False
        if not keep.all():
            tableau = np.vstack([tableau[:m][keep], tableau[-1:]])
            basis = basis[keep]
            orig_row = orig_row[keep]
            m = int(keep.sum())

    # phase 2
    c_ext = np.zeros(n_cols)
    c_ext[:n] = c
    tableau[-1, :] = 0.0
    tableau[-1, :-1] = c_ext
    for i in range(m):
        tableau[-1] -= c_ext[basis[i]] * tableau[i]
    status = _run_simplex(tableau, basis, ~is_art, max_pivots)
    if status == "unbounded":
        return LPResult(status="unbounded")

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i, -1]
    objective = float(c @ x)

    # duals: basis holds no artificials here, so B comes from signed system
    # columns restricted to the kept rows; solve B^T y = c_B, undo row signs.
    if np.any(basis >= n_struct):
        raise SimplexError("artificial variable left in final basis")
    basis_cols = sys_rows[np.ix_(orig_row, basis)]
    try:
        y = np.linalg.solve(basis_cols.T, c_ext[basis])
    except np.linalg.LinAlgError:
        y = np.linalg.lstsq(basis_cols.T, c_ext[basis], rcond=None)[0]
    duals_ub = np.zeros(m_ub)
    duals_eq = np.zeros(m_eq)
    for pos, oi in enumerate(orig_row):
        val = -signs[oi] * y[pos]
        if oi < m_ub:
            duals_ub[oi] = val
        else:
            duals_eq[oi - m_ub] = val
    return LPResult("optimal", x=x, objective=objective,
                    duals_ub=duals_ub, duals_eq=duals_eq)
