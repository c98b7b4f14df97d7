import itertools

import numpy as np
import pytest

from otasec.encoding import eta_from_delta, row_budgets
from otasec.errors import ContractError
from otasec.lp import LpProblem, solve_lp
from otasec.optimizer import _allocation_lp, compute_alpha_beta

from conftest import make_realization


def make_problem(c, M, b):
    c = np.asarray(c, dtype=float)
    return LpProblem(
        num_vars=c.shape[0],
        objective=c,
        ineq_matrix=np.asarray(M, dtype=float),
        ineq_rhs=np.asarray(b, dtype=float),
    )


def enumerate_vertices(c, M, b):
    """Brute-force optimum of a bounded LP with ``x >= 0`` by checking every basic point."""
    n = len(c)
    A = np.vstack([np.asarray(M, dtype=float), -np.eye(n)])
    bb = np.concatenate([np.asarray(b, dtype=float), np.zeros(n)])
    best = None
    for combo in itertools.combinations(range(len(A)), n):
        sub = A[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, bb[list(combo)])
        if np.all(A @ x <= bb + 1e-9):
            val = float(np.dot(c, x))
            if best is None or val > best[0]:
                best = (val, x)
    return best


def random_bounded_instance(rng):
    # Three random cuts plus a box: feasible at the origin and bounded.
    M = np.vstack([rng.standard_normal((3, 3)), np.eye(3)])
    b = np.concatenate([rng.uniform(0.5, 2.0, 3), np.full(3, 3.0)])
    c = rng.standard_normal(3)
    return c, M, b


def sampled_allocation_lps():
    """The optimizer's max-min allocation LPs on sampled realizations."""
    for seed in range(6):
        for K, L, snr_db in ((4, 2, 10.0), (10, 15, 20.0), (10, 5, -10.0)):
            real = make_realization(seed, K=K, L=L, snr_db=snr_db)
            for delta in (0.05, 0.5, 1.0):
                eta = eta_from_delta(real, delta)
                budgets = row_budgets(real, eta)
                order = np.argsort(-np.abs(real.h) ** 2, kind="stable")
                for N in (1, 2):
                    Z = sorted(int(i) for i in order[:N])
                    noise = [i for i in range(K) if i not in Z]
                    w = budgets[Z] / budgets[Z].sum()
                    alpha, beta = compute_alpha_beta(real, eta, Z, w)
                    load = np.abs(w[:, None] * real.h[noise] / real.h[Z, None]) ** 2
                    yield _allocation_lp(alpha, beta, load, budgets[noise + Z])


class TestExamples:
    def test_single_upper_bound_free_variable(self):
        # x used to be declared free; its optimum is positive, so x >= 0 cuts nothing.
        sol = solve_lp(make_problem([1.0], [[1.0]], [5.0]))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(5.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(5.0, abs=1e-9)

    def test_epigraph_binds_at_bound(self):
        # maximize t s.t. 1 + 2*lam >= t, 0 <= lam <= 3
        sol = solve_lp(make_problem([1.0, 0.0], [[1.0, -2.0], [0.0, 1.0]], [1.0, 3.0]))
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([7.0, 3.0], abs=1e-9)

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(30):
            c, M, b = random_bounded_instance(rng)
            sol = solve_lp(make_problem(c, M, b))
            assert sol.status == "optimal"
            best = enumerate_vertices(c, M, b)
            assert best is not None
            assert sol.objective_value == pytest.approx(best[0], abs=1e-7)


class TestStatuses:
    def test_negative_rhs_rejected(self):
        # x >= 2 written as -x <= -2: the origin is infeasible.
        with pytest.raises(ContractError):
            solve_lp(make_problem([1.0], [[-1.0], [1.0]], [-2.0, 1.0]))

    def test_unbounded(self):
        sol = solve_lp(make_problem([1.0], [[-1.0]], [0.0]))
        assert sol.status == "unbounded"

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            solve_lp(make_problem([np.inf], [[1.0]], [1.0]))
        with pytest.raises(ContractError):
            solve_lp(make_problem([1.0], [[np.nan]], [1.0]))

    def test_size_limits(self):
        with pytest.raises(ContractError):
            solve_lp(make_problem(np.ones(129), np.ones((1, 129)), [1.0]))


class TestSolutionProperties:
    def test_reported_x_is_feasible(self, rng):
        for _ in range(25):
            c, M, b = random_bounded_instance(rng)
            sol = solve_lp(make_problem(c, M, b))
            assert sol.status == "optimal"
            assert np.all(M @ sol.x <= b + 1e-8)
            assert np.all(sol.x >= 0.0)
            assert sol.objective_value == pytest.approx(float(c @ sol.x), rel=1e-10, abs=1e-12)

    def test_weak_duality_against_solved_dual(self, rng):
        for _ in range(15):
            c, M, b = random_bounded_instance(rng)
            primal = solve_lp(make_problem(c, M, b))
            assert primal.status == "optimal"
            # dual: minimize b^T y s.t. M^T y >= c, y >= 0, solved over its 84 bases
            best = enumerate_vertices(-b, -M.T, -c)
            assert best is not None
            y = best[1]
            assert np.all(M.T @ y >= c - 1e-8)
            dual_value = float(b @ y)
            assert primal.objective_value <= dual_value + 1e-7
            assert primal.objective_value == pytest.approx(dual_value, abs=1e-6)

    def test_bit_for_bit_deterministic(self, rng):
        c, M, b = random_bounded_instance(rng)
        a = solve_lp(make_problem(c, M, b))
        bsol = solve_lp(make_problem(c, M, b))
        assert a.status == bsol.status
        assert np.array_equal(a.x, bsol.x)
        assert a.objective_value == bsol.objective_value

    def test_degenerate_ties_terminate(self):
        # Several identical rows force degenerate pivots; Bland must not cycle.
        M = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        b = np.array([1.0, 1.0, 1.0, 1.0])
        sol = solve_lp(make_problem([1.0, 1.0], M, b))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


class TestAgainstHighs:
    """HiGHS, an independent solver, must reach the same optimum."""

    @staticmethod
    def highs_optimum(problem):
        linprog = pytest.importorskip("scipy.optimize").linprog
        res = linprog(
            -problem.objective,
            A_ub=problem.ineq_matrix,
            b_ub=problem.ineq_rhs,
            bounds=(0, None),
            method="highs",
        )
        assert res.status == 0, res.message
        return -res.fun

    def test_random_instances(self, rng):
        for _ in range(30):
            problem = make_problem(*random_bounded_instance(rng))
            sol = solve_lp(problem)
            assert sol.status == "optimal"
            assert sol.objective_value == pytest.approx(self.highs_optimum(problem), abs=1e-7)

    def test_allocation_lps(self):
        count = 0
        for problem in sampled_allocation_lps():
            sol = solve_lp(problem)
            assert sol.status == "optimal"
            assert sol.objective_value == pytest.approx(self.highs_optimum(problem), rel=1e-7)
            count += 1
        assert count == 108
