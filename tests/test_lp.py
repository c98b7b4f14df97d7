import dataclasses
import itertools
from collections import defaultdict

import numpy as np
import pytest

from otasec import lp, optimizer
from otasec.encoding import eta_from_delta
from otasec.errors import ContractError
from otasec.lp import LpProblem, LpSolution, solve_lp
from otasec.optimizer import _design, optimize_designs

from conftest import ILL_SCALED_DESIGNS, make_realization


def make_problem(c, M, b, u=np.inf):
    c = np.asarray(c, dtype=float)
    return LpProblem(
        objective=c,
        ineq_matrix=np.asarray(M, dtype=float),
        ineq_rhs=np.asarray(b, dtype=float),
        upper=np.asarray(u, dtype=float),
    )


def bounds_of(problem):
    """The upper bounds of an LP or stack, one per variable."""
    return np.broadcast_to(np.asarray(problem.upper, dtype=float), np.shape(problem.objective))


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


def random_unbounded_instance(rng):
    # The last variable has a nonpositive column and a positive price, so it
    # grows without bound; Bland's rule may pivot on the others first.
    c, M, b = random_bounded_instance(rng)
    M[:, -1] = -np.abs(M[:, -1])
    c[-1] = abs(c[-1]) + 0.1
    return c, M, b


def random_box_instance(rng, m=4, n=4):
    """Random cuts and upper bounds: some finite, some +inf, some 0, with degenerate zeros in b."""
    M = rng.standard_normal((m, n)) * (rng.random((m, n)) >= 0.3)
    b = rng.choice([0.0, 0.5, 1.0, 2.0], size=m)
    u = rng.choice([0.0, 0.25, 0.5, 1.0, 3.0, np.inf], size=n)
    return rng.standard_normal(n), M, b, u


def stack_of(problems):
    """One stacked LP from same-shape LPs."""
    return LpProblem(
        np.stack([p.objective for p in problems]),
        np.stack([p.ineq_matrix for p in problems]),
        np.stack([p.ineq_rhs for p in problems]),
        np.stack([bounds_of(p) for p in problems]),
    )


def looped_solve(problem):
    """Bland's rule on one LP at a time, on the full tableau: the reference for LPs with no finite bound.

    Returns ``(status, x, value, pivots)``.
    """
    c = np.asarray(problem.objective, dtype=float)
    M = np.asarray(problem.ineq_matrix, dtype=float)
    b = np.asarray(problem.ineq_rhs, dtype=float)
    m, n = M.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, n:-1], T[:m, -1], T[m, :n] = M, np.eye(m), b, -c
    basis = np.arange(n, n + m)
    for pivots in range(lp._MAX_ITER):
        improving = (T[m, :-1] < -lp.PIVOT_TOL).nonzero()[0]
        if not improving.size:
            xs = np.zeros(n + m)
            xs[basis] = T[:-1, -1]
            x = xs[:n]
            x[(x < 0.0) & (x > -1e-11)] = 0.0
            return "optimal", x, float(c @ x), pivots
        enter = improving[0]  # Bland: lowest improving index enters
        column = T[:m, enter]
        rows = (column > lp.PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return "unbounded", np.zeros(n), 0.0, pivots
        ratios = T[rows, -1] / column[rows]
        ties = rows[ratios <= ratios.min() + lp._RATIO_TIE_TOL]
        leave = ties[basis[ties].argmin()]  # tie broken by lowest basic index
        T[leave] /= T[leave, enter]
        factors = T[:, enter].copy()
        factors[leave] = 0.0
        # Rows with a zero factor are left alone: x - 0*y would turn -0.0 into +0.0.
        np.subtract(T, np.multiply.outer(factors, T[leave]), out=T, where=(factors != 0.0)[:, np.newaxis])
        basis[leave] = enter
    raise RuntimeError("simplex iteration limit exceeded")


def bounded_looped_solve(problem):
    """The bounded-variable Bland's rule on one LP at a time, on the full tableau.

    The reference for LPs with upper bounds ``u``.  A nonbasic variable at its bound is held
    complemented, as ``u - x``: its column is negated and the rhs takes ``u`` times the column.
    Returns ``(status, x, value, pivots, flips)``.
    """
    c = np.asarray(problem.objective, dtype=float)
    M = np.asarray(problem.ineq_matrix, dtype=float)
    b = np.asarray(problem.ineq_rhs, dtype=float)
    u = bounds_of(problem)
    m, n = M.shape
    cap = np.concatenate([u, np.full(m, np.inf)])  # slacks are unbounded
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, n:-1], T[:m, -1], T[m, :n] = M, np.eye(m), b, -c
    basis = np.arange(n, n + m)
    flipped = np.zeros(n + m, dtype=bool)
    pivots = flips = 0
    for _ in range(lp._MAX_ITER):
        # A variable with bound 0 never enters.
        improving = ((T[m, :-1] < -lp.PIVOT_TOL) & (cap > 0.0)).nonzero()[0]
        if not improving.size:
            xs = np.zeros(n + m)
            xs[basis] = T[:-1, -1]
            x = np.where(flipped[:n], u - xs[:n], xs[:n])
            x[(x < 0.0) & (x > -1e-11)] = 0.0
            return "optimal", x, float(c @ x), pivots, flips
        enter = improving[0]  # Bland: lowest improving index enters, complemented or not
        column = T[:m, enter]
        lower, upper = column > lp.PIVOT_TOL, column < -lp.PIVOT_TOL
        ratios = np.full(m, np.inf)
        ratios[lower] = T[:m, -1][lower] / column[lower]  # the basic variable falls to 0
        ratios[upper] = (T[:m, -1][upper] - cap[basis[upper]]) / column[upper]  # it rises to its bound
        limit = ratios.min(initial=np.inf) + lp._RATIO_TIE_TOL
        if limit == cap[enter] == np.inf:
            return "unbounded", np.zeros(n), 0.0, pivots, flips
        if cap[enter] <= limit:  # the entering variable reaches its own bound first: flip it
            factors = T[:, enter].copy()
            rows = factors != 0.0
            T[rows, -1] -= factors[rows] * cap[enter]
            T[:, enter] = -T[:, enter]
            flipped[enter] = not flipped[enter]
            flips += 1
            continue
        ties = (ratios <= limit).nonzero()[0]
        leave = ties[basis[ties].argmin()]  # tie broken by lowest basic index
        if upper[leave]:  # the leaving variable stops at its bound and leaves complemented
            T[leave, -1] -= cap[basis[leave]]
            T[leave, basis[leave]] = -1.0
            flipped[basis[leave]] = not flipped[basis[leave]]
        T[leave] /= T[leave, enter]
        factors = T[:, enter].copy()
        factors[leave] = 0.0
        np.subtract(T, np.multiply.outer(factors, T[leave]), out=T, where=(factors != 0.0)[:, np.newaxis])
        basis[leave] = enter
        pivots += 1
    raise RuntimeError("simplex iteration limit exceeded")


def assert_stack_equals_loop(problems):
    """The stacked solve equals the one-LP loops bitwise: status, x with its sign bits, value, steps.

    The reference is the bounded loop, and also the plain loop when no LP has a finite bound.
    """
    (stacked,) = solve_lp(stack_of(problems))
    assert stacked.x.shape == (len(problems), problems[0].objective.shape[-1])
    unbounded_vars = all(np.isinf(bounds_of(p)).all() for p in problems)
    for i, problem in enumerate(problems):
        one = LpSolution(*bounded_looped_solve(problem))
        references = [one, LpSolution(*looped_solve(problem))] if unbounded_vars else [one]
        for ref in references:
            assert stacked.status[i] == ref.status
            assert stacked.x[i].tobytes() == ref.x.tobytes()
            assert stacked.objective_value[i].tobytes() == np.float64(ref.objective_value).tobytes()
            assert (stacked.pivots[i], stacked.flips[i]) == (ref.pivots, ref.flips)
    return stacked


def padded(problem, rows, cols, pad_bounds):
    """A stack with zero rows (rhs 0) inserted before the rows ``rows``, and ``cols`` zero columns
    at the right, whose bounds are ``pad_bounds``."""
    M = np.insert(problem.ineq_matrix, rows, 0.0, axis=1)
    return LpProblem(
        np.pad(problem.objective, ((0, 0), (0, cols))),
        np.pad(M, ((0, 0), (0, 0), (0, cols))),
        np.insert(problem.ineq_rhs, rows, 0.0, axis=1),
        np.concatenate([bounds_of(problem), np.broadcast_to(pad_bounds, (len(M), cols))], axis=1),
    )


def sampled_allocation_lps():
    """The LP stacks the optimizer solves for best-channel designs on sampled realizations.

    Each stack is the one a design yields before it solves: one max-min allocation LP here.
    """
    for seed in range(6):
        for K, L, snr_db in ((4, 2, 10.0), (10, 15, 20.0), (10, 5, -10.0)):
            real = make_realization(seed, K=K, L=L, snr_db=snr_db)
            for delta in (0.05, 0.5, 1.0):
                eta = eta_from_delta(real, delta)
                for N in (1, 2):
                    yield design_lps(real, eta, N, "best_channel")


def flat(problem):
    """The LPs of a problem with any leading axes as a stack with one."""
    B, (m, n) = int(np.prod(problem.objective.shape[:-1])), problem.ineq_matrix.shape[-2:]
    return LpProblem(
        problem.objective.reshape(B, n),
        problem.ineq_matrix.reshape(B, m, n),
        problem.ineq_rhs.reshape(B, m),
        bounds_of(problem).reshape(B, n),
    )


def design_lps(real, eta, N, selection):
    """The LPs a lone design yields before it solves, as a stack with one leading axis."""
    return flat(next(_design([(real, eta, N, selection)]))[0])


def entries(stack):
    """The LPs of a stack, one at a time."""
    lps = zip(stack.objective, stack.ineq_matrix, stack.ineq_rhs, bounds_of(stack))
    return [LpProblem(*lp) for lp in lps]


def grouped_allocation_lps():
    """The sampled allocation LPs, grouped by shape."""
    groups = defaultdict(list)
    for stack in sampled_allocation_lps():
        for problem in entries(stack):
            groups[problem.ineq_matrix.shape].append(problem)
    return groups


class TestExamples:
    def test_single_upper_bound_free_variable(self):
        # x used to be declared free; its optimum is positive, so x >= 0 cuts nothing.
        (sol,) = solve_lp(make_problem([1.0], [[1.0]], [5.0]))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(5.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(5.0, abs=1e-9)

    def test_epigraph_binds_at_bound(self):
        # maximize t s.t. 1 + 2*lam >= t, 0 <= lam <= 3
        (sol,) = solve_lp(make_problem([1.0, 0.0], [[1.0, -2.0], [0.0, 1.0]], [1.0, 3.0]))
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([7.0, 3.0], abs=1e-9)

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(30):
            c, M, b = random_bounded_instance(rng)
            (sol,) = solve_lp(make_problem(c, M, b))
            assert sol.status == "optimal"
            best = enumerate_vertices(c, M, b)
            assert best is not None
            assert sol.objective_value == pytest.approx(best[0], abs=1e-7)


class TestLoneLp:
    """A lone LP, without leading axes, runs as a stack of one and gets 0-d fields back."""

    @pytest.mark.parametrize("instance", [random_bounded_instance, random_unbounded_instance])
    def test_zero_dimensional_fields_equal_to_the_loop(self, rng, instance):
        for _ in range(10):
            problem = make_problem(*instance(rng))
            (sol,) = solve_lp(problem)
            assert sol.status.shape == sol.objective_value.shape == sol.pivots.shape == sol.flips.shape == ()
            assert sol.x.shape == problem.objective.shape
            status, x, value, pivots = looped_solve(problem)
            assert (sol.status, sol.pivots) == (status, pivots)
            assert sol.x.tobytes() == x.tobytes()
            assert np.float64(sol.objective_value).tobytes() == np.float64(value).tobytes()


class TestStatuses:
    def test_negative_rhs_rejected(self):
        # x >= 2 written as -x <= -2: the origin is infeasible.
        with pytest.raises(ContractError):
            solve_lp(make_problem([1.0], [[-1.0], [1.0]], [-2.0, 1.0]))

    def test_unbounded(self):
        (sol,) = solve_lp(make_problem([1.0], [[-1.0]], [0.0]))
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
            (sol,) = solve_lp(make_problem(c, M, b))
            assert sol.status == "optimal"
            assert np.all(M @ sol.x <= b + 1e-8)
            assert np.all(sol.x >= 0.0)
            assert sol.objective_value == pytest.approx(float(c @ sol.x), rel=1e-10, abs=1e-12)

    def test_weak_duality_against_solved_dual(self, rng):
        for _ in range(15):
            c, M, b = random_bounded_instance(rng)
            (primal,) = solve_lp(make_problem(c, M, b))
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
        (a,) = solve_lp(make_problem(c, M, b))
        (bsol,) = solve_lp(make_problem(c, M, b))
        assert a.status == bsol.status
        assert np.array_equal(a.x, bsol.x)
        assert a.objective_value == bsol.objective_value

    def test_degenerate_ties_terminate(self):
        # Several identical rows force degenerate pivots; Bland must not cycle.
        M = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        b = np.array([1.0, 1.0, 1.0, 1.0])
        (sol,) = solve_lp(make_problem([1.0, 1.0], M, b))
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
            bounds=[(0.0, None if np.isinf(u) else u) for u in bounds_of(problem)],
            method="highs",
            # At HiGHS's default 1e-7 dual tolerance it stops up to 3.5e-7 short on the
            # tiny-eta LPs, whose rows reach 1e3; our x is feasible to 1e-15 there.
            options=dict(primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10),
        )
        assert res.status == 0, res.message
        return -res.fun

    def test_random_instances(self, rng):
        for _ in range(30):
            problem = make_problem(*random_bounded_instance(rng))
            (sol,) = solve_lp(problem)
            assert sol.status == "optimal"
            assert sol.objective_value == pytest.approx(self.highs_optimum(problem), abs=1e-7)

    def test_allocation_lps(self):
        count = 0
        for stack in sampled_allocation_lps():
            (sol,) = solve_lp(stack)
            assert np.all(sol.status == "optimal")
            for value, problem in zip(sol.objective_value, entries(stack)):
                assert value == pytest.approx(self.highs_optimum(problem), rel=1e-7)
                count += 1
        assert count == 108

    def test_random_instances_with_bounds(self):
        rng = np.random.default_rng(31)
        solved = 0
        for _ in range(60):
            c, M, b, u = random_box_instance(rng)
            problem = make_problem(c, M, b, u)
            (sol,) = solve_lp(problem)
            if sol.status == "optimal":
                assert np.all(M @ sol.x <= b + 1e-9) and np.all((sol.x >= 0.0) & (sol.x <= u))
                assert sol.objective_value == pytest.approx(self.highs_optimum(problem), abs=1e-9)
                solved += 1
        assert solved >= 40

    def test_shared_zf_design_stacks(self, monkeypatch):
        # Every LP of the stacks one benchmark-shaped shared_zf trial solves, zero budgets included.
        calls, solve = [], optimizer.solve_lp
        monkeypatch.setattr(optimizer, "solve_lp", lambda *problems: calls.append(problems) or solve(*problems))
        real = make_realization(3, K=10, L=7, snr_db=0.0)
        real = dataclasses.replace(real, sigma_y_sq=np.array([real.sigma_y_sq, real.sigma_y_sq / 100]),
                                   sigma_z_sq=np.array([real.sigma_z_sq, real.sigma_z_sq / 100]))
        optimize_designs([(real, eta_from_delta(real, 1.0), N, "exhaustive") for N in (1, 2)])
        # The reference SNR's LPs with the other SNR's rhs riding along, then the members not accepted, cold.
        ranging, cold = calls
        # One request, 10 and 45 subsets, L + N rows and 1 + K - N columns, and one further rhs.
        assert [p.ineq_matrix.shape for p in ranging] == [(1, 10, 7 + 1, 10), (1, 45, 7 + 2, 9)]
        assert [p.ranges.shape for p in ranging] == [(1, 10, 7 + 1, 1), (1, 45, 7 + 2, 1)]
        assert any(np.any(p.upper == 0.0) for p in ranging)  # delta = 1 leaves the weakest user no budget
        for problems in (ranging, cold):
            solutions = solve_lp(*problems)
            assert any(solution.flips.any() for solution in solutions)
            for solution, problem in zip(solutions, problems):
                assert np.all(solution.status == "optimal") and solution.pivots.all()
                for value, one in zip(solution.objective_value.ravel()[::5], entries(flat(problem))[::5]):
                    assert value == pytest.approx(self.highs_optimum(one), rel=1e-9)

    @pytest.mark.parametrize("K, L, snr_db, delta, fading, seed, N", ILL_SCALED_DESIGNS)
    def test_tiny_eta_and_high_snr_allocation_lps(self, K, L, snr_db, delta, fading, seed, N):
        real = make_realization(seed, K=K, L=L, snr_db=snr_db, fading_mode=fading)
        stack = design_lps(real, eta_from_delta(real, delta), N, "exhaustive")
        problems = entries(stack)[::10]
        (sol,) = solve_lp(stack_of(problems))
        assert np.all(sol.status == "optimal")
        for value, problem in zip(sol.objective_value, problems):
            assert value == pytest.approx(self.highs_optimum(problem), rel=1e-7)


class TestStacked:
    """A stack of LPs runs Bland's rule in lockstep and must match the one-LP loop bitwise."""

    def test_allocation_lps_equal_the_looped_solves(self):
        groups = grouped_allocation_lps()
        assert len(groups) == 6
        for problems in groups.values():
            stacked = assert_stack_equals_loop(problems)
            assert len(set(stacked.pivots.tolist())) > 1

    def test_random_instances_equal_the_looped_solves(self, rng):
        problems = [make_problem(*random_bounded_instance(rng)) for _ in range(30)]
        stacked = assert_stack_equals_loop(problems)
        assert np.all(stacked.status == "optimal")

    def test_unbounded_lps_leave_the_stack_at_their_own_pivot(self, rng):
        problems = [
            make_problem(*(random_unbounded_instance if k % 3 == 0 else random_bounded_instance)(rng))
            for k in range(30)
        ]
        stacked = assert_stack_equals_loop(problems)
        unbounded = stacked.status == "unbounded"
        assert unbounded.sum() == 10
        assert not stacked.x[unbounded].any() and not stacked.objective_value[unbounded].any()
        # LPs finish after different pivot counts, unbounded ones included.
        assert len(set(stacked.pivots.tolist())) >= 3
        assert len(set(stacked.pivots[unbounded].tolist())) >= 2

    def test_signed_zeros_survive_the_lockstep_update(self):
        # A row whose pivot-column entry is -0.0 is left alone, as in the
        # one-LP loop: an unmasked x - 0*y can turn a -0.0 into +0.0.
        rng = np.random.default_rng(7)
        M = rng.standard_normal((200, 4, 3)) * (rng.random((200, 4, 3)) >= 0.5)
        b = rng.choice([-0.0, 0.0, 1.0], size=(200, 4))
        c = rng.standard_normal((200, 3))
        problems = [make_problem(c[i], M[i], b[i]) for i in range(200)]
        stacked = assert_stack_equals_loop(problems)
        assert np.signbit(stacked.x[stacked.x == 0.0]).any()

    def test_one_element_stack_and_empty_stack(self, rng):
        problem = make_problem(*random_bounded_instance(rng))
        assert_stack_equals_loop([problem])
        assert_stack_equals_loop([make_problem(*random_unbounded_instance(rng))])
        (empty,) = solve_lp(LpProblem(np.zeros((0, 3)), np.zeros((0, 6, 3)), np.zeros((0, 6))))
        assert empty.x.shape == (0, 3) and empty.status.shape == (0,)

    def test_every_lp_of_a_stack_is_validated(self, rng):
        problems = [make_problem(*random_bounded_instance(rng)) for _ in range(3)]
        stack = stack_of(problems)
        stack.ineq_rhs[2, 1] = -1.0
        with pytest.raises(ContractError, match="negative right-hand side"):
            solve_lp(stack)
        stack = stack_of(problems)
        stack.ineq_matrix[1, 0, 0] = np.nan
        with pytest.raises(ContractError, match="non-finite coefficient"):
            solve_lp(stack)
        stack = stack_of(problems)
        for bad in (
            LpProblem(stack.objective[:2], stack.ineq_matrix, stack.ineq_rhs),
            LpProblem(stack.objective[:, :2], stack.ineq_matrix, stack.ineq_rhs),
            LpProblem(stack.objective, stack.ineq_matrix, stack.ineq_rhs[:, :5]),
            LpProblem(stack.objective[0], stack.ineq_matrix[0, 0], stack.ineq_rhs[0, 0]),
        ):
            with pytest.raises(ContractError, match="LP shapes disagree"):
                solve_lp(problems[0], bad)

    def test_design_stacks_equal_the_looped_solves(self, monkeypatch):
        # The padded stacks of batched designs, over a grid of realizations, etas and N.
        calls, solve = [], optimizer.solve_lp

        def recording(*problems):
            solutions = solve(*problems)
            calls.append((problems, solutions))
            return solutions

        monkeypatch.setattr(optimizer, "solve_lp", recording)
        for (seed, snr_db), fading_mode in itertools.product(((0, -20.0), (1, 20.0)), ("complex", "real")):
            reals = [make_realization(seed, K, L, snr_db, fading_mode) for K, L in ((3, 1), (4, 5), (10, 15))]
            etas = [eta_from_delta(real, np.array([0.0, 0.3, 1.0])) for real in reals]
            optimize_designs([(real, eta, N, "exhaustive") for real, eta in zip(reals, etas) for N in (1, 2)])
        assert len(calls) == 4 and sum(p.objective[..., 0].size for problems, _ in calls for p in problems) > 750
        for problems, solutions in calls:
            assert len({p.ineq_matrix.shape[-2:] for p in problems}) > 1  # the call pads them to one stack
            for problem, solution in zip(problems, solutions):
                looped = assert_stack_equals_loop(entries(flat(problem)))
                assert solution.x.shape == problem.objective.shape
                assert solution.x.tobytes() == looped.x.tobytes()
                assert np.array_equal(solution.status.ravel(), looped.status)
                assert np.array_equal(solution.pivots.ravel(), looped.pivots)
                assert np.array_equal(solution.flips.ravel(), looped.flips)

    def test_iteration_limit_applies_per_lp(self, rng, monkeypatch):
        problems = [make_problem(*random_bounded_instance(rng)) for _ in range(12)]
        pivots = solve_lp(stack_of(problems))[0].pivots
        longest, slowest = int(pivots.max()), problems[int(pivots.argmax())]
        assert longest >= 2
        monkeypatch.setattr(lp, "_MAX_ITER", longest + 1)
        assert np.all(solve_lp(stack_of(problems))[0].status == "optimal")
        assert solve_lp(slowest)[0].status == "optimal"
        monkeypatch.setattr(lp, "_MAX_ITER", longest)
        for problem in (stack_of(problems), slowest):
            with pytest.raises(RuntimeError, match="iteration limit"):
                solve_lp(problem)


class TestSeveralProblems:
    """One call pads problems of different shapes and leading axes into one stack; each answer is its own call's."""

    def test_each_problem_equals_its_own_call_and_the_loop(self, rng):
        def array_of(lead, m, n):
            lps = [make_problem(*random_box_instance(rng, m, n)) for _ in range(int(np.prod(lead)))]
            stack = stack_of(lps)
            return LpProblem(*(np.reshape(a, lead + a.shape[1:]) for a in dataclasses.astuple(stack)))

        problems = [
            make_problem(*random_box_instance(rng)),  # a lone LP
            array_of((3, 4), 2, 5),
            array_of((6,), 6, 1),
            LpProblem(np.zeros((0, 3)), np.zeros((0, 1, 3)), np.zeros((0, 1))),  # no LPs at all
            # No rows: one LP flips to its bounds, the other is unbounded.
            LpProblem(np.array([[1.0, -1.0], [1.0, 0.0]]), np.zeros((2, 0, 2)), np.zeros((2, 0)),
                      np.array([[2.0, 3.0], [np.inf, 1.0]])),
            make_problem(np.zeros(0), np.zeros((2, 0)), [1.0, 0.0]),  # no variables
        ]
        solutions = solve_lp(*problems)
        assert len(solutions) == len(problems) and solve_lp() == []
        for problem, solution in zip(problems, solutions):
            lead = problem.objective.shape[:-1]
            assert solution.status.shape == solution.pivots.shape == solution.objective_value.shape == lead
            assert solution.x.shape == problem.objective.shape
            (alone,) = solve_lp(problem)
            for field in ("status", "x", "objective_value", "pivots", "flips"):
                assert getattr(solution, field).tobytes() == getattr(alone, field).tobytes(), field
            if problem.objective.size:
                looped = assert_stack_equals_loop(entries(flat(problem)))
                assert solution.x.tobytes() == looped.x.tobytes()
                assert solution.pivots.ravel().tolist() == looped.pivots.tolist()
        assert {"optimal", "unbounded"} <= set(np.concatenate([s.status.ravel() for s in solutions]).tolist())

    def test_a_bad_problem_fails_the_call(self, rng):
        good = make_problem(*random_bounded_instance(rng))
        bad = make_problem(*random_bounded_instance(rng))
        bad.ineq_rhs[0] = -1.0
        with pytest.raises(ContractError, match="negative right-hand side"):
            solve_lp(good, bad)


class TestPadding:
    """Zero rows anywhere and zero columns at the right change no LP's answer, bitwise."""

    @staticmethod
    def assert_padding_is_neutral(problem, rng):
        rows = rng.integers(0, problem.ineq_rhs.shape[1] + 1, size=rng.integers(1, 4))
        cols = int(rng.integers(0, 3))
        pad_bounds = rng.choice([0.0, 1.0, np.inf], size=cols)  # a zero column never enters
        (plain,), (pad,) = solve_lp(problem), solve_lp(padded(problem, rows, cols, pad_bounds))
        n = problem.objective.shape[-1]
        assert np.array_equal(pad.status, plain.status) and np.array_equal(pad.pivots, plain.pivots)
        assert np.array_equal(pad.flips, plain.flips)
        assert pad.x[:, :n].tobytes() == plain.x.tobytes()
        assert pad.x[:, n:].tobytes() == bytes(pad.x[:, n:].nbytes)  # +0.0 in every padding column
        assert pad.objective_value.tobytes() == plain.objective_value.tobytes()
        return plain

    def test_random_stacks(self):
        rng = np.random.default_rng(2718)
        unbounded = 0
        for _ in range(60):
            B, m, n = rng.integers(1, 10), rng.integers(1, 7), rng.integers(1, 6)
            M = rng.standard_normal((B, m, n)) * (rng.random((B, m, n)) >= 0.4)
            b = rng.choice([-0.0, 0.0, 0.5, 1.0, 2.0], size=(B, m))
            c = rng.standard_normal((B, n))
            plain = self.assert_padding_is_neutral(LpProblem(c, M, b), rng)
            unbounded += np.count_nonzero(plain.status == "unbounded")
        assert unbounded > 10

    def test_random_stacks_with_bounds(self):
        rng = np.random.default_rng(1414)
        flips = 0
        for _ in range(60):
            B, m, n = rng.integers(1, 10), rng.integers(1, 7), rng.integers(1, 6)
            M = rng.standard_normal((B, m, n)) * (rng.random((B, m, n)) >= 0.4)
            b = rng.choice([-0.0, 0.0, 0.5, 1.0, 2.0], size=(B, m))
            u = rng.choice([0.0, 0.5, 1.0, np.inf], size=(B, n))
            plain = self.assert_padding_is_neutral(LpProblem(rng.standard_normal((B, n)), M, b, u), rng)
            flips += plain.flips.sum()
        assert flips > 20

    def test_allocation_lps(self):
        rng = np.random.default_rng(1618)
        for problems in grouped_allocation_lps().values():
            self.assert_padding_is_neutral(stack_of(problems), rng)


class TestBounds:
    """Upper bounds as bounds, not rows: flips, complemented leaves, and the bounded reference."""

    def test_flip_and_pivot_in_one_lockstep_iteration(self):
        # Both LPs enter x0 first: its bound binds first in one LP (a flip), its row in the other.
        flip, pivot = (make_problem([1.0, 0.0], [[1.0, 1.0]], [5.0], [u, np.inf]) for u in (1.0, 10.0))
        stacked = assert_stack_equals_loop([flip, pivot])
        assert stacked.flips.tolist() == [1, 0] and stacked.pivots.tolist() == [0, 1]
        assert stacked.x.tolist() == [[1.0, 0.0], [5.0, 0.0]]

    def test_random_stacks_equal_the_bounded_reference(self):
        rng = np.random.default_rng(97)
        problems = [make_problem(*random_box_instance(rng)) for _ in range(200)]
        stacked = assert_stack_equals_loop(problems)
        assert {"optimal", "unbounded"} <= set(stacked.status.tolist())
        both = (stacked.flips > 0) & (stacked.pivots > 0)
        assert both.sum() > 20 and (stacked.flips > 1).any()

    def test_a_basic_variable_stops_at_its_bound(self):
        # max x1 s.t. 2*x1 <= x0, x0 <= 2, x1 <= 1/2.  x1 enters at 0 (a degenerate pivot),
        # then x0 enters and drives the basic x1 up to its bound: x1 leaves complemented
        # before x0 reaches its own bound.
        problem = make_problem([0.0, 1.0], [[-1.0, 2.0]], [0.0], [2.0, 0.5])
        status, x, value, pivots, flips = bounded_looped_solve(problem)
        assert (status, pivots, flips) == ("optimal", 2, 0)
        assert x.tolist() == [1.0, 0.5]
        assert_stack_equals_loop([problem])

    def test_infinite_bounds_take_the_plain_path(self, rng):
        # An explicit +inf bound is the default, and changes no bit of any answer.
        problems = [make_problem(*random_unbounded_instance(rng), np.full(3, np.inf)) for _ in range(10)]
        problems += [make_problem(*random_bounded_instance(rng), np.full(3, np.inf)) for _ in range(10)]
        stacked = assert_stack_equals_loop(problems)
        assert not stacked.flips.any()

    def test_no_rows_or_no_variables(self):
        # Only bounds: each improving variable flips to its bound, or grows without one.
        stack = LpProblem(np.array([[1.0, -1.0], [1.0, 0.0]]), np.zeros((2, 0, 2)), np.zeros((2, 0)),
                          np.array([[2.0, 3.0], [np.inf, 1.0]]))
        (sol,) = solve_lp(stack)
        assert sol.status.tolist() == ["optimal", "unbounded"] and sol.flips.tolist() == [1, 0]
        assert sol.x.tolist() == [[2.0, 0.0], [0.0, 0.0]]
        (empty,) = solve_lp(make_problem(np.zeros(0), np.zeros((2, 0)), [1.0, 0.0]))
        assert (empty.status, empty.x.shape, empty.objective_value) == ("optimal", (0,), 0.0)

    def test_zero_bounds_never_enter(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c, M, b, u = random_box_instance(rng)
            c[0], u[0] = 5.0, 0.0  # the most attractive variable is fixed at 0
            (fixed,) = solve_lp(make_problem(c, M, b, u))
            (dropped,) = solve_lp(make_problem(c[1:], M[:, 1:], b, u[1:]))
            assert fixed.x[0] == 0.0 and not np.signbit(fixed.x[0])
            assert (fixed.status, fixed.pivots, fixed.flips) == (dropped.status, dropped.pivots, dropped.flips)
            assert fixed.x[1:].tobytes() == dropped.x.tobytes()

    def test_delta_one_designs_have_zero_budgets(self):
        # At delta = 1 the weakest user has no budget: every design has a bound of 0.
        for seed in range(3):
            real = make_realization(seed, K=6, L=4, snr_db=10.0)
            stack = design_lps(real, eta_from_delta(real, 1.0), 2, "exhaustive")
            assert np.all((stack.upper[:, 1:] == 0.0).sum(axis=1) <= 1) and np.any(stack.upper == 0.0)
            assert_stack_equals_loop(entries(stack))

    def test_degenerate_ties_terminate(self):
        # Identical rows, a bound equal to the rows' ratio, and a row that is tight at the start.
        M = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 1.0, 0.0, 1.0])
        bounds = ([1.0, 1.0, 1.0], [0.5, 0.5, 0.5], [np.inf, 1.0, 0.0])
        problems = [make_problem([1.0, 1.0, 1.0], M, b, u) for u in bounds]
        stacked = assert_stack_equals_loop(problems)
        assert np.all(stacked.status == "optimal")
        assert stacked.objective_value.tolist() == pytest.approx([2.0, 1.5, 1.0])

    def test_bounds_equal_the_identity_rows(self):
        # The allocation LPs with their bounds written back as rows reach the same optimum.
        for problems in grouped_allocation_lps().values():
            stack = stack_of(problems)
            n = stack.objective.shape[-1]
            rows = np.concatenate([stack.ineq_matrix, np.broadcast_to(np.eye(n), (len(problems), n, n))], axis=1)
            rhs = np.concatenate([stack.ineq_rhs, np.minimum(stack.upper, 1e300)], axis=1)
            (as_rows,) = solve_lp(LpProblem(stack.objective, rows, rhs))
            (as_bounds,) = solve_lp(stack)
            assert np.all(as_rows.status == as_bounds.status)
            assert np.allclose(as_rows.objective_value, as_bounds.objective_value, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "upper, match",
        [
            (np.array([1.0, np.nan, 1.0]), "nonnegative"),
            (np.array([1.0, -1e-300, 1.0]), "nonnegative"),
            (np.array([1.0, 1.0]), "shaped like the objective"),
            (np.ones((2, 3)), "shaped like the objective"),
        ],
    )
    def test_upper_is_validated(self, rng, upper, match):
        c, M, b = random_bounded_instance(rng)
        with pytest.raises(ContractError, match=match):
            solve_lp(make_problem(c, M, b, upper))
        stack = stack_of([make_problem(c, M, b)] * 2)
        bad = np.broadcast_to(upper, (2,) + upper.shape) if upper.shape == (3,) else upper[..., :2]
        with pytest.raises(ContractError, match=match):
            solve_lp(LpProblem(stack.objective, stack.ineq_matrix, stack.ineq_rhs, bad))


class TestRanging:
    """Further right-hand sides ride each LP's pivots and flips.  One is accepted only where the LP's final basis is
    provably its unique optimum: every basic value lies within its bounds, compared exactly, and every live
    nonbasic reduced cost is strictly non-improving by more than ``PIVOT_TOL``."""

    @staticmethod
    def ranging(problem, ranges):
        return lp._Ranging(problem.objective, problem.ineq_matrix, problem.ineq_rhs, bounds_of(problem),
                           np.asarray(ranges, dtype=float))

    @staticmethod
    def further(problem, ranges, e):
        """The LPs of ``problem`` at further rhs ``e``."""
        return LpProblem(problem.objective, problem.ineq_matrix, ranges[..., e], bounds_of(problem))

    def stacks(self, rng):
        """Random box instances, degenerate zeros included, and the sampled allocation LPs, each with 3 further rhs."""
        boxes = stack_of([make_problem(*random_box_instance(rng)) for _ in range(300)])
        yield boxes, rng.choice([0.0, 0.3, 1.0, 2.5], size=boxes.ineq_rhs.shape + (3,))
        for stack in itertools.islice(sampled_allocation_lps(), 0, None, 5):
            yield stack, stack.ineq_rhs[..., np.newaxis] * rng.uniform(0.2, 5.0, stack.ineq_rhs.shape + (3,))

    def test_each_lp_is_bitwise_the_one_solved_without_ranges(self, rng):
        for stack, ranges in self.stacks(rng):
            (plain,) = solve_lp(stack)
            (ranged,) = solve_lp(self.ranging(stack, ranges))
            assert isinstance(ranged, lp._Ranged) and ranged.accepted.shape == ranges.shape[:-2] + (3,)
            for field in ("status", "x", "objective_value", "pivots", "flips"):
                assert getattr(ranged, field).tobytes() == getattr(plain, field).tobytes()

    def test_accepted_answers_equal_the_cold_solves(self, rng):
        accepted = rejected = 0
        for stack, ranges in self.stacks(rng):
            (ranged,) = solve_lp(self.ranging(stack, ranges))
            for e in range(ranges.shape[-1]):
                (cold,) = solve_lp(self.further(stack, ranges, e))
                took = ranged.accepted[:, e]
                assert np.all(ranged.status[took] == "optimal") and np.all(cold.status[took] == "optimal")
                scale = np.abs(cold.x[took]).max(axis=-1, keepdims=True)
                assert np.all(np.abs(ranged.ranged_x[took, e] - cold.x[took]) <= 1e-12 * scale)
                accepted, rejected = accepted + np.count_nonzero(took), rejected + np.count_nonzero(~took)
        assert accepted > 400 and rejected > 300  # 530 and 436 at this seed

    def test_a_member_outside_its_bounds_is_rejected(self):
        # max x s.t. x <= 0.5, 0 <= x <= 1: x is basic in the row.  At rhs 0.7 and 0 it stays within [0, 1].
        problem = make_problem([1.0], [[1.0]], [0.5], [1.0])
        (solution,) = solve_lp(self.ranging(problem, [[0.7, 1.5, 0.0, -0.25]]))
        assert solution.x.tolist() == [0.5] and solution.status == "optimal"
        assert solution.accepted.tolist() == [True, False, True, False]
        assert solution.ranged_x[solution.accepted].tolist() == [[0.7], [0.0]]

    def test_an_lp_with_several_optima_accepts_no_member(self):
        # max x1 + x2 s.t. x1 + x2 <= 1, 0 <= x <= 1: a zero reduced cost at the optimum, even at its own rhs.
        problem = make_problem([1.0, 1.0], [[1.0, 1.0]], [1.0], [1.0, 1.0])
        (solution,) = solve_lp(self.ranging(problem, [[1.0, 0.5]]))
        assert solution.objective_value == 1.0 and not solution.accepted.any()
        # A reduced cost within PIVOT_TOL of zero counts as zero: here x1's, 5e-10, at the optimum x = (1, 0).
        problem = make_problem([1.0 + 5e-10, 1.0], [[1.0, 1.0]], [1.0], [1.0, 1.0])
        (solution,) = solve_lp(self.ranging(problem, [[1.0, 0.5]]))
        assert solution.x.tolist() == [1.0, 0.0] and not solution.accepted.any()
        # Frozen variables (bound 0) do not count: they cannot move.
        problem = make_problem([1.0, 0.0], [[1.0, 1.0]], [0.5], [1.0, 0.0])
        (solution,) = solve_lp(self.ranging(problem, [[0.25]]))
        assert solution.accepted.tolist() == [True] and solution.ranged_x.tolist() == [[0.25, 0.0]]

    def test_ranges_are_validated(self):
        problem = make_problem([1.0], [[1.0]], [0.5], [1.0])
        with pytest.raises(ContractError, match="further right-hand sides"):
            solve_lp(self.ranging(problem, [0.5]))
        with pytest.raises(ContractError, match="non-finite"):
            solve_lp(self.ranging(problem, [[np.inf]]))
