"""Fixed-point solver: closed forms, independent bisection oracles, branch
and monotonicity properties, work per root, equivalence contours."""

import gc
import math
import sys
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ridgeshift import (
    BelowMinimumPenaltyError,
    BranchViolationError,
    InvalidParameterError,
    PSI_INFINITE,
    SingularResolventError,
    SolverFailureError,
    Spectrum,
    ensemble_risk,
    equivalence_path,
    lambda_min,
    lambda_of_mu,
    make_model,
    mu_zero,
    risk_at_mu,
    solve_mu,
    tilde_v,
)
from ridgeshift import fixed_point


def closed_form_mu_identity(lam: float, phi: float) -> float:
    """Quadratic-root level for an isotropic spectrum."""
    a = lam + phi - 1.0
    return 0.5 * (a + math.sqrt(a * a + 4.0 * lam))


def oracle_bisect(f, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Plain bisection, independent of the package solver."""
    flo = f(lo)
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * (1 + abs(lo) + abs(hi)):
            break
    return 0.5 * (lo + hi)


TWO_POINT = Spectrum.from_values([1.0, 2.0])


def two_point_edge(phi: float) -> float:
    # 1 = phi * (1/2) [1/(1+m)^2 + 4/(2+m)^2]
    return oracle_bisect(
        lambda m: 1.0 - 0.5 * phi * (1.0 / (1.0 + m) ** 2 + 4.0 / (2.0 + m) ** 2),
        lo=-1.0 + 1e-9,
        hi=100.0,
    )


class TestMuZero:
    @pytest.mark.parametrize("phi,expected", [(4.0, 1.0), (1.0, 0.0), (0.25, -0.5)])
    def test_identity_closed_form(self, phi, expected):
        # scalar equation 1 = phi/(1+m)^2 gives m = sqrt(phi) - 1
        assert mu_zero(Spectrum.identity(6), phi) == pytest.approx(expected, abs=1e-12)

    def test_two_point_oracle(self):
        for phi in (0.5, 2.0, 7.0):
            assert mu_zero(TWO_POINT, phi) == pytest.approx(two_point_edge(phi), abs=1e-10)

    def test_sign_pattern(self):
        rng = np.random.default_rng(5)
        sp = Spectrum.from_values(np.exp(rng.uniform(-1, 1, 25)))
        assert mu_zero(sp, 0.4) < 0
        assert mu_zero(sp, 1.0) == pytest.approx(0.0, abs=1e-10)
        assert mu_zero(sp, 3.0) > 0

    def test_strictly_increasing_in_phi(self):
        sp = TWO_POINT
        vals = [mu_zero(sp, phi) for phi in np.geomspace(0.1, 10, 25)]
        assert np.all(np.diff(vals) > 0)


class TestLambdaMin:
    @pytest.mark.parametrize("phi", [0.25, 0.5, 1.0, 2.0, 4.0, 9.0])
    def test_identity_closed_form(self, phi):
        expected = -((1.0 - math.sqrt(phi)) ** 2)
        assert lambda_min(Spectrum.identity(4), phi) == pytest.approx(expected, abs=1e-11)

    def test_two_point_oracle(self):
        phi = 2.0
        m0 = two_point_edge(phi)
        expected = m0 * (1.0 - 0.5 * phi * (1.0 / (1.0 + m0) + 2.0 / (2.0 + m0)))
        assert lambda_min(TWO_POINT, phi) == pytest.approx(expected, abs=1e-10)

    def test_shape_over_phi_grid(self):
        # nonpositive, increasing up to phi=1, decreasing after
        sp = TWO_POINT
        phis = np.geomspace(0.1, 10, 41)
        vals = np.array([lambda_min(sp, p) for p in phis])
        assert np.all(vals <= 1e-12)
        below = vals[phis < 1.0]
        above = vals[phis > 1.0]
        assert np.all(np.diff(below) > 0)
        assert np.all(np.diff(above) < 0)
        assert lambda_min(sp, 1.0) == pytest.approx(0.0, abs=1e-11)


class TestLambdaOfMu:
    def test_scalar_ends_are_exact(self):
        sp = Spectrum.from_values([0.5, 1.0, 2.0])
        zero = lambda_of_mu(sp, 0.0, 3.0)  # mu * (1 - 3) would be -0.0
        assert type(zero) is float and zero == 0.0 and math.copysign(1.0, zero) == 1.0
        assert lambda_of_mu(sp, math.inf, 3.0) == math.inf

    @pytest.mark.parametrize("mu", [-0.5, -0.7, -1.0, -math.inf, math.nan])
    @pytest.mark.parametrize("levels", [float, lambda mu: [mu], lambda mu: [1.0, math.inf, mu]],
                             ids=["scalar", "array", "array-with-valid-levels"])
    def test_singular_scalar_shift_raises(self, mu, levels):
        # one guard for both modes: no level at or below -r_min, nor NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularResolventError):
                lambda_of_mu(Spectrum.from_values([0.5, 1.0, 2.0]), levels(mu), 2.0)


class TestSolveMu:
    @pytest.mark.parametrize(
        "lam,phi,expected",
        [
            (0.0, 2.0, 1.0),
            (0.0, 0.5, 0.0),
            (1.0, 1.0, (1.0 + math.sqrt(5.0)) / 2.0),
            # f(lam + aspect r_max) rounds to -1 here, so the bracket doubles
            (4542852795154656.0, 0.5, 4542852795154657.0),
        ],
    )
    def test_identity_closed_form_points(self, lam, phi, expected):
        sol = solve_mu(Spectrum.identity(3), lam, phi)
        assert sol.mu == pytest.approx(expected, abs=1e-11)

    def test_identity_closed_form_random(self):
        rng = np.random.default_rng(2)
        sp = Spectrum.identity(2)
        for _ in range(200):
            phi = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            lmin = -((1.0 - math.sqrt(phi)) ** 2)
            t = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e6)))) * (1 + abs(lmin))
            lam = lmin + t
            got = solve_mu(sp, lam, phi).mu
            want = closed_form_mu_identity(lam, phi)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    def test_residual_invariant(self):
        rng = np.random.default_rng(9)
        sp = Spectrum.from_values(np.exp(rng.uniform(-1, 1, 15)))
        for _ in range(50):
            phi = float(np.exp(rng.uniform(np.log(0.2), np.log(5))))
            lam = lambda_min(sp, phi) + float(np.exp(rng.uniform(np.log(1e-4), np.log(100))))
            sol = solve_mu(sp, lam, phi)
            assert sol.residual <= 1e-10 * (1.0 + abs(lam) + abs(sol.mu))
            assert sol.mu > mu_zero(sp, phi)

    def test_monotone_in_lambda(self):
        sp = TWO_POINT
        phi = 3.0
        lams = lambda_min(sp, phi) + np.geomspace(1e-5, 1e3, 40)
        mus = [solve_mu(sp, float(l), phi).mu for l in lams]
        assert np.all(np.diff(mus) > 0)

    def test_monotone_in_aspect(self):
        sp = TWO_POINT
        mus = [solve_mu(sp, 0.5, float(a)).mu for a in np.geomspace(0.2, 8, 25)]
        assert np.all(np.diff(mus) > 0)

    def test_ratio_property(self):
        # lam / mu(lam, phi) increases over lam > 0 toward 1 at infinite
        # penalty; the ridgeless limit is 1 - phi when phi < 1 (the fixed
        # point forces lam/mu = 1 - phi * mean(r/(r+mu))) and 0 when phi > 1.
        sp = TWO_POINT
        for phi, lim0 in ((0.5, 0.5), (2.0, 0.0)):
            lams = np.geomspace(1e-8, 1e6, 50)
            ratios = np.array([l / solve_mu(sp, float(l), phi).mu for l in lams])
            assert np.all(np.diff(ratios) > 0)
            assert ratios[0] == pytest.approx(lim0, abs=1e-4)
            assert ratios[-1] == pytest.approx(1.0, abs=1e-3)

    def test_mu_at_least_lambda_for_nonnegative_penalty(self):
        sp = TWO_POINT
        for phi in (0.5, 2.0):
            for lam in (0.0, 0.3, 2.0, 50.0):
                assert solve_mu(sp, lam, phi).mu >= lam - 1e-12

    def test_below_minimum_raises(self):
        sp = Spectrum.identity(3)
        with pytest.raises(BelowMinimumPenaltyError):
            solve_mu(sp, -1.0 - 1e-6, 4.0)
        with pytest.raises(BelowMinimumPenaltyError):
            solve_mu(sp, -1.0, 4.0)

    def test_boundary_ok_returns_edge(self):
        sp = Spectrum.identity(3)
        sol = solve_mu(sp, -1.0, 4.0, boundary_ok=True)
        assert sol.mu == pytest.approx(1.0, abs=1e-10)

    def test_boundary_ok_snaps_a_penalty_just_below_the_minimum(self):
        sp = Spectrum.identity(3)
        lam = lambda_min(sp, 4.0) - 1e-12
        assert solve_mu(sp, lam, 4.0, boundary_ok=True).mu == mu_zero(sp, 4.0)
        with pytest.raises(BelowMinimumPenaltyError):
            solve_mu(sp, lam, 4.0)

    def test_edge_at_phi_one_uses_the_clamped_minimum(self):
        # the unclamped edge penalty at phi = 1 rounds to ~1.6e-32 here;
        # solve_mu must measure against lambda_min's clamped 0
        sp = Spectrum.identity(8)
        assert lambda_min(sp, 1.0) == 0.0
        assert solve_mu(sp, 0.0, 1.0, boundary_ok=True).residual == 0.0
        with pytest.raises(BelowMinimumPenaltyError, match="not above the minimum 0.0 "):
            solve_mu(sp, 0.0, 1.0)

    @pytest.mark.parametrize("psi", [1.0 + 3e-11, 1.0 + 3e-9, 1.0 + 3e-7])
    def test_root_just_above_a_tiny_minimum(self, psi):
        # On an identity spectrum lam = 0 has the root psi - 1, twice the
        # edge sqrt(psi) - 1, and lambda_min = -(sqrt(psi) - 1)^2 is far
        # smaller than 1e-11: the penalty is above the minimum and must be
        # solved, not snapped to the edge. At psi = 1 + 3e-11 the root also
        # lies within 1e-10 of the edge.
        sp = Spectrum.identity(4)
        model = make_model(sp, beta=np.ones(4) / 2.0, sigma2=0.3)
        root = psi - 1.0
        for boundary_ok in (False, True):
            mu = solve_mu(sp, 0.0, psi, boundary_ok=boundary_ok).mu
            assert mu == pytest.approx(root, rel=1e-6)
        total = ensemble_risk(model, 0.0, 1.0, psi).total
        assert total == pytest.approx(risk_at_mu(model, root, 1.0).total, rel=1e-6)

    def test_infinite_aspect_sentinel(self):
        sol = solve_mu(Spectrum.identity(3), 0.5, PSI_INFINITE)
        assert math.isinf(sol.mu) and sol.residual == 0.0

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_penalty_rejected(self, lam):
        for aspect in (0.5, 2.0, PSI_INFINITE):
            with pytest.raises(InvalidParameterError, match="penalty"):
                solve_mu(Spectrum.identity(3), lam, aspect)

    def test_nan_residual_is_a_failure(self, monkeypatch):
        # a comparison with NaN is False: the residual check must not pass it
        sp = Spectrum.identity(3)
        mu_zero(sp, 2.0)  # memoized before the root finder breaks
        monkeypatch.setattr(fixed_point, "_solve_monotone", lambda *args, **kwargs: math.nan)
        with pytest.raises(SolverFailureError):
            solve_mu(sp, 0.5, 2.0)

    def test_extreme_aspect_ratios(self):
        # phi -> 0: the branch edge collapses onto the negated smallest
        # eigenvalue; phi -> inf: the level grows like phi * mean(r)
        sp = Spectrum.from_values([0.3, 1.0, 2.5])
        assert mu_zero(sp, 1e-6) == pytest.approx(-0.3, abs=1e-3)
        assert lambda_min(sp, 1e-6) == pytest.approx(-0.3, abs=1e-3)
        big = solve_mu(sp, 0.5, 1e6).mu
        assert big == pytest.approx(1e6 * np.mean(sp.eigenvalues), rel=1e-4)
        huge_lam = solve_mu(sp, 1e9, 2.0).mu
        assert huge_lam == pytest.approx(1e9, rel=1e-6)

    @pytest.mark.parametrize("phi", [1e-33, 1e-40, 1e-300])
    def test_edge_within_rounding_of_the_pole_names_the_aspect(self, phi):
        # below an aspect of about p eps^2 / 4 the lower bracket end rounds
        # onto -r_min, where the edge equation divides by zero
        sp = Spectrum.from_values([0.5, 1.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=f"aspect ratio {phi} is too small"):
                mu_zero(sp, phi)


def criterion_1_draws():
    """The 1000 seeded (lam, phi) draws of acceptance criterion 1."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        phi = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        lmin = -((1.0 - math.sqrt(phi)) ** 2)
        lam = lmin + float(np.exp(rng.uniform(np.log(1e-6), np.log(1e6)))) * (1.0 + abs(lmin))
        yield lam, phi


@pytest.fixture
def root_work(monkeypatch):
    """Count the roots the scalar solver finds and the function evaluations
    each costs, the two bracket ends its caller evaluated included. One
    evaluation yields the value and the slope together."""
    counts = {"roots": 0, "evals": 0}
    solve_monotone = fixed_point._solve_monotone

    def counting(f, *args, **kwargs):
        def counted(x):
            counts["evals"] += 1
            return f(x)

        counts["roots"] += 1
        counts["evals"] += 2
        return solve_monotone(counted, *args, **kwargs)

    monkeypatch.setattr(fixed_point, "_solve_monotone", counting)
    return counts


class TestSolverWork:
    """Work per root, counted instead of timed."""

    def test_evaluations_per_root_over_criterion_1_draws(self, root_work):
        sp = Spectrum.identity(4)
        for lam, phi in criterion_1_draws():
            solve_mu(sp, lam, phi)
            lambda_min(sp, phi)
        # one edge and one penalty root per draw; the edge is reused by lambda_min
        assert root_work["roots"] == 2000
        assert root_work["evals"] / root_work["roots"] <= 12.0

    def test_evaluations_per_root_on_an_anisotropic_spectrum(self, root_work):
        # residuals of a p = 48 spectrum are rarely exactly zero at the root,
        # so the Newton step test has to end the iteration
        rng = np.random.default_rng(3)
        sp = Spectrum.from_values(np.exp(rng.uniform(np.log(0.3), np.log(4.0), 48)))
        for _ in range(300):
            phi = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            lmin = lambda_min(sp, phi)
            t = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e6)))) * (1.0 + abs(lmin))
            solve_mu(sp, lmin + t, phi)
        assert root_work["roots"] == 600
        assert root_work["evals"] / root_work["roots"] <= 12.0

    @pytest.mark.parametrize("phi", [1.001, 1.0001, 0.9999, 1.00001])
    def test_tiny_edges_stop_at_the_noise_floor(self, root_work, phi):
        # Near phi = 1 the edge sqrt(phi) - 1 of an identity spectrum is tiny;
        # the edge equation is evaluated to a few eps absolute, so the solve
        # stops once a Newton step falls within that noise.
        mu0 = mu_zero(Spectrum.identity(4), phi)
        assert root_work["roots"] == 1
        assert root_work["evals"] <= 12
        assert abs(mu0 - (math.sqrt(phi) - 1.0)) <= 4.0 * np.finfo(float).eps

    def test_edge_solved_once_per_spectrum_and_aspect(self, monkeypatch):
        solved = []
        solve_edge = fixed_point._solve_edge

        def counting(spectrum, phi):
            solved.append((spectrum, phi))
            return solve_edge(spectrum, phi)

        monkeypatch.setattr(fixed_point, "_solve_edge", counting)
        sp = Spectrum.from_values([0.5, 1.0, 3.0])
        solve_mu(sp, 0.2, 2.0)
        lmin = lambda_min(sp, 2.0)
        assert solved == [(sp, 2.0)]

        twin = Spectrum.from_values([0.5, 1.0, 3.0])
        assert mu_zero(twin, 2.0) == mu_zero(sp, 2.0)
        assert lambda_min(twin, 2.0) == lmin
        assert solved == [(sp, 2.0), (twin, 2.0)]

        edge = mu_zero(sp, 2.5)
        assert solved[-1] == (sp, 2.5)
        assert edge == solve_edge(sp, 2.5) != mu_zero(sp, 2.0)

    def test_memo_hit_solves_read_the_edge_record(self, monkeypatch):
        # the record holds lambda_min beside mu_zero: a solve on a memoized
        # edge recomputes no edge penalty
        calls = []
        of_mu = fixed_point.lambda_of_mu

        def counting(*args):
            calls.append(args)
            return of_mu(*args)

        sp = Spectrum.from_values([0.5, 1.0, 3.0])
        mu_zero(sp, 2.0)
        monkeypatch.setattr(fixed_point, "lambda_of_mu", counting)
        for lam in np.linspace(0.1, 5.0, 50):
            solve_mu(sp, float(lam), 2.0)
        assert calls == []

    def test_edge_memo_is_bounded_and_dies_with_the_spectrum(self):
        sp = Spectrum.identity(3)
        for phi in np.linspace(0.5, 5.0, fixed_point._EDGE_MEMO_SIZE + 10):
            mu_zero(sp, float(phi))
        assert 0 < len(sp._edges) <= fixed_point._EDGE_MEMO_SIZE
        ref = weakref.ref(sp)
        del sp
        gc.collect()
        assert ref() is None

    def test_edge_memo_under_concurrent_callers(self):
        sp = Spectrum.from_values([0.5, 1.0, 3.0])
        phis = [float(x) for x in np.linspace(0.2, 5.0, 2 * fixed_point._EDGE_MEMO_SIZE + 7)]
        want = [fixed_point._solve_edge(sp, phi) for phi in phis]

        def edges(shift):
            order = phis[shift:] + phis[:shift]
            return dict(zip(order, (mu_zero(sp, phi) for phi in order)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(edges, 97 * i) for i in range(4)]
                results = [fut.result(timeout=60) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert [got[phi] for phi in phis] == want
        assert len(sp._edges) <= fixed_point._EDGE_MEMO_SIZE


@pytest.fixture
def evaluations(monkeypatch):
    """Record every (x, value and slope) the scalar solver asks for."""
    seen = []
    solve_monotone = fixed_point._solve_monotone

    def recording(f, *args, **kwargs):
        def recorded(x):
            out = f(x)
            seen.append((x, out))
            return out

        return solve_monotone(recorded, *args, **kwargs)

    monkeypatch.setattr(fixed_point, "_solve_monotone", recording)
    return seen


class TestFusedEvaluation:
    """One pass over the spectrum gives the value and the slope that the
    ``np.mean`` forms of the equations give, bit for bit."""

    SPECTRUM = Spectrum.from_values(np.exp(np.random.default_rng(8).uniform(-2.0, 2.0, 48)))

    def test_penalty_equation(self, evaluations):
        sp, r = self.SPECTRUM, self.SPECTRUM.eigenvalues
        for lam, phi in ((0.3, 0.5), (-0.005, 0.7), (2.0, 4.0)):
            mu_zero(sp, phi)
            evaluations.clear()
            solve_mu(sp, lam, phi)
            assert evaluations
            for mu, (value, slope) in evaluations:
                assert value == mu * (1.0 - phi * float(np.mean(r / (r + mu)))) - lam
                assert slope == 1.0 - phi * float(np.mean((r / (r + mu)) ** 2))

    def test_edge_equation(self, evaluations):
        sp, r = self.SPECTRUM, self.SPECTRUM.eigenvalues
        for phi in (0.05, 0.9, 1.2, 30.0):
            evaluations.clear()
            fixed_point._solve_edge(sp, phi)
            assert evaluations
            for mu, (value, slope) in evaluations:
                assert value == phi * float(np.mean((r / (r + mu)) ** 2)) - 1.0
                assert slope == -2.0 * phi * float(np.mean(r**2 / (r + mu) ** 3))

    def test_edge_level_equation(self, evaluations):
        sp, r = self.SPECTRUM, self.SPECTRUM.eigenvalues
        lam = 0.5 * lambda_min(sp, 0.5)
        fixed_point._edge_level(sp, lam, 0.0)
        assert evaluations
        for mu, (value, slope) in evaluations:
            q = r / (r + mu)
            t1, t2 = float(np.mean(q)), float(np.mean(q * q))
            s2, t3 = float(np.mean(q / (r + mu))), float(np.mean(q * q / (r + mu)))
            assert value == mu * mu * s2 / t2 + lam
            assert slope == 2.0 * mu * t1 * t3 / (t2 * t2)


class TestTildeV:
    def test_identity_unit(self):
        m = make_model(Spectrum.identity(4), beta=np.ones(4), sigma2=0.0)
        assert tilde_v(m, mu=1.0, phi=2.0, psi=2.0) == pytest.approx(1.0, abs=1e-12)

    def test_vanishes_with_aspect(self):
        m = make_model(Spectrum.identity(4), beta=np.ones(4), sigma2=0.0)
        assert tilde_v(m, mu=1.0, phi=1e-8) == pytest.approx(0.0, abs=1e-7)

    def test_linear_in_test_covariance(self):
        c = 3.7
        m = make_model(Spectrum.identity(4), beta=np.ones(4), sigma0=c * np.ones(4), sigma2=0.0)
        assert tilde_v(m, mu=1.0, phi=2.0, psi=2.0) == pytest.approx(c, rel=1e-12)

    def test_branch_violation(self):
        m = make_model(Spectrum.identity(4), beta=np.ones(4), sigma2=0.0)
        with pytest.raises(BranchViolationError):
            tilde_v(m, mu=0.5, phi=4.0)  # edge at mu0(4) = 1

    def test_infinite_mu(self):
        m = make_model(Spectrum.identity(4), beta=np.ones(4), sigma2=0.0)
        assert tilde_v(m, mu=math.inf, phi=2.0, psi=PSI_INFINITE) == 0.0

    def test_negative_infinite_mu_is_a_singular_resolvent(self):
        # only mu = +inf is the killed fit; -inf lies below every pole
        m = make_model(Spectrum.identity(4), beta=np.ones(4), sigma2=0.1)
        with pytest.raises(SingularResolventError):
            tilde_v(m, mu=-math.inf, phi=2.0)
        with pytest.raises(SingularResolventError):
            risk_at_mu(m, -math.inf, 2.0)


class TestEquivalencePath:
    def test_identity_forward_anchor(self):
        path = equivalence_path(Spectrum.identity(4), phi=0.5, psi_bar=4.0)
        assert path.mu_star == pytest.approx(1.0, abs=1e-11)
        assert path.lambda_bar == pytest.approx(0.75, abs=1e-11)
        theta0 = path.points[0]
        theta1 = path.points[-1]
        assert theta0[1:] == pytest.approx((0.75, 0.5), abs=1e-11)
        assert theta1[1:] == pytest.approx((-1.0, 4.0), abs=1e-11)

    def test_identity_reverse_anchor(self):
        path = equivalence_path(Spectrum.identity(4), phi=0.5, lambda_bar=0.75)
        assert path.psi_bar == pytest.approx(4.0, abs=1e-9)
        assert path.mu_star == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_path(self):
        sp = Spectrum.identity(4)
        path = equivalence_path(sp, phi=2.0, psi_bar=2.0)
        assert path.lambda_bar == pytest.approx(lambda_min(sp, 2.0), abs=1e-11)
        assert path.psi_bar == 2.0

    def test_contour_constancy(self):
        rng = np.random.default_rng(21)
        sp = Spectrum.from_values(np.exp(rng.uniform(-1, 1, 18)))
        phi = 0.8
        path = equivalence_path(sp, phi=phi, psi_bar=5.0, samples=17)
        for theta, lam, psi in path.points:
            sol = solve_mu(sp, lam, psi, boundary_ok=True)
            assert abs(sol.mu - path.mu_star) <= 1e-8

    def test_invalid_anchor(self):
        sp = Spectrum.identity(4)
        with pytest.raises(InvalidParameterError):
            equivalence_path(sp, phi=2.0, psi_bar=1.0)  # below phi
        with pytest.raises(InvalidParameterError):
            equivalence_path(sp, phi=2.0, lambda_bar=lambda_min(sp, 2.0) - 0.1)
        with pytest.raises(InvalidParameterError):
            equivalence_path(sp, phi=2.0)  # no anchor
        with pytest.raises(InvalidParameterError):
            equivalence_path(sp, phi=2.0, lambda_bar=0.1, psi_bar=3.0)  # both

    def test_huge_penalty_anchor_is_invalid_once_its_aspect_overflows(self):
        sp = Spectrum.from_values([0.5, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert equivalence_path(sp, 0.5, lambda_bar=1e150).psi_bar == 5.714285714285704e+299
            with pytest.raises(InvalidParameterError, match="lambda_bar"):
                equivalence_path(sp, 0.5, lambda_bar=1e160)

    @pytest.mark.parametrize("samples", [1, 2.5, 2.0, "3"])
    def test_samples_must_be_an_integer_of_at_least_two(self, samples):
        with pytest.raises(InvalidParameterError, match="samples"):
            equivalence_path(Spectrum.identity(4), phi=0.5, psi_bar=4.0, samples=samples)
