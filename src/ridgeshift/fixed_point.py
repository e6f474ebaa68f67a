"""Scalar fixed-point equations behind the deterministic risk equivalents.

The central object is the implicit regularization level ``mu(lam, phi)``,
the unique solution of

    mu = lam + phi * tr[mu S (S + mu I)^-1] / p

on the branch ``mu > mu_zero(phi)``, where ``mu_zero`` solves the spectrum
edge equation ``1 = phi * tr[S^2 (S + mu I)^-2] / p``. The edge value also
yields the minimum admissible (possibly negative) ridge penalty
``lambda_min(phi)``. On the admissible branch the map ``mu -> lam`` is a
strictly increasing bijection, so every root here is found by a safeguarded
Newton iteration (bisection fallback) inside a bracket written down in
closed form from the extreme eigenvalues, with no bracket search. Each
Newton step is one pass over the spectrum that yields the residual and its
slope together. The edge and its penalty, (mu_zero, lambda_min), are solved
once per (spectrum, aspect) and memoized on the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BelowMinimumPenaltyError,
    InvalidParameterError,
    SolverFailureError,
)
from .model import Spectrum, _check_count

#: Sentinel for an infinite subsample aspect ratio (the null-risk endpoint).
PSI_INFINITE = math.inf

RESIDUAL_TOL = 1e-12
MAX_BISECT = 200
MAX_NEWTON = 50
_EPS = float(np.finfo(float).eps)
#: A Newton step within the bracket of at most this fraction of |x| (a few
#: ulps) ends the iteration: quadratic convergence leaves the next step at
#: round-off.
_STEP_TOL = 4.0 * _EPS
#: Shifted eigenvalues up to this size have a finite cube (the largest is
#: about 5.6e102).
_CUBE_MAX = 1e102
#: Edges memoized per spectrum; the memo is emptied when it reaches this size.
_EDGE_MEMO_SIZE = 256


@dataclass(frozen=True)
class FixedPointSolution:
    """One admissible solution of the penalty equation at penalty ``lam``
    and aspect ratio ``aspect``."""

    lam: float
    aspect: float
    mu: float
    residual: float


def _check_phi(phi: float) -> None:
    if not (phi > 0.0) or not math.isfinite(phi):
        raise InvalidParameterError(f"aspect ratio must be positive and finite, got {phi}")


def _solve_monotone(f, lo: float, hi: float, flo: float, fhi: float, increasing: bool,
                    f_noise: float = 0.0, secant: bool = False):
    """Root of a strictly monotone function on a bracket [lo, hi] with
    values flo at lo and fhi at hi of opposite sign. ``f(x)`` returns the
    value and the slope at x from one evaluation; with ``secant`` it returns
    the value alone and the slope is taken through the last two iterates.
    Newton (or secant) steps are taken when they stay inside the bracket,
    bisection otherwise; terminates on a zero residual, on a step of at most
    a few ulps of x or within the evaluation noise of f (``f_noise``,
    absolute, divided by the slope), or on bracket collapse."""
    sign = 1.0 if increasing else -1.0
    if sign * flo > 0.0 or sign * fhi < 0.0:
        raise SolverFailureError(
            f"bracket [{lo}, {hi}] does not enclose a root (f(lo)={flo}, f(hi)={fhi})"
        )
    x = 0.5 * (lo + hi)
    xp, fp = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    for _ in range(MAX_BISECT + MAX_NEWTON):
        if secant:
            fx = f(x)
        else:
            fx, dfx = f(x)
        if fx == 0.0:
            break
        if sign * fx > 0.0:
            hi = x
        else:
            lo = x
        # relative bracket collapse, so tiny roots keep full relative accuracy
        if hi - lo <= 1e-15 * max(abs(lo), abs(hi)) + 1e-300:
            break
        if secant:
            dfx = (fx - fp) / (x - xp) if x != xp else 0.0
            xp, fp = x, fx
        step_ok = False
        if dfx != 0.0 and math.isfinite(dfx):
            x_new = x - fx / dfx
            if abs(x_new - x) <= _STEP_TOL * abs(x) + f_noise / abs(dfx) and lo <= x_new <= hi:
                return x_new  # converged: the next step is below round-off
            if lo < x_new < hi:
                x = x_new
                step_ok = True
        if not step_ok:
            x = 0.5 * (lo + hi)
    return x


def _edge(spectrum: Spectrum, phi: float) -> tuple[float, float]:
    """The memoized edge record (mu_zero, lambda_min) of ``phi``."""
    _check_phi(phi)
    edges = spectrum._edges
    edge = edges.get(phi)
    if edge is None:
        # concurrent callers may both solve a missing edge; they store the
        # same record, so the memo needs no lock
        mu0 = _solve_edge(spectrum, phi)
        # the penalty is -mu0^2 s2 / t2 <= 0; within an ulp or two of aspect 1
        # the rounding of mu0 (1 - phi t1) can leave it ~1e-32 above zero
        edge = (mu0, min(lambda_of_mu(spectrum, mu0, phi), 0.0))
        if len(edges) >= _EDGE_MEMO_SIZE:
            edges.clear()
        edges[phi] = edge
    return edge


def mu_zero(spectrum: Spectrum, phi: float) -> float:
    """Edge of the admissible branch: the unique mu0 > -r_min with
    phi * tr[S^2 (S + mu0 I)^-2] / p = 1.

    Negative for phi < 1, zero at phi = 1, positive for phi > 1. Solved once
    per (spectrum, phi): later calls return the memoized edge.
    """
    return _edge(spectrum, phi)[0]


def _solve_edge(spectrum: Spectrum, phi: float) -> float:
    """Solve the edge equation of :func:`mu_zero` from scratch."""
    r = spectrum.eigenvalues
    r2 = r * r
    p = r.size

    def g(mu: float) -> tuple[float, float]:
        s = r + mu
        q = r / s
        return (phi * (float((q * q).sum()) / p) - 1.0,
                -2.0 * phi * (float((r2 / s**3).sum()) / p))

    # g decreases from +inf (mu -> -r_min) to -1 (mu -> inf).
    r_min = spectrum.r_min
    # at lo, r_min / (r_min + lo) = 2 sqrt(p / phi): that term alone gives g >= 3
    lo = r_min * (0.5 * math.sqrt(phi / p) - 1.0)
    if lo <= -r_min:
        # below an aspect of about p eps^2 / 4 the edge is within rounding of the pole
        raise InvalidParameterError(
            f"aspect ratio {phi} is too small: the branch edge lies within rounding "
            f"of -r_min={-r_min}"
        )
    # r / (r + mu) is largest at r_max for mu >= 0 and at r_min for mu < 0;
    # at hi that term is 1 / (2 sqrt(phi)), so g(hi) <= 1/4 - 1
    hi = (spectrum.r_max if phi >= 0.25 else r_min) * (2.0 * math.sqrt(phi) - 1.0)
    if spectrum.r_max + hi > _CUBE_MAX:
        # the cubes in the slope of g would overflow inside the bracket
        raise InvalidParameterError(
            f"aspect ratio {phi} is too large: the branch edge bracket reaches {hi:.3g}, "
            f"where the edge equation's slope overflows"
        )
    # g sums terms near 1 and subtracts 1: its noise is a few eps, which
    # bounds the accuracy of roots near zero (phi near 1) in absolute terms
    mu0 = _solve_monotone(g, lo, hi, g(lo)[0], g(hi)[0], increasing=False, f_noise=4.0 * _EPS)
    # a machine-accurate root still carries residual ~ ulp(mu0) * |g'| when
    # the edge is steep (tiny phi), so the check is conditioning-aware
    g0, dg0 = g(mu0)
    tol = RESIDUAL_TOL * max(1.0, phi) + 32.0 * _EPS * (abs(mu0) + spectrum.r_min) * abs(dg0)
    if abs(g0) > tol:
        raise SolverFailureError(f"edge equation residual {g0:.3e} above tolerance")
    return float(mu0)


def lambda_of_mu(spectrum: Spectrum, mu, aspect: float):
    """Penalty on the admissible branch that induces the level ``mu``:
    lam = mu * (1 - aspect * tr[S (S + mu I)^-1] / p). ``mu`` may be a
    scalar (a float is returned) or an array of levels; a level at or below
    -r_min, or NaN, raises SingularResolventError, and +inf is admissible."""
    _check_phi(aspect)
    mus = np.asarray(mu, dtype=float)
    levels = mus[mus != math.inf]  # +inf is the killed fit
    if levels.size:
        # the least level, or a NaN, is the one the guard must see
        spectrum._check_shift(float(levels.min()))
    r = spectrum.eigenvalues
    lam = mus * (1.0 - aspect * ((r / (r + mus[..., None])).sum(axis=-1) / r.size))
    # + 0.0 turns the -0.0 of mu = 0 at aspect > 1 into 0
    return lam if mus.ndim else float(lam) + 0.0


def lambda_min(spectrum: Spectrum, phi: float) -> float:
    """Minimum admissible ridge penalty: the value of the penalty equation at
    the branch edge. Nonpositive everywhere, zero exactly at phi = 1."""
    return _edge(spectrum, phi)[1]


def solve_mu(
    spectrum: Spectrum,
    lam: float,
    aspect: float,
    *,
    boundary_ok: bool = False,
) -> FixedPointSolution:
    """Solve the penalty equation for mu at penalty ``lam`` and aspect ratio
    ``aspect``, on the branch mu > mu_zero(aspect).

    Requires lam > lambda_min(aspect) beyond the rounding error of
    lambda_min. With ``boundary_ok`` a penalty at the minimum, or below it
    by at most 1e-11 (1 + |lambda_min|), returns the edge solution instead
    of raising (used by ensemble evaluations where the edge is admissible).
    """
    if not math.isfinite(lam):
        raise InvalidParameterError(f"penalty must be finite, got {lam}")
    if aspect == PSI_INFINITE:
        return FixedPointSolution(lam=lam, aspect=aspect, mu=math.inf, residual=0.0)
    _check_phi(aspect)

    mu0 = mu_zero(spectrum, aspect)
    lmin = lambda_min(spectrum, aspect)
    # lmin is the product mu0 * (1 - aspect t1): it is known to a few eps of
    # |lmin| + |mu0|, and a penalty above that is solved, however close
    if lam <= lmin + 4.0 * _EPS * (abs(lmin) + abs(mu0)):
        if boundary_ok and lam >= lmin - 1e-11 * (1.0 + abs(lmin)):
            return FixedPointSolution(lam=lam, aspect=aspect, mu=mu0, residual=abs(lam - lmin))
        raise BelowMinimumPenaltyError(
            f"penalty {lam} is not above the minimum {lmin} at aspect {aspect}"
        )

    r = spectrum.eigenvalues
    p = r.size
    if lam == 0.0 and aspect < 1.0:
        mu = 0.0  # ridgeless, underparameterized: exact root
    else:
        def f(mu: float) -> tuple[float, float]:
            q = r / (r + mu)
            return (mu * (1.0 - aspect * (float(q.sum()) / p)) - lam,
                    1.0 - aspect * (float((q * q).sum()) / p))

        # f(hi) >= hi - lam - aspect r_max > 0 in exact arithmetic, but
        # rounding can flip its sign for penalties near 1e8 r_max
        hi = max(1.0, lam + aspect * spectrum.r_max)
        fhi = f(hi)[0]
        while fhi < 0.0:
            hi *= 2.0
            if hi > 1e300:
                raise SolverFailureError("penalty equation bracket expansion diverged")
            fhi = f(hi)[0]
        # f(mu0) = lmin - lam < 0 is known, and the slope vanishes there
        mu = _solve_monotone(f, mu0, hi, lmin - lam, fhi, increasing=True)

    residual = abs(mu - lam - aspect * (float((mu * r / (r + mu)).sum()) / p))
    # written so that a NaN residual fails too
    if not residual <= 1e-10 * (1.0 + abs(lam) + abs(mu)):
        raise SolverFailureError(
            f"penalty equation residual {residual:.3e} at lam={lam}, aspect={aspect}"
        )
    return FixedPointSolution(lam=lam, aspect=aspect, mu=float(mu), residual=float(residual))


def _edge_level(spectrum: Spectrum, lam: float, lo: float, hi: float | None = None) -> float:
    """Level on the branch edge at which the minimum penalty equals ``lam``
    (< 0): the edge mu_zero(a) of the aspect a with lambda_min(a) = lam.

    On the edge the aspect is 1 / t2 and the penalty -mu^2 s2 / t2, with
    s2 = tr[S (S+mu I)^-2] / p and t2 = tr[S^2 (S+mu I)^-2] / p; it increases
    in mu below zero and decreases above, so a bracket [lo, hi] on one side
    of zero holds at most one such level. ``hi=None`` takes the level above
    ``lo >= 0`` up to 2 sqrt(r_max |lam|).
    """
    r = spectrum.eigenvalues
    p = r.size

    def g(mu: float) -> tuple[float, float]:
        s = r + mu
        q = r / s
        qq = q * q
        t1, t2 = float(q.sum()) / p, float(qq.sum()) / p
        s2, t3 = float((q / s).sum()) / p, float((qq / s).sum()) / p
        # the penalty equation is stationary in mu on the edge, so the slope
        # is the aspect's: mu t1 times d(1 / t2) / dmu = 2 t3 / t2^2
        return mu * mu * s2 / t2 + lam, 2.0 * mu * t1 * t3 / (t2 * t2)

    if hi is None:
        # t2 <= r_max s2, so g >= mu^2 / r_max + lam = 3 |lam| there
        hi = 2.0 * math.sqrt(spectrum.r_max * -lam)
    return _solve_monotone(g, lo, hi, g(lo)[0], g(hi)[0], increasing=lo >= 0.0,
                           f_noise=4.0 * _EPS * abs(lam))


@dataclass(frozen=True)
class EquivalencePath:
    """Segment of (penalty, subsample aspect) pairs sharing one value of mu.

    Endpoint theta=0 is the plain-ridge anchor (lambda_bar, phi); endpoint
    theta=1 is the minimum-penalty ensemble anchor (lambda_min(psi_bar),
    psi_bar). Every convex combination solves the penalty equation with the
    same mu_star.
    """

    lambda_bar: float
    psi_bar: float
    phi: float
    mu_star: float
    points: tuple[tuple[float, float, float], ...]


def equivalence_path(
    spectrum: Spectrum,
    phi: float,
    *,
    lambda_bar: float | None = None,
    psi_bar: float | None = None,
    samples: int = 33,
) -> EquivalencePath:
    """Resolve the contour of constant mu through one anchor.

    Exactly one of ``lambda_bar`` (plain-ridge penalty, > lambda_min(phi)) or
    ``psi_bar`` (ensemble aspect, >= phi) must be given; the other endpoint
    follows from matching mu between the two parameterizations.
    """
    _check_phi(phi)
    _check_count("samples", samples, 2)
    if (lambda_bar is None) == (psi_bar is None):
        raise InvalidParameterError("give exactly one anchor: lambda_bar or psi_bar")

    if psi_bar is not None:
        if psi_bar < phi:
            raise InvalidParameterError(f"invalid anchor: psi_bar={psi_bar} below phi={phi}")
        mu_star = mu_zero(spectrum, psi_bar)
        lam_bar = lambda_of_mu(spectrum, mu_star, phi)
    else:
        try:
            mu_star = solve_mu(spectrum, lambda_bar, phi).mu
        except BelowMinimumPenaltyError as exc:
            raise InvalidParameterError(f"invalid anchor: {exc}") from exc
        # The ensemble endpoint has mu_star sitting exactly on its branch
        # edge, which fixes the aspect ratio in closed form.
        r = spectrum.eigenvalues
        with np.errstate(over="ignore"):
            t2 = float((r**2 / (r + mu_star) ** 2).sum()) / r.size
        psi_bar = 1.0 / t2 if t2 > 0.0 else math.inf
        if psi_bar == math.inf:
            raise InvalidParameterError(
                f"invalid anchor: lambda_bar={lambda_bar} is too large, its ensemble "
                f"aspect overflows"
            )
        lam_bar = float(lambda_bar)
        if psi_bar < phi - 1e-9 * (1.0 + phi):
            raise InvalidParameterError(
                f"invalid anchor: resolved psi_bar={psi_bar} below phi={phi}"
            )
        psi_bar = max(psi_bar, phi)

    lam_end = lambda_of_mu(spectrum, mu_star, psi_bar)
    thetas = np.linspace(0.0, 1.0, samples)
    points = tuple(
        (float(t), float((1.0 - t) * lam_bar + t * lam_end), float((1.0 - t) * phi + t * psi_bar))
        for t in thetas
    )
    return EquivalencePath(
        lambda_bar=float(lam_bar),
        psi_bar=float(psi_bar),
        phi=float(phi),
        mu_star=float(mu_star),
        points=points,
    )
