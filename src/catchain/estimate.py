"""Conditional likelihood fitting and semiparametric link estimation.

Covers the binary latent-recursion family: the latent index path is a linear
filter of the forcing series, so likelihood, analytic score and their finite
sample behaviour are all O(n) via ``scipy.signal.lfilter``.  ``fit_mle``
runs BFGS on the analytic score (finite differences of the objective for a
link with no density).  The semiparametric route profiles out the link by a
kernel regression of the responses on the fitted index and maximizes the
plug-in likelihood over the autoregressive parameters by one Nelder-Mead
run, since the profile has no score, with the first covariate loading
pinned to one as the scale normalization.  That run starts from the
parametric estimate rescaled to the pinned loading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import read_rows, table
from .models import (
    ObservationDrivenBinarySpec,
    StationarityReport,
    stationarity_check,
)

__all__ = [
    "DataSizeError",
    "Dataset",
    "FitResult",
    "conditional_loglik",
    "loglik_gradient",
    "fit_mle",
    "SemiparametricResult",
    "semiparametric_fit",
]

_LOG_FLOOR = math.log(1e-300)
# the deterministic optimizer settings of every fit
_MAX_ITER = 2000  # iterations of each BFGS start and of the profile's Nelder-Mead run
_GTOL = 1e-9  # BFGS stop on the largest gradient entry of the objective per observation
_STATIONARITY_MARGIN = 1e-3  # a fit keeps the spectral radius below 1 minus this
_BARRIER_WEIGHT = 1e-6  # weight of the log barrier on the stationarity slack
_START_OFFSETS = (0.0, 0.5, -0.5, 0.25, -0.25)  # fit_mle's fan of starts; the profile starts once
_MIN_OBS_PER_PARAM = 10  # fewer observations per parameter raise DataSizeError
_LINK_GRID = 512  # cells of the profile's link regression, the rows of fhat_grid.csv


class DataSizeError(ValueError):
    """Not enough observations for the requested fit."""


@dataclass
class Dataset:
    """Aligned binary responses and covariates."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.int64).ravel()
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if self.x.shape[0] != self.y.size:
            raise ValueError("y and x lengths differ")
        bad = np.flatnonzero((self.y != 0) & (self.y != 1))
        if bad.size:
            raise ValueError(f"y must be 0 or 1, got {self.y[bad[0]]} in data row {bad[0] + 1}")

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @classmethod
    def from_csv(cls, path_or_text) -> "Dataset":
        """Read ``t,y,x_1..x_d[,lambda_1..k]`` CSV (``simulate``'s
        ``path.csv`` included); only ``y`` and the ``x_*`` columns are kept."""
        rows = read_rows(path_or_text)
        if not rows:
            raise ValueError("dataset CSV is empty")
        header = [c.strip() for c in rows[0]]
        d = next((i for i, h in enumerate(header[2:]) if not h.startswith("x_")), len(header) - 2)
        if header[:2] != ["t", "y"] or not all(h.startswith("lambda_") for h in header[2 + d :]):
            raise ValueError("expected CSV header t,y,x_1..x_d[,lambda_1..k]")
        body = [r for r in rows[1:] if r]
        if not body:
            raise ValueError("dataset CSV has a header but no rows")
        short = next((i for i, r in enumerate(body, start=1) if len(r) != len(header)), None)
        if short is not None:
            raise ValueError(f"data row {short} has {len(body[short - 1])} fields, the header {len(header)}")
        try:
            y = np.array([int(r[1]) for r in body])
            x = np.array([[float(v) for v in r[2 : 2 + d]] for r in body])
        except ValueError as exc:
            raise ValueError(f"dataset CSV holds a value that is not a number: {exc}") from exc
        row, col = np.nonzero(~np.isfinite(x))
        if row.size:
            raise ValueError(f"x_{col[0] + 1} must be finite, got {x[row[0], col[0]]} in data row {row[0] + 1}")
        return cls(y=y, x=x)

    def to_csv(self, dest=None) -> str:
        header = ["t", "y"] + [f"x_{i+1}" for i in range(self.dim)]
        return table(header, ([t + 1, int(self.y[t])] + self.x[t].tolist() for t in range(self.n)), dest)


# ---------------------------------------------------------------------------
# likelihood machinery
# ---------------------------------------------------------------------------


def _shifted(series: np.ndarray, lag: int) -> np.ndarray:
    """Series lagged by ``lag`` with zeros before the sample start."""
    out = np.zeros_like(series, dtype=float)
    if lag < series.size:
        out[lag:] = series[: series.size - lag]
    return out


def _index_path(alpha, beta, forcing, lags) -> np.ndarray:
    """Latent index path from the covariate forcing ``x @ gamma`` and the
    lagged responses ``lags`` (lag 1 first, one per entry of ``alpha``),
    with zero initialization via linear filtering."""
    # scipy.signal and scipy.optimize are imported where they are used: they
    # are slow to import and only fitting needs them
    from scipy.signal import lfilter

    for ak, lag in zip(alpha, lags, strict=True):
        forcing = forcing + ak * lag
    if beta.size == 0:
        return forcing
    den = np.concatenate([[1.0], -beta])
    return lfilter([1.0], den, forcing)


def _mu_path(alpha, beta, gamma, y, x) -> np.ndarray:
    """Latent index path with zero initialization via linear filtering."""
    return _index_path(alpha, beta, x @ gamma, [_shifted(y, k) for k in range(1, len(alpha) + 1)])


def _unpack(theta: np.ndarray, p: int, q: int, d: int):
    theta = np.asarray(theta, dtype=float)
    if theta.size != p + q + d:
        raise ValueError(f"theta must have length {p + q + d}")
    return theta[:p], theta[p : p + q], theta[p + q :]


def _spec_at(template: ObservationDrivenBinarySpec, theta: np.ndarray) -> ObservationDrivenBinarySpec:
    p, q, d = template.alpha.size, template.beta.size, template.gamma.size
    a, b, g = _unpack(theta, p, q, d)
    return ObservationDrivenBinarySpec(alpha=a, beta=b, gamma=g, link=template.link)


def _default_warmup(spec: ObservationDrivenBinarySpec) -> int:
    # zero initialization fades at the latent contraction rate; ten
    # contraction blocks is far into the noise for any admissible spec
    base = max(spec.alpha.size, spec.beta.size)
    return max(base, 10)


def _kept_warmup(warmup: int | None, spec: ObservationDrivenBinarySpec, n: int) -> int:
    """``warmup`` or its default, once it leaves one of the ``n`` observations."""
    warmup = _default_warmup(spec) if warmup is None else warmup
    if warmup >= n:
        raise ValueError(f"a warmup of {warmup} steps leaves none of the {n} observations")
    return warmup


class _Likelihood:
    """The arrays of one dataset that every likelihood evaluation reads.

    ``fit_mle`` and ``semiparametric_fit`` build one per call: the float
    responses, their ``lags`` lagged copies and the indices of the ones and
    of the rest are made once, not once per evaluation.  Nothing outlives
    the call.
    """

    def __init__(self, data: Dataset, lags: int):
        self.n, self.x = data.n, data.x
        self.yf = data.y.astype(float)
        self.lags = [_shifted(self.yf, k) for k in range(1, lags + 1)]
        self.ones = np.flatnonzero(data.y == 1)
        self.rest = np.flatnonzero(data.y != 1)

    def mu(self, alpha, beta, gamma) -> np.ndarray:
        """``_mu_path`` of the dataset."""
        return _index_path(alpha, beta, self.x @ gamma, self.lags)

    def log_terms(self, f: np.ndarray) -> np.ndarray:
        """``np.where(y == 1, np.log(f), np.log1p(-f))``, each log taken only
        where it is kept."""
        ll = np.empty_like(f)
        ll[self.ones] = np.log(f[self.ones])
        ll[self.rest] = np.log1p(-f[self.rest])
        return ll

    def loglik(self, spec: ObservationDrivenBinarySpec, warmup: int | None, mu=None) -> float:
        """``conditional_loglik`` of ``spec``, whose stationarity the caller
        checked; ``mu``, if given, is ``spec``'s index path."""
        warmup = _default_warmup(spec) if warmup is None else warmup
        mu = self.mu(spec.alpha, spec.beta, spec.gamma) if mu is None else mu
        f = np.clip(spec.link.cdf(mu), 1e-300, 1.0 - 1e-16)
        ll = np.maximum(self.log_terms(f), _LOG_FLOOR)
        return float(ll[warmup:].sum())

    def score(self, spec: ObservationDrivenBinarySpec, warmup: int | None, mu=None) -> np.ndarray:
        """``loglik_gradient`` of ``spec``; ``mu`` as for ``loglik``."""
        from scipy.signal import lfilter

        warmup = _default_warmup(spec) if warmup is None else warmup
        mu = self.mu(spec.alpha, spec.beta, spec.gamma) if mu is None else mu
        if spec.link.pdf is None:
            raise NotImplementedError("analytic score needs a link with a known density")
        f = np.clip(spec.link.cdf(mu), 1e-12, 1.0 - 1e-12)
        w = (self.yf - f) * spec.link.pdf(mu) / (f * (1.0 - f))
        den = np.concatenate([[1.0], -spec.beta]) if spec.beta.size else np.array([1.0])
        drivers = self.lags + [_shifted(mu, j) for j in range(1, spec.beta.size + 1)] + list(self.x.T)
        return np.array([float((w * lfilter([1.0], den, c))[warmup:].sum()) for c in drivers])


def conditional_loglik(
    spec: ObservationDrivenBinarySpec,
    data: Dataset,
    warmup: int | None = None,
) -> float:
    """Sum of conditional log probabilities with zero latent initialization.

    The first ``warmup`` terms (default ``max(p, q, 10)``) are excluded to
    absorb the initialization error.  Probabilities are floored at 1e-300
    before the log.
    """
    report = stationarity_check(spec)
    if not report.passed:
        raise ValueError(f"spec fails stationarity at radius {report.spectral_radius}")
    return _Likelihood(data, spec.alpha.size).loglik(spec, warmup)


def loglik_gradient(
    spec: ObservationDrivenBinarySpec,
    data: Dataset,
    warmup: int | None = None,
) -> np.ndarray:
    """Analytic score in the parameter order ``(alpha, beta, gamma)``.

    The index sensitivities solve the same linear recursion as the index
    itself, driven by the lagged responses, the lagged index and the
    covariates respectively.
    """
    return _Likelihood(data, spec.alpha.size).score(spec, warmup)


@dataclass
class FitResult:
    theta_hat: np.ndarray
    loglik: float
    convergence: str
    stderr: np.ndarray | None
    n_used: int
    report: StationarityReport


def _radius_gradient(beta: np.ndarray) -> np.ndarray:
    """Derivative of the spectral radius of the latent companion matrix in
    ``beta``.

    The eigenvalues are the roots of P(z) = z^q - beta_1 z^(q-1) - ... -
    beta_q.  At the top root lam, dlam/dbeta_j = lam^(q-j) / P'(lam), and the
    radius |lam| moves by Re(conj(lam) dlam/dbeta_j) / |lam|; for q = 1 that
    is sign(beta).  A conjugate pair on top gives both roots the same value.
    Where the radius is 0 or P'(lam) is 0 the entries are 0.
    """
    q = beta.size
    if q == 0:
        return np.zeros(0)
    companion = np.eye(q, k=-1)
    companion[0] = beta
    roots = np.linalg.eigvals(companion)
    lam = roots[np.argmax(np.abs(roots))]
    powers = lam ** np.arange(q - 1, -1, -1)  # lam^(q-j) for j = 1..q
    slope = q * powers[0] - np.dot(np.arange(q - 1, 0, -1) * beta[:-1], powers[1:])
    if lam == 0.0 or slope == 0.0:
        return np.zeros(q)
    return np.real(np.conj(lam) * powers / slope) / abs(lam)


def _feasible(theta, template):
    """``theta``'s spec and its stationarity slack, or ``None`` for the spec
    when the radius is not finite or leaves no slack inside the margin.  A
    positive slack puts the radius below ``1 - _STATIONARITY_MARGIN``, so the
    spec passes ``stationarity_check``."""
    spec = _spec_at(template, theta)
    report = stationarity_check(spec)
    slack = 1.0 - report.spectral_radius - _STATIONARITY_MARGIN
    if slack <= 0.0 or not np.isfinite(report.spectral_radius):
        return None, slack
    return spec, slack


def _objective(theta, template, lik: _Likelihood, warmup: int | None) -> float:
    """Negative log likelihood per observation plus the log barrier on the
    stationarity slack; ``inf`` outside the stationarity margin."""
    spec, slack = _feasible(theta, template)
    if spec is None:
        return float("inf")
    ll = lik.loglik(spec, warmup)
    return -ll / lik.n - _BARRIER_WEIGHT * math.log(slack)


def _objective_and_gradient(theta, template, lik: _Likelihood, warmup: int | None):
    """``_objective`` and its gradient, from one index path: minus the score
    per observation plus the barrier's derivative through the radius.
    Outside the margin the gradient is 0, so the line search only sees the
    infinite value."""
    spec, slack = _feasible(theta, template)
    if spec is None:
        return float("inf"), np.zeros(np.size(theta))
    mu = lik.mu(spec.alpha, spec.beta, spec.gamma)
    ll = lik.loglik(spec, warmup, mu)
    grad = -lik.score(spec, warmup, mu) / lik.n
    p, q = spec.alpha.size, spec.beta.size
    grad[p : p + q] += _BARRIER_WEIGHT * _radius_gradient(spec.beta) / slack
    return -ll / lik.n - _BARRIER_WEIGHT * math.log(slack), grad


def fit_mle(
    template: ObservationDrivenBinarySpec,
    data: Dataset,
    warmup: int | None = None,
) -> FitResult:
    """Maximize the conditional likelihood over the stationary region.

    Deterministic: a fixed fan of starting points (zero and symmetric
    offsets) and BFGS from each on the log-barrier objective, driven by the
    analytic score; a link with no density has no score, and BFGS then
    differences the objective.  A start that ends on a non-finite value or
    on a scipy status other than 0, 1 (``max-iter``) or 2 (precision loss
    at the optimum) is dropped; the best final value wins.  Standard errors
    are the inverse observed-information diagonal obtained by differencing
    the analytic score; they are omitted when the information matrix is not
    invertible.  The likelihood drops the first ``warmup`` terms (default
    ``max(p, q, 10)``), as ``conditional_loglik`` does.  Responses that are
    all equal from the warmup on have no maximum-likelihood estimate and
    raise ``ValueError``, as does a warmup that leaves no observation;
    fewer than ten observations per parameter raise :class:`DataSizeError`.
    """
    from scipy.optimize import minimize

    n_par = template.alpha.size + template.beta.size + template.gamma.size
    if data.n < _MIN_OBS_PER_PARAM * n_par:
        raise DataSizeError(
            f"{data.n} observations cannot support {n_par} parameters"
        )
    warmup = _kept_warmup(warmup, template, data.n)
    kept = np.unique(data.y[warmup:])
    if kept.size == 1:  # the likelihood rises without bound towards the constant fit
        raise ValueError(f"every response after the {warmup}-step warmup is {int(kept[0])}: no maximum-likelihood estimate exists")
    lik = _Likelihood(data, template.alpha.size)
    fun, jac = (_objective, None) if template.link.pdf is None else (_objective_and_gradient, True)
    candidates = []
    for off in _START_OFFSETS:
        x0 = np.full(n_par, off)
        if template.beta.size:
            # keep the latent recursion well inside the stationary region
            x0[template.alpha.size : template.alpha.size + template.beta.size] *= 0.5
        # a differenced gradient at a trial point outside the margin
        # subtracts infinities; the line search rejects the point
        with np.errstate(invalid="ignore"):
            res = minimize(
                fun,
                x0,
                args=(template, lik, warmup),
                method="BFGS",
                jac=jac,
                options={"maxiter": _MAX_ITER, "gtol": _GTOL},
            )
        if res.status in (0, 1, 2) and np.isfinite(res.fun) and np.all(np.isfinite(res.x)):
            candidates.append(res)
    if not candidates:
        return FitResult(
            theta_hat=np.full(n_par, np.nan),
            loglik=float("-inf"),
            convergence="failed",
            stderr=None,
            n_used=data.n,
            report=StationarityReport(False, float("inf"), 0.0),
        )
    top = min(c.fun for c in candidates)
    # ties at the objective's resolution go to the smallest parameter
    # norm, which pins directions the data leave flat
    near = [c for c in candidates if c.fun <= top + 1e-6]
    best = min(near, key=lambda c: float(np.linalg.norm(c.x)))
    theta = best.x
    spec_hat = _spec_at(template, theta)
    ll = conditional_loglik(spec_hat, data, warmup=warmup)
    stderr = None
    try:
        h = 1e-5
        dim = theta.size
        H = np.zeros((dim, dim))
        for i in range(dim):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            gp = lik.score(_spec_at(template, tp), warmup)
            gm = lik.score(_spec_at(template, tm), warmup)
            H[i] = (gp - gm) / (2 * h)
        info = -0.5 * (H + H.T)
        cov = np.linalg.inv(info)
        diag = np.diag(cov)
        stderr = np.sqrt(diag) if np.all(diag > 0) else None
    except (np.linalg.LinAlgError, NotImplementedError):
        stderr = None
    return FitResult(
        theta_hat=theta,
        loglik=ll,
        convergence="max-iter" if best.status == 1 else "converged",
        stderr=stderr,
        n_used=data.n,
        report=stationarity_check(spec_hat),
    )


# ---------------------------------------------------------------------------
# semiparametric profile estimation
# ---------------------------------------------------------------------------


@dataclass
class SemiparametricResult:
    theta_hat: np.ndarray
    grid: np.ndarray
    fhat: np.ndarray
    objective: float
    bandwidth: float
    empty_windows: int
    convergence: str

    def predicted(self, mu: np.ndarray) -> np.ndarray:
        return np.interp(mu, self.grid, self.fhat)


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    return 0.75 * np.clip(1.0 - u * u, 0.0, None)


def _link_regression(y, mu, h):
    """Kernel regression of the responses on the index over a fixed grid.

    Observations are binned to the nearest grid cell and the kernel is
    applied by discrete convolution, so one evaluation costs O(n + grid).
    Cells with no kernel mass fall back to the nearest estimated value.
    """
    lo, hi = float(mu.min()), float(mu.max())
    if hi - lo < 1e-12:
        grid = np.array([lo - 1e-6, hi + 1e-6])
        fill = float(y.mean())
        return grid, np.array([fill, fill]), 0
    grid = np.linspace(lo, hi, _LINK_GRID)
    step = (hi - lo) / (_LINK_GRID - 1)
    idx = np.clip(np.rint((mu - lo) / step).astype(np.int64), 0, _LINK_GRID - 1)
    cnt = np.bincount(idx, minlength=_LINK_GRID).astype(float)
    ysum = np.bincount(idx, weights=y, minlength=_LINK_GRID)
    # no kernel weight past _LINK_GRID - 1 cells can reach another cell
    width = int(np.clip(np.ceil(h / step), 1, _LINK_GRID - 1))
    kern = _epanechnikov(np.arange(-width, width + 1) * step / h)
    # the cells of the full convolution that mode="same" keeps while the kernel is the shorter
    den = np.convolve(cnt, kern)[width : width + _LINK_GRID]
    num = np.convolve(ysum, kern)[width : width + _LINK_GRID]
    empty = int((den <= 1e-12).sum())
    valid = den > 1e-12
    fhat = np.empty_like(grid)
    fhat[valid] = num[valid] / den[valid]
    if empty:
        fhat[~valid] = np.interp(grid[~valid], grid[valid], fhat[valid])
    return grid, np.clip(fhat, 1e-6, 1.0 - 1e-6), empty


def _uniform_interp(x: np.ndarray, grid: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, grid, fp)`` to the bit, for points ``x`` within the
    equally spaced grid that ``_link_regression`` builds from them.

    Each point's cell comes from the spacing instead of a binary search; a
    point that the nodes show to lie outside that cell (one within rounding
    of a node) is placed by ``np.searchsorted``.  The values are numpy's:
    ``fp[j]`` where ``x`` is the node ``grid[j]`` (the last node included)
    and else the cell's slope times ``x - grid[j]`` plus ``fp[j]``.  A grid
    of two nodes, or one that does not increase strictly, goes to
    ``np.interp``.
    """
    last = grid.size - 1
    if last < 2 or not (grid[1:] > grid[:-1]).all():
        return np.interp(x, grid, fp)
    # numpy's cell j holds grid[j] <= x < grid[j + 1]; the last node is a cell of its own
    j = np.minimum(((x - grid[0]) / ((grid[-1] - grid[0]) / last)).astype(np.int64), last)
    node = grid[j]
    miss = np.flatnonzero((node > x) | (np.concatenate([grid[1:], [np.inf]])[j] <= x))
    if miss.size:
        j[miss] = np.searchsorted(grid, x[miss], side="right") - 1
        node[miss] = grid[j[miss]]
    slopes = np.concatenate([(fp[1:] - fp[:-1]) / (grid[1:] - grid[:-1]), [0.0]])
    return np.where(node == x, fp[j], slopes[j] * (x - node) + fp[j])


def _profile_params(theta_free: np.ndarray, p: int, q: int):
    """``(alpha, beta, gamma)`` with the first covariate loading pinned to one."""
    gamma = np.concatenate([[1.0], theta_free[p + q :]])
    return theta_free[:p], theta_free[p : p + q], gamma


def _bandwidth(bandwidth: float | None, mu: np.ndarray, n: int) -> float:
    return bandwidth or max(float(mu.std()) * n ** (-0.2), 1e-3)


def _profile_objective(theta_free, template, lik: _Likelihood, bandwidth, warmup: int | None = None) -> float:
    """Negative plug-in log likelihood per observation, with the link
    profiled out by the kernel regression at ``theta_free``; the first
    ``warmup`` terms (default ``max(p, q, 10)``) are dropped."""
    a, b, g = _profile_params(theta_free, template.alpha.size, template.beta.size)
    spec = ObservationDrivenBinarySpec(alpha=a, beta=b, gamma=g, link=template.link)
    if not stationarity_check(spec).passed:
        return float("inf")
    mu = lik.mu(a, b, g)
    grid, fhat, _ = _link_regression(lik.yf, mu, _bandwidth(bandwidth, mu, lik.n))
    fv = np.clip(_uniform_interp(mu, grid, fhat), 1e-6, 1.0 - 1e-6)
    ll = lik.log_terms(fv)
    warmup = _default_warmup(spec) if warmup is None else warmup
    return -float(ll[warmup:].sum()) / lik.n


def _profile_start(theta, template, lik: _Likelihood, bandwidth, warmup) -> np.ndarray:
    """The parametric ``theta`` in the profile's coordinates, ``(alpha /
    gamma_1, beta, gamma_2..d / gamma_1)``: the index divided by ``gamma_1``
    has the pinned loading, and ``beta`` does not scale.  The zero vector
    when that point is not finite or the profile is infinite there."""
    p, q, d = template.alpha.size, template.beta.size, template.gamma.size
    a, b, g = _unpack(theta, p, q, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        x0 = np.concatenate([a / g[0], b, g[1:] / g[0]])
    if np.isfinite(x0).all() and np.isfinite(_profile_objective(x0, template, lik, bandwidth, warmup)):
        return x0
    return np.zeros(x0.size)


def semiparametric_fit(
    data: Dataset,
    template: ObservationDrivenBinarySpec,
    bandwidth: float | None = None,
    warmup: int | None = None,
    theta: np.ndarray | None = None,
) -> SemiparametricResult:
    """Profile out the link and fit the autoregressive parameters.

    The free parameters are ``(alpha, beta, gamma_2..gamma_d)``; the first
    covariate loading is pinned to one, fixing the scale of the index that
    the nonparametric link absorbs.  One Nelder-Mead run starts from the
    parametric estimate ``theta`` (order ``alpha, beta, gamma``; by default
    ``fit_mle(template, data, warmup)``) divided through by its
    ``gamma_1``, or from zero when that start is not finite or leaves the
    stationary region.  Bandwidth defaults to ``std(mu) * n**(-1/5)``
    recomputed per candidate; the returned link estimate is tabulated on
    the final grid.  The profile drops the first ``warmup`` terms (default
    ``max(p, q, 10)``), as ``fit_mle`` does, and rejects a warmup past the data.
    """
    from scipy.optimize import minimize

    p, q, d = template.alpha.size, template.beta.size, template.gamma.size
    if d < 1:
        raise ValueError("the scale normalization requires at least one covariate")
    n_free = p + q + (d - 1)
    if data.n < _MIN_OBS_PER_PARAM * max(n_free, 1):
        raise DataSizeError(f"{data.n} observations cannot support {n_free} parameters")
    warmup = _kept_warmup(warmup, template, data.n)
    lik = _Likelihood(data, p)
    if n_free == 0:
        x = np.zeros(0)
        fun, success = _profile_objective(x, template, lik, bandwidth, warmup), True
    else:
        if theta is None:
            theta = fit_mle(template, data, warmup).theta_hat
        best = minimize(
            _profile_objective,
            _profile_start(theta, template, lik, bandwidth, warmup),
            args=(template, lik, bandwidth, warmup),
            method="Nelder-Mead",
            options={"maxiter": _MAX_ITER, "xatol": 1e-4, "fatol": 1e-7},
        )
        x, fun, success = np.asarray(best.x), best.fun, best.success
    if not np.isfinite(fun):
        raise RuntimeError("no feasible starting point for the profile objective")
    mu = lik.mu(*_profile_params(x, p, q))
    h = _bandwidth(bandwidth, mu, data.n)
    grid, fhat, empty = _link_regression(lik.yf, mu, h)
    return SemiparametricResult(
        theta_hat=x,
        grid=grid,
        fhat=fhat,
        objective=-float(fun),
        bandwidth=h,
        empty_windows=empty,
        convergence="converged" if success else "max-iter",
    )
