"""Conditional likelihood fitting and semiparametric link estimation.

Covers the binary latent-recursion family: the latent index path is a linear
filter of the forcing series, so likelihood, analytic score and their finite
sample behaviour are all O(n) via ``scipy.signal.lfilter``.  The
semiparametric route profiles out the link by a kernel regression of the
responses on the fitted index and maximizes the plug-in likelihood over the
autoregressive parameters, with the first covariate loading pinned to one as
the scale normalization.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .models import (
    ObservationDrivenBinarySpec,
    StationarityReport,
    stationarity_check,
)

__all__ = [
    "DataSizeError",
    "Dataset",
    "FitConfig",
    "FitResult",
    "conditional_loglik",
    "loglik_gradient",
    "fit_mle",
    "SemiparametricResult",
    "semiparametric_fit",
]

_LOG_FLOOR = math.log(1e-300)


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
        if hasattr(path_or_text, "read"):
            rows = list(csv.reader(path_or_text))
        else:
            with open(path_or_text, newline="") as fh:
                rows = list(csv.reader(fh))
        header = [c.strip() for c in rows[0]]
        d = next((i for i, h in enumerate(header[2:]) if not h.startswith("x_")), len(header) - 2)
        if header[:2] != ["t", "y"] or not all(h.startswith("lambda_") for h in header[2 + d :]):
            raise ValueError("expected CSV header t,y,x_1..x_d[,lambda_1..k]")
        body = [r for r in rows[1:] if r]
        y = np.array([int(r[1]) for r in body])
        x = np.array([[float(v) for v in r[2 : 2 + d]] for r in body])
        return cls(y=y, x=x)

    def to_csv(self, dest=None) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t", "y"] + [f"x_{i+1}" for i in range(self.dim)])
        for t in range(self.n):
            w.writerow([t + 1, int(self.y[t])] + [repr(float(v)) for v in self.x[t]])
        text = buf.getvalue()
        if dest is not None:
            with open(dest, "w", newline="") as fh:
                fh.write(text)
        return text


# ---------------------------------------------------------------------------
# likelihood machinery
# ---------------------------------------------------------------------------


def _shifted(series: np.ndarray, lag: int) -> np.ndarray:
    """Series lagged by ``lag`` with zeros before the sample start."""
    out = np.zeros_like(series, dtype=float)
    if lag < series.size:
        out[lag:] = series[: series.size - lag]
    return out


def _mu_path(alpha, beta, gamma, y, x) -> np.ndarray:
    """Latent index path with zero initialization via linear filtering."""
    # scipy.signal and scipy.optimize are imported where they are used: they
    # are slow to import and only fitting needs them
    from scipy.signal import lfilter

    forcing = x @ gamma
    for k, ak in enumerate(alpha, start=1):
        forcing = forcing + ak * _shifted(y, k)
    if beta.size == 0:
        return forcing
    den = np.concatenate([[1.0], -beta])
    return lfilter([1.0], den, forcing)


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
    warmup = _default_warmup(spec) if warmup is None else warmup
    mu = _mu_path(spec.alpha, spec.beta, spec.gamma, data.y.astype(float), data.x)
    f = np.clip(spec.link.cdf(mu), 1e-300, 1.0 - 1e-16)
    ll = np.where(data.y == 1, np.log(f), np.log1p(-f))
    ll = np.maximum(ll, _LOG_FLOOR)
    return float(ll[warmup:].sum())


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
    from scipy.signal import lfilter

    warmup = _default_warmup(spec) if warmup is None else warmup
    yf = data.y.astype(float)
    mu = _mu_path(spec.alpha, spec.beta, spec.gamma, yf, data.x)
    if spec.link.pdf is None:
        raise NotImplementedError("analytic score needs a link with a known density")
    f = np.clip(spec.link.cdf(mu), 1e-12, 1.0 - 1e-12)
    w = (yf - f) * spec.link.pdf(mu) / (f * (1.0 - f))
    den = np.concatenate([[1.0], -spec.beta]) if spec.beta.size else np.array([1.0])
    cols = []
    for k in range(1, spec.alpha.size + 1):
        cols.append(lfilter([1.0], den, _shifted(yf, k)))
    for j in range(1, spec.beta.size + 1):
        cols.append(lfilter([1.0], den, _shifted(mu, j)))
    for i in range(data.dim):
        cols.append(lfilter([1.0], den, data.x[:, i]))
    grad = np.array([float((w * c)[warmup:].sum()) for c in cols])
    return grad


@dataclass(frozen=True)
class FitConfig:
    """Deterministic multi-start simplex optimization settings."""

    max_iter: int = 2000
    xatol: float = 1e-6
    fatol: float = 1e-9
    stationarity_margin: float = 1e-3
    barrier_weight: float = 1e-6
    start_offsets: tuple = (0.0, 0.5, -0.5, 0.25, -0.25)
    warmup: int | None = None
    min_obs_per_param: int = 10


@dataclass
class FitResult:
    theta_hat: np.ndarray
    loglik: float
    convergence: str
    stderr: np.ndarray | None
    n_used: int
    starts_tried: int
    report: StationarityReport


def _objective(theta, template, data, cfg) -> float:
    p, q, d = template.alpha.size, template.beta.size, template.gamma.size
    _, b, _ = _unpack(theta, p, q, d)
    spec = ObservationDrivenBinarySpec(
        alpha=theta[:p], beta=b, gamma=theta[p + q :], link=template.link
    )
    report = stationarity_check(spec)
    slack = 1.0 - report.spectral_radius - cfg.stationarity_margin
    if slack <= 0.0 or not np.isfinite(report.spectral_radius):
        return float("inf")
    ll = conditional_loglik(spec, data, warmup=cfg.warmup)
    return -ll / data.n - cfg.barrier_weight * math.log(slack)


def fit_mle(
    template: ObservationDrivenBinarySpec,
    data: Dataset,
    config: FitConfig | None = None,
) -> FitResult:
    """Maximize the conditional likelihood over the stationary region.

    Deterministic: a fixed fan of starting points (zero and symmetric
    offsets), Nelder-Mead per start, best final value wins.  Standard errors
    are the inverse observed-information diagonal obtained by differencing
    the analytic score; they are omitted when the information matrix is not
    invertible.
    """
    from scipy.optimize import minimize

    cfg = config or FitConfig()
    n_par = template.alpha.size + template.beta.size + template.gamma.size
    if data.n < cfg.min_obs_per_param * n_par:
        raise DataSizeError(
            f"{data.n} observations cannot support {n_par} parameters"
        )
    candidates = []
    tried = 0
    for off in cfg.start_offsets:
        x0 = np.full(n_par, off)
        if template.beta.size:
            # keep the latent recursion well inside the stationary region
            x0[template.alpha.size : template.alpha.size + template.beta.size] *= 0.5
        res = minimize(
            _objective,
            x0,
            args=(template, data, cfg),
            method="Nelder-Mead",
            options={
                "maxiter": cfg.max_iter,
                "xatol": cfg.xatol,
                "fatol": cfg.fatol,
            },
        )
        tried += 1
        if np.isfinite(res.fun) and np.all(np.isfinite(res.x)):
            candidates.append(res)
    best = None
    if candidates:
        top = min(c.fun for c in candidates)
        # ties at the objective's resolution go to the smallest parameter
        # norm, which pins directions the data leave flat
        near = [c for c in candidates if c.fun <= top + 1e-6]
        best = min(near, key=lambda c: float(np.linalg.norm(c.x)))
    if best is None or not np.all(np.isfinite(best.x)):
        return FitResult(
            theta_hat=np.full(n_par, np.nan),
            loglik=float("-inf"),
            convergence="failed",
            stderr=None,
            n_used=data.n,
            starts_tried=tried,
            report=StationarityReport(False, float("inf"), 0.0),
        )
    theta = best.x
    spec_hat = _spec_at(template, theta)
    ll = conditional_loglik(spec_hat, data, warmup=cfg.warmup)
    stderr = None
    try:
        h = 1e-5
        dim = theta.size
        H = np.zeros((dim, dim))
        for i in range(dim):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            gp = loglik_gradient(_spec_at(template, tp), data, warmup=cfg.warmup)
            gm = loglik_gradient(_spec_at(template, tm), data, warmup=cfg.warmup)
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
        convergence="converged" if best.success else "max-iter",
        stderr=stderr,
        n_used=data.n,
        starts_tried=tried,
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


def _link_regression(y, mu, h, grid_size=512):
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
    grid = np.linspace(lo, hi, grid_size)
    step = (hi - lo) / (grid_size - 1)
    idx = np.clip(np.rint((mu - lo) / step).astype(np.int64), 0, grid_size - 1)
    cnt = np.bincount(idx, minlength=grid_size).astype(float)
    ysum = np.bincount(idx, weights=y, minlength=grid_size)
    width = max(int(math.ceil(h / step)), 1)
    kern = _epanechnikov(np.arange(-width, width + 1) * step / h)
    den = np.convolve(cnt, kern, mode="same")
    num = np.convolve(ysum, kern, mode="same")
    empty = int((den <= 1e-12).sum())
    valid = den > 1e-12
    fhat = np.empty_like(grid)
    fhat[valid] = num[valid] / den[valid]
    if empty:
        fhat[~valid] = np.interp(grid[~valid], grid[valid], fhat[valid])
    return grid, np.clip(fhat, 1e-6, 1.0 - 1e-6), empty


def semiparametric_fit(
    data: Dataset,
    template: ObservationDrivenBinarySpec,
    bandwidth: float | None = None,
    config: FitConfig | None = None,
) -> SemiparametricResult:
    """Profile out the link and fit the autoregressive parameters.

    The free parameters are ``(alpha, beta, gamma_2..gamma_d)``; the first
    covariate loading is pinned to one, fixing the scale of the index that
    the nonparametric link absorbs.  Bandwidth defaults to
    ``std(mu) * n**(-1/5)`` recomputed per candidate; the returned link
    estimate is tabulated on the final grid.
    """
    from scipy.optimize import minimize

    cfg = config or FitConfig()
    p, q, d = template.alpha.size, template.beta.size, template.gamma.size
    if d < 1:
        raise ValueError("the scale normalization requires at least one covariate")
    n_free = p + q + (d - 1)
    if data.n < cfg.min_obs_per_param * max(n_free, 1):
        raise DataSizeError(f"{data.n} observations cannot support {n_free} parameters")
    yf = data.y.astype(float)
    state = {"empty": 0}

    def build(theta_free):
        gamma = np.concatenate([[1.0], theta_free[p + q :]])
        return theta_free[:p], theta_free[p : p + q], gamma

    def profile_objective(theta_free):
        a, b, g = build(theta_free)
        spec = ObservationDrivenBinarySpec(alpha=a, beta=b, gamma=g, link=template.link)
        if not stationarity_check(spec).passed:
            return float("inf")
        mu = _mu_path(a, np.asarray(b), g, yf, data.x)
        h = bandwidth or max(float(mu.std()) * data.n ** (-0.2), 1e-3)
        grid, fhat, empty = _link_regression(yf, mu, h)
        state["empty"] = empty
        fv = np.clip(np.interp(mu, grid, fhat), 1e-6, 1.0 - 1e-6)
        ll = np.where(data.y == 1, np.log(fv), np.log1p(-fv))
        warm = _default_warmup(ObservationDrivenBinarySpec(a, np.asarray(b), g, template.link))
        return -float(ll[warm:].sum()) / data.n

    best = None
    if n_free == 0:
        theta_free = np.zeros(0)
        obj = profile_objective(theta_free)
        best = type("R", (), {"x": theta_free, "fun": obj, "success": True})()
    else:
        for off in cfg.start_offsets:
            x0 = np.full(n_free, off)
            if q:
                x0[p : p + q] *= 0.5
            res = minimize(
                profile_objective,
                x0,
                method="Nelder-Mead",
                options={"maxiter": cfg.max_iter, "xatol": 1e-4, "fatol": 1e-7},
            )
            if np.isfinite(res.fun) and (best is None or res.fun < best.fun):
                best = res
    if best is None:
        raise RuntimeError("no feasible starting point for the profile objective")
    a, b, g = build(best.x)
    mu = _mu_path(a, np.asarray(b), g, yf, data.x)
    h = bandwidth or max(float(mu.std()) * data.n ** (-0.2), 1e-3)
    grid, fhat, empty = _link_regression(yf, mu, h)
    return SemiparametricResult(
        theta_hat=np.asarray(best.x),
        grid=grid,
        fhat=fhat,
        objective=-float(best.fun),
        bandwidth=h,
        empty_windows=empty,
        convergence="converged" if getattr(best, "success", True) else "max-iter",
    )
