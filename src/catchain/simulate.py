"""Covariate generation, forward sampling, coupled paths, exact small laws.

The coupled-path construction glues a ladder of intermediate chains: the
first rung swaps the initial past, every later rung swaps the kernel at one
more time index, and adjacent rungs are joined by time-iterated maximal
couplings.  Only two adjacent rungs are materialized at a time.  The outer
pair consists of the first rung and the ladder diagonal, whose per-time
mismatch probability obeys the relaxation/perturbation bound assembled from
``b*`` and the per-time kernel distances.

Each covariate family is one class; a new family defines its coupling
coefficients (the per-lag discrepancy of its canonical coupling) in its own
``coupling_coeffs(horizon, metric)``, which :func:`covariate_coupling_coeffs`
calls.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, hyp1f1

from .bounds import DecaySeq, DivergenceError, GeometricTail, bstar_from_b
from .csvio import lines
from .kernels import (
    KernelHandle,
    memory_step,
    state_code,
    successor_code,
    transition_table,
)
from .prob import PROB_TOL, as_generator, stationary_law

__all__ = [
    "HorizonError",
    "UnsupportedCovariateError",
    "IIDCovariates",
    "AR1Covariates",
    "FiniteStateMarkovCovariates",
    "sample_covariates",
    "SamplePath",
    "CoupledPathPair",
    "sample_forward",
    "glued_coupling",
    "coupled_ladder_mc",
    "kernel_distance_profile",
    "exact_marginal_law",
    "exact_marginal_laws",
    "covariate_coupling_coeffs",
    "path_to_csv",
]


class HorizonError(RuntimeError):
    """The requested accuracy is unattainable within the available burn-in."""


class UnsupportedCovariateError(RuntimeError):
    """The covariate model does not support the requested operation."""


# ---------------------------------------------------------------------------
# covariate models
# ---------------------------------------------------------------------------


def _gaussian_norm_p(mean: float, sd: float, p: float) -> float:
    """``(E|X|^p)^(1/p)`` for ``X ~ N(mean, sd^2)`` and finite ``p > 0``, by
    the closed form in Kummer's function ``1F1``."""
    if sd == 0.0:
        return abs(mean)
    moment = (
        sd**p
        * 2.0 ** (p / 2.0)
        * gamma((p + 1.0) / 2.0)
        / math.sqrt(math.pi)
        * hyp1f1(-p / 2.0, 0.5, -(mean**2) / (2.0 * sd**2))
    )
    return float(moment ** (1.0 / p))


def _is_count(value, low: int) -> bool:
    """Whether ``value`` is an integer >= ``low``; a bool is not a count."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= low


def _check_count(name: str, value, low: int = 0) -> None:
    if not _is_count(value, low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_coupling_args(horizon, metric) -> None:
    if metric not in ("l1", "discrete"):
        raise ValueError("metric must be 'l1' or 'discrete'")
    _check_count("horizon", horizon)


def _check_gaussian_fields(dim, sd, mean=0.0) -> None:
    """Reject fields a Gaussian covariate class cannot certify: a mean or
    sd that is not a finite real (bools included), a negative sd, and a
    dimension that is not an integer >= 1."""
    for name, value, low in (("mean", mean, -math.inf), ("sd", sd, 0.0)):
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and math.isfinite(value) and value >= low):
            raise ValueError(f"{name} must be a finite number{'' if low < 0 else ' >= 0'}, got {value!r}")
    _check_count("dim", dim, 1)


def _finite_array(value, name: str) -> np.ndarray:
    """``value`` as a float array, rejected by ``name`` when it is ragged,
    not numeric or holds a NaN or an infinity."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UnsupportedCovariateError(f"{name} must be a rectangular array of numbers: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise UnsupportedCovariateError(f"{name} must hold finite numbers, got {value!r}")
    return arr


@dataclass(frozen=True)
class IIDCovariates:
    """Independent draws; ``kind`` is ``"normal"`` or ``"const"``."""

    kind: str = "normal"
    mean: float = 0.0
    sd: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if self.kind not in ("normal", "const"):
            raise ValueError(f"kind must be 'normal' or 'const', got {self.kind!r}")
        _check_gaussian_fields(self.dim, self.sd, self.mean)

    def sample(self, length: int, rng) -> np.ndarray:
        _check_count("length", length)
        gen = as_generator(rng)
        if self.kind == "const":
            return np.full((length, self.dim), self.mean)
        return self.mean + self.sd * gen.normal(size=(length, self.dim))

    def exp_abs(self) -> float:
        if self.kind == "const":
            return abs(self.mean) * self.dim
        return self.dim * (abs(self.mean) + self.sd * math.sqrt(2.0 / math.pi)) if self.mean else self.dim * self.sd * math.sqrt(2.0 / math.pi)

    def norm_p(self, p: float) -> float:
        if self.kind == "const":
            return abs(self.mean) * self.dim
        if not math.isinf(p):
            return _gaussian_norm_p(self.mean, self.sd, p) * self.dim
        raise UnsupportedCovariateError("unbounded covariates have no sup norm")

    def coupling_coeffs(self, horizon: int, metric: str) -> DecaySeq:
        """The coupling shares all innovations from time 1 on, so only the
        time-0 draws differ."""
        _check_coupling_args(horizon, metric)
        vals = np.zeros(horizon + 1)
        if self.kind == "normal" and self.sd > 0:
            vals[0] = 1.0 if metric == "discrete" else self.dim * 2.0 * self.sd / math.sqrt(math.pi)
        return DecaySeq(vals)


@dataclass(frozen=True)
class AR1Covariates:
    """Stationary scalar-per-component AR(1) with Gaussian innovations."""

    rho: float
    sd: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if not abs(self.rho) < 1.0:
            raise UnsupportedCovariateError("|rho| must be < 1 for stationarity")
        _check_gaussian_fields(self.dim, self.sd)

    @property
    def stationary_sd(self) -> float:
        return self.sd / math.sqrt(1.0 - self.rho**2)

    def sample(self, length: int, rng) -> np.ndarray:
        _check_count("length", length)
        gen = as_generator(rng)
        x = np.empty((length, self.dim))
        if length == 0:
            return x
        x[0] = self.stationary_sd * gen.normal(size=self.dim)
        eps = self.sd * gen.normal(size=(length - 1, self.dim))
        rho = float(self.rho)
        for j in range(self.dim):  # one column at a time, on Python floats
            prev, column = float(x[0, j]), []
            for e in eps[:, j].tolist():
                prev = rho * prev + e
                column.append(prev)
            x[1:, j] = column
        return x

    def exp_abs(self) -> float:
        return self.dim * self.stationary_sd * math.sqrt(2.0 / math.pi)

    def norm_p(self, p: float) -> float:
        if math.isinf(p):
            raise UnsupportedCovariateError("AR(1) covariates are unbounded")
        return self.dim * _gaussian_norm_p(0.0, self.stationary_sd, p)

    def coupling_coeffs(self, horizon: int, metric: str) -> DecaySeq:
        """The pre-time-0 innovations are swapped for an independent copy,
        leaving a geometrically damped gap with an exact closed form."""
        _check_coupling_args(horizon, metric)
        if metric == "discrete":
            raise UnsupportedCovariateError("continuous AR(1) paths never meet under the discrete metric")
        first = self.dim * 2.0 * self.stationary_sd / math.sqrt(math.pi)
        vals = first * np.abs(self.rho) ** np.arange(horizon + 1)
        tail = GeometricTail(abs(self.rho)) if self.rho != 0 else None
        return DecaySeq(vals, tail=tail)


@dataclass(frozen=True)
class FiniteStateMarkovCovariates:
    """Finite-state chain with an emission map into R^d."""

    transition: tuple
    emission: tuple

    def __post_init__(self):
        P = _finite_array(self.transition, "transition")
        g = _finite_array(self.emission, "emission")
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise UnsupportedCovariateError(f"transition must be a square matrix, got shape {P.shape}")
        if g.ndim not in (1, 2) or g.shape[0] != P.shape[0]:
            raise UnsupportedCovariateError(
                f"emission must have one row per state ({P.shape[0]}), got shape {g.shape}"
            )
        if np.any(P < 0) or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-10:
            raise UnsupportedCovariateError("transition rows must be probabilities")
        if np.sum(np.abs(np.linalg.eigvals(P) - 1.0) < 1e-9) > 1:
            raise UnsupportedCovariateError("transition has more than one invariant law")

    def _P(self) -> np.ndarray:
        return np.atleast_2d(np.asarray(self.transition, dtype=float))

    def _g(self) -> np.ndarray:
        g = np.asarray(self.emission, dtype=float)
        return g.reshape(g.shape[0], -1)

    @property
    def n_states(self) -> int:
        return self._P().shape[0]

    @property
    def dim(self) -> int:
        return self._g().shape[1]

    def invariant(self) -> np.ndarray:
        """The invariant law, by one solve: :func:`~catchain.prob.stationary_law`."""
        return stationary_law(self._P())

    def sample_states(self, length: int, rng) -> np.ndarray:
        _check_count("length", length)
        gen = as_generator(rng)
        P = self._P()
        pi = self.invariant()
        cum = np.cumsum(P, axis=1).tolist()
        if length == 0:
            return np.empty(0, dtype=np.int64)
        state = int(gen.choice(self.n_states, p=pi))
        states = [state]
        last = P.shape[0] - 1  # a row whose rounded sum ends below u draws the last state
        # a cumulative row of nonnegative entries is sorted: bisect_right counts its entries <= u
        for u in gen.random(length - 1).tolist():
            state = min(bisect_right(cum[state], u), last)
            states.append(state)
        return np.array(states, dtype=np.int64)

    def sample(self, length: int, rng) -> np.ndarray:
        return self._g()[self.sample_states(length, rng)]

    def exp_abs(self) -> float:
        return float(self.invariant() @ np.abs(self._g()).sum(axis=1))

    def norm_p(self, p: float) -> float:
        g_norms = np.abs(self._g()).sum(axis=1)
        if math.isinf(p):
            return float(g_norms.max())
        return float((self.invariant() @ g_norms**p) ** (1.0 / p))

    def coupling_coeffs(self, horizon: int, metric: str) -> DecaySeq:
        """The copies run independently until they meet, then together.  Met
        pairs cost 0, so only the unmet (off-diagonal) part ``U`` of the pair
        law is carried; one step takes it to ``(P^T U P) o off``.  Past the
        horizon the unmet mass ``p`` shrinks by ``1 - delta_k`` every ``k``
        steps (Doeblin), where ``delta_k`` is the least chance over unmet
        pairs of meeting within ``k`` steps, so the tail sum is at most
        ``max(cost) p ((k - 1) + k (1 - delta_k) / delta_k)`` at the first
        ``k`` with ``delta_k > 0``.  The product chain has ``S^2`` states, so
        a pair that has not met by ``k = S^2`` never does."""
        _check_coupling_args(horizon, metric)
        P, g, pi = self._P(), self._g(), self.invariant()
        S = P.shape[0]
        off = 1.0 - np.eye(S)
        unmet = np.outer(pi, pi) * off
        cost = np.abs(g[:, None, :] - g[None, :, :]).sum(axis=2)
        if metric == "discrete":
            cost = (cost > 1e-12).astype(float)
        vals = np.empty(horizon + 1)
        vals[0] = float((unmet * cost).sum())
        for t in range(1, horizon + 1):
            unmet = P.T @ unmet @ P * off
            vals[t] = float((unmet * cost).sum())
        p_neq = float(unmet.sum())  # a sum of nonnegative entries, so never below 0
        if p_neq == 0.0:
            return DecaySeq(vals, tail_sum_bound=0.0)
        # met[i, j]: the chance that copies started at (i, j) meet within k
        # steps, by the same step run backward: meet now, or stay unmet and meet later
        met = np.zeros_like(P)
        for k in range(1, S * S + 1):
            met = P @ (np.eye(S) + off * met) @ P.T
            delta = min(float(met[off > 0].min()), 1.0)
            if delta > 0.0:
                return DecaySeq(vals, tail_sum_bound=float(cost.max()) * p_neq * ((k - 1) + k * (1.0 - delta) / delta))
        raise DivergenceError(f"a pair of unmet covariate copies cannot meet within {S * S} steps")


def sample_covariates(model, length: int, rng) -> np.ndarray:
    """Stationary covariate path of shape ``(length, d)``; ``length`` must be
    an integer >= 0, which the covariate class checks."""
    return model.sample(length, rng)


# ---------------------------------------------------------------------------
# forward sampling with certified burn-in
# ---------------------------------------------------------------------------


@dataclass
class SamplePath:
    """Realized trajectory with its stationarity certificate.

    ``y[t]`` and ``x[t]`` cover the requested window; ``burnin_used`` steps
    were simulated and discarded before it, and ``stationarity_gap_bound``
    bounds the total variation gap between the windowed law and the
    initialization-free limit.
    """

    y: np.ndarray
    x: np.ndarray
    lam: np.ndarray | None
    burnin_used: int
    stationarity_gap_bound: float


@dataclass
class CoupledPathPair:
    """Outer pair of the glued ladder plus per-time mismatch indicators."""

    y1: np.ndarray
    y2: np.ndarray
    mismatch: np.ndarray
    length: int


def _required_burnin(b: DecaySeq, window: int, eps: float, max_burnin: int) -> tuple[int, float]:
    horizon = max_burnin + window
    bs = bstar_from_b(b, horizon).values
    csum = np.concatenate([[0.0], np.cumsum(bs)])
    for n in range(0, max_burnin + 1):
        gap = float(csum[n + window] - csum[n])
        if gap <= eps:
            return n, gap
    raise HorizonError(
        f"cannot reach eps={eps} within {max_burnin} burn-in steps (gap {gap})"
    )


def _history_probs(kernel: KernelHandle, y_real, x: np.ndarray, t: int, z_init) -> np.ndarray:
    """Kernel law at time ``t`` (1-based) given realized categories
    ``y_real[:t-1]`` (a list or array, oldest first) and the pre-time-0 past
    ``z_init`` (most recent first).  Only the ``max_lag_y`` most recent
    categories and ``max_lag_x`` most recent covariates are read, which is
    all the kernel keeps, so a step costs O(memory), not O(t)."""
    mly, mlx = kernel.truncation.max_lag_y, kernel.truncation.max_lag_x
    hist = list(y_real[max(t - 1 - mly, 0) : t - 1])[::-1]
    if len(hist) < mly:
        hist = hist + list(z_init[: mly - len(hist)])
    x_hist = x[t - 1 :: -1][:mlx]
    return kernel.probs(hist, x_hist)


def sample_forward(kernel: KernelHandle, x: np.ndarray, window: int, eps: float, rng) -> SamplePath:
    """Simulate a window with burn-in certified against the decay envelope.

    The burn-in is the smallest ``n`` with
    ``sum_{l < window} b*_{n + l} <= eps``; the covariate path must be long
    enough to cover it (``len(x) >= window + n``).  Initialization is the
    all-zero past.  Kernels that record ``extra["latent_sampler"]`` (every
    kernel built from a model spec) are simulated by carrying the latent
    state forward (the exact finite-depth approximation); ``lam`` is the
    sampler's latent block, or ``None`` where it returns none.  Hand-built
    kernels (``table_kernel``) fall back to per-step evaluation, which
    passes only the kernel's truncated memory (``max_lag_y`` categories,
    ``max_lag_x`` covariates) and so costs O(memory) per step.  The burn-in
    search iterates ``b*`` only until it is exactly 0.0 for good (see
    :func:`bstar_from_b`), so for a geometrically decaying ``b`` its cost is
    linear in ``len(x)``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] < window:
        raise HorizonError("covariate path shorter than the requested window")
    gen = as_generator(rng)
    burnin, gap = _required_burnin(kernel.b, window, eps, x.shape[0] - window)
    total = burnin + window
    x_used = x[:total]
    latent_sampler = kernel.extra.get("latent_sampler")
    if latent_sampler is not None:
        y, lam = latent_sampler(x_used, gen.random(total))
        lam = None if lam is None else lam[burnin:]
    else:
        y = np.empty(total, dtype=np.int64)
        for t in range(1, total + 1):
            p = _history_probs(kernel, y, x_used, t, np.zeros(0, dtype=np.int64))
            y[t - 1] = int(gen.choice(kernel.n_categories, p=p / p.sum()))
        lam = None
    return SamplePath(
        y=y[burnin:],
        x=x_used[burnin:],
        lam=lam,
        burnin_used=burnin,
        stationarity_gap_bound=gap,
    )


# ---------------------------------------------------------------------------
# glued coupled paths
# ---------------------------------------------------------------------------


def _coupled_partners(tp: np.ndarray, tq: np.ndarray, rp, rq, u, gen) -> np.ndarray:
    """:func:`_partners_from` on ``u.size`` stay uniforms drawn from ``gen``,
    then as many residual uniforms."""
    stay_u = gen.random(u.size)
    return _partners_from(tp, tq, rp, rq, u, stay_u, gen.random(u.size))


def _partners_from(tp: np.ndarray, tq: np.ndarray, rp, rq, u, stay_u, draw) -> np.ndarray:
    """Partners of ``u`` under the maximal couplings of ``p = tp[rp]`` and
    ``q = tq[rq]``, one per replica: keep ``u`` when ``stay_u * p[u] <
    min(p[u], q[u])``, else invert ``draw`` against the residual
    ``(q - min(p, q))^+``, built only for the replicas that move."""
    n = tp.shape[1]
    p_u = tp.ravel()[rp * n + u]
    q_u = tq.ravel()[rq * n + u]
    stay = stay_u * p_u < np.minimum(p_u, q_u)
    v = u.copy()
    move = np.flatnonzero(~stay)
    if move.size:  # none on most steps of close laws
        p, q = tp[rp[move]], tq[rq[move]]
        resid = np.clip(q - np.minimum(p, q), 0.0, None)
        mass = resid.sum(axis=1)
        mass = np.where(mass > 0, mass, 1.0)
        # a rounded last cumulative sum can fall below the draw; it stays in the alphabet
        v[move] = np.minimum((resid.cumsum(axis=1) < (draw[move] * mass)[:, None]).sum(axis=1), n - 1)
    return v


def glued_coupling(
    kernel_a: KernelHandle,
    kernel_b: KernelHandle,
    x_a: np.ndarray,
    x_b: np.ndarray,
    z_a,
    z_b,
    length: int,
    rng,
) -> CoupledPathPair:
    """One draw of the outer pair of the glued coupling ladder.

    The first path follows ``kernel_a`` on covariates ``x_a`` from past
    ``z_a``.  The ladder then swaps the past to ``z_b`` and afterwards one
    time index per rung to ``kernel_b`` on ``x_b``; its diagonal is returned
    as the second path, whose marginal law is the plain ``kernel_b`` path
    law.  Adjacent rungs are coupled maximally one time step at a time.

    This is :func:`coupled_ladder_mc` at one replica, with each law read
    from the rung's history, so any kernel couples; on table kernels it
    returns the ladder's draws for the same stream.
    """
    if kernel_a.n_categories != kernel_b.n_categories:
        raise ValueError("kernels must share the alphabet")
    n = kernel_a.n_categories
    gen = as_generator(rng)
    x_a = np.atleast_2d(np.asarray(x_a, dtype=float))
    x_b = np.atleast_2d(np.asarray(x_b, dtype=float))
    _check_covariate_rows(length, x_a=x_a, x_b=x_b)
    z_a = np.asarray(z_a, dtype=np.int64)
    z_b = np.asarray(z_b, dtype=np.int64)

    def law(path_idx: int, y_real: list, t: int) -> np.ndarray:
        # rung ``path_idx`` uses kernel_b up to (and including) time path_idx
        if path_idx >= 0 and t <= path_idx:
            return _history_probs(kernel_b, y_real, x_b, t, z_b)
        return _history_probs(kernel_a, y_real, x_a, t, z_a if path_idx < 0 else z_b)

    prev = []
    for t in range(1, length + 1):
        prev.append(min(int((np.cumsum(law(-1, prev, t)) < gen.random(1)).sum()), n - 1))
    y1 = np.array(prev, dtype=np.int64)

    row = np.zeros(1, dtype=np.int64)
    diag = np.zeros(length, dtype=np.int64)
    for j in range(0, length + 1):
        cur: list = []
        for t in range(1, length + 1):
            p, q = law(j - 1, prev, t), law(j, cur, t)
            cur.append(int(_coupled_partners(p[None], q[None], row, row, np.array([prev[t - 1]]), gen)[0]))
        if j >= 1:
            diag[j - 1] = cur[j - 1]
        prev = cur
    mismatch = y1 != diag
    return CoupledPathPair(y1=y1, y2=diag, mismatch=mismatch, length=length)


def kernel_distance_profile(
    kernel_a: KernelHandle, kernel_b: KernelHandle, x_a: np.ndarray, x_b: np.ndarray, length: int
) -> np.ndarray:
    """Exact per-time sup TV distance between the two kernels over all
    memory states (truncated kernels only); index ``t`` runs 1..length."""
    x_a = np.atleast_2d(np.asarray(x_a, dtype=float))
    x_b = np.atleast_2d(np.asarray(x_b, dtype=float))
    _check_covariate_rows(length, x_a=x_a, x_b=x_b)
    out = np.zeros(length + 1)
    for t in range(1, length + 1):
        ta = transition_table(kernel_a, x_a[t - 1 :: -1][: kernel_a.truncation.max_lag_x])
        tb = transition_table(kernel_b, x_b[t - 1 :: -1][: kernel_b.truncation.max_lag_x])
        if ta.shape != tb.shape:
            raise ValueError("kernels must share memory depth for the exact profile")
        out[t] = float(0.5 * np.abs(ta - tb).sum(axis=1).max())
    return out


def _check_covariate_rows(length: int, **paths: np.ndarray) -> None:
    """Reject a ``length`` past the rows of a covariate path, naming it."""
    for name, x in paths.items():
        if length > x.shape[0]:
            raise ValueError(f"length {length} must lie within the covariate path {name} of {x.shape[0]} rows")


def _check_ladder_inputs(table_a, table_b, code_a0, code_b0, n, mem, length, replicas) -> None:
    """Reject, by argument name, what the ladder cannot step: tables that are
    not ``(N^memory, N)`` laws, codes outside ``[0, N^memory)``, no replicas
    and a negative length."""
    counts = (("n_categories", n, 1), ("memory", mem, 1), ("length", length, 0), ("replicas", replicas, 1))
    for name, value, low in counts:
        _check_count(name, value, low)
    shape = (n**mem, n)
    for name, table in (("table_a", table_a), ("table_b", table_b)):
        if table.shape != shape:
            raise ValueError(f"{name} must be shaped (n_categories**memory, n_categories) {shape}, got {table.shape}")
        if not (np.isfinite(table).all() and (table >= 0).all()):
            raise ValueError(f"{name} must hold finite entries >= 0")
        off = float(np.abs(table.sum(axis=1) - 1.0).max())
        if off > PROB_TOL:
            raise ValueError(f"every row of {name} must sum to 1 within {PROB_TOL:g}, one is off by {off:.3g}")
    for name, code in (("code_a0", code_a0), ("code_b0", code_b0)):
        if not (_is_count(code, 0) and code < n**mem):
            raise ValueError(f"{name} must be a memory-state code in [0, {n**mem}), got {code!r}")


def _draw_skipper(gen):
    """A function that moves ``gen`` past ``k`` uniforms as ``gen.random(k)``
    would: ``advance`` on a plain generator over PCG64, whose doubles take one
    64-bit step each and which holds no buffered 32-bit half (``advance``
    clears it), else drawing and dropping them."""
    bitgen = gen.bit_generator
    if type(gen) is np.random.Generator and type(bitgen) is np.random.PCG64:
        state = bitgen.state
        if state["has_uint32"] == 0 and state["uinteger"] == 0:
            return bitgen.advance
    return gen.random


def coupled_ladder_mc(
    table_a: np.ndarray,
    table_b: np.ndarray,
    code_a0: int,
    code_b0: int,
    n_categories: int,
    memory: int,
    length: int,
    replicas: int,
    rng,
):
    """Vectorized replica simulation of the glued ladder for table kernels.

    ``table_a``/``table_b`` map memory-state codes to next-category laws and
    are held fixed over time (no-covariate or frozen-covariate case).
    Returns ``(y1, y2)`` as ``(length, replicas)`` integer arrays.  Raises
    ``ValueError`` naming the argument for tables that are not
    ``(N^memory, N)`` laws, codes outside ``[0, N^memory)``, ``replicas < 1``
    and ``length < 0``.

    Rung ``j`` follows ``table_b`` up to time ``j``; each coupled step
    reads its two laws straight from the tables, at the earlier rung's
    code and at its own, so any table size couples.

    Only replicas whose two rungs can still differ are stepped.  At every
    ``t != j`` rung ``j`` and rung ``j - 1`` use the same table, and a
    replica whose two codes agree there has ``p[u] == q[u]``, so its stay
    test ``U * p[u] < p[u]`` holds for every ``U < 1`` when ``p[u]`` is a
    positive normal float: it keeps the earlier rung's category and the
    codes stay equal for good.  So every step ``t < j`` is settled (both
    rungs start at ``code_b0``), the step ``t == j`` is full width, and
    after it only replicas whose codes differ stay active.  A table with
    an entry at or below the smallest normal float keeps every replica
    active.  Each step still consumes its ``R`` stay uniforms, then its
    ``R`` residual uniforms, in the order of the full-width ladder (a step
    with no active replica skips them), so the paths and the generator's
    state after the call equal those of stepping every replica.
    """
    n, mem = n_categories, memory
    table_a = np.asarray(table_a, dtype=float)
    table_b = np.asarray(table_b, dtype=float)
    _check_ladder_inputs(table_a, table_b, code_a0, code_b0, n, mem, length, replicas)
    gen = as_generator(rng)
    R = replicas

    # y[t] and c[t] hold the latest rung's category at t and its code after
    # t; each rung overwrites only its active replicas
    y = np.empty((length + 1, R), dtype=np.int64)
    c = np.empty((length + 1, R), dtype=np.int64)
    # the first rung: the plain table_a chain, counted one cumulative column
    # at a time; the rows are nondecreasing, so counting the first N - 1
    # columns keeps a rounded last sum below u inside the alphabet
    cols = [np.ascontiguousarray(col) for col in table_a.cumsum(axis=1).T[: n - 1]]
    c[0] = code_a0
    for t in range(1, length + 1):
        u = gen.random(R)
        y[t] = 0
        for col in cols:
            y[t] += col[c[t - 1]] < u
        c[t] = successor_code(c[t - 1], y[t], n, mem)
    y1 = y[1:].copy()

    settles = min(table_a.min(), table_b.min()) > np.finfo(float).tiny
    skip = _draw_skipper(gen)
    every = np.arange(R)
    diag = np.zeros((length + 1, R), dtype=np.int64)
    for j in range(0, length + 1):
        # the active replicas, with the earlier rung's code and this rung's at t - 1
        act, pc, cc = every, c[0].copy(), np.full(R, code_b0, dtype=np.int64)
        c[0] = code_b0
        for t in range(1, length + 1):
            if settles and t == j:  # every earlier step settled, so both rungs hold c[t - 1]
                act, pc, cc = every, c[t - 1], c[t - 1]
            elif settles:
                keep = np.flatnonzero(pc != cc)
                act, pc, cc = act[keep], pc[keep], cc[keep]
            if not act.size:
                skip(2 * R)
                continue
            uni = gen.random(2 * R)
            tp = table_b if t < j else table_a
            tq = table_b if t <= j else table_a
            yt, ct = y[t], c[t]
            sel = slice(None) if act.size == R else act  # every replica: views, not gathers
            v = _partners_from(tp, tq, pc, cc, yt[sel], uni[:R][sel], uni[R:][sel])
            pc, cc = ct[sel].copy(), successor_code(cc, v, n, mem)
            yt[sel], ct[sel] = v, cc
        if j >= 1:
            diag[j] = y[j]
    return y1, diag[1:]


# ---------------------------------------------------------------------------
# exact small-instance laws
# ---------------------------------------------------------------------------


def exact_marginal_laws(kernel: KernelHandle, x: np.ndarray, init, t: int) -> np.ndarray:
    """Exact laws of the category at times ``1..t``, shape ``(t, N)``, from
    one transfer-matrix pass.

    ``init`` is the pre-time-0 past (most recent first; a short one is
    padded with category 0); ``x[i]`` is the covariate at time ``i+1``.
    Only feasible for truncated kernels with a small memory-state space.
    """
    n, mem = kernel.n_categories, kernel.truncation.max_lag_y
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if t < 1 or t > x.shape[0]:
        raise ValueError("t must lie within the covariate path")
    dist = np.zeros(n**mem)
    dist[state_code(init, n, mem)] = 1.0
    laws = np.empty((t, n))
    for s in range(1, t + 1):
        table = transition_table(kernel, x[s - 1 :: -1][: kernel.truncation.max_lag_x])
        laws[s - 1] = dist @ table
        dist = memory_step(dist, table)
    return laws


def exact_marginal_law(kernel: KernelHandle, x: np.ndarray, init, t: int) -> np.ndarray:
    """Exact law of the category at time ``t``: the last row of
    :func:`exact_marginal_laws`."""
    return exact_marginal_laws(kernel, x, init, t)[-1]


# ---------------------------------------------------------------------------
# covariate coupling coefficients
# ---------------------------------------------------------------------------


def covariate_coupling_coeffs(model, horizon: int, metric: str = "l1") -> DecaySeq:
    """Per-lag expected discrepancy of the canonical covariate coupling,
    as defined by the covariate class's ``coupling_coeffs``, which checks both."""
    return model.coupling_coeffs(horizon, metric)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


CSV_BLOCK = 4096  # rows formatted per block, which bounds the per-row strings alive at once


def path_to_csv(path: SamplePath) -> str:
    """Serialize a path as ``t,y,x_1..x_d[,lambda_1..k]`` CSV.

    ``lam`` has one row per time; a 1-d ``lam`` is one ``lambda_1`` column,
    or, on a path of one time, that time's latent block.

    Fields are ``str`` of the integers and ``repr`` of the floats, joined
    into lines by :func:`catchain.csvio.lines`.  Columns are formatted in
    blocks of ``CSV_BLOCK`` rows with ``tolist``; each block becomes one
    string, so the per-row strings of only one block are alive at once.
    """
    T = path.y.size
    d = path.x.shape[1]
    header = ["t", "y"] + [f"x_{i+1}" for i in range(d)]
    floats = [np.asarray(path.x, dtype=float)]
    if path.lam is not None:
        lam = np.asarray(path.lam, dtype=float)
        if lam.ndim == 1:
            lam = lam.reshape(-1, 1) if lam.size == T != 1 else lam.reshape(1, -1)
        if lam.shape[0] != T:
            raise ValueError(f"lam has {lam.shape[0]} rows for a path of {T} times")
        header += [f"lambda_{i+1}" for i in range(lam.shape[1])]
        floats.append(lam)
    blocks = [lines([header])]
    for lo in range(0, T, CSV_BLOCK):
        hi = min(lo + CSV_BLOCK, T)
        cols = [map(str, range(lo + 1, hi + 1)), map(str, path.y[lo:hi].astype(np.int64).tolist())]
        for arr in floats:
            cols += [map(repr, col) for col in arr[lo:hi].T.tolist()]
        blocks.append(lines(zip(*cols, strict=True)))
    return "".join(blocks)
