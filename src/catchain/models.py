"""Concrete categorical time-series model classes and their certified kernels.

Five families are implemented, all driven by a latent index passed through a
CDF link, a softmax, or orthant probabilities:

- ``BinaryInfiniteOrderSpec``: logit/probit regression on infinitely many
  category lags plus a covariate term.
- ``ObservationDrivenBinarySpec``: parsimonious recursion
  ``mu_t = sum_j beta_j mu_{t-j} + sum_k alpha_k y_{t-k} + gamma' x_t``.
- ``NonlinearBinarySpec``: scalar latent recursion with a contractive map.
- ``MultinomialSpec``: multinomial-logit extension with matrix recursions.
- ``DiscreteChoiceSpec``: component-indicator responses driven by latent
  utilities plus independent noise.

Each family is one class; shared code never asks which family it holds.
``model_to_kernel`` needs every spec to define ``n_categories``,
``covariate_dim``, ``stationarity()`` and ``kernel_parts(...)`` (the other
kernel fields, with b0 certified from the spec's ``b0_profile``; see
:func:`~catchain.kernels.certify_b0`).  The latent families derive from
``_LatentRecursion``, the linear recursion ``lam_t = sum_k A_k v(y_{t-k}) +
Gamma x_t + sum_j B_j lam_{t-j}``.  A new linear family defines ``A``, ``B``,
``Gamma``, ``block_dim``, ``category_vector(c)`` (the ``v``), ``cells(lam)``
(the category law given the leading latent block, as a list of floats) and
its TV Lipschitz constant ``tv_lipschitz``, and inherits the rest,
``response`` and ``draw`` among it.  The nonlinear family replaces the step
and the contraction certificate.  ``_latent_scan`` is the one engine behind
kernel evaluation (``latent_recursion``), ``latent_path`` and forward
sampling: one blocked loop that takes each block's ``covariate_forcing`` as a
list and runs the family's one ``stepper()`` and then ``draw``.  A block of
dimension 1 (the binary families, and a two-category multinomial or
one-component choice spec) steps on Python floats, a larger block on arrays;
the multinomial and choice families draw on the running sum of their
``cells``.  The infinite-order chain truncated at ``m`` lags is the
observation-driven recursion with no latent lags, so it runs on the same
engine: ``_scan_parts`` builds the scan's kernel fields for every family.

``model_to_kernel`` turns a spec into a :class:`~catchain.kernels.KernelHandle`
whose decay metadata is derived from the contraction structure of the latent
recursion (geometric envelopes) or from coefficient tail sums, and whose
one-step sensitivity is certified numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit, ndtr

from .bounds import DecaySeq, GeometricTail, PolynomialTail
from .kernels import (
    KernelHandle,
    KernelInputError,
    TruncationPolicy,
    UnsupportedKernelError,
    _cell_columns,
    certify_b0,
)

__all__ = [
    "ConstructionError",
    "LatentOverflowError",
    "LinkFunction",
    "logistic_link",
    "probit_link",
    "russell_damping",
    "BinaryInfiniteOrderSpec",
    "ObservationDrivenBinarySpec",
    "NonlinearBinarySpec",
    "MultinomialSpec",
    "DiscreteChoiceSpec",
    "StationarityReport",
    "stationarity_check",
    "companion_matrix",
    "ContractionConstants",
    "contraction_constants",
    "latent_recursion",
    "latent_path",
    "model_to_kernel",
    "discrete_choice_cellprob",
]

STATIONARITY_MARGIN = 1e-8
_POWER_SUM_TOL = 1e-16
ENV_HORIZON = 160  # decay envelopes are stored up to this lag, then continue as their tail
_CONTRACTION_STEPS = 512  # powers of the companion matrix searched for a contracting one


class ConstructionError(RuntimeError):
    """A model spec fails one of its certification requirements."""


class LatentOverflowError(ConstructionError, OverflowError):
    """The latent recursion of a spec left the float range on a path: its
    contraction does not hold there."""


# ---------------------------------------------------------------------------
# link functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkFunction:
    """CDF link mapping the latent index to a success probability; ``pdf``,
    its density, is ``None`` for a custom link."""

    cdf: Callable[[np.ndarray], np.ndarray]
    lipschitz_const: float
    pdf: Callable[[np.ndarray], np.ndarray] | None = None


def _logistic_pdf(z):
    f = expit(z)
    return f * (1.0 - f)


def logistic_link() -> LinkFunction:
    return LinkFunction(expit, 0.25, _logistic_pdf)


def _probit_pdf(z):
    # the standard normal density as scipy.stats.norm.pdf computes it, without that slow import
    return np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)


def probit_link() -> LinkFunction:
    return LinkFunction(ndtr, 1.0 / math.sqrt(2.0 * math.pi), _probit_pdf)


def custom_link(cdf: Callable, lipschitz_const: float) -> LinkFunction:
    return LinkFunction(cdf, float(lipschitz_const))


def russell_damping(persistence: float, feedback: float, link: LinkFunction):
    """Damped latent map ``g(s) = persistence*s - feedback*F(s)``.

    Returns the callable together with the triangle-inequality contraction
    bound ``|persistence| + |feedback| * L_F``.
    """

    def g(s):
        return persistence * s - feedback * link.cdf(s)

    kappa = abs(persistence) + abs(feedback) * link.lipschitz_const
    return g, kappa


# ---------------------------------------------------------------------------
# certificates of the latent recursion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StationarityReport:
    passed: bool
    spectral_radius: float
    margin: float
    note: str = ""


@dataclass(frozen=True)
class ContractionConstants:
    """Multi-step contraction certificate for the latent recursion: ``r``
    steps contract the latent gap by ``kappa`` in the sup norm."""

    r: int
    kappa: float


def _inf_norm(A: np.ndarray) -> float:
    return float(np.abs(A).sum(axis=1).max()) if A.size else 0.0


def _power_norm_sum(A: np.ndarray, r: int, kappa: float) -> tuple[float, float]:
    """(sum_j ||A^j||_inf with certified tail, max_{s<r} ||A^s||_inf)."""
    if A.size == 0 or kappa == 0.0:
        return 1.0, 1.0
    total = 0.0
    c_r = 0.0
    power = np.eye(A.shape[0])
    window = []
    j = 0
    while True:
        norm = _inf_norm(power)
        if j < r:
            c_r = max(c_r, norm)
        window.append(norm)
        if len(window) > r:
            window.pop(0)
        total += norm
        j += 1
        if j >= r and norm < _POWER_SUM_TOL:
            break
        if j > 200 * r + 200:
            total += sum(window) * kappa / (1.0 - kappa)
            break
        power = power @ A
    return total, max(c_r, 1.0)


def _geometric_envelope(scale: float, rate: float, horizon: int, cap: float | None = None) -> DecaySeq:
    """DecaySeq for ``min(cap, scale * rate**m)`` with a geometric tail."""
    m = np.arange(horizon + 1, dtype=float)
    if rate <= 0.0 or scale == 0.0:
        vals = np.zeros(horizon + 1)
        vals[0] = min(scale, cap) if cap is not None else scale
        return DecaySeq(np.clip(vals, 0.0, None))
    vals = scale * rate**m
    if cap is not None:
        vals = np.minimum(vals, cap)
    tail = GeometricTail(rate) if vals[-1] > 0 else None
    return DecaySeq(vals, tail=tail)


# ---------------------------------------------------------------------------
# model specs
# ---------------------------------------------------------------------------


class _BinaryLink:
    """Binary response ``P(Y=1) = F(lam)`` through the spec's ``link``, with
    covariate loading ``gamma``."""

    n_categories = 2
    block_dim = 1

    @property
    def covariate_dim(self) -> int:
        return self.gamma.size

    @property
    def Gamma(self) -> np.ndarray:
        return self.gamma.reshape(1, -1)

    @property
    def b0_profile(self) -> tuple:
        return ("binary", self.link.cdf, self.link.lipschitz_const)

    @property
    def tv_lipschitz(self) -> float:
        return self.link.lipschitz_const

    def category_vector(self, category: int) -> np.ndarray:
        return np.array([float(category)])

    def response(self, lam: np.ndarray) -> np.ndarray:
        pr = float(self.link.cdf(lam[0]))
        return np.array([1.0 - pr, pr])

    def draw(self, lam: float, u: float) -> int:
        """Category drawn by inverting ``u`` through ``response([lam])``.

        The count of cumulative sums ``(1 - pr, (1 - pr) + pr)`` below ``u``,
        clamped to 1, is ``1 - pr < u``: the second sum is below ``u`` only
        when the first is."""
        return int(1.0 - float(self.link.cdf(lam)) < u)


def _finite_forcing(bound: float) -> float:
    """``bound``, the largest change of the forcing that the category lags
    can make, rejected when the coefficients overflow it."""
    if not math.isfinite(bound):
        raise ConstructionError(f"category forcing bound {bound} is not finite: a lag coefficient overflows it")
    return bound


def _finite_envelope(env: DecaySeq) -> None:
    """Reject the covariate envelope ``env`` when a covariate loading
    overflows its sum."""
    with np.errstate(over="ignore"):
        total = env.total()
    if not math.isfinite(total):
        raise ConstructionError(f"covariate envelope sum {total} is not finite: a covariate loading overflows it")


class _LatentRecursion:
    """Linear latent recursion ``lam_t = sum_k A_k v(y_{t-k}) + Gamma x_t +
    sum_j B_j lam_{t-j}`` and the kernel certified from its contraction."""

    def _coerce_matrices(self) -> None:
        """Store ``A``, ``B`` and ``Gamma`` as float arrays; lag matrices
        must be square in the block dimension."""
        k = self.block_dim
        self.A = [np.atleast_2d(np.asarray(m, dtype=float)) for m in self.A]
        self.B = [np.atleast_2d(np.asarray(m, dtype=float)) for m in self.B]
        self.Gamma = np.atleast_2d(np.asarray(self.Gamma, dtype=float))
        for m in list(self.A) + list(self.B):
            if m.shape != (k, k):
                raise ConstructionError(f"lag matrices must be {(k, k)}, got {m.shape}")

    @property
    def covariate_dim(self) -> int:
        return self.Gamma.shape[1]

    @property
    def lag_counts(self) -> tuple[int, int]:
        """(p, q): number of category lags and latent lags in the forcing."""
        return len(self.A), len(self.B)

    def category_forcing_bound(self) -> float:
        """Largest one-step forcing change achievable by altering category lags."""
        vecs = [self.category_vector(c) for c in range(self.n_categories)]
        total = 0.0
        for A_lag in self.A:
            total += max(
                (float(np.abs(A_lag @ (u - v)).max()) for u, v in combinations(vecs, 2)),
                default=0.0,
            )
        return total

    def companion_matrix(self) -> np.ndarray:
        """Stacked-lag companion matrix of the latent recursion."""
        _, q = self.lag_counts
        k = self.block_dim
        if q == 0:
            return np.zeros((k, k))
        dim = q * k
        A = np.zeros((dim, dim))
        for j, Bj in enumerate(self.B):
            A[:k, j * k : (j + 1) * k] = Bj
        if q > 1:
            A[k:, : (q - 1) * k] = np.eye((q - 1) * k)
        return A

    def stationarity(self) -> StationarityReport:
        """Spectral-radius check of the companion matrix."""
        A = self.companion_matrix()
        note = ""
        try:
            rho = float(np.max(np.abs(np.linalg.eigvals(A)))) if A.size else 0.0
        except np.linalg.LinAlgError:
            rho = float("inf")
            note = "eigenproblem did not converge; treating as non-stationary"
        return StationarityReport(
            passed=rho <= 1.0 - STATIONARITY_MARGIN,
            spectral_radius=rho,
            margin=STATIONARITY_MARGIN,
            note=note,
        )

    def contraction(self) -> ContractionConstants:
        """Smallest power of the companion matrix, up to the
        ``_CONTRACTION_STEPS``-th, that contracts in sup norm."""
        A = self.companion_matrix()
        report = self.stationarity()
        if not report.passed:
            raise ConstructionError(
                f"spectral radius {report.spectral_radius} leaves no contracting power"
            )
        power = np.eye(A.shape[0])
        for r in range(1, _CONTRACTION_STEPS + 1):
            power = power @ A
            norm = _inf_norm(power)
            if norm < 1.0:
                return ContractionConstants(r=r, kappa=max(norm, 0.0))
        raise ConstructionError(f"no contracting power found within {_CONTRACTION_STEPS} steps")

    def envelope(self, cc: ContractionConstants) -> tuple[float, float, float]:
        """``(s, prefac, rate)``: ``s`` bounds the summed latent response to a
        unit forcing, and ``prefac * rate**m`` bounds it after ``m`` steps."""
        s_a, c_r = _power_norm_sum(self.companion_matrix(), cc.r, cc.kappa)
        if cc.kappa == 0.0:
            # no latent memory at all: only the finitely many category lags matter
            return s_a, 1.0, 0.0
        # ||A^s|| <= (C_r / kappa) * rate**s, smooth in s so a geometric tail
        # is an exact continuation of the stored envelope values
        return s_a, c_r / cc.kappa, cc.kappa ** (1.0 / cc.r)

    def stepper(self):
        """``(step, state)``: ``step(y_lags, gx)`` takes the category lags
        (most recent first) and ``gx = Gamma x_t``, returns ``((0.0 + sum_k
        A_k v(y_{t-k})) + gx) + sum_j B_j lam_{t-j}`` summed left to right,
        and shifts it into ``state``, the latent lags (most recent first).

        Each ``A_k v(c)`` is built once per category and each ``B_j`` once:
        floats and a product for a block of dimension 1, arrays and a matrix
        product for a larger block."""
        vecs = [self.category_vector(c) for c in range(self.n_categories)]
        if self.block_dim == 1:
            av = [[float(m[0, 0]) * float(v[0]) for v in vecs] for m in self.A]
            b_ops = [float(m[0, 0]).__mul__ for m in self.B]
            zero = 0.0
        else:
            av = [[m @ v for v in vecs] for m in self.A]
            b_ops = [m.__matmul__ for m in self.B]
            zero = np.zeros(self.block_dim)
        state = [zero] * max(len(b_ops), 1)

        def step(y_lags, gx):
            lam = 0.0
            for a_k, c in zip(av, y_lags):
                lam += a_k[c]
            lam += gx
            for b_j, lam_j in zip(b_ops, state):
                lam += b_j(lam_j)
            state.insert(0, lam)
            state.pop()
            return lam

        return step, state

    def covariate_forcing(self, x: np.ndarray) -> list:
        """``Gamma x_t`` for every row of ``x``: a float for a block of
        dimension 1, an array for a larger block.

        For dimension 1, one covariate takes one array product; adding 0.0
        turns a -0.0 product into +0.0, as the one-term ``Gamma[0] @ x_t``
        does.  Otherwise every row keeps its own product, ``Gamma[0] @ x_t``
        or ``Gamma @ x_t``, whose summation order an array product could
        change."""
        G = self.Gamma
        with np.errstate(over="ignore"):  # _latent_scan reports an overflowing path by name
            if self.block_dim > 1:
                return [G @ x_t for x_t in x]
            g = G[0]
            if g.size == 1 == x.shape[1]:
                return (x[:, 0] * g[0] + 0.0).tolist()
            return [float(g @ x_t) for x_t in x]

    def response(self, lam) -> np.ndarray:
        return np.array(self.cells(lam))

    def draw(self, lam, u: float) -> int:
        """Category drawn by inverting ``u`` through ``cells(lam)``: the
        first whose running sum is not below ``u``, the last when a rounded
        last sum falls below ``u``.

        The cells are nonnegative, so the running sums (added left to right,
        as ``cumsum`` adds them) never decrease, and a NaN stays NaN: the
        sums below ``u`` are a prefix, and the first one that is not is the
        count of sums below ``u``."""
        for c, total in enumerate(accumulate(self.cells(lam))):
            if not total < u:
                return c
        return self.n_categories - 1

    def kernel_parts(self, max_lag_y, max_lag_x) -> dict:
        """Kernel fields from the contraction of the latent recursion."""
        with np.errstate(over="ignore"):  # an overflowing forcing bound is rejected by name
            cc = self.contraction()
            s_a, prefac, rate = self.envelope(cc)
            d_max = _finite_forcing(self.category_forcing_bound() * s_a)
        p, q = self.lag_counts
        tv_lip = self.tv_lipschitz
        b0 = certify_b0(self.b0_profile, d_max)
        e_scale = tv_lip * float(np.abs(self.Gamma).max(initial=0.0)) * prefac
        cap = min(b0, tv_lip * d_max)
        gap_scale = 0.0
        if rate == 0.0:
            b_vals = np.zeros(max(p + 1, 2))
            b_vals[: max(p, 1)] = cap
            b_vals[0] = b0
            b_env = DecaySeq(b_vals)
            e_env = DecaySeq(np.array([e_scale, 0.0]))
        else:
            # histories agreeing on m lags share the last m - p + 1 forcing terms
            gap_scale = tv_lip * d_max * prefac * rate ** (1 - p)
            b_env = _geometric_envelope(gap_scale, rate, ENV_HORIZON, cap=cap)
            vals = b_env.values.copy()
            vals[0] = max(vals[0], b0)
            b_env = DecaySeq(vals, tail=b_env.tail)
            e_env = _geometric_envelope(e_scale, rate, ENV_HORIZON)
        _finite_envelope(e_env)

        if max_lag_x is None:
            if gap_scale > 0.0:
                max_lag_x = int(
                    min(256, max(8, math.ceil(math.log(1e-14 / max(gap_scale, 1e-280)) / math.log(rate))))
                )
            else:
                max_lag_x = max(8, p + q)
        if max_lag_y is None:
            max_lag_y = max_lag_x + p - 1 if p >= 1 else max_lag_x
        return {
            **_scan_parts(self, max(max_lag_y, 1), max_lag_x),
            "b": b_env,
            "e": e_env,
            "b0_certificate": b0,
            "label": type(self).__name__,
        }


def _scan_parts(spec, max_lag_y: int, max_lag_x: int, keep_lam: bool = True) -> dict:
    """Kernel fields that run ``spec``'s latent recursion: ``probs_fn``, the
    ``truncation`` and ``extra["latent_sampler"](x, u)``, which returns the
    categories and the leading latent block (``None`` without ``keep_lam``)."""
    p, _ = spec.lag_counts
    # the kernel pads every history to max_lag_y categories and max_lag_x covariates
    depth = max(min(max_lag_x, max_lag_y - p + 1 if p >= 1 else max_lag_x), 0)

    def probs_fn(y, x):
        return spec.response(latent_recursion(spec, y, x, depth)[: spec.block_dim])

    def latent_sampler(x, u):
        y, lam, _ = _latent_scan(spec, x, u=u)
        return y, lam if keep_lam else None

    return {
        "probs_fn": probs_fn,
        "truncation": TruncationPolicy(max_lag_y=max_lag_y, max_lag_x=max_lag_x),
        "extra": {"latent_sampler": latent_sampler},
    }


@dataclass
class BinaryInfiniteOrderSpec(_BinaryLink):
    """Binary response regressed on (possibly infinitely many) category lags.

    ``a[j-1]`` multiplies the category ``j`` steps back; ``a_tail`` extends
    the absolute coefficients beyond the stored ones for envelope purposes.
    """

    a: np.ndarray
    gamma: np.ndarray
    link: LinkFunction = field(default_factory=logistic_link)
    a_tail: GeometricTail | PolynomialTail | None = None

    def __post_init__(self):
        self.a = np.atleast_1d(np.asarray(self.a, dtype=float))
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))

    def abs_coeff_seq(self) -> DecaySeq:
        """|a_j| indexed from 0 at lag 1, with the declared tail."""
        vals = np.abs(self.a) if self.a.size else np.zeros(1)
        return DecaySeq(np.clip(vals, 0.0, None), tail=self.a_tail)

    def stationarity(self) -> StationarityReport:
        summable = self.abs_coeff_seq().is_summable
        return StationarityReport(
            passed=summable,
            spectral_radius=0.0,
            margin=STATIONARITY_MARGIN,
            note="lag coefficients" + ("" if summable else " not summable"),
        )

    def kernel_parts(self, max_lag_y, max_lag_x) -> dict:
        """Kernel fields from the tail sums of the lag coefficients."""
        abs_a = self.abs_coeff_seq()
        with np.errstate(over="ignore"):  # an overflowing bound is rejected by name
            total = _finite_forcing(abs_a.total())
        b0 = certify_b0(self.b0_profile, total)
        L_F = self.tv_lipschitz
        horizon = max(ENV_HORIZON, abs_a.values.size + 1)
        # |a_j| sits at index j-1, so the mass beyond lag m starts at index m
        env_vals = np.array([min(b0, L_F * abs_a.sum_from(m)) for m in range(horizon + 1)])
        b_env = DecaySeq(np.minimum.accumulate(env_vals), tail=self.a_tail)
        e0 = L_F * float(np.abs(self.gamma).max(initial=0.0))
        if max_lag_y is None:
            if self.a_tail is None:
                max_lag_y = self.a.size
            else:
                max_lag_y = next((m for m in range(1, 4096) if b_env.value(m) < 1e-14), 4096)
        max_lag_y = max(max_lag_y, 1)
        # the truncated chain is the observation-driven recursion without latent lags
        recursion = ObservationDrivenBinarySpec(alpha=self.a[:max_lag_y], beta=[], gamma=self.gamma, link=self.link)
        return {
            # this family's path.csv carries no latent column
            **_scan_parts(recursion, max_lag_y, 1 if max_lag_x is None else max_lag_x, keep_lam=False),
            "b": b_env,
            "e": DecaySeq(np.array([e0, 0.0])),
            "b0_certificate": b0,
            "label": "binary-infinite-order",
        }


@dataclass
class ObservationDrivenBinarySpec(_BinaryLink, _LatentRecursion):
    """Binary response with a linear latent recursion."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    link: LinkFunction = field(default_factory=logistic_link)

    def __post_init__(self):
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))

    @property
    def lag_counts(self) -> tuple[int, int]:
        return self.alpha.size, self.beta.size

    @property
    def A(self) -> list[np.ndarray]:
        return [np.array([[a]]) for a in self.alpha]

    @property
    def B(self) -> list[np.ndarray]:
        return [np.array([[bj]]) for bj in self.beta]

    def category_forcing_bound(self) -> float:
        return float(np.abs(self.alpha).sum())


@dataclass
class NonlinearBinarySpec(_BinaryLink, _LatentRecursion):
    """Binary response with a scalar contractive latent map
    ``lam_t = g(lam_{t-1}) + alpha * y_{t-1} + gamma' x_t``."""

    g: Callable[[float], float]
    kappa: float
    alpha: float
    gamma: np.ndarray
    link: LinkFunction = field(default_factory=logistic_link)

    lag_counts = (1, 1)

    def __post_init__(self):
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if not 0.0 < self.kappa < 1.0:
            raise ConstructionError(f"declared contraction {self.kappa} not in (0,1)")

    def verify_contraction(self) -> None:
        """Check the declared factor on 256 seeded pairs of points in [-20, 20)."""
        s = np.random.default_rng(0).uniform(-20.0, 20.0, size=(256, 2))
        lhs = np.abs(np.vectorize(self.g)(s[:, 0]) - np.vectorize(self.g)(s[:, 1]))
        rhs = self.kappa * np.abs(s[:, 0] - s[:, 1])
        if np.any(lhs > rhs * (1.0 + 1e-9) + 1e-12):
            raise ConstructionError("latent map exceeds its declared contraction factor")

    def category_forcing_bound(self) -> float:
        return abs(self.alpha)

    def companion_matrix(self) -> np.ndarray:
        raise UnsupportedKernelError("nonlinear latent maps have no companion form")

    def stationarity(self) -> StationarityReport:
        return StationarityReport(
            passed=self.kappa <= 1.0 - STATIONARITY_MARGIN,
            spectral_radius=self.kappa,
            margin=STATIONARITY_MARGIN,
            note="declared contraction factor of the latent map",
        )

    def contraction(self) -> ContractionConstants:
        """The declared factor, after a numeric sweep of the latent map."""
        self.verify_contraction()
        return ContractionConstants(r=1, kappa=self.kappa)

    def envelope(self, cc: ContractionConstants) -> tuple[float, float, float]:
        # scalar latent: the gap contracts by exactly kappa per step
        return 1.0 / (1.0 - cc.kappa), 1.0, cc.kappa

    def stepper(self):
        """``step(y_lags, gx)`` returns ``(g(lam) + alpha * y_{t-1}) + gx``."""
        g, alpha = self.g, self.alpha
        state = [0.0]

        def step(y_lags, gx):
            state[0] = g(state[0]) + alpha * y_lags[0] + gx
            return state[0]

        return step, state


@dataclass
class MultinomialSpec(_LatentRecursion):
    """Multinomial-logit autoregression with reference category 0."""

    A: Sequence[np.ndarray]
    B: Sequence[np.ndarray]
    Gamma: np.ndarray
    n_categories: int

    def __post_init__(self):
        self._coerce_matrices()
        if self.Gamma.shape[0] != self.block_dim:
            raise ConstructionError("covariate loading must have N-1 rows")

    @property
    def block_dim(self) -> int:
        return self.n_categories - 1

    @property
    def b0_profile(self) -> tuple:
        return ("multinomial", self.n_categories)

    @property
    def tv_lipschitz(self) -> float:
        return 0.25 * (self.n_categories - 1)

    def category_vector(self, category: int) -> np.ndarray:
        v = np.zeros(self.n_categories - 1)
        if category > 0:
            v[category - 1] = 1.0
        return v

    def cells(self, lam) -> list:
        """Softmax of ``(0, lam)``: one ``np.exp`` and a numpy sum, whose
        rounding differs from ``math.exp`` and Python's left-to-right sum."""
        z = np.concatenate(([0.0], lam), axis=None)  # lam is a float at block dimension 1
        ez = np.exp(z - z.max())
        return (ez / ez.sum()).tolist()


@dataclass
class DiscreteChoiceSpec(_LatentRecursion):
    """Component indicators ``Y_t = (1{mu_{i,t} + eps_{i,t} > 0})_i``.

    The alphabet is the set of all component patterns, coded as bitmasks, so
    a spec with ``n_components`` utilities has ``2**n_components`` categories.
    Noise components are independent with a symmetric full-support marginal.
    """

    A: Sequence[np.ndarray]
    B: Sequence[np.ndarray]
    Gamma: np.ndarray
    n_components: int
    noise: str = "logistic"
    link: LinkFunction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._coerce_matrices()
        links = {"logistic": logistic_link, "gaussian": probit_link}
        if self.noise not in links:
            raise ConstructionError(f"unsupported noise {self.noise!r}")
        self.link = links[self.noise]()

    @property
    def n_categories(self) -> int:
        return 2**self.n_components

    @property
    def block_dim(self) -> int:
        return self.n_components

    @property
    def b0_profile(self) -> tuple:
        return ("discrete_choice", self.link.cdf, self.n_components, self.link.lipschitz_const)

    @property
    def tv_lipschitz(self) -> float:
        return self.link.lipschitz_const * self.n_components

    def category_vector(self, category: int) -> np.ndarray:
        return np.array([(category >> i) & 1 for i in range(self.n_components)], dtype=float)

    def cells(self, lam) -> list:
        """Pattern-cell probabilities given the leading latent block.

        Component ``i`` fires with probability ``P(eps_i > -lam_i)``; cells
        are indexed by bitmask with bit ``i`` marking component ``i``.  Sums
        to one."""
        lam = np.asarray(lam, dtype=float).reshape(-1)[: self.n_components]
        return _cell_columns((1.0 - self.link.cdf(-lam)).tolist())


def discrete_choice_cellprob(spec: DiscreteChoiceSpec, lam) -> np.ndarray:
    """``spec.response(lam)``: the pattern-cell probabilities given the
    leading latent block."""
    return spec.response(lam)


def companion_matrix(spec) -> np.ndarray:
    """Stacked-lag companion matrix of the latent recursion."""
    return spec.companion_matrix()


def stationarity_check(spec) -> StationarityReport:
    """Spectral-radius (or contraction, or summability) check of the spec."""
    return spec.stationarity()


def contraction_constants(spec) -> ContractionConstants:
    """``spec.contraction()``: the contraction certificate of its latent recursion."""
    return spec.contraction()


# ---------------------------------------------------------------------------
# latent recursion
# ---------------------------------------------------------------------------


SCAN_BLOCK = 4096  # steps per block of the scan, which bounds its Python lists


def _latent_scan(spec, x: np.ndarray, y=None, pre=(), u=None):
    """Run the latent recursion from a zero state over covariates ``x[0..T-1]``.

    Categories before time 0 are ``pre`` (most recent first), then zero.
    Those from time 0 on are ``y`` or, without ``y``, drawn from the response
    law by inverting ``u[t]``: the count of cumulative response
    probabilities below ``u[t]``, clamped to the last category (a rounded
    last sum can fall below a ``u`` just under 1).  Returns ``(categories,
    lam, state)``: the categories, the leading latent block at every time,
    the final stacked state.

    The scan runs in blocks of ``SCAN_BLOCK`` steps.  Per block, the
    covariate forcing and ``u`` (or the given categories) become Python
    lists, ``spec.stepper()`` steps on Python floats (a block of dimension
    1) or arrays, and ``lam`` and the categories in ``hist`` are written
    back.  The category lags carry over from block to block, so the blocks
    change no value.
    """
    p, _ = spec.lag_counts
    T, k = x.shape[0], spec.block_dim
    hist = np.zeros(p + T, dtype=np.int64)
    pre = np.asarray(pre, dtype=np.int64)[:p]
    hist[p - pre.size : p] = pre[::-1]
    if y is not None:
        y = np.asarray(y)[:T]
        hist[p : p + y.size] = y
    lam = np.empty((T, k))
    step, state = spec.stepper()
    pick, source = (_given, hist[p:]) if u is None else (spec.draw, u)
    y_lags = hist[:p][::-1].tolist()
    for lo in range(0, T, SCAN_BLOCK):
        hi = lo + SCAN_BLOCK
        lam_block, y_block = [], []
        for gx, s in zip(spec.covariate_forcing(x[lo:hi]), source[lo:hi].tolist(), strict=True):
            first = step(y_lags, gx)
            c = pick(first, s)
            y_lags.insert(0, c)
            y_lags.pop()
            lam_block.append(first)
            y_block.append(c)
        lam[lo:hi] = np.array(lam_block, dtype=float).reshape(-1, k)
        hist[p + lo : p + hi] = y_block
    if not np.isfinite(lam).all():
        raise LatentOverflowError("latent recursion diverged; contraction unverified")
    return hist[p:], lam, np.array(state, dtype=float).reshape(-1, k)


def _given(lam, category):
    return category


def _in_alphabet(spec, y) -> np.ndarray:
    """``y`` as an array, once every category in it lies in ``[0, N)``."""
    y = np.asarray(y)
    if y.size and (y.min() < 0 or y.max() >= spec.n_categories):
        raise KernelInputError(f"category index outside alphabet [0, {spec.n_categories})")
    return y


def latent_recursion(spec, past_y, past_x, n: int) -> np.ndarray:
    """Latent state obtained by iterating the update map ``n`` times from 0.

    ``past_y`` and ``past_x`` are most recent first and must reach back far
    enough (``n + p - 1`` categories, ``n`` covariates).  Returns the stacked
    state; its leading block is the index driving the current response.
    Raises :class:`~catchain.kernels.KernelInputError` for a category
    outside the alphabet.
    """
    past_y = _in_alphabet(spec, past_y)
    p, _ = spec.lag_counts
    past_x = np.atleast_2d(np.asarray(past_x, dtype=float))
    if past_x.shape[0] < n or past_y.size < n + p - 1:
        raise ValueError("history too short for the requested recursion depth")
    # past_y[0] is the category one step before the present; the first n - 1
    # categories fall inside the recursion window, the next p before it
    m = max(n - 1, 0)
    _, _, state = _latent_scan(spec, past_x[:n][::-1], y=past_y[:m][::-1], pre=past_y[m : n + p - 1])
    return state.reshape(-1)


def latent_path(spec, y, x) -> np.ndarray:
    """Leading latent block along a realized path, initialized at zero.

    ``y[t]`` and ``x[t]`` are time ordered; row ``t`` of the result is the
    index that generated ``y[t]`` (so it uses categories strictly before
    ``t`` and the covariate at ``t``).  Raises
    :class:`~catchain.kernels.KernelInputError` for a category outside the
    alphabet.
    """
    y = _in_alphabet(spec, y)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != y.shape[0]:
        raise ValueError("y and x must have equal length")
    return _latent_scan(spec, x, y=y)[1]


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def model_to_kernel(
    spec,
    max_lag_y: int | None = None,
    max_lag_x: int | None = None,
) -> KernelHandle:
    """Certify a model spec and wrap it as an evaluatable kernel.

    Raises :class:`ConstructionError` naming the failed requirement when the
    stationarity check or the one-step sensitivity certification fails.  The
    returned handle carries geometric (or tail-sum) envelopes for the decay
    sequences and evaluates probabilities through the latent recursion
    truncated at the handle's lag policy.  Every family's kernel records the
    scan's forward sampler ``extra["latent_sampler"](x, u)``, which returns
    the categories and the leading latent block (``None`` for the
    infinite-order chain, whose paths carry no latent column).
    """
    report = stationarity_check(spec)
    if not report.passed:
        raise ConstructionError(
            f"stationarity check failed: spectral radius {report.spectral_radius}"
        )
    return KernelHandle(
        n_categories=spec.n_categories,
        covariate_dim=spec.covariate_dim,
        **spec.kernel_parts(max_lag_y, max_lag_x),
    )
