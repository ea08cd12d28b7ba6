"""Memory-decay sequences and the closed-form bounds built on them.

The central object is the nonincreasing sequence ``b_m`` bounding how much
the next-symbol law of a chain can change when two histories agree on their
``m`` most recent symbols.  Everything else derives from it through the
house-of-cards chain: an integer-valued auxiliary Markov chain started at 0
that moves up by one with probability ``1 - b_i`` and resets to 0 with
probability ``b_i``.  Its return probabilities ``b*_m`` bound the speed at
which the chain forgets its initialization, and they feed the relaxation,
perturbation, beta-mixing and tau-dependence bounds implemented here.

Index convention: ``b*_0 = b_0`` and ``b*_n = P(S_n = 0)`` for ``n >= 1``.
The folklore Markov-case shortcut ``1 + sum_m b*_m = 1/(1 - b_0)`` is NOT
consistent with this convention (it misses one ``b_0`` term); see
``markov_perturbation_factor`` for the documented cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .csvio import read_rows, table

__all__ = [
    "DecayError",
    "DivergenceError",
    "ContractionError",
    "GeometricTail",
    "PolynomialTail",
    "DecaySeq",
    "bstar_from_b",
    "bstar_renewal_oracle",
    "bstar_sum_bracket",
    "relaxation_bound",
    "PerturbationBound",
    "perturbation_bound",
    "markov_perturbation_factor",
    "DependenceBoundCurve",
    "beta_bound",
    "tau_bound",
    "heredity_exponent",
    "DecayTransferReport",
    "decay_transfer_check",
]


class DecayError(ValueError):
    """Sequence violates a structural requirement (sign, monotonicity)."""


class DivergenceError(ValueError):
    """A required infinite sum does not converge under the tail model."""


class ContractionError(ValueError):
    """The one-step contraction requirement ``b_0 < 1`` fails."""


@dataclass(frozen=True)
class GeometricTail:
    """Beyond the stored values, ``value(m) = last * rate**(m - last_index)``.

    A tail class defines everything about the :class:`DecaySeq` ``seq`` it
    extends past storage: ``value``, the mass ``sum_from`` an index, whether
    it is ``summable``, the first-moment tail ``moment_tail(h)`` =
    ``sum_{s>h} (s-h) value(s)`` and the tail of ``scale * value**(1/q)``
    (``root``).
    """

    rate: float
    summable = True

    def __post_init__(self):
        if not 0.0 < self.rate < 1.0:
            raise DecayError(f"geometric rate must lie in (0,1), got {self.rate}")

    def value(self, seq: "DecaySeq", m: int) -> float:
        return float(seq.values[-1] * self.rate ** (m - seq.values.size + 1))

    def sum_from(self, seq: "DecaySeq", m: int) -> float:
        return float(self.value(seq, m) / (1.0 - self.rate))

    def moment_tail(self, seq: "DecaySeq", h: int) -> float:
        # geometric decay from index h+1 on: value(h+1) / (1 - r)^2
        return seq.value(h + 1) / (1.0 - self.rate) ** 2

    def root(self, scale: float, q: float) -> "GeometricTail":
        # the scale is carried by the transformed stored values
        return GeometricTail(self.rate ** (1.0 / q))


@dataclass(frozen=True)
class PolynomialTail:
    """Beyond the stored values, ``value(m) = coeff * m**(-power)``.  Sums are
    bounded by their first term plus an integral and raise
    :class:`DivergenceError` where they diverge."""

    coeff: float
    power: float

    def __post_init__(self):
        if self.coeff < 0:
            raise DecayError("polynomial tail coefficient must be >= 0")

    @property
    def summable(self) -> bool:
        return self.power > 1.0

    def value(self, seq: "DecaySeq", m: int) -> float:
        return float(self.coeff * float(m) ** (-self.power))

    def sum_from(self, seq: "DecaySeq", m: int) -> float:
        if not self.summable:
            raise DivergenceError(f"polynomial tail with power {self.power} <= 1 is not summable")
        c, k = self.coeff, self.power
        # c*m^-k plus integral_m^inf c*x^-k dx
        return float(c * (float(m) ** (-k) + float(m) ** (1.0 - k) / (k - 1.0)))

    def moment_tail(self, seq: "DecaySeq", h: int) -> float:
        c, k = self.coeff, self.power
        if k <= 2.0:
            raise DivergenceError("moment tail of e requires polynomial power > 2")
        return c * float(h) ** (2.0 - k) / ((k - 1.0) * (k - 2.0))

    def root(self, scale: float, q: float) -> "PolynomialTail":
        if self.power / q <= 1.0:
            raise DivergenceError("discrete-metric cost not summable at this moment order")
        return PolynomialTail(scale * self.coeff ** (1.0 / q), self.power / q)


@dataclass
class DecaySeq:
    """Nonnegative real sequence indexed from 0 with an explicit tail model.

    Past the stored values the sequence follows ``tail`` (a
    :class:`GeometricTail` or :class:`PolynomialTail`, which define
    everything about the tail); ``tail=None`` means it is zero there.
    ``tail_sum_bound``, when set, is a certified upper bound on
    ``sum_{m >= len(values)} value(m)`` and takes precedence over the tail
    model in every sum (``sum_from`` at any index, ``is_summable``); it is
    used for sequences (like ``b*``) whose tail has no closed form but whose
    total is known by other means.
    """

    values: np.ndarray
    tail: GeometricTail | PolynomialTail | None = None
    tail_sum_bound: float | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise DecayError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(v)):
            raise DecayError("non-finite value in sequence")
        if np.any(v < -1e-15):
            raise DecayError(f"negative value {v.min()} in sequence")
        self.values = np.clip(v, 0.0, None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n: int = 1) -> "DecaySeq":
        return cls(np.zeros(max(n, 1)))

    @classmethod
    def geometric(cls, first: float, rate: float, n_stored: int = 64) -> "DecaySeq":
        vals = first * rate ** np.arange(n_stored)
        return cls(vals, tail=GeometricTail(rate))

    @classmethod
    def from_csv(cls, text_or_path) -> "DecaySeq":
        """Read an ``m,value`` two-column CSV (header required)."""
        rows = read_rows(text_or_path)
        if not rows or [c.strip() for c in rows[0]] != ["m", "value"]:
            raise DecayError("expected CSV header 'm,value'")
        pairs = sorted((int(r[0]), float(r[1])) for r in rows[1:] if r)
        idx = [m for m, _ in pairs]
        if idx != list(range(len(idx))):
            raise DecayError("indices must be 0..n-1 without gaps")
        return cls(np.array([v for _, v in pairs]))

    def to_csv(self, path=None) -> str:
        return table(["m", "value"], ((m, float(v)) for m, v in enumerate(self.values)), path)

    # -- pointwise access --------------------------------------------------

    def __len__(self) -> int:
        return self.values.size

    def value(self, m: int) -> float:
        if m < 0:
            raise IndexError("negative index")
        if m < self.values.size:
            return float(self.values[m])
        return 0.0 if self.tail is None else self.tail.value(self, m)

    def head(self, n: int) -> np.ndarray:
        """Values at indices ``0..n-1`` with the tail model applied, one
        scalar tail value at a time (a vectorized power differs in the last
        bit from Python's ``**``).

        The tail values stop at the first one that is exactly 0.0 and the
        rest repeat that zero.  This is exact: a tail value is its last
        stored value, or its coefficient, times a power that does not grow
        with ``m``, so once the product is a zero of some sign, every later
        product is the same zero.  A geometric tail underflows after about
        ``745 / ln(1 / rate)`` indices (about 1100 at rate 0.5), so past that
        a longer head costs no more tail evaluations."""
        if n <= len(self):
            return self.values[:n].copy()
        out = np.zeros(n)
        out[: len(self)] = self.values
        if self.tail is not None:
            for m in range(len(self), n):
                v = self.tail.value(self, m)
                out[m] = v
                if v == 0.0:
                    out[m:] = v
                    break
        return out

    # -- structure checks --------------------------------------------------

    @property
    def is_nonincreasing(self) -> bool:
        if np.any(np.diff(self.values) > 1e-15):
            return False
        if self.tail is not None and len(self) >= 1:
            return self.value(len(self)) <= self.values[-1] + 1e-15
        return True

    def require_nonincreasing(self, what: str = "sequence") -> None:
        if not self.is_nonincreasing:
            raise DecayError(f"{what} must be nonincreasing")

    @property
    def is_summable(self) -> bool:
        if self.tail_sum_bound is not None:
            return math.isfinite(self.tail_sum_bound)
        return self.tail is None or self.tail.summable

    # -- sums ----------------------------------------------------------------

    def sum_from(self, m: int) -> float:
        """Upper bound on ``sum_{i >= m} value(i)``."""
        if not self.is_summable:
            raise DivergenceError("sequence is not summable under its tail model")
        n = self.values.size
        if m < n:
            return float(self.values[m:].sum()) + self.sum_from(n)
        if self.tail_sum_bound is not None:
            # bounds the whole mass past storage, so also the mass past m
            return self.tail_sum_bound
        return 0.0 if self.tail is None else self.tail.sum_from(self, m)

    def moment_tail(self, h: int) -> float:
        """Upper bound on ``sum_{s > h} (s - h) value(s)``."""
        if self.tail is None:
            s_idx = np.arange(h + 1, len(self))
            return float(((s_idx - h) * self.values[h + 1 :]).sum())
        return self.tail.moment_tail(self, h)

    def total(self) -> float:
        return self.sum_from(0)


# ---------------------------------------------------------------------------
# house-of-cards chain
# ---------------------------------------------------------------------------


def _check_b(b: DecaySeq) -> None:
    b.require_nonincreasing("memory-decay sequence b")
    if b.value(0) >= 1.0:
        raise ContractionError(f"b_0 = {b.value(0)} violates b_0 < 1")


def bstar_from_b(b: DecaySeq, horizon: int) -> DecaySeq:
    """Return probabilities of the house-of-cards chain sitting at zero.

    Exact forward iteration of the state distribution of the chain with
    ``P(i, i+1) = 1 - b_i`` and ``P(i, 0) = b_i``, started at 0.  Index 0 of
    the result carries ``b_0`` itself (the one-step mismatch bound), index
    ``n >= 1`` carries ``P(S_n = 0)``.

    The result's ``tail_sum_bound`` is set from the renewal-series total, so
    ``sum_from`` is a certified bound even past the horizon.

    The iteration stops early, with the same values as the full loop.  A
    reset sums the nonnegative products ``dist[j] * b_j``, so it is exactly
    0.0 only when every product rounds to 0.0.  When the head is
    nonincreasing the iteration stops at its first zero reset: the next
    step's products are ``(dist[j] * (1 - b_j)) * b_{j+1}`` and a fresh
    ``0.0 * b_0``, and since ``1 - b_j <= 1``, ``b_{j+1} <= b_j`` and
    rounding is monotone, each is at most the rounded ``dist[j] * b_j``,
    which is 0.0; so every later reset is 0.0 too.

    A head that rises (a decay sequence may rise by up to 1e-15, after a
    zero too) keeps a longer rule.  Let ``support`` be one past the last
    index with ``b_k != 0``.  Entry ``j`` of the distribution is the reset
    ``j`` steps back times a product of ``1 - b``, so after ``support``
    consecutive resets that are exactly 0.0 the entries below ``support``
    are exactly 0.0.  Every later
    reset then sums products that are each exactly 0.0 (a zero mass, or
    ``b_k == 0`` at ``k >= support``), the zero block shifts forward, and
    every remaining entry is exactly 0.0.  For a geometric tail the resets
    underflow to 0.0 within a few thousand steps, so the cost stops growing
    with the square of the horizon.
    """
    _check_b(b)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    bh = b.head(horizon + 1)
    keep = 1.0 - bh
    # consecutive zero resets after which every later reset is 0.0
    stop = 1 if np.all(bh[1:] <= bh[:-1]) else int(np.flatnonzero(bh)[-1]) + 1
    out = np.zeros(horizon + 1)
    out[0] = bh[0]
    dist = np.zeros(horizon + 1)
    dist[0] = 1.0
    zero_run = 0
    for n in range(1, horizon + 1):
        reset = float(dist[:n] @ bh[:n])
        dist[1 : n + 1] = dist[:n] * keep[:n]
        dist[0] = reset
        out[n] = reset
        zero_run = zero_run + 1 if reset == 0.0 else 0
        if zero_run >= stop:
            break
    tail_bound = None
    if b.is_summable:
        low, high = bstar_sum_bracket(b, max(horizon, 256))
        partial = float(out[1:].sum())
        tail_bound = max(high - partial, 0.0)
    return DecaySeq(out, tail=None, tail_sum_bound=tail_bound)


def bstar_renewal_oracle(b: DecaySeq, horizon: int) -> DecaySeq:
    """Zero-visit probabilities via the renewal recursion (independent route).

    First-return probabilities are ``f_1 = b_0`` and
    ``f_k = b_{k-1} * prod_{m<=k-2}(1 - b_m)``; visit probabilities solve
    ``u_n = sum_{k=1..n} f_k u_{n-k}`` with ``u_0 = 1``.  Agrees with
    :func:`bstar_from_b` at every index ``n >= 1``.
    """
    _check_b(b)
    bh = b.head(horizon + 1)
    f = np.zeros(horizon + 1)
    prod = 1.0
    for k in range(1, horizon + 1):
        f[k] = bh[k - 1] * prod
        prod *= 1.0 - bh[k - 1]
    u = np.zeros(horizon + 1)
    u[0] = 1.0
    for n in range(1, horizon + 1):
        u[n] = float(f[1 : n + 1] @ u[n - 1 :: -1][: n])
    return DecaySeq(u)


def bstar_sum_bracket(b: DecaySeq, horizon: int = 512) -> tuple[float, float]:
    """Bracket ``sum_{n>=1} b*_n`` via the first-return series.

    The visit probabilities sum to ``F/(1-F)`` where ``F = sum_k f_k`` is the
    total first-return mass.  ``F`` is bracketed by a finite partial sum plus
    the crude remainder bound ``sum_{k>K} f_k <= sum_{m>=K} b_m``.

    The partial sum stops one past the last nonzero ``b_k`` below the
    horizon, with the same value as the full loop: each later term adds
    ``0.0 * prod`` to a nonnegative sum and multiplies ``prod`` by
    ``1.0 - 0.0``, neither of which changes a bit.
    """
    _check_b(b)
    if not b.is_summable:
        raise DivergenceError("b is not summable; the visit series has no finite total")
    bh = b.head(horizon + 1)
    nonzero = np.flatnonzero(bh[:horizon])
    support = int(nonzero[-1]) + 1 if nonzero.size else 0
    prod = 1.0
    f_partial = 0.0
    for k in range(1, support + 1):
        f_partial += bh[k - 1] * prod
        prod *= 1.0 - bh[k - 1]
    rem = b.sum_from(horizon)
    f_low = min(f_partial, 1.0)
    f_high = f_partial + rem
    if f_high >= 1.0 - 1e-12:
        # remainder too coarse at this horizon; F < 1 is guaranteed by
        # summability, so retry deeper before giving up
        if horizon < 65536:
            return bstar_sum_bracket(b, max(2 * horizon, 1))
        raise DivergenceError("could not certify total first-return mass < 1")
    return f_low / (1.0 - f_low), f_high / (1.0 - f_high)


def relaxation_bound(b: DecaySeq, t: int) -> float:
    """Bound on the TV distance between time-``t`` marginals of two chains
    sharing the kernel but started from different pasts: ``b*_{t-1}``."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return float(bstar_from_b(b, t - 1).values[t - 1])


@dataclass(frozen=True)
class PerturbationBound:
    """Lipschitz bound on the marginal law under a kernel perturbation."""

    value: float
    factor: float
    truncation_error: float
    horizon: int


def perturbation_bound(
    b: DecaySeq,
    bbar: DecaySeq | None,
    sup_kernel_tv: float,
    horizon: int = 256,
) -> PerturbationBound:
    """Bound ``TV(pi, pi_bar) <= (1 + sum_m b*_m) * sup_kernel_tv``.

    ``b`` governs the unperturbed kernel; ``bbar`` (when given) is only
    checked for summability, which the perturbed chain needs in order to have
    a well-defined marginal law.  The infinite sum is evaluated as a partial
    sum plus the certified renewal-series remainder, and the width of that
    bracket is reported as ``truncation_error``.
    """
    if not 0.0 <= sup_kernel_tv <= 1.0:
        raise ValueError("sup_kernel_tv must lie in [0, 1]")
    _check_b(b)
    if not b.is_summable:
        raise DivergenceError("b must be summable for the perturbation bound")
    if bbar is not None:
        _check_b(bbar)
        if not bbar.is_summable:
            raise DivergenceError("bbar must be summable for the perturbation bound")
    bs = bstar_from_b(b, horizon)
    partial = float(bs.values[1:].sum())
    low_t, high_t = bstar_sum_bracket(b, max(horizon, 256))
    tail_low = max(low_t - partial, 0.0)
    tail_high = max(high_t - partial, 0.0)
    factor = 1.0 + bs.values[0] + partial + tail_high
    return PerturbationBound(
        value=factor * sup_kernel_tv,
        factor=factor,
        truncation_error=(tail_high - tail_low) * sup_kernel_tv,
        horizon=horizon,
    )


def markov_perturbation_factor(b0: float) -> float:
    """Folklore single-step factor ``1/(1 - b_0)`` for memoryless kernels.

    Kept as a documented cross-check only: under the index convention used
    here the generic factor for a memoryless kernel is
    ``1 + b_0 + b_0/(1 - b_0)``, which is strictly larger.  Both are valid
    upper bounds; the generic code path never uses this shortcut.
    """
    if not 0.0 <= b0 < 1.0:
        raise ContractionError("b0 must lie in [0, 1)")
    return 1.0 / (1.0 - b0)


# ---------------------------------------------------------------------------
# dependence-coefficient bound curves
# ---------------------------------------------------------------------------


@dataclass
class DependenceBoundCurve:
    """Per-lag bound ingredients and the aggregated decay-coefficient bound.

    ``values[j]`` holds the lag-``j`` term (``g_j`` for the beta flavour,
    ``h_j`` for the tau flavour) for ``1 <= j <= horizon``; index 0 is unused
    and kept at 0 so indices align with lags.  ``bound[n]`` is the certified
    bound for separation ``n`` over ``1 <= n <= n_max``.
    """

    kind: str
    values: np.ndarray
    bound: np.ndarray
    n_max: int
    horizon: int
    tail_estimate: float
    inputs: dict = field(default_factory=dict)

    def to_csv(self, path=None) -> str:
        return table(["n", "bound"], ((n, float(self.bound[n])) for n in range(1, self.n_max + 1)), path)


def _working_horizon(n_max: int, horizon: int | None, ingredients: dict) -> int:
    """Check the curve ingredients and return the working horizon.

    A sequence known only through a tail-sum bound has no pointwise tail;
    padding it with zeros would silently weaken a bound curve."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    horizon = horizon or max(4 * n_max, 64)
    for name, seq in ingredients.items():
        if not seq.is_summable:
            raise DivergenceError(f"ingredient {name} is not summable")
        if seq.tail is None and (seq.tail_sum_bound or 0.0) > 0.0 and len(seq) < horizon + 1:
            raise ValueError(
                f"{name} stores {len(seq)} values but {horizon + 1} are needed and its tail"
                " has no pointwise model; recompute it to the working horizon"
            )
    return horizon


def _kappa_seq(e: DecaySeq, other: DecaySeq, exp_abs_x0: float, horizon: int) -> np.ndarray:
    """Mixed covariate term: ``kappa_j = sum_{s<j} e_s * other_{j-s}
    + 2 * sum_{s>=j} e_s * E|X_0|`` for ``j = 1..horizon``."""
    eh = e.head(horizon + 1)
    oh = other.head(horizon + 1)
    kap = np.zeros(horizon + 1)
    for j in range(1, horizon + 1):
        conv = float(eh[:j] @ oh[j:0:-1])
        kap[j] = conv + 2.0 * e.sum_from(j) * exp_abs_x0
    return kap


def _curve_terms(
    bstar: DecaySeq,
    other: DecaySeq,
    e: DecaySeq,
    exp_abs_x0: float,
    horizon: int,
) -> np.ndarray:
    bs = bstar.head(horizon + 1)
    oh = other.head(horizon + 1)
    kap = _kappa_seq(e, other, exp_abs_x0, horizon)
    terms = np.zeros(horizon + 1)
    for j in range(1, horizon + 1):
        conv = float(bs[: j - 1] @ kap[j - 1 : 0 : -1]) if j >= 2 else 0.0
        terms[j] = bs[j - 1] + oh[j] + kap[j] + conv
    return terms


def _sum_tail_estimate(
    bstar: DecaySeq,
    other: DecaySeq,
    e: DecaySeq,
    exp_abs_x0: float,
    horizon: int,
) -> float:
    """Upper bound on ``sum_{j > horizon} g_j`` from the ingredient tails."""
    t_bstar = bstar.sum_from(horizon)  # sum_{j>H} b*_{j-1}
    t_other = other.sum_from(horizon + 1)
    # kappa tail: sum_{j>H} kappa_j split into the convolution part and the
    # moment part sum_{j>H} sum_{s>=j} e_s = sum_{s>H} (s - H) e_s
    eh = e.head(horizon + 1)
    t_conv = float(sum(eh[s] * other.sum_from(max(horizon + 1 - s, 1)) for s in range(horizon + 1)))
    t_conv += e.sum_from(horizon + 1) * other.total()
    t_kappa = t_conv + 2.0 * exp_abs_x0 * e.moment_tail(horizon)
    # convolution tail sum_{j>H} sum_i b*_i kappa_{j-i-1}, bounded term by
    # term as b*_i times the kappa mass beyond lag max(H-i, 1)
    kap = _kappa_seq(e, other, exp_abs_x0, horizon)
    kappa_total = float(kap[1:].sum()) + t_kappa
    bs_head = bstar.head(horizon + 1)
    kap_cum = np.concatenate([np.cumsum(kap[::-1])[::-1], [0.0]])  # kap_cum[u] = sum_{t>=u,<=H} kap_t
    cross = 0.0
    for i in range(horizon + 1):
        u = max(horizon - i, 1)
        cross += bs_head[i] * (float(kap_cum[u]) + t_kappa)
    cross += bstar.sum_from(horizon + 1) * kappa_total
    return float(t_bstar + t_other + t_kappa + cross)


def beta_bound(
    bstar: DecaySeq,
    c: DecaySeq,
    e: DecaySeq,
    exp_abs_x0: float,
    n_max: int,
    horizon: int | None = None,
) -> DependenceBoundCurve:
    """Absolute-regularity bound curve.

    Computes ``g_j = b*_{j-1} + c_j + kappa_j + sum_{i<=j-2} b*_i kappa_{j-i-1}``
    and the aggregated bound ``beta(n) <= sum_{j>=n} g_j``, with the sum past
    the working horizon bounded from the ingredient tail models.
    """
    horizon = _working_horizon(n_max, horizon, {"bstar": bstar, "c": c, "e": e})
    g = _curve_terms(bstar, c, e, exp_abs_x0, horizon)
    tail = _sum_tail_estimate(bstar, c, e, exp_abs_x0, horizon)
    rev_cum = np.concatenate([np.cumsum(g[::-1])[::-1], [0.0]])
    bound = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        bound[n] = float(rev_cum[n]) + tail
    return DependenceBoundCurve(
        kind="beta",
        values=g,
        bound=bound,
        n_max=n_max,
        horizon=horizon,
        tail_estimate=tail,
        inputs={"exp_abs_x0": exp_abs_x0},
    )


def tau_bound(
    bstar: DecaySeq,
    a: DecaySeq,
    e: DecaySeq,
    exp_abs_x0: float,
    n_max: int,
    horizon: int | None = None,
) -> DependenceBoundCurve:
    """Wasserstein-flavour dependence bound curve.

    Same per-lag terms as :func:`beta_bound` with the raw covariate coupling
    cost ``a_j`` in place of ``c_j``; the aggregated bound is
    ``tau(n) <= sup_{j>=n} h_j``.  The sup past the horizon is bounded by the
    last computed term, which requires the curve to have entered its
    decreasing regime; a generous horizon is chosen by default.
    """
    horizon = _working_horizon(n_max, horizon, {"bstar": bstar, "a": a, "e": e})
    h = _curve_terms(bstar, a, e, exp_abs_x0, horizon)
    tail_sup = float(h[horizon])
    running = np.maximum.accumulate(h[1:][::-1])[::-1]
    bound = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        bound[n] = max(float(running[n - 1]), tail_sup)
    return DependenceBoundCurve(
        kind="tau",
        values=h,
        bound=bound,
        n_max=n_max,
        horizon=horizon,
        tail_estimate=tail_sup,
        inputs={"exp_abs_x0": exp_abs_x0},
    )


def heredity_exponent(eta: float, kappa: float, p: float, q: float) -> float:
    """Decay exponent inherited by Lipschitz-weighted functionals of the
    joint process: ``min(eta - 1, (kappa - 1) * (q + 2) / (q + p + 1))``."""
    if not (eta > 1.0 and kappa > 1.0 and q > 0.0 and p >= 1.0):
        raise ValueError("need eta > 1, kappa > 1, q > 0, p >= 1")
    return min(eta - 1.0, (kappa - 1.0) * (q + 2.0) / (q + p + 1.0))


@dataclass(frozen=True)
class DecayTransferReport:
    """Diagnostics for how summability moments transfer from b to b*."""

    partial_sums: np.ndarray
    increment_ratio: float
    fitted_rate: float | None
    horizon: int
    moment_order: int


def decay_transfer_check(b: DecaySeq, k: int, horizon: int) -> DecayTransferReport:
    """Partial sums of ``m^k * b*_m`` plus stabilization diagnostics.

    ``increment_ratio`` is the share of the total contributed by the last
    decile of the horizon; for geometrically decaying ``b`` a geometric rate
    is fitted to ``b*`` by least squares on the log scale.
    """
    if k < 0:
        raise ValueError("moment order k must be >= 0")
    bs = bstar_from_b(b, horizon).values
    m = np.arange(horizon + 1, dtype=float)
    weighted = m**k * bs
    partial = np.cumsum(weighted)
    last_decile = partial[-1] - partial[int(0.9 * horizon)]
    ratio = float(last_decile / partial[-1]) if partial[-1] > 0 else 0.0
    fitted = None
    if isinstance(b.tail, GeometricTail) or (b.tail is None and len(b) < horizon // 2):
        pos = bs[1:] > 1e-300
        idx = np.arange(1, horizon + 1)[pos]
        if idx.size >= 8:
            slope = np.polyfit(idx, np.log(bs[1:][pos]), 1)[0]
            fitted = float(np.exp(slope))
    return DecayTransferReport(
        partial_sums=partial,
        increment_ratio=ratio,
        fitted_rate=fitted,
        horizon=horizon,
        moment_order=k,
    )
