"""Model-level dependence certificates and exact small-instance mixing.

A certificate packages the theoretical decay-coefficient bound curve for a
model/covariate pair together with the certified ingredients it was built
from.  For small truncated kernels driven by finite-state covariates the
joint chain is finite, so its mixing coefficients can be computed exactly
(over a finite future window) and checked one-sidedly against the curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    DecaySeq,
    DependenceBoundCurve,
    DivergenceError,
    beta_bound,
    bstar_from_b,
    heredity_exponent,
    tau_bound,
)
from .csvio import table
from .kernels import KernelHandle, memory_state, memory_step, transition_table
from .models import model_to_kernel
from .prob import stationary_law
from .simulate import (
    FiniteStateMarkovCovariates,
    UnsupportedCovariateError,
    covariate_coupling_coeffs,
)

__all__ = [
    "DependenceCertificate",
    "HeredityWeights",
    "c_from_a",
    "certificate_for_model",
    "empirical_beta_small",
    "heredity_bound",
    "classify_decay",
]


def c_from_a(a: DecaySeq, x0_norm_p: float, q_exp: float) -> DecaySeq:
    """Covariate cost for the discrete metric: ``max(1, 2*||X0||_p) * a^(1/q)``."""
    scale = max(1.0, 2.0 * x0_norm_p)
    vals = scale * np.power(np.clip(a.values, 0.0, None), 1.0 / q_exp)
    tail = None
    tail_sum = None
    if a.tail is not None:
        tail = a.tail.root(scale, q_exp)
    elif a.tail_sum_bound is not None:
        if q_exp == 1.0:
            tail_sum = scale * a.tail_sum_bound
        elif a.tail_sum_bound == 0.0:
            tail_sum = 0.0
        else:
            raise DivergenceError(
                "cannot certify the transformed tail from a raw tail-sum bound"
            )
    return DecaySeq(vals, tail=tail, tail_sum_bound=tail_sum)


def classify_decay(n_values: np.ndarray, bound_values: np.ndarray) -> dict:
    """Fit geometric vs polynomial decay on a positive curve; higher R2 wins."""
    mask = bound_values > 1e-290
    n = np.asarray(n_values, dtype=float)[mask]
    y = np.log(bound_values[mask])
    out = {"kind": "flat", "rate": None, "power": None, "r2_geometric": 0.0, "r2_polynomial": 0.0}
    if n.size < 3:
        return out

    def _r2(xv, yv):
        coef = np.polyfit(xv, yv, 1)
        resid = yv - np.polyval(coef, xv)
        ss_tot = float(((yv - yv.mean()) ** 2).sum())
        return (1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0), coef

    r2_geo, coef_geo = _r2(n, y)
    r2_poly, coef_poly = _r2(np.log(n), y)
    out["r2_geometric"] = r2_geo
    out["r2_polynomial"] = r2_poly
    out["rate"] = float(np.exp(coef_geo[0]))
    out["power"] = float(-coef_poly[0])
    out["kind"] = "geometric" if r2_geo >= r2_poly else "polynomial"
    return out


@dataclass
class DependenceCertificate:
    """Bound curve plus the provenance of every ingredient that entered it."""

    model_label: str
    metric: str
    curve: DependenceBoundCurve
    ingredients: dict
    classification: dict = field(default_factory=dict)

    def to_csv(self, dest=None, empirical: np.ndarray | None = None) -> str:
        header = ["n", "bound"] + (["empirical_lowerbound"] if empirical is not None else [])
        rows = []
        for n in range(1, self.curve.n_max + 1):
            row = [n, float(self.curve.bound[n])]
            if empirical is not None:
                row.append(float(empirical[n - 1]) if n - 1 < len(empirical) else "")
            rows.append(row)
        return table(header, rows, dest)

    def summary(self) -> str:
        lines = [
            f"model: {self.model_label}",
            f"metric: {self.metric}",
            f"bound at n=1: {float(self.curve.bound[1])!r}",
            f"bound at n={self.curve.n_max}: {float(self.curve.bound[self.curve.n_max])!r}",
            f"decay classification: {self.classification.get('kind', '?')}"
            f" (R2 geo {self.classification.get('r2_geometric', 0.0):.4f},"
            f" R2 poly {self.classification.get('r2_polynomial', 0.0):.4f})",
        ]
        for name, val in self.ingredients.items():
            if isinstance(val, float):
                lines.append(f"ingredient {name}: {val!r}")
        return "\n".join(lines)


def certificate_for_model(
    spec,
    covariate_model,
    metric: str = "l1",
    p_moment: float = math.inf,
    n_max: int = 20,
    horizon: int | None = None,
    kernel: KernelHandle | None = None,
) -> DependenceCertificate:
    """Assemble the full dependence certificate for a model/covariate pair.

    The discrete metric yields an absolute-regularity curve with the
    covariate cost ``c_t = max(1, 2*||X0||_p) * a_t^(1/q)`` (``1/p + 1/q = 1``);
    the l1 metric yields the Wasserstein-flavour curve using ``a_t`` itself.
    """
    if metric not in ("discrete", "l1"):
        raise ValueError("metric must be 'discrete' or 'l1'")
    horizon = horizon or max(4 * n_max, 64)
    kernel = kernel or model_to_kernel(spec)
    a = covariate_coupling_coeffs(covariate_model, horizon, metric=metric)
    bstar = bstar_from_b(kernel.b, horizon)
    exp_abs = covariate_model.exp_abs()
    ingredients = {
        "b0_certificate": kernel.b0_certificate,
        "exp_abs_x0": exp_abs,
        "a_first": float(a.values[min(1, len(a.values) - 1)]),
    }
    if metric == "discrete":
        if math.isinf(p_moment):
            q_exp = 1.0
        elif p_moment <= 1.0:
            raise ValueError("p_moment must exceed 1 (or be inf)")
        else:
            q_exp = p_moment / (p_moment - 1.0)
        xnorm = covariate_model.norm_p(p_moment)
        c = c_from_a(a, xnorm, q_exp)
        ingredients.update({"x0_norm_p": xnorm, "q_exp": q_exp})
        curve = beta_bound(bstar, c, kernel.e, exp_abs, n_max, horizon)
    else:
        curve = tau_bound(bstar, a, kernel.e, exp_abs, n_max, horizon)
    cls = classify_decay(np.arange(1, n_max + 1), curve.bound[1:])
    return DependenceCertificate(
        model_label=kernel.label or type(spec).__name__,
        metric=metric,
        curve=curve,
        ingredients=ingredients,
        classification=cls,
    )


# ---------------------------------------------------------------------------
# exact mixing of the finite joint chain
# ---------------------------------------------------------------------------


_JOINT_STATE_LIMIT = 2**11  # joint states of an exact chain: its one-step matrix takes 32 MB


class _JointChain:
    """Finite joint (memory-state, covariate-state) chain with exact stepping.

    Flat state index is ``code * S + s``.  A step first moves the covariate
    state, then the memory state under the table of the new covariate state.
    """

    def __init__(self, kernel: KernelHandle, cov: FiniteStateMarkovCovariates):
        if kernel.truncation.max_lag_x != 1:
            raise UnsupportedCovariateError(
                "exact joint chain needs a kernel reading only the current covariate"
            )
        g = cov._g()
        if len({tuple(row) for row in np.round(g, 12)}) != g.shape[0]:
            raise UnsupportedCovariateError("emission map must be injective")
        self.kernel = kernel
        self.cov = cov
        self.P = cov._P()
        self.S = cov.n_states
        self.N = kernel.n_categories
        self.M = kernel.truncation.max_lag_y
        self.C = self.N**self.M
        self.n_states = self.C * self.S
        if self.n_states > _JOINT_STATE_LIMIT:
            raise UnsupportedCovariateError(
                f"joint state space of {self.n_states} states exceeds the exact limit of {_JOINT_STATE_LIMIT}"
            )
        self.tables = [transition_table(kernel, g[s].reshape(1, -1)) for s in range(self.S)]
        lead = memory_state(np.arange(self.C), self.N, self.M)[0]
        self.obs = (lead[:, None] * self.S + np.arange(self.S)[None, :]).ravel()
        self.n_obs = self.N * self.S

    def step(self, dist: np.ndarray) -> np.ndarray:
        """One joint step of a law, or of a stack of laws along leading axes."""
        mixed = dist.reshape(dist.shape[:-1] + (self.C, self.S)) @ self.P
        new = np.stack([memory_step(mixed[..., s], self.tables[s]) for s in range(self.S)], axis=-1)
        return new.reshape(dist.shape)

    def trajectory_law(self, start: np.ndarray, n: int, window: int) -> np.ndarray:
        """Exact law of the observable trajectory at times ``n..n+window-1``."""
        dist = start
        for _ in range(n):
            dist = self.step(dist)
        # row k * n_obs + o keeps the mass of row k's law on states observed as o
        cols = np.arange(self.n_states)
        cur = dist[None, :]
        for w in range(window):
            split = np.zeros((cur.shape[0], self.n_obs, self.n_states))
            split[:, self.obs, cols] = self.step(cur) if w else cur
            cur = split.reshape(-1, self.n_states)
        return cur.sum(axis=1)


def empirical_beta_small(
    kernel: KernelHandle,
    covariate_model: FiniteStateMarkovCovariates,
    n_values,
    window: int = 4,
) -> np.ndarray:
    """Exact window-``window`` absolute-regularity coefficients of the joint
    chain, one value per entry of ``n_values``.

    Conditioning is on the full joint state, which the infinite observable
    past determines exactly (injective emissions, finite memory), so each
    value is a lower bound for the full-future coefficient and a valid
    one-sided check against any certified upper-bound curve.  The invariant
    law of the joint chain is one solve of its dense one-step matrix
    (:func:`~catchain.prob.stationary_law`).  A kernel that reads more than
    the current covariate, an emission map that is not injective, or a
    joint chain of more than ``2**11`` states raises
    :class:`~catchain.simulate.UnsupportedCovariateError`.
    """
    chain = _JointChain(kernel, covariate_model)
    # row i of the one-step matrix is the step of the point mass on state i
    pi = stationary_law(chain.step(np.eye(chain.n_states)))
    ref: dict[int, np.ndarray] = {}
    n_list = list(n_values)
    out = np.zeros(len(n_list))
    for k, n in enumerate(n_list):
        if n < 1:
            raise ValueError("separation n must be >= 1")
        if n not in ref:
            ref[n] = chain.trajectory_law(pi, n, window)
        total = 0.0
        for idx in np.nonzero(pi > 1e-16)[0]:
            start = np.zeros_like(pi)
            start[idx] = 1.0
            law = chain.trajectory_law(start, n, window)
            total += pi[idx] * 0.5 * float(np.abs(law - ref[n]).sum())
        out[k] = total
    return out


# ---------------------------------------------------------------------------
# heredity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeredityWeights:
    """Summable lag weights of a Lipschitz-in-the-past functional.

    ``alpha`` carries the weights (index 0 = current value); its tail must be
    ``O(j^-eta)``.  ``p`` bounds the polynomial growth of the functional's
    local Lipschitz constant and ``q`` is the spare moment of the covariate.
    """

    alpha: DecaySeq
    eta: float
    p: float
    q: float

    def __post_init__(self):
        if self.eta <= 1.0:
            raise ValueError("tail exponent eta must exceed 1")
        if self.p < 1.0 or self.q <= 0.0:
            raise ValueError("need p >= 1 and q > 0")


def heredity_bound(
    weights: HeredityWeights,
    tau_curve: DependenceBoundCurve,
    moment_pq: float = 1.0,
) -> DependenceBoundCurve:
    """Dependence bound inherited by weighted functionals of the process.

    Assembles, for each separation ``i``, the three-term split with lag cut
    ``j = floor(i/2)`` and truncation level
    ``T = (j * tau(i - j))**(-1/(p+q+1))``: the truncated-window term
    ``T**(p-1) * j * tau(i-j)``, the moment spill ``moment_pq * T**-q`` and
    the weight tail beyond ``j``.  The decay exponent of the result is
    ``min(eta - 1, (kappa - 1)(q + 2)/(q + p + 1))`` where ``kappa`` is the
    fitted decay of the input curve.
    """
    if tau_curve.kind != "tau":
        raise ValueError("heredity applies to the Wasserstein-flavour curve")
    n_max = tau_curve.n_max
    p, q = weights.p, weights.q
    vals = np.zeros(n_max + 1)
    for i in range(1, n_max + 1):
        j = max(i // 2, 1)
        tau_val = float(tau_curve.bound[min(max(i - j, 1), n_max)])
        if tau_val <= 0.0:
            vals[i] = weights.alpha.sum_from(j + 1)
            continue
        t_level = (j * tau_val) ** (-1.0 / (p + q + 1.0))
        vals[i] = (
            t_level ** (p - 1.0) * j * tau_val
            + moment_pq * t_level ** (-q)
            + weights.alpha.sum_from(j + 1)
        )
    fit = classify_decay(np.arange(1, n_max + 1), tau_curve.bound[1:])
    kappa_fit = fit["power"] if fit["power"] and fit["power"] > 1.0 else None
    exponent = (
        heredity_exponent(weights.eta, kappa_fit, p, q) if kappa_fit is not None else None
    )
    return DependenceBoundCurve(
        kind="tau",
        values=vals,
        bound=vals.copy(),
        n_max=n_max,
        horizon=tau_curve.horizon,
        tail_estimate=float(vals[n_max]),
        inputs={"eta": weights.eta, "p": p, "q": q, "inherited_exponent": exponent},
    )
