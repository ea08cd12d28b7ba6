"""Transition-kernel contract: evaluation, truncation, numeric certification.

A :class:`KernelHandle` wraps an evaluator ``q(. | past categories, past
covariates)`` together with certified memory-decay metadata: the sequence
``b`` bounding sensitivity to remote categories, the sequence ``e`` bounding
sensitivity to each covariate lag, and a numeric certificate that the
one-step sensitivity ``b_0`` is strictly below one.  Histories are passed
most recent first; ``past_x[0]`` is the covariate entering the current step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import DecaySeq
from .prob import tv_distance

__all__ = [
    "KernelInputError",
    "CertificationError",
    "UnsupportedKernelError",
    "TruncationPolicy",
    "KernelHandle",
    "kernel_eval",
    "truncation_error_bound",
    "GridSpec",
    "certify_b0",
    "b_seq_certified",
    "e_seq_certified",
    "b_exact_from_table",
    "enumerate_b_exact",
    "table_kernel",
    "transition_table",
    "n_memory_states",
    "memory_state",
    "state_code",
    "successor_code",
    "memory_step",
    "covariate_sensitivity_check",
]

ENUM_STATE_LIMIT = 2**20  # largest N**(2*memory) for exact enumeration
PROB_SUM_TOL = 1e-10


class KernelInputError(ValueError):
    """History or covariate input outside the kernel's domain."""


class CertificationError(RuntimeError):
    """A numeric certificate could not be established."""


class UnsupportedKernelError(RuntimeError):
    """The requested operation needs structure this kernel does not declare."""


@dataclass(frozen=True)
class TruncationPolicy:
    """How infinite histories are cut down to what the evaluator consumes.

    Categories beyond ``max_lag_y`` and covariates beyond ``max_lag_x`` are
    dropped; shorter histories are padded with category 0 and a zero
    covariate.  The induced evaluation error is bounded by the tail of the
    kernel's ``b`` and ``e`` sequences beyond the respective lags.
    """

    max_lag_y: int
    max_lag_x: int


@dataclass
class KernelHandle:
    """Evaluatable transition kernel with certified decay sequences."""

    n_categories: int
    covariate_dim: int
    probs_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    truncation: TruncationPolicy
    b: DecaySeq
    e: DecaySeq
    b0_certificate: float
    label: str = ""
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_categories < 2:
            raise ValueError("alphabet must have at least two categories")
        if not 0.0 <= self.b0_certificate < 1.0:
            raise CertificationError(
                f"declared b0 certificate {self.b0_certificate} is not < 1"
            )

    def _prepare(self, past_y, past_x) -> tuple[np.ndarray, np.ndarray]:
        pol = self.truncation
        y = np.asarray(past_y, dtype=np.int64).ravel()
        if y.size and (y.min() < 0 or y.max() >= self.n_categories):
            raise KernelInputError("category index outside alphabet")
        if y.size < pol.max_lag_y:
            y = np.concatenate([y, np.zeros(pol.max_lag_y - y.size, dtype=np.int64)])
        else:
            y = y[: pol.max_lag_y]
        x = np.asarray(past_x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1) if self.covariate_dim == 1 else x.reshape(1, -1)
        if x.size and not np.all(np.isfinite(x)):
            raise KernelInputError("non-finite covariate")
        if x.ndim != 2 or (x.size and x.shape[1] != self.covariate_dim):
            raise KernelInputError(
                f"covariate history must be (lags, {self.covariate_dim})"
            )
        if x.shape[0] < pol.max_lag_x:
            pad = np.zeros((pol.max_lag_x - x.shape[0], self.covariate_dim))
            x = np.vstack([x, pad]) if x.size else pad
        else:
            x = x[: pol.max_lag_x]
        return y, x

    def probs(self, past_y, past_x) -> np.ndarray:
        """Full next-category distribution given truncated/padded history."""
        y, x = self._prepare(past_y, past_x)
        p = np.asarray(self.probs_fn(y, x), dtype=float)
        return p


def kernel_eval(kernel: KernelHandle, target: int, past_y, past_x) -> float:
    """Probability of ``target`` given the history, with contract checks."""
    if not 0 <= target < kernel.n_categories:
        raise KernelInputError("target outside alphabet")
    p = kernel.probs(past_y, past_x)
    s = p.sum()
    if abs(s - 1.0) > PROB_SUM_TOL:
        raise KernelInputError(f"kernel probabilities sum to {s}")
    return float(p[target])


def truncation_error_bound(kernel: KernelHandle, covariate_tail_scale: float = 1.0) -> float:
    """TV error induced by the handle's truncation policy.

    Cutting categories beyond ``max_lag_y`` costs at most the decay mass at
    that depth; cutting covariates beyond ``max_lag_x`` costs at most the
    ``e`` tail times a bound on the dropped covariate magnitudes.
    """
    pol = kernel.truncation
    cat_part = kernel.b.value(pol.max_lag_y)
    cov_part = kernel.e.sum_from(pol.max_lag_x) * covariate_tail_scale
    return float(cat_part + cov_part)


# ---------------------------------------------------------------------------
# memory-state encoding (most recent category in the highest digit)
# ---------------------------------------------------------------------------


def n_memory_states(n_categories: int, memory: int) -> int:
    return n_categories**memory


def memory_state(code, n_categories: int, memory: int) -> tuple:
    """Decode a state code (or an array of codes) into categories ordered
    most recent first."""
    out = []
    for _ in range(memory):
        code, rem = divmod(code, n_categories)
        out.append(rem)
    return tuple(reversed(out))


def state_code(past, n_categories: int, memory: int) -> int:
    """Inverse of :func:`memory_state`: the code of the past ``past`` (most
    recent first), cut to ``memory`` categories and padded with category 0
    as :class:`KernelHandle` pads a short history."""
    code = 0
    for i in range(memory):
        code = code * n_categories + (int(past[i]) if i < len(past) else 0)
    return code


def successor_code(code, y_new, n_categories: int, memory: int):
    """State code after observing ``y_new`` (vectorized over arrays)."""
    return y_new * n_categories ** (memory - 1) + code // n_categories


def memory_step(dist: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Law of the next memory state (or a stack of laws along leading axes)
    under the ``(N^M, N)`` transition ``table``.  ``successor_code`` drops the
    lowest digit and puts ``y`` on top, so the step sums out the lowest digit
    and moves the ``y`` axis to the front."""
    n_codes, n = table.shape
    a = (dist[..., :, None] * table).reshape(dist.shape[:-1] + (n_codes // n, n, n)).sum(axis=-2)
    return np.swapaxes(a, -1, -2).reshape(dist.shape)


def transition_table(kernel: KernelHandle, past_x) -> np.ndarray:
    """Next-category probabilities for every memory state, shape (N^M, N).

    Row order follows the state code: the most recent category is the
    highest base-``N`` digit.  ``past_x`` is the covariate history seen from
    the current step (most recent first); the same history is used for every
    row, so the table is exact for kernels truncated at ``max_lag_y``.
    """
    n, mem = kernel.n_categories, kernel.truncation.max_lag_y
    n_states = n_memory_states(n, mem)
    if n_states * n > ENUM_STATE_LIMIT:
        raise UnsupportedKernelError(f"{n_states} memory states exceed the enumeration limit")
    table = np.empty((n_states, n))
    for code in range(n_states):
        table[code] = kernel.probs(memory_state(code, n, mem), past_x)
    sums = table.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > PROB_SUM_TOL:
        raise KernelInputError("kernel rows do not sum to one")
    return table


# ---------------------------------------------------------------------------
# b0 certification for link-based kernels
# ---------------------------------------------------------------------------


B0_BLOCK_POINTS = 1 << 14  # mesh points per block of the one-vertex discrete-choice sweep


@dataclass(frozen=True)
class GridSpec:
    """Search grid for the one-step sensitivity sup.

    ``lo``/``hi``/``step`` define the compact sweep per latent dimension;
    ``boundary`` adds two far-out points per dimension where CDF links have
    flattened, standing in for the limits at infinity.  The fields must be
    finite with ``step > 0``, ``lo < hi`` and ``boundary >= max(|lo|,
    |hi|)``; anything else raises ``ValueError``.
    """

    lo: float = -20.0
    hi: float = 20.0
    step: float = 1e-3
    boundary: float = 40.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.lo, self.hi, self.step, self.boundary)):
            raise ValueError(f"grid fields must be finite numbers, got {self}")
        if self.step <= 0.0:
            raise ValueError(f"grid step must be > 0, got {self.step}")
        if self.lo >= self.hi:
            raise ValueError(f"grid lo must be below hi, got lo={self.lo}, hi={self.hi}")
        if self.boundary < max(abs(self.lo), abs(self.hi)):
            raise ValueError(f"grid boundary {self.boundary} lies inside [lo, hi]")

    def axis(self, step: float | None = None) -> np.ndarray:
        """Sweep points at ``step`` (the grid's own by default), with the two
        boundary points at the ends."""
        step = self.step if step is None else step
        pts = np.arange(self.lo, self.hi + step / 2, step)
        return np.concatenate([[-self.boundary], pts, [self.boundary]])


def _check_lipschitz(lipschitz: float) -> None:
    if not (math.isfinite(lipschitz) and lipschitz >= 0.0):
        raise ValueError(f"lipschitz must be a finite number >= 0, got {lipschitz}")


def _b0_binary(cdf: Callable, lipschitz: float, c: float, grid: GridSpec) -> float:
    _check_lipschitz(lipschitz)
    if c == 0.0:
        return 0.0
    z = grid.axis()
    sup = float(np.max(np.abs(cdf(z + c) - cdf(z))))
    # nearest grid point is within step/2 and the swept function is
    # 2*L-Lipschitz in z, so this covers the true sup inside the box
    return sup + lipschitz * grid.step


def _off_box_binary(cdf: Callable, lipschitz: float, c: float, grid: GridSpec) -> float:
    """Bound on ``F(z + c) - F(z)`` for ``z`` outside ``[lo, hi]``: a
    monotone cdf moves by at most ``F(lo + c)`` below the box and
    ``1 - F(hi)`` above it."""
    below, at_hi = cdf(np.array([grid.lo + c, grid.hi]))
    return max(float(below), 1.0 - float(at_hi))


def _row_sum(cols: list) -> np.ndarray:
    """Sum of a law's columns, one per sign pattern, in the order
    ``np.sum(axis=1)`` adds a row of that many entries: left to right below
    eight, and numpy's pairwise tree at eight.  The columns are left as
    they are."""
    c = cols
    if len(c) == 8:
        return ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))
    total = c[0] + c[1]
    for col in c[2:]:
        total += col
    return total


def _cell_columns(success: list) -> list:
    """Probabilities of all 0/1 sign patterns for independent components.

    ``success[i]`` is the probability that component ``i`` fires; entry
    ``k`` of the result is the pattern whose bit ``i`` (LSB = component 0)
    is set when component ``i`` fires.
    """
    cells = [1.0 - success[0], success[0]]
    for p in success[1:]:
        # doubling with component i as the new high bit makes bit i of the
        # pattern index mark whether component i fired
        q = 1.0 - p
        cells = [cell * q for cell in cells] + [cell * p for cell in cells]
    return cells


def _mesh_block(axis: np.ndarray, dims: int, block: slice) -> list:
    """``axis`` once per mesh dimension, shaped to broadcast over the mesh
    rows whose first coordinate lies in ``block``: array axis ``i`` runs
    along mesh dimension ``i``."""
    return [(axis[block] if i == 0 else axis).reshape((-1,) + (1,) * (dims - 1 - i)) for i in range(dims)]


def _b0_multinomial(n_categories: int, c: float, grid: GridSpec) -> float:
    if isinstance(n_categories, bool) or not isinstance(n_categories, numbers.Integral) or n_categories < 2:
        raise ValueError(f"n_categories must be an integer >= 2, got {n_categories!r}")
    if c == 0.0:
        return 0.0
    # A shift y in [-c, c]^(N-1) moves the log-likelihood ratios of the two
    # laws by the entries of (0, y) less a common term: a spread of c for two
    # categories and 2c from three on.  TV is at most tanh(spread / 4), which
    # is attained (Birkhoff's Hilbert-metric contraction).  Two ulps up cover
    # a rounded tanh.
    sup = math.tanh(c / 4.0 if n_categories == 2 else c / 2.0)
    return math.nextafter(math.nextafter(sup, 2.0), 2.0)


def _b0_discrete_choice(
    cdf: Callable, n_components: int, lipschitz: float, c: float, grid: GridSpec
) -> float:
    if isinstance(n_components, bool) or not isinstance(n_components, numbers.Integral) or n_components < 1:
        raise ValueError(f"n_components must be an integer >= 1, got {n_components!r}")
    _check_lipschitz(lipschitz)
    if n_components == 1:
        # the law is Bernoulli(1 - F(-z)), whose TV under the shift is
        # |F(w + c) - F(w)| at w = -z - c: the binary sweep, for any cdf
        return _b0_binary(cdf, lipschitz, c, grid)
    if c == 0.0:
        return 0.0
    if n_components > 3:
        raise UnsupportedKernelError(f"grid certification supported up to 3 components, got {n_components}")
    step = max(grid.step, 0.05 if n_components == 2 else 0.25)
    axis = grid.axis(step)
    base, shifted = 1.0 - cdf(-axis), 1.0 - cdf(-(axis + c))
    # Only the all-(+c) vertex of the shift cube is swept.  A component with
    # no shift factors out of the TV, and shifting it can only raise the TV;
    # for a symmetric cdf, shift -c at z_i is shift +c at -z_i once bit i is
    # relabelled.  So that vertex attains the sup over R^K.
    rows = max(1, B0_BLOCK_POINTS // axis.size ** (n_components - 1))
    best = 0.0
    for lo in range(0, axis.size, rows):
        block = slice(lo, lo + rows)
        ref = _cell_columns(_mesh_block(base, n_components, block))
        cols = _cell_columns(_mesh_block(shifted, n_components, block))
        diffs = [np.abs(a - b) for a, b in zip(cols, ref)]
        # halving rounds monotonically: the largest halved sum is the
        # halved largest sum
        best = max(best, 0.5 * float(_row_sum(diffs).max()))
    return best + lipschitz * n_components * step


def _off_box_discrete_choice(
    cdf: Callable, n_components: int, lipschitz: float, c: float, grid: GridSpec
) -> float:
    """Bound on the choice TV where some component lies outside ``[lo, hi]``.

    That component moves by at most the binary off-box bound ``t`` (at the
    all-(+c) vertex and for a symmetric cdf), and each other one by at most
    the binary certificate ``s1`` on the same grid; coupling the components
    one at a time gives ``1 - (1 - t)(1 - s1)^(K - 1)``.
    """
    t = _off_box_binary(cdf, lipschitz, c, grid)
    s1 = max(_b0_binary(cdf, lipschitz, c, grid), t)
    return 1.0 - (1.0 - t) * (1.0 - s1) ** (n_components - 1)


# family name -> (sweep of the grid's box, which checks the parameters,
# bound off the box); the multinomial closed form holds on all of R^(N-1)
_B0_SUP = {
    "binary": (_b0_binary, _off_box_binary),
    "multinomial": (_b0_multinomial, None),
    "discrete_choice": (_b0_discrete_choice, _off_box_discrete_choice),
}


_B0_TOLERANCE = 1e-9  # a certified sup must lie this far below 1


def certify_b0(
    profile: tuple,
    bound_on_category_part: float,
    grid: GridSpec | None = None,
) -> float:
    """Certified sup of the one-step TV sensitivity over a bounded shift.

    The category-driven part of the latent argument shifts by at most
    ``c = bound_on_category_part`` per dimension.  ``profile`` names the
    family and its parameters:

    - ``("binary", cdf, lipschitz)``
    - ``("multinomial", n_categories)``
    - ``("discrete_choice", cdf, n_components, lipschitz)``, whose ``cdf``
      must be symmetric: ``F(-x) = 1 - F(x)``

    The multinomial sup is the closed form ``tanh(c/2)`` (``tanh(c/4)`` for
    two categories), rounded up two ulps.  The binary sup, and that of one
    choice component, is one sweep of the grid's axis.  Two or three choice
    components sweep the mesh of the axis (step at least 0.05 and 0.25) at
    the shift cube's all-(+c) vertex, which holds the sup, in blocks of
    about ``B0_BLOCK_POINTS`` points that give the stacked mesh's floats:
    about 0.02 s for two on the default grid and 0.3 s for three.  Four or
    more raise :class:`UnsupportedKernelError`.  The sweeps add the grid's
    continuity correction, so they upper-bound the true sup inside the
    grid's ``[lo, hi]`` box.  Off the box the binary sweep takes the max
    with the cdf's tails, ``max(F(lo + c), 1 - F(hi))``, and the choice
    sweep with the product coupling ``1 - (1 - t)(1 - s1)^(K - 1)`` of that
    tail ``t`` and the binary certificate ``s1``; on the default grid both
    lie far below the sweep.

    A zero shift certifies 0 once the profile's name and parameters are
    checked.  Raises :class:`CertificationError` when the result (NaN too)
    is not below ``1 - 1e-9``, and ``ValueError`` naming the parameter when
    ``c`` or ``lipschitz`` is not a finite number >= 0, ``n_categories``
    not an integer >= 2 or ``n_components`` not an integer >= 1 (a bool is
    not a count).
    """
    grid = grid or GridSpec()
    c = float(bound_on_category_part)
    if not (math.isfinite(c) and c >= 0.0):
        raise ValueError(f"bound_on_category_part must be a finite number >= 0, got {c}")
    family = _B0_SUP.get(profile[0])
    if family is None:
        raise UnsupportedKernelError(f"unknown certification profile {profile[0]!r}")
    sweep, off_box = family
    sup = sweep(*profile[1:], c, grid)
    if off_box is not None and c > 0.0:
        sup = max(sup, off_box(*profile[1:], c, grid))
    if not sup < 1.0 - _B0_TOLERANCE:
        raise CertificationError(f"one-step sensitivity sup {sup} is not below 1")
    return sup


# ---------------------------------------------------------------------------
# certified decay sequences
# ---------------------------------------------------------------------------


def b_exact_from_table(table: np.ndarray, n_categories: int, memory: int) -> DecaySeq:
    """Exact memory sensitivity of a tabulated kernel.

    For each ``m``, the largest TV distance between rows whose state codes
    share the ``m`` most recent categories (the high code digits); exact and
    nonincreasing in ``m``.
    """
    n, mem = n_categories, memory
    if n ** (2 * mem) > ENUM_STATE_LIMIT:
        raise UnsupportedKernelError(
            f"{n}^(2*{mem}) history pairs exceed the enumeration limit"
        )
    out = np.zeros(mem + 1)
    for m in range(mem + 1):
        g = table.reshape(n**m, n ** (mem - m), n)
        out[m] = (0.5 * np.abs(g[:, :, None, :] - g[:, None, :, :]).sum(axis=-1)).max()
    return DecaySeq(out)


def enumerate_b_exact(kernel: KernelHandle, past_x=None) -> DecaySeq:
    """Exact memory sensitivity by exhaustive history enumeration.

    For a truncated kernel with memory ``M``, computes for each ``m`` the
    largest TV distance between next-step laws of two histories agreeing on
    their ``m`` most recent categories, at the fixed covariate history
    ``past_x`` (zeros by default).  Exact, hence always below any valid
    declared envelope.
    """
    n, mem = kernel.n_categories, kernel.truncation.max_lag_y
    if past_x is None:
        past_x = np.zeros((kernel.truncation.max_lag_x, kernel.covariate_dim))
    return b_exact_from_table(transition_table(kernel, past_x), n, mem)


def table_kernel(table: np.ndarray) -> KernelHandle:
    """Wrap an explicit ``(N^M, N)`` transition table as a kernel handle.

    The decay metadata is exact: ``b`` comes from exhaustive enumeration
    (zero beyond the memory depth) and the table ignores covariates, so
    ``e`` vanishes.  The table's ``b_0`` must be below one.
    """
    table = np.asarray(table, dtype=float)
    n = table.shape[1]
    mem = round(math.log(table.shape[0], n))
    if n**mem != table.shape[0]:
        raise ValueError("table rows must be a power of the alphabet size")
    if np.any(table < 0) or np.max(np.abs(table.sum(axis=1) - 1.0)) > PROB_SUM_TOL:
        raise KernelInputError("table rows must be probability vectors")
    b_exact = b_exact_from_table(table, n, mem)
    if b_exact.values[0] >= 1.0:
        raise CertificationError("table kernel has one-step sensitivity 1")

    def probs_fn(y, x):
        return table[state_code(y, n, mem)]

    return KernelHandle(
        n_categories=n,
        covariate_dim=1,
        probs_fn=probs_fn,
        truncation=TruncationPolicy(max_lag_y=mem, max_lag_x=1),
        b=b_exact,
        e=DecaySeq.zeros(),
        b0_certificate=float(b_exact.values[0]),
        label="table-kernel",
    )


def b_seq_certified(kernel: KernelHandle, horizon: int, method: str = "auto") -> DecaySeq:
    """Certified category-memory decay sequence up to ``horizon``.

    ``"envelope"`` evaluates the declared analytic envelope; ``"exact"``
    enumerates small truncated instances; ``"auto"`` enumerates when the
    instance is within the enumeration budget and falls back to the envelope
    otherwise.
    """
    if method not in ("auto", "envelope", "exact"):
        raise ValueError("method must be auto, envelope or exact")
    n, mem = kernel.n_categories, kernel.truncation.max_lag_y
    small = n ** (2 * mem) <= ENUM_STATE_LIMIT
    if method == "exact" or (method == "auto" and small and mem <= horizon):
        if not small:
            raise UnsupportedKernelError("instance too large for exact enumeration")
        exact = enumerate_b_exact(kernel)
        vals = np.zeros(horizon + 1)
        vals[: min(len(exact.values), horizon + 1)] = exact.values[: horizon + 1]
        return DecaySeq(vals)
    return DecaySeq(kernel.b.head(horizon + 1), tail=kernel.b.tail)


def e_seq_certified(kernel: KernelHandle, horizon: int) -> DecaySeq:
    """Certified covariate-sensitivity sequence up to ``horizon``."""
    return DecaySeq(kernel.e.head(horizon + 1), tail=kernel.e.tail)


def covariate_sensitivity_check(
    kernel: KernelHandle,
    rng,
    lags: int | None = None,
    n_histories: int = 50,
) -> float:
    """Finite-difference spot check of the declared ``e`` envelope.

    Perturbs one covariate lag at a time by 1e-3 on random histories and
    returns the worst ratio of observed TV change to the envelope prediction
    ``e_lag * |perturbation|``; values at most ``1 + 1e-6`` confirm the
    envelope (ratios are capped only by validity, not sharpness).
    """
    from .prob import as_generator

    gen = as_generator(rng)
    pol = kernel.truncation
    lags = pol.max_lag_x if lags is None else min(lags, pol.max_lag_x)
    worst = 0.0
    for _ in range(n_histories):
        y = gen.integers(0, kernel.n_categories, size=pol.max_lag_y)
        x = gen.normal(size=(pol.max_lag_x, kernel.covariate_dim))
        base = kernel.probs(y, x)
        for s in range(lags):
            for dcoord in range(kernel.covariate_dim):
                xp = x.copy()
                xp[s, dcoord] += 1e-3
                tv = tv_distance(base, kernel.probs(y, xp))
                env = kernel.e.value(s) * 1e-3
                if env == 0.0:
                    if tv > 1e-6:
                        worst = max(worst, np.inf)
                else:
                    worst = max(worst, tv / env)
    return worst
