"""Finite-alphabet probability primitives.

Total variation distance, the maximal coupling of two categorical
distributions (minimum-overlap diagonal plus an independent product of the
normalized residuals), sampling from a coupling table, a chain's stationary
law and reproducible random streams keyed by ``(seed, stream_id)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "ProbVectorError",
    "PROB_TOL",
    "as_prob_vector",
    "tv_distance",
    "CouplingTable",
    "maximal_coupling",
    "stationary_law",
    "SeededRng",
    "as_generator",
    "sample_coupled",
]

PROB_TOL = 1e-12


class DimensionError(ValueError):
    """Operands have incompatible alphabet sizes."""


class ProbVectorError(ValueError):
    """Weights do not form a probability vector within tolerance."""


def as_prob_vector(weights) -> np.ndarray:
    """Validate ``weights`` as a probability vector and renormalize exactly.

    Entries must be nonnegative (tiny negative float noise below
    ``PROB_TOL`` is clipped) and sum to one within ``PROB_TOL``.  The returned
    copy sums to one up to the last ulp, so downstream couplings never
    accumulate the caller's rounding error.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise ProbVectorError("need a 1-d vector over an alphabet of size >= 2")
    if not np.all(np.isfinite(w)):
        raise ProbVectorError("non-finite weight")
    if np.any(w < -PROB_TOL):
        raise ProbVectorError(f"negative weight {w.min()}")
    w = np.clip(w, 0.0, None)
    s = w.sum()
    if abs(s - 1.0) > PROB_TOL:
        raise ProbVectorError(f"weights sum to {s}, not 1 within {PROB_TOL}")
    return w / s


def tv_distance(p, q) -> float:
    """Total variation distance ``0.5 * sum_i |p_i - q_i|`` in [0, 1]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionError(f"length mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


@dataclass(frozen=True)
class CouplingTable:
    """Joint law of a coupled pair on ``E x E``.

    ``joint[i, j]`` is the probability of drawing ``(i, j)``; row sums
    reproduce the first marginal, column sums the second, and
    ``offdiag_mass`` equals the total variation distance of the marginals.
    """

    joint: np.ndarray
    offdiag_mass: float

    @property
    def size(self) -> int:
        return self.joint.shape[0]

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        return self.joint.sum(axis=1), self.joint.sum(axis=0)


def maximal_coupling(p, q) -> CouplingTable:
    """Build the maximal coupling of two categorical distributions.

    The diagonal carries the pointwise minimum ``min(p_i, q_i)``; the
    remaining mass ``d = tv_distance(p, q)`` is spread as the independent
    product of the normalized residuals ``(p - min)/d`` and ``(q - min)/d``,
    which lives entirely off the diagonal.  The mismatch probability of a
    draw from the table is therefore exactly ``d``.
    """
    p = as_prob_vector(p)
    q = as_prob_vector(q)
    if p.shape != q.shape:
        raise DimensionError(f"length mismatch: {p.shape} vs {q.shape}")
    diag = np.minimum(p, q)
    d = 1.0 - diag.sum()
    joint = np.diag(diag)
    if d > PROB_TOL:
        res_p = (p - diag) / d
        res_q = (q - diag) / d
        joint = joint + d * np.outer(res_p, res_q)
    return CouplingTable(joint=joint, offdiag_mass=max(d, 0.0))


def stationary_law(transition) -> np.ndarray:
    """The invariant law of a transition matrix that has exactly one: the
    solution of ``(P^T - I) pi = 0`` with its last row, the negated sum of
    the others, replaced by ``sum(pi) = 1``, clipped at 0 and renormalised
    so that it is a law."""
    P = np.asarray(transition, dtype=float)
    A = P.T - np.eye(P.shape[0])
    A[-1] = 1.0
    pi = np.clip(np.linalg.solve(A, np.eye(P.shape[0])[-1]), 0.0, None)
    return pi / pi.sum()


@dataclass(frozen=True)
class SeededRng:
    """Reproducible random stream keyed by ``(seed, stream_id)``.

    Identical keys reproduce identical draws; distinct ``stream_id`` values
    give statistically independent streams, which is what replica-parallel
    Monte Carlo needs.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


def as_generator(rng) -> np.random.Generator:
    """Accept a ``SeededRng``, a ``Generator`` or an integer seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, SeededRng):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return SeededRng(int(rng)).generator()
    raise TypeError(f"cannot interpret {type(rng).__name__} as a random source")


def sample_coupled(table: CouplingTable, rng, size: int | None = None):
    """Draw coupled pairs ``(u, v)`` from a coupling table.

    Returns a single pair when ``size`` is None, else two integer arrays of
    length ``size``.
    """
    gen = as_generator(rng)
    n = table.size
    flat = table.joint.ravel()
    flat = flat / flat.sum()
    idx = gen.choice(n * n, size=size, p=flat)
    u, v = np.divmod(idx, n)
    if size is None:
        return int(u), int(v)
    return u.astype(np.int64), v.astype(np.int64)
