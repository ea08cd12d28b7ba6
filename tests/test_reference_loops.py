"""Linear-time paths against the full-horizon loops they replace.

``bstar_from_b`` stops once every later ``b*`` is exactly 0.0, the
per-step sampler reads only the kernel's truncated memory, and the latent
sampler of a spec-built kernel carries the latent state forward.  All
three must give the same bytes as the straightforward loops kept here as
references.  The decay-sequence tails, defined by their tail classes, must give the same
floats as the per-type formulas kept here, and the exact memory
sensitivity the same floats as its group-by-group loop.  The memory-state
law step (``kernels.memory_step``) must give the same bytes as the
``np.add.at`` scatter of the exact marginal laws, and the joint-chain step
the same law as the sparse one-step matrix, both kept here.  The latent
scan must give the bytes of the array-step engine at every block dimension:
1 for the binary families, 2 to 4 for multinomial and discrete-choice
specs.  The blocked CSV
writer those of the row-by-row ``csv.writer``, ``DecaySeq.head`` those of
the per-element tail loop and ``bstar_sum_bracket`` those of the
full-length first-return loop, the blocked per-axis b0 sweep of the
discrete-choice profile the floats of the whole stacked mesh at the
all-(+c) shift vertex and a value between the mesh sup and the
certificate of the whole stacked shift cube, and the glued ladder, which
steps only the replicas whose rungs can still differ and
builds the residual of a step only for the replicas that move, the paths
and the generator state of the per-step ladder that gathers both laws and
recomputes every residual at every step, all kept here; the single-draw
glued coupling must give the paths of that ladder at one replica.  The likelihood evaluations of ``fit`` read data-only arrays
built once per fit, check stationarity once, take each log only where it is
kept and look the profiled link up on its equally spaced grid without a
binary search; they must give the floats of the per-evaluation code, with
``np.where`` and ``np.interp``, kept here.  ``fit_mle``'s BFGS, driven by
the score, must end no higher than the multi-start Nelder-Mead search it
replaced, kept here, and near the same point.  The closed-form multinomial b0
must lie between the sup over the whole stacked mesh and that sup plus the
mesh's continuity correction.  The finite-state covariate coefficients,
stepped by one matrix product per time, must give the floats of the
pair-by-pair loop kept here to 1e-12, and their k-step tail must bound the
coefficients iterated out to ten times the horizon and equal the loop's
one-step tail where that exists; the stationary-law solve must match the
eigenvector it replaced, and the exact joint-chain coefficients, whose
invariant law is one solve, those of the power iteration kept here.  The
multinomial and choice laws, given as lists of floats and drawn by a
running sum, must give the bytes of the array formulas and the categories
of the clamped count draw kept here; the AR(1) and finite-state covariate
samplers, which step on Python floats, the paths and the generator state
of the array row loop and the ``searchsorted`` loop kept here.  A
spec-built kernel fixes its recursion depth once, when it is built; its
``probs`` must give the bytes, or raise the error, of the per-call depth
and history slicing kept here, for all five families.
"""

import csv
import dataclasses
import io
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import expit, ndtr

from catchain import kernels
from catchain.bounds import (
    DecaySeq,
    DivergenceError,
    GeometricTail,
    PolynomialTail,
    bstar_from_b,
    bstar_sum_bracket,
)
from catchain.dependence import _JointChain, empirical_beta_small
from catchain.estimate import (
    _BARRIER_WEIGHT,
    _MAX_ITER,
    _START_OFFSETS,
    _STATIONARITY_MARGIN,
    Dataset,
    _Likelihood,
    _link_regression,
    _objective,
    _objective_and_gradient,
    _profile_objective,
    _radius_gradient,
    _shifted,
    _uniform_interp,
    conditional_loglik,
    fit_mle,
    loglik_gradient,
)
from catchain.kernels import (
    B0_BLOCK_POINTS,
    GridSpec,
    _b0_discrete_choice,
    _b0_multinomial,
    b_exact_from_table,
    state_code,
    successor_code,
    table_kernel,
    transition_table,
)
from catchain.models import (
    SCAN_BLOCK,
    BinaryInfiniteOrderSpec,
    DiscreteChoiceSpec,
    MultinomialSpec,
    NonlinearBinarySpec,
    ObservationDrivenBinarySpec,
    _latent_scan,
    custom_link,
    logistic_link,
    model_to_kernel,
    probit_link,
    russell_damping,
    stationarity_check,
)
from catchain.prob import SeededRng, as_generator, stationary_law
from test_simulate import _TopDraws
from catchain.simulate import (
    CSV_BLOCK,
    AR1Covariates,
    FiniteStateMarkovCovariates,
    IIDCovariates,
    SamplePath,
    UnsupportedCovariateError,
    _required_burnin,
    coupled_ladder_mc,
    covariate_coupling_coeffs,
    exact_marginal_laws,
    glued_coupling,
    path_to_csv,
    sample_covariates,
    sample_forward,
)

# -- b* recursion ------------------------------------------------------------------


def _reference_bstar(b: DecaySeq, horizon: int):
    """Full-horizon iteration: a fresh distribution every step, no early exit."""
    bh = b.head(horizon + 1)
    out = np.empty(horizon + 1)
    out[0] = bh[0]
    dist = np.zeros(horizon + 1)
    dist[0] = 1.0
    for n in range(1, horizon + 1):
        reset = float(dist[:n] @ bh[:n])
        new = np.zeros_like(dist)
        new[0] = reset
        new[1 : n + 1] = dist[:n] * (1.0 - bh[:n])
        dist = new
        out[n] = reset
    tail_bound = None
    if b.is_summable:
        low, high = bstar_sum_bracket(b, max(horizon, 256))
        tail_bound = max(high - float(out[1:].sum()), 0.0)
    return out.tobytes(), tail_bound


def _outcome(fn, b, horizon):
    try:
        return fn(b, horizon)
    except DivergenceError:
        return "DivergenceError"


def _new_bstar(b, horizon):
    res = bstar_from_b(b, horizon)
    return res.values.tobytes(), res.tail_sum_bound


def _assert_same_as_reference(b, horizon):
    assert _outcome(_new_bstar, b, horizon) == _outcome(_reference_bstar, b, horizon)


_heads = st.lists(st.floats(0.0, 0.9), min_size=1, max_size=6).map(
    lambda v: np.sort(np.array(v))[::-1]
)
_settings = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_settings
@given(vals=_heads, horizon=st.integers(0, 1500))
def test_bstar_finite_support_matches_reference(vals, horizon):
    _assert_same_as_reference(DecaySeq(vals), horizon)


@_settings
@given(vals=_heads, rate=st.floats(0.05, 0.95), horizon=st.integers(0, 1500))
def test_bstar_geometric_tail_matches_reference(vals, rate, horizon):
    _assert_same_as_reference(DecaySeq(vals, tail=GeometricTail(rate)), horizon)


@_settings
@given(vals=_heads, power=st.floats(1.5, 4.0), horizon=st.integers(0, 1500))
def test_bstar_polynomial_tail_matches_reference(vals, power, horizon):
    # continuous at the junction, so the sequence stays nonincreasing
    coeff = float(vals[-1]) * float(vals.size) ** power
    _assert_same_as_reference(DecaySeq(vals, tail=PolynomialTail(coeff, power)), horizon)


@settings(max_examples=15, deadline=None)
@given(
    first=st.floats(0.05, 0.4),
    rate=st.floats(0.05, 0.4),
    horizon=st.integers(2100, 4000),
)
def test_bstar_past_underflow_matches_reference(first, rate, horizon):
    b = DecaySeq.geometric(first, rate, n_stored=4)
    _assert_same_as_reference(b, horizon)
    # these horizons lie past the underflow point, so the early exit is taken
    assert bstar_from_b(b, horizon).values[-1] == 0.0


@pytest.mark.parametrize(
    "values, horizon",
    [
        ([0.0], 0),
        ([0.0], 5),
        ([0.0, 0.0, 0.0], 40),
        ([0.3, 0.0], 12),
        ([0.3, 0.0], 700),  # 0.3**n underflows near n = 620
        ([0.3, 0.0, 1e-15], 200),
        ([0.4, 0.2, 0.0, 1e-15], 1200),
        ([0.0, 0.0, 1e-15], 120),  # b*_3 = 1e-15 follows two exact zeros
        # heads that rise after a zero reset: b*_1 is 0.0, a later b* is not
        ([0.0, 1e-15], 6),
        ([0.0, 0.0, 0.0, 1e-15, 5e-16], 80),
        ([1e-300, 1e-300, 0.0, 1e-15], 40),
        # nonincreasing heads whose first zero reset comes before len(values) in a row
        ([1e-300] * 4, 40),  # b*_5 is the first 0.0
        ([1e-200, 1e-200, 1e-200, 1e-300, 1e-300, 5e-324], 60),  # b*_7
        ([0.3 * 0.5**k for k in range(1100)], 2600),  # b*_2212; the head is 0.0 from k = 1074
    ],
)
def test_bstar_edge_cases_match_reference(values, horizon):
    _assert_same_as_reference(DecaySeq(np.array(values)), horizon)


_tiny_heads = st.lists(
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e-160, 1e-15, 0.3]), min_size=1, max_size=8
).map(lambda v: np.sort(np.array(v))[::-1])


@_settings
@given(vals=_tiny_heads, horizon=st.integers(0, 200))
def test_bstar_tiny_heads_match_reference(vals, horizon):
    _assert_same_as_reference(DecaySeq(vals), horizon)


def test_bstar_readme_spec_matches_reference_past_underflow():
    kernel = model_to_kernel(ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3]))
    _assert_same_as_reference(kernel.b, 3000)
    assert bstar_from_b(kernel.b, 3000).values[-1] == 0.0


# -- per-step sampler --------------------------------------------------------------


def _full_history_law(kernel, y_real, x, t, z_init):
    """Kernel law at time ``t`` given the whole realized past, most recent first."""
    hist = list(y_real[: t - 1])[::-1] + list(z_init)
    return kernel.probs(hist, x[t - 1 :: -1])


def _reference_forward(kernel, x, window, eps, seed):
    gen = as_generator(SeededRng(seed))
    burnin, _ = _required_burnin(kernel.b, window, eps, x.shape[0] - window)
    y = []
    for t in range(1, burnin + window + 1):
        p = _full_history_law(kernel, y, x, t, [])
        y.append(int(gen.choice(kernel.n_categories, p=p / p.sum())))
    return np.array(y[burnin:], dtype=np.int64), burnin


def _reference_glued(kernel_a, kernel_b, x_a, x_b, z_a, z_b, length, seed):
    gen = as_generator(SeededRng(seed))

    def law(path_idx, y_real, t):
        if path_idx >= 0 and t <= path_idx:
            return _full_history_law(kernel_b, y_real, x_b, t, z_b)
        return _full_history_law(kernel_a, y_real, x_a, t, z_a if path_idx < 0 else z_b)

    def coupled(p, q, u):
        # two uniforms per step: the stay test, then the residual draw
        stay = gen.random() * p[u] < min(p[u], q[u])
        draw = gen.random()
        if stay:
            return u
        resid = np.clip(q - np.minimum(p, q), 0.0, None)
        mass = resid.sum() if resid.sum() > 0 else 1.0
        return min(int((np.cumsum(resid) < draw * mass).sum()), p.size - 1)

    prev = []
    for t in range(1, length + 1):
        p = law(-1, prev, t)
        prev.append(min(int((np.cumsum(p) < gen.random()).sum()), p.size - 1))
    y1 = np.array(prev, dtype=np.int64)
    diag = np.zeros(length, dtype=np.int64)
    for j in range(0, length + 1):
        cur = []
        for t in range(1, length + 1):
            cur.append(coupled(law(j - 1, prev, t), law(j, cur, t), prev[t - 1]))
        if j >= 1:
            diag[j - 1] = cur[j - 1]
        prev = cur
    return y1, diag


def _table_kernels():
    gen = np.random.default_rng(21)
    table_a = 0.6 * gen.dirichlet(np.ones(3), size=9) + 0.4 / 3
    table_b = 0.6 * gen.dirichlet(np.ones(3), size=9) + 0.4 / 3
    return table_kernel(table_a), table_kernel(table_b)


def _sampled_covariate_kernels():
    # three covariate lags, so the covariate window is sliced as well
    spec_a = BinaryInfiniteOrderSpec(a=[0.5, 0.25, 0.125], gamma=[0.3])
    spec_b = BinaryInfiniteOrderSpec(a=[0.4, 0.3, 0.1], gamma=[0.6])
    return model_to_kernel(spec_a, max_lag_x=3), model_to_kernel(spec_b, max_lag_x=3)


def _covariate_kernels():
    # the same kernels without their latent sampler, so they step per time
    return tuple(dataclasses.replace(k, extra={}) for k in _sampled_covariate_kernels())


@pytest.mark.parametrize("kernels", [_table_kernels, _covariate_kernels])
def test_sample_forward_matches_full_history_reference(kernels):
    kernel, _ = kernels()
    assert "latent_sampler" not in kernel.extra
    _assert_forward_matches_reference(kernel)


def test_latent_sampler_matches_full_history_reference():
    kernel, _ = _sampled_covariate_kernels()
    assert "latent_sampler" in kernel.extra
    _assert_forward_matches_reference(kernel)


def _assert_forward_matches_reference(kernel):
    x = SeededRng(22).generator().normal(size=(400, 1))
    path = sample_forward(kernel, x, 150, 1e-3, SeededRng(23))
    y_ref, burnin = _reference_forward(kernel, x, 150, 1e-3, 23)
    assert path.burnin_used == burnin and path.lam is None
    np.testing.assert_array_equal(path.y, y_ref)


@pytest.mark.parametrize("kernels", [_table_kernels, _covariate_kernels])
def test_glued_coupling_matches_full_history_reference(kernels):
    kernel_a, kernel_b = kernels()
    gen = SeededRng(24).generator()
    x_a, x_b = gen.normal(size=(14, 1)), gen.normal(size=(14, 1))
    pair = glued_coupling(kernel_a, kernel_b, x_a, x_b, [0, 1, 1], [1, 0, 1], 14, SeededRng(25))
    y1, y2 = _reference_glued(kernel_a, kernel_b, x_a, x_b, [0, 1, 1], [1, 0, 1], 14, 25)
    np.testing.assert_array_equal(pair.y1, y1)
    np.testing.assert_array_equal(pair.y2, y2)
    assert pair.mismatch.any()


# -- decay-sequence tails ------------------------------------------------------------


def _reference_value(seq, m):
    """Pointwise value with the tail formulas written out per tail type."""
    n = seq.values.size
    if m < n:
        return float(seq.values[m])
    if seq.tail is None:
        return 0.0
    if isinstance(seq.tail, GeometricTail):
        return float(seq.values[-1] * seq.tail.rate ** (m - n + 1))
    return float(seq.tail.coeff * float(m) ** (-seq.tail.power))


def _reference_is_summable(seq):
    if seq.tail_sum_bound is not None:
        return math.isfinite(seq.tail_sum_bound)
    if seq.tail is None or isinstance(seq.tail, GeometricTail):
        return True
    return seq.tail.power > 1.0


def _reference_tail_sum(seq):
    """Upper bound on the sum of all values beyond the stored ones."""
    if seq.tail_sum_bound is not None:
        return seq.tail_sum_bound
    if seq.tail is None:
        return 0.0
    n = seq.values.size
    if isinstance(seq.tail, GeometricTail):
        r = seq.tail.rate
        return float(seq.values[-1] * r / (1.0 - r))
    if seq.tail.power <= 1.0:
        raise DivergenceError("not summable")
    c, k = seq.tail.coeff, seq.tail.power
    return float(c * (float(n) ** (-k) + float(n) ** (1.0 - k) / (k - 1.0)))


def _reference_sum_from(seq, m):
    """The per-type formulas, with one deliberate difference from the code
    they were lifted from: past storage, a set ``tail_sum_bound`` is checked
    before ``tail is None`` (it used to be after, which returned 0.0 and
    dropped the certified tail mass), as ``_reference_tail_sum`` does."""
    if not _reference_is_summable(seq):
        raise DivergenceError("not summable")
    n = seq.values.size
    if m >= n:
        if seq.tail_sum_bound is not None:
            return seq.tail_sum_bound
        if seq.tail is None:
            return 0.0
        if isinstance(seq.tail, GeometricTail):
            r = seq.tail.rate
            return float(_reference_value(seq, m) / (1.0 - r))
        c, k = seq.tail.coeff, seq.tail.power
        return float(c * (float(m) ** (-k) + float(m) ** (1.0 - k) / (k - 1.0)))
    return float(seq.values[m:].sum()) + _reference_tail_sum(seq)


def _reference_moment_tail(seq, h):
    """``sum_{s>h} (s-h) value(s)`` as the beta tail estimate computed it."""
    if seq.tail is None:
        if len(seq) <= h + 1:
            return 0.0
        s_idx = np.arange(h + 1, len(seq))
        return float(((s_idx - h) * seq.values[h + 1 :]).sum())
    if isinstance(seq.tail, GeometricTail):
        return _reference_value(seq, h + 1) / (1.0 - seq.tail.rate) ** 2
    if seq.tail.power <= 2.0:
        raise DivergenceError("moment tail")
    c, k = seq.tail.coeff, seq.tail.power
    return c * float(h) ** (2.0 - k) / ((k - 1.0) * (k - 2.0))


@st.composite
def _decay_seqs(draw):
    vals = draw(_heads)
    kind = draw(st.sampled_from(["none", "geometric", "polynomial", "tail_sum_bound"]))
    if kind == "geometric":
        return DecaySeq(vals, tail=GeometricTail(draw(st.floats(0.05, 0.95))))
    if kind == "polynomial":
        # powers at or below 1 and 2 reach the divergent branches
        power = draw(st.floats(0.5, 4.0))
        coeff = float(vals[-1]) * float(vals.size) ** power
        return DecaySeq(vals, tail=PolynomialTail(coeff, power))
    if kind == "tail_sum_bound":
        return DecaySeq(vals, tail_sum_bound=draw(st.floats(0.0, 2.0)))
    return DecaySeq(vals)


@settings(max_examples=300, deadline=None)
@given(seq=_decay_seqs(), m=st.integers(0, 40))
def test_decay_tail_matches_reference(seq, m):
    # m runs both inside and past the stored values (at most 6)
    assert seq.value(m) == _reference_value(seq, m)
    assert seq.is_summable == _reference_is_summable(seq)
    assert _outcome(DecaySeq.sum_from, seq, m) == _outcome(_reference_sum_from, seq, m)
    h = m + 1  # a working horizon is >= 1
    assert _outcome(DecaySeq.moment_tail, seq, h) == _outcome(_reference_moment_tail, seq, h)
    ref_head = np.array([_reference_value(seq, i) for i in range(m + 1)])
    assert seq.head(m + 1).tobytes() == ref_head.tobytes()


@settings(max_examples=200, deadline=None)
@given(seq=_decay_seqs())
def test_sum_from_does_not_increase(seq):
    if not seq.is_summable:
        return
    sums = [seq.sum_from(m) for m in range(40)]
    assert all(later <= earlier for earlier, later in zip(sums, sums[1:]))


# -- memory-state law step -----------------------------------------------------------


def _reference_marginal_law(kernel, x, init, t):
    """Transfer-matrix iteration with an ``np.add.at`` scatter per step."""
    n, mem = kernel.n_categories, kernel.truncation.max_lag_y
    x = np.atleast_2d(np.asarray(x, dtype=float))
    init = np.asarray(init, dtype=np.int64)
    if init.size < mem:
        init = np.concatenate([init, np.zeros(mem - init.size, dtype=np.int64)])
    code = 0
    for i in range(mem):
        code = code * n + int(init[i])
    dist = np.zeros(n**mem)
    dist[code] = 1.0
    law = None
    for s in range(1, t + 1):
        table = transition_table(kernel, x[s - 1 :: -1][: kernel.truncation.max_lag_x])
        law = dist @ table
        new = np.zeros_like(dist)
        codes = np.arange(dist.size)
        for y_new in range(n):
            succ = successor_code(codes, y_new, n, mem)
            np.add.at(new, succ, dist * table[:, y_new])
        dist = new
    return law


def _reference_joint_matrix(chain):
    """The joint one-step matrix, built entry by entry as a sparse matrix."""
    from scipy.sparse import coo_matrix

    P, g = chain.cov._P(), chain.cov._g()
    tables = [transition_table(chain.kernel, g[s].reshape(1, -1)) for s in range(chain.S)]
    codes = np.arange(chain.C)
    rows, cols, data = [], [], []
    for s in range(chain.S):
        for s_new in range(chain.S):
            if P[s, s_new] == 0.0:
                continue
            for y in range(chain.N):
                succ = successor_code(codes, y, chain.N, chain.M)
                rows.append(codes * chain.S + s)
                cols.append(succ * chain.S + s_new)
                data.append(np.full(chain.C, P[s, s_new]) * tables[s_new][:, y])
    return coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(chain.n_states, chain.n_states),
    ).tocsr()


def _assert_laws_match_reference(kernel, x, init, t):
    laws = exact_marginal_laws(kernel, x, init, t)
    assert laws.shape == (t, kernel.n_categories)
    for s in range(1, t + 1):
        np.testing.assert_array_equal(laws[s - 1], _reference_marginal_law(kernel, x, init, s))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    mem=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(1, 12),
    data=st.data(),
)
def test_exact_marginal_laws_match_add_at_reference(n, mem, seed, t, data):
    gen = np.random.default_rng(seed)
    kernel = table_kernel(0.5 * gen.dirichlet(np.ones(n), size=n**mem) + 0.5 / n)
    # pasts shorter than the memory are padded with category 0
    init = data.draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=mem))
    _assert_laws_match_reference(kernel, np.zeros((t, 1)), init, t)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 12), data=st.data())
def test_exact_marginal_laws_match_reference_on_time_varying_covariates(seed, t, data):
    gen = np.random.default_rng(seed)
    spec = BinaryInfiniteOrderSpec(a=gen.uniform(-0.6, 0.6, size=3), gamma=gen.uniform(-1.0, 1.0, size=1))
    kernel = model_to_kernel(spec, max_lag_x=2)
    init = data.draw(st.lists(st.integers(0, 1), min_size=3, max_size=3))
    _assert_laws_match_reference(kernel, gen.normal(size=(t, 1)), init, t)


def _random_joint_chain(gen, mem, n_cov):
    """An infinite-order kernel of memory ``mem`` and an ``n_cov``-state covariate chain."""
    spec = BinaryInfiniteOrderSpec(a=gen.uniform(-0.6, 0.6, size=mem), gamma=gen.uniform(-1.0, 1.0, size=1))
    kernel = model_to_kernel(spec, max_lag_y=mem, max_lag_x=1)
    # some zero transitions, which the sparse build skips; the diagonal and
    # the cycle s -> s + 1 stay positive, so the invariant law is unique
    keep = gen.random((n_cov, n_cov)) < 0.7
    keep[np.arange(n_cov), np.arange(n_cov)] = True
    keep[np.arange(n_cov), (np.arange(n_cov) + 1) % n_cov] = True
    P = gen.dirichlet(np.ones(n_cov), size=n_cov) * keep + 0.1 * keep
    P = P / P.sum(axis=1, keepdims=True)
    cov = FiniteStateMarkovCovariates(
        transition=tuple(map(tuple, P)), emission=tuple((float(v),) for v in range(n_cov))
    )
    return kernel, cov


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mem=st.integers(1, 3),
    n_cov=st.integers(1, 4),
)
def test_joint_chain_step_matches_sparse_reference(seed, mem, n_cov):
    gen = np.random.default_rng(seed)
    chain = _JointChain(*_random_joint_chain(gen, mem, n_cov))
    T = _reference_joint_matrix(chain)
    dist = gen.dirichlet(np.ones(chain.n_states), size=(3, 4))
    got = chain.step(dist)
    assert got.shape == dist.shape
    want = np.asarray(dist.reshape(-1, chain.n_states) @ T).reshape(dist.shape)
    assert np.abs(got - want).max() <= 1e-15
    np.testing.assert_allclose(chain.step(dist[0, 0]), want[0, 0], rtol=0, atol=1e-15)


def _reference_empirical_beta_small(kernel, cov, n_values, window):
    """``empirical_beta_small`` with the invariant law iterated from the
    uniform law on the sparse one-step matrix until one step moves it by
    less than 1e-14 in l1, within 200 000 steps."""
    chain = _JointChain(kernel, cov)
    T = _reference_joint_matrix(chain)
    pi = np.full(chain.n_states, 1.0 / chain.n_states)
    for _ in range(200000):
        new = np.asarray(pi @ T).ravel()
        if np.abs(new - pi).sum() < 1e-14:
            break
        pi = new
    else:
        raise AssertionError("the power iteration did not settle")
    pi = new
    out = []
    for n in n_values:
        ref = chain.trajectory_law(pi, n, window)
        total = 0.0
        for idx in np.nonzero(pi > 1e-16)[0]:
            law = chain.trajectory_law(np.eye(chain.n_states)[idx], n, window)
            total += pi[idx] * 0.5 * float(np.abs(law - ref).sum())
        out.append(total)
    return np.array(out)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mem=st.integers(1, 3), n_cov=st.integers(1, 4))
def test_empirical_beta_small_matches_power_iteration_reference(seed, mem, n_cov):
    # the invariant law is one solve of the stacked one-step matrix
    kernel, cov = _random_joint_chain(np.random.default_rng(seed), mem, n_cov)
    got = empirical_beta_small(kernel, cov, [1, 2, 4], window=2)
    want = _reference_empirical_beta_small(kernel, cov, [1, 2, 4], 2)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# -- finite-state covariate coupling -------------------------------------------------


def _reference_coupling_coeffs(model, horizon, metric):
    """The pair law stepped one pair of states at a time, with the tail from
    the one-step meeting rate.  Returns ``(values, tail, meet_next)``, where
    ``tail`` is ``None`` where this raised ``DivergenceError``."""
    P, g, pi = model._P(), model._g(), model.invariant()
    S = P.shape[0]
    dist = np.outer(pi, pi)
    cost = np.abs(g[:, None, :] - g[None, :, :]).sum(axis=2)
    if metric == "discrete":
        cost = (cost > 1e-12).astype(float)
    vals = np.empty(horizon + 1)
    vals[0] = float((dist * cost).sum())
    meet_next = np.min([(P[i] * P[j]).sum() for i in range(S) for j in range(S) if i != j] or [1.0])
    for t in range(1, horizon + 1):
        new = np.zeros_like(dist)
        for i in range(S):
            for j in range(S):
                m = dist[i, j]
                if m == 0.0:
                    continue
                if i == j:
                    new[np.arange(S), np.arange(S)] += m * P[i]
                else:
                    new += m * np.outer(P[i], P[j])
        dist = new
        vals[t] = float((dist * cost).sum())
    p_neq = float(dist.sum() - np.trace(dist))
    rate = 1.0 - meet_next
    tail_bound = 0.0
    if p_neq > 0:
        if rate >= 1.0:
            return vals, None, meet_next
        tail_bound = float(cost.max()) * p_neq * rate / (1.0 - rate)
    return vals, tail_bound, meet_next


def _chain(P, emission=None):
    S = len(P)
    emission = tuple((float(v),) for v in range(S)) if emission is None else emission
    return FiniteStateMarkovCovariates(transition=tuple(map(tuple, P)), emission=emission)


def _cycle(S, hold):
    """The ``S``-cycle that holds with probability ``hold`` and else moves on."""
    P = hold * np.eye(S) + (1.0 - hold) * np.roll(np.eye(S), 1, axis=1)
    return _chain(P)


@st.composite
def _finite_chains(draw):
    """Chains on 2-5 states, some with zero entries, with one invariant law
    (which the class checks) and emissions in R or R^2."""
    S = draw(st.integers(2, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = gen.random((S, S)) >= draw(st.sampled_from([0.0, 0.3, 0.6]))
    keep[np.arange(S), gen.integers(S, size=S)] = True
    P = gen.dirichlet(np.ones(S), size=S) * keep
    P = P / P.sum(axis=1, keepdims=True)
    emission = tuple(map(tuple, gen.normal(size=(S, draw(st.integers(1, 2))))))
    try:
        return _chain(P, emission)
    except UnsupportedCovariateError:
        assume(False)


def _exact_tail(model, horizon, metric):
    """The coefficients past ``horizon``, iterated out to ten times it."""
    return float(covariate_coupling_coeffs(model, 10 * max(horizon, 1), metric).values[horizon + 1 :].sum())


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(model=_finite_chains(), horizon=st.integers(0, 150), metric=st.sampled_from(["l1", "discrete"]))
def test_matrix_coupling_step_matches_pair_loop(model, horizon, metric):
    want, want_tail, meet_next = _reference_coupling_coeffs(model, horizon, metric)
    try:
        got = covariate_coupling_coeffs(model, horizon, metric)
    except DivergenceError:
        # no pair meeting within S^2 steps means none within one
        assert want_tail is None
        return
    # products below about 1e-290 run into subnormals, where ulps are not relative
    np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=1e-290)
    assert got.tail_sum_bound >= _exact_tail(model, horizon, metric) * (1.0 - 1e-12)
    if meet_next > 0:
        # the reference's unmet mass is a difference of sums near 1, good to
        # about S^2 ulps of 1, and its 1 - (1 - meet_next) keeps only the
        # ulps of 1; the one-step tail is otherwise the same formula
        g = model._g()
        cost = np.abs(g[:, None, :] - g[None, :, :]).sum(axis=2)
        cost_max = float((cost > 1e-12).max() if metric == "discrete" else cost.max())
        eps = np.finfo(float).eps
        slack = cost_max * model.n_states**2 * eps * (1.0 - meet_next) / meet_next
        assert got.tail_sum_bound == pytest.approx(want_tail, rel=1e-12 + eps / meet_next, abs=slack)


@pytest.mark.parametrize("metric", ["l1", "discrete"])
def test_four_cycle_certifies_from_its_two_step_meeting_rate(metric):
    # pairs two states apart cannot meet in one step, so the one-step rate
    # gave no certificate; in two steps every pair meets with chance >= 1/8
    model = _cycle(4, 0.5)
    seq = covariate_coupling_coeffs(model, 64, metric)
    assert math.isfinite(seq.tail_sum_bound)
    assert seq.tail_sum_bound >= _exact_tail(model, 64, metric)
    if metric == "discrete":
        # every unmet pair costs 1, so a_64 is the unmet mass, and k = 2 with
        # delta = 1/8 makes the tail (k - 1) + k (1 - delta) / delta = 15 times it
        assert seq.tail_sum_bound == pytest.approx(15.0 * seq.values[64], rel=1e-12)


@pytest.mark.parametrize("metric", ["l1", "discrete"])
def test_three_cycle_rotation_still_cannot_meet(metric):
    # copies apart stay apart for all S^2 = 9 steps; the 2-cycle is in test_simulate
    with pytest.raises(DivergenceError, match="cannot meet"):
        covariate_coupling_coeffs(_cycle(3, 0.0), 64, metric)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(model=_finite_chains())
def test_stationary_law_is_invariant_and_matches_eig(model):
    P = model._P()
    pi = stationary_law(P)
    assert pi.min() >= 0.0 and pi.sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(pi @ P, pi, rtol=0, atol=1e-14)
    # the eigenvector of the eigenvalue nearest 1, made nonnegative
    vals, vecs = np.linalg.eig(P.T)
    ref = np.abs(np.real(vecs[:, np.argmin(np.abs(vals - 1.0))]))
    np.testing.assert_allclose(pi, ref / ref.sum(), rtol=0, atol=1e-12)


# -- exact memory sensitivity --------------------------------------------------------


def _reference_b_exact(table, n, mem):
    """Largest TV between rows sharing the ``m`` high digits, one group at a time."""
    out = np.zeros(mem + 1)
    for m in range(mem + 1):
        worst = 0.0
        for g in table.reshape(n**m, n ** (mem - m), n):
            if g.shape[0] > 1:
                tv = 0.5 * np.abs(g[:, None, :] - g[None, :, :]).sum(axis=2)
                worst = max(worst, float(tv.max()))
        out[m] = worst
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), mem=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_b_exact_from_table_matches_group_loop(n, mem, seed):
    table = np.random.default_rng(seed).dirichlet(np.ones(n), size=n**mem)
    got = b_exact_from_table(table, n, mem).values
    assert got.tobytes() == _reference_b_exact(table, n, mem).tobytes()


# -- latent scan ---------------------------------------------------------------------


def _reference_stepper(spec):
    """The array step the engine ran for every family: the observation-driven
    forcing, the nonlinear map, or the linear forcing of the matrix families."""
    if isinstance(spec, NonlinearBinarySpec):
        state = np.zeros((1, 1))

        def step(y_lags, x_t):
            state[0, 0] = spec.g(state[0, 0]) + spec.alpha * y_lags[0] + float(spec.gamma @ x_t)
            return state[0]

        return step, state
    if isinstance(spec, ObservationDrivenBinarySpec):

        def forcing(y_lags, x_t):
            out = np.zeros(1)
            for a, c in zip(spec.alpha, y_lags):
                out[0] += a * c
            out[0] += float(spec.gamma @ x_t)
            return out

    else:

        def forcing(y_lags, x_t):
            out = np.zeros(spec.block_dim)
            for Am, c in zip(spec.A, y_lags):
                out += Am @ spec.category_vector(int(c))
            out += spec.Gamma @ x_t
            return out

    _, q = spec.lag_counts
    state = np.zeros((max(q, 1), spec.block_dim))

    def step(y_lags, x_t):
        first = forcing(y_lags, x_t)
        for i, Bj in enumerate(spec.B):
            first = first + Bj @ state[i]
        if q > 1:
            state[1:] = state[:-1]
        state[0] = first
        return first

    return step, state


def _reference_scan(spec, x, y=None, pre=(), u=None):
    """One array step per time; a category is the count of cumulative
    response probabilities below ``u[t]``."""
    p, _ = spec.lag_counts
    T = x.shape[0]
    hist = np.zeros(p + T, dtype=np.int64)
    pre = np.asarray(pre, dtype=np.int64)[:p]
    hist[p - pre.size : p] = pre[::-1]
    if y is not None:
        y = np.asarray(y)[:T]
        hist[p : p + y.size] = y
    step, state = _reference_stepper(spec)
    lam = np.empty((T, spec.block_dim))
    for t in range(T):
        first = step(hist[t : t + p][::-1], x[t])
        lam[t] = first
        if u is not None:
            hist[p + t] = int((spec.response(first).cumsum() < u[t]).sum())
    return hist[p:], lam, state


def _assert_scan_matches_reference(spec, x, **kw):
    got, want = _latent_scan(spec, x, **kw), _reference_scan(spec, x, **kw)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def _boundary_draws(spec, x, gen):
    """Uniforms with some entries at 0.0, at ``nextafter(1, 0)`` and exactly
    at the first cumulative response probability (``1 - pr`` for a binary
    link) of the step they invert."""
    T = x.shape[0]
    u = gen.random(T)
    kind = gen.integers(0, 4, size=T)
    u[kind == 1] = 0.0
    u[kind == 2] = np.nextafter(1.0, 0.0)
    at_first = kind == 3
    # the step at t sees only draws before t, so T + 1 passes fix every entry
    for _ in range(T + 1):
        lam = _reference_scan(spec, x, u=u)[1]
        first = np.array([spec.response(row)[0] for row in lam]) if T else np.zeros(0)
        new = np.where(at_first, first, u)
        if new.tobytes() == u.tobytes():
            break
        u = new
    return u


def _covariates(gen, T, d):
    """Normal covariates with some exact zeros of both signs, so a product
    with a negative loading can be -0.0."""
    x = gen.normal(size=(T, d))
    x[gen.random((T, d)) < 0.1] = 0.0
    x[gen.random((T, d)) < 0.1] = -0.0
    return x


@st.composite
def _scalar_block_specs(draw):
    """Specs whose latent block has dimension 1."""
    d = draw(st.integers(1, 3))
    gamma = draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
    p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    alpha = draw(st.lists(st.floats(-1.5, 1.5), min_size=p, max_size=p))
    beta = draw(st.lists(st.floats(-0.3, 0.3), min_size=q, max_size=q))
    link = draw(st.sampled_from([logistic_link(), probit_link()]))
    family = draw(st.sampled_from(["observation", "nonlinear", "multinomial", "choice"]))
    if family == "observation":
        return ObservationDrivenBinarySpec(alpha=alpha, beta=beta, gamma=gamma, link=link)
    if family == "nonlinear":
        g, _ = russell_damping(draw(st.floats(-0.6, 0.6)), draw(st.floats(-1.0, 1.0)), link)
        return NonlinearBinarySpec(g=g, kappa=0.9, alpha=draw(st.floats(-1.5, 1.5)), gamma=gamma, link=link)
    A, B, Gamma = [[[a]] for a in alpha], [[[b]] for b in beta], [gamma]
    if family == "multinomial":
        return MultinomialSpec(A=A, B=B, Gamma=Gamma, n_categories=2)
    return DiscreteChoiceSpec(A=A, B=B, Gamma=Gamma, n_components=1, noise=draw(st.sampled_from(["logistic", "gaussian"])))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_scalar_block_specs(), T=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_scalar_scan_matches_array_reference(spec, T, seed):
    gen = np.random.default_rng(seed)
    x = _covariates(gen, T, spec.covariate_dim)
    p, _ = spec.lag_counts
    # forward sampling, then the modes of latent_path and latent_recursion
    _assert_scan_matches_reference(spec, x, u=_boundary_draws(spec, x, gen))
    y = gen.integers(0, 2, size=T)
    _assert_scan_matches_reference(spec, x, y=y)
    pre = gen.integers(0, 2, size=gen.integers(0, p + 2))
    _assert_scan_matches_reference(spec, x, y=y[: max(T - 1, 0)], pre=pre)


@pytest.mark.parametrize("T", [0, 1, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 10_000])
@pytest.mark.parametrize(
    "spec",
    [
        ObservationDrivenBinarySpec(alpha=[0.4, -0.3], beta=[0.5, 0.2], gamma=[0.3]),
        NonlinearBinarySpec(*russell_damping(0.6, 0.3, logistic_link()), alpha=0.7, gamma=[-0.5, 0.2]),
    ],
    ids=lambda s: type(s).__name__,
)
def test_scalar_scan_matches_array_reference_across_blocks(spec, T):
    gen = np.random.default_rng(T)
    x = _covariates(gen, T, spec.covariate_dim)
    _assert_scan_matches_reference(spec, x, u=gen.random(T))
    _assert_scan_matches_reference(spec, x, y=gen.integers(0, 2, size=T), pre=[1, 1])


def test_scalar_scan_keeps_the_sign_of_zero():
    # zero covariates, no feedback and negative coefficients: every term of
    # the first step is -0.0, so lam[0] is +0.0 only if Gamma x_t reads +0.0
    g, _ = russell_damping(-0.5, 0.0, logistic_link())
    spec = NonlinearBinarySpec(g=g, kappa=0.5, alpha=-0.7, gamma=[-0.3])
    x = np.zeros((6, 1))
    _assert_scan_matches_reference(spec, x, y=np.zeros(6, dtype=np.int64))
    _assert_scan_matches_reference(spec, x, u=np.full(6, 0.25))


@st.composite
def _wide_block_specs(draw):
    """Multinomial (3 to 5 categories) and discrete-choice (2 or 3
    components) specs, whose latent block has dimension 2 to 4; the latent
    lags sum to an inf-norm of at most 0.9, so the recursion stays stable."""
    choice = draw(st.booleans())
    k = draw(st.integers(2, 3) if choice else st.integers(2, 4))
    d, p, q = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def matrix(rows, cols, bound):
        vals = draw(st.lists(st.floats(-bound, bound), min_size=rows * cols, max_size=rows * cols))
        return np.array(vals, dtype=float).reshape(rows, cols)

    A = [matrix(k, k, 1.5) for _ in range(p)]
    B = [matrix(k, k, 0.9 / (k * q)) for _ in range(q)]
    Gamma = matrix(k, d, 2.0)
    if choice:
        return DiscreteChoiceSpec(A=A, B=B, Gamma=Gamma, n_components=k, noise=draw(st.sampled_from(["logistic", "gaussian"])))
    return MultinomialSpec(A=A, B=B, Gamma=Gamma, n_categories=k + 1)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_wide_block_specs(), T=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_wide_block_scan_matches_array_reference(spec, T, seed):
    gen = np.random.default_rng(seed)
    x = _covariates(gen, T, spec.covariate_dim)
    p, _ = spec.lag_counts
    n = spec.n_categories
    # the reference does not clamp a draw to the last category, so every
    # draw stays below 0.999, where a rounded last cumulative sum cannot fall
    u = 0.999 * gen.random(T)
    u[gen.random(T) < 0.1] = 0.0
    _assert_scan_matches_reference(spec, x, u=u)
    y = gen.integers(0, n, size=T)
    _assert_scan_matches_reference(spec, x, y=y)
    pre = gen.integers(0, n, size=gen.integers(0, p + 2))
    _assert_scan_matches_reference(spec, x, y=y[: max(T - 1, 0)], pre=pre)


def _reference_response(spec, lam):
    """The wide-block category laws as array formulas: the softmax of
    ``(0, lam)``, and the choice cells doubled one component at a time."""
    if isinstance(spec, MultinomialSpec):
        z = np.concatenate([[0.0], lam])
        z = z - z.max()
        ez = np.exp(z)
        return ez / ez.sum()
    lam = np.asarray(lam, dtype=float).reshape(-1)[: spec.n_components]
    success = list(1.0 - spec.link.cdf(-lam))
    cells = [1.0 - success[0], success[0]]
    for p in success[1:]:
        q = 1.0 - p
        cells = [cell * q for cell in cells] + [cell * p for cell in cells]
    return np.array(cells)


def _reference_draw(spec, lam, u):
    """The count of cumulative response probabilities below ``u``, clamped
    to the last category."""
    response = _reference_response(spec, np.atleast_1d(lam))
    return min(int((response.cumsum() < u).sum()), spec.n_categories - 1)


@st.composite
def _response_specs(draw):
    """Multinomial specs with 2 to 5 categories and choice specs with 1 to 3
    components; the law given the latent block reads no lag or loading."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        noise = draw(st.sampled_from(["logistic", "gaussian"]))
        return DiscreteChoiceSpec(A=[], B=[], Gamma=np.zeros((k, 1)), n_components=k, noise=noise)
    n = draw(st.integers(2, 5))
    return MultinomialSpec(A=[], B=[], Gamma=np.zeros((n - 1, 1)), n_categories=n)


_latent_values = st.one_of(
    st.sampled_from([0.0, -0.0, 40.0, -40.0, 800.0, -800.0, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(-50.0, 50.0),
)


@settings(max_examples=400, deadline=None)
@given(spec=_response_specs(), data=st.data())
def test_wide_block_response_and_draw_match_reference(spec, data):
    k = spec.block_dim
    lam = np.array(data.draw(st.lists(_latent_values, min_size=k, max_size=k), label="lam"))
    uniform = data.draw(st.floats(0.0, 1.0, exclude_max=True), label="u")
    with np.errstate(invalid="ignore"):  # an infinite latent value gives inf - inf
        want = _reference_response(spec, lam)
        assert spec.response(lam).tobytes() == want.tobytes()
        # the scan hands a block of dimension 1 to draw as a float
        lead = float(lam[0]) if k == 1 else lam
        sums = want.cumsum()
        at_sums = [float(v) for v in sums if 0.0 <= v < 1.0]
        for u in [0.0, float(np.nextafter(1.0, 0.0)), uniform, *at_sums]:
            assert spec.draw(lead, u) == _reference_draw(spec, lead, u)


# -- kernel law ------------------------------------------------------------------------


def _reference_kernel_probs(kernel, spec, past_y, past_x):
    """``kernel.probs`` as each call once found its recursion depth: pad
    or cut the history to the truncation, take the depth the padded history
    supports, and slice it into the window and the categories before it.
    ``spec`` is the recursion the kernel runs."""
    pol = kernel.truncation
    y = np.zeros(pol.max_lag_y, dtype=np.int64)
    y[: min(len(past_y), pol.max_lag_y)] = np.asarray(past_y, dtype=np.int64)[: pol.max_lag_y]
    x = np.zeros((pol.max_lag_x, kernel.covariate_dim))
    x[: min(len(past_x), pol.max_lag_x)] = np.asarray(past_x, dtype=float)[: pol.max_lag_x]
    p, _ = spec.lag_counts
    n = max(min(pol.max_lag_x, y.size - p + 1 if p >= 1 else pol.max_lag_x, x.shape[0]), 0)
    # a recursion without category lags reads no category
    if x.shape[0] < n or (p >= 1 and y.size < n + p - 1):
        raise ValueError("history too short for the requested recursion depth")
    m = max(n - 1, 0)
    _, _, state = _latent_scan(spec, x[:n][::-1], y=y[:m][::-1], pre=y[m : n + p - 1])
    return spec.response(state.reshape(-1)[: spec.block_dim])


@st.composite
def _kernel_cases(draw):
    """A spec of one of the five families, the recursion its kernel runs
    and the lag arguments of ``model_to_kernel``: a ``max_lag_y`` of None or
    1 to 5, which can lie below the category lag count, and a ``max_lag_x``
    of None or 1 to 5."""
    family = draw(st.sampled_from(["observation", "nonlinear", "multinomial", "choice", "infinite"]))
    d = draw(st.integers(1, 2))
    gamma = draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
    p, q = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    max_lag_y = draw(st.one_of(st.none(), st.integers(1, 5)))
    max_lag_x = draw(st.one_of(st.none(), st.integers(1, 5)))
    link = draw(st.sampled_from([logistic_link(), probit_link()]))
    if family == "infinite":
        a = draw(st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=4))
        tail = draw(st.sampled_from([None, GeometricTail(0.5)]))
        spec = BinaryInfiniteOrderSpec(a=a, gamma=gamma, link=link, a_tail=tail)
        return spec, None, max_lag_y, max_lag_x
    if family == "nonlinear":
        g, kappa = russell_damping(draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.5, 0.5)), link)
        spec = NonlinearBinarySpec(g=g, kappa=max(kappa, 0.5), alpha=draw(st.floats(-0.5, 0.5)), gamma=gamma, link=link)
        return spec, spec, max_lag_y, max_lag_x
    k = 1 if family == "observation" else draw(st.integers(1, 2))

    def matrix(rows, cols, bound):
        # zero, tiny (down to the least subnormal) or at least 0.01 in size
        tiny = st.sampled_from([1e-200, -1e-200, 1e-117, -1e-117, 2.2e-313, 5e-324, -5e-324])
        entry = st.one_of(st.just(0.0), tiny, st.floats(0.01, bound), st.floats(-bound, -0.01))
        vals = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        return np.array(vals, dtype=float).reshape(rows, cols)

    A = [matrix(k, k, 0.3) for _ in range(p)]
    B = [matrix(k, k, 0.5 / (k * q)) for _ in range(q)]
    Gamma = matrix(k, d, 1.0)
    if family == "observation":
        alpha, beta = [float(Am[0, 0]) for Am in A], [float(Bj[0, 0]) for Bj in B]
        spec = ObservationDrivenBinarySpec(alpha=alpha, beta=beta, gamma=Gamma[0], link=link)
    elif family == "multinomial":
        spec = MultinomialSpec(A=A, B=B, Gamma=Gamma, n_categories=k + 1)
    else:
        noise = draw(st.sampled_from(["logistic", "gaussian"]))
        spec = DiscreteChoiceSpec(A=A, B=B, Gamma=Gamma, n_components=k, noise=noise)
    return spec, spec, max_lag_y, max_lag_x


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_kernel_cases(), data=st.data())
def test_kernel_probs_match_per_call_depth_reference(case, data):
    spec, recursion, max_lag_y, max_lag_x = case
    kernel = model_to_kernel(spec, max_lag_y, max_lag_x)
    pol = kernel.truncation
    if recursion is None:  # the infinite-order chain runs its truncated lags without latent lags
        recursion = ObservationDrivenBinarySpec(alpha=spec.a[: pol.max_lag_y], beta=[], gamma=spec.gamma, link=spec.link)
    # histories from empty (all padding) to longer than the truncation
    lengths = st.tuples(st.integers(0, pol.max_lag_y + 2), st.integers(0, pol.max_lag_x + 2))
    for ly, lx in data.draw(st.lists(lengths, min_size=1, max_size=4), label="lengths"):
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        y = gen.integers(0, kernel.n_categories, size=ly)
        x = _covariates(gen, lx, kernel.covariate_dim)
        want = _outcome_bytes(_reference_kernel_probs, kernel, recursion, y, x)
        assert _outcome_bytes(kernel.probs, y, x) == want


@pytest.mark.parametrize("max_lag_y", [1, 2, 3, 4])
def test_kernel_probs_below_the_category_lags_match_reference(max_lag_y):
    # four category lags: a max_lag_y of 3 leaves depth 0, and 1 or 2
    # leave too few categories for the lags before the window
    spec = ObservationDrivenBinarySpec(alpha=[0.3, -0.2, 0.1, 0.2], beta=[0.4], gamma=[0.5, -0.3])
    kernel = model_to_kernel(spec, max_lag_y, 3)
    gen = np.random.default_rng(max_lag_y)
    for ly, lx in [(0, 0), (1, 1), (max_lag_y, 3), (6, 5)]:
        y, x = gen.integers(0, 2, size=ly), _covariates(gen, lx, 2)
        want = _outcome_bytes(_reference_kernel_probs, kernel, spec, y, x)
        assert _outcome_bytes(kernel.probs, y, x) == want
        assert isinstance(want, bytes) == (max_lag_y >= 3)


# -- covariate samplers --------------------------------------------------------------


def _reference_ar1_sample(model, length, gen):
    """One array row per step."""
    x = np.empty((length, model.dim))
    if length == 0:
        return x
    x[0] = model.stationary_sd * gen.normal(size=model.dim)
    eps = model.sd * gen.normal(size=(length - 1, model.dim)) if length > 1 else None
    for t in range(1, length):
        x[t] = model.rho * x[t - 1] + eps[t - 1]
    return x


def _reference_states(model, length, gen):
    """One ``searchsorted`` on the cumulative transition row per step."""
    P = model._P()
    cum = np.cumsum(P, axis=1)
    s = np.empty(length, dtype=np.int64)
    if length == 0:
        return s
    s[0] = gen.choice(model.n_states, p=model.invariant())
    u = gen.random(length - 1) if length > 1 else None
    last = P.shape[0] - 1
    for t in range(1, length):
        s[t] = min(int(np.searchsorted(cum[s[t - 1]], u[t - 1], side="right")), last)
    return s


class _GridDraws(np.random.Generator):
    """Every uniform is one of ``grid``, picked by the generator's integers."""

    def __init__(self, bit_generator, grid):
        super().__init__(bit_generator)
        self.grid = np.asarray(grid, dtype=float)

    def random(self, size=None):
        return self.grid[self.integers(0, self.grid.size, size=size)]


def _assert_sampler_matches_reference(sample, reference, make_gen):
    gen, ref_gen = make_gen(), make_gen()
    got, want = sample(gen), reference(ref_gen)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    assert gen.bit_generator.state == ref_gen.bit_generator.state


_lengths = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 300))


@settings(max_examples=150, deadline=None)
@given(
    rho=st.one_of(st.sampled_from([0.0, -0.0, -0.5, -0.99]), st.floats(-0.99, 0.99)),
    sd=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    dim=st.integers(1, 3),
    length=_lengths,
    seed=st.integers(0, 2**32 - 1),
)
def test_ar1_sampler_matches_row_loop(rho, sd, dim, length, seed):
    model = AR1Covariates(rho=rho, sd=sd, dim=dim)
    _assert_sampler_matches_reference(
        lambda gen: sample_covariates(model, length, gen),
        lambda gen: _reference_ar1_sample(model, length, gen),
        lambda: np.random.default_rng(seed),
    )


@st.composite
def _sampler_chains(draw):
    """Chains of 1 to 4 states, with exact zeros or without, and the
    10-state chain whose rows of ten 0.1 entries sum, rounded, to
    0.9999999999999999."""
    kind = draw(st.sampled_from(["zeros", "dense", "tenths"]))
    if kind == "tenths":
        P = np.full((10, 10), 0.1)
    else:
        S = draw(st.integers(1, 4))
        entries = st.sampled_from([0.0, 0.25, 0.5, 1.0]) if kind == "zeros" else st.floats(0.01, 1.0)
        P = np.array([draw(st.lists(entries, min_size=S, max_size=S)) for _ in range(S)])
        assume(np.all(P.sum(axis=1) > 0))
        P = P / P.sum(axis=1, keepdims=True)
    try:
        return FiniteStateMarkovCovariates(transition=P.tolist(), emission=np.arange(P.shape[0]).reshape(-1, 1).tolist())
    except UnsupportedCovariateError:  # more than one invariant law
        assume(False)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(model=_sampler_chains(), length=_lengths, seed=st.integers(0, 2**32 - 1), draws=st.sampled_from(["random", "top", "grid"]))
def test_finite_state_sampler_matches_searchsorted_loop(model, length, seed, draws):
    cum = np.cumsum(model._P(), axis=1)
    make_gen = {
        "random": lambda: np.random.default_rng(seed),
        "top": lambda: _TopDraws(np.random.PCG64(seed)),
        # uniforms exactly at a cumulative sum below 1, at 0.0 and at the top
        "grid": lambda: _GridDraws(np.random.PCG64(seed), [0.0, np.nextafter(1.0, 0.0), *cum[cum < 1.0]]),
    }[draws]
    _assert_sampler_matches_reference(
        lambda gen: model.sample_states(length, gen),
        lambda gen: _reference_states(model, length, gen),
        make_gen,
    )
    _assert_sampler_matches_reference(
        lambda gen: sample_covariates(model, length, gen),
        lambda gen: model._g()[_reference_states(model, length, gen)],
        make_gen,
    )


# -- CSV export ----------------------------------------------------------------------


def _reference_csv(path):
    """One ``csv.writer`` row per time."""
    d = path.x.shape[1]
    header = ["t", "y"] + [f"x_{i+1}" for i in range(d)]
    lam = path.lam
    if lam is not None:
        lam = np.atleast_2d(lam) if lam.ndim == 1 else lam
        header += [f"lambda_{i+1}" for i in range(lam.shape[1])]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for t in range(path.y.size):
        row = [t + 1, int(path.y[t])] + [repr(float(v)) for v in path.x[t]]
        if lam is not None:
            row += [repr(float(v)) for v in lam[t]]
        w.writerow(row)
    return buf.getvalue()


_SPECIAL_FLOATS = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, np.inf, np.nan, 0.1, 1.0])


@settings(max_examples=40, deadline=None)
@given(
    T=st.one_of(st.integers(0, 30), st.sampled_from([CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1])),
    d=st.integers(1, 3),
    k=st.sampled_from([None, 1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_csv_matches_row_writer(T, d, k, seed):
    gen = np.random.default_rng(seed)

    def floats(shape):
        vals = gen.normal(size=shape) * 10.0 ** gen.integers(-5, 6, size=shape)
        special = gen.random(shape) < 0.2
        vals[special] = gen.choice(_SPECIAL_FLOATS, size=int(special.sum()))
        return vals

    path = SamplePath(
        y=gen.integers(0, 4, size=T),
        x=floats((T, d)),
        lam=None if k is None else floats((T, k)),
        burnin_used=0,
        stationarity_gap_bound=0.0,
    )
    # lists of lines: a failing comparison then names the first differing row
    # instead of diffing two long strings
    assert path_to_csv(path).split("\n") == _reference_csv(path).split("\n")


def test_blocked_csv_matches_row_writer_on_integer_and_1d_inputs():
    # integer covariates print as floats, boolean categories as integers,
    # and a 1-d lam of one row is that row's latent block
    path = SamplePath(np.array([True]), np.array([[3, -1]]), np.array([0.5, -0.0]), 0, 0.0)
    assert path_to_csv(path).split("\n") == _reference_csv(path).split("\n")
    path = SamplePath(np.array([0, 2]), np.array([[1], [2]], dtype=np.int32), np.float32([[0.1], [2.0]]), 0, 0.0)
    assert path_to_csv(path).split("\n") == _reference_csv(path).split("\n")


# -- tail heads and the first-return bracket -------------------------------------------


def _reference_head(seq, n):
    """Every tail value past storage, one scalar at a time."""
    if n <= len(seq):
        return seq.values[:n].copy()
    if seq.tail is None:
        return np.concatenate([seq.values, np.zeros(n - len(seq))])
    return np.concatenate([seq.values, [seq.tail.value(seq, m) for m in range(len(seq), n)]])


@settings(max_examples=40, deadline=None)
@given(
    vals=_heads,
    rate=st.floats(1e-6, 0.99, exclude_max=True),
    extra=st.integers(0, 300),
)
@example(vals=np.array([0.625]), rate=0.75, extra=0)  # rounds up to 5e-324 past the closed-form step
def test_geometric_head_matches_reference_past_underflow(vals, rate, extra):
    seq = DecaySeq(vals, tail=GeometricTail(rate))
    # run past the first exact 0.0 of the tail, element by element as _reference_head computes it
    n = next(m for m in itertools.count(len(seq)) if seq.tail.value(seq, m) == 0.0) + 1 + extra
    got = seq.head(n)
    assert got.tobytes() == _reference_head(seq, n).tobytes()
    assert got[-1] == 0.0


@pytest.mark.parametrize(
    "seq",
    [
        DecaySeq(np.array([0.3, -0.0]), tail=GeometricTail(0.5)),
        DecaySeq(np.array([0.3, 0.0]), tail=GeometricTail(0.5)),
        DecaySeq(np.array([0.3, 1e-300]), tail=GeometricTail(1e-5)),
        DecaySeq(np.array([0.3]), tail=PolynomialTail(0.0, 2.0)),
        DecaySeq(np.array([0.3]), tail=PolynomialTail(-0.0, 2.0)),
        DecaySeq(np.array([0.3]), tail=PolynomialTail(0.3, 2.0)),
        DecaySeq(np.array([0.3, 0.1])),
    ],
)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 3000])
def test_head_edge_cases_match_reference(seq, n):
    assert seq.head(n).tobytes() == _reference_head(seq, n).tobytes()


def _reference_bracket(b, horizon):
    """The first-return partial sum over every index below the horizon."""
    bh = b.head(horizon + 1)
    prod = 1.0
    f_partial = 0.0
    for k in range(1, horizon + 1):
        f_partial += bh[k - 1] * prod
        prod *= 1.0 - bh[k - 1]
    rem = b.sum_from(horizon)
    f_low = min(f_partial, 1.0)
    f_high = f_partial + rem
    if f_high >= 1.0 - 1e-12:
        if horizon < 65536:
            return _reference_bracket(b, max(2 * horizon, 1))
        raise DivergenceError("could not certify total first-return mass < 1")
    return f_low / (1.0 - f_low), f_high / (1.0 - f_high)


def _bracket_bytes(fn, b, horizon):
    try:
        return np.array(fn(b, horizon)).tobytes()
    except DivergenceError:
        return "DivergenceError"


@settings(max_examples=40, deadline=None)
@given(
    vals=_heads,
    tail=st.sampled_from(["none", "geometric", "polynomial"]),
    rate=st.floats(0.05, 0.95),
    horizon=st.integers(0, 1500),
)
def test_bstar_sum_bracket_matches_full_loop(vals, tail, rate, horizon):
    if tail == "geometric":
        b = DecaySeq(vals, tail=GeometricTail(rate))
    elif tail == "polynomial":
        b = DecaySeq(vals, tail=PolynomialTail(float(vals[-1]) * float(vals.size) ** 2.5, 2.5))
    else:
        b = DecaySeq(vals)
    assert _bracket_bytes(bstar_sum_bracket, b, horizon) == _bracket_bytes(_reference_bracket, b, horizon)


@pytest.mark.parametrize(
    "values",
    # [0.5, 0.5] at horizon 0 needs the retry at a deeper horizon
    [[0.0], [0.3, 0.0], [0.3, 0.0, 1e-15], [0.0, 0.0, 1e-15], [0.5, 0.25, 0.0, 0.0], [0.5, 0.5]],
)
@pytest.mark.parametrize("horizon", [0, 1, 2, 3, 256])
def test_bstar_sum_bracket_edge_cases_match_full_loop(values, horizon):
    b = DecaySeq(np.array(values))
    assert _bracket_bytes(bstar_sum_bracket, b, horizon) == _bracket_bytes(_reference_bracket, b, horizon)


# -- b0 grid sweeps --------------------------------------------------------------------


def _reference_softmax_probs(z):
    """Category probabilities with a zero reference logit, rows = points."""
    full = np.concatenate([np.zeros((z.shape[0], 1)), z], axis=1)
    full = full - full.max(axis=1, keepdims=True)
    ez = np.exp(full)
    return ez / ez.sum(axis=1, keepdims=True)


def _reference_b0_multinomial(n_categories, c, grid):
    """The whole mesh stacked as a (points, dims) array: the mesh sup and
    the continuity correction that covers the sup between mesh points."""
    dims = n_categories - 1
    step = max(grid.step, 0.05 if dims == 2 else (0.25 if dims == 3 else grid.step))
    axis = np.concatenate(
        [[-grid.boundary], np.arange(grid.lo, grid.hi + step / 2, step), [grid.boundary]]
    )
    mesh = np.meshgrid(*([axis] * dims), indexing="ij")
    z = np.stack([m.ravel() for m in mesh], axis=1)
    base = _reference_softmax_probs(z)
    best = 0.0
    for signs in np.ndindex(*([3] * dims)):
        y = c * (np.array(signs) - 1.0)
        if not np.any(y):
            continue
        shifted = _reference_softmax_probs(z + y)
        tv = 0.5 * np.abs(shifted - base).sum(axis=1)
        best = max(best, float(tv.max()))
    return best, 0.25 * dims * step


def _reference_cell_probs(success):
    """Probabilities of all 0/1 sign patterns, one row per point."""
    pts, n = success.shape
    cells = np.ones((pts, 1))
    for i in range(n):
        p = success[:, i : i + 1]
        cells = np.concatenate([cells * (1.0 - p), cells * p], axis=1)
    return cells


def _reference_b0_discrete_choice(cdf, n_components, lipschitz, c, grid):
    """The whole mesh stacked as a (points, components) array."""
    step = max(grid.step, 0.05 if n_components == 2 else 0.25)
    axis = np.concatenate(
        [[-grid.boundary], np.arange(grid.lo, grid.hi + step / 2, step), [grid.boundary]]
    )
    mesh = np.meshgrid(*([axis] * n_components), indexing="ij")
    lam = np.stack([m.ravel() for m in mesh], axis=1)
    base = _reference_cell_probs(1.0 - cdf(-lam))
    best = 0.0
    for signs in np.ndindex(*([3] * n_components)):
        y = c * (np.array(signs) - 1.0)
        if not np.any(y):
            continue
        shifted = _reference_cell_probs(1.0 - cdf(-(lam + y)))
        tv = 0.5 * np.abs(shifted - base).sum(axis=1)
        best = max(best, float(tv.max()))
    return best + lipschitz * n_components * step


def _reference_b0_choice_vertex(cdf, n_components, lipschitz, c, grid):
    """The whole mesh stacked, shifted only at the all-(+c) vertex."""
    step = max(grid.step, 0.05 if n_components == 2 else 0.25)
    axis = np.concatenate(
        [[-grid.boundary], np.arange(grid.lo, grid.hi + step / 2, step), [grid.boundary]]
    )
    mesh = np.meshgrid(*([axis] * n_components), indexing="ij")
    lam = np.stack([m.ravel() for m in mesh], axis=1)
    base = _reference_cell_probs(1.0 - cdf(-lam))
    shifted = _reference_cell_probs(1.0 - cdf(-(lam + c)))
    tv = 0.5 * np.abs(shifted - base).sum(axis=1)
    return float(tv.max()) + lipschitz * n_components * step


_LINKS = {"logistic": (expit, 0.25), "probit": (ndtr, 1.0 / math.sqrt(2.0 * math.pi))}
# the mesh's TV differences probabilities of up to four categories, each
# rounded within a few eps, so a mesh point at the sup may round above it
MESH_ROUNDING = 8 * np.finfo(float).eps


def _assert_sweep_matches_reference(family, dims, c, grid, link="logistic", cube_equal=False):
    if family == "multinomial":
        # the closed form is the exact sup, which the mesh approaches from below
        got = _b0_multinomial(dims + 1, c, grid)
        mesh_sup, correction = _reference_b0_multinomial(dims + 1, c, grid)
        assert mesh_sup <= got + MESH_ROUNDING
        assert got <= mesh_sup + correction
    else:
        cdf, lip = _LINKS[link]
        got = _b0_discrete_choice(cdf, dims, lip, c, grid)
        want = _reference_b0_discrete_choice(cdf, dims, lip, c, grid)
        if cube_equal:
            assert got == want
            return
        if dims > 1:
            assert got == _reference_b0_choice_vertex(cdf, dims, lip, c, grid)
        # the all-(+c) vertex holds the sup over R^K, so its certificate
        # covers the mesh sup of the whole shift cube; it sweeps part of the
        # cube's mesh, so it never exceeds the cube's certificate.  One
        # component is the binary sweep, over the mirrored axis, which
        # rounds its own way
        slack = MESH_ROUNDING if dims == 1 else 0.0
        assert _reference_b0_discrete_choice(cdf, dims, 0.0, c, grid) <= got <= want + slack


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["multinomial", "choice"]),
    dims=st.integers(1, 3),
    c=st.floats(0.0, 4.0, exclude_min=True),
    link=st.sampled_from(sorted(_LINKS)),
    step=st.sampled_from([1e-3, 0.02, 0.3]),
    boundary=st.sampled_from([6.0, 9.5, 40.0]),
    data=st.data(),
)
def test_blocked_b0_sweep_matches_full_mesh(family, dims, c, link, step, boundary, data):
    # the block size changes no float, down to one row of the first axis;
    # only the discrete-choice sweep reads it
    grid = GridSpec(lo=-6.0, hi=6.0, step=step, boundary=boundary)
    if family == "multinomial":
        _assert_sweep_matches_reference(family, dims, c, grid, link)
        return
    block_points = data.draw(st.sampled_from([1, 7, 300, B0_BLOCK_POINTS]), label="block_points")
    with mock.patch.object(kernels, "B0_BLOCK_POINTS", block_points):
        _assert_sweep_matches_reference(family, dims, c, grid, link)


@pytest.mark.parametrize(
    "family,dims,c",
    [
        ("multinomial", 2, 0.42857142857142866),
        ("choice", 2, 0.5714285714285715),
        ("multinomial", 2, 1.0),
        ("choice", 2, 1.0),
    ],
    ids=["zoo-multinomial", "zoo-choice", "verify-multinomial", "verify-choice"],
)
def test_blocked_b0_sweep_matches_full_mesh_on_default_grid(family, dims, c):
    # the c values model-zoo's two kernels and verify's b0 row certify; on
    # them one vertex gives the floats of the whole shift cube
    _assert_sweep_matches_reference(family, dims, c, GridSpec(), cube_equal=True)


@settings(max_examples=15, deadline=None)
@given(
    dims=st.integers(2, 3),
    c=st.floats(0.0, 4.0, exclude_min=True),
    link=st.sampled_from(sorted(_LINKS)),
    lo=st.floats(-6.0, -3.0),
    hi=st.floats(3.0, 6.0),
    step=st.sampled_from([1e-3, 0.02, 0.3]),
)
def test_one_vertex_b0_sweep_brackets_the_cube_on_asymmetric_grids(dims, c, link, lo, hi, step):
    # lo != -hi: the mesh is not mirror-symmetric, so the cube's other
    # vertices sweep points the all-(+c) vertex does not; the sweep box
    # still holds the sup, near (-c/2, ..., -c/2)
    assume(lo != -hi)
    _assert_sweep_matches_reference("choice", dims, c, GridSpec(lo=lo, hi=hi, step=step, boundary=6.0), link)


# -- glued ladder Monte Carlo ----------------------------------------------------------


def _reference_coupled_ladder_mc(table_a, table_b, code_a0, code_b0, n_categories, memory, length, replicas, rng):
    # the per-step ladder: gathers both laws per replica and recomputes the
    # overlap, the residual, its mass and its cumsum at every step
    gen = as_generator(rng)
    R = replicas
    n, mem = n_categories, memory

    def simulate_plain(table, code0):
        codes = np.full(R, code0, dtype=np.int64)
        ys = np.empty((length + 1, R), dtype=np.int64)
        cds = np.empty((length + 1, R), dtype=np.int64)
        cds[0] = codes
        for t in range(1, length + 1):
            rows = table[codes]
            u = gen.random(R)
            ys[t] = np.minimum((rows.cumsum(axis=1) < u[:, None]).sum(axis=1), n - 1)
            codes = successor_code(codes, ys[t], n, mem)
            cds[t] = codes
        return ys, cds

    prev_y, prev_c = simulate_plain(table_a, code_a0)
    y1 = prev_y[1:].copy()

    diag = np.zeros((length + 1, R), dtype=np.int64)
    for j in range(0, length + 1):
        cur_y = np.empty((length + 1, R), dtype=np.int64)
        cur_c = np.empty((length + 1, R), dtype=np.int64)
        cur_c[0] = code_b0
        for t in range(1, length + 1):
            tp = table_b if t <= j - 1 else table_a
            tq = table_b if t <= j else table_a
            p = tp[prev_c[t - 1]]
            q = tq[cur_c[t - 1]]
            u = prev_y[t]
            pu = np.take_along_axis(p, u[:, None], axis=1)[:, 0]
            qu = np.take_along_axis(q, u[:, None], axis=1)[:, 0]
            overlap = np.minimum(pu, qu)
            stay = gen.random(R) * pu < overlap
            resid = np.clip(q - np.minimum(p, q), 0.0, None)
            mass = resid.sum(axis=1)
            safe = np.where(mass > 0, mass, 1.0)
            draw = gen.random(R) * safe
            v_res = (resid.cumsum(axis=1) < draw[:, None]).sum(axis=1)
            v = np.where(stay, u, np.minimum(v_res, n - 1))
            cur_y[t] = v
            cur_c[t] = successor_code(cur_c[t - 1], v, n, mem)
        if j >= 1:
            diag[j] = cur_y[j]
        prev_y, prev_c = cur_y, cur_c
    return y1, diag[1:]


@st.composite
def _ladder_tables(draw, n, mem):
    # rows of weights in which about a third of the entries are exactly zero
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    rows = draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=n**mem, max_size=n**mem))
    table = np.array(rows)
    table[table.sum(axis=1) == 0, draw(st.integers(0, n - 1))] = 1.0
    return table / table.sum(axis=1, keepdims=True)


@st.composite
def _ladder_cases(draw):
    n, mem = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    table_a = draw(_ladder_tables(n, mem))
    table_b = table_a if draw(st.booleans()) else draw(_ladder_tables(n, mem))
    codes = st.integers(0, n**mem - 1)
    return table_a, table_b, draw(codes), draw(codes), n, mem, draw(st.integers(1, 8)), draw(st.integers(1, 64))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_ladder_cases(), seed=st.integers(0, 2**32 - 1), top=st.booleans())
def test_coupling_row_ladder_matches_per_step_reference(case, seed, top):
    def rng():
        return _TopDraws(np.random.PCG64(0)) if top else np.random.default_rng(seed)

    got = coupled_ladder_mc(*case, rng())
    want = _reference_coupled_ladder_mc(*case, rng())
    assert got[0].shape == want[0].shape == got[1].shape
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("seed", [5, 11])
def test_coupling_row_ladder_matches_per_step_reference_on_verify_fixtures(seed):
    # the glued_coupling_mc row's table pairs, past and chunk streams
    gen = SeededRng(seed, 12).generator()
    for i in range(3):
        table_a = 0.7 * gen.dirichlet(np.ones(2), size=4) + 0.3 / 2
        table_b = np.clip(table_a + gen.uniform(-0.04, 0.04, size=table_a.shape), 0.05, None)
        table_b = table_b / table_b.sum(axis=1, keepdims=True)
        for chunk in (0, 7):
            args = (table_a, table_b, 0, 3, 2, 2, 8, 2000)
            got = coupled_ladder_mc(*args, SeededRng(seed, 100 + 16 * i + chunk))
            want = _reference_coupled_ladder_mc(*args, SeededRng(seed, 100 + 16 * i + chunk))
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("n, mem", [(1024, 1), (32, 2)])
@pytest.mark.parametrize("top", [False, True], ids=["seeded", "top"])
def test_int32_ladder_matches_per_step_reference_at_the_widest_codes(n, mem, top):
    # the gather index code * N + category reaches 2**20 - 1 at N 1024 (past
    # int16) and 2**15 - 1 at N 32 with memory 2, where the successor code
    # also carries a category into the upper digit
    gen = np.random.default_rng(n)
    table_a = gen.dirichlet(np.ones(n), size=n**mem)
    table_b = 0.5 * table_a + 0.5 * gen.dirichlet(np.ones(n), size=n**mem)
    for length in (1, 2, 3):
        args = (table_a, table_b, n**mem - 1, n**mem - 2, n, mem, length, 4)

        def rng():
            return _TopDraws(np.random.PCG64(0)) if top else np.random.default_rng(length)

        got = coupled_ladder_mc(*args, rng())
        want = _reference_coupled_ladder_mc(*args, rng())
        assert got[0].dtype == got[1].dtype == np.int32
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@st.composite
def _glued_table_cases(draw):
    # strictly positive rows, so a table kernel's b0 stays below one
    n, mem = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    rows = st.lists(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n), min_size=n**mem, max_size=n**mem)
    table_a = np.array(draw(rows))
    table_a = table_a / table_a.sum(axis=1, keepdims=True)
    table_b = table_a if draw(st.booleans()) else np.array(draw(rows))
    table_b = table_b / table_b.sum(axis=1, keepdims=True)
    past = st.lists(st.integers(0, n - 1), min_size=mem, max_size=mem)
    return table_a, table_b, draw(past), draw(past), n, mem, draw(st.integers(1, 8))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_glued_table_cases(), seed=st.integers(0, 2**32 - 1), top=st.booleans())
def test_glued_coupling_is_the_ladder_at_one_replica(case, seed, top):
    table_a, table_b, z_a, z_b, n, mem, length = case

    def rng():
        return _TopDraws(np.random.PCG64(0)) if top else np.random.default_rng(seed)

    x = np.zeros((length, 1))
    pair = glued_coupling(table_kernel(table_a), table_kernel(table_b), x, x, z_a, z_b, length, rng())
    codes = state_code(z_a, n, mem), state_code(z_b, n, mem)
    y1, y2 = coupled_ladder_mc(table_a, table_b, *codes, n, mem, length, 1, rng())
    assert np.array_equal(pair.y1, y1[:, 0]) and np.array_equal(pair.y2, y2[:, 0])


@st.composite
def _positive_ladder_tables(draw, n, mem):
    # no zero entry, so replicas whose rungs agree settle and are not stepped
    rows = draw(st.lists(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n), min_size=n**mem, max_size=n**mem))
    table = np.array(rows)
    return table / table.sum(axis=1, keepdims=True)


@st.composite
def _settling_ladder_cases(draw):
    # memory up to 3, equal pasts, identical tables and one replica, with and
    # without zero entries
    n, mem = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    tables = _positive_ladder_tables(n, mem) if draw(st.booleans()) else _ladder_tables(n, mem)
    table_a = draw(tables)
    table_b = table_a if draw(st.booleans()) else draw(tables)
    codes = st.integers(0, n**mem - 1)
    code_a0 = draw(codes)
    code_b0 = code_a0 if draw(st.booleans()) else draw(codes)
    replicas = draw(st.one_of(st.just(1), st.integers(1, 64)))
    return table_a, table_b, code_a0, code_b0, n, mem, draw(st.integers(0, 9)), replicas


def _bit_generator(kind: str, seed: int) -> np.random.Generator:
    # PCG64 skips a settled step's uniforms with advance; MT19937 has none
    return np.random.Generator(np.random.PCG64(seed) if kind == "pcg64" else np.random.MT19937(seed))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_settling_ladder_cases(), seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["pcg64", "mt19937"]))
def test_active_replica_ladder_matches_per_step_reference(case, seed, kind):
    gen, ref = _bit_generator(kind, seed), _bit_generator(kind, seed)
    got = coupled_ladder_mc(*case, gen)
    want = _reference_coupled_ladder_mc(*case, ref)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert gen.random() == ref.random()


@pytest.mark.parametrize("kind", ["pcg64", "mt19937"])
def test_active_replica_ladder_leaves_the_stream_where_the_reference_does(kind):
    # verify's table pair at 500 replicas: 28 of the 72 rung-steps have no
    # replica to step, and later ones only a few
    gen = SeededRng(5, 12).generator()
    table_a = 0.7 * gen.dirichlet(np.ones(2), size=4) + 0.3 / 2
    table_b = np.clip(table_a + gen.uniform(-0.04, 0.04, size=table_a.shape), 0.05, None)
    table_b = table_b / table_b.sum(axis=1, keepdims=True)
    args = (table_a, table_b, 0, 3, 2, 2, 8, 500)
    got_gen, ref_gen = _bit_generator(kind, 7), _bit_generator(kind, 7)
    got = coupled_ladder_mc(*args, got_gen)
    want = _reference_coupled_ladder_mc(*args, ref_gen)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(got_gen.random(4), ref_gen.random(4))


class _ScriptedDraws(np.random.Generator):
    """Returns the given uniforms in order, however many each call asks for."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self.values, self.drawn = np.asarray(values, dtype=float), 0

    def random(self, size=None):
        self.drawn += size
        return self.values[self.drawn - size : self.drawn]


_TOP = np.nextafter(1.0, 0.0)


@pytest.mark.parametrize(
    "row, script, y2",
    [
        # the cumulative sum of [a, b, 0] ends at 0.9999999999999998, so the
        # first rung's top draw lands on the last category, of probability
        # 0; rung 0 shares that rung's code and table, yet its stay test
        # 0 < 0 fails and a residual draw of 0.0 moves it to category 0,
        # which rung 1 keeps
        ([0.6136640758845232, 0.3863359241154766, 0.0], [_TOP, _TOP, 0.0, _TOP, _TOP], 0),
        # a draw of 0.0 lands on a category of probability 2**-1022, the
        # smallest normal float, where _TOP * p rounds back to p: rung 0's
        # stay test fails, and its top residual draw moves it to category 1
        ([np.finfo(float).tiny, 1.0], [0.0, _TOP, _TOP, 0.0, _TOP], 1),
    ],
    ids=["zero", "smallest-normal"],
)
def test_unsettled_tiny_category_keeps_every_replica_stepped(row, script, y2):
    # a ladder that left rung 0 settled would hand rung 1 the first rung's
    # category, and the next two draws would give it the other one
    table = np.array([row] * len(row))
    args = (table, table, 0, 0, len(row), 1, 1, 1)
    got = coupled_ladder_mc(*args, _ScriptedDraws(script))
    want = _reference_coupled_ladder_mc(*args, _ScriptedDraws(script))
    assert got[1].tolist() == [[y2]] != got[0].tolist()
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# -- likelihood evaluations ----------------------------------------------------------


def _reference_mu_path(alpha, beta, gamma, y, x):
    # the lagged responses rebuilt at every evaluation
    from scipy.signal import lfilter

    forcing = x @ gamma
    for k, ak in enumerate(alpha, start=1):
        forcing = forcing + ak * _shifted(y, k)
    if beta.size == 0:
        return forcing
    den = np.concatenate([[1.0], -beta])
    return lfilter([1.0], den, forcing)


def _reference_conditional_loglik(spec, data, warmup=None):
    # both logs on every entry, picked by np.where
    report = stationarity_check(spec)
    if not report.passed:
        raise ValueError(f"spec fails stationarity at radius {report.spectral_radius}")
    warmup = max(spec.alpha.size, spec.beta.size, 10) if warmup is None else warmup
    mu = _reference_mu_path(spec.alpha, spec.beta, spec.gamma, data.y.astype(float), data.x)
    f = np.clip(spec.link.cdf(mu), 1e-300, 1.0 - 1e-16)
    ll = np.where(data.y == 1, np.log(f), np.log1p(-f))
    ll = np.maximum(ll, math.log(1e-300))
    return float(ll[warmup:].sum())


def _reference_objective(theta, template, data, warmup):
    # a second stationarity check inside conditional_loglik
    p, q = template.alpha.size, template.beta.size
    spec = ObservationDrivenBinarySpec(alpha=theta[:p], beta=theta[p : p + q], gamma=theta[p + q :], link=template.link)
    report = stationarity_check(spec)
    slack = 1.0 - report.spectral_radius - _STATIONARITY_MARGIN
    if slack <= 0.0 or not np.isfinite(report.spectral_radius):
        return float("inf")
    ll = _reference_conditional_loglik(spec, data, warmup=warmup)
    return -ll / data.n - _BARRIER_WEIGHT * math.log(slack)


def _reference_profile_objective(theta_free, template, data, bandwidth):
    # np.interp's binary search and both logs on every entry; the kernel
    # regression is checked against its own reference above
    p, q = template.alpha.size, template.beta.size
    yf = data.y.astype(float)
    a, b, g = theta_free[:p], theta_free[p : p + q], np.concatenate([[1.0], theta_free[p + q :]])
    spec = ObservationDrivenBinarySpec(alpha=a, beta=b, gamma=g, link=template.link)
    if not stationarity_check(spec).passed:
        return float("inf")
    mu = _reference_mu_path(a, np.asarray(b), g, yf, data.x)
    h = bandwidth or max(float(mu.std()) * data.n ** (-0.2), 1e-3)
    grid, fhat, _ = _link_regression(yf, mu, h)
    fv = np.clip(np.interp(mu, grid, fhat), 1e-6, 1.0 - 1e-6)
    ll = np.where(data.y == 1, np.log(fv), np.log1p(-fv))
    warm = max(p, q, 10)
    return -float(ll[warm:].sum()) / data.n


def _reference_link_regression(y, mu, h, grid_size=512):
    # mode="same" convolutions, whose length is the kernel's once the kernel is the longer
    lo, hi = float(mu.min()), float(mu.max())
    if hi - lo < 1e-12:
        fill = float(y.mean())
        return np.array([lo - 1e-6, hi + 1e-6]), np.array([fill, fill]), 0
    grid = np.linspace(lo, hi, grid_size)
    step = (hi - lo) / (grid_size - 1)
    idx = np.clip(np.rint((mu - lo) / step).astype(np.int64), 0, grid_size - 1)
    cnt = np.bincount(idx, minlength=grid_size).astype(float)
    ysum = np.bincount(idx, weights=y, minlength=grid_size)
    width = max(int(math.ceil(h / step)), 1)
    kern = 0.75 * np.clip(1.0 - (np.arange(-width, width + 1) * step / h) ** 2, 0.0, None)
    den = np.convolve(cnt, kern, mode="same")
    num = np.convolve(ysum, kern, mode="same")
    empty = int((den <= 1e-12).sum())
    valid = den > 1e-12
    fhat = np.empty_like(grid)
    fhat[valid] = num[valid] / den[valid]
    if empty:
        fhat[~valid] = np.interp(grid[~valid], grid[valid], fhat[valid])
    return grid, np.clip(fhat, 1e-6, 1.0 - 1e-6), empty


def _reference_loglik_gradient(spec, data, warmup=None):
    from scipy.signal import lfilter

    warmup = max(spec.alpha.size, spec.beta.size, 10) if warmup is None else warmup
    yf = data.y.astype(float)
    mu = _reference_mu_path(spec.alpha, spec.beta, spec.gamma, yf, data.x)
    f = np.clip(spec.link.cdf(mu), 1e-12, 1.0 - 1e-12)
    w = (yf - f) * spec.link.pdf(mu) / (f * (1.0 - f))
    den = np.concatenate([[1.0], -spec.beta]) if spec.beta.size else np.array([1.0])
    cols = [lfilter([1.0], den, _shifted(yf, k)) for k in range(1, spec.alpha.size + 1)]
    cols += [lfilter([1.0], den, _shifted(mu, j)) for j in range(1, spec.beta.size + 1)]
    cols += [lfilter([1.0], den, data.x[:, i]) for i in range(data.dim)]
    return np.array([float((w * c)[warmup:].sum()) for c in cols])


def _outcome_bytes(fn, *args):
    """The float bytes ``fn`` returns, or the type and message of what it raises."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


_signed_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, 1.0]),
    st.floats(-1.0, 1.0),
    st.floats(-1e307, 1e307),
)


@st.composite
def _uniform_grid_cases(draw):
    m = draw(st.integers(2, 700))
    lo = draw(st.floats(-1e3, 1e3))
    # the narrowest spans give grids with repeated nodes
    span = draw(st.floats(1e-12, 1e3))
    grid = np.linspace(lo, lo + span, m)
    fp = np.array(draw(st.lists(_signed_values, min_size=m, max_size=m)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # the points lie within the grid, as the profile objective's do: its grid spans them
    inside = np.clip(gen.uniform(grid[0], grid[-1], size=draw(st.integers(0, 60))), grid[0], grid[-1])
    nodes = grid[gen.integers(0, m, size=draw(st.integers(0, 30)))]
    x = np.concatenate([inside, nodes, grid[[0, -1]]])
    gen.shuffle(x)
    return x, grid, fp


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_uniform_grid_cases())
# a node whose value is -0.0 under a rising cell: slope * 0.0 + fp[j] would read +0.0
@example(case=(np.array([0.0, 0.5, 1.0, 1.5, 2.0]), np.linspace(0.0, 2.0, 5), np.array([1.0, -0.0, 1.0, 2.0, 3.0])))
# a slope that overflows: inf * 0.0 at a node would read nan
@example(case=(np.linspace(0.0, 1e-300, 5)[1:4], np.linspace(0.0, 1e-300, 5), np.array([0.0, -1e300, 1e300, 5.0, 6.0])))
def test_uniform_grid_lookup_matches_np_interp(case):
    x, grid, fp = case
    with np.errstate(over="ignore", invalid="ignore"):  # values far past the link's [1e-6, 1) overflow slopes
        got = _uniform_interp(x, grid, fp)
    assert got.tobytes() == np.interp(x, grid, fp).tobytes()


def test_uniform_grid_lookup_reads_every_cell_at_its_own_slope():
    # fp with a different slope in every cell and points at every node and every cell middle
    grid = np.linspace(-1.0, 2.0, 40)
    fp = np.cumsum(np.arange(40.0) ** 1.5)
    x = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1])])
    assert _uniform_interp(x, grid, fp).tobytes() == np.interp(x, grid, fp).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    y=st.lists(st.integers(0, 1), min_size=0, max_size=200),  # Dataset rejects any other response
    seed=st.integers(0, 2**32 - 1),
)
def test_split_log_terms_match_where(y, seed):
    y = np.array(y, dtype=np.int64)
    gen = np.random.default_rng(seed)
    # the clip bounds of both objectives among uniform draws
    ends = gen.choice([1e-300, 1e-6, 1.0 - 1e-6, 1.0 - 1e-16], size=y.size)
    f = np.where(gen.random(y.size) < 0.3, ends, gen.random(y.size))
    lik = _Likelihood(Dataset(y=y, x=np.zeros((y.size, 1))), 0)
    assert lik.log_terms(f).tobytes() == np.where(y == 1, np.log(f), np.log1p(-f)).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 400),
    scale=st.floats(1e-9, 1e3),
    h=st.floats(1e-4, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_link_regression_matches_same_mode_reference(n, scale, h, seed):
    gen = np.random.default_rng(seed)
    y = gen.integers(0, 2, size=n).astype(float)
    mu = scale * gen.normal(size=n)
    got = _link_regression(y, mu, h)
    span = float(mu.max()) - float(mu.min())
    if span >= 1e-12 and 2 * math.ceil(h / (span / 511)) + 1 > 512:
        # a kernel longer than the grid made mode="same" return the kernel's
        # length (an IndexError, or no memory for a kernel of billions of
        # cells); every cell now gets its full-convolution value
        assert got[0].shape == got[1].shape == (512,) and np.all((got[1] >= 1e-6) & (got[1] <= 1.0 - 1e-6))
        return
    want = _reference_link_regression(y, mu, h)
    assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]] and got[2] == want[2]


@st.composite
def _fit_cases(draw):
    p, q, d = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(1, 2))
    n = draw(st.integers(1, 300))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = gen.normal(size=(n, d))
    x[gen.random(n) < 0.1] = 0.0
    data = Dataset(y=gen.integers(0, 2, size=n), x=x)
    link = draw(st.sampled_from([logistic_link(), probit_link()]))
    template = ObservationDrivenBinarySpec(alpha=np.zeros(p), beta=np.zeros(q), gamma=np.zeros(d), link=link)
    coefficient = st.floats(-1.5, 1.5)
    thetas = [np.array(draw(st.lists(coefficient, min_size=p + q + d, max_size=p + q + d))) for _ in range(3)]
    return template, data, thetas


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_fit_cases(), warmup=st.one_of(st.none(), st.integers(0, 40)))
def test_objective_matches_per_evaluation_reference(case, warmup):
    template, data, thetas = case
    lik = _Likelihood(data, template.alpha.size)
    for theta in thetas:
        got = _outcome_bytes(_objective, theta, template, lik, warmup)
        assert got == _outcome_bytes(_reference_objective, theta, template, data, warmup)
        spec = ObservationDrivenBinarySpec(
            alpha=theta[: template.alpha.size],
            beta=theta[template.alpha.size : template.alpha.size + template.beta.size],
            gamma=theta[template.alpha.size + template.beta.size :],
            link=template.link,
        )
        # the sign of a zero index too: x holds zero rows and gamma may be negative
        want_mu = _reference_mu_path(spec.alpha, spec.beta, spec.gamma, data.y.astype(float), data.x)
        assert lik.mu(spec.alpha, spec.beta, spec.gamma).tobytes() == want_mu.tobytes()
        assert _outcome_bytes(conditional_loglik, spec, data, warmup) == _outcome_bytes(
            _reference_conditional_loglik, spec, data, warmup
        )
        assert _outcome_bytes(loglik_gradient, spec, data, warmup) == _outcome_bytes(
            _reference_loglik_gradient, spec, data, warmup
        )


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_fit_cases(), bandwidth=st.one_of(st.none(), st.floats(0.01, 2.0)))
def test_profile_objective_matches_per_evaluation_reference(case, bandwidth):
    template, data, thetas = case
    lik = _Likelihood(data, template.alpha.size)
    for theta in thetas:
        theta_free = theta[1:]  # the first covariate loading is pinned to one
        got = _profile_objective(theta_free, template, lik, bandwidth)
        want = _reference_profile_objective(theta_free, template, data, bandwidth)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("seed", [5, 11])
def test_objectives_match_reference_on_the_selftest_data(seed):
    # the fit-selftest model at n 2e4, at the truth and at the optimizers' starting points
    spec = ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3])
    x = sample_covariates(IIDCovariates(), 20500, SeededRng(seed, 21))
    path = sample_forward(model_to_kernel(spec), x, 20000, 1e-6, SeededRng(seed, 22))
    data = Dataset(y=path.y, x=path.x)
    lik = _Likelihood(data, 1)
    for off in (0.0, 0.5, -0.5, 0.4):
        theta = np.array([off, 0.5 * off, off])
        assert _objective(theta, spec, lik, None) == _reference_objective(theta, spec, data, None)
        got = _profile_objective(theta[:2], spec, lik, None)
        assert got == _reference_profile_objective(theta[:2], spec, data, None)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_fit_cases(), warmup=st.one_of(st.none(), st.integers(0, 40)))
def test_fused_objective_is_objective_with_score_and_barrier_gradient(case, warmup):
    template, data, thetas = case
    lik = _Likelihood(data, template.alpha.size)
    p, q = template.alpha.size, template.beta.size
    for theta in thetas:
        got = _outcome_bytes(lambda t: _objective_and_gradient(t, template, lik, warmup)[0], theta)
        assert got == _outcome_bytes(_objective, theta, template, lik, warmup)
        if not np.isfinite(np.frombuffer(got)[0]):
            continue  # theta lies outside the margin
        grad = _objective_and_gradient(theta, template, lik, warmup)[1]
        spec = ObservationDrivenBinarySpec(alpha=theta[:p], beta=theta[p : p + q], gamma=theta[p + q :], link=template.link)
        want = -loglik_gradient(spec, data, warmup) / data.n
        slack = 1.0 - stationarity_check(spec).spectral_radius - _STATIONARITY_MARGIN
        want[p : p + q] += _BARRIER_WEIGHT * _radius_gradient(spec.beta) / slack
        assert grad.tobytes() == want.tobytes()


def _reference_fit_mle_nelder_mead(template, data):
    # the multi-start Nelder-Mead search of fit_mle before BFGS: the same
    # starts, objective and tie-break, stopped at xatol 1e-6 and fatol 1e-9
    from scipy.optimize import minimize

    p, q = template.alpha.size, template.beta.size
    lik = _Likelihood(data, p)
    candidates = []
    for off in _START_OFFSETS:
        x0 = np.full(p + q + template.gamma.size, off)
        x0[p : p + q] *= 0.5
        res = minimize(
            _objective,
            x0,
            args=(template, lik, None),
            method="Nelder-Mead",
            options={"maxiter": _MAX_ITER, "xatol": 1e-6, "fatol": 1e-9},
        )
        if np.isfinite(res.fun) and np.all(np.isfinite(res.x)):
            candidates.append(res)
    top = min(c.fun for c in candidates)
    near = [c for c in candidates if c.fun <= top + 1e-6]
    return min(near, key=lambda c: float(np.linalg.norm(c.x)))


def _forward_binary_data(spec, n, seed, burn=200):
    # the latent recursion from zero with one draw per step; the first burn steps are dropped
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n + burn, spec.gamma.size))
    y = np.zeros(n + burn, dtype=np.int64)
    lam = np.zeros(n + burn)
    for t in range(n + burn):
        lam[t] = float(x[t] @ spec.gamma)
        lam[t] += sum(a * y[t - k] for k, a in enumerate(spec.alpha, start=1) if t >= k)
        lam[t] += sum(b * lam[t - j] for j, b in enumerate(spec.beta, start=1) if t >= j)
        y[t] = gen.random() < spec.link.cdf(lam[t : t + 1])[0]
    return Dataset(y=y[burn:], x=x[burn:])


_FIT_LINKS = {"logistic": logistic_link(), "probit": probit_link(), "custom": custom_link(expit, 0.25)}


@pytest.mark.parametrize("link", sorted(_FIT_LINKS))
@pytest.mark.parametrize("beta", [[], [0.5], [0.3, 0.1], [0.2, 0.1, 0.05]], ids=["q0", "q1", "q2", "q3"])
def test_fit_mle_matches_nelder_mead_reference(beta, link):
    # a custom link has no density, so BFGS differences the objective
    spec = ObservationDrivenBinarySpec(alpha=[0.4], beta=beta, gamma=[0.3], link=_FIT_LINKS[link])
    data = _forward_binary_data(spec, 1000, seed=len(beta))
    got = fit_mle(spec, data)
    want = _reference_fit_mle_nelder_mead(spec, data)
    assert got.convergence == "converged"
    assert _objective(got.theta_hat, spec, _Likelihood(data, 1), None) <= want.fun + 1e-9
    assert float(np.abs(got.theta_hat - want.x).max()) <= 1e-5
