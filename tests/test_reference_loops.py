"""Linear-time paths against the full-horizon loops they replace.

``bstar_from_b`` stops once every later ``b*`` is exactly 0.0, and the
per-step sampler reads only the kernel's truncated memory.  Both must give
the same bytes as the straightforward loops kept here as references.  The
decay-sequence tails, defined by their tail classes, must give the same
floats as the per-type formulas kept here, and the exact memory
sensitivity the same floats as its group-by-group loop.  The memory-state
law step (``kernels.memory_step``) must give the same bytes as the
``np.add.at`` scatter of the exact marginal laws, and the joint-chain step
the same law as the sparse one-step matrix, both kept here.  The scalar
latent scan must give the bytes of the array-step engine, the blocked CSV
writer those of the row-by-row ``csv.writer``, ``DecaySeq.head`` those of
the per-element tail loop and ``bstar_sum_bracket`` those of the
full-length first-return loop, the blocked per-axis b0 sweep of the
discrete-choice profile the floats of the whole stacked mesh, and the glued
ladder built from per-pair coupling rows the paths of the per-step ladder
that gathers and recomputes them at every step, all kept here.  The likelihood evaluations of ``fit`` read data-only arrays
built once per fit, check stationarity once, take each log only where it is
kept and look the profiled link up on its equally spaced grid without a
binary search; they must give the floats of the per-evaluation code, with
``np.where`` and ``np.interp``, kept here.  The closed-form multinomial b0
must lie between the sup over the whole stacked mesh and that sup plus the
mesh's continuity correction.
"""

import csv
import io
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
from catchain.dependence import _JointChain
from catchain.estimate import (
    Dataset,
    FitConfig,
    _Likelihood,
    _link_regression,
    _objective,
    _profile_objective,
    _shifted,
    _uniform_interp,
    conditional_loglik,
    loglik_gradient,
)
from catchain.kernels import (
    B0_BLOCK_POINTS,
    GridSpec,
    _b0_discrete_choice,
    _b0_multinomial,
    b_exact_from_table,
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
    logistic_link,
    model_to_kernel,
    probit_link,
    russell_damping,
    stationarity_check,
)
from catchain.prob import SeededRng, as_generator
from test_simulate import _TopDraws
from catchain.simulate import (
    CSV_BLOCK,
    FiniteStateMarkovCovariates,
    IIDCovariates,
    SamplePath,
    _coupled_step,
    _required_burnin,
    coupled_ladder_mc,
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
    ],
)
def test_bstar_edge_cases_match_reference(values, horizon):
    _assert_same_as_reference(DecaySeq(np.array(values)), horizon)


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

    prev = []
    for t in range(1, length + 1):
        p = law(-1, prev, t)
        prev.append(int(gen.choice(p.size, p=p / p.sum())))
    y1 = np.array(prev, dtype=np.int64)
    diag = np.zeros(length, dtype=np.int64)
    for j in range(0, length + 1):
        cur = []
        for t in range(1, length + 1):
            cur.append(_coupled_step(law(j - 1, prev, t), law(j, cur, t), prev[t - 1], gen))
        if j >= 1:
            diag[j - 1] = cur[j - 1]
        prev = cur
    return y1, diag


def _table_kernels():
    gen = np.random.default_rng(21)
    table_a = 0.6 * gen.dirichlet(np.ones(3), size=9) + 0.4 / 3
    table_b = 0.6 * gen.dirichlet(np.ones(3), size=9) + 0.4 / 3
    return table_kernel(table_a), table_kernel(table_b)


def _covariate_kernels():
    # three covariate lags, so the covariate window is sliced as well
    spec_a = BinaryInfiniteOrderSpec(a=[0.5, 0.25, 0.125], gamma=[0.3])
    spec_b = BinaryInfiniteOrderSpec(a=[0.4, 0.3, 0.1], gamma=[0.6])
    return model_to_kernel(spec_a, max_lag_x=3), model_to_kernel(spec_b, max_lag_x=3)


@pytest.mark.parametrize("kernels", [_table_kernels, _covariate_kernels])
def test_sample_forward_matches_full_history_reference(kernels):
    kernel, _ = kernels()
    assert "latent_sampler" not in kernel.extra
    x = SeededRng(22).generator().normal(size=(400, 1))
    path = sample_forward(kernel, x, 150, 1e-3, SeededRng(23))
    y_ref, burnin = _reference_forward(kernel, x, 150, 1e-3, 23)
    assert path.burnin_used == burnin
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


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mem=st.integers(1, 3),
    n_cov=st.integers(1, 4),
)
def test_joint_chain_step_matches_sparse_reference(seed, mem, n_cov):
    gen = np.random.default_rng(seed)
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
    chain = _JointChain(kernel, cov)
    T = _reference_joint_matrix(chain)
    dist = gen.dirichlet(np.ones(chain.n_states), size=(3, 4))
    got = chain.step(dist)
    assert got.shape == dist.shape
    want = np.asarray(dist.reshape(-1, chain.n_states) @ T).reshape(dist.shape)
    assert np.abs(got - want).max() <= 1e-15
    np.testing.assert_allclose(chain.step(dist[0, 0]), want[0, 0], rtol=0, atol=1e-15)


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


_LINKS = {"logistic": (expit, 0.25), "probit": (ndtr, 1.0 / math.sqrt(2.0 * math.pi))}
# the mesh's TV differences probabilities of up to four categories, each
# rounded within a few eps, so a mesh point at the sup may round above it
MESH_ROUNDING = 8 * np.finfo(float).eps


def _assert_sweep_matches_reference(family, dims, c, grid, link="logistic"):
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
        assert got == want


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["multinomial", "choice"]),
    dims=st.integers(1, 3),
    c=st.floats(0.0, 4.0, exclude_min=True),
    link=st.sampled_from(sorted(_LINKS)),
    step=st.sampled_from([1e-3, 0.02, 0.3]),
    boundary=st.sampled_from([6.0, 9.5, 40.0]),
    block_points=st.sampled_from([1, 7, 300, B0_BLOCK_POINTS]),
)
def test_blocked_b0_sweep_matches_full_mesh(family, dims, c, link, step, boundary, block_points):
    # the block size changes no float, down to one row of the first axis
    grid = GridSpec(lo=-6.0, hi=6.0, step=step, boundary=boundary)
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
    # the c values model-zoo's two kernels and verify's b0 row certify
    _assert_sweep_matches_reference(family, dims, c, GridSpec())


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


def _reference_objective(theta, template, data, cfg):
    # a second stationarity check inside conditional_loglik
    p, q = template.alpha.size, template.beta.size
    spec = ObservationDrivenBinarySpec(alpha=theta[:p], beta=theta[p : p + q], gamma=theta[p + q :], link=template.link)
    report = stationarity_check(spec)
    slack = 1.0 - report.spectral_radius - cfg.stationarity_margin
    if slack <= 0.0 or not np.isfinite(report.spectral_radius):
        return float("inf")
    ll = _reference_conditional_loglik(spec, data, warmup=cfg.warmup)
    return -ll / data.n - cfg.barrier_weight * math.log(slack)


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
@given(
    case=_fit_cases(),
    warmup=st.one_of(st.none(), st.integers(0, 40)),
    margin=st.sampled_from([1e-3, 0.0, -1e-3]),
)
def test_objective_matches_per_evaluation_reference(case, warmup, margin):
    # a negative margin lets a non-stationary spec through to the check the likelihood makes
    template, data, thetas = case
    cfg = FitConfig(warmup=warmup, stationarity_margin=margin)
    lik = _Likelihood(data, template.alpha.size)
    for theta in thetas:
        got = _outcome_bytes(_objective, theta, template, lik, cfg)
        assert got == _outcome_bytes(_reference_objective, theta, template, data, cfg)
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
        cfg = FitConfig()
        assert _objective(theta, spec, lik, cfg) == _reference_objective(theta, spec, data, cfg)
        got = _profile_objective(theta[:2], spec, lik, None)
        assert got == _reference_profile_objective(theta[:2], spec, data, None)
