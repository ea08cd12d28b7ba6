import math
import re

import numpy as np
import pytest

from catchain.bounds import bstar_from_b
from catchain.cli import sidak_z
from catchain.kernels import memory_state, table_kernel
from catchain.models import (
    BinaryInfiniteOrderSpec,
    ObservationDrivenBinarySpec,
    model_to_kernel,
)
from catchain.prob import SeededRng, maximal_coupling, tv_distance
from catchain.bounds import DivergenceError
from catchain.simulate import (
    AR1Covariates,
    FiniteStateMarkovCovariates,
    HorizonError,
    IIDCovariates,
    SamplePath,
    UnsupportedCovariateError,
    _coupled_partners,
    coupled_ladder_mc,
    covariate_coupling_coeffs,
    exact_marginal_law,
    glued_coupling,
    kernel_distance_profile,
    path_to_csv,
    sample_covariates,
    sample_forward,
)


# -- covariate models -----------------------------------------------------------


def test_iid_constant_and_zero_rho_paths():
    x = sample_covariates(IIDCovariates(kind="const", mean=0.0), 50, SeededRng(1))
    assert np.all(x == 0.0)
    x0 = sample_covariates(AR1Covariates(rho=0.0, sd=1.0), 20000, SeededRng(2))
    lag1 = np.corrcoef(x0[:-1, 0], x0[1:, 0])[0, 1]
    assert abs(lag1) < 0.03


def test_ar1_stationary_autocorrelation():
    model = AR1Covariates(rho=0.8, sd=1.0)
    x = sample_covariates(model, 100_000, SeededRng(3))[:, 0]
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert lag1 == pytest.approx(0.8, abs=0.05)
    assert x.std() == pytest.approx(model.stationary_sd, rel=0.05)


def test_finite_markov_invariant_start():
    model = FiniteStateMarkovCovariates(
        transition=((0.9, 0.1), (0.2, 0.8)), emission=((0.0,), (1.0,))
    )
    pi = model.invariant()
    np.testing.assert_allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    s = model.sample_states(60_000, SeededRng(4))
    assert s.mean() == pytest.approx(pi[1], abs=0.02)


@pytest.mark.parametrize(
    "model",
    [
        IIDCovariates(dim=2),
        AR1Covariates(rho=0.5, dim=2),
        FiniteStateMarkovCovariates(transition=((0.9, 0.1), (0.2, 0.8)), emission=((0.0, 1.0), (1.0, -1.0))),
    ],
    ids=lambda m: type(m).__name__,
)
def test_empty_covariate_path_has_the_model_dimension(model):
    x = sample_covariates(model, 0, SeededRng(8))
    assert x.shape == (0, 2)


_COVARIATE_MODELS = [
    IIDCovariates(dim=2),
    AR1Covariates(rho=0.5, dim=2),
    FiniteStateMarkovCovariates(transition=((0.9, 0.1), (0.2, 0.8)), emission=((0.0, 1.0), (1.0, -1.0))),
]


@pytest.mark.parametrize("length", [-1, 2.5, 2.0, True, False, "3", None])
@pytest.mark.parametrize("model", _COVARIATE_MODELS, ids=lambda m: type(m).__name__)
def test_covariate_path_rejects_a_bad_length_by_name(model, length):
    with pytest.raises(ValueError, match="length"):
        sample_covariates(model, length, SeededRng(8))


@pytest.mark.parametrize("model", _COVARIATE_MODELS, ids=lambda m: type(m).__name__)
def test_covariate_path_takes_a_numpy_integer_length(model):
    want = sample_covariates(model, 3, SeededRng(8))
    assert sample_covariates(model, np.int64(3), SeededRng(8)).tobytes() == want.tobytes()


@pytest.mark.parametrize("length", [-1, 2.5, 2.0, True, False, "3", None])
@pytest.mark.parametrize("model", _COVARIATE_MODELS, ids=lambda m: type(m).__name__)
def test_covariate_class_rejects_a_bad_length_by_name(model, length):
    with pytest.raises(ValueError, match=f"length must be an integer >= 0, got {re.escape(repr(length))}"):
        model.sample(length, SeededRng(8))
    if isinstance(model, FiniteStateMarkovCovariates):
        with pytest.raises(ValueError, match="length must be an integer >= 0"):
            model.sample_states(length, SeededRng(8))


@pytest.mark.parametrize("model", _COVARIATE_MODELS, ids=lambda m: type(m).__name__)
def test_covariate_class_takes_a_numpy_integer_length_and_horizon(model):
    assert model.sample(np.int64(3), SeededRng(8)).tobytes() == model.sample(3, SeededRng(8)).tobytes()
    got = model.coupling_coeffs(np.int64(8), "l1")
    assert got.values.tobytes() == model.coupling_coeffs(8, "l1").values.tobytes()


@pytest.mark.parametrize("horizon", [-1, 2.5, 2.0, True, "3", None])
@pytest.mark.parametrize("model", _COVARIATE_MODELS, ids=lambda m: type(m).__name__)
def test_coupling_coeffs_reject_a_bad_horizon_by_name(model, horizon):
    with pytest.raises(ValueError, match=f"horizon must be an integer >= 0, got {re.escape(repr(horizon))}"):
        model.coupling_coeffs(horizon, "l1")
    with pytest.raises(ValueError, match="horizon must be an integer >= 0"):
        covariate_coupling_coeffs(model, horizon)


@pytest.mark.parametrize("metric", ["bogus", "L1", "", None])
@pytest.mark.parametrize("model", _COVARIATE_MODELS, ids=lambda m: type(m).__name__)
def test_coupling_coeffs_reject_an_unknown_metric(model, metric):
    with pytest.raises(ValueError, match="metric must be 'l1' or 'discrete'"):
        model.coupling_coeffs(8, metric)


# -- forward sampling --------------------------------------------------------------


def test_sample_forward_memoryless_kernel_needs_no_burnin():
    k = model_to_kernel(BinaryInfiniteOrderSpec(a=[0.0], gamma=[0.6]))
    x = sample_covariates(IIDCovariates(), 64, SeededRng(5))
    path = sample_forward(k, x, 64, 1e-9, SeededRng(6))
    assert path.burnin_used == 0
    assert path.stationarity_gap_bound == 0.0
    assert path.y.size == 64


def test_sample_forward_burnin_matches_geometric_formula():
    k = model_to_kernel(ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3]))
    window, eps = 10, 1e-3
    x = np.zeros((window + 256, 1))
    path = sample_forward(k, x, window, eps, SeededRng(7))
    bs = bstar_from_b(k.b, 300).values
    sums = np.array([bs[n : n + window].sum() for n in range(260)])
    oracle = int(np.argmax(sums <= eps))
    assert path.burnin_used == oracle
    assert path.stationarity_gap_bound <= eps


def test_sample_forward_horizon_error_when_budget_too_small():
    k = model_to_kernel(ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3]))
    with pytest.raises(HorizonError):
        sample_forward(k, np.zeros((12, 1)), 10, 1e-9, SeededRng(8))


def test_sample_forward_two_initializations_tv_within_relaxation_bound():
    # memoryless-in-x binary kernel, exact laws vs empirical marginals
    table = np.array([[0.8, 0.2], [0.35, 0.65]])
    kern = table_kernel(table)
    reps = 40_000
    x = np.zeros((6, 1))
    gen = SeededRng(9).generator()
    counts = np.zeros((2, 6))
    for init in (0, 1):
        tab_cum = table.cumsum(axis=1)
        state = np.full(reps, init)
        for t in range(6):
            u = gen.random(reps)
            y = (tab_cum[state] < u[:, None]).sum(axis=1)
            counts[init, t] = y.mean()
            state = y
    bs = bstar_from_b(kern.b, 6).values
    for t in range(6):
        emp_tv = abs(counts[0, t] - counts[1, t])
        mc_err = 4.0 * math.sqrt(0.25 / reps) * 2
        assert emp_tv <= bs[t] + mc_err


def test_sample_forward_eps_refinement_certificates_compose():
    k = model_to_kernel(ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3]))
    x = np.zeros((400, 1))
    loose = sample_forward(k, x, 20, 1e-2, SeededRng(10))
    tight = sample_forward(k, x, 20, 1e-4, SeededRng(10))
    assert loose.stationarity_gap_bound + tight.stationarity_gap_bound <= 1.1e-2


# -- glued coupling ------------------------------------------------------------------


def test_glued_coupling_identical_setup_gives_identical_paths():
    spec = ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3])
    k = model_to_kernel(spec, max_lag_x=6)
    x = SeededRng(11).generator().normal(size=(8, 1))
    pair = glued_coupling(k, k, x, x, [0, 1, 0], [0, 1, 0], 8, SeededRng(12))
    assert not pair.mismatch.any()
    np.testing.assert_array_equal(pair.y1, pair.y2)


def test_glued_coupling_mismatch_rate_within_bound():
    table = np.array([[0.75, 0.25], [0.3, 0.7], [0.6, 0.4], [0.45, 0.55]])
    kern = table_kernel(table)
    length, reps = 6, 30_000
    y1, y2 = coupled_ladder_mc(table, table, 0, 3, 2, 2, length, reps, SeededRng(13))
    bs = bstar_from_b(kern.b, length).values
    mism = (y1 != y2).mean(axis=1)
    for t in range(1, length + 1):
        se = math.sqrt(max(mism[t - 1] * (1 - mism[t - 1]), 1e-9) / reps)
        assert mism[t - 1] <= bs[t - 1] + 4 * se


class _TopDraws(np.random.Generator):
    """Every uniform is nextafter(1, 0), the largest value ``random`` returns."""

    def random(self, size=None):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_ladder_draw_at_top_of_unit_interval_stays_in_alphabet():
    # this row's cumulative sum ends at 0.9999999999999998, below the draw
    row = [0.3448318529124632, 0.28698205780409697, 0.3681860892834397]
    assert np.cumsum(row)[-1] < np.nextafter(1.0, 0.0)
    table = np.array([row] * 3)
    y1, y2 = coupled_ladder_mc(table, table, 0, 0, 3, 1, 4, 5, _TopDraws(np.random.PCG64(0)))
    assert y1.max() == 2 and y2.max() == 2


def test_finite_state_draw_at_top_of_unit_interval_stays_in_the_state_space():
    # each row's cumulative sum ends at 0.9999999999999998, below the draw,
    # which lies within the 1e-10 the class allows a row to miss 1 by
    row = (0.3448318529124632, 0.28698205780409697, 0.3681860892834397)
    model = FiniteStateMarkovCovariates(transition=(row,) * 3, emission=((0.0,), (1.0,), (2.0,)))
    states = model.sample_states(6, _TopDraws(np.random.PCG64(0)))
    assert states.min() >= 0 and states[1:].tolist() == [2] * 5
    np.testing.assert_array_equal(model.sample(6, _TopDraws(np.random.PCG64(0)))[1:, 0], 2.0)


def test_ladder_runs_on_2_to_the_11_memory_states():
    # 2**11 memory states would be 2**22 code pairs; each step reads the two tables
    gen = SeededRng(0).generator()
    table = 0.8 * gen.dirichlet(np.ones(2), size=2**11) + 0.1
    y1, y2 = coupled_ladder_mc(table, table, 5, 5, 2, 11, 3, 64, SeededRng(0))
    assert y1.shape == y2.shape == (3, 64)
    assert set(np.unique(y1)) <= {0, 1} and set(np.unique(y2)) <= {0, 1}
    np.testing.assert_array_equal(y1, y2)


_LADDER_TABLE = np.array([[0.75, 0.25], [0.3, 0.7], [0.6, 0.4], [0.45, 0.55]])


@pytest.mark.parametrize(
    "change, name",
    [
        ({"table_a": _LADDER_TABLE[:3]}, "table_a"),  # not (N^memory, N)
        ({"table_b": _LADDER_TABLE[:2]}, "table_b"),  # the tables differ in shape
        ({"table_b": _LADDER_TABLE + [[0.3, -0.3], [0, 0], [0, 0], [0, 0]]}, "table_b"),  # negative entry
        ({"table_a": np.where(_LADDER_TABLE == 0.3, np.nan, _LADDER_TABLE)}, "table_a"),  # not finite
        ({"table_a": _LADDER_TABLE * [[1.0, 0.9]]}, "table_a"),  # a row sums to 0.975
        ({"code_a0": -1}, "code_a0"),
        ({"code_b0": 4}, "code_b0"),
        ({"replicas": 0}, "replicas"),
        ({"length": -1}, "length"),
    ],
    ids=["shape", "shapes-differ", "negative", "nan", "row-sum", "code-negative", "code-past-range", "replicas", "length"],
)
def test_ladder_rejects_malformed_input_by_name(change, name):
    args = dict(
        table_a=_LADDER_TABLE, table_b=_LADDER_TABLE, code_a0=0, code_b0=3,
        n_categories=2, memory=2, length=4, replicas=8,
    )
    with pytest.raises(ValueError, match=name):
        coupled_ladder_mc(**{**args, **change}, rng=SeededRng(0))


def test_glued_coupling_runs_on_kernel_past_the_table_limit():
    # the README spec keeps 46 lags: 2**46 memory states, far past any table
    k = model_to_kernel(ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3]))
    assert k.truncation.max_lag_y == 46
    x = SeededRng(15).generator().normal(size=(6, 1))
    for length in (4, 5, 6):
        same = glued_coupling(k, k, x, x, [1, 0], [1, 0], length, SeededRng(16, length))
        assert same.y1.shape == same.y2.shape == same.mismatch.shape == (length,)
        assert set(same.y1) | set(same.y2) <= {0, 1}
        assert not same.mismatch.any()
        swapped = glued_coupling(k, k, x, x, [1, 1, 1], [0, 0, 0], length, SeededRng(17, length))
        assert set(swapped.y1) | set(swapped.y2) <= {0, 1}
        np.testing.assert_array_equal(swapped.mismatch, swapped.y1 != swapped.y2)


@pytest.mark.parametrize(
    "p, q",
    [
        ([0.2, 0.5, 0.3], [0.2, 0.5, 0.3]),  # identical: never moves
        ([0.6, 0.4, 0.0], [0.0, 0.0, 1.0]),  # disjoint supports: always moves
        ([0.5, 0.3, 0.2], [0.1, 0.45, 0.45]),
    ],
)
def test_coupled_step_joint_law_is_the_maximal_coupling(p, q):
    p, q = np.array(p), np.array(q)
    joint = maximal_coupling(p, q).joint
    reps = 200_000
    gen = SeededRng(18).generator()
    u = np.minimum((np.cumsum(p) < gen.random(reps)[:, None]).sum(axis=1), 2)
    rows = np.zeros(reps, dtype=np.int64)
    v = _coupled_partners(p[None], q[None], rows, rows, u, gen)
    if tv_distance(p, q) == 0.0:
        np.testing.assert_array_equal(v, u)
    if not (np.minimum(p, q) > 0).any():
        assert (v != u).all()
    counts = np.bincount(u * 3 + v, minlength=9).reshape(3, 3)
    assert (counts[joint == 0] == 0).all()
    live = joint > 0
    # one two-sided z-test per cell of positive mass, held to 1e-4 together
    z = np.abs(counts[live] / reps - joint[live]) / np.sqrt(joint[live] * (1 - joint[live]) / reps)
    assert z.max() <= sidak_z(1e-4, int(live.sum()), 2)


def test_single_draw_glued_coupling_matches_ladder_statistics():
    table = np.array([[0.75, 0.25], [0.3, 0.7], [0.6, 0.4], [0.45, 0.55]])
    kern = table_kernel(table)
    x = np.zeros((5, 1))
    hits = 0
    n_draws = 800
    for i in range(n_draws):
        pair = glued_coupling(kern, kern, x, x, [0, 0], [1, 1], 5, SeededRng(14, i))
        hits += int(pair.mismatch[4])
    bs = bstar_from_b(kern.b, 5).values
    rate = hits / n_draws
    assert rate <= bs[4] + 4 * math.sqrt(max(rate * (1 - rate), 1e-9) / n_draws)


def test_kernel_distance_profile_exact_sup():
    t_a = np.array([[0.8, 0.2], [0.4, 0.6]])
    t_b = np.array([[0.7, 0.3], [0.4, 0.6]])
    prof = kernel_distance_profile(table_kernel(t_a), table_kernel(t_b), np.zeros((4, 1)), np.zeros((4, 1)), 4)
    np.testing.assert_allclose(prof[1:], 0.1)


@pytest.mark.parametrize("short", ["x_a", "x_b"])
def test_length_past_the_covariate_rows_is_rejected_naming_the_path(short):
    # the kernel reads the covariate at every time, so a missing row would
    # silently repeat the last one
    k = model_to_kernel(BinaryInfiniteOrderSpec(a=[0.5, 0.25], gamma=[0.8]), max_lag_y=2)
    rows = {"x_a": np.ones((6, 1)), "x_b": np.ones((6, 1))}
    rows[short] = np.ones((3, 1))
    with pytest.raises(ValueError, match=f"covariate path {short} of 3 rows"):
        kernel_distance_profile(k, k, rows["x_a"], rows["x_b"], 6)
    with pytest.raises(ValueError, match=f"covariate path {short} of 3 rows"):
        glued_coupling(k, k, rows["x_a"], rows["x_b"], [0, 0], [1, 1], 6, SeededRng(15))
    assert kernel_distance_profile(k, k, rows["x_a"], rows["x_b"], 3).shape == (4,)


# -- exact laws ------------------------------------------------------------------------


def test_exact_marginal_law_memoryless_kernel_returns_kernel_row():
    k = model_to_kernel(BinaryInfiniteOrderSpec(a=[0.0], gamma=[0.5]), max_lag_y=1)
    law = exact_marginal_law(k, np.array([[0.4], [0.8]]), [0], 2)
    from scipy.special import expit

    np.testing.assert_allclose(law, [1 - expit(0.4), expit(0.4)], atol=1e-12)


def test_exact_marginal_law_converges_to_invariant_vector():
    table = np.array([[0.9, 0.1], [0.3, 0.7]])
    kern = table_kernel(table)
    law = exact_marginal_law(kern, np.zeros((200, 1)), [0], 200)
    evals, evecs = np.linalg.eig(table.T)
    pi = np.real(evecs[:, np.argmin(np.abs(evals - 1))])
    pi = np.abs(pi) / np.abs(pi).sum()
    np.testing.assert_allclose(law, pi, atol=1e-12)


def test_exact_marginal_tv_below_bstar_memory_two():
    gen = SeededRng(15).generator()
    raw = gen.dirichlet(np.ones(2), size=4)
    table = 0.7 * raw + 0.3 / 2
    kern = table_kernel(table)
    bs = bstar_from_b(kern.b, 10).values
    x = np.zeros((10, 1))
    law_a = exact_marginal_law(kern, x, list(memory_state(0, 2, 2)), 10)
    law_b = exact_marginal_law(kern, x, list(memory_state(3, 2, 2)), 10)
    assert tv_distance(law_a, law_b) <= bs[9] + 1e-12


# -- covariate coupling coefficients ------------------------------------------------------


def test_coupling_coeffs_iid_vanish_after_time_zero():
    seq = covariate_coupling_coeffs(IIDCovariates(), 6)
    assert np.all(seq.values[1:] == 0.0)


def test_coupling_coeffs_ar1_closed_form_and_monte_carlo():
    model = AR1Covariates(rho=0.5, sd=1.0)
    seq = covariate_coupling_coeffs(model, 6)
    sigma = model.stationary_sd
    expected0 = 2.0 * sigma / math.sqrt(math.pi)
    assert seq.values[0] == pytest.approx(expected0, rel=1e-12)
    assert seq.values[3] == pytest.approx(expected0 * 0.125, rel=1e-12)
    gen = SeededRng(16).generator()
    x0 = sigma * gen.normal(size=200_000)
    x0p = sigma * gen.normal(size=200_000)
    t = 3
    mc = np.abs(0.5**t * (x0 - x0p)).mean()
    assert mc == pytest.approx(seq.values[t], rel=0.02)


def test_coupling_coeffs_ar1_discrete_metric_unsupported():
    with pytest.raises(UnsupportedCovariateError):
        covariate_coupling_coeffs(AR1Covariates(rho=0.5), 4, metric="discrete")


def test_coupling_coeffs_two_state_meeting_time():
    model = FiniteStateMarkovCovariates(
        transition=((0.9, 0.1), (0.1, 0.9)), emission=((0.0,), (1.0,))
    )
    seq = covariate_coupling_coeffs(model, 12, metric="discrete")
    # independent-until-meeting: off-diagonal mass shrinks by the meeting
    # probability 2 * 0.9 * 0.1 each step
    decay = 1.0 - 2 * 0.9 * 0.1
    np.testing.assert_allclose(seq.values[1:], 0.5 * decay ** np.arange(1, 13), rtol=1e-12)
    # Monte Carlo cross-check at t = 4
    gen = SeededRng(17).generator()
    reps = 100_000
    s1 = (gen.random(reps) < 0.5).astype(int)
    s2 = (gen.random(reps) < 0.5).astype(int)
    P = np.array([[0.9, 0.1], [0.1, 0.9]])
    for _ in range(4):
        stay1 = gen.random(reps) < P[s1, s1]
        nxt1 = np.where(stay1, s1, 1 - s1)
        together = s1 == s2
        stay2 = gen.random(reps) < P[s2, s2]
        nxt2 = np.where(together, nxt1, np.where(stay2, s2, 1 - s2))
        s1, s2 = nxt1, nxt2
    mc = float((s1 != s2).mean())
    assert mc == pytest.approx(seq.values[4], abs=4 * math.sqrt(0.25 / reps))


# -- CSV export ---------------------------------------------------------------------------


def test_path_csv_header_and_length():
    k = model_to_kernel(ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3]))
    x = sample_covariates(IIDCovariates(), 120, SeededRng(18))
    path = sample_forward(k, x, 30, 1e-2, SeededRng(19))
    text = path_to_csv(path)
    lines = text.splitlines()
    assert lines[0] == "t,y,x_1,lambda_1"
    assert len(lines) == 31


def test_path_csv_writes_a_1d_lam_of_one_value_per_time_as_one_column():
    path = SamplePath(np.array([0, 1, 1]), np.zeros((3, 1)), np.array([0.1, 0.2, 0.3]), 0, 0.0)
    assert path_to_csv(path).splitlines() == [
        "t,y,x_1,lambda_1",
        "1,0,0.0,0.1",
        "2,1,0.0,0.2",
        "3,1,0.0,0.3",
    ]
    # a one-row path keeps reading a 1-d lam as that row's latent block
    one = SamplePath(np.array([1]), np.zeros((1, 1)), np.array([0.5, -0.25]), 0, 0.0)
    assert path_to_csv(one).splitlines() == ["t,y,x_1,lambda_1,lambda_2", "1,1,0.0,0.5,-0.25"]


def test_path_csv_rejects_lam_rows_that_do_not_match_the_path():
    path = SamplePath(np.array([0, 1, 1]), np.zeros((3, 1)), np.array([0.1, 0.2]), 0, 0.0)
    with pytest.raises(ValueError, match="lam"):
        path_to_csv(path)


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
def test_gaussian_norm_p_is_the_absolute_moment(p):
    from scipy.integrate import quad
    from scipy.stats import norm

    def abs_moment(mean, sd):
        val, _ = quad(lambda v: abs(v) ** p * norm.pdf(v, mean, sd), -np.inf, np.inf, epsabs=0, epsrel=1e-13)
        return val ** (1.0 / p)

    iid = IIDCovariates(mean=0.7, sd=1.3, dim=2)
    assert iid.norm_p(p) == pytest.approx(2 * abs_moment(0.7, 1.3), rel=1e-9)
    ar1 = AR1Covariates(rho=0.5, sd=1.0)
    assert ar1.norm_p(p) == pytest.approx(abs_moment(0.0, ar1.stationary_sd), rel=1e-9)


@pytest.mark.parametrize(
    "make",
    [
        lambda: IIDCovariates(sd=-1.0),
        lambda: IIDCovariates(sd=math.inf),
        lambda: IIDCovariates(mean=math.nan),
        lambda: IIDCovariates(mean=-math.inf),
        lambda: IIDCovariates(mean=True),
        lambda: IIDCovariates(sd="x"),
        lambda: IIDCovariates(dim=0),
        lambda: IIDCovariates(dim=1.5),
        lambda: IIDCovariates(kind="const", mean=0.5, dim=True),
        lambda: IIDCovariates(kind="foo"),
        lambda: AR1Covariates(rho=0.5, sd=-1.0),
        lambda: AR1Covariates(rho=0.5, sd=None),
        lambda: AR1Covariates(rho=0.5, dim=0),
    ],
)
def test_gaussian_covariates_reject_fields_they_cannot_certify(make):
    with pytest.raises(ValueError):
        make()


def test_gaussian_covariates_accept_zero_sd():
    assert IIDCovariates(sd=0.0).exp_abs() == 0.0
    assert AR1Covariates(rho=0.5, sd=0, dim=np.int64(2)).dim == 2


@pytest.mark.parametrize("metric", ["l1", "discrete"])
def test_periodic_covariate_chain_has_no_certified_tail(metric):
    # the copies start apart with probability 1/2 and swap states forever
    model = FiniteStateMarkovCovariates(transition=((0.0, 1.0), (1.0, 0.0)), emission=((0.0,), (1.0,)))
    with pytest.raises(DivergenceError):
        covariate_coupling_coeffs(model, 64, metric=metric)


def test_covariate_chain_without_unique_invariant_law_is_rejected():
    with pytest.raises(UnsupportedCovariateError):
        FiniteStateMarkovCovariates(transition=((1.0, 0.0), (0.0, 1.0)), emission=((0.0,), (1.0,)))
    with pytest.raises(UnsupportedCovariateError):
        FiniteStateMarkovCovariates(
            transition=((0.5, 0.5, 0.0), (0.5, 0.5, 0.0), (0.0, 0.0, 1.0)),
            emission=((0.0,), (1.0,), (2.0,)),
        )


@pytest.mark.parametrize(
    "transition,emission,field",
    [
        (((1.0,),), ((0.0,), (1.0,)), "emission"),
        (((0.9, 0.1), (0.2, 0.8)), ((0.0,),), "emission"),
        (((0.9, 0.1), (0.2, 0.8)), ((0.0,), (math.nan,)), "emission"),
        (((0.9, 0.1),), ((0.0,),), "transition"),
        ((1.0,), ((0.0,),), "transition"),
        (((0.9, math.inf), (0.2, 0.8)), ((0.0,), (1.0,)), "transition"),
        (((0.9, 0.1), (0.2,)), ((0.0,), (1.0,)), "transition"),
        (((0.9, "x"), (0.2, 0.8)), ((0.0,), (1.0,)), "transition"),
    ],
    ids=["one-state-two-rows", "two-states-one-row", "nan-emission", "non-square", "flat", "inf", "ragged", "text"],
)
def test_covariate_chain_rejects_malformed_matrices_by_name(transition, emission, field):
    # a 1x1 transition next to two emission rows used to end `bounds` in a matmul error
    with pytest.raises(UnsupportedCovariateError, match=field):
        FiniteStateMarkovCovariates(transition=transition, emission=emission)


def test_covariate_chain_accepts_one_number_per_state_as_emission():
    model = FiniteStateMarkovCovariates(transition=((0.9, 0.1), (0.2, 0.8)), emission=(0.0, 1.0))
    assert model.dim == 1 and model.n_states == 2
