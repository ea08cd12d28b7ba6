import math
import time
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import expit, ndtr

from catchain.cli import check_config
from catchain.kernels import (
    CertificationError,
    GridSpec,
    KernelInputError,
    UnsupportedKernelError,
    b_seq_certified,
    certify_b0,
    covariate_sensitivity_check,
    e_seq_certified,
    enumerate_b_exact,
    kernel_eval,
    memory_state,
    successor_code,
    table_kernel,
    transition_table,
)
from catchain.kernels import memory_step, state_code
from catchain.models import (
    BinaryInfiniteOrderSpec,
    ObservationDrivenBinarySpec,
    model_to_kernel,
    probit_link,
)
from catchain.prob import SeededRng
from test_golden_outputs import FAMILIES


def test_kernel_eval_zero_parameters_is_fair_coin():
    k = model_to_kernel(ObservationDrivenBinarySpec(alpha=[0.0], beta=[0.0], gamma=[0.0]))
    assert kernel_eval(k, 1, [1, 0, 1], [[0.5], [0.1], [0.0]]) == pytest.approx(0.5)
    kp = model_to_kernel(
        ObservationDrivenBinarySpec(alpha=[0.0], beta=[0.0], gamma=[0.0], link=probit_link())
    )
    assert kernel_eval(kp, 1, [0], [[0.0]]) == pytest.approx(0.5)


def test_kernel_eval_direct_link_value():
    # gamma = 1 and a unit covariate pin the index at 1
    k = model_to_kernel(BinaryInfiniteOrderSpec(a=[0.0], gamma=[1.0]))
    assert kernel_eval(k, 1, [0], [[1.0]]) == pytest.approx(expit(1.0), abs=1e-12)


def test_kernel_probabilities_sum_to_one_on_random_histories():
    gen = SeededRng(17).generator()
    kernels = [
        model_to_kernel(ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3])),
        model_to_kernel(BinaryInfiniteOrderSpec(a=[0.5, -0.2], gamma=[0.7])),
    ]
    for k in kernels:
        for _ in range(1000):
            y = gen.integers(0, k.n_categories, size=k.truncation.max_lag_y)
            x = gen.normal(size=(k.truncation.max_lag_x, k.covariate_dim))
            assert abs(k.probs(y, x).sum() - 1.0) < 1e-10


def test_truncation_error_bound_shrinks_with_depth():
    from catchain.kernels import truncation_error_bound

    spec = ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3])
    shallow = truncation_error_bound(model_to_kernel(spec, max_lag_x=6))
    deep = truncation_error_bound(model_to_kernel(spec, max_lag_x=24))
    assert deep < shallow
    assert deep >= 0.0


def test_kernel_rejects_bad_inputs():
    k = model_to_kernel(ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3]))
    with pytest.raises(KernelInputError):
        k.probs([5], [[0.0]])
    with pytest.raises(KernelInputError):
        k.probs([0], [[np.inf]])
    with pytest.raises(KernelInputError):
        kernel_eval(k, 3, [0], [[0.0]])


def test_certify_b0_logistic_matches_calculus():
    # sup over shifts of size 1 sits at the symmetric point: 2 F(1/2) - 1
    got = certify_b0(("binary", expit, 0.25), 1.0)
    assert got == pytest.approx(2.0 * expit(0.5) - 1.0, abs=1e-3)
    assert got < 1.0
    assert certify_b0(("binary", expit, 0.25), 0.0) == 0.0


def test_certify_b0_probit_and_boundary_grid():
    got = certify_b0(("binary", ndtr, 1.0 / np.sqrt(2 * np.pi)), 2.0, GridSpec(step=5e-3))
    assert got == pytest.approx(2.0 * ndtr(1.0) - 1.0, abs=5e-3)


def test_certify_b0_multinomial_and_choice_below_one():
    assert certify_b0(("multinomial", 3), 1.0) < 1.0
    assert certify_b0(("discrete_choice", expit, 2, 0.25), 1.0) < 1.0


def test_certify_b0_failure_for_degenerate_link():
    step_cdf = lambda z: (np.asarray(z) > 0).astype(float)  # noqa: E731
    with pytest.raises(CertificationError):
        certify_b0(("binary", step_cdf, 1e6), 1.0)


def test_certified_b_envelope_infinite_order_tail_sums():
    spec = BinaryInfiniteOrderSpec(a=[0.4, 0.2], gamma=[0.0])
    k = model_to_kernel(spec)
    b = b_seq_certified(k, 4, method="envelope")
    assert b.value(1) == pytest.approx(0.25 * 0.2, abs=1e-12)
    assert b.value(2) == 0.0
    exact = enumerate_b_exact(k)
    for m in range(len(exact.values)):
        assert exact.values[m] <= b.value(m) + 1e-12


def test_pure_covariate_model_has_no_category_memory():
    k = model_to_kernel(BinaryInfiniteOrderSpec(a=[0.0], gamma=[0.8]))
    b = b_seq_certified(k, 6, method="envelope")
    assert b.values[0] == 0.0
    assert np.all(b.values[1:] == 0.0)


def test_enumerated_b_nonincreasing_and_below_envelope():
    spec = ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3])
    k = model_to_kernel(spec, max_lag_x=8)
    exact = enumerate_b_exact(k)
    assert np.all(np.diff(exact.values) <= 1e-14)
    for m in range(len(exact.values)):
        assert exact.values[m] <= k.b.value(m) + 1e-12


def test_b_seq_certified_auto_uses_enumeration_for_small_instances():
    spec = ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3])
    k = model_to_kernel(spec, max_lag_x=6)
    auto = b_seq_certified(k, 10, method="auto")
    env = b_seq_certified(k, 10, method="envelope")
    assert np.all(auto.values <= env.head(11) + 1e-12)


def test_e_seq_zero_when_no_covariate_effect():
    k = model_to_kernel(ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.0]))
    e = e_seq_certified(k, 8)
    assert np.all(e.values == 0.0)


def test_e_seq_markov_with_covariate_envelope():
    k = model_to_kernel(BinaryInfiniteOrderSpec(a=[0.3], gamma=[1.0]))
    e = e_seq_certified(k, 4)
    assert e.values[0] <= 0.25 + 1e-12
    assert np.all(e.values[1:] == 0.0)


def test_finite_difference_sensitivity_below_envelope():
    spec = ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[1.0])
    k = model_to_kernel(spec, max_lag_x=12)
    worst = covariate_sensitivity_check(k, SeededRng(5), lags=6, n_histories=20)
    assert worst <= 1.0 + 1e-4


def test_transition_table_and_state_codes():
    table = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.3, 0.7]])
    k = table_kernel(table)
    assert memory_state(2, 2, 2) == (1, 0)
    assert successor_code(2, 1, 2, 2) == 3
    got = transition_table(k, np.zeros((1, 1)))
    np.testing.assert_allclose(got, table)
    np.testing.assert_allclose(k.probs([1, 0], np.zeros((1, 1))), table[2])


def test_table_kernel_requires_subunit_sensitivity():
    disjoint = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(CertificationError):
        table_kernel(disjoint)


def test_truncation_pads_short_histories_with_reference_category():
    spec = ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3])
    k = model_to_kernel(spec, max_lag_x=6)
    full = k.probs([0] * k.truncation.max_lag_y, np.zeros((6, 1)))
    padded = k.probs([], np.zeros((0, 1)))
    np.testing.assert_allclose(full, padded, atol=1e-15)


def test_enumeration_guard_on_large_instances():
    spec = ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3])
    k = model_to_kernel(spec, max_lag_x=40)
    with pytest.raises(UnsupportedKernelError):
        enumerate_b_exact(k)


def test_state_code_inverts_memory_state_and_pads_short_pasts():
    for n, mem in ((2, 1), (3, 2), (2, 3)):
        codes = np.arange(n**mem)
        for code in codes:
            assert state_code(memory_state(int(code), n, mem), n, mem) == code
        # the array form decodes every code at once, digit by digit
        digits = memory_state(codes, n, mem)
        for i, code in enumerate(codes):
            assert tuple(int(d[i]) for d in digits) == memory_state(int(code), n, mem)
    assert state_code([1], 3, 2) == state_code([1, 0], 3, 2) == 3
    assert state_code([2, 1, 1, 1], 3, 2) == 7


def test_memory_step_moves_mass_to_successor_codes():
    n, mem = 3, 2
    table = np.random.default_rng(4).dirichlet(np.ones(n), size=n**mem)
    for code in range(n**mem):
        dist = np.zeros(n**mem)
        dist[code] = 1.0
        want = np.zeros(n**mem)
        for y in range(n):
            want[successor_code(code, y, n, mem)] += table[code, y]
        np.testing.assert_array_equal(memory_step(dist, table), want)
    stack = np.random.default_rng(5).dirichlet(np.ones(n**mem), size=(2, 3))
    stepped = memory_step(stack, table)
    assert stepped.shape == stack.shape
    np.testing.assert_array_equal(stepped[1, 2], memory_step(stack[1, 2], table))


@pytest.mark.parametrize(
    "n_categories,grid",
    [(2, GridSpec()), (3, GridSpec()), (4, GridSpec(lo=-6.0, hi=6.0))],
    ids=["N2", "N3", "N4-coarse"],
)
@pytest.mark.parametrize("c", [0.1, 0.42857142857142866, 1.0, 2.0])
def test_certify_b0_multinomial_brackets_hilbert_closed_form(n_categories, grid, c):
    # Over the shift cube the log-ratio spread is c for N = 2 and 2c for
    # N >= 3, and the sup of the TV sensitivity is the Hilbert-metric bound
    # tanh(spread / 4).  The certificate covers it; the grid sup (the
    # certificate less its continuity correction) stays below it.
    dims = n_categories - 1
    exact = math.tanh(c / 4.0) if n_categories == 2 else math.tanh(c / 2.0)
    step = max(grid.step, {1: grid.step, 2: 0.05, 3: 0.25}[dims])
    got = certify_b0(("multinomial", n_categories), c, grid)
    assert got >= exact
    assert got - 0.25 * dims * step <= exact + 1e-12


def _tanh_exact(x: float) -> Decimal:
    """tanh(x) worked in enough digits that ``exp(2x) - 1`` keeps the
    smallest subnormal."""
    with localcontext() as ctx:
        ctx.prec = 400
        e = (2 * Decimal(x)).exp()
        return (e - 1) / (e + 1)


@pytest.mark.parametrize("n_categories", range(2, 9))
def test_certify_b0_multinomial_is_the_closed_form_within_four_ulps(n_categories):
    # the exact sup is tanh(c/4) for two categories and tanh(c/2) from three
    # on; the certificate lies at most four ulps above it, with no grid
    cs = [5e-324, 1e-300, 1e-8, 0.1, 0.42857142857142866, 1.0, 2.0, math.pi, 4.0]
    cs += list(np.random.default_rng(n_categories).uniform(0.0, 4.0, size=200))
    start = time.perf_counter()
    certs = [certify_b0(("multinomial", n_categories), c) for c in cs]
    assert (time.perf_counter() - start) / len(cs) < 1e-3
    for c, got in zip(cs, certs):
        exact = _tanh_exact(c / 4.0 if n_categories == 2 else c / 2.0)
        assert exact <= Decimal(got) <= exact + 4 * Decimal(math.ulp(float(exact))), c


def test_certify_b0_choice_sweep_memory_stays_bounded():
    # the blocked sweep holds a few blocks of the 803 x 803 mesh at a time,
    # not the whole mesh per law (about 79 MiB in one block)
    tracemalloc.start()
    try:
        certify_b0(("discrete_choice", expit, 2, 0.25), 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
@pytest.mark.parametrize(
    "profile",
    [("binary", expit, 0.25), ("multinomial", 3), ("discrete_choice", expit, 2, 0.25)],
    ids=["binary", "multinomial", "choice"],
)
def test_certify_b0_rejects_non_finite_or_negative_shift_by_name(profile, bad):
    with pytest.raises(ValueError, match="bound_on_category_part"):
        certify_b0(profile, bad)


MALFORMED_PROFILES = [
    (("binary", expit, -1.0), "lipschitz"),
    (("binary", expit, math.nan), "lipschitz"),
    (("binary", expit, math.inf), "lipschitz"),
    (("discrete_choice", expit, 2, math.nan), "lipschitz"),
    (("discrete_choice", expit, 1, -0.25), "lipschitz"),
    (("multinomial", 1), "n_categories"),
    (("multinomial", 0), "n_categories"),
    (("multinomial", 2.5), "n_categories"),
    (("discrete_choice", expit, 0, 0.25), "n_components"),
    (("discrete_choice", expit, -1, 0.25), "n_components"),
    (("discrete_choice", expit, 2.0, 0.25), "n_components"),
]


@pytest.mark.parametrize("profile,name", MALFORMED_PROFILES)
def test_certify_b0_rejects_malformed_profile_parameters_by_name(profile, name):
    with pytest.raises(ValueError, match=name):
        certify_b0(profile, 1.0)


@pytest.mark.parametrize("profile,name", MALFORMED_PROFILES + [(("nonsense",), "nonsense")])
def test_certify_b0_checks_the_profile_before_a_zero_shift(profile, name):
    # a zero shift returned 0.0 before the profile was read
    with pytest.raises((ValueError, UnsupportedKernelError), match=name):
        certify_b0(profile, 0.0)


def test_certify_b0_rejects_an_unknown_profile_by_name():
    with pytest.raises(UnsupportedKernelError, match="nonsense"):
        certify_b0(("nonsense",), 1.0)


BOX_MISSING_SUP = GridSpec(lo=-6.0, hi=-3.0, step=0.01, boundary=6.0)


def test_binary_b0_covers_the_sup_off_the_grid_box():
    # the sup of |F(z + 1) - F(z)| sits at z = -1/2, outside [-6, -3]; the
    # sweep alone certified 0.0743, below tanh(1/4)
    assert certify_b0(("binary", expit, 0.25), 1.0, BOX_MISSING_SUP) >= math.tanh(0.25)


def test_choice_b0_covers_the_sup_off_the_grid_box():
    # the sweep alone certified 0.1566, half the default grid's value
    got = certify_b0(("discrete_choice", expit, 2, 0.25), 1.0, BOX_MISSING_SUP)
    assert got >= certify_b0(("discrete_choice", expit, 2, 0.25), 1.0)


# b0 of the golden-output families, which the benchmark's models share, and
# of verify's own certificates, recorded before the off-box tail bounds: on
# the default grid the tails do not bind, so each keeps its float
RECORDED_B0 = {
    "observation_driven_binary": "0x1.94bc9579d1e65p-3",
    "binary_infinite_order": "0x1.d7e96ef34c03fp-3",
    "nonlinear_binary": "0x1.a9693767c929bp-3",
    "multinomial": "0x1.b042d554727f9p-3",
    "discrete_choice": "0x1.8ad27a6466432p-3",
}
RECORDED_VERIFY_B0 = [
    (("binary", expit, 0.25), "0x1.f61afcd839559p-3"),
    (("multinomial", 3), "0x1.d9353d7568af5p-2"),
    (("discrete_choice", expit, 2, 0.25), "0x1.40d51a05383cbp-2"),
]


def test_default_grid_certificates_keep_their_floats():
    for name, (block, _, _) in FAMILIES.items():
        model = check_config({"model": block})["model"]
        assert model_to_kernel(model).b0_certificate == float.fromhex(RECORDED_B0[name]), name
    for profile, recorded in RECORDED_VERIFY_B0:
        assert certify_b0(profile, 1.0) == float.fromhex(recorded), profile[0]


def test_certify_b0_raises_on_a_nan_sup():
    with pytest.raises(CertificationError):
        certify_b0(("binary", lambda z: np.full_like(z, np.nan), 0.25), 1.0)


@pytest.mark.parametrize("cdf,lipschitz", [(expit, 0.25), (ndtr, 1.0 / math.sqrt(2.0 * math.pi))])
@pytest.mark.parametrize("c", [0.3, 1.0, 2.5])
def test_one_component_choice_b0_is_the_binary_sweep(cdf, lipschitz, c):
    # a single component is Bernoulli(1 - F(-z)), so the binary sweep
    # certifies it; for the logistic the exact sup is tanh(c/4)
    got = certify_b0(("discrete_choice", cdf, 1, lipschitz), c)
    assert got == certify_b0(("binary", cdf, lipschitz), c)
    if cdf is expit:
        assert math.tanh(c / 4.0) <= got <= math.tanh(c / 4.0) + 2.0 * lipschitz * GridSpec().step


@pytest.mark.parametrize(
    "fields",
    [
        {"step": -1e-3},
        {"step": 0.0},
        {"step": math.nan},
        {"step": math.inf},
        {"lo": 1.0, "hi": 1.0},
        {"lo": 2.0, "hi": -2.0},
        {"lo": math.nan},
        {"hi": math.inf},
        {"boundary": 10.0},
        {"lo": -50.0},
        {"boundary": math.inf},
    ],
)
def test_grid_spec_rejects_invalid_fields(fields):
    with pytest.raises(ValueError, match="grid"):
        GridSpec(**fields)


def test_grid_spec_accepts_boundary_on_the_sweep_edge():
    axis = GridSpec(lo=-6.0, hi=6.0, step=0.5, boundary=6.0).axis()
    assert axis[0] == -6.0 and axis[-1] == 6.0
