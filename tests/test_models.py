import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import expit

import catchain

from catchain.kernels import enumerate_b_exact
from catchain.models import (
    BinaryInfiniteOrderSpec,
    ConstructionError,
    DiscreteChoiceSpec,
    MultinomialSpec,
    NonlinearBinarySpec,
    ObservationDrivenBinarySpec,
    _latent_scan,
    companion_matrix,
    contraction_constants,
    discrete_choice_cellprob,
    latent_path,
    latent_recursion,
    logistic_link,
    model_to_kernel,
    probit_link,
    russell_damping,
    stationarity_check,
)
from catchain.prob import SeededRng


def spec_od(alpha=(0.4,), beta=(0.5,), gamma=(0.3,)):
    return ObservationDrivenBinarySpec(alpha=list(alpha), beta=list(beta), gamma=list(gamma))


# -- stationarity ---------------------------------------------------------------


def test_stationarity_scalar_cases():
    assert stationarity_check(spec_od(beta=(0.5,))).passed
    assert stationarity_check(spec_od(beta=(0.5,))).spectral_radius == pytest.approx(0.5)
    assert not stationarity_check(spec_od(beta=(1.0,))).passed


def test_stationarity_two_lag_roots_match_quadratic_oracle():
    report = stationarity_check(spec_od(beta=(0.5, 0.3)))
    # reciprocals of the roots of 1 - 0.5 z - 0.3 z^2
    roots = np.roots([-0.3, -0.5, 1.0])
    rho_oracle = max(1.0 / np.abs(roots))
    assert report.spectral_radius == pytest.approx(rho_oracle, rel=1e-10)
    assert report.passed


def test_stationarity_multinomial_matrix_roots():
    bad = MultinomialSpec(
        A=[np.zeros((2, 2))], B=[np.eye(2)], Gamma=np.zeros((2, 1)), n_categories=3
    )
    assert not stationarity_check(bad).passed


# -- latent recursion -------------------------------------------------------------


def test_latent_recursion_zero_spec_stays_at_zero():
    spec = spec_od(alpha=(0.0,), beta=(0.0,), gamma=(0.0,))
    lam = latent_recursion(spec, [1, 1, 1, 1], np.ones((4, 1)), 3)
    assert np.all(lam == 0.0)


def test_latent_recursion_constant_forcing_geometric_series():
    # constant forcing u through a 0.5-damped recursion: n steps give
    # u * (1 - 0.5^n) / (1 - 0.5)
    spec = spec_od(alpha=(0.0,), beta=(0.5,), gamma=(1.0,))
    u = 0.7
    for n in (1, 3, 8):
        lam = latent_recursion(spec, [0] * (n + 2), np.full((n + 2, 1), u), n)
        assert lam[0] == pytest.approx(u * (1 - 0.5**n) / 0.5, rel=1e-12)


def test_latent_path_contracts_initializations():
    # zero forcing isolates the homogeneous part, where halving is exact in
    # binary floats, so the contraction ratio holds with no tolerance
    spec = spec_od()
    lam0 = latent_path(spec, np.zeros(45, dtype=int), np.zeros((45, 1)))[:, 0]
    assert np.all(lam0 == 0.0)
    prev = 1.0
    for n in range(1, 41):
        prev = 0.5 * prev
        assert abs(prev - lam0[n - 1]) <= 0.5**n

    # with live forcing the ratio still holds up to accumulated rounding
    gen = SeededRng(3).generator()
    y = gen.integers(0, 2, size=50)
    x = gen.normal(size=(50, 1))
    base = latent_path(spec, y, x)[:, 0]
    shifted = np.empty(50)
    prev = 1.0
    for t in range(50):
        prev = 0.5 * prev + 0.4 * (y[t - 1] if t >= 1 else 0) + 0.3 * x[t, 0]
        shifted[t] = prev
    gaps = np.abs(shifted - base)
    for n in range(1, 29):
        assert gaps[n - 1] <= 0.5**n * (1 + 1e-6)


def test_latent_recursion_depth_guard():
    spec = spec_od()
    with pytest.raises(ValueError):
        latent_recursion(spec, [0, 1], np.zeros((2, 1)), 5)


def test_draw_at_top_of_unit_interval_stays_in_alphabet():
    # the softmax cumulative sum can end at 0.9999999999999998, below a
    # uniform draw of nextafter(1, 0), which then counted past the last category
    spec = MultinomialSpec(
        A=[[[0.3, 0.1], [0.1, 0.3]]], B=[[[0.3, 0.0], [0.0, 0.3]]], Gamma=[[0.2], [0.1]], n_categories=3
    )
    x = SeededRng(3).generator().normal(size=(200, 1))
    y, _, _ = _latent_scan(spec, x, u=np.full(200, np.nextafter(1.0, 0.0)))
    assert y.max() == spec.n_categories - 1


# -- contraction constants ---------------------------------------------------------


def test_contraction_constants_scalar():
    cc = contraction_constants(spec_od(beta=(0.5,)))
    assert (cc.r, cc.kappa) == (1, 0.5)


def test_contraction_constants_two_lags_match_power_oracle():
    spec = spec_od(beta=(0.5, 0.3))
    cc = contraction_constants(spec)
    A = companion_matrix(spec)
    norms = []
    power = np.eye(2)
    for _ in range(cc.r):
        power = power @ A
        norms.append(np.abs(power).sum(axis=1).max())
    assert norms[-1] < 1.0
    assert all(n >= 1.0 for n in norms[:-1])
    assert cc.kappa == pytest.approx(norms[-1])


def test_contraction_constants_reject_explosive():
    with pytest.raises(ConstructionError):
        contraction_constants(spec_od(beta=(1.2,)))


def test_latent_response_sum_closes_a_slow_contraction_with_an_upper_tail():
    # at beta above about 0.912 the powers of A stay above 1e-16 past the
    # 400 summed terms, so the sum ends in its geometric tail
    spec = spec_od(beta=(0.95,))
    total = spec.envelope(contraction_constants(spec))[0]
    A = companion_matrix(spec)
    power, norms = np.eye(1), []
    while len(norms) < 10**5 and power.any():
        norms.append(float(np.abs(power).sum(axis=1).max()))
        power = power @ A
    assert total >= math.fsum(norms)


# -- links -------------------------------------------------------------------------


def test_probit_density_is_bit_equal_to_scipy_stats():
    from scipy.stats import norm

    gen = SeededRng(4).generator()
    z = np.concatenate(
        [gen.normal(size=20000) * scale for scale in (0.1, 1.0, 3.0, 30.0)]
        + [[0.0, -0.0, 40.0, -40.0, np.inf, -np.inf]]
    )
    pdf = probit_link().pdf
    assert pdf(z).tobytes() == norm.pdf(z).tobytes()
    assert pdf(0.5) == norm.pdf(0.5) and np.isnan(pdf(np.nan))


def test_probit_density_leaves_scipy_stats_unimported():
    src = os.path.dirname(os.path.dirname(catchain.__file__))
    code = (
        "import sys, numpy as np; from catchain.models import probit_link; "
        "probit_link().pdf(np.linspace(-3.0, 3.0, 7)); print('scipy.stats' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_russell_damping_contraction_bound():
    g, kappa = russell_damping(0.9, 0.1, logistic_link())
    assert kappa == pytest.approx(0.9 + 0.1 * 0.25)
    spec = NonlinearBinarySpec(g=g, kappa=kappa, alpha=0.2, gamma=[0.1])
    spec.verify_contraction()
    cc = contraction_constants(spec)
    assert (cc.r, cc.kappa) == (1, kappa)


def test_nonlinear_contraction_sweep_rejects_liars():
    lying = NonlinearBinarySpec(g=lambda s: 1.5 * s, kappa=0.5, alpha=0.1, gamma=[0.1])
    with pytest.raises(ConstructionError):
        lying.verify_contraction()


# -- kernels from specs --------------------------------------------------------------


def test_model_to_kernel_ignores_past_when_lags_vanish():
    k = model_to_kernel(BinaryInfiniteOrderSpec(a=[0.0], gamma=[0.5]))
    assert k.b0_certificate == 0.0
    x = [[0.7]]
    p1 = k.probs([0, 0, 0], x)
    p2 = k.probs([1, 1, 1], x)
    np.testing.assert_allclose(p1, p2, atol=1e-15)
    assert np.all(k.b.values[1:] == 0.0)


def test_model_to_kernel_full_certification_pipeline():
    k = model_to_kernel(spec_od(), max_lag_x=8)
    assert 0.0 < k.b0_certificate < 1.0
    assert k.b.is_nonincreasing
    exact = enumerate_b_exact(k)
    for m in range(len(exact.values)):
        assert exact.values[m] <= k.b.value(m) + 1e-12


def test_model_to_kernel_rejects_nonstationary():
    with pytest.raises(ConstructionError):
        model_to_kernel(spec_od(beta=(1.05,)))


def test_latent_gap_decay_slope_under_declared_rate():
    spec = spec_od()
    cc = contraction_constants(spec)
    gen = SeededRng(9).generator()
    y = gen.integers(0, 2, size=60)
    x = gen.normal(size=(60, 1))
    lam = latent_path(spec, y, x)[:, 0]
    shifted = np.empty(60)
    prev = 2.0
    for t in range(60):
        prev = 0.5 * prev + 0.4 * (y[t - 1] if t >= 1 else 0) + 0.3 * x[t, 0]
        shifted[t] = prev
    gap = np.abs(shifted - lam)
    n = np.arange(1, 41)
    slope = np.polyfit(n, np.log(gap[:40]), 1)[0]
    assert slope <= np.log(cc.kappa ** (1.0 / cc.r)) + 0.05


# -- multinomial and discrete choice ----------------------------------------------------


def test_multinomial_with_two_categories_reduces_to_binary():
    alpha, beta, gamma = 0.4, 0.5, 0.3
    binary = model_to_kernel(spec_od((alpha,), (beta,), (gamma,)), max_lag_x=16)
    multi = model_to_kernel(
        MultinomialSpec(
            A=[np.array([[alpha]])],
            B=[np.array([[beta]])],
            Gamma=np.array([[gamma]]),
            n_categories=2,
        ),
        max_lag_x=16,
    )
    gen = SeededRng(21).generator()
    for _ in range(50):
        y = gen.integers(0, 2, size=16)
        x = gen.normal(size=(16, 1))
        np.testing.assert_allclose(binary.probs(y, x), multi.probs(y, x), atol=1e-12)


def test_discrete_choice_cellprob_symmetry_and_limits():
    spec = DiscreteChoiceSpec(
        A=[np.zeros((2, 2))], B=[np.zeros((2, 2))], Gamma=np.zeros((2, 1)), n_components=2
    )
    np.testing.assert_allclose(discrete_choice_cellprob(spec, [0.0, 0.0]), np.full(4, 0.25))
    big = discrete_choice_cellprob(spec, [30.0, 30.0])
    assert big[3] == pytest.approx(1.0, abs=1e-9)
    cells = discrete_choice_cellprob(spec, [0.5, -0.5])
    f = expit(0.5)
    expected = [(1 - f) * f, f * f, (1 - f) * (1 - f), f * (1 - f)]
    np.testing.assert_allclose(cells, expected, atol=1e-12)
    assert cells.sum() == pytest.approx(1.0)


def test_discrete_choice_zero_matrices_match_monte_carlo_orthants():
    spec = DiscreteChoiceSpec(
        A=[np.zeros((2, 2))],
        B=[np.zeros((2, 2))],
        Gamma=np.array([[0.4], [0.2]]),
        n_components=2,
        noise="gaussian",
    )
    k = model_to_kernel(spec)
    x_val = 0.8
    cells = k.probs([0], [[x_val]])
    gen = SeededRng(33).generator()
    lam = np.array([0.4 * x_val, 0.2 * x_val])
    eps = gen.normal(size=(200_000, 2))
    pattern = ((lam + eps) > 0) @ np.array([1, 2])
    emp = np.bincount(pattern, minlength=4) / eps.shape[0]
    se = np.sqrt(cells * (1 - cells) / eps.shape[0])
    assert np.all(np.abs(emp - cells) <= 4 * se + 1e-12)


def test_nonlinear_kernel_end_to_end():
    g, kappa = russell_damping(0.8, 0.2, logistic_link())
    spec = NonlinearBinarySpec(g=g, kappa=kappa, alpha=0.3, gamma=[0.2])
    k = model_to_kernel(spec)
    assert k.b0_certificate < 1.0
    gen = SeededRng(41).generator()
    for _ in range(20):
        y = gen.integers(0, 2, size=k.truncation.max_lag_y)
        x = gen.normal(size=(k.truncation.max_lag_x, 1))
        p = k.probs(y, x)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all((p > 0) & (p < 1))
    assert k.b.is_nonincreasing


def test_multinomial_three_categories_kernel():
    spec = MultinomialSpec(
        A=[0.3 * np.eye(2)],
        B=[0.4 * np.eye(2)],
        Gamma=np.array([[0.2], [0.1]]),
        n_categories=3,
    )
    k = model_to_kernel(spec, max_lag_x=3)
    assert k.n_categories == 3
    assert k.b0_certificate < 1.0
    p = k.probs([2, 0, 1], [[0.4], [0.1], [0.0]])
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    exact = enumerate_b_exact(k)
    for m in range(len(exact.values)):
        assert exact.values[m] <= k.b.value(m) + 1e-12


def test_discrete_choice_kernel_certifies():
    spec = DiscreteChoiceSpec(
        A=[0.2 * np.eye(2)],
        B=[0.3 * np.eye(2)],
        Gamma=np.array([[0.1], [0.1]]),
        n_components=2,
    )
    k = model_to_kernel(spec)
    assert k.n_categories == 4
    assert k.b0_certificate < 1.0
    p = k.probs([2, 1], [[0.3], [0.1]])
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
