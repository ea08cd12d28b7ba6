import math

import numpy as np
import pytest

from catchain.bounds import DecaySeq, GeometricTail, PolynomialTail, bstar_from_b, tau_bound
from catchain.dependence import (
    HeredityWeights,
    c_from_a,
    certificate_for_model,
    classify_decay,
    empirical_beta_small,
    heredity_bound,
)
from catchain.kernels import table_kernel
from catchain.models import BinaryInfiniteOrderSpec, ObservationDrivenBinarySpec, model_to_kernel
from catchain.simulate import (
    AR1Covariates,
    FiniteStateMarkovCovariates,
    IIDCovariates,
)


def two_state_cov(p_stay=0.8, q_stay=0.7):
    return FiniteStateMarkovCovariates(
        transition=((p_stay, 1 - p_stay), (1 - q_stay, q_stay)),
        emission=((0.0,), (1.0,)),
    )


def test_c_from_a_sup_norm_reduction():
    a = DecaySeq(np.array([0.5, 0.25, 0.125]))
    c = c_from_a(a, x0_norm_p=2.0, q_exp=1.0)
    np.testing.assert_allclose(c.values, 4.0 * a.values)


def test_beta_vanishes_for_memoryless_kernel_and_iid_covariates():
    kernel = model_to_kernel(
        BinaryInfiniteOrderSpec(a=[0.0], gamma=[0.7]), max_lag_y=1, max_lag_x=1
    )
    cov = FiniteStateMarkovCovariates(
        transition=((0.5, 0.5), (0.5, 0.5)), emission=((0.0,), (1.0,))
    )
    beta = empirical_beta_small(kernel, cov, [1, 2, 3], window=2)
    np.testing.assert_allclose(beta, 0.0, atol=1e-12)


def test_beta_two_state_chain_matches_spectral_formula():
    # category chain itself 2-state Markov, constant covariate
    table = np.array([[0.9, 0.1], [0.3, 0.7]])
    kernel = table_kernel(table)
    cov = FiniteStateMarkovCovariates(transition=((1.0,),), emission=((0.0,),))
    beta = empirical_beta_small(kernel, cov, [1, 2, 3, 4, 5], window=1)
    lam2 = 0.9 + 0.7 - 1.0
    pi1 = 0.3 / (0.1 + 0.3)
    expected = 2 * pi1 * (1 - pi1) * lam2 ** np.arange(1, 6)
    np.testing.assert_allclose(beta, expected, atol=1e-10)


def test_exact_beta_below_certificate_curve():
    spec = BinaryInfiniteOrderSpec(a=[0.5, 0.2], gamma=[0.4])
    kernel = model_to_kernel(spec, max_lag_y=2, max_lag_x=1)
    cov = two_state_cov()
    cert = certificate_for_model(
        spec, cov, metric="discrete", p_moment=math.inf, n_max=10, kernel=kernel
    )
    for window in (1, 2, 3, 4):
        emp = empirical_beta_small(kernel, cov, range(1, 11), window=window)
        for idx, n in enumerate(range(1, 11)):
            assert emp[idx] <= cert.curve.bound[n]


def test_certificate_reduces_to_bstar_tail_without_covariate_effect():
    spec = BinaryInfiniteOrderSpec(a=[0.5, 0.2], gamma=[0.0])
    kernel = model_to_kernel(spec, max_lag_y=2, max_lag_x=1)
    cov = IIDCovariates(kind="const", mean=0.0)
    cert = certificate_for_model(
        spec, cov, metric="discrete", p_moment=math.inf, n_max=8, kernel=kernel
    )
    bstar = bstar_from_b(kernel.b, cert.curve.horizon)
    for j in range(1, 9):
        assert cert.curve.values[j] == pytest.approx(bstar.values[j - 1], abs=1e-14)


def test_certificate_geometric_ingredients_classified_geometric():
    spec = BinaryInfiniteOrderSpec(a=[0.5, 0.25], gamma=[0.3], a_tail=GeometricTail(0.5))
    cov = two_state_cov()
    cert = certificate_for_model(spec, cov, metric="discrete", p_moment=math.inf, n_max=24)
    assert cert.classification["kind"] == "geometric"
    assert cert.classification["r2_geometric"] > 0.99


def test_certificate_l1_metric_uses_tau_curve():
    spec = BinaryInfiniteOrderSpec(a=[0.5, 0.2], gamma=[0.4])
    cov = AR1Covariates(rho=0.5, sd=1.0)
    cert = certificate_for_model(spec, cov, metric="l1", n_max=12)
    assert cert.curve.kind == "tau"
    assert np.all(np.diff(cert.curve.bound[1:]) <= 1e-12)


def test_polynomial_covariate_tail_transfers_exponent():
    # raw coupling cost decaying like t^-kappa with moment order p = 2
    # (q = 2) thins the beta ingredients to roughly t^(-kappa/2); the summed
    # curve then decays near n^(1 - kappa/2)
    kappa = 5.0
    p_moment = 2.0
    q_exp = 2.0
    horizon = 400
    t = np.arange(1, horizon + 2, dtype=float)
    a = DecaySeq(np.concatenate([[1.0], t[:-1] ** (-kappa)]), tail=PolynomialTail(1.0, kappa))
    c = c_from_a(a, x0_norm_p=1.0, q_exp=q_exp)
    bstar = DecaySeq.geometric(0.4, 0.4)
    e = DecaySeq.geometric(0.1, 0.4)
    from catchain.bounds import beta_bound

    curve = beta_bound(bstar, c, e, 1.0, n_max=60, horizon=horizon)
    ns = np.arange(20, 61)
    slope = np.polyfit(np.log(ns), np.log(curve.bound[20:61]), 1)[0]
    assert slope == pytest.approx(1.0 - kappa / q_exp, abs=0.1)


def test_heredity_exponent_cases():
    w = HeredityWeights(alpha=DecaySeq.geometric(1.0, 0.5), eta=1e9, p=1.0, q=1.0)
    bstar = DecaySeq.geometric(0.5, 0.5)
    zero = DecaySeq(np.zeros(2))
    a = DecaySeq(np.concatenate([[1.0], np.arange(1.0, 40.0) ** -3.0]), tail=PolynomialTail(1.0, 3.0))
    curve = tau_bound(bstar, a, zero, 1.0, n_max=30, horizon=256)
    out = heredity_bound(w, curve, moment_pq=1.0)
    kappa_fit = classify_decay(np.arange(1, 31), curve.bound[1:])["power"]
    # finite-support-like weights: the tail exponent never binds
    assert out.inputs["inherited_exponent"] == pytest.approx(
        (kappa_fit - 1.0) * 3.0 / 3.0, rel=1e-6
    )
    assert np.all(out.bound[1:] >= 0.0)


def test_heredity_monotone_in_spare_moment():
    from catchain.bounds import heredity_exponent

    vals = [heredity_exponent(10.0, 3.0, 1.0, q) for q in (0.5, 1.0, 2.0, 8.0, 64.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(2.0, abs=0.1)


def test_heredity_rejects_bad_exponents():
    with pytest.raises(ValueError):
        HeredityWeights(alpha=DecaySeq.geometric(1.0, 0.5), eta=1.0, p=1.0, q=1.0)


def test_certificate_csv_and_summary(tmp_path):
    spec = BinaryInfiniteOrderSpec(a=[0.4], gamma=[0.2])
    cov = two_state_cov()
    cert = certificate_for_model(spec, cov, metric="discrete", p_moment=math.inf, n_max=6)
    text = cert.to_csv(tmp_path / "cert.csv", empirical=np.zeros(6))
    assert text.splitlines()[0] == "n,bound,empirical_lowerbound"
    assert "decay classification" in cert.summary()


@pytest.mark.parametrize("p_stay, q_stay", [(0.8, 0.7), (0.97, 0.97)])
def test_beta_certificate_does_not_grow_with_horizon(p_stay, q_stay):
    # past the working horizon b* and the finite-Markov covariate cost are
    # known only through their tail-sum bounds; both must enter the tail
    # estimate, so a longer horizon can only tighten the certificate
    spec = ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3])
    kernel = model_to_kernel(spec)
    cov = two_state_cov(p_stay, q_stay)
    bounds = [
        certificate_for_model(
            spec, cov, metric="discrete", n_max=20, horizon=h, kernel=kernel
        ).curve.bound[20]
        for h in (40, 80, 160, 320)
    ]
    for shorter, longer in zip(bounds, bounds[1:]):
        assert longer <= shorter * (1.0 + 1e-12)
