"""The latent recursion agrees across its entry points.

``estimate._mu_path`` (the ``lfilter`` fast path), ``latent_path`` (time
ordered) and ``latent_recursion`` (most recent first, as the kernels use it)
must describe the same index.  Every spec-built kernel, the infinite-order
chain's included, is evaluated and sampled through that recursion.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from catchain.bounds import GeometricTail
from catchain.estimate import _mu_path
from catchain.kernels import KernelInputError
from catchain.models import (
    BinaryInfiniteOrderSpec,
    DiscreteChoiceSpec,
    MultinomialSpec,
    NonlinearBinarySpec,
    ObservationDrivenBinarySpec,
    latent_path,
    latent_recursion,
    logistic_link,
    model_to_kernel,
    russell_damping,
)
from catchain.prob import SeededRng
from catchain.simulate import sample_forward

T = 40


def _path(seed: int, n_categories: int, dim: int = 1):
    gen = SeededRng(seed).generator()
    return gen.integers(0, n_categories, size=T), gen.normal(size=(T, dim))


@pytest.mark.parametrize(
    "alpha,beta",
    [([0.4], [0.5]), ([0.4, -0.2], [0.5, 0.3]), ([0.7], [])],
    ids=["p1q1", "p2q2", "p1q0"],
)
def test_lfilter_fast_path_equals_latent_path(alpha, beta):
    spec = ObservationDrivenBinarySpec(alpha=alpha, beta=beta, gamma=[0.3, -0.1])
    y, x = _path(17, 2, dim=2)
    fast = _mu_path(spec.alpha, spec.beta, spec.gamma, y.astype(float), x)
    np.testing.assert_allclose(fast, latent_path(spec, y, x)[:, 0], rtol=0, atol=1e-12)


def _latent_specs():
    g, kappa = russell_damping(0.6, 0.3, logistic_link())
    lag_a = [np.array([[0.3, -0.1], [0.2, 0.3]]), np.array([[0.1, 0.0], [-0.2, 0.1]])]
    lag_b = [np.array([[0.3, 0.1], [0.0, 0.2]]), np.array([[0.1, 0.0], [0.0, 0.1]])]
    gamma = np.array([[0.2], [-0.4]])
    return [
        ObservationDrivenBinarySpec(alpha=[0.4, -0.3], beta=[0.5, 0.2], gamma=[0.3]),
        NonlinearBinarySpec(g=g, kappa=kappa, alpha=0.7, gamma=[-0.5]),
        MultinomialSpec(A=lag_a, B=lag_b, Gamma=gamma, n_categories=3),
        DiscreteChoiceSpec(A=lag_a, B=lag_b, Gamma=gamma, n_components=2),
    ]


@pytest.mark.parametrize("spec", _latent_specs(), ids=lambda s: type(s).__name__)
def test_latent_recursion_on_reversed_history_equals_last_path_row(spec):
    y, x = _path(29, spec.n_categories)
    k = latent_path(spec, y, x).shape[1]
    # the index at time T-1 sees categories before T-1 and covariates up to
    # T-1; the category prehistory before time 0 is zero
    past_y = np.concatenate([y[:-1][::-1], np.zeros(2, dtype=y.dtype)])
    lam = latent_recursion(spec, past_y, x[::-1], T)
    np.testing.assert_array_equal(lam[:k], latent_path(spec, y, x)[-1])


def test_divergent_recursion_raises_overflow_on_every_entry_point():
    spec = ObservationDrivenBinarySpec(alpha=[0.4], beta=[10.0], gamma=[1.0])
    y, x = np.zeros(400, dtype=int), np.ones((400, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError):
            latent_path(spec, y, x)
        with pytest.raises(OverflowError):
            latent_recursion(spec, y, x, 400)


@pytest.mark.parametrize("spec", _latent_specs(), ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("bad", ["above", "negative"])
def test_category_outside_alphabet_is_rejected_on_every_entry_point(spec, bad):
    # as KernelHandle.probs rejects it, instead of reading the category as a number
    y, x = _path(31, spec.n_categories)
    y[5] = spec.n_categories if bad == "above" else -1
    with pytest.raises(KernelInputError, match="outside alphabet"):
        latent_path(spec, y, x)
    with pytest.raises(KernelInputError, match="outside alphabet"):
        latent_recursion(spec, np.concatenate([y[::-1], [0, 0]]), x[::-1], T)


def test_readme_spec_latent_path_rejects_out_of_alphabet_categories():
    spec = ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3])
    with pytest.raises(KernelInputError):
        latent_path(spec, [5, -3, 1], np.zeros((3, 1)))


@pytest.mark.parametrize(
    "spec",
    _latent_specs() + [BinaryInfiniteOrderSpec(a=[0.5, 0.25], gamma=[0.3])],
    ids=lambda s: type(s).__name__,
)
def test_every_family_records_a_latent_sampler(spec):
    assert "latent_sampler" in model_to_kernel(spec).extra


@st.composite
def _infinite_order_kernels(draw):
    n_lags = draw(st.integers(1, 8))
    a = draw(st.lists(st.floats(-0.25, 0.25), min_size=n_lags, max_size=n_lags))
    gamma = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=2))
    a_tail = draw(st.none() | st.floats(0.1, 0.5).map(GeometricTail))
    spec = BinaryInfiniteOrderSpec(a=a, gamma=gamma, a_tail=a_tail)
    # a truncation at or below the stored lags, or the kernel's own
    return spec, model_to_kernel(spec, max_lag_y=draw(st.none() | st.integers(1, n_lags)))


@settings(max_examples=30, deadline=None)
@given(case=_infinite_order_kernels(), seed=st.integers(0, 2**32 - 1))
def test_infinite_order_sampler_and_probs_match_the_per_step_chain(case, seed):
    spec, kernel = case
    gen = SeededRng(seed).generator()
    x = gen.normal(size=(1040, spec.gamma.size))
    path = sample_forward(kernel, x, 40, 1e-2, SeededRng(seed))
    per_step = sample_forward(dataclasses.replace(kernel, extra={}), x, 40, 1e-2, SeededRng(seed))
    assert path.burnin_used == per_step.burnin_used
    np.testing.assert_array_equal(path.y, per_step.y)
    a = spec.a[: kernel.truncation.max_lag_y]
    for _ in range(8):
        y = gen.integers(0, 2, size=kernel.truncation.max_lag_y)
        p = kernel.probs(y, x[:1])
        want = expit(a @ y[: a.size] + spec.gamma @ x[0])
        assert abs(p[1] - want) <= 1e-15 and abs(p.sum() - 1.0) <= 1e-15
