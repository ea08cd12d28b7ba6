"""Categorical time series with exogenous covariates: simulation, coupling
bounds, dependence certificates and likelihood fitting."""

from .bounds import (
    DecaySeq,
    DependenceBoundCurve,
    GeometricTail,
    PolynomialTail,
    beta_bound,
    bstar_from_b,
    bstar_renewal_oracle,
    decay_transfer_check,
    heredity_exponent,
    perturbation_bound,
    relaxation_bound,
    tau_bound,
)
from .dependence import (
    DependenceCertificate,
    HeredityWeights,
    certificate_for_model,
    empirical_beta_small,
    heredity_bound,
)
from .estimate import (
    Dataset,
    FitResult,
    conditional_loglik,
    fit_mle,
    loglik_gradient,
    semiparametric_fit,
)
from .kernels import (
    GridSpec,
    KernelHandle,
    TruncationPolicy,
    b_seq_certified,
    certify_b0,
    e_seq_certified,
    enumerate_b_exact,
    kernel_eval,
    table_kernel,
    transition_table,
)
from .models import (
    BinaryInfiniteOrderSpec,
    DiscreteChoiceSpec,
    LinkFunction,
    MultinomialSpec,
    NonlinearBinarySpec,
    ObservationDrivenBinarySpec,
    contraction_constants,
    discrete_choice_cellprob,
    latent_recursion,
    logistic_link,
    model_to_kernel,
    probit_link,
    stationarity_check,
)
from .prob import (
    CouplingTable,
    SeededRng,
    maximal_coupling,
    sample_coupled,
    tv_distance,
)
from .simulate import (
    AR1Covariates,
    CoupledPathPair,
    FiniteStateMarkovCovariates,
    IIDCovariates,
    SamplePath,
    covariate_coupling_coeffs,
    exact_marginal_law,
    exact_marginal_laws,
    glued_coupling,
    sample_covariates,
    sample_forward,
)

__version__ = "0.1.0"
