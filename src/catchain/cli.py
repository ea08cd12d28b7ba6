"""Command-line surface: simulate | bounds | verify | fit.

Config-file driven (JSON data model, unknown keys rejected), one seed per
run, CSV outputs written atomically.  Exit codes: 0 success, 1 verification,
certification or fit failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np
from scipy.special import bdtrc, ndtr, ndtri

from .bounds import DecaySeq, DivergenceError, bstar_from_b, bstar_renewal_oracle, perturbation_bound
from .csvio import table
from .dependence import certificate_for_model, empirical_beta_small
from .estimate import Dataset, fit_mle, loglik_gradient, semiparametric_fit
from .kernels import (
    CertificationError,
    UnsupportedKernelError,
    b_exact_from_table,
    certify_b0,
    table_kernel,
)
from .models import (
    BinaryInfiniteOrderSpec,
    ConstructionError,
    DiscreteChoiceSpec,
    MultinomialSpec,
    NonlinearBinarySpec,
    ObservationDrivenBinarySpec,
    logistic_link,
    model_to_kernel,
    probit_link,
    russell_damping,
)
from .prob import SeededRng, stationary_law, tv_distance
from .schema import BOOLEAN, PATH, ConfigError, Field, array, integer, one_of, read_fields, real
from .simulate import (
    AR1Covariates,
    FiniteStateMarkovCovariates,
    HorizonError,
    IIDCovariates,
    UnsupportedCovariateError,
    coupled_ladder_mc,
    exact_marginal_laws,
    path_to_csv,
    sample_covariates,
    sample_forward,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------
# One table per top-level block, per model class and per covariate kind maps
# each field to its typed check and default (``catchain.schema``).  The
# allowed keys, the ``<block>.<key>`` messages, the defaults, the command
# choices and the command dispatch all come from these tables.


def _build(key: str, table: dict, block, where: str):
    """Build the entry of ``table`` that ``block[key]`` names from the block's other fields."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} block must be an object, got {block!r}")
    build, fields = one_of(table)(block.get(key), f"{where}.{key}")
    values = read_fields(fields, {k: v for k, v in block.items() if k != key}, where)
    try:
        return build(**values)
    except (ValueError, ConstructionError, UnsupportedCovariateError) as exc:
        raise ConfigError(f"{where} ({block[key]}): {exc}") from exc


def _nonlinear_binary(persistence, feedback, alpha, gamma, link):
    g, kappa = russell_damping(persistence, feedback, link)
    return NonlinearBinarySpec(g=g, kappa=kappa, alpha=alpha, gamma=gamma, link=link)


_LINK = Field(one_of({"logistic": logistic_link(), "probit": probit_link()}), "logistic")
_COEFFICIENTS = Field(array(1), [0.0])
_LAG_MATRICES = Field(array(3), [])
_MEAN = Field(real(), 0.0)
_SD = Field(real(0.0, closed=True), 1.0)
_DIM = Field(integer(1), 1)

# model class -> (constructor, fields)
MODELS = {
    "observation_driven_binary": (
        ObservationDrivenBinarySpec,
        {"alpha": _COEFFICIENTS, "beta": _COEFFICIENTS, "gamma": _COEFFICIENTS, "link": _LINK},
    ),
    "binary_infinite_order": (
        BinaryInfiniteOrderSpec,
        {"a": _COEFFICIENTS, "gamma": _COEFFICIENTS, "link": _LINK},
    ),
    "nonlinear_binary": (
        _nonlinear_binary,
        {
            "persistence": Field(real(), 0.5),
            "feedback": Field(real(), 0.1),
            "alpha": Field(real(), 0.0),
            "gamma": _COEFFICIENTS,
            "link": _LINK,
        },
    ),
    "multinomial": (
        MultinomialSpec,
        {"A": _LAG_MATRICES, "B": _LAG_MATRICES, "Gamma": Field(array(2)), "n_categories": Field(integer(2))},
    ),
    "discrete_choice": (
        DiscreteChoiceSpec,
        {
            "A": _LAG_MATRICES,
            "B": _LAG_MATRICES,
            "Gamma": Field(array(2)),
            "n_components": Field(integer(1)),
            "noise": Field(one_of(("logistic", "gaussian")), "logistic"),
        },
    ),
}

# covariate kind -> (constructor, fields)
COVARIATES = {
    "iid_normal": (functools.partial(IIDCovariates, kind="normal"), {"mean": _MEAN, "sd": _SD, "dim": _DIM}),
    "iid_const": (functools.partial(IIDCovariates, kind="const"), {"mean": _MEAN, "dim": _DIM}),
    "ar1": (AR1Covariates, {"rho": Field(real()), "sd": _SD, "dim": _DIM}),
    "finite_markov": (FiniteStateMarkovCovariates, {"transition": Field(array(2)), "emission": Field(array(2))}),
}

# command -> the fields of the config block of the same name
COMMANDS = {
    "simulate": {
        "window": Field(integer(1), 100),
        "eps": Field(real(0.0), 1e-3),
        "max_burnin": Field(integer(0), 4096),
    },
    "bounds": {
        "horizon": Field(integer(0), 64),  # 0 leaves the working horizon to the certificate
        "n_max": Field(integer(1), 20),
        "metric": Field(one_of(("l1", "discrete")), "l1"),
        "p_moment": Field(real(1.0, also=("inf",)), "inf", nullable=True),
    },
    "verify": {
        "replicas": Field(integer(1), 20000),
        "length": Field(integer(2), 8),
        "pairs": Field(integer(1), 3),
        "sequences": Field(integer(1), 20),
    },
    "fit": {
        "n": Field(integer(1), 5000),
        "warmup": Field(integer(0), None, nullable=True),
        "selftest": Field(BOOLEAN, False),
        "semiparametric": Field(BOOLEAN, False),
        "data": Field(PATH, None, nullable=True),
    },
}

ROOT = {
    "seed": Field(integer(0), 0),
    "out": Field(PATH, "catchain-out"),
    "model": Field(functools.partial(_build, "class", MODELS), None),
    "covariates": Field(functools.partial(_build, "kind", COVARIATES), None),
    **{command: Field(functools.partial(read_fields, fields), {}) for command, fields in COMMANDS.items()},
}

# command-line flags that override one config field each
FLAG_FIELDS = {"seed": "seed", "out": "out", "replicas": "verify.replicas", "data": "fit.data"}


def check_config(cfg) -> dict:
    """Every field of ``cfg`` checked, with defaults filled in and the model
    and covariates built; raises ConfigError naming the first bad field."""
    conf = read_fields(ROOT, cfg, "")
    horizon, n_max = conf["bounds"]["horizon"], conf["bounds"]["n_max"]
    if horizon and n_max > horizon:
        raise ConfigError(f"bounds.n_max ({n_max}) must not exceed bounds.horizon ({horizon})")
    model, cov = conf["model"], conf["covariates"]
    if model is not None and cov is not None and model.covariate_dim != cov.dim:
        raise ConfigError(
            f"covariates give x of dimension {cov.dim}, but the model loads {model.covariate_dim} covariates"
        )
    return conf


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file not found or not readable: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or bad UTF-8, or nesting past the parser's depth
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _override(cfg, field: str, value) -> None:
    *block, key = field.split(".")
    holder = cfg.setdefault(block[0], {}) if block else cfg
    if isinstance(holder, dict):  # check_config reports a block that is not an object
        holder[key] = value


def _make_out_dir(out) -> None:
    """Make the out directory once its field is good, whatever the other fields hold."""
    if PATH.ok(out):
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make the out directory {out!r}: {exc}") from exc


def load_config(path: str) -> dict:
    """The config at ``path`` as plain JSON, after checking every block."""
    cfg = _read_json(path)
    check_config(cfg)
    return cfg


def emit_config(cfg: dict) -> str:
    """Canonical serialization; parse(emit(parse(x))) == parse(x)."""
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# atomic file helpers
# ---------------------------------------------------------------------------


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _model(conf: dict, command: str):
    if conf["model"] is None:
        raise ConfigError(f"{command} needs a model block")
    return conf["model"]


def _covariates(conf: dict, model, **default):
    """The covariates block, or else the command's default iid process in the
    model's covariate dimension.  A covariate path has dimension 1 or more,
    so a model that loads no covariate cannot take one."""
    if model.covariate_dim == 0:  # with a covariates block, check_config has rejected it already
        loading = "gamma" if hasattr(model, "gamma") else "Gamma"
        raise ConfigError(f"model.{loading} must load at least one covariate, got an empty loading")
    return conf["covariates"] or IIDCovariates(dim=model.covariate_dim, **default)


def cmd_simulate(conf: dict, quiet: bool) -> int:
    sim, seed, out_dir = conf["simulate"], conf["seed"], conf["out"]
    window, eps, max_burnin = sim["window"], float(sim["eps"]), sim["max_burnin"]
    model = _model(conf, "simulate")
    cov = _covariates(conf, model, kind="const")
    kernel = model_to_kernel(model)
    x = sample_covariates(cov, window + max_burnin, SeededRng(seed, 1))
    path = sample_forward(kernel, x, window, eps, SeededRng(seed, 2))
    write_atomic(os.path.join(out_dir, "path.csv"), path_to_csv(path))
    cert = {
        "burnin_used": path.burnin_used,
        "eps_requested": eps,
        "eps_achieved": path.stationarity_gap_bound,
        "b0_certificate": kernel.b0_certificate,
        "window": window,
        "seed": seed,
    }
    write_atomic(
        os.path.join(out_dir, "certificate.json"), json.dumps(cert, indent=2, sort_keys=True) + "\n"
    )
    if not quiet:
        print(f"wrote {window} rows, burn-in {path.burnin_used}, gap {path.stationarity_gap_bound:.3e}")
    return EXIT_OK


def cmd_bounds(conf: dict, quiet: bool) -> int:
    blk, out_dir = conf["bounds"], conf["out"]
    spec = _model(conf, "bounds")
    cov = _covariates(conf, spec)
    try:
        kernel = model_to_kernel(spec)
        cert = certificate_for_model(
            spec,
            cov,
            metric=blk["metric"],
            p_moment=float(blk["p_moment"]),
            n_max=blk["n_max"],
            horizon=blk["horizon"],
            kernel=kernel,
        )
    except (UnsupportedCovariateError, DivergenceError) as exc:
        print(f"bound assembly failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    horizon = cert.curve.horizon  # the working horizon, which bounds.horizon 0 leaves to the certificate
    b_head = DecaySeq(kernel.b.head(horizon + 1))
    write_atomic(os.path.join(out_dir, "b.csv"), b_head.to_csv())
    write_atomic(os.path.join(out_dir, "bstar.csv"), bstar_from_b(kernel.b, horizon).to_csv())
    write_atomic(os.path.join(out_dir, "dependence_bound.csv"), cert.curve.to_csv())
    write_atomic(os.path.join(out_dir, "certificate.txt"), cert.summary() + "\n")
    if not quiet:
        print(cert.summary())
    return EXIT_OK


GLUED_MC_FALSE_ALARM = 1e-4  # family-wise false-alarm rate of verify's glued_coupling_mc row


def sidak_z(family_rate: float, n_tests: int, sides: int) -> float:
    """Per-test z threshold that holds ``n_tests`` independent z-tests with
    ``sides`` tails to a family-wise false-alarm rate of ``family_rate``:
    each test runs at level ``1 - (1 - family_rate)**(1/n_tests)`` (Sidak
    1967, JASA 62)."""
    per_test = -math.expm1(math.log1p(-family_rate) / n_tests)
    return float(-ndtri(per_test / sides))


def _verify_checks(vblk: dict, seed: int):
    """Yield (name, passed, detail) for the execution-time verification suite."""
    from .kernels import memory_state

    replicas, length, pairs, sequences = (vblk[k] for k in ("replicas", "length", "pairs", "sequences"))

    # reset-chain visit probabilities: two independent routes must agree
    gen = SeededRng(seed, 10).generator()
    worst = 0.0
    for _ in range(sequences):
        raw = np.sort(gen.uniform(0.0, 0.9, size=8))[::-1]
        b = DecaySeq(raw)
        d = np.abs(
            bstar_from_b(b, 100).values[1:] - bstar_renewal_oracle(b, 100).values[1:]
        ).max()
        worst = max(worst, float(d))
    yield "house_of_cards_agreement", worst < 1e-12, f"max diff {worst:.2e}"

    b_markov = DecaySeq(np.array([0.3, 0.0]))
    bs = bstar_from_b(b_markov, 12).values
    # sequential product is the bit-exact reference for the memoryless case
    err = float(np.abs(bs[1:] - np.cumprod(np.full(12, 0.3))).max())
    yield "markov_visit_closed_form", err == 0.0, f"max dev {err:.2e}"

    # exact relaxation: marginal TV between initializations vs b*
    gen = SeededRng(seed, 11).generator()
    ok = True
    detail = ""
    for i in range(pairs):
        raw = gen.dirichlet(np.ones(2), size=4)
        table = 0.75 * raw + 0.25 / 2
        kern = table_kernel(table)
        bstar = bstar_from_b(kern.b, 12).values
        x = np.zeros((12, 1))
        laws = np.stack([exact_marginal_laws(kern, x, memory_state(c, 2, 2), 12) for c in range(4)])
        # tv[c1, c2, t - 1] between the time-t laws from initial states c1, c2
        tv = 0.5 * np.abs(laws[:, None] - laws[None, :]).sum(axis=-1)
        over = np.argwhere(tv > bstar[:12] + 1e-12)
        if over.size:
            ok = False
            c1, c2, s = over[-1]
            detail = f"pair {i} t={s + 1} tv {tv[c1, c2, s]:.4f} > {bstar[s]:.4f}"
    yield "relaxation_bound_exact", ok, detail or "all initialization pairs bounded"

    # glued ladder Monte Carlo vs mismatch bound and marginal laws: per pair,
    # one one-sided z-test per time of the mismatch rate against its bound
    # and six two-sided z-tests of the marginals, all held together to the
    # family-wise false-alarm rate GLUED_MC_FALSE_ALARM
    n_tests = pairs * (length + 6)
    z_one = sidak_z(GLUED_MC_FALSE_ALARM, n_tests, 1)
    z_two = sidak_z(GLUED_MC_FALSE_ALARM, n_tests, 2)
    gen = SeededRng(seed, 12).generator()
    worst_mis = worst_marg = -math.inf
    failures = []
    for i in range(pairs):
        raw = gen.dirichlet(np.ones(2), size=4)
        table_a = 0.7 * raw + 0.3 / 2
        table_b = np.clip(table_a + gen.uniform(-0.04, 0.04, size=table_a.shape), 0.05, None)
        table_b = table_b / table_b.sum(axis=1, keepdims=True)
        # eight fixed chunks, each on its own stream, merged by integer counts
        sizes = [replicas // 8] * 8
        sizes[-1] += replicas - sum(sizes)
        mism_ct = marg1 = marg2 = 0
        for chunk, size in enumerate(sizes):
            if size == 0:  # fewer than eight replicas leave the first chunks empty
                continue
            y1, y2 = coupled_ladder_mc(
                table_a, table_b, 0, 3, 2, 2, length, size, SeededRng(seed, 100 + 16 * i + chunk)
            )
            mism_ct = mism_ct + (y1 != y2).sum(axis=1)
            marg1 = marg1 + np.stack([(y1 == k).sum(axis=1) for k in range(2)], axis=1)
            marg2 = marg2 + np.stack([(y2 == k).sum(axis=1) for k in range(2)], axis=1)
        delta = float(0.5 * np.abs(table_a - table_b).sum(axis=1).max())
        b_hi = np.maximum(
            b_exact_from_table(table_a, 2, 2).values, b_exact_from_table(table_b, 2, 2).values
        )
        bsm = bstar_from_b(DecaySeq(b_hi), length + 1).values
        mism = mism_ct / replicas
        se = np.sqrt(np.clip(mism * (1 - mism), 1e-12, None) / replicas)
        bound = np.array(
            [
                bsm[t - 1] + delta + sum(bsm[l] * delta for l in range(t - 1))
                for t in range(1, length + 1)
            ]
        )
        z_mis = (mism - bound) / se
        # a count of 0 or of every replica has no spread, and its z reads the floor of se
        spread = (mism_ct > 0) & (mism_ct < replicas)
        if spread.any():
            worst_mis = max(worst_mis, float(z_mis[spread].max()))
        # where every replica mismatched, the observed rate has no spread and
        # se is its floor, so a time fails only if the exact binomial chance
        # of at least that many mismatches under the bound is below the z-test's level
        tail = bdtrc(mism_ct - 1, replicas, np.minimum(bound, 1.0))
        if np.any((z_mis > z_one) & (tail < ndtr(-z_one))):
            failures.append(f"pair {i}: mismatch exceeded the coupling bound by {z_mis.max():.2f} sigma")
        x = np.zeros((length, 1))
        laws_a = exact_marginal_laws(table_kernel(table_a), x, memory_state(0, 2, 2), length)
        laws_b = exact_marginal_laws(table_kernel(table_b), x, memory_state(3, 2, 2), length)
        for t in (1, length // 2, length):
            for marg, law in ((marg1, laws_a[t - 1]), (marg2, laws_b[t - 1])):
                emp = marg[t - 1] / replicas
                z = np.abs(emp[1] - law[1]) / max(np.sqrt(law[1] * (1 - law[1]) / replicas), 1e-9)
                worst_marg = max(worst_marg, float(z))
                if z > z_two:
                    failures.append(f"pair {i}: marginal law off by {z:.2f} sigma at t={t}")
    worst_mis_text = f"{worst_mis:.3g}" if worst_mis > -math.inf else "n/a"
    yield "glued_coupling_mc", not failures, "; ".join(
        failures[-1:]
        + [
            f"worst mismatch z {worst_mis_text} vs one-sided {z_one:.2f}",
            f"worst marginal |z| {worst_marg:.2f} vs two-sided {z_two:.2f}",
            f"{n_tests} tests at family-wise false-alarm rate {GLUED_MC_FALSE_ALARM:g}",
        ]
    )

    # perturbation bound vs exact invariant laws of memoryless kernels
    gen = SeededRng(seed, 13).generator()
    ok = True
    detail = ""
    for i in range(pairs):
        q = 0.6 * gen.dirichlet(np.ones(3), size=3) + 0.4 / 3
        qbar = np.clip(q + gen.uniform(-0.05, 0.05, size=q.shape), 0.02, None)
        qbar = qbar / qbar.sum(axis=1, keepdims=True)
        sup = float(0.5 * np.abs(q - qbar).sum(axis=1).max())
        b0 = b_exact_from_table(q, 3, 1).values[0]
        pb = perturbation_bound(DecaySeq(np.array([b0, 0.0])), None, sup, horizon=256)
        tv = tv_distance(stationary_law(q), stationary_law(qbar))
        if tv > pb.value + 1e-12:
            ok = False
            detail = f"fixture {i}: invariant TV {tv:.4f} > bound {pb.value:.4f}"
    yield "perturbation_bound_exact", ok, detail or "invariant laws within bound"

    # one-step sensitivity certificates
    from scipy.special import expit

    v = certify_b0(("binary", expit, 0.25), 1.0)
    ok = abs(v - 0.2449) < 1e-3 and v < 1
    detail = f"logistic c=1 certified {v:.5f}"
    v3 = certify_b0(("multinomial", 3), 1.0)
    v2 = certify_b0(("discrete_choice", expit, 2, 0.25), 1.0)
    ok = ok and v3 < 1.0 and v2 < 1.0
    yield "b0_certification", ok, detail + f"; multinomial {v3:.3f}; choice {v2:.3f}"

    # exact mixing of a small joint chain vs the certified curve
    spec = BinaryInfiniteOrderSpec(a=[0.5, 0.2], gamma=[0.4])
    cov = FiniteStateMarkovCovariates(
        transition=((0.8, 0.2), (0.3, 0.7)), emission=((0.0,), (1.0,))
    )
    kernel = model_to_kernel(spec, max_lag_y=2, max_lag_x=1)
    cert = certificate_for_model(
        spec, cov, metric="discrete", p_moment=math.inf, n_max=8, kernel=kernel
    )
    emp = empirical_beta_small(kernel, cov, range(1, 7), window=3)
    ok = all(emp[k] <= cert.curve.bound[k + 1] for k in range(6))
    yield "dependence_certificate", ok, (
        f"beta(1) exact {emp[0]:.4f} <= bound {cert.curve.bound[1]:.4f}"
    )


def cmd_verify(conf: dict, quiet: bool) -> int:
    rows = []
    all_ok = True
    for name, passed, detail in _verify_checks(conf["verify"], conf["seed"]):
        rows.append((name, "PASS" if passed else "FAIL", detail))
        all_ok = all_ok and passed
        if not quiet:
            print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    report = table(["check", "status", "detail"], ((n, st, d.replace(",", ";")) for n, st, d in rows))
    write_atomic(os.path.join(conf["out"], "verify_report.csv"), report)
    return EXIT_OK if all_ok else EXIT_FAILURE


def cmd_fit(conf: dict, quiet: bool) -> int:
    blk, seed, out_dir = conf["fit"], conf["seed"], conf["out"]
    template = conf["model"]
    if not isinstance(template, ObservationDrivenBinarySpec):
        print("fit requires an observation_driven_binary model block", file=sys.stderr)
        return EXIT_CONFIG
    n, selftest = blk["n"], blk["selftest"]
    if blk["semiparametric"] and template.gamma.size == 0:
        # the profile pins the first covariate loading to one to fix the index scale
        raise ConfigError("model.gamma must load at least one covariate for fit.semiparametric, got an empty loading")
    if selftest:
        cov = _covariates(conf, template)
        kernel = model_to_kernel(template)
        x = sample_covariates(cov, n + 500, SeededRng(seed, 21))
        path = sample_forward(kernel, x, n, 1e-6, SeededRng(seed, 22))
        data = Dataset(y=path.y, x=path.x)
    else:
        src = blk["data"]
        if src is None:
            print("fit needs --data PATH or fit.data in the config", file=sys.stderr)
            return EXIT_CONFIG
        try:
            data = Dataset.from_csv(src)
        except (OSError, ValueError) as exc:
            print(f"cannot read dataset: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        result = fit_mle(template, data, warmup=blk["warmup"])
    except Exception as exc:  # noqa: BLE001 - surfaced as exit status
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if result.convergence == "failed":
        print("optimizer failed from every start", file=sys.stderr)
        return EXIT_FAILURE
    names = (
        [f"alpha_{k+1}" for k in range(template.alpha.size)]
        + [f"beta_{j+1}" for j in range(template.beta.size)]
        + [f"gamma_{i+1}" for i in range(template.gamma.size)]
    )
    header, columns = ["name", "estimate"], [names, result.theta_hat.tolist()]
    if result.stderr is not None:
        header.append("stderr")
        columns.append(result.stderr.tolist())
    write_atomic(os.path.join(out_dir, "theta_hat.csv"), table(header, zip(*columns)))
    summary = [
        f"convergence: {result.convergence}",
        f"loglik: {result.loglik!r}",
        f"n: {result.n_used}",
        f"spectral radius at estimate: {result.report.spectral_radius!r}",
    ]
    if selftest:
        truth = np.concatenate([template.alpha, template.beta, template.gamma])
        err = float(np.abs(result.theta_hat - truth).max())
        grad = loglik_gradient(template, data)
        summary.append(f"selftest max abs error: {err!r}")
        summary.append(f"selftest score at truth (per obs): {float(np.abs(grad).max()) / data.n!r}")
    write_atomic(os.path.join(out_dir, "fit_summary.txt"), "\n".join(summary) + "\n")
    if blk["semiparametric"]:
        sem = semiparametric_fit(data, template, warmup=blk["warmup"], theta=result.theta_hat)
        grid = zip(sem.grid.tolist(), sem.fhat.tolist())
        write_atomic(os.path.join(out_dir, "fhat_grid.csv"), table(["z", "fhat"], grid))
        # the profile's own coordinates, with the pinned first loading written out
        p, q = template.alpha.size, template.beta.size
        profile = np.concatenate([sem.theta_hat[: p + q], [1.0], sem.theta_hat[p + q :]])
        rows = zip(names, profile.tolist())
        write_atomic(os.path.join(out_dir, "theta_profile.csv"), table(["name", "estimate"], rows))
    if not quiet:
        print("\n".join(summary))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="catchain",
        description="categorical time-series simulation, coupling bounds and fitting",
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--replicas", type=int, default=None, help="override verify replicas")
    parser.add_argument("--data", default=None, help="dataset CSV for fit")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = _read_json(args.config)
        if isinstance(cfg, dict):
            for flag, field in FLAG_FIELDS.items():
                if getattr(args, flag) is not None:
                    _override(cfg, field, getattr(args, flag))
            _make_out_dir(cfg.get("out", ROOT["out"].default))
        conf = check_config(cfg)
        # looked up on every call, so a wrapper installed on cmd_<command> sees it
        return globals()[f"cmd_{args.command}"](conf, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConstructionError, CertificationError, UnsupportedKernelError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except HorizonError as exc:
        print(f"burn-in horizon error: {exc}", file=sys.stderr)
        return EXIT_FAILURE

if __name__ == "__main__":
    sys.exit(main())
