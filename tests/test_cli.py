import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import catchain
from catchain import cli
from catchain.bounds import bstar_from_b, DecaySeq
from catchain.cli import (
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_OK,
    GLUED_MC_FALSE_ALARM,
    ConfigError,
    emit_config,
    load_config,
    main,
    sidak_z,
)
from catchain.schema import REQUIRED, Check


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_config():
    return {
        "seed": 7,
        "model": {
            "class": "observation_driven_binary",
            "alpha": [0.4],
            "beta": [0.5],
            "gamma": [0.3],
            "link": "logistic",
        },
        "covariates": {"kind": "iid_normal", "mean": 0.0, "sd": 1.0, "dim": 1},
        "simulate": {"window": 40, "eps": 0.001},
        "bounds": {"horizon": 48, "n_max": 10, "metric": "l1"},
        "verify": {"replicas": 4000, "pairs": 2, "length": 6, "sequences": 8},
    }


def test_config_roundtrip_is_identity(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    cfg = load_config(cfg_path)
    emitted = tmp_path / "emitted.json"
    emitted.write_text(emit_config(cfg))
    again = load_config(str(emitted))
    assert again == cfg


def test_unknown_keys_rejected(tmp_path):
    bad = base_config()
    bad["unexpected"] = 1
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad))
    bad2 = base_config()
    bad2["model"]["typo_key"] = 3
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad2, "b2.json"))
    assert main(["simulate", "--config", write_config(tmp_path, bad, "b3.json")]) == EXIT_CONFIG


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == EXIT_CONFIG


def test_simulate_writes_path_and_certificate(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    lines = (out / "path.csv").read_text().splitlines()
    assert lines[0] == "t,y,x_1,lambda_1"
    assert len(lines) == 41
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["eps_achieved"] <= cert["eps_requested"]
    assert 0 <= cert["b0_certificate"] < 1


def test_simulate_deterministic_across_runs(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", cfg_path, "--out", str(out1), "--quiet"]) == EXIT_OK
    assert main(["simulate", "--config", cfg_path, "--out", str(out2), "--quiet"]) == EXIT_OK
    assert (out1 / "path.csv").read_bytes() == (out2 / "path.csv").read_bytes()
    assert (out1 / "certificate.json").read_bytes() == (out2 / "certificate.json").read_bytes()


def test_simulate_seed_flag_overrides_config(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["simulate", "--config", cfg_path, "--out", str(out1), "--quiet"])
    main(["simulate", "--config", cfg_path, "--out", str(out2), "--seed", "99", "--quiet"])
    assert (out1 / "path.csv").read_bytes() != (out2 / "path.csv").read_bytes()


def test_simulate_memory_one_burnin_matches_geometric_oracle(tmp_path):
    cfg = base_config()
    # single category lag: the decay envelope is (b0, 0, ...) so the burn-in
    # follows the memoryless closed form computable from b0 alone
    cfg["model"] = {"class": "binary_infinite_order", "a": [0.8], "gamma": [0.2]}
    cfg["simulate"] = {"window": 1, "eps": 0.001}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "geo"
    assert main(["simulate", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    cert = json.loads((out / "certificate.json").read_text())
    b0 = cert["b0_certificate"]
    bs = bstar_from_b(DecaySeq(np.array([b0, 0.0])), 600).values
    oracle = next(n for n in range(600) if bs[n] <= 0.001)
    assert cert["burnin_used"] == oracle
    assert oracle == math.ceil(math.log(0.001) / math.log(b0))


def test_simulate_nonstationary_model_fails_with_status_one(tmp_path):
    cfg = base_config()
    cfg["model"]["beta"] = [1.1]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x")]) == EXIT_FAILURE


def test_verify_default_fixtures_pass(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    report = (out / "verify_report.csv").read_text().splitlines()
    assert report[0] == "check,status,detail"
    assert all(line.split(",")[1] == "PASS" for line in report[1:])
    assert len(report) >= 7


def test_verify_replicas_flag_accepted(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "v2"
    code = main(
        ["verify", "--config", cfg_path, "--out", str(out), "--replicas", "2000", "--quiet"]
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("replicas", [1, 7])
def test_verify_with_fewer_replicas_than_chunks_writes_every_row(tmp_path, replicas):
    # the first chunks of the glued ladder's eight are empty; one replica that
    # mismatches is no evidence against the bound
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "v"
    argv = ["verify", "--config", cfg_path, "--out", str(out), "--replicas", str(replicas), "--quiet"]
    assert main(argv) == EXIT_OK
    report = (out / "verify_report.csv").read_text().splitlines()
    assert len(report) == 8 and all(line.split(",")[1] == "PASS" for line in report[1:])


@pytest.mark.parametrize("seed,replicas,worst", [(7, 1, "n/a"), (1, 2, "0.783")])
def test_verify_glued_row_reports_the_worst_z_only_where_the_count_has_spread(tmp_path, seed, replicas, worst):
    # seed 7 at one replica: no mismatch at any time, where the floor of se
    # read z -4.78e+04; seed 1 at two: both replicas mismatched at some time,
    # where it read z 5.05e+05
    cfg = {"verify": {"replicas": 20000, "pairs": 3, "length": 8, "sequences": 20}}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "v"
    argv = ["verify", "--config", cfg_path, "--out", str(out), "--seed", str(seed), "--replicas", str(replicas), "--quiet"]
    assert main(argv) == EXIT_OK
    rows = (out / "verify_report.csv").read_text().splitlines()
    detail = next(r for r in rows if r.startswith("glued_coupling_mc,PASS,")).split(",", 2)[2]
    assert detail.startswith(f"worst mismatch z {worst} vs one-sided ")


def test_verify_across_seeds_is_stable(tmp_path):
    # 4-sigma design: essentially every seeded run must pass
    cfg = base_config()
    cfg["verify"] = {"replicas": 3000, "pairs": 1, "length": 5, "sequences": 4}
    cfg_path = write_config(tmp_path, cfg)
    passes = 0
    for seed in range(6):
        out = tmp_path / f"vs{seed}"
        if (
            main(
                ["verify", "--config", cfg_path, "--out", str(out), "--seed", str(seed), "--quiet"]
            )
            == EXIT_OK
        ):
            passes += 1
    assert passes >= 5


def test_sidak_thresholds():
    assert sidak_z(0.05, 1, 2) == pytest.approx(1.959963984540054, rel=1e-12)
    assert sidak_z(0.05, 1, 1) == pytest.approx(1.6448536269514722, rel=1e-12)
    # 42 tests (3 pairs at length 8) held to a family-wise rate of 1e-4
    assert sidak_z(1e-4, 42, 1) == pytest.approx(4.575, abs=1e-3)
    assert sidak_z(1e-4, 42, 2) == pytest.approx(4.718, abs=1e-3)


def test_verify_glued_row_reports_worst_z_and_thresholds(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    rows = (out / "verify_report.csv").read_text().splitlines()
    detail = next(r for r in rows if r.startswith("glued_coupling_mc,")).split(",", 2)[2]
    # base_config: 2 pairs at length 6
    n_tests = 2 * (6 + 6)
    assert f"vs one-sided {sidak_z(GLUED_MC_FALSE_ALARM, n_tests, 1):.2f}" in detail
    assert f"vs two-sided {sidak_z(GLUED_MC_FALSE_ALARM, n_tests, 2):.2f}" in detail
    assert f"{n_tests} tests at family-wise false-alarm rate" in detail


def test_cli_import_leaves_fit_only_scipy_modules_unloaded():
    src = os.path.dirname(os.path.dirname(catchain.__file__))
    code = (
        "import sys, catchain.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.signal', 'scipy.optimize') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_fit_selftest_recovers_parameters(tmp_path):
    cfg = base_config()
    cfg["fit"] = {"selftest": True, "n": 4000}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "fit"
    assert main(["fit", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    rows = (out / "theta_hat.csv").read_text().splitlines()
    assert rows[0].startswith("name,estimate")
    estimates = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
    assert abs(estimates["alpha_1"] - 0.4) < 0.2
    assert abs(estimates["gamma_1"] - 0.3) < 0.2
    summary = (out / "fit_summary.txt").read_text()
    assert "selftest max abs error" in summary


def test_fit_external_dataset_and_semiparametric_output(tmp_path):
    from catchain.estimate import Dataset
    from catchain.models import ObservationDrivenBinarySpec, model_to_kernel
    from catchain.prob import SeededRng
    from catchain.simulate import IIDCovariates, sample_covariates, sample_forward

    kernel = model_to_kernel(ObservationDrivenBinarySpec(alpha=[0.4], beta=[0.5], gamma=[0.3]))
    x = sample_covariates(IIDCovariates(), 2500, SeededRng(31))
    path = sample_forward(kernel, x, 2200, 1e-6, SeededRng(32))
    data_file = tmp_path / "data.csv"
    Dataset(y=path.y, x=path.x).to_csv(data_file)

    cfg = base_config()
    cfg["fit"] = {"semiparametric": True}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "fit2"
    code = main(
        ["fit", "--config", cfg_path, "--out", str(out), "--data", str(data_file), "--quiet"]
    )
    assert code == EXIT_OK
    assert (out / "theta_hat.csv").exists()
    fhat = (out / "fhat_grid.csv").read_text().splitlines()
    assert fhat[0] == "z,fhat"
    assert len(fhat) > 100


def test_fit_too_small_dataset_fails(tmp_path):
    from catchain.estimate import Dataset

    gen = np.random.default_rng(0)
    data_file = tmp_path / "tiny.csv"
    Dataset(y=gen.integers(0, 2, size=12), x=gen.normal(size=(12, 1))).to_csv(data_file)
    cfg = base_config()
    cfg_path = write_config(tmp_path, cfg)
    code = main(
        ["fit", "--config", cfg_path, "--out", str(tmp_path / "f"), "--data", str(data_file)]
    )
    assert code == EXIT_FAILURE


def test_fit_on_all_ones_responses_fails_without_estimate(tmp_path, capsys):
    # every y = 1: the likelihood rises towards the constant fit and has no maximum
    x = np.random.default_rng(4).normal(size=300).tolist()
    data = tmp_path / "ones.csv"
    data.write_text("t,y,x_1\n" + "".join(f"{t + 1},1,{v!r}\n" for t, v in enumerate(x)))
    out = tmp_path / "f"
    argv = ["fit", "--config", write_config(tmp_path, base_config()), "--out", str(out), "--data", str(data), "--quiet"]
    assert main(argv) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert "fit failed:" in err and "is 1" in err and "Traceback" not in err
    assert not (out / "theta_hat.csv").exists()


def test_fit_with_a_warmup_past_the_data_fails_by_name(tmp_path, capsys):
    cfg = base_config()
    cfg["fit"] = {"selftest": True, "n": 200, "warmup": 10000, "semiparametric": True}
    out = tmp_path / "f"
    assert main(["fit", "--config", write_config(tmp_path, cfg), "--out", str(out), "--quiet"]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert "fit failed:" in err and "warmup of 10000 steps" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_fit_without_data_source_is_config_error(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    assert main(["fit", "--config", cfg_path, "--out", str(tmp_path / "f2")]) == EXIT_CONFIG


def test_bounds_outputs_monotone_curve(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    out = tmp_path / "bounds"
    assert main(["bounds", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    bstar_rows = (out / "bstar.csv").read_text().splitlines()
    assert bstar_rows[0] == "m,value"
    curve = (out / "dependence_bound.csv").read_text().splitlines()
    vals = [float(r.split(",")[1]) for r in curve[1:]]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_bounds_markov_fixture_matches_power_column(tmp_path):
    cfg = base_config()
    cfg["model"] = {"class": "binary_infinite_order", "a": [0.7], "gamma": [0.1]}
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "bm"
    assert main(["bounds", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_OK
    rows = (out / "bstar.csv").read_text().splitlines()[1:]
    vals = np.array([float(r.split(",")[1]) for r in rows])
    b0 = vals[0]
    np.testing.assert_array_equal(vals[1:], np.cumprod(np.full(vals.size - 1, b0)))


@pytest.mark.parametrize("command", ["simulate", "bounds", "fit"])
def test_uncertifiable_sensitivity_fails_with_status_one(tmp_path, command):
    # alpha 40 pushes the one-step sensitivity certificate to 1
    cfg = base_config()
    cfg["model"]["alpha"] = [40.0]
    cfg["fit"] = {"selftest": True, "n": 200}
    cfg_path = write_config(tmp_path, cfg)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "c"), "--quiet"]) == EXIT_FAILURE


@pytest.mark.parametrize(
    "model",
    [
        {"class": "observation_driven_binary", "alpha": [1e308], "beta": [0.5], "gamma": [0.3]},
        {"class": "observation_driven_binary", "alpha": [1e308, 1e308], "beta": [0.0], "gamma": [0.3]},
        {"class": "binary_infinite_order", "a": [1e308, 1e308], "gamma": [0.3]},
    ],
    ids=["latent-scaled", "latent-sum", "infinite-order"],
)
def test_overflowing_coefficient_fails_with_status_one(tmp_path, capsys, model):
    # the forcing bound overflowed to inf and ended in a ValueError traceback from certify_b0
    cfg = base_config()
    cfg["model"] = model
    cfg["fit"] = {"selftest": True, "n": 200}
    cfg_path = write_config(tmp_path, cfg)
    commands = ["simulate", "bounds", "fit"] if model["class"] == "observation_driven_binary" else ["simulate", "bounds"]
    for command in commands:
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / command), "--quiet"]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "category forcing bound inf is not finite" in err and "Traceback" not in err


def test_default_covariates_take_the_model_dimension(tmp_path):
    # without a covariates block, simulate ended in a matmul traceback and
    # bounds certified dimension-1 covariates for a model that loads two
    cfg = base_config()
    cfg["model"]["gamma"] = [0.3, 0.2]
    del cfg["covariates"]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "s"), "--quiet"]) == EXIT_OK
    rows = (tmp_path / "s" / "path.csv").read_text().splitlines()
    assert rows[0] == "t,y,x_1,x_2,lambda_1" and rows[1].split(",")[2:4] == ["0.0", "0.0"]
    assert main(["bounds", "--config", cfg_path, "--out", str(tmp_path / "b"), "--quiet"]) == EXIT_OK
    summary = (tmp_path / "b" / "certificate.txt").read_text()
    assert f"exp_abs_x0: {2 * math.sqrt(2 / math.pi)!r}" in summary


@pytest.mark.parametrize(
    "block,patch",
    [
        ("model", {"class": "multinomial", "A": [], "B": [], "n_categories": 3}),
        ("model", {"class": "multinomial", "A": [[[0.3]]], "B": [], "Gamma": [[0.2], [0.1]], "n_categories": 3}),
        ("covariates", {"kind": "ar1", "rho": 1.5}),
        ("covariates", {"kind": "iid_normal", "sd": -1}),
        ("covariates", {"kind": "iid_normal", "sd": "x"}),
        ("covariates", {"kind": "iid_normal", "dim": 0}),
        ("covariates", {"kind": "ar1", "rho": 0.5, "sd": -1}),
        ("covariates", {"kind": "finite_markov", "transition": [[1, 0], [0, 1]], "emission": [[0], [1]]}),
        ("model", {"class": "observation_driven_binary", "alpha": [math.nan], "beta": [0.5], "gamma": [0.3]}),
        ("model", {"class": "observation_driven_binary", "alpha": [0.4], "beta": [math.inf], "gamma": [0.3]}),
        ("model", {"class": "observation_driven_binary", "alpha": [0.4], "beta": [0.5], "gamma": [-math.inf]}),
        ("model", {"class": "binary_infinite_order", "a": [0.5, math.nan], "gamma": [0.3]}),
        ("model", {"class": "nonlinear_binary", "persistence": math.nan, "feedback": 0.1, "gamma": [0.3]}),
        ("model", {"class": "nonlinear_binary", "persistence": 0.5, "feedback": math.inf, "gamma": [0.3]}),
        ("model", {"class": "nonlinear_binary", "alpha": math.nan, "gamma": [0.3]}),
        (
            "model",
            {"class": "multinomial", "A": [[[0.3, math.nan], [0.1, 0.3]]], "B": [], "Gamma": [[0.2], [0.1]], "n_categories": 3},
        ),
        (
            "model",
            {"class": "multinomial", "A": [], "B": [[[math.inf, 0.0], [0.0, 0.3]]], "Gamma": [[0.2], [0.1]], "n_categories": 3},
        ),
        ("model", {"class": "discrete_choice", "A": [], "B": [], "Gamma": [[math.nan], [0.1]], "n_components": 2}),
    ],
    ids=[
        "missing-Gamma",
        "wrong-shape-A",
        "explosive-ar1",
        "negative-sd",
        "string-sd",
        "zero-dim",
        "negative-ar1-sd",
        "identity-markov",
        "nan-alpha",
        "inf-beta",
        "minus-inf-gamma",
        "nan-a",
        "nan-persistence",
        "inf-feedback",
        "nan-nonlinear-alpha",
        "nan-A",
        "inf-B",
        "nan-Gamma",
    ],
)
def test_malformed_block_is_config_error(tmp_path, block, patch):
    cfg = base_config()
    cfg[block] = patch
    cfg_path = write_config(tmp_path, cfg)
    for command in ("simulate", "bounds"):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "m"), "--quiet"]) == EXIT_CONFIG


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "model,key",
    [
        ({"class": "observation_driven_binary", "alpha": [0.4], "beta": [0.5], "gamma": [0.3]}, "alpha"),
        ({"class": "observation_driven_binary", "alpha": [0.4], "beta": [0.5], "gamma": [0.3]}, "beta"),
        ({"class": "observation_driven_binary", "alpha": [0.4], "beta": [0.5], "gamma": [0.3]}, "gamma"),
        ({"class": "binary_infinite_order", "a": [0.5, 0.2], "gamma": [0.3]}, "a"),
        ({"class": "nonlinear_binary", "persistence": 0.5, "feedback": 0.1, "gamma": [0.3]}, "persistence"),
        ({"class": "nonlinear_binary", "persistence": 0.5, "feedback": 0.1, "gamma": [0.3]}, "feedback"),
        ({"class": "multinomial", "A": [[[0.3, 0.1], [0.1, 0.3]]], "Gamma": [[0.2], [0.1]], "n_categories": 3}, "A"),
        ({"class": "discrete_choice", "B": [[[0.3, 0.0], [0.0, 0.3]]], "Gamma": [[0.2], [0.1]], "n_components": 2}, "B"),
        ({"class": "discrete_choice", "Gamma": [[0.2], [0.1]], "n_components": 2}, "Gamma"),
    ],
)
def test_non_finite_coefficient_is_config_error_naming_the_field(tmp_path, capsys, model, key, value):
    # the first number of the field turns non-finite, however deeply nested
    cfg = base_config()
    cfg["model"] = json.loads(json.dumps(model))
    holder, index = cfg["model"], key
    while isinstance(holder[index], list):
        holder, index = holder[index], 0
    holder[index] = value
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "nf"
    assert main(["bounds", "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert f"model.{key}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "command,block,key,value",
    [
        ("simulate", "simulate", "eps", 0),
        ("simulate", "simulate", "window", "abc"),
        ("simulate", "simulate", "max_burnin", -3),
        ("simulate", "simulate", "window", -5),
        ("simulate", "simulate", "window", 0),
        ("bounds", "bounds", "n_max", 0),
        ("bounds", "bounds", "horizon", -1),
        ("bounds", "bounds", "metric", "sup"),
        ("bounds", "bounds", "p_moment", "x"),
        ("bounds", "bounds", "n_max", 49),
        ("verify", "verify", "length", 1),
        ("verify", "verify", "replicas", 0),
        ("verify", "verify", "pairs", 0),
        ("verify", "verify", "sequences", "x"),
        ("fit", "fit", "n", "x"),
        ("fit", "fit", "n", 0),
        ("fit", "fit", "warmup", "x"),
        ("fit", "fit", "warmup", -1),
    ],
)
def test_malformed_numeric_field_is_config_error(tmp_path, capsys, command, block, key, value):
    cfg = base_config()
    cfg.setdefault(block, {})[key] = value
    if key == "p_moment":
        cfg["bounds"]["metric"] = "discrete"
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "n"
    assert main([command, "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert f"{block}.{key}" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "block,value",
    [
        ("simulate", 5),
        ("model", [1, 2]),
        ("covariates", "iid_normal"),
        ("bounds", None),
        ("fit", 3.5),
        ("verify", []),
    ],
)
def test_non_object_block_is_config_error(tmp_path, capsys, block, value):
    cfg = base_config()
    cfg[block] = value
    cfg_path = write_config(tmp_path, cfg)
    for command in ("simulate", "bounds", "verify", "fit"):
        out = tmp_path / command
        assert main([command, "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert f"{block} block" in capsys.readouterr().err


def test_non_string_out_is_config_error(tmp_path, capsys):
    cfg = base_config()
    cfg["out"] = 5
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path, "--quiet"]) == EXIT_CONFIG
    assert "out must be a string" in capsys.readouterr().err


def test_periodic_covariate_chain_fails_bounds_with_status_one(tmp_path, capsys):
    # the two copies of the chain swap states forever and never meet
    cfg = base_config()
    cfg["covariates"] = {"kind": "finite_markov", "transition": [[0, 1], [1, 0]], "emission": [[0], [1]]}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["bounds", "--config", cfg_path, "--out", str(tmp_path / "p"), "--quiet"]) == EXIT_FAILURE
    assert "cannot meet" in capsys.readouterr().err


def test_simulate_path_csv_feeds_fit(tmp_path):
    cfg = base_config()
    cfg["simulate"] = {"window": 1500, "eps": 0.001}
    cfg_path = write_config(tmp_path, cfg)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg_path, "--out", str(sim), "--quiet"]) == EXIT_OK
    assert (sim / "path.csv").read_text().startswith("t,y,x_1,lambda_1\n")
    out = tmp_path / "fit"
    code = main(["fit", "--config", cfg_path, "--out", str(out), "--data", str(sim / "path.csv"), "--quiet"])
    assert code == EXIT_OK
    assert "n: 1500" in (out / "fit_summary.txt").read_text()


@pytest.mark.parametrize(
    "text,name",
    [
        ("", "dataset CSV is empty"),
        ("t,y,x_1\n", "header but no rows"),
        ("t,y,x_1\n1,0,0.5\n2,2,0.1\n", "y must be 0 or 1, got 2 in data row 2"),
        ("t,y,x_1\n1,0,0.5\n2,1,nan\n", "x_1 must be finite, got nan in data row 2"),
        ("t,y,x_1,x_2\n1,0,0.5,0.1\n2,1,0.3\n", "data row 2 has 3 fields, the header 4"),
        ("t,y,x_1\n1,0,0.5\n2,yes,0.3\n", "not a number"),
    ],
    ids=["zero-byte", "header-only", "y-two", "x-nan", "short-row", "y-word"],
)
def test_bad_dataset_is_config_error_naming_it(tmp_path, capsys, text, name):
    # a zero-byte file ended in an IndexError traceback, y 2 was fitted as 0,
    # a NaN covariate failed every optimizer start and a header-only file
    # read as "y and x lengths differ"
    data = tmp_path / "data.csv"
    data.write_text(text)
    cfg = base_config()
    cfg["fit"] = {"semiparametric": True}
    argv = ["fit", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "f"), "--data", str(data), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


def test_multinomial_path_csv_is_not_a_binary_dataset(tmp_path, capsys):
    cfg = base_config()
    cfg["model"] = {"class": "multinomial", "A": [[[0.3, 0.1], [0.1, 0.3]]], "B": [], "Gamma": [[0.2], [0.1]], "n_categories": 3}
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", write_config(tmp_path, cfg, "multi.json"), "--out", str(sim), "--quiet"]) == EXIT_OK
    assert "2" in {row.split(",")[1] for row in (sim / "path.csv").read_text().splitlines()[1:]}
    argv = ["fit", "--config", write_config(tmp_path, base_config()), "--out", str(tmp_path / "f"), "--quiet"]
    assert main(argv + ["--data", str(sim / "path.csv")]) == EXIT_CONFIG
    assert "y must be 0 or 1, got 2" in capsys.readouterr().err


def test_semiparametric_fit_on_a_constant_covariate(tmp_path):
    # the kernel regression's kernel outgrew its grid near alpha 0 and ended in an IndexError traceback
    gen = np.random.default_rng(3)
    data = tmp_path / "const.csv"
    data.write_text("t,y,x_1\n" + "".join(f"{t + 1},{int(gen.random() < 0.5)},0.5\n" for t in range(600)))
    cfg = base_config()
    cfg["fit"] = {"semiparametric": True}
    out = tmp_path / "f"
    argv = ["fit", "--config", write_config(tmp_path, cfg), "--out", str(out), "--data", str(data), "--quiet"]
    assert main(argv) == EXIT_OK
    assert len((out / "fhat_grid.csv").read_text().splitlines()) == 513


@pytest.mark.parametrize(
    "beta,commands,name",
    [
        ([0.9], ["simulate", "bounds", "fit"], "covariate envelope sum inf is not finite"),
        ([0.0], ["simulate", "fit"], "latent recursion diverged"),
    ],
    ids=["envelope-overflows", "path-overflows"],
)
def test_huge_covariate_loading_fails_with_status_one(tmp_path, capsys, beta, commands, name):
    # bounds exited 0 with a bound of inf at every n, and simulate and fit
    # ended in an OverflowError traceback once the latent path overflowed
    cfg = base_config()
    cfg["model"] = {"class": "observation_driven_binary", "alpha": [0.4], "beta": beta, "gamma": [1e308]}
    cfg["fit"] = {"selftest": True, "n": 200}
    cfg_path = write_config(tmp_path, cfg)
    for command in commands:
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / command), "--quiet"]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_path_overflow_exits_one_without_an_overflow_warning(tmp_path, capsys):
    # the covariate forcing printed an overflow RuntimeWarning before the scan reported the overflow by name
    test_huge_covariate_loading_fails_with_status_one(
        tmp_path, capsys, [0.0], ["simulate", "fit"], "latent recursion diverged"
    )


def test_semiparametric_fit_without_a_covariate_is_config_error(tmp_path, capsys):
    # fit wrote theta_hat.csv and fit_summary.txt, then ended in a ValueError
    # traceback from the profile's scale normalization
    gen = np.random.default_rng(3)
    data = tmp_path / "ty.csv"
    data.write_text("t,y\n" + "".join(f"{t + 1},{int(gen.random() < 0.5)}\n" for t in range(600)))
    cfg = base_config()
    cfg["model"]["gamma"] = []
    del cfg["covariates"]
    cfg["fit"] = {"semiparametric": True}
    out = tmp_path / "f"
    argv = ["fit", "--config", write_config(tmp_path, cfg), "--out", str(out), "--data", str(data), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "model.gamma" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_fit_warmup_reaches_the_semiparametric_profile(tmp_path):
    # the profile always dropped max(p, q, 10) terms, so fhat_grid.csv was
    # the same at every fit.warmup
    grids = []
    for warmup in (0, 200):
        cfg = base_config()
        cfg["fit"] = {"selftest": True, "n": 2000, "semiparametric": True, "warmup": warmup}
        out = tmp_path / f"warmup{warmup}"
        assert main(["fit", "--config", write_config(tmp_path, cfg), "--out", str(out), "--quiet"]) == EXIT_OK
        grids.append((out / "fhat_grid.csv").read_text())
    assert grids[0] != grids[1]


_LOADS_4 = [[0.2], [0.1], [0.1], [0.1]]


@pytest.mark.parametrize(
    "model,status,name",
    [
        (
            {"class": "discrete_choice", "A": [np.diag([0.3] * 4).tolist()], "Gamma": _LOADS_4, "n_components": 4},
            EXIT_FAILURE,
            "up to 3 components, got 4",
        ),
        (
            {"class": "multinomial", "A": [np.diag([0.3] * 4).tolist()], "Gamma": _LOADS_4, "n_categories": 5},
            EXIT_OK,
            "",
        ),
    ],
    ids=["choice-4-components", "multinomial-5-categories"],
)
def test_b0_certification_caps_exit_without_a_traceback(tmp_path, capsys, model, status, name):
    # both ended bounds and simulate in an UnsupportedKernelError traceback:
    # the choice sweep stops at 3 components, and the multinomial closed form has no cap
    cfg = base_config()
    cfg["model"] = model
    cfg_path = write_config(tmp_path, cfg)
    for command in ("bounds", "simulate"):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / command), "--quiet"]) == status
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err


@pytest.mark.parametrize(
    "model,name",
    [
        ({"class": "observation_driven_binary", "alpha": [0.4], "beta": [0.5], "gamma": []}, "model.gamma"),
        ({"class": "binary_infinite_order", "a": [0.5], "gamma": []}, "model.gamma"),
        ({"class": "nonlinear_binary", "gamma": []}, "model.gamma"),
        ({"class": "multinomial", "A": [], "B": [], "Gamma": [[], []], "n_categories": 3}, "model.Gamma"),
        ({"class": "discrete_choice", "A": [], "B": [], "Gamma": [[], []], "n_components": 2}, "model.Gamma"),
    ],
    ids=["observation-driven", "infinite-order", "nonlinear", "multinomial", "discrete-choice"],
)
def test_empty_covariate_loading_is_config_error_naming_it(tmp_path, capsys, model, name):
    # without a covariates block simulate ended in a matmul traceback, while bounds exited 0;
    # with one, check_config rejects the pair on the dimension check
    cfg = base_config()
    cfg["model"] = model
    cfg["fit"] = {"selftest": True, "n": 200}
    del cfg["covariates"]
    cfg_path = write_config(tmp_path, cfg)
    # the commands that sample default covariates; fit takes only the observation-driven class
    sampling = ("simulate", "bounds", "fit") if model["class"] == "observation_driven_binary" else ("simulate", "bounds")
    for command in sampling:
        out = tmp_path / "out" / command
        assert main([command, "--config", cfg_path, "--out", str(out), "--quiet"]) == EXIT_CONFIG, command
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err, (command, err)
        assert not out.exists() or not any(out.iterdir()), command


def test_fit_data_without_covariates_fits_alpha_and_beta(tmp_path, capsys):
    # a t,y dataset has x of shape (n, 0), and a model that loads no covariate fits it
    rng = np.random.default_rng(3)
    y = (rng.random(400) < 0.4).astype(int)
    data = tmp_path / "ty.csv"
    data.write_text("t,y\n" + "".join(f"{t},{v}\n" for t, v in enumerate(y)))
    cfg = base_config()
    cfg["model"] = {"class": "observation_driven_binary", "alpha": [0.4], "beta": [0.5], "gamma": []}
    del cfg["covariates"]
    out = tmp_path / "out"
    args = ["fit", "--config", write_config(tmp_path, cfg), "--data", str(data), "--out", str(out), "--quiet"]
    assert main(args) == EXIT_OK, capsys.readouterr().err
    names = [row.split(",")[0] for row in (out / "theta_hat.csv").read_text().splitlines()[1:]]
    assert names == ["alpha_1", "beta_1"]


def test_bounds_horizon_zero_writes_the_certificate_working_horizon(tmp_path):
    # horizon 0 leaves the working horizon to the certificate: max(4 * n_max, 64) = 80 at n_max 20
    outputs = []
    for horizon in (0, 80):
        cfg = base_config()
        cfg["bounds"] = {"horizon": horizon, "n_max": 20, "metric": "l1"}
        out = tmp_path / f"h{horizon}"
        assert main(["bounds", "--config", write_config(tmp_path, cfg), "--out", str(out), "--quiet"]) == EXIT_OK
        outputs.append({f: (out / f).read_bytes() for f in ("b.csv", "bstar.csv", "dependence_bound.csv", "certificate.txt")})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]["b.csv"].splitlines()) == 82  # header and m = 0..80


@pytest.mark.parametrize("command", ["simulate", "bounds"])
def test_command_without_model_block_is_config_error(tmp_path, capsys, command):
    cfg = base_config()
    del cfg["model"]
    out = tmp_path / "nm"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert "model block" in capsys.readouterr().err
    assert not any(out.iterdir())


# -- the config schema, walked field by field --------------------------------------------

# one valid block per model class and covariate kind; the malformed values go into these
VALID_MODELS = {
    "observation_driven_binary": {"alpha": [0.4], "beta": [0.5], "gamma": [0.3]},
    "binary_infinite_order": {"a": [0.5, 0.2], "gamma": [0.3]},
    "nonlinear_binary": {"persistence": 0.5, "feedback": 0.1, "alpha": 0.4, "gamma": [0.3]},
    "multinomial": {"A": [[[0.3, 0.1], [0.1, 0.3]]], "B": [], "Gamma": [[0.2], [0.1]], "n_categories": 3},
    "discrete_choice": {"A": [], "B": [[[0.3, 0.0], [0.0, 0.3]]], "Gamma": [[0.2], [0.1]], "n_components": 2},
}
VALID_COVARIATES = {
    "iid_normal": {"mean": 0.0, "sd": 1.0},
    "iid_const": {"mean": 0.5},
    "ar1": {"rho": 0.5},
    "finite_markov": {"transition": [[0.8, 0.2], [0.3, 0.7]], "emission": [[0.0], [1.0]]},
}
# the fields where JSON null stands for the default, as the README documents
NULLABLE = {"bounds.p_moment", "fit.warmup", "fit.data"}


def _nest(value, depth):
    for _ in range(depth):
        value = [value]
    return value


# per check kind, values that check must refuse (null is added for every field that is not nullable)
MALFORMED = {
    "integer": lambda m: ["7", True, [[m]], m - 1, m + 0.9, float(m), math.nan],
    "real": lambda arg: ["x", True, [[1.5]], math.nan, math.inf, -math.inf]
    + ([] if arg[0] == -math.inf else [arg[0] - 1.0] + ([] if arg[1] else [arg[0]])),
    "boolean": lambda _: ["false", "no", 0, 1, [[True]]],
    "one_of": lambda choices: ["no-such-choice", choices[0].upper(), True, 1.0, [[choices[0]]]],
    "array": lambda depth: ["x", True, _nest(0.5, depth + 1), _nest(math.nan, depth), _nest(math.inf, depth)]
    + ([[[0.5], [0.5, 0.5]]] if depth >= 2 else [[0.5, "x"]]),
    "path": lambda _: [5, True, "", [["p"]]],
}


def _schema_fields():
    """(block, class or kind, key, field) for every leaf field of the schema."""
    for key, field in cli.ROOT.items():
        if isinstance(field.check, Check):
            yield None, None, key, field
    for block, fields in cli.COMMANDS.items():
        for key, field in fields.items():
            yield block, None, key, field
    for block, table in (("model", cli.MODELS), ("covariates", cli.COVARIATES)):
        for entry, (_, fields) in table.items():
            for key, field in fields.items():
                yield block, entry, key, field


def _config_with(tmp_path, block, entry, key, value=..., drop=False):
    cfg = base_config()
    cfg["out"] = str(tmp_path / "out")
    cfg["fit"] = {"selftest": True, "n": 200}
    if block == "model":
        cfg["model"] = {"class": entry, **VALID_MODELS[entry]}
    elif block == "covariates":
        cfg["covariates"] = {"kind": entry, **VALID_COVARIATES[entry]}
    holder = cfg if block is None else cfg.setdefault(block, {})
    if drop:
        holder.pop(key, None)
    else:
        holder[key] = value
    return cfg


def _assert_config_error(tmp_path, capsys, cfg, name):
    path = write_config(tmp_path, cfg)
    for command in cli.COMMANDS:
        code = main([command, "--config", path, "--quiet"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG, (command, name, cfg)
        assert name in err and "Traceback" not in err, (command, name, err)
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir()), (command, name)
    assert not (tmp_path / "catchain-out").exists()


def test_valid_examples_cover_every_model_class_and_covariate_kind(tmp_path):
    assert set(VALID_MODELS) == set(cli.MODELS)
    assert set(VALID_COVARIATES) == set(cli.COVARIATES)
    for entry in cli.MODELS:
        load_config(write_config(tmp_path, _config_with(tmp_path, "model", entry, "class", entry)))
    for entry in cli.COVARIATES:
        load_config(write_config(tmp_path, _config_with(tmp_path, "covariates", entry, "kind", entry)))


def test_null_is_accepted_only_where_documented():
    nullable = {f"{block}.{key}" for block, _, key, field in _schema_fields() if field.nullable}
    assert nullable == NULLABLE


@pytest.mark.parametrize(
    "block,entry,key,field",
    list(_schema_fields()),
    ids=[".".join(p for p in (b, e, k) if p) for b, e, k, _ in _schema_fields()],
)
def test_every_malformed_field_is_config_error_naming_it(tmp_path, capsys, monkeypatch, block, entry, key, field):
    monkeypatch.chdir(tmp_path)  # a config that wrongly passes would write catchain-out here
    name = f"{block}.{key}" if block else key
    values = MALFORMED[field.check.kind](field.check.arg) + ([] if field.nullable else [None])
    for value in values:
        _assert_config_error(tmp_path, capsys, _config_with(tmp_path, block, entry, key, value), name)
    if field.default is REQUIRED:
        _assert_config_error(tmp_path, capsys, _config_with(tmp_path, block, entry, key, drop=True), name)


@pytest.mark.parametrize("block,key", [("model", "class"), ("covariates", "kind")])
@pytest.mark.parametrize("value", [None, "no-such-entry", 3, True, ["observation_driven_binary"], ["iid_normal"]])
def test_malformed_class_or_kind_is_config_error_naming_it(tmp_path, capsys, monkeypatch, block, key, value):
    monkeypatch.chdir(tmp_path)
    cfg = base_config()
    cfg["out"] = str(tmp_path / "out")
    cfg[block][key] = value
    _assert_config_error(tmp_path, capsys, cfg, f"{block}.{key}")


@pytest.mark.parametrize(
    "model,covariates",
    [
        (None, {"kind": "iid_normal", "dim": 2}),
        (None, {"kind": "ar1", "rho": 0.5, "dim": 2}),
        (None, {"kind": "finite_markov", "transition": [[0.9, 0.1], [0.2, 0.8]], "emission": [[0, 1], [1, 0]]}),
        ({"class": "observation_driven_binary", "alpha": [0.4], "beta": [0.5], "gamma": []}, None),
        ({"class": "multinomial", "A": [], "B": [], "Gamma": [[0.2, 0.1], [0.1, 0.1]], "n_categories": 3}, None),
    ],
    ids=["iid-dim-2", "ar1-dim-2", "markov-2d-emission", "no-loading", "two-column-Gamma"],
)
def test_covariate_dimension_must_match_the_model_loading(tmp_path, capsys, model, covariates):
    # simulate used to end in a matmul traceback and bounds to certify the mismatched pair
    cfg = base_config()
    cfg["model"] = model or cfg["model"]
    cfg["covariates"] = covariates or cfg["covariates"]
    for command in ("simulate", "bounds", "verify"):
        out = tmp_path / command
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert "covariates give x of dimension" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,name",
    [
        (["--seed", "-1"], "seed"),
        (["--replicas", "0"], "verify.replicas"),
        (["--data", ""], "fit.data"),
        (["--out", ""], "out"),
        (["--out", "{file}"], "out directory"),
    ],
)
def test_flag_overrides_are_checked_like_the_fields_they_set(tmp_path, capsys, monkeypatch, flags, name):
    # --seed -1 used to end every command in a SeedSequence traceback
    monkeypatch.chdir(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    path = write_config(tmp_path, base_config())
    for command in cli.COMMANDS:
        argv = [command, "--config", path, "--quiet"] + [f.format(file=taken) for f in flags]
        assert main(argv) == EXIT_CONFIG
        assert name in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["cfg.json", "taken"]


@pytest.mark.parametrize(
    "persistence,feedback,factor",
    [(0.95, 0.5, "1.075"), (0.0, 0.0, "0.0")],
    ids=["expanding", "zero"],
)
def test_nonlinear_map_factor_outside_the_unit_interval_is_config_error(tmp_path, capsys, persistence, feedback, factor):
    # the spec's own contraction check, the one for every caller, names the factor
    cfg = base_config()
    cfg["model"] = {"class": "nonlinear_binary", "persistence": persistence, "feedback": feedback, "gamma": [0.3]}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["bounds", "--config", cfg_path, "--out", str(tmp_path / "b"), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"model (nonlinear_binary): declared contraction {factor} not in (0,1)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,patch,status,message",
    [
        (
            "simulate",
            {"simulate": {"window": 100, "eps": 1e-6, "max_burnin": 0}},
            EXIT_FAILURE,
            "burn-in horizon error: cannot reach eps=1e-06 within 0 burn-in steps",
        ),
        (
            "fit",
            {"model": {"class": "multinomial", "A": [[[0.3, 0.1], [0.1, 0.3]]], "Gamma": [[0.2], [0.1]], "n_categories": 3}},
            EXIT_CONFIG,
            "fit requires an observation_driven_binary model block",
        ),
        (
            "bounds",
            {
                "covariates": {"kind": "finite_markov", **VALID_COVARIATES["finite_markov"]},
                "bounds": {"metric": "discrete", "p_moment": 2},
            },
            EXIT_FAILURE,
            "bound assembly failure: cannot certify the transformed tail",
        ),
    ],
    ids=["simulate-burnin-horizon", "fit-multinomial", "bounds-discrete-moment-2"],
)
def test_command_exit_paths_name_the_failure_without_a_traceback(tmp_path, capsys, command, patch, status, message):
    cfg = {**base_config(), **patch}
    cfg_path = write_config(tmp_path, cfg)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / command), "--quiet"]) == status
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_semiparametric_fit_with_no_free_profile_parameter(tmp_path):
    # with no lag and one covariate the profile pins the only loading to one,
    # so it evaluates its objective once and optimizes nothing
    cfg = base_config()
    cfg["model"].update(alpha=[], beta=[], gamma=[0.8])
    cfg["fit"] = {"selftest": True, "n": 2000, "semiparametric": True}
    out = tmp_path / "fit"
    assert main(["fit", "--config", write_config(tmp_path, cfg), "--out", str(out), "--quiet"]) == EXIT_OK
    assert (out / "theta_profile.csv").read_text() == "name,estimate\ngamma_1,1.0\n"
    assert len((out / "fhat_grid.csv").read_text().splitlines()) == 513


def test_multinomial_without_category_lags_certifies_a_zero_b0(tmp_path, capsys):
    # no category lag shifts the latent block, so b0 is 0 at any alphabet size
    cfg = base_config()
    cfg["model"] = {"class": "multinomial", "A": [], "Gamma": [[0.2], [0.1]], "n_categories": 3}
    assert main(["bounds", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "b")]) == EXIT_OK
    captured = capsys.readouterr()
    assert "ingredient b0_certificate: 0.0\n" in captured.out
    assert "Traceback" not in captured.err


def test_config_that_is_not_json_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"seed": 1,')
    assert main(["bounds", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: config is not valid JSON" in err and "Traceback" not in err


def test_fit_failing_from_every_start_exits_one(tmp_path, capsys, monkeypatch):
    import scipy.optimize

    def abandoned(fun, x0, **kwargs):  # status 3: BFGS met a NaN
        return scipy.optimize.OptimizeResult(x=np.asarray(x0, dtype=float), fun=np.inf, status=3, success=False)

    monkeypatch.setattr(scipy.optimize, "minimize", abandoned)
    cfg = base_config()
    cfg["fit"] = {"selftest": True, "n": 2000}
    out = tmp_path / "fit"
    assert main(["fit", "--config", write_config(tmp_path, cfg), "--out", str(out), "--quiet"]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert "optimizer failed from every start" in err and "Traceback" not in err
    assert not (out / "theta_hat.csv").exists()
