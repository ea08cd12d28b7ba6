"""Workload definitions and per-command output checks for the catchain benchmark.

A workload is an ordered list of CLI commands.  Model parameters are fixed;
the benchmark seed is written into every config and passed as ``--seed``.
Each check reads one command's output directory and returns a list of
problems (empty when the outputs are correct).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

# README example spec, shared by every workload that needs a binary model.
README_MODEL = {
    "class": "observation_driven_binary",
    "alpha": [0.4],
    "beta": [0.5],
    "gamma": [0.3],
    "link": "logistic",
}
IID_NORMAL = {"kind": "iid_normal", "mean": 0.0, "sd": 1.0, "dim": 1}
AR1 = {"kind": "ar1", "rho": 0.5, "sd": 1.0, "dim": 1}
FINITE_MARKOV = {
    "kind": "finite_markov",
    "transition": [[0.8, 0.2], [0.3, 0.7]],
    "emission": [[0.0], [1.0]],
}
LAG_A = [[[0.3, 0.1], [0.1, 0.3]]]
LAG_B = [[[0.3, 0.0], [0.0, 0.3]]]
GAMMA_2 = [[0.2], [0.1]]

FIT_TOLERANCE = 0.15  # README: |theta_hat - theta*| < 0.15

# (model block, covariates block, bounds metric) per family, in run order
ZOO_FAMILIES = [
    (README_MODEL, IID_NORMAL, "l1"),
    (
        {"class": "binary_infinite_order", "a": [0.5, 0.25, 0.125, 0.0625], "gamma": [0.3]},
        AR1,
        "l1",
    ),
    (
        {"class": "nonlinear_binary", "persistence": 0.5, "feedback": 0.1, "alpha": 0.4, "gamma": [0.3]},
        IID_NORMAL,
        "l1",
    ),
    (
        {"class": "multinomial", "A": LAG_A, "B": LAG_B, "Gamma": GAMMA_2, "n_categories": 3},
        FINITE_MARKOV,
        "discrete",
    ),
    (
        {"class": "discrete_choice", "A": LAG_A, "B": LAG_B, "Gamma": GAMMA_2, "n_components": 2},
        AR1,
        "l1",
    ),
]


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``catchain <kind> --config <label>.json [extra]``."""

    label: str
    kind: str
    config: dict
    extra: tuple = ()

    def argv(self, config_path: str, out_dir: str, seed: int) -> list[str]:
        return [
            self.kind,
            "--config", config_path,
            "--out", out_dir,
            "--seed", str(seed),
            "--quiet",
            *self.extra,
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    build: Callable[[int], list] = field(repr=False)

    def commands(self, seed: int) -> list[Command]:
        return self.build(seed)


def _simulate_long(seed: int) -> list[Command]:
    cfg = {
        "seed": seed,
        "model": README_MODEL,
        "covariates": IID_NORMAL,
        "simulate": {"window": 100000, "eps": 1e-3},
    }
    return [Command("simulate", "simulate", cfg)]


def _verify_mc(seed: int) -> list[Command]:
    cfg = {
        "seed": seed,
        "model": README_MODEL,
        "covariates": IID_NORMAL,
        "simulate": {"window": 200, "eps": 0.001},
        "bounds": {"horizon": 64, "n_max": 20, "metric": "l1"},
        "fit": {"selftest": True, "n": 5000},
        "verify": {"replicas": 20000, "pairs": 3, "length": 8},
    }
    return [Command("verify", "verify", cfg, ("--replicas", "200000"))]


def _model_zoo(seed: int) -> list[Command]:
    cmds = []
    for model, cov, metric in ZOO_FAMILIES:
        family = model["class"]
        cfg = {
            "seed": seed,
            "model": model,
            "covariates": cov,
            "simulate": {"window": 5000, "eps": 1e-3},
            "bounds": {"horizon": 64, "n_max": 20, "metric": metric},
        }
        cmds.append(Command(f"{family}.bounds", "bounds", cfg))
        cmds.append(Command(f"{family}.simulate", "simulate", cfg))
    return cmds


def _fit_selftest(seed: int) -> list[Command]:
    cfg = {
        "seed": seed,
        "model": README_MODEL,
        "covariates": IID_NORMAL,
        "fit": {"selftest": True, "n": 20000, "semiparametric": True},
    }
    return [Command("fit", "fit", cfg)]


# The "why" strings are mirrored in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-long",
            "simulate at window 1e5: the O(h^2) burn-in search dominates; no b0 grid, tables or estimate",
            1,
            _simulate_long,
        ),
        Workload(
            "verify-mc",
            "verify with 200k replicas on 2 threads: glued-ladder Monte Carlo, certify_b0 and exact tables",
            2,
            _verify_mc,
        ),
        Workload(
            "model-zoo",
            "bounds then simulate for all five families: certify_b0 grids and the per-step kernel fallback",
            1,
            _model_zoo,
        ),
        Workload(
            "fit-selftest",
            "fit selftest at n 2e4 with the semiparametric profile: the only workload for estimate",
            1,
            _fit_selftest,
        ),
    )
}


def write_inputs(commands: list[Command], directory: str) -> list[str]:
    """Write each command's config as JSON under ``directory``; return the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, cmd in enumerate(commands):
        path = os.path.join(directory, f"{i:02d}-{cmd.label}.json")
        with open(path, "w") as fh:
            json.dump(cmd.config, fh, indent=2, sort_keys=True)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _column(path: str) -> list[float]:
    return [float(r[1]) for r in _rows(path)[1:]]


def check_simulate(cfg: dict, out_dir: str) -> list[str]:
    problems = []
    window = cfg["simulate"]["window"]
    n_rows = len(_rows(os.path.join(out_dir, "path.csv"))) - 1
    if n_rows != window:
        problems.append(f"path.csv has {n_rows} rows, expected {window}")
    with open(os.path.join(out_dir, "certificate.json")) as fh:
        cert = json.load(fh)
    if not cert["eps_achieved"] <= cert["eps_requested"]:
        problems.append(f"eps_achieved {cert['eps_achieved']} > eps_requested {cert['eps_requested']}")
    return problems


def check_bounds(cfg: dict, out_dir: str) -> list[str]:
    problems = []
    b = _column(os.path.join(out_dir, "b.csv"))
    if not b or not b[0] < 1.0:
        problems.append("b.csv: b0 is missing or not < 1")
    if any(later > earlier for earlier, later in zip(b, b[1:])):
        problems.append("b.csv is not nonincreasing")
    bstar = _column(os.path.join(out_dir, "bstar.csv"))
    if not bstar or not all(0.0 <= v <= 1.0 for v in bstar):
        problems.append("bstar.csv has values outside [0, 1]")
    dep = _column(os.path.join(out_dir, "dependence_bound.csv"))
    if not dep or not all(math.isfinite(v) and v >= 0.0 for v in dep):
        problems.append("dependence_bound.csv has non-finite or negative values")
    return problems


def check_verify(cfg: dict, out_dir: str) -> list[str]:
    rows = _rows(os.path.join(out_dir, "verify_report.csv"))[1:]
    if not rows:
        return ["verify_report.csv has no checks"]
    return [f"verify check {r[0]} is {r[1]}: {r[2]}" for r in rows if r[1] != "PASS"]


def check_fit(cfg: dict, out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, "fit_summary.txt")) as fh:
        summary = dict(line.split(": ", 1) for line in fh.read().splitlines())
    problems = []
    if summary.get("convergence") in (None, "failed"):
        problems.append(f"convergence is {summary.get('convergence')!r}")
    err = float(summary.get("selftest max abs error", "nan"))
    if not err < FIT_TOLERANCE:
        problems.append(f"selftest max abs error {err} is not < {FIT_TOLERANCE}")
    return problems


CHECKS = {
    "simulate": check_simulate,
    "bounds": check_bounds,
    "verify": check_verify,
    "fit": check_fit,
}
