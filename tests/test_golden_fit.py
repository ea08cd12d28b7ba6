"""Seeded ``fit`` outputs must not change silently.

Runs ``fit`` twice at a fixed seed, both times with the semiparametric
profile: once as a selftest on a simulated path, and once with ``--data``
on the ``path.csv`` that ``simulate`` writes.  The sha256 of every output
file is compared with recorded digests.  ``theta_hat.csv`` and
``fit_summary.txt`` were recorded when ``fit_mle`` moved from Nelder-Mead to
BFGS on the score; ``fhat_grid.csv`` and ``theta_profile.csv`` when the
profile went from five fixed starts to one start at the rescaled
parametric fit.  A mismatch means a fitted value changed; if the change
is intended, record the new digests with ``fit_digests`` and explain the
change in CHANGES.md.  The digests were recorded with numpy 2.4 and scipy
1.17 on x86-64.
"""

import hashlib
import json

import pytest

from catchain.cli import EXIT_OK, main

SEED = 5
CONFIG = {
    "seed": SEED,
    "model": {"class": "observation_driven_binary", "alpha": [0.4], "beta": [0.5], "gamma": [0.3], "link": "logistic"},
    "covariates": {"kind": "iid_normal", "mean": 0.0, "sd": 1.0, "dim": 1},
    "simulate": {"window": 1500, "eps": 1e-3},
}

GOLDEN = {
    "data": {
        "fhat_grid.csv": "bfdcaf54d655fc6fac1a9963c686e69b04b7e8f740f01b6265d80a35665b0f69",
        "fit_summary.txt": "9a83d49aa7a3e7761ee7c0a954aec3ff331e97511189b749f6686ac8c7e02c48",
        "theta_hat.csv": "7e006285eb0041b630872af452cea4961c04a5d3be5a22fe0fa563f5ab27a01e",
        "theta_profile.csv": "ef22cfe73ba9dd84ddd6141c977cb4fb6cea64a5716c0c3e063894a346735bbe",
    },
    "selftest": {
        "fhat_grid.csv": "274d65fb7efe86d873898638c8d47aa9511c4317f16e9e4b0a40cca964ba8151",
        "fit_summary.txt": "2d79876f3461106b9c841409e4c4bd467eaf8a284f9f8d9736a0bdf444f51346",
        "theta_hat.csv": "4d6ba3ac45eee8979b5d1bc884bddca1cf8f5005bb2a0b6bf71ffaf6a256166a",
        "theta_profile.csv": "2f665a498dde81289cd54c8677d7b6eaad68bb5e4972d93930634e1de3dba0b9",
    },
}


def fit_digests(tmp_path, run: str) -> dict:
    """Run ``fit`` as ``run`` describes; map each output file to its sha256."""
    cfg = dict(CONFIG)
    out = tmp_path / "fit"
    argv = ["fit", "--out", str(out), "--quiet"]
    if run == "selftest":
        cfg["fit"] = {"selftest": True, "n": 2000, "semiparametric": True}
    else:
        cfg["fit"] = {"semiparametric": True}
        sim = tmp_path / "simulate"
        argv += ["--data", str(sim / "path.csv")]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    if run == "data":
        assert main(["simulate", "--config", str(cfg_path), "--out", str(sim), "--quiet"]) == EXIT_OK
    assert main(argv + ["--config", str(cfg_path)]) == EXIT_OK
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_seeded_fit_outputs_match_recorded_digests(tmp_path, run):
    assert fit_digests(tmp_path, run) == GOLDEN[run]
