"""Seeded ``fit`` outputs must not change silently.

Runs ``fit`` twice at a fixed seed, both times with the semiparametric
profile: once as a selftest on a simulated path, and once with ``--data``
on the ``path.csv`` that ``simulate`` writes.  The sha256 of every output
file is compared with recorded digests.  ``fhat_grid.csv`` dates from
before the likelihood evaluations were restructured; ``theta_hat.csv`` and
``fit_summary.txt`` were recorded when ``fit_mle`` moved from Nelder-Mead to
BFGS on the score.  A mismatch means a fitted value changed; if the change
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
        "fhat_grid.csv": "7cf7b2167b4dc0df1242ffcdd6707a17d3cb7f0cbf19858e7ff92fe71159ab24",
        "fit_summary.txt": "9a83d49aa7a3e7761ee7c0a954aec3ff331e97511189b749f6686ac8c7e02c48",
        "theta_hat.csv": "7e006285eb0041b630872af452cea4961c04a5d3be5a22fe0fa563f5ab27a01e",
    },
    "selftest": {
        "fhat_grid.csv": "2d73ee043657047f4eab503616a150e69b578f0040b81e474ab828f5366e03cd",
        "fit_summary.txt": "2d79876f3461106b9c841409e4c4bd467eaf8a284f9f8d9736a0bdf444f51346",
        "theta_hat.csv": "4d6ba3ac45eee8979b5d1bc884bddca1cf8f5005bb2a0b6bf71ffaf6a256166a",
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
