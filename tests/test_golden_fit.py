"""Seeded ``fit`` outputs must not change silently.

Runs ``fit`` twice at a fixed seed, both times with the semiparametric
profile: once as a selftest on a simulated path, and once with ``--data``
on the ``path.csv`` that ``simulate`` writes.  The sha256 of every output
file is compared with digests recorded before the likelihood evaluations
were restructured.  A mismatch means a fitted value changed; if the change
is intended, record the new digests and explain the change in CHANGES.md.
The digests were recorded with numpy 2.4 and scipy 1.17 on x86-64.
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
        "fit_summary.txt": "9fcb78b17d2a161149dbcd975d1a773ac0a9b366c51baacf2d822d110a17217d",
        "theta_hat.csv": "a37ca3ffaab043b8c2cb6cf449bfe6185c5d144b81a13f1b5c2f50d078dab857",
    },
    "selftest": {
        "fhat_grid.csv": "2d73ee043657047f4eab503616a150e69b578f0040b81e474ab828f5366e03cd",
        "fit_summary.txt": "cece3230854878e5f95f1eb2b81f8238445d1ff0119b6badea484bb377531ede",
        "theta_hat.csv": "a4ec4d9d17cb649b03cea32ae5012cd5b0b8d70307fee583a832bc1a31cd06c1",
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
