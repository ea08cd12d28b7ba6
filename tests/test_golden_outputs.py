"""Seeded CLI outputs must not change silently.

Runs ``simulate`` (window 500) and ``bounds`` for one config of each of the
five model families at a fixed seed and compares the sha256 of every output
file with digests recorded before the latent-recursion engine was unified.
A mismatch means a seeded output changed; if the change is intended, record
the new digests and explain the change in CHANGES.md.  The digests were
recorded with numpy 2.4 and scipy 1.17 on x86-64.
"""

import hashlib
import json

import pytest

from catchain.cli import EXIT_OK, main

SEED = 5
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

# (model block, covariates block, bounds metric) per family
FAMILIES = {
    "observation_driven_binary": (
        {"class": "observation_driven_binary", "alpha": [0.4], "beta": [0.5], "gamma": [0.3], "link": "logistic"},
        IID_NORMAL,
        "l1",
    ),
    "binary_infinite_order": (
        {"class": "binary_infinite_order", "a": [0.5, 0.25, 0.125, 0.0625], "gamma": [0.3]},
        AR1,
        "l1",
    ),
    "nonlinear_binary": (
        {"class": "nonlinear_binary", "persistence": 0.5, "feedback": 0.1, "alpha": 0.4, "gamma": [0.3]},
        IID_NORMAL,
        "l1",
    ),
    "multinomial": (
        {"class": "multinomial", "A": LAG_A, "B": LAG_B, "Gamma": GAMMA_2, "n_categories": 3},
        FINITE_MARKOV,
        "discrete",
    ),
    "discrete_choice": (
        {"class": "discrete_choice", "A": LAG_A, "B": LAG_B, "Gamma": GAMMA_2, "n_components": 2},
        AR1,
        "l1",
    ),
}

GOLDEN = {
    "observation_driven_binary": {
        "bounds/b.csv": "696710955aaffa9ee877e68a8cfd9e19ec4dae288bbf1c15a66cd1058eeb3bfd",
        "bounds/bstar.csv": "4790067f85e20a0d9a16caa6fbc2c737419707dfb7a559a9adc87b7d6b7ee690",
        "bounds/certificate.txt": "7d0ccba6db45e8b0d827af0c4b10aa48f8cd74311006f9b33230c7838eb0c8e5",
        "bounds/dependence_bound.csv": "8ea9e6270f59bf2bbfb17c57c5235fa2af5883d66e67c7cd4d8a3fef6ef95e7d",
        "simulate/certificate.json": "ac9081cc3c5ea15ecbb94d643d26c4be8b54053b487ebe1704f8ddd60492548b",
        "simulate/path.csv": "5f0aff6153137fad14b143830af07599df34271cbd880d56653a132d90cf3ea2",
    },
    "binary_infinite_order": {
        "bounds/b.csv": "cc10509ac8a1084df8526181a227da67be48cdfb51ac918ece6ad1c89194b445",
        "bounds/bstar.csv": "60d37113bb8e94adadf736aea2c52753a49c0a0cac729c9bf9a80b30cacd683a",
        "bounds/certificate.txt": "17725947b5780e416fbdbc1532d416a98fb64d786974401592b34ec06871e231",
        "bounds/dependence_bound.csv": "a28f23733b6105214504e4c4e1167858585fd9e256f8f612a8dc10294f7633f8",
        "simulate/certificate.json": "e7ab1283c887c0afab4a25de29a3661379ad1ea4421664a7011a0f365439d9bf",
        "simulate/path.csv": "6a513ec9d1eca4620b807e27dee6bc2d2e47db056dd739e23db23beb97dd9800",
    },
    "nonlinear_binary": {
        "bounds/b.csv": "833833338b37b07b25b62e584efb409d9ebcd43a8ed15519af668d1b12e9dcd8",
        "bounds/bstar.csv": "f427258873b29155849d6194eefb5ed578d174db285d6116b8e54e3d81965133",
        "bounds/certificate.txt": "cfe35c38498c072b5fb9580a37ec88f6586e3211a429514a962b6257e6fa6ce1",
        "bounds/dependence_bound.csv": "4d45658e62bf13e393206ec106043ab3839bbd7c4a5a9a8b2fa509b741186441",
        "simulate/certificate.json": "f18f746d908451efa208dcb855a18ba5b8d3328fd0667fb66e7c4ea1e3f1a72f",
        "simulate/path.csv": "9edd3a1ae9b5c91f8d11055152853fff992cde88333ad35c07f5f7c71fdf036a",
    },
    "multinomial": {
        "bounds/b.csv": "196911a47cbbf56800d9c1916bdf5a92ca3b8efdcb8c5a274e37a6a0c20e9351",
        "bounds/bstar.csv": "0a508098514c29c8555fca304a0db59eaa6273a41b7c53ec9f9b016666a11a13",
        "bounds/certificate.txt": "bf88a77bb798db120adb745d865b319e359e098b594e25ca4b002a1a9aab26d6",
        "bounds/dependence_bound.csv": "f8ae1cca8966d834c8950c3d5cd90c620a7e6436127e20a02d030e965f947936",
        "simulate/certificate.json": "3e3ab1332d3e081b89293e67c0f452ad7af3b698c5acc2652974783ef6fb1b5d",
        "simulate/path.csv": "d343098e881359fab153a544ff996ad4addd8fbdce310f622ffd150fb9e3a92f",
    },
    "discrete_choice": {
        "bounds/b.csv": "9015d2f7b36018467b5774573dd6c5e51d7d0eef3c421b09074c9ca89fa719fc",
        "bounds/bstar.csv": "d1f4b43eaaa84503c6c7b5d37adcc89e09090aec29bc5584d37d4c5f922ccd1e",
        "bounds/certificate.txt": "c08eee2193e6a9b4e4b5be341d2cf6bd1ab0f611a2813e3649e4be8335a8d0ca",
        "bounds/dependence_bound.csv": "e33ae65ed72a8c14f97914d5ce817cea2ec1a9d77d95d3f736502af6c056ac48",
        "simulate/certificate.json": "51a5a52328a77de431f1b50da160e02cece0072274d7217e7f7c526907772e15",
        "simulate/path.csv": "9d1dc0b405557ecc57b0903f932827cc97f0e98eb98695d366d03857198c36f2",
    },
}


def family_digests(tmp_path, family: str) -> dict:
    """Run bounds then simulate for ``family``; map command/file to sha256."""
    model, cov, metric = FAMILIES[family]
    cfg = {
        "seed": SEED,
        "model": model,
        "covariates": cov,
        "simulate": {"window": 500, "eps": 1e-3},
        "bounds": {"horizon": 64, "n_max": 20, "metric": metric},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    digests = {}
    for command in ("bounds", "simulate"):
        out = tmp_path / command
        argv = [command, "--config", str(cfg_path), "--out", str(out), "--quiet"]
        assert main(argv) == EXIT_OK
        for f in sorted(out.iterdir()):
            digests[f"{command}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_seeded_outputs_match_recorded_digests(tmp_path, family):
    assert family_digests(tmp_path, family) == GOLDEN[family]
