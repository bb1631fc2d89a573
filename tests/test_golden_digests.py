"""Pinned sha256 digests of pullback outputs at fixed seeds.

The determinism criterion only compares two reruns of the same code; these
digests pin the data files themselves, so a change to the pullback
(partition levels, census crossings, branch tracking, Markov inducing
times) that moves a single bit of any output fails here.  The values were
taken from the scalar one-solve-at-a-time pullback.
"""

import hashlib
import json

import pytest

from fiberdyn import constant_sequence, logistic_map, monotonicity_partition
from fiberdyn.experiments.cli import main as cli_main

GOLDEN = {
    "census logistic": (
        ["census", "--family", "logistic", "--n", "8"],
        {"census.csv": "2cb4039e302582e4f5cd6d13c798a4f6"
                       "8e34f3154b232d5aaef4cfef5972e1e1"}),
    "census twowell": (
        ["census", "--family", "twowell", "--n", "2"],
        {"census.csv": "d8cce3a1b523ba6d7e4c8c6b0a28b5d9"
                       "abb17b04c221723c938fbdb0c364ef32"}),
    "markov logistic": (
        ["markov", "--family", "logistic", "--depth", "1", "--seeds", "200"],
        {"branches.csv": "cb218852ad7d7d7f85038e38fa41c241"
                         "d598395f839f4bf49d370bb9b4245a83",
         "certificate.json": "f765aad04c2345cb8cfbee445c4245e2"
                             "3e0a30f1c7761a98192641138b435e23",
         "summability.json": "9027be55410013511d34008aa5f1e49f"
                             "6c778be6de60cbced97cd1e9864be9ff"}),
    "branch logistic": (
        ["branch", "--family", "logistic", "--n", "20"],
        {"branch.json": "703abfde6222c91fa848d3dace0e324d"
                        "d6ff1407b8ad71c3d595a191e9b36bae",
         "r_history.csv": "633afd3d2f211c1df1f976e14c347fa1"
                          "2c556d474d3cf6730018244603011050"}),
}

PARTITION_DIGEST = ("29e40184daed9dc8b01159b106f0a489"
                    "a0148dbf60808d9f527ea73830dbf3e0")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digests(name, tmp_path):
    argv, expected = GOLDEN[name]
    assert cli_main([*argv, "--seed", "5", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    actual = {e["name"]: hashlib.sha256((tmp_path / e["name"]).read_bytes())
              .hexdigest() for e in manifest["outputs"]}
    assert actual == expected


def test_partition_digest():
    part = monotonicity_partition(constant_sequence(logistic_map()), 8)
    text = repr((part.cells, part.levels))
    assert hashlib.sha256(text.encode()).hexdigest() == PARTITION_DIGEST
