"""Pinned sha256 digests of experiment outputs at fixed seeds.

The determinism criterion only compares two reruns of the same code; these
digests pin the data files themselves, so a change that moves a single bit
of any output fails here.  The pullback entries (partition levels, census
crossings, branch tracking, Markov inducing times) were taken from the
scalar one-solve-at-a-time pullback; the measure, decay, curve, probe,
ftle, pliss and viana branch entries, and the branch-size arrays, from the
code that dispatched on the system type with isinstance ladders.  The full
bin-count arrays, invariance defects and component reports were taken from
the cloud loops that binned one step per call, before iterates were binned
in blocks.  The deep pliss and branch entries (depth 300-1000, where a
branch domain has collapsed to one float) were taken from the pullback that
still bisected one-float brackets.  The logistic ftle entry was taken before
ftle_fiber shared its orbit step with ftle_full.  The logistic depth-2 and
quadratic markov entries, which draw random seeds past the stratified ones
and reseed gaps, were taken while the covering search and the branch
pullback were two walks.  The logistic depth-2 branches.csv was taken
again under the one log rule, np.log of |f'| with -inf at critical sizes
(maps.log_abs); that moved the last digits of two of its distortion
samples, which Markov certification had summed by math.log.  The viana
curve.json and probe.json entries were taken again when the domination fit
moved from the dyadic theta grid k/32, which collapses to theta = 0, to
frac(k phi); they carry the fitted constants.  Files that carry the generator metadata
(measure_meta.json, components.json) also record the numpy version, so they
pin it too.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from fiberdyn import (constant_sequence, empirical_measure, ergodic_components,
                      invariance_defect, logistic_map, monotonicity_partition,
                      orbit_bin_counts, twowell_map, viana_skew)
from fiberdyn.expansion import branch_stats, fiber_branch_stats
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
    "markov logistic depth 2": (
        ["markov", "--family", "logistic", "--depth", "2", "--seeds", "2000"],
        {"branches.csv": "531c01a8f3e8b9666bcfae8b7e07a7df"
                         "06baa0a018cdd20d7de0f3ce0e1a012d",
         "certificate.json": "fd19771213a8f4219fefcaed981f26f6"
                             "3fac4fb0fdc8f50bb21952fa6381c89a",
         "summability.json": "8e4c51a21aaa25729eefbc47685e0634"
                             "5f91d55fe5a0ea6bb04c569d276c0646"}),
    "markov quadratic": (
        ["markov", "--family", "quadratic", "--system", "a=2", "--depth", "1",
         "--seeds", "300"],
        {"branches.csv": "6091c0907d8d099119cbba0e98f7b61b"
                         "6f432302524b89d626b6442a693d1107",
         "certificate.json": "064bcd3508c4c71488f2143199b7d9c0"
                             "4192174b247170e208671edb05c77b5e",
         "summability.json": "9027be55410013511d34008aa5f1e49f"
                             "6c778be6de60cbced97cd1e9864be9ff"}),
    "branch logistic": (
        ["branch", "--family", "logistic", "--n", "20"],
        {"branch.json": "703abfde6222c91fa848d3dace0e324d"
                        "d6ff1407b8ad71c3d595a191e9b36bae",
         "r_history.csv": "633afd3d2f211c1df1f976e14c347fa1"
                          "2c556d474d3cf6730018244603011050"}),
    "acim logistic": (
        ["acim", "--family", "logistic"],
        {"measure.csv": "01294628bcf14f2ae311f69cf1dc7c20"
                        "41f56ea3e7d740b803ab5d9820378a08",
         "measure_meta.json": "c506b8de9293aa174543dc390793e642"
                              "bb65730627b95f8bc060c4cab0d30f51"}),
    "acim viana": (
        ["acim", "--family", "viana", "--samples", "1000"],
        {"measure.csv": "7b1329e1a443d663d875b637cc6521bd"
                        "982425d36f3f97ede9867e2f616cab3a",
         "measure_meta.json": "e9b0e947da47883bf1ce1f3e4ee276b6"
                              "c26e69de374b2136780e9a0aa42302fa"}),
    "components logistic": (
        ["components", "--family", "logistic", "--n", "2000"],
        {"assignment.csv": "12e2b3e8dc333da7f6cd809aa31f5e5a"
                           "e39258e59a9029ee501dcd3b07a93637",
         "components.json": "f82d3108ebfdbbc3f466cea75dacdb9f"
                            "906429b9bea319bab84936ab75850771"}),
    "components twowell": (
        ["components", "--family", "twowell", "--n", "2000"],
        {"assignment.csv": "c722a4a4a9ea80fd06780b4348e6f6b4"
                           "625cc2e167ced62d127dd7c75eac907c",
         "components.json": "c02ce6216bfcaca63ff99e87cc84d10f"
                            "8f9e6428638935dc0d1cba5f31f579ee"}),
    "components viana": (
        ["components", "--family", "viana", "--n", "2000"],
        {"assignment.csv": "12e2b3e8dc333da7f6cd809aa31f5e5a"
                           "e39258e59a9029ee501dcd3b07a93637",
         "components.json": "7f8d6309705aa451ffacc75c59d7f52a"
                            "667fc49ba662b4beb6c60b2582c2de69"}),
    "ay_decay logistic": (
        ["ay_decay", "--family", "logistic", "--samples", "10000"],
        {"decay.csv": "7bc15209ee600aa668c415a329f956a6"
                      "e21406cd7d53603134c62ae031b512b2"}),
    "ay_decay viana": (
        ["ay_decay", "--family", "viana", "--samples", "10000"],
        {"decay.csv": "004fd1b1a9677edaf326f6cce85d024b"
                      "8835063d3ae51c137e52adc9149514ef"}),
    "curve viana": (
        ["curve", "--family", "viana", "--iterations", "50", "--curves", "5",
         "--samples", "256"],
        {"curve.json": "2ea7d112cf725dfb685cde994bc88f69"
                       "3aa050d50b33b8f0f2b1c8b7e4a3c48b",
         "curve_slopes.csv": "31e49c9a81ca4d118ae04acd09aba2ae"
                             "87f6fb8383c05816034f48c177fba122"}),
    "probe viana": (
        ["probe", "--family", "viana", "--theta", "0.3", "--x", "0.5", "--k",
         "3", "--delta-tilde", "0.1"],
        {"probe.json": "b09803bc808df7c38bd018b400b403d3"
                       "d7e662883b7512e52f4fc20a85464265"}),
    "ftle viana": (
        ["ftle", "--family", "viana", "--n", "10000", "--samples", "2"],
        {"ftle.csv": "ebba687874a5a0944801e4cff67812ac"
                     "7bed5805aeb6c1c154c3933383618afd"}),
    "ftle logistic": (
        ["ftle", "--family", "logistic", "--n", "50000", "--samples", "2"],
        {"ftle.csv": "3d26d500f806099661d737eb0ef13d1e"
                     "441af620fa4a5eaa52c1a02d9fa13805"}),
    "pliss viana": (
        ["pliss", "--family", "viana", "--n", "200", "--theta", "0.3", "--x",
         "0.2"],
        {"pliss.csv": "308a0ce2e4adfa8b0346e6de1d5b3882"
                      "54673301b8d2a061f95b4a62dd098e8b",
         "pliss.json": "83aa431c7c643bbc8618c48238ca1068"
                       "836c1a250ded749626713839f46fbf7e"}),
    "pliss logistic deep": (
        ["pliss", "--family", "logistic", "--n", "1000"],
        {"pliss.csv": "28734181037779333c176adfe0acc5f0"
                      "6dae3eef5de5a432d2f7931a3aa545bd",
         "pliss.json": "63aa5cd68d792b36637adba76fcf85b6"
                       "b4064bbb485d9c70203988515a35c59f"}),
    "pliss twowell deep": (
        ["pliss", "--family", "twowell", "--n", "300"],
        {"pliss.csv": "e84f3f6293c0bcc05fb197c4f8f4970d"
                      "2554e846cf1c0341001f4673a00a28f5",
         "pliss.json": "502acbdf7a67145841b3f3e58514651e"
                       "82beb6b293dfcd709e699b67447f3c53"}),
    "branch logistic deep": (
        ["branch", "--family", "logistic", "--n", "1000"],
        {"branch.json": "baa7930ae00758261c9a5bdcab1eb9ee"
                        "9ba3a6181045f4613c08b57bf89c7e55",
         "r_history.csv": "13451874a613316b9e6fff055b98ac17"
                          "16d3a3fc82a7ce5fefc7e9398c106d92"}),
    "branch viana": (
        ["branch", "--family", "viana", "--n", "12", "--theta", "0.3", "--x",
         "0.2"],
        {"branch.json": "1ee609f455a9c51d2c3ba47c9bd1efba"
                        "0080414c0b5a57c59fccc4d506a33076",
         "r_history.csv": "4a26a05282fd50e489c80f46396d4af8"
                          "0b2bb23b3145dd67e4c7ace049d4f6f4"}),
}

PARTITION_DIGEST = ("29e40184daed9dc8b01159b106f0a489"
                    "a0148dbf60808d9f527ea73830dbf3e0")

BRANCH_STATS_DIGESTS = {
    "logistic": ("17b14f5816c06d9de143b49dfb21f6cd"
                 "53cf20f2ce711d434675ef7f6cf04e72"),
    "twowell": ("108bd9ade6c73a379c22a9316a36ca93"
                "d4b648c534667ee1d727490cdbb48608"),
    "viana": ("5a5b29dea814d305daf568a5aea7c4c8"
              "14adf6668db07a3dd0128cd838bd470e"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digests(name, tmp_path):
    argv, expected = GOLDEN[name]
    assert cli_main([*argv, "--seed", "5", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    actual = {e["name"]: hashlib.sha256((tmp_path / e["name"]).read_bytes())
              .hexdigest() for e in manifest["outputs"]}
    assert actual == expected


def test_config_file_spelling_writes_golden_digests(tmp_path):
    # a = 2 in a file is the float 2.0 that --system a=2 gives
    cfg_file = tmp_path / "quadratic.cfg"
    cfg_file.write_text("[system]\nfamily = quadratic\na = 2\n")
    out = tmp_path / "out"
    assert cli_main(["markov", "--config", str(cfg_file), "--depth", "1",
                     "--seeds", "300", "--seed", "5", "--out", str(out)]) == 0
    actual = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in GOLDEN["markov quadratic"][1]}
    assert actual == GOLDEN["markov quadratic"][1]


def test_partition_digest():
    part = monotonicity_partition(constant_sequence(logistic_map()), 8)
    text = repr((part.cells, part.levels))
    assert hashlib.sha256(text.encode()).hexdigest() == PARTITION_DIGEST


def _array_digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_branch_stats_digests():
    """(r, logd, alive) bit for bit; the grids hit critical points too."""
    xs = np.linspace(0.0, 1.0, 257)
    skew = viana_skew()
    dom = skew.fiber_domain
    actual = {
        "logistic": _array_digest(branch_stats(logistic_map(), xs, 30)),
        "twowell": _array_digest(branch_stats(twowell_map(), xs, 12)),
        "viana": _array_digest(fiber_branch_stats(
            skew, np.linspace(0.0, 1.0, 65), np.linspace(dom.lo, dom.hi, 65),
            20)),
    }
    assert actual == BRANCH_STATS_DIGESTS


BIN_COUNT_DIGESTS = {
    "logistic": ("acbbda2914ec785d9d33901ffa1458a3"
                 "69c8ddfea4c7b27797ac597e63079d1e"),
    "viana": ("a54201f5c1b80d31af15af5f298fbd17"
              "80283956f8c4c80cc5f41102b6d7c6bf"),
    "twowell": ("2198eb2a45a29a663b491e8b7b9615d5"
                "1da5b8573ddcc1bbe59fdc48ccc53b31"),
}

INVARIANCE_DEFECTS = {
    "logistic": "0.1217502176560591",
    "viana": "0.6689999999999999",
}

COMPONENT_DIGESTS = {
    "twowell": ("374b8a7a8656afd0f998a7063ad5a478"
                "807485c6ce5c7bc822e39ee33184cd96"),
    "viana": ("87dc85d4e531c876eb5dd96af76e3249"
              "ec83fc8bdc72af3c7a74148107d30420"),
}


def test_orbit_bin_counts_digests():
    """Every row of the counts, row n too, which the acim outputs omit.

    A 10^4-point cloud bins one step per block, a 1000-point 2-d cloud a
    few, and 500 steps of 100 points end on a partial block.
    """
    actual = {
        "logistic": orbit_bin_counts(logistic_map(), 10**4, 30, 256, 5)[0],
        "viana": orbit_bin_counts(viana_skew(), 1000, 40, 32 * 32, 5)[0],
        "twowell": orbit_bin_counts(twowell_map(), 100, 500, 64, 5)[0],
    }
    actual = {k: _array_digest([v]) for k, v in actual.items()}
    assert actual == BIN_COUNT_DIGESTS


def test_invariance_defect_values():
    logistic, skew = logistic_map(), viana_skew()
    mu = empirical_measure(logistic, 2000, 50, 64, 3)
    nu = empirical_measure(skew, 500, 20, 16 * 16, 3)
    actual = {
        "logistic": repr(invariance_defect(mu, logistic, 10**4, 7)),
        "viana": repr(invariance_defect(nu, skew, 10**4, 7)),
    }
    assert actual == INVARIANCE_DEFECTS


def test_component_report_digests():
    """Burn-ins of 137 and 150 steps, neither a multiple of a block."""
    reports = {
        "twowell": ergodic_components(twowell_map(), 100, 1000, 64, 5,
                                      burn_frac=0.137),
        "viana": ergodic_components(viana_skew(), 100, 600, 64, 5,
                                    burn_frac=0.25),
    }
    actual = {k: hashlib.sha256(json.dumps(asdict(r), sort_keys=True)
                                .encode()).hexdigest()
              for k, r in reports.items()}
    assert actual == COMPONENT_DIGESTS
