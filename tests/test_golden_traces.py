"""Pinned ``trace.csv`` of every model kind name at one seed, in two parts.

Each kind is fitted with ``nbproc run`` on one tiny synthetic corpus
(K = 5, 6 iterations of which 3 are burn-in, 2 warm-up sweeps, seed 11).
The file is pinned as two values that together cover every byte of it:

* the sha256 of everything after the first line, i.e. the header and one
  row per iteration.  A change that claims to keep the samplers'
  behaviour must leave every row hash as it is: the trace holds
  perplexity, active topics and the parameter summaries of each
  iteration, so any change to a random draw or to a float expression in
  a kernel shows up here;
* the exact ``# config_hash=<hex>`` first line.  It moves only when the
  resolved configuration that is hashed changes, not the chain.

The row hashes hold only for a fixed numpy version (they were recorded
with numpy 2.4.6).  Another numpy release may turn the same Philox
stream into different variates, which changes them with no change to
nbproc.  The perplexity column also comes from BLAS products, whose last
bits may differ under another BLAS build.

``GOLDEN_GEWEKE`` pins the Geweke path of every kind with a forward
simulation: the forward and chain means of a short ``geweke_check``
(300 forward draws, 300 chain steps, seed 7) at the default Geweke
settings, K = 2 and J = 3.  The traces above never call
``forward_draw``, and at this size nb-ftm's gates open and close often,
so this pin covers code the trace pins do not.  It holds for a fixed
numpy version, as the row hashes do.
"""

import hashlib
import json

import numpy as np
import pytest

from nbproc.cli import _GEWEKE_KINDS, EXIT_OK, main
from nbproc.evaluation import default_geweke_settings, geweke_check
from nbproc.rng import RandomSource

# kind name -> (sha256 of trace.csv after its first line, config hash of the first line)
GOLDEN_TRACES = {
    "lda": (
        "e64509f6ec03d52cf5997ff255f38fdeef5ef2deda2b75fee1cd031bc5b1851f",
        "b9481603d0a5ecf9374a0ed50387afdfe0dcc08b560e7c95ca9059e92783ae67",
    ),
    "dir-pfa": (
        "e64509f6ec03d52cf5997ff255f38fdeef5ef2deda2b75fee1cd031bc5b1851f",
        "e1997f128307b405aba5d251a4641d56d54ff57b92c9f9f571b4424f6bf9b4da",
    ),
    "nb-lda": (
        "2d86fec14d59aa331b791cd80161c9c94035d3f92df26337b301320db89f8d40",
        "41ff096fb5cd39a2a7b9e92234f400d46388c0c739459427b2f6032cd6fd3e69",
    ),
    "nb-hdp": (
        "d8587a43a0ad5c627e30b4004d3221a216bab8cd6a60f7cc078ea686c37a4552",
        "d499bb671f2f71f6b0c1680c775ba233ecfd7a43eec8c689daa07c55b969432d",
    ),
    "nb-ftm": (
        "06c7fe86192f45ad93331f3fccfe52a062a06a95b2e08f30320c635a3e01aa92",
        "607458895073b55a9d62c7016969d2741143b6bfb2d7d81673ad88429e6a0ec4",
    ),
    "beta-nb": (
        "03998a948a34321d88c11f4b4b8c4d860eff74252c913f6f56172550af84be1a",
        "38342fcb7139983e276e8fa6ba5ce82c96abad6f55fa2ff8c9d58be2715cf8e4",
    ),
    "gamma-nb": (
        "3d32e40bde0160de6b4ce69fb2c37b024f86e0b2339721f102a7d8a97f989cdb",
        "8241230e2ca579da4ddcc460001d655684cb9137e37943113853e96e754c9acb",
    ),
    "marked-beta-nb": (
        "17d2be14cc77a4deb11a28fba6f821d3e409b84787903a89f860ebee2fd40235",
        "1467eebf2d934c1c0fd1c46b4b746810d7e1f63ff68793657796b121ade17f33",
    ),
    "marked-gamma-nb": (
        "f34690009d5cd6d1840387816f26e9cd8b073eb2fb6e854e8b7952a8d73ff3d4",
        "d8940d347e099e3f794435042759b6dd898c23daa796c46eb776c96394365fb7",
    ),
    "crf-hdp": (
        "536704f938532ad5ccca6c5ab4b6b50f51e0e6f134b1047286f92e515e8496fe",
        "a7f91a6a1b40bbe000dbfd41b70dfac70bff239a7ae0b63f6250683aee7a337d",
    ),
}


@pytest.mark.parametrize("model", sorted(GOLDEN_TRACES))
def test_trace_matches_golden_hash(model, tmp_path):
    spec = tmp_path / "synth.json"
    spec.write_text(json.dumps({"k_true": 3, "vocab_size": 15, "num_docs": 12, "r": 5.0, "p": 0.6, "seed": 9}))
    out = tmp_path / model
    args = ["run", "--model", model, "--synth", str(spec), "--train-frac", "0.6", "--seed", "11"]
    args += ["--K", "5", "--iters", "6", "--burnin", "3", "--init-iters", "2", "--out", str(out)]
    assert main(args) == EXIT_OK
    first, rows = (out / "trace.csv").read_bytes().split(b"\n", 1)
    rows_sha256, config_hash = GOLDEN_TRACES[model]
    assert hashlib.sha256(rows).hexdigest() == rows_sha256, f"{model} trace rows changed (numpy {np.__version__})"
    assert first.decode() == f"# config_hash={config_hash}", f"{model} config hash changed"


# kind name -> sha256 of json.dumps([forward_means, chain_means], sort_keys=True)
GOLDEN_GEWEKE = {
    "nb-lda": "7f0234b526edd094e3dafb01cb2d157645c556609d2c5b516c6fe69a29c7f9b5",
    "nb-hdp": "eec6cfd4384c60f2b84aea897df9a7eef74e921495ddce964b3f6d7ec2ef3d48",
    "nb-ftm": "741c7de9069a0ed79472ae08fdf0ad9d22eaea3e932101ea77e15ffe4cf0df16",
    "beta-nb": "63d29274a043a7aaf72040d00cbcc2c78461233caeec7aa0339f37877c3f95a7",
    "gamma-nb": "74665a7b2985b5293f5c3986dc610026296d59bf8cbe107d2a9e2640f9af7bf3",
    "marked-beta-nb": "bef1f1533042c1742d294b440d90c77175541ac63b8560e22b3c07058e34e91b",
    "marked-gamma-nb": "398fcebf86c1ad7abd2e04f92e749a99db70a6ead8209e863a3fd086508a93ae",
    "crf-hdp": "a9d21fe8d415be30f7c420b2c00b2614e0207c536620db54afebf9e6bc4e3049",
}


def test_geweke_pins_cover_every_forward_kind():
    assert sorted(GOLDEN_GEWEKE) == sorted(kind.value for kind in _GEWEKE_KINDS)


@pytest.mark.parametrize("kind", _GEWEKE_KINDS, ids=lambda k: k.value)
def test_geweke_path_matches_golden_hash(kind):
    report = geweke_check(kind, default_geweke_settings(kind), 300, 300, RandomSource(7))
    means = json.dumps([report.forward_means, report.chain_means], sort_keys=True)
    digest = hashlib.sha256(means.encode()).hexdigest()
    assert digest == GOLDEN_GEWEKE[kind.value], f"{kind.value} Geweke path changed (numpy {np.__version__})"
