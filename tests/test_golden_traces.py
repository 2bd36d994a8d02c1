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
nbproc.  They do not depend on the CPU's SIMD extensions or the BLAS
build: ``test_pins_hold_under_older_cpu_switches`` runs this file again
under process-local switches that emulate an older x86-64 CPU.

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
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nbproc import models
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
        "0cccb612fb4bf2425d1e231de4bf9a638f0aa55b632b595236db19cffba7af07",
        "41ff096fb5cd39a2a7b9e92234f400d46388c0c739459427b2f6032cd6fd3e69",
    ),
    "nb-hdp": (
        "31d5a3f5e653f0ab7bb701f742ce386ecddbb73bcd865268909078bc823580cf",
        "d499bb671f2f71f6b0c1680c775ba233ecfd7a43eec8c689daa07c55b969432d",
    ),
    "nb-ftm": (
        "9ddee74fab663c1b41eb09ad039e3fe150d0a6cfe47989228a8195bde306856f",
        "607458895073b55a9d62c7016969d2741143b6bfb2d7d81673ad88429e6a0ec4",
    ),
    "beta-nb": (
        "b70db0ab42936dc5baca41ff47ef87738df94d4259e6a4c070fcb45d8b3568d0",
        "38342fcb7139983e276e8fa6ba5ce82c96abad6f55fa2ff8c9d58be2715cf8e4",
    ),
    "gamma-nb": (
        "57edf034e57c43dbeb71d3d60e1f5b2dd015228c6e4b0e779eda083ddc7eb810",
        "8241230e2ca579da4ddcc460001d655684cb9137e37943113853e96e754c9acb",
    ),
    "marked-beta-nb": (
        "4c8c12f09994949e119997f14f514a696e94ee6de6390d31a56fda5189bd1c13",
        "1467eebf2d934c1c0fd1c46b4b746810d7e1f63ff68793657796b121ade17f33",
    ),
    "marked-gamma-nb": (
        "54a150e0357731e7dd423658cb83b4c9580a935e22330cbab227fdadb21c2a01",
        "d8940d347e099e3f794435042759b6dd898c23daa796c46eb776c96394365fb7",
    ),
    "crf-hdp": (
        "67ff315076feacb3fbc8abddda92545ab7485e24e52201e0bfe269c8fe9a766e",
        "a7f91a6a1b40bbe000dbfd41b70dfac70bff239a7ae0b63f6250683aee7a337d",
    ),
}


def assert_trace_pinned(tmp_path, model, synth, flags, pin, name):
    """Fit ``model`` with ``nbproc run`` on the ``synth`` corpus at seed 11 and check its ``trace.csv`` against ``pin``."""
    spec = tmp_path / "synth.json"
    spec.write_text(json.dumps(synth))
    out = tmp_path / model
    args = ["run", "--model", model, "--synth", str(spec), "--train-frac", "0.6", "--seed", "11", *flags]
    assert main([*args, "--out", str(out)]) == EXIT_OK
    first, rows = (out / "trace.csv").read_bytes().split(b"\n", 1)
    rows_sha256, config_hash = pin
    assert hashlib.sha256(rows).hexdigest() == rows_sha256, f"{name} trace rows changed (numpy {np.__version__})"
    assert first.decode() == f"# config_hash={config_hash}", f"{name} config hash changed"


@pytest.mark.parametrize("model", sorted(GOLDEN_TRACES))
def test_trace_matches_golden_hash(model, tmp_path):
    synth = {"k_true": 3, "vocab_size": 15, "num_docs": 12, "r": 5.0, "p": 0.6, "seed": 9}
    flags = ["--K", "5", "--iters", "6", "--burnin", "3", "--init-iters", "2"]
    assert_trace_pinned(tmp_path, model, synth, flags, GOLDEN_TRACES[model], model)


# The same two-part pin for one fit at a shape the pins above never reach: K x V
# at or above BLOCKED_CELLS, so the topic Dirichlet is drawn in row blocks of
# several chunks each, and training tokens x K at or above THREADED_CELLS, so
# the assignment is drawn in parts on all cores.  About a second.
BLOCKED_K, BLOCKED_V = 192, 16384
BLOCKED_TRACE = (
    "bad8ddbd86448011fb1393c5fc5cf124785402a0779b84fbb0ca9ab9c276f9c5",
    "9cba10887410e8c761a83ad57e71e43307cd37a39257db7c5fb90fe475d5226f",
)


def test_blocked_threaded_trace_matches_golden_hash(tmp_path, monkeypatch):
    assert BLOCKED_K * BLOCKED_V >= models.BLOCKED_CELLS
    document_parts, cells = models._document_parts, []

    def counted_parts(offsets, num_topics):
        cells.append(int(offsets[-1]) * num_topics)
        return document_parts(offsets, num_topics)

    monkeypatch.setattr(models, "_document_parts", counted_parts)
    synth = {"k_true": 5, "vocab_size": BLOCKED_V, "num_docs": 120, "r": 5.0, "p": 0.8, "seed": 9}
    flags = ["--K", str(BLOCKED_K), "--iters", "3", "--burnin", "1", "--init-iters", "1"]
    assert_trace_pinned(tmp_path, "gamma-nb", synth, flags, BLOCKED_TRACE, "blocked")
    assert cells and min(cells) >= models.THREADED_CELLS


# The same pin for a fit whose documents x topics lam, in every warm-up and
# every sweep, is drawn in row blocks while its topics are not: K x V below
# BLOCKED_CELLS, and about 2 800 short documents x K at or above it.  About a
# second.
LAM_K, LAM_V, LAM_DOCS = 192, 2000, 2800
BLOCKED_LAM_TRACE = (
    "659d77be8e24257145a5c709e5559a6ecb018c7c0035580995f53b340ba9a88d",
    "b743aa8d79391c5c2b379c376bbc51dcf0fec01ee02ea21861c34c73ac9855ce",
)


def test_blocked_lam_trace_matches_golden_hash(tmp_path, monkeypatch):
    assert LAM_K * LAM_V < models.BLOCKED_CELLS <= LAM_K * LAM_DOCS
    in_row_blocks, draws = models._in_row_blocks, []

    def recorded(gen, num_rows, cells, draw, workers=None):
        draws.append((num_rows, cells))
        in_row_blocks(gen, num_rows, cells, draw, workers)

    monkeypatch.setattr(models, "_in_row_blocks", recorded)
    synth = {"k_true": 5, "vocab_size": LAM_V, "num_docs": LAM_DOCS, "r": 2.0, "p": 0.5, "seed": 9}
    flags = ["--K", str(LAM_K), "--iters", "3", "--burnin", "1", "--init-iters", "1"]
    assert_trace_pinned(tmp_path, "gamma-nb", synth, flags, BLOCKED_LAM_TRACE, "blocked lam")
    # two warm-up lam draws and one per sweep, every one of all the documents
    assert [rows for rows, cells in draws if cells >= models.BLOCKED_CELLS] == [LAM_DOCS] * 5


# kind name -> sha256 of json.dumps([forward_means, chain_means], sort_keys=True)
GOLDEN_GEWEKE = {
    "nb-lda": "2e72751045af9083843f2e92dd1070fa95ae6078c6f3696ae75e82516e7b19f9",
    "nb-hdp": "eec6cfd4384c60f2b84aea897df9a7eef74e921495ddce964b3f6d7ec2ef3d48",
    "nb-ftm": "ba1d8953a3eb484048906cb447ee353581f819b8be37c52c40579322a1c0a225",
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


# Switches that emulate an older x86-64 CPU in one process: numpy's vector
# loops without AVX-512, and OpenBLAS's kernels for a pre-AVX core.
OLDER_CPU_SWITCHES = {
    "numpy-without-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "openblas-nehalem": {"OPENBLAS_CORETYPE": "Nehalem"},
}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 switches")
@pytest.mark.parametrize("switch", sorted(OLDER_CPU_SWITCHES))
def test_pins_hold_under_older_cpu_switches(switch):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **OLDER_CPU_SWITCHES[switch]}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    args = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k", "not older_cpu"]
    out = subprocess.run(args, capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stdout[-4000:]
    # every pin ran: the traces, the two blocked traces, the coverage check and the Geweke paths
    pins = len(GOLDEN_TRACES) + len([BLOCKED_TRACE, BLOCKED_LAM_TRACE]) + 1 + len(GOLDEN_GEWEKE)
    assert f"{pins} passed" in out.stdout
