"""Pinned sha256 of ``trace.csv`` for every model kind name at one seed.

Each kind is fitted with ``nbproc run`` on one tiny synthetic corpus
(K = 5, 6 iterations of which 3 are burn-in, 2 warm-up sweeps, seed 11).
A change that claims to keep the samplers' behaviour must leave every
hash as it is: the trace holds perplexity, active topics and the
parameter summaries of each iteration, so any change to a random draw
or to a float expression in a kernel shows up here.

The hashes hold only for a fixed numpy version (they were recorded with
numpy 2.4.6).  Another numpy release may turn the same Philox stream into
different variates, which changes them with no change to nbproc.
"""

import hashlib
import json

import numpy as np
import pytest

from nbproc.cli import EXIT_OK, main

GOLDEN_TRACE_SHA256 = {
    "lda": "c4e33d20994cfd7da36f33b84d872dfad30c3daa635def5ab62a6cc2ea5398b2",
    "dir-pfa": "7ce99b885ccd810aaf4b89dd0cd3d53011b274245020ea4c77578148d78747a4",
    "nb-lda": "3759de6e3ed729dcf50f51e8fcb717366f0e636e6a88a6cb7fc90323714ee5ef",
    "nb-hdp": "4f336b2e47785e8a0a680ca0497304e3bf6b159b495b30604bd5b5bbd3930f19",
    "nb-ftm": "f707abb791aa2418b1d07eef65d8814407a6b9840425ef4fb080e16718811b25",
    "beta-nb": "331f27b2dcabd5e8d0a0aa1871a936492c9f36d3c1d5dceacaf0980dc6f510e0",
    "gamma-nb": "66c542aef21407137eeda2e8dc75890f454c4679e3ce408f24bb4eecd4eac118",
    "marked-beta-nb": "d7a100889b427bad25267af6d559af5811fdc74c501eaea87a39653071ab8e4c",
    "marked-gamma-nb": "4b384d632f75d9ef61004bfc53664f8ada37493c01264e2ee6e796e191041594",
    "crf-hdp": "3651f5d0e0a82e3e3dfd9c5e0fa0c16bc10732c610ed1ed82c472b5eacf22db2",
}


@pytest.mark.parametrize("model", sorted(GOLDEN_TRACE_SHA256))
def test_trace_matches_golden_hash(model, tmp_path):
    spec = tmp_path / "synth.json"
    spec.write_text(json.dumps({"k_true": 3, "vocab_size": 15, "num_docs": 12, "r": 5.0, "p": 0.6, "seed": 9}))
    out = tmp_path / model
    args = ["run", "--model", model, "--synth", str(spec), "--train-frac", "0.6", "--seed", "11"]
    args += ["--K", "5", "--iters", "6", "--burnin", "3", "--init-iters", "2", "--out", str(out)]
    assert main(args) == EXIT_OK
    digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_TRACE_SHA256[model], f"{model} trace changed (numpy {np.__version__})"
