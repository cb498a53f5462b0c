"""CLI outputs pinned by sha256 on a small planted corpus.

A refactor that claims byte-identical outputs must keep these digests; a
change that alters an output on purpose updates them and says so. Python
3.12 made the float `sum` compensated, which changes the last bits of
some means, so the pins hold on CPython 3.11 only.

`ingest` rewrites the corpus in canonical form; its outputs hold no floats,
so they are pinned on every Python version. `extract` and `evaluate` see the
whole diffusion networks; `early-detect`
sees node- and edge-subsampled ones, which are often disconnected;
`sweep-threshold` also runs θ = 0 and θ = 1, where no spreader can be normal
or, respectively, susceptible, and every user scored exactly θ (untrained, or
with an all-true or all-fake history) is unknown.
"""

import hashlib
import json
import platform
import sys

import pytest

from newsnet.cli import main
from newsnet.synth import STRONG_EFFECTS, SyntheticSpec, generate, write_corpus

PINNED = {
    "features.csv": "8d0550f4bb8c4d901e5949ace7f73d0c3670c2295754c172aa5b935a6cafa927",
    "evaluation.json": "c279027ff53b3a92d1595eb9fa85c3e82b5fb937cd914346b5e7ec21e027f0e0",
}
INGEST_PINNED = {
    "edges.csv": "7957aeb8638b3169b9b03062b7717f6bb8070b5337af1bb5b6d3316cdb929f99",
    "engagements.csv": "efffbf7740cfcb39175a0e65707a5c14187133be01fd4eb1625ee9e5c668687d",
    "labels.csv": "49a417736ea179042b168b6024fa45b03c0006987dc9afcb3a6d80dbd1a4c6b1",
    "stats.json": "05994fa2e0037cc3c070b4480235ec1079629f39b86497dd11561ddcdc01e3bb",
}
EARLY_CONFIG = {"proportions": [0.3, 0.6], "repetitions": 1}
SWEEP_CONFIG = {"theta_grid": [0.0, 0.5, 1.0]}
SWEEP_PINNED = {
    "threshold_sweep.csv":
        "3c05ef7bc33e929f34372e06c62040760951f208f092bbabf2814f710096dfff",
}
EARLY_PINNED = {
    "early_detection.csv":
        "e4612e91d43608e58b4239135ad021d8074bcf3e3d98e56120e3d4270ab1acbd",
}


ON_CPYTHON_311 = pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info[:2] != (3, 11),
    reason="pinned on CPython 3.11; 3.12's float sum is compensated")


def _corpus_flags(tmp_path) -> list:
    corpus = generate(SyntheticSpec(n_users=80, news_per_class=15, seed=21,
                                    **STRONG_EFFECTS))
    write_corpus(corpus, tmp_path / "corpus")
    flags = ["--out", str(tmp_path / "out")]
    for name in ("edges", "engagements", "labels"):
        flags += [f"--{name}", str(tmp_path / "corpus" / f"{name}.csv")]
    return flags


def _digests(out, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


def test_ingest_outputs_are_pinned(tmp_path):
    assert main(["ingest"] + _corpus_flags(tmp_path)) == 0
    assert _digests(tmp_path / "out", INGEST_PINNED) == INGEST_PINNED


@ON_CPYTHON_311
def test_extract_and_evaluate_outputs_are_pinned(tmp_path):
    flags = _corpus_flags(tmp_path)
    assert main(["extract"] + flags) == 0
    assert main(["evaluate"] + flags) == 0
    assert _digests(tmp_path / "out", PINNED) == PINNED


@ON_CPYTHON_311
def test_early_detection_output_is_pinned(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(EARLY_CONFIG))
    assert main(["early-detect", "--config", str(config)] + _corpus_flags(tmp_path)) == 0
    assert _digests(tmp_path / "out", EARLY_PINNED) == EARLY_PINNED


@ON_CPYTHON_311
def test_threshold_sweep_output_is_pinned(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SWEEP_CONFIG))
    assert main(["sweep-threshold", "--config", str(config)] + _corpus_flags(tmp_path)) == 0
    assert _digests(tmp_path / "out", SWEEP_PINNED) == SWEEP_PINNED
