"""Every CLI output is pinned byte for byte at a fixed seed.

The digests were recorded while the EvalSet still held one record per
sample, before it became column-only. Any change to parsing, generation,
formatting or the metrics that alters one byte of a scores file, a report or
a surface export fails here.
"""

import hashlib

import numpy as np
import pytest

from dseval import Origin
from dseval.cli import main
from dseval.ingest import write_vector_file
from dseval.scoring import FeatureRecord, LogitRecord

DIGESTS = {
    "far.csv": "4a8199a47d2d5a5d3a1d7e80abd1ac140ae6fc60099aac3cefa52d63dadc1792",
    "near.csv": "868ddf142b629c0aaca5cf99801ea3f362db343fa5c45c3fc2293ea9b249f7fc",
    "eval.json": "6961faf5e73657e2673c841a2d1f15646fe0604d3635f5b45ec9253364aa9061",
    "eval.md": "d39110b41aead19f02ea3002adc5b3a98c5a680f617001b0095c66aaa1db782f",
    "surface.csv": "b4f2efe3769808663320e3351f770d33779b8079052ea6ad4b9db7845088047a",
    "select.json": "3a1bfe6ddb9e02108932711726660e66b9adcc0c4d9ab2c4ff70dba877a7dde1",
    "scores.csv": "b167a27cfd23cf5184edeef3c02102746348a4006f0882723530e6eaf4d94abf",
}

CHANNELS = ["--id-channel", "s_id", "--ood-channel", "s_ood"]


def _vector_files(rng, prefix, n_id, n_ood, n_classes=4, dim=8):
    means = np.linspace(-1.0, 1.0, n_classes * dim).reshape(n_classes, dim)
    labels = rng.integers(0, n_classes, n_id)
    features = np.vstack(
        [means[labels] + rng.standard_normal((n_id, dim)), rng.standard_normal((n_ood, dim))]
    )
    logits = features @ means.T + rng.standard_normal((n_id + n_ood, n_classes))
    rows = [
        (f"{prefix}{i:04d}", Origin.ID, int(labels[i])) if i < n_id
        else (f"{prefix}{i:04d}", Origin.OOD, None)
        for i in range(n_id + n_ood)
    ]
    write_vector_file(
        [LogitRecord(*row, z) for row, z in zip(rows, logits)], f"{prefix}logits.csv"
    )
    write_vector_file(
        [FeatureRecord(*row, f) for row, f in zip(rows, features)], f"{prefix}features.csv"
    )


def _run(*argv):
    assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every subcommand once in a scratch directory; reports echo relative paths."""
    work = tmp_path_factory.mktemp("byte_identity")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        for preset, seed in (("far", 11), ("near", 12)):
            _run("synth", "--preset", preset, "--n-id", 1000, "--n-ood", 1000,
                 "--acc", 0.8, "--seed", seed, "--out", f"{preset}.csv")
        _run("eval", "--scores", "far.csv", *CHANNELS, "--grid", 64, "--bins", 50,
             "--surface", "surface.csv", "--out", "eval.json")
        _run("eval", "--scores", "near.csv", *CHANNELS, "--grid", 32, "--out", "eval.md")
        _run("select", "--val", "far.csv", "--test", "near.csv", "--grid", 64,
             "--out", "select.json")
        rng = np.random.default_rng(5)
        _vector_files(rng, "ev_", 60, 40)
        _vector_files(rng, "fit_", 120, 0)
        _run("score", "--logits", "ev_logits.csv", "--features", "ev_features.csv",
             "--fit", "fit_logits.csv", "--fit", "fit_features.csv",
             "--method", "msp,energy,neg_entropy,mds,knn,l1", "--k", 5,
             "--out", "scores.csv")
        yield {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in DIGESTS}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_digest(outputs, name):
    assert outputs[name] == DIGESTS[name]
