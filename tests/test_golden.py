"""Byte-identity manifest: a fixed set of CLI artifacts against recorded digests.

`tests/golden.json` holds the sha256 of every file a small fixed set of
commands writes, with each command's exit code, and the stamp those bytes
depend on (README, "Reproducibility"): the NumPy version, the BLAS build,
the machine and the CPU's FMA/AVX features. On the recorded stamp the test
regenerates the set and compares every digest; on any other stamp it skips
and names what differs. A change that moves bits on purpose re-records
the manifest with

    PYTHONPATH=src python tests/test_golden.py

and names each file whose digest moved, and why.

The set covers training on AWGN (perfect, and 1 bit over a BSC) and on
NLPN K = 50 (2 bits over a BSC), an NLPN power sweep with the 16-QAM ML
column large enough for the helper-thread channel path (4,097 symbols and
up), verify over two full sample chunks and a partial one, a 101 x 101
decision-region grid, and the Bussgang table.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qflearn.cli import OUTPUT_DIR_ENV, main

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

MANIFEST = Path(__file__).resolve().with_name("golden.json")
CPU_FEATURES = ("FMA3", "AVX2", "AVX512F", "AVX512_SKX")

AWGN = {"family": "awgn", "sigma_sq_dbm": -21.3, "P_dbm": -6.3}
NLPN = {"family": "nlpn", "sigma_sq_dbm": -21.3, "P_dbm": -3.0, "gamma": 1.27, "L_km": 5000.0, "K": 50}
Q1_BSC = {"quantizer": {"q_bits": 1}, "bsc": {"flip_prob": 0.1}}
Q2_BSC = {"quantizer": {"q_bits": 2}, "bsc": {"flip_prob": 0.1}}


def _training(num_iterations):
    return {"num_iterations": num_iterations, "ser_every": 15, "ser_symbols": 5000}


# case name: (command, config sections besides schema_version, seed and output_dir)
CASES = {
    "train_awgn_perfect": ("train", {"channel": AWGN, "training": _training(30)}),
    "train_awgn_q1_bsc": ("train", {"channel": AWGN, "training": _training(30), **Q1_BSC}),
    "train_nlpn_q2_bsc": ("train", {"channel": NLPN, "training": _training(30), **Q2_BSC}),
    "ser_sweep_nlpn_p_dbm": (
        "ser-sweep",
        {
            "channel": NLPN,
            "training": _training(3),
            **Q1_BSC,
            "sweep": {
                "parameter": "p_dbm",
                "values": [-3.0, 0.0],
                "num_symbols": 70_000,
                "include_qam16_ml": True,
                "ml_draws_per_point": 20_000,
            },
        },
    ),
    "verify_awgn": (
        "verify",
        {"channel": AWGN, "training": _training(20), "verify": {"num_samples": 150_001, "flip_probs": [0.0, 0.1, 0.3]}},
    ),
    "decision_regions_awgn": (
        "decision-regions",
        {"channel": AWGN, "training": _training(10), "grid": {"bounds": [-1.0, 1.0], "resolution": 101}},
    ),
    "bussgang": ("bussgang", {"bussgang": {"num_samples": 200_000}}),
}


def environment_stamp():
    """What the artifact bytes depend on besides the code, config and seed."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
        "cpu_features": [name for name in CPU_FEATURES if __cpu_features__.get(name)],
    }


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests():
    """Run every case from the current directory: {case: {"exit": code,
    "files": {file name: sha256}}}. The output directories are relative, so
    the config hash in the artifacts does not depend on where they run."""
    digests = {}
    for name, (command, sections) in CASES.items():
        cfg = {"schema_version": 1, "seed": 7, "output_dir": f"golden/{name}", **sections}
        path = Path(f"{name}.json")
        path.write_text(json.dumps(cfg))
        code = main([command, str(path)])
        out = Path(cfg["output_dir"])
        digests[name] = {"exit": code, "files": {f.name: _sha256(f) for f in sorted(out.iterdir())}}
    return digests


def test_artifacts_match_the_golden_manifest(tmp_path, monkeypatch):
    manifest = json.loads(MANIFEST.read_text())
    stamp = environment_stamp()
    recorded = manifest["stamp"]
    differs = {key: (recorded.get(key), stamp[key]) for key in stamp if recorded.get(key) != stamp[key]}
    if differs:
        pytest.skip(f"digests not compared: recorded (stamp, this machine) differ in {differs}")
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    assert artifact_digests() == manifest["artifacts"]


if __name__ == "__main__":
    os.environ.pop(OUTPUT_DIR_ENV, None)
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        artifacts = artifact_digests()
    MANIFEST.write_text(json.dumps({"stamp": environment_stamp(), "artifacts": artifacts}, indent=2) + "\n")
    print(f"recorded {sum(len(case['files']) for case in artifacts.values())} digests to {MANIFEST}", file=sys.stderr)
