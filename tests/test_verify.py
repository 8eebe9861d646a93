"""Tests for the seven verify checks as a library call."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from support import (check_shift_record, sigma_cases, sigma_curved,
                     sigma_obstructed)

from nijflow.exactpoly import base_names, format_polynomial
from nijflow.model import MAX_N, CompanionModel
from nijflow.verify import _sweep_points, verify_model

REPO = Path(__file__).resolve().parent.parent

# in the order of README's "Report JSON"
CHECK_NAMES = ["torsion", "gram_normal_form", "differential_shift",
               "h_poisson_pairs", "benenti", "compatibility_sweep",
               "integral_commutation"]


def test_import_loads_neither_the_cli_nor_argparse():
    code = ("import sys, nijflow.verify; print(sorted({'nijflow.cli', "
            "'argparse'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=str(REPO))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("sigma, failing", [
    (sigma_curved(3), set()),
    # only the Gram matrix keeps its normal form
    (sigma_obstructed(5), set(CHECK_NAMES) - {"gram_normal_form"}),
], ids=["curved3", "obstructed5"])
def test_verify_model_gives_seven_records_in_report_order(sigma, failing):
    names = base_names(len(sigma))
    model = CompanionModel.from_expressions(
        [format_polynomial(s, names) for s in sigma])
    checks = verify_model(model, 3)
    assert [c["name"] for c in checks] == CHECK_NAMES
    assert {c["name"] for c in checks if c["verdict"] == "fail"} == failing
    residual = {c["name"]: c["residual"] for c in checks}
    # {F_i, F_j} is a quarter of the h-pair bracket, F_i = h_(i+1)/2
    assert residual["integral_commutation"] == residual["h_poisson_pairs"] / 4
    for c in checks:
        assert set(c) == {"name", "verdict", "residual", "detail"}
        if c["name"] in failing:
            assert c["residual"] > 0
        else:
            assert c["residual"] < 1e-8 and c["detail"] is None


@pytest.mark.parametrize("sigma", sigma_cases())
def test_shift_record_is_the_rule_over_both_parts(sigma):
    # the p-rows are zero for every sigma, so leaving them out of verify
    # moves neither the verdict nor the residual
    check_shift_record(CompanionModel(sigma), 3)


# The sweep's points are numpy's default_rng stream, computed in the package
# without numpy.random.  If a numpy release changes its stream, the test
# against numpy fails by name, and the digests below keep the package's.
STREAM_SEEDS = [*range(256), 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128,
                10**299 + 20260825]


@pytest.mark.parametrize("seed", STREAM_SEEDS, ids=[
    str(s) if s < 2**129 else "300-digit" for s in STREAM_SEEDS])
def test_sweep_points_are_numpys_default_rng_stream(seed):
    for n in range(1, MAX_N + 1):
        expected = np.random.default_rng(seed).uniform(-2.0, 2.0, (50, n))
        got = _sweep_points(seed, n)
        assert got.shape == (50, n) and got.dtype == np.float64
        assert got.tobytes() == expected.tobytes(), n


# sha256 of the points' bytes, recorded from numpy 2.4's default_rng
SWEEP_DIGESTS = {
    (0, 1): "59df8e6582fa009a939b66880ca50941d162b78d6e05990c9b24810eca6e389d",
    (3, 2): "0ba53abffef9530b0821f99bf99b468ea10df3722a36cfa044c94fe05ff5f63a",
    (20260825, 3):
        "a510e0dd1ced2c46093c56f6fdb134253ea9880c3d5962e5ff61fe88a510f08f",
    (2**64, 7):
        "5ae6530ac7d1668405638ef42f86dd42acc3dcf0f42f9e89a9817c4060e87353",
    (10**299 + 20260825, 16):
        "6fd7942387916808cfa01f0c229362a90fb3121141c35a5c47340b683f00aacd",
}


@pytest.mark.parametrize("seed, n", sorted(SWEEP_DIGESTS))
def test_sweep_points_are_pinned(seed, n):
    digest = hashlib.sha256(_sweep_points(seed, n).tobytes()).hexdigest()
    assert digest == SWEEP_DIGESTS[seed, n]


@pytest.mark.parametrize("seed", [None, -1, 1.0, True, np.int64(3), [1, 2],
                                  "3"], ids=repr)
def test_seed_must_be_a_non_negative_int(seed):
    model = CompanionModel(sigma_curved(2))
    with pytest.raises(ValueError,
                       match="^seed must be a non-negative int, got "):
        verify_model(model, seed)


def test_commands_never_import_numpy_random():
    # one process, no threads: the modules loaded once verify, build-metric
    # and hierarchy have run, import nijflow.cli included
    code = ("import contextlib, io, json, sys\n"
            "import nijflow.cli\n"
            "for command in ('verify', 'build-metric', 'hierarchy'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert nijflow.cli.main([command, sys.argv[1]]) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(REPO / "configs/nijenhuis3.json")],
        capture_output=True, text=True, cwd=str(REPO))
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "nijflow.verify" in loaded
    assert not {"numpy.random", "secrets", "hmac"} & loaded
