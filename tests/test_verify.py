"""Tests for the seven verify checks as a library call."""

import subprocess
import sys
from pathlib import Path

import pytest

from support import (check_shift_record, sigma_cases, sigma_curved,
                     sigma_obstructed)

from nijflow.exactpoly import base_names, format_polynomial
from nijflow.model import CompanionModel
from nijflow.verify import verify_model

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
