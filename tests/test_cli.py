"""Tests for the command-line front end: configs, reports, CSV, SVG."""

import decimal
import errno
import functools
import hashlib
import io
import json
import os
import random
import re
import stat
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from support import (reference_read_grid_csv, reference_write_grid_csv,
                     reference_write_svg_plot, sigma_curved,
                     whole_file_read_grid_csv)

import nijflow.verify as verify

from nijflow.cli import (ConfigError, build_model, config_initial_curve,
                         load_config, main, read_grid_csv,
                         verification_report, write_grid_csv, write_svg_plot)
from nijflow.exactpoly import (ExactPolynomial, base_names, format_polynomial,
                               parse_expression)
from nijflow.flows import AxisSpec, FlowSettings, SolutionGrid
from nijflow import lattice_io
from nijflow.lattice_io import _BLOCK_CELLS
from nijflow.metric import pairwise_poisson

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

CHECK_NAMES = ["torsion", "gram_normal_form", "differential_shift",
               "h_poisson_pairs", "benenti", "compatibility_sweep",
               "integral_commutation"]


def small_e2_config(tmp_path, **overrides):
    cfg = {
        "name": "small-e2",
        "n": 2,
        "sigma": ["u1", "u2 - 1/2*u1^2"],
        "initial": {"u": [0.1, -0.2], "p": [0.8, 0.5]},
        "grid": {"x": {"start": -0.3, "stop": 0.3, "count": 11},
                 "t": [{"start": 0.0, "stop": 0.2, "count": 6}]},
        "integrator": {"method": "rk45"},
        "seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_on_torsion_free_config(capsys):
    assert main(["verify", str(CONFIGS / "nijenhuis2.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"]] == CHECK_NAMES
    assert all(c["verdict"] == "pass" for c in report["checks"])
    assert report["verdict"] == "pass"


def test_verify_fails_on_coordinate_config(capsys):
    assert main(["verify", str(CONFIGS / "coordinates2.json")]) == 1
    report = json.loads(capsys.readouterr().out)
    failing = {c["name"] for c in report["checks"] if c["verdict"] == "fail"}
    assert {"torsion", "differential_shift", "benenti"} <= failing
    assert report["verdict"] == "fail"


def test_verify_sweep_overflow_fails_quietly_with_nan(tmp_path, capsys):
    # the sweep's floats overflow: numpy warned on stderr (an error under
    # -W error), and fmax passed over the nan components that inf - inf made
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"n": 2, "sigma": ["u1 + 10^200*u2^2", "u2"],
                                  "seed": 3}))
    assert main(["verify", str(config)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    sweep = json.loads(out)["checks"][CHECK_NAMES.index("compatibility_sweep")]
    assert sweep["verdict"] == "fail"
    assert np.isnan(sweep["residual"])


def test_verify_residual_past_the_float_range_names_its_check(tmp_path,
                                                             capsys):
    # a 200-digit coefficient: the differential_shift residual's largest
    # coefficient has about 400 digits, past the float range; the line said
    # only "integer division result too large for a float"
    big = "9" * 200
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"n": 2, "sigma": [f"{big}*u1*u2",
                                                    f"{big}*u2^2 + u1"],
                                  "seed": 1}))
    assert main(["verify", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("nijflow verify: floating-point overflow: the "
                   "differential_shift residual exceeds the float range\n")


@pytest.mark.parametrize("n", [5, 6])
def test_verify_passes_on_curved_family(n):
    # n = 7 passes too, in about 1 s
    sigma = [format_polynomial(s, base_names(n)) for s in sigma_curved(n)]
    report = verification_report({"n": n, "sigma": sigma})
    assert [c["name"] for c in report["checks"]] == CHECK_NAMES
    assert all(c["verdict"] == "pass" for c in report["checks"])


def test_verify_report_is_deterministic(tmp_path, capsys):
    cfg = small_e2_config(tmp_path)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", str(cfg), "--output", str(out1)]) == 0
    stdout1 = capsys.readouterr().out
    assert main(["verify", str(cfg), "--output", str(out2)]) == 0
    stdout2 = capsys.readouterr().out
    assert stdout1 == stdout2
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text() == stdout1


@pytest.mark.parametrize("name", ["nijenhuis3", "coordinates2"])
def test_verify_sweeps_in_one_call_of_each(monkeypatch, capsys, name):
    # the sweep runs over its 50 points as one stack, so one verify calls
    # each of these two names, as nijflow.verify imports them, exactly once
    calls = {}
    for attr in ("covariant_at", "coordinate_form_residual_at"):
        def counted(*args, _real=getattr(verify, attr), _attr=attr):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _real(*args)
        monkeypatch.setattr(verify, attr, counted)
    main(["verify", str(CONFIGS / f"{name}.json")])
    capsys.readouterr()
    assert calls == {"covariant_at": 1, "coordinate_form_residual_at": 1}


# SHA-256 of the stdout of verify, build-metric and hierarchy for every
# shipped config, recorded with the generic-product construction of the
# quadratic integrals (and, for nijenhuis3/4, with the pencil square of the
# h family): whatever route builds the exact objects, the reports must not
# change by a byte.  coordinates2 is the obstructed control: verify exits 1.
REPORT_COMMANDS = ("verify", "build-metric", "hierarchy")
REPORT_DIGESTS = {
    "constant2": (
        "e7bed5e0d37a23f565df52c3f58ae06d35368a02a4f68d5fa61dbdbc5523d888",
        "3cc82075b0caec78bda4fda4487645c150250a09539b27150d5fff417426af49",
        "9b187394458633565b8318ea3ff7d185797816435ca46fd3b9a500dd713249bb"),
    "constant3": (
        "33bde2c13089dfc75aea420154998bdb08dea3736281c6125dadd5f4dd8b25a2",
        "005db6b3d547d7f20fb4545bf8cb0ba7908734329a590970d63e8dfef8eb5e42",
        "c4027dea6fc1ff8861fb68d2ad6b1ac249bb4d22c9991a0d7e5750dc53c3e573"),
    "coordinates2": (
        "697eab40c1aebcb55e26c83949d670863091dd4159b83e27a813d788b0901849",
        "7416a8213800306125af30ddef3a594a49e633a1f79c0cae49ec34731f579d3a",
        "21f357e434c83d1b42647484695116319059140e8cf3d2b73b418a46435449ed"),
    "nijenhuis2": (
        "e1f852a9c0b9d2fb3f79cc33cf337536148e7ae2aa2498ba8a9c589aa5d23083",
        "73db7a787a413932c8e8c24f40693a6cd3012f8cf2f379d6e1af212773c165a2",
        "64499134867604b6b449860796c9bb4e2ff8c62d7ae36324bd8550b4bbc208a0"),
    "nijenhuis2_direct": (
        "4bb4a5df0b0cd51d43fcbbb77c5b839315d8aa9c7b8253e7361f6c828cc7d797",
        "73db7a787a413932c8e8c24f40693a6cd3012f8cf2f379d6e1af212773c165a2",
        "64499134867604b6b449860796c9bb4e2ff8c62d7ae36324bd8550b4bbc208a0"),
    "nijenhuis2_hyperbolic": (
        "8443c2bd3f1a8d58c4e7166a08c4ac754f6ba6d362a5f2fb8eb3a1ac29f1f161",
        "73db7a787a413932c8e8c24f40693a6cd3012f8cf2f379d6e1af212773c165a2",
        "64499134867604b6b449860796c9bb4e2ff8c62d7ae36324bd8550b4bbc208a0"),
    "nijenhuis3": (
        "0a64f8b47dd11a66af4b505bcadcdb8f35c472717bfc361c0b4492de7552d8b3",
        "19eba0704a491973de35652432322ec630ab4bc881a3d20587daf6e084922085",
        "e0e77abe95256b2afe12f6d2d778680df087a779719dceb9520db6b6180ed1a0"),
    "nijenhuis3_direct": (
        "282397d482dfcc33e08cb1abe916068bb8bc3d96b60817b9576f641e9c16f5bf",
        "19eba0704a491973de35652432322ec630ab4bc881a3d20587daf6e084922085",
        "e0e77abe95256b2afe12f6d2d778680df087a779719dceb9520db6b6180ed1a0"),
    "nijenhuis4": (
        "5cf9eaebaa59a410fc41c562737327e4c8596d91bc662b14da4e67ce6d35eb2b",
        "0a3b38b90661fa6080ccd8d171e9197964c3757ae1fc05eec28fd181b8c5d18b",
        "55dfe149bf01335330614a9fbc140648b9b924df7ca0f3098f84f4bf86421fad"),
}


# SHA-256 of the float outputs, recorded while polynomials kept Fraction
# coefficients and a scalar and an array float interpreter: every shipped
# config's evolve CSV, and for two configs the solve-direct CSV, the compare
# report and the residual report of that CSV.  However the coefficients are
# stored and the float forms evaluated, these must not change by a byte.
FLOAT_DIGESTS = {
    ("evolve", "constant2"):
        "f28bd2ebb34f2f397523071ab0ca95ac4b965b5dcb8ebbc5ccb68350c69cb6cf",
    ("evolve", "constant3"):
        "15e30f37c89e1fd0a2063092d2bc99a719fcf130f892ac7545bc0b77c09ed5e3",
    ("evolve", "coordinates2"):
        "be161c2b728233401b0133911ddc97d30ae47e25d145f6bd3d9e404b4ad9ad24",
    ("evolve", "nijenhuis2"):
        "8665f84023b7944aac06e6d9cb78947671ef193966767e336d56a3ed0d7fd64c",
    ("evolve", "nijenhuis2_direct"):
        "d57d5eb18f8350b8c8c1c482727a2c86c0accf64eb6fb67b9787769d7da5cae9",
    ("evolve", "nijenhuis3"):
        "f0ed01a973d9c36bf74d7ee2fb3f480768138ab33a44d389fbc1923ad95822ae",
    ("evolve", "nijenhuis4"):
        "a91332eb057aeb6609b6e159f940c31b1191bec284e66d1df15449ed14038611",
    ("solve-direct", "constant2"):
        "cbb58362c7d4e4bb2de59961e2351e739b95b7bd130ccf4cf0e297d26b327300",
    ("compare", "constant2"):
        "d2b3e9b9c472ca8897ebe31733ef844d6cd8bb08ecf0a17fbdbb1d3907927b7e",
    ("residual", "constant2"):
        "ba787f5d62ee4170f616b06f32c3d0bbc9af09131599441dc8938ffcdd42d77c",
    ("solve-direct", "nijenhuis2_direct"):
        "dc928220263c46d7406d5ee1ccfc85c3eb228315e6d3be673ff999a9df6ba4f4",
    ("compare", "nijenhuis2_direct"):
        "fa5ca23dd00816e3a9c29086316aa4c9bf176b65743b0898949fe57017903b4c",
    ("residual", "nijenhuis2_direct"):
        "21c7433480fab0fbf70d2fbdde73b9b700f0e72cbbeb0945e7a4ee1391c40d41",
    # recorded later, with the operator's entries from the interpreter
    # contracted by einsum: the residual reports of the n >= 3 configs
    ("residual", "constant3"):
        "299360ffac2f3a1df8e906ebb5571df13d5e47195225c2b511a1932a892b2352",
    ("residual", "nijenhuis3"):
        "3fe103aa24931847884b68bfa5d9959b9c05c52e016f047a666911b8f00d2376",
    ("residual", "nijenhuis4"):
        "09425d8673dabab438ddd156872b5c1ea621456685fcb341e6671421042f7f68",
    # recorded later: the two hyperbolic direct configs, as constant2 above
    ("evolve", "nijenhuis2_hyperbolic"):
        "97502781fa1ee8cfa553fa2781a6bc1ec35b9592a30abbabfb2caad4c844d49d",
    ("solve-direct", "nijenhuis2_hyperbolic"):
        "b27ddecbc9cb4ca667a8edcd7d9017cbb97027f94338e74f65b289e50f43105d",
    ("compare", "nijenhuis2_hyperbolic"):
        "315f0850cfa623c54d6c274ec49c0977b9a2b10a1db5ad4e34cd1ff713ff4572",
    ("residual", "nijenhuis2_hyperbolic"):
        "4b43a36b4fe132929d2fa889542dc58fbf374098c48db4cd50fb0cf1bd094a26",
    ("evolve", "nijenhuis3_direct"):
        "75375a319d5f73f96648fe41ad6d06b38e4d47f01c140f59a2a3dad1be9a24f1",
    ("solve-direct", "nijenhuis3_direct"):
        "33ac83ff2d8d91777ff819ea7d390809a0b7f1c851941c96accd1499b8e02908",
    ("compare", "nijenhuis3_direct"):
        "a1402cd3ba5717b023c6a774466177078a1266321c9c459a917e5f3e07f89bc3",
    ("residual", "nijenhuis3_direct"):
        "855cc99513aaeb5d2725a324c9448b0b12c23c5283e937c9d15117f3b701b1fb",
}


def test_float_outputs_are_pinned(tmp_path, capsys):
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    got = {}
    for name in sorted(REPORT_DIGESTS):
        path = tmp_path / f"{name}.csv"
        assert main(["evolve", str(CONFIGS / f"{name}.json"),
                     "--output", str(path)]) == 0
        got["evolve", name] = digest(path.read_bytes())
    for name in ("constant2", "nijenhuis2_direct", "nijenhuis2_hyperbolic",
                 "nijenhuis3_direct"):
        config = str(CONFIGS / f"{name}.json")
        path = tmp_path / f"{name}.direct.csv"
        assert main(["solve-direct", config, "--output", str(path)]) == 0
        got["solve-direct", name] = digest(path.read_bytes())
        capsys.readouterr()
        for command in (["compare"], ["residual", "--input", str(path)]):
            assert main([command[0], config, *command[1:]]) == 0
            got[command[0], name] = digest(capsys.readouterr().out.encode())
    for name in ("constant3", "nijenhuis3", "nijenhuis4"):
        assert main(["residual", str(CONFIGS / f"{name}.json")]) == 0
        got["residual", name] = digest(capsys.readouterr().out.encode())
    assert got == FLOAT_DIGESTS


# The shipped configs without pde.t_end: solve-direct and compare exit 2
# with this one stderr line, and solve-direct writes no file.
NO_T_END_ERROR = ("nijflow {}: give 'pde.t_end' to bound the direct solve\n")
NO_T_END_CONFIGS = ("constant3", "coordinates2", "nijenhuis2", "nijenhuis3",
                    "nijenhuis4")


def test_every_config_without_t_end_is_pinned():
    assert sorted(path.stem for path in CONFIGS.glob("*.json")
                  if "t_end" not in load_config(str(path)).get("pde", {})
                  ) == list(NO_T_END_CONFIGS)


@pytest.mark.parametrize("name", NO_T_END_CONFIGS)
def test_direct_commands_without_t_end_exit_2(name, tmp_path, capsys):
    config = str(CONFIGS / f"{name}.json")
    path = tmp_path / "direct.csv"
    for argv in (["solve-direct", config, "--output", str(path)],
                 ["compare", config]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", NO_T_END_ERROR.format(argv[0]))
    assert not path.exists()


def test_every_shipped_config_has_pinned_reports():
    assert sorted(REPORT_DIGESTS) == sorted(p.stem
                                            for p in CONFIGS.glob("*.json"))


def _report_digests(name, capsys):
    config = str(CONFIGS / f"{name}.json")
    outputs = []
    for command in REPORT_COMMANDS:
        expected = 1 if (name, command) == ("coordinates2", "verify") else 0
        assert main([command, config]) == expected
        outputs.append(capsys.readouterr().out)
    report = json.loads(outputs[0])
    assert [c["name"] for c in report["checks"]] == CHECK_NAMES
    return tuple(hashlib.sha256(out.encode()).hexdigest() for out in outputs)


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_shipped_reports_are_pinned(name, capsys):
    assert _report_digests(name, capsys) == REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_reports_stay_on_the_integer_store(name, monkeypatch, capsys):
    # the constructor and terms() are Fraction edges of ExactPolynomial;
    # every report must come out of the integer store alone
    def refuse(*args, **kwargs):
        raise AssertionError("a report path left the integer store")

    monkeypatch.setattr(ExactPolynomial, "__init__", refuse)
    monkeypatch.setattr(ExactPolynomial, "terms", refuse)
    assert _report_digests(name, capsys) == REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_commands_build_only_what_they_read(name, monkeypatch, tmp_path,
                                            capsys):
    # verify, build-metric and evolve never read the Killing hierarchy
    def refuse(*args):
        raise AssertionError("the Killing hierarchy was built")

    monkeypatch.setattr("nijflow.model.killing_operators", refuse)
    config = str(CONFIGS / f"{name}.json")
    for command, digest in zip(REPORT_COMMANDS[:2], REPORT_DIGESTS[name]):
        expected = 1 if (name, command) == ("coordinates2", "verify") else 0
        assert main([command, config]) == expected
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    path = tmp_path / "grid.csv"
    assert main(["evolve", config, "--output", str(path)]) == 0
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == FLOAT_DIGESTS["evolve", name])


def test_verify_brackets_each_h_pair_once(monkeypatch, capsys):
    calls = []

    def counted(*args):
        calls.append(args)
        return pairwise_poisson(*args)

    monkeypatch.setattr("nijflow.verify.pairwise_poisson", counted)
    assert main(["verify", str(CONFIGS / "nijenhuis4.json")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_malformed_configs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["verify", str(bad)]) == 2
    bad.write_text(json.dumps({"n": 2, "sigma": ["u1"]}))
    assert main(["verify", str(bad)]) == 2
    bad.write_text(json.dumps({"n": 2, "sigma": ["u1", "u9 + 1"]}))
    assert main(["verify", str(bad)]) == 2
    bad.write_text(json.dumps({"n": 0, "sigma": []}))
    assert main(["verify", str(bad)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    # the JSON decoder used to overflow Python's stack with a traceback
    bad.write_text("[" * 100_000)
    assert main(["verify", str(bad)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("command", ["verify", "build-metric", "hierarchy",
                                     "evolve"])
def test_config_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    cfg = small_e2_config(tmp_path)
    cfg.write_bytes(cfg.read_bytes() + b"\xff")
    argv = [command, str(cfg)]
    if command == "evolve":
        argv += ["--output", str(tmp_path / "grid.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "not valid UTF-8" in err and str(cfg) in err


def test_bad_grid_and_initial_exit_2(tmp_path, capsys):
    cfg = small_e2_config(tmp_path, grid={"x": {"start": 0, "stop": 1}})
    assert main(["evolve", str(cfg), "--output", str(tmp_path / "o.csv")]) == 2
    cfg = small_e2_config(tmp_path, initial={"u": [0.0], "p": [1.0]})
    assert main(["evolve", str(cfg), "--output", str(tmp_path / "o.csv")]) == 2
    cfg = small_e2_config(
        tmp_path,
        grid={"x": {"start": -0.3, "stop": 0.3, "count": 11},
              "t": [{"start": 0.0, "stop": 0.1, "count": 2},
                    {"start": 0.0, "stop": 0.1, "count": 2}]})
    assert main(["evolve", str(cfg), "--output", str(tmp_path / "o.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["evolve", "residual", "solve-direct"])
@pytest.mark.parametrize("t_axis", [
    {"start": 0.1, "stop": 0.1, "count": 3},
    # the step underflows to zero, so linspace repeats the first node
    {"start": 0.0, "stop": 5e-324, "count": 3},
])
def test_axis_with_repeated_nodes_exits_2(tmp_path, capsys, command, t_axis):
    # no lattice file can hold such an axis: plot and residual --input would
    # refuse it, and residual from the config would report a NaN
    cfg = json.loads((CONFIGS / "nijenhuis2.json").read_text())
    cfg["grid"]["t"] = [t_axis]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(cfg))
    argv = [command, str(path)]
    if command != "residual":
        argv += ["--output", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"nijflow {command}: axis 't1': the nodes of a multi-node axis must "
        "be distinct\n")
    assert not (tmp_path / "o.csv").exists()


NODE_STEPS_OVER_CAP = {
    "grid": {"x": {"start": -1.5, "stop": 1.5, "count": 20001}},
    "pde": {"t_end": 0.05, "cfl": 0.5}}

# (command, {dotted field path in nijenhuis2.json: replacement value})
BAD_NUMBERS = {
    "abs_tol-string": ("evolve", {"integrator.abs_tol": "abc"}),
    "start-string": ("evolve", {"grid.x.start": "abc"}),
    "stop-infinite": ("evolve", {"grid.x.stop": float("inf")}),
    "initial-p-bool": ("evolve", {"initial.p": [0.8, True]}),
    "t_end-string": ("solve-direct", {"pde.t_end": "abc"}),
    "cfl-null": ("solve-direct", {"pde.cfl": None}),
    # JSON booleans are not integers
    "n-bool": ("verify", {"n": True, "sigma": ["u1"]}),
    "seed-bool": ("verify", {"seed": True}),
    "count-bool": ("evolve", {"grid.x": {"start": 0.0, "stop": 0.0,
                                         "count": True}}),
    "seed-negative": ("verify", {"seed": -1}),
    # exact arithmetic copes; the float checks overflow
    "sigma-overflow": ("verify", {"sigma": ["u1", "u2^999999"]}),
    # the x-line's series overflows; RK45 used to run on without end
    "stop-huge": ("evolve", {"grid.x.stop": 1e200}),
    "stop-max": ("evolve", {"grid.x.stop": 1e308}),
    "stop-huge-direct": ("solve-direct", {"grid.x.stop": 1e200}),
    "curve-overflow": ("solve-direct", {"initial": {"curve": ["x^3", "x"]},
                                        "grid.x.stop": 1e200}),
    # expressions are ASCII: int() refused the superscript with a
    # traceback, and read the full-width and Arabic-Indic digits as 1 and 3
    "sigma-superscript": ("verify", {"sigma": ["u1 + \u00b2", "u2"]}),
    "sigma-full-width": ("verify", {"sigma": ["u1 + \uff11", "u2"]}),
    "sigma-arabic-indic": ("verify", {"sigma": ["u1 + \u0663", "u2"]}),
    "sigma-non-ascii-name": ("verify", {"sigma": ["\u00fc1", "u2"]}),
    "curve-full-width": ("solve-direct",
                         {"initial": {"curve": ["x + \uff11", "x"]}}),
    # nesting deeper than exactpoly.MAX_NESTING overflowed Python's stack
    "sigma-deep-parens": ("verify",
                          {"sigma": ["(" * 5000 + "u1" + ")" * 5000, "u2"]}),
    "sigma-deep-minus": ("verify", {"sigma": ["-" * 5000 + "u1", "u2"]}),
    "curve-deep-parens": ("solve-direct", {"initial": {
        "curve": ["(" * 5000 + "x" + ")" * 5000, "x"]}}),
    "curve-deep-minus": ("solve-direct",
                         {"initial": {"curve": ["-" * 5000 + "x", "x"]}}),
    # a power past exactpoly.MAX_POWER_BITS is refused before it is formed;
    # without the bound this one still ran after 35 s
    "sigma-power-huge": ("build-metric", {"sigma": ["(1 + u1)^300000", "u2"]}),
    "sigma-power-nested": ("build-metric",
                           {"sigma": ["(((1 + u1)^64)^64)^64", "u2"]}),
    # the same bound on a product written out: it took 6 s to parse
    "sigma-product-chain": ("verify", {"sigma": ["(1 + u1)*" * 1000 + "1",
                                                 "u2"]}),
    "curve-product-chain": ("solve-direct", {"initial": {
        "curve": ["(1 + x)*" * 1000 + "1", "x"]}}),
    # sigma over model.MAX_SIGMA_SIZE: the exact layers took 4 s on it
    "sigma-too-large": ("verify", {"sigma": ["(1 + u1)^255", "u2"]}),
    # RK4 would need ~1e298 steps on the time axis: over the step budget
    "rk4-step-tiny": ("evolve", {"integrator.method": "rk4",
                                 "integrator.step": 1e-300}),
    # lattices above MAX_LATTICE_NODES are refused before allocation
    "x-count-huge": ("evolve", {"grid.x.count": 1_000_000_000}),
    "t-count-product": ("evolve", {"grid.x.count": 1001,
                                   "grid.t": [{"start": 0.0, "stop": 0.5,
                                               "count": 1000}]}),
    "x-count-huge-direct": ("solve-direct", {"grid.x.count": 1_000_000_000}),
    # over pde.MAX_NODE_STEPS: 667 steps on 20001 nodes, which the window
    # allows; refused before any layer is computed
    "node-steps-direct": ("solve-direct", NODE_STEPS_OVER_CAP),
    "node-steps-compare": ("compare", NODE_STEPS_OVER_CAP),
    # RK45 grew its step after each non-finite trial, so every segment ran
    # to the step budget: still running after 60 s
    "p-overflow-rk45": ("evolve", {"initial.p": [1e308, 1e308]}),
    # stop - start overflows: numpy warned, or raised under -W error
    "x-span-overflow": ("evolve", {"grid.x": {"start": -1e308,
                                              "stop": 1e308, "count": 3}}),
    "t-span-overflow": ("evolve", {"grid.t": [{"start": -1e308,
                                               "stop": 1e308, "count": 3}]}),
    # malformed config structure
    "axis-not-object": ("evolve", {"grid.x": 5}),
    "grid-without-x": ("evolve", {"grid": {}}),
    "t-not-list": ("evolve", {"grid.t": 5}),
    "initial-without-p": ("evolve", {"initial": {"u": [0.1, -0.2]}}),
    "integrator-not-object": ("evolve", {"integrator": 5}),
    "method-unknown": ("evolve", {"integrator.method": "rk5"}),
    "curve-not-list": ("solve-direct", {"initial": {"curve": "x"}}),
    "pde-not-object": ("solve-direct", {"pde": 5}),
    "t_end-missing": ("solve-direct", {"grid.t": []}),
    "n-1-direct": ("solve-direct", {"n": 1, "sigma": ["u1"]}),
    # the exact layers cope; its float value overflows a Python float
    "sigma-coefficient-overflow": ("verify", {"sigma": ["10^400*u1", "u2"]}),
}


def _nijenhuis2_without(key):
    cfg = json.loads((CONFIGS / "nijenhuis2.json").read_text())
    del cfg[key]
    return cfg


# malformed configs that no field edit of nijenhuis2.json makes
BAD_CONFIGS = {
    "config-not-object": ("verify", ["n", 2]),
    "direct-without-initial": ("solve-direct", _nijenhuis2_without("initial")),
    # an exponent literal above exactpoly.MAX_EXPONENT = 2^31 - 1; times 0,
    # both ran to exit 0 before the parser refused it
    "sigma-exponent-above-bound": ("verify", {
        "n": 2, "sigma": ["u1", "u2 + 0*u1^2147483648"]}),
    "curve-exponent-above-bound": ("solve-direct", {
        **json.loads((CONFIGS / "nijenhuis2_direct.json").read_text()),
        "initial": {"curve": ["1/10 + 0*x^2147483648", "x"]}}),
    # JSON text, since json.dumps cannot write it: an integer past the 4,300
    # digits int() converts made json.load raise ValueError, a traceback
    "seed-over-int-digit-limit": ("verify", '{"n": 2, "sigma": ["u1", "u2"], '
                                  '"seed": ' + "1" * 5000 + "}"),
    # a literal past exactpoly.MAX_LITERAL_DIGITS: int() in the parser raised
    # ValueError, a traceback
    "sigma-literal-over-digit-bound": ("verify", {
        "n": 2, "sigma": ["u1", "1" * 5000 + "*u2"]}),
    "curve-literal-over-digit-bound": ("solve-direct", {
        **json.loads((CONFIGS / "nijenhuis2_direct.json").read_text()),
        "initial": {"curve": ["1/" + "0" * 10 + "1" * 4301, "x"]}}),
}


def _nijenhuis2_with(**fields):
    return {**json.loads((CONFIGS / "nijenhuis2.json").read_text()), **fields}


_NIJENHUIS2_GRID = json.loads((CONFIGS / "nijenhuis2.json").read_text())["grid"]

# configs whose one stderr line must name a key: (command, config as a dict
# or as JSON text, the dotted path or key the line names)
BAD_KEYS = {
    # a misspelled key at each nesting level of the key table
    "unknown-top": ("evolve", _nijenhuis2_with(sed=3), "'sed'"),
    "unknown-initial": ("evolve", _nijenhuis2_with(
        initial={"u": [0.1, -0.2], "p": [0.8, 0.5], "curv": ["x", "x"]}),
        "'initial.curv'"),
    "unknown-grid": ("evolve", _nijenhuis2_with(
        grid={**_NIJENHUIS2_GRID, "y": 1}), "'grid.y'"),
    "unknown-grid-x": ("evolve", _nijenhuis2_with(grid={
        "x": {"start": -0.5, "stop": 0.5, "count": 11, "cout": 5}}),
        "'grid.x.cout'"),
    "unknown-grid-t0": ("evolve", _nijenhuis2_with(grid={
        "x": {"start": -0.5, "stop": 0.5, "count": 11},
        "t": [{"start": 0.0, "stop": 0.5, "cout": 5}]}),
        "'grid.t[0].cout'"),
    "unknown-integrator": ("evolve", _nijenhuis2_with(
        integrator={"method": "rk4", "stepp": 0.5}), "'integrator.stepp'"),
    "unknown-pde": ("solve-direct", _nijenhuis2_with(pde={"cfll": 9}),
                    "'pde.cfll'"),
    # no such keys: the step is cfl * dx, and flow times are unbounded
    "removed-horizon": ("evolve", _nijenhuis2_with(
        integrator={"horizon": 1.0}),
        "unknown config key 'integrator.horizon'"),
    "removed-dt": ("solve-direct", _nijenhuis2_with(
        pde={"t_end": 0.5, "dt": 0.01}), "unknown config key 'pde.dt'"),
    # a key the config's own method never reads
    "inert-step-rk45": ("evolve", _nijenhuis2_with(
        integrator={"method": "rk45", "step": 0.01}), "'integrator.step'"),
    "inert-step-default": ("evolve", _nijenhuis2_with(
        integrator={"step": 0.01}), "'integrator.step'"),
    "inert-abs_tol-rk4": ("evolve", _nijenhuis2_with(
        integrator={"method": "rk4", "abs_tol": 1e-3}),
        "'integrator.abs_tol'"),
    "inert-rel_tol-rk4": ("evolve", _nijenhuis2_with(
        integrator={"method": "rk4", "rel_tol": 1e-3}),
        "'integrator.rel_tol'"),
    # malformed where the command reads nothing of it
    "grid-not-object-verify": ("verify", _nijenhuis2_with(grid=5), "'grid'"),
    "axis-incomplete-verify": ("verify", _nijenhuis2_with(
        grid={"x": {"start": 0.0, "stop": 1.0}}), "'grid.x'"),
    # fell back to the first time axis's stop
    "t_end-null": ("solve-direct", _nijenhuis2_with(pde={"t_end": None}),
                   "'pde.t_end'"),
    # json.load kept the last of a repeated key
    "duplicate-top": ("verify", '{"n": 2, "sigma": ["u1", "u2"], "n": 2}',
                      "'n'"),
    "duplicate-grid-x": ("evolve", json.dumps(_nijenhuis2_with()).replace(
        '"count": 101', '"count": 3, "count": 5'), "'count'"),
}


def _assert_exits_2(tmp_path, capsys, command, cfg):
    config = tmp_path / "bad.json"
    config.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    argv = [command, str(config)]
    if command not in ("verify", "build-metric", "hierarchy"):
        argv += ["--output", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"nijflow {command}: ")
    assert len(err.splitlines()) == 1
    return err


@pytest.mark.parametrize("command, fields", BAD_NUMBERS.values(),
                         ids=BAD_NUMBERS.keys())
def test_bad_config_numbers_exit_2(tmp_path, capsys, command, fields):
    cfg = json.loads((CONFIGS / "nijenhuis2.json").read_text())
    for dotted, value in fields.items():
        *parents, key = dotted.split(".")
        node = cfg
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = value
    _assert_exits_2(tmp_path, capsys, command, cfg)


@pytest.mark.parametrize("command, cfg", BAD_CONFIGS.values(),
                         ids=BAD_CONFIGS.keys())
def test_bad_configs_exit_2(tmp_path, capsys, command, cfg):
    _assert_exits_2(tmp_path, capsys, command, cfg)


@pytest.mark.parametrize("command, cfg, key", BAD_KEYS.values(),
                         ids=BAD_KEYS.keys())
def test_bad_config_keys_exit_2_naming_the_key(tmp_path, capsys, command,
                                               cfg, key):
    assert key in _assert_exits_2(tmp_path, capsys, command, cfg)


def test_rk4_step_alone_still_reaches_the_step_budget(tmp_path, capsys):
    # the "rk4-step-tiny" row now stops at nijenhuis2's inert tolerances
    cfg = _nijenhuis2_with(integrator={"method": "rk4", "step": 1e-300})
    err = _assert_exits_2(tmp_path, capsys, "evolve", cfg)
    assert err == "nijflow evolve: step budget exhausted\n"


def test_flow_towards_a_blow_up_is_refused_by_the_step_budget(tmp_path,
                                                              capsys):
    # F_1's flow from the start blows up between t = -9.5 and -10, and RK45
    # crawls towards it; with flows.MAX_STEPS at 2e6 this took over a minute
    cfg = json.loads((CONFIGS / "nijenhuis4.json").read_text())
    cfg["grid"]["t"][0]["start"] = -10.0
    err = _assert_exits_2(tmp_path, capsys, "residual", cfg)
    assert err == "nijflow residual: step budget exhausted\n"


TINY_X = {"start": 0, "stop": 1e-300, "count": 121}


def _direct2_with(cfl, x=None):
    """nijenhuis2_direct.json with ``pde.cfl`` and, if given, ``grid.x``."""
    cfg = json.loads((CONFIGS / "nijenhuis2_direct.json").read_text())
    cfg["pde"]["cfl"] = cfl
    cfg["grid"]["x"] = x or cfg["grid"]["x"]
    return cfg


def _over_the_cap(steps):
    return (f"t_end / (cfl * dx) = {steps} steps on 121 nodes exceed the "
            "limit of 10000000 node-steps")


_OVER_THE_NODE_STEP_CAP = (
    "667 steps on 20001 nodes make 13340667 node-steps, more than the limit "
    "of 10000000; coarsen the lattice or shorten t_end")

# configs whose one stderr line is pinned whole: (command, config, the line
# after "nijflow COMMAND: ")
EXIT_2_LINES = {
    "step-negative": ("evolve", _nijenhuis2_with(
        integrator={"method": "rk4", "step": -0.1}),
        "bad integrator settings: step must be positive"),
    "abs_tol-zero": ("evolve", _nijenhuis2_with(
        integrator={"method": "rk45", "abs_tol": 0}),
        "bad integrator settings: abs_tol must be positive and rel_tol "
        "non-negative"),
    "rel_tol-negative": ("evolve", _nijenhuis2_with(
        integrator={"method": "rk45", "rel_tol": -1}),
        "bad integrator settings: abs_tol must be positive and rel_tol "
        "non-negative"),
    "curve-wrong-length": ("solve-direct", {
        **json.loads((CONFIGS / "nijenhuis2_direct.json").read_text()),
        "initial": {"curve": ["x"]}},
        "'initial.curve' must list 2 expressions in the variable x"),
    "t_end-absent": ("solve-direct", _nijenhuis2_with(),
                     "give 'pde.t_end' to bound the direct solve"),
    # 0.5 / (0.4 * 0.01) = 125 steps; no refinement of the lattice helps
    "window-exhausted": ("solve-direct", _nijenhuis2_with(pde={"t_end": 0.5}),
                         "window exhausted: 125 steps need 2005 x-nodes, 101 "
                         "given; the initial interval must span more than "
                         "16 * t_end / cfl = 20 in x"),
    "node-steps-direct": ("solve-direct", _nijenhuis2_with(
        **NODE_STEPS_OVER_CAP), _OVER_THE_NODE_STEP_CAP),
    "node-steps-compare": ("compare", _nijenhuis2_with(
        **NODE_STEPS_OVER_CAP), _OVER_THE_NODE_STEP_CAP),
    # t_end / (cfl * dx) past the cap is refused before it becomes an
    # integer: cfl * dx underflowed to 0 and raised ZeroDivisionError (exit
    # 1), its quotient overflowed to inf, or it printed two 300-digit
    # integers in one 748-character line
    "cfl-dx-underflow-direct": ("solve-direct", _direct2_with(
        1e-300, TINY_X), _over_the_cap("inf")),
    "cfl-dx-underflow-compare": ("compare", _direct2_with(1e-300, TINY_X),
                                 _over_the_cap("inf")),
    "steps-overflow-direct": ("solve-direct", _direct2_with(1e-10, TINY_X),
                              _over_the_cap("inf")),
    "steps-overflow-compare": ("compare", _direct2_with(1e-10, TINY_X),
                               _over_the_cap("inf")),
    "steps-huge-direct": ("solve-direct", _direct2_with(1e-300),
                          _over_the_cap("2e+300")),
    "steps-huge-compare": ("compare", _direct2_with(1e-300),
                           _over_the_cap("2e+300")),
}


@pytest.mark.parametrize("command, cfg, line", EXIT_2_LINES.values(),
                         ids=EXIT_2_LINES.keys())
def test_exit_2_line_is_pinned(tmp_path, capsys, command, cfg, line):
    err = _assert_exits_2(tmp_path, capsys, command, cfg)
    assert err == f"nijflow {command}: {line}\n" and len(line) <= 200


def test_config_numbers_load_as_floats(tmp_path):
    path = small_e2_config(tmp_path, grid={
        "x": {"start": -1, "stop": 1, "count": 3}}, pde={"t_end": 1})
    cfg = load_config(str(path))
    assert [type(v) for v in cfg["grid"]["x"].values()] == [float, float, int]
    assert type(cfg["pde"]["t_end"]) is float
    assert type(cfg["seed"]) is int


def test_residual_input_without_time_axis_exits_2(tmp_path, capsys):
    config = small_e2_config(tmp_path, grid={
        "x": {"start": -0.3, "stop": 0.3, "count": 11}})
    lattice = tmp_path / "line.csv"
    assert main(["evolve", str(config), "--output", str(lattice)]) == 0
    assert main(["residual", str(config), "--input", str(lattice)]) == 2
    assert capsys.readouterr().err == (
        "nijflow residual: residuals need a lattice with at least one time "
        "axis\n")


@pytest.mark.parametrize("lattice_n, config_n", [(3, 2), (2, 3)])
def test_residual_input_of_another_n_exits_2(tmp_path, capsys, lattice_n,
                                             config_n):
    # one time axis each, so only the component count tells them apart
    def config(n):
        path = small_e2_config(tmp_path)
        if n == 3:
            cfg = json.loads(path.read_text())
            cfg.update(n=3, sigma=["u1", "u2 - 1/2*u1^2",
                                   "u3 - u1*u2 + 1/6*u1^3"],
                       initial={"u": [0.1, -0.2, 0.05],
                                "p": [0.8, 0.5, 0.3]})
            path.write_text(json.dumps(cfg))
        return path.rename(tmp_path / f"n{n}.json")

    lattice = tmp_path / "lattice.csv"
    assert main(["evolve", str(config(lattice_n)), "--output",
                 str(lattice)]) == 0
    assert main(["residual", str(config(config_n)), "--input",
                 str(lattice)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == (f"nijflow residual: the lattice has {lattice_n} "
                   f"components, the operators are {config_n} by "
                   f"{config_n}\n")


@pytest.mark.parametrize("command", ["verify", "build-metric"])
def test_sigma_over_max_n_entries_exits_2_promptly(tmp_path, capsys,
                                                   command):
    # constant entries have size 0, so only model.MAX_N bounds n; without
    # it build-metric took 12 s and 189 MB at n = 80
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"n": 200, "sigma": ["1"] * 200}))
    start = time.perf_counter()
    assert main([command, str(config)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"nijflow {command}: bad sigma expression: sigma has 200 entries, "
        "more than the limit of 16\n")


# ---------------------------------------------------------------------------
# printed summaries


def test_build_metric_output(capsys):
    assert main(["build-metric", str(CONFIGS / "nijenhuis2.json")]) == 0
    out = capsys.readouterr().out
    assert "h_1 = u1*p2^2 + 2*p1*p2" in out
    assert "gram[2,2] = u1" in out
    assert "sigma_2 = -1/2*u1^2 + u2" in out


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_build_metric_formats_each_gram_entry_object_once(name, monkeypatch,
                                                         capsys):
    formatted = []

    def counted(poly, names):
        formatted.append(poly)
        return format_polynomial(poly, names)

    monkeypatch.setattr("nijflow.cli.format_polynomial", counted)
    assert main(["build-metric", str(CONFIGS / f"{name}.json")]) == 0
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == REPORT_DIGESTS[name][1])
    n = out.count("sigma_")
    gram = formatted[n:]  # after the n sigma lines
    # one object per anti-diagonal at most, each formatted once
    assert len({id(e) for e in gram}) == len(gram) <= 2 * n - 1


def test_hierarchy_output(capsys):
    assert main(["hierarchy", str(CONFIGS / "nijenhuis2.json")]) == 0
    out = capsys.readouterr().out
    assert "A_1 = [[-u1, 1], [-1/2*u1^2 + u2, 0]]" in out
    assert "F_0 = 1/2*u1*p2^2 + p1*p2" in out


# ---------------------------------------------------------------------------
# lattices and CSV


def test_evolve_csv_layout_and_round_trip(tmp_path, capsys):
    cfg = small_e2_config(tmp_path)
    out = tmp_path / "grid.csv"
    assert main(["evolve", str(cfg), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,t1,u1,u2,p1,p2"
    assert len(lines) == 1 + 11 * 6
    grid = read_grid_csv(str(out))
    assert [a.name for a in grid.axes] == ["x", "t1"]
    assert grid.u.shape == (11, 6, 2)
    assert grid.p is not None
    # writing the parsed lattice back reproduces the file byte for byte
    again = tmp_path / "again.csv"
    write_grid_csv(grid, str(again))
    assert again.read_bytes() == out.read_bytes()
    capsys.readouterr()


# cells whose 17-digit form must come back bit for bit: signed zeros,
# subnormals, the extremes, and values printed with an exponent
EXTREME_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                  2.2250738585072014e-308, 1e-310, 1.7976931348623157e308,
                  -1.7976931348623157e308, 1e-05, 1e22,
                  -1.2345678901234567e-100, 1.0 / 3.0, 123456789012345680.0]


def test_csv_round_trip_is_bit_exact(tmp_path):
    axes = (AxisSpec("x", -1.0 / 3.0, 2.0 / 7.0, 4),
            AxisSpec("t1", 0.0, 0.1, 3))
    rng = np.random.default_rng(99)
    grid = SolutionGrid(axes, rng.standard_normal((4, 3, 2)),
                        rng.standard_normal((4, 3, 2)))
    grid.u.flat[:len(EXTREME_VALUES)] = EXTREME_VALUES
    grid.p.flat[-len(EXTREME_VALUES):] = EXTREME_VALUES[::-1]
    path = tmp_path / "g.csv"
    write_grid_csv(grid, str(path))
    assert "e-05" in path.read_text() and "e+308" in path.read_text()
    oracle = tmp_path / "oracle.csv"
    reference_write_grid_csv(grid, str(oracle))
    assert path.read_bytes() == oracle.read_bytes()
    back = read_grid_csv(str(path))
    assert_same_outcome(back, grid)
    assert_same_outcome(back, reference_read_grid_csv(str(path)))


def _pow10_neighbours():
    """10**j and the two doubles on each side, j = -323..308, both signs."""
    values = []
    for j in range(-323, 309):
        v = float(f"1e{j}")
        below = above = v
        for _ in range(2):
            below = np.nextafter(below, 0.0)
            above = np.nextafter(above, np.inf)
            values += [below, above]
        values.append(v)
    values = np.array(values)
    return np.concatenate([values, -values])


def _random_bit_patterns(count=120_000):
    bits = np.random.default_rng(2024).integers(0, 2**64, count,
                                                dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


# doubles whose 17-digit form ends in an exact tie: (2**m + 1) / 2**m has
# m + 1 significant digits past the point, the last a 5
TIES = [(2**m + 1) / 2**m * scale for m in range(14, 54)
        for scale in (1.0, 2.0**10, 2.0**-10, 1e10, -1.0)]
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
            2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 1e-250, 1e250, 0.1, 0.09999999999999999,
            9.999999999999999e-05, 1e16, 1e17, 99999999999999984.0]


def _dot_placements():
    """Values with k + 1 digits before the dot, k = 1..16, and 1, 8, 9 or 17
    significant digits, each whole and with a fractional part, both signs:
    the dot lands on every byte of the cell's digit words, and a dot among
    digits 1-8 pushes digit 8 on into the next word."""
    digits = "12345678912345678"
    values = [12345678.5, 123456789.25, 1e15 + 0.5]
    for k in range(1, 17):
        for size in (1, 8, 9, 17):
            whole = digits[:size].ljust(k + 1, "0")[:k + 1]
            values.append(float(whole))
            fraction = digits[k + 1:size] or "5"
            values.append(float(whole + "." + fraction))
    return np.array(values + [-v for v in values])


FORMAT_CASES = {
    "powers-of-ten": _pow10_neighbours,
    "ties": lambda: np.array(TIES),
    "specials": lambda: np.array(SPECIALS),
    "random-bits": _random_bit_patterns,
    "dot-placement": _dot_placements,
}


@pytest.mark.parametrize("case", sorted(FORMAT_CASES))
def test_csv_cells_are_python_percent_17g(tmp_path, case):
    values = FORMAT_CASES[case]()
    assert np.isfinite(values).all()
    grid = SolutionGrid((AxisSpec("x", 0.0, 1.0, len(values)),),
                        values.reshape(-1, 1), -values.reshape(-1, 1))
    path = tmp_path / "cells.csv"
    write_grid_csv(grid, str(path))
    rows = path.read_text().splitlines()[1:]
    cells = [row.split(",") for row in rows]
    assert [c[1] for c in cells] == ["%.17g" % v for v in values.tolist()]
    assert [c[2] for c in cells] == ["%.17g" % -v for v in values.tolist()]
    assert [c[0] for c in cells] == [
        "%.17g" % v for v in grid.axes[0].values().tolist()]


def _lattice_of(rows, axes, momenta):
    """A lattice of ``rows`` nodes on ``axes`` axes, its values spread over
    every notation "%.17g" uses."""
    shape = []
    left = rows
    for _ in range(axes - 1):
        factor = next((f for f in range(2, 50) if left % f == 0), 1)
        shape.append(factor)
        left //= factor
    shape = [left] + shape
    specs = tuple(AxisSpec(name, start, stop if count > 1 else start, count)
                  for name, start, stop, count in zip(
                      ("x", "t1", "t2"), (-1.5, 0.0, -0.25), (2.5, 0.7, 30.0),
                      shape))
    rng = np.random.default_rng(rows * 10 + axes)

    def block():
        values = rng.standard_normal(tuple(shape) + (2,))
        values *= 10.0 ** rng.integers(-9, 21, values.shape)
        values.flat[::7] = 0.0
        return values

    return SolutionGrid(specs, block(), block() if momenta else None)


# 2,048-row seams, kept as extra rungs; the seams of the writer's blocks of
# value cells are tested below
CHUNK_ROWS = 2048
SEAM_ROWS = [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]


@pytest.mark.parametrize("rows", SEAM_ROWS)
@pytest.mark.parametrize("axes", [1, 2, 3])
@pytest.mark.parametrize("momenta", [False, True])
def test_csv_chunk_seams_match_row_by_row_oracle(tmp_path, rows, axes,
                                                 momenta):
    grid = _lattice_of(rows, axes, momenta)
    assert grid.u.shape[:-1] == tuple(a.count for a in grid.axes)
    path = tmp_path / "g.csv"
    write_grid_csv(grid, str(path))
    oracle = tmp_path / "oracle.csv"
    reference_write_grid_csv(grid, str(oracle))
    assert path.read_bytes() == oracle.read_bytes()


# seams of the writer's blocks of _BLOCK_CELLS value cells: 2 value columns
# without momenta, 4 with them
BLOCK_SEAMS = {"block-1": lambda rows: rows - 1, "block": lambda rows: rows,
               "block+1": lambda rows: rows + 1,
               "2-blocks+1": lambda rows: 2 * rows + 1}


@pytest.mark.parametrize("seam", BLOCK_SEAMS)
@pytest.mark.parametrize("axes", [1, 2, 3])
@pytest.mark.parametrize("momenta", [False, True])
def test_csv_block_seams_match_row_by_row_oracle(tmp_path, seam, axes,
                                                 momenta):
    rows = BLOCK_SEAMS[seam](_BLOCK_CELLS // (4 if momenta else 2))
    grid = _lattice_of(rows, axes, momenta)
    assert grid.u.shape[:-1] == tuple(a.count for a in grid.axes)
    path = tmp_path / "g.csv"
    write_grid_csv(grid, str(path))
    oracle = tmp_path / "oracle.csv"
    reference_write_grid_csv(grid, str(oracle))
    assert path.read_bytes() == oracle.read_bytes()


def test_csv_writer_peak_memory_does_not_grow_with_the_lattice(tmp_path):
    rng = np.random.default_rng(13)

    def peak(nx, nt):
        grid = SolutionGrid(
            (AxisSpec("x", -0.5, 0.5, nx), AxisSpec("t1", 0.0, 0.5, nt)),
            rng.standard_normal((nx, nt, 2)), rng.standard_normal((nx, nt, 2)))
        tracemalloc.start()
        try:
            write_grid_csv(grid, str(tmp_path / "g.csv"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(201, 101)
    assert peak(401, 201) <= 1.1 * small


def test_csv_rewrite_over_a_longer_file_leaves_no_old_rows(tmp_path):
    path = tmp_path / "g.csv"
    write_grid_csv(_lattice_of(5000, 2, True), str(path))
    path.chmod(0o600)
    short = _lattice_of(30, 1, False)
    write_grid_csv(short, str(path))
    oracle = tmp_path / "oracle.csv"
    reference_write_grid_csv(short, str(oracle))
    assert path.read_bytes() == oracle.read_bytes()
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def _rewrite_fails(tmp_path, grid, write):
    """Writes a longer lattice to ``out/g.csv``, then calls ``write`` to
    overwrite it with ``grid``; that write fails, and the old file must be
    left as it was, with no temporary file beside it."""
    path = tmp_path / "out" / "g.csv"
    path.parent.mkdir()
    write_grid_csv(_lattice_of(3 * (_BLOCK_CELLS // 4), 1, True), str(path))
    before = path.read_bytes()
    write(grid, str(path))
    assert path.read_bytes() == before
    assert os.listdir(path.parent) == ["g.csv"]


def test_csv_write_failing_in_its_second_block_leaves_the_old_file(
        tmp_path, monkeypatch):
    # 4 value columns: blocks of _BLOCK_CELLS // 4 rows; the first
    # _format_cells call formats the axis values, the next ones the blocks
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("formatting failed")
        return format_cells(*args)

    def write(grid, path):
        monkeypatch.setattr(lattice_io, "_format_cells", failing)
        with pytest.raises(RuntimeError, match="formatting failed"):
            write_grid_csv(grid, path)

    format_cells = lattice_io._format_cells
    _rewrite_fails(tmp_path, _lattice_of(2 * (_BLOCK_CELLS // 4) + 1, 1, True),
                   write)


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_csv_write_failing_with_a_full_disk_leaves_the_old_file(
        tmp_path, monkeypatch, failing):
    # three blocks, the last of one row: "write" runs out of room in the
    # second block, "flush" in the last bytes, which the buffered file holds
    # until it is closed
    grid = _lattice_of(2 * (_BLOCK_CELLS // 4) + 1, 1, True)
    oracle = tmp_path / "oracle.csv"
    reference_write_grid_csv(grid, str(oracle))
    size = oracle.stat().st_size
    room = size * 3 // 4 if failing == "write" else size - 8
    returned, failed_after = [], []

    class Buffered(io.BufferedWriter):
        def write(self, b):
            returned.append(super().write(b))
            return returned[-1]

    class FullDisk(io.FileIO):
        def write(self, b):
            nonlocal room
            if len(b) <= room:
                room -= len(b)
                return super().write(b)
            super().write(bytes(b)[:room])
            room = 0
            failed_after.append(len(returned))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(grid, path):
        monkeypatch.setattr(lattice_io, "open", lambda file, mode: Buffered(
            FullDisk(file, "w")), raising=False)
        with pytest.raises(OSError) as err:
            write_grid_csv(grid, path)
        assert err.value.errno == errno.ENOSPC

    _rewrite_fails(tmp_path, grid, write)
    # the header and three blocks are handed to the file before a flush
    assert (failed_after[0] < 4) if failing == "write" else failed_after[0] == 4


def test_csv_writer_killed_part_way_leaves_the_old_file(tmp_path):
    # os._exit in the second block: no finally or except runs, as when the
    # process is killed
    rows = 2 * (_BLOCK_CELLS // 4) + 1
    script = f"""
import os
import numpy as np
from nijflow import lattice_io
from nijflow.flows import AxisSpec, SolutionGrid

calls = []
format_cells = lattice_io._format_cells

def killed(*args):
    calls.append(None)
    if len(calls) == 3:
        os._exit(9)
    return format_cells(*args)

lattice_io._format_cells = killed
u = np.ones(({rows}, 2))
grid = SolutionGrid((AxisSpec("x", 0.0, 1.0, {rows}),), u, u)
lattice_io.write_grid_csv(grid, {{path!r}})
"""
    path = tmp_path / "g.csv"
    write_grid_csv(_lattice_of(3 * (_BLOCK_CELLS // 4), 1, True), str(path))
    before = path.read_bytes()
    proc = subprocess.run([sys.executable, "-c",
                           script.format(path=str(path))], cwd=str(REPO))
    assert proc.returncode == 9
    assert path.read_bytes() == before


def test_csv_rewrite_through_a_symlink_rewrites_its_target(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    write_grid_csv(_lattice_of(300, 2, True), str(target))
    link.symlink_to(target)
    grid = _lattice_of(30, 1, False)
    write_grid_csv(grid, str(link))
    oracle = tmp_path / "oracle.csv"
    reference_write_grid_csv(grid, str(oracle))
    assert link.is_symlink() and target.read_bytes() == oracle.read_bytes()


def test_csv_written_to_a_fifo_and_to_dev_null(tmp_path, capsys):
    # a path that is not a regular file is written to, never replaced; a
    # FIFO shows it first, so that a writer replacing special files fails
    # here before it can replace os.devnull
    grid = _lattice_of(30, 2, True)
    fifo, oracle = tmp_path / "g.fifo", tmp_path / "oracle.csv"
    reference_write_grid_csv(grid, str(oracle))
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_grid_csv(grid, str(fifo))  # fits in the pipe's buffer
        written = os.read(reader, 1 << 20)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert written == oracle.read_bytes()
    if not Path(os.devnull).is_char_device():
        pytest.skip("no character device at os.devnull")
    write_grid_csv(grid, os.devnull)
    cfg = str(CONFIGS / "constant2.json")
    for command in ("evolve", "solve-direct"):
        assert main([command, cfg, "--output", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_csv_new_file_mode_follows_the_umask(tmp_path, umask):
    written, opened = tmp_path / "written.csv", tmp_path / "opened.csv"
    old = os.umask(umask)
    try:
        write_grid_csv(_lattice_of(30, 2, False), str(written))
        with open(opened, "wb"):
            pass
    finally:
        os.umask(old)
    assert (stat.S_IMODE(written.stat().st_mode)
            == stat.S_IMODE(opened.stat().st_mode) == 0o666 & ~umask)


def _extreme_lattice(kind):
    """A lattice of 41 x 101 nodes (two write blocks) with u and p near
    1e-300 or 1e300, where "%.17g" is Python's alone; "mixed" keeps the
    first 2,048 rows extreme and spreads normal values and zeros over the
    rest."""
    rng = np.random.default_rng(len(kind))
    shape = (41, 101, 2)

    def block():
        mantissa = rng.uniform(1.0, 10.0, shape) * rng.choice([-1.0, 1.0],
                                                             shape)
        scale = 10.0 ** rng.integers(-320, -290, shape)
        if kind == "huge":
            scale = 10.0 ** rng.integers(290, 308, shape)
        values = mantissa * scale
        if kind == "mixed":
            rest = values.reshape(-1, 2)[CHUNK_ROWS:]
            rest[::3] = rng.standard_normal(rest[::3].shape)
            rest[1::5] = 0.0
        return values

    axes = (AxisSpec("x", -0.5, 0.5, 41), AxisSpec("t1", 0.0, 0.5, 101))
    return SolutionGrid(axes, block(), block())


@pytest.mark.parametrize("kind", ["tiny", "huge", "mixed"])
def test_csv_extreme_magnitudes_match_row_by_row_oracle(tmp_path, kind):
    grid = _extreme_lattice(kind)
    path = tmp_path / "g.csv"
    write_grid_csv(grid, str(path))
    oracle = tmp_path / "oracle.csv"
    reference_write_grid_csv(grid, str(oracle))
    assert path.read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize("where,bad,message", [
    ("u", np.nan, "u2 is nan at node (2, 1)"),
    ("p", -np.inf, "p2 is -inf at node (2, 1)"),
    ("axis", np.nan, "t1 is nan at node (0, 0)"),
])
def test_write_grid_csv_refuses_non_finite_values(tmp_path, where, bad,
                                                  message):
    t_stop = bad if where == "axis" else 0.2
    grid = SolutionGrid((AxisSpec("x", 0.0, 1.0, 4),
                         AxisSpec("t1", 0.0, t_stop, 3)),
                        np.zeros((4, 3, 2)), np.zeros((4, 3, 2)))
    if where != "axis":
        getattr(grid, where)[2, 1, 1] = bad
        getattr(grid, where)[3, 0, 0] = bad  # a later node is not named
    path = tmp_path / "g.csv"
    with pytest.raises(ConfigError) as err:
        write_grid_csv(grid, str(path))
    assert message in str(err.value)
    assert not path.exists()


@pytest.mark.parametrize("names", [("s",), ("x", "t2"), ("x", "x"),
                                   ("t1", "x")], ids="-".join)
def test_write_grid_csv_refuses_axes_the_reader_refuses(tmp_path, names):
    # each was written over the old file, and then refused on read as an
    # unrecognized lattice header
    grid = SolutionGrid(tuple(AxisSpec(name, 0.0, 1.0, 3) for name in names),
                        np.zeros((3,) * len(names) + (2,)))

    def write(grid, path):
        with pytest.raises(ConfigError, match=r"^cannot write a lattice on "
                           rf"axes {re.escape(str(names))}: they must be "
                           r"x, t1\.\.tk$"):
            write_grid_csv(grid, path)

    _rewrite_fails(tmp_path, grid, write)


def test_read_grid_csv_rejects_malformed_input(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_grid_csv(str(path))
    path.write_text("x,t1,u1\n0,0,1\n0,1,2\n1,0,3\n")  # missing one node
    with pytest.raises(ConfigError):
        read_grid_csv(str(path))
    path.write_text("x,t1,u1\n0,0,one\n")
    with pytest.raises(ConfigError):
        read_grid_csv(str(path))
    # an axis span that overflows: numpy warned, and AxisSpec refuses it
    path.write_text("x,t1,u1\n-1e308,0,1\n0,0,2\n1e308,0,3\n")
    with pytest.raises(ConfigError, match="span"):
        read_grid_csv(str(path))


# ---------------------------------------------------------------------------
# the column-wise CSV reader and writer against the row-by-row oracles


def _lattice_text(xs, ts):
    return "x,t1,u1,u2\n" + "".join(f"{x!r},{t!r},0.5,-0.25\n"
                                   for x in xs for t in ts)


def _load_bench_cases():
    # compiled in memory, so no bytecode cache is written under bench/; the
    # module is registered while it runs because dataclasses look it up
    path = REPO / "bench" / "cases.py"
    module = types.ModuleType("bench_cases")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


# (config, command) of every lattice the shipped configs produce
SHIPPED_LATTICES = [(name, "evolve") for name in (
    "constant2", "constant3", "coordinates2", "nijenhuis2",
    "nijenhuis2_direct", "nijenhuis3", "nijenhuis4")] + [
    ("constant2", "solve-direct"), ("nijenhuis2_direct", "solve-direct")]
BENCH_SEED = 7
BENCH_RUNGS = ("direct241", "direct481", "direct961", "direct1921")
LATTICES = [f"{name}-{command}" for name, command in SHIPPED_LATTICES] + [
    f"crosscheck-{rung}" for rung in BENCH_RUNGS]


@pytest.fixture(scope="module")
def lattice_files(tmp_path_factory):
    """The CSV of every lattice a shipped config gives, and of the
    crosscheck rungs of one benchmark seed, keyed as in LATTICES."""
    out = tmp_path_factory.mktemp("lattices")
    runs = [(f"{name}-{command}", command, CONFIGS / f"{name}.json")
            for name, command in SHIPPED_LATTICES]
    cases = _load_bench_cases()
    workload = cases.make_workload("crosscheck", BENCH_SEED)
    assert sorted(workload.configs) == sorted(BENCH_RUNGS)
    cases.write_configs(workload, out)
    runs += [(f"crosscheck-{rung}", "solve-direct", out / f"{rung}.json")
             for rung in BENCH_RUNGS]
    files = {}
    for key, command, config in runs:
        files[key] = out / f"{key}.csv"
        assert main([command, str(config), "--output", str(files[key])]) == 0
    return files


def _read_outcome(reader, path):
    """The lattice a reader returns, or the class and message it raises."""
    try:
        return reader(str(path))
    except ValueError as exc:
        return type(exc), str(exc)


def _bits(array):
    return None if array is None else (array.shape, array.tobytes())


def _outcome_bits(outcome):
    """A lattice as its axes and the bits of u and p, or (class, message)."""
    if isinstance(outcome, tuple):
        return outcome
    return ([(a.name, float(a.start).hex(), float(a.stop).hex(), a.count)
             for a in outcome.axes], _bits(outcome.u), _bits(outcome.p))


def assert_same_outcome(new, old):
    assert _outcome_bits(new) == _outcome_bits(old)


# SHA-256 of what the commands that read a lattice make of every lattice
# FLOAT_DIGESTS pins, recorded with the whole-file reader: the plot at its
# default slices and at --slices 0,1, and the residual --input report.  A
# run that exits 2 is pinned by its stderr line.  However the reader holds
# the file, these must not change by a byte.
READER_DIGESTS = {
    ("plot", "constant2-evolve"):
        "435bc07b88eaf892608de3ef24db9f1df133c93ddb1934983a22c9dd95a3f0f7",
    ("plot --slices 0,1", "constant2-evolve"):
        "3b07747db861d05ddd63ec6a56aa34430e7f558b27e567d7462cf567335faa7b",
    ("residual --input", "constant2-evolve"):
        "86d88f897cdd9a92fe059afed89660167df5b1156c5f10088afc3feedb97bad0",
    ("plot", "constant3-evolve"):
        "19144e40584f235a225a1c561a3b56c62871cadcb9bf088c23111d2c9dbb7e40",
    ("plot --slices 0,1", "constant3-evolve"):
        "ee8a3a61b2363dec19c93d9c49a8ef9ac3817f19aa4eb811502ee8a92f0b2c60",
    ("residual --input", "constant3-evolve"):
        "299360ffac2f3a1df8e906ebb5571df13d5e47195225c2b511a1932a892b2352",
    ("plot", "coordinates2-evolve"):
        "0c59d01137642f28d451bc605f349bc70b47e10c4f4cc60cabe75cb77bc9e5f1",
    ("plot --slices 0,1", "coordinates2-evolve"):
        "717d6ce660fe80447ca7fc0ac211c1785e25db9a48f24f55341541ca2e1d2d3b",
    ("residual --input", "coordinates2-evolve"):
        "cf55be61c5ea2732328472e2740039a23b4b9f27948304c4d31c637dd6a5d3af",
    ("plot", "nijenhuis2-evolve"):
        "405d57e7c92057bb2221476844a6b6460ab23b84b572da2cf459539120c381c2",
    ("plot --slices 0,1", "nijenhuis2-evolve"):
        "c4ed34e813e7c7a3883f4674f7fb501380e13b1ba724feb6ce83cc422e6c9fad",
    ("residual --input", "nijenhuis2-evolve"):
        "3b72bdcdff2844571d200896d5e9a587fc672bb813783b0d5600573b4b3b70c8",
    ("plot", "nijenhuis2_direct-evolve"):
        "bfbfe0ec2202b7fde9461f4d853b5a937129f595948a6b811078f8619c85f9c3",
    ("plot --slices 0,1", "nijenhuis2_direct-evolve"):
        "nijflow plot: the lattice has no time axis to slice",
    ("residual --input", "nijenhuis2_direct-evolve"):
        "nijflow residual: residuals need a lattice with at least one time "
        "axis",
    ("plot", "nijenhuis3-evolve"):
        "80da4de03e8b299842cedfdada020b3b8c567f00c411bbc002637b479d15f71d",
    ("plot --slices 0,1", "nijenhuis3-evolve"):
        "6c5e8ca8f61591fc463434a09719a5837b6554e692bc8cac6f54a3cb4d487c79",
    ("residual --input", "nijenhuis3-evolve"):
        "3fe103aa24931847884b68bfa5d9959b9c05c52e016f047a666911b8f00d2376",
    ("plot", "nijenhuis4-evolve"):
        "f97dcc70cae56078eaf63e83e9ec05a938577a208a232d032ebbc6552ed05370",
    ("plot --slices 0,1", "nijenhuis4-evolve"):
        "0e0782dd2c393c4887ab562814028042423a96b449822ae7d05a5061813d3b19",
    ("residual --input", "nijenhuis4-evolve"):
        "09425d8673dabab438ddd156872b5c1ea621456685fcb341e6671421042f7f68",
    ("plot", "constant2-solve-direct"):
        "6c5842b686e148d4c85405bb39e4127c7a8078f21d490bf909b431ccd450ed6e",
    ("plot --slices 0,1", "constant2-solve-direct"):
        "c4663183d052faa29e2a0df54aed4318aadbb24946e218b3820b706c2265a9c1",
    ("residual --input", "constant2-solve-direct"):
        "ba787f5d62ee4170f616b06f32c3d0bbc9af09131599441dc8938ffcdd42d77c",
    ("plot", "nijenhuis2_direct-solve-direct"):
        "4542a184458afbeb46848ade6ac44343cf41f4c8f35124232bb3ded3cacea725",
    ("plot --slices 0,1", "nijenhuis2_direct-solve-direct"):
        "bcc847cbf7980b81939dc3f9a770fedd5641c7eb356b9a47a158734c519d6df7",
    ("residual --input", "nijenhuis2_direct-solve-direct"):
        "21c7433480fab0fbf70d2fbdde73b9b700f0e72cbbeb0945e7a4ee1391c40d41",
}


def test_lattice_readers_outputs_are_pinned(tmp_path, lattice_files, capsys):
    got = {}
    svg = tmp_path / "plot.svg"
    for name, command in SHIPPED_LATTICES:
        key = f"{name}-{command}"
        path = str(lattice_files[key])
        runs = {"plot": ["plot", path, "--output", str(svg)],
                "residual --input": ["residual", str(CONFIGS / f"{name}.json"),
                                     "--input", path]}
        runs["plot --slices 0,1"] = runs["plot"] + ["--slices", "0,1"]
        for label, argv in runs.items():
            rc = main(argv)
            out, err = capsys.readouterr()
            if rc == 2:
                got[label, key] = err.rstrip("\n")
                continue
            assert rc == 0 and err == ""
            data = svg.read_bytes() if argv[0] == "plot" else out.encode()
            got[label, key] = hashlib.sha256(data).hexdigest()
    assert got == READER_DIGESTS


@pytest.mark.parametrize("key", LATTICES)
def test_csv_reader_and_writer_match_row_by_row_oracles(tmp_path,
                                                        lattice_files, key):
    path = lattice_files[key]
    grid = read_grid_csv(str(path))
    assert_same_outcome(grid, reference_read_grid_csv(str(path)))
    # the command wrote the file with the column writer
    oracle = tmp_path / "oracle.csv"
    reference_write_grid_csv(grid, str(oracle))
    assert oracle.read_bytes() == path.read_bytes()
    again = tmp_path / "again.csv"
    write_grid_csv(grid, str(again))
    assert again.read_bytes() == path.read_bytes()


# files on which the column reader must agree with the row-by-row oracle:
# the same lattice, or the same error class and message
ORACLE_FILES = {
    "blank-lines": "x,t1,u1\n\n0,0,1\n \t\n0,1,2\n1,0,3\n1,1,4\n\n\n",
    "crlf": "x,t1,u1\r\n0,0,1\r\n0,1,2\r\n1,0,3\r\n1,1,4\r\n",
    "no-final-newline": "x,t1,u1\n0,0,1\n0,1,2\n1,0,3\n1,1,4",
    "padded-cells": "x,t1,u1\n 0,0 ,1\n0,1, 2\n1 ,0,3\n1,1,4 \n",
    "two-spellings": "x,t1,u1\n0,0,1\n0,1,2\n1,0.0,3\n1.0,1e0,4\n",
    "signed-zero": "x,t1,u1\n-0,0,-0\n-0,1,5e-324\n1,-0,1e-5\n1,1,-1e308\n",
    "momenta": "x,u1,p1\n0,1,2\n0.5,3,4\n1,5,6\n",
    "single-node": "x,u1\n0.25,1\n",
    "bad-number": "x,t1,u1,u2\n0,0,one,1\n",
    "bad-axis-number": "x,t1,u1\n0,0,1\n0,zero,1\n",
    "empty-cell": "x,t1,u1\n0,,1\n",
    "missing-node": "x,t1,u1\n0,0,1\n0,1,2\n1,0,3\n",
    "repeated-rows": "x,t1,u1\n0,0,1\n0,0,1\n1,0,2\n1,0,2\n",
    "unsorted-axis": _lattice_text([0.0, 1.0, 0.5], [0.0, 0.1]),
    "non-uniform-axis": _lattice_text([0.0, 0.5, 2.0], [0.0, 0.1]),
    "column-major": "x,t1,u1\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n",
    "bad-header": "a,b,c\n1,2,3\n",
    "no-axis": "u1,u2\n1,2\n",
    "momentum-count": "x,u1,u2,p1\n0,1,2,3\n",
    "header-only": "x,u1\n",
    "empty-file": "",
}


@pytest.mark.parametrize("text", ORACLE_FILES.values(),
                         ids=ORACLE_FILES.keys())
def test_csv_reader_matches_row_by_row_oracle(tmp_path, text):
    path = tmp_path / "lattice.csv"
    path.write_bytes(text.encode())
    assert_same_outcome(_read_outcome(read_grid_csv, path),
                        _read_outcome(reference_read_grid_csv, path))


# files on which the column reader changes the row-by-row outcome on
# purpose, and the error it gives instead
CHANGED_FILES = {
    # the oracle reported numpy's inhomogeneous-shape error
    "ragged": ("x,t1,u1\n0,0,1\n0,1\n",
               "lattice rows do not match the header: line 3 has 2 cells, "
               "the header has 3"),
    "ragged-after-blank": ("x,t1,u1\n\n0,0,1\n0,1,2,3\n",
                           "lattice rows do not match the header: line 4 has "
                           "4 cells, the header has 3"),
    # the oracle did not say which line
    "short-rows": ("x,t1,u1\n0,0\n0,1\n",
                   "lattice rows do not match the header: line 2 has 2 "
                   "cells, the header has 3"),
    # the oracle accepted these
    "nan-value": ("x,t1,u1\n0,0,1\n\n0,1,nan\n",
                  "non-finite number 'nan' on line 4 of the lattice file"),
    "inf-axis": ("x,u1\n0,1\n-inf,2\n",
                 "non-finite number '-inf' on line 3 of the lattice file"),
    # the oracle quoted the cell with the line's newline, 'one\\n'
    "bad-last-number": ("x,t1,u1\n0,0,one\n",
                        "bad number in lattice file: could not convert "
                        "string to float: 'one'"),
    # the oracle read these as 10.0, 1.0 and 3.0
    "underscore": ("x,u1\n0,1\n\n1,1_0\n",
                   "unexpected character '_' on line 4 of the lattice file"),
    "full-width-digit": ("x,u1\n0,\uff11\n",
                         "unexpected character '\uff11' on line 2 of the "
                         "lattice file"),
    "arabic-indic-axis": ("x,u1\n0,1\n\u0663,2\n",
                          "unexpected character '\u0663' on line 3 of the "
                          "lattice file"),
    # the oracle took u_1 for a component column
    "underscore-header": ("x,u_1\n0,1\n",
                          "unexpected character '_' on line 1 of the "
                          "lattice file"),
    # the oracle stripped the header's non-ASCII whitespace
    "header-ideographic-space": ("x,u1\u3000\n0,1\n1,2\n",
                                 "unexpected character '\\u3000' on line 1 "
                                 "of the lattice file"),
    "header-no-break-space": ("x,u1\xa0\n0,1\n1,2\n",
                              "unexpected character '\\xa0' on line 1 of "
                              "the lattice file"),
    # the oracle read a lone carriage return as a line break
    "lone-carriage-return": ("x,u1\n0,1\r1,2\n",
                             "unexpected character '\\r' on line 2 of the "
                             "lattice file"),
}


@pytest.mark.parametrize("text, message", CHANGED_FILES.values(),
                         ids=CHANGED_FILES.keys())
def test_csv_reader_names_the_bad_line(tmp_path, text, message):
    path = tmp_path / "lattice.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ConfigError) as info:
        read_grid_csv(str(path))
    assert str(info.value) == message


# headers other than the writer's, which were read by column position
WRONG_HEADERS = {
    "u-swapped": "x,t1,u2,u1,p1,p2",
    "axes-swapped": "t1,x,u1,u2,p1,p2",
    "time-named": "x,time,u1,u2,p1,p2",
    "letters": "x,tq,ua,ub,pz,py",
    "u-repeated": "x,t1,u1,u1,p1,p2",
}


@pytest.mark.parametrize("command", ["residual", "plot"])
@pytest.mark.parametrize("header", WRONG_HEADERS.values(),
                         ids=WRONG_HEADERS.keys())
def test_lattice_header_other_than_the_writers_exits_2(tmp_path, capsys,
                                                       command, header):
    path = tmp_path / "lattice.csv"
    path.write_text(header + "\n" + "".join(
        f"{x},{t},0.5,-0.25,1,2\n" for x in (0.0, 0.5) for t in (0.0, 0.1)))
    for reader in (read_grid_csv, reference_read_grid_csv):
        with pytest.raises(ConfigError) as info:
            reader(str(path))
        assert str(info.value) == f"unrecognized lattice header {header!r}"
    if command == "residual":
        argv = [command, str(CONFIGS / "nijenhuis2.json"), "--input", str(path)]
    else:
        argv = [command, str(path), "--output", str(tmp_path / "plot.svg")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"nijflow {command}: unrecognized lattice header {header!r}\n")


@pytest.mark.parametrize("command", ["residual", "plot"])
@pytest.mark.parametrize("name", ["header-ideographic-space",
                                  "header-no-break-space",
                                  "lone-carriage-return"])
def test_stray_whitespace_exits_2(tmp_path, capsys, command, name):
    text, message = CHANGED_FILES[name]
    path = tmp_path / "lattice.csv"
    path.write_bytes(text.encode())
    if command == "residual":
        argv = [command, str(CONFIGS / "nijenhuis2.json"), "--input", str(path)]
    else:
        argv = [command, str(path), "--output", str(tmp_path / "plot.svg")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"nijflow {command}: {message}\n"


# lattice files the reader refuses: axes that are not uniform (x values,
# t1 values), a ragged row, non-finite cells, bytes that are not UTF-8 text
BAD_LATTICES = {
    "x-stretched": _lattice_text([0.0, 0.5, 2.0], [0.0, 0.1]),
    "t-stretched": _lattice_text([0.0, 0.5, 1.0], [0.0, 0.1, 0.5]),
    "x-unsorted": _lattice_text([0.0, 1.0, 0.5], [0.0, 0.1]),
    "ragged": "x,t1,u1\n0,0,1\n0,1\n",
    "nan-value": _lattice_text([0.0, 0.5], [0.0, 0.1]).replace("-0.25",
                                                                "nan", 1),
    "inf-axis": _lattice_text([0.0, 0.5, float("inf")], [0.0, 0.1]),
    "undecodable": "\xff\xfe\x00x,u1\n0,1\n",
    "underscore": "x,u1\n0,1_0\n",
}


@pytest.mark.parametrize("command", ["residual", "plot"])
@pytest.mark.parametrize("text", BAD_LATTICES.values(),
                         ids=BAD_LATTICES.keys())
def test_non_uniform_lattice_axes_exit_2(tmp_path, capsys, command, text):
    path = tmp_path / "lattice.csv"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ConfigError):
        read_grid_csv(str(path))
    if command == "residual":
        argv = [command, str(CONFIGS / "nijenhuis2.json"), "--input", str(path)]
    else:
        argv = [command, str(path), "--output", str(tmp_path / "plot.svg")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"nijflow {command}: ")
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# the block reader against the whole-file reader it replaced


# block sizes besides the reader's own: a byte, a few bytes, a few lines
SMALL_BLOCKS = [1, 7, 64]

# every file of the reader tests above, as bytes
BLOCK_FILES = {f"oracle-{key}": text.encode()
               for key, text in ORACLE_FILES.items()}
BLOCK_FILES.update({f"changed-{key}": text.encode()
                    for key, (text, _) in CHANGED_FILES.items()})
BLOCK_FILES.update({f"bad-{key}": text.encode("latin-1")
                    for key, text in BAD_LATTICES.items()})
BLOCK_FILES.update({
    "junk-header": b"a,b,c\n1,2,3\n",
    "axis-span-overflow": b"x,t1,u1\n-1e308,0,1\n0,0,2\n1e308,0,3\n",
    "header-without-newline": b"x,u1",
    "crlf-header-only": b"x,u1\r\n",
    "lone-cr-after-bad-header": b"x,q1\n0,1\n1,2\r\n2,3\r",
    "underscore-after-lone-cr": b"x,u1\n0,1\r1,2\n2,3_\n",
    "undecodable-after-underscore": b"x,u1\n0,1_\n1,2\n\xff\n",
    "ragged-after-bad-number": b"x,u1\n0,one\n1,2\n2,3,4\n",
    "bad-number-after-nan": b"x,u1,u2\n0,nan,1\n1,2,3\n2,3,4.4.\n",
    "bad-number-in-earlier-column-later": b"x,u1,u2\n0,1,x\n1,y,3\n",
    "nan-after-nan": b"x,u1\n0,1\n1,inf\n2,nan\n",
})


def _both_readers(path):
    """The outcome of the block reader and of the whole-file reader."""
    return tuple(_outcome_bits(_read_outcome(reader, path)) for reader in
                 (read_grid_csv, whole_file_read_grid_csv))


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@pytest.mark.parametrize("key", BLOCK_FILES)
def test_block_reader_matches_whole_file_reader(tmp_path, monkeypatch, key,
                                                block):
    path = tmp_path / "lattice.csv"
    path.write_bytes(BLOCK_FILES[key])
    monkeypatch.setattr(lattice_io, "_READ_BLOCK", block)
    new, old = _both_readers(path)
    assert new == old
    if key.startswith("changed-"):
        assert new == (ConfigError, CHANGED_FILES[key[8:]][1])


@pytest.mark.parametrize("key", LATTICES)
def test_block_reader_matches_whole_file_reader_on_lattices(
        lattice_files, monkeypatch, key):
    # 4,093 bytes: blocks of a few dozen rows, read cut inside a cell
    monkeypatch.setattr(lattice_io, "_READ_BLOCK", 4093)
    new, old = _both_readers(lattice_files[key])
    assert new == old and isinstance(new[0], list)


def _mutated_lattices(tmp_path, seed):
    """A small evolve lattice (5 x 3 nodes with momenta, one cell in
    exponent form) and seeded changes to its bytes, by name."""
    axes = (AxisSpec("x", -0.5, 0.5, 5), AxisSpec("t1", 0.0, 0.2, 3))
    rng = np.random.default_rng(seed)
    u, p = rng.standard_normal((2, 5, 3, 2))
    u[1, 1, 0] = 3e-7
    path = tmp_path / "base.csv"
    write_grid_csv(SolutionGrid(axes, u, p), str(path))
    text = path.read_bytes()
    r = random.Random(seed)
    starts = [i + 1 for i, c in enumerate(text) if c == ord("\n")][:-1]

    def cell(value):
        """The text with one cell of a random data row set to value."""
        lines = text.split(b"\n")
        i = r.randrange(1, len(lines) - 1)
        cells = lines[i].split(b",")
        cells[r.randrange(len(cells))] = value
        lines[i] = b",".join(cells)
        return b"\n".join(lines)

    def insert(at, value):
        return text[:at] + value + text[at:]

    cases = {"unchanged": text, "crlf": text.replace(b"\n", b"\r\n")}
    for _ in range(6):
        cut = r.randrange(len(text))
        cases[f"truncated at {cut}"] = text[:cut]
    for _ in range(10):
        at, byte = r.randrange(len(text)), r.choice(b"0123456789.,-+e x\n\t")
        cases[f"byte {at} set to {chr(byte)!r}"] = (
            text[:at] + bytes([byte]) + text[at + 1:])
    for _ in range(3):
        at = r.choice(starts)
        cases[f"crlf on the line ending at {at}"] = (
            text[:at - 1] + b"\r" + text[at - 1:])
        cases[f"lone cr at {at - 3}"] = insert(at - 3, b"\r")
        cases[f"blank line at {at}"] = insert(at, r.choice([b"\n", b" \t\n"]))
        cases[f"underscore at {at + 2}"] = insert(at + 2, b"_")
    for block in (7, 64):
        # the two bytes of an e-acute on either side of a read cut
        at = block * r.randrange(1, len(text) // block) - 1
        cases[f"e-acute across the cut at {at + 1}"] = insert(at, b"\xc3\xa9")
    for name, value in (("a cell dropped", None), ("a cell added", b"1,2"),
                        ("nan", b"nan"), ("1e400", b"1e400"),
                        ("an empty cell", b"")):
        for i in range(2):
            if value is None:
                lines = text.split(b"\n")
                row = r.randrange(1, len(lines) - 1)
                lines[row] = lines[row].rsplit(b",", 1)[0]
                cases[f"{name} {i}"] = b"\n".join(lines)
            else:
                cases[f"{name} {i}"] = cell(value)
    return cases


@pytest.mark.parametrize("block", SMALL_BLOCKS + [lattice_io._READ_BLOCK])
def test_block_reader_matches_whole_file_reader_on_mutated_lattices(
        tmp_path, monkeypatch, block):
    cases = _mutated_lattices(tmp_path, 41)
    monkeypatch.setattr(lattice_io, "_READ_BLOCK", block)
    path = tmp_path / "mutated.csv"
    got, want = {}, {}
    for name, data in cases.items():
        path.write_bytes(data)
        got[name], want[name] = _both_readers(path)
    assert got == want
    # the seed reaches every kind of outcome, a lattice included
    kinds = {" ".join(o[1].split()[:2]) if o[0] is ConfigError else "grid"
             for o in got.values()}
    assert kinds >= {"grid", "unexpected character", "lattice rows",
                     "bad number", "non-finite number"}


def test_csv_reader_peak_memory_is_its_values_twice_and_one_block(tmp_path):
    # lattices like the crosscheck rungs' of 1 MB and 4 MB, and one of about
    # one block.  u is a view of the parsed table, so the returned lattice
    # holds the table, axis columns included
    rng = np.random.default_rng(481)

    def traced_read(nx):
        axes = (AxisSpec("x", -0.5, 0.5, nx), AxisSpec("t1", 0.0, 0.0162, 27))
        u = rng.uniform(-2, 2, (nx, 27, 2))
        path = tmp_path / f"rung{nx}.csv"
        write_grid_csv(SolutionGrid(axes, u), str(path))
        tracemalloc.start()
        try:
            grid = read_grid_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.u.tobytes() == u.tobytes()
        return peak, grid.u.base.nbytes, path.stat().st_size

    reads = {nx: traced_read(nx) for nx in (481, 1921)}
    node_bytes = reads[481][2] / (481 * 27)
    one_block, _, size = traced_read(
        int(lattice_io._READ_BLOCK / node_bytes / 27))
    assert abs(size / lattice_io._READ_BLOCK - 1) < 0.05
    for nx, (peak, values, size) in reads.items():
        assert values == nx * 27 * 4 * 8
        assert peak <= 2 * values + one_block


@pytest.mark.parametrize("block", SMALL_BLOCKS + [lattice_io._READ_BLOCK])
def test_rows_past_the_limit_are_counted_not_parsed(tmp_path, monkeypatch,
                                                    block):
    path = tmp_path / "lattice.csv"
    path.write_text(_lattice_text([0.0, 0.25, 0.5, 0.75, 1.0, 1.25],
                                  [0.0, 0.1]))
    monkeypatch.setattr(lattice_io, "MAX_LATTICE_NODES", 5)
    monkeypatch.setattr(lattice_io, "_READ_BLOCK", block)
    parsed = []

    def counted(raw, s, e, out):
        parsed.append(len(s))
        return parse(raw, s, e, out)

    parse = lattice_io._parse_plain
    monkeypatch.setattr(lattice_io, "_parse_plain", counted)
    with pytest.raises(ConfigError) as info:
        read_grid_csv(str(path))
    assert str(info.value) == ("the lattice file has 12 rows, more than the "
                               "limit of 5")
    assert sum(parsed) <= 5 * 4


# files over a row limit of 5 with another fault before or after it, and
# the fault reported, as the whole-file reader reported it
LIMIT_FILES = {
    "ragged-past-the-limit": (
        "x,u1\n" + "".join(f"{i},1\n" for i in range(9)) + "9,1,2\n",
        "lattice rows do not match the header: line 11 has 3 cells, the "
        "header has 2"),
    "lone-cr-past-the-limit": (
        "x,u1\n" + "".join(f"{i},1\n" for i in range(9)) + "9,1\r",
        "unexpected character '\\r' on line 11 of the lattice file"),
    "bad-number-before-the-limit": (
        "x,u1\n0,one\n" + "".join(f"{i},1\n" for i in range(1, 9)),
        "the lattice file has 9 rows, more than the limit of 5"),
    "nan-before-the-limit": (
        "x,u1\n0,nan\n" + "".join(f"{i},1\n" for i in range(1, 9)),
        "the lattice file has 9 rows, more than the limit of 5"),
}


@pytest.mark.parametrize("block", SMALL_BLOCKS + [lattice_io._READ_BLOCK])
@pytest.mark.parametrize("text, message", LIMIT_FILES.values(),
                         ids=LIMIT_FILES.keys())
def test_faults_beside_the_row_limit_keep_their_order(tmp_path, monkeypatch,
                                                      text, message, block):
    path = tmp_path / "lattice.csv"
    path.write_bytes(text.encode())
    monkeypatch.setattr(lattice_io, "MAX_LATTICE_NODES", 5)
    monkeypatch.setattr(lattice_io, "_READ_BLOCK", block)
    assert _both_readers(path) == ((ConfigError, message),) * 2


# ---------------------------------------------------------------------------
# the numpy cell parser against float, cell by cell


def _cells_lattice(cells, width=4):
    """The text of a one-axis lattice whose u columns hold ``cells`` row by
    row (padded with "0"), and float's values of them in that shape."""
    cells = list(cells) + ["0"] * (-len(cells) % width)
    rows = [",".join(cells[i:i + width]) for i in range(0, len(cells), width)]
    header = ",".join(["x"] + [f"u{j + 1}" for j in range(width)])
    text = header + "\n" + "".join(f"{r},{row}\n" for r, row in enumerate(rows))
    return text, np.array([float(c) for c in cells]).reshape(-1, width)


def _random_doubles(seed, count=4000):
    """Magnitudes spread over 1e-25 .. 1e25, and random bit patterns."""
    rng = np.random.default_rng(seed)
    spread = 10.0 ** rng.uniform(-25, 25, count) * rng.choice([-1, 1], count)
    bits = rng.integers(0, 2**64, count, dtype=np.uint64).view(np.float64)
    return np.concatenate([spread, bits[np.isfinite(bits)]]).tolist()


def _midpoints():
    """Decimals next to the midpoint of two neighbouring doubles, written
    with 20 to 25 digits, and exact midpoints 2**k + 2**(k - 53)."""
    rng = np.random.default_rng(5)
    cells = []
    with decimal.localcontext(prec=800):
        for v in np.concatenate([rng.uniform(1e-3, 1e6, 300),
                                 10.0 ** rng.uniform(-8, 20, 300)]).tolist():
            mid = (decimal.Decimal(v)
                   + decimal.Decimal(float(np.nextafter(v, np.inf)))) / 2
            cells += [f"{mid:.{digits}g}" for digits in range(20, 26)]
    exact = [str(2**k + 2**(k - 53)) for k in range(53, 83)]
    return cells + exact + ["-" + c for c in exact]


def _mantissas():
    """19- and 20-digit mantissas with the dot anywhere, and 2**53 +- 1."""
    rng = random.Random(19)
    cells = []
    for digits in (19, 20):
        for _ in range(1000):
            text = str(rng.randrange(10 ** (digits - 1), 10 ** digits))
            k = rng.randrange(digits + 1)
            cells.append(rng.choice(["", "-"]) + text[:k] + "." + text[k:])
    return cells + [str(2**53 + d) for d in (-1, 0, 1)] + [
        "-9007199254740993", "900719925474099.3", "0.9007199254740993"]


def _widths():
    """Cells of 23 to 26 bytes, with and without a sign."""
    cells = []
    for v in np.random.default_rng(24).uniform(0, 1e6, 300).tolist():
        for text in ("%.40f" % v, "%.40f" % (v * 1e-10)):
            cells += [sign + text[:size] for size in (23, 24, 25, 26)
                      for sign in ("", "-")]
    return cells


READ_CASES = {f"format {fmt}": functools.partial(
    lambda fmt, seed: [fmt % v for v in _random_doubles(seed)], fmt, seed)
    for seed, fmt in enumerate(["%.17g", "%r", "%.5g", "%.12g", "%.20f",
                                "%.3f", "%.0f", "%+.3e"])}
READ_CASES.update({
    "midpoints": _midpoints,
    "mantissas": _mantissas,
    "widths": _widths,
    "specials": lambda: ["1.", ".5", "-.5", "-0", "5e-324", "-1e308", "0",
                         "-0.0", "007", "1.e5", "0.30000000000000004"],
})


@pytest.mark.parametrize("case", READ_CASES)
def test_csv_reader_matches_float_bit_for_bit(tmp_path, case):
    text, expected = _cells_lattice(READ_CASES[case]())
    path = tmp_path / "cells.csv"
    path.write_text(text)
    grid = read_grid_csv(str(path))
    assert grid.u.tobytes() == expected.tobytes()


def test_csv_reader_reports_the_first_bad_cell_column_by_column(tmp_path):
    # bad cells in an early row of column u2 and a late row of column u1,
    # in different read chunks: the first one in column order is reported
    rows = [f"{i},{i}.5,-{i}.25" for i in range(3 * 2**13)]
    rows[1] = "1,1.5,1.5e"
    rows[-2] = f"{len(rows) - 2},12.5.,3"
    path = tmp_path / "bad.csv"
    path.write_text("x,u1,u2\n" + "\n".join(rows) + "\n")
    with pytest.raises(ConfigError) as info:
        read_grid_csv(str(path))
    assert str(info.value) == ("bad number in lattice file: could not "
                               "convert string to float: '12.5.'")


def test_csv_reader_peak_memory_is_at_most_four_times_the_file(tmp_path):
    # a lattice the size of the finest crosscheck rung: 1921 x 27 nodes,
    # two components, 4 MB
    axes = (AxisSpec("x", -0.5, 0.5, 1921), AxisSpec("t1", 0.0, 0.01625, 27))
    u = np.random.default_rng(1921).uniform(-2, 2, (1921, 27, 2))
    path = tmp_path / "rung.csv"
    write_grid_csv(SolutionGrid(axes, u, None, {}), str(path))
    tracemalloc.start()
    try:
        grid = read_grid_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.u.tobytes() == u.tobytes()
    assert peak <= 4 * path.stat().st_size


@pytest.mark.parametrize("command", ["residual", "plot"])
def test_lattice_files_over_the_row_limit_exit_2(tmp_path, capsys,
                                                 monkeypatch, command):
    path = tmp_path / "lattice.csv"
    path.write_text(_lattice_text([0.0, 0.5, 1.0], [0.0, 0.1]))
    monkeypatch.setattr(lattice_io, "MAX_LATTICE_NODES", 5)

    def parse(*args):
        raise AssertionError("a number was parsed")
    monkeypatch.setattr(lattice_io, "_parse_plain", parse)
    if command == "residual":
        argv = [command, str(CONFIGS / "nijenhuis2.json"), "--input", str(path)]
    else:
        argv = [command, str(path), "--output", str(tmp_path / "plot.svg")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"nijflow {command}: the lattice file has 6 rows, more than the "
        "limit of 5\n")


def test_solve_direct_csv_has_no_momentum_columns(tmp_path, capsys):
    out = tmp_path / "direct.csv"
    assert main(["solve-direct", str(CONFIGS / "nijenhuis2_direct.json"),
                 "--output", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "x,t1,u1,u2"
    grid = read_grid_csv(str(out))
    assert grid.p is None
    capsys.readouterr()


def test_solve_direct_accepts_curve_initial(tmp_path, capsys):
    cfg = small_e2_config(
        tmp_path,
        initial={"curve": ["1/10 + 1/2*x", "-1/5 + x^2"]},
        grid={"x": {"start": -1.5, "stop": 1.5, "count": 61}},
        pde={"t_end": 0.02})
    out = tmp_path / "direct.csv"
    assert main(["solve-direct", str(cfg), "--output", str(out)]) == 0
    grid = read_grid_csv(str(out))
    # the initial layer reproduces the sampled curve on the final window
    xs = grid.axes[0].values()
    assert np.abs(grid.u[:, 0, 0] - (0.1 + 0.5 * xs)).max() < 1e-12
    assert np.abs(grid.u[:, 0, 1] - (-0.2 + xs ** 2)).max() < 1e-12
    capsys.readouterr()


def test_initial_curve_samples_match_pointwise_evaluation():
    cfg = {"n": 2, "sigma": ["u1", "u2 - 1/2*u1^2"],
           "initial": {"curve": ["1/10 + 1/2*x - 3/7*x^3 + x^5",
                                 "-1/5 + x^2 - 2/3*x^4"]}}
    model = build_model(cfg)
    axis = AxisSpec("x", -1.5, 1.5, 1921)
    u0 = config_initial_curve(cfg, model, axis, FlowSettings())
    polys = [parse_expression(c, ["x"]) for c in cfg["initial"]["curve"]]
    expected = [[poly.evaluate([x]) for poly in polys]
                for x in axis.values().tolist()]
    assert np.array_equal(u0, expected)


def test_initial_curve_not_finite_on_the_x_axis_is_refused(tmp_path, capsys):
    # x^400 overflows a float for |x| above about 5.9
    cfg = small_e2_config(
        tmp_path, initial={"curve": ["x^400", "1"]},
        grid={"x": {"start": -10.0, "stop": 10.0, "count": 101}},
        pde={"t_end": 0.01})
    out = tmp_path / "direct.csv"
    for argv in (["solve-direct", str(cfg), "--output", str(out)],
                 ["compare", str(cfg)]):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"nijflow {argv[0]}: 'initial.curve' is not finite on the "
            "x-axis\n")
    assert not out.exists()


def test_direct_commands_accept_uniform_axes_far_from_0(tmp_path, capsys):
    # the nodes of [1e6, 1e6 + 1] carry ulps of about 1.2e-10
    x = {"start": 1e6, "stop": 1e6 + 1, "count": 1001}
    cfg = small_e2_config(tmp_path, initial={"curve": ["1/10", "1/5"]},
                          grid={"x": x}, pde={"t_end": 0.001})
    out = tmp_path / "direct.csv"
    assert main(["solve-direct", str(cfg), "--output", str(out)]) == 0
    assert main(["residual", str(cfg), "--input", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["max_abs"] == 0.0
    assert main(["plot", str(out), "--output", str(tmp_path / "d.svg")]) == 0
    # compare on the constant family, whose x-lines stay finite that far out
    cfg = small_e2_config(tmp_path, sigma=["1", "-1/2"],
                          initial={"u": [0.0, 0.0], "p": [1.0, 2.0]},
                          grid={"x": x}, pde={"t_end": 0.001})
    capsys.readouterr()
    assert main(["compare", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["window"]["count"] == 953
    assert report["max_deviation"] < 1e-8
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# residual and compare reports


def test_residual_command_from_config_and_csv_agree(tmp_path, capsys):
    cfg = small_e2_config(tmp_path)
    assert main(["residual", str(cfg)]) == 0
    from_config = json.loads(capsys.readouterr().out)
    out = tmp_path / "grid.csv"
    assert main(["evolve", str(cfg), "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["residual", str(cfg), "--input", str(out)]) == 0
    from_csv = json.loads(capsys.readouterr().out)
    assert from_config == from_csv
    assert from_config["max_abs"] < 1e-2
    assert list(from_config["per_axis"]) == ["t1"]


def test_residual_of_values_past_the_float_range_is_nan_quietly(tmp_path,
                                                                capsys):
    # the differences overflow and A(u) v meets inf - inf; numpy's warnings
    # stay off stderr, and the report says NaN
    lattice = tmp_path / "huge.csv"
    lattice.write_text("x,t1,u1,u2\n" + "".join(
        f"{x},{t},{s * 1.7e308},{-s * 1.7e308}\n"
        for x in range(3) for t in range(3) for s in [(-1) ** (x + t)]))
    assert main(["residual", str(CONFIGS / "nijenhuis2.json"),
                 "--input", str(lattice)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    assert np.isnan(report["max_abs"]) and np.isnan(report["per_axis"]["t1"])


def test_compare_reports_small_deviation_for_constant_fixture(capsys):
    assert main(["compare", str(CONFIGS / "constant2.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_deviation"] < 1e-10
    assert report["layers"][0]["t"] == 0.0
    assert report["window"]["count"] == 97


# ---------------------------------------------------------------------------
# plots


def test_plot_draws_polylines(tmp_path, capsys):
    cfg = small_e2_config(tmp_path)
    out = tmp_path / "grid.csv"
    assert main(["evolve", str(cfg), "--output", str(out)]) == 0
    svg = tmp_path / "plot.svg"
    assert main(["plot", str(out), "--output", str(svg),
                 "--slices", "0,5"]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2 * 2  # two slices, two components
    assert "u1 @ t1=0" in text
    capsys.readouterr()
    # ASCII integers only, with spaces around them; int() alone would read
    # "1_0" as 10 and the Arabic-Indic "\u0663" as 3
    assert main(["plot", str(out), "--output", str(svg),
                 "--slices", " 0 , 5 "]) == 0
    assert svg.read_text() == text
    capsys.readouterr()
    for bad in ("1_0", "\u0663", "\u00b2", "0,+1", "0,,1", "1.0"):
        assert main(["plot", str(out), "--output", str(svg),
                     "--slices", bad]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bad slice list" in err


def test_plot_empty_slices_gives_axes_only(tmp_path, capsys):
    cfg = small_e2_config(tmp_path)
    out = tmp_path / "grid.csv"
    assert main(["evolve", str(cfg), "--output", str(out)]) == 0
    svg = tmp_path / "plot.svg"
    assert main(["plot", str(out), "--output", str(svg), "--slices", ""]) == 0
    assert "<polyline" not in svg.read_text()
    assert main(["plot", str(out), "--output", str(svg),
                 "--slices", "17"]) == 2
    capsys.readouterr()
    # a lattice with no time axis: "" still draws the axes only, and any
    # index is refused
    cfg = small_e2_config(tmp_path, grid={
        "x": {"start": -0.3, "stop": 0.3, "count": 11}})
    assert main(["evolve", str(cfg), "--output", str(out)]) == 0
    assert main(["plot", str(out), "--output", str(svg), "--slices", ""]) == 0
    assert "<polyline" not in svg.read_text()
    capsys.readouterr()
    assert main(["plot", str(out), "--output", str(svg),
                 "--slices", "7"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no time axis" in err


def test_plot_is_deterministic(tmp_path, capsys):
    cfg = small_e2_config(tmp_path)
    out = tmp_path / "grid.csv"
    assert main(["evolve", str(cfg), "--output", str(out)]) == 0
    svg1 = tmp_path / "p1.svg"
    svg2 = tmp_path / "p2.svg"
    assert main(["plot", str(out), "--output", str(svg1)]) == 0
    assert main(["plot", str(out), "--output", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    capsys.readouterr()


def test_plot_of_values_past_the_float_range_exits_2(tmp_path, capsys):
    # the value span overflows to inf, so every point would read nan
    lattice = tmp_path / "wide.csv"
    lattice.write_text("x,u1\n0,1.7e308\n1,-1.7e308\n2,0\n")
    svg = tmp_path / "plot.svg"
    assert main(["plot", str(lattice), "--output", str(svg)]) == 2
    assert capsys.readouterr().err == (
        "nijflow plot: the plotted values span -1.7e+308 to 1.7e+308, too "
        "wide to scale in floating point\n")
    assert not svg.exists()


def test_svg_constant_grid_draws_horizontal_lines(tmp_path):
    axes = (AxisSpec("x", 0.0, 1.0, 5),)
    grid = SolutionGrid(axes, np.full((5, 1), 0.25))
    path = tmp_path / "const.svg"
    write_svg_plot(grid, None, str(path))
    text = path.read_text()
    assert text.count("<polyline") == 1
    # a horizontal polyline repeats one y-coordinate for every point
    points = text.split('points="')[1].split('"')[0].split()
    ys = {pt.split(",")[1] for pt in points}
    assert len(ys) == 1


@pytest.mark.parametrize("text", ["x,u1\n0,1e17\n1,1e17\n2,1e17\n",
                                  "x,u1\n1e17,5\n"],
                         ids=["flat-u", "one-x-node"])
def test_plot_of_a_single_large_value_draws_it(tmp_path, capsys, text):
    # widened by 1 alone, the axis span would round to 0 and divide by it
    lattice = tmp_path / "flat.csv"
    lattice.write_text(text)
    svg = tmp_path / "plot.svg"
    assert main(["plot", str(lattice), "--output", str(svg)]) == 0
    assert capsys.readouterr() == ("", "")
    points = svg.read_text().split('points="')[1].split('"')[0].split()
    assert len({pt.split(",")[1] for pt in points}) == 1
    assert all(np.isfinite(float(v)) for pt in points for v in pt.split(","))


def _smooth_lattice(axes):
    """A lattice of 41 x 3 x 5 nodes (its first ``axes`` axes) whose
    components are smooth curves, with a signed zero and a spike."""
    specs = (AxisSpec("x", -1.5, 2.5, 41), AxisSpec("t1", 0.0, 0.7, 3),
             AxisSpec("t2", -0.25, 30.0, 5))[:axes]
    nodes = np.meshgrid(*(a.values() for a in specs), indexing="ij")
    u = np.stack([np.sin(3.0 * sum(nodes)), np.cos(nodes[0]) * 1e3], -1)
    u[0, ..., 0] = -0.0
    u[7, ..., 1] = -4e5
    return SolutionGrid(specs, u)


@pytest.mark.parametrize("kind", ["smooth", "spread"])
@pytest.mark.parametrize("axes", [1, 2, 3])
@pytest.mark.parametrize("slices", [None, [], [0, 2, 1]],
                         ids=["none", "empty", "list"])
def test_svg_matches_the_point_by_point_oracle(tmp_path, kind, axes, slices):
    grid = (_smooth_lattice(axes) if kind == "smooth"
            else _lattice_of(615, axes, False))
    path, oracle = tmp_path / "plot.svg", tmp_path / "oracle.svg"
    if axes == 1 and slices:
        for writer, out in ((write_svg_plot, path),
                            (reference_write_svg_plot, oracle)):
            with pytest.raises(ConfigError, match="no time axis"):
                writer(grid, slices, str(out))
        return
    write_svg_plot(grid, slices, str(path))
    reference_write_svg_plot(grid, slices, str(oracle))
    assert path.read_bytes() == oracle.read_bytes()


# ---------------------------------------------------------------------------
# process-level entry point


def test_module_entry_point_runs(capsys):
    config = str(CONFIGS / "nijenhuis2.json")
    proc = subprocess.run([sys.executable, "-m", "nijflow", "verify", config],
                          capture_output=True, text=True, cwd=str(REPO))
    assert proc.returncode == 0
    assert main(["verify", config]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert json.loads(proc.stdout)["verdict"] == "pass"


def test_usage_error_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, line", [
    (["frobnicate"], "nijflow: error: argument command: invalid choice: "
                     "'frobnicate'"),
    (["verify", "c.json", "--bogus"],
     "nijflow: error: unrecognized arguments: --bogus"),
    (["evolve", "c.json"],
     "nijflow evolve: error: the following arguments are required: "
     "--output"),
    (["verify"], "nijflow verify: error: the following arguments are "
                 "required: config"),
    (["plot", "g.csv", "--output", "p.svg", "--slices"],
     "nijflow plot: error: argument --slices: expected one argument"),
    ([], "nijflow: error: the following arguments are required: command"),
], ids=["unknown-command", "unknown-flag", "no-output", "no-config",
        "slices-without-value", "empty"])
def test_bad_command_line_is_one_stderr_line(capsys, argv, line):
    # no usage block: the one line names the program and the fault
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(line) and err.count("\n") == 1
    assert err.endswith("\n") and "Traceback" not in err


def test_help_still_prints_usage(capsys):
    assert main(["verify", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: nijflow verify [-h]") and err == ""


@pytest.mark.parametrize("command", ["build-metric", "hierarchy"])
def test_output_flag_of_a_printing_command_exits_2(tmp_path, capsys,
                                                   command):
    # these commands only print, so --output is an unknown flag
    out = tmp_path / "out.txt"
    assert main([command, str(CONFIGS / "nijenhuis2.json"),
                 "--output", str(out)]) == 2
    assert "unrecognized arguments: --output" in capsys.readouterr().err
    assert not out.exists()


# the plot's SVG and a report's --output copy are written as the CSV is:
# whole, under a temporary name, then renamed over the old file
def _svg_and_report_argv(tmp_path, capsys):
    lattice = tmp_path / "grid.csv"
    assert main(["evolve", str(small_e2_config(tmp_path)),
                 "--output", str(lattice)]) == 0
    capsys.readouterr()
    return {"plot": lambda out: ["plot", str(lattice), "--output", out],
            "verify": lambda out: ["verify", str(CONFIGS / "nijenhuis2.json"),
                                   "--output", out]}


@pytest.mark.parametrize("command", ["plot", "verify"])
def test_svg_and_report_write_failing_leaves_the_old_file(
        tmp_path, monkeypatch, capsys, command):
    argv = _svg_and_report_argv(tmp_path, capsys)[command]
    fresh = tmp_path / "fresh"
    assert main(argv(str(fresh))) == 0
    path = tmp_path / "out" / "file"
    path.parent.mkdir()
    path.write_bytes(b"the old file\n")
    path.chmod(0o600)

    class FullDisk(io.FileIO):
        def write(self, b):
            super().write(bytes(b)[:10])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    # only the file opened on the temporary name's descriptor is full
    real_open = open
    monkeypatch.setattr(lattice_io, "open", lambda file, mode="r": (
        FullDisk(file, "w") if isinstance(file, int)
        else real_open(file, mode)), raising=False)
    capsys.readouterr()
    assert main(argv(str(path))) == 2
    assert capsys.readouterr().err == (
        f"nijflow {command}: [Errno {errno.ENOSPC}] "
        f"{os.strerror(errno.ENOSPC)}\n")
    assert path.read_bytes() == b"the old file\n"
    assert os.listdir(path.parent) == ["file"]
    monkeypatch.undo()
    assert main(argv(str(path))) == 0
    assert path.read_bytes() == fresh.read_bytes()
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


@pytest.mark.parametrize("command", ["plot", "verify"])
def test_svg_and_report_written_to_a_fifo_and_to_dev_null(tmp_path, capsys,
                                                         command):
    argv = _svg_and_report_argv(tmp_path, capsys)[command]
    fresh, fifo = tmp_path / "fresh", tmp_path / "out.fifo"
    assert main(argv(str(fresh))) == 0
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(argv(str(fifo))) == 0  # fits in the pipe's buffer
        written = os.read(reader, 1 << 20)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert written == fresh.read_bytes()
    if not Path(os.devnull).is_char_device():
        pytest.skip("no character device at os.devnull")
    assert main(argv(os.devnull)) == 0
    assert Path(os.devnull).is_char_device()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["evolve", "plot", "verify"])
def test_output_in_a_missing_directory_names_the_path(tmp_path, capsys,
                                                      command):
    # not the temporary file beside it, whose name holds the process id
    argv = _svg_and_report_argv(tmp_path, capsys)
    argv["evolve"] = lambda out: ["evolve", str(CONFIGS / "constant2.json"),
                                  "--output", out]
    out = str(tmp_path / "missing" / "out")
    assert main(argv[command](out)) == 2
    assert capsys.readouterr().err == (
        f"nijflow {command}: [Errno {errno.ENOENT}] "
        f"{os.strerror(errno.ENOENT)}: {out!r}\n")
