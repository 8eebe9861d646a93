"""Tests for the command-line front end: configs, reports, CSV, SVG."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nijflow.cli import (ConfigError, main, read_grid_csv, write_grid_csv,
                         write_svg_plot)
from nijflow.flows import AxisSpec, SolutionGrid

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


# (command, {dotted field path in nijenhuis2.json: replacement value})
BAD_NUMBERS = {
    "abs_tol-string": ("evolve", {"integrator.abs_tol": "abc"}),
    "horizon-numeric-string": ("evolve", {"integrator.horizon": "1.5"}),
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
}


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
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(cfg))
    argv = [command, str(config)]
    if command != "verify":
        argv += ["--output", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"nijflow {command}: ")
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# printed summaries


def test_build_metric_output(capsys):
    assert main(["build-metric", str(CONFIGS / "nijenhuis2.json")]) == 0
    out = capsys.readouterr().out
    assert "h_1 = u1*p2^2 + 2*p1*p2" in out
    assert "gram[2,2] = u1" in out
    assert "sigma_2 = -1/2*u1^2 + u2" in out


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


def test_csv_round_trip_is_bit_exact(tmp_path):
    axes = (AxisSpec("x", -1.0 / 3.0, 2.0 / 7.0, 4),
            AxisSpec("t1", 0.0, 0.1, 3))
    rng = np.random.default_rng(99)
    grid = SolutionGrid(axes, rng.standard_normal((4, 3, 2)),
                        rng.standard_normal((4, 3, 2)))
    path = tmp_path / "g.csv"
    write_grid_csv(grid, str(path))
    back = read_grid_csv(str(path))
    assert np.array_equal(back.u, grid.u)
    assert np.array_equal(back.p, grid.p)


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


# ---------------------------------------------------------------------------
# process-level entry point


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nijflow", "verify",
         str(CONFIGS / "nijenhuis2.json")],
        capture_output=True, text=True, cwd=str(REPO))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "pass"


def test_usage_error_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
