"""A seeded malformed-input fuzzer, run in process through ``cli.main``.

Five campaigns with fixed case counts: JSON-aware substitutions in the
shipped configs, run through the exact-layer commands; byte-level changes
to a small ``evolve`` lattice, run through ``plot`` and ``residual
--input``; those again with the lattice reader's blocks made small, so
that the changes straddle its block boundaries; token-level changes to a
valid command line of each of the eight subcommands; and, exhaustively,
every axis of every shipped config given 0 to 3 nodes, run through the
flow commands.

The oracle, for every case: the exit code is 0, 1 or 2, and exit 2 prints
exactly one stderr line, with no traceback: ``nijflow <command>: ...`` from
a command, and from the argument parser ``nijflow: error: ...`` or
``nijflow <command>: error: ...``.  An exception out of ``main`` breaks it
as the traceback would.  In the last campaign, a lattice that ``evolve``
or ``solve-direct`` writes must also read back, ``evolve``'s with the
config's axis counts.

The config substitutions leave the flow commands (``evolve``,
``solve-direct``, ``compare``, and ``residual`` without ``--input``) out.
A mutated axis can send a flow as far as ``flows.MAX_STEPS`` steps:
bounded, but seconds of work (``evolve`` on nijenhuis4 with
``grid.t[2].start`` = -1e308 takes about 6 s to its "step budget
exhausted"), thousands of times a case here.  The command-line campaign
runs them on the shipped configs with axis counts capped at 9, which no
token change can lengthen, and the last campaign on those configs too.
"""

import copy
import json
import random
from pathlib import Path

from nijflow import lattice_io
from nijflow.cli import main
from nijflow.exactpoly import MAX_NESTING

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# values a substitution puts at a JSON path: non-finite, extreme and signed
# zero numbers, integers past the float range, digit strings int() would
# take, a power past the exact layer's bound, spaces str.split and
# str.strip take (no-break, ideographic, carriage return), an expression
# nested past the parser's bound, and every other JSON type
VALUES = (float("nan"), 1e308, -1e308, -0.0, 10 ** 30, 10 ** 400, "1_0",
          "\u0663", "u1^70000", "\u00a0", "\u3000", "\r",
          "(" * (MAX_NESTING + 1) + "u1" + ")" * (MAX_NESTING + 1),
          [], {}, None, True, "")
# what an insertion puts into a lattice, and what a cell is replaced by
TOKENS = (b"nan", b"inf", b"-", b"+", b"e", b".", b",", b"\n", b"\r", b" ",
          b"\t", b"_", b"0x1p3", b"1e400", b"\x00", b"\xc3\xa9", b"\xef\xbb\xbf",
          "\u0663".encode(), "\u3000".encode())
CELLS = (b"", b"nan", b"-inf", b"1e308", b"1e999", b"-0", b"1_0",
         "\u0663".encode(), b"0x10", b" 1", b"1,2", b"abc", b"9" * 400)


def _capped(config: dict) -> dict:
    """The config with every axis count at most 9."""
    grid = config["grid"]
    for axis in [grid["x"], *grid.get("t", [])]:
        axis["count"] = min(axis["count"], 9)
    return config


def _paths(node, path=()):
    """Every JSON path in node, the root included."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _substituted(config, rng: random.Random):
    """config with a value from VALUES put at one random path, or the key
    at that path with one letter changed."""
    path = rng.choice(list(_paths(config)))
    if not path:
        return copy.deepcopy(rng.choice(VALUES))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if isinstance(key, str) and rng.random() < 0.25:
        i = rng.randrange(len(key))
        letter = rng.choice([c for c in "abcdefghijklmnopqrstuvwxyz_"
                             if c != key[i]])
        parent[key[:i] + letter + key[i + 1:]] = parent.pop(key)
    else:
        parent[key] = copy.deepcopy(rng.choice(VALUES))
    return config


def _mutated(text: bytes, rng: random.Random) -> bytes:
    """text with one byte flipped, a token inserted, up to 30 bytes
    deleted, or one data cell replaced."""
    at = rng.randrange(len(text))
    kind = rng.randrange(4)
    if kind == 0:
        return text[:at] + bytes([text[at] ^ 1 << rng.randrange(8)]) + text[at + 1:]
    if kind == 1:
        return text[:at] + rng.choice(TOKENS) + text[at:]
    if kind == 2:
        return text[:at] + text[at + rng.randint(1, 30):]
    lines = text.split(b"\n")
    row = rng.randrange(len(lines))
    cells = lines[row].split(b",")
    cells[rng.randrange(len(cells))] = rng.choice(CELLS)
    lines[row] = b",".join(cells)
    return b"\n".join(lines)


def _violation(argv, capsys, prefix=None, codes=None):
    """None if the command keeps the oracle, else what it did; exit 2's
    line starts with ``prefix``, by default ``nijflow <argv[0]>: ``.  The
    exit code is appended to the list ``codes`` when one is given."""
    try:
        code = main(argv)
    except Exception as exc:
        return f"raised {exc!r}"
    if codes is not None:
        codes.append(code)
    err = capsys.readouterr().err
    if code not in (0, 1, 2):
        return f"exit {code}"
    if prefix is None:
        prefix = f"nijflow {argv[0]}: "
    if code == 2 and not (err.count("\n") == 1 and err.endswith("\n")
                          and err.startswith(prefix)
                          and "Traceback" not in err):
        return f"exit 2 with stderr {err!r}"
    return None


def test_config_substitutions_keep_the_exit_contract(tmp_path, capsys):
    rng = random.Random(20261020)
    bases = [_capped(json.loads(path.read_text()))
             for path in sorted(CONFIGS.glob("*.json"))]
    assert len(bases) == 9
    case = tmp_path / "case.json"
    violations = []
    for k in range(500):
        config = copy.deepcopy(bases[k % len(bases)])
        for _ in range(rng.randint(1, 2)):
            config = _substituted(config, rng)
        text = json.dumps(config)
        case.write_text(text)
        argv = [rng.choice(("verify", "build-metric", "hierarchy")), str(case)]
        found = _violation(argv, capsys)
        if found:
            violations.append((argv[0], text, found))
    assert violations == []


def _small_lattice(tmp_path):
    """The nijenhuis2 config with a 7 x 5 lattice, and the bytes of the
    lattice ``evolve`` writes for it."""
    config = json.loads((CONFIGS / "nijenhuis2.json").read_text())
    config["grid"]["x"]["count"], config["grid"]["t"][0]["count"] = 7, 5
    cfg, base = tmp_path / "nijenhuis2.json", tmp_path / "base.csv"
    cfg.write_text(json.dumps(config))
    assert main(["evolve", str(cfg), "--output", str(base)]) == 0
    return cfg, base.read_bytes()


def _lattice_cases(tmp_path, capsys, seed: int, count: int):
    """count seeded changes to a 7 x 5 evolve lattice, each run through
    plot or residual --input; the cases that break the oracle."""
    cfg, text = _small_lattice(tmp_path)
    case = tmp_path / "case.csv"
    commands = (["plot", str(case), "--output", str(tmp_path / "case.svg")],
                ["residual", str(cfg), "--input", str(case)])
    rng = random.Random(seed)
    violations = []
    for _ in range(count):
        mutated = text
        for _ in range(rng.randint(1, 2)):
            mutated = _mutated(mutated, rng)
        case.write_bytes(mutated)
        argv = rng.choice(commands)
        found = _violation(argv, capsys)
        if found:
            violations.append((argv[0], mutated, found))
    return violations


def test_lattice_mutations_keep_the_exit_contract(tmp_path, capsys):
    assert _lattice_cases(tmp_path, capsys, 1020, 1000) == []


def test_lattice_mutations_across_small_read_blocks(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(lattice_io, "_READ_BLOCK", 64)
    assert _lattice_cases(tmp_path, capsys, 2041, 150) == []


def _argv_mutated(argv: list, extras: tuple, rng: random.Random) -> list:
    """argv with one token dropped, duplicated, swapped with another or
    replaced by one of extras, or one of extras inserted."""
    argv, at = list(argv), rng.randrange(len(argv))
    kind = rng.randrange(5)
    if kind == 0:
        del argv[at]
    elif kind == 1:
        argv.insert(at, argv[at])
    elif kind == 2:
        other = rng.randrange(len(argv))
        argv[at], argv[other] = argv[other], argv[at]
    elif kind == 3:
        argv[at] = rng.choice(extras)
    else:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(extras))
    return argv


def test_argv_mutations_keep_the_exit_contract(tmp_path, capsys,
                                               monkeypatch):
    # a token moved after --output, such as "0,2", names a relative path
    monkeypatch.chdir(tmp_path)
    _, text = _small_lattice(tmp_path)
    bases = [json.dumps(_capped(json.loads(path.read_text())))
             for path in sorted(CONFIGS.glob("*.json"))]
    cfg, lattice, out = (str(tmp_path / name)
                         for name in ("case.json", "case.csv", "out"))
    extras = ("--bogus", "--output", "--slices", "-h", "--", "",
              str(tmp_path), "/dev/null", str(tmp_path / "absent" / "file"),
              "--slices=1", f"--output={out}")
    valid = [["verify", cfg, "--output", f"{out}.json"],
             ["build-metric", cfg],
             ["hierarchy", cfg],
             ["evolve", cfg, "--output", f"{out}.csv"],
             ["solve-direct", cfg, "--output", f"{out}.csv"],
             ["residual", cfg, "--input", lattice],
             ["compare", cfg, "--output", f"{out}.json"],
             ["plot", lattice, "--output", f"{out}.svg", "--slices", "0,2"]]
    rng = random.Random(20261022)
    violations = []
    for k in range(300 * len(valid)):
        # a changed command line may write over an input: write both afresh
        Path(cfg).write_text(rng.choice(bases))
        Path(lattice).write_bytes(text)
        argv = valid[k % len(valid)]
        for _ in range(rng.randint(1, 2)):
            argv = _argv_mutated(argv, extras, rng)
        found = _violation(argv, capsys, prefix="nijflow")
        if found:
            violations.append((argv, found))
    assert violations == []


def _axis_cases():
    """Each shipped config with axis counts capped at 9 (a config with a
    ``pde`` block keeps its x count, so that the direct solver is reached),
    and then one axis, x or a time axis, given 0, 1, 2 or 3 nodes."""
    for path in sorted(CONFIGS.glob("*.json")):
        shipped = json.loads(path.read_text())
        base = _capped(copy.deepcopy(shipped))
        if "pde" in shipped:
            base["grid"]["x"]["count"] = shipped["grid"]["x"]["count"]
        for axis in range(1 + len(base["grid"].get("t", []))):
            for count in range(4):
                config = copy.deepcopy(base)
                grid = config["grid"]
                [grid["x"], *grid.get("t", [])][axis]["count"] = count
                yield config


def test_short_axes_through_the_flow_commands(tmp_path, capsys):
    # the exit contract, and every lattice a command writes reads back,
    # evolve's with the config's axis counts
    case, out = tmp_path / "case.json", tmp_path / "out.csv"
    violations, cases, read_back = [], 0, 0
    for config in _axis_cases():
        case.write_text(json.dumps(config))
        counts = [config["grid"]["x"]["count"],
                  *(t["count"] for t in config["grid"].get("t", []))]
        for argv in (["evolve", str(case), "--output", str(out)],
                     ["solve-direct", str(case), "--output", str(out)],
                     ["compare", str(case)], ["residual", str(case)]):
            cases, codes = cases + 1, []
            out.unlink(missing_ok=True)
            found = _violation(argv, capsys, codes=codes)
            if not found and codes == [0] and "--output" in argv:
                try:
                    grid = lattice_io.read_grid_csv(str(out))
                except Exception as exc:
                    found = f"wrote a lattice that reads back as {exc!r}"
                else:
                    read_back += 1
                    if (argv[0] == "evolve"
                            and [a.count for a in grid.axes] != counts):
                        found = f"wrote axis counts {grid.axes}"
            if found:
                violations.append((argv[0], config, found))
    assert (cases, violations) == (336, [])
    assert read_back > 0
