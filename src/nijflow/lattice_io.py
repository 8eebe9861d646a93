"""Lattice files.  CSV: the ``"%.17g"`` writer and the reader, both working
on cells a word of bytes at a time in numpy, with Python's ``"%.17g"`` and
``float`` for the rare cells the vector paths cannot decide.  SVG: polyline
plots of a lattice's components over x."""

from __future__ import annotations

import contextlib
import functools
import math
import os
import stat
from fractions import Fraction
from typing import BinaryIO, Sequence

import numpy as np

from .flows import AxisSpec, SolutionGrid
from .pde import UNIFORM_RTOL


class ConfigError(ValueError):
    """A config or lattice file is missing, malformed, or inconsistent."""


# Largest lattice a config may ask for, as the product of its axis counts,
# and most data rows a lattice file may hold: every input does bounded
# work.  About 50 times the largest benchmark lattice (201 x 101).
MAX_LATTICE_NODES = 10**6


def make_axis(name: str, start: float, stop: float, count: int) -> AxisSpec:
    try:
        return AxisSpec(name, start, stop, count)
    except ValueError as exc:
        raise ConfigError(f"axis {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# double-doubles and words of bytes


@functools.cache
def _pow10(q: int) -> tuple[float, float]:
    """10**q as a double-double: the nearest double and the nearest double
    to the rest."""
    exact = Fraction(10) ** q
    hi = float(exact)
    return hi, float(exact - Fraction(hi))


def _product(a: np.ndarray, b: np.ndarray, extra: np.ndarray):
    """a * b + extra as a double-double (s, r), |r| at most half the ulp of
    s: Dekker's exact product of a and b by Veltkamp splits, with the small
    term ``extra`` added to its rounding error."""
    split = 134217729.0 * a
    ah = split - (split - a)
    al = a - ah
    split = 134217729.0 * b
    bh = split - (split - b)
    bl = b - bh
    p = a * b
    t = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + extra
    s = p + t
    return s, t - (s - p)


_U64 = np.uint64


def _bytes_of(byte: int) -> np.uint64:
    """A word holding ``byte`` in each of its 8 bytes."""
    return _U64(byte * 0x0101010101010101)


def _low_bytes(count: np.ndarray) -> np.ndarray:
    """Masks of the low ``count`` (0..8) bytes of a word; each shift stays
    below the word width."""
    half = count.astype(_U64) * _U64(4)
    return ((_U64(1) << half) << half) - _U64(1)


# ---------------------------------------------------------------------------
# the writer


# Value cells formatted and written at a time: one buffer of cells for their
# rows is reused, so memory does not grow with the lattice.
_BLOCK_CELLS = 16384

# One CSV cell in four aligned little-endian words, zero bytes being filler:
# the sign, "0.000" prefix, leading digit and the dot after it; digits 1-8;
# the digit a dot in digits 1-8 pushed out and digits 9-16; the digit a dot
# pushed out of those, the exponent and, in the top byte, the separator.
_CELL_WORDS = 4
_COMMA = _U64(ord(",") << 56)
_ASCII_ZEROS = _U64(0x3030303030303030)
_POINT_ZEROS = _U64(0x3030302E30)               # "0.000", first byte lowest
_TEN_POWERS = 10 ** np.arange(18, dtype=np.int64)


def _scaled(a: np.ndarray, k: np.ndarray):
    """a * 10**(16 - k) as a double-double (p, r), p integer-valued: the
    error is below 1e-13 while the product is below 1e18 and every factor
    is a normal double."""
    q0 = 16 - int(k.max())
    hi, lo = np.array([_pow10(q) for q in range(q0, 17 - int(k.min()))]).T
    q = 16 - q0 - k
    return _product(a, hi.take(q), a * lo.take(q))


def _digit_bytes(n: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each n < 10**8 (uint64), one per byte with
    the first digit lowest: halves, quarters and eighths by exact
    multiply-shift division within the word."""
    high = n // _U64(10000)     # numpy's % is a far slower hardware division
    x = high | ((n - high * _U64(10000)) << _U64(32))
    y = ((x * _U64(10486)) >> _U64(20)) & _U64(0x7F0000007F)
    x = y | ((x - y * _U64(100)) << _U64(16))
    y = ((x * _U64(103)) >> _U64(10)) & _U64(0xF000F000F000F)
    return y | ((x - y * _U64(10)) << _U64(8))


def _significant(w: np.ndarray) -> np.ndarray:
    """0xFF in each byte of w that is nonzero or lies below a nonzero one:
    the digits of a word that are not trailing zeros."""
    w = w | (w >> _U64(8))
    w = w | (w >> _U64(16))
    w = w | (w >> _U64(32))
    w = (w + _U64(0x7F7F7F7F7F7F7F7F)) & _U64(0x8080808080808080)
    return (w >> _U64(7)) * _U64(0xFF)


def _with_dot(w: np.ndarray, at: np.ndarray, dot: np.ndarray):
    """Insert the byte ``dot`` at byte ``at`` (0..7; 8 leaves w as it is) of
    w: the new word and the byte pushed out at the top."""
    low = _low_bytes(at)
    high = w & ~low
    return ((w & low) | (dot << (at.astype(_U64) * _U64(8)))
            | (high << _U64(8))), high >> _U64(56)


def _format_cells(values: np.ndarray, out: np.ndarray,
                  sep: np.ndarray) -> None:
    """Write ``"%.17g" % v`` for each finite v of ``values`` into the cells
    ``out``, of shape ``values.shape + (_CELL_WORDS,)``, each ended by its
    separator word in ``sep`` (broadcast against ``values``).

    The 17 digits are |v| * 10**(16 - k), k the decimal exponent, formed
    as a double-double and rounded half to even.  Where that cannot decide
    them (a fraction within 1e-9 of one half, |v| outside [1e-250, 1e250])
    Python formats the cell instead."""
    with np.errstate(all="ignore"):
        a = np.abs(values)
        vector = (a >= 1e-250) & (a <= 1e250)
        a[~vector] = 1.0
        k = np.floor(np.log10(a)).astype(np.int64)
        p, r = _scaled(a, k)
        # log10 can be one off next to a power of ten: test the exact value
        for attempt in range(3):
            below = (p - 1e16) + r < 0
            above = (p - 1e17) + r >= 0
            off = below | above
            if attempt == 2 or not off.any():
                break
            k += above
            k -= below
            p[off], r[off] = _scaled(a[off], k[off])
        whole = np.rint(r)
        vector &= ~off & (np.abs(np.abs(r - whole) - 0.5) > 1e-9)
        d = p.astype(np.int64) + whole.astype(np.int64)
        carry = d == 10**17
        d[carry] = 10**16
        k += carry
        zero = values == 0
        d[zero] = 0
        k[zero] = 0
        lead = d // 10**16
        rest = d - lead * 10**16
        mid = rest // 10**8
        tail = _digit_bytes((rest - mid * 10**8).view(_U64))
        mid = _digit_bytes(mid.view(_U64))
        fixed = (k >= -4) & (k <= 16)
        small = fixed & (k < 0)
        # digits past the last nonzero one become filler
        mid = (mid + _ASCII_ZEROS) & _significant(
            mid | ((tail != 0) * _U64(1 << 56)))
        tail = (tail + _ASCII_ZEROS) & _significant(tail)
        end = np.zeros_like(tail)
        # with k >= 1 digits before the dot: keep them all, place the dot
        wide = fixed & (k >= 1)
        if wide.any():
            kw = k[wide]
            mid_w = mid[wide] | (_ASCII_ZEROS & _low_bytes(np.minimum(kw, 8)))
            tail_w = tail[wide] | (_ASCII_ZEROS
                                   & _low_bytes(np.clip(kw - 8, 0, 8)))
            dot = (d[wide] % _TEN_POWERS[16 - kw] != 0) * _U64(ord("."))
            mid[wide], spill = _with_dot(mid_w, np.minimum(kw, 8),
                                         dot * (kw <= 7))
            # the digit a dot in mid pushed out goes in tail's byte 0
            tail[wide], end[wide] = _with_dot(
                tail_w, np.clip(kw - 8, 0, 7), dot * (kw >= 8) | spill)
        lead_dot = (rest != 0) & ~(small | wide)
        out[..., 0] = (np.signbit(values) * _U64(ord("-"))
                       | ((_POINT_ZEROS & _low_bytes((1 - k) * small))
                          << _U64(8))
                       | ((lead.view(_U64) + _U64(ord("0"))) << _U64(48))
                       | (lead_dot * _U64(ord(".") << 56)))
        out[..., 1] = mid
        out[..., 2] = tail
        sci = ~fixed
        if sci.any():
            e = np.abs(k[sci])
            h, t, o = e // 100, e // 10 % 10, e % 10
            digits = (((h + 48) | ((t + 48) << 8) | ((o + 48) << 16))
                      >> (8 * (h == 0)))
            sign = np.where(k[sci] < 0, ord("-"), ord("+"))
            end[sci] |= ((ord("e") | (sign << 8) | (digits << 16))
                         << 8).view(_U64)
        np.bitwise_or(end, sep, out=out[..., 3])
    if not (vector | zero).all():
        slow = np.nonzero(~(vector | zero))
        texts = b"".join((b"%.17g" % v).ljust(24, b"\0")
                         for v in values[slow].tolist())
        cells = out[slow]
        cells[:, :3] = np.frombuffer(texts, _U64).reshape(-1, 3)
        cells[:, 3] &= _U64(0xFF << 56)  # the text fits 24 bytes; keep sep
        out[slow] = cells


def _refuse_non_finite(names: Sequence[str], axis_values: Sequence[np.ndarray],
                       columns: Sequence[np.ndarray]) -> None:
    """Raise ConfigError naming the first lattice node, in row order, with a
    non-finite value: ``read_grid_csv`` would refuse the file."""
    shape = [len(values) for values in axis_values]
    bad = ~np.isfinite(np.column_stack(columns)).all(axis=1).reshape(shape)
    for i, values in enumerate(axis_values):
        bad |= ~np.isfinite(values).reshape(
            [-1 if j == i else 1 for j in range(len(shape))])
    r = int(np.argmax(bad))
    node = np.unravel_index(r, shape)
    row = [values[i] for values, i in zip(axis_values, node)]
    row += [column[r] for column in columns]
    name, value = next((c, v) for c, v in zip(names, row)
                       if not math.isfinite(v))
    raise ConfigError(f"cannot write a non-finite lattice: {name} is {value} "
                      f"at node {tuple(int(i) for i in node)}")


def write_grid_csv(grid: SolutionGrid, path: str) -> None:
    """One row per lattice node, lexicographic in the lattice index; each
    cell is Python's ``"%.17g"`` of its float, which reads back bit for bit.
    Momentum columns appear only when the lattice carries momenta.  A
    lattice whose axes are not named ``x``, ``t1``..``tk``, or that has a
    non-finite value, is refused before anything is written:
    ``read_grid_csv`` would refuse the file.

    Rows are formatted a block of ``_BLOCK_CELLS`` values at a time into one
    reused buffer of fixed-width cells, and every axis value is formatted
    once, all axes in one call, into a file ``replacing`` the old one."""
    n = grid.n
    k = len(grid.axes)
    names = [a.name for a in grid.axes]
    if names != ["x"] + [f"t{i}" for i in range(1, k)]:
        raise ConfigError(f"cannot write a lattice on axes {tuple(names)}: "
                          "they must be x, t1..tk")
    names += [f"u{i + 1}" for i in range(n)]
    # value columns, read one at a time: numpy is slow over short strided rows
    columns = list(grid.u.reshape(-1, n).T)
    if grid.p is not None:
        names += [f"p{i + 1}" for i in range(n)]
        columns += list(grid.p.reshape(-1, n).T)
    with np.errstate(all="ignore"):
        axis_values = [a.values() for a in grid.axes]
    if not all(np.isfinite(a).all() for a in axis_values + columns):
        _refuse_non_finite(names, axis_values, columns)
    # whole cells are moved as opaque records, which numpy copies flat
    record = f"V{8 * _CELL_WORDS}"
    counts = [axis.count for axis in grid.axes]
    formatted = np.empty((sum(counts), _CELL_WORDS), _U64)
    _format_cells(np.concatenate(axis_values), formatted, _COMMA)
    axis_cells = np.split(formatted.view(record)[:, 0],
                          np.cumsum(counts)[:-1])
    width = len(columns)
    seps = np.array([_COMMA] * (width - 1) + [_U64(ord("\n") << 56)])
    shape = grid.u.shape[:-1]
    rows = len(columns[0])
    step = max(1, _BLOCK_CELLS // width)
    cells = np.empty((min(rows, step), len(names), _CELL_WORDS), _U64)
    values = np.empty((len(cells), width))
    with replacing(path) as f:
        f.write((",".join(names) + "\n").encode())
        for start in range(0, rows, step):
            stop = min(rows, start + step)
            chunk = cells[:stop - start]
            index = np.unravel_index(np.arange(start, stop), shape)
            for a, (formatted, i) in enumerate(zip(axis_cells, index)):
                chunk.view(record)[:, a, 0] = formatted.take(i)
            for j, column in enumerate(columns):
                values[:stop - start, j] = column[start:stop]
            _format_cells(values[:stop - start], chunk[:, k:], seps)
            f.write(chunk.tobytes().translate(None, b"\0"))


@contextlib.contextmanager
def replacing(path: str):
    """A binary file renamed over ``path``, with the old file's mode, once
    written whole, so a failed or killed write leaves the old file as it
    was.  A path that is not a regular file (``/dev/null``) is written to."""
    target = os.path.realpath(path)
    old = os.stat(target) if os.path.exists(target) else None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(target, "wb") as f:
            yield f
        return
    temp = f"{target}.{os.getpid()}.tmp"
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    except OSError as exc:  # name the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "wb") as f:
            if old is not None:
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
            yield f
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


# ---------------------------------------------------------------------------
# the reader


# Bytes read at a time, read on to a line end, and cells parsed at a time:
# the reader's scratch stays the same size however long the file is.
_READ_BLOCK = 2**18
_READ_CHUNK_CELLS = 2**13
# Byte offsets, from a cell's end, of the three words that hold its last 24
# bytes: a cell parsed in numpy has at most 24 after its sign.
_WORDS = np.arange(-24, 0, 8)[:, None]


@functools.cache
def _read_scales():
    """For f = 0..23: 10**-f as a double-double, and 10**f rounded, which
    is exact for f <= 22 (Clinger's fast path)."""
    hi, lo = np.array([_pow10(-f) for f in range(24)]).T
    return hi, lo, np.array([_pow10(f)[0] for f in range(24)])


def _parse_plain(raw: bytes, s: np.ndarray, e: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """Parse each cell raw[s:e] of the form -?digits[.digits], with at most
    24 bytes after its sign and 19 digits from its first nonzero one, into
    ``out``, and return the mask of the cells parsed; the rest, and any cell
    within 1e-6 ulp of a tie, are left to ``float``.  The bytes before the
    dot move into its place, the digits combine 8 at a time by
    multiply-shift into m < 10**19, and m / 10**f is one exact division
    when m <= 2**53 and f <= 22, else m times the double-double of 10**-f."""
    negative = np.frombuffer(raw, np.uint8)[np.minimum(s, len(raw) - 1)] == 45
    size = e - s - negative
    ok = (size >= 1) & (size <= 24) & (e >= 24)
    if not ok.any():
        return ok
    words = np.ndarray((len(raw) - 7,), "<u8", raw, 0, (1,))
    w = words[np.where(ok, e, 24) + _WORDS]
    high = _bytes_of(0x80)
    keep = _bytes_of(0xFF) << (np.clip(-_WORDS - size, 0, 8) * 8).astype(_U64)
    w &= keep
    digit = ((w | high) - _bytes_of(0x30)) & ~(w + _bytes_of(0x46)) & high
    dot = w ^ _bytes_of(ord("."))               # zero bytes are the dots
    dot = ~(((dot & ~high) + ~high) | dot) & high
    stray = (digit | dot) ^ (keep & high)
    dots = np.bitwise_count(dot)
    dots = dots[0] + dots[1] + dots[2]
    ok &= ((stray[0] | stray[1] | stray[2]) == 0) & (dots <= 1) & (size > dots)
    # the digits' values, then the bytes before the dot one byte up
    w &= (digit >> _U64(7)) * _U64(0x0F)
    dotted = dot != 0                   # a dot in this word or a later one
    dotted[1] |= dotted[2]
    dotted[0] |= dotted[1]
    before = ((dot >> _U64(7)) - _U64(1)) & (dotted * _bytes_of(0xFF))
    moved = w & before
    w ^= moved ^ (moved << _U64(8))
    w[1:] |= moved[:-1] >> _U64(56)
    w = w * _U64(10) + (w >> _U64(8))
    w = (((w & _U64(0xFF000000FF)) * _U64(100 + (1000000 << 32))
          + ((w >> _U64(16)) & _U64(0xFF000000FF)) * _U64(1 + (10000 << 32)))
         >> _U64(32))
    ok &= w[0] < 1000
    m = w[0] * _U64(10**16) + w[1] * _U64(10**8) + w[2]
    f = np.bitwise_count(before)
    f = np.minimum(23 - (f[0] + f[1] + f[2]) // 8, 23) * dotted[0]
    hi_scale, lo_scale, exact = _read_scales()
    with np.errstate(all="ignore"):
        hi = m.astype(np.float64)
        lo = (m - hi.astype(_U64)).view(np.int64).astype(np.float64)
        scale = hi_scale[f]
        v, r = _product(hi, scale, hi * lo_scale[f] + lo * scale)
        # the gap to the neighbour of v on the side of r
        gap = np.abs((v.view(np.int64) + 1 - 2 * (r < 0)).view(np.float64)
                     - v)
        fast = (m <= 2**53) & (f <= 22)
        ok &= fast | (np.abs(np.abs(r) - 0.5 * gap) > 1e-6 * gap)
        np.copyto(v, hi / exact[f], where=fast)
    np.copysign(v, 0.5 - negative, out=v)
    np.copyto(out, v, where=ok)
    return ok


def _parse_block(block: bytes, bounds: np.ndarray, data: np.ndarray,
                 r0: int, fault: tuple) -> tuple:
    """Parse cell a of row r, ``block[bounds[r, a] + 1:bounds[r, a + 1]]``,
    into ``data`` a chunk at a time; return ``fault`` or, if graver, the
    first bad cell in column order (rows counted from ``r0``)."""
    width = data.shape[1]
    step = max(1, _READ_CHUNK_CELLS // width)
    for c0 in range(0, len(data), step):
        s = (bounds[c0:c0 + step, :-1] + 1).ravel()
        e = bounds[c0:c0 + step, 1:].ravel()
        values = data[c0:c0 + step].reshape(-1)
        slow = np.flatnonzero(~_parse_plain(block, s, e, values))
        text = block[s[0]:e[-1]].decode() if len(slow) else ""
        for i, a, b in zip(slow.tolist(), (s[slow] - s[0]).tolist(),
                           (e[slow] - s[0]).tolist()):
            try:
                values[i] = float(text[a:b])
            except ValueError as exc:
                fault = min(fault, (7, (i % width, r0 + c0 + i // width),
                                    f"bad number in lattice file: {exc}", exc))
    return fault


def _blocks(f: BinaryIO):
    """The file in blocks of ``_READ_BLOCK`` bytes, each read on to its line
    end, then an empty block."""
    while chunk := f.read(_READ_BLOCK):
        chunk += f.readline()   # the bytes first read are let go
        yield chunk
    yield b""


def _refuse_characters(f: BinaryIO) -> None:
    """Name the first ``_`` or non-ASCII character and its line, reading the
    file whole again: a byte anywhere that is not UTF-8 is named instead."""
    f.seek(0)
    text = f.read().decode()
    k, ch = next((k, ch) for k, line in enumerate(text.split("\n"), start=1)
                 for ch in line if ch == "_" or not ch.isascii())
    raise ConfigError(f"unexpected character {ch!r} on line {k} of the "
                      "lattice file")


def read_grid_csv(path: str) -> SolutionGrid:
    """Rebuild a lattice written by ``write_grid_csv``.

    The header must be the writer's: ``x``, ``t1``..``tk``, ``u1``..``un``,
    then ``p1``..``pn`` or nothing.  Blank lines are skipped; every other
    row, at most ``MAX_LATTICE_NODES``, has the header's width of finite
    numbers.  ``_``, non-ASCII and a lone ``\\r`` are refused (``float``
    reads ``1_0`` as 10.0 and ``１`` as 1.0).  Only each block's parsed
    values are kept.  The gravest fault is raised once none graver can
    follow: characters, a lone ``\\r``, the header, a row's width, the row
    count, a bad number (first by column), a non-finite one, then the axes.
    """
    blocks = []     # the parsed rows of each block
    fault = (9,)    # (rank, place, message, cause) of the gravest fault
    rows, line, names = 0, 1, None      # line: the block's first line
    try:
        with open(path, "rb") as f:
            for block in _blocks(f):
                if not block.isascii() or b"_" in block:
                    _refuse_characters(f)
                if fault[0] <= 2:
                    continue
                if b"\r" in block:
                    block = block.replace(b"\r\n", b"\n")
                    if b"\r" in block:
                        at = line + block.count(b"\n", 0, block.index(b"\r"))
                        fault = (2, 0, f"unexpected character '\\r' on line "
                                 f"{at} of the lattice file", None)
                        continue
                start = 0
                if names is None:
                    start = block.find(b"\n") + 1 or len(block)
                    header = block[:start].decode().strip()
                    names, line = header.split(","), line + 1
                    k = 1 + sum(c.startswith("t") for c in names)
                    n = sum(c.startswith("u") for c in names)
                    columns = ["x"] + [f"t{i}" for i in range(1, k)] + [
                        f"{c}{i}" for c in "up" for i in range(1, n + 1)]
                    width = len(names)
                    if not n or names not in (columns[:k + n], columns):
                        fault = (3, 0, "unrecognized lattice header "
                                 f"{header!r}", None)
                body = np.frombuffer(block, np.uint8)[start:]
                ends = np.flatnonzero(body == ord("\n")) + start
                top, line = line, line + len(ends)
                if fault[0] <= 4:
                    continue
                seps = np.flatnonzero(body == ord(",")) + start
                if not block.endswith(b"\n"):
                    ends = np.append(ends, len(block))
                starts = np.append(start, ends[:-1] + 1)
                seps_before = np.searchsorted(seps, ends)
                counts = np.diff(seps_before, prepend=0)
                # a line without the header's width of cells must be blank
                for i in np.flatnonzero((counts != width - 1)
                                        & (ends > starts)).tolist():
                    if block[starts[i]:ends[i]].decode().strip():
                        fault = (4, 0, "lattice rows do not match the header: "
                                 f"line {top + i} has {counts[i] + 1} cells, "
                                 f"the header has {width}", None)
                        break
                lines = np.flatnonzero(counts == width - 1)
                r0, rows = rows, rows + len(lines)
                if fault[0] <= 4 or rows > MAX_LATTICE_NODES or not len(lines):
                    continue
                bounds = np.column_stack([
                    starts[lines] - 1,
                    seps[seps_before[lines, None] + np.arange(1 - width, 0)],
                    ends[lines]])
                data = np.empty((len(lines), width))
                fault = _parse_block(block, bounds, data, r0, fault)
                finite = np.isfinite(data)
                if fault[0] == 9 and not finite.all():
                    r, a = divmod(int(np.argmin(finite)), width)
                    text = block[bounds[r, a] + 1:bounds[r, a + 1]].decode()
                    fault = (8, 0, f"non-finite number {text.strip()!r} on "
                             f"line {top + lines[r]} of the lattice file",
                             None)
                blocks.append(data)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read lattice {path!r}: {exc}") from exc
    if fault[0] > 4 and not rows:
        raise ConfigError("lattice rows do not match the header")
    if fault[0] > 4 and rows > MAX_LATTICE_NODES:
        raise ConfigError(f"the lattice file has {rows} rows, more than the "
                          f"limit of {MAX_LATTICE_NODES}")
    if fault[0] < 9:
        raise ConfigError(fault[2]) from fault[3]
    data = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    del blocks
    axis_values = []
    for column in data[:, :k].T:
        # distinct values in order of first appearance
        first = np.unique(column, return_index=True)[1]
        axis_values.append(column[np.sort(first)].tolist())
    shape = tuple(len(vals) for vals in axis_values)
    if int(np.prod(shape)) != rows:
        raise ConfigError("lattice rows do not fill a full rectangle")
    axes = tuple(make_axis(name, vals[0], vals[-1], len(vals))
                 for name, vals in zip(names, axis_values))
    for axis, vals in zip(axes, axis_values):
        if (np.abs(axis.values() - vals).max()
                > UNIFORM_RTOL * max(1.0, abs(axis.delta))):
            raise ConfigError(f"lattice axis {axis.name!r} is not uniform")
    # each axis column must be its values at the lattice index, one at a time
    for a, vals in enumerate(axis_values):
        at = np.reshape(vals, [-1 if j == a else 1 for j in range(k)])
        if not (data[:, a].reshape(shape) == at).all():
            raise ConfigError("lattice rows are not in lexicographic order")
    u = data[:, k:k + n].reshape(shape + (n,))
    p = data[:, k + n:].reshape(shape + (n,)) if width > k + n else None
    return SolutionGrid(axes, u, p, {"generator": "csv", "path": path})


# ---------------------------------------------------------------------------
# SVG plots


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def _svg_line(x1, y1, x2, y2, color="#000000", width=1):
    return (f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
            f'y2="{y2:.2f}" stroke="{color}" stroke-width="{width}"/>')


def _svg_text(x, y, text, anchor="middle", size=12):
    return (f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}">{text}</text>')


def _span(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] to scale a plot axis by; a span under 1e-12 is widened on
    each side by 1, or by a millionth of ``lo`` where that is more, so the
    widening is never lost to rounding."""
    if hi - lo < 1e-12:
        half = max(1.0, 1e-6 * abs(lo))
        return lo - half, hi + half
    return lo, hi


def write_svg_plot(grid: SolutionGrid, slices: Sequence[int] | None,
                   path: str) -> None:
    """Polylines of every component over x at the requested time slices.

    ``slices`` indexes the first time axis; None selects up to six evenly
    spaced slices; an empty list draws the axes only.  A lattice with no
    time axis is drawn as a single set of lines and takes no slice index.
    """
    width, height = 720, 480
    left, right, top, bottom = 64.0, 700.0, 24.0, 440.0
    xs = grid.axes[0].values()
    if len(grid.axes) == 1:
        if slices:
            raise ConfigError("the lattice has no time axis to slice")
        chosen: list[int | None] = [None] if slices is None else []
    else:
        nt = grid.axes[1].count
        if slices is None:
            count = min(6, nt)
            chosen = sorted({round(i * (nt - 1) / max(1, count - 1))
                             for i in range(count)})
        else:
            chosen = list(slices)
            for s in chosen:
                if not isinstance(s, int) or not 0 <= s < nt:
                    raise ConfigError(f"slice index {s} out of range "
                                      f"(time axis has {nt} nodes)")

    curves = []  # (label, color, y array over xs)
    for rank, s in enumerate(chosen):
        for c in range(grid.n):
            if s is None:
                ys = grid.u[(slice(None),) + (0,) * (grid.u.ndim - 2) + (c,)]
                label = f"u{c + 1}"
            else:
                ys = grid.u[(slice(None), s) + (0,) * (grid.u.ndim - 3) + (c,)]
                t_val = grid.axes[1].values()[s]
                label = f"u{c + 1} @ {grid.axes[1].name}={t_val:.4g}"
            color = _PALETTE[(rank * grid.n + c) % len(_PALETTE)]
            curves.append((label, color, ys))

    if curves:
        lo = min(float(np.min(ys)) for _, _, ys in curves)
        hi = max(float(np.max(ys)) for _, _, ys in curves)
    else:
        lo, hi = -1.0, 1.0
    lo, hi = _span(lo, hi)
    pad = 0.05 * (hi - lo)
    if not math.isfinite((hi + pad) - (lo - pad)):
        raise ConfigError(f"the plotted values span {lo:.6g} to {hi:.6g}, "
                          "too wide to scale in floating point")
    lo, hi = lo - pad, hi + pad
    x_lo, x_hi = _span(float(xs[0]), float(xs[-1]))

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * (right - left)

    def sy(v):
        return bottom - (v - lo) / (hi - lo) * (bottom - top)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
             _svg_line(left, bottom, right, bottom),
             _svg_line(left, bottom, left, top)]
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = lo + frac * (hi - lo)
        parts.append(_svg_text(sx(xv), bottom + 18, f"{xv:.4g}"))
        parts.append(_svg_text(left - 8, sy(yv) + 4, f"{yv:.4g}",
                               anchor="end"))
    parts.append(_svg_text((left + right) / 2, height - 6,
                           grid.axes[0].name))
    # sx and sy over whole arrays: the same operations, the same bits
    px = [f"{v:.2f}," for v in sx(xs).tolist()]
    for label, color, cy in curves:
        pts = " ".join(x + f"{y:.2f}" for x, y in zip(px, sy(cy).tolist()))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
    for i, (label, color, _) in enumerate(curves):
        y = top + 14 + 16 * i
        parts.append(_svg_line(right - 150, y - 4, right - 130, y - 4,
                               color, 2))
        parts.append(_svg_text(right - 124, y, label, anchor="start",
                               size=11))
    parts.append("</svg>")
    with replacing(path) as f:
        f.write(("\n".join(parts) + "\n").encode())
