"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is stored once, as integer numerators over one common
denominator: a map from packed exponent keys to nonzero ``int`` numerators,
and a positive ``int`` denominator, the lcm of the reduced coefficients'
denominators, so that no prime divides it and all the numerators.  A key is
one ``int`` with variable i's exponent, at most ``MAX_EXPONENT`` = 2^31 - 1,
in bits [32i, 32i + 32), so a product's key is the sum of its factors'; only
``terms``, ``exponents``, ``float_form``, the printer, ``evaluate_exact``
and ``total_degree`` unpack keys (``split_suffixes`` only their distinct
suffix parts).  The zero polynomial is the empty map over 1, so every value
has exactly one representation and equality is plain comparison of the
two.  Terms are ordered by graded lexicographic order
(total degree first, then lexicographic on the exponent tuple), descending;
printing and iteration both follow that order, which makes the printed form
canonical.
Every internal path works on that store: sums, products, scalar multiples,
derivatives, ``constant``/``zero``, the printer and the size bound of
``__pow__`` and the parser.  ``Fraction`` appears only at the edges: the
constructor's coefficients, the parser's rational literals, and what
``terms``, ``coefficient``, ``constant_value``, ``max_abs_coefficient`` and
``evaluate_exact`` return.  No command-line path goes through the
constructor or ``terms``.  ``zero`` and ``constant`` return one shared 0
and 1 per variable count, formed once, so every 0 and 1 elsewhere, an
operator's entries given as numbers included, is one of them.

``parse_expression`` is itself a recursive-descent parser, its rules nested
functions over ``(kind, text, position)`` token tuples, for the grammar

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := rational | variable | '(' expr ')' | '-' base

where ``rational`` is an unsigned integer literal optionally followed by
``'/'`` and a positive integer, and ``variable`` is an identifier drawn from
the caller-supplied name list.  There is no general division operator; the
grammar admits exactly polynomial expressions with rational coefficients.
Expressions are ASCII: digits are 0-9, names are letters, digits and ``_``,
and any other character is refused.  The parser builds the polynomial as it
reads, with no syntax tree; parentheses and unary minus nest at most
``MAX_NESTING`` deep, a ``uint`` exponent above ``MAX_EXPONENT`` or a literal
integer of more than ``MAX_LITERAL_DIGITS`` digits is refused, and a power
or a written-out product whose result could exceed ``MAX_POWER_BITS`` is
refused before it is formed.

Every product and every sum of polynomials is formed by one kernel,
``signed_sum``, which sums the products of numerators over one common
denominator, skips parts with a zero factor and takes one loop for a part
with a one-term factor; ``+`` and ``-`` pass it each side times the shared
constant 1.  It, ``suffixed_sum``, ``partial`` and a scalar multiple return
the shared 0 for an empty result.  ``suffixed_sum`` lifts polynomials onto
appended variables, each times a monomial there, and sums them;
``split_suffixes`` splits a polynomial back by the monomials in its last
variables.  Float evaluation goes through one interpreter,
``evaluate_float_form``, at a point of floats or over the columns of a
stack of points.  The one exception is ``compile_float_forms``, which turns
the forms of a Hamiltonian field, evaluated at many points of floats, into
one straight-line function, bit-identical to the interpreter there.
"""

from __future__ import annotations

import functools
import math
import re
import string
import struct
from fractions import Fraction
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

Exponents = tuple[int, ...]
RationalLike = Union[int, Fraction]
FloatForm = tuple[tuple[float, tuple[tuple[int, int], ...]], ...]

# Deepest nesting of parentheses and unary minus the parser accepts; each
# level costs a few frames of Python's recursion limit.
MAX_NESTING = 100
# Largest size, in coefficient bits summed over the terms, that a power, or
# a product written out in an expression, may reach; ``__pow__`` and the
# parser refuse larger ones before forming them.  Powers at this bound took
# at most 0.35 s (Python 3.11, 2-vCPU x86-64).
MAX_POWER_BITS = 1 << 16
# Largest exponent of a variable: a key's 32-bit fields then add without carry.
MAX_EXPONENT = (1 << 31) - 1
# Most digits, leading zeros aside, of a literal's integers: int()'s default.
MAX_LITERAL_DIGITS = 4300


class PolynomialError(ValueError):
    """Raised for structurally invalid polynomial operations."""


class ParseError(PolynomialError):
    """Raised when an expression string is rejected; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Sort key realizing graded lexicographic order on exponent tuples."""
    return (sum(exponents), exponents)


def _ratio(value: RationalLike) -> tuple[int, int]:
    """The reduced numerator and the positive denominator of an exact
    rational (an ``int`` is over 1)."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise PolynomialError(f"not an exact rational coefficient: {value!r}")


def _check_nvars(nvars: int) -> None:
    if nvars < 0:
        raise PolynomialError("variable count must be non-negative")


@functools.cache
def _layout(nvars: int) -> tuple[struct.Struct, int]:
    """The struct of ``nvars`` exponents, and the mask of each field's top bit."""
    return (struct.Struct(f"<{nvars}I"),
            sum(1 << (32 * i + 31) for i in range(nvars)))


def _key(exps: Sequence[int], nvars: int) -> int:
    """The packed key of a tuple of ``nvars`` exponents."""
    layout, top_bits = _layout(nvars)
    try:
        key = int.from_bytes(layout.pack(*exps), "little")
    except struct.error:  # a wrong length, a negative or a non-integer
        key = -1
    if key < 0 or key & top_bits:
        raise PolynomialError(f"exponent tuple {exps} is not {nvars} "
                              f"integers from 0 to {MAX_EXPONENT}")
    return key


def _unpack(keys: Iterable[int], nvars: int) -> list[Exponents]:
    layout = _layout(nvars)[0]
    unpack, size = layout.unpack, layout.size
    return [unpack(key.to_bytes(size, "little")) for key in keys]


class ExactPolynomial:
    """Immutable multivariate polynomial with rational coefficients.

    Instances are created from a variable count and any iterable or mapping
    of ``(exponent_tuple, coefficient)`` pairs; duplicate exponent tuples are
    combined and zero coefficients dropped, so the stored form is canonical.
    Immutability is a contract that the shared 0 and 1, the hash and both
    caches rely on; ``tests/test_imports.py`` checks it statically.
    """

    __slots__ = ("nvars", "_nums", "_den", "_float_form", "_partials")

    def __init__(
        self,
        nvars: int,
        terms: Union[Mapping[Exponents, RationalLike],
                     Iterable[tuple[Exponents, RationalLike]]] = (),
    ):
        _check_nvars(nvars)
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[int, Fraction] = {}
        for exps, coeff in items:
            key = _key(exps, nvars)
            data[key] = data.get(key, 0) + Fraction(*_ratio(coeff))
        data = {key: c for key, c in data.items() if c}
        den = math.lcm(*(c.denominator for c in data.values()))
        self._store(nvars, {e: c.numerator * (den // c.denominator)
                            for e, c in data.items()}, den)

    def _store(self, nvars: int, nums: dict[int, int], den: int) -> None:
        self.nvars, self._nums, self._den = nvars, nums, den
        self._float_form = self._partials = None

    @classmethod
    def _raw(cls, nvars: int, nums: dict[int, int],
             den: int) -> "ExactPolynomial":
        """The polynomial of nonzero numerators ``nums`` over ``den > 0``,
        reduced by their common factor to the canonical store."""
        g = math.gcd(den, *nums.values()) if den != 1 else 1
        if g != 1:
            nums = {e: c // g for e, c in nums.items()}
            den //= g
        obj = cls.__new__(cls)
        obj._store(nvars, nums, den)
        return obj

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "ExactPolynomial":
        return cls.constant(nvars, 0)

    @classmethod
    def constant(cls, nvars: int, value: RationalLike) -> "ExactPolynomial":
        """The constant ``value``; 0 and 1 are each one object per variable
        count, formed once per process."""
        _check_nvars(nvars)
        num, den = _ratio(value)
        if den == 1 and num in (0, 1):
            return _shared_constant(nvars, num)
        return cls._raw(nvars, {0: num} if num else {}, den)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "ExactPolynomial":
        """The monomial for variable ``index`` (0-based)."""
        if not 0 <= index < nvars:
            raise PolynomialError(f"variable index {index} out of range for {nvars} variables")
        return cls._raw(nvars, {1 << (32 * index): 1}, 1)

    # -- inspection -------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Yield (exponents, coefficient) pairs in descending graded-lex order."""
        for exps, num in self._grlex_terms():
            yield exps, Fraction(num, self._den)

    def _grlex_terms(self) -> list[tuple[Exponents, int]]:
        """(exponents, numerator) pairs in descending graded-lex order."""
        return sorted(zip(self.exponents(), self._nums.values()),
                      key=lambda term: grlex_key(term[0]), reverse=True)

    def exponents(self) -> list[Exponents]:
        """The exponent tuples of the terms, in no particular order."""
        return _unpack(self._nums, self.nvars)

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return Fraction(self._nums.get(_key(exponents, self.nvars), 0), self._den)

    def max_abs_coefficient(self) -> Fraction:
        """The largest |coefficient|; 0 for the zero polynomial."""
        return Fraction(max(map(abs, self._nums.values()), default=0),
                        self._den)

    def is_zero(self) -> bool:
        return not self._nums

    def total_degree(self) -> int:
        """Degree of the polynomial; the zero polynomial reports -1."""
        return max(map(sum, self.exponents()), default=-1)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; error if any variable occurs."""
        if self.total_degree() > 0:
            raise PolynomialError("polynomial is not constant")
        return self.coefficient((0,) * self.nvars)

    def __len__(self) -> int:
        return len(self._nums)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self) -> int:
        return hash((self.nvars, self._den, frozenset(self._nums.items())))

    # -- ring operations --------------------------------------------------

    def _combined(self, other, sign: int) -> "ExactPolynomial":
        if isinstance(other, (int, Fraction)):
            other = ExactPolynomial.constant(self.nvars, other)
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        one = _shared_constant(self.nvars, 1)
        return signed_sum(self.nvars, [(1, self, one), (sign, other, one)])

    def __add__(self, other) -> "ExactPolynomial":
        return self._combined(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "ExactPolynomial":
        if not self._nums:
            return _shared_constant(self.nvars, 0)
        return self._raw(self.nvars, {e: -c for e, c in self._nums.items()},
                         self._den)

    def __sub__(self, other) -> "ExactPolynomial":
        return self._combined(other, -1)

    def __rsub__(self, other) -> "ExactPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "ExactPolynomial":
        if isinstance(other, (int, Fraction)):
            # a scalar scales the numerators and the denominator
            num, den = other.numerator, other.denominator
            nums = {e: c * num for e, c in self._nums.items()} if num else {}
            return (self._raw(self.nvars, nums, self._den * den) if nums
                    else _shared_constant(self.nvars, 0))
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return signed_sum(self.nvars, [(1, self, other)])

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ExactPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise PolynomialError("polynomial powers must be non-negative integers")
        one = _shared_constant(self.nvars, 1)
        if exponent > 1 and self._product_bits(one, exponent) > MAX_POWER_BITS:
            raise PolynomialError(
                f"power {exponent} of a {len(self)}-term polynomial is too "
                "large to form")
        result = one
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def _product_bits(self, other: "ExactPolynomial", e: int = 1) -> int:
        """About the most bits ``self ** e * other`` could take: a bound on
        its terms (the monomials of degree e in the t terms of ``self``
        times the terms of ``other``, or those of its degree in its
        variables) times the bits of one coefficient, 1 plus those of the
        largest coefficient and of the term count of each factor.  Unit
        coefficients count no bits, so a power of a monomial has size 1."""
        t, u = len(self._nums), len(other._nums)
        if not t or not u:
            return 0
        terms = min(math.comb(t - 1 + e, t - 1) * u,
                    math.comb(self.nvars + e * self.total_degree()
                              + other.total_degree(), self.nvars))
        return terms * (1 + e * (self._coefficient_bits() + (t - 1).bit_length())
                        + other._coefficient_bits() + (u - 1).bit_length())

    def _coefficient_bits(self) -> int:
        # of the reduced coefficients, whose size the other terms do not move
        den = self._den
        bits = 0
        for c in self._nums.values():
            g = math.gcd(c, den)
            bits = max(bits, (abs(c) // g).bit_length() + (den // g).bit_length())
        return bits - 2

    # -- calculus ---------------------------------------------------------

    def partial(self, index: int) -> "ExactPolynomial":
        """Partial derivative by variable ``index`` (0-based), built once and
        cached: immutability is a contract, checked statically."""
        if not 0 <= index < self.nvars:
            raise PolynomialError(f"variable index {index} out of range")
        cache = self._partials
        if cache is None:
            cache = self._partials = {}
        elif index in cache:
            return cache[index]
        # lowering one exponent is one-to-one, so no two terms meet
        shift = 32 * index
        one = 1 << shift
        nums = {key - one: c * e for key, c in self._nums.items()
                if (e := key >> shift & MAX_EXPONENT)}
        cache[index] = (self._raw(self.nvars, nums, self._den) if nums
                        else _shared_constant(self.nvars, 0))
        return cache[index]

    # -- variable embedding ----------------------------------------------

    def with_appended_vars(self, extra: int) -> "ExactPolynomial":
        """The same polynomial in ``nvars + extra`` variables (0, 1 shared)."""
        if extra < 0:
            raise PolynomialError("cannot append a negative number of variables")
        if self._den == 1 and self._nums in ({}, {0: 1}):
            return _shared_constant(self.nvars + extra, len(self._nums))
        return self._raw(self.nvars + extra, dict(self._nums), self._den)

    # -- evaluation -------------------------------------------------------

    def float_form(self) -> FloatForm:
        """The cached float form: one ``(coefficient, ((var, exp), ...))``
        pair per term in ``terms()`` order, zero exponents left out.  Every
        float evaluation of a polynomial reads this form.  Int division
        rounds ``num / den`` correctly, as ``float(Fraction)`` does."""
        form = self._float_form
        if form is None:
            den = self._den
            form = tuple((num / den,
                          tuple((i, e) for i, e in enumerate(exps) if e))
                         for exps, num in self._grlex_terms())
            self._float_form = form
        return form

    def evaluate(self, point: Sequence[float]) -> float:
        """Evaluate at a float point through the cached float form."""
        if len(point) != self.nvars:
            raise PolynomialError(
                f"point has {len(point)} coordinates, expected {self.nvars}")
        return evaluate_float_form(self.float_form(), point)

    def evaluate_exact(self, point: Sequence[RationalLike]) -> Fraction:
        """Evaluate at a rational point with exact arithmetic."""
        if len(point) != self.nvars:
            raise PolynomialError(
                f"point has {len(point)} coordinates, expected {self.nvars}")
        coords = [Fraction(*_ratio(x)) for x in point]
        total = Fraction(0)
        for exps, c in zip(self.exponents(), self._nums.values()):
            v = c
            for x, e in zip(coords, exps):
                if e:
                    v *= x ** e
            total += v
        return total / self._den

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self, default_names(self.nvars))

    def __repr__(self) -> str:
        return f"ExactPolynomial({self.nvars}, {self!s})"


@functools.cache
def _shared_constant(nvars: int, num: int) -> ExactPolynomial:
    """The constant ``num``, 0 or 1, in ``nvars`` variables, formed once per
    process; 1 is the second factor of each part of a plain sum."""
    return ExactPolynomial._raw(nvars, {0: num} if num else {}, 1)


def signed_sum(nvars: int,
               parts: Iterable[tuple[int, ExactPolynomial, ExactPolynomial]]
               ) -> ExactPolynomial:
    """The sum of ``sign * a * b`` over ``parts`` (sign +1 or -1): every
    product and every sum of polynomials is formed here.  Over D, the lcm of the parts'
    ``den_a * den_b``, each term product adds
    ``sign * D // (den_a * den_b) * num_a * num_b`` at the sum of the terms'
    keys, straight into one map of numerators, so neither the products nor
    partial sums are built as polynomials of their own.  Parts with a zero
    factor are dropped first; an exponent above ``MAX_EXPONENT`` raises."""
    kept = []
    for part in parts:
        _, a, b = part
        if a.nvars != nvars or b.nvars != nvars:
            raise PolynomialError(f"variable counts differ: {nvars} vs "
                                  f"{(b if a.nvars == nvars else a).nvars}")
        if a._nums and b._nums:
            kept.append(part)
    dens = [a._den * b._den for _, a, b in kept]
    den = dens[0] if len(dens) == 1 else math.lcm(*dens)
    data: dict[int, int] = {}
    get = data.get
    moved = False  # whether a part added two nonzero keys
    for (sign, a, b), part_den in zip(kept, dens):
        scale = sign * (den // part_den)
        if len(b._nums) == 1:  # one loop, over a's terms in order
            ((eb, nb),) = b._nums.items()
            nb *= scale
            if eb:
                moved = True
                for ea, na in a._nums.items():
                    key = ea + eb
                    data[key] = get(key, 0) + na * nb
            else:  # a constant: a's keys as they are
                for ea, na in a._nums.items():
                    data[ea] = get(ea, 0) + na * nb
            continue
        moved = True
        b_terms = b._nums.items()
        for ea, na in a._nums.items():
            na *= scale
            for eb, nb in b_terms:
                key = ea + eb
                data[key] = get(key, 0) + na * nb
    nums = {key: c for key, c in data.items() if c}
    if moved and functools.reduce(or_, nums, 0) & _layout(nvars)[1]:
        raise PolynomialError(f"a product has an exponent above {MAX_EXPONENT}")
    return (ExactPolynomial._raw(nvars, nums, den) if nums
            else _shared_constant(nvars, 0))


def suffixed_sum(nvars: int,
                 parts: Iterable[tuple[ExactPolynomial, Exponents]]
                 ) -> ExactPolynomial:
    """The sum of ``poly * y^suffix`` over ``parts``: each polynomial's
    variables followed by those of the monomial ``y^suffix``, ``nvars`` in
    all.  Over the lcm of the parts' denominators each term adds its scaled
    numerator to one term of the sum; ``split_suffixes`` inverts it."""
    parts = list(parts)
    for poly, suffix in parts:
        if poly.nvars + len(suffix) != nvars:
            raise PolynomialError(
                f"variable counts differ: {nvars} vs {poly.nvars} + "
                f"{len(suffix)}")
    parts = [(poly, _key(suffix, len(suffix)) << 32 * poly.nvars)
             for poly, suffix in parts if poly._nums]
    den = math.lcm(*(poly._den for poly, _ in parts))
    data: dict[int, int] = {}
    get = data.get
    for poly, lift in parts:
        scale = den // poly._den
        for key, c in poly._nums.items():
            key += lift
            data[key] = get(key, 0) + c * scale
    nums = {key: c for key, c in data.items() if c}
    return (ExactPolynomial._raw(nvars, nums, den) if nums
            else _shared_constant(nvars, 0))


def split_suffixes(poly: ExactPolynomial,
                   extra: int) -> dict[Exponents, ExactPolynomial]:
    """``poly`` as a sum of polynomials in its first ``nvars - extra``
    variables times monomials in its last ``extra``: a map from each such
    monomial's exponents to its nonzero coefficient polynomial."""
    m = poly.nvars - extra
    shift = 32 * m
    low = (1 << shift) - 1
    groups: dict[int, dict[int, int]] = {}
    for key, c in poly._nums.items():
        groups.setdefault(key >> shift, {})[key & low] = c
    return {suffix: ExactPolynomial._raw(m, nums, poly._den)
            for suffix, nums in zip(_unpack(groups, extra), groups.values())}


def evaluate_float_form(form: FloatForm, point: Sequence) -> float | np.ndarray:
    """Sum the terms of a float form, left to right, at a point given as
    one float per variable, or at every point of a stack given as one array
    per variable (its columns; a form without variables then gives a float).
    Both take the same operations in the same order, with powers e >= 3
    through Python's float power (``_float_power`` on a column), so a
    stack's values are bit-identical to its points' alone.  Where a power
    overflows, a point of floats raises ``OverflowError``; a stack gives inf.
    """
    total = 0.0
    for coeff, powers in form:
        v = coeff
        for i, e in powers:
            x = point[i]
            if e == 1:
                v *= x
            elif e == 2:
                v *= x * x
            elif isinstance(x, np.ndarray):
                v *= _float_power(x, e)
            else:
                v *= x ** e
        total += v
    return total


def compile_float_forms(forms: Sequence[FloatForm], nvars: int):
    """One straight-line function of a point of ``nvars`` floats that
    returns the list of the forms' values, each bit-identical to
    ``evaluate_float_form`` there: the same products in the same order, one
    statement ``r += c * x1 * (x2 * x2) * x3 ** e`` per term.  A statement
    per term keeps the source flat however long a form is; the coefficients
    are names bound in the function's globals, never printed."""
    names: dict[str, object] = {}
    xs = "".join(f"x{i}, " for i in range(nvars))
    lines = [f"def compiled(point):\n    {xs}= point"]
    for j, form in enumerate(forms):
        lines.append(f"r{j} = 0.0")
        for coeff, powers in form:
            factors = [f"c{len(names)}"]
            names[factors[0]] = coeff
            factors += [f"x{i}" if e == 1 else f"(x{i} * x{i})" if e == 2
                        else f"x{i} ** {e}" for i, e in powers]
            lines.append(f"r{j} += {' * '.join(factors)}")
    lines.append(f"return [{', '.join(f'r{j}' for j in range(len(forms)))}]")
    exec("\n    ".join(lines), names)
    return names["compiled"]


def evaluate_table_array(table, points) -> np.ndarray:
    """Each polynomial of a nested sequence at a point, or at every point
    of a stack (..., nvars), written into one C-contiguous array, so a
    stacked matmul sees each matrix as alone: the points' leading axes
    first, the table's last.  A single point is evaluated on plain floats,
    so an overflowing power raises ``OverflowError`` as in
    ``ExactPolynomial.evaluate``; a stack gives inf there.  A polynomial
    object met again is not evaluated again: its values are copied."""
    points = np.asarray(points, dtype=float)
    polys, shape = [table], ()
    while polys and not isinstance(polys[0], ExactPolynomial):
        shape += (len(polys[0]),)
        polys = [entry for row in polys for entry in row]
    coords = (points.tolist() if points.ndim == 1 else
              [points[..., i] for i in range(points.shape[-1])])
    out = np.zeros(points.shape[:-1] + (len(polys),))
    first: dict[int, int] = {}  # id of each polynomial -> its first column
    for k, poly in enumerate(polys):
        if poly.nvars != points.shape[-1]:
            raise PolynomialError(f"point has {points.shape[-1]} "
                                  f"coordinates, expected {poly.nvars}")
        if poly:  # a zero entry stays +0.0, as its empty float form gives
            j = first.setdefault(id(poly), k)
            out[..., k] = (out[..., j] if j < k else
                           evaluate_float_form(poly.float_form(), coords))
    return out.reshape(points.shape[:-1] + shape)


def _float_power(x: np.ndarray, e: int) -> np.ndarray:
    """``x ** e`` element by element through Python's float power (the C
    library ``pow``).  numpy's vectorized power is not bit-identical to it
    on every host (it differs in the last bit for a few percent of inputs
    where SIMD builds of ``pow`` are used)."""
    def power(v: float) -> float:
        try:
            return v ** e
        except OverflowError:
            return math.copysign(math.inf, v) if e % 2 else math.inf

    return np.array([power(v) for v in x.ravel().tolist()]).reshape(x.shape)


# -- canonical printing ---------------------------------------------------


def default_names(nvars: int) -> list[str]:
    return [f"x{i + 1}" for i in range(nvars)]


def phase_names(n: int) -> list[str]:
    """Variable names for a cotangent chart: u1..un then p1..pn."""
    return [f"u{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]


def base_names(n: int) -> list[str]:
    return [f"u{i + 1}" for i in range(n)]


def _monomial_parts(exps: Exponents, names: Sequence[str]) -> list[str]:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return parts


def format_polynomial(poly: ExactPolynomial, names: Sequence[str]) -> str:
    """Canonical text form; ``parse_expression`` inverts it exactly.

    Terms appear in descending graded-lex order.  A leading negative term of
    unit coefficient keeps an explicit ``1*`` when its first factor carries a
    power, because ``-u1^2`` would otherwise parse as ``(-u1)^2``.
    """
    if len(names) != poly.nvars:
        raise PolynomialError("one name per variable is required")
    if poly.is_zero():
        return "0"
    den = poly._den
    pieces: list[str] = []
    for i, (exps, num) in enumerate(poly._grlex_terms()):
        g = math.gcd(num, den)
        mag = str(abs(num) // g) if g == den else f"{abs(num) // g}/{den // g}"
        parts = _monomial_parts(exps, names)
        if not parts:
            body = mag
        elif mag == "1":
            if i == 0 and num < 0 and "^" in parts[0]:
                body = "1*" + "*".join(parts)
            else:
                body = "*".join(parts)
        else:
            body = f"{mag}*" + "*".join(parts)
        if i == 0:
            pieces.append(f"-{body}" if num < 0 else body)
        else:
            pieces.append(f"- {body}" if num < 0 else f"+ {body}")
    return " ".join(pieces)


# -- tokenizer and parser -------------------------------------------------


# ASCII only, so the classes are spelled out: \s, \d and \w would let
# Unicode spaces, superscripts, full-width and Arabic-Indic digits through,
# which int() either rejects or silently reads as plain digits
_TOKEN = re.compile(f"[{re.escape(string.whitespace)}]+|(?P<int>[0-9]+)"
                    "|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
                    "|(?P<bad>.)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) tokens, kind 'int', 'name' or 'op', then
    ('end', '', len(text)); the first character refused raises."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def parse_expression(text: str, variable_names: Sequence[str]) -> ExactPolynomial:
    """Parse an expression string into a canonical polynomial.

    Recursive descent over the tokens: each rule of the grammar is a nested
    function that builds its polynomial as it returns."""
    index_of: dict[str, int] = {}
    for i, name in enumerate(variable_names):
        if name in index_of:
            raise PolynomialError(f"duplicate variable name {name!r}")
        index_of[name] = i
    tokens = _tokenize(text)
    nvars = len(variable_names)
    one = _shared_constant(nvars, 1)
    pos = depth = 0

    def take(*wanted: str) -> tuple[str, str, int] | None:
        """The next token, consumed, if its kind, or an op's text, is one of
        ``wanted``; else None."""
        nonlocal pos
        tok = tokens[pos]
        if (tok[1] if tok[0] == "op" else tok[0]) not in wanted:
            return None
        pos += 1
        return tok

    def literal(tok: tuple[str, str, int]) -> int:
        digits = tok[1].lstrip("0") or "0"
        if len(digits) > MAX_LITERAL_DIGITS:
            raise ParseError(f"integer literal longer than {MAX_LITERAL_DIGITS}"
                             " digits", tok[2])
        return int(digits)

    def expr() -> ExactPolynomial:
        parts = [(1, term(), one)]
        while tok := take("+", "-"):
            parts.append((1 if tok[1] == "+" else -1, term(), one))
        return parts[0][1] if len(parts) == 1 else signed_sum(nvars, parts)

    def term() -> ExactPolynomial:
        poly = factor()
        while tok := take("*"):
            right = factor()
            if poly._product_bits(right) > MAX_POWER_BITS:
                raise ParseError("product is too large to form", tok[2])
            poly = poly * right
        return poly

    def factor() -> ExactPolynomial:
        poly = base()
        if not take("^"):
            return poly
        if not (tok := take("int")):
            raise ParseError("exponent must be an unsigned integer",
                             tokens[pos][2])
        digits = tok[1].lstrip("0") or "0"  # int() takes <= 4,300
        if len(digits) > 10 or int(digits) > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds {MAX_EXPONENT}", tok[2])
        return poly ** int(digits)

    def base() -> ExactPolynomial:
        nonlocal pos, depth
        tok = kind, word, position = tokens[pos]
        pos += 1
        if word == "-" or word == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError("parentheses and unary minus nest deeper "
                                 f"than {MAX_NESTING}", position)
            if word == "-":
                poly = -base()
            else:
                poly = expr()
                if not take(")"):
                    raise ParseError("expected ')'", tokens[pos][2])
            depth -= 1
            return poly
        if kind == "int":
            numerator = literal(tok)
            if not take("/"):
                return ExactPolynomial.constant(nvars, numerator)
            if not (tok := take("int")):
                raise ParseError("expected an integer denominator",
                                 tokens[pos][2])
            denominator = literal(tok)
            if denominator == 0:
                raise ParseError("zero denominator", tok[2])
            return ExactPolynomial.constant(
                nvars, Fraction(numerator, denominator))
        if kind == "name":
            index = index_of.get(word)
            if index is None:
                raise ParseError(f"unknown variable {word!r}", position)
            return ExactPolynomial.variable(nvars, index)
        if word == "/":
            raise ParseError("division is only allowed inside rational literals",
                             position)
        if kind == "end":
            raise ParseError("unexpected end of input", position)
        raise ParseError("expected a rational, variable or parenthesized "
                         f"expression, found {word!r}", position)

    poly = expr()
    kind, word, position = tokens[pos]
    if kind != "end":
        raise ParseError(f"unexpected trailing input {word!r}", position)
    return poly
