"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is stored as a map from exponent tuples to nonzero
``fractions.Fraction`` coefficients.  The zero polynomial is the empty map, so
every value has exactly one representation and equality is plain dictionary
equality.  Terms are ordered by graded lexicographic order (total degree
first, then lexicographic on the exponent tuple), descending; printing and
iteration both follow that order, which makes the printed form canonical.

Expressions are parsed with a small recursive-descent parser for the grammar

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
``MAX_NESTING`` deep, and a power or a written-out product whose result
could exceed ``MAX_POWER_BITS`` is refused before it is formed.

Every product of polynomials, and every sum of such products, is formed by
one kernel, ``signed_sum``.  It works on integers: each polynomial keeps a
cached integer view, its numerators over the lcm of its denominators, and
the kernel sums the products of numerators over one common denominator,
so ``Fraction`` is built only for the coefficients of the result.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from fractions import Fraction
from operator import add
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


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise PolynomialError(f"not an exact rational coefficient: {value!r}")


class ExactPolynomial:
    """Immutable multivariate polynomial with Fraction coefficients.

    Instances are created from a variable count and any iterable or mapping
    of ``(exponent_tuple, coefficient)`` pairs; duplicate exponent tuples are
    combined and zero coefficients dropped, so the stored form is canonical.
    """

    __slots__ = ("nvars", "_terms", "_float_form", "_partials", "_ints")

    def __init__(
        self,
        nvars: int,
        terms: Union[Mapping[Exponents, RationalLike],
                     Iterable[tuple[Exponents, RationalLike]]] = (),
    ):
        if nvars < 0:
            raise PolynomialError("variable count must be non-negative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[Exponents, Fraction] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise PolynomialError(
                    f"exponent tuple {exps} does not match {nvars} variables")
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise PolynomialError(f"exponents must be non-negative integers: {exps}")
            c = data.get(exps, Fraction(0)) + _as_fraction(coeff)
            if c:
                data[exps] = c
            else:
                data.pop(exps, None)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", data)
        object.__setattr__(self, "_float_form", None)
        object.__setattr__(self, "_partials", None)
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, value):
        raise AttributeError("ExactPolynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "ExactPolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: RationalLike) -> "ExactPolynomial":
        return cls(nvars, {(0,) * nvars: _as_fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "ExactPolynomial":
        """The monomial for variable ``index`` (0-based)."""
        if not 0 <= index < nvars:
            raise PolynomialError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    # -- inspection -------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        """Yield (exponents, coefficient) pairs in descending graded-lex order."""
        for exps in sorted(self._terms, key=grlex_key, reverse=True):
            yield exps, self._terms[exps]

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exponents), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Degree of the polynomial; the zero polynomial reports -1."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; error if any variable occurs."""
        if self.total_degree() > 0:
            raise PolynomialError("polynomial is not constant")
        return self.coefficient((0,) * self.nvars)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    # -- ring operations --------------------------------------------------

    def _check_compatible(self, other: "ExactPolynomial") -> None:
        if self.nvars != other.nvars:
            raise PolynomialError(
                f"variable counts differ: {self.nvars} vs {other.nvars}")

    def _combined(self, other, sign: int) -> "ExactPolynomial":
        if isinstance(other, (int, Fraction)):
            other = ExactPolynomial.constant(self.nvars, other)
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        self._check_compatible(other)
        data = dict(self._terms)
        for exps, c in other._terms.items():
            s = data.get(exps, 0) + c if sign > 0 else data.get(exps, 0) - c
            if s:
                data[exps] = s
            else:
                del data[exps]
        return self._raw(self.nvars, data)

    def __add__(self, other) -> "ExactPolynomial":
        return self._combined(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "ExactPolynomial":
        return self._raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "ExactPolynomial":
        return self._combined(other, -1)

    def __rsub__(self, other) -> "ExactPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "ExactPolynomial":
        if isinstance(other, (int, Fraction)):
            other = ExactPolynomial.constant(self.nvars, other)
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return signed_sum(self.nvars, [(1, self, other)])

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ExactPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise PolynomialError("polynomial powers must be non-negative integers")
        one = ExactPolynomial.constant(self.nvars, 1)
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
        t, u = len(self._terms), len(other._terms)
        if not t or not u:
            return 0
        terms = min(math.comb(t - 1 + e, t - 1) * u,
                    math.comb(self.nvars + e * self.total_degree()
                              + other.total_degree(), self.nvars))
        return terms * (1 + e * (self._coefficient_bits() + (t - 1).bit_length())
                        + other._coefficient_bits() + (u - 1).bit_length())

    def _coefficient_bits(self) -> int:
        return max(abs(c.numerator).bit_length() + c.denominator.bit_length()
                   for c in self._terms.values()) - 2

    @classmethod
    def _raw(cls, nvars: int, data: dict[Exponents, Fraction]) -> "ExactPolynomial":
        # internal constructor for already-canonical term dictionaries
        obj = cls.__new__(cls)
        object.__setattr__(obj, "nvars", nvars)
        object.__setattr__(obj, "_terms", data)
        object.__setattr__(obj, "_float_form", None)
        object.__setattr__(obj, "_partials", None)
        object.__setattr__(obj, "_ints", None)
        return obj

    def _int_view(self) -> tuple[int, list[tuple[Exponents, int]]]:
        """The cached integer view ``(den, [(exps, num), ...])``: ``den`` is
        the lcm of the coefficient denominators, each ``num`` a coefficient
        times ``den``."""
        view = self._ints
        if view is None:
            den = math.lcm(*(c.denominator for c in self._terms.values()))
            view = (den, [(e, c.numerator * (den // c.denominator))
                          for e, c in self._terms.items()])
            object.__setattr__(self, "_ints", view)
        return view

    # -- calculus ---------------------------------------------------------

    def partial(self, index: int) -> "ExactPolynomial":
        """Partial derivative with respect to variable ``index`` (0-based),
        built once per instance and cached (polynomials are immutable)."""
        if not 0 <= index < self.nvars:
            raise PolynomialError(f"variable index {index} out of range")
        cache = self._partials
        if cache is None:
            cache = {}
            object.__setattr__(self, "_partials", cache)
        elif index in cache:
            return cache[index]
        data: dict[Exponents, Fraction] = {}
        for exps, c in self._terms.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = exps[:index] + (e - 1,) + exps[index + 1:]
            s = data.get(lowered, Fraction(0)) + c * e
            if s:
                data[lowered] = s
            else:
                data.pop(lowered, None)
        derivative = cache[index] = self._raw(self.nvars, data)
        return derivative

    # -- variable embedding ----------------------------------------------

    def with_appended_vars(self, extra: int) -> "ExactPolynomial":
        """The same polynomial viewed in ``nvars + extra`` variables."""
        if extra < 0:
            raise PolynomialError("cannot append a negative number of variables")
        pad = (0,) * extra
        data = {exps + pad: c for exps, c in self._terms.items()}
        return self._raw(self.nvars + extra, data)

    # -- evaluation -------------------------------------------------------

    def float_form(self) -> FloatForm:
        """The cached float form: one ``(coefficient, ((var, exp), ...))``
        pair per term in ``terms()`` order, zero exponents left out.  Every
        float evaluation of a polynomial reads this form."""
        form = self._float_form
        if form is None:
            form = tuple((float(c), tuple((i, e) for i, e in enumerate(exps) if e))
                         for exps, c in self.terms())
            object.__setattr__(self, "_float_form", form)
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
        coords = [_as_fraction(x) for x in point]
        total = Fraction(0)
        for exps, c in self._terms.items():
            v = c
            for x, e in zip(coords, exps):
                if e:
                    v *= x ** e
            total += v
        return total

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self, default_names(self.nvars))

    def __repr__(self) -> str:
        return f"ExactPolynomial({self.nvars}, {self!s})"


def signed_sum(nvars: int,
               parts: Iterable[tuple[int, ExactPolynomial, ExactPolynomial]]
               ) -> ExactPolynomial:
    """The sum of ``sign * a * b`` over ``parts`` (sign +1 or -1): every
    product of polynomials is formed here.  The arithmetic is on integers:
    over D, the lcm of the parts' ``den_a * den_b``, each term product adds
    ``sign * D // (den_a * den_b) * num_a * num_b`` straight into one term
    map, so neither the products nor partial sums are built as polynomials
    of their own.  Only the surviving sums become (reduced) ``Fraction``s."""
    views = []
    for sign, a, b in parts:
        for poly in (a, b):
            if poly.nvars != nvars:
                raise PolynomialError(
                    f"variable counts differ: {nvars} vs {poly.nvars}")
        views.append((sign, a._int_view(), b._int_view()))
    den = math.lcm(*(da * db for _, (da, _), (db, _) in views))
    data: dict[Exponents, int] = {}
    get = data.get
    for sign, (da, a_terms), (db, b_terms) in views:
        scale = sign * (den // (da * db))
        for ea, na in a_terms:
            na *= scale
            for eb, nb in b_terms:
                exps = tuple(map(add, ea, eb))
                data[exps] = get(exps, 0) + na * nb
    return ExactPolynomial._raw(
        nvars, {e: Fraction(c, den) for e, c in data.items() if c})


def evaluate_float_form(form: FloatForm, point: Sequence[float]) -> float:
    """Sum the terms of a float form at a point, left to right."""
    total = 0.0
    for coeff, powers in form:
        v = coeff
        for i, e in powers:
            x = point[i]
            if e == 1:
                v *= x
            elif e == 2:
                v *= x * x
            else:
                v *= x ** e
        total += v
    return total


def evaluate_poly_array(poly: ExactPolynomial, points: np.ndarray) -> np.ndarray:
    """Batch twin of ``evaluate_float_form``: the polynomial at every point
    of ``points`` (shape (..., nvars); the result drops the last axis).

    The operations are the scalar loop's, in its order, so every value is
    bit-identical to ``poly.evaluate`` at that point.  Overflow gives inf
    where the scalar loop raises ``OverflowError``.
    """
    total = np.zeros(points.shape[:-1])
    for coeff, powers in poly.float_form():
        v = coeff
        for i, e in powers:
            x = points[..., i]
            if e == 1:
                v = v * x
            elif e == 2:
                v = v * (x * x)
            else:
                v = v * _float_power(x, e)
        total = total + v
    return total


def evaluate_table_array(table, points) -> np.ndarray:
    """``evaluate_poly_array`` of each polynomial in a nested sequence,
    written into one C-contiguous array, so a stacked matmul sees each
    matrix as alone: the points' leading axes first, the table's last."""
    points = np.asarray(points, dtype=float)
    polys, shape = [table], ()
    while polys and not isinstance(polys[0], ExactPolynomial):
        shape += (len(polys[0]),)
        polys = [entry for row in polys for entry in row]
    out = np.empty(points.shape[:-1] + (len(polys),))
    for k, poly in enumerate(polys):
        if poly.nvars != points.shape[-1]:
            raise PolynomialError(f"point has {points.shape[-1]} "
                                  f"coordinates, expected {poly.nvars}")
        out[..., k] = evaluate_poly_array(poly, points)
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
    pieces: list[str] = []
    for i, (exps, coeff) in enumerate(poly.terms()):
        mag = abs(coeff)
        parts = _monomial_parts(exps, names)
        if not parts:
            body = str(mag)
        elif mag == 1:
            if i == 0 and coeff < 0 and "^" in parts[0]:
                body = "1*" + "*".join(parts)
            else:
                body = "*".join(parts)
        else:
            body = f"{mag}*" + "*".join(parts)
        if i == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(pieces)


# -- tokenizer and parser -------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int', 'name', 'op', 'end'
    text: str
    position: int


_SPACES = frozenset(string.whitespace)
_DIGITS = frozenset(string.digits)
_NAME_START = frozenset(string.ascii_letters + "_")
_NAME_CHARS = _NAME_START | _DIGITS


def _tokenize(text: str) -> list[_Token]:
    # ASCII only: str.isdigit and str.isalnum would let superscripts,
    # full-width and Arabic-Indic digits through, which int() either
    # rejects or silently reads as plain digits
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _SPACES:
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over the token list, building the polynomial of
    each rule as it returns."""

    def __init__(self, tokens: list[_Token], names: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.nvars = len(names)
        self.one = ExactPolynomial.constant(self.nvars, 1)
        self.index_of = {name: i for i, name in enumerate(names)}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, symbols: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in symbols

    def expect_op(self, symbol: str) -> _Token:
        if not self.at_op(symbol):
            raise ParseError(f"expected {symbol!r}", self.peek().position)
        return self.advance()

    def parse(self) -> ExactPolynomial:
        poly = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.position)
        return poly

    def expr(self) -> ExactPolynomial:
        parts = [(1, self.term(), self.one)]
        while self.at_op("+-"):
            sign = 1 if self.advance().text == "+" else -1
            parts.append((sign, self.term(), self.one))
        return parts[0][1] if len(parts) == 1 else signed_sum(self.nvars, parts)

    def term(self) -> ExactPolynomial:
        poly = self.factor()
        while self.at_op("*"):
            position = self.advance().position
            factor = self.factor()
            if poly._product_bits(factor) > MAX_POWER_BITS:
                raise ParseError("product is too large to form", position)
            poly = poly * factor
        return poly

    def factor(self) -> ExactPolynomial:
        poly = self.base()
        if self.at_op("^"):
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "int":
                raise ParseError("exponent must be an unsigned integer",
                                 exp_tok.position)
            self.advance()
            return poly ** int(exp_tok.text)
        return poly

    def base(self) -> ExactPolynomial:
        tok = self.peek()
        if self.at_op("-("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError("parentheses and unary minus nest deeper "
                                 f"than {MAX_NESTING}", tok.position)
            self.advance()
            if tok.text == "-":
                poly = -self.base()
            else:
                poly = self.expr()
                self.expect_op(")")
            self.depth -= 1
            return poly
        if tok.kind == "int":
            self.advance()
            numerator = int(tok.text)
            if not self.at_op("/"):
                return ExactPolynomial.constant(self.nvars, numerator)
            self.advance()
            den_tok = self.peek()
            if den_tok.kind != "int":
                raise ParseError("expected an integer denominator",
                                 den_tok.position)
            self.advance()
            if int(den_tok.text) == 0:
                raise ParseError("zero denominator", den_tok.position)
            return ExactPolynomial.constant(
                self.nvars, Fraction(numerator, int(den_tok.text)))
        if tok.kind == "name":
            index = self.index_of.get(tok.text)
            if index is None:
                raise ParseError(f"unknown variable {tok.text!r}", tok.position)
            self.advance()
            return ExactPolynomial.variable(self.nvars, index)
        if self.at_op("/"):
            raise ParseError("division is only allowed inside rational literals",
                             tok.position)
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.position)
        raise ParseError("expected a rational, variable or parenthesized "
                         f"expression, found {tok.text!r}", tok.position)


def parse_expression(text: str, variable_names: Sequence[str]) -> ExactPolynomial:
    """Parse an expression string into a canonical polynomial."""
    seen = set()
    for name in variable_names:
        if name in seen:
            raise PolynomialError(f"duplicate variable name {name!r}")
        seen.add(name)
    return _Parser(_tokenize(text), variable_names).parse()
