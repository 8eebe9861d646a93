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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

Exponents = tuple[int, ...]
RationalLike = Union[int, Fraction]
FloatForm = tuple[tuple[float, tuple[tuple[int, int], ...]], ...]


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

    __slots__ = ("nvars", "_terms", "_float_form")

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

    def __add__(self, other) -> "ExactPolynomial":
        if isinstance(other, (int, Fraction)):
            other = ExactPolynomial.constant(self.nvars, other)
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        self._check_compatible(other)
        data = dict(self._terms)
        for exps, c in other._terms.items():
            s = data.get(exps, Fraction(0)) + c
            if s:
                data[exps] = s
            else:
                data.pop(exps, None)
        return self._raw(self.nvars, data)

    __radd__ = __add__

    def __neg__(self) -> "ExactPolynomial":
        return self._raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "ExactPolynomial":
        if isinstance(other, (int, Fraction)):
            other = ExactPolynomial.constant(self.nvars, other)
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ExactPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "ExactPolynomial":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return ExactPolynomial.zero(self.nvars)
            return self._raw(self.nvars, {e: c * v for e, v in self._terms.items()})
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        self._check_compatible(other)
        data: dict[Exponents, Fraction] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                s = data.get(exps, Fraction(0)) + ca * cb
                if s:
                    data[exps] = s
                else:
                    data.pop(exps, None)
        return self._raw(self.nvars, data)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ExactPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise PolynomialError("polynomial powers must be non-negative integers")
        result = ExactPolynomial.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    @classmethod
    def _raw(cls, nvars: int, data: dict[Exponents, Fraction]) -> "ExactPolynomial":
        # internal constructor for already-canonical term dictionaries
        obj = cls.__new__(cls)
        object.__setattr__(obj, "nvars", nvars)
        object.__setattr__(obj, "_terms", data)
        object.__setattr__(obj, "_float_form", None)
        return obj

    # -- calculus ---------------------------------------------------------

    def partial(self, index: int) -> "ExactPolynomial":
        """Partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.nvars:
            raise PolynomialError(f"variable index {index} out of range")
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
        return self._raw(self.nvars, data)

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


# -- expression AST -------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: Fraction


@dataclass(frozen=True)
class Variable:
    index: int
    name: str


@dataclass(frozen=True)
class Negate:
    operand: "Expression"


@dataclass(frozen=True)
class BinaryOp:
    op: str  # '+', '-' or '*'
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Power:
    base: "Expression"
    exponent: int


Expression = Union[Literal, Variable, Negate, BinaryOp, Power]


def expression_to_polynomial(node: Expression, nvars: int) -> ExactPolynomial:
    if isinstance(node, Literal):
        return ExactPolynomial.constant(nvars, node.value)
    if isinstance(node, Variable):
        return ExactPolynomial.variable(nvars, node.index)
    if isinstance(node, Negate):
        return -expression_to_polynomial(node.operand, nvars)
    if isinstance(node, Power):
        return expression_to_polynomial(node.base, nvars) ** node.exponent
    if isinstance(node, BinaryOp):
        left = expression_to_polynomial(node.left, nvars)
        right = expression_to_polynomial(node.right, nvars)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        return left * right
    raise PolynomialError(f"unknown expression node: {node!r}")


# -- tokenizer and parser -------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int', 'name', 'op', 'end'
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
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
    def __init__(self, tokens: list[_Token], names: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.names = list(names)
        self.index_of = {name: i for i, name in enumerate(self.names)}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != symbol:
            raise ParseError(f"expected {symbol!r}", tok.position)
        return self.advance()

    def parse(self) -> Expression:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.position)
        return node

    def expr(self) -> Expression:
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                node = BinaryOp(tok.text, node, self.term())
            else:
                return node

    def term(self) -> Expression:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                node = BinaryOp("*", node, self.factor())
            else:
                return node

    def factor(self) -> Expression:
        node = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "int":
                raise ParseError("exponent must be an unsigned integer",
                                 exp_tok.position)
            self.advance()
            return Power(node, int(exp_tok.text))
        return node

    def base(self) -> Expression:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Negate(self.base())
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "int":
            self.advance()
            numerator = int(tok.text)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "int":
                    raise ParseError("expected an integer denominator",
                                     den_tok.position)
                self.advance()
                if int(den_tok.text) == 0:
                    raise ParseError("zero denominator", den_tok.position)
                return Literal(Fraction(numerator, int(den_tok.text)))
            return Literal(Fraction(numerator))
        if tok.kind == "name":
            index = self.index_of.get(tok.text)
            if index is None:
                raise ParseError(f"unknown variable {tok.text!r}", tok.position)
            self.advance()
            return Variable(index, tok.text)
        if tok.kind == "op" and tok.text == "/":
            raise ParseError("division is only allowed inside rational literals",
                             tok.position)
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.position)
        raise ParseError("expected a rational, variable or parenthesized "
                         f"expression, found {tok.text!r}", tok.position)


def parse_ast(text: str, variable_names: Sequence[str]) -> Expression:
    """Parse an expression string into its AST."""
    seen = set()
    for name in variable_names:
        if name in seen:
            raise PolynomialError(f"duplicate variable name {name!r}")
        seen.add(name)
    return _Parser(_tokenize(text), variable_names).parse()


def parse_expression(text: str, variable_names: Sequence[str]) -> ExactPolynomial:
    """Parse an expression string into a canonical polynomial."""
    node = parse_ast(text, variable_names)
    return expression_to_polynomial(node, len(variable_names))
