"""Polynomial operator fields on the base coordinates u^1..u^n.

An operator field is an n-by-n matrix of :class:`ExactPolynomial` entries in
the n base variables.  The module provides the two companion normal forms
and the Killing operators of the second one, read from one index table,
the compatibility bracket <L, M> for commuting pairs, the Nijenhuis torsion
as -<L, L> and in closed form for a companion operator, the symmetry test,
and characteristic polynomial coefficients by the trace recursion.

A companion operator needs no cyclicity (gl-regularity) test: it is
gl-regular at every point, since the Krylov matrix [e_n, L e_n, ...,
L^(n-1) e_n] of the last basis vector is unit anti-triangular, so its
determinant is +1 or -1.

Index convention: entry(i, j) is the matrix element with upper index i and
lower index j, so a vector transforms as (L xi)^i = sum_j L^i_j xi^j.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactpoly import ExactPolynomial, evaluate_table_array, signed_sum


class OperatorError(ValueError):
    """Raised for structurally invalid operator computations."""


def _as_entry(n: int, value) -> ExactPolynomial:
    if isinstance(value, ExactPolynomial):
        if value.nvars != n:
            raise OperatorError(
                f"entry has {value.nvars} variables, expected {n}")
        return value
    if isinstance(value, (int, Fraction)):
        return ExactPolynomial.constant(n, value)
    raise OperatorError(f"not a polynomial entry: {value!r}")


class OperatorField:
    """Square matrix of exact polynomials in as many variables as its size."""

    __slots__ = ("n", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise OperatorError("entries must form a non-empty square matrix")
        self.n = n
        self.entries = tuple(tuple(_as_entry(n, e) for e in row) for row in entries)

    @classmethod
    def identity(cls, n: int) -> "OperatorField":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "OperatorField":
        return cls([[0] * n for _ in range(n)])

    def entry(self, i: int, j: int) -> ExactPolynomial:
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorField):
            return NotImplemented
        return self.entries == other.entries

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __add__(self, other: "OperatorField") -> "OperatorField":
        self._check(other)
        return OperatorField([[a + b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "OperatorField") -> "OperatorField":
        self._check(other)
        return OperatorField([[a - b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.entries, other.entries)])

    def __mul__(self, scalar) -> "OperatorField":
        if isinstance(scalar, (int, Fraction, ExactPolynomial)):
            return OperatorField([[e * scalar for e in row] for row in self.entries])
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "OperatorField") -> "OperatorField":
        self._check(other)
        n = self.n
        A, B = self.entries, other.entries
        return OperatorField([[signed_sum(n, [(1, A[i][s], B[s][j])
                                              for s in range(n)])
                               for j in range(n)] for i in range(n)])

    def _check(self, other: "OperatorField") -> None:
        if self.n != other.n:
            raise OperatorError(f"operator sizes differ: {self.n} vs {other.n}")

    def transpose(self) -> "OperatorField":
        return OperatorField([[self.entries[j][i] for j in range(self.n)]
                              for i in range(self.n)])

    def antitranspose(self) -> "OperatorField":
        """Reflection across the anti-diagonal."""
        n = self.n
        return OperatorField([[self.entries[n - 1 - j][n - 1 - i]
                               for j in range(n)] for i in range(n)])

    def trace(self) -> ExactPolynomial:
        """Sum of the diagonal."""
        return sum((self.entries[i][i] for i in range(1, self.n)),
                   self.entries[0][0])

    def power(self, k: int) -> "OperatorField":
        if k < 0:
            raise OperatorError("operator powers must be non-negative")
        result = OperatorField.identity(self.n)
        for _ in range(k):
            result = result @ self
        return result

    def evaluate_at(self, point: Sequence[float]) -> np.ndarray:
        """The matrix at a point, or at each point of a stack (..., n)."""
        return evaluate_table_array(self.entries, point)

    def derivative(self, a: int) -> tuple[tuple[ExactPolynomial, ...], ...]:
        """Entrywise partial derivative in u^a."""
        return tuple(tuple(e.partial(a) for e in row) for row in self.entries)

    def phase_entries(self) -> tuple[tuple[ExactPolynomial, ...], ...]:
        """Entries embedded into the cotangent chart variables (u, p)."""
        return tuple(tuple(e.with_appended_vars(self.n) for e in row)
                     for row in self.entries)

    def __str__(self) -> str:
        from .exactpoly import base_names, format_polynomial
        names = base_names(self.n)
        rows = []
        for row in self.entries:
            rows.append("[" + ", ".join(format_polynomial(e, names) for e in row) + "]")
        return "[" + ", ".join(rows) + "]"

    __repr__ = __str__


def commutator(a: OperatorField, b: OperatorField) -> OperatorField:
    return (a @ b) - (b @ a)


def _sigma_list(sigma: Sequence) -> list[ExactPolynomial]:
    n = len(sigma)
    if n == 0:
        raise OperatorError("at least one coefficient is required")
    return [_as_entry(n, s) for s in sigma]


def companion_second(sigma: Sequence) -> OperatorField:
    """Second companion form: ones on the superdiagonal, the coefficient row
    (sigma_n, ..., sigma_1) along the bottom."""
    sig = _sigma_list(sigma)
    n = len(sig)
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
    for j in range(n):
        rows[n - 1][j] = sig[n - 1 - j]
    return OperatorField(rows)


def companion_first(sigma: Sequence) -> OperatorField:
    """First companion form: the anti-diagonal transpose of the second one,
    with the coefficients (sigma_1, ..., sigma_n) down the first column."""
    return companion_second(sigma).antitranspose()


def killing_operators(sigma: Sequence[ExactPolynomial]) -> list[OperatorField]:
    """The operators A_0, ..., A_(n-1) of the adjugate recursion A_0 = Id,
    A_i = L A_(i-1) - sigma_i Id, for L = ``companion_second(sigma)``, whose
    terminating identity (lambda^(n-1) A_0 + ... + A_(n-1)) (lambda Id - L)
    = (lambda^n - sigma_1 lambda^(n-1) - ... - sigma_n) Id holds for every L.
    Read from their index table, of one -sigma_j per j (the tests keep the
    recursion and check the identity): from column i, row i < n - k of A_k
    is -sigma_k, ..., -sigma_1, 1; from column r, row n - k + r is sigma_n,
    ..., sigma_(k+1); every other entry is 0."""
    last = _sigma_list(sigma)[::-1]  # L's bottom row, sigma_n, ..., sigma_1
    n = len(last)
    zero = ExactPolynomial.constant(n, 0)
    band = [-s for s in last[1:]] + [ExactPolynomial.constant(n, 1)]
    return [OperatorField(  # band[n-1-k:] is -sigma_k, ..., -sigma_1, 1
        [[zero] * i + band[n - 1 - k:] + [zero] * (n - k - 1 - i)
         for i in range(n - k)]
        + [[zero] * r + last[:n - k] + [zero] * (k - r) for r in range(k)])
        for k in range(n)]


def nijenhuis_torsion(L: OperatorField) -> tuple[OperatorField, ...]:
    """Torsion components N^k_{ij}, as n layers: layer k is the field of
    N^k_{ij}.  The operator is Nijenhuis iff all of them vanish.

    N^k_{ij} = L^s_i d_s L^k_j - L^s_j d_s L^k_i
             - L^k_s d_i L^s_j + L^k_s d_j L^s_i,

    which is exactly -<L, L>^k_{ij} = <L, L>^k_{ji}, as swapping i and j
    negates <L, L> term by term: the layers of ``torsion_of_pair(L, L)``, transposed.
    """
    return tuple(layer.transpose() for layer in torsion_of_pair(L, L))


def companion_torsion(sigma: Sequence) -> tuple[OperatorField, ...]:
    """The torsion of ``companion_second(sigma)``, read from its last row
    s_j = sigma_(n-j), the only one that depends on u (d_(-1) = 0):

        N^(n-2)_ij = d_j s_i - d_i s_j,
        N^(n-1)_ij = s_i d_(n-1) s_j - s_j d_(n-1) s_i
                   + d_(i-1) s_j - d_(j-1) s_i + sigma_1 N^(n-2)_ij,

    and every other layer is zero; ``nijenhuis_torsion`` is the oracle."""
    sig = _sigma_list(sigma)
    n = len(sig)
    s = sig[::-1]
    zero, one = ExactPolynomial.zero(n), ExactPolynomial.constant(n, 1)
    d = [[zero] + [x.partial(a) for a in range(n)] for x in s]  # d_(a-1) s_j
    low = [[signed_sum(n, [(1, d[i][j + 1], one), (-1, d[j][i + 1], one)])
            for j in range(n)] for i in range(n)]
    top = [[signed_sum(n, [(1, s[i], d[j][n]), (-1, s[j], d[i][n]),
                           (1, d[j][i], one), (-1, d[i][j], one),
                           (1, sig[0], low[i][j])])
            for j in range(n)] for i in range(n)]
    # at n = 1 there is no layer n - 2, and low (all zero) drops out
    return tuple(([OperatorField.zero(n)] * (n - 2)
                  + [OperatorField(low), OperatorField(top)])[-n:])


def torsion_of_pair(L: OperatorField, M: OperatorField) -> tuple[OperatorField, ...]:
    """Components of the compatibility bracket <L, M> for commuting L, M, as
    n layers: layer k is the field of <L, M>^k_{ij}.

    <L, M>^k_{ij} = -(d_j L^s_i) M^k_s + (d_i M^s_j) L^k_s
                    - L^s_i d_s M^k_j + M^s_j d_s L^k_i.

    With M = L this is exactly minus the Nijenhuis torsion, term by term;
    parts with a zero factor, many of them, are dropped by ``signed_sum``.
    """
    n = L.n
    A, B = L.entries, M.entries

    def component(k, i, j):
        for s in range(n):
            yield -1, A[s][i].partial(j), B[k][s]
            yield 1, B[s][j].partial(i), A[k][s]
            yield -1, A[s][i], B[k][j].partial(s)
            yield 1, B[s][j], A[k][i].partial(s)

    return tuple(OperatorField([[signed_sum(n, component(k, i, j))
                                 for j in range(n)] for i in range(n)])
                 for k in range(n))


def guiding_bracket(L: OperatorField, M: OperatorField) -> tuple[OperatorField, ...]:
    """The compatibility bracket <L, M>; requires LM = ML so the result is a
    well-defined tensor field."""
    L._check(M)
    if not commutator(L, M).is_zero():
        raise OperatorError("the bracket requires commuting operator fields")
    return torsion_of_pair(L, M)


def is_symmetry(L: OperatorField, M: OperatorField) -> bool:
    """M is a symmetry of L when LM = ML and the symmetric (in the lower
    indices) part of <L, M> vanishes."""
    return (commutator(L, M).is_zero()
            and all((T + T.transpose()).is_zero() for T in torsion_of_pair(L, M)))


def char_coefficients(L: OperatorField) -> list[ExactPolynomial]:
    """Coefficients (sigma_1, ..., sigma_n) of the characteristic polynomial
    written as lambda^n - sigma_1 lambda^(n-1) - ... - sigma_n, computed by
    the trace recursion

        A_0 = Id,  M_k = L A_(k-1),  sigma_k = tr(M_k) / k,
        A_k = M_k - sigma_k Id.
    """
    n = L.n
    ident = OperatorField.identity(n)
    A = ident
    sigma: list[ExactPolynomial] = []
    for k in range(1, n + 1):
        M = L @ A
        s = M.trace() * Fraction(1, k)
        sigma.append(s)
        A = M - (ident * s)
    return sigma
