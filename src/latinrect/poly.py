"""Exact sparse multivariate polynomials over the integers.

A polynomial is a dict from exponent vectors to nonzero integer
coefficients.  Exponent vectors are plain tuples aligned with the
variable list of a ring descriptor, so in the ring ("x",) the term
3*x^2 is stored as {(2,): 3}.  Coefficients are Python ints, hence
exact at any size.  Zero coefficients are dropped on construction and
never stored.

The module also carries the fraction-free linear algebra used to turn
a transfer-matrix system into a rational generating function: one
fraction-free Bareiss elimination for Cramer pairs (all divisions
exact, no fractions ever materialize) and a RationalKernel wrapper
that expands num/den into a weight-polynomial series via the induced
linear recurrence.

Inside the elimination a polynomial is a dict from one int key to its
coefficient: the key of x_0^e_0 ... x_k^e_k is sum of e_i * S^i, with
stride S = 2D + 1.  D is the sum over the rows of [A | rhs] of each
row's largest exponent coordinate.  Every intermediate entry is a
minor (Bareiss, Math. Comp. 1968), a sum of products of one entry per
row, so each of its coordinates is at most D; the product
pivot*a - fac*b taken before its division stays at most 2D < S per
coordinate.  Adding keys then adds exponent vectors without a carry,
no two monomials share a key, and int order is a lex order (x_k
highest), so reducing by den's largest key is a lex reduction.
The division checks survive the encoding: a quotient coordinate is at
most D when the division is exact, and a quotient key whose exponent
difference has a negative coordinate is either negative or, at its
lowest negative coordinate i, decodes to
S + e_i - d_i >= S - D = D + 1 (X / x gives coordinate x = S - 1).
So a negative key, a decoded coordinate above D, or a coefficient
remainder raises PolynomialDivisionError, as a tuple division would.
The margin matters for these checks only: the key map is a ring map
(x_i -> t^(S^i)), so an exact division stays exact under any stride
above D, and no input that divides can show a smaller stride.

A RationalKernel's denominator has the constant 1 as its part free of
the series variable, and the constructor refuses any other.  Every
transfer kernel has it: the denominator solve_linear_system returns is
det(I - X*T) itself, its sign kept, and at X = 0 that is det I = 1.
So the series recurrence never divides.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Mapping, Sequence

from .frozen import Frozen


class RingMismatchError(ValueError):
    """Two operands live in different polynomial rings."""


class PolynomialDivisionError(ArithmeticError):
    """A division that was promised to be exact is not."""


class SingularSystemError(ArithmeticError):
    """The transfer system has no unique solution; upstream bug."""


class PolyRing(Frozen):
    """An ordered list of variable names; nothing more.

    Ring identity is by value, so two independently built descriptors
    with the same variables are the same ring.
    """

    __slots__ = ("variables",)

    def _validate(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variable names: {self.variables!r}")
        if not all(isinstance(v, str) and v for v in self.variables):
            raise ValueError(f"bad variable names: {self.variables!r}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "WeightPolynomial":
        return WeightPolynomial(self, {})

    def one(self) -> "WeightPolynomial":
        return self.const(1)

    def const(self, c: int) -> "WeightPolynomial":
        return WeightPolynomial(self, {(0,) * self.nvars: int(c)})

    def var(self, name: str) -> "WeightPolynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return WeightPolynomial(self, {tuple(exps): 1})

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise RingMismatchError(f"no variable {name!r} in ring {self.variables!r}") from None

    def poly(self, terms: Mapping[tuple[int, ...], int]) -> "WeightPolynomial":
        return WeightPolynomial(self, dict(terms))


#: the three rings the package actually uses
RING_2ROW = PolyRing(("x",))
RING_3ROW = PolyRing(("x1", "x2", "x3", "x23"))
RING_KERNEL = PolyRing(("x", "X"))


class WeightPolynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple[int, ...], int]):
        clean: dict[tuple[int, ...], int] = {}
        nv = ring.nvars
        for exps, c in terms.items():
            if c == 0:
                continue
            if len(exps) != nv or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r} for ring {ring.variables!r}")
            clean[exps] = c
        self.ring = ring
        self._terms = clean

    # -- inspection ----------------------------------------------------

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in descending lex order of exponent vectors."""
        return sorted(self._terms.items(), reverse=True)

    def constant_term(self) -> int:
        return self._terms.get((0,) * self.ring.nvars, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {(0,) * self.ring.nvars: 1}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def degree(self, name: str) -> int:
        if not self._terms:
            return -1
        i = self.ring.index(name)
        return max(e[i] for e in self._terms)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "WeightPolynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(
                f"ring mismatch: {self.ring.variables!r} vs {other.ring.variables!r}"
            )

    def __add__(self, other: "WeightPolynomial | int") -> "WeightPolynomial":
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return WeightPolynomial(self.ring, out)

    def __radd__(self, other: int) -> "WeightPolynomial":
        return self.__add__(other)

    def __neg__(self) -> "WeightPolynomial":
        return WeightPolynomial(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "WeightPolynomial | int") -> "WeightPolynomial":
        if isinstance(other, int):
            other = self.ring.const(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other: int) -> "WeightPolynomial":
        return self.ring.const(other).__sub__(self)

    def __mul__(self, other: "WeightPolynomial | int") -> "WeightPolynomial":
        if isinstance(other, int):
            if other == 0:
                return self.ring.zero()
            return WeightPolynomial(self.ring, {e: c * other for e, c in self._terms.items()})
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return WeightPolynomial(self.ring, out)

    def __rmul__(self, other: int) -> "WeightPolynomial":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "WeightPolynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == self.ring.const(other)._terms
        if not isinstance(other, WeightPolynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    # -- rendering -----------------------------------------------------

    def canonical_str(self) -> str:
        if not self._terms:
            return "0"
        names = self.ring.variables
        parts: list[str] = []
        for exps, c in self.terms():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(abs(c))
            else:
                body = "*".join(factors)
                if abs(c) != 1:
                    body = f"{abs(c)}*{body}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<poly {self.canonical_str()}>"


def bareiss_determinant(
    matrix: Sequence[Sequence[WeightPolynomial]],
    rhs: Sequence[WeightPolynomial],
) -> tuple[WeightPolynomial, WeightPolynomial]:
    """Eliminate [A | rhs] fraction-free and return the pair (det of A
    with its last column replaced by rhs, det A): the last rhs entry
    and the last pivot, under the same row-swap sign.

    Every intermediate entry is a minor of the input, and each
    division by the previous pivot is exact; a failed division would
    signal corruption, so it raises instead of rounding.  Entries are
    eliminated as int-keyed dicts (see the module docstring); only
    the two returned entries are decoded.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    ring = matrix[0][0].ring
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    for row in rows:
        for p in row:
            p._check(matrix[0][0])
    # a ring of constants still decodes one (zero) digit per key check
    nvars = max(ring.nvars, 1)
    bound = sum(max((c for p in row for e in p._terms for c in e), default=0) for row in rows)
    stride = 2 * bound + 1
    m = [[_encode(p, stride) for p in row] for row in rows]
    prev = {0: 1}
    sign = 1
    for k in range(n - 1):
        # pivot on the sparsest eligible row; fill-in, not correctness
        piv = None
        best = None
        for r in range(k, n):
            if not m[r][k]:
                continue
            weight = (len(m[r][k]), sum(len(e) for e in m[r][k:]))
            if best is None or weight < best:
                best = weight
                piv = r
        if piv is None:
            return ring.zero(), ring.zero()
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            fac = row_i[k]
            for j in range(k + 1, n + 1):
                a, b = row_i[j], row_k[j]
                if a or (fac and b):
                    row_i[j] = _divide_keys(_cross(pivot, a, fac, b), prev, stride, bound, nvars)
            row_i[k] = {}
        prev = pivot
    det, num = (_decode(keys, ring, stride) for keys in m[n - 1][n - 1:])
    return (num, det) if sign == 1 else (-num, -det)


def _encode(p: WeightPolynomial, stride: int) -> dict[int, int]:
    """p's terms keyed by sum of e_i * stride^i."""
    out = {}
    for exps, c in p._terms.items():
        key = 0
        for e in reversed(exps):
            key = key * stride + e
        out[key] = c
    return out


def _digits(key: int, stride: int, nvars: int) -> list[int]:
    """The exponent vector of an encoded key, lowest coordinate first."""
    out = []
    for _ in range(nvars):
        key, e = divmod(key, stride)
        out.append(e)
    return out


def _decode(keys: dict[int, int], ring: PolyRing, stride: int) -> WeightPolynomial:
    terms = {tuple(_digits(k, stride, ring.nvars)): c for k, c in keys.items()}
    return WeightPolynomial(ring, terms)


def _cross(p: dict, a: dict, f: dict, b: dict) -> dict[int, int]:
    """p*a - f*b on encoded keys, zero coefficients included."""
    out: dict[int, int] = {}
    get = out.get
    for kp, cp in p.items():
        for ka, ca in a.items():
            k = kp + ka
            out[k] = get(k, 0) + cp * ca
    for kf, cf in f.items():
        for kb, cb in b.items():
            k = kf + kb
            out[k] = get(k, 0) - cf * cb
    return out


def _not_divisible(num: dict, den: dict) -> PolynomialDivisionError:
    return PolynomialDivisionError(
        f"a {len(num)}-term polynomial is not divisible by a {len(den)}-term one"
    )


def _divide_keys(
    num: dict[int, int], den: dict[int, int], stride: int, bound: int, nvars: int
) -> dict[int, int]:
    """num/den on encoded keys, where the true quotient has every
    coordinate at most bound and num every coordinate at most
    2*bound; raise PolynomialDivisionError when it does not divide.

    Lex reduction by den's largest key.  A quotient key is refused
    when it is negative, when a coordinate decodes above bound (a
    borrow across coordinates, as in X / x, shows up as a coordinate
    of stride - d > bound), or when its coefficient leaves a
    remainder.
    """
    quot: dict[int, int] = {}
    de = max(den)
    dc = den[de]
    tail = [(k - de, c) for k, c in den.items() if k != de]
    rem = {k: c for k, c in num.items() if c}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    while heap:
        rk = -heapq.heappop(heap)
        rc = rem.pop(rk, 0)
        if not rc:
            continue
        q, r = divmod(rc, dc)
        qk = rk - de
        if r or qk < 0 or max(_digits(qk, stride, nvars)) > bound:
            raise _not_divisible(num, den)
        quot[qk] = q
        for off, c in tail:
            t = rk + off
            v = rem.get(t)
            if v is None:
                rem[t] = -q * c
                heapq.heappush(heap, -t)
            else:
                v -= q * c
                if v:
                    rem[t] = v
                else:
                    del rem[t]
    return quot


def solve_linear_system(
    matrix: Sequence[Sequence[WeightPolynomial]],
    rhs: Sequence[WeightPolynomial],
) -> tuple[WeightPolynomial, WeightPolynomial]:
    """Unknown 0 of A*g = rhs, solved exactly over a polynomial ring.

    Cramer's rule on fraction-free determinants: the pair (det of A
    with column 0 replaced by rhs, det A), from one elimination of
    [A | rhs] with column 0 moved last, which scales both
    determinants by the same sign.  The pair is exact but not
    reduced to lowest terms.
    """
    n = len(matrix)
    moved = [[*row[1:], row[0]] for row in matrix]
    num, det = bareiss_determinant(moved, rhs)
    if det.is_zero():
        raise SingularSystemError("transfer system is singular")
    return (num, det) if (n - 1) % 2 == 0 else (-num, -det)


class RationalKernel:
    """A rational function num/den, viewed as a power series in one
    distinguished variable whose coefficients are polynomials in the
    remaining ones.

    Stored split by the series variable: num[j] and den[j] are the
    coefficient polynomials of series_var^j.  den[0] must be the
    constant 1, as it is for every transfer kernel (see the module
    docstring); any other den[0] raises ValueError.
    """

    __slots__ = ("ring", "series_var", "num", "den")

    def __init__(
        self,
        ring: PolyRing,
        series_var: str,
        num: Sequence[WeightPolynomial],
        den: Sequence[WeightPolynomial],
    ):
        num = _trim(list(num))
        den = _trim(list(den))
        if not den:
            raise ZeroDivisionError("kernel with zero denominator")
        if not den[0].is_one():
            raise ValueError(
                f"kernel denominator must have constant term 1 in {series_var}, "
                f"not {den[0].canonical_str()}"
            )
        self.ring = ring
        self.series_var = series_var
        self.num = tuple(num)
        self.den = tuple(den)

    @classmethod
    def from_bivariate(
        cls, num: WeightPolynomial, den: WeightPolynomial, series_var: str
    ) -> "RationalKernel":
        """Split joint polynomials in (coeff vars + series var) apart."""
        ring = num.ring
        sv = ring.index(series_var)
        keep = tuple(v for v in ring.variables if v != series_var)
        small = PolyRing(keep)

        def split(p: WeightPolynomial) -> list[WeightPolynomial]:
            buckets: dict[int, dict[tuple[int, ...], int]] = {}
            for e, c in p._terms.items():
                rest = tuple(x for i, x in enumerate(e) if i != sv)
                buckets.setdefault(e[sv], {})[rest] = c
            if not buckets:
                return []
            return [
                WeightPolynomial(small, buckets.get(j, {}))
                for j in range(max(buckets) + 1)
            ]

        return cls(small, series_var, split(num), split(den))

    def order(self) -> tuple[int, int]:
        """(numerator degree, denominator degree) in the series variable."""
        return len(self.num) - 1, len(self.den) - 1

    def to_bivariate(self) -> tuple[WeightPolynomial, WeightPolynomial]:
        big = PolyRing(self.ring.variables + (self.series_var,))

        def join(parts: Sequence[WeightPolynomial]) -> WeightPolynomial:
            terms: dict[tuple[int, ...], int] = {}
            for j, p in enumerate(parts):
                for e, c in p._terms.items():
                    terms[e + (j,)] = c
            return WeightPolynomial(big, terms)

        return join(self.num), join(self.den)

    def series(self, n_max: int) -> list[WeightPolynomial]:
        """Coefficients of series_var^0..n_max as polynomials.

        Uses the linear recurrence P_n = num[n] - sum_{j>=1}
        den[j]*P_{n-j}, since den[0] = 1.
        """
        out: list[WeightPolynomial] = []
        for n in range(n_max + 1):
            acc = self.num[n] if n < len(self.num) else self.ring.zero()
            for j in range(1, min(n, len(self.den) - 1) + 1):
                acc = acc - self.den[j] * out[n - j]
            out.append(acc)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalKernel):
            return NotImplemented
        if self.ring != other.ring or self.series_var != other.series_var:
            return False
        n1, d1 = self.to_bivariate()
        n2, d2 = other.to_bivariate()
        return n1 * d2 == n2 * d1

    def canonical_str(self) -> str:
        return f"({_series_str(self.num, self.series_var)}) / ({_series_str(self.den, self.series_var)})"

    def __repr__(self) -> str:
        return f"<kernel {self.canonical_str()}>"


def _trim(parts: list[WeightPolynomial]) -> list[WeightPolynomial]:
    while parts and parts[-1].is_zero():
        parts.pop()
    return parts


def _series_str(parts: Sequence[WeightPolynomial], var: str) -> str:
    chunks: list[str] = []
    for j, p in enumerate(parts):
        if p.is_zero():
            continue
        if j == 0:
            chunks.append(p.canonical_str())
            continue
        xpow = var if j == 1 else f"{var}^{j}"
        if p.is_one():
            body = xpow
        elif len(p) == 1 and not any(sum(e) for e in p._terms):
            c = p.constant_term()
            body = f"{c}*{xpow}" if c > 0 else f"({c})*{xpow}"
        else:
            body = f"({p.canonical_str()})*{xpow}"
        chunks.append(body)
    if not chunks:
        return "0"
    return " + ".join(chunks)
