"""Multilinear pseudo-Boolean polynomials.

A polynomial over binary variables x_0, ..., x_{n-1} is stored as a map from
monomial supports (sorted tuples of distinct variable indices, () for the
constant term) to nonzero real coefficients.  Every index is an integer in
0..n_vars-1; any other index, a negative, bool or non-integer one included,
is rejected with a ValueError.  Because x^2 = x for x in {0, 1}, every
product reduces to this multilinear canonical form, and two polynomials are
equal as functions iff their term maps are equal.

Variable index 0 is the most significant position of a bit vector: the
integer enumeration order of assignments coincides with lexicographic order
on (x_0, x_1, ..., x_{n-1}).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

BitVector = tuple[int, ...]

DEFAULT_EXHAUSTIVE_CAP = 24


class BudgetExceededError(RuntimeError):
    """A classical enumeration or simulation exceeded its configured cap."""


class CapExceededError(BudgetExceededError, ValueError):
    """A problem is too large for an exhaustive value table or a simulated
    state.  Also a ValueError, since the size comes from the caller's input."""


def _canonical_terms(terms: Mapping[Sequence[int], float]) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for support, coeff in terms.items():
        for i in support:
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                raise ValueError(f"variable index {i!r} is not an integer")
        key = tuple(sorted(set(support)))
        if len(key) != len(tuple(support)):
            raise ValueError(f"duplicate variable in monomial support {support!r}")
        c = out.get(key, 0.0) + float(coeff)
        if c == 0.0:
            out.pop(key, None)
        else:
            out[key] = c
    return out


class BinaryPolynomial:
    """Immutable multilinear polynomial in canonical form."""

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: Mapping[Sequence[int], float] | None = None):
        if n_vars < 0:
            raise ValueError("n_vars must be nonnegative")
        canon = _canonical_terms(terms or {})
        for support in canon:
            if support and not (support[0] >= 0 and support[-1] < n_vars):
                index = support[0] if support[0] < 0 else support[-1]
                raise ValueError(f"variable index {index} out of range for n_vars={n_vars}")
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "terms", canon)

    @classmethod
    def _from_canonical(
        cls, n_vars: int, terms: Mapping[tuple[int, ...], float]
    ) -> "BinaryPolynomial":
        """Wrap ``terms`` whose supports are sorted, distinct and in
        0..n_vars-1, as the algebra makes them, with each coefficient made a
        ``float`` and exact zeros, -0.0 included, dropped in input order."""
        return cls._wrap(n_vars, {s: f for s, c in terms.items() if (f := float(c)) != 0.0})

    @classmethod
    def _wrap(cls, n_vars: int, terms: dict[tuple[int, ...], float]) -> "BinaryPolynomial":
        """Take canonical ``terms`` of nonzero floats as its own dict, uncopied."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "n_vars", n_vars)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, *_):
        raise AttributeError("BinaryPolynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int = 0) -> "BinaryPolynomial":
        return cls(n_vars, {})

    @classmethod
    def constant(cls, value: float, n_vars: int = 0) -> "BinaryPolynomial":
        return cls(n_vars, {(): value})

    @classmethod
    def variable(cls, index: int, n_vars: int) -> "BinaryPolynomial":
        return cls(n_vars, {(index,): 1.0})

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        return max(map(len, self.terms), default=0)

    @property
    def constant_term(self) -> float:
        return self.terms.get((), 0.0)

    def _graded(self) -> list[list[tuple[int, ...]]]:
        """Supports by degree, lowest first, each group sorted: graded order."""
        groups: dict[int, list[tuple[int, ...]]] = {}
        for s in self.terms:
            groups.setdefault(len(s), []).append(s)
        return [sorted(groups[d]) for d in sorted(groups)]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], float]]:
        """Terms in graded lexicographic order: by degree, then by support."""
        return [(s, self.terms[s]) for group in self._graded() for s in group]

    def coefficient(self, support: Iterable[int]) -> float:
        return self.terms.get(tuple(sorted(set(support))), 0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryPolynomial):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __repr__(self):
        parts = [f"{c:+g}*x{list(s)}" if s else f"{c:+g}" for s, c in self.sorted_terms()]
        body = " ".join(parts) if parts else "0"
        return f"BinaryPolynomial(n_vars={self.n_vars}, {body})"

    # -- algebra ------------------------------------------------------

    def add(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        n = max(self.n_vars, other.n_vars)
        terms = dict(self.terms)
        for s, c in other.terms.items():
            terms[s] = terms.get(s, 0.0) + c
        return BinaryPolynomial._from_canonical(n, terms)

    def scale(self, factor: float) -> "BinaryPolynomial":
        return BinaryPolynomial._from_canonical(
            self.n_vars, {s: c * factor for s, c in self.terms.items()})

    def multiply(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        n = max(self.n_vars, other.n_vars)
        terms: dict[tuple[int, ...], float] = {}
        for s1, c1 in self.terms.items():
            set1 = set(s1)
            for s2, c2 in other.terms.items():
                key = tuple(sorted(set1.union(s2)))
                terms[key] = terms.get(key, 0.0) + c1 * c2
        return BinaryPolynomial._from_canonical(n, terms)

    # -- evaluation ---------------------------------------------------

    def evaluate(self, x: Sequence[int]) -> float:
        if len(x) != self.n_vars:
            raise ValueError(f"bit vector length {len(x)} != n_vars {self.n_vars}")
        total = 0.0
        for support, coeff in self.terms.items():
            for idx in support:
                if not x[idx]:
                    break
            else:
                total += coeff
        return total

    def evaluate_all(self) -> np.ndarray:
        """Values on all 2^n assignments, indexed with x_0 as the most
        significant bit so that array order equals lexicographic order.

        Viewed as a 2 x ... x 2 cube with axis j for x_j, each term adds its
        coefficient in place to the sub-cube where every variable of its
        support is 1 (the whole cube for the constant term).
        Terms are added in dict order, the order ``evaluate`` uses, so every
        entry equals ``evaluate`` of its bit vector exactly.
        """
        n = self.n_vars
        if n > DEFAULT_EXHAUSTIVE_CAP:
            raise CapExceededError(f"n_vars={n} above exhaustive cap {DEFAULT_EXHAUSTIVE_CAP}")
        values = np.zeros(1 << n, dtype=np.float64)
        cube = values.reshape((2,) * n)
        for support, coeff in self.terms.items():
            idx: list = [slice(None)] * n
            for j in support:
                idx[j] = 1
            # the trailing Ellipsis keeps a full-support index a 0-d view
            face = cube[(*idx, Ellipsis)]
            face += coeff
        return values

    # -- analysis -----------------------------------------------------

    def exhaustive_min(self) -> tuple[BitVector, float]:
        """Global minimizer and value by full enumeration.

        Ties break to the lexicographically smallest bit vector.
        """
        values = self.evaluate_all()
        best = int(np.argmin(values))  # argmin returns the first = lex smallest
        return int_to_bits(best, self.n_vars), float(values[best])

    # -- text format ---------------------------------------------------

    def dumps(self) -> str:
        """One term per line, ``coeff : i1 i2 ...``, canonical order.

        Each degree's lines are joined from columns: the heads ``repr(c) + " :"``,
        one per distinct coefficient (equal floats have equal reprs apart from
        +-0.0, which a canonical polynomial never holds, and each NaN is its
        own key), then one column of ``" i"`` names per position."""
        terms = self.terms
        heads = {c: repr(c) + " :" for c in set(terms.values())}
        name = [f" {i}" for i in range(self.n_vars)].__getitem__
        lines: list[str] = []
        for group in self._graded():
            column = map(heads.__getitem__, map(terms.__getitem__, group))
            lines += map("".join, zip(column, *(map(name, c) for c in zip(*group))))
        return "\n".join(lines)


def loads_poly(text: str, n_vars: int) -> BinaryPolynomial:
    """Parse the ``coeff : i1 i2 ...`` dump format."""
    terms: dict[tuple[int, ...], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        coeff_str, _, idx_str = line.partition(":")
        support = tuple(int(t) for t in idx_str.split())
        terms[support] = terms.get(support, 0.0) + float(coeff_str)
    return BinaryPolynomial(n_vars, terms)


def int_to_bits(value: int, width: int) -> BitVector:
    """Big-endian bits of ``value``: element 0 is the most significant."""
    return tuple((value >> (width - 1 - j)) & 1 for j in range(width))


def bits_to_int(bits: Sequence[int]) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | (1 if b else 0)
    return value
