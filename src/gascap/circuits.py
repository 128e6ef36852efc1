"""Compilation of binary polynomials into adaptive-search circuits.

The state-preparation operator A_y acts on a key register of n qubits (one
per binary variable) and a value register of m qubits.  It is always
Hadamards on everything, one phase layer, and a final inverse QFT on the
value register; a layer with no term is kept and expands to no gate.
In the layer a term with coefficient a contributes theta = 2 pi a / 2^m and
applies R(2^(m-1-j) * theta) to value qubit j, controlled on the term's key
qubits.  The constant term absorbs -y and is uncontrolled.  With integer
coefficients the value register then holds (E(x) - y) mod 2^m in two's
complement, so a single Z on the sign qubit marks exactly the states with
E(x) < y.  A circuit keeps the layer as one ``PhaseLayer`` record of the
polynomial and the threshold, so building, inverting and counting A_y costs
no record per term; ``CircuitSpec.gates`` expands it into single gates on
request.

Qubit numbering: key qubits are 0..n-1 (variable order), value qubits are
n..n+m-1 with value qubit 0 the sign/most-significant bit.  The inverse QFT
is emitted as one unit and carries no terminal swap layer; readout uses the
same big-endian convention.

Register sizing.  A width is the smallest m >= 1 whose two's complement
[-2^(m-1), 2^(m-1)) holds a set of values, so it depends only on their
minimum and maximum and is read off their binary exponents in O(1); m = 1 is
the sign qubit alone, and a non-finite value or one outside m <= 128 raises.
``value_register_width`` applies this strictly, to every coefficient and the
polynomial's value bounds.  Reference circuits for the binary-encoded
objective are sized by the coefficients alone (real-valued objectives
tolerate rare wraparound because every sample is re-evaluated classically),
which ``coefficient_width`` reproduces; one-hot circuits use the paper's
bound on max(E).  That bound's width, ceil(log2 max(E)) + 1 floored at the
sign qubit, is one rule (``_closed_form_width``), which ``formulation_width``
and ``closed_form_resources`` both read; the closed form takes its key width
from ``variable_counts``.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .formulation import Encoding, Formulation, bits_per_channel, check_penalty, variable_counts
from .poly import BinaryPolynomial

GateKind = str  # "h", "r", "cr", "z", "iqft", "qft", "diffusion"
_TARGETED = frozenset(("h", "r", "cr", "z"))  # act on one target qubit; only cr takes controls
_WHOLE_REGISTER = frozenset(("iqft", "qft", "diffusion"))


@dataclass(frozen=True, slots=True)
class GateSpec:
    kind: GateKind
    target: int | None = None
    controls: tuple[int, ...] = ()
    theta: float = 0.0

    def __post_init__(self):
        kind, target, controls = self.kind, self.target, self.controls
        if kind in _WHOLE_REGISTER:
            if target is not None or controls:
                raise ValueError(f"{kind} gates take no target or controls")
        elif kind not in _TARGETED:
            raise ValueError(f"unknown gate kind {kind!r}")
        elif not isinstance(target, int):
            raise ValueError(f"{kind} gates need an integer target, got {target!r}")
        elif kind == "cr" and not controls:
            raise ValueError("cr gates need at least one control")
        elif kind != "cr" and controls:
            raise ValueError(f"{kind} gates take no controls")
        elif target in controls:
            raise ValueError(f"control {target} equals the target")
        elif len(set(controls)) < len(controls):
            raise ValueError(f"repeated control in {controls}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")

    def inverse(self) -> "GateSpec":
        if self.kind in ("r", "cr"):
            return GateSpec(self.kind, self.target, self.controls, -self.theta)
        if self.kind == "iqft":
            return GateSpec("qft")
        if self.kind == "qft":
            return GateSpec("iqft")
        return self  # h, z and diffusion are their own inverses


@dataclass(frozen=True, slots=True)
class PhaseLayer:
    """A_y's phase rotations for polynomial ``p`` at threshold ``y``: first
    the constant p.constant_term - y, uncontrolled and only when non-zero,
    then the other terms in graded order (``p.sorted_terms``).  A term with
    coefficient c has theta = 2 pi c / 2^m and applies R(2^(m-1-j) * theta)
    to value qubit j, controlled on its support.  The rotations are diagonal
    and commute, so the layer is one record; ``sign`` = -1 negates every
    theta, which is the inverse, exactly."""

    p: BinaryPolynomial
    y: float
    sign: int = 1

    def blocks(self, m: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """Each term's controls and theta, in gate order."""
        const = self.p.constant_term - self.y
        terms = [((), const)] if const != 0.0 else []
        terms += [t for t in self.p.sorted_terms() if t[0]]
        coeffs = np.array([c for _, c in terms], dtype=np.float64)
        return [s for s, _ in terms], self.sign * (2.0 * math.pi * coeffs / 2.0 ** m)

    def expand(self, n_key: int, m: int) -> tuple[GateSpec, ...]:
        """The layer's ``r``/``cr`` gates, each term's m on value qubits
        n_key + j for j = 0..m-1."""
        controls, thetas = self.blocks(m)
        scale = [2.0 ** (m - 1 - j) for j in range(m)]
        # positional: keywords cost about as much again as GateSpec's checks
        return tuple(GateSpec("cr" if c else "r", n_key + j, c, w * theta)
                     for c, theta in zip(controls, thetas.tolist()) for j, w in enumerate(scale))

    def inverse(self) -> "PhaseLayer":
        return PhaseLayer(self.p, self.y, -self.sign)


Op = GateSpec | PhaseLayer


@dataclass(frozen=True)
class CircuitSpec:
    n_key: int
    m_val: int
    ops: tuple[Op, ...]  # an explicit gate list is ops without a layer
    # the simulation plan ``simulator.apply`` compiles on first use; it lives
    # as long as the circuit and takes no part in equality, hashing or repr
    plan: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def n_qubits(self) -> int:
        return self.n_key + self.m_val

    def __post_init__(self):
        if self.n_key < 0 or self.m_val < 0:
            raise ValueError(f"register widths must be nonnegative, got n_key={self.n_key}, "
                             f"m_val={self.m_val}")
        total = self.n_key + self.m_val
        for op in self.ops:
            if isinstance(op, PhaseLayer):
                if op.p.n_vars > self.n_key:
                    raise ValueError(f"layer on variables 0..{op.p.n_vars - 1} outside the "
                                     f"key register 0..{self.n_key - 1}")
                continue
            for q in (() if op.target is None else (op.target,)) + op.controls:
                if not 0 <= q < total:
                    raise ValueError(f"gate {op} references qubit {q} outside 0..{total - 1}")

    @cached_property
    def gates(self) -> tuple[GateSpec, ...]:
        """``ops`` with every phase layer expanded into its gates; built on
        first access and kept outside equality, hashing and repr."""
        gates: list[GateSpec] = []
        for op in self.ops:
            if isinstance(op, PhaseLayer):
                gates.extend(op.expand(self.n_key, self.m_val))
            else:
                gates.append(op)
        return tuple(gates)

    def inverse(self) -> "CircuitSpec":
        """The ops in reverse order, each inverted; a layer inverts as a
        whole, so its rotations keep their order (they commute)."""
        return CircuitSpec(
            self.n_key, self.m_val, tuple(op.inverse() for op in reversed(self.ops))
        )


# -- register sizing ----------------------------------------------------


def _width(lo: float, hi: float) -> int:
    """Smallest m >= 1 with -2^(m-1) <= v < 2^(m-1) for v = lo and v = hi,
    hence for every value between them.  ``math.frexp`` writes v as f * 2^e
    with 1/2 <= |f| < 1, so v < 2^e, and v >= -2^(e-1) only when f = -1/2;
    m is at most 128."""
    m = 1
    for v in (lo, hi):
        f, e = math.frexp(v)
        w = e if f == -0.5 else e + 1
        if not math.isfinite(v) or w > 128:
            raise ValueError(f"value {v} not representable")
        m = max(m, w)
    return m


def value_register_width(p: BinaryPolynomial) -> int:
    """Width m such that every coefficient and the interval-arithmetic
    value range fit the two's complement.  Each non-constant term adds 0 or
    its coefficient, so every value lies between the constant plus the
    negative coefficients and the constant plus the positive ones."""
    const = p.constant_term
    lo = const + sum(min(0.0, c) for s, c in p.terms.items() if s)
    hi = const + sum(max(0.0, c) for s, c in p.terms.items() if s)
    values = np.fromiter((lo, hi, *p.terms.values()), np.float64)
    return _width(values.min(), values.max())  # numpy's extremes keep a NaN


def coefficient_width(p: BinaryPolynomial, y: float = 0.0) -> int:
    """Smallest m admitting every coefficient (constant folded with -y).

    This is how the reference binary-encoding circuits are sized: value-range
    overflow is tolerated because each measured key is valued exactly from
    the classical value table before the threshold moves.
    """
    values = np.fromiter(p.terms.values(), np.float64, len(p.terms))
    if () in p.terms:
        # a Python float difference overflows to inf without numpy's warning
        values[list(p.terms).index(())] = p.terms[()] - float(y)
    else:
        values = np.append(values, 0.0 - y)
    return _width(values.min(), values.max())  # numpy's extremes keep a NaN


def _closed_form_width(n_ap: int, n_ch: int, d_sum: float, w: float, binary: bool) -> int:
    """The paper's width, ceil(log2 max(E)) plus the sign bit, and the sign
    bit alone when max(E) <= 1/2, with max(E) = D_sum for the binary
    encodings and N_CH * D_sum + w * N_AP * (N_CH - 1)^2 for one-hot.  When
    max(E) is a power of two the register stops one short of it: at 4 x 2
    under the uniform table max(E) = 16 and m = 5, where
    ``value_register_width`` gives 6.  The formula is kept as the paper
    states it."""
    max_e = d_sum if binary else n_ch * d_sum + w * n_ap * (n_ch - 1) ** 2
    return max(1, math.ceil(math.log2(max_e)) + 1)


def formulation_width(form: Formulation) -> int:
    """Value-register width used when compiling a formulation: the paper's
    one-hot width at the formulation's own D_sum and penalty, and the
    coefficient width for the binary encodings."""
    if form.encoding is Encoding.ONE_HOT:
        return _closed_form_width(form.n_ap, form.n_ch, form.d_sum, form.penalty, binary=False)
    return coefficient_width(form.objective)


# -- circuit construction -------------------------------------------------


def build_state_prep(p: BinaryPolynomial, y: float, m: int) -> CircuitSpec:
    """The operator A_y for polynomial p at threshold y with an m-qubit
    value register: n + m Hadamards, one ``PhaseLayer(p, y)`` and the IQFT,
    whatever the term count."""
    if m < 1:
        raise ValueError(f"the value register needs at least the sign qubit, got m={m}")
    n = p.n_vars
    limit = 2.0 ** (m - 1)
    const = p.constant_term - y
    values = np.append(np.fromiter(p.terms.values(), np.float64, len(p.terms)), const)
    if not (-limit <= values.min() and values.max() < limit):  # also when one is NaN
        # the values include p's own constant, which the scan skips: it is in const
        for label, coeff in [("constant-y", const), *p.terms.items()]:
            if label and not -limit <= coeff < limit:
                raise ValueError(
                    f"coefficient {coeff} ({label}) outside [-2^{m - 1}, 2^{m - 1}) for m={m}"
                )

    ops = (*(GateSpec("h", target=q) for q in range(n + m)), PhaseLayer(p, y), GateSpec("iqft"))
    return CircuitSpec(n_key=n, m_val=m, ops=ops)


def build_grover(a: CircuitSpec) -> CircuitSpec:
    """One Grover operator G = A_y D A_y^dagger O, from the state preparation
    ``a`` = ``build_state_prep(p, y, m)``.

    O is a Z on the sign qubit; D reflects about the all-zero state of the
    full register (global phase ignored).
    """
    ops = (GateSpec("z", target=a.n_key), *a.inverse().ops, GateSpec("diffusion"), *a.ops)
    return CircuitSpec(n_key=a.n_key, m_val=a.m_val, ops=ops)


# -- resource accounting --------------------------------------------------


def cnot_cost(arity: int) -> int:
    """CNOTs after decomposing a phase rotation with ``arity`` controls:
    2 for a singly controlled rotation, 6(k-1) for k >= 2, none uncontrolled."""
    if arity == 0:
        return 0
    if arity == 1:
        return 2
    return 6 * (arity - 1)


@dataclass(frozen=True)
class ResourceReport:
    n_key: int
    m_val: int
    h_count: int
    r_count: int                      # uncontrolled phase rotations
    cr_counts: dict[int, int]         # control arity k >= 1 -> gate count
    iqft_count: int

    @property
    def n_qubits(self) -> int:
        return self.n_key + self.m_val

    def cr(self, k: int) -> int:
        return self.cr_counts.get(k, 0)

    @property
    def max_arity(self) -> int:
        return max(self.cr_counts, default=0)

    @property
    def ancillae(self) -> int:
        """Work qubits of the multi-control decomposition: one fewer than
        the largest control count."""
        return max(0, self.max_arity - 1)

    @property
    def cnot_count(self) -> int:
        """CNOTs after decomposing every controlled rotation (``cnot_cost``)."""
        return sum(cnot_cost(k) * count for k, count in self.cr_counts.items())


def enumerate_resources(c: CircuitSpec) -> ResourceReport:
    """Gate histogram of a state-preparation circuit (the dominant block of
    each search iteration), counted per op.  Every phase rotation goes into
    one histogram by its number of controls: a phase layer adds m times the
    histogram of its terms' degrees, its non-zero constant at arity 0, and
    an ``r``/``cr`` gate adds one.  Arity 0 is ``r_count``."""
    h = iqft = 0
    arity: Counter[int] = Counter()
    for g in c.ops:
        if isinstance(g, PhaseLayer):
            degrees = Counter(map(len, g.p.terms))
            degrees[0] = int(g.p.constant_term - g.y != 0.0)  # the constant folded with -y
            for k, count in degrees.items():
                arity[k] += count * c.m_val
        elif g.kind in ("r", "cr"):
            arity[len(g.controls)] += 1
        elif g.kind == "h":
            h += 1
        elif g.kind in ("iqft", "qft"):
            iqft += 1
        # z/diffusion appear only in full Grover operators, outside this scope
    return ResourceReport(
        n_key=c.n_key,
        m_val=c.m_val,
        h_count=h,
        r_count=arity.pop(0, 0),
        cr_counts={k: arity[k] for k in sorted(arity) if arity[k]},
        iqft_count=iqft,
    )


def closed_form_resources(
    n_ap: int, n_ch: int, d_sum: float, w: float, kind: str
) -> ResourceReport:
    """The paper's closed-form register and gate counts for a formulation
    family.  The key register is ``variable_counts``' n (one-hot) or n'
    (binary); the value register is the paper's width at the given D_sum and
    penalty w (``_closed_form_width``).  Gate counts are per-degree term
    counts times that width.  A D_sum or w that is not finite and positive
    raises ``ValueError`` for every kind, as the builders refuse such a
    penalty whether or not the width reads it.

    Both binary kinds share the ascending term counts.  Against the
    objective at D_ik = w = 1 they are exact for the ascending encoding at
    N_AP >= 3 and for both kinds at a power-of-two N_CH, where every slot row
    is a codeword.  Elsewhere they are upper bounds: the descending
    expansion is smaller at every other N_CH, and at N_AP = 2 some
    single-AP coefficients of the ascending one cancel (2x7: 20 degree-3
    terms counted, 18 in the objective).
    """
    binary = Encoding(kind).is_binary
    n_ap, n_ch = operator.index(n_ap), operator.index(n_ch)
    if n_ap < 2:
        raise ValueError(f"a closed form needs at least 2 access points, got {n_ap}")
    if d_sum <= 0:
        raise ValueError("d_sum must be positive")
    if not math.isfinite(d_sum):
        raise ValueError(f"d_sum must be finite, got {d_sum}")
    check_penalty(w)
    vc = variable_counts(n_ap, n_ch)
    n = vc.n_prime if binary else vc.n
    beta = _closed_form_width(n_ap, n_ch, d_sum, w, binary)
    pairs = math.comb(n_ap, 2)
    if binary:
        # C(N_B, k) is 0 past N_B; k = 1 and 2 give N and C(N, 2)
        n_b = bits_per_channel(n_ch)
        counts = ((k, pairs * math.comb(2 * n_b, k) - n_ap * (n_ap - 2) * math.comb(n_b, k))
                  for k in range(1, 2 * n_b + 1))
        cr = {k: count * beta for k, count in counts if count}
    else:
        cr = {1: n * beta, 2: (n_ch * pairs + n_ap * math.comb(n_ch, 2)) * beta}
    return ResourceReport(
        n_key=n, m_val=beta, h_count=n + beta, r_count=beta, cr_counts=cr, iqft_count=1,
    )


def formulation_resources(form: Formulation) -> ResourceReport:
    """Enumerated report for a formulation's state-preparation circuit."""
    m = formulation_width(form)
    return enumerate_resources(build_state_prep(form.objective, 0.0, m))
