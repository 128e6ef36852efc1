"""Binary objective formulations of the channel assignment problem.

Three encodings of "AP i uses channel c" are supported:

* one-hot: N_CH indicator bits per AP, channel c sets bit c only.  Objective
  is quadratic; a penalty w * (sum_c x_ic - 1)^2 per AP enforces validity.
* ascending binary: each AP gets N_B = ceil(log2 N_CH) slot bits spelling
  the codeword [c - 1] in big-endian binary.
* descending binary: codewords are assigned in reverse, [N_CH - c + 1]; low
  channel indices get codewords dense in ones, which shrinks the expanded
  objective (the product for an all-ones codeword is a single monomial).

For both binary encodings the per-channel indicator is the degree-N_B product
prod_r (1 - b_r + (2 b_r - 1) x_ir), so co-channel costs become terms of
degree up to 2 N_B; codewords that decode outside 1..N_CH are penalized by
w' times their indicator.

When N_CH is a power of two the descending map [N_CH - c + 1] is taken
mod 2^N_B (channel 1 wraps to the all-zero codeword); this keeps the map a
bijection onto the codeword set, agrees with the tabulated mapping whenever
N_CH < 2^N_B, and leaves no invalid codewords to penalize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .cap import CapInstance, CoeffTable, coeff_table
from .poly import BinaryPolynomial, BitVector, bits_to_int, int_to_bits


class Encoding(Enum):
    """The three objectives, valued by their formulation kind names, so
    ``Encoding(kind)`` looks a kind up."""

    ONE_HOT = "qubo"
    BINARY_ASCENDING = "hubo-asc"
    BINARY_DESCENDING = "hubo-desc"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown formulation kind {value!r}")

    @property
    def is_binary(self) -> bool:
        return self is not Encoding.ONE_HOT

    @property
    def label(self) -> str:
        """Name written to output files: 'one_hot', 'binary_ascending' or
        'binary_descending'."""
        return self.name.lower()


def bits_per_channel(n_ch: int) -> int:
    """N_B = ceil(log2 N_CH), the slot width of the binary encodings."""
    if n_ch < 1:
        raise ValueError("n_ch must be positive")
    return max(1, (n_ch - 1).bit_length())


@dataclass(frozen=True)
class Formulation:
    encoding: Encoding
    objective: BinaryPolynomial
    penalty: float
    n_ap: int
    n_ch: int
    var_layout: dict[tuple[int, int], int] = field(compare=False)
    # var_layout keys: (ap, channel) for one-hot, (ap, slot) for binary;
    # ap is 0-based, channel/slot labels are 1-based, values are flat indices

    def __post_init__(self):
        # a finite penalty can still overflow once scaled and summed
        for support, coeff in self.objective.terms.items():
            if not math.isfinite(coeff):
                raise ValueError(f"coefficient {coeff} of term {support} is not finite "
                                 f"at penalty weight {self.penalty}")

    @property
    def n_vars(self) -> int:
        return self.objective.n_vars

    @property
    def slots_per_ap(self) -> int:
        if self.encoding is Encoding.ONE_HOT:
            return self.n_ch
        return bits_per_channel(self.n_ch)


@dataclass(frozen=True)
class DecodeResult:
    assignment: tuple[int, ...] | None
    violations: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return self.assignment is not None


# -- binary codewords and indicators -----------------------------------


def channel_codeword(c: int, n_ch: int, enc: Encoding) -> BitVector:
    """Big-endian codeword of width N_B for channel c under a binary encoding."""
    if not enc.is_binary:
        raise ValueError("codewords are defined only for binary encodings")
    if not 1 <= c <= n_ch:
        raise ValueError(f"channel {c} out of range 1..{n_ch}")
    n_b = bits_per_channel(n_ch)
    if enc is Encoding.BINARY_ASCENDING:
        value = c - 1
    else:
        value = (n_ch - c + 1) % (1 << n_b)
    return tuple((value >> (n_b - 1 - r)) & 1 for r in range(n_b))


def codeword_channel(value: int, n_ch: int, enc: Encoding) -> int:
    """Channel label a codeword integer decodes to (may fall outside 1..n_ch)."""
    n_b = bits_per_channel(n_ch)
    if enc is Encoding.BINARY_ASCENDING:
        return value + 1
    if value == 0 and n_ch == (1 << n_b):
        return 1
    return n_ch - value + 1


def codeword_indicator(ap: int, bits: Sequence[int], n_vars: int, slots: int) -> BinaryPolynomial:
    """Polynomial over AP ``ap``'s slot variables equal to 1 exactly when the
    slots spell ``bits``: factor x for a 1-bit, (1 - x) for a 0-bit."""
    poly = BinaryPolynomial.constant(1.0, n_vars)
    for r, b in enumerate(bits):
        var = ap * slots + r
        x = BinaryPolynomial.variable(var, n_vars)
        factor = x if b else BinaryPolynomial.constant(1.0, n_vars) - x
        poly = poly.multiply(factor)
    return poly


def channel_indicator(i: int, c: int, inst: CapInstance, enc: Encoding) -> BinaryPolynomial:
    """Indicator that AP i's slots spell channel c's codeword."""
    if not enc.is_binary:
        raise ValueError("channel indicators are defined only for binary encodings")
    if not 0 <= i < inst.n_ap:
        raise IndexError(f"AP index {i} out of range 0..{inst.n_ap - 1}")
    n_b = bits_per_channel(inst.n_ch)
    bits = channel_codeword(c, inst.n_ch, enc)
    return codeword_indicator(i, bits, inst.n_ap * n_b, n_b)


# -- builders -----------------------------------------------------------


def _check_penalty(w: float) -> None:
    if not (math.isfinite(w) and w > 0):
        raise ValueError(f"penalty weight must be finite and positive, got {w}")


def _qubo_from_table(table: CoeffTable, n_ch: int, w: float) -> Formulation:
    """One-hot objective: co-channel costs plus w per-AP one-hot penalties."""
    _check_penalty(w)
    if n_ch < 1:
        raise ValueError("the one-hot encoding needs at least 1 channel")
    n_ap = table.n_ap
    n_vars = n_ap * n_ch
    layout = {(i, c): i * n_ch + (c - 1) for i in range(n_ap) for c in range(1, n_ch + 1)}
    terms: dict[tuple[int, ...], float] = {}

    def bump(support: tuple[int, ...], coeff: float):
        terms[support] = terms.get(support, 0.0) + coeff

    for i in range(n_ap):
        for k in range(i + 1, n_ap):
            for c in range(1, n_ch + 1):
                bump((layout[(i, c)], layout[(k, c)]), float(table.d[i, k]))
    # (sum_c x - 1)^2 = 1 - sum_c x + 2 sum_{c<l} x_c x_l  on binary variables
    bump((), w * n_ap)
    for i in range(n_ap):
        for c in range(1, n_ch + 1):
            bump((layout[(i, c)],), -w)
        for c in range(1, n_ch + 1):
            for l in range(c + 1, n_ch + 1):
                bump(tuple(sorted((layout[(i, c)], layout[(i, l)]))), 2.0 * w)

    return Formulation(
        encoding=Encoding.ONE_HOT,
        objective=BinaryPolynomial(n_vars, terms),
        penalty=w,
        n_ap=n_ap,
        n_ch=n_ch,
        var_layout=layout,
    )


def _add_exact(terms: dict[tuple[int, ...], float], support: tuple[int, ...], coeff: float):
    """Add ``coeff`` at ``support``, dropping a sum that is exactly zero, as
    ``BinaryPolynomial.add`` does: a later term at that support goes to the
    end of the dict."""
    total = terms.get(support, 0.0) + coeff
    if total == 0.0:
        terms.pop(support, None)
    else:
        terms[support] = total


def _hubo_from_table(
    table: CoeffTable, n_ch: int, enc: Encoding, w_prime: float
) -> Formulation:
    """Binary-encoded objective of degree at most 2 N_B."""
    _check_penalty(w_prime)
    if n_ch < 2:
        raise ValueError("binary encodings need at least 2 channels")
    n_ap = table.n_ap
    n_b = bits_per_channel(n_ch)
    n_vars = n_ap * n_b
    layout = {(i, r): i * n_b + (r - 1) for i in range(n_ap) for r in range(1, n_b + 1)}
    codewords = [channel_codeword(c, n_ch, enc) for c in range(1, n_ch + 1)]

    # The co-channel indicator of a pair, sum_c [AP i on c][AP k on c], is one
    # polynomial on 2 N_B variables up to relabeling: AP "0" holds variables
    # 0..N_B-1 and AP "1" holds N_B..2N_B-1.  Its coefficients are integers,
    # so expanding it once gives the same bits as expanding it per pair.
    template = BinaryPolynomial.zero(2 * n_b)
    for bits in codewords:
        template = template.add(
            codeword_indicator(0, bits, 2 * n_b, n_b).multiply(
                codeword_indicator(1, bits, 2 * n_b, n_b)
            )
        )
    # relabeling keeps each support sorted, since AP i's variables precede
    # AP k's for i < k; split each support into its AP "0" and AP "1" halves
    halves = [
        (tuple(j for j in s if j < n_b), tuple(j - n_b for j in s if j >= n_b))
        for s in template.terms
    ]
    coeffs = list(template.terms.values())
    low = [[tuple(j + i * n_b for j in lo) for lo, _ in halves] for i in range(n_ap)]
    high = [[tuple(j + k * n_b for j in hi) for _, hi in halves] for k in range(n_ap)]

    terms: dict[tuple[int, ...], float] = {}
    for i in range(n_ap):
        for k in range(i + 1, n_ap):
            d = float(table.d[i, k])
            for lo, hi, v in zip(low[i], high[k], coeffs):
                _add_exact(terms, lo + hi, v * d)

    # penalize codewords whose decoded channel falls outside 1..n_ch
    used = {bits_to_int(cw) for cw in codewords}
    for value in range(1 << n_b):
        if value in used:
            continue
        penalty = codeword_indicator(0, int_to_bits(value, n_b), n_b, n_b).scale(w_prime)
        for i in range(n_ap):
            for s, c in penalty.terms.items():
                _add_exact(terms, tuple(j + i * n_b for j in s), c)

    return Formulation(
        encoding=enc,
        objective=BinaryPolynomial(n_vars, terms),
        penalty=w_prime,
        n_ap=n_ap,
        n_ch=n_ch,
        var_layout=layout,
    )


def _from_table(table: CoeffTable, n_ch: int, kind: str, penalty: float) -> Formulation:
    enc = Encoding(kind)
    if enc is Encoding.ONE_HOT:
        return _qubo_from_table(table, n_ch, penalty)
    return _hubo_from_table(table, n_ch, enc, penalty)


def build_formulation(
    inst: CapInstance,
    kind: str,
    penalty: float = 1.0,
    table: CoeffTable | None = None,
) -> Formulation:
    """Build by kind: 'qubo', 'hubo-asc' or 'hubo-desc' (an ``Encoding``
    value)."""
    table = table if table is not None else coeff_table(inst)
    return _from_table(table, inst.n_ch, kind, penalty)


def formulation_from_table(
    table: CoeffTable, n_ch: int, kind: str, penalty: float = 1.0
) -> Formulation:
    """Build directly from a coefficient table (used with CoeffTable.uniform
    for normalized resource analysis)."""
    return _from_table(table, n_ch, kind, penalty)


# -- quadratization -----------------------------------------------------


@dataclass(frozen=True)
class Quadratization:
    poly: BinaryPolynomial
    aux_map: tuple[tuple[tuple[int, int], int], ...]  # ((var_a, var_b), aux_index)


def _count_pairs(freq: dict[tuple[int, int], int], support: tuple[int, ...], delta: int):
    for a_pos in range(len(support)):
        for b_pos in range(a_pos + 1, len(support)):
            pair = (support[a_pos], support[b_pos])
            count = freq.get(pair, 0) + delta
            if count:
                freq[pair] = count
            else:
                del freq[pair]


def quadratize(p: BinaryPolynomial, scale: float) -> Quadratization:
    """Reduce to degree <= 2 by repeatedly replacing a variable pair (a, b)
    with a fresh auxiliary y and adding scale * (ab - 2ay - 2by + 3y), which
    vanishes exactly when y = ab.

    The pair occurring in the most degree->=3 terms is substituted first,
    ties broken lexicographically.  The pair counts are kept up to date as
    terms are rewritten, and each rewritten term keeps its place in the
    term order.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale}")
    # [support, coeff] slots in term order, and each support's slot
    slots = [[s, c] for s, c in p.terms.items()]
    index = {s: j for j, (s, _) in enumerate(slots)}
    freq: dict[tuple[int, int], int] = {}
    for s in index:
        if len(s) >= 3:
            _count_pairs(freq, s, 1)
    n_vars = p.n_vars
    aux_map: list[tuple[tuple[int, int], int]] = []

    while freq:
        a, b = max(freq, key=lambda pair: (freq[pair], -pair[0], -pair[1]))
        y = n_vars
        n_vars += 1
        aux_map.append(((a, b), y))

        for j, slot in enumerate(slots):
            s = slot[0]
            if len(s) < 3 or a not in s or b not in s:
                continue
            # y is fresh, so the rewritten support is new and y sorts last
            new = tuple(v for v in s if v != a and v != b) + (y,)
            _count_pairs(freq, s, -1)
            if len(new) >= 3:
                _count_pairs(freq, new, 1)
            del index[s]
            index[new] = j
            slot[0] = new

        # Only (a, b) can already be present, since y is fresh.  A sum there
        # that cancels to exactly 0.0 stays in its slot until BinaryPolynomial
        # drops it: no degree->=3 term holds both a and b any more, so (a, b)
        # is never substituted again and no later term lands on it.
        j = index.get((a, b))
        if j is not None:
            slots[j][1] += scale
        else:
            index[(a, b)] = len(slots)
            slots.append([(a, b), scale])
        for support, coeff in (((a, y), -2.0 * scale), ((b, y), -2.0 * scale), ((y,), 3.0 * scale)):
            index[support] = len(slots)
            slots.append([support, coeff])

    return Quadratization(
        poly=BinaryPolynomial(n_vars, dict(slots)), aux_map=tuple(aux_map)
    )


def default_quadratization_scale(p: BinaryPolynomial) -> float:
    """A penalty large enough that breaking any substitution constraint costs
    more than the higher-order terms could possibly repay.

    Each corrupted auxiliary incurs at least ``scale`` while the substituted
    monomials can shift the objective by at most twice the total magnitude of
    the degree->=3 coefficients, so this bound preserves the minimum.
    """
    high = sum(abs(c) for s, c in p.terms.items() if len(s) >= 3)
    return 1.0 + 2.0 * high


def build_quadratized(
    inst: CapInstance, penalty: float = 1.0, table: CoeffTable | None = None
) -> Quadratization:
    """The ascending binary objective reduced to degree 2 with
    ``default_quadratization_scale``, as ``formulate`` and ``solve`` use it."""
    base = build_formulation(inst, "hubo-asc", penalty, table)
    return quadratize(base.objective, default_quadratization_scale(base.objective))


# -- counting and decoding ----------------------------------------------


@dataclass(frozen=True)
class VariableCounts:
    n: int
    n_prime: int
    n_double_prime: int
    log2_search_space: float


def variable_counts(n_ap: int, n_ch: int) -> VariableCounts:
    """Binary-variable counts of the three formulations and the information
    lower bound N_AP * log2(N_CH).

    ``n = N_AP * N_CH`` counts the one-hot QUBO and ``n_prime = N_AP * N_B``
    the binary HUBO, with N_B = ceil(log2 N_CH) slot bits per AP.
    ``n_double_prime`` counts the quadratized binary HUBO,
    N_AP * (2^N_B - 1), which is N_AP * (N_CH - 1) when N_CH is a power of
    two. Always n' <= n'', with equality only at N_CH = 2: one slot bit makes
    every co-channel product degree 2 already, so quadratization adds no
    auxiliary variables. n'' <= n holds exactly when 2^N_B - 1 <= N_CH
    (strictly below for powers of two); otherwise it reverses, e.g.
    n'' = 35 > n = 25 at 5 x 5.
    """
    if n_ch < 2:
        raise ValueError("n_ch must be at least 2")
    n_b = bits_per_channel(n_ch)
    return VariableCounts(
        n=n_ap * n_ch,
        n_prime=n_ap * n_b,
        n_double_prime=n_ap * ((1 << n_b) - 1),
        log2_search_space=n_ap * math.log2(n_ch),
    )


def decode(form: Formulation, x: Sequence[int]) -> DecodeResult:
    """Map a bit vector back to a channel assignment, or report violations."""
    if len(x) != form.n_vars:
        raise ValueError(f"bit vector length {len(x)} != n_vars {form.n_vars}")
    assignment: list[int] = []
    violations: list[str] = []
    slots = form.slots_per_ap
    for i in range(form.n_ap):
        row = tuple(x[i * slots: (i + 1) * slots])
        if form.encoding is Encoding.ONE_HOT:
            ones = [c + 1 for c, bit in enumerate(row) if bit]
            if len(ones) != 1:
                violations.append(f"AP {i}: one-hot row {row} has {len(ones)} bits set")
                assignment.append(0)
            else:
                assignment.append(ones[0])
        else:
            ch = codeword_channel(bits_to_int(row), form.n_ch, form.encoding)
            if not 1 <= ch <= form.n_ch:
                violations.append(f"AP {i}: codeword {row} decodes to nonexistent channel {ch}")
                assignment.append(0)
            else:
                assignment.append(ch)
    if violations:
        return DecodeResult(assignment=None, violations=tuple(violations))
    return DecodeResult(assignment=tuple(assignment))


def encode_assignment(form: Formulation, assign: Sequence[int]) -> BitVector:
    """Bit vector representing a valid assignment under the formulation."""
    if len(assign) != form.n_ap:
        raise ValueError("assignment length mismatch")
    bits: list[int] = []
    for i, ch in enumerate(assign):
        if not 1 <= ch <= form.n_ch:
            raise ValueError(f"AP {i}: channel {ch} out of range 1..{form.n_ch}")
        if form.encoding is Encoding.ONE_HOT:
            row = [0] * form.n_ch
            row[ch - 1] = 1
            bits.extend(row)
        else:
            bits.extend(channel_codeword(ch, form.n_ch, form.encoding))
    return tuple(bits)


def dumps_formulation(form: Formulation) -> str:
    """Header line plus the polynomial dump; consumed by the CLI exports."""
    header = (
        f'# {{"encoding": "{form.encoding.label}", "n_vars": {form.n_vars}, '
        f'"penalty": {form.penalty}}}'
    )
    return header + "\n" + form.objective.dumps()
