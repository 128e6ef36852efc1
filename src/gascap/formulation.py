"""Binary objective formulations of the channel assignment problem.

Each encoding of "AP i uses channel c" is one map from a channel to the slot
bits of an AP, ``channel_codeword``:

* one-hot: N_CH slot bits per AP, channel c sets bit c only.
* ascending binary: each AP gets N_B = ceil(log2 N_CH) slot bits spelling
  the codeword [c - 1] in big-endian binary.
* descending binary: codewords are assigned in reverse, [N_CH - c + 1]; low
  channel indices get codewords dense in ones, which shrinks the expanded
  objective (the product for an all-ones codeword is a single monomial).

AP i's slots are variables i * width .. (i + 1) * width - 1, with width N_CH
or N_B.  Every objective is sum_{i<k} d_ik P(i, k) + sum_i Q(i), where
P(i, k) is 1 exactly when APs i and k spell the same channel and the
validity penalty Q(i) is 0 exactly when AP i spells a channel:

* one-hot: P = sum_c x_ic x_kc and Q = w (sum_c x_ic - 1)^2, so the
  objective is quadratic.
* binary: P = sum_c ind_c(i) ind_c(k), with the degree-N_B codeword
  indicator ind_c(i) = prod_r (1 - b_r + (2 b_r - 1) x_ir), so co-channel
  costs become terms of degree up to 2 N_B; Q is w' times the indicator of
  each slot row that is no codeword.

``encode_assignment`` concatenates the codewords of an assignment, and
``decode`` inverts the map by looking each AP's slot row up among the N_CH
codewords; a row that is no codeword is a violation.

When N_CH is a power of two the descending map [N_CH - c + 1] is taken
mod 2^N_B (channel 1 wraps to the all-zero codeword); this keeps the map a
bijection onto the codeword set, agrees with the tabulated mapping whenever
N_CH < 2^N_B, and leaves no invalid codewords to penalize.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .cap import CapInstance, CoeffTable, coeff_table
from .poly import BinaryPolynomial, BitVector, int_to_bits


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
    n_ch = operator.index(n_ch)
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
    d_sum: float                      # the table's sum of d_ik over i < k

    def __post_init__(self):
        # a finite penalty can still overflow once scaled and summed.  The
        # sum of the coefficients is finite unless one is not (or finite ones
        # overflow it), so the terms are walked only then, to name the first
        terms = self.objective.terms
        if not math.isfinite(sum(terms.values())):
            for support, coeff in terms.items():
                if not math.isfinite(coeff):
                    raise ValueError(f"coefficient {coeff} of term {support} is not finite "
                                     f"at penalty weight {self.penalty}")

    @property
    def n_vars(self) -> int:
        return self.objective.n_vars


@dataclass(frozen=True)
class DecodeResult:
    assignment: tuple[int, ...] | None
    violations: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return self.assignment is not None


# -- codewords and indicators ------------------------------------------


def channel_codeword(c: int, n_ch: int, enc: Encoding) -> BitVector:
    """Slot bits of channel c: N_CH bits with bit c - 1 set for one-hot, the
    big-endian N_B-bit codeword [c - 1] or [N_CH - c + 1] mod 2^N_B for the
    ascending or descending binary encoding.  c and N_CH are integers."""
    c, n_ch = operator.index(c), operator.index(n_ch)
    if not 1 <= c <= n_ch:
        raise ValueError(f"channel {c} out of range 1..{n_ch}")
    if enc is Encoding.ONE_HOT:
        return tuple(int(r == c - 1) for r in range(n_ch))
    n_b = bits_per_channel(n_ch)
    value = c - 1 if enc is Encoding.BINARY_ASCENDING else (n_ch - c + 1) % (1 << n_b)
    return int_to_bits(value, n_b)


def codeword_indicator(ap: int, bits: Sequence[int], n_vars: int, slots: int) -> BinaryPolynomial:
    """Polynomial over AP ``ap``'s slot variables equal to 1 exactly when the
    slots spell ``bits``: factor x for a 1-bit, (1 - x) for a 0-bit."""
    poly = BinaryPolynomial(n_vars, {(): 1.0})
    for r, b in enumerate(bits):
        var = ap * slots + r
        factor = {(var,): 1.0} if b else {(): 1.0, (var,): -1.0}
        poly = poly.multiply(BinaryPolynomial(n_vars, factor))
    return poly


# -- builders -----------------------------------------------------------


def _templates(n_ch: int, enc: Encoding, w: float):
    """The encoding's blocks ``(width, pair, pieces)``: AP slot width, the
    co-channel indicator P of AP "0" (variables 0..width-1) and AP "1"
    (width..2 width-1), and the validity penalty Q as pieces on AP "0"."""
    if enc is Encoding.ONE_HOT:
        if n_ch < 1:
            raise ValueError("the one-hot encoding needs at least 1 channel")
        pair = {(c, n_ch + c): 1.0 for c in range(n_ch)}
        # (sum_c x - 1)^2 = 1 - sum_c x + 2 sum_{c<l} x_c x_l  on binary variables
        piece = {(): w}
        piece.update(((c,), -w) for c in range(n_ch))
        piece.update((s, 2.0 * w) for s in combinations(range(n_ch), 2))
        return n_ch, pair, [piece]
    if n_ch < 2:
        raise ValueError("binary encodings need at least 2 channels")
    n_b = bits_per_channel(n_ch)
    codewords = [channel_codeword(c, n_ch, enc) for c in range(1, n_ch + 1)]
    # P's coefficients are integers, so expanding it once gives the same bits
    # as expanding it per pair
    pair = BinaryPolynomial(2 * n_b)
    for bits in codewords:
        pair = pair.add(
            codeword_indicator(0, bits, 2 * n_b, n_b).multiply(
                codeword_indicator(1, bits, 2 * n_b, n_b)
            )
        )
    # one piece per slot row that spells no channel
    rows = (int_to_bits(value, n_b) for value in range(1 << n_b))
    pieces = [
        codeword_indicator(0, bits, n_b, n_b).scale(w).terms
        for bits in rows
        if bits not in codewords
    ]
    return n_b, pair.terms, pieces


def check_penalty(w: float) -> None:
    """Raise ``ValueError`` unless the penalty weight w is finite and
    positive."""
    if not (math.isfinite(w) and w > 0):
        raise ValueError(f"penalty weight must be finite and positive, got {w}")


def _from_table(table: CoeffTable, n_ch: int, kind: str, w: float) -> Formulation:
    """sum_{i<k} d_ik P(i, k) + sum_i Q(i) from the blocks of ``_templates``.

    Terms are added one at a time, as ``BinaryPolynomial.add`` adds them: a
    sum that is exactly zero is dropped, and a later term at that support
    goes to the end of the dict."""
    enc, n_ch = Encoding(kind), operator.index(n_ch)
    check_penalty(w)
    width, pair, pieces = _templates(n_ch, enc, float(w))  # the pieces reach the objective as built
    n_ap = table.n_ap
    # relabeling keeps each support sorted, since AP i's variables precede
    # AP k's for i < k; split each support into its AP "0" and AP "1" halves
    halves = [
        (tuple(j for j in s if j < width), tuple(j - width for j in s if j >= width))
        for s in pair
    ]
    coeffs = list(pair.values())
    low = [[tuple([i * width + j for j in lo]) for lo, _ in halves] for i in range(n_ap)]
    high = [[tuple([k * width + j for j in hi]) for _, hi in halves] for k in range(n_ap)]

    terms: dict[tuple[int, ...], float] = {}
    get, pop = terms.get, terms.pop
    # tolist gives the same floats as float(table.d[i, k])
    for i, row in enumerate(table.d.tolist()):
        for k in range(i + 1, n_ap):
            d = row[k]
            for lo, hi, v in zip(low[i], high[k], coeffs):
                s = lo + hi
                total = get(s, 0.0) + v * d
                if total == 0.0:
                    pop(s, None)
                else:
                    terms[s] = total
    # piece by piece, each to every AP in turn: the term order depends on it
    for piece in pieces:
        for i in range(n_ap):
            for p, c in piece.items():
                s = tuple([i * width + j for j in p])
                total = get(s, 0.0) + c
                if total == 0.0:
                    pop(s, None)
                else:
                    terms[s] = total

    return Formulation(
        encoding=enc,
        objective=BinaryPolynomial._wrap(n_ap * width, terms),
        penalty=w,
        n_ap=n_ap,
        n_ch=n_ch,
        d_sum=table.d_sum,
    )


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


_PAD = np.iinfo(np.int32).max  # pads a row of variables; above every index


@dataclass(frozen=True)
class Quadratization:
    poly: BinaryPolynomial
    aux_map: tuple[tuple[tuple[int, int], int], ...]  # ((var_a, var_b), aux_index)


def quadratize(p: BinaryPolynomial, scale: float) -> Quadratization:
    """Reduce to degree <= 2 by repeatedly replacing a variable pair (a, b)
    with a fresh auxiliary y and adding scale * (ab - 2ay - 2by + 3y), which
    vanishes exactly when y = ab.

    The pair in the most degree->=3 terms goes first, ties to the smallest
    (a, b).  Those terms are rows of an int32 array of variable indices,
    padded above every index.  Each variable has a boolean mask of the rows
    holding it, and the pair counts fill the upper triangle of one square
    int32 table, sized by ``p.n_vars`` (16 * n_vars**2 bytes at the start)
    and doubled as auxiliaries outgrow it, whose row-major ``argmax`` is the
    next pair.  A substitution writes y over a and the pad over b in the
    rows both masks hold, and moves the ``bincount`` of their other
    variables off (u, a) and (u, b) and, for the rows still of degree >= 3,
    onto (u, y).  A row that falls to degree 2 is (r0, y): it takes its
    term's place in the term order, stays in r0's mask alone, and joins the
    degree-2 supports that a later (a, b) can land on.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale}")
    n_vars = p.n_vars
    supports = list(p.terms)
    coeffs = list(p.terms.values())
    lens = np.fromiter(map(len, supports), np.int64, len(supports))
    high = np.flatnonzero(lens >= 3).tolist()       # the slot of each row
    if not high:
        return Quadratization(poly=BinaryPolynomial._from_canonical(n_vars, p.terms), aux_map=())
    pairs = {supports[j]: j for j in np.flatnonzero(lens == 2).tolist()}

    deg = lens[high]
    flat = np.fromiter(chain.from_iterable(map(supports.__getitem__, high)), np.int64, int(deg.sum()))
    n_rows, width = len(high), int(deg.max())
    rows = np.full((n_rows, width), _PAD, dtype=np.int32)
    rows[np.arange(width) < deg[:, None]] = flat
    held = np.zeros((n_vars, n_rows), dtype=bool)
    held[flat, np.repeat(np.arange(n_rows), deg)] = True
    masks = list(held)
    # room for as many auxiliaries as variables before the first doubling
    size = 2 * n_vars
    keys = []
    for k in range(1, width):
        filled = deg > k
        keys += (rows[filled, i].astype(np.int64) * size + rows[filled, k] for i in range(k))
    table = np.bincount(np.concatenate(keys), minlength=size * size)
    table = table.astype(np.int32).reshape(size, size)
    del flat, keys
    aux_map: list[tuple[tuple[int, int], int]] = []

    # no count is ever negative, so substitution stops once the highest is 0
    while table.flat[top := int(table.argmax())]:
        a, b = divmod(top, size)
        y = n_vars + len(aux_map)
        if y == size:
            grown = np.zeros((2 * size, 2 * size), dtype=np.int32)
            grown[:size, :size] = table
            table, size = grown, 2 * size
        aux_map.append(((a, b), y))

        hit = np.flatnonzero(masks[a] & masks[b])
        sub = rows[hit]
        sub[sub == a] = y
        sub[sub == b] = _PAD
        rows[hit] = sub
        deg[hit] -= 1
        fallen = deg[hit] < 3
        # the other variables of every hit row, and the one of each that fell
        gone = np.bincount(sub[sub < y], minlength=size)
        r0s = sub[fallen].min(axis=1)
        low = np.bincount(r0s, minlength=size)
        table[:a, a] -= gone[:a]
        table[a, a:] -= gone[a:]
        table[:b, b] -= gone[:b]
        table[b, b:] -= gone[b:]
        table[a, b] = 0
        table[:y, y] += (gone - low)[:y]
        masks[a][hit] = False
        masks[b][hit] = False
        mask_y = np.zeros(n_rows, dtype=bool)
        mask_y[hit[~fallen]] = True
        masks.append(mask_y)
        for r, r0 in zip(hit[fallen].tolist(), r0s.tolist()):
            support = supports[high[r]] = (r0, y)
            pairs[support] = high[r]

        # Only (a, b) can already be present, since y is fresh.  A sum there
        # that cancels to exactly 0.0 stays in its slot until the result's
        # dict drops it: no degree->=3 term holds both a and b any more, so
        # (a, b) is never substituted again and no later term lands on it.
        j = pairs.get((a, b))
        if j is not None:
            coeffs[j] += scale
        else:
            supports.append((a, b))
            coeffs.append(scale)
        supports += ((a, y), (b, y), (y,))
        coeffs += (-2.0 * scale, -2.0 * scale, 3.0 * scale)

    # every row has fallen, since one of degree >= 3 keeps its pairs' counts
    # above 0; the arrays are freed before the result's dict is built
    del rows, masks, table, pairs
    return Quadratization(
        poly=BinaryPolynomial._wrap(n_vars + len(aux_map), {s: c for s, c in zip(supports, coeffs) if c}),
        aux_map=tuple(aux_map),
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
    n_ap, n_ch = operator.index(n_ap), operator.index(n_ch)
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
    """Map a bit vector back to a channel assignment, or report each AP whose
    slots, read as 0/1 by truthiness, spell no channel's codeword."""
    if len(x) != form.n_vars:
        raise ValueError(f"bit vector length {len(x)} != n_vars {form.n_vars}")
    codewords = [channel_codeword(c, form.n_ch, form.encoding) for c in range(1, form.n_ch + 1)]
    channel = {cw: c for c, cw in enumerate(codewords, 1)}
    width = len(codewords[0])
    rows = [tuple(1 if b else 0 for b in x[i * width: (i + 1) * width]) for i in range(form.n_ap)]
    violations = tuple(
        f"AP {i}: slots {row} spell no channel" for i, row in enumerate(rows) if row not in channel
    )
    if violations:
        return DecodeResult(assignment=None, violations=violations)
    return DecodeResult(assignment=tuple(channel[row] for row in rows))


def encode_assignment(form: Formulation, assign: Sequence[int]) -> BitVector:
    """Bit vector representing a valid assignment under the formulation."""
    if len(assign) != form.n_ap:
        raise ValueError("assignment length mismatch")
    return tuple(chain.from_iterable(channel_codeword(c, form.n_ch, form.encoding) for c in assign))
