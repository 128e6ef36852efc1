"""Execution backends for the search circuits.

A backend is a sampler whose ``sample(y, l_ops, rng)`` returns the index of
the key measured after A_y and ``l_ops`` Grover operators.  Two samplers with
different fidelity/cost trade-offs:

* ``IdealSampler``: statistically exact amplification outcomes assuming a
  perfect integer value encoding.  With t of N keys marked, one preparation
  followed by L Grover operators yields a marked key with probability
  sin^2((2L+1) asin(sqrt(t/N))), uniform within the marked set.  This needs
  only the classical value table, never a 2^(n+m) state.

* ``StateVectorSampler``: the draw simulated exactly with ``apply``, a
  unitary simulation of a CircuitSpec.  A state is the complex128 array of
  its 2^N amplitudes (``zero_state`` allocates |0...0>).  The basis index is
  key * 2^m + value, i.e. key qubits occupy the high bits (key qubit 0 most
  significant) and the value register the low bits (value qubit 0 = sign bit
  at position m-1).  Capped at 24 qubits, where one state is 256 MB.
  ``apply`` compiles a circuit once into numpy steps (see ``_compile``).
  A_y|0> puts 2^-n on every key, so an L = 0 draw reads that uniform
  distribution and simulates nothing.  For L >= 1 the sampler writes
  psi = A_y|0> straight from the value table, since A_y puts E(x) - y into
  the value register, one row per distinct value, and runs each Grover
  operator as its oracle and one O(2^N) reflection about that psi.  A draw
  reads only the key distribution (``key_cdf``) of G^L psi, which depends
  on (y, L) alone, so the sampler keeps a bounded memo of them and
  simulates each (y, L) once while its entry lives.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

import numpy as np

from .circuits import CircuitSpec, Op, PhaseLayer, build_grover, build_state_prep, coefficient_width
from .poly import BinaryPolynomial, CapExceededError

DEFAULT_QUBIT_CAP = 24
_BLOCK = 1 << 13  # amplitudes per step of the blocked kernels, ``reflect`` and ``z``


def _check_cap(n_qubits: int) -> None:
    if n_qubits > DEFAULT_QUBIT_CAP:
        raise CapExceededError(f"{n_qubits} qubits above the simulation cap of {DEFAULT_QUBIT_CAP}")


def zero_state(n_qubits: int) -> np.ndarray:
    """The 2^n amplitudes of |0...0> on ``n_qubits``; raises
    ``CapExceededError`` above the simulation cap before allocating them."""
    _check_cap(n_qubits)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return amps


def _apply_h(amps: np.ndarray, qubit: int) -> np.ndarray:
    a = amps.reshape(1 << qubit, 2, -1)
    top, bot = a[:, 0, :], a[:, 1, :]
    inv = 1.0 / math.sqrt(2.0)
    return np.stack(((top + bot) * inv, (top - bot) * inv), axis=1).reshape(-1)


def _phase_diagonal(run: Iterable[Op], n_key: int, m_val: int) -> np.ndarray:
    """The diagonal exp(i * phase) of a run of ``r``/``cr`` gates and phase
    layers on ``n_key`` + ``m_val`` qubits.

    Every rotation's angle is added, in gate order (a layer's terms in its
    order, each term's m rotations in value-qubit order), at the index of its
    qubit mask (target plus controls); one in-order ``np.add.at`` scatters
    them all.  A rotation acts on the basis states whose index covers its
    mask, so one subset-sum (zeta) pass over the 2^N-cube turns these
    coefficients into the total angle of every basis state.
    """
    n_qubits = n_key + m_val
    weight = [1 << (n_qubits - 1 - q) for q in range(n_qubits)]  # qubit 0 most significant
    value_weight = np.array(weight[n_key:], dtype=np.int64)  # also each term's 2^(m-1-j)
    masks, angles = [], []
    for is_layer, ops in itertools.groupby(run, key=lambda op: isinstance(op, PhaseLayer)):
        if is_layer:
            for layer in ops:
                supports, theta = layer.blocks(m_val)
                controls = np.array([sum(weight[q] for q in s) for s in supports], dtype=np.int64)
                masks.append((controls[:, None] | value_weight).ravel())
                angles.append((theta[:, None] * value_weight.astype(float)).ravel())
        else:
            ops = list(ops)
            masks.append(np.array([sum(weight[q] for q in (op.target, *op.controls)) for op in ops],
                                  dtype=np.int64))
            angles.append(np.array([op.theta for op in ops]))
    phase = np.zeros(1 << n_qubits)
    np.add.at(phase, np.concatenate(masks), np.concatenate(angles))
    cube = phase.reshape((2,) * n_qubits)
    for q in range(n_qubits):
        cube[(slice(None),) * q + (1,)] += cube[(slice(None),) * q + (0,)]
    return np.exp(1j * phase)


def _is_phase(op: Op) -> bool:
    return isinstance(op, PhaseLayer) or op.kind in ("r", "cr")


def _compile(c: CircuitSpec) -> tuple[tuple[str, object], ...]:
    """The steps ``apply`` runs for ``c``, each a (kernel, argument) pair:
    ``phase`` multiplies by the diagonal of a run of ``r``/``cr`` gates and
    phase layers, ``h``/``z`` take their target qubit, and ``iqft``/``qft``
    (an orthonormal FFT along the value register) and ``diffusion`` take
    nothing.

    ``apply`` has one more kernel, ``reflect``, which takes psi and applies
    2|psi><psi| - I; no circuit compiles to it, but ``StateVectorSampler``
    gives G = A_y D A_y^dagger O the plan ``z``, ``reflect`` about A_y|0>.
    """
    steps = []
    for phase, run in itertools.groupby(c.ops, key=_is_phase):
        if phase:
            steps.append(("phase", _phase_diagonal(run, c.n_key, c.m_val)))
        else:
            steps.extend((g.kind, g.target) for g in run)
    return tuple(steps)


def _checked(amps: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(amps))
    if not math.isclose(norm, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError(f"norm drifted to {norm}")
    return amps


def apply(c: CircuitSpec, amps: np.ndarray) -> np.ndarray:
    """Apply a circuit to the 2^N amplitudes of a state; returns a new
    complex128 array, real or complex ``amps`` is not changed.

    The first call compiles the circuit into steps (see ``_compile``) and
    keeps them on it as ``c.plan``; every later call reuses them.  Raises
    ``ValueError`` when the state does not fit the circuit or its norm drifts
    from 1, and ``CapExceededError`` above the simulation cap.
    """
    _check_cap(c.n_qubits)
    if amps.size != 1 << c.n_qubits:
        raise ValueError(f"state has {amps.size} amplitudes, circuit needs {1 << c.n_qubits}")
    if c.plan is None:
        object.__setattr__(c, "plan", _compile(c))
    m = c.m_val
    amps = amps.astype(np.complex128)  # a copy, complex even for real input
    for op, arg in c.plan:
        if op == "phase":
            amps *= arg
        elif op == "reflect":
            # a block at a time, so the scaled psi is never a full-size
            # temporary that each Grover operator frees and faults back in
            scale = 2.0 * np.vdot(arg, amps)
            for lo in range(0, amps.size, _BLOCK):
                block = amps[lo:lo + _BLOCK]
                np.subtract(arg[lo:lo + _BLOCK] * scale, block, out=block)
        elif op == "h":
            amps = _apply_h(amps, arg)
        elif op == "z":
            # row blocks: numpy buffers the strided half it negates, so one
            # pass over every row would take a quarter of an array
            rows = amps.reshape(1 << arg, 2, -1)
            step = max(1, _BLOCK // rows[0].size)
            for lo in range(0, rows.shape[0], step):
                rows[lo:lo + step, 1, :] *= -1.0
        elif op == "iqft":
            # exp(-2 pi i jk / 2^m) / sqrt(2^m): numpy's forward transform
            amps = np.fft.fft(amps.reshape(-1, 1 << m), axis=1, norm="ortho").reshape(-1)
        elif op == "qft":
            amps = np.fft.ifft(amps.reshape(-1, 1 << m), axis=1, norm="ortho").reshape(-1)
        else:  # diffusion
            first = amps[0]
            amps = -amps
            amps[0] = first
    return _checked(amps)


def key_cdf(amps: np.ndarray, m: int = 0) -> np.ndarray:
    """The cumulative distribution of the keys measured on the state ``amps``,
    a key being the index over the low ``m`` qubits: entry k is the chance
    that the index lies in rows 0..k of 2^m amplitudes.  With ``m`` = 0 a
    key is the index.

    The cumulative sums are monotone, so the first index above a uniform u
    lies in row k exactly when row k's end is the first row end above u:
    ``sample(key_cdf(amps, m), rng) == sample(key_cdf(amps), rng) >> m``,
    from the same draw.
    """
    # the bits ``rng.choice(p.size, p=p)`` searches, in one half-size array:
    # |a|^2 squares |a| and the cumulative sum (``cumsum``'s own kernel) runs
    # in place, with the bits of the out-of-place forms
    p = np.abs(amps)
    np.multiply(p, p, out=p)
    p /= p.sum()
    np.add.accumulate(p, out=p)
    p /= p[-1]
    return p[(1 << m) - 1::1 << m].copy() if m else p


def sample(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one entry of a cumulative distribution such as ``key_cdf``'s:
    the index ``rng.choice`` returns and the one uniform draw it makes,
    without its validation passes."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def marked_probability(amps: np.ndarray, marked_keys: np.ndarray, m_val: int) -> float:
    """Total probability that the key measured on the state ``amps`` falls in
    ``marked_keys``."""
    probs = (np.abs(amps) ** 2).reshape(-1, 1 << m_val).sum(axis=1)
    return float(probs[marked_keys].sum())


# -- analytic backend -----------------------------------------------------


def amplified_probability(t: int, n_states: int, l_ops: int) -> float:
    """Probability of landing in a t-element marked set after one preparation
    and l Grover operators."""
    if not 0 <= t <= n_states:
        raise ValueError("marked count out of range")
    if t == 0:
        return 0.0
    theta = math.asin(math.sqrt(t / n_states))
    return math.sin((2 * l_ops + 1) * theta) ** 2


class IdealSampler:
    """Amplification outcomes for a polynomial from its classical value table.

    The value table over all 2^n keys is computed once, at construction, and
    sorted; each threshold then costs a binary search plus an O(1) draw.
    ``sample`` returns the drawn key as an integer index into ``values``
    (x_0 most significant, as in ``evaluate_all``), so the caller reads the
    key's exact objective value from the table and builds its bit vector
    only if it needs one.  Which key of a group of equal values a draw
    returns is ``np.argsort``'s choice; the drawn value is exact, and only
    the value moves a search.  Build one sampler per polynomial and share it
    between runs: the table also gives the objective's range,
    ``sorted_values[0]`` to ``sorted_values[-1]``.

    A search changes its threshold only on an improvement, so ``sample``
    keeps the marked count t and the angle asin(sqrt(t / 2^n)) of the last
    threshold it drew at (``threshold``); a draw at that threshold costs its
    random numbers and one sine.
    """

    def __init__(self, p: BinaryPolynomial):
        self.p, self.n_vars = p, p.n_vars
        self.values = p.evaluate_all()
        self.order = np.argsort(self.values)
        self.sorted_values = self.values[self.order]
        self.threshold = (math.nan, 0, 0.0)  # (y, t, theta); NaN matches no y

    def marked_count(self, y: float) -> int:
        return int(self.sorted_values.searchsorted(y))

    def sample(self, y: float, l_ops: int, rng: np.random.Generator) -> int:
        """Index of the key measured after one preparation and ``l_ops``
        Grover operators at threshold ``y``, drawn with the random numbers
        and the probability bits ``amplified_probability`` gives."""
        at_y, t, theta = self.threshold
        if y != at_y:
            t = self.marked_count(y)
            theta = math.asin(math.sqrt(t / (1 << self.n_vars)))
            self.threshold = (y, t, theta)
        unmarked = (1 << self.n_vars) - t
        # with every key marked no u is drawn; with none, u is drawn and
        # compared with 0.0, as amplified_probability's
        if not unmarked or rng.random() < math.sin((2 * l_ops + 1) * theta) ** 2:
            return int(self.order[rng.integers(t)])
        return int(self.order[t + int(rng.integers(unmarked))])


class StateVectorSampler(IdealSampler):
    """``IdealSampler``'s draw, simulated on the search circuits' state vector.

    The value register is ``value_width`` qubits, by default
    ``coefficient_width(p)``, and wider where the constant folded with -y
    needs it; the base width is checked against the simulation cap at
    construction, before any draw.  A_y|0> puts exactly 2^-n of the key
    distribution on every key, so an L = 0 draw is the key floor(u 2^n) of
    one uniform u, the one ``sample`` of that distribution's cdf gives, and
    simulates nothing.

    Any other draw needs only the key distribution of G^L A_y|0>, which
    depends on (y, L) alone, so the sampler keeps it: ``cdfs`` maps (y, L)
    to ``key_cdf`` of that state, 2^n floats, and drops the least recently
    drawn entry past ``2 << base_m`` of them, the bytes of one state at the
    base width.  A repeated (y, L) costs one search; only a new one is
    simulated.

    For that the sampler keeps the last amplified threshold's A_y,
    psi = A_y|0>, G and the frontier G^{L_f} psi, the state furthest
    advanced at that threshold.  A_y writes E(x) - y into the value
    register, so psi comes from the value table: key x's row is the
    orthonormal FFT of exp(2 pi i (E(x) - y) k / 2^m) over k = 0..2^m-1,
    scaled by 1/sqrt(2^(n+m)), and depends on E(x) alone, so each distinct
    value's row is computed once and gathered into the state.  A_y is still
    built, as G's source; its coefficient range check cannot fail there,
    since m is at least ``coefficient_width(p, y)``.
    G = A_y D A_y^dagger O is given its plan here, its oracle ``z`` and the
    reflection 2|psi><psi| - I about the psi array already held
    (``prepared``, as is the frontier, ``front``), so each Grover
    operator costs O(2^N) and G compiles nothing.  An L at or past L_f
    advances the frontier; a smaller one starts again from psi.
    """

    def __init__(self, p: BinaryPolynomial, value_width: int | None = None):
        self.base_m = value_width if value_width is not None else coefficient_width(p)
        _check_cap(p.n_vars + self.base_m)
        super().__init__(p)
        # the distinct values, and each key's row of psi as an index into
        # them, from the sort the value table already has: np.unique's second
        # sort faults in sort kernels the search never runs, +0.15 MB of
        # solve-sv's peak RSS
        first = np.r_[True, self.sorted_values[1:] != self.sorted_values[:-1]]
        self.distinct = self.sorted_values[first]
        self.row_of = np.empty_like(self.order)
        self.row_of[self.order] = np.cumsum(first) - 1
        self.cdfs: dict[tuple[float, int], np.ndarray] = {}  # oldest draw first
        self.at_y: float | None = None
        self.prep = self.grover = self.prepared = self.front = None
        self.front_l = 0

    def sample(self, y: float, l_ops: int, rng: np.random.Generator) -> int:
        if not l_ops:
            return int(rng.random() * (1 << self.n_vars))
        cdf = self.cdfs.pop((y, l_ops), None)
        if cdf is None:
            cdf = self._simulate(y, l_ops)
            if len(self.cdfs) >= 2 << self.base_m:
                del self.cdfs[next(iter(self.cdfs))]
        self.cdfs[y, l_ops] = cdf
        return sample(cdf, rng)

    def _simulate(self, y: float, l_ops: int) -> np.ndarray:
        """The key cdf of G^L psi at threshold ``y``, for L >= 1."""
        if y != self.at_y:
            self.prepared = self.grover = self.front = None  # freed before the next psi is written
            m = max(self.base_m, coefficient_width(self.p, y))
            self.at_y, self.prep = y, build_state_prep(self.p, y, m)
            self.prepared = self._psi(y, m)
            self.front, self.front_l = self.prepared, 0
            self.grover = build_grover(self.prep)
            plan = (("z", self.prep.n_key), ("reflect", self.prepared))
            object.__setattr__(self.grover, "plan", plan)
        state, done = (self.front, self.front_l) if l_ops >= self.front_l else (self.prepared, 0)
        if l_ops > done:
            self.front = None  # so apply holds psi, the state and its copy
            for _ in range(l_ops - done):
                state = apply(self.grover, state)
            self.front, self.front_l = state, l_ops
        return key_cdf(state, self.prep.m_val)

    def _psi(self, y: float, m: int) -> np.ndarray:
        n_total, size = self.n_vars + m, 1 << m
        _check_cap(n_total)
        rows = np.zeros((self.distinct.size, size), dtype=np.complex128)
        np.multiply.outer(self.distinct - y, np.arange(size) * (2.0 * math.pi / size), out=rows.imag)
        np.exp(rows, out=rows)
        rows *= 1.0 / math.sqrt(1 << n_total)
        rows = np.fft.fft(rows, axis=1, norm="ortho")
        # the state only now, so with every value distinct psi peaks at two
        # arrays, as when each key had its own row
        amps = np.empty(1 << n_total, dtype=np.complex128)
        # "clip" takes straight into ``out``; "raise" would buffer a copy of it
        np.take(rows, self.row_of, axis=0, out=amps.reshape(-1, size), mode="clip")
        return _checked(amps)
