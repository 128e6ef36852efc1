"""Execution backends for the search circuits.

Two backends with different fidelity/cost trade-offs:

* ``StateVector`` + ``apply``: exact unitary simulation of a CircuitSpec.
  The basis index is key * 2^m + value, i.e. key qubits occupy the high
  bits (key qubit 0 most significant) and the value register the low bits
  (value qubit 0 = sign bit at position m-1).  Capped at 24 qubits, where
  one state is 256 MB.  ``apply`` compiles a circuit once into numpy steps
  (see ``_compile``), in which the Grover operator is its oracle and one
  O(2^N) reflection; ``prepare`` applies a circuit to |0...0>.

* ``IdealSampler``: statistically exact amplification outcomes assuming a
  perfect integer value encoding.  With t of N keys marked, one preparation
  followed by L Grover operators yields a marked key with probability
  sin^2((2L+1) asin(sqrt(t/N))), uniform within the marked set.  This needs
  only the classical value table, never a 2^(n+m) state.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .circuits import CircuitSpec, GateSpec
from .poly import BinaryPolynomial, BitVector, CapExceededError, int_to_bits

DEFAULT_QUBIT_CAP = 24


def _check_cap(n_qubits: int, cap: int) -> None:
    if n_qubits > cap:
        raise CapExceededError(f"{n_qubits} qubits above the simulation cap of {cap}")


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        """|0...0> on ``n_qubits``; raises ``CapExceededError`` above the
        simulation cap before allocating the 2^n amplitudes."""
        _check_cap(n_qubits, DEFAULT_QUBIT_CAP)
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n_qubits=n_qubits, amplitudes=amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _apply_h(amps: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    before = 1 << qubit
    after = 1 << (n_qubits - 1 - qubit)
    a = amps.reshape(before, 2, after)
    top, bot = a[:, 0, :], a[:, 1, :]
    old_top = top.copy()  # in place but for this half array
    inv = 1.0 / math.sqrt(2.0)
    top += bot
    top *= inv
    np.subtract(old_top, bot, out=bot)
    bot *= inv
    return a.reshape(-1)


def _phase_diagonal(gates: Iterable[GateSpec], n_qubits: int) -> np.ndarray:
    """The diagonal exp(i * phase) of a run of ``r``/``cr`` gates.

    Each gate's angle is added, in gate order, at the index of its qubit mask
    (target plus controls).  A gate acts on the basis states whose index
    covers its mask, so one subset-sum (zeta) pass over the 2^N-cube turns
    these coefficients into the total angle of every basis state.
    """
    weight = [1 << (n_qubits - 1 - q) for q in range(n_qubits)]  # qubit 0 most significant
    phase = np.zeros(1 << n_qubits)
    for g in gates:
        mask = weight[g.target]
        for q in g.controls:
            mask |= weight[q]
        phase[mask] += g.theta
    cube = phase.reshape((2,) * n_qubits)
    for q in range(n_qubits):
        cube[(slice(None),) * q + (1,)] += cube[(slice(None),) * q + (0,)]
    return np.exp(1j * phase)


_INVERSE_KIND = {"iqft": "qft", "qft": "iqft"}


def _undoes(a: GateSpec, b: GateSpec) -> bool:
    """Whether ``a`` is ``b.inverse()``, compared field by field rather than
    built: only the QFT pair changes kind, and angles (0 but for ``r``/``cr``) flip."""
    return (a.kind == _INVERSE_KIND.get(b.kind, b.kind) and a.target == b.target
            and a.controls == b.controls and a.theta == -b.theta)


def _compile(c: CircuitSpec) -> tuple[tuple[str, object], ...]:
    """The steps ``apply`` runs for ``c``, each a (kernel, argument) pair.

    * ``reflect``: a ``diffusion`` D inside a mirror X^dagger D X (in gate
      order), where the j-th gate before D inverts the j-th gate after it,
      is 2|psi><psi| - I with psi = X|0>.  The longest mirror around each D
      becomes one step holding psi, so G = A_y D A_y^dagger O compiles to
      ``z``, ``reflect``.
    * ``phase``: multiply by the diagonal of a run of ``r``/``cr`` gates.
    * ``h``/``z`` take their target qubit; ``iqft``/``qft`` (an orthonormal
      FFT along the value register) and a ``diffusion`` with no mirror take
      nothing.
    """
    gates, steps, start = c.gates, [], 0

    def emit(run_of_gates):
        for phase, run in itertools.groupby(run_of_gates, key=lambda g: g.kind in ("r", "cr")):
            if phase:
                steps.append(("phase", _phase_diagonal(run, c.n_qubits)))
            else:
                steps.extend((g.kind, g.target) for g in run)

    for d, g in enumerate(gates):
        if d < start or g.kind != "diffusion":
            continue
        k = 0  # the mirror's half-width
        while (start < d - k and d + k + 1 < len(gates)
               and _undoes(gates[d - k - 1], gates[d + k + 1])):
            k += 1
        if k:
            emit(gates[start:d - k])
            x = CircuitSpec(c.n_key, c.m_val, gates[d + 1:d + k + 1])
            steps.append(("reflect", prepare(x).amplitudes))
            start = d + k + 1
    emit(gates[start:])
    return tuple(steps)


def _run(c: CircuitSpec, amps: np.ndarray, from_zero: bool = False) -> StateVector:
    """Run ``c``'s plan, compiled on first use and kept as ``c.plan``, on
    ``amps``, which it may overwrite.  ``from_zero`` says ``amps`` is
    |0...0>: a plan opening with a Hadamard on every qubit once then starts
    from the uniform state, written with the bits those passes give."""
    if c.plan is None:
        object.__setattr__(c, "plan", _compile(c))
    n_total, m, steps = c.n_qubits, c.m_val, c.plan
    if from_zero and sorted(q for op, q in steps[:n_total] if op == "h") == list(range(n_total)):
        amp, inv = 1.0, 1.0 / math.sqrt(2.0)
        for _ in range(n_total):
            amp *= inv  # rounded as each Hadamard pass rounds it
        amps.fill(amp)
        steps = steps[n_total:]
    for op, arg in steps:
        if op == "phase":
            amps *= arg
        elif op == "reflect":
            np.subtract(arg * (2.0 * np.vdot(arg, amps)), amps, out=amps)
        elif op == "h":
            amps = _apply_h(amps, arg, n_total)
        elif op == "z":
            amps.reshape(1 << arg, 2, -1)[:, 1, :] *= -1.0
        elif op == "iqft":
            # exp(-2 pi i jk / 2^m) / sqrt(2^m): numpy's forward transform
            amps = np.fft.fft(amps.reshape(-1, 1 << m), axis=1, norm="ortho").reshape(-1)
        elif op == "qft":
            amps = np.fft.ifft(amps.reshape(-1, 1 << m), axis=1, norm="ortho").reshape(-1)
        else:  # diffusion
            first = amps[0]
            amps = -amps
            amps[0] = first

    out = StateVector(n_qubits=n_total, amplitudes=amps)
    if not math.isclose(out.norm(), 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError(f"norm drifted to {out.norm()}")
    return out


def apply(c: CircuitSpec, s: StateVector, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Apply a circuit to a state; returns a new state, ``s`` is not changed.

    The first call compiles the circuit into steps (see ``_compile``) and
    keeps them on it as ``c.plan``; every later call reuses them.  Raises
    ``ValueError`` when the state does not fit the circuit or its norm drifts
    from 1, and ``CapExceededError`` above ``cap`` qubits.
    """
    if s.n_qubits != c.n_qubits:
        raise ValueError(f"state has {s.n_qubits} qubits, circuit needs {c.n_qubits}")
    _check_cap(c.n_qubits, cap)
    return _run(c, s.amplitudes.copy())


def prepare(c: CircuitSpec) -> StateVector:
    """``c`` applied to |0...0>, as ``apply(c, StateVector.zero(c.n_qubits))``
    gives it, without the Hadamard passes of an opening layer."""
    return _run(c, StateVector.zero(c.n_qubits).amplitudes, from_zero=True)


@dataclass(frozen=True)
class SampleOutcome:
    key_bits: BitVector
    value_bits: BitVector
    decoded_value: int  # two's-complement read of the value register

    @classmethod
    def from_index(cls, index: int, n_key: int, m_val: int) -> "SampleOutcome":
        value = index & ((1 << m_val) - 1)
        key = index >> m_val
        decoded = value - (1 << m_val) if value >= (1 << (m_val - 1)) else value
        return cls(
            key_bits=int_to_bits(key, n_key),
            value_bits=int_to_bits(value, m_val),
            decoded_value=decoded,
        )


def sample(
    s: StateVector, rng: np.random.Generator, n_key: int, m_val: int
) -> SampleOutcome:
    """Draw one computational-basis outcome and split it into registers."""
    probs = s.probabilities()
    probs = probs / probs.sum()
    index = int(rng.choice(probs.size, p=probs))
    return SampleOutcome.from_index(index, n_key, m_val)


def marked_probability(s: StateVector, marked_keys: np.ndarray, m_val: int) -> float:
    """Total probability that the measured key falls in ``marked_keys``."""
    probs = s.probabilities().reshape(-1, 1 << m_val).sum(axis=1)
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
    only if it needs one.  Build one sampler per polynomial and share it
    between runs: the table also gives the objective's range,
    ``sorted_values[0]`` to ``sorted_values[-1]``.
    """

    def __init__(self, p: BinaryPolynomial, cap: int = DEFAULT_QUBIT_CAP):
        if p.n_vars > cap:
            raise CapExceededError(f"n_vars={p.n_vars} above the ideal-backend cap {cap}")
        self.n_vars = p.n_vars
        self.values = p.evaluate_all()
        self.order = np.argsort(self.values, kind="stable")
        self.sorted_values = self.values[self.order]

    @property
    def n_states(self) -> int:
        return 1 << self.n_vars

    def marked_count(self, y: float) -> int:
        return int(np.searchsorted(self.sorted_values, y, side="left"))

    def sample(self, y: float, l_ops: int, rng: np.random.Generator) -> int:
        """Index of the key measured after one preparation and ``l_ops``
        Grover operators at threshold ``y``."""
        t = self.marked_count(y)
        n = self.n_states
        p_marked = amplified_probability(t, n, l_ops)
        if t == n or rng.random() < p_marked:
            pick = self.order[int(rng.integers(t))]
        else:
            pick = self.order[t + int(rng.integers(n - t))]
        return int(pick)

