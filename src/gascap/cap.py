"""Channel assignment problem instances and interference coefficients.

A network has N_AP access points, each serving a fixed nonempty set of user
terminals, and N_CH available channels (typically N_CH < N_AP, otherwise the
problem is trivial).  Under a pure path-loss model with exponent alpha, the
received power at AP i from its own users is sum_{u in U_i} d_iu^-alpha, and
the interference it suffers when sharing a channel with AP k is measured at
the distances from AP i to AP k's users.  The pairwise cost

    C_ik = -log2(1 + S_i / I_ik) - log2(1 + S_k / I_ki)

is the (negated) capacity loss of the pair;  D_ik = C_ik - C_min + epsilon
shifts it strictly positive so a sum of co-channel penalties is minimized
exactly when the total capacity is maximized.  Transmit power cancels in the
S/I ratios and never appears.

AP and user indices are 0-based throughout; channel labels are 1..N_CH.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class CapInstance:
    """One problem instance: geometry plus channel budget."""

    n_ap: int
    n_ch: int
    alpha: float
    distances: np.ndarray          # shape (n_ap, n_ut), positive and finite
    assoc: tuple[tuple[int, ...], ...]  # assoc[i] = user indices served by AP i
    epsilon: float = 0.01

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=np.float64)
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "assoc", tuple(tuple(sorted(g)) for g in self.assoc))
        if self.n_ap < 1 or self.n_ch < 1:
            raise ValueError("n_ap and n_ch must be positive")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be positive and finite")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive and finite")
        if d.ndim != 2 or d.shape[0] != self.n_ap:
            raise ValueError(f"distances must be a (n_ap, n_ut) matrix, got {d.shape}")
        if not np.all(d > 0):
            raise ValueError("all distances must be strictly positive")
        if not np.all(np.isfinite(d)):
            raise ValueError("all distances must be finite")
        n_ut = d.shape[1]
        seen: list[int] = []
        for i, group in enumerate(self.assoc):
            if not group:
                raise ValueError(f"AP {i} has an empty user set")
            seen.extend(group)
        if len(self.assoc) != self.n_ap:
            raise ValueError("assoc must have one user group per AP")
        if sorted(seen) != list(range(n_ut)):
            raise ValueError("assoc groups must partition the user index range")
        if self.n_ch >= self.n_ap:
            warnings.warn(
                f"n_ch={self.n_ch} >= n_ap={self.n_ap}: assigning distinct channels "
                "is optimal and the instance is trivial",
                stacklevel=2,
            )

    @property
    def n_ut(self) -> int:
        return self.distances.shape[1]


@dataclass(frozen=True)
class CoeffTable:
    """Pairwise interference coefficients derived from an instance.

    ``d[i, k] = c[i, k] - c_min + epsilon`` is strictly positive for i != k;
    the minimum pair sits exactly at epsilon.  Diagonals are zero by
    convention and never used.
    """

    c: np.ndarray
    d: np.ndarray
    c_min: float
    d_sum: float
    epsilon: float = 0.01

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64)
        d = np.asarray(self.d, dtype=np.float64)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        n = c.shape[0]
        if c.shape != (n, n) or d.shape != (n, n):
            raise ValueError("c and d must be square matrices of equal size")
        iu = np.triu_indices(n, k=1)
        if not np.allclose(c, c.T) or not np.allclose(d, d.T):
            raise ValueError("c and d must be symmetric")
        if not np.allclose(d[iu], c[iu] - self.c_min + self.epsilon):
            raise ValueError("d does not satisfy d = c - c_min + epsilon")
        if not np.all(d[iu] > 0):
            raise ValueError("all off-diagonal d must be strictly positive")
        if not math.isclose(self.d_sum, float(d[iu].sum()), rel_tol=0, abs_tol=1e-9):
            raise ValueError("d_sum does not match the sum of the d entries")

    @property
    def n_ap(self) -> int:
        return self.c.shape[0]

    @classmethod
    def from_c_matrix(cls, c: np.ndarray, epsilon: float) -> "CoeffTable":
        c = np.asarray(c, dtype=np.float64)
        n = c.shape[0]
        if n < 2:
            raise ValueError(f"a coefficient table needs at least 2 access points, got {n}")
        iu = np.triu_indices(n, k=1)
        c_min = float(c[iu].min())
        d = np.zeros_like(c)
        d[iu] = c[iu] - c_min + epsilon
        d += d.T
        return cls(c=c, d=d, c_min=c_min, d_sum=float(d[iu].sum()), epsilon=epsilon)

    @classmethod
    def uniform(cls, n_ap: int, value: float = 1.0) -> "CoeffTable":
        """Table with every pairwise cost fixed to ``value`` (the normalization
        used for gate-count and qubit-count comparisons)."""
        c = np.zeros((n_ap, n_ap))
        return cls.from_c_matrix(c, epsilon=value)


def interference_coeff(inst: CapInstance, i: int, k: int) -> float:
    """Pairwise co-channel cost C_ik; symmetric in (i, k)."""
    if i == k:
        raise ValueError("AP indices must differ")
    for idx in (i, k):
        if not 0 <= idx < inst.n_ap:
            raise IndexError(f"AP index {idx} out of range 0..{inst.n_ap - 1}")
    if i > k:
        i, k = k, i
    if not inst.assoc[i] or not inst.assoc[k]:
        raise ValueError("association sets must be nonempty")

    def gain(ap: int, users: Sequence[int]) -> float:
        # overflow to inf is caught below, by the finiteness check on C_ik
        with np.errstate(over="ignore"):
            return float(np.sum(inst.distances[ap, list(users)] ** (-inst.alpha)))

    s_i = gain(i, inst.assoc[i])      # AP i to its own users
    s_k = gain(k, inst.assoc[k])
    i_ik = gain(i, inst.assoc[k])     # AP i to AP k's users
    i_ki = gain(k, inst.assoc[i])
    if i_ik == 0.0 or i_ki == 0.0:
        raise ValueError(f"cross-gain path loss between APs {i} and {k} underflows to zero")
    c = -math.log2(1.0 + s_i / i_ik) - math.log2(1.0 + s_k / i_ki)
    if not math.isfinite(c):
        raise ValueError(f"co-channel cost C_{i}{k} is not finite")
    return c


def coeff_table(inst: CapInstance) -> CoeffTable:
    n = inst.n_ap
    c = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            c[i, k] = interference_coeff(inst, i, k)
            c[k, i] = c[i, k]
    return CoeffTable.from_c_matrix(c, epsilon=inst.epsilon)


def assignment_interference(
    inst: CapInstance, table: CoeffTable, assign: Sequence[int]
) -> float:
    """Total shifted co-channel cost of a concrete assignment.

    ``assign[i]`` is the channel (1..N_CH) used by AP i.  This is the
    classical ground truth every binary formulation must agree with.
    """
    if len(assign) != inst.n_ap:
        raise ValueError(f"assignment length {len(assign)} != n_ap {inst.n_ap}")
    for i, ch in enumerate(assign):
        if not 1 <= ch <= inst.n_ch:
            raise ValueError(f"AP {i}: channel {ch} out of range 1..{inst.n_ch}")
    total = 0.0
    for i in range(inst.n_ap):
        for k in range(i + 1, inst.n_ap):
            if assign[i] == assign[k]:
                total += table.d[i, k]
    return total


# -- instance construction --------------------------------------------


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def instance_from_dict(data: dict) -> CapInstance:
    """Instance from its JSON form; any malformed field raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"an instance must be a JSON object, got {type(data).__name__}")
    groups = data["assoc"]
    if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
        raise ValueError("assoc must be a list of user-index lists")
    try:
        return CapInstance(
            n_ap=_integer(data["n_ap"], "n_ap"),
            n_ch=_integer(data["n_ch"], "n_ch"),
            alpha=float(data.get("alpha", 1.0)),
            distances=np.asarray(data["distances"], dtype=np.float64),
            assoc=tuple(tuple(_integer(u, "a user index") for u in g) for g in groups),
            epsilon=float(data.get("epsilon", 0.01)),
        )
    except TypeError as exc:  # e.g. a null alpha or an object among the distances
        raise ValueError(f"malformed instance: {exc}") from exc


def instance_to_dict(inst: CapInstance) -> dict:
    return {
        "n_ap": inst.n_ap,
        "n_ch": inst.n_ch,
        "alpha": inst.alpha,
        "epsilon": inst.epsilon,
        "distances": inst.distances.tolist(),
        "assoc": [list(g) for g in inst.assoc],
    }


def load_instance(path) -> CapInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def reference_instance() -> CapInstance:
    """The bundled 4-AP / 3-channel / 8-user instance used in golden tests."""
    text = resources.files("gascap.data").joinpath("reference_instance.json").read_text()
    return instance_from_dict(json.loads(text))


def synthetic_instance(
    n_ap: int,
    n_ch: int,
    seed: int,
    uts_per_ap: int = 2,
    alpha: float = 1.0,
    epsilon: float = 0.01,
) -> CapInstance:
    """Random instance: APs and users uniform in the unit square, a fixed
    number of users per AP, Euclidean distances."""
    rng = np.random.default_rng(seed)
    n_ut = n_ap * uts_per_ap
    ap_xy = rng.uniform(0.0, 1.0, size=(n_ap, 2))
    ut_xy = rng.uniform(0.0, 1.0, size=(n_ut, 2))
    dist = np.linalg.norm(ap_xy[:, None, :] - ut_xy[None, :, :], axis=2)
    dist = np.maximum(dist, 1e-6)  # coincident points would break the path loss
    assoc = tuple(
        tuple(range(i * uts_per_ap, (i + 1) * uts_per_ap)) for i in range(n_ap)
    )
    return CapInstance(
        n_ap=n_ap, n_ch=n_ch, alpha=alpha,
        distances=dist, assoc=assoc, epsilon=epsilon,
    )
