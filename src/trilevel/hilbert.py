"""Index bookkeeping for the symmetric atomic space and the photon mode.

Permutation-symmetric states of A identical three-level atoms are labelled
by occupation triples (n1, n2, n3) with n1 + n2 + n3 = A, exactly like
three bosonic modes carrying a fixed total number.  The field is a single
mode with a hard photon cutoff n_max.  Every matrix in this package is
built on the canonical orderings fixed here:

* atomic triples are listed in descending lexicographic order, so basis
  index 0 has all atoms in level 1 and, for a single atom, bare level i
  sits at atomic index i - 1;
* the photon index varies fastest in the product space,
  flat = atomic_index * (n_max + 1) + n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Occupation = tuple[int, int, int]


@dataclass(frozen=True)
class SpaceSpec:
    """Atom count and photon cutoff defining the truncated model space."""

    atoms: int
    n_max: int

    def __post_init__(self) -> None:
        if self.atoms < 1:
            raise ValueError(f"atoms must be >= 1, got {self.atoms}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def atomic_dim(self) -> int:
        return (self.atoms + 1) * (self.atoms + 2) // 2

    @property
    def field_dim(self) -> int:
        return self.n_max + 1

    @property
    def product_dim(self) -> int:
        return self.atomic_dim * self.field_dim

    def photon_index(self, fock_n: int) -> int:
        """Field index of photon number ``fock_n``, which must lie in [0, n_max]."""
        if not 0 <= fock_n <= self.n_max:
            raise ValueError(f"photon number {fock_n} outside [0, {self.n_max}]")
        return fock_n


def enumerate_atomic_basis(atoms: int) -> list[Occupation]:
    """All occupation triples summing to ``atoms``, descending lexicographic.

    The ordering is part of the package contract: index 0 is (atoms, 0, 0)
    and the last index is (0, 0, atoms).
    """
    SpaceSpec(atoms, 1)  # the one atom-count rule; the cutoff plays no part
    return [
        (n1, n2, atoms - n1 - n2)
        for n1 in range(atoms, -1, -1)
        for n2 in range(atoms - n1, -1, -1)
    ]


class IndexMap:
    """Bijection between (occupation, photon number) pairs and flat indices.

    Read-only arrays, so a mask over basis states is one broadcast, not a loop
    over ``split``: ``atomic_occupations[k]`` is the triple of atomic index k,
    ``atomic_table[n1, n2]`` the atomic index of (n1, n2, atoms - n1 - n2), else
    -1, and ``occupations[k]``, ``photons[k]`` the labels of flat index k.
    """

    def __init__(self, spec: SpaceSpec):
        self.spec = spec
        self.states: tuple[Occupation, ...] = tuple(enumerate_atomic_basis(spec.atoms))
        occ = self.atomic_occupations = np.array(self.states, dtype=np.int64)  # (atomic_dim, 3)
        self.atomic_table = np.full((spec.atoms + 1, spec.atoms + 1), -1, dtype=np.intp)
        self.atomic_table[occ[:, 0], occ[:, 1]] = np.arange(spec.atomic_dim)
        self.occupations = np.repeat(occ, spec.field_dim, axis=0)  # (product_dim, 3)
        self.photons = np.tile(np.arange(spec.field_dim, dtype=np.int64),
                               spec.atomic_dim)  # (product_dim,)
        for table in (occ, self.atomic_table, self.occupations, self.photons):
            table.setflags(write=False)

    def atomic_index(self, occupation: Occupation) -> int:
        occ = tuple(occupation)
        if len(occ) != 3 or min(occ) < 0 or sum(occ) != self.spec.atoms:
            raise ValueError(
                f"{occ} is not an occupation triple summing to {self.spec.atoms}"
            )
        return int(self.atomic_table[occ[0], occ[1]])

    def flat(self, occupation: Occupation, fock_n: int) -> int:
        n = self.spec.photon_index(fock_n)
        return self.atomic_index(occupation) * self.spec.field_dim + n

    def split(self, flat: int) -> tuple[Occupation, int]:
        if not 0 <= flat < self.spec.product_dim:
            raise ValueError(
                f"flat index {flat} outside [0, {self.spec.product_dim})"
            )
        k, n = divmod(flat, self.spec.field_dim)
        return self.states[k], n


def fock_vector(spec: SpaceSpec, fock_n: int) -> np.ndarray:
    """The unit field-space vector |fock_n>."""
    field = np.zeros(spec.field_dim, dtype=np.complex128)
    field[spec.photon_index(fock_n)] = 1.0
    return field


@lru_cache(maxsize=32)
def index_map(spec: SpaceSpec) -> IndexMap:
    """The one cached IndexMap of ``spec``."""
    return IndexMap(spec)
