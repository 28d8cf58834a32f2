"""The one dense reference of the differential tests.

Every operator here is a dense numpy array written straight from the basis labels,
one basis state at a time: the collective transitions S_ij, the ladder operators
a, a^dag and n, the lift of an atomic or field matrix, the dressed transitions X_ij,
the excitation count, the interaction, the Hamiltonian H, the guarded projector, the
commutator, the exponential exp(-i t H), the propagator and the connected-component
search.  It
imports nothing from ``trilevel`` but ``hilbert`` (the labels and the sizes), so it
shares no code path with the block writers it checks (``element_sum``,
``tensor_sum``, ``transition_elements``); ``test_operators`` checks S_ij once
against the three-mode boson oracle.

Orderings are the package contract: atomic states in the order of
``enumerate_atomic_basis``, the photon index fastest, flat = atomic * (n_max + 1) + n.
"""

import numpy as np

from trilevel.hilbert import SpaceSpec, enumerate_atomic_basis

ABSORBING = ((3, 1), (2, 1), (3, 2))  # X_ij = S_ij (x) a; the transposed pairs emit
COUPLED = {"lambda": ((3, 1), (3, 2)), "vee": ((3, 1), (2, 1))}


def atomic(spec: SpaceSpec, i: int, j: int) -> np.ndarray:
    """S_ij: moves one atom from level j to level i with amplitude sqrt((n_i + 1) n_j);
    S_ii counts the level-i population."""
    states = enumerate_atomic_basis(spec.atoms)
    index = {occ: k for k, occ in enumerate(states)}
    mat = np.zeros((len(states),) * 2, dtype=np.complex128)
    for col, occ in enumerate(states):
        if i == j:
            mat[col, col] = occ[i - 1]
        elif occ[j - 1] > 0:
            target = list(occ)
            target[j - 1] -= 1
            target[i - 1] += 1
            mat[index[tuple(target)], col] = np.sqrt((occ[i - 1] + 1) * occ[j - 1])
    return mat


def field(spec: SpaceSpec, kind: str) -> np.ndarray:
    """The truncated ladder operator "annihilate" (a), "create" (a^dag) or "number" (n)."""
    mat = np.zeros((spec.n_max + 1,) * 2, dtype=np.complex128)
    for n in range(spec.n_max + 1):
        if kind == "number":
            mat[n, n] = n
        elif n > 0:
            mat[(n - 1, n) if kind == "annihilate" else (n, n - 1)] = np.sqrt(n)
    return mat


def lift_atomic(spec: SpaceSpec, mat: np.ndarray) -> np.ndarray:
    """mat (x) 1; np.kron keeps the second (photon) index fastest."""
    return np.kron(mat, np.eye(spec.n_max + 1))


def lift_field(spec: SpaceSpec, mat: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(len(enumerate_atomic_basis(spec.atoms))), mat)


def dressed(spec: SpaceSpec, i: int, j: int) -> np.ndarray:
    """X_ij = S_ij (x) a for the absorbing pairs, S_ij (x) a^dag for their transposes."""
    if (i, j) in ABSORBING:
        return np.kron(atomic(spec, i, j), field(spec, "annihilate"))
    if (j, i) in ABSORBING:
        return np.kron(atomic(spec, i, j), field(spec, "create"))
    raise ValueError(f"no dressed transition for level pair ({i}, {j})")


def number(spec: SpaceSpec) -> np.ndarray:
    return lift_field(spec, field(spec, "number"))


def excitation(spec: SpaceSpec, scheme: str) -> np.ndarray:
    """n + S33 (lambda) or n + S22 + S33 (vee)."""
    upper = (3,) if scheme == "lambda" else (2, 3)
    return number(spec) + sum(lift_atomic(spec, atomic(spec, i, i)) for i in upper)


def interaction(spec: SpaceSpec, h) -> np.ndarray:
    """sum g_ij (X_ij + X_ji) over the scheme's coupled pairs, read from the fields of
    a HamiltonianSpec."""
    couplings = {(3, 1): h.g31, (3, 2): h.g32, (2, 1): h.g21}
    out = np.zeros((spec.product_dim,) * 2, dtype=np.complex128)
    for i, j in COUPLED[h.scheme]:
        out = out + couplings[i, j] * (dressed(spec, i, j) + dressed(spec, j, i))
    return out


def hamiltonian(spec: SpaceSpec, h) -> np.ndarray:
    """omega n + sum_i E_i S_ii + the interaction, read from the fields of a
    HamiltonianSpec."""
    out = h.omega * number(spec)
    for i, e in enumerate(h.energies, start=1):
        out = out + e * lift_atomic(spec, atomic(spec, i, i))
    return out + interaction(spec, h)


def guarded_projector(spec: SpaceSpec, guard: int) -> np.ndarray:
    """Projector onto the product states with photon number <= n_max - guard."""
    keep = [n <= spec.n_max - guard
            for _ in enumerate_atomic_basis(spec.atoms) for n in range(spec.n_max + 1)]
    return np.diag(np.array(keep, dtype=np.complex128))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def dense_exp(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t h) for Hermitian h."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def propagate(h: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(dim, T) states exp(-i t h) psi0 at each time."""
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * np.outer(w, times)) * (v.conj().T @ psi0)[:, None])


def component_labels(mat: np.ndarray) -> np.ndarray:
    """Smallest index of the connected component of every state of mat != 0, by search."""
    adjacent = (mat != 0) | (mat != 0).T
    out = np.full(len(mat), -1)
    for start in range(len(mat)):
        if out[start] >= 0:
            continue
        out[start] = start
        stack = [start]
        while stack:
            for k in np.flatnonzero(adjacent[stack.pop()]):
                if out[k] < 0:
                    out[k] = start
                    stack.append(int(k))
    return out
