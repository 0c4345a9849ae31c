"""Random test states: pure, Wishart, classical and separable-discordant."""

import numpy as np

from gencorr import DensityMatrix, PureState, classical_state


def random_pure_state(dims, rng: np.random.Generator) -> PureState:
    d = int(np.prod(tuple(dims)))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(dims, v / np.linalg.norm(v))


def random_density_matrix(dims, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Full-rank (or rank-limited) random state from a Wishart draw."""
    d = int(np.prod(tuple(dims)))
    rank = d if rank is None else rank
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return DensityMatrix(dims, m / np.trace(m).real)


def random_classical_state(dims, rng: np.random.Generator) -> DensityMatrix:
    d = int(np.prod(tuple(dims)))
    p = rng.dirichlet(np.ones(d))
    return classical_state(dims, p)


def separable_quantum_mixture(
    dims, rng: np.random.Generator, terms: int = 4
) -> DensityMatrix:
    """Mixture of random product projectors: separable, generically discordant.

    The local projectors of different terms do not commute, so the mixture is
    usually not classical in any product basis.
    """
    dims = tuple(dims)
    weights = rng.dirichlet(np.ones(terms))
    d = int(np.prod(dims))
    mat = np.zeros((d, d), dtype=complex)
    for w in weights:
        factors = [random_pure_state((dd,), rng).vec for dd in dims]
        vec = factors[0]
        for f in factors[1:]:
            vec = np.kron(vec, f)
        mat += w * np.outer(vec, vec.conj())
    return DensityMatrix(dims, mat)
