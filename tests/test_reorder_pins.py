"""Bit-for-bit pins of every subsystem reordering in linalg and the pinch.

permute_subsystems is checked against an explicit basis-index map (the
oracle below) for every permutation of a few mixed-dimension spaces.
tests/data/reorder_pins.json holds, for seeded states on the same spaces,
the sha256 of every partial trace (checked for sorted, reversed and list
keeps), and for a (2, 3, 2) state the repr of
quantumness_in_basis and the sha256 of dephase for two partitions whose
cells are out of subsystem order, plus one digest per space over both
functions on every two-cell split of every permutation.  The pins are bytes
of one platform, which the file records (see pin_platform).  Before each
byte comparison, the values are compared with independent oracles within
stated tolerances, so a failure says whether values moved or only bytes.

Run this file as a script to rewrite the pins.
"""

import functools
import hashlib
import itertools
import json
import math
import pathlib

import numpy as np
import pytest

from gencorr import (DensityMatrix, LocalBasisSet, dephase, partial_trace, permute_subsystems,
                     quantumness_in_basis, relative_entropy)
from gencorr.linalg import random_unitary
from pin_platform import running_platform, written_on
from random_states import random_density_matrix

PINS = pathlib.Path(__file__).resolve().parent / "data" / "reorder_pins.json"
SPACES = [(2, 2, 2, 2), (2, 3, 2), (4, 2), (2, 2, 3)]
PINCH_SPACE = (2, 3, 2)
PINCH_CELLS = [[(1,), (0, 2)], [(2, 0), (1,)]]
# The tolerances of the value checks: max |entry| deviation of each partial
# trace and each pinched chi from its oracle, and |q - oracle| for q against
# relative_entropy and against its pinned repr.  Each is at least 10x the
# largest deviation measured with numpy 2.4.6's bundled OpenBLAS on its
# SkylakeX and its Haswell kernels (OPENBLAS_CORETYPE=Haswell, where the
# byte pins differ): 0 and 1.4e-17 for the partial traces, 2.8e-17 and
# 4.2e-17 for chi, 4.0e-15 and 4.4e-15 for q against relative_entropy, and
# 0 and 8.9e-16 for q against its pin.
PTRACE_TOL = 1e-15
CHI_TOL = 1e-15
Q_TOL = 1e-13


def _index_map(dims, perm) -> np.ndarray:
    """Entry m is the original composite index of permuted composite index m."""
    coords = np.unravel_index(np.arange(int(np.prod(dims))), [dims[p] for p in perm])
    orig = [None] * len(dims)
    for slot, p in enumerate(perm):
        orig[p] = coords[slot]
    return np.ravel_multi_index(orig, dims)


def _ptrace_oracle(mat, dims, keep) -> np.ndarray:
    """The reduction on keep (sorted) as an explicit sum, entry by entry,
    over the indices of the traced subsystems."""
    n = len(dims)
    gone = [i for i in range(n) if i not in keep]
    kept = [dims[i] for i in keep]
    tensor = np.asarray(mat).reshape(tuple(dims) * 2)
    out = np.zeros((math.prod(kept),) * 2, dtype=complex)
    for row, col in itertools.product(np.ndindex(*kept), repeat=2):
        total = 0j
        for traced in np.ndindex(*[dims[i] for i in gone]):
            index = [0] * (2 * n)  # the row's subsystem indices, then the column's
            for i, v in [*zip(keep, row), *zip(gone, traced)]:
                index[i] = v
            for i, v in [*zip(keep, col), *zip(gone, traced)]:
                index[n + i] = v
            total += tensor[tuple(index)]
        out[np.ravel_multi_index(row, kept), np.ravel_multi_index(col, kept)] = total
    return out


def _pinch_oracle(mat, dims, basis: LocalBasisSet) -> np.ndarray:
    """B diag(B† rho B) B†, with B the np.kron of the cell unitaries and its
    rows moved from cell order to subsystem order by the index map."""
    perm = [i for cell in basis.cells for i in cell]
    b = np.zeros((math.prod(dims),) * 2, dtype=complex)
    b[_index_map(dims, perm)] = functools.reduce(np.kron, basis.unitaries)
    p = np.diagonal(b.conj().T @ np.asarray(mat) @ b).real
    return (b * p) @ b.conj().T


def _assert_close(got, expected, tol, what, message) -> None:
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(expected))))
    assert dev <= tol, (f"values moved beyond the tolerance: {what} lies {dev:.3e} from its "
                        f"oracle (tolerance {tol:.0e}); {message}")


def _check_pinch(rho, basis, message) -> float:
    """Check dephase and quantumness_in_basis against their oracles; the q."""
    chi = _pinch_oracle(rho.mat, rho.dims, basis)
    _assert_close(dephase(rho, basis).mat, chi, CHI_TOL, f"{rho.dims} chi of {basis.cells}",
                  message)
    q = quantumness_in_basis(rho, basis)
    _assert_close(q, relative_entropy(rho, DensityMatrix(rho.dims, chi)), Q_TOL,
                  f"{rho.dims} q of {basis.cells}", message)
    return q


def _check_values(pins, message) -> None:
    """The value checks of _pins(): every partial trace, pinch and q against
    its oracle, and each pinned q against its repr."""
    for dims in SPACES:
        rho = _state(dims)
        for k in range(1, len(dims)):
            for keep in itertools.combinations(range(len(dims)), k):
                _assert_close(partial_trace(rho, keep).mat, _ptrace_oracle(rho.mat, dims, keep),
                              PTRACE_TOL, f"{dims} partial trace on {keep}", message)
        for cells in _splits(len(dims)):
            _check_pinch(rho, _basis(dims, cells), message)
    rho = _state(PINCH_SPACE)
    for pin, cells in zip(pins["pinch"], PINCH_CELLS):
        q = _check_pinch(rho, _basis(PINCH_SPACE, cells), message)
        _assert_close(q, float(pin["q"]), Q_TOL, f"q of {cells} against its pin", message)


def _state(dims):
    return random_density_matrix(dims, np.random.default_rng(int("".join(map(str, dims)))))


def _basis(dims, cells) -> LocalBasisSet:
    rng = np.random.default_rng(7)
    return LocalBasisSet(cells, [random_unitary(math.prod(dims[i] for i in cell), rng)
                                 for cell in cells])


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _splits(n):
    """Every two-cell partition of 0..n-1, each as every ordering of its subsystems."""
    for perm in itertools.permutations(range(n)):
        for cut in range(1, n):
            yield [perm[:cut], perm[cut:]]


def _pins() -> dict:
    pins = {"partial_traces": {}, "pinch": [], "split_digests": {}}
    for dims in SPACES:
        rho = _state(dims)
        pins["partial_traces"][str(dims)] = {
            str(keep): _sha256(partial_trace(rho, keep).mat)
            for k in range(1, len(dims)) for keep in itertools.combinations(range(len(dims)), k)
        }
        digest = hashlib.sha256()
        for cells in _splits(len(dims)):
            basis = _basis(dims, cells)
            digest.update(dephase(rho, basis).mat.tobytes())
            digest.update(repr(quantumness_in_basis(rho, basis)).encode())
        pins["split_digests"][str(dims)] = digest.hexdigest()
    rho = _state(PINCH_SPACE)
    for cells in PINCH_CELLS:
        basis = _basis(PINCH_SPACE, cells)
        pins["pinch"].append({
            "cells": [list(cell) for cell in cells],
            "q": repr(quantumness_in_basis(rho, basis)),
            "chi_sha256": _sha256(dephase(rho, basis).mat),
        })
    return pins


@pytest.mark.parametrize("dims", SPACES, ids=str)
def test_permute_subsystems_equals_the_index_map_byte_for_byte(dims):
    mat = np.asarray(_state(dims).mat)
    for perm in itertools.permutations(range(len(dims))):
        idx = _index_map(dims, perm)
        expected = mat[np.ix_(idx, idx)]
        got = permute_subsystems(mat, dims, perm)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), perm


def _stored() -> tuple[dict, str]:
    """The stored pins, and the message of a failed check of them."""
    pins = json.loads(PINS.read_text())
    return pins, written_on(pins.pop("platform"))


def test_partial_traces_and_pinches_match_their_pins():
    pins, message = _stored()
    _check_values(pins, message)
    assert _pins() == pins, (
        f"values agree within their tolerances, only the bytes differ; {message}")


def test_unsorted_and_list_keeps_match_the_partial_trace_pins():
    """Each reduction, asked for first as a reversed list and then as a
    reversed tuple of a fresh state, has the bytes of its sorted-tuple pin."""
    pins, message = _stored()
    for dims in SPACES:
        for spell in (lambda keep: list(reversed(keep)), lambda keep: tuple(reversed(keep))):
            rho = _state(dims)
            got = {}
            for k in range(1, len(dims)):
                for keep in itertools.combinations(range(len(dims)), k):
                    red = partial_trace(rho, spell(keep)).mat
                    _assert_close(red, _ptrace_oracle(rho.mat, dims, keep), PTRACE_TOL,
                                  f"{dims} partial trace on {spell(keep)}", message)
                    got[str(keep)] = _sha256(red)
            assert got == pins["partial_traces"][str(dims)], (
                dims, f"values agree within their tolerances, only the bytes differ; {message}")


if __name__ == "__main__":
    PINS.write_text(json.dumps({"platform": running_platform(), **_pins()}, indent=1) + "\n")
    print(f"wrote the reordering pins to {PINS}")
