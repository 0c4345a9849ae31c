"""Bit-for-bit pins of every subsystem reordering in linalg and the pinch.

permute_subsystems is checked against an explicit basis-index map (the
oracle below) for every permutation of a few mixed-dimension spaces.
tests/data/reorder_pins.json holds, for seeded states on the same spaces,
the sha256 of every partial trace (checked for sorted, reversed and list
keeps), and for a (2, 3, 2) state the repr of
quantumness_in_basis and the sha256 of dephase for two partitions whose
cells are out of subsystem order, plus one digest per space over both
functions on every two-cell split of every permutation.  The pins are bytes
of one platform, which the file records (see pin_platform).

Run this file as a script to rewrite the pins.
"""

import hashlib
import itertools
import json
import math
import pathlib

import numpy as np
import pytest

from gencorr import LocalBasisSet, dephase, partial_trace, permute_subsystems, quantumness_in_basis
from gencorr.linalg import random_unitary
from pin_platform import running_platform, written_on
from random_states import random_density_matrix

PINS = pathlib.Path(__file__).resolve().parent / "data" / "reorder_pins.json"
SPACES = [(2, 2, 2, 2), (2, 3, 2), (4, 2), (2, 2, 3)]
PINCH_SPACE = (2, 3, 2)
PINCH_CELLS = [[(1,), (0, 2)], [(2, 0), (1,)]]


def _index_map(dims, perm) -> np.ndarray:
    """Entry m is the original composite index of permuted composite index m."""
    coords = np.unravel_index(np.arange(int(np.prod(dims))), [dims[p] for p in perm])
    orig = [None] * len(dims)
    for slot, p in enumerate(perm):
        orig[p] = coords[slot]
    return np.ravel_multi_index(orig, dims)


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
    assert _pins() == pins, message


def test_unsorted_and_list_keeps_match_the_partial_trace_pins():
    """Each reduction, asked for first as a reversed list and then as a
    reversed tuple of a fresh state, has the bytes of its sorted-tuple pin."""
    pins, message = _stored()
    for dims in SPACES:
        for spell in (lambda keep: list(reversed(keep)), lambda keep: tuple(reversed(keep))):
            rho = _state(dims)
            got = {str(keep): _sha256(partial_trace(rho, spell(keep)).mat)
                   for k in range(1, len(dims)) for keep in itertools.combinations(range(len(dims)), k)}
            assert got == pins["partial_traces"][str(dims)], (dims, message)


if __name__ == "__main__":
    PINS.write_text(json.dumps({"platform": running_platform(), **_pins()}, indent=1) + "\n")
    print(f"wrote the reordering pins to {PINS}")
