"""Bit-for-bit pins of the basis search on every cell shape.

tests/data/search_pins.json holds, for each (state, partition) below at
SearchConfig(starts=3), repr(q), evals, repr(grad_norm) and the sha256 of
chi's matrix and of the basis unitaries.  Each search runs alone and as one
closest_classical_states batch of all of them, and both must match the pins.
Unlike the golden CSVs (qubit cells at the default starts), these pin the
2|2 and 1|3 paths, the qubit cells and 1|2 cuts of three-qubit reductions
(the Q3 and Q_k paths), the evaluation counts and the stationarity residual.

The pins are bytes of one platform, which the file records (see
pin_platform).  Before the byte check, each q is compared with its pin
within Q_TOL, which holds on any BLAS kernel, so a failure says whether a
value moved or only the bytes differ.

Run this file as a script to rewrite the pins.
"""

import functools
import hashlib
import json
import pathlib

import numpy as np

from gencorr import SearchConfig, closest_classical_state, evolve_global, partial_trace
from gencorr.classical_search import closest_classical_states
from pin_platform import running_platform, written_on

PINS = pathlib.Path(__file__).resolve().parent / "data" / "search_pins.json"
CFG = SearchConfig(starts=3)
# Under OPENBLAS_CORETYPE=Haswell (AVX2 kernels) the pins' q moved by up to
# 5.4e-11 (ROADMAP item 13); Q_TOL leaves over 10x headroom on that.
Q_TOL = 1e-9
STATES = [(0.65, 0.39, "ad"), (0.8, 0.25, "pd"), (0.85, 0.88, "ad")]
PARTITIONS = [
    [(0,), (1,), (2,), (3,)],
    [(0, 2), (1, 3)],
    [(0,), (1, 2, 3)],
    [(1, 2, 3), (0,)],
]
# three-qubit reductions: (c, p, kind, kept subsystems)
REDUCED = [(*STATES[0], (0, 1, 2)), (*STATES[1], (0, 2, 3)), (*STATES[2], (1, 2, 3))]
REDUCED_PARTITIONS = [[(0,), (1,), (2,)], [(0,), (1, 2)]]
CASES = ([(state, cells) for state in STATES for cells in PARTITIONS]
         + [(state, cells) for state in REDUCED for cells in REDUCED_PARTITIONS])


def _rho(state):
    """The evolved state of (c, p, kind), or its reduction (c, p, kind, keep)."""
    rho = evolve_global(*state[:3])
    return partial_trace(rho, state[3]) if len(state) == 4 else rho


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()


def _pin(state, cells, res) -> dict:
    pin = {
        "state": list(state[:3]),
        "cells": [list(cell) for cell in cells],
        "q": repr(res.q),
        "evals": res.evals,
        "grad_norm": repr(res.grad_norm),
        "chi_sha256": _sha256([res.chi.mat]),
        "basis_sha256": _sha256(res.basis.unitaries),
    }
    if len(state) == 4:
        pin["keep"] = list(state[3])
    return pin


def _check(pins: list[dict]) -> None:
    stored = json.loads(PINS.read_text())
    platform = written_on(stored["platform"])
    assert len(pins) == len(stored["pins"])
    moved = [(pin["state"], pin["cells"], pin["q"], old["q"]) for pin, old in zip(pins, stored["pins"])
             if not abs(float(pin["q"]) - float(old["q"])) <= Q_TOL]
    assert not moved, f"q moved beyond {Q_TOL:.0e} of its pin (state, cells, q, pin): {moved}; {platform}"
    assert pins == stored["pins"], f"every q lies within {Q_TOL:.0e} of its pin: only the bytes differ; {platform}"


@functools.cache
def _lone_results() -> tuple:
    return tuple(closest_classical_state(_rho(state), cells, CFG) for state, cells in CASES)


def _lone() -> list[dict]:
    return [_pin(state, cells, res) for (state, cells), res in zip(CASES, _lone_results())]


def test_lone_searches_match_their_pins():
    _check(_lone())


def test_every_pinned_search_returns_a_unitary_basis():
    """The result basis skips LocalBasisSet's unitarity check (it is built
    by LocalBasisSet._derived); every step multiplies a cell unitary by
    unitary factors, so it stays unitary to rounding."""
    for (state, cells), res in zip(CASES, _lone_results()):
        dev = max(np.abs(u.conj().T @ u - np.eye(len(u))).max() for u in res.basis.unitaries)
        assert dev <= 1e-12, (state, cells, dev)


def test_one_batch_of_every_search_matches_the_pins():
    rhos = {state: _rho(state) for state in STATES + REDUCED}
    results = closest_classical_states([rhos[s] for s, _ in CASES], [c for _, c in CASES], CFG)
    _check([_pin(state, cells, res) for (state, cells), res in zip(CASES, results)])


if __name__ == "__main__":
    PINS.write_text(f'{{"platform": {json.dumps(running_platform())},\n"pins": [\n'
                    + ",\n".join(json.dumps(pin) for pin in _lone()) + "\n]}\n")
    print(f"wrote {len(CASES)} pins to {PINS}")
