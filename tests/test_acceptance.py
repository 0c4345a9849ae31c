"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values and tolerances are pinned here; independent oracles
(grid search, closed forms, operator-sum identities) are implemented inline
so they cannot drift with the library internals they check.
"""

import math
import time

import numpy as np

from gencorr import (
    Bipartition,
    DensityMatrix,
    LocalBasisSet,
    SearchConfig,
    SweepSpec,
    closest_classical_state,
    dephase,
    detect_sudden_change,
    genuine_total_Ik,
    genuine_total_In,
    multipartite_quantum_Q,
    partial_trace,
    relative_entropy,
    random_unitary,
    run_sweep,
)
from gencorr.channels import (
    amplitude_damping_kraus,
    appendix_golden_state,
    dilation,
    evolve_global,
    phase_damping_kraus,
    psi_minus,
    upsilon_pd,
    werner_state,
)
from gencorr.states import (
    fidelity,
    ghz,
    ppt_min_eigenvalue,
    w4,
)
from random_states import random_density_matrix

TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def _report(num: int, desc: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:2d}] {status}: {desc}")
    assert not failures, f"criterion {num}: " + " | ".join(failures)


def _h2(x: float) -> float:
    """Binary entropy in bits."""
    return 0.0 if x <= 0.0 or x >= 1.0 else -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def test_criterion_01_limit_state_anchor_values():
    t0 = time.perf_counter()
    failures = []
    ghz4 = ghz(4).to_density()
    wst = w4().to_density()

    i4_ghz = genuine_total_In(ghz4).value_bits
    if abs(i4_ghz - 2.0) > 1e-9:
        failures.append(f"I4(GHZ4) = {i4_ghz!r}, expected 2 +- 1e-9")
    i3_ghz = genuine_total_Ik(ghz4, 3).value_bits
    if abs(i3_ghz - 1.0) > 1e-9:
        failures.append(f"I3(GHZ4) = {i3_ghz!r}, expected 1 +- 1e-9")
    # W4 is pure: one-qubit marginals have spectrum (3/4, 1/4), two-qubit
    # marginals (1/2, 1/2).  A 1|3 cut carries 2*H2(1/4), a 2|2 cut 2, so the
    # minimum is 2*H2(1/4).  A 3-qubit reduction has S = H2(1/4), and each of
    # its cuts carries H2(1/4) + 1 - H2(1/4) = 1.
    i4_w_expected = 2 * _h2(0.25)
    i3_w_expected = _h2(0.25) + 1.0 - _h2(0.25)
    i4_w = genuine_total_In(wst).value_bits
    if abs(i4_w - i4_w_expected) > 1e-9:
        failures.append(f"I4(W4) = {i4_w!r}, expected 2*H2(1/4) = {i4_w_expected!r} +- 1e-9")
    i3_w = genuine_total_Ik(wst, 3).value_bits
    if abs(i3_w - i3_w_expected) > 1e-9:
        failures.append(f"I3(W4) = {i3_w!r}, expected {i3_w_expected!r} +- 1e-9")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s, expected << 1 s")
    _report(1, "limit-state anchor values (I4/I3 of GHZ4 and W4)", failures)


def test_criterion_02_fidelity_closed_forms():
    t0 = time.perf_counter()
    failures = []
    grid = np.linspace(0.0, 1.0, 11)
    dev_w = max(
        abs(
            fidelity(w4(), evolve_global(c, p, "ad"))
            - math.sqrt((1 + 3 * c) * (1 + 2 * math.sqrt(p * (1 - p))) / 8)
        )
        for c in grid
        for p in grid
    )
    if dev_w > 1e-10:
        failures.append(f"W fidelity deviates by {dev_w:.3e} > 1e-10")
    ghz_lim = upsilon_pd(1.0)
    dev_g = max(
        abs(
            fidelity(ghz_lim, evolve_global(c, p, "pd"))
            - math.sqrt((1 + 3 * c) * p) / 2
        )
        for c in grid
        for p in grid
    )
    if dev_g > 1e-10:
        failures.append(f"GHZ fidelity deviates by {dev_g:.3e} > 1e-10")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s, expected < 1 s")
    _report(2, "fidelity closed forms on the 11x11 (c, p) grid", failures)


def test_criterion_03_golden_state_consistency():
    t0 = time.perf_counter()
    failures = []
    grid = np.linspace(0.0, 1.0, 11)
    for kind in ("ad", "pd"):
        dev = max(
            float(np.linalg.norm(
                np.asarray(evolve_global(c, p, kind).mat)
                - np.asarray(appendix_golden_state(c, p, kind).mat)
            ))
            for c in grid
            for p in grid
        )
        if dev > 1e-10:
            failures.append(f"{kind}: Frobenius deviation {dev:.3e} > 1e-10")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s, expected < 5 s")
    _report(3, "dilation evolution equals the golden construction (11x11)", failures)


def test_criterion_04_limit_states():
    failures = []
    w_mat = np.asarray(w4().to_density().mat)
    dev = float(np.abs(np.asarray(evolve_global(1.0, 0.5, "ad").mat) - w_mat).max())
    if dev > 1e-12:
        failures.append(f"ad(c=1, p=1/2) deviates from the W state by {dev:.3e}")
    ghz_lim = upsilon_pd(1.0).vec
    dev = float(np.abs(
        np.asarray(evolve_global(1.0, 1.0, "pd").mat) - np.outer(ghz_lim, ghz_lim.conj())
    ).max())
    if dev > 1e-12:
        failures.append(f"pd(c=1, p=1) deviates from the GHZ-class state by {dev:.3e}")
    _report(4, "evolution endpoints hit the W and GHZ limit states", failures)


def test_criterion_05_asymptotic_behavior():
    failures = []
    rows = run_sweep(SweepSpec(channel="ad", c_values=(0.4, 1.0), p_count=11,
                               measures=("I4",)))
    for row in rows:
        if row["p"] == 1.0 and row["I4"] > 1e-9:
            failures.append(f"ad c={row['c']}: I4(p=1) = {row['I4']!r} > 1e-9")

    c_grid = (0.2, 0.4, 0.6, 0.8, 1.0)
    rows = run_sweep(SweepSpec(channel="pd", c_values=c_grid, p_count=11,
                               measures=("I4",)))
    plateau = [row["I4"] for row in rows if row["p"] == 1.0]
    if abs(plateau[-1] - 2.0) > 1e-9:
        failures.append(f"pd c=1: I4(p=1) = {plateau[-1]!r}, expected 2 +- 1e-9")
    if not all(b > a for a, b in zip(plateau, plateau[1:])):
        failures.append(f"pd plateau values not strictly increasing in c: {plateau}")
    _report(5, "asymptotics: ad correlations vanish, pd plateau grows with c", failures)


def test_criterion_06_peres_threshold():
    failures = []
    cut = Bipartition((0,), 2)
    for c in (0.0, 1 / 3, 0.5, 1.0):
        dev = abs(ppt_min_eigenvalue(werner_state(c), cut) - (1 - 3 * c) / 4)
        if dev > 1e-12:
            failures.append(f"c={c}: partial-transpose eigenvalue off by {dev:.3e}")
    below = ppt_min_eigenvalue(werner_state(1 / 3 - 1e-12), cut)
    above = ppt_min_eigenvalue(werner_state(1 / 3 + 1e-12), cut)
    if not (below > 0 > above):
        failures.append(f"sign change not bracketed at c = 1/3 (got {below!r}, {above!r})")
    _report(6, "Werner partial-transpose threshold at c = 1/3", failures)


def test_criterion_07_marginal_quantumness():
    failures = []
    cfg = SearchConfig()
    ghz4 = ghz(4).to_density()
    for t in TRIPLES:
        q = multipartite_quantum_Q(partial_trace(ghz4, t), cfg).value_bits
        if q > 1e-6:
            failures.append(f"GHZ marginal {t}: Q = {q:.3e} > 1e-6")
    wst = w4().to_density()
    for t in TRIPLES:
        q = multipartite_quantum_Q(partial_trace(wst, t), cfg).value_bits
        if q < 0.01:
            failures.append(f"W marginal {t}: Q = {q:.3e} < 0.01")
    _report(7, "3-party marginals: GHZ classical, W still quantum", failures)


def _grid_oracle_q(rho_mat: np.ndarray, n_theta: int = 13, n_phi: int = 12) -> float:
    """Independent dense 2-angle-per-qubit grid search for two-qubit states."""
    us = []
    for t in np.linspace(0.0, np.pi, n_theta):
        for f in np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False):
            c, s = np.cos(t / 2), np.sin(t / 2)
            us.append([[c, -s * np.exp(-1j * f)], [s * np.exp(1j * f), c]])
    us = np.array(us)
    r = rho_mat.reshape(2, 2, 2, 2)
    probs = np.einsum(
        "gai,hbj,abcd,gci,hdj->ghij", us.conj(), us.conj(), r, us, us, optimize=True
    ).real.reshape(len(us), len(us), 4)
    probs = np.clip(probs, 1e-300, None)
    pinched = -np.sum(probs * np.log2(probs), axis=-1)
    w = np.linalg.eigvalsh(rho_mat)
    w = w[w > 1e-12]
    return float(pinched.min()) + float(np.sum(w * np.log2(w)))


def test_criterion_08_grid_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    cases = [("singlet", psi_minus().to_density())]
    cases += [(f"werner c={c}", werner_state(c)) for c in (0.25, 0.5, 1.0)]
    for name, rho in cases:
        q = closest_classical_state(rho, [(0,), (1,)], SearchConfig()).q
        oracle = _grid_oracle_q(np.asarray(rho.mat))
        if abs(q - oracle) > 1e-4:
            failures.append(f"{name}: optimizer {q!r} vs grid oracle {oracle!r}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s, expected < 60 s")
    _report(8, "basis search matches the dense two-angle grid oracle", failures)


def _cut_mutual_informations(mat: np.ndarray) -> dict[tuple[int, ...], float]:
    """Independent oracle: S(A) + S(B) - S(AB) on each of the 7 four-qubit cuts,
    from einsum partial traces and eigvalsh."""
    def entropy(m):
        w = np.linalg.eigvalsh(m)
        w = w[w > 1e-14]
        return float(-np.sum(w * np.log2(w)))

    t = mat.reshape((2,) * 8)

    def marginal(keep):
        rows, cols = "abcd", "efgh"
        traced = "".join(cols[i] if i in keep else rows[i] for i in range(4))
        out = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
        d = 2 ** len(keep)
        return np.einsum(f"{rows}{traced}->{out}", t).reshape(d, d)

    s_all = entropy(mat)
    return {
        mask: entropy(marginal(mask))
        + entropy(marginal(tuple(i for i in range(4) if i not in mask))) - s_all
        for mask in ((0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3))
    }


def _cut_class_switch(c: float, ps: list[float]) -> float | None:
    """p at which the oracle's minimizing cut of the pd state at this c first
    moves from a 1|3 cut to {a,E_a}|{b,E_b}, bisected between grid points.

    Compares cut classes, not masks: the E_a and E_b single cuts tie exactly,
    and rounding flips the argmin between them.
    """
    def class_minima(p):
        mi = _cut_mutual_informations(np.asarray(evolve_global(c, p, "pd").mat))
        return {
            "1|3": min(v for mask, v in mi.items() if len(mask) == 1),
            "aEa|bEb": mi[(0, 1)],
            "other 2|2": min(mi[(0, 2)], mi[(0, 3)]),
        }

    def argmin_class(p):
        best = class_minima(p)
        return min(best, key=best.get)

    classes = [argmin_class(p) for p in ps]
    for j in range(len(ps) - 1):
        if classes[j] == "1|3" and classes[j + 1] == "aEa|bEb":
            lo, hi = ps[j], ps[j + 1]
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                best = class_minima(mid)
                lo, hi = (lo, mid) if best["aEa|bEb"] < best["1|3"] else (mid, hi)
            return 0.5 * (lo + hi)
    return None


def test_criterion_09_sudden_change_detection():
    failures = []
    genuine_totals = ("I4", "I3", "I3_abEa", "I3_aEaEb")

    ad_rows = run_sweep(SweepSpec(channel="ad", c_values=(1.0,), p_count=101,
                                  measures=("I4",)))
    if len(detect_sudden_change(ad_rows, "I4")) < 1:
        failures.append("ad c=1: no interior kink detected for I4")

    # pd at c = 1: the state is pure, (|0,0,1,e> - |1,e,0,0>)/sqrt(2) with
    # e = sqrt(1-p)|0> + sqrt(p)|1>, and h <= H2(p/2) <= 1 for every p, so no
    # minimizing cut or maximizing triple ever switches: all four series are
    # smooth closed forms and carry no kink.
    h = lambda p: _h2((1 - math.sqrt(1 - p)) / 2)  # noqa: E731
    closed = {"I4": lambda p: 2 * h(p), "I3": lambda p: _h2(p / 2),
              "I3_abEa": lambda p: _h2(p / 2), "I3_aEaEb": h}
    pd_rows = run_sweep(SweepSpec(channel="pd", c_values=(1.0,), p_count=101,
                                  measures=genuine_totals))
    for m in genuine_totals:
        dev = max(abs(row[m] - closed[m](row["p"])) for row in pd_rows)
        if dev > 1e-9:
            failures.append(f"pd c=1 {m}: deviates from its closed form by {dev:.3e}")
        hits = detect_sudden_change(pd_rows, m)
        if hits:
            failures.append(
                f"pd c=1 {m}: {len(hits)} kink(s) at p = {[r.p_star for r in hits]} "
                "in a smooth series"
            )

    # pd at c = 0.6: the I4 kink sits where the minimizing cut moves from a
    # 1|3 cut to {a,E_a}|{b,E_b}, located by the inline cut oracle.
    pd6_rows = run_sweep(SweepSpec(channel="pd", c_values=(0.6,), p_count=101,
                                   measures=("I4",)))
    step = pd6_rows[1]["p"] - pd6_rows[0]["p"]
    p_switch = _cut_class_switch(0.6, [row["p"] for row in pd6_rows])
    kinks = [r.p_star for r in detect_sudden_change(pd6_rows, "I4")]
    if p_switch is None:
        failures.append("pd c=0.6: the cut oracle finds no 1|3 -> {a,E_a}|{b,E_b} switch")
    elif not any(abs(k - p_switch) <= step for k in kinks):
        failures.append(
            f"pd c=0.6: no I4 kink within {step:.3g} of the cut switch at "
            f"p = {p_switch:.4f} (kinks at {kinks})"
        )

    ps = np.linspace(0.0, 1.0, 101)
    for name, fn in (("constant", lambda p: 0.0), ("linear", lambda p: 2 * p),
                     ("quadratic", lambda p: p * p)):
        rows = [{"channel": "syn", "c": 0.0, "p": float(p), "y": float(fn(p))} for p in ps]
        hits = detect_sudden_change(rows, "y")
        if hits:
            failures.append(f"synthetic {name} series produced {len(hits)} detections")
    _report(9, "sudden-change detection on 101-point sweeps (ad c=1, pd c=1 and 0.6)", failures)


def test_criterion_10_structural_invariant_suite():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(20260811)

    for maker in (amplitude_damping_kraus, phase_damping_kraus):
        for p in np.linspace(0.0, 1.0, 101):
            ch = maker(p)
            dev = np.abs(sum(k.conj().T @ k for k in ch.operators) - np.eye(2)).max()
            if dev > 1e-12:
                failures.append(f"{ch.label} p={p}: completeness off by {dev:.3e}")
                break

    env = np.zeros((2, 2), dtype=complex)
    env[0, 0] = 1.0
    for i in range(100):
        maker = amplitude_damping_kraus if i % 2 else phase_damping_kraus
        ch = maker(rng.uniform())
        u = dilation(ch.label, ch.p)
        rho = np.asarray(random_density_matrix((2,), rng).mat)
        big = u @ np.kron(rho, env) @ u.conj().T
        red = np.einsum("abcb->ac", big.reshape(2, 2, 2, 2))
        dev = np.abs(red - ch.apply(rho)).max()
        if dev > 1e-12:
            failures.append(f"dilation vs operator-sum deviates by {dev:.3e}")
            break

    for _ in range(50):
        rho = random_density_matrix((2, 2), rng)
        basis = LocalBasisSet([(0,), (1,)], [random_unitary(2, rng), random_unitary(2, rng)])
        once = dephase(rho, basis)
        dev = np.abs(np.asarray(dephase(once, basis).mat) - np.asarray(once.mat)).max()
        if dev > 1e-13:
            failures.append(f"dephasing not idempotent: {dev:.3e}")
            break

    for _ in range(100):
        a = random_density_matrix((2, 2), rng)
        b = random_density_matrix((2, 2), rng)
        if relative_entropy(a, b) < -1e-9:
            failures.append("relative entropy went below -1e-9")
            break

    for _ in range(50):
        rho = random_density_matrix((2, 2), rng)
        sigma = random_density_matrix((2,), rng)
        joint = DensityMatrix((2, 2, 2), np.kron(rho.mat, sigma.mat))
        rep = genuine_total_In(joint)
        if abs(rep.value_bits) > 1e-9 or rep.witness.mask != (0, 1):
            failures.append(
                f"appending a product subsystem created {rep.value_bits!r} bits "
                f"(witness {rep.witness.mask})"
            )
            break

    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s, expected < 30 s")
    _report(10, "structural invariants (channels, dephasing, entropies, appending)", failures)
