"""Acceptance suite: one test per release criterion, each printing a pass/fail
line (run with ``pytest -s`` to see them on success).

The transition coupling shifts every ladder level at second order, which moves
the true resonance gap away from the paper's first-order value 2|V_N(n)|.
Exact diagonalization puts the two-photon gap (N = 2) 3.7% off 2|V| (inside
criterion 3's 5% period gate) and the three-photon gap (N = 3) 15.7% off.  Two
criteria therefore compare against the second-order secular treatment
(``order=2``), whose gaps follow exact diagonalization to within 0.5% (checked
independently in test_rwa.py):

* criterion 4 times the three-photon exchange against the second-order gap
  E_plus - E_minus and prints the first-order period beside it;
* criterion 6 compares the second-order secular inversion with RK4; at first
  order the 3.7% gap error builds up ~0.7 rad of phase slip over three Rabi
  periods, a mismatch near 0.7 against the 0.05 gate.
"""

import math

import numpy as np
import pytest

from oracles import displacement_expm
from mprabi.fockmath import FockSpace, displacement_matrix, laguerre_transition
from mprabi.model import ModelParams, build_full, ladder_energies
from mprabi.rwa import (
    coupling_element,
    rabi_frequency,
    resonant_omega0,
    spectrum_records,
)
from mprabi.dynamics import (
    InitialStateSpec,
    evolve_numeric,
    evolve_rwa,
    inversion_coherent,
    prepare_initial,
    project_numeric,
    project_secular,
)

PERIOD = 2.0 * math.pi  # oscillator period at omega = 1
DT = PERIOD / 1000.0  # default integration step


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def two_photon_params() -> ModelParams:
    omega0 = resonant_omega0(2, omega=1.0, lambda_g=0.0, lambda_e=0.1)
    return ModelParams(omega=1.0, omega0=omega0, lambda_g=0.0, lambda_e=0.1, lambda_eg=0.02)


def three_photon_params() -> ModelParams:
    # the three-photon scenario carries opposite-sign mean dipoles; in this
    # Hamiltonian's convention both diagonal couplings enter positive
    omega0 = resonant_omega0(3, omega=1.0, lambda_g=0.1, lambda_e=0.1)
    return ModelParams(omega=1.0, omega0=omega0, lambda_g=0.1, lambda_e=0.1, lambda_eg=0.02)


def _strong_peaks(
    times: np.ndarray, values: np.ndarray, min_sep: int, min_frac: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lobe peaks of an oscillatory series, parabolically refined.

    Three-point local maxima above min_frac of the global maximum are kept
    tallest first with an exclusion radius of min_sep samples, which drops the
    fast counter-rotating ripples riding on the slow exchange lobes while
    keeping genuine small lobes deep in a collapsed region."""
    floor = min_frac * float(np.max(values))
    cand = [
        i
        for i in range(1, len(values) - 1)
        if values[i] >= values[i - 1] and values[i] >= values[i + 1] and values[i] >= floor
    ]
    if values[0] >= values[1] and values[0] >= floor:
        cand.append(0)
    if values[-1] >= values[-2] and values[-1] >= floor:
        cand.append(len(values) - 1)
    kept: list[int] = []
    for i in sorted(cand, key=lambda j: -values[j]):
        if all(abs(i - j) >= min_sep for j in kept):
            kept.append(i)
    kept.sort()
    t_out, v_out = [], []
    for i in kept:
        t_ref, v_ref = times[i], values[i]
        if 0 < i < len(values) - 1:
            denom = values[i - 1] - 2 * values[i] + values[i + 1]
            if denom < 0:
                shift = 0.5 * (values[i - 1] - values[i + 1]) / denom
                t_ref = times[i] + shift * (times[i + 1] - times[i])
                v_ref = values[i] - 0.25 * (values[i - 1] - values[i + 1]) * shift
        t_out.append(float(t_ref))
        v_out.append(float(v_ref))
    return np.array(t_out), np.array(v_out)


def _envelope_crossing_time(
    peak_times: np.ndarray, peak_heights: np.ndarray, level: float
) -> float:
    """First time the peak-height envelope drops to ``level`` (interpolated)."""
    below = np.nonzero(peak_heights <= level)[0]
    if below.size == 0:
        return math.inf
    j = int(below[0])
    if j == 0:
        return float(peak_times[0])
    t0, t1 = peak_times[j - 1], peak_times[j]
    h0, h1 = peak_heights[j - 1], peak_heights[j]
    return float(t0 + (h0 - level) / (h0 - h1) * (t1 - t0))


@pytest.fixture(scope="module")
def two_photon_run():
    params = two_photon_params()
    space = FockSpace(20)
    psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
    t_rabi = 2.0 * math.pi / rabi_frequency(params, 2, 2)
    traj = evolve_numeric(
        project_numeric(build_full(params, space), psi0), 3.0 * t_rabi, DT, sample_every=100,
        period=PERIOD,
    )
    return params, space, psi0, traj, t_rabi


@pytest.fixture(scope="module")
def two_photon_rwa(two_photon_run):
    params, _, psi0, _, t_rabi = two_photon_run
    return evolve_rwa(project_secular(params, 2, psi0, 2), 3.0 * t_rabi, DT, 100, period=PERIOD)


@pytest.fixture(scope="module")
def collapse_runs():
    params = two_photon_params()
    n = 2
    nbar = 20.0
    # closed-form curve far past the revival, 0.05 T sampling
    grid = np.arange(0.0, 420.0 * PERIOD, 0.05 * PERIOD)
    closed = inversion_coherent(params, n, nbar, grid)
    # numeric run through the collapse; the populated band sits near photon
    # number 20 where the default step would bleed norm, so step at T/8000
    space = FockSpace(110)
    psi0 = prepare_initial(InitialStateSpec("ground-coherent", mean_photons=nbar), params, space)
    traj = evolve_numeric(
        project_numeric(build_full(params, space), psi0),
        32.0 * PERIOD, PERIOD / 8000.0, sample_every=400, period=PERIOD
    )
    return grid, closed, traj


def test_criterion_1_ladder_energies():
    params = ModelParams(omega=1.0, omega0=2.01, lambda_g=0.0, lambda_e=0.1, lambda_eg=0.0)
    space = FockSpace(200)
    evals = np.linalg.eigvalsh(build_full(params, space))[:20]
    ladder = sorted(np.concatenate(ladder_energies(params, np.arange(30))))[:20]
    rel = np.max(np.abs(evals - np.array(ladder)) / np.abs(ladder))
    _report(1, "ladder energies", rel < 1e-6, f"max rel dev {rel:.2e} (tol 1e-6)")


def test_criterion_2_selection_rule():
    params = ModelParams(omega=1.0, omega0=1.0, lambda_g=0.0, lambda_e=0.0, lambda_eg=0.02)
    worst_multi = 0.0
    for n in range(2, 7):
        for n_manifold in range(n, 21):
            worst_multi = max(worst_multi, abs(coupling_element(params, n_manifold, n)))
    worst_single = 0.0
    for n_manifold in range(1, 21):
        got = abs(coupling_element(params, n_manifold, 1))
        expect = 0.02 * math.sqrt(n_manifold)
        worst_single = max(worst_single, abs(got - expect) / expect)
    ok = worst_multi < 1e-12 and worst_single < 1e-10
    _report(
        2,
        "selection rule",
        ok,
        f"max |V(n>=2)| {worst_multi:.2e} (tol 1e-12), "
        f"sqrt(N) rel dev {worst_single:.2e} (tol 1e-10)",
    )


def test_criterion_3_two_photon_exchange(two_photon_run):
    params, _, _, traj, t_rabi = two_photon_run
    concentration = np.min(np.sum(traj.photon_dist[:, :3], axis=1))
    p2 = traj.photon_dist[:, 2]
    spacing = traj.times[1] - traj.times[0]
    peak_t, _ = _strong_peaks(traj.times, p2, int(0.3 * t_rabi / spacing), 0.5)
    measured = float(np.median(np.diff(peak_t)))
    expected = 2.0 * math.pi / rabi_frequency(params, 2, 2)
    period_dev = abs(measured - expected) / expected
    ok = (
        concentration >= 0.95
        and float(np.max(p2)) > 0.5
        and float(np.min(p2)) < 0.1
        and peak_t.size >= 2
        and period_dev < 0.05
    )
    _report(
        3,
        "two-photon exchange",
        ok,
        f"min P(0..2) {concentration:.4f} (>=0.95), period dev {period_dev:.3%} (tol 5%)",
    )


def test_criterion_4_three_photon_exchange():
    # The reference period is the second-order gap E_plus - E_minus: at these
    # couplings the level shifts detune the pair by ~1.2e-3 omega, the size of
    # Omega_3(3) = 2|V_3(3)| = 1.9e-3 omega itself, so exact diagonalization
    # puts the gap 15.7% off the first-order value and 0.4% off the second-order
    # one.  The run length and the peak finder's exclusion radius still follow
    # the first-order period, which is printed beside the second-order one.
    params = three_photon_params()
    space = FockSpace(16)
    psi0 = prepare_initial(InitialStateSpec("excited-fock"), params, space)
    first_order = 2.0 * math.pi / rabi_frequency(params, 3, 3)
    (rec,) = spectrum_records(params, 3, [3], order=2)["manifolds"]
    expected = 2.0 * math.pi / (rec["E_plus"] - rec["E_minus"])
    traj = evolve_numeric(
        project_numeric(build_full(params, space), psi0), 1.45 * first_order, DT, sample_every=100,
        period=PERIOD,
    )
    p3 = traj.photon_dist[:, 3]
    spacing = traj.times[1] - traj.times[0]
    peak_t, _ = _strong_peaks(traj.times, p3, int(0.3 * first_order / spacing), 0.5)
    if peak_t.size >= 2:
        measured = float(np.median(np.diff(peak_t)))
    else:
        measured = 2.0 * float(peak_t[0])
    period_dev = abs(measured - expected) / expected
    exchanged = float(np.max(p3)) > 0.5 and float(np.min(p3)) < 0.1
    ok = exchanged and period_dev < 0.05
    _report(
        4,
        "three-photon exchange",
        ok,
        f"max P3 {float(np.max(p3)):.3f}, period dev {period_dev:.3%} (tol 5%); "
        f"measured {measured / PERIOD:.1f}T vs second-order {expected / PERIOD:.1f}T "
        f"(first-order {first_order / PERIOD:.1f}T)",
    )


def test_criterion_5_collapse_and_revival(collapse_runs):
    grid, closed, traj = collapse_runs
    rabi_period = 2.0 * math.pi / rabi_frequency(two_photon_params(), 20, 2)
    sep = int(0.3 * rabi_period / (grid[1] - grid[0]))
    # closed-form envelope from the peak heights of |W|
    ct, ch = _strong_peaks(grid, np.abs(closed), sep, 0.0)
    h0 = ch[0]
    t_collapse = _envelope_crossing_time(ct, ch, 0.2 * h0)
    collapsed = math.isfinite(t_collapse)
    revived = bool(np.any((ct > t_collapse) & (ch >= 0.5 * h0))) if collapsed else False
    # numeric collapse time with the same extractor and sampling
    nt, nh = _strong_peaks(traj.times, np.abs(traj.inversion), sep, 0.0)
    t_collapse_num = _envelope_crossing_time(nt, nh, 0.2 * nh[0])
    agree = (
        math.isfinite(t_collapse_num)
        and abs(t_collapse_num - t_collapse) / t_collapse <= 0.20
    )
    ok = collapsed and revived and agree
    _report(
        5,
        "collapse and revival",
        ok,
        f"t_collapse {t_collapse / PERIOD:.1f}T vs numeric {t_collapse_num / PERIOD:.1f}T "
        f"(tol 20%), revival {'yes' if revived else 'no'}",
    )


def test_criterion_6_rwa_vs_exact(two_photon_run, two_photon_rwa):
    # the secular curve is second order: at first order the 3.7% gap error
    # builds up ~0.7 rad of phase slip over three Rabi periods and the
    # mismatch reaches 0.70, far past the 0.05 bound
    _, _, _, traj, _ = two_photon_run
    diff = float(np.max(np.abs(two_photon_rwa.inversion - traj.inversion)))
    _report(6, "secular vs exact inversion", diff <= 0.05, f"max |dW| {diff:.4f} (tol 0.05)")


def test_criterion_7_integrator_order(two_photon_run):
    params, space, psi0, traj, _ = two_photon_run
    h = build_full(params, space)
    window = 4.0 * PERIOD

    def end_state(dt):
        run = evolve_numeric(project_numeric(h, psi0), window, dt, 10_000_000, period=PERIOD)
        return run.final_state

    ref = end_state(DT / 8.0)
    e1 = float(np.linalg.norm(end_state(DT) - ref))
    e2 = float(np.linalg.norm(end_state(DT / 2.0) - ref))
    factor = e1 / e2
    drift = float(np.max(np.abs(traj.norm - 1.0)))
    ok = 12.0 <= factor <= 20.0 and drift < 1e-8
    _report(
        7,
        "integrator order",
        ok,
        f"halving factor {factor:.2f} (16 +/- 4), norm drift {drift:.2e} (tol 1e-8)",
    )


def test_criterion_8_special_function_suite():
    # unitarity
    worst_unit = 0.0
    for n_photon in (0, 7, 14, 20):
        for alpha in (0.5, 1.5, 3.0, 4.0):
            n_max = int(n_photon + 10 * alpha + 50)
            total = sum(laguerre_transition(n_photon, m, alpha) ** 2 for m in range(n_max))
            worst_unit = max(worst_unit, abs(total - 1.0))
    # antisymmetry, exact by construction
    rng = np.random.default_rng(99)
    anti_exact = True
    for _ in range(300):
        s, sp = int(rng.integers(0, 60)), int(rng.integers(0, 60))
        alpha = float(rng.uniform(0.0, 8.0))
        sign = -1.0 if (s - sp) % 2 else 1.0
        anti_exact &= laguerre_transition(s, sp, alpha) == sign * laguerre_transition(sp, s, alpha)
    # displacement-matrix oracle on 200 random cases
    space = FockSpace(21)
    worst_disp = 0.0
    for _ in range(200):
        beta = float(rng.uniform(-1.5, 1.5))
        oracle = displacement_expm(beta, 100)[:21, :21]
        got = displacement_matrix(beta, space)
        worst_disp = max(worst_disp, float(np.max(np.abs(got - oracle))))
    ok = worst_unit < 1e-10 and anti_exact and worst_disp < 1e-9
    _report(
        8,
        "special functions",
        ok,
        f"unitarity {worst_unit:.2e} (tol 1e-10), antisymmetry exact {anti_exact}, "
        f"displacement oracle {worst_disp:.2e} (tol 1e-9)",
    )


def test_criterion_9_coherent_weight_convention():
    # brute-force overlaps decide the weight argument of the coherent-state
    # inversion series and the shipped curve must match them
    n = 2
    cases = [(4.0, 0.13), (9.0, 0.0), (20.0, 0.05)]
    worst_good = 0.0
    best_bad = math.inf
    worst_curve = 0.0
    for nbar, g in cases:
        n_big = 160
        coherent = displacement_expm(-math.sqrt(nbar), n_big)[:, 0]
        down_basis = displacement_expm(g, n_big)
        weights = np.array([abs(down_basis[:, k] @ coherent) ** 2 for k in range(70)])
        rho_good = (math.sqrt(nbar) + g) ** 2  # displacement-based argument
        rho_bad = (nbar + g) ** 2  # mean-photon-number misread
        cand_good = np.array([laguerre_transition(k, 0, rho_good) ** 2 for k in range(70)])
        cand_bad = np.array([laguerre_transition(k, 0, rho_bad) ** 2 for k in range(70)])
        worst_good = max(worst_good, float(np.max(np.abs(weights - cand_good))))
        best_bad = min(best_bad, float(np.max(np.abs(weights - cand_bad))))
        # shipped curve against a fully brute-force series
        params = ModelParams(
            omega=1.0,
            omega0=resonant_omega0(n, omega=1.0, lambda_g=g, lambda_e=0.1),
            lambda_g=g, lambda_e=0.1, lambda_eg=0.02,
        )
        t = np.linspace(0.0, 900.0, 120)
        brute = np.full_like(t, -1.0)
        for k in range(n, 70):
            omega_r = 2.0 * abs(coupling_element(params, k, n))
            brute += 2.0 * weights[k] * np.sin(0.5 * omega_r * t) ** 2
        shipped = inversion_coherent(params, n, nbar, t)
        worst_curve = max(worst_curve, float(np.max(np.abs(shipped - brute))))
    ok = worst_good < 1e-9 and best_bad > 1e-3 and worst_curve < 1e-9
    _report(
        9,
        "coherent weight convention",
        ok,
        f"displacement-based dev {worst_good:.2e} (tol 1e-9), "
        f"misread dev {best_bad:.2e} (must exceed 1e-3), "
        f"shipped-vs-oracle curve {worst_curve:.2e} (tol 1e-9)",
    )
