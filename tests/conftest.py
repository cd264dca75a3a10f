import numpy as np
import pytest

from dicke2p.hilbert import AtomCoeffs, FockCutoff


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.fixture
def small_cutoff():
    # room for |alpha|^2 up to ~2 without tripping the capture guard
    return FockCutoff(24)


@pytest.fixture
def mixed_coeffs():
    return AtomCoeffs.normalized(0.3, 0.85, 0.35, 0.3)


def random_coeffs(rng):
    """Uniform-ish normalized atomic amplitudes, complex entries."""
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    return AtomCoeffs.normalized(*raw)


def linearized_propagator(g, n, t):
    """exp(-i H_n t) for photon sector n of W with the linearized spectrum
    w = g(2n-3), in the layout {|gg,n>, |psi+,n-2>, |ee,n-4>}.

    For n >= 4 this is the closed trigonometric 3x3 form; for n in {2,3}
    only {|gg,n>, |psi+,n-2>} exist, and they Rabi-rotate at w/sqrt(2)
    while the third slot stays put.
    """
    th = g * (2 * n - 3) * t
    if n >= 4:
        c2 = np.cos(th / 2.0) ** 2
        s2 = np.sin(th / 2.0) ** 2
        off = np.sin(th) / (1j * np.sqrt(2.0))
        return np.array([[c2, off, -s2], [off, np.cos(th), off], [-s2, off, c2]])
    c, s = np.cos(th / np.sqrt(2.0)), np.sin(th / np.sqrt(2.0))
    return np.array([[c, -1j * s, 0.0], [-1j * s, c, 0.0], [0.0, 0.0, 1.0]])


def blockwise_state(coeffs, alpha, g, t, cutoff):
    """Propagate |atoms>|alpha> sector by sector with linearized_propagator.

    Deliberately independent of analytic_state: photon sectors are assembled
    by hand in the {|gg,n>, |psi+,n-2>, |ee,n-4>} layout, contributions past
    the cutoff are dropped, and the result is renormalized.  Returns flat
    amplitudes in the product atomic basis (gg, ge, eg, ee) x Fock.
    """
    from dicke2p.hilbert import coherent_state

    nf = cutoff.dim
    p = coherent_state(alpha, cutoff).amplitudes

    def amp(k):
        return p[k] if 0 <= k <= cutoff.n_max else 0.0

    bell = np.zeros((4, nf), dtype=np.complex128)  # rows gg, psi-, psi+, ee
    bell[1, :] = coeffs.c_minus * p
    bell[0, 0] = coeffs.c_g * p[0]
    bell[0, 1] = coeffs.c_g * p[1]
    for n in range(2, cutoff.n_max + 5):
        vec = np.array(
            [amp(n) * coeffs.c_g, amp(n - 2) * coeffs.c_plus, amp(n - 4) * coeffs.c_e]
        )
        out = linearized_propagator(g, n, t) @ vec
        if n <= cutoff.n_max:
            bell[0, n] += out[0]
        if 0 <= n - 2 <= cutoff.n_max:
            bell[2, n - 2] += out[1]
        if 0 <= n - 4 <= cutoff.n_max:
            bell[3, n - 4] += out[2]
    sq = 1.0 / np.sqrt(2.0)
    prod = np.stack(
        [
            bell[0],
            sq * (bell[2] + bell[1]),
            sq * (bell[2] - bell[1]),
            bell[3],
        ]
    ).ravel()
    return prod / np.linalg.norm(prod)


def three_branch_state(coeffs, alpha, g, t, cutoff):
    """The large-nbar three-branch form of |atoms>|alpha> at one time t,
    unnormalized flat amplitudes in the product atomic basis x Fock.

    Deliberately independent of coherent_branch_basis: scalars and np.kron
    only, the Bell vectors written out, d+- = (c_g e^{2i phi} +- c_e
    e^{-2i phi})/sqrt(2) from the Bell-basis coefficients, and one
    coherent_state per label:
      (c_- psi- + d_- phi-_2phi) |alpha>
      + e^{-+igt} (c_+ +- d_+)/2 (psi+ +- phi+_{2phi-+4gt}) |e^{-+2igt} alpha>.
    """
    import cmath

    from dicke2p.hilbert import coherent_state

    sq = 1.0 / np.sqrt(2.0)
    psi_minus = sq * np.array([0.0, 1.0, -1.0, 0.0])
    psi_plus = sq * np.array([0.0, 1.0, 1.0, 0.0])

    def phi_bell(theta, sign):
        return sq * np.array([cmath.exp(-1j * theta), 0.0, 0.0, sign * cmath.exp(1j * theta)])

    two_phi = 2.0 * cmath.phase(alpha)
    ep = cmath.exp(1j * two_phi)
    d_plus = sq * (coeffs.c_g * ep + coeffs.c_e / ep)
    d_minus = sq * (coeffs.c_g * ep - coeffs.c_e / ep)
    gt = g * t
    out = np.kron(
        coeffs.c_minus * psi_minus + d_minus * phi_bell(two_phi, -1.0),
        coherent_state(alpha, cutoff).amplitudes,
    )
    for s in (1.0, -1.0):
        atoms = (coeffs.c_plus + s * d_plus) / 2.0 * (
            psi_plus + s * phi_bell(two_phi - 4.0 * s * gt, 1.0)
        )
        label = cmath.exp(-2j * s * gt) * alpha
        out = out + cmath.exp(-1j * s * gt) * np.kron(
            atoms, coherent_state(label, cutoff).amplitudes
        )
    return out


def fidelity_scan_oracle(nbars, ensemble, seed, time_points, g_g=1.0, g_e=1.0, delta=500.0):
    """Rows of scans.fidelity_scan computed one Haar sample at a time: each
    sample propagated to every time by the three evolve_*_many calls and
    averaged by ensemble_average.  Deliberately free of shared phase tables
    and time chunks."""
    import cmath
    import math

    from dicke2p.analysis import ensemble_average, haar_random_two_qubit
    from dicke2p.dynamics import (
        evolve_exact_many,
        evolve_linearized_many,
        linearized_spectrum,
        sector_spectrum,
    )
    from dicke2p.hilbert import StateVector, coherent_state, tensor
    from dicke2p.models import (
        EffectiveModelParams,
        FullModelParams,
        effective_coupling,
        embed_indices,
        excitation_labels,
    )
    from dicke2p.scans import _SEED_STRIDE

    g = effective_coupling(g_g, g_e, delta)
    grid = np.linspace(0.0, 1.0, time_points)
    times = grid * math.pi / abs(g)
    data = [grid]
    for k, nbar in enumerate(nbars):
        cutoff = FockCutoff.for_mean_photon(float(nbar))
        full_spec = sector_spectrum(
            FullModelParams(omega=0.0, delta=delta, g_g=g_g, g_e=g_e, cutoff=cutoff)
        )
        w_spec = sector_spectrum(EffectiveModelParams(g, cutoff))
        lin_spec = linearized_spectrum(g, cutoff)
        idx = embed_indices(cutoff)
        rot = np.exp(2j * g * np.outer(times, excitation_labels(cutoff, levels=2)))

        def task(rng):
            coeffs = haar_random_two_qubit(rng)
            phi = 2.0 * math.pi * rng.uniform()
            alpha = math.sqrt(nbar) * cmath.exp(1j * phi)
            psi0 = tensor(coeffs.to_state(), coherent_state(alpha, cutoff))
            full0 = np.zeros(full_spec.space.dim, dtype=np.complex128)
            full0[idx] = psi0.amplitudes
            traj_full = evolve_exact_many(full_spec, StateVector(full0, full_spec.space), times)
            sub = traj_full[:, idx] * rot
            traj_w = evolve_exact_many(w_spec, psi0, times)
            traj_an = evolve_linearized_many(lin_spec, psi0, times)
            f_w = np.abs(np.einsum("td,td->t", traj_w.conj(), sub)) ** 2
            f_an = np.abs(np.einsum("td,td->t", traj_an.conj(), sub)) ** 2
            return np.stack([f_w, f_an])

        mean, err = ensemble_average(task, ensemble, seed + k * _SEED_STRIDE)
        data += [mean[0], err[0], mean[1], err[1]]
    return np.column_stack(data)
