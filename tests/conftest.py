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
