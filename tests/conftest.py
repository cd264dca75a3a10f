import contextlib
import math
import tracemalloc
import types
from typing import Callable, Literal

import numpy as np
import pytest

from dicke2p.analysis import DensityMatrix, _haar_atoms, ensemble_stats, sample_rng
from dicke2p.dynamics import _branch_maps, check_branch_regime
from dicke2p.hilbert import (
    AtomCoeffs,
    FockCutoff,
    Operator,
    StateVector,
    coherent_state,
)
from dicke2p.models import FullModelParams


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


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes of the matrices passed to np.linalg.eigh and eigvalsh
    over the test, in call order."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        def spy(a, *args, _fn=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return shapes


@pytest.fixture
def fresh_caches():
    """Empty the per-parameter and per-input caches before and after, so no
    map built under a patched builder outlives the test."""
    from dicke2p import protocols

    caches = (protocols._cavity, protocols._ideal_law, protocols._homodyne_law)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@contextlib.contextmanager
def traced_peak():
    """Trace allocations over the block; its tracemalloc peak, in bytes, is
    the yielded record's `peak` once the block has run."""
    record = types.SimpleNamespace(peak=None)
    tracemalloc.start()
    try:
        yield record
        record.peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Test-only builders and statistics.  The library reaches its results
# through coherent states, the sector engine and ensemble_stats; these
# helpers serve the tests and their oracles alone.


def fock_state(n: int, cutoff: FockCutoff) -> StateVector:
    if not 0 <= n <= cutoff.n_max:
        raise ValueError(f"Fock index {n} outside 0..{cutoff.n_max}")
    amps = np.zeros(cutoff.dim, dtype=np.complex128)
    amps[n] = 1.0
    return StateVector(amps, (cutoff.dim,))


def cat_state(alpha: complex, parity: str, cutoff: FockCutoff) -> StateVector:
    """Normalized |alpha> +- |-alpha>, built from the truncated vectors."""
    if parity not in ("+", "-"):
        raise ValueError("parity must be '+' or '-'")
    if parity == "-" and alpha == 0:
        raise ValueError("odd cat state is undefined for alpha = 0")
    plus = coherent_state(alpha, cutoff).amplitudes
    minus = coherent_state(-alpha, cutoff).amplitudes
    raw = plus + minus if parity == "+" else plus - minus
    return StateVector.normalized(raw, (cutoff.dim,))


def trapped_ion_coupling(rabi: float, lamb_dicke: float) -> float:
    """Effective coupling of the motional analogue: -rabi * eta^2 / 2."""
    return -rabi * lamb_dicke**2 / 2.0


def ensemble_average(
    task: Callable[[np.random.Generator], float | np.ndarray],
    n_samples: int,
    master_seed: int,
) -> tuple[np.ndarray | float, np.ndarray | float]:
    """Mean and standard error of task over per-sample RNG streams.

    Each sample gets the stream sample_rng(master_seed, i), so results are
    reproducible bit for bit no matter how the loop is scheduled.
    """
    values = np.array([task(sample_rng(master_seed, i)) for i in range(n_samples)])
    mean, stderr = ensemble_stats(values)
    if np.ndim(mean) == 0:
        return float(mean), float(stderr)
    return mean, stderr


def partial_trace(state: StateVector | DensityMatrix, keep: str) -> DensityMatrix:
    """Reduce a tripartite state to its atomic or field factor."""
    if keep not in ("atoms", "field"):
        raise ValueError("keep must be 'atoms' or 'field'")
    if len(state.dims) != 3:
        raise ValueError(f"expected atom A, atom B and field factors, got dims {state.dims}")
    atom_dims, field_dims = state.dims[:2], state.dims[2:]
    d_a, d_f = math.prod(atom_dims), field_dims[0]
    if isinstance(state, StateVector):
        mat = state.amplitudes.reshape(d_a, d_f)
        tr = float(np.vdot(mat, mat).real)  # the trace of either reduction
        if keep == "atoms":
            return DensityMatrix._positive(mat @ mat.conj().T, atom_dims, tr)
        return DensityMatrix._positive(mat.T @ mat.conj(), field_dims, tr)
    rho = state.matrix.reshape(d_a, d_f, d_a, d_f)
    if keep == "atoms":
        return DensityMatrix(np.einsum("ambm->ab", rho), atom_dims)
    return DensityMatrix(np.einsum("aman->mn", rho), field_dims)


def haar_random_two_qubit(rng: np.random.Generator) -> AtomCoeffs:
    """Haar-distributed pure two-qubit state (first column of a Haar
    unitary from QR of a complex Ginibre matrix with phase fixing)."""
    return AtomCoeffs.from_state(StateVector(_haar_atoms([rng])[0], (2, 2)))


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


def coherent_branch_basis(
    alpha: complex, g: float, times: np.ndarray, cutoff: FockCutoff
) -> np.ndarray:
    """The paper's large-nbar three-branch form (_branch_maps) on the Fock
    basis: each product-basis atomic state (x) |alpha> at every t,
    unnormalized; shape (len(times), 4, 4, dim), indexed [t, input state,
    atoms, field] as SectorSpectrum.propagate gives them for the exact
    engine: the tests' Fock oracle, read by no engine.  Warns by
    check_branch_regime.  |alpha e^{i theta}> is |alpha> turned by
    e^{i theta n}, so one coherent state serves every label."""
    check_branch_regime(alpha, stacklevel=2)
    maps, theta = _branch_maps(alpha, g, times)
    n = np.arange(cutoff.dim)
    fields = coherent_state(alpha, cutoff).amplitudes * np.exp(1j * theta[..., None] * n)
    flat = maps.transpose(0, 3, 2, 1).reshape(len(maps), 16, 3) @ fields
    return flat.reshape(len(maps), 4, 4, cutoff.dim)


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


def cavity_maps_oracle(alpha, g, times, n_max, engine):
    """One cavity's readouts (T, 2, 4, 4) and Gram matrices (T, 4, 4) by
    evolving the product-basis atomic states (x) |alpha> to every time and
    projecting them on |+-alpha>: with SectorSpectrum.propagate for the
    exact engine (Gram = identity, as the evolution is unitary), and by the
    three-branch form on the Fock basis for the analytic one.  Deliberately
    free of the sector-eigenbasis readout and the closed-form coherent
    overlaps that protocols._cavity_maps takes."""
    from dicke2p.dynamics import w_spectrum

    cutoff, times = FockCutoff(n_max), np.asarray(times, dtype=np.float64)
    field = coherent_state(alpha, cutoff).amplitudes
    refs = np.stack([field, coherent_state(-alpha, cutoff).amplitudes]).conj().T
    if engine == "exact":
        spectrum = w_spectrum(g, cutoff)
        kets = np.kron(np.eye(4), field)
        basis = np.stack([spectrum.propagate(k, times) for k in kets], axis=1)
        gram = np.tile(np.eye(4, dtype=np.complex128), (times.size, 1, 1))
    else:
        basis = coherent_branch_basis(alpha, g, times, cutoff)
        flat = basis.reshape(times.size, 4, -1)
        gram = flat.conj() @ flat.transpose(0, 2, 1)
    basis = basis.reshape(times.size, 4, 4, cutoff.dim)
    return (basis @ refs).transpose(0, 3, 2, 1), gram


def excited_state_evolved(nbar, phi, g, times):
    """|ee>|sqrt(nbar) e^{i phi}> on the cutoff for nbar, evolved under W to
    every time by SectorSpectrum.propagate; amplitudes (T, 4 dim)."""
    from dicke2p.dynamics import w_spectrum
    from dicke2p.hilbert import tensor

    cutoff = FockCutoff.for_mean_photon(nbar)
    atoms = StateVector(np.array([0, 0, 0, 1], dtype=np.complex128), (2, 2))
    psi0 = tensor(atoms, coherent_state(np.sqrt(nbar) * np.exp(1j * phi), cutoff))
    spectrum = w_spectrum(g, cutoff)
    return spectrum.propagate(psi0.amplitudes, np.asarray(times, dtype=np.float64))


def rabi_oracle(nbar, g=-0.002, gt_max_over_pi=1.2, points=481):
    """The see_numeric column of scans.rabi_curve in the flat basis: the
    populations of the evolved state at every time, summed with the excited
    atoms (0, 1, 1, 2) of each atomic basis state.  Deliberately free of
    the sector-eigenbasis pair sum that rabi_curve takes."""
    times = np.linspace(0.0, gt_max_over_pi, points) * np.pi / abs(g)
    traj = excited_state_evolved(nbar, 0.0, g, times)
    return np.abs(traj) ** 2 @ np.repeat([0.0, 1.0, 1.0, 2.0], traj.shape[1] // 4)


def fidelity_scan_oracle(
    nbars, ensemble, seed, time_points, g_g=1.0, g_e=1.0, delta=500.0, cutoff=None
):
    """Rows of scans.fidelity_scan computed one Haar sample at a time: each
    sample propagated to every time by SectorSpectrum.propagate (the full
    model and W) and evolve_linearized_many, and averaged by
    ensemble_average.  Deliberately free of shared phase tables and time
    chunks.  The spectra live on `cutoff`, by default each nbar's own; each
    input is built on its nbar's own cutoff and zero-padded onto it."""
    import cmath

    from dicke2p.dynamics import (
        evolve_linearized_many,
        linearized_spectrum,
        sector_spectrum,
        w_spectrum,
    )
    from dicke2p.hilbert import tensor
    from dicke2p.models import effective_coupling
    from dicke2p.scans import _SEED_STRIDE

    g = effective_coupling(g_g, g_e, delta)
    grid = np.linspace(0.0, 1.0, time_points)
    times = grid * math.pi / abs(g)
    data = [grid]
    for k, nbar in enumerate(nbars):
        own = FockCutoff.for_mean_photon(float(nbar))
        shared = cutoff or own
        full_spec = sector_spectrum(
            FullModelParams(omega=0.0, delta=delta, g_g=g_g, g_e=g_e, cutoff=shared)
        )
        w_spec = w_spectrum(g, shared)
        lin_spec = linearized_spectrum(g, shared)
        idx = embed_indices(shared)
        rot = np.exp(2j * g * np.outer(times, excitation_labels(shared, levels=2)))

        def task(rng):
            coeffs = haar_random_two_qubit(rng)
            phi = 2.0 * math.pi * rng.uniform()
            alpha = math.sqrt(nbar) * cmath.exp(1j * phi)
            field = np.zeros(shared.dim, dtype=np.complex128)
            field[: own.dim] = coherent_state(alpha, own).amplitudes
            psi0 = tensor(coeffs.to_state(), StateVector(field, (shared.dim,)))
            full0 = np.zeros(math.prod(full_spec.dims), dtype=np.complex128)
            full0[idx] = psi0.amplitudes
            traj_full = full_spec.propagate(full0, times)
            sub = traj_full[:, idx] * rot
            traj_w = w_spec.propagate(psi0.amplitudes, times)
            traj_an = evolve_linearized_many(lin_spec, psi0, times)
            f_w = np.abs(np.einsum("td,td->t", traj_w.conj(), sub)) ** 2
            f_an = np.abs(np.einsum("td,td->t", traj_an.conj(), sub)) ** 2
            return np.stack([f_w, f_an])

        mean, err = ensemble_average(task, ensemble, seed + k * _SEED_STRIDE)
        data += [mean[0], err[0], mean[1], err[1]]
    return np.column_stack(data)


# Dense reference operators on the flat layout atom A (x) atom B (x) field.
# The library builds the full Hamiltonian only as excitation-sector blocks
# (dynamics.sector_spectrum) and W only as its closed-form sector spectrum;
# these Kronecker-product forms are the independent oracles both are
# checked against (w_sector_blocks reads W's blocks off them), and the
# Stark-shift and dispersive-reduction tests check the elimination of the
# intermediate level on them.


Level = Literal["g", "i", "e"]

_LEVEL_INDEX = {2: {"g": 0, "e": 1}, 3: {"g": 0, "i": 1, "e": 2}}


def annihilation_op(cutoff: FockCutoff) -> Operator:
    """Photon annihilation: <n-1|a|n> = sqrt(n)."""
    n = cutoff.dim
    mat = np.diag(np.sqrt(np.arange(1, n)), k=1).astype(np.complex128)
    return Operator(mat, (cutoff.dim,))


def creation_op(cutoff: FockCutoff) -> Operator:
    return Operator(annihilation_op(cutoff).matrix.conj().T, (cutoff.dim,))


def number_op(cutoff: FockCutoff) -> Operator:
    mat = np.diag(np.arange(cutoff.dim, dtype=np.float64)).astype(np.complex128)
    return Operator(mat, (cutoff.dim,), hermitian=True)


def collective_op(mu: Level, nu: Level, levels_per_atom: int = 2) -> Operator:
    """Two-atom collective operator |mu><nu|_A + |mu><nu|_B.

    Acts on the bare two-atom space (no field factor).  The intermediate
    level 'i' exists only for three-level atoms.
    """
    if levels_per_atom not in (2, 3):
        raise ValueError("levels_per_atom must be 2 or 3")
    index = _LEVEL_INDEX[levels_per_atom]
    if mu not in index or nu not in index:
        raise ValueError(f"level {mu!r}/{nu!r} not available with {levels_per_atom} levels")
    single = np.zeros((levels_per_atom, levels_per_atom), dtype=np.complex128)
    single[index[mu], index[nu]] = 1.0
    eye = np.eye(levels_per_atom, dtype=np.complex128)
    mat = np.kron(single, eye) + np.kron(eye, single)
    return Operator(mat, (levels_per_atom, levels_per_atom), hermitian=True if mu == nu else None)


# Largest dimension a dense builder accepts: one complex matrix of 2048^2
# entries takes 64 MiB.  The three-level model at nbar = 100 has dimension
# 1665; the sector engine has no such limit.
DENSE_DIM_LIMIT = 2048


def _check_dense(cutoff: FockCutoff, levels: int) -> None:
    """Refuse a dense tripartite build past DENSE_DIM_LIMIT before any
    matrix is allocated."""
    dim = levels * levels * cutoff.dim
    if dim > DENSE_DIM_LIMIT:
        raise ValueError(
            f"dense build of dimension {dim} would need {16 * dim * dim:,} bytes per "
            f"matrix, past the limit of {DENSE_DIM_LIMIT}; use the excitation-sector "
            "engine (dynamics.sector_spectrum) instead"
        )


def _field_ops(
    cutoff: FockCutoff, levels: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    _check_dense(cutoff, levels)
    a = annihilation_op(cutoff).matrix
    ad = creation_op(cutoff).matrix
    n = number_op(cutoff).matrix
    eye = np.eye(cutoff.dim, dtype=np.complex128)
    return a, ad, n, eye


def full_hamiltonian(params: FullModelParams) -> Operator:
    """RWA Hamiltonian of both cascade atoms coupled to one mode.

    H = omega a^dag a + 2 omega S_ee + (omega + delta) S_ii
        + g_g (a S_ig + a^dag S_gi) + g_e (a S_ei + a^dag S_ie)
    """
    cutoff = params.cutoff
    a, ad, n, eye_f = _field_ops(cutoff, 3)
    eye_a = np.eye(9, dtype=np.complex128)

    s_ee = collective_op("e", "e", 3).matrix
    s_ii = collective_op("i", "i", 3).matrix
    s_ig = collective_op("i", "g", 3).matrix
    s_ei = collective_op("e", "i", 3).matrix

    h = params.omega * np.kron(eye_a, n)
    h += 2.0 * params.omega * np.kron(s_ee, eye_f)
    h += (params.omega + params.delta) * np.kron(s_ii, eye_f)
    h += params.g_g * (np.kron(s_ig, a) + np.kron(s_ig.conj().T, ad))
    h += params.g_e * (np.kron(s_ei, a) + np.kron(s_ei.conj().T, ad))
    return Operator(h, (3, 3, cutoff.dim), hermitian=True)


def two_photon_w(g: float, cutoff: FockCutoff) -> Operator:
    """Two-photon interaction W = g (a^2 S_eg + a^dag^2 S_ge) on two-level atoms."""
    a, ad, _, _ = _field_ops(cutoff, 2)
    s_eg = collective_op("e", "g", 2).matrix
    s_ge = collective_op("g", "e", 2).matrix
    w = g * (np.kron(s_eg, a @ a) + np.kron(s_ge, ad @ ad))
    return Operator(w, (2, 2, cutoff.dim), hermitian=True)


def w_sector_blocks(g: float, cutoff: FockCutoff) -> tuple[np.ndarray, np.ndarray]:
    """The sector blocks of two_photon_w, in the layout of W's closed-form
    spectrum: sector N = 0 .. n_max + 4 holds the slots |gg,N>, |ge,N-2>,
    |eg,N-2>, |ee,N-4>, and a slot off the cutoff keeps zero rows and
    columns.  Returns the blocks (sectors, 4, 4) and which slots lie on the
    cutoff (sectors, 4)."""
    nf = cutoff.dim
    photons = np.arange(nf + 4)[:, None] - np.array([0, 2, 2, 4])
    real = (photons >= 0) & (photons < nf)
    flat = np.where(real, nf * np.arange(4) + photons, 0)
    dense = two_photon_w(g, cutoff).matrix.real[flat[:, :, None], flat[:, None, :]]
    return np.where(real[:, :, None] & real[:, None, :], dense, 0.0), real


def stark_shift(params: FullModelParams) -> Operator:
    """Level shifts accompanying W after the intermediate level is removed.

    S = -2(g_g^2/delta) I - ((g_e^2 - g_g^2)/delta) a a^dag S_ee
        + 3(g_g^2/delta) S_ee,
    with I the excitation counter a^dag a + 2 S_ee, on the two-level
    atomic space.  The photon-dependent part vanishes when g_g = g_e.
    """
    cutoff = params.cutoff
    a, ad, _, eye_f = _field_ops(cutoff, 2)
    s_ee = collective_op("e", "e", 2).matrix
    i_mat = constant_of_motion(cutoff, levels=2).matrix
    mat = -2.0 * (params.g_g**2 / params.delta) * i_mat
    mat += -((params.g_e**2 - params.g_g**2) / params.delta) * np.kron(s_ee, a @ ad)
    mat += 3.0 * (params.g_g**2 / params.delta) * np.kron(s_ee, eye_f)
    return Operator(mat, (2, 2, cutoff.dim), hermitian=True)


def excitation_labels(cutoff: FockCutoff, levels: int = 2) -> np.ndarray:
    """Excitation number a^dag a + 2 S_ee (+ S_ii for three-level atoms) of
    every basis state in the flat layout atom A (x) atom B (x) field; the
    oracle of the sector rows of models.sector_index."""
    if levels not in (2, 3):
        raise ValueError("levels must be 2 or 3")
    x = np.array((0, 2) if levels == 2 else (0, 1, 2))
    return (x[:, None, None] + x[None, :, None] + np.arange(cutoff.dim)).ravel()


def embed_indices(cutoff: FockCutoff) -> np.ndarray:
    """Flat indices of the two-level subspace (g, e of each atom) inside the
    three-level layout, where g, e are levels 0 and 2."""
    nf = cutoff.dim
    return np.concatenate([(3 * a + b) * nf + np.arange(nf) for a in (0, 2) for b in (0, 2)])


def constant_of_motion(cutoff: FockCutoff, levels: int = 2) -> Operator:
    """Excitation counter a^dag a + 2 S_ee (+ S_ii for three-level atoms).

    Commutes with the full Hamiltonian and with W, including under
    truncation, because every interaction term conserves it exactly.
    """
    labels = excitation_labels(cutoff, levels)
    _check_dense(cutoff, levels)
    mat = np.diag(labels.astype(np.complex128))
    return Operator(mat, (levels, levels, cutoff.dim), hermitian=True)


def dispersive_generator(params: FullModelParams) -> np.ndarray:
    """Anti-Hermitian generator of the frame change that removes the
    intermediate level to first order in g/delta."""
    cutoff = params.cutoff
    a, ad, _, _ = _field_ops(cutoff, 3)
    s_ig = collective_op("i", "g", 3).matrix
    s_gi = collective_op("g", "i", 3).matrix
    s_ei = collective_op("e", "i", 3).matrix
    s_ie = collective_op("i", "e", 3).matrix
    g = (params.g_g / params.delta) * (np.kron(s_ig, a) - np.kron(s_gi, ad))
    g -= (params.g_e / params.delta) * (np.kron(s_ei, a) - np.kron(s_ie, ad))
    return g


def embed_two_level_state(state: StateVector, cutoff: FockCutoff) -> StateVector:
    """Lift a state of two two-level atoms + field into the three-level
    space, leaving the intermediate level unpopulated."""
    if state.dims != (2, 2, cutoff.dim):
        raise ValueError("expected a two-level tripartite state matching the cutoff")
    out = np.zeros(9 * cutoff.dim, dtype=np.complex128)
    out[embed_indices(cutoff)] = state.amplitudes
    return StateVector(out, (3, 3, cutoff.dim))
