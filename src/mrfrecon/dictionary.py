"""MRF dictionary construction, SVD subspace compression, and matching."""

from dataclasses import dataclass, field

import numpy as np

from .epg import DEFAULT_K_MAX, simulate_epg_batch
from .maps import QMaps

_MATCH_BLOCK = 64  # voxels per correlation block of dictionary matching


def valid_pairs(t1_values, t2_values):
    """All (t1, t2) combinations with t2 <= t1, in row-major grid order."""
    t1g, t2g = np.meshgrid(t1_values, t2_values, indexing="ij")
    keep = t2g <= t1g
    return t1g[keep], t2g[keep]


def real_table(a, what):
    """The entry check of a temporal basis or atom table: a real array passes
    unchanged, a complex one with an all-zero imaginary part (older c128
    dictionaries, .astype(complex)) becomes its real part, any other raises."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        if np.any(a.imag):
            raise ValueError(f"need a {what}; this one has a nonzero imaginary part")
        a = np.ascontiguousarray(a.real)
    return a


@dataclass
class DictionaryGrid:
    """Normalized fingerprints over a (T1, T2) grid.

    atoms has unit-norm real rows (see real_table); atom_norms keeps the
    pre-normalization norms so proton density can be de-scaled after matching.
    atom_t1_ms/atom_t2_ms map an atom index back to its grid values. Each of
    the three holds one entry per atom, checked on construction.
    """

    t1_values_ms: np.ndarray
    t2_values_ms: np.ndarray
    atoms: np.ndarray
    atom_norms: np.ndarray
    atom_t1_ms: np.ndarray
    atom_t2_ms: np.ndarray
    seq: object = field(repr=False, default=None)

    def __post_init__(self):
        self.atoms = real_table(self.atoms, "real atom table")
        for name in ("atom_norms", "atom_t1_ms", "atom_t2_ms"):
            if np.shape(getattr(self, name)) != (self.n_atoms,):
                raise ValueError(f"{name} does not hold one entry per atom of {self.n_atoms}")

    @property
    def n_atoms(self):
        return self.atoms.shape[0]

    @property
    def n_frames(self):
        return self.atoms.shape[1]


@dataclass
class Subspace:
    """Temporal SVD basis: (L, s) with orthonormal columns, descending order;
    real, as zero-phase RF makes the atoms (checked by real_table)."""

    basis: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self):
        self.basis = real_table(self.basis, "real temporal basis")

    @property
    def s(self):
        return self.basis.shape[1]

    @property
    def n_frames(self):
        return self.basis.shape[0]


def build_dictionary(seq, t1_values_ms, t2_values_ms, k_max=DEFAULT_K_MAX):
    """Simulate and normalize one fingerprint per valid (t1, t2) grid pair.

    Pairs with t2 > t1 are excluded. Raises if the grid is empty or any atom
    has zero norm.
    """
    t1_values = np.sort(np.asarray(t1_values_ms, dtype=float))
    t2_values = np.sort(np.asarray(t2_values_ms, dtype=float))
    if t1_values.size == 0 or t2_values.size == 0:
        raise ValueError("grid value lists must be non-empty")

    atom_t1, atom_t2 = valid_pairs(t1_values, t2_values)
    if atom_t1.size == 0:
        raise ValueError("empty dictionary: every grid pair has t2 > t1")

    atoms = simulate_epg_batch(seq, atom_t1, atom_t2, k_max=k_max)
    norms = np.linalg.norm(atoms, axis=1)
    if np.any(norms == 0.0):
        j = int(np.argmin(norms))
        raise ValueError(
            f"degenerate zero-norm atom at (t1={atom_t1[j]:g} ms, t2={atom_t2[j]:g} ms)"
        )
    atoms = atoms / norms[:, None]
    return DictionaryGrid(
        t1_values_ms=t1_values,
        t2_values_ms=t2_values,
        atoms=atoms,
        atom_norms=norms,
        atom_t1_ms=atom_t1,
        atom_t2_ms=atom_t2,
        seq=seq,
    )


def compute_subspace(grid, s):
    """Top-s right singular vectors of the atom matrix (temporal directions);
    a real SVD for real atoms.

    A grid with at least twice as many atoms as frames is first reduced to
    the (L, L) R factor of its QR decomposition, which has the same singular
    values and right singular vectors (the R-SVD). LAPACK's divide-and-conquer
    SVD takes that same route through a tall matrix, so the basis and the
    singular values come out bit for bit as from the direct SVD; the left
    factors it would form and discard are never built.
    """
    n_atoms, n_frames = grid.atoms.shape
    if not 1 <= s <= min(n_frames, n_atoms):
        raise ValueError(f"s must lie in [1, {min(n_frames, n_atoms)}], got {s}")
    tall = n_atoms >= 2 * n_frames
    a = np.linalg.qr(grid.atoms, mode="r") if tall else grid.atoms
    sv, vh = np.linalg.svd(a, full_matrices=False)[1:]
    return Subspace(basis=vh[:s].T.copy(), singular_values=sv)


def compress(tsmi_full, sub):
    """Project length-L channel data onto the subspace: x -> basis^T x."""
    x = np.asarray(tsmi_full)
    if x.shape[0] != sub.n_frames:
        raise ValueError(
            f"expected {sub.n_frames} channels (full length), got {x.shape[0]}"
        )
    return np.tensordot(sub.basis, x, axes=(0, 0))


def compressed_atoms(grid, sub):
    """Compressed, re-normalized atoms and their PD de-scaling factors.

    Returns (unit_atoms (n_atoms, s), scale (n_atoms,)) where scale maps a
    matched correlation magnitude back to proton density.
    """
    catoms = grid.atoms @ sub.basis
    cnorms = np.linalg.norm(catoms, axis=1)
    if np.any(cnorms == 0.0):
        raise ValueError("an atom vanishes in the subspace; increase s")
    return catoms / cnorms[:, None], grid.atom_norms * cnorms


def _match_arrays(x_flat, unit_atoms, scale):
    """Exhaustive inner-product matching over flattened voxels.

    x_flat: (channels, n_vox), real or complex. The real (n_atoms, channels)
    atom table meets the real and imaginary parts of the data in two real
    products per block of _MATCH_BLOCK voxels, so the correlations stay
    cache-sized. Returns (atom index, pd) per voxel: the argmax of
    re^2 + im^2, ties to the lowest index, and a square root taken at the
    winner only.
    """
    table = unit_atoms.T
    parts = (x_flat.real, x_flat.imag) if np.iscomplexobj(x_flat) else (x_flat,)
    n_vox = x_flat.shape[1]
    jstar = np.empty(n_vox, dtype=np.intp)
    power = np.empty(n_vox)
    corr, part_corr = np.empty((2, _MATCH_BLOCK, table.shape[1]))
    for lo in range(0, n_vox, _MATCH_BLOCK):
        hi = min(lo + _MATCH_BLOCK, n_vox)
        c, pc = corr[: hi - lo], part_corr[: hi - lo]
        np.square(np.matmul(parts[0][:, lo:hi].T, table, out=c), out=c)
        for part in parts[1:]:
            c += np.square(np.matmul(part[:, lo:hi].T, table, out=pc), out=pc)
        jstar[lo:hi] = np.argmax(c, axis=1)
        power[lo:hi] = c[np.arange(hi - lo), jstar[lo:hi]]
    return jstar, np.sqrt(power) / scale[jstar]


def _matching_table(tsmi, grid, sub):
    channels = tsmi.shape[0]
    if channels == grid.n_frames:
        return grid.atoms, grid.atom_norms
    if sub is not None and channels == sub.s:
        return compressed_atoms(grid, sub)
    raise ValueError(
        f"data has {channels} channels; dictionary is length {grid.n_frames}"
        + ("" if sub is None else f" with subspace s={sub.s}")
    )


def _atom_maps(grid, jstar, pd, shape):
    """The T1/T2/PD maps of the matched atoms jstar with proton density pd."""
    return QMaps(
        t1_ms=grid.atom_t1_ms[jstar].reshape(shape),
        t2_ms=grid.atom_t2_ms[jstar].reshape(shape),
        pd=pd.reshape(shape),
        mask=np.ones(shape, dtype=bool),
    )


def dictionary_match(tsmi, grid, sub=None):
    """Match every voxel against the dictionary and estimate T1/T2/PD.

    tsmi is (channels, H, W) with channels either the full length L or the
    subspace size s (pass `sub` for compressed data). The search is
    exhaustive; matching is invariant to a global complex phase per voxel.
    """
    if grid.n_atoms == 0:
        raise ValueError("empty dictionary")
    tsmi = np.asarray(tsmi)
    unit_atoms, scale = _matching_table(tsmi, grid, sub)
    jstar, pd = _match_arrays(tsmi.reshape(tsmi.shape[0], -1), unit_atoms, scale)
    return _atom_maps(grid, jstar, pd, tsmi.shape[1:])
