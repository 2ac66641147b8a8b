import numpy as np
import numpy.testing as npt
import pytest

from mrfrecon import dictionary
from mrfrecon.dictionary import (
    DictionaryGrid,
    build_dictionary,
    compress,
    compressed_atoms,
    compute_subspace,
    decompress,
    dictionary_match,
    valid_pairs,
)
from mrfrecon.epg import SequenceParams, simulate_epg_batch, sinusoidal_flip_schedule


def brute_force_match(voxel, unit_atoms, scale):
    """Independent exhaustive scan: plain loop, no vectorized shortcuts."""
    best_j, best_corr = 0, -1.0
    for j in range(unit_atoms.shape[0]):
        corr = abs(np.vdot(unit_atoms[j], voxel))
        if corr > best_corr + 1e-15:
            best_j, best_corr = j, corr
    return best_j, best_corr / scale[best_j]


def test_single_pair_grid(short_seq):
    grid = build_dictionary(short_seq, [1000.0], [100.0])
    assert grid.n_atoms == 1
    npt.assert_allclose(np.linalg.norm(grid.atoms[0]), 1.0, atol=1e-12)


def test_all_invalid_pairs_rejected(short_seq):
    with pytest.raises(ValueError, match="t2 > t1"):
        build_dictionary(short_seq, [50.0], [100.0, 200.0])


def test_atom_count_matches_brute_force_enumeration(small_dict):
    grid, _ = small_dict
    count = 0
    for t1 in grid.t1_values_ms:
        for t2 in grid.t2_values_ms:
            if t2 <= t1:
                count += 1
    assert grid.n_atoms == count
    t1p, t2p = valid_pairs(grid.t1_values_ms, grid.t2_values_ms)
    assert len(t1p) == count


def test_zero_norm_atom_names_the_pair():
    seq = SequenceParams(np.zeros(10), 10.0, 1.8, 0.0, invert_first=False)
    with pytest.raises(ValueError, match=r"t1=1000"):
        build_dictionary(seq, [1000.0], [100.0])


def test_subspace_orthonormal(small_dict):
    grid, sub = small_dict
    gram = sub.basis.conj().T @ sub.basis
    assert np.linalg.norm(gram - np.eye(sub.s)) < 1e-10


def test_full_rank_subspace_is_lossless(small_dict):
    grid, _ = small_dict
    s = min(grid.n_frames, grid.n_atoms)
    sub = compute_subspace(grid, s)
    proj = (grid.atoms @ sub.basis.conj()) @ sub.basis.T
    resid = np.linalg.norm(grid.atoms - proj, axis=1)
    assert np.all(resid < 1e-8)


def test_singular_values_sorted_and_complete(small_dict):
    grid, sub = small_dict
    sv = sub.singular_values
    assert sv.shape[0] == min(grid.n_frames, grid.n_atoms)
    assert np.all(np.diff(sv) <= 1e-12)


def _first_atoms(grid, m):
    """The grid cut to its first m atoms."""
    return DictionaryGrid(
        grid.t1_values_ms, grid.t2_values_ms, grid.atoms[:m], grid.atom_norms[:m],
        grid.atom_t1_ms[:m], grid.atom_t2_ms[:m], grid.seq,
    )


@pytest.fixture(scope="module")
def benchmark_grid():
    """L = 200 frames over a 30 x 25 log grid: 662 atoms, 3.3 atoms per frame."""
    seq = SequenceParams(sinusoidal_flip_schedule(200), 10.0, 1.8, 18.0, True)
    return build_dictionary(seq, np.geomspace(100.0, 4000.0, 30), np.geomspace(10.0, 600.0, 25))


@pytest.mark.parametrize(
    "n_atoms, r_factor", [(662, True), (400, True), (399, False), (150, False)]
)
def test_subspace_equals_the_direct_svd_bit_for_bit(benchmark_grid, monkeypatch, n_atoms, r_factor):
    # grids with at least twice as many atoms as frames go through the R
    # factor of the atoms' QR; shorter ones take the SVD of the atoms
    grid = _first_atoms(benchmark_grid, n_atoms)
    _, sv, vh = np.linalg.svd(grid.atoms, full_matrices=False)
    qr_calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: qr_calls.append(kw) or qr(*a, **kw))
    sub = compute_subspace(grid, 10)
    assert qr_calls == ([{"mode": "r"}] if r_factor else [])
    assert np.array_equal(sub.singular_values, sv)
    assert np.array_equal(sub.basis, vh[:10].T)


def test_subspace_s_out_of_range(small_dict):
    grid, _ = small_dict
    with pytest.raises(ValueError):
        compute_subspace(grid, 0)
    with pytest.raises(ValueError):
        compute_subspace(grid, min(grid.n_frames, grid.n_atoms) + 1)


def test_compress_decompress_roundtrip(small_dict):
    grid, sub = small_dict
    rng = np.random.default_rng(0)
    z = rng.standard_normal((sub.s, 6, 6)) + 1j * rng.standard_normal((sub.s, 6, 6))
    back = compress(decompress(z, sub), sub)
    assert np.linalg.norm(back - z) < 1e-12 * np.linalg.norm(z)
    assert np.all(compress(np.zeros((grid.n_frames, 4, 4), complex), sub) == 0)


def test_compress_energy_inequality(small_dict):
    grid, sub = small_dict
    rng = np.random.default_rng(1)
    # in-subspace vector: norm preserved
    z = rng.standard_normal(sub.s) + 1j * rng.standard_normal(sub.s)
    x_in = decompress(z.reshape(-1, 1, 1), sub)
    npt.assert_allclose(
        np.linalg.norm(compress(x_in, sub)), np.linalg.norm(x_in), rtol=1e-10
    )
    # random full-length vectors lose energy
    x = rng.standard_normal((grid.n_frames, 5, 5)) + 1j * rng.standard_normal(
        (grid.n_frames, 5, 5)
    )
    assert np.linalg.norm(compress(x, sub)) <= np.linalg.norm(x) + 1e-12


def test_compress_dimension_mismatch(small_dict):
    _, sub = small_dict
    with pytest.raises(ValueError):
        compress(np.zeros((7, 2, 2), complex), sub)
    with pytest.raises(ValueError):
        decompress(np.zeros((sub.s + 1, 2, 2), complex), sub)


def test_match_scaled_atom_exact(small_dict):
    grid, _ = small_dict
    j = 17
    tsmi = (2.5 * grid.atoms[j] * grid.atom_norms[j]).reshape(-1, 1, 1)
    maps = dictionary_match(tsmi, grid)
    assert maps.t1_ms[0, 0] == grid.atom_t1_ms[j]
    assert maps.t2_ms[0, 0] == grid.atom_t2_ms[j]
    npt.assert_allclose(maps.pd[0, 0], 2.5, rtol=1e-10)


def test_match_zero_voxel_tie_breaks_to_first_atom(small_dict):
    grid, _ = small_dict
    maps = dictionary_match(np.zeros((grid.n_frames, 1, 1), complex), grid)
    assert maps.pd[0, 0] == 0.0
    assert maps.t1_ms[0, 0] == grid.atom_t1_ms[0]
    assert maps.t2_ms[0, 0] == grid.atom_t2_ms[0]


def test_match_offgrid_tissue_agrees_with_brute_force(small_dict, short_seq):
    grid, sub = small_dict
    fp = simulate_epg_batch(short_seq, np.array([850.0]), np.array([90.0]))[0]
    # full-length path
    maps = dictionary_match(fp.reshape(-1, 1, 1), grid)
    j_ref, pd_ref = brute_force_match(fp, grid.atoms, grid.atom_norms)
    assert maps.t1_ms[0, 0] == grid.atom_t1_ms[j_ref]
    assert maps.t2_ms[0, 0] == grid.atom_t2_ms[j_ref]
    npt.assert_allclose(maps.pd[0, 0], pd_ref, rtol=1e-10)
    # compressed path against its own brute force
    unit_atoms, scale = compressed_atoms(grid, sub)
    z = compress(fp.reshape(-1, 1, 1), sub)
    cmaps = dictionary_match(z, grid, sub=sub)
    j_c, pd_c = brute_force_match(z[:, 0, 0], unit_atoms, scale)
    assert cmaps.t1_ms[0, 0] == grid.atom_t1_ms[j_c]
    npt.assert_allclose(cmaps.pd[0, 0], pd_c, rtol=1e-10)


def test_match_phase_invariance(small_dict):
    grid, sub = small_dict
    rng = np.random.default_rng(3)
    z = rng.standard_normal((sub.s, 3, 3)) + 1j * rng.standard_normal((sub.s, 3, 3))
    a = dictionary_match(z, grid, sub=sub)
    b = dictionary_match(z * np.exp(1j * 1.234), grid, sub=sub)
    npt.assert_array_equal(a.t1_ms, b.t1_ms)
    npt.assert_array_equal(a.t2_ms, b.t2_ms)
    npt.assert_allclose(a.pd, b.pd, rtol=1e-10)


def test_compressed_matching_agrees_with_full_length(small_dict, short_seq):
    grid, sub = small_dict
    rng = np.random.default_rng(4)
    # off-grid tissues across the grid's interior
    t1 = np.exp(rng.uniform(np.log(250), np.log(2500), 200))
    t2 = np.minimum(np.exp(rng.uniform(np.log(25), np.log(350), 200)), 0.8 * t1)
    fps = simulate_epg_batch(short_seq, t1, t2)
    full = fps.T.reshape(grid.n_frames, 200, 1)
    comp = compress(full, sub)
    m_full = dictionary_match(full, grid)
    m_comp = dictionary_match(comp, grid, sub=sub)
    agree = np.mean(
        (m_full.t1_ms == m_comp.t1_ms) & (m_full.t2_ms == m_comp.t2_ms)
    )
    assert agree >= 0.99


def test_match_channel_mismatch_raises(small_dict):
    grid, sub = small_dict
    with pytest.raises(ValueError, match="channels"):
        dictionary_match(np.zeros((3, 2, 2), complex), grid, sub=sub)


def test_match_empty_dictionary_raises(small_dict):
    grid, _ = small_dict
    empty = DictionaryGrid(
        t1_values_ms=grid.t1_values_ms,
        t2_values_ms=grid.t2_values_ms,
        atoms=np.zeros((0, grid.n_frames), complex),
        atom_norms=np.zeros(0),
        atom_t1_ms=np.zeros(0),
        atom_t2_ms=np.zeros(0),
    )
    with pytest.raises(ValueError, match="empty"):
        dictionary_match(np.zeros((grid.n_frames, 1, 1), complex), empty)


# --- blocked real correlation against the one complex product ------------------

B = dictionary._MATCH_BLOCK


def _atom_table(rng, n_atoms=40, channels=6):
    atoms = rng.standard_normal((n_atoms, channels))
    atoms /= np.linalg.norm(atoms, axis=1)[:, None]
    atoms[7] = atoms[3]  # a duplicate: voxels matching atom 3 tie with 7
    return atoms, rng.uniform(0.5, 2.0, n_atoms)


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("n_vox", [0, 1, B - 1, B, B + 1, 3 * B + 5])
def test_match_arrays_agrees_with_complex_correlation(n_vox, complex_data):
    rng = np.random.default_rng(n_vox + 1)
    atoms, scale = _atom_table(rng)
    x = rng.standard_normal((6, n_vox))
    if complex_data:
        x = x + 1j * rng.standard_normal((6, n_vox))
    planted = slice(0, n_vox, 5)
    gain = rng.uniform(1.0, 2.0, x[:, planted].shape[1])
    x[:, planted] = atoms[3][:, None] * (gain * np.exp(1j * gain) if complex_data else gain)
    jstar, pd = dictionary._match_arrays(x, atoms, scale)
    corr = np.abs(x.T @ atoms.T)
    expected = np.argmax(corr, axis=1)
    npt.assert_array_equal(jstar, expected)
    assert np.all(jstar[planted] == 3)  # the tie goes to the lower index
    npt.assert_allclose(pd, corr[np.arange(n_vox), expected] / scale[expected], rtol=1e-15, atol=0)


def test_match_arrays_complex_atom_table():
    rng = np.random.default_rng(9)
    atoms, scale = _atom_table(rng)
    x = rng.standard_normal((6, 50)) + 1j * rng.standard_normal((6, 50))
    real = dictionary._match_arrays(x, atoms, scale)
    # complex128 with zero imaginary part: how dictionaries written before
    # float64 storage arrive
    as_c128 = dictionary._match_arrays(x, atoms.astype(complex), scale)
    for a, b in zip(real, as_c128):
        npt.assert_array_equal(a, b)
    with pytest.raises(ValueError, match="real atom table"):
        dictionary._match_arrays(x, atoms + 1e-3j, scale)
