import numpy as np
import numpy.testing as npt
import pytest

from mrfrecon.epg import (
    EpgState,
    SequenceParams,
    TissueParams,
    load_flip_schedule_csv,
    simulate_epg,
    simulate_epg_batch,
    simulate_isochromat_oracle,
    sinusoidal_flip_schedule,
)
from mrfrecon.errors import SimulationDivergence

WM = TissueParams(t1_ms=784.0, t2_ms=77.0, pd=1.0)


def nrmse_vec(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_zero_flips_give_zero_signal():
    seq = SequenceParams(np.zeros(20), 10.0, 1.8, 0.0, invert_first=False)
    sig = simulate_epg(seq, WM)
    assert np.all(sig == 0)


def test_pd_linearity_is_exact(paper_protocol_seq):
    base = simulate_epg(paper_protocol_seq, TissueParams(784.0, 77.0, 1.3))
    doubled = simulate_epg(paper_protocol_seq, TissueParams(784.0, 77.0, 2.6))
    npt.assert_array_equal(doubled, 2.0 * base)


def test_epg_matches_isochromat_oracle_paper_protocol(paper_protocol_seq):
    epg = simulate_epg(paper_protocol_seq, WM)
    oracle = simulate_isochromat_oracle(paper_protocol_seq, WM, n_spins=1000)
    assert nrmse_vec(epg, oracle) < 0.01


@pytest.mark.parametrize("n_spins", [50, 200, 1000])
def test_oracle_self_consistency_sweep(paper_protocol_seq, n_spins):
    epg = simulate_epg(paper_protocol_seq, WM)
    oracle = simulate_isochromat_oracle(paper_protocol_seq, WM, n_spins=n_spins)
    assert nrmse_vec(oracle, epg) < 0.01


def test_oracle_zero_flips():
    seq = SequenceParams(np.zeros(10), 10.0, 1.8, 0.0, invert_first=False)
    sig = simulate_isochromat_oracle(seq, WM, n_spins=64)
    assert np.all(sig == 0)


def test_oracle_tiny_t2_kills_transverse_signal():
    seq = SequenceParams(np.full(10, np.deg2rad(40.0)), 10.0, 1.8, 0.0, False)
    sig = simulate_isochromat_oracle(seq, TissueParams(500.0, 0.1, 1.0), 256)
    assert np.all(np.abs(sig[1:]) < 1e-6)


def test_determinism_bit_identical(short_seq):
    a = simulate_epg(short_seq, WM)
    b = simulate_epg(short_seq, WM)
    npt.assert_array_equal(a, b)


def test_truncation_stability_around_default():
    # The default k_max=50 is converged at L=100: coherence pathways that
    # exceed order 50 cannot return to readout within the sequence. (The
    # 30-vs-60 comparison genuinely differs at the 1e-3 level for long T2;
    # see the decisions ledger.)
    seq = SequenceParams(sinusoidal_flip_schedule(100), 10.0, 1.8, 18.0, True)
    t1s, t2s = np.meshgrid([300.0, 1000.0, 2000.0], [30.0, 110.0, 300.0], indexing="ij")
    keep = t2s.ravel() <= t1s.ravel()
    t1, t2 = t1s.ravel()[keep], t2s.ravel()[keep]
    a50 = simulate_epg_batch(seq, t1, t2, k_max=50)
    a100 = simulate_epg_batch(seq, t1, t2, k_max=100)
    assert np.linalg.norm(a50 - a100) / np.linalg.norm(a100) < 1e-6


def test_truncation_tolerance_at_default_length():
    # The promise at the default L=1000: k_max=50 stays within 5e-3 relative
    # of a k_max=300 reference on the default grid's corners (with T2 <= T1).
    # The worst corner is T1/T2 = 4000/600 ms at 2.8e-3; k_max=20 gives 1.5e-2.
    seq = SequenceParams(sinusoidal_flip_schedule(1000), 10.0, 1.8, 18.0, True)
    t1 = np.array([100.0, 4000.0, 4000.0])
    t2 = np.array([10.0, 10.0, 600.0])
    ref = simulate_epg_batch(seq, t1, t2, k_max=300)
    a50 = simulate_epg_batch(seq, t1, t2, k_max=50)
    rel = np.linalg.norm(a50 - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert rel.max() < 5e-3


def test_grid_agreement_with_oracle_small():
    seq = SequenceParams(sinusoidal_flip_schedule(100), 10.0, 1.8, 18.0, True)
    for t1, t2 in [(300.0, 30.0), (1000.0, 110.0), (2000.0, 300.0)]:
        tissue = TissueParams(t1, t2, 1.0)
        epg = simulate_epg(seq, tissue)
        oracle = simulate_isochromat_oracle(seq, tissue, n_spins=1000)
        assert nrmse_vec(epg, oracle) < 0.01


def test_zero_phase_response_is_real(short_seq):
    # zero-phase RF keeps the EPG recursion real, so it returns float64; the
    # independent complex isochromat oracle shows the same physics: for the
    # same sequence its imaginary part is rounding noise
    t1 = np.array([300.0, 784.0, 2000.0])
    t2 = np.array([30.0, 77.0, 300.0])
    assert simulate_epg_batch(short_seq, t1, t2).dtype == np.float64
    for a, b in zip(t1, t2):
        oracle = simulate_isochromat_oracle(short_seq, TissueParams(a, b), n_spins=1000)
        assert np.abs(oracle.imag).max() <= 1e-12 * np.abs(oracle).max()


def test_equilibrium_state_and_kmax_validation():
    st = EpgState.equilibrium(3, 7)
    assert st.z[0, 0] == 1.0 and np.all(st.z[:, 1:] == 0)
    assert np.all(st.f_plus == 0) and np.all(st.f_minus == 0)
    with pytest.raises(ValueError):
        EpgState.equilibrium(1, 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(flip_angles_rad=np.array([]), tr_ms=10.0, te_ms=1.8),
        dict(flip_angles_rad=np.array([4.0]), tr_ms=10.0, te_ms=1.8),
        dict(flip_angles_rad=np.array([0.5]), tr_ms=1.0, te_ms=1.8),
        dict(flip_angles_rad=np.array([0.5]), tr_ms=10.0, te_ms=1.8, ti_ms=-1.0),
        dict(flip_angles_rad=np.array([np.nan]), tr_ms=10.0, te_ms=1.8),
    ],
)
def test_sequence_validation(kwargs):
    with pytest.raises(ValueError):
        SequenceParams(**kwargs)


@pytest.mark.parametrize(
    "t1,t2,pd", [(0.0, 10.0, 1.0), (100.0, 0.0, 1.0), (100.0, 200.0, 1.0), (100.0, 50.0, -1.0)]
)
def test_tissue_validation(t1, t2, pd):
    with pytest.raises(ValueError):
        TissueParams(t1, t2, pd)


def test_divergence_guard_on_injected_nan(short_seq):
    # flip angles validate at construction; corrupt the array afterwards to
    # exercise the non-finite signal guard
    seq = SequenceParams(short_seq.flip_angles_rad.copy(), 10.0, 1.8, 18.0, True)
    seq.flip_angles_rad[5] = np.nan
    with pytest.raises(SimulationDivergence, match="frame"):
        simulate_epg(seq, WM)


def test_flip_schedule_csv_roundtrip(tmp_path):
    deg = [10.0, 35.5, 60.0]
    path = tmp_path / "flips.csv"
    path.write_text("".join(f"{v}\n" for v in deg))
    rad = load_flip_schedule_csv(path)
    npt.assert_allclose(rad, np.deg2rad(deg))


def test_sinusoidal_schedule_shape():
    fa = sinusoidal_flip_schedule(400)
    assert fa.shape == (400,)
    assert np.isclose(fa[0], np.deg2rad(10.0))
    assert fa.max() <= np.deg2rad(60.0) + 1e-12
