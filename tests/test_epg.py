import numpy as np
import numpy.testing as npt
import pytest

from helpers import simulate_epg, simulate_isochromat_oracle

from mrfrecon.dictionary import valid_pairs
from mrfrecon.epg import (
    SequenceParams,
    TissueParams,
    load_flip_schedule_csv,
    simulate_epg_batch,
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


def test_kmax_validation_and_first_frame_from_equilibrium():
    seq = SequenceParams(np.deg2rad([30.0, 50.0]), 10.0, 1.8, 0.0, invert_first=False)
    with pytest.raises(ValueError, match="k_max"):
        simulate_epg_batch(seq, [784.0], [77.0], k_max=1)
    sig = simulate_epg_batch(seq, [784.0, 300.0], [77.0, 30.0], k_max=2)
    expected = np.sin(np.deg2rad(30.0)) * np.exp(-1.8 / np.array([77.0, 30.0]))
    npt.assert_allclose(sig[:, 0], expected, rtol=1e-15)


def _three_step_reference(seq, t1, t2, k_max):
    """The recursion as separate steps on separate (n, k_max) F+, F-*, Z arrays:
    RF, relaxation over TE (readout), relaxation over TR - TE, gradient shift."""
    n = t1.size
    fp, fm, z = np.zeros((n, k_max)), np.zeros((n, k_max)), np.zeros((n, k_max))
    z[:, 0] = 1.0

    def rf(alpha):
        c2, s2 = np.cos(alpha / 2.0) ** 2, np.sin(alpha / 2.0) ** 2
        sa, ca = np.sin(alpha), np.cos(alpha)
        return (
            c2 * fp - s2 * fm + sa * z,
            -s2 * fp + c2 * fm + sa * z,
            -0.5 * sa * fp - 0.5 * sa * fm + ca * z,
        )

    def relax(dt):
        e1, e2 = np.exp(-dt / t1)[:, None], np.exp(-dt / t2)[:, None]
        z_new = z * e1
        z_new[:, 0] += 1.0 - e1[:, 0]
        return fp * e2, fm * e2, z_new

    if seq.invert_first:
        fp, fm, z = rf(np.pi)
        if seq.ti_ms > 0.0:
            fp, fm, z = relax(seq.ti_ms)
    signal = np.empty((n, seq.n_frames))
    for i, alpha in enumerate(seq.flip_angles_rad):
        fp, fm, z = rf(alpha)
        fp, fm, z = relax(seq.te_ms)
        signal[:, i] = fp[:, 0]
        fp, fm, z = relax(seq.tr_ms - seq.te_ms)
        fp = np.concatenate([fm[:, 1:2], fp[:, :-1]], axis=1)
        fm = np.concatenate([fm[:, 1:], np.zeros((n, 1))], axis=1)
    return signal


@pytest.mark.parametrize("k_max", [2, 3, 50])
@pytest.mark.parametrize("invert_first,ti_ms", [(False, 0.0), (True, 0.0), (True, 18.0)])
def test_batch_kernel_matches_three_step_recursion(k_max, invert_first, ti_ms):
    # 120 frames, more than any k_max here, so the top order is truncated
    seq = SequenceParams(sinusoidal_flip_schedule(120), 10.0, 1.8, ti_ms, invert_first)
    t1, t2 = valid_pairs(np.geomspace(100.0, 4000.0, 6), np.geomspace(10.0, 600.0, 5))
    ref = _three_step_reference(seq, t1, t2, k_max)
    got = simulate_epg_batch(seq, t1, t2, k_max=k_max)
    assert got.shape == ref.shape and got.dtype == np.float64
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _every_order_reference(seq, t1, t2, k_max):
    """The batch recursion as it ran before it skipped unpopulated orders:
    every frame mixes and writes back all k_max orders."""
    n = t1.size
    state = np.zeros((3, k_max, n))
    mixed = np.empty_like(state)
    state[2, 0] = 1.0 - 2.0 * np.exp(-seq.ti_ms / t1) if seq.invert_first else 1.0
    e2_te = np.exp(-seq.te_ms / t2)
    e2 = np.exp(-seq.tr_ms / t2)
    e1 = np.exp(-seq.tr_ms / t1)
    e1_rem = np.exp(-(seq.tr_ms - seq.te_ms) / t1)
    regrow = (1.0 - np.exp(-seq.te_ms / t1)) * e1_rem + (1.0 - e1_rem)
    a = seq.flip_angles_rad
    c2, s2, sa, ca = np.cos(a / 2.0) ** 2, np.sin(a / 2.0) ** 2, np.sin(a), np.cos(a)
    rf = np.array([[c2, -s2, sa], [-s2, c2, sa], [-0.5 * sa, -0.5 * sa, ca]])
    rf = np.ascontiguousarray(rf.transpose(2, 0, 1))
    flat_state = state.reshape(3, -1)
    flat_mixed = mixed.reshape(3, -1)
    signal = np.empty((n, seq.n_frames))
    for i in range(seq.n_frames):
        np.matmul(rf[i], flat_state, out=flat_mixed)
        np.multiply(mixed[0, 0], e2_te, out=signal[:, i])
        np.multiply(mixed[0, :-1], e2, out=state[0, 1:])
        np.multiply(mixed[1, 1:], e2, out=state[1, :-1])
        state[0, 0] = state[1, 0]
        np.multiply(mixed[2], e1, out=state[2])
        state[2, 0] += regrow
    return signal


@pytest.mark.parametrize("k_max", [2, 3, 50])
@pytest.mark.parametrize("n_frames", [1, 20, 120])
@pytest.mark.parametrize("invert_first,ti_ms", [(False, 0.0), (True, 18.0)])
def test_batch_kernel_equals_the_every_order_loop_bit_for_bit(k_max, n_frames, invert_first, ti_ms):
    # the frame count falls below and above each k_max, so the populated
    # orders reach the truncation in some runs and never in others
    seq = SequenceParams(sinusoidal_flip_schedule(n_frames), 10.0, 1.8, ti_ms, invert_first)
    t1, t2 = valid_pairs(np.geomspace(100.0, 4000.0, 6), np.geomspace(10.0, 600.0, 5))
    ref = _every_order_reference(seq, t1, t2, k_max)
    assert np.array_equal(simulate_epg_batch(seq, t1, t2, k_max=k_max), ref)


def test_batch_rows_independent_of_batch_split():
    seq = SequenceParams(sinusoidal_flip_schedule(200), 10.0, 1.8, 18.0, True)
    # the benchmark's dictionary: a 30 x 25 log grid, 662 pairs with T2 <= T1
    t1, t2 = valid_pairs(np.geomspace(100.0, 4000.0, 30), np.geomspace(10.0, 600.0, 25))
    assert t1.size == 662
    whole = simulate_epg_batch(seq, t1, t2)
    for j in (0, 331, 661):
        npt.assert_array_equal(simulate_epg_batch(seq, t1[j : j + 1], t2[j : j + 1])[0], whole[j])
    halves = [simulate_epg_batch(seq, t1[sl], t2[sl]) for sl in (slice(0, 300), slice(300, None))]
    npt.assert_array_equal(np.concatenate(halves), whole)


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
