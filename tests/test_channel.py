"""Link budget: two-slope path loss, noise floor, correlated shadowing,
time-averaged SINR and the PER abstraction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coexsim.channel import (
    ITSG5_PER_ANCHOR_DB,
    LTEV2X_PER_ANCHOR_DB,
    LinkBudgetConfig,
    PerCurve,
    ShadowingConfig,
    ShadowingField,
    ar1_shadowing_step,
    breakpoint_distance_m,
    default_itsg5_curve,
    default_ltev2x_curve,
    noise_floor_dbm,
    path_loss_db,
    reception_success,
    rx_power_mw,
    sinr_db,
)
from coexsim.scenario import distance_matrix

from oracles import (
    reference_ar1_step,
    reference_distance_matrix,
    reference_path_loss_db,
    reference_rx_power_mw,
)

CFG = LinkBudgetConfig()
EIRP_RX_GAIN_DB = CFG.tx_power_dbm + CFG.tx_gain_db + CFG.rx_gain_db  # 29 dB
AIRTIME_US = 512


def mw(dbm):
    return 10.0 ** (dbm / 10.0)


def test_dbm_mw_roundtrip():
    # The link budget turns dB into mW; the SINR turns a mW ratio back into dB.
    assert rx_power_mw(EIRP_RX_GAIN_DB, 0.0, CFG) == pytest.approx(1.0)
    assert rx_power_mw(EIRP_RX_GAIN_DB + 30.0, 0.0, CFG) == pytest.approx(1e-3)
    rx = rx_power_mw(EIRP_RX_GAIN_DB + 71.3, 0.0, CFG)
    assert sinr_db(rx, 0.0, AIRTIME_US, 1.0) == pytest.approx(-71.3)


def test_breakpoint_distance():
    assert breakpoint_distance_m(5.9) == pytest.approx(19.6667, abs=1e-4)


def test_path_loss_golden_values():
    assert path_loss_db(10.0, CFG) == pytest.approx(65.14, abs=0.01)
    assert path_loss_db(100.0, CFG) == pytest.approx(100.06, abs=0.01)


def test_path_loss_near_field_clamp():
    assert path_loss_db(1.0, CFG) == path_loss_db(3.0, CFG)
    assert path_loss_db(0.001, CFG) == path_loss_db(3.0, CFG)


def test_path_loss_array_matches_scalars():
    d = np.array([1.0, 10.0, 100.0, 400.0])
    out = path_loss_db(d, CFG)
    assert out.shape == d.shape
    for di, oi in zip(d, out):
        assert oi == pytest.approx(path_loss_db(float(di), CFG))


def test_path_loss_continuous_at_breakpoint():
    bp = breakpoint_distance_m(CFG.carrier_ghz)
    below = path_loss_db(bp * (1 - 1e-9), CFG)
    above = path_loss_db(bp * (1 + 1e-9), CFG)
    assert abs(above - below) < 0.1


@given(st.lists(st.floats(0.1, 2000.0), min_size=2, max_size=30))
def test_path_loss_monotone_nondecreasing(distances):
    d = np.sort(np.array(distances))
    pl = path_loss_db(d, CFG)
    assert (np.diff(pl) >= -1e-9).all()


def test_noise_floor():
    assert noise_floor_dbm(CFG) == -98.0
    assert noise_floor_dbm(LinkBudgetConfig(noise_figure_db=0.0)) == -104.0
    assert noise_floor_dbm(LinkBudgetConfig(bandwidth_hz=2e7)) == pytest.approx(
        -94.9897, abs=1e-3)


def rx_dbm(d_m, shadow_db=0.0):
    return 10.0 * np.log10(rx_power_mw(path_loss_db(d_m, CFG), shadow_db, CFG))


def test_link_rx_power():
    # 29 dBm EIRP minus the path loss.
    assert rx_dbm(100.0) == pytest.approx(-71.06, abs=0.01)
    assert rx_dbm(10.0) == pytest.approx(-36.14, abs=0.01)
    assert rx_dbm(100.0, shadow_db=3.0) == pytest.approx(-74.06, abs=0.01)


def test_rx_power_is_elementwise_over_pair_matrices():
    d = np.array([[3.0, 10.0], [100.0, 400.0]])
    shadow = np.array([[0.0, 1.5], [-2.0, 3.0]])
    out = rx_power_mw(path_loss_db(d, CFG), shadow, CFG)
    assert out.shape == d.shape
    for i in range(2):
        for j in range(2):
            assert 10.0 * np.log10(out[i, j]) == pytest.approx(
                rx_dbm(float(d[i, j]), float(shadow[i, j])))


def test_in_place_link_budget_matches_the_plain_expressions(rng):
    # Each rule is evaluated in place on its own buffers; every element must
    # still see the same floating-point operations as the plain expressions.
    # Positions within four breakpoint distances put pairs on both branches.
    bp = breakpoint_distance_m(CFG.carrier_ghz)
    pos = rng.uniform(0.0, 4.0 * bp, 60)
    lanes = rng.integers(0, 6, 60)
    dist = distance_matrix(pos, lanes, 4.0)
    assert np.array_equal(dist, reference_distance_matrix(pos, lanes, 4.0))
    d = np.concatenate([dist.ravel(), [0.0, 3.0, np.nextafter(bp, 0.0), bp,
                                       np.nextafter(bp, np.inf), 1e4, np.inf]])
    assert (d <= bp).sum() > 60 and (d > bp).sum() > 60
    pl = path_loss_db(d, CFG)
    assert np.array_equal(pl, reference_path_loss_db(d, CFG))
    shadow = rng.normal(0.0, 3.0, d.size)
    expected = reference_rx_power_mw(pl, shadow, CFG)
    assert np.array_equal(rx_power_mw(pl, shadow, CFG), expected)
    s0 = rng.normal(0.0, 3.0, (40, 40))
    for moved in (7.78, rng.uniform(0.0, 50.0, s0.shape)):
        noise = rng.normal(0.0, 3.0, s0.shape)
        expected = reference_ar1_step(s0, moved, 25.0, noise)
        assert np.array_equal(ar1_shadowing_step(s0, moved, 3.0, 25.0, noise), expected)


@pytest.mark.parametrize("d_m", [1.0, 10.0, 19.0, 100.0])
def test_scalar_link_budget_inputs_give_what_they_gave_before(d_m):
    pl, ref_pl = path_loss_db(d_m, CFG), reference_path_loss_db(d_m, CFG)
    assert type(pl) is type(ref_pl) and pl.shape == () and pl == ref_pl
    rx, ref_rx = rx_power_mw(pl, 1.5, CFG), reference_rx_power_mw(ref_pl, 1.5, CFG)
    # The plain expression raised a numpy scalar to the power, the in-place
    # one a 0-d array; with AVX-512 numpy's array power may differ from the
    # scalar one in the last place.
    assert type(rx) is type(ref_rx) and abs(rx - ref_rx) <= np.spacing(ref_rx)
    s1, ref_s1 = (ar1_shadowing_step(1.7, d_m, 3.0, 25.0, 0.4),
                  reference_ar1_step(1.7, d_m, 25.0, 0.4))
    assert type(s1) is type(ref_s1) and s1 == ref_s1


def test_ar1_shadowing_zero_displacement_is_identity():
    assert ar1_shadowing_step(1.7, 0.0, 3.0, 25.0, 5.0) == pytest.approx(1.7)


def test_ar1_shadowing_decorrelation_coefficient():
    # One decorrelation distance: rho = e^-1.
    out = ar1_shadowing_step(1.0, 25.0, 3.0, 25.0, 0.0)
    assert out == pytest.approx(np.exp(-1.0), abs=1e-9)
    assert out == pytest.approx(0.3679, abs=1e-4)


def test_ar1_shadowing_full_decorrelation(rng):
    n = rng.normal(0.0, 3.0)
    assert ar1_shadowing_step(2.0, 1e9, 3.0, 25.0, n) == pytest.approx(n)


def test_ar1_shadowing_ensemble_autocorrelation(rng):
    s0 = rng.normal(0.0, 3.0, 10_000)
    noise = rng.normal(0.0, 3.0, 10_000)
    s1 = ar1_shadowing_step(s0, 25.0, 3.0, 25.0, noise)
    r = np.corrcoef(s0, s1)[0, 1]
    assert r == pytest.approx(0.368, abs=0.05)


def test_ar1_shadowing_preserves_marginal_std(rng):
    s0 = rng.normal(0.0, 3.0, 100_000)
    noise = rng.normal(0.0, 3.0, 100_000)
    s1 = ar1_shadowing_step(s0, 7.78, 3.0, 25.0, noise)
    assert np.std(s1) == pytest.approx(3.0, abs=0.1)


def test_shadowing_field_symmetric(rng):
    field = ShadowingField(40, 3.0, 25.0, rng)
    assert np.allclose(field.values_db, field.values_db.T)
    assert field.values_db[3, 17] == field.values_db[17, 3]
    field.step(7.78, rng)
    assert np.allclose(field.values_db, field.values_db.T)


def test_shadowing_field_marginal_std(rng):
    # 450 nodes -> 101k distinct pairs.
    field = ShadowingField(450, 3.0, 25.0, rng)
    iu = np.triu_indices(450, 1)
    assert np.std(field.values_db[iu]) == pytest.approx(3.0, abs=0.1)
    field.step(7.78, rng)
    assert np.std(field.values_db[iu]) == pytest.approx(3.0, abs=0.1)


def test_shadowing_config_validation():
    assert ShadowingConfig().validate() == []
    assert ShadowingConfig(sigma_db=-1.0).validate()
    assert ShadowingConfig(decorr_m=0.0).validate()


def sinr_with(interf_dbm, overlap_fraction):
    """SINR of a -71 dBm frame over a -98 dBm floor with one interferer that
    overlaps the given fraction of the frame's airtime."""
    energy = mw(interf_dbm) * overlap_fraction * AIRTIME_US
    return sinr_db(mw(-71.0), energy, AIRTIME_US, mw(-98.0))


def test_sinr_no_interference():
    assert sinr_db(mw(-71.0), 0.0, AIRTIME_US, mw(-98.0)) == pytest.approx(27.0)


def test_sinr_equal_power_full_overlap_interferer():
    # Equal interferer dominates: SINR just below 0 dB (noise adds a hair).
    out = sinr_with(-71.0, 1.0)
    assert out == pytest.approx(-0.008656, abs=1e-4)
    assert out < 0.0


def test_sinr_zero_overlap_equals_no_interferer():
    assert sinr_with(-40.0, 0.0) == pytest.approx(
        sinr_db(mw(-71.0), 0.0, AIRTIME_US, mw(-98.0)))


def test_sinr_is_elementwise_over_receivers():
    rx = mw(np.array([-71.0, -80.0, -71.0]))
    energy = np.array([0.0, 0.0, mw(-71.0) * AIRTIME_US])
    out = sinr_db(rx, energy, AIRTIME_US, mw(-98.0))
    assert out == pytest.approx([27.0, 18.0, -0.008656], abs=1e-4)


@given(
    p_int=st.floats(-100.0, -30.0),
    f1=st.floats(0.0, 1.0),
    f2=st.floats(0.0, 1.0),
)
def test_sinr_decreases_with_overlap(p_int, f1, f2):
    lo, hi = sorted([f1, f2])
    assert sinr_with(p_int, hi) <= sinr_with(p_int, lo) + 1e-9


def test_default_per_anchors():
    assert default_itsg5_curve().lookup(ITSG5_PER_ANCHOR_DB) == pytest.approx(0.1)
    assert default_ltev2x_curve().lookup(LTEV2X_PER_ANCHOR_DB) == pytest.approx(0.1)


def test_per_curve_three_point_shape():
    c = PerCurve.three_point(3.1)
    assert c.lookup(1.1) == pytest.approx(0.9)
    assert c.lookup(3.1) == pytest.approx(0.1)
    assert c.lookup(4.1) == pytest.approx(0.01)
    assert c.lookup(2.1) == pytest.approx(0.5)  # midpoint of the steep segment


def test_per_curve_clamps():
    c = default_itsg5_curve()
    assert c.lookup(-30.0) == 1.0
    assert c.lookup(60.0) == 0.0


def test_per_curve_vector_lookup():
    c = default_itsg5_curve()
    out = c.lookup(np.array([-10.0, 3.1, 50.0]))
    assert np.allclose(out, [1.0, 0.1, 0.0])


def test_per_curve_validation():
    with pytest.raises(ValueError):
        PerCurve(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        PerCurve(np.array([0.0, 0.0]), np.array([0.9, 0.1]))
    with pytest.raises(ValueError):
        PerCurve(np.array([0.0, 1.0]), np.array([0.1, 0.9]))
    with pytest.raises(ValueError):
        PerCurve(np.array([0.0, 1.0]), np.array([1.5, 0.1]))
    with pytest.raises(ValueError):
        PerCurve(np.array([0.0, 1.0]), np.array([0.9]))


@pytest.mark.parametrize("sinr, per", [
    ([np.nan, 3.0], [0.5, 0.1]),
    ([0.0, 3.0], [np.nan, 0.1]),
    ([0.0, np.inf], [0.5, 0.1]),
    ([-np.inf, 3.0], [0.5, 0.1]),
    ([0.0, 3.0], [0.5, -np.inf]),
])
def test_per_curve_rejects_non_finite_points(sinr, per):
    # A NaN point passed every ordering check and made lookups NaN; an
    # infinite one flattened the curve.
    with pytest.raises(ValueError, match="must be finite"):
        PerCurve(np.array(sinr), np.array(per))


@given(
    steps=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=8),
    drops=st.lists(st.floats(0.0, 0.3), min_size=1, max_size=8),
    queries=st.lists(st.floats(-20.0, 30.0), min_size=2, max_size=20),
)
def test_per_lookup_monotone_on_random_curves(steps, drops, queries):
    n = min(len(steps), len(drops))
    sinr = np.cumsum(np.array(steps[:n]))
    per = np.clip(1.0 - np.cumsum(np.array(drops[:n])), 0.0, 1.0)
    curve = PerCurve(sinr, per)
    q = np.sort(np.array(queries))
    out = curve.lookup(q)
    assert (np.diff(out) <= 1e-12).all()


def test_per_curve_csv_roundtrip(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("sinr_db,per\n-2.0,1.0\n0.1,0.1\n2.0,0.0\n")
    c = PerCurve.from_csv(path)
    assert c.lookup(0.1) == pytest.approx(0.1)
    assert c.lookup(-2.0) == pytest.approx(1.0)
    # Curves compare by value, as the configs that hold them do.
    assert c == PerCurve([-2.0, 0.1, 2.0], [1.0, 0.1, 0.0])
    assert c != PerCurve.three_point(0.1)


def test_per_curve_csv_header_error(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("snr,per\n0.0,0.5\n")
    with pytest.raises(ValueError, match="sinr_db,per"):
        PerCurve.from_csv(path)


def test_per_curve_csv_bad_row_cites_line(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("sinr_db,per\n0.0,0.5\nnope,0.1\n")
    with pytest.raises(ValueError, match="3"):
        PerCurve.from_csv(path)


def test_decide_reception_extremes(rng):
    draws = np.concatenate([[0.0], rng.random(49)])
    assert reception_success(np.zeros(50), draws).all()
    assert not reception_success(np.ones(50), draws).any()
    # A PER outside [0, 1] never reaches the draw: curves refuse such points.
    with pytest.raises(ValueError):
        PerCurve(np.array([0.0, 1.0]), np.array([1.2, 0.1]))


def test_decide_reception_rate(rng):
    hits = reception_success(np.full(10_000, 0.3), rng.random(10_000))
    assert hits.mean() == pytest.approx(0.7, abs=0.02)
