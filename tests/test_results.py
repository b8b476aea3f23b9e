"""Distance-binned PRR accounting, aggregation and the CSV/plot emitters."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coexsim.results import (
    CSV_HEADER,
    PLOT_SCRIPT_NAME,
    Aggregate,
    PrrHistogram,
    aggregate,
    csv_filename,
    summary_table,
    write_csv,
    write_plot_script,
)

from oracles import read_csv

ITSG5, LTEV2X = 0, 1  # histogram rows, as the engine records them


def record(h, tech, distances, successes):
    """Record through the engine's path: one technology, arrays of receivers."""
    h.record_many(tech, np.array(distances, dtype=float),
                  np.array(successes, dtype=bool))


def hist_with(tech, pairs):
    h = PrrHistogram()
    if pairs:
        record(h, tech, *zip(*pairs))
    return h


def test_record_bins_are_lower_inclusive():
    h = PrrHistogram()
    record(h, ITSG5, [95.0], [True])
    assert h.opportunities[0, 9] == 1
    record(h, ITSG5, [100.0], [True])
    assert h.opportunities[0, 10] == 1
    record(h, ITSG5, [0.0], [False])
    assert h.opportunities[0, 0] == 1


def test_record_ignores_beyond_max_distance():
    h = PrrHistogram()
    record(h, LTEV2X, [500.0, 1234.0], [True, True])
    assert h.opportunities.sum() == 0


def test_record_rejects_negative_distance():
    h = PrrHistogram()
    with pytest.raises(ValueError):
        record(h, ITSG5, [10.0, -1.0], [True, True])
    assert h.opportunities.sum() == 0


def test_prr_example_bin():
    h = hist_with(ITSG5, [(95.0, i < 9) for i in range(10)])
    assert h.prr()[0, 9] == pytest.approx(0.9)


def test_prr_nan_for_empty_bins():
    h = PrrHistogram()
    assert np.isnan(h.prr()).all()


def test_record_many_accumulates_duplicates():
    h = PrrHistogram()
    h.record_many(0, np.array([95.0, 95.0, 210.0]),
                  np.array([True, False, True]))
    assert h.opportunities[0, 9] == 2
    assert h.successes[0, 9] == 1
    assert h.opportunities[0, 21] == 1


def test_record_many_matches_scalar_record(rng):
    d = rng.uniform(0, 600, 500)
    s = rng.random(500) < 0.5
    a = PrrHistogram()
    a.record_many(1, d, s)
    opp = np.zeros(50, dtype=np.int64)
    succ = np.zeros(50, dtype=np.int64)
    for di, si in zip(d, s):
        b = int(di // 10.0)
        if b < 50:
            opp[b] += 1
            succ[b] += si
    assert np.array_equal(a.opportunities[1], opp)
    assert np.array_equal(a.successes[1], succ)
    assert a.opportunities[0].sum() == 0


def test_merge_rejects_binning_mismatch():
    with pytest.raises(ValueError):
        PrrHistogram(10.0, 500.0).merge(PrrHistogram(20.0, 500.0))


def test_bin_edges(tmp_path):
    h = hist_with(ITSG5, [(10.0, True)])
    assert h.n_bins == 50
    write_csv(aggregate([h]), tmp_path / "out.csv")
    rows = read_csv(tmp_path / "out.csv")
    assert [r["bin_lo_m"] for r in rows] == [10.0 * b for b in range(50)]
    assert [r["bin_hi_m"] for r in rows] == [10.0 * b for b in range(1, 51)]


@given(
    counts=st.lists(
        st.tuples(st.floats(0, 499.9), st.booleans(), st.integers(0, 1)),
        max_size=30,
    )
)
def test_merge_is_order_independent(counts):
    hs = [PrrHistogram() for _ in range(3)]
    for d, ok, which in counts:
        record(hs[which], ITSG5, [d], [ok])

    def merged(*parts):
        out = PrrHistogram()
        for h in parts:
            out.merge(h)
        return out

    ab = merged(hs[0], hs[1])
    ba = merged(hs[1], hs[0])
    assert np.array_equal(ab.opportunities, ba.opportunities)
    assert np.array_equal(ab.successes, ba.successes)
    left = merged(merged(hs[0], hs[1]), hs[2])
    right = merged(hs[0], merged(hs[1], hs[2]))
    assert np.array_equal(left.opportunities, right.opportunities)
    assert np.array_equal(left.successes, right.successes)


def test_aggregate_pools_and_spreads():
    r1 = hist_with(ITSG5, [(95.0, i < 8) for i in range(10)])   # 0.8
    r2 = hist_with(ITSG5, [(95.0, True) for _ in range(10)])    # 1.0
    agg = aggregate([r1, r2])
    assert agg.n_runs == 2
    assert agg.prr[0, 9] == pytest.approx(0.9)          # pooled 18/20
    assert agg.std_prr[0, 9] == pytest.approx(np.std([0.8, 1.0], ddof=1))
    # The spread is taken about the per-run mean (0.9), not the pooled 10/12.
    r3 = hist_with(ITSG5, [(95.0, True) for _ in range(2)])     # 1.0
    agg = aggregate([r1, r3])
    assert agg.prr[0, 9] == pytest.approx(10 / 12)
    assert agg.std_prr[0, 9] == pytest.approx(np.std([0.8, 1.0], ddof=1))


def test_aggregate_identical_runs_has_zero_std():
    runs = [hist_with(ITSG5, [(55.0, True)] * 5) for _ in range(4)]
    agg = aggregate(runs)
    assert agg.std_prr[0, 5] == 0.0


def test_aggregate_requires_runs():
    with pytest.raises(ValueError):
        aggregate([])


def test_csv_filename():
    assert csv_filename("standard", 1.0) == "prr_standard_100.csv"
    assert csv_filename("standard", 0.75) == "prr_standard_75.csv"
    assert csv_filename("constrained", 0.5) == "prr_constrained_50.csv"
    assert csv_filename("standard", 0.0) == "prr_standard_0.csv"


def test_write_csv_header_and_roundtrip(tmp_path):
    agg = aggregate([hist_with(ITSG5, [(95.0, i < 9) for i in range(10)])])
    path = tmp_path / "out.csv"
    write_csv(agg, path)
    first = path.read_text().splitlines()[0]
    assert first == CSV_HEADER == "tech,bin_lo_m,bin_hi_m,prr,prr_std,opportunities,runs"
    rows = read_csv(path)
    assert all(r["tech"] == "ItsG5" for r in rows)  # no LteV2x traffic: no rows
    assert len(rows) == 50
    target = [r for r in rows if r["bin_lo_m"] == 90.0][0]
    assert target["prr"] == 0.9
    assert target["bin_hi_m"] == 100.0
    assert target["opportunities"] == 10
    assert target["runs"] == 1


def test_write_csv_empty_bins_have_empty_prr(tmp_path):
    agg = aggregate([hist_with(LTEV2X, [(10.0, True)])])
    path = tmp_path / "out.csv"
    write_csv(agg, path)
    lines = path.read_text().splitlines()
    row = [l for l in lines if l.startswith("LteV2x,450")][0]
    fields = row.split(",")
    assert fields[3] == "" and fields[5] == "0"


def test_write_csv_is_deterministic(tmp_path):
    agg = aggregate([hist_with(ITSG5, [(d, d < 200) for d in
                                            np.linspace(5, 495, 50)])])
    write_csv(agg, tmp_path / "a.csv")
    write_csv(agg, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_write_csv_reports_path_on_failure(tmp_path):
    agg = aggregate([hist_with(ITSG5, [(10.0, True)])])
    missing = tmp_path / "no_such_dir" / "out.csv"
    with pytest.raises(OSError, match="no_such_dir"):
        write_csv(agg, missing)


def test_read_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("tech,lo,hi\n")
    with pytest.raises(ValueError, match="expected header"):
        read_csv(path)


def test_plot_script_is_valid_python(tmp_path):
    names = ["prr_standard_100.csv", "prr_standard_50.csv"]
    path = write_plot_script(tmp_path, names)
    assert path.name == PLOT_SCRIPT_NAME
    text = path.read_text()
    compile(text, str(path), "exec")
    for name in names:
        assert name in text


def test_summary_table_layout():
    agg = aggregate([hist_with(ITSG5, [(55.0, True), (205.0, False)])])
    table = summary_table({("standard", 1.0): agg, ("constrained", 0.5): agg})
    assert "PRR@100m" in table.splitlines()[0]
    assert any("standard" in l and "1.00" in l for l in table.splitlines())
    assert any("constrained" in l for l in table.splitlines())
    assert "1.000" in table   # the populated 50 m bin
