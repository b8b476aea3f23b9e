"""Distance-binned packet-reception statistics, cross-run aggregation, CSV output."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Histogram rows: 0 for ITS-G5, 1 for LTE-V2X.
TECH_NAMES = ("ItsG5", "LteV2x")

CSV_HEADER = "tech,bin_lo_m,bin_hi_m,prr,prr_std,opportunities,runs"
# Reference distances of the printed PRR summary.
SUMMARY_DISTANCES_M = (50, 100, 200, 300)


class PrrHistogram:
    """Per-technology success/opportunity counts over fixed-width distance bins.

    Bins are lower-inclusive: distance d lands in bin floor(d / width);
    distances at or beyond max_distance_m are ignored and negative ones are an
    error. Merging histograms adds counts, so cross-run pooling is associative
    and commutative.
    """

    def __init__(self, bin_width_m: float = 10.0, max_distance_m: float = 500.0):
        if bin_width_m <= 0 or max_distance_m <= 0:
            raise ValueError("bin width and max distance must be > 0")
        self.bin_width_m = bin_width_m
        self.max_distance_m = max_distance_m
        self.n_bins = int(round(max_distance_m / bin_width_m))
        self.opportunities = np.zeros((len(TECH_NAMES), self.n_bins), dtype=np.int64)
        self.successes = np.zeros((len(TECH_NAMES), self.n_bins), dtype=np.int64)

    def record_many(self, tech_index: int, distances_m: np.ndarray,
                    successes: np.ndarray) -> None:
        if (distances_m < 0).any():
            raise ValueError("distance must be >= 0")
        bins = (distances_m // self.bin_width_m).astype(np.int64)
        ok = bins < self.n_bins
        bins = bins[ok]
        self.opportunities[tech_index] += np.bincount(bins, minlength=self.n_bins)
        self.successes[tech_index] += np.bincount(bins[successes[ok]], minlength=self.n_bins)

    def merge(self, other: "PrrHistogram") -> None:
        if (other.bin_width_m != self.bin_width_m
                or other.max_distance_m != self.max_distance_m):
            raise ValueError("histogram binning mismatch")
        self.opportunities += other.opportunities
        self.successes += other.successes

    def prr(self) -> np.ndarray:
        """Per-bin ratio; NaN where a bin saw no opportunities."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.opportunities > 0,
                            self.successes / np.maximum(self.opportunities, 1),
                            np.nan)


@dataclass
class Aggregate:
    """Cross-run summary: pooled counts as the primary estimate, plus the
    sample standard deviation of the per-run PRRs for error bars."""

    pooled: PrrHistogram
    std_prr: np.ndarray
    n_runs: int

    @property
    def prr(self) -> np.ndarray:
        return self.pooled.prr()


def aggregate(runs: list[PrrHistogram]) -> Aggregate:
    if not runs:
        raise ValueError("aggregate requires at least one run")
    pooled = PrrHistogram(runs[0].bin_width_m, runs[0].max_distance_m)
    for h in runs:
        pooled.merge(h)
    vals = np.stack([h.prr() for h in runs])
    defined = ~np.isnan(vals)
    cnt = defined.sum(axis=0)
    total = np.where(defined, vals, 0.0).sum(axis=0)
    mean = np.where(cnt > 0, total / np.maximum(cnt, 1), np.nan)
    sq = np.where(defined, (vals - np.where(cnt > 0, mean, 0.0)) ** 2, 0.0).sum(axis=0)
    std = np.where(cnt > 1, np.sqrt(sq / np.maximum(cnt - 1, 1)), 0.0)
    std = np.where(cnt == 0, np.nan, std)
    return Aggregate(pooled, std, len(runs))


def _fmt(x: float) -> str:
    return repr(float(x))


def csv_filename(mode: str, itsg5_fraction: float) -> str:
    return f"prr_{mode}_{round(itsg5_fraction * 100)}.csv"


def write_csv(agg: Aggregate, path) -> None:
    """One row per (present technology, bin); PRR left empty in empty bins."""
    pooled = agg.pooled
    prr = pooled.prr()
    try:
        with open(path, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for t, name in enumerate(TECH_NAMES):
                if pooled.opportunities[t].sum() == 0:
                    continue
                for b in range(pooled.n_bins):
                    lo = b * pooled.bin_width_m
                    hi = lo + pooled.bin_width_m
                    opp = int(pooled.opportunities[t, b])
                    prr_s = _fmt(prr[t, b]) if opp > 0 else ""
                    std_s = ("" if np.isnan(agg.std_prr[t, b])
                             else _fmt(agg.std_prr[t, b]))
                    fh.write(f"{name},{_fmt(lo)},{_fmt(hi)},{prr_s},{std_s},"
                             f"{opp},{agg.n_runs}\n")
    except OSError as exc:
        raise OSError(f"failed writing results to {path}: {exc}") from exc


PLOT_SCRIPT_NAME = "plot_prr.py"

_PLOT_TEMPLATE = '''"""Plot packet reception ratio vs distance from the emitted CSV tables."""

import csv
from collections import defaultdict

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

FILES = {files!r}

curves = defaultdict(lambda: ([], []))
modes = []
for fname in FILES:
    label = fname[len("prr_"):-len(".csv")]
    mode, pct = label.rsplit("_", 1)
    if mode not in modes:
        modes.append(mode)
    with open(fname, newline="") as fh:
        for row in csv.DictReader(fh):
            if not row["prr"]:
                continue
            xs, ys = curves[(mode, pct, row["tech"])]
            xs.append(0.5 * (float(row["bin_lo_m"]) + float(row["bin_hi_m"])))
            ys.append(float(row["prr"]))

fig, axes = plt.subplots(1, len(modes), figsize=(6 * len(modes), 4.5),
                         sharey=True, squeeze=False)
for ax, mode in zip(axes[0], modes):
    for (m, pct, tech), (xs, ys) in sorted(curves.items()):
        if m != mode:
            continue
        style = "-" if tech == "ItsG5" else "--"
        ax.plot(xs, ys, style, label=f"{{tech}} {{pct}}% ITS-G5")
    ax.set_title(f"{{mode}} CAM generation")
    ax.set_xlabel("distance [m]")
    ax.set_ylim(0, 1.02)
    ax.grid(True, alpha=0.3)
    ax.legend(fontsize=8)
axes[0][0].set_ylabel("packet reception ratio")
fig.tight_layout()
fig.savefig("prr_vs_distance.png", dpi=150)
print("wrote prr_vs_distance.png")
'''


def write_plot_script(out_dir, csv_names: list[str]) -> Path:
    path = Path(out_dir) / PLOT_SCRIPT_NAME
    path.write_text(_PLOT_TEMPLATE.format(files=sorted(csv_names)))
    return path


def summary_table(results: dict) -> str:
    """PRR at the summary distances per (mode, mix, technology), one line each.

    `results` maps (mode, itsg5_fraction) to an Aggregate.
    """
    lines = ["mode         mix    tech    " +
             "".join(f"PRR@{d}m".rjust(10) for d in SUMMARY_DISTANCES_M)]
    for (mode, mix), agg in sorted(results.items(), key=lambda kv: (kv[0][0], -kv[0][1])):
        prr = agg.prr
        for t, name in enumerate(TECH_NAMES):
            if agg.pooled.opportunities[t].sum() == 0:
                continue
            cells = []
            for d in SUMMARY_DISTANCES_M:
                b = int(d // agg.pooled.bin_width_m)
                v = prr[t, b] if b < agg.pooled.n_bins else np.nan
                cells.append(("-" if np.isnan(v) else f"{v:.3f}").rjust(10))
            lines.append(f"{mode:<12} {mix:<6.2f} {name:<7} " + "".join(cells))
    return "\n".join(lines)
