"""Frequency-to-time conversion, peak analysis and localization.

The one-sided spectrum on a uniform grid is extended down to DC by linear
extrapolation from the two lowest points, windowed, and inverse-transformed
entrywise under Hermitian symmetry to a real trace.  With K extended points
the trace has 2 (K - 1) samples and t_step = 1 / (2 f_max).

Reflectometric peak times map to distance as d = v t / 2, end-to-end peaks
as d = v t.  Velocity is treated as constant per mode (taken from the
low-frequency inductance and capacitance); dispersion corrections are out of
scope here.

Peaks are picked with the rules of ``scipy.signal.find_peaks`` (which the
tests use as the oracle), in numpy so the one-shot path never imports scipy:

* a local maximum is a sample, or a run of equal samples, higher than both
  neighbours; a flat peak sits at its plateau midpoint ``(left + right) // 2``
  and a plateau that touches either end of the trace is not a peak;
* a peak passes the height gate when ``x[peak] >= height``;
* spacing is enforced by height priority (``np.argsort`` order, highest
  first): every peak closer than ``ceil(distance)`` samples to a kept,
  higher-priority peak is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError, ValidationError
from .mtl import MatrixSpectrum

__all__ = [
    "TimeTrace",
    "to_time_domain",
    "Peak",
    "PeakList",
    "detect_peaks",
    "LocatedPeak",
    "time_to_distance",
    "LocateResult",
    "locate_anomaly_reflectometric",
    "SymmetryReport",
    "check_peak_spacing_symmetry",
    "DEFAULT_REL_THRESHOLD",
    "DEFAULT_MIN_SEPARATION",
]

# tunable defaults; threshold sits above the first sidelobe of the hann
# kernel (-31 dB ~ 0.027) so window leakage never registers as a peak
DEFAULT_REL_THRESHOLD = 0.05
DEFAULT_MIN_SEPARATION = 3

WINDOWS = ("rect", "hann")


@dataclass(eq=False)
class TimeTrace:
    """Real time-domain trace of a spectrum, labelled with the spectrum's
    ``kind`` and, for an anomaly delta, its ``model``."""

    t_step: float          # s
    samples: np.ndarray    # (n_t, L, L) real
    kind: str              # admittance | reflection | ctf
    model: str | None = None

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_conductors(self) -> int:
        return self.samples.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.t_step * np.arange(self.n_samples)


def to_time_domain(spec: MatrixSpectrum, window: str = "hann") -> TimeTrace:
    """Entrywise inverse transform of a one-sided matrix spectrum.

    The spectrum is extended to DC by linear extrapolation from its two
    lowest points (grids start above 0 Hz), multiplied by the window over
    the full extended band, and inverse-transformed assuming Hermitian
    symmetry, which yields an exactly real trace.  Requires the grid start
    to sit on the step lattice so the extension stays uniform.  The trace
    keeps the spectrum's ``kind`` and ``model``.
    """
    if window not in WINDOWS:
        raise ValidationError(f"unknown window {window!r}; use one of {WINDOWS}")

    grid = spec.grid
    ratio = grid.f_start / grid.f_step
    m = int(round(ratio))
    if m < 1 or abs(ratio - m) > 1e-6:
        raise ValidationError(
            "grid start is not a multiple of the step; cannot extend the "
            "spectrum to DC on a uniform lattice")

    n_ext = m + grid.n_points
    L = spec.n_conductors
    ext = np.empty((n_ext, L, L), dtype=complex)
    ext[m:] = spec.values
    slope = spec.values[1] - spec.values[0]
    for j in range(m):
        ext[j] = spec.values[0] + (j - m) * slope

    if window == "hann":
        ext = ext * np.hanning(n_ext)[:, None, None]
    n_t = 2 * (n_ext - 1)
    samples = np.fft.irfft(ext, n=n_t, axis=0)
    t_step = 1.0 / (n_t * grid.f_step)  # == 1 / (2 f_max_extended)
    return TimeTrace(t_step, samples, spec.kind, spec.model)


# ---------------------------------------------------------------------------
# peaks

@dataclass(frozen=True)
class Peak:
    """A local maximum of one trace entry."""

    time_s: float
    amplitude: float  # |trace entry| at the peak


@dataclass(eq=False)
class PeakList:
    """Per-entry peak lists.

    The first and last ``min_separation`` samples are excluded from peak
    candidacy: the head is the launch artifact of the sensing itself, the
    tail is its circular mirror from the finite transform.
    """

    t_step: float
    entries: dict[tuple[int, int], list[Peak]]

    def merged(self, tol_samples: int = 1) -> list[Peak]:
        """Union of all entries' peaks with tolerance-based merging; clusters
        within ``tol_samples`` collapse onto their strongest member."""
        every = sorted((p for plist in self.entries.values() for p in plist),
                       key=lambda p: p.time_s)
        merged: list[Peak] = []
        cluster: list[Peak] = []
        gap = (tol_samples + 1e-9) * self.t_step
        for p in every:
            if cluster and p.time_s - cluster[-1].time_s > gap:
                merged.append(max(cluster, key=lambda q: q.amplitude))
                cluster = []
            cluster.append(p)
        if cluster:
            merged.append(max(cluster, key=lambda q: q.amplitude))
        return merged


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of ``x``: runs of equal samples higher
    than the runs on both sides, reported at the run midpoint."""
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:] - 1, x.size - 1]
    v = x[starts]
    top = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    return (starts[1:-1][top] + ends[1:-1][top]) // 2


def _find_peaks(x: np.ndarray, height: float, distance: float) -> np.ndarray:
    """Local maxima with ``x >= height``, thinned by height priority so that
    no two kept peaks lie closer than ``ceil(distance)`` samples."""
    peaks = _local_maxima(x)
    peaks = peaks[x[peaks] >= height]
    d = math.ceil(distance)
    keep = np.ones(peaks.size, dtype=bool)
    for j in np.argsort(x[peaks])[::-1]:
        if keep[j]:
            lo = np.searchsorted(peaks, peaks[j] - d, side="right")
            hi = np.searchsorted(peaks, peaks[j] + d, side="left")
            keep[lo:hi] = False
            keep[j] = True
    return peaks[keep]


def detect_peaks(trace: TimeTrace,
                 rel_threshold: float = DEFAULT_REL_THRESHOLD,
                 min_separation: int = DEFAULT_MIN_SEPARATION) -> PeakList:
    """Local maxima of |entry| above rel_threshold * max|entry|, separated by
    at least min_separation samples."""
    if not 0.0 < rel_threshold < 1.0:
        raise ValidationError("rel_threshold must lie in (0, 1)")
    if min_separation < 1:
        raise ValidationError("min_separation must be >= 1 sample")
    n_t = trace.n_samples
    L = trace.n_conductors
    entries: dict[tuple[int, int], list[Peak]] = {}
    for r in range(L):
        for c in range(L):
            x = np.abs(trace.samples[:, r, c])
            gmax = float(x.max())
            if gmax <= 0.0:
                entries[(r, c)] = []
                continue
            idx = _find_peaks(x, rel_threshold * gmax, min_separation)
            idx = idx[(idx >= min_separation) & (idx < n_t - min_separation)]
            entries[(r, c)] = [Peak(time_s=float(i * trace.t_step),
                                    amplitude=float(x[i])) for i in idx]
    return PeakList(t_step=trace.t_step, entries=entries)


@dataclass(frozen=True)
class LocatedPeak:
    """A peak of trace entry ``entry`` with its distance."""

    entry: tuple[int, int]
    time_s: float
    distance_m: float
    amplitude: float


def _check_velocity(velocity: float) -> None:
    if not (math.isfinite(velocity) and velocity > 0):
        raise ValidationError(
            f"velocity must be finite and positive, got {velocity:g}")


def time_to_distance(peaks: PeakList, velocity: float,
                     mode: str = "reflectometric") -> list[LocatedPeak]:
    """Map peak times to distances: d = v t / 2 for reflectometric sensing
    (round trip), d = v t end-to-end."""
    _check_velocity(velocity)
    if mode == "reflectometric":
        scale = 0.5 * velocity
    elif mode == "end_to_end":
        scale = velocity
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    out = []
    for entry, plist in sorted(peaks.entries.items()):
        for p in plist:
            out.append(LocatedPeak(entry=entry, time_s=p.time_s,
                                   distance_m=scale * p.time_s,
                                   amplitude=p.amplitude))
    out.sort(key=lambda q: (q.time_s, q.entry))
    return out


@dataclass(frozen=True)
class LocateResult:
    """The anomaly distance, if an echo was found."""

    found: bool
    distance_m: float | None = None
    time_s: float | None = None
    confidence: float | None = None  # first-peak amplitude / strongest peak


def locate_anomaly_reflectometric(delta_trace: TimeTrace, velocity: float,
                                  rel_threshold: float = DEFAULT_REL_THRESHOLD,
                                  min_separation: int = DEFAULT_MIN_SEPARATION,
                                  ) -> LocateResult:
    """Distance of the first significant echo in a reflectometric anomaly
    delta trace; everything before the anomaly cancels between baseline and
    perturbed responses, so the first peak is the anomaly itself."""
    if delta_trace.model is None or delta_trace.kind != "admittance":
        raise UsageError(
            "localization expects a trace of an admittance delta "
            f"(got quantity={delta_trace.kind!r}, model={delta_trace.model!r})")
    _check_velocity(velocity)
    peaks = detect_peaks(delta_trace, rel_threshold, min_separation).merged()
    if not peaks:
        return LocateResult(found=False)
    first = peaks[0]
    strongest = max(p.amplitude for p in peaks)
    return LocateResult(found=True, distance_m=0.5 * velocity * first.time_s,
                        time_s=first.time_s,
                        confidence=first.amplitude / strongest)


# ---------------------------------------------------------------------------
# peak-spacing symmetry between forward and reverse transfers

@dataclass(eq=False)
class SymmetryReport:
    """Whether forward and reverse transfers share their peak spacings."""

    symmetric: bool
    inconclusive: bool
    spacings_ab_s: list[float]
    spacings_ba_s: list[float]
    max_spacing_error_samples: float
    matched_pairs: list[tuple[Peak, Peak]]
    notes: list[str]


def check_peak_spacing_symmetry(trace_ab: TimeTrace, trace_ba: TimeTrace,
                                tol_samples: int = 1,
                                rel_threshold: float = DEFAULT_REL_THRESHOLD,
                                min_separation: int = DEFAULT_MIN_SEPARATION,
                                ) -> SymmetryReport:
    """Compare consecutive peak spacings of the two transfer directions.

    Peak amplitudes are deliberately unconstrained: they differ between
    directions in general, and a weak arrival may even null out in one
    direction.  A dominant arrival, at least half its trace's strongest peak
    (a fixed fraction), must however appear in both directions; a dominant
    peak with no counterpart fails the check.  Fewer than two peaks or
    matched pairs, without such a dominant mismatch, is inconclusive.
    """
    if abs(trace_ab.t_step - trace_ba.t_step) > 1e-12 * trace_ab.t_step:
        raise ValidationError("traces use different time steps")
    t_step = trace_ab.t_step
    pa = detect_peaks(trace_ab, rel_threshold, min_separation).merged()
    pb = detect_peaks(trace_ba, rel_threshold, min_separation).merged()
    notes: list[str] = []
    if len(pa) < 2 or len(pb) < 2:
        return SymmetryReport(symmetric=False, inconclusive=True,
                              spacings_ab_s=[], spacings_ba_s=[],
                              max_spacing_error_samples=float("nan"),
                              matched_pairs=[],
                              notes=["fewer than two peaks in one direction"])

    window = max(3 * tol_samples, 3) * t_step
    pairs: list[tuple[Peak, Peak]] = []
    unmatched: list[tuple[str, Peak]] = []
    i = j = 0
    while i < len(pa) and j < len(pb):
        dt = pa[i].time_s - pb[j].time_s
        if abs(dt) <= window:
            pairs.append((pa[i], pb[j]))
            i += 1
            j += 1
        elif dt < 0:
            unmatched.append(("ab", pa[i]))
            i += 1
        else:
            unmatched.append(("ba", pb[j]))
            j += 1
    unmatched.extend(("ab", p) for p in pa[i:])
    unmatched.extend(("ba", p) for p in pb[j:])

    dominant_cut = {
        "ab": 0.5 * max(p.amplitude for p in pa),
        "ba": 0.5 * max(p.amplitude for p in pb),
    }
    dominant_unmatched = []
    for side, p in unmatched:
        if p.amplitude >= dominant_cut[side]:
            dominant_unmatched.append((side, p))
            notes.append(f"dominant peak at {p.time_s:.3e} s ({side}) has "
                         "no counterpart in the other direction")
        else:
            notes.append(f"weak one-sided detection at {p.time_s:.3e} s "
                         f"({side}); amplitudes are unconstrained, dropped")

    if dominant_unmatched:
        return SymmetryReport(symmetric=False, inconclusive=False,
                              spacings_ab_s=[], spacings_ba_s=[],
                              max_spacing_error_samples=float("inf"),
                              matched_pairs=pairs, notes=notes)
    if len(pairs) < 2:
        return SymmetryReport(symmetric=False, inconclusive=True,
                              spacings_ab_s=[], spacings_ba_s=[],
                              max_spacing_error_samples=float("nan"),
                              matched_pairs=pairs,
                              notes=notes + ["fewer than two matched pairs"])

    ta = np.array([p.time_s for p, _ in pairs])
    tb = np.array([p.time_s for _, p in pairs])
    sa = np.diff(ta)
    sb = np.diff(tb)
    err = float(np.max(np.abs(sa - sb)) / t_step)
    # small epsilon absorbs float rounding of on-lattice peak times
    symmetric = err <= tol_samples + 1e-9
    return SymmetryReport(symmetric=symmetric, inconclusive=False,
                          spacings_ab_s=sa.tolist(), spacings_ba_s=sb.tolist(),
                          max_spacing_error_samples=err, matched_pairs=pairs,
                          notes=notes)

