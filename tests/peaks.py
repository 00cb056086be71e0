"""Peak tools for reading spectra: smoothing, local maxima, dominant lines and widths.

The pipeline never calls these; the tests use them to locate the lines of a
spectrum, as the paper-claim checks do.
"""

import numpy as np


def smooth3(values: np.ndarray) -> np.ndarray:
    """3-point moving average with the ends left untouched.

    The two outer terms are added first, so reversing the input reverses
    the output bit for bit.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return v.copy()
    out = v.copy()
    out[1:-1] = (v[:-2] + v[2:] + v[1:-1]) / 3.0
    return out


#: neighbouring smoothed values closer than this many machine epsilons of
#: their summed magnitudes are equal; rounding moves a smoothed value by at
#: most 1.5 eps of its magnitude (mean |raw| of its three terms), so a tie
#: in exact arithmetic is never split
_TIE_EPS = 2.0


def local_maxima(omega: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Indices of local maxima of the 3-point-smoothed values.

    Neighbouring smoothed values count as equal when they differ by no more
    than a bound just above the rounding error of their 3-term sums, taken
    from the magnitudes of the raw values in each sum; the bound is local,
    so small peaks in the tails of a large one survive. A flat run (one or more points, equal in
    this sense) is a maximum when the values rise into it and fall after
    it. A shelf, where the values rise into the run and rise again after
    it, is not a maximum. Each maximal run gives one index: the point of
    the run with the largest raw value, the lowest frequency among exact
    raw ties. A run that touches a grid endpoint never qualifies, so
    reversing input without raw ties reverses the indices.
    """
    v = np.asarray(values, dtype=float)
    s = smooth3(v)
    if s.size < 3:
        return np.array([], dtype=int)
    mag = smooth3(np.abs(v))
    tol = _TIE_EPS * np.finfo(float).eps * (mag[:-1] + mag[1:])
    diff = np.diff(s)
    step = (diff > tol).astype(int) - (diff < -tol)
    edges = np.flatnonzero(step)
    peak = (step[edges[:-1]] > 0) & (step[edges[1:]] < 0)
    starts = edges[:-1][peak] + 1
    stops = edges[1:][peak] + 1
    return np.array([a + int(np.argmax(v[a:b])) for a, b in zip(starts, stops)],
                    dtype=int)


def dominant_peaks(omega: np.ndarray, values: np.ndarray,
                   rel_height: float = 0.5) -> list[tuple[float, float]]:
    """(position, smoothed height) of the local maxima that reach the cut.

    The cut is base + rel_height * (top - base), with base the smallest
    smoothed value and top the highest maximum, so a constant shift (lines
    all below zero, say) changes nothing. Positions and heights are taken at
    the indices `local_maxima` reports, so a symmetric narrow line sits on
    its own grid point.
    """
    s = smooth3(values)
    idx = local_maxima(omega, values)
    if idx.size == 0:
        return []
    cut = s.min() + rel_height * (s[idx].max() - s.min())
    return [(float(omega[i]), float(s[i])) for i in idx if s[i] >= cut]


def full_width_half_max(omega: np.ndarray, values: np.ndarray) -> float:
    """FWHM of the global maximum via linear interpolation of the crossings."""
    v = np.asarray(values, dtype=float)
    i = int(np.argmax(v))
    half = v[i] / 2.0
    left = np.nonzero(v[:i] < half)[0]
    right = np.nonzero(v[i:] < half)[0]
    if left.size == 0 or right.size == 0:
        raise ValueError("half-maximum level is not crossed on both sides")
    j = left[-1]
    lo = omega[j] + (half - v[j]) * (omega[j + 1] - omega[j]) / (v[j + 1] - v[j])
    k = i + right[0]
    hi = omega[k - 1] + (half - v[k - 1]) * (omega[k] - omega[k - 1]) / (v[k] - v[k - 1])
    return float(hi - lo)
