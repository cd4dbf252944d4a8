"""Spatial filter estimation that maximizes the evoked-response ratio.

The evoked response is modelled as a fixed waveform added at every target
onset: X = D A + noise, where D is a T x L 0/1 Toeplitz-structured design
(one shifted copy of the onset indicator per waveform sample) and A the
L x C waveform.  With A estimated by least squares, the spatial filters u
maximize the Rayleigh quotient

    rho(u) = ||D A u||^2 / ||X u||^2.

With D = Qd Rd and X = Qx Rx, the least-squares projection gives
D A = Qd Qd' X, so rho(u) = ||Qd' Qx w||^2 / ||w||^2 for w = Rx u.  The
singular vectors of Qd' Qx therefore solve the problem, and the singular
values are cosines of principal angles, so every rho lies in [0, 1].

Neither D nor Qd is formed.  Qd' Qx = Rd^-T (D' X) Rx^-1 needs three
small matrices: D' D, the L x L symmetric Toeplitz of onset-pair counts
(entry (i, j) counts the onsets o with o + |i - j| also an onset), whose
Cholesky factor is Rd; D' X, the sum of the L x C windows of X that start
at the onsets; and Rx, the triangle of a QR of X taken without its Q.
``build_toeplitz`` keeps the dense design as the reference.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import PipelineError, ValidationError
from .dsp import Recording


@dataclass
class SpatialFilterModel:
    """Fitted spatial filters: columns of ``u`` map C channels to one component."""

    u: np.ndarray  # (C, n_f)
    n_f: int
    rho: np.ndarray  # Rayleigh quotient per component, descending
    erp_len: int

    def to_json(self) -> dict:
        return {
            "n_f": self.n_f,
            "erp_len": self.erp_len,
            "u": self.u.tolist(),
            "rho": self.rho.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SpatialFilterModel":
        return cls(
            u=np.asarray(obj["u"], dtype=float),
            n_f=int(obj["n_f"]),
            rho=np.asarray(obj["rho"], dtype=float),
            erp_len=int(obj["erp_len"]),
        )


def _check_onsets(onsets, erp_len: int, total_samples: int) -> np.ndarray:
    """The onsets as ints, checked sorted, distinct and with their ERP windows inside."""
    onsets = np.asarray(onsets, dtype=int)
    if onsets.size and (np.any(np.diff(onsets) <= 0)):
        raise ValidationError("onsets must be sorted and distinct")
    if onsets.size and onsets.min() < 0:
        raise ValidationError(f"onset {int(onsets.min())} lies before the recording")
    if onsets.size and onsets.max() + erp_len > total_samples:
        raise ValidationError(
            f"onset {int(onsets.max())} too close to the end: the ERP window of {erp_len} "
            f"samples runs past the end of the recording ({total_samples} samples)"
        )
    return onsets


def build_toeplitz(onsets, erp_len: int, total_samples: int) -> np.ndarray:
    """T x L 0/1 design: d[t, l] = 1 iff t = onset + l for some onset."""
    onsets = _check_onsets(onsets, erp_len, total_samples)
    d = np.zeros((total_samples, erp_len))
    lags = np.arange(erp_len)
    d[onsets[:, None] + lags, lags] = 1.0
    return d


def fit_xdawn(rec: Recording, erp_len: int = 15, n_f: int = 4) -> SpatialFilterModel:
    """Estimate spatial filters from a filtered, decimated recording.

    Filters are normalized to unit Euclidean length with the
    largest-magnitude coefficient positive (the objective is invariant to
    scale and sign, tests are not).  At most min(erp_len, C) components
    exist; a larger ``n_f`` is clamped, and the model's ``n_f`` says how
    many were fitted.
    """
    if n_f < 1:
        raise ValidationError(f"n_f must be >= 1, got {n_f}")
    if erp_len < 1:
        raise ValidationError(f"ERP window must span at least one sample, got erp_len={erp_len}")
    x = np.asarray(rec.samples, dtype=float)
    t_total, n_ch = x.shape
    if t_total <= erp_len or t_total <= n_ch:
        raise ValidationError("recording too short for the ERP window / channel count")
    events = rec.events
    onsets = np.sort(rec.sample_index(events.onset_s[events.is_flash & events.is_target]))
    if len(onsets) < 2:
        raise PipelineError("need at least two target flashes to fit spatial filters")

    onsets = _check_onsets(onsets, erp_len, t_total)
    lags = np.arange(erp_len)
    windows = onsets[:, None] + lags
    # D'D[i, j] counts onsets o with o + |i - j| also an onset; it is positive
    # definite, since sorted, distinct, in-range onsets give D full column rank
    pair_counts = np.isin(windows, onsets).sum(axis=0)
    dtd = pair_counts[np.abs(lags[:, None] - lags)].astype(float)
    dtx = x[windows].sum(axis=0)
    rx = np.linalg.qr(x, mode="r")
    diag = np.abs(np.diag(rx))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise PipelineError("degenerate signal: channel covariance is rank-deficient")

    # Qd' Qx = Rd^-T D'X Rx^-1, with Rd^T the Cholesky factor of D'D
    left = np.linalg.solve(np.linalg.cholesky(dtd), dtx)
    _, lam, psi_t = np.linalg.svd(np.linalg.solve(rx.T, left.T).T, full_matrices=False)
    # cosines of principal angles: rounding must not lift rho past 1
    lam = np.minimum(lam, 1.0)
    n_f = min(n_f, lam.size)
    u = np.linalg.solve(rx, psi_t[:n_f].T)
    u /= np.linalg.norm(u, axis=0, keepdims=True)
    flip = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(n_f)])
    u *= flip
    return SpatialFilterModel(u=u, n_f=n_f, rho=lam[:n_f] ** 2, erp_len=erp_len)


def apply_spatial_filter(m: SpatialFilterModel, rec: Recording) -> Recording:
    """Project a recording onto the fitted components."""
    if rec.n_channels != m.u.shape[0]:
        raise ValidationError(
            f"filter expects {m.u.shape[0]} channels, recording has {rec.n_channels}"
        )
    names = tuple(f"xDAWN-{k + 1}" for k in range(m.n_f))
    return replace(rec, samples=rec.samples @ m.u, channel_names=names)
