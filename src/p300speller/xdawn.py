"""Spatial filter estimation that maximizes the evoked-response ratio.

The evoked response is modelled as a fixed waveform added at every target
onset: X = D A + noise, where D is a T x L Toeplitz-structured count
design (entry (t, l) counts the onsets at t - l, so two responses that
start at one sample add up) and A the L x C waveform.  With A estimated
by least squares, the spatial filters u maximize the Rayleigh quotient

    rho(u) = ||D A u||^2 / ||X u||^2.

With D = Qd Rd and X = Qx Rx, the least-squares projection gives
D A = Qd Qd' X, so rho(u) = ||Qd' Qx w||^2 / ||w||^2 for w = Rx u.  The
singular vectors of Qd' Qx therefore solve the problem, and the singular
values are cosines of principal angles, so every rho lies in [0, 1].

Neither D nor Qd is formed.  Qd' Qx = Rd^-T (D' X) Rx^-1 needs three
small matrices: D' D, the L x L symmetric Toeplitz of the onset counts'
autocorrelation (entry (i, j) sums the onsets at o + |i - j| over the
onsets o), whose Cholesky factor is Rd; D' X, the sum of the L x C
windows of X at the onsets; and Rx, the triangle of a QR of X.
``build_toeplitz`` keeps the dense design as the reference.

Rx comes from shifted CholeskyQR3 (Fukaya et al. 2020): three Gram
products X'X, Q1'Q1 and Q2'Q2, their Cholesky factors and two small
triangular inverses, with no Householder QR.  Plain CholeskyQR2 is safe
only up to cond(X) of about eps^-1/2 = 6.7e7; past that X'X need not be
numerically positive definite, and on the sweep below it wrongly
rejected cond 1.15e9 and 1.15e11.  A shift of 11 (T C + C (C + 1)) eps/2
trace(X'X) on the first Gram keeps its Cholesky factor real up to
cond(X) near 1/eps, and two plain passes take Q1 = X R1^-1 back to
orthonormal.  On a 2,616 x 64 signal whose last channel is the others'
mean plus eps-noise, the fit accepts and rejects exactly where a
Householder triangle does under the same diag(Rx) rule: it fits, with
the same filters, up to eps = 1e-11 (cond(X) 1.15e11), and rejects from
eps = 1e-12, an exact duplicate channel and a zero channel
(``tests/test_xdawn.py``, the conditioning sweep).
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import PipelineError, ValidationError
from .dsp import Recording, check_finite


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
    """The onsets as ints, checked sorted and with their ERP windows inside."""
    onsets = np.asarray(onsets, dtype=int)
    if onsets.size and (np.any(np.diff(onsets) < 0)):
        raise ValidationError("onsets must be sorted")
    if onsets.size and onsets.min() < 0:
        raise ValidationError(f"onset {int(onsets.min())} lies before the recording")
    if onsets.size and onsets.max() + erp_len > total_samples:
        raise ValidationError(
            f"onset {int(onsets.max())} too close to the end: the ERP window of {erp_len} "
            f"samples runs past the end of the recording ({total_samples} samples)"
        )
    return onsets


def build_toeplitz(onsets, erp_len: int, total_samples: int) -> np.ndarray:
    """T x L count design: d[t, l] is the number of onsets at t - l."""
    onsets = _check_onsets(onsets, erp_len, total_samples)
    d = np.zeros((total_samples, erp_len))
    lags = np.arange(erp_len)
    np.add.at(d, (onsets[:, None] + lags, lags), 1.0)
    return d


def _signal_triangle(x: np.ndarray) -> np.ndarray:
    """Upper triangle R of X = QR, positive on its diagonal, by shifted
    CholeskyQR3 (Fukaya et al. 2020, SIAM J. Sci. Comput. 42(1)) without the
    last Q.  A Cholesky factor that does not exist raises ``LinAlgError``."""
    t_total, n_ch = x.shape
    gram = x.T @ x
    shift = 11 * (t_total * n_ch + n_ch * (n_ch + 1)) * np.finfo(float).eps / 2 * np.trace(gram)
    r1 = np.linalg.cholesky(gram + shift * np.eye(n_ch), upper=True)
    q1 = x @ np.linalg.inv(r1)
    r2 = np.linalg.cholesky(q1.T @ q1, upper=True)
    q2 = q1 @ np.linalg.inv(r2)
    r3 = np.linalg.cholesky(q2.T @ q2, upper=True)
    return r3 @ r2 @ r1


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
    check_finite(x, rec.channel_names)
    events = rec.events
    onsets = np.sort(rec.sample_index(events.onset_s[events.is_flash & events.is_target]))
    if len(onsets) < 2:
        raise PipelineError("need at least two target flashes to fit spatial filters")

    onsets = _check_onsets(onsets, erp_len, t_total)
    lags = np.arange(erp_len)
    windows = onsets[:, None] + lags
    # D'D[i, j] sums the onsets at o + |i - j| over the onsets o; it is positive
    # definite, since any in-range onsets give D full column rank
    pair_counts = np.bincount(onsets, minlength=t_total)[windows].sum(axis=0)
    dtd = pair_counts[np.abs(lags[:, None] - lags)].astype(float)
    dtx = x[windows].sum(axis=0)
    try:
        rx = _signal_triangle(x)
        diag = np.diag(rx)
        # relative to the largest alone, so no scale of the signal reads as
        # degenerate; an all-zero signal still does
        degenerate = not diag.min() > 1e-12 * diag.max()
    except np.linalg.LinAlgError:
        degenerate = True
    if degenerate:
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
