"""Temporal preprocessing: bandpass filtering, decimation, epoching.

The chain mirrors standard offline ERP processing: a causal order-4
Butterworth bandpass (1-12.5 Hz by default), pure subsampling down to
25 Hz (the 12.5 Hz band edge is exactly the new Nyquist, so the bandpass
doubles as the anti-alias filter), and fixed 0.6 s post-stimulus epochs.

Filtering is forward-only with zero initial conditions; the group delay
is accepted rather than compensated, matching what an online system
would see.  ``filter_recording`` bandpasses and decimates in one pass
over blocks of rows, carrying the filter state from block to block and
keeping each block's every q-th sample as soon as it is filtered, so the
full-rate filtered signal is never held; the output has the same bytes
as filtering the whole recording at once and then subsampling it.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import signal

from .errors import PipelineError, ValidationError
from .scheduler import Events

DEFAULT_CHANNELS = ("O1", "O2", "P3", "P4", "P7", "P8", "Pz", "FCz")
FILTER_BLOCK_VALUES = 2**18  # samples x channels filtered per block by filter_recording


@dataclass
class Recording:
    """Multichannel sample matrix plus the stimulus events aligned to it.

    ``samples`` is T x C (rows = time, columns = channels), in microvolts.
    """

    fs_hz: float
    samples: np.ndarray
    channel_names: tuple[str, ...] = DEFAULT_CHANNELS
    events: Events | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 2 or self.samples.shape[0] < 1 or self.samples.shape[1] < 1:
            raise ValidationError("samples must be a non-empty T x C matrix")
        if len(self.channel_names) != self.samples.shape[1]:
            raise ValidationError(
                f"{self.samples.shape[1]} channels but "
                f"{len(self.channel_names)} channel names"
            )
        duration = self.samples.shape[0] / self.fs_hz
        onsets = np.empty(0) if self.events is None else self.events.onset_s
        outside = onsets[~((onsets >= 0.0) & (onsets <= duration))]
        if outside.size:
            raise ValidationError(f"event at {float(outside[0])}s lies outside the recording "
                                  f"(0..{duration:.3f}s)")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]

    def sample_index(self, onset_s):
        """Nearest sample index for a time (or array of times) in seconds;
        halves round to even, as ``round`` does."""
        return np.rint(np.asarray(onset_s) * self.fs_hz).astype(int)


@dataclass(frozen=True)
class FilterSpec:
    """Realized bandpass design (cascaded second-order sections)."""

    order: int
    low_hz: float
    high_hz: float
    fs_hz: float
    sos: np.ndarray


@dataclass
class EpochSet:
    """Per-flash feature rows: E x (L*K), channel-major concatenation."""

    epochs: np.ndarray
    labels: np.ndarray
    window_s: float
    n_samples: int  # L, samples per window
    n_channels: int  # K


def design_bandpass(
    fs_hz: float, low_hz: float = 1.0, high_hz: float = 12.5, order: int = 4
) -> FilterSpec:
    """Digital Butterworth bandpass via the bilinear transform.

    ``order`` is the analog prototype order (the conventional argument of
    butter()), so the realized filter has 2*order poles.  Band edges are
    prewarped and land at -3 dB.
    """
    if not 0 < low_hz < high_hz:
        raise ValidationError("need 0 < low_hz < high_hz")
    if order < 1:
        raise ValidationError(f"filter order must be >= 1, got {order}")
    if high_hz >= fs_hz / 2:
        raise ValidationError(
            f"high band edge {high_hz} Hz is at or above Nyquist ({fs_hz / 2} Hz)"
        )
    sos = signal.butter(order, [low_hz, high_hz], btype="bandpass", output="sos", fs=fs_hz)
    for section in sos:
        poles = np.roots(section[3:])
        if np.any(np.abs(poles) >= 1.0):
            raise PipelineError("designed filter is unstable (pole on or outside unit circle)")
    return FilterSpec(order=order, low_hz=low_hz, high_hz=high_hz, fs_hz=fs_hz, sos=sos)


def frequency_response(spec: FilterSpec, freqs_hz) -> np.ndarray:
    """Complex response of the realized filter at the given frequencies."""
    _, h = signal.sosfreqz(spec.sos, worN=np.atleast_1d(freqs_hz), fs=spec.fs_hz)
    return h


def filter_recording(spec: FilterSpec, rec: Recording, fs_out: float) -> Recording:
    """Causal forward filtering from a zero state, then every q-th sample
    from index 0, q = rec.fs_hz / fs_out (see ``decimate``).

    Filters blocks of about ``FILTER_BLOCK_VALUES`` values, each a multiple
    of q rows so that it starts on a kept sample, and carries the filter
    state across blocks: the result has the same bytes as one pass over the
    whole recording followed by ``decimate``.
    """
    if spec.fs_hz != rec.fs_hz:
        raise ValidationError(
            f"filter designed for {spec.fs_hz} Hz, recording is {rec.fs_hz} Hz"
        )
    q = _decimation_factor(rec.fs_hz, fs_out)
    step = max(1, FILTER_BLOCK_VALUES // rec.n_channels // q) * q
    state = np.zeros((len(spec.sos), 2, rec.n_channels))
    kept = []
    for start in range(0, rec.n_samples, step):
        y, state = signal.sosfilt(spec.sos, rec.samples[start : start + step], axis=0, zi=state)
        kept.append(y[::q].copy())  # a strided view would pin the whole block
    return replace(rec, fs_hz=fs_out, samples=np.concatenate(kept))


def _decimation_factor(fs_in: float, fs_out: float) -> int:
    """The integer q = fs_in / fs_out; anything else is a ValidationError."""
    if not fs_out > 0:
        raise ValidationError(f"output rate fs_out must be positive, got {fs_out}")
    factor = fs_in / fs_out
    if abs(factor - round(factor)) > 1e-9 or factor < 1:
        raise ValidationError(
            f"sampling rate {fs_in} Hz is not an integer multiple of {fs_out} Hz"
        )
    return int(round(factor))


def decimate(rec: Recording, fs_out: float) -> Recording:
    """Keep every (fs_in/fs_out)-th sample starting at index 0.

    The input must already be lowpassed at or below fs_out/2; no extra
    anti-alias filter is applied.  Event times are untouched (they live in
    seconds); their sample indices on the new clock come from
    nearest-sample rounding at use time.
    """
    q = _decimation_factor(rec.fs_hz, fs_out)
    return replace(rec, fs_hz=fs_out, samples=rec.samples[::q].copy())


def extract_epochs(rec: Recording, window_s: float = 0.6) -> EpochSet:
    """One feature row per flash event: ``window_s`` of signal from onset.

    Rows concatenate channels channel-major (all of channel 1's samples,
    then channel 2's, ...).  Pause events are skipped; labels carry the
    events' is_target flags.
    """
    length = int(round(window_s * rec.fs_hz))
    if length < 1:
        raise ValidationError(f"window {window_s}s is shorter than one sample")
    flashes = rec.events[rec.events.is_flash]
    start = rec.sample_index(flashes.onset_s)
    truncated = (start < 0) | (start + length > rec.n_samples)
    if truncated.any():
        i = int(np.argmax(truncated))
        raise PipelineError(
            f"epoch truncated for flash at {flashes.onset_s[i]:.3f}s "
            f"(char {flashes.char_index[i]}, rep {flashes.repetition[i]}): "
            f"needs samples [{start[i]}, {start[i] + length}) of {rec.n_samples}"
        )
    windows = rec.samples[start[:, None] + np.arange(length)]  # E x L x C
    rows = windows.transpose(0, 2, 1).reshape(len(flashes), length * rec.n_channels)
    return EpochSet(
        epochs=rows.astype(float, copy=False),
        labels=flashes.is_target.copy(),
        window_s=window_s,
        n_samples=length,
        n_channels=rec.n_channels,
    )
