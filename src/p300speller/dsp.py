"""Temporal preprocessing: bandpass filtering, decimation, epoching.

The chain mirrors standard offline ERP processing: a causal order-4
Butterworth bandpass (1-12.5 Hz by default), pure subsampling down to
25 Hz (the 12.5 Hz band edge is exactly the new Nyquist, so the bandpass
doubles as the anti-alias filter), and fixed 0.6 s post-stimulus epochs.

Filtering is forward-only with zero initial conditions; the group delay
is accepted rather than compensated, matching what an online system
would see.  The Butterworth design is closed-form in numpy (prototype
poles, low-pass to band-pass transform, prewarped bilinear transform).
``filter_recording`` bandpasses and decimates in one pass as a block
(polyphase) state-space decimator: the cascade's state advances once per
block of q input samples and only the kept samples are computed, over
blocks of rows, so the full-rate filtered signal is never held.  On a
read-only file mapping (a bundle's ``signal.f32``) it drops the pages
behind its row blocks each ``RELEASE_BYTES`` (1 MiB) it has read, so the
raw signal is not held either.
"""

import mmap
from dataclasses import dataclass, replace

import numpy as np

from .errors import PipelineError, RateError, ValidationError
from .scheduler import Events

DEFAULT_CHANNELS = ("O1", "O2", "P3", "P4", "P7", "P8", "Pz", "FCz")
FILTER_BLOCK_VALUES = 2**17  # samples x channels filtered per block by filter_recording
FILTER_CHUNK_BLOCKS = 16  # q-sample blocks per chunk, mapped by one operator in filter_recording
# mapped bytes filter_recording has read before it drops their pages: 1 MiB
# (two to four row blocks) costs 2-4% of a 2 kHz filter pass against 8 MiB
RELEASE_BYTES = 1 << 20
# the largest Butterworth prototype order design_bandpass takes: above every
# order whose 1-12.5 Hz design stays finite (72 at 50 Hz, 56 at 250 Hz, 42 at
# 2 kHz), and filter_recording's chunk operator, which grows as the order
# squared, stays under 6 MB at it
MAX_FILTER_ORDER = 100


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


def design_bandpass(fs_hz: float, low_hz: float, high_hz: float, order: int) -> FilterSpec:
    """Digital Butterworth bandpass via the bilinear transform.

    ``order`` is the analog prototype order (the conventional argument of
    butter()), so the realized filter has 2*order poles.  Band edges are
    prewarped and land at -3 dB.  Sections run from the poles farthest
    from the unit circle to the nearest, the gain sits in the first, and
    the zeros at z = -1 go to the first sections and those at z = 1 to the
    last, as in scipy.signal.butter(..., output="sos").

    An order above ``MAX_FILTER_ORDER``, or one whose gain is not a finite
    positive float64 (the gain's numerator and denominator each grow as a
    power of the order), is a ValidationError naming ``filter_order``,
    raised before anything of the order's size is allocated.
    """
    if not 0 < low_hz < high_hz:
        raise ValidationError("need 0 < low_hz < high_hz")
    if order < 1:
        raise ValidationError(f"filter order must be >= 1, got {order}")
    if order > MAX_FILTER_ORDER:
        raise ValidationError(f"filter_order must be at most {MAX_FILTER_ORDER}, got {order}")
    if high_hz >= fs_hz / 2:
        raise RateError(
            f"high band edge {high_hz} Hz is at or above Nyquist ({fs_hz / 2} Hz)"
        )
    fs2 = 2 * fs_hz
    low_w, high_w = fs2 * np.tan(np.pi * np.array([low_hz, high_hz]) / fs_hz)  # prewarped, rad/s
    width = high_w - low_w
    half = -np.exp(1j * np.pi * np.arange(1 - order, order, 2) / (2 * order)) * width / 2
    root = np.sqrt(half**2 - low_w * high_w)
    analog = np.concatenate([half + root, half - root])  # prototype poles, low-pass -> band-pass
    poles = (fs2 + analog) / (fs2 - analog)  # bilinear transform
    if np.any(np.abs(poles) >= 1.0):
        raise PipelineError("designed filter is unstable (pole on or outside unit circle)")
    # ``order`` zeros at s = 0 land on z = 1, and ``order`` at infinity on z = -1
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        gain = np.real((width * fs2) ** order / np.prod(fs2 - analog))
    if not 0 < gain < np.inf:
        raise ValidationError(f"filter_order {order} has no finite design for {low_hz}-{high_hz} "
                              f"Hz at {fs_hz} Hz (its gain is {float(gain)})")
    real = np.sort(poles[poles.imag == 0].real)  # two at most: odd order, wide band
    pairs = [(p, p.conjugate()) for p in poles[poles.imag > 0]] + list(zip(real[::2], real[1::2]))
    pairs.sort(key=lambda pair: max(abs(pair[0]), abs(pair[1])))
    zeros = [[1.0, 2.0, 1.0]] * (order // 2) + [[1.0, 0.0, -1.0]] * (order % 2)
    zeros += [[1.0, -2.0, 1.0]] * (order // 2)
    sos = np.array([num + [1.0, -np.real(a + b), np.real(a * b)]
                    for num, (a, b) in zip(zeros, pairs)])
    sos[0, :3] *= gain
    return FilterSpec(order=order, low_hz=low_hz, high_hz=high_hz, fs_hz=fs_hz, sos=sos)


def frequency_response(spec: FilterSpec, freqs_hz) -> np.ndarray:
    """Complex response of the realized filter at the given frequencies."""
    w = np.exp(-2j * np.pi * np.atleast_1d(freqs_hz) / spec.fs_hz)[:, None]  # z^-1
    b0, b1, b2, a0, a1, a2 = spec.sos.T
    return np.prod((b0 + w * (b1 + w * b2)) / (a0 + w * (a1 + w * a2)), axis=1)


def filter_recording(spec: FilterSpec, rec: Recording, fs_out: float) -> Recording:
    """Causal forward filtering from a zero state, then every q-th sample
    from index 0, q = rec.fs_hz / fs_out (see ``decimate``).

    Only the kept samples are computed.  The cascade runs as one state
    space s' = A s + B x, y = C s + D x, updated once per block of q
    samples: s <- A^q s + G x_block, with G = [A^(q-1) B ... B], and the
    kept output is C s + D x at the block's first sample.  One matmul
    maps the G x_block of ``FILTER_CHUNK_BLOCKS`` consecutive blocks (a
    chunk) to the chunk's kept outputs and end state from a zero start; a
    loop over chunks then adds each chunk's start state.  Rows are read in
    blocks of about ``FILTER_BLOCK_VALUES`` values, whole chunks each; the
    recording's last block is padded with zero input, and its last chunk
    with zero increments.  So the bytes of the result do not depend on the
    block size, and no more than q - 1 rows are added.

    The carried state goes non-finite for good at a non-finite input
    sample, wherever it sits, so a PipelineError names the channel.

    When ``rec.samples`` spans the whole of a read-only ``mmap.mmap`` (as
    ``read_session`` maps ``signal.f32``), the pages of the rows read so far
    are dropped with ``madvise(MADV_DONTNEED)`` each time another
    ``RELEASE_BYTES`` have been read, and at the end, so at most about that
    much of the mapping stays resident.  A shared read-only mapping loses
    nothing: a later read faults the pages back in from the page cache.
    """
    if spec.fs_hz != rec.fs_hz:
        raise ValidationError(
            f"filter designed for {spec.fs_hz} Hz, recording is {rec.fs_hz} Hz"
        )
    q = _decimation_factor(rec.fs_hz, fs_out)
    blocks, channels = FILTER_CHUNK_BLOCKS, rec.n_channels
    width = min(q, rec.n_samples)  # a recording shorter than q is one partial block
    feed, start_map, chunk_map, direct = _block_operators(spec.sos, q, blocks, width)
    n = len(feed)
    step = max(1, FILTER_BLOCK_VALUES // channels // (q * blocks)) * q * blocks
    state = np.zeros((n, channels))
    kept = []
    release = _page_release(rec.samples)
    for start in range(0, rec.n_samples, step):
        x = rec.samples[start : start + step]
        if len(x) % width:
            x = np.concatenate([x, np.zeros((-len(x) % width, channels), x.dtype)])
        # one matmul call per q-sample block, then one per chunk: the per-call
        # shapes, and so the bytes, do not depend on how many chunks a block holds
        x = x.astype(float).reshape(-1, width, channels)
        if release:  # the rows are copied
            release(start + step)
        z = np.matmul(feed, x)
        if len(z) % blocks:
            z = np.concatenate([z, np.zeros((-len(z) % blocks, n, channels))])
        y = np.matmul(chunk_map, z.reshape(-1, blocks * n, channels))
        for out in y:  # per chunk: kept outputs, then the end state
            out += start_map @ state
            state = out[blocks:]
        kept.append(y[:, :blocks].reshape(-1, channels)[: len(x)] + direct * x[:, 0])
    check_finite(state, rec.channel_names)
    return replace(rec, fs_hz=fs_out, samples=np.concatenate(kept))


def check_finite(values: np.ndarray, channel_names) -> None:
    """Raise PipelineError naming the first channel whose column of ``values``
    holds a NaN or infinity."""
    finite = np.isfinite(values)
    if not finite.all():  # the fast test; the per-channel reduction only names the channel
        name = channel_names[int(np.argmin(finite.all(axis=0)))]
        raise PipelineError(f"channel {name!r} holds non-finite samples")


def _page_release(samples: np.ndarray):
    """For an array over the whole of a read-only ``mmap.mmap``, a function
    that drops the pages of its first ``rows`` rows once another
    ``RELEASE_BYTES`` of them are read, or all of them at the end; else None."""
    mapping = samples
    while isinstance(mapping, np.ndarray):
        mapping = mapping.base
    if isinstance(mapping, memoryview):  # np.frombuffer's view of the map
        mapping = mapping.obj
    if not (isinstance(mapping, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED")
            and samples.flags.c_contiguous and samples.nbytes == len(mapping)):
        return None
    with memoryview(mapping) as view:
        if not view.readonly:  # a private mapping's changes would be lost
            return None
    released = 0

    def release(rows: int) -> None:
        nonlocal released
        stop = min(rows * samples.strides[0], len(mapping))
        if stop < len(mapping):
            stop -= stop % mmap.PAGESIZE
            if stop - released < RELEASE_BYTES:
                return
        mapping.madvise(mmap.MADV_DONTNEED, released, stop - released)
        released = stop

    return release


def _block_operators(sos: np.ndarray, q: int, blocks: int, width: int):
    """(G, F_start, F_increments, D) for filter_recording, G holding the
    first ``width`` columns of [A^(q-1) B ... B].

    The cascade of transposed direct-form II sections becomes one state
    space with two states per section, built section by section (one
    polynomial of degree 2*order would be ill-conditioned).  F = [F_start |
    F_increments] maps a chunk's start state and the G x_block of its
    ``blocks`` blocks to the kept output of each block and the end state.
    """
    n = 2 * len(sos)
    a, b, c, d = np.zeros((n, n)), np.zeros(n), np.zeros(n), 1.0
    for i, (b0, b1, b2, _, a1, a2) in enumerate(sos):  # (c, d): this section's input
        k = slice(2 * i, 2 * i + 2)
        into = np.array([b1 - a1 * b0, b2 - a2 * b0])
        a[k] += np.outer(into, c)
        a[k, k] += [[-a1, 1.0], [-a2, 0.0]]
        b[k] = into * d
        c, d = b0 * c, b0 * d
        c[2 * i] += 1.0
    g = np.empty((n, width))
    b = np.linalg.matrix_power(a, q - width) @ b
    for j in range(width - 1, -1, -1):
        g[:, j], b = b, a @ b
    advance = np.linalg.matrix_power(a, q)  # one block of q samples
    state = np.eye(n, n * (blocks + 1))  # as a map of (start state, increments)
    outputs = []
    for i in range(blocks):
        outputs.append(c @ state)
        state = advance @ state
        state[:, n * (i + 1) : n * (i + 2)] += np.eye(n)
    f = np.vstack(outputs + [state])
    return g, f[:, :n], f[:, n:], d


def _decimation_factor(fs_in: float, fs_out: float) -> int:
    """The integer q = fs_in / fs_out; anything else is a ValidationError."""
    if not fs_out > 0:
        raise ValidationError(f"output rate fs_out must be positive, got {fs_out}")
    factor = fs_in / fs_out  # inf for a tiny fs_out, which round() cannot take
    error = RateError if factor < np.inf else ValidationError  # no rate fits a tiny fs_out
    if not 1 <= factor < np.inf or abs(factor - round(factor)) > 1e-9:
        raise error(
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


def extract_epochs(rec: Recording, window_s: float) -> EpochSet:
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
    windows = np.lib.stride_tricks.sliding_window_view(rec.samples, length, axis=0)[start]
    rows = windows.reshape(len(flashes), rec.n_channels * length)  # E x C x L, channel-major
    return EpochSet(
        epochs=rows.astype(float, copy=False),
        labels=flashes.is_target.copy(),
        window_s=window_s,
        n_samples=length,
        n_channels=rec.n_channels,
    )
