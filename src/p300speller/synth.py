"""Synthetic event-tagged EEG sessions.

Generates a multichannel recording for a stimulus schedule: AR(1)
background noise (optionally with a sinusoidal rhythm), plus template
waveforms added at target flash onsets.  A short target-to-target
interval attenuates the response through a piecewise-linear gain,
emulating the attentional-blink penalty that makes rapid double flashes
hard to detect; that is what separates the two paradigms downstream.

The signal is rendered in blocks of ``_ROWS`` rows, each whole before it
is cast to float32, so no whole-signal float64 array is ever held.  Each
float64 block is cast either into its rows of one in-memory result or
into one reused float32 block that is written to a file (``simulate``
streams to ``signal.f32.tmp``), and dropped before the next is made, so
the renderer itself holds the ring, one block and that float32 block
whatever the session's length; both take the same blocks, so their bytes
are the same.  A block gets its AR(1) noise, then the rhythm, then every
response that overlaps it, in flash order: each sample sees the float64
operations of a whole-array render in the same order.  A worker thread
draws the noise, block by block in order, into a ring of ``_RING`` = 2
float64 block buffers.  The calling thread queues the first draws, then
builds the response table, waits for block k's draw, runs the AR(1)
filter over it (the noise scale as the numerator, the filter state
carried from block to block), hands the buffer back for block k + 2's
draw and stores or writes the block.  While block k is still being
drawn it takes steps of the caller's spare work (``simulate`` writes
``events.jsonl`` a block of lines per step), one at a time, and none
once the block is drawn.  The generator makes
every noise draw in block order, so the innovations are those of one
(samples, channels) draw.  Drawing, filtering and writing release the
GIL, so on two cores they overlap.  The rhythm's phases and the onset jitters come from a
child stream (``Generator.spawn``), which leaves the noise stream as it
is.  Each response product (template kernel times gain, outer
topography) is built once per distinct gain.

All amplitudes are in microvolts.  None of the magnitudes are measured
values; they exist so the pipeline is testable without human recordings.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dsp import DEFAULT_CHANNELS, Recording
from .errors import ValidationError
from .scheduler import Schedule

# background rows per block, 1 MiB at 8 channels: each block costs a draw call,
# an lfilter call and a wait on the worker, and 16,384 rows keep those to 46 in
# a default xp300 session (4,096 rows took 183 and were no faster)
_ROWS = 16384
# float64 block buffers the worker draws into, so it runs at most this many
# blocks ahead of the block being rendered: two let it draw block k + 1 while
# block k is filtered (a third held another block and saved no measurable time)
_RING = 2
# the most samples x channels a session renders: 2**31 float32 values, an
# 8 GiB signal.f32, 360 times the 5.97 million of the default protocol (as
# scheduler.MAX_EVENTS is 375 times its events); the signal and its file grow
# with fs_hz, which nothing else bounds
MAX_SIGNAL_VALUES = 2**31


@dataclass
class ErpTemplate:
    """Gaussian response waveform with a per-channel gain vector."""

    name: str
    peak_latency_s: float
    width_s: float  # full width at half maximum
    amplitude_uv: float
    topography: np.ndarray

    def waveform(self, fs_hz: float) -> np.ndarray:
        """Sampled kernel from onset to peak + 4 sigma."""
        sigma = self.width_s / 2.3548200450309493  # FWHM -> sigma
        duration = self.peak_latency_s + 4 * sigma
        t = np.arange(int(round(duration * fs_hz))) / fs_hz
        return self.amplitude_uv * np.exp(-0.5 * ((t - self.peak_latency_s) / sigma) ** 2)


@dataclass
class NoiseModel:
    """AR(1) background noise, optionally with a sinusoidal rhythm."""

    background_sigma_uv: float = 1.0  # innovation scale
    ar_coeff: float = 0.95
    alpha_amp_uv: float = 0.0
    alpha_freq_hz: float = 10.0

    def __post_init__(self):
        if not 0 <= self.ar_coeff < 1:
            raise ValidationError("ar_coeff must lie in [0, 1) for stationarity")
        if self.background_sigma_uv < 0:
            raise ValidationError(
                f"background_sigma_uv must be >= 0, got {self.background_sigma_uv}"
            )
        if self.alpha_amp_uv < 0:
            raise ValidationError(f"alpha_amp_uv must be >= 0, got {self.alpha_amp_uv}")


@dataclass
class BlinkModel:
    """Attenuation of a response that follows a recent target flash.

    gain(tti) is ``floor_gain`` at or below the floor, 1 at or above the
    ceiling, linear in between.
    """

    tti_floor_s: float = 0.2
    tti_ceiling_s: float = 0.5
    floor_gain: float = 0.3

    def __post_init__(self):
        if self.tti_floor_s > self.tti_ceiling_s:
            raise ValidationError("blink floor must not exceed the ceiling")
        if not 0 <= self.floor_gain <= 1:
            raise ValidationError("floor_gain must lie in [0, 1]")

    def gain(self, tti_s: float) -> float:
        if tti_s >= self.tti_ceiling_s:
            return 1.0
        if tti_s <= self.tti_floor_s:
            return self.floor_gain
        frac = (tti_s - self.tti_floor_s) / (self.tti_ceiling_s - self.tti_floor_s)
        return self.floor_gain + frac * (1.0 - self.floor_gain)


def default_templates(scale: float = 1.0) -> list[ErpTemplate]:
    """Late positive + early negative visual components.

    Topographies follow the usual spatial story: the late positivity is
    strongest fronto-centrally and parietally, the early negativity over
    the occipital channels.  Vectors are ordered like DEFAULT_CHANNELS
    (O1, O2, P3, P4, P7, P8, Pz, FCz).
    """
    return [
        ErpTemplate(
            name="P300",
            peak_latency_s=0.30,
            width_s=0.10,
            amplitude_uv=8.0 * scale,
            topography=np.array([0.3, 0.3, 0.7, 0.7, 0.5, 0.5, 1.0, 1.0]),
        ),
        ErpTemplate(
            name="N200",
            peak_latency_s=0.20,
            width_s=0.06,
            amplitude_uv=-4.0 * scale,
            topography=np.array([1.0, 1.0, 0.4, 0.4, 0.6, 0.6, 0.3, 0.2]),
        ),
    ]


def synthesize_session(
    schedule: Schedule,
    templates: list[ErpTemplate] | None = None,
    noise: NoiseModel | None = None,
    blink: BlinkModel | None = None,
    fs_hz: float = 2000.0,
    onset_jitter_s: float = 0.0,
    seed: int | None = None,
    visual_templates: list[ErpTemplate] | None = None,
    tail_s: float = 1.0,
    out=None,
    spare=(),
) -> Recording:
    """Render a schedule into a synthetic recording.

    Target flashes add every template, scaled by the blink gain of the
    time elapsed since the previous target flash (``blink=None`` disables
    attenuation).  Non-target flashes add nothing unless
    ``visual_templates`` is given, in which case those are added at every
    flash, unattenuated.  ``onset_jitter_s`` shifts each response onset by
    a uniform amount in [-j, +j]; the embedded events keep the true
    schedule times.

    The result is bit-identical for identical inputs and seed, stored as
    float32 (the on-disk sample format).  Without ``out`` it is the only
    whole-signal array held: the rest is a few float64 blocks (see the
    module docstring).  With ``out``, a file path, each block is written
    there as it is finished, in ``signal.f32``'s format, and the result's
    samples map that file read-only.  ``spare``: an iterable of other work,
    whose next step is taken only while the noise block the renderer needs
    is still being drawn; the steps left at the end are the caller's.
    """
    if not schedule.events:
        raise ValidationError("schedule has no events")
    if not onset_jitter_s >= 0:
        raise ValidationError(f"onset_jitter_s must be >= 0, got {onset_jitter_s}")
    if templates is None:
        templates = default_templates()
    if noise is None:
        noise = NoiseModel()
    channels, n_ch = DEFAULT_CHANNELS, len(DEFAULT_CHANNELS)
    for tpl in templates + (visual_templates or []):
        if np.asarray(tpl.topography).shape != (n_ch,):
            raise ValidationError(f"template {tpl.name!r} topography must have {n_ch} entries")
    seconds = float(schedule.events.onset_s.max()) + tail_s
    if seconds * fs_hz * n_ch > MAX_SIGNAL_VALUES:  # before the kernels, the ring or the file
        raise ValidationError(f"fs_hz {fs_hz} Hz and a {seconds:.1f} s session make "
                              f"{seconds * fs_hz:.4g} samples x {n_ch} channels, more than the "
                              f"{MAX_SIGNAL_VALUES} values allowed")

    rng = np.random.default_rng(seed)
    later = rng.spawn(1)[0]  # the phases and jitters, so that the noise is rng's whole stream
    flashes = schedule.events[schedule.events.is_flash]
    n_samples = int(round(seconds * fs_hz))
    phases = later.uniform(0.0, 2 * np.pi, n_ch) if noise.alpha_amp_uv > 0 else None
    # one jitter draw per flash regardless of settings keeps the RNG
    # stream independent of the blink/template configuration
    jitters = later.uniform(-onset_jitter_s, onset_jitter_s, len(flashes))
    responses = partial(_responses_by_block, flashes, jitters, templates, blink,
                        visual_templates, fs_hz, n_samples)
    render = partial(_render, noise, phases, responses, fs_hz, n_samples, n_ch, rng, spare)
    if out is None:
        samples = np.empty((n_samples, n_ch), dtype=np.float32)

        def store(r0, block):  # the float32 cast, straight into the result's rows
            samples[r0 : r0 + len(block)] = block

        render(store)
    else:
        cast = np.empty((min(_ROWS, n_samples), n_ch), dtype="<f4")  # one block, reused
        with open(out, "wb") as file:

            def store(r0, block):
                cast[: len(block)] = block
                file.write(cast[: len(block)])

            render(store)
        samples = np.memmap(out, dtype="<f4", mode="r", shape=(n_samples, n_ch))
    return Recording(fs_hz=fs_hz, samples=samples, channel_names=channels, events=schedule.events)


def _render(noise, phases, responses, fs_hz, n_samples, n_ch, rng, spare, store):
    """Call ``store(first row, float64 block)`` for each ``_ROWS`` block, in
    order; the block is dropped before the next one is made.  ``responses()``
    gives ``_responses_by_block``'s lists once the first draws are queued, and
    a step of ``spare`` is taken whenever the next block's draw is not done."""
    blocks = [(r0, min(r0 + _ROWS, n_samples)) for r0 in range(0, n_samples, _ROWS)]
    sigma, alpha = noise.background_sigma_uv, noise.alpha_amp_uv
    ring = [np.empty((min(_ROWS, n_samples), n_ch)) for _ in blocks[:_RING]] if sigma > 0 else []

    # here, so that train and eval import neither
    from concurrent.futures import ThreadPoolExecutor

    from scipy import signal

    with ThreadPoolExecutor(1) as worker:

        def draw(k):
            r0, r1 = blocks[k]
            return worker.submit(rng.standard_normal, out=ring[k % _RING][: r1 - r0])

        draws = [draw(k) for k in range(len(ring))]
        by_block = responses()
        spare = iter(spare)
        state = np.zeros((1, n_ch))
        for k, (r0, r1) in enumerate(blocks):
            if sigma > 0:
                # zip polls done() first, so no step is taken once the block is drawn
                for _ in zip(iter(draws[k].done, True), spare):
                    pass
                draws[k].result()
                # lfilter writes a new array, so the buffer takes block k + _RING's draw now
                block, state = signal.lfilter(
                    [sigma], [1.0, -noise.ar_coeff], ring[k % _RING][: r1 - r0], axis=0, zi=state
                )
                if k + _RING < len(blocks):
                    draws.append(draw(k + _RING))
            else:
                block = np.zeros((r1 - r0, n_ch))
            if alpha > 0:
                t = np.arange(r0, r1)[:, None] / fs_hz
                block += alpha * np.sin(2 * np.pi * noise.alpha_freq_hz * t + phases)
            for start, response in by_block[k]:
                a, b = max(start, r0), min(start + len(response), r1)
                block[a - r0 : b - r0] += response[a - start : b - start]
            store(r0, block)
            del block


def _responses_by_block(flashes, jitters, templates, blink, visual_templates, fs_hz, n_samples):
    """Per ``_ROWS`` block, the (start sample, response) pairs that overlap
    it, in flash order; a response that starts outside the signal is left out."""
    starts = np.rint((flashes.onset_s + jitters) * fs_hz).astype(int)
    kernels = [tpl.waveform(fs_hz) for tpl in templates]
    ttis = np.diff(flashes.onset_s[flashes.is_target]).tolist()
    gains = iter([1.0] + [blink.gain(tti) if blink is not None else 1.0 for tti in ttis])

    responses = {}  # gain -> each template's response at that gain, built once
    visual = [np.outer(tpl.waveform(fs_hz), tpl.topography) for tpl in visual_templates or []]
    by_block = [[] for _ in range(0, n_samples, _ROWS)]
    adding = slice(None) if visual else flashes.is_target  # the flashes that add a response
    for start, is_target in zip(starts[adding].tolist(), flashes.is_target[adding].tolist()):
        added = visual
        if is_target:
            gain = next(gains)
            if gain not in responses:
                responses[gain] = [
                    np.outer(kernel * gain, tpl.topography) for tpl, kernel in zip(templates, kernels)
                ]
            added = responses[gain] + visual
        for response in added:
            stop = min(start + len(response), n_samples)
            if 0 <= start < stop:
                for k in range(start // _ROWS, (stop - 1) // _ROWS + 1):
                    by_block[k].append((start, response))
    return by_block
