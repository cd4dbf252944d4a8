"""Synthetic event-tagged EEG sessions.

Generates a multichannel recording for a stimulus schedule: AR(1)
background noise (optionally with a sinusoidal rhythm), plus template
waveforms added at target flash onsets.  A short target-to-target
interval attenuates the response through a piecewise-linear gain,
emulating the attentional-blink penalty that makes rapid double flashes
hard to detect; that is what separates the two paradigms downstream.

The background is rendered straight into one sample-major float64 array
in blocks of ``_ROWS`` rows: each block draws its innovations in the
order of one (samples, channels) draw, and the AR(1) filter state carries
from block to block, so the samples are the bytes of one whole-array draw
and filter.  The rhythm is added in a second pass over the same blocks,
after the noise, so its phases are drawn where they always were.  Each
response product (template kernel times gain, outer topography) is built
once per distinct gain and added where it lands.

All amplitudes are in microvolts.  None of the magnitudes are measured
values; they exist so the pipeline is testable without human recordings.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import DEFAULT_CHANNELS, Recording
from .errors import ValidationError
from .scheduler import Schedule

_ROWS = 4096  # background rows per block: 256 KiB at 8 channels, so a block stays in cache


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
    float32 (the on-disk sample format).
    """
    if not schedule.events:
        raise ValidationError("schedule has no events")
    if not onset_jitter_s >= 0:
        raise ValidationError(f"onset_jitter_s must be >= 0, got {onset_jitter_s}")
    if templates is None:
        templates = default_templates()
    if noise is None:
        noise = NoiseModel()
    channels = DEFAULT_CHANNELS
    for tpl in templates + (visual_templates or []):
        if np.asarray(tpl.topography).shape != (len(channels),):
            raise ValidationError(
                f"template {tpl.name!r} topography must have {len(channels)} entries"
            )

    rng = np.random.default_rng(seed)
    flashes = schedule.events[schedule.events.is_flash]
    n_samples = int(round((schedule.events.onset_s.max() + tail_s) * fs_hz))
    n_ch = len(channels)

    data = np.zeros((n_samples, n_ch))
    if noise.background_sigma_uv > 0:
        from scipy import signal  # here, so that train and eval import no scipy

        # row blocks in the order of one (n_samples, n_ch) draw, the AR(1)
        # state carried from each block to the next
        block = np.empty((min(_ROWS, n_samples), n_ch))
        state = np.zeros((1, n_ch))
        for r0 in range(0, n_samples, _ROWS):
            innovations = block[: min(_ROWS, n_samples - r0)]
            rng.standard_normal(out=innovations)
            innovations *= noise.background_sigma_uv
            data[r0 : r0 + len(innovations)], state = signal.lfilter(
                [1.0], [1.0, -noise.ar_coeff], innovations, axis=0, zi=state
            )
    if noise.alpha_amp_uv > 0:
        phases = rng.uniform(0.0, 2 * np.pi, n_ch)
        for r0 in range(0, n_samples, _ROWS):
            t = np.arange(r0, min(r0 + _ROWS, n_samples))[:, None] / fs_hz
            data[r0 : r0 + len(t)] += noise.alpha_amp_uv * np.sin(
                2 * np.pi * noise.alpha_freq_hz * t + phases
            )

    # one jitter draw per flash regardless of settings keeps the RNG
    # stream independent of the blink/template configuration
    jitters = rng.uniform(-onset_jitter_s, onset_jitter_s, len(flashes))
    starts = np.rint((flashes.onset_s + jitters) * fs_hz).astype(int)
    kernels = [tpl.waveform(fs_hz) for tpl in templates]
    ttis = np.diff(flashes.onset_s[flashes.is_target]).tolist()
    gains = iter([1.0] + [blink.gain(tti) if blink is not None else 1.0 for tti in ttis])

    responses = {}  # gain -> each template's response at that gain, built once
    visual = [np.outer(tpl.waveform(fs_hz), tpl.topography) for tpl in visual_templates or []]
    for start, is_target in zip(starts.tolist(), flashes.is_target.tolist()):
        if is_target:
            gain = next(gains)
            if gain not in responses:
                responses[gain] = [
                    np.outer(kernel * gain, tpl.topography) for tpl, kernel in zip(templates, kernels)
                ]
            for response in responses[gain]:
                _add_response(data, start, response)
        for response in visual:
            _add_response(data, start, response)

    return Recording(
        fs_hz=fs_hz,
        samples=data.astype(np.float32),
        channel_names=channels,
        events=schedule.events,
    )


def _add_response(data, start, response):
    stop = min(start + len(response), data.shape[0])
    if start >= stop or start < 0:
        return
    data[start:stop] += response[: stop - start]
