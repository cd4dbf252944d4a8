import numpy as np
import pytest

from p300speller import synth
from p300speller.dsp import DEFAULT_CHANNELS
from p300speller.patterns import make_constrained_pattern
from p300speller.pipeline import PipelineConfig, evaluate, preprocess
from p300speller.scheduler import make_xp300_schedule
from p300speller.synth import (
    BlinkModel,
    ErpTemplate,
    NoiseModel,
    default_templates,
    synthesize_session,
)

ISI = 0.133


def quiet_noise():
    return NoiseModel(background_sigma_uv=0.0)


@pytest.fixture(scope="module")
def schedule():
    pat = make_constrained_pattern(6)
    return make_xp300_schedule(pat, reps=3, isi_s=ISI, targets=[(1, 1), (4, 4)], seed=0)


class TestTemplates:
    def test_latencies(self):
        by_name = {t.name: t for t in default_templates()}
        assert by_name["P300"].peak_latency_s == 0.30
        assert by_name["N200"].peak_latency_s == 0.20

    def test_p300_topography_ordering(self):
        topo = {t.name: t.topography for t in default_templates()}["P300"]
        gains = dict(zip(DEFAULT_CHANNELS, topo))
        assert gains["FCz"] == gains["Pz"] > gains["P3"] == gains["P4"]
        assert gains["P3"] > gains["O1"] == gains["O2"]

    def test_n200_occipital_max(self):
        topo = {t.name: t for t in default_templates()}["N200"].topography
        gains = dict(zip(DEFAULT_CHANNELS, np.abs(topo)))
        occipital = max(gains["O1"], gains["O2"])
        assert all(occipital >= gains[ch] for ch in DEFAULT_CHANNELS)

    def test_signs(self):
        by_name = {t.name: t for t in default_templates()}
        assert by_name["P300"].amplitude_uv > 0
        assert by_name["N200"].amplitude_uv < 0


class TestBlink:
    def test_piecewise_gain(self):
        blink = BlinkModel(tti_floor_s=0.2, tti_ceiling_s=0.5, floor_gain=0.3)
        assert blink.gain(0.1) == 0.3
        assert blink.gain(0.2) == 0.3
        assert blink.gain(0.5) == 1.0
        assert blink.gain(2.0) == 1.0
        assert blink.gain(0.35) == pytest.approx(0.65)


class TestSynthesize:
    def test_noise_free_targets_equal_templates(self, schedule):
        rec = synthesize_session(schedule, noise=quiet_noise(), blink=None, seed=0)
        kernels = [(t.waveform(rec.fs_hz), t.topography) for t in default_templates()]
        expected = np.zeros(rec.samples.shape)
        for onset, is_target in zip(schedule.events.onset_s, schedule.events.is_target):
            if not is_target:
                continue
            start = rec.sample_index(onset)
            for kernel, topo in kernels:
                expected[start : start + len(kernel)] += np.outer(kernel, topo)
        assert np.array_equal(rec.samples, expected.astype(np.float32))

    def test_nontarget_flashes_silent_by_default(self, schedule):
        # noise-free signal is zero everywhere except after target onsets
        rec = synthesize_session(schedule, noise=quiet_noise(), blink=None, seed=0)
        mask = np.zeros(rec.n_samples, dtype=bool)
        span = max(len(t.waveform(rec.fs_hz)) for t in default_templates())
        for onset, is_target in zip(schedule.events.onset_s, schedule.events.is_target):
            if is_target:
                idx = rec.sample_index(onset)
                mask[idx : idx + span] = True
        assert not rec.samples[~mask].any()
        assert rec.samples[mask].any()

    def test_blink_attenuation_scales_second_response(self):
        # two target flashes 0.266 s apart; expected gain 0.454 for the second
        pat = make_constrained_pattern(6)
        sched = make_xp300_schedule(pat, reps=1, isi_s=ISI, targets=[(1, 1)], seed=11)
        targets = sched.events.onset_s[sched.events.is_target]
        gap = targets[1] - targets[0]
        blink = BlinkModel()
        rec_blink = synthesize_session(sched, noise=quiet_noise(), blink=blink, seed=0)
        rec_free = synthesize_session(sched, noise=quiet_noise(), blink=None, seed=0)
        fs = rec_blink.fs_hz
        start = rec_blink.sample_index(targets[1])
        span = len(default_templates()[0].waveform(fs))
        ratio = (
            rec_blink.samples[start : start + span]
            / np.where(rec_free.samples[start : start + span] == 0, np.nan,
                       rec_free.samples[start : start + span])
        )
        expected = blink.gain(gap)
        assert np.nanmax(np.abs(ratio - expected)) < 1e-5

    def test_floor_gain_at_200ms_gap(self):
        # hand-built schedule: two target flashes exactly 0.2 s apart
        from p300speller.scheduler import Events, Schedule

        pat = make_constrained_pattern(6)
        events = Events(pat, onset_s=[0.5, 0.7], slot=[0, 1], char_index=[0, 0],
                        repetition=[0, 0], block=[0, 1], flash_id=[1, 1], is_target=[True, True])
        sched = Schedule(paradigm="xp300", isi_s=0.2, flash_duration_s=0.1,
                         reps=1, targets=[(1, 1)], events=events)
        tpl = [ErpTemplate("P300", 0.3, 0.1, 10.0, np.ones(8))]
        rec = synthesize_session(sched, templates=tpl, noise=quiet_noise(),
                                 blink=BlinkModel(floor_gain=0.3), seed=0)
        kernel = tpl[0].waveform(rec.fs_hz)
        first = rec.samples[rec.sample_index(0.5) : rec.sample_index(0.5) + 200, 0]
        second = rec.samples[rec.sample_index(0.7) : rec.sample_index(0.7) + len(kernel), 0]
        assert np.allclose(first, kernel[:200].astype(np.float32))
        # second response starts 0.2 s in, overlapping the first kernel's tail
        overlap = np.zeros(len(kernel))
        overlap[: len(kernel) - 400] = kernel[400:]
        expected = (overlap + 0.3 * kernel).astype(np.float32)
        assert np.allclose(second, expected, atol=1e-5)

    def test_linearity_in_amplitude(self, schedule):
        rec1 = synthesize_session(schedule, templates=default_templates(1.0),
                                  noise=quiet_noise(), blink=None, seed=0)
        rec2 = synthesize_session(schedule, templates=default_templates(2.0),
                                  noise=quiet_noise(), blink=None, seed=0)
        assert np.allclose(rec2.samples, 2.0 * rec1.samples)

    def test_determinism(self, schedule):
        a = synthesize_session(schedule, seed=99)
        b = synthesize_session(schedule, seed=99)
        assert np.array_equal(a.samples, b.samples)
        c = synthesize_session(schedule, seed=100)
        assert not np.array_equal(a.samples, c.samples)

    def test_events_keep_true_times_under_jitter(self, schedule):
        rec = synthesize_session(schedule, onset_jitter_s=0.004, seed=5)
        assert rec.events.onset_s.tolist() == schedule.events.onset_s.tolist()

    def test_output_dtype_and_channels(self, schedule):
        rec = synthesize_session(schedule, seed=1)
        assert rec.samples.dtype == np.float32
        assert rec.channel_names == DEFAULT_CHANNELS

    def test_visual_templates_on_all_flashes(self, schedule):
        bump = [ErpTemplate("VEP", 0.1, 0.05, 1.0, np.ones(8))]
        rec = synthesize_session(schedule, templates=default_templates(0.0),
                                 noise=quiet_noise(), blink=None,
                                 visual_templates=bump, seed=0)
        kernel = bump[0].waveform(rec.fs_hz)
        expected = np.zeros(rec.samples.shape)
        flashes = schedule.events[schedule.events.is_flash]
        for onset in flashes.onset_s:  # every flash, target or not
            start = rec.sample_index(onset)
            expected[start : start + len(kernel)] += np.outer(kernel, np.ones(8))
        assert np.array_equal(rec.samples, expected.astype(np.float32))

    def test_ar_coefficient_validation(self):
        with pytest.raises(Exception, match="stationarity"):
            NoiseModel(ar_coeff=1.0)

    def test_xp300_attenuation_never_below_two_isi_gain(self):
        # the split paradigm's >= 2 ISI guarantee bounds the worst-case gain
        blink = BlinkModel()
        pat = make_constrained_pattern(6)
        floor = blink.gain(2 * ISI)
        for seed in range(10):
            sched = make_xp300_schedule(pat, reps=20, isi_s=ISI, targets=[(5, 2)], seed=seed)
            prev = None
            for onset, is_target in zip(sched.events.onset_s, sched.events.is_target):
                if not is_target:
                    continue
                if prev is not None:
                    # 1e-9 absorbs float jitter in onset differences
                    assert blink.gain(onset - prev) >= floor - 1e-9
                prev = onset


class TestChanceLevel:
    def test_zero_amplitude_pipeline_auc_near_half(self):
        # >= 2000 epochs end to end: amplitude zero must give chance AUC
        pat = make_constrained_pattern(6)
        targets = [(i % 6 + 1, (i * 2) % 6 + 1) for i in range(9)]
        cfg = PipelineConfig()
        sched_a = make_xp300_schedule(pat, reps=10, isi_s=ISI, targets=targets, seed=1)
        sched_b = make_xp300_schedule(pat, reps=10, isi_s=ISI, targets=targets, seed=2)
        rec_a = synthesize_session(sched_a, templates=default_templates(0.0), seed=10)
        rec_b = synthesize_session(sched_b, templates=default_templates(0.0), seed=20)
        assert sched_b.events.is_flash.sum() >= 1000
        low_a, low_b = preprocess(rec_a, cfg), preprocess(rec_b, cfg)
        result = evaluate(low_a, low_b, sched_b, cfg)
        swapped = evaluate(low_b, low_a, sched_a, cfg)
        total_epochs = sched_a.events.is_flash.sum() + sched_b.events.is_flash.sum()
        assert total_epochs >= 2000
        mean_auc = (result.auc + swapped.auc) / 2
        assert mean_auc == pytest.approx(0.5, abs=0.05)


def whole_array_render(schedule, noise, fs_hz, seed, onset_jitter_s=0.0, visual_templates=(),
                       tail_s=1.0):
    """The former renderer: one (n, C) draw, the AR(1) filter along each
    channel of its C x T copy, an ``np.outer`` per response added into the
    transposed (F-ordered) result, then the cast to C-ordered float32."""
    from scipy import signal

    rng = np.random.default_rng(seed)
    flashes = schedule.events[schedule.events.is_flash]
    n = int(round((schedule.events.onset_s.max() + tail_s) * fs_hz))
    n_ch = len(DEFAULT_CHANNELS)
    if noise.background_sigma_uv > 0:
        innovations = rng.standard_normal((n, n_ch)).T.copy()
        innovations *= noise.background_sigma_uv
        data = signal.lfilter([1.0], [1.0, -noise.ar_coeff], innovations, axis=1).T
    else:
        data = np.zeros((n, n_ch))
    if noise.alpha_amp_uv > 0:
        phases = rng.uniform(0.0, 2 * np.pi, n_ch)
        t = np.arange(n)[:, None] / fs_hz
        data += noise.alpha_amp_uv * np.sin(2 * np.pi * noise.alpha_freq_hz * t + phases)
    jitters = rng.uniform(-onset_jitter_s, onset_jitter_s, len(flashes))
    starts = np.rint((flashes.onset_s + jitters) * fs_hz).astype(int)
    blink = BlinkModel()
    ttis = np.diff(flashes.onset_s[flashes.is_target]).tolist()
    gains = iter([1.0] + [blink.gain(tti) for tti in ttis])

    def add(start, kernel, topography):
        stop = min(start + len(kernel), n)
        if 0 <= start < stop:
            data[start:stop] += np.outer(kernel[: stop - start], topography)

    for start, is_target in zip(starts.tolist(), flashes.is_target.tolist()):
        if is_target:
            gain = next(gains)
            for tpl in default_templates():
                add(start, tpl.waveform(fs_hz) * gain, tpl.topography)
        for tpl in visual_templates:
            add(start, tpl.waveform(fs_hz), tpl.topography)
    return data.astype(np.float32, order="C")


class TestBackground:
    """The row-block renderer gives the bytes of the former whole-array one."""

    @pytest.mark.parametrize("fs_hz, alpha_amp_uv, case", [
        pytest.param(250.0, 0.0, None, id="250.0-0.0"),
        pytest.param(250.0, 2.0, None, id="250.0-2.0"),
        pytest.param(2000.0, 2.0, None, id="2000.0-2.0"),
        pytest.param(2000.0, 2.0, "jitter-visual", id="jitter-visual"),
        pytest.param(2000.0, 2.0, "sigma-0", id="sigma-0"),
        pytest.param(250.0, 2.0, "below-one-block", id="below-one-block"),
        pytest.param(2000.0, 0.0, "whole-blocks", id="whole-blocks"),
        pytest.param(2000.0, 0.0, "whole-blocks-plus-one", id="whole-blocks-plus-one"),
        pytest.param(2000.0, 2.0, "whole-blocks", id="whole-blocks-alpha"),
        pytest.param(2000.0, 2.0, "whole-blocks-plus-one", id="whole-blocks-plus-one-alpha"),
    ])
    def test_same_bytes_as_time_major_filter(self, schedule, fs_hz, alpha_amp_uv, case):
        noise = NoiseModel(background_sigma_uv=0.0 if case == "sigma-0" else 1.5, ar_coeff=0.9,
                           alpha_amp_uv=alpha_amp_uv)
        kwargs = {}
        if case == "jitter-visual":
            kwargs = {"onset_jitter_s": 0.02, "visual_templates": default_templates(0.5)}
        if case in ("whole-blocks", "whole-blocks-plus-one"):
            last = schedule.events.onset_s.max()
            n = (int(last * fs_hz) // synth._ROWS + 2) * synth._ROWS + (case != "whole-blocks")
            kwargs = {"tail_s": n / fs_hz - last}
        rec = synthesize_session(schedule, noise=noise, blink=BlinkModel(), fs_hz=fs_hz,
                                 seed=11, **kwargs)
        assert rec.samples.flags.c_contiguous and rec.samples.dtype == np.float32
        if "tail_s" in kwargs:
            assert rec.n_samples == n and n // synth._ROWS >= 3
        if case == "below-one-block":
            assert rec.n_samples < synth._ROWS
        former = whole_array_render(schedule, noise, fs_hz, seed=11, **kwargs)
        assert rec.samples.tobytes() == former.tobytes()

    def test_peak_memory_is_the_two_signal_buffers(self):
        """On the default xp300 session, with the alpha rhythm on, the renderer
        holds the float64 signal, its float32 copy and no more than 2 MiB besides."""
        import tracemalloc

        import scipy.signal  # noqa: F401  (imported lazily by the renderer; not its memory)

        from p300speller.cli import DEFAULT_TARGET_TEXT
        from p300speller.patterns import default_matrix

        matrix = default_matrix(6)
        sched = make_xp300_schedule(make_constrained_pattern(6), reps=10, isi_s=ISI,
                                    targets=[matrix.locate(ch) for ch in DEFAULT_TARGET_TEXT],
                                    seed=0)
        tracemalloc.start()
        try:
            rec = synthesize_session(sched, noise=NoiseModel(alpha_amp_uv=2.0),
                                     blink=BlinkModel(), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, n_ch = rec.samples.shape
        assert n > 700_000
        assert peak <= n * n_ch * 12 + 2 * 2**20
