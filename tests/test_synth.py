import itertools
import json
import sys
import threading
from functools import partial

import numpy as np
import pytest

from p300speller import session_io, synth
from p300speller.cli import DEFAULT_TARGET_TEXT, main
from p300speller.dsp import DEFAULT_CHANNELS
from p300speller.errors import ValidationError
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

    def test_no_samples_rejected(self):
        # one flash at 0 s and no tail: no rows to draw, and an empty recording
        from p300speller.errors import ValidationError
        from p300speller.scheduler import Events, Schedule

        events = Events(make_constrained_pattern(6), onset_s=[0.0], slot=[0], char_index=[0],
                        repetition=[0], block=[0], flash_id=[1], is_target=[True])
        sched = Schedule(paradigm="xp300", isi_s=0.2, flash_duration_s=0.1, reps=1,
                         targets=[(1, 1)], events=events)
        with pytest.raises(ValidationError, match="non-empty"):
            synthesize_session(sched, seed=0, tail_s=0.0)

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


class Draws:
    """A generator whose ``failing``-th standard_normal call raises, and that
    hands each call's buffer to ``record``; any other call goes to the
    generator itself."""

    def __init__(self, seed, failing=None):
        self.rng, self.failing, self.draws = np.random.Generator(np.random.PCG64(seed)), failing, 0
        self.record = lambda out: None

    def standard_normal(self, out):
        self.draws += 1
        self.record(out)
        if self.draws == self.failing:
            raise MemoryError("draw failed")
        return self.rng.standard_normal(out=out)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def polled_executor(polls):
    """A ``ThreadPoolExecutor`` whose futures answer ``done()`` with False for
    their first ``polls`` calls and True after, whatever the draw's state."""
    from concurrent.futures import ThreadPoolExecutor

    class Polled(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            answers = itertools.repeat(False, polls)
            future.done = lambda: next(answers, True)
            return future

    return Polled


def whole_array_render(schedule, noise, fs_hz, seed, onset_jitter_s=0.0, visual_templates=(),
                       tail_s=1.0):
    """The former renderer: one (n, C) draw, the AR(1) filter along each
    channel of its C x T copy, an ``np.outer`` per response added into the
    transposed (F-ordered) result, then the cast to C-ordered float32.  The
    rhythm's phases and the jitters come from the generator's spawned child."""
    from scipy import signal

    rng = np.random.default_rng(seed)
    later = rng.spawn(1)[0]
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
        phases = later.uniform(0.0, 2 * np.pi, n_ch)
        t = np.arange(n)[:, None] / fs_hz
        data += noise.alpha_amp_uv * np.sin(2 * np.pi * noise.alpha_freq_hz * t + phases)
    jitters = later.uniform(-onset_jitter_s, onset_jitter_s, len(flashes))
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
        # one block: a queue of one draw; two: both draws are queued before
        # the first block is filtered
        pytest.param(250.0, 0.0, "one-block", id="one-block"),
        pytest.param(250.0, 2.0, "two-blocks", id="two-blocks"),
    ])
    def test_same_bytes_as_time_major_filter(self, schedule, fs_hz, alpha_amp_uv, case):
        noise = NoiseModel(background_sigma_uv=0.0 if case == "sigma-0" else 1.5, ar_coeff=0.9,
                           alpha_amp_uv=alpha_amp_uv)
        kwargs = {}
        if case == "jitter-visual":
            kwargs = {"onset_jitter_s": 0.02, "visual_templates": default_templates(0.5)}
        last = schedule.events.onset_s.max()
        whole = (int(last * fs_hz) // synth._ROWS + 2) * synth._ROWS
        n = {"whole-blocks": whole, "whole-blocks-plus-one": whole + 1,
             "one-block": synth._ROWS, "two-blocks": 2 * synth._ROWS}.get(case)
        if n is not None:
            kwargs = {"tail_s": n / fs_hz - last}
        rec = synthesize_session(schedule, noise=noise, blink=BlinkModel(), fs_hz=fs_hz,
                                 seed=11, **kwargs)
        assert rec.samples.flags.c_contiguous and rec.samples.dtype == np.float32
        if n is not None:
            assert rec.n_samples == n
        if case in ("whole-blocks", "whole-blocks-plus-one"):
            assert n // synth._ROWS >= 3
        if case == "below-one-block":
            assert rec.n_samples < synth._ROWS
        former = whole_array_render(schedule, noise, fs_hz, seed=11, **kwargs)
        assert rec.samples.tobytes() == former.tobytes()

    def test_leaves_no_thread_running(self, schedule):
        """The drawing thread ends with the session."""
        before = threading.active_count()
        synthesize_session(schedule, seed=3)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["first", "middle", "ring-wrap", "second-ring-wrap",
                                         "last"])
    def test_failed_draw_leaves_no_thread_running(self, schedule, monkeypatch, failing):
        """A session of 2 * _RING + 2 blocks, the last of one row, whose first
        or a middle draw fails, or the first draw into a buffer of the ring
        taken back once or twice, or the last: the failure is raised in the
        caller, and the drawing thread ends."""
        blocks = 2 * synth._RING + 2
        draw = {"first": 1, "middle": 2, "ring-wrap": synth._RING + 1,
                "second-ring-wrap": 2 * synth._RING + 1, "last": blocks}[failing]
        monkeypatch.setattr(np.random, "default_rng", partial(Draws, failing=draw))
        before = threading.active_count()
        tail_s = ((blocks - 1) * synth._ROWS + 1) / 2000.0 - schedule.events.onset_s.max()
        with pytest.raises(MemoryError, match="draw failed"):
            synthesize_session(schedule, seed=3, tail_s=tail_s)
        assert threading.active_count() == before

    def test_ring_buffers_taken_in_turn(self, schedule, monkeypatch):
        """Over 2 * _RING + 1 blocks with the rhythm, jitter and visual
        responses on, the worker draws into _RING buffers in turn, each only
        after the block drawn there before is filtered, and the bytes are the
        whole-array render's."""
        from scipy import signal

        lfilter, filtered, draws = signal.lfilter, [], []

        def counting_lfilter(*args, **kwargs):
            result = lfilter(*args, **kwargs)
            filtered.append(True)
            return result

        def recording_rng(seed):
            rng = Draws(seed)
            rng.record = lambda out: draws.append((out.ctypes.data, len(filtered)))
            return rng

        monkeypatch.setattr(signal, "lfilter", counting_lfilter)
        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        n = 2 * synth._RING + 1
        kwargs = {"onset_jitter_s": 0.02, "visual_templates": default_templates(0.5),
                  "tail_s": n * synth._ROWS / 2000.0 - schedule.events.onset_s.max()}
        noise = NoiseModel(background_sigma_uv=1.5, ar_coeff=0.9, alpha_amp_uv=2.0)
        rec = synthesize_session(schedule, noise=noise, blink=BlinkModel(), seed=11, **kwargs)
        monkeypatch.undo()
        assert len(draws) == n
        for k, (address, blocks_filtered) in enumerate(draws):
            assert address == draws[k % synth._RING][0]
            assert blocks_filtered >= k - synth._RING + 1
        assert len({address for address, _ in draws}) == synth._RING
        former = whole_array_render(schedule, noise, 2000.0, seed=11, **kwargs)
        assert rec.samples.tobytes() == former.tobytes()

    def test_same_bytes_under_thread_stress(self, schedule):
        """Four sessions at once, each with its drawing thread, on a switch
        interval of a microsecond: a block filtered before its draw is done
        changes the bytes."""
        from concurrent.futures import ThreadPoolExecutor

        noise = NoiseModel(background_sigma_uv=1.5, ar_coeff=0.9)
        tail_s = 4 * synth._ROWS / 250.0 - schedule.events.onset_s.max()
        render = partial(synthesize_session, schedule, noise=noise, blink=BlinkModel(),
                         fs_hz=250.0, tail_s=tail_s)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                recs = [future.result(timeout=120)
                        for future in [pool.submit(render, seed=seed) for seed in range(4)]]
        finally:
            sys.setswitchinterval(interval)
        for seed, rec in enumerate(recs):
            assert rec.n_samples == 4 * synth._ROWS
            former = whole_array_render(schedule, noise, 250.0, seed=seed, tail_s=tail_s)
            assert rec.samples.tobytes() == former.tobytes()

    @pytest.mark.parametrize("polls", [0, 1, 3])
    def test_spare_steps_only_while_a_draw_is_pending(self, schedule, monkeypatch, polls):
        """Over four blocks whose draws report not done for ``polls`` polls
        each, the renderer takes ``polls`` steps of a ten-step spare work
        before it filters each block, none once a block is drawn, and leaves
        the steps it did not take to the caller (at three polls the spare work
        runs out in the last block).  The bytes are the whole-array render's."""
        import concurrent.futures

        from scipy import signal

        lfilter, filtered = signal.lfilter, []

        def counting_lfilter(*args, **kwargs):
            filtered.append(True)
            return lfilter(*args, **kwargs)

        monkeypatch.setattr(signal, "lfilter", counting_lfilter)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", polled_executor(polls))
        steps = []  # the blocks filtered when each step was taken
        spare = (steps.append(len(filtered)) for _ in range(10))
        noise = NoiseModel(background_sigma_uv=1.5, ar_coeff=0.9, alpha_amp_uv=2.0)
        tail_s = (3 * synth._ROWS + 1) / 2000.0 - schedule.events.onset_s.max()
        rec = synthesize_session(schedule, noise=noise, blink=BlinkModel(), seed=11,
                                 tail_s=tail_s, spare=spare)
        monkeypatch.undo()
        assert len(filtered) == 4
        assert steps == [k for k in range(4) for _ in range(polls)][:10]
        taken = len(steps)
        assert sum(1 for _ in spare) == 10 - taken
        former = whole_array_render(schedule, noise, 2000.0, seed=11, tail_s=tail_s)
        assert rec.samples.tobytes() == former.tobytes()

    def test_peak_memory_is_the_float32_signal_and_the_ring(self):
        """On the default xp300 session, the renderer holds the float32
        signal, the responses, the ring of two float64 block buffers, the
        filtered block and less than half a block besides (lfilter's state,
        the per-block response lists); the rhythm adds its phase and its sine,
        two blocks.  A third ring buffer, or a float32 block cast per pass
        (half a block), exceeds this."""
        import tracemalloc

        import scipy.signal  # noqa: F401  (imported lazily by the renderer; not its memory)

        from p300speller.patterns import default_matrix

        matrix = default_matrix(6)
        sched = make_xp300_schedule(make_constrained_pattern(6), reps=10, isi_s=ISI,
                                    targets=[matrix.locate(ch) for ch in DEFAULT_TARGET_TEXT],
                                    seed=0)
        flashes = sched.events[sched.events.is_flash]
        n = int(round((sched.events.onset_s.max() + 1.0) * 2000.0))
        by_block = synth._responses_by_block(flashes, np.zeros(len(flashes)), default_templates(),
                                             BlinkModel(), None, 2000.0, n)
        responses = {id(r): r.nbytes for pairs in by_block for _, r in pairs}
        block_bytes = synth._ROWS * len(DEFAULT_CHANNELS) * 8
        for alpha_amp_uv, rhythm_blocks in ((0.0, 0), (2.0, 2)):
            tracemalloc.start()
            try:
                rec = synthesize_session(sched, noise=NoiseModel(alpha_amp_uv=alpha_amp_uv),
                                         blink=BlinkModel(), seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rec.n_samples == n > 700_000
            held = rec.samples.nbytes + sum(responses.values()) + (2 + 1) * block_bytes
            assert peak < held + (rhythm_blocks + 0.5) * block_bytes, alpha_amp_uv


class TestStreamedSimulate:
    """``simulate`` writes each rendered block to ``signal.f32.tmp`` and renames
    it; the library renders into one array."""

    # 10 characters x 2 reps: five blocks at 2 kHz, more than the ring holds
    ARGV = ["--seed", "4", "--reps", "2", "--targets", "THEQUICKBR"]

    @pytest.mark.parametrize("args, synth_config", [
        (["--paradigm", "cp300"], {}),
        (["--paradigm", "xp300"], {}),
        ([], {"fs_hz": 250.0}),
        ([], {"alpha_amp_uv": 2.0}),
        ([], {"onset_jitter_s": 0.01}),
        ([], {"visual_response_scale": 0.5}),
    ], ids=["cp300", "xp300", "250hz", "rhythm", "jitter", "visual"])
    def test_streamed_signal_same_bytes_as_library(self, tmp_path, monkeypatch, capsys, args,
                                                   synth_config):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": synth_config}))
        argv = ["simulate", "--config", str(config)] + self.ARGV + args
        assert main(argv + ["--out", str(tmp_path / "streamed")]) == 0
        synthesize, write = synth.synthesize_session, session_io.write_session
        monkeypatch.setattr(synth, "synthesize_session",
                            lambda *a, out=None, spare=(), **kw: synthesize(*a, **kw))
        monkeypatch.setattr(session_io, "write_session",
                            lambda rec, path, meta=None, streamed=False: write(rec, path, meta))
        assert main(argv + ["--out", str(tmp_path / "whole")]) == 0
        for name in ("signal.f32", "events.jsonl", "manifest.json"):
            assert (tmp_path / "streamed" / name).read_bytes() == (
                tmp_path / "whole" / name).read_bytes(), name
        assert sorted(p.name for p in (tmp_path / "streamed").iterdir()) == [
            "events.jsonl", "manifest.json", "signal.f32"]

    @pytest.mark.parametrize("failing", [1, synth._RING + 1, 5, "step-in-render",
                                         "step-after-render"],
                             ids=["first", "ring-wrap", "last", "step-in-render",
                                  "step-after-render"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_failed_draw_leaves_no_trace(self, tmp_path, monkeypatch, capsys, failing, existing):
        """A draw that fails mid-render, or a step of the ``events.jsonl``
        writer that fails while a draw is pending or after the render, leaves
        no ``signal.f32.tmp`` or ``events.jsonl.tmp``, makes no ``--out``
        directory (nor its missing parents), and leaves a bundle already at
        ``--out`` as it was."""
        import concurrent.futures

        import scipy.signal  # noqa: F401  (its import draws from default_rng, which is patched)

        out = tmp_path / "new" / "bundle"
        if existing:  # another seed, so a rewrite would change its bytes
            assert main(["simulate", "--out", str(out), "--seed", "9"] + self.ARGV[2:]) == 0
            assert (out / "signal.f32").stat().st_size == pytest.approx(
                4.7 * synth._ROWS * len(DEFAULT_CHANNELS) * 4, rel=0.05)  # five blocks
        before = {p.name: p.read_bytes() for p in out.iterdir()} if existing else None
        if isinstance(failing, int):
            monkeypatch.setattr(np.random, "default_rng", partial(Draws, failing=failing))
            message = "draw failed"
        else:
            # every draw pending for a million polls, or none: so the writer
            # takes all its steps in the first block's wait, or after the render
            polls = 10**6 if failing == "step-in-render" else 0
            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", polled_executor(polls))
            synthesize, write_events = synth.synthesize_session, session_io.write_events
            rendered = []

            def render(*args, **kwargs):
                rec = synthesize(*args, **kwargs)
                rendered.append(True)
                return rec

            def failing_writer(events, file):
                steps = write_events(events, file)
                next(steps)
                assert bool(rendered) == (failing == "step-after-render")
                raise MemoryError("step failed")
                yield

            monkeypatch.setattr(synth, "synthesize_session", render)
            monkeypatch.setattr(session_io, "write_events", failing_writer)
            message = "step failed"
        with pytest.raises(MemoryError, match=message):
            main(["simulate", "--out", str(out)] + self.ARGV)
        if existing:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        else:
            assert not (tmp_path / "new").exists()

    def test_peak_memory_does_not_grow_with_the_text(self, tmp_path, capsys):
        """The ``tracemalloc`` peaks of ``simulate`` for 20 and 200 characters
        differ by no more than half a float64 block plus 0.4 of a block, though
        the signal grows by ~20 MiB and the events text by ~0.4 MiB, and the
        first is a few blocks.  The 0.4 is for the response table, which holds
        one product per distinct blink gain: equal target-to-target intervals
        at other onsets can round to other gains, 12 more at 200 characters
        (24 arrays, 0.38 of a block)."""
        import tracemalloc

        import scipy.signal  # noqa: F401  (imported lazily by the renderer; not its memory)

        peaks = []
        for chars in (20, 200):
            out = tmp_path / str(chars)
            argv = ["simulate", "--out", str(out), "--seed", "1", "--reps", "1",
                    "--targets", (DEFAULT_TARGET_TEXT * 10)[:chars]]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        signal_bytes = (out / "signal.f32").stat().st_size
        block_bytes = synth._ROWS * len(DEFAULT_CHANNELS) * 8
        assert signal_bytes > 20 * block_bytes
        assert peaks[1] - peaks[0] <= block_bytes / 2 + 0.4 * block_bytes
        # the ring of two, the filtered block, the float32 block being written
        # and less than half a block besides (the responses, the schedule, the
        # command's own objects): a third ring buffer, or a float32 block cast
        # per pass, exceeds this
        assert peaks[0] < (2 + 1 + 0.5 + 0.5) * block_bytes


class TestSignalCeiling:
    def test_a_session_at_the_ceiling_renders_and_one_value_past_it_does_not(self, monkeypatch):
        """onset_s and fs_hz are exact in binary here, so the session's values
        are counted exactly: the ceiling itself is allowed."""
        sched = make_xp300_schedule(make_constrained_pattern(6), reps=1, isi_s=0.125,
                                    targets=[(1, 1)], seed=0)
        values = int((sched.events.onset_s.max() + 1.0) * 1000) * len(DEFAULT_CHANNELS)
        monkeypatch.setattr(synth, "MAX_SIGNAL_VALUES", values)
        rec = synthesize_session(sched, noise=quiet_noise(), fs_hz=1000.0, seed=1)
        assert rec.samples.size == values
        monkeypatch.setattr(synth, "MAX_SIGNAL_VALUES", values - 1)
        with pytest.raises(ValidationError, match=f"fs_hz 1000.0 Hz and a 2.6 s session make "
                                                  f"2625 samples x 8 channels, more than the "
                                                  f"{values - 1} values allowed"):
            synthesize_session(sched, noise=quiet_noise(), fs_hz=1000.0, seed=1)
