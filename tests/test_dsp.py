import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import signal

from p300speller import dsp, pipeline, session_io
from p300speller.dsp import (
    MAX_FILTER_ORDER,
    Recording,
    decimate,
    design_bandpass,
    extract_epochs,
    filter_recording,
    frequency_response,
)
from p300speller.errors import PipelineError, RateError, ValidationError
from p300speller.patterns import make_rc_pattern
from p300speller.scheduler import Events

FS = 2000.0
CFG = pipeline.PipelineConfig()  # the chain's band and epoch window


def flash(onset_s, is_target=False):
    return (onset_s, 0, 1, is_target)  # (onset, block, flash id, target): row flash 1


def pause(onset_s):
    return (onset_s, -1, 0, False)


def events(*rows):
    """Event table of flash()/pause() rows, all in character 0, repetition 0, slot 0."""
    onset_s, block, flash_id, is_target = zip(*rows)
    zeros = [0] * len(rows)
    return Events(make_rc_pattern(6), onset_s=onset_s, slot=zeros, char_index=zeros,
                  repetition=zeros, block=block, flash_id=flash_id, is_target=is_target)


class TestDesign:
    def test_band_edges_at_minus_3db(self):
        spec = design_bandpass(FS, CFG.low_hz, CFG.high_hz, CFG.filter_order)
        mags = np.abs(frequency_response(spec, [1.0, 12.5]))
        db = 20 * np.log10(mags)
        assert db == pytest.approx([-3.0103, -3.0103], abs=0.1)

    def test_exact_dc_null(self):
        spec = design_bandpass(FS, CFG.low_hz, CFG.high_hz, CFG.filter_order)
        assert abs(frequency_response(spec, [0.0])[0]) < 1e-12

    def test_passband_flat_at_5hz(self):
        spec = design_bandpass(FS, CFG.low_hz, CFG.high_hz, CFG.filter_order)
        realized_db = 20 * np.log10(abs(frequency_response(spec, [5.0])[0]))
        # analog-prototype oracle: lowpass-transformed frequency at 5 Hz
        omega = (5.0**2 - 1.0 * 12.5) / ((12.5 - 1.0) * 5.0)
        analog_db = -10 * np.log10(1 + omega ** (2 * spec.order))
        assert realized_db >= -0.2
        assert realized_db == pytest.approx(analog_db, abs=0.05)

    def test_poles_inside_unit_circle(self):
        spec = design_bandpass(FS, CFG.low_hz, CFG.high_hz, CFG.filter_order)
        for section in spec.sos:
            assert np.all(np.abs(np.roots(section[3:])) < 1.0)

    @pytest.mark.parametrize("fs, order", [(2000.0, 43), (250.0, 57), (50.0, 73),
                                           (2000.0, MAX_FILTER_ORDER + 1),
                                           (50.0, MAX_FILTER_ORDER + 1)])
    def test_filter_order_without_a_finite_design_rejected(self, fs, order):
        """The gain's numerator and denominator overflow from these orders on;
        the rejection names the knob and raises no numpy warning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^filter_order (must be at most|{order})"):
                design_bandpass(fs, 1.0, 12.5, order)

    @pytest.mark.parametrize("fs, order", [(2000.0, 42), (250.0, 56), (50.0, 72)])
    def test_highest_filter_order_with_a_finite_design(self, fs, order):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = design_bandpass(fs, 1.0, 12.5, order)
        assert np.isfinite(spec.sos).all() and spec.sos[0, 0] > 0
        assert order < MAX_FILTER_ORDER

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(ValidationError, match="Nyquist"):
            design_bandpass(20.0, CFG.low_hz, CFG.high_hz, CFG.filter_order)

    @pytest.mark.parametrize("fs", [250.0, 2000.0])
    @pytest.mark.parametrize("order", range(1, 9))
    @pytest.mark.parametrize("band", [(1.0, 12.5), (0.1, 40.0), (8.0, 12.0), (20.0, 100.0)])
    def test_response_matches_scipy_butter(self, fs, order, band):
        spec = design_bandpass(fs, *band, order)
        reference = signal.butter(order, band, btype="bandpass", output="sos", fs=fs)
        freqs = np.linspace(0.0, fs / 2, 1001)
        _, expected = signal.sosfreqz(reference, worN=freqs, fs=fs)
        assert np.abs(frequency_response(spec, freqs) - expected).max() <= 1e-9


class TestFilter:
    def test_zero_in_zero_out(self):
        spec = design_bandpass(FS, CFG.low_hz, CFG.high_hz, CFG.filter_order)
        rec = Recording(fs_hz=FS, samples=np.zeros((500, 8)))
        out = filter_recording(spec, rec, FS)
        assert np.all(out.samples == 0)

    def test_channel_independence(self):
        spec = design_bandpass(FS, CFG.low_hz, CFG.high_hz, CFG.filter_order)
        x = np.zeros((500, 8))
        x[100, 2] = 1.0
        out = filter_recording(spec, Recording(fs_hz=FS, samples=x), FS)
        untouched = [c for c in range(8) if c != 2]
        assert np.all(out.samples[:, untouched] == 0)
        assert np.any(out.samples[:, 2] != 0)

    def test_steady_state_gain_at_5hz(self):
        spec = design_bandpass(FS, CFG.low_hz, CFG.high_hz, CFG.filter_order)
        t = np.arange(int(30 * FS)) / FS
        x = np.sin(2 * np.pi * 5.0 * t)[:, None]
        out = filter_recording(spec, Recording(fs_hz=FS, samples=x, channel_names=("a",)), FS)
        tail = out.samples[int(20 * FS):, 0]
        measured = np.sqrt(2) * tail.std()
        expected = abs(frequency_response(spec, [5.0])[0])
        assert measured == pytest.approx(expected, rel=0.01)

    def test_rate_mismatch(self):
        spec = design_bandpass(FS, CFG.low_hz, CFG.high_hz, CFG.filter_order)
        with pytest.raises(ValidationError, match="Hz"):
            filter_recording(spec, Recording(fs_hz=1000.0, samples=np.zeros((10, 8))), 25.0)


class TestDecimate:
    def test_sample_count(self):
        rec = Recording(fs_hz=FS, samples=np.zeros((8000, 8)))
        assert decimate(rec, 25.0).n_samples == 100

    def test_event_lands_on_expected_output_sample(self):
        rec = Recording(fs_hz=FS, samples=np.zeros((4000, 8)), events=events(flash(1.0)))
        out = decimate(rec, 25.0)
        assert out.sample_index(out.events.onset_s[0]) == 25

    def test_takes_every_kth_sample(self):
        x = np.arange(800, dtype=float)[:, None]
        rec = Recording(fs_hz=FS, samples=x, channel_names=("a",))
        out = decimate(rec, 25.0)
        assert np.array_equal(out.samples[:, 0], np.arange(0, 800, 80))

    def test_mean_approximately_preserved(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((80000, 2))
        x -= x.mean(axis=0)
        out = decimate(Recording(fs_hz=FS, samples=x, channel_names=("a", "b")), 25.0)
        # subsampling keeps a zero-mean signal near zero mean (stderr bound)
        bound = 5 * x.std() / np.sqrt(out.n_samples)
        assert np.all(np.abs(out.samples.mean(axis=0)) < bound)

    def test_non_integer_factor(self):
        rec = Recording(fs_hz=FS, samples=np.zeros((100, 8)))
        with pytest.raises(ValidationError, match="integer"):
            decimate(rec, 30.0)

    def test_factor_tolerance(self):
        """A rate within 1e-9 of an integer multiple is that multiple (1 included);
        4e-8 off is not a multiple."""
        assert dsp._decimation_factor(FS * (1 + 1e-13), 25.0) == 80
        assert dsp._decimation_factor(25.0, 25.0) == 1
        with pytest.raises(RateError, match="not an integer multiple"):
            dsp._decimation_factor(FS + 1e-6, 25.0)

    def test_tone_frequency_preserved(self):
        spec = design_bandpass(FS, CFG.low_hz, CFG.high_hz, CFG.filter_order)
        t = np.arange(int(40 * FS)) / FS
        x = np.sin(2 * np.pi * 7.0 * t)[:, None]
        out = filter_recording(spec, Recording(fs_hz=FS, samples=x, channel_names=("a",)), 25.0)
        tail = out.samples[out.n_samples // 2:, 0]
        freqs = np.fft.rfftfreq(tail.size, d=1 / 25.0)
        peak = freqs[np.argmax(np.abs(np.fft.rfft(tail)))]
        assert peak == pytest.approx(7.0, abs=0.1)


class TestStreamedFilter:
    """filter_recording against one whole-signal sosfilt, subsampled, and
    against itself over blocks of rows of any size."""

    @staticmethod
    def signals(q, n_channels):
        """Lengths around a chunk, a block of rows and two blocks."""
        chunk = q * dsp.FILTER_CHUNK_BLOCKS
        block = max(1, dsp.FILTER_BLOCK_VALUES // n_channels // chunk) * chunk  # rows per block
        lengths = {1, q - 1, q, q + 1, chunk + 1, block, block + 1, 2 * block + q // 2 + 3} - {0}
        rng = np.random.default_rng(n_channels)
        for n in sorted(lengths):
            x = rng.standard_normal((n, n_channels)).astype(np.float32)
            yield Recording(fs_hz=FS, samples=x, channel_names=tuple(map(str, range(n_channels))))

    @pytest.mark.parametrize("q", [80, 1])
    @pytest.mark.parametrize("n_channels", [1, 8, 64])
    def test_matches_sosfilt(self, q, n_channels):
        # the block state space sums in another order than sosfilt: equal to
        # far below the float32 resolution of the recorded signal
        spec = design_bandpass(FS, CFG.low_hz, CFG.high_hz, CFG.filter_order)
        for rec in self.signals(q, n_channels):
            out = filter_recording(spec, rec, FS / q)
            expected = signal.sosfilt(spec.sos, rec.samples, axis=0)[::q]
            assert out.fs_hz == FS / q
            assert out.samples.dtype == expected.dtype == np.float64
            assert out.samples.shape == expected.shape
            bound = np.finfo(np.float32).eps * np.abs(expected).max()
            assert np.abs(out.samples - expected).max() <= bound, rec.n_samples

    @pytest.mark.parametrize("q", [80, 1])
    @pytest.mark.parametrize("n_channels", [1, 8, 64])
    def test_same_bytes_as_one_pass(self, q, n_channels, monkeypatch):
        # one chunk per block of rows, the default, and the whole recording at once
        spec = design_bandpass(FS, CFG.low_hz, CFG.high_hz, CFG.filter_order)
        for rec in self.signals(q, n_channels):
            outputs = []
            whole = rec.samples.size * q * dsp.FILTER_CHUNK_BLOCKS
            for values in (1, dsp.FILTER_BLOCK_VALUES, whole):
                with monkeypatch.context() as patch:
                    patch.setattr(dsp, "FILTER_BLOCK_VALUES", values)
                    outputs.append(filter_recording(spec, rec, FS / q).samples)
            assert all(out.tobytes() == outputs[0].tobytes() for out in outputs), rec.n_samples

    def test_non_integer_factor(self):
        rec = Recording(fs_hz=FS, samples=np.zeros((100, 8)))
        spec = design_bandpass(FS, CFG.low_hz, CFG.high_hz, CFG.filter_order)
        with pytest.raises(ValidationError, match="integer"):
            filter_recording(spec, rec, 30.0)

    def test_factor_above_recording_length(self):
        # one partial block of 1,000 rows: nothing may grow with q = 100,000
        x = np.random.default_rng(1).standard_normal((1000, 2)).astype(np.float32)
        rec = Recording(fs_hz=FS, samples=x, channel_names=("a", "b"))
        spec = design_bandpass(FS, CFG.low_hz, CFG.high_hz, CFG.filter_order)
        tracemalloc.start()
        try:
            out = filter_recording(spec, rec, FS / 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = signal.sosfilt(spec.sos, x, axis=0)[:1]
        assert out.samples.shape == (1, 2)
        bound = np.finfo(np.float32).eps * np.abs(expected).max()
        assert np.abs(out.samples - expected).max() <= bound
        assert peak < 1e6
        x[-1, 1] = np.nan
        with pytest.raises(PipelineError, match="'b'"):
            filter_recording(spec, rec, FS / 100_000)

    def test_bounded_memory(self):
        x = np.random.default_rng(0).standard_normal((200_000, 64)).astype(np.float32)
        rec = Recording(fs_hz=FS, samples=x, channel_names=tuple(map(str, range(64))))
        spec = design_bandpass(FS, CFG.low_hz, CFG.high_hz, CFG.filter_order)
        tracemalloc.start()
        try:
            filter_recording(spec, rec, 25.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the input is 51.2 MB; one whole-signal float64 pass would peak near 109 MB
        assert peak < 20e6

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/smaps")
    def test_preprocess_drops_mapped_pages(self, tmp_path):
        """After ``preprocess`` of a mapped bundle of three release batches, at
        most one batch and one block of rows of its ``signal.f32`` stay
        resident, and the result has the bytes of an in-memory recording's."""

        def resident_bytes(path):
            lines = Path("/proc/self/smaps").read_text().splitlines()
            header = next(i for i, line in enumerate(lines) if line.endswith(str(path)))
            return 1024 * next(int(line.split()[1]) for line in lines[header:]
                                if line.startswith("Rss:"))

        samples = np.random.default_rng(2).standard_normal((3 * dsp.RELEASE_BYTES // 32, 8),
                                                           dtype=np.float32)
        rec = Recording(fs_hz=FS, samples=samples, events=events(flash(0.5)))
        session_io.write_session(rec, tmp_path / "bundle")
        mapped = session_io.read_session(tmp_path / "bundle")
        cfg = pipeline.PipelineConfig()
        low = pipeline.preprocess(mapped, cfg)
        step_bytes = dsp.FILTER_BLOCK_VALUES * 4 + 80 * dsp.FILTER_CHUNK_BLOCKS * 8 * 4
        assert resident_bytes(tmp_path / "bundle" / "signal.f32") <= dsp.RELEASE_BYTES + step_bytes
        assert low.samples.tobytes() == pipeline.preprocess(rec, cfg).samples.tobytes()
        mapped.samples.sum()  # a read faults every page back in
        assert resident_bytes(tmp_path / "bundle" / "signal.f32") >= samples.nbytes


class TestEpochs:
    def test_window_length_at_25hz(self):
        rec = Recording(fs_hz=25.0, samples=np.zeros((100, 8)), events=events(flash(0.5)))
        es = extract_epochs(rec, 0.6)
        assert es.n_samples == 15
        assert es.epochs.shape == (1, 15 * 8)

    def test_feature_counts(self):
        rec8 = Recording(fs_hz=25.0, samples=np.zeros((100, 8)), events=events(flash(0.0)))
        assert extract_epochs(rec8, 0.6).epochs.shape[1] == 120
        rec4 = Recording(fs_hz=25.0, samples=np.zeros((100, 4)),
                         channel_names=("a", "b", "c", "d"), events=events(flash(0.0)))
        assert extract_epochs(rec4, 0.6).epochs.shape[1] == 60

    def test_one_epoch_per_flash_pauses_skipped(self):
        table = events(flash(0.2), pause(0.4), flash(0.6, True), flash(1.0))
        rec = Recording(fs_hz=25.0, samples=np.zeros((100, 8)), events=table)
        es = extract_epochs(rec, 0.6)
        assert es.epochs.shape[0] == 3
        assert es.labels.tolist() == [False, True, False]

    def test_channel_major_layout(self):
        x = np.zeros((50, 2))
        x[:, 0] = np.arange(50)
        x[:, 1] = 1000 + np.arange(50)
        rec = Recording(fs_hz=25.0, samples=x, channel_names=("a", "b"), events=events(flash(0.4)))
        row = extract_epochs(rec, 0.6).epochs[0]
        assert np.array_equal(row[:15], np.arange(10, 25))
        assert np.array_equal(row[15:], 1000 + np.arange(10, 25))

    def test_rows_match_loop_reference(self):
        # the per-flash slicing loop the fancy index replaced; 0.1 s is 2.5 samples
        x = np.random.default_rng(3).standard_normal((200, 3)).astype(np.float32)
        onsets = [0.0, 0.1, 1.02, 5.4, 2.5]
        table = events(flash(0.0), flash(0.1), pause(0.3), flash(1.02, True), flash(5.4), flash(2.5))
        rec = Recording(fs_hz=25.0, samples=x, channel_names=("a", "b", "c"), events=table)
        expected = np.empty((5, 45))
        for i, onset in enumerate(onsets):
            start = int(round(onset * 25.0))
            expected[i] = x[start : start + 15].T.ravel()
        es = extract_epochs(rec, 0.6)
        assert es.epochs.dtype == np.float64 and np.array_equal(es.epochs, expected)

    def test_truncated_epoch_identifies_event(self):
        rec = Recording(fs_hz=25.0, samples=np.zeros((20, 8)), events=events(flash(0.5)))
        with pytest.raises(PipelineError, match=r"0\.500s"):
            extract_epochs(rec, 0.6)


class TestRecording:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            Recording(fs_hz=FS, samples=np.zeros((0, 8)))
        with pytest.raises(ValidationError, match="channel names"):
            Recording(fs_hz=FS, samples=np.zeros((10, 3)))

    def test_onset_at_the_duration_allowed(self):
        """10 samples at 25 Hz last 0.4 s, and an event at 0.4 s is inside;
        the next float past it is not."""
        Recording(fs_hz=25.0, samples=np.zeros((10, 8)), events=events(flash(0.4)))
        with pytest.raises(ValidationError, match="outside the recording"):
            Recording(fs_hz=25.0, samples=np.zeros((10, 8)),
                      events=events(flash(np.nextafter(0.4, 1.0))))
