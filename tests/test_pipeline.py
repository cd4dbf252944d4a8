import numpy as np
import pytest

from p300speller.dsp import Recording, design_bandpass, extract_epochs
from p300speller.errors import PipelineError, RateError, ValidationError
from p300speller.patterns import default_matrix, make_constrained_pattern, make_rc_pattern
from p300speller.pipeline import (
    PipelineConfig,
    design_filter,
    evaluate,
    open_bundle,
    preprocess,
    schedule_from_bundle,
    schedule_meta,
    score_session,
    train_models,
)
from p300speller.scheduler import make_cp300_schedule, make_xp300_schedule
from p300speller.session_io import read_manifest, read_session, write_session
from p300speller.synth import BlinkModel, synthesize_session
from p300speller.xdawn import apply_spatial_filter

ISI = 0.133
TEXT = "SPELLING42"


def make_pair(paradigm, subject_seed, reps=4, text=TEXT):
    matrix = default_matrix(6)
    targets = [matrix.locate(ch) for ch in text]
    if paradigm == "cp300":
        pattern, make = make_rc_pattern(6), make_cp300_schedule
    else:
        pattern, make = make_constrained_pattern(6), make_xp300_schedule
    sessions = []
    for offset in (0, 1):
        seed = 1000 * subject_seed + offset
        sched = make(pattern, reps=reps, isi_s=ISI, targets=targets, seed=seed)
        rec = synthesize_session(sched, blink=BlinkModel(), seed=seed + 17)
        sessions.append((rec, sched))
    return sessions


class TestChain:
    def test_preprocess_rates_and_shapes(self):
        (rec, sched), _ = make_pair("xp300", 1)
        low = preprocess(rec, PipelineConfig())
        assert low.fs_hz == 25.0
        assert low.n_samples == -(-rec.n_samples // 80)  # ceil of T / 80
        assert len(low.events) == len(rec.events)

    # 8079 rows keep rows 0, 80, ..., 8000; 8001 and 8078 reach no kept sample
    @pytest.mark.parametrize("row", [81, 8001, 8078])
    def test_non_finite_sample_anywhere_names_channel(self, row):
        x = np.random.default_rng(0).standard_normal((8079, 2)).astype(np.float32)
        x[row, 1] = np.nan
        rec = Recording(fs_hz=2000.0, samples=x, channel_names=("a", "b"))
        with pytest.raises(PipelineError, match="channel 'b' holds non-finite samples"):
            preprocess(rec, PipelineConfig())

    def test_epoch_feature_width_after_spatial_filter(self):
        (rec, sched), _ = make_pair("xp300", 2)
        cfg = PipelineConfig()
        low = preprocess(rec, cfg)
        sf, _ = train_models(low, cfg)
        epochs = extract_epochs(apply_spatial_filter(sf, low), cfg.window_s)
        assert epochs.epochs.shape[1] == 15 * 4
        assert epochs.epochs.shape[0] == sched.events.is_flash.sum()

    def test_component_one_beats_raw_channels(self):
        # the fitted component concentrates evoked energy better than any
        # single channel, measured as target/non-target epoch variance
        (rec, _), _ = make_pair("xp300", 3, reps=6)
        cfg = PipelineConfig()
        low = preprocess(rec, cfg)
        raw_epochs = extract_epochs(low, cfg.window_s)
        sf, _ = train_models(low, cfg)
        enhanced = extract_epochs(apply_spatial_filter(sf, low), cfg.window_s)

        def snr(epoch_set, channel):
            cols = slice(channel * 15, (channel + 1) * 15)
            target = epoch_set.epochs[epoch_set.labels, cols]
            rest = epoch_set.epochs[~epoch_set.labels, cols]
            return target.var() / rest.var()

        component_snr = snr(enhanced, 0)
        raw_snrs = [snr(raw_epochs, c) for c in range(8)]
        assert component_snr >= max(raw_snrs)

    def test_cross_session_high_snr(self):
        (train, _), (test, test_sched) = make_pair("xp300", 4, reps=5)
        cfg = PipelineConfig()
        result = evaluate(preprocess(train, cfg), preprocess(test, cfg), test_sched, cfg,
                          default_matrix(6))
        assert result.auc >= 0.95
        assert result.accuracy_by_k[-1] >= 0.9

    def test_more_repetitions_do_not_hurt(self):
        # cohort-mean accuracy at the last k is at least the k=1 value
        cfg = PipelineConfig()
        first, last = [], []
        for subject in range(4):
            (train, _), (test, sched) = make_pair("xp300", 10 + subject, reps=6)
            result = evaluate(preprocess(train, cfg), preprocess(test, cfg), sched, cfg)
            first.append(result.accuracy_by_k[0])
            last.append(result.accuracy_by_k[-1])
        assert np.mean(last) >= np.mean(first)


    def test_models_reject_raw_rate(self):
        # the models take preprocess output; a raw 2 kHz recording is refused
        (train, _), (test, sched) = make_pair("xp300", 7, reps=2)
        cfg = PipelineConfig()
        low_train, low_test = preprocess(train, cfg), preprocess(test, cfg)
        sf, clf = train_models(low_train, cfg)
        rates = r"2000\.0 Hz.*25\.0 Hz"
        with pytest.raises(ValidationError, match=rates):
            train_models(train, cfg)
        with pytest.raises(ValidationError, match=rates):
            score_session(test, sf, clf, cfg)
        with pytest.raises(ValidationError, match=rates):
            evaluate(train, low_test, sched, cfg)
        with pytest.raises(ValidationError, match=rates):
            evaluate(low_train, test, sched, cfg)


class TestBundleRoundTrip:
    def test_schedule_from_bundle_decodes(self, tmp_path):
        (rec, sched), _ = make_pair("xp300", 5, reps=3)
        write_session(rec, tmp_path / "s", meta=schedule_meta(sched))
        again = read_session(tmp_path / "s")
        rebuilt = schedule_from_bundle(read_manifest(tmp_path / "s"), again.events)
        assert rebuilt.paradigm == sched.paradigm
        assert rebuilt.targets == sched.targets
        assert rebuilt.events == sched.events
        assert np.array_equal(rebuilt.pattern.r_hat, sched.pattern.r_hat)

    def test_evaluation_identical_after_round_trip(self, tmp_path):
        (train, _), (test, sched) = make_pair("cp300", 6, reps=3)
        cfg = PipelineConfig()
        direct = evaluate(preprocess(train, cfg), preprocess(test, cfg), sched, cfg)
        write_session(train, tmp_path / "train")
        write_session(test, tmp_path / "test", meta=schedule_meta(sched))
        train_again = read_session(tmp_path / "train")
        test_again = read_session(tmp_path / "test")
        sched_again = schedule_from_bundle(read_manifest(tmp_path / "test"), test_again.events)
        again = evaluate(
            preprocess(train_again, cfg), preprocess(test_again, cfg), sched_again, cfg
        )
        assert np.array_equal(again.accuracy_by_k, direct.accuracy_by_k)
        assert again.auc == direct.auc


class TestOpenBundle:
    def test_recording_and_schedule_of_the_bundle(self, tmp_path):
        (rec, sched), _ = make_pair("xp300", 5, reps=3)
        write_session(rec, tmp_path / "s", meta=schedule_meta(sched))
        again, rebuilt = open_bundle(tmp_path / "s", PipelineConfig())
        assert np.array_equal(again.samples, rec.samples) and again.fs_hz == rec.fs_hz
        assert again.events == rec.events == rebuilt.events
        assert rebuilt.targets == sched.targets and rebuilt.reps == sched.reps

    def test_design_filter_is_the_band_at_a_rate_that_decimates(self):
        cfg = PipelineConfig()
        spec = design_filter(2000.0, cfg)
        assert np.array_equal(spec.sos, design_bandpass(2000.0, 1.0, 12.5, 4).sos)
        with pytest.raises(RateError, match="2010.0 Hz is not an integer multiple of 25.0 Hz"):
            design_filter(2010.0, cfg)
        with pytest.raises(RateError, match=r"at or above Nyquist \(10.0 Hz\)"):
            design_filter(20.0, cfg)
