import numpy as np
import pytest
from scipy import linalg

from p300speller.dsp import Recording
from p300speller.errors import PipelineError, ValidationError
from p300speller.patterns import make_rc_pattern
from p300speller.scheduler import Events
from p300speller.xdawn import (
    SpatialFilterModel,
    apply_spatial_filter,
    build_toeplitz,
    fit_xdawn,
)

FS = 25.0


def target_flashes(onsets_s):
    """Event table of target row flashes 1 at the given times."""
    zeros = np.zeros(len(onsets_s), dtype=int)
    return Events(make_rc_pattern(6), onset_s=onsets_s, slot=zeros, char_index=zeros,
                  repetition=zeros, block=zeros, flash_id=zeros + 1, is_target=zeros == 0)


def random_problem(seed, t=1200, c=8, n_onsets=40, erp_len=15):
    """Random recording with distinct target onsets, for oracle comparison."""
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((t, c))
    onsets = np.sort(rng.choice(np.arange(0, t - erp_len), size=n_onsets, replace=False))
    return Recording(fs_hz=FS, samples=samples, events=target_flashes(onsets / FS)), onsets


def oracle_filters(samples, onsets, erp_len, n_f):
    """Dense generalized-eigenvector solution of the same Rayleigh quotient."""
    d = build_toeplitz(onsets, erp_len, samples.shape[0])
    q, _ = np.linalg.qr(d)
    a = samples.T @ q @ q.T @ samples
    b = samples.T @ samples
    vals, vecs = linalg.eigh(a, b)
    order = np.argsort(vals)[::-1][:n_f]
    return vals[order], vecs[:, order]


class TestToeplitz:
    def test_basic_structure(self):
        design = build_toeplitz([1, 5], erp_len=3, total_samples=8)
        expected = np.zeros((8, 3))
        for onset in (1, 5):
            for lag in range(3):
                expected[onset + lag, lag] = 1
        assert np.array_equal(design, expected)

    def test_no_onsets_all_zero(self):
        design = build_toeplitz([], erp_len=4, total_samples=10)
        assert design.shape == (10, 4)
        assert not design.any()

    def test_overlapping_onsets(self):
        design = build_toeplitz([0, 1], erp_len=3, total_samples=6)
        assert design.sum(axis=0).tolist() == [2, 2, 2]
        assert design[1].sum() == 2 and design[2].sum() == 2

    def test_out_of_range_onset(self):
        with pytest.raises(ValidationError, match="too close"):
            build_toeplitz([6], erp_len=3, total_samples=8)

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError, match="sorted"):
            build_toeplitz([5, 1], erp_len=2, total_samples=10)

    @pytest.mark.parametrize(
        "onsets", [list(range(0, 26)), [25], [0, 25]], ids=["adjacent", "last", "first-last"]
    )
    def test_full_column_rank(self, onsets):
        # fit_xdawn takes the QR basis of the design without a rank fallback:
        # any admitted onsets (sorted, distinct, in range) give full column rank,
        # down to adjacent onsets and an onset at T - L
        design = build_toeplitz(onsets, erp_len=15, total_samples=40)
        diag = np.abs(np.diag(np.linalg.qr(design)[1]))
        assert diag.min() >= 1e-12 * diag.max()


class TestFit:
    def test_matches_generalized_eig_oracle(self):
        for seed in range(50):
            rec, onsets = random_problem(seed)
            model = fit_xdawn(rec, erp_len=15, n_f=4)
            vals, vecs = oracle_filters(rec.samples, onsets, 15, 4)
            for k in range(4):
                u = model.u[:, k]
                v = vecs[:, k] / np.linalg.norm(vecs[:, k])
                angle = np.arccos(np.clip(abs(u @ v), -1.0, 1.0))
                assert angle < 1e-6, (seed, k, angle)
                assert model.rho[k] == pytest.approx(vals[k], abs=1e-8)

    def test_rho_descending_in_unit_interval(self):
        for seed in (3, 14, 59):
            rec, _ = random_problem(seed)
            model = fit_xdawn(rec, erp_len=15, n_f=4)
            assert np.all(np.diff(model.rho) <= 1e-12)
            assert np.all(model.rho >= 0) and np.all(model.rho <= 1 + 1e-12)

    def test_recovers_planted_rank_one_response(self):
        rng = np.random.default_rng(42)
        t, c, erp_len = 2000, 8, 15
        onsets = np.arange(20, t - erp_len, 40)
        waveform = np.hanning(erp_len)
        mixing = rng.standard_normal(c)
        d = build_toeplitz(onsets, erp_len, t)
        evoked = np.outer(d @ waveform, mixing)
        noise_mix = rng.standard_normal((c, c)) * 0.1
        samples = evoked + rng.standard_normal((t, c)) @ noise_mix
        rec = Recording(fs_hz=FS, samples=samples, events=target_flashes(onsets / FS))
        model = fit_xdawn(rec, erp_len=erp_len, n_f=4)
        enhanced = samples @ model.u[:, 0]
        reference = d @ waveform
        corr = np.corrcoef(enhanced, reference)[0, 1]
        assert abs(corr) > 0.999

    def test_channel_permutation_equivariance(self):
        rec, _ = random_problem(7)
        model = fit_xdawn(rec, erp_len=15, n_f=4)
        perm = np.random.default_rng(1).permutation(8)
        permuted = Recording(
            fs_hz=FS,
            samples=rec.samples[:, perm],
            channel_names=tuple(rec.channel_names[i] for i in perm),
            events=rec.events,
        )
        model_p = fit_xdawn(permuted, erp_len=15, n_f=4)
        # filtered output is invariant under channel relabeling
        assert np.allclose(rec.samples @ model.u, permuted.samples @ model_p.u, atol=1e-8)

    def test_too_few_targets(self):
        rec, _ = random_problem(0)
        rec.events = rec.events[:1]
        with pytest.raises(PipelineError, match="two target"):
            fit_xdawn(rec)

    def test_degenerate_signal(self):
        rec, _ = random_problem(0)
        rec.samples[:, 3] = rec.samples[:, 2]  # exact duplicate channel
        with pytest.raises(PipelineError, match="rank-deficient"):
            fit_xdawn(rec)

    def test_nf_clamped(self):
        rec, _ = random_problem(5)  # 8 channels, so 8 components at most
        model = fit_xdawn(rec, erp_len=15, n_f=12)
        assert model.n_f == 8
        assert model.u.shape == (8, 8) and model.rho.shape == (8,)

    def test_sign_convention(self):
        rec, _ = random_problem(9)
        model = fit_xdawn(rec)
        for k in range(model.n_f):
            col = model.u[:, k]
            assert col[np.argmax(np.abs(col))] > 0
            assert np.linalg.norm(col) == pytest.approx(1.0)


class TestApply:
    def test_identity_filter_selects_channels(self):
        rec, _ = random_problem(2)
        u = np.eye(8)[:, :4]
        model = SpatialFilterModel(u=u, n_f=4, rho=np.ones(4), erp_len=15)
        out = apply_spatial_filter(model, rec)
        assert np.array_equal(out.samples, rec.samples[:, :4])
        assert out.channel_names == ("xDAWN-1", "xDAWN-2", "xDAWN-3", "xDAWN-4")

    def test_zero_signal(self):
        rec = Recording(fs_hz=FS, samples=np.zeros((100, 8)))
        model = SpatialFilterModel(u=np.ones((8, 2)), n_f=2, rho=np.ones(2), erp_len=15)
        assert not apply_spatial_filter(model, rec).samples.any()

    def test_dimension_mismatch(self):
        rec = Recording(fs_hz=FS, samples=np.zeros((100, 4)),
                        channel_names=("a", "b", "c", "d"))
        model = SpatialFilterModel(u=np.ones((8, 2)), n_f=2, rho=np.ones(2), erp_len=15)
        with pytest.raises(ValidationError, match="channels"):
            apply_spatial_filter(model, rec)

    def test_events_preserved(self):
        rec, _ = random_problem(4)
        model = fit_xdawn(rec)
        assert apply_spatial_filter(model, rec).events == rec.events


class TestSerialization:
    def test_json_roundtrip(self):
        rec, _ = random_problem(6)
        model = fit_xdawn(rec)
        again = SpatialFilterModel.from_json(model.to_json())
        assert np.array_equal(again.u, model.u)
        assert np.array_equal(again.rho, model.rho)
        assert (again.n_f, again.erp_len) == (model.n_f, model.erp_len)
