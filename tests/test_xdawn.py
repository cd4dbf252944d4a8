import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import linalg

from p300speller import xdawn
from p300speller.dsp import Recording
from p300speller.errors import PipelineError, ValidationError
from p300speller.patterns import make_rc_pattern
from p300speller.pipeline import PipelineConfig
from p300speller.scheduler import Events
from p300speller.xdawn import (
    SpatialFilterModel,
    apply_spatial_filter,
    build_toeplitz,
    fit_xdawn,
)

FS = 25.0
CFG = PipelineConfig()  # the chain's ERP window and filter count
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


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


def householder_fit(samples, onsets, erp_len, n_f):
    """The dense Householder reference: QRs of D and X, then the SVD of Qd' Qx.

    None where diag(Rx) fails the fit's degeneracy rule."""
    qx, rx = np.linalg.qr(samples)
    diag = np.abs(np.diag(rx))
    if not diag.min() > 1e-12 * diag.max():
        return None
    qd, _ = np.linalg.qr(build_toeplitz(onsets, erp_len, len(samples)))
    _, lam, psi_t = np.linalg.svd(qd.T @ qx)
    u = np.linalg.solve(rx, psi_t[:n_f].T)
    u /= np.linalg.norm(u, axis=0)
    u *= np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(n_f)])
    return u, np.minimum(lam[:n_f], 1.0) ** 2


def conditioning_case(case):
    """A 2,616 x 64 signal (the wide-64ch fit's size) of a given conditioning,
    with fixed onsets.  ``case`` is a float eps, for a last channel that is the
    mean of the others plus eps-noise, or "duplicate" or "zero" for a channel
    that copies another or holds zeros."""
    rng = np.random.default_rng(2616)
    samples = rng.standard_normal((2616, 64))
    onsets = np.sort(rng.choice(2616 - 15, size=120, replace=False))
    if case == "duplicate":
        samples[:, 5] = samples[:, 4]
    elif case == "zero":
        samples[:, 7] = 0.0
    else:
        samples[:, -1] = samples[:, :-1].mean(axis=1) + case * rng.standard_normal(2616)
    return samples, onsets


def recording(samples, onsets):
    """A recording of the given samples with target flashes at the given sample indices."""
    names = tuple(f"ch{i}" for i in range(samples.shape[1]))
    events = target_flashes(np.asarray(onsets) / FS)
    return Recording(fs_hz=FS, samples=samples, channel_names=names, events=events)


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

    def test_repeated_onsets_count(self):
        design = build_toeplitz([1, 1, 2], erp_len=2, total_samples=5)
        assert design.tolist() == [[0, 0], [2, 0], [1, 2], [0, 1], [0, 0]]

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError, match="sorted"):
            build_toeplitz([5, 1], erp_len=2, total_samples=10)

    @pytest.mark.parametrize(
        "onsets", [list(range(0, 26)), [25], [0, 25], [3, 3, 4, 25, 25, 25]],
        ids=["adjacent", "last", "first-last", "repeated"],
    )
    def test_full_column_rank(self, onsets):
        # fit_xdawn takes the Cholesky factor of D'D without a rank fallback:
        # any admitted onsets (sorted, in range) give full column rank, down to
        # adjacent and repeated onsets and an onset at T - L
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

    def test_rho_at_most_one_without_noise(self):
        # X = D A lies in the span of D: every principal angle is 0, and rounding
        # in the singular values must not lift rho past 1
        for seed in range(200):
            rng = np.random.default_rng(seed)
            onsets = np.sort(rng.choice(400 - 15, size=40, replace=False))
            samples = build_toeplitz(onsets, 15, 400) @ rng.standard_normal((15, 8))
            model = fit_xdawn(recording(samples, onsets), erp_len=15, n_f=8)
            assert model.rho.max() <= 1.0, (seed, model.rho.max())
            assert model.rho.min() == pytest.approx(1.0, abs=1e-12)

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        erp_len=st.integers(1, 30),
        n_ch=st.integers(1, 64),
        extra=st.integers(0, 3000),
        n_random=st.integers(0, 60),
        runs=st.lists(st.tuples(st.floats(0, 1), st.integers(1, 60)), max_size=4),
        repeats=st.sampled_from([0, 1, 5, 40]),
    )
    def test_matches_dense_reference(self, seed, erp_len, n_ch, extra, n_random, runs, repeats):
        # random onsets mixed with runs of consecutive onsets, which overlap most
        # and give the worst-conditioned D'D, and with onsets repeated, as two
        # flashes that round to one output sample are
        t_total = min(3000, 2 * max(erp_len, n_ch) + extra)
        last = t_total - erp_len
        rng = np.random.default_rng(seed)
        picked = [rng.integers(0, last + 1, size=n_random)]
        for start, length in runs:
            first = int(start * last)
            picked.append(np.arange(first, min(first + length, last + 1)))
        onsets = np.unique(np.concatenate(picked))
        assume(onsets.size + repeats >= 2 and onsets.size >= 1)
        samples = rng.standard_normal((t_total, n_ch))
        onsets = np.sort(np.concatenate([onsets, rng.choice(onsets, size=repeats)]))
        model = fit_xdawn(recording(samples, onsets), erp_len=erp_len, n_f=n_ch)
        assert model.n_f == min(erp_len, n_ch)
        vals, vecs = oracle_filters(samples, onsets, erp_len, n_ch)
        assert np.all(model.rho >= 0) and np.all(model.rho <= 1)
        assert np.all(np.diff(model.rho) <= 0)
        assert np.abs(model.rho - vals[: model.n_f]).max() < 1e-8
        for k in range(model.n_f):
            gap = np.abs(np.delete(vals, k) - vals[k]).min() if n_ch > 1 else np.inf
            if gap > 1e-6:
                v = vecs[:, k] / np.linalg.norm(vecs[:, k])
                angle = np.arccos(np.clip(abs(model.u[:, k] @ v), -1.0, 1.0))
                assert angle < 1e-6, (k, gap, angle)

    def test_never_builds_the_design(self, monkeypatch):
        def dense(*args):
            raise AssertionError("fit_xdawn built the T x L design")

        monkeypatch.setattr(xdawn, "build_toeplitz", dense)
        rec, onsets = random_problem(11)
        model = fit_xdawn(rec, erp_len=15, n_f=4)
        vals, _ = oracle_filters(rec.samples, onsets, 15, 4)
        assert np.abs(model.rho - vals).max() < 1e-8

    @pytest.mark.parametrize(
        "onsets, message",
        [
            ([-1, 40, 90], "onset -1 lies before the recording"),
            (
                [3, 40, 1186],
                "onset 1186 too close to the end: the ERP window of 15 samples runs past "
                "the end of the recording (1200 samples)",
            ),
        ],
        ids=["before-start", "past-end"],
    )
    def test_onset_checks(self, onsets, message):
        rec, _ = random_problem(0)
        rec.events = target_flashes(np.array(onsets) / FS)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            fit_xdawn(rec, erp_len=15, n_f=CFG.n_f)

    def test_repeated_onsets_fit(self):
        # two target flashes that round to one sample add two responses there
        rec, onsets = random_problem(0)
        onsets = np.sort(np.concatenate([onsets, onsets[::3], onsets[:2]]))
        rec.events = target_flashes(onsets / FS)
        model = fit_xdawn(rec, erp_len=15, n_f=4)
        vals, _ = oracle_filters(rec.samples, onsets, 15, 4)
        assert np.abs(model.rho - vals).max() < 1e-8

    def test_too_few_targets(self):
        rec, _ = random_problem(0)
        rec.events = rec.events[:1]
        with pytest.raises(PipelineError, match="two target"):
            fit_xdawn(rec, CFG.erp_len, CFG.n_f)

    def test_two_targets_fit(self):
        rec, onsets = random_problem(0)
        rec.events = rec.events[:2]
        model = fit_xdawn(rec, erp_len=15, n_f=4)
        vals, _ = oracle_filters(rec.samples, onsets[:2], 15, 4)
        assert np.abs(model.rho - vals).max() < 1e-8

    def test_as_many_samples_as_channels_rejected(self):
        """T = C is too short (X would be square); T = C + 1 fits."""
        for t, fits in ((8, False), (9, True)):
            rec, _ = random_problem(0, t=t, c=8, n_onsets=2, erp_len=2)
            if fits:
                assert fit_xdawn(rec, erp_len=2, n_f=1).n_f == 1
            else:
                with pytest.raises(ValidationError, match="too short"):
                    fit_xdawn(rec, erp_len=2, n_f=1)

    def test_degenerate_signal(self):
        rec, _ = random_problem(0)
        rec.samples[:, 3] = rec.samples[:, 2]  # exact duplicate channel
        with pytest.raises(PipelineError, match="rank-deficient"):
            fit_xdawn(rec, CFG.erp_len, CFG.n_f)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_sample_names_channel(self, value):
        rec, onsets = random_problem(0)
        samples = rec.samples.copy()
        samples[600, 2] = value
        with pytest.raises(PipelineError, match="^channel 'ch2' holds non-finite samples$"):
            fit_xdawn(recording(samples, onsets), CFG.erp_len, CFG.n_f)

    @pytest.mark.parametrize("scale", [1e-30, 1e-15, 1e15, 1e30])
    def test_scale_does_not_change_the_fit(self, scale):
        rec, onsets = random_problem(0)
        model = fit_xdawn(rec, CFG.erp_len, n_f=8)
        scaled = fit_xdawn(recording(rec.samples * scale, onsets), CFG.erp_len, n_f=8)
        assert np.abs(scaled.u - model.u).max() < 1e-13
        assert np.abs(scaled.rho - model.rho).max() < 1e-15

    def test_zero_signal_is_degenerate(self):
        rec, onsets = random_problem(0)
        with pytest.raises(PipelineError, match="rank-deficient"):
            fit_xdawn(recording(rec.samples * 0.0, onsets), CFG.erp_len, CFG.n_f)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "case, fits",
        [(eps, True) for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-9, 1e-10, 1e-11)]
        + [(eps, False) for eps in (1e-12, 1e-14, 0.0)]
        + [("duplicate", False), ("zero", False)],
        ids=lambda case: f"eps={case:g}" if isinstance(case, float) else str(case),
    )
    def test_conditioning_sweep_matches_householder(self, case, fits):
        # the triangle from Gram products must fit and reject where a Householder
        # QR does, up to cond(X) near 1e11, and give its filters where both fit
        samples, onsets = conditioning_case(case)
        reference = householder_fit(samples, onsets, 15, 4)
        assert (reference is not None) == fits
        if not fits:
            with pytest.raises(PipelineError, match="rank-deficient"):
                fit_xdawn(recording(samples, onsets), CFG.erp_len, n_f=4)
            return
        model = fit_xdawn(recording(samples, onsets), CFG.erp_len, n_f=4)
        s = np.linalg.svd(samples, compute_uv=False)
        tolerance = 10 * np.finfo(float).eps * s[0] / s[-1]
        assert np.abs(model.u - reference[0]).max() < tolerance
        assert np.abs(model.rho - reference[1]).max() < tolerance

    def test_never_calls_householder_qr(self, monkeypatch):
        def householder(*args, **kwargs):
            raise AssertionError("fit_xdawn called np.linalg.qr")

        samples, onsets = conditioning_case(1e-2)
        reference = householder_fit(samples, onsets, 15, 4)
        monkeypatch.setattr(np.linalg, "qr", householder)
        model = fit_xdawn(recording(samples, onsets), CFG.erp_len, n_f=4)
        assert np.abs(model.rho - reference[1]).max() < 1e-12

    def test_nf_clamped(self):
        rec, _ = random_problem(5)  # 8 channels, so 8 components at most
        model = fit_xdawn(rec, erp_len=15, n_f=12)
        assert model.n_f == 8
        assert model.u.shape == (8, 8) and model.rho.shape == (8,)

    def test_sign_convention(self):
        rec, _ = random_problem(9)
        model = fit_xdawn(rec, CFG.erp_len, CFG.n_f)
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
        model = fit_xdawn(rec, CFG.erp_len, CFG.n_f)
        assert apply_spatial_filter(model, rec).events == rec.events


class TestSerialization:
    def test_json_roundtrip(self):
        rec, _ = random_problem(6)
        model = fit_xdawn(rec, CFG.erp_len, CFG.n_f)
        again = SpatialFilterModel.from_json(model.to_json())
        assert np.array_equal(again.u, model.u)
        assert np.array_equal(again.rho, model.rho)
        assert (again.n_f, again.erp_len) == (model.n_f, model.erp_len)
