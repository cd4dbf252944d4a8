"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with the measured quantities when it
succeeds (run with ``pytest tests/test_acceptance.py -v -s`` to see them);
a failed assertion is the FAIL line.  Stated runtime budgets are asserted
too.
"""

import collections
import itertools
import json
import time

import numpy as np
import pytest
from scipy import linalg

from p300speller.blda import fit_blda, score
from p300speller.cli import main
from p300speller.dsp import Recording, design_bandpass, frequency_response
from p300speller.metrics import itr_bpm, paired_t_test, roc
from p300speller.patterns import (
    default_matrix,
    make_constrained_pattern,
    make_rc_pattern,
    validate_pattern,
)
from p300speller.pipeline import PipelineConfig, evaluate, preprocess
from p300speller.scheduler import (
    BLOCKS,
    Events,
    make_cp300_schedule,
    make_xp300_schedule,
    target_interval_stats,
)
from p300speller.session_io import read_session, write_session
from p300speller.synth import BlinkModel, default_templates, synthesize_session
from p300speller.xdawn import build_toeplitz, fit_xdawn

ISI = 0.133


def test_criterion_01_constrained_patterns_exhaustive():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for n in range(3, 13):
        for _ in range(100):
            p = make_constrained_pattern(n, rng.permutation(n) + 1, rng.permutation(n) + 1)
            report = validate_pattern(p)
            assert report.pair_bijective, (n, p)
            assert report.balanced, (n, p)
            assert report.r_contiguity_violations == 0, (n, p)
            assert report.c_contiguity_violations == 0, (n, p)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s budget"
    print(f"PASS criterion 1: {checked} constrained patterns clean ({elapsed:.2f}s)")


def test_criterion_02_reference_matrices_exact():
    p = make_constrained_pattern(6)
    assert p.r_hat.tolist() == [
        [1, 2, 3, 4, 5, 6],
        [6, 1, 2, 3, 4, 5],
        [5, 6, 1, 2, 3, 4],
        [4, 5, 6, 1, 2, 3],
        [3, 4, 5, 6, 1, 2],
        [2, 3, 4, 5, 6, 1],
    ]
    assert p.c_hat.tolist() == [
        [1, 2, 3, 4, 5, 6],
        [5, 6, 1, 2, 3, 4],
        [3, 4, 5, 6, 1, 2],
        [1, 2, 3, 4, 5, 6],
        [5, 6, 1, 2, 3, 4],
        [3, 4, 5, 6, 1, 2],
    ]
    rc = make_rc_pattern(6)
    assert rc.r_hat.tolist() == [[i] * 6 for i in range(1, 7)]
    assert rc.c_hat.tolist() == [list(range(1, 7))] * 6
    print("PASS criterion 2: reference 6x6 matrices reproduced exactly")


def test_criterion_03_xp300_timing_model():
    start = time.perf_counter()
    pattern = make_constrained_pattern(6)
    gaps = []
    min_tti = np.inf
    below = 0
    total_reps = 0
    for seed in range(25):
        sched = make_xp300_schedule(pattern, reps=400, isi_s=ISI, targets=[(3, 4)], seed=seed)
        total_reps += 400
        stats = target_interval_stats(sched, threshold_s=2 * ISI)
        min_tti = min(min_tti, stats.min_tti_s)
        below += stats.count_below
        by_rep = collections.defaultdict(dict)
        e = sched.events[sched.events.is_flash & sched.events.is_target]
        for repetition, block, onset in zip(e.repetition, e.block, e.onset_s):
            by_rep[repetition][BLOCKS[block]] = onset
        gaps.extend(v["col"] - v["row"] for v in by_rep.values())
    elapsed = time.perf_counter() - start
    assert total_reps >= 10_000
    assert min_tti >= 2 * ISI, f"min TTI {min_tti} below 2*ISI"
    assert below == 0
    mean_gap = float(np.mean(gaps))
    assert mean_gap == pytest.approx(0.931, abs=0.01)
    assert mean_gap > 0.9
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s budget"
    print(
        f"PASS criterion 3: min TTI {min_tti:.3f}s >= {2 * ISI:.3f}s, "
        f"mean within-repetition gap {mean_gap:.4f}s over {total_reps} reps ({elapsed:.2f}s)"
    )


def test_criterion_04_rate_table_arithmetic():
    cases = [
        (0.975, "cp300", 5, 36.64),
        (1.0, "cp300", 10, 19.44),
        (0.975, "xp300", 5, 31.41),
        (1.0, "xp300", 10, 16.66),
    ]
    for p, paradigm, reps, expected in cases:
        got = itr_bpm(p, 36, paradigm, reps, ISI, n=6)
        assert got == pytest.approx(expected, abs=0.01), (p, paradigm, reps, got)
    print("PASS criterion 4: all four ITR table entries within 0.01 bpm")


def test_criterion_05_xdawn_oracle_equivalence():
    start = time.perf_counter()
    worst_angle = 0.0
    worst_rho = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        t_total = int(rng.integers(600, 2000))
        n_ch = int(rng.integers(4, 9))
        erp_len = 15
        samples = rng.standard_normal((t_total, n_ch))
        n_onsets = int(rng.integers(10, 60))
        onsets = np.sort(
            rng.choice(np.arange(0, t_total - erp_len), size=n_onsets, replace=False)
        )
        zeros = np.zeros(n_onsets, dtype=int)
        events = Events(make_rc_pattern(6), onset_s=onsets / 25.0, slot=onsets,
                        char_index=zeros, repetition=zeros, block=zeros, flash_id=zeros + 1,
                        is_target=zeros == 0)
        rec = Recording(fs_hz=25.0, samples=samples,
                        channel_names=tuple(f"ch{i}" for i in range(n_ch)), events=events)
        n_f = min(4, n_ch)
        model = fit_xdawn(rec, erp_len=erp_len, n_f=n_f)

        d = build_toeplitz(onsets, erp_len, t_total)
        q, _ = np.linalg.qr(d)
        vals, vecs = linalg.eigh(samples.T @ q @ q.T @ samples, samples.T @ samples)
        order = np.argsort(vals)[::-1]
        for k in range(n_f):
            u = model.u[:, k]
            v = vecs[:, order[k]] / np.linalg.norm(vecs[:, order[k]])
            angle = float(np.arccos(np.clip(abs(u @ v), -1.0, 1.0)))
            worst_angle = max(worst_angle, angle)
            worst_rho = max(worst_rho, abs(model.rho[k] - vals[order[k]]))
    elapsed = time.perf_counter() - start
    assert worst_angle < 1e-6, worst_angle
    assert worst_rho < 1e-8, worst_rho
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s budget"
    print(
        f"PASS criterion 5: 50 problems, max angle {worst_angle:.2e} rad, "
        f"max rho error {worst_rho:.2e} ({elapsed:.2f}s)"
    )


def test_criterion_06_blda_oracle_equivalence():
    from p300speller.blda import BIAS_PRECISION_SCALE

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(100, 400)), int(rng.integers(4, 30))
        labels = rng.random(n) < 1 / 6
        if labels.sum() < 2:
            labels[:2] = True
        x = rng.standard_normal((n, d))
        x[labels] += 0.7
        m = fit_blda(x, labels)
        assert m.converged, seed
        t = np.where(labels, n / labels.sum(), -n / (~labels).sum())
        g = np.vstack([x.T, np.ones(n)])
        penalties = np.full(d + 1, m.alpha)
        penalties[-1] = BIAS_PRECISION_SCALE * m.alpha
        aug = np.vstack([np.sqrt(m.beta) * g.T, np.diag(np.sqrt(penalties))])
        rhs = np.concatenate([np.sqrt(m.beta) * t, np.zeros(d + 1)])
        w_oracle, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
        worst = max(worst, float(np.abs(w_oracle - m.w).max()))
    assert worst < 1e-8, worst

    rng = np.random.default_rng(99)
    labels = rng.random(300) < 0.5
    toy = np.where(labels[:, None], 1.0, -1.0) + 0.1 * rng.standard_normal((300, 2))
    model = fit_blda(toy, labels)
    auc = roc(score(model, toy), labels).auc
    assert auc == 1.0
    print(f"PASS criterion 6: max posterior-mean error {worst:.2e}, toy AUC {auc}")


def test_criterion_07_filter_response():
    spec = design_bandpass(2000.0)
    low_db, high_db = 20 * np.log10(np.abs(frequency_response(spec, [1.0, 12.5])))
    dc = abs(frequency_response(spec, [0.0])[0])
    mid_db = 20 * np.log10(abs(frequency_response(spec, [5.0])[0]))
    assert low_db == pytest.approx(-3.0, abs=0.1)
    assert high_db == pytest.approx(-3.0, abs=0.1)
    assert dc < 1e-12
    assert -0.2 <= mid_db <= 0.0
    print(
        f"PASS criterion 7: edges {low_db:.3f}/{high_db:.3f} dB, |H(0)|={dc:.1e}, "
        f"5 Hz ripple {mid_db:.4f} dB"
    )


def _cohort_pair(paradigm, subject, reps, text, template_scale=1.0):
    matrix = default_matrix(6)
    targets = [matrix.locate(ch) for ch in text]
    if paradigm == "cp300":
        pattern, make = make_rc_pattern(6), make_cp300_schedule
    else:
        pattern, make = make_constrained_pattern(6), make_xp300_schedule
    sessions = []
    for offset in (0, 1):
        seed = 10_000 + 100 * subject + offset
        sched = make(pattern, reps=reps, isi_s=ISI, targets=targets, seed=seed)
        rec = synthesize_session(
            sched,
            templates=default_templates(template_scale),
            blink=BlinkModel(),
            seed=seed + 7,
        )
        sessions.append((rec, sched))
    return sessions


def test_criterion_08_end_to_end_cohort():
    start = time.perf_counter()
    cfg = PipelineConfig()
    text = "SPELLINGTEST123"  # 15 characters per session
    n_subjects = 10

    # (a) template amplitude zero: chance-level detection
    chance_aucs = []
    for subject in range(n_subjects):
        (train, _), (test, sched) = _cohort_pair("xp300", subject, reps=3,
                                                 text="CHANCE12", template_scale=0.0)
        chance_aucs.append(evaluate(preprocess(train, cfg), preprocess(test, cfg), sched, cfg).auc)
    chance = float(np.mean(chance_aucs))
    assert chance == pytest.approx(0.5, abs=0.05), chance

    # (b) + (c): high-SNR cohort, blink attenuation active, both paradigms
    acc = {"cp300": [], "xp300": []}
    auc = {"cp300": [], "xp300": []}
    for paradigm in ("cp300", "xp300"):
        for subject in range(n_subjects):
            (train, _), (test, sched) = _cohort_pair(paradigm, subject, reps=5, text=text)
            result = evaluate(preprocess(train, cfg), preprocess(test, cfg), sched, cfg)
            acc[paradigm].append(result.accuracy_by_k)
            auc[paradigm].append(result.auc)
    mean_acc = {k: np.mean(v, axis=0) for k, v in acc.items()}
    mean_auc = {k: float(np.mean(v)) for k, v in auc.items()}
    assert mean_auc["xp300"] >= 0.95, mean_auc
    assert mean_auc["cp300"] >= 0.95, mean_auc
    assert mean_acc["xp300"][4] >= 0.95
    assert mean_acc["cp300"][4] >= 0.95

    # (c) paradigm ordering at small repetition budgets
    for k in range(5):
        assert mean_acc["xp300"][k] >= mean_acc["cp300"][k], (k, mean_acc)

    # (d) at equal accuracy the split paradigm pays its two pause slots
    for p in (0.6, 0.8, 0.9, 0.95, 1.0):
        assert itr_bpm(p, 36, "xp300", 5, ISI) < itr_bpm(p, 36, "cp300", 5, ISI)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min budget"
    print(
        "PASS criterion 8: chance AUC "
        f"{chance:.3f}; AUC xp300 {mean_auc['xp300']:.3f} / cp300 {mean_auc['cp300']:.3f}; "
        f"k=5 accuracy xp300 {mean_acc['xp300'][4]:.3f} / cp300 {mean_acc['cp300'][4]:.3f}; "
        f"xp300 >= cp300 at k<=5; ITR ordering holds ({elapsed:.1f}s)"
    )


def test_criterion_09_metrics_self_consistency():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(6, 80))
        scores = np.round(rng.standard_normal(n), 1)
        labels = rng.random(n) < 0.4
        if labels.all() or not labels.any():
            continue
        curve = roc(scores, labels)
        pos, neg = scores[labels], scores[~labels]
        wins = sum(
            1.0 if a > b else 0.5 if a == b else 0.0
            for a, b in itertools.product(pos, neg)
        )
        oracle = wins / (len(pos) * len(neg))
        trapezoid = float(np.trapezoid(curve.points[:, 1], curve.points[:, 0]))
        worst = max(worst, abs(curve.auc - oracle), abs(trapezoid - oracle))
    assert worst < 1e-12, worst

    t, df, _ = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
    assert t == pytest.approx(3.4641, abs=1e-4)
    assert df == 2
    print(f"PASS criterion 9: AUC vs Mann-Whitney max diff {worst:.1e}, t={t:.4f} df={df}")


def test_criterion_10_cli_reproducibility(tmp_path):
    sim_args = ["--seed", "5", "--reps", "3", "--targets", "ABCDEF"]
    for name in ("r1", "r2"):
        assert main(["simulate", "--out", str(tmp_path / name / "a")] + sim_args) == 0
        assert main(
            ["simulate", "--out", str(tmp_path / name / "b"), "--paradigm", "cp300",
             "--seed", "6", "--reps", "3", "--targets", "ABCDEF"]
        ) == 0
        assert main(["train", "--session", str(tmp_path / name / "a"),
                     "--out", str(tmp_path / name / "models")]) == 0
        assert main(["eval", "--train-session", str(tmp_path / name / "a"),
                     "--test-session", str(tmp_path / name / "a"),
                     "--out", str(tmp_path / name / "eval")]) == 0

    mismatches = []
    for sub in ("a", "b", "models", "eval"):
        files1 = sorted((tmp_path / "r1" / sub).iterdir())
        files2 = sorted((tmp_path / "r2" / sub).iterdir())
        assert [f.name for f in files1] == [f.name for f in files2]
        for f1, f2 in zip(files1, files2):
            if f1.read_bytes() != f2.read_bytes():
                mismatches.append(f"{sub}/{f1.name}")
    assert not mismatches, mismatches

    rec = read_session(tmp_path / "r1" / "a")
    write_session(rec, tmp_path / "again", meta=json.loads(
        (tmp_path / "r1" / "a" / "manifest.json").read_text())["meta"])
    for name in ("manifest.json", "signal.f32", "events.jsonl"):
        assert (tmp_path / "again" / name).read_bytes() == (
            tmp_path / "r1" / "a" / name
        ).read_bytes()
    print("PASS criterion 10: byte-identical CLI outputs and bit-exact session round-trip")
