"""Glue for the offline decoding chain: filter -> decimate -> spatial
filter -> epochs -> classifier -> character decoding -> metrics.

Everything here is deterministic given its inputs; the functions exist so
the CLI and the test suite drive the exact same code.
"""

from dataclasses import dataclass, field

import numpy as np

from . import blda, decoder, dsp, metrics, xdawn
from .errors import BundleError, PipelineError
from .patterns import FlashPattern, SpellerMatrix
from .scheduler import Schedule, StimulusEvent, slots_per_repetition


@dataclass
class PipelineConfig:
    """Preprocessing and model parameters for training and evaluation."""

    low_hz: float = 1.0
    high_hz: float = 12.5
    filter_order: int = 4
    fs_out_hz: float = 25.0
    window_s: float = 0.6
    n_f: int = 4
    blda_tol: float = 1e-6
    blda_max_iter: int = 200

    @property
    def erp_len(self) -> int:
        return int(round(self.window_s * self.fs_out_hz))


@dataclass
class EvalResult:
    """Cross-session evaluation output."""

    accuracy_by_k: np.ndarray
    roc: metrics.RocCurve
    auc: float
    decisions: list = field(default_factory=list)


def preprocess(rec: dsp.Recording, cfg: PipelineConfig) -> dsp.Recording:
    """Bandpass then decimate; a non-finite input sample shows up in every
    later output sample of its channel (the filter is a causal IIR)."""
    spec = dsp.design_bandpass(rec.fs_hz, cfg.low_hz, cfg.high_hz, cfg.filter_order)
    low = dsp.decimate(dsp.filter_recording(spec, rec), cfg.fs_out_hz)
    finite = np.isfinite(low.samples).all(axis=0)
    if not finite.all():
        name = low.channel_names[int(np.argmin(finite))]
        raise PipelineError(f"channel {name!r} holds non-finite samples")
    return low


def train_models(
    rec: dsp.Recording, cfg: PipelineConfig
) -> tuple[xdawn.SpatialFilterModel, blda.BldaModel]:
    """Fit the spatial filters and the classifier on one raw session."""
    low = preprocess(rec, cfg)
    sf = xdawn.fit_xdawn(low, erp_len=cfg.erp_len, n_f=cfg.n_f)
    epochs = dsp.extract_epochs(xdawn.apply_spatial_filter(sf, low), cfg.window_s)
    clf = blda.fit_blda(
        epochs.epochs, epochs.labels, tol=cfg.blda_tol, max_iter=cfg.blda_max_iter
    )
    return sf, clf


def score_session(
    rec: dsp.Recording,
    sf: xdawn.SpatialFilterModel,
    clf: blda.BldaModel,
    cfg: PipelineConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-flash-event classifier scores and is-target labels, in order."""
    low = preprocess(rec, cfg)
    epochs = dsp.extract_epochs(xdawn.apply_spatial_filter(sf, low), cfg.window_s)
    return blda.score(clf, epochs.epochs), epochs.labels


def evaluate(
    train_rec: dsp.Recording,
    test_rec: dsp.Recording,
    test_schedule: Schedule,
    cfg: PipelineConfig,
    matrix: SpellerMatrix | None = None,
) -> EvalResult:
    """Train on one session, decode and score the other."""
    sf, clf = train_models(train_rec, cfg)
    scores, labels = score_session(test_rec, sf, clf, cfg)
    decisions = decoder.decode_characters(test_schedule, scores, test_schedule.pattern, matrix)
    accuracy = decoder.accuracy_by_repetition(decisions, test_schedule.targets)
    curve = metrics.roc(scores, labels)
    return EvalResult(accuracy_by_k=accuracy, roc=curve, auc=curve.auc, decisions=decisions)


def schedule_meta(schedule: Schedule) -> dict:
    """Bundle ``meta`` keys for a schedule, read back by schedule_from_bundle
    (``n`` and ``slots_per_repetition`` only record provenance)."""
    return {
        "paradigm": schedule.paradigm,
        "n": schedule.n,
        "reps": schedule.reps,
        "isi_s": schedule.isi_s,
        "flash_duration_s": schedule.flash_duration_s,
        "inter_char_gap_s": schedule.inter_char_gap_s,
        "slots_per_repetition": schedule.slots_per_repetition,
        "targets": [list(t) for t in schedule.targets],
        "pattern": schedule.pattern.to_json(),
    }


def schedule_from_bundle(manifest: dict, events: list[StimulusEvent]) -> Schedule:
    """Rebuild the Schedule a bundle was generated from (see schedule_meta)."""
    meta = manifest.get("meta", {})
    try:
        pattern = FlashPattern.from_json(meta["pattern"])
        slots_per_repetition(meta["paradigm"], pattern.n)  # rejects an unknown paradigm
        return Schedule(
            pattern=pattern,
            paradigm=meta["paradigm"],
            isi_s=float(meta["isi_s"]),
            flash_duration_s=float(meta["flash_duration_s"]),
            reps=int(meta["reps"]),
            targets=[(int(r), int(c)) for r, c in meta["targets"]],
            events=events,
            seed=meta.get("seed"),
            inter_char_gap_s=float(meta.get("inter_char_gap_s", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"session manifest lacks usable schedule metadata ({exc})") from exc
