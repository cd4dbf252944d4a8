"""Glue for the offline decoding chain: filter -> decimate -> spatial
filter -> epochs -> classifier -> character decoding -> metrics.

Everything here is deterministic given its inputs; the functions exist so
the CLI and the test suite drive the exact same code.  ``open_bundle``
reads a bundle and checks it before any filtering: ``meta`` by the JSON
types of ``session_io.manifest_field``, the schedule by ``Schedule``
itself, and ``schedule_from_bundle`` adds only that the events hold each
of its flashes once; ``design_filter`` is the one rule for a rate.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blda, decoder, dsp, metrics, session_io, xdawn
from .errors import BundleError, RateError, ValidationError
from .scheduler import BLOCKS, Events, Schedule


@dataclass
class PipelineConfig:
    """Preprocessing and model parameters for training and evaluation: the
    paper's offline protocol, written only here (the dsp, xdawn and blda
    functions take each value without a default)."""

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
    n_f: int  # spatial components fitted, at most the configured n_f
    decisions: decoder.Decisions


def design_filter(fs_hz: float, cfg: PipelineConfig) -> dsp.FilterSpec:
    """The band of ``cfg`` designed at ``fs_hz``, a rate that must also be an
    integer multiple of ``cfg.fs_out_hz``: a rate that cannot carry either is
    a RateError.  ``RunConfig.validate`` applies it to the synthesis rate,
    ``open_bundle`` to a bundle's and ``preprocess`` to a recording's."""
    spec = dsp.design_bandpass(fs_hz, cfg.low_hz, cfg.high_hz, cfg.filter_order)
    dsp._decimation_factor(fs_hz, cfg.fs_out_hz)
    return spec


def open_bundle(path, cfg: PipelineConfig) -> tuple[dsp.Recording, Schedule]:
    """A bundle's recording and the schedule in its ``meta``, which its events
    must follow, from one parse of its manifest; then a rate that does not
    fit ``design_filter`` is a ValidationError naming the bundle's fs_hz."""
    manifest = session_io.read_manifest(path)
    rec = session_io.read_session(path, manifest)
    schedule = schedule_from_bundle(path, manifest, rec.events)
    try:
        design_filter(rec.fs_hz, cfg)
    except RateError as exc:
        raise ValidationError(f"{Path(path) / session_io.MANIFEST_NAME}: fs_hz {rec.fs_hz} does "
                              f"not fit the pipeline config: {exc}") from exc
    return rec, schedule


def preprocess(rec: dsp.Recording, cfg: PipelineConfig) -> dsp.Recording:
    """Bandpass then decimate: the only step that reads the raw signal, run
    once per recording.  A non-finite input sample anywhere is a
    PipelineError naming its channel (see ``dsp.filter_recording``)."""
    return dsp.filter_recording(design_filter(rec.fs_hz, cfg), rec, cfg.fs_out_hz)


def _require_low_rate(low: dsp.Recording, cfg: PipelineConfig) -> None:
    """Models are fitted and applied only to preprocess output."""
    if low.fs_hz != cfg.fs_out_hz:
        raise ValidationError(
            f"recording is at {low.fs_hz} Hz, but the models take the {cfg.fs_out_hz} Hz "
            f"output of preprocess"
        )


def train_models(
    low: dsp.Recording, cfg: PipelineConfig
) -> tuple[xdawn.SpatialFilterModel, blda.BldaModel]:
    """Fit the spatial filters and the classifier on one preprocessed session."""
    _require_low_rate(low, cfg)
    sf = xdawn.fit_xdawn(low, cfg.erp_len, cfg.n_f)
    epochs = dsp.extract_epochs(xdawn.apply_spatial_filter(sf, low), cfg.window_s)
    clf = blda.fit_blda(epochs.epochs, epochs.labels, cfg.blda_tol, cfg.blda_max_iter)
    return sf, clf


def score_session(
    low: dsp.Recording,
    sf: xdawn.SpatialFilterModel,
    clf: blda.BldaModel,
    cfg: PipelineConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-flash-event classifier scores and is-target labels, in order, for
    one preprocessed session."""
    _require_low_rate(low, cfg)
    epochs = dsp.extract_epochs(xdawn.apply_spatial_filter(sf, low), cfg.window_s)
    return blda.score(clf, epochs.epochs), epochs.labels


def evaluate(
    train_low: dsp.Recording, test_low: dsp.Recording, test_schedule: Schedule, cfg: PipelineConfig
) -> EvalResult:
    """Train on one preprocessed session, decode and score the other."""
    sf, clf = train_models(train_low, cfg)
    scores, labels = score_session(test_low, sf, clf, cfg)
    decisions = decoder.decode_characters(test_schedule, scores)
    accuracy = decoder.accuracy_by_repetition(decisions, test_schedule.targets)
    curve = metrics.roc(scores, labels)
    return EvalResult(accuracy_by_k=accuracy, roc=curve, auc=curve.auc, n_f=sf.n_f,
                      decisions=decisions)


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
    }


def schedule_from_bundle(path, manifest: dict, events: Events) -> Schedule:
    """Rebuild the Schedule a bundle was generated from (see schedule_meta),
    each ``meta`` field read by its JSON type (``session_io.manifest_field``);
    the pattern comes with the events, whose reader checked it."""
    fields = {key: session_io.manifest_field(path, manifest, f"meta.{key}", must_be, default)
              for key, must_be, default in (
                  ("paradigm", "a string", None), ("isi_s", "a JSON number", None),
                  ("flash_duration_s", "a JSON number", None), ("reps", "a JSON integer", None),
                  ("targets", "a list of [integer, integer] pairs", None),
                  ("inter_char_gap_s", "a JSON number", 0.0))}
    try:
        schedule = Schedule(**fields, events=events)
    except ValidationError as exc:
        raise BundleError(f"session manifest lacks usable schedule metadata ({exc})") from exc
    chars, reps, n, flash = len(schedule.targets), schedule.reps, schedule.n, events.is_flash
    keys = (events.char_index[flash], events.repetition[flash], events.block[flash],
            events.flash_id[flash] - 1)
    # each flash's rank in the grid's row-major order; the first gap lies within
    # keys.size + 1 repetitions, and a flash past them clips to a rank after it
    grid = (chars, min(reps, keys[0].size + 1), 2, n)
    ranks = np.unique(np.ravel_multi_index(keys, grid, mode="clip"))
    if keys[0].size < chars * reps * 2 * n:  # the first rank not there is the first gap
        c, r, b, i = np.unravel_index(np.count_nonzero(ranks == np.arange(ranks.size)), grid)
        raise BundleError(
            f"no flash event for character {c}, repetition {r}, {BLOCKS[b]} block, flash id "
            f"{i + 1} of the schedule in meta: {chars} characters, {reps} repetitions"
        )
    if ranks.size < keys[0].size:  # the decoder takes one score per flash
        raise BundleError("two flash events share a character, repetition, block and flash id")
    return schedule
