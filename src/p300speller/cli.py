"""Command-line front end.

Subcommands cover the whole workflow: ``pattern`` emits flash-index
matrices, ``simulate`` writes a synthetic copy-spelling session bundle,
``train`` fits the spatial filter + classifier on a bundle, ``eval``
cross-evaluates two bundles into metrics CSVs, and ``report`` compares
matched cohorts of eval outputs with paired t-tests.

Exit codes are stable: 0 success, 2 configuration/validation failure,
3 I/O failure, 4 pipeline/numeric failure.  Every command is
deterministic given its config and seeds.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import metrics, patterns, pipeline, scheduler, session_io, synth
from .blda import BldaModel
from .decoder import decisions_csv
from .errors import BundleError, PipelineError, ValidationError
from .pipeline import PipelineConfig
from .scheduler import CP300, XP300
from .session_io import atomic_write
from .xdawn import SpatialFilterModel

DEFAULT_TARGET_TEXT = "THEQUICKBROWNFOX1234"  # 20 characters, copy-spelling default

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PIPELINE = 4


@dataclass
class SynthConfig:
    """Synthetic-session knobs (all magnitudes are simulation defaults)."""

    fs_hz: float = 2000.0
    background_sigma_uv: float = synth.NoiseModel.background_sigma_uv
    ar_coeff: float = synth.NoiseModel.ar_coeff
    alpha_amp_uv: float = synth.NoiseModel.alpha_amp_uv
    alpha_freq_hz: float = synth.NoiseModel.alpha_freq_hz
    template_scale: float = 1.0
    blink_enabled: bool = True
    blink_floor_s: float = synth.BlinkModel.tti_floor_s
    blink_ceiling_s: float = synth.BlinkModel.tti_ceiling_s
    blink_floor_gain: float = synth.BlinkModel.floor_gain
    onset_jitter_s: float = 0.0
    visual_response_scale: float = 0.0


@dataclass
class RunConfig:
    """Session-level configuration; defaults mirror the experimental protocol
    (6x6 grid, 10 repetitions, 133 ms ISI, 20 copy-spelled characters)."""

    paradigm: str = XP300
    n: int = 6
    reps: int = 10
    isi_s: float = 0.133
    flash_duration_s: float | None = None  # defaults to isi_s / 2
    inter_char_gap_s: float = 0.0
    target_text: str = DEFAULT_TARGET_TEXT
    pattern_kind: str | None = None  # rc | permuted | constrained; default by paradigm
    synth: SynthConfig = field(default_factory=SynthConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    def resolved_pattern_kind(self) -> str:
        if self.pattern_kind is not None:
            return self.pattern_kind
        return "rc" if self.paradigm == CP300 else "constrained"

    def validate(self) -> None:
        """Checks no builder makes; the pattern and schedule builders own the rest."""
        if self.paradigm not in (CP300, XP300):
            raise ValidationError(f"paradigm must be {CP300!r} or {XP300!r}")
        # simulate writes no bundle train rejects for its band or rate
        pipeline.design_filter(self.synth.fs_hz, self.pipeline)


def load_config(args) -> RunConfig:
    """Build a RunConfig from the optional JSON file ``args.config``, then
    from every flag named after a RunConfig field (flags win)."""
    cfg = RunConfig()
    if args.config is not None:
        try:
            raw = json.loads(session_io.read_text(args.config))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{args.config}: invalid JSON at line {exc.lineno}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{args.config}: {_not_utf8(exc)}") from exc
        except (RecursionError, ValueError) as exc:  # ValueError: an integer past 4,300 digits
            raise ValidationError(f"{args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationError(f"{args.config}: config must be a JSON object")
        _apply_section(cfg, raw, args.config)
    flags = {f.name: getattr(args, f.name, None) for f in fields(cfg)}
    _apply_section(cfg, {k: v for k, v in flags.items() if v is not None}, "command line")
    return cfg


JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string", dict: "object"}


def _apply_section(obj, raw: dict, where: str) -> None:
    """Set the dataclass fields of ``obj`` from ``raw``, recursing into nested
    dataclasses; each value must match its field's annotation, and none is
    converted."""
    types = get_type_hints(type(obj))
    for key, value in raw.items():
        if key not in types:
            raise ValidationError(f"{where}: unknown config key {key!r}")
        section = is_dataclass(types[key])
        allowed = (dict,) if section else get_args(types[key]) or (types[key],)
        if not _fits(value, allowed):
            expected = " or ".join(JSON_TYPES.get(t, "null") for t in allowed)
            raise ValidationError(f"{where}: {key!r} must be {expected}, got {json.dumps(value)}")
        if section:
            _apply_section(getattr(obj, key), value, f"{where}:{key}")
        else:
            setattr(obj, key, value)


def _fits(value, allowed: tuple) -> bool:
    """An int may stand for a float, a bool only for a bool, NaN or ±inf for nothing."""
    if isinstance(value, bool):
        return bool in allowed
    if isinstance(value, float):
        return float in allowed and math.isfinite(value)
    return isinstance(value, allowed) or (isinstance(value, int) and float in allowed)


# ---------------------------------------------------------------- commands


def cmd_pattern(args) -> int:
    if args.n > patterns.MAX_N:  # before the n x n matrices, or the n^2 cells permuted
        raise ValidationError(f"--n must be at most {patterns.MAX_N}, got {args.n}")
    p = _build_pattern(args.kind, args.n, args.seed)
    payload = json.dumps(p.to_json(), sort_keys=True, indent=2) + "\n"
    if args.out:
        atomic_write(Path(args.out), payload.encode())
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _build_pattern(kind: str, n: int, seed: int | None) -> patterns.FlashPattern:
    if kind == "rc":
        return patterns.make_rc_pattern(n)
    rng = None if seed is None else np.random.default_rng(seed)
    if kind == "constrained":
        # the maker checks n before it draws pi_r, then pi_c (identity without a seed)
        pattern = patterns.make_constrained_pattern(n, rng=rng)
    elif kind != "permuted":
        raise ValidationError(f"unknown pattern kind {kind!r}")
    if rng is None:
        raise ValidationError(f"--seed is required for kind {kind!r}")
    if kind == "permuted":
        return patterns.make_permuted_pattern(n, rng.permutation(n * n) + 1)
    return pattern


def cmd_simulate(args) -> int:
    cfg = load_config(args)
    cfg.validate()
    side = math.isqrt(len(patterns.ALPHANUM))
    if cfg.n > side:
        raise ValidationError(f"target_text is spelled on the {side}x{side} alphanumeric grid "
                              f"(A-Z, 0-9), so simulate needs n <= {side}, got n={cfg.n}")

    # independent child seeds so pattern, schedule, and noise streams
    # do not alias each other
    pattern_seed, schedule_seed, synth_seed = [
        int(s.generate_state(1)[0]) for s in np.random.SeedSequence(args.seed).spawn(3)
    ]
    p = _build_pattern(cfg.resolved_pattern_kind(), cfg.n, pattern_seed)
    matrix = patterns.default_matrix(cfg.n)
    targets = [matrix.locate(ch) for ch in cfg.target_text]
    make = scheduler.make_cp300_schedule if cfg.paradigm == CP300 else scheduler.make_xp300_schedule
    sched = make(
        p,
        reps=cfg.reps,
        isi_s=cfg.isi_s,
        targets=targets,
        seed=schedule_seed,
        flash_duration_s=cfg.flash_duration_s,
        inter_char_gap_s=cfg.inter_char_gap_s,
    )

    s = cfg.synth
    blink = (
        synth.BlinkModel(s.blink_floor_s, s.blink_ceiling_s, s.blink_floor_gain)
        if s.blink_enabled
        else None
    )
    if s.visual_response_scale < 0:
        raise ValidationError(f"visual_response_scale must be >= 0, got {s.visual_response_scale}")
    visual = (
        synth.default_templates(s.visual_response_scale) if s.visual_response_scale > 0 else None
    )
    noise = synth.NoiseModel(s.background_sigma_uv, s.ar_coeff, s.alpha_amp_uv, s.alpha_freq_hz)
    meta = {
        **pipeline.schedule_meta(sched),
        "seed": args.seed,
        "target_text": cfg.target_text,
        "config": asdict(cfg),
    }
    # the signal goes to disk block by block as it is rendered, and the events
    # a block of lines at a time while the main thread waits for a noise draw
    with (
        session_io.streamed_signal(args.out) as (signal_tmp, events_tmp),
        open(events_tmp, "wb") as events_file,
    ):
        lines = session_io.write_events(sched.events, events_file)
        rec = synth.synthesize_session(
            sched,
            templates=synth.default_templates(s.template_scale),
            noise=noise,
            blink=blink,
            fs_hz=s.fs_hz,
            onset_jitter_s=s.onset_jitter_s,
            seed=synth_seed,
            visual_templates=visual,
            out=signal_tmp,
            spare=lines,
        )
        for _ in lines:  # the lines the render left
            pass
    session_io.write_session(rec, args.out, meta=meta, streamed=True)
    print(
        f"wrote {args.out}: {cfg.paradigm}, {len(targets)} characters x {cfg.reps} reps, "
        f"{sched.slots_per_repetition} slots/repetition, seed {args.seed}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args)
    rec, _ = pipeline.open_bundle(args.session, cfg.pipeline)  # the fit takes the checked flags
    sf, clf = pipeline.train_models(pipeline.preprocess(rec, cfg.pipeline), cfg.pipeline)
    _note_clamp(cfg.pipeline, sf.n_f)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write(out / "xdawn.json", _model_bytes(sf))
    atomic_write(out / "blda.json", _model_bytes(clf))
    print(
        f"wrote {out}/xdawn.json ({sf.n_f} components, rho_1={sf.rho[0]:.4f}) and "
        f"{out}/blda.json (converged={clf.converged}, {clf.iterations} iterations)"
    )
    return EXIT_OK


def _note_clamp(cfg: PipelineConfig, fitted_n_f: int) -> None:
    """Say on stderr, on every fit that clamps it, that n_f was clamped."""
    if fitted_n_f < cfg.n_f:
        print(f"note: only {fitted_n_f} spatial components available; clamped n_f from "
              f"{cfg.n_f}", file=sys.stderr)


def _model_bytes(model: SpatialFilterModel | BldaModel) -> bytes:
    return (json.dumps(model.to_json(), sort_keys=True, indent=2) + "\n").encode()


def cmd_eval(args) -> int:
    cfg = load_config(args)
    # each bundle read and checked, the test session's first, before any filtering
    opened = [pipeline.open_bundle(path, cfg.pipeline)
              for path in (args.test_session, args.train_session)]
    test, train = [schedule for _, schedule in opened]
    if args.swap and test.reps != train.reps:
        raise ValidationError(
            f"--swap averages accuracy per repetition count, but the test session has "
            f"{test.reps} repetitions and the train session {train.reps}"
        )
    # one raw signal at a time, the train session's first: each recording, and
    # its mapping, is gone before the next one is filtered
    lows = [pipeline.preprocess(opened.pop()[0], cfg.pipeline) for _ in range(2)]
    # (index of the session to fit on, index of the session to score, its schedule)
    directions = [(0, 1, test), (1, 0, train)] if args.swap else [(0, 1, test)]
    runs = []
    for fit, scored, sched in directions:
        result = pipeline.evaluate(lows[fit], lows[scored], sched, cfg.pipeline)
        _note_clamp(cfg.pipeline, result.n_f)
        runs.append((sched, result))
    accuracy = np.mean([result.accuracy_by_k for _, result in runs], axis=0)
    auc = float(np.mean([result.auc for _, result in runs]))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["k,accuracy,itr_bpm"]
    for k, acc in enumerate(accuracy, start=1):
        itr = metrics.itr_bpm(
            float(acc), test.n * test.n, test.paradigm, reps=k, isi_s=test.isi_s, n=test.n
        )
        lines.append(f"{k},{float(acc)!r},{itr!r}")
    atomic_write(out / "metrics.csv", ("\n".join(lines) + "\n").encode())
    for suffix, (sched, result) in zip(("", "_swap"), runs):
        roc_lines = ["fpr,tpr"] + [f"{fpr!r},{tpr!r}" for fpr, tpr in result.roc.points.tolist()]
        atomic_write(out / f"roc{suffix}.csv", ("\n".join(roc_lines) + "\n").encode())
        decisions = decisions_csv(result.decisions, sched.targets)
        atomic_write(out / f"decisions{suffix}.csv", decisions.encode())
    atomic_write(out / "summary.txt", f"auc={auc!r}\n".encode())
    print(f"wrote {out}: auc={auc:.4f}, accuracy@k={accuracy[-1]:.4f} (k={len(accuracy)})")
    return EXIT_OK


def cmd_report(args) -> int:
    if len(args.cp300) != len(args.xp300):
        raise ValidationError(
            f"cohort size mismatch: {len(args.cp300)} cp300 vs {len(args.xp300)} xp300 runs"
        )
    cp = [_read_eval_dir(d) for d in args.cp300]
    xp = [_read_eval_dir(d) for d in args.xp300]
    columns = [np.array([run[key] for run in cohort]) for key in ("mean_acc", "auc")
               for cohort in (cp, xp)]
    cp_acc, xp_acc, cp_auc, xp_auc = columns
    # paired comparisons, cp300 minus xp300 (negative t = xp300 higher); first,
    # as they reject a single pair, whose SD below has no degrees of freedom
    t_acc, df, p_acc = metrics.paired_t_test(cp_acc, xp_acc)
    t_auc, _, p_auc = metrics.paired_t_test(cp_auc, xp_auc)

    header = "subject,cp300_mean_acc,xp300_mean_acc,cp300_auc,xp300_auc"
    rows = [f"{i},{c['mean_acc']!r},{x['mean_acc']!r},{c['auc']!r},{x['auc']!r}"
            for i, (c, x) in enumerate(zip(cp, xp), start=1)]
    rows.append("Mean," + ",".join(repr(float(v.mean())) for v in columns))
    rows.append("SD," + ",".join(repr(float(v.std(ddof=1))) for v in columns))
    csv_text = header + "\n" + "\n".join(rows) + "\n"
    test_text = (
        f"mean_accuracy: t({df})={t_acc:.4f}, p={p_acc:.3e}\n"
        f"auc: t({df})={t_auc:.4f}, p={p_auc:.3e}\n"
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write(out / "comparison.csv", csv_text.encode())
    atomic_write(out / "ttests.txt", test_text.encode())
    sys.stdout.write(csv_text)
    sys.stdout.write(test_text)
    return EXIT_OK


def _read_eval_dir(path) -> dict:
    path = Path(path)
    metrics_csv, summary_txt = path / "metrics.csv", path / "summary.txt"
    try:
        rows = _numbered_lines(metrics_csv)[1:]  # after the header
        summary = _numbered_lines(summary_txt)
    except FileNotFoundError as exc:
        raise BundleError(f"{path}: not an eval output directory ({exc})") from None
    accuracies = []
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) < 2:
            raise BundleError(f"{metrics_csv}:{lineno}: no accuracy field in {line!r}")
        accuracies.append(_number(metrics_csv, lineno, fields[1]))
    auc = None
    for lineno, line in summary:
        if line.startswith("auc="):
            auc = _number(summary_txt, lineno, line.split("=", 1)[1])
    if auc is None or not accuracies:
        raise BundleError(f"{path}: missing auc or accuracy values")
    return {"mean_acc": float(np.mean(accuracies)), "auc": auc}


def _numbered_lines(path: Path) -> list[tuple[int, str]]:
    """The non-blank lines of a text file, each with its 1-based line number."""
    try:
        text = session_io.read_text(path)
    except UnicodeDecodeError as exc:
        raise BundleError(f"{path}: {_not_utf8(exc)}") from None
    return [(i, line) for i, line in enumerate(text.splitlines(), start=1) if line.strip()]


def _number(path: Path, lineno: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise BundleError(f"{path}:{lineno}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise BundleError(f"{path}:{lineno}: {text!r} is not a finite number")
    return value


def _not_utf8(exc: UnicodeDecodeError) -> str:
    line = exc.object[: exc.start].count(b"\n") + 1
    return f"not UTF-8 text at line {line} ({exc.reason} at byte {exc.start})"


# ---------------------------------------------------------------- parser


def non_negative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p300speller",
        description="Matrix-speller toolkit: patterns, schedules, synthetic EEG, decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern", help="emit a flash pattern as JSON")
    p.add_argument("--kind", choices=["rc", "permuted", "constrained"], default="constrained")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--seed", type=non_negative_int, default=None)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("simulate", help="write a synthetic session bundle")
    p.add_argument("--paradigm", choices=[CP300, XP300], default=None)
    p.add_argument("--out", required=True, help="bundle directory")
    p.add_argument("--seed", type=non_negative_int, required=True)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--isi", dest="isi_s", type=float, default=None)
    p.add_argument("--targets", dest="target_text", default=None, help="copy-spelling text")
    p.add_argument(
        "--pattern-kind", choices=["rc", "permuted", "constrained"], default=None
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="fit spatial filters + classifier on a bundle")
    p.add_argument("--session", required=True)
    p.add_argument("--out", required=True, help="model output directory")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="cross-session evaluation")
    p.add_argument("--train-session", required=True)
    p.add_argument("--test-session", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--swap", action="store_true", help="average both directions")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="compare matched cohorts of eval outputs")
    p.add_argument("--cp300", nargs="+", required=True, help="eval output directories")
    p.add_argument("--xp300", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BundleError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
