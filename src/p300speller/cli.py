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
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

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
    background_sigma_uv: float = 1.0
    ar_coeff: float = 0.95
    alpha_amp_uv: float = 0.0
    alpha_freq_hz: float = 10.0
    template_scale: float = 1.0
    blink_enabled: bool = True
    blink_floor_s: float = 0.2
    blink_ceiling_s: float = 0.5
    blink_floor_gain: float = 0.3
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
        if self.synth.fs_hz <= 2 * self.pipeline.high_hz:
            raise ValidationError("synth fs_hz must exceed twice the bandpass upper edge")


def load_config(path: str | None) -> RunConfig:
    """Build a RunConfig from an optional JSON file, rejecting unknown keys."""
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    _apply_section(cfg, raw, {"synth": SynthConfig, "pipeline": PipelineConfig}, path)
    return cfg


def _apply_section(obj, raw: dict, nested: dict, where: str) -> None:
    known = {f.name for f in fields(obj)}
    for key, value in raw.items():
        if key not in known:
            raise ValidationError(f"{where}: unknown config key {key!r}")
        if key in nested:
            if not isinstance(value, dict):
                raise ValidationError(f"{where}: {key!r} must be a JSON object")
            _apply_section(getattr(obj, key), value, {}, f"{where}:{key}")
        else:
            setattr(obj, key, value)


# ---------------------------------------------------------------- commands


def cmd_pattern(args) -> int:
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
    if kind == "constrained" and n < 3:
        raise ValidationError(f"constrained construction needs n >= 3 (got {n})")
    if n < 2:
        raise ValidationError(f"grid dimension must be >= 2, got {n}")
    if seed is None:
        raise ValidationError(f"--seed is required for kind {kind!r}")
    rng = np.random.default_rng(seed)
    if kind == "permuted":
        return patterns.make_permuted_pattern(n, rng.permutation(n * n) + 1)
    if kind == "constrained":
        pi_r = rng.permutation(n) + 1
        pi_c = rng.permutation(n) + 1
        return patterns.make_constrained_pattern(n, pi_r, pi_c)
    raise ValidationError(f"unknown pattern kind {kind!r}")


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.paradigm:
        cfg.paradigm = args.paradigm
    if args.reps is not None:
        cfg.reps = args.reps
    if args.isi is not None:
        cfg.isi_s = args.isi
    if args.targets is not None:
        cfg.target_text = args.targets
    if args.pattern_kind is not None:
        cfg.pattern_kind = args.pattern_kind
    cfg.validate()

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
    visual = (
        synth.default_templates(s.visual_response_scale) if s.visual_response_scale > 0 else None
    )
    rec = synth.synthesize_session(
        sched,
        templates=synth.default_templates(s.template_scale),
        noise=synth.NoiseModel(
            s.background_sigma_uv, s.ar_coeff, s.alpha_amp_uv, s.alpha_freq_hz
        ),
        blink=blink,
        fs_hz=s.fs_hz,
        onset_jitter_s=s.onset_jitter_s,
        seed=synth_seed,
        visual_templates=visual,
    )
    meta = {
        **pipeline.schedule_meta(sched),
        "seed": args.seed,
        "target_text": cfg.target_text,
        "config": asdict(cfg),
    }
    session_io.write_session(rec, args.out, meta=meta)
    print(
        f"wrote {args.out}: {cfg.paradigm}, {len(targets)} characters x {cfg.reps} reps, "
        f"{sched.slots_per_repetition} slots/repetition, seed {args.seed}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    rec = session_io.read_session(args.session)
    sf, clf = pipeline.train_models(rec, cfg.pipeline)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write(out / "xdawn.json", _model_bytes(sf))
    atomic_write(out / "blda.json", _model_bytes(clf))
    print(
        f"wrote {out}/xdawn.json ({sf.n_f} components, rho_1={sf.rho[0]:.4f}) and "
        f"{out}/blda.json (converged={clf.converged}, {clf.iterations} iterations)"
    )
    return EXIT_OK


def _model_bytes(model: SpatialFilterModel | BldaModel) -> bytes:
    return (json.dumps(model.to_json(), sort_keys=True, indent=2) + "\n").encode()


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    train_rec = session_io.read_session(args.train_session)
    test_rec = session_io.read_session(args.test_session)
    # (session to fit on, session to score, bundle of the scored session)
    directions = [(train_rec, test_rec, args.test_session)]
    if args.swap:
        directions.append((test_rec, train_rec, args.train_session))
    runs = []
    for fit_rec, score_rec, score_path in directions:
        sched = pipeline.schedule_from_bundle(session_io.read_manifest(score_path), score_rec.events)
        matrix = patterns.default_matrix(sched.n)
        runs.append((sched, pipeline.evaluate(fit_rec, score_rec, sched, cfg.pipeline, matrix)))
    accuracy = np.mean([result.accuracy_by_k for _, result in runs], axis=0)
    auc = float(np.mean([result.auc for _, result in runs]))

    test = runs[0][0]
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
        points = result.roc.points
        roc_lines = ["fpr,tpr"] + [f"{float(fpr)!r},{float(tpr)!r}" for fpr, tpr in points]
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

    header = "subject,cp300_mean_acc,xp300_mean_acc,cp300_auc,xp300_auc"
    rows = []
    for i, (c, x) in enumerate(zip(cp, xp), start=1):
        rows.append(f"{i},{c['mean_acc']!r},{x['mean_acc']!r},{c['auc']!r},{x['auc']!r}")

    def column(values):
        return np.asarray(values, dtype=float)

    cp_acc, xp_acc = column([c["mean_acc"] for c in cp]), column([x["mean_acc"] for x in xp])
    cp_auc, xp_auc = column([c["auc"] for c in cp]), column([x["auc"] for x in xp])
    rows.append(
        "Mean,"
        + ",".join(repr(float(v.mean())) for v in (cp_acc, xp_acc, cp_auc, xp_auc))
    )
    rows.append(
        "SD,"
        + ",".join(repr(float(v.std(ddof=1))) for v in (cp_acc, xp_acc, cp_auc, xp_auc))
    )
    csv_text = header + "\n" + "\n".join(rows) + "\n"

    # paired comparisons, cp300 minus xp300 (negative t = xp300 higher)
    t_acc, df, p_acc = metrics.paired_t_test(cp_acc, xp_acc)
    t_auc, _, p_auc = metrics.paired_t_test(cp_auc, xp_auc)
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
    try:
        lines = (path / "metrics.csv").read_text().strip().splitlines()
        accuracies = [float(line.split(",")[1]) for line in lines[1:]]
        summary = (path / "summary.txt").read_text()
    except FileNotFoundError as exc:
        raise BundleError(f"{path}: not an eval output directory ({exc})") from None
    auc = None
    for line in summary.splitlines():
        if line.startswith("auc="):
            auc = float(line.split("=", 1)[1])
    if auc is None or not accuracies:
        raise BundleError(f"{path}: missing auc or accuracy values")
    return {"mean_acc": float(np.mean(accuracies)), "auc": auc}


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
    p.add_argument("--isi", type=float, default=None)
    p.add_argument("--targets", default=None, help="copy-spelling text")
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
