"""The three workloads.

Each runs as a closed loop of rounds, one command at a time.  A round is
one synthetic subject: for each paradigm, two session bundles, ``train``
on the first and ``eval --swap`` on the pair.  Round ``k`` of seed ``s``
always gets the same inputs, whichever run reaches it.
"""

import json
import shutil
import time

import numpy as np
from p300speller import patterns, scheduler, session_io, synth
from p300speller.dsp import Recording
from scipy import signal

from checks import ALPHANUM, BundleSpec, check_bundle, check_eval, check_models, check_report

CP300, XP300 = "cp300", "xp300"
ISI_S = 0.133
PAPER_TEXT = "THEQUICKBROWNFOX1234"  # the CLI's default copy-spelling text
TEMPLATE_SCALE = 0.175  # puts the cohort's mean AUC near the paper's 0.80 / 0.86


def _bundle_seed(rng) -> int:
    # fixed width, so manifests do not grow or shrink with the seed
    return int(rng.integers(100_000, 1_000_000))


class Workload:
    """Shared round structure; subclasses say how a bundle is produced."""

    paradigms = (CP300, XP300)
    n = 6
    n_channels = 8
    config: dict | None = None

    def __init__(self, runner, work, seed: int):
        self.runner = runner
        self.work = work
        self.seed = seed
        self.results = {p: [] for p in self.paradigms}  # checked eval figures per subject
        self.last_pair = None  # ((path, spec), (path, spec)) of the latest eval
        self.config_path = None
        if self.config is not None:
            self.config_path = work / "config.json"
            self.config_path.write_text(json.dumps(self.config))

    def _config_args(self) -> list[str]:
        return ["--config", str(self.config_path)] if self.config_path else []

    def round(self, k: int) -> None:
        rng = np.random.default_rng([self.seed, k])
        subject = self.work / f"subject{k:03d}"
        for paradigm in self.paradigms:
            bundles = []
            for i in (1, 2):
                path = subject / f"{paradigm}-{i}"
                spec = self.produce(path, paradigm, rng)
                bundles.append((path, spec) if spec else None)
            if None in bundles:
                continue
            # both orders of each command: twice the timed samples per bundle made
            for tag, ((a, spec_a), (b, spec_b)) in (("ab", bundles), ("ba", bundles[::-1])):
                models = subject / f"{paradigm}-model-{tag}"
                if self.runner.cli(
                    "train", ["train", "--session", str(a), "--out", str(models)] + self._config_args(),
                    spec_a.duration_s,
                ):
                    self.runner.check(check_models, models, self.n_channels)
                pair = ["--train-session", str(a), "--test-session", str(b), "--swap"] + self._config_args()
                out = subject / f"{paradigm}-eval-{tag}"
                if self.runner.cli("eval", ["eval", "--out", str(out)] + pair,
                                   spec_a.duration_s + spec_b.duration_s):
                    ok, figures = self.runner.check(check_eval, out, spec_b)
                    if ok and tag == "ab":
                        self.results[paradigm].append(figures)
                self.last_pair = ((a, spec_a), (b, spec_b))
        self._drop_bundles(k - 1)

    def fresh_eval(self) -> None:
        """Peak memory of one ``eval --swap`` in a fresh process, on the latest pair."""
        (a, _), (b, spec_b) = self.last_pair
        out = self.work / "fresh-eval"
        argv = ["eval", "--train-session", str(a), "--test-session", str(b), "--out", str(out),
                "--swap"] + self._config_args()
        if self.runner.peak_rss(argv):
            self.runner.check(check_eval, out, spec_b)

    def _drop_bundles(self, k: int) -> None:
        """Bundles are large; keep eval outputs and the latest subject only."""
        for path in (self.work / f"subject{k:03d}").glob("*-[12]"):
            shutil.rmtree(path, ignore_errors=True)

    def finish(self) -> None:
        """The planted response must be found: AUC clearly above chance and
        final accuracy above the 1/N^2 guessing rate."""
        for paradigm, figures in self.results.items():
            auc = np.mean([f["auc"] for f in figures]) if figures else 0.0
            last = np.mean([f["accuracy"][-1] for f in figures]) if figures else 0.0
            self.runner.require(auc >= 0.6, f"{paradigm}: mean AUC {auc:.3f} is not clearly above 0.5")
            self.runner.require(last > 1 / self.n**2,
                                f"{paradigm}: final accuracy {last:.3f} is not above 1/{self.n**2}")


class CliWorkload(Workload):
    """Bundles come from the ``simulate`` command."""

    fs_hz = 2000.0
    reps = 10

    def texts(self, rng) -> str:
        raise NotImplementedError

    def produce(self, path, paradigm, rng):
        text = self.texts(rng)
        spec = BundleSpec.from_text(
            text, paradigm=paradigm, n=self.n, reps=self.reps, isi_s=ISI_S,
            fs_hz=self.fs_hz, n_channels=self.n_channels,
        )
        argv = ["simulate", "--paradigm", paradigm, "--out", str(path),
                "--seed", str(_bundle_seed(rng)), "--reps", str(self.reps),
                "--targets", text] + self._config_args()
        if not self.runner.cli("simulate", argv, spec.duration_s):
            return None
        return spec if self.runner.check(check_bundle, path, spec)[0] else None


class PaperCohort(CliWorkload):
    """The paper's design on the default protocol; one report over the cohort."""

    config = {"synth": {"template_scale": TEMPLATE_SCALE}}

    def texts(self, rng) -> str:
        return PAPER_TEXT

    def finish(self) -> None:
        super().finish()
        cp, xp = self.results[CP300], self.results[XP300]
        evals = sorted(self.work.glob("subject*/*-eval-ab"))
        cp_dirs = [str(p) for p in evals if p.name.startswith(CP300)]
        xp_dirs = [str(p) for p in evals if p.name.startswith(XP300)]
        out = self.work / "report"
        argv = ["report", "--cp300", *cp_dirs, "--xp300", *xp_dirs, "--out", str(out)]
        if self.runner.cli("report", argv, None) and len(cp) == len(cp_dirs) == len(xp) == len(xp_dirs):
            self.runner.check(check_report, out, cp, xp)
        self.runner.require(
            np.mean([r["auc"] for r in xp]) > np.mean([r["auc"] for r in cp]),
            "paper-cohort: mean xp300 AUC does not exceed mean cp300 AUC",
        )


class EventDense(CliWorkload):
    """250 Hz and a long copy-spelling text: per-event work dominates."""

    fs_hz = 250.0
    chars = 30
    config = {"synth": {"template_scale": TEMPLATE_SCALE, "fs_hz": fs_hz}}

    def texts(self, rng) -> str:
        return "".join(ALPHANUM[i] for i in rng.integers(0, len(ALPHANUM), self.chars))


class Wide64(Workload):
    """64 channels at 2 kHz on a 12x12 constrained grid, xp300.

    ``simulate`` cannot make this input (8 fixed channels, and 12x12
    symbols are not characters), so the benchmark builds each bundle: the
    program's pattern, schedule and 8-channel synthetic session give the
    events and a planted response, which a seeded 8->64 mixing matrix
    spreads over 64 channels of independent AR(1) background from this
    file's own generator; ``session_io.write_session`` writes the bundle.
    Only the program's calls are timed as the bundle's production.
    """

    paradigms = (XP300,)
    n = 12
    n_channels = 64
    chars = 3
    reps = 10
    fs_hz = 2000.0
    source_scale = 0.25

    def round(self, k: int) -> None:
        # one head model per subject: both sessions share the mixing matrix
        rng = np.random.default_rng([self.seed, k, 1])
        self.mix = rng.standard_normal((8, self.n_channels)).astype(np.float32) / np.sqrt(8)
        super().round(k)

    def produce(self, path, paradigm, rng):
        n = self.n
        cells = [(int(r), int(c)) for r, c in rng.integers(1, n + 1, (self.chars, 2))]
        spec = BundleSpec(
            paradigm=paradigm, n=n, reps=self.reps, isi_s=ISI_S, fs_hz=self.fs_hz,
            n_channels=self.n_channels, targets=tuple(cells),
            symbols=tuple(f"S{(r - 1) * n + c - 1:03d}" for r, c in cells),
        )
        pi_r, pi_c = rng.permutation(n) + 1, rng.permutation(n) + 1
        schedule_seed, synth_seed, seed = (_bundle_seed(rng) for _ in range(3))
        background_rng = np.random.default_rng(seed)

        def make() -> float:
            t0 = time.perf_counter()
            pattern = patterns.make_constrained_pattern(n, pi_r, pi_c)
            sched = scheduler.make_xp300_schedule(
                pattern, reps=self.reps, isi_s=ISI_S, targets=cells, seed=schedule_seed
            )
            source = synth.synthesize_session(
                sched, templates=synth.default_templates(self.source_scale),
                blink=synth.BlinkModel(), fs_hz=self.fs_hz, seed=synth_seed,
            )
            program_s = time.perf_counter() - t0
            samples = self._background(background_rng, source.n_samples)
            samples += source.samples @ self.mix
            rec = Recording(
                fs_hz=self.fs_hz, samples=samples,
                channel_names=tuple(f"E{i:02d}" for i in range(self.n_channels)),
                events=source.events,
            )
            meta = {
                "paradigm": paradigm, "seed": seed, "n": n, "reps": self.reps, "isi_s": ISI_S,
                "flash_duration_s": sched.flash_duration_s, "inter_char_gap_s": 0.0,
                "slots_per_repetition": sched.slots_per_repetition,
                "targets": [list(t) for t in cells], "pattern": pattern.to_json(),
            }
            t0 = time.perf_counter()
            session_io.write_session(rec, path, meta=meta)
            return program_s + time.perf_counter() - t0

        if not self.runner.produce("simulate", make, spec.duration_s):
            return None
        return spec if self.runner.check(check_bundle, path, spec)[0] else None

    def _background(self, rng, n_samples: int) -> np.ndarray:
        """Independent AR(1) noise per channel (unit innovations), float32, T x C."""
        x = rng.standard_normal((self.n_channels, n_samples), dtype=np.float32)
        y = signal.lfilter(np.float32([1.0]), np.float32([1.0, -0.95]), x, axis=1)
        return np.ascontiguousarray(y.T, dtype=np.float32)


WORKLOADS = {"paper-cohort": PaperCohort, "event-dense": EventDense, "wide-64ch": Wide64}
