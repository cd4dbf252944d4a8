"""Output checks, each against a computation made here or a property the
method must have; nothing is compared with a stored copy of earlier output.

Every check raises ``CheckError`` with the offending file and value.
"""

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHANUM = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"  # 6x6 layout, row-major
SYNTH_TAIL_S = 1.0  # recording continues this long after the last event


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass(frozen=True)
class BundleSpec:
    """What a session bundle must hold, derived from the inputs alone."""

    paradigm: str
    n: int
    reps: int
    isi_s: float
    fs_hz: float
    n_channels: int
    targets: tuple  # (row, col) per character, 1-based
    symbols: tuple  # displayed symbol per character

    @classmethod
    def from_text(cls, text: str, **kw) -> "BundleSpec":
        cells = tuple(divmod(ALPHANUM.index(ch), 6) for ch in text)
        return cls(targets=tuple((r + 1, c + 1) for r, c in cells), symbols=tuple(text), **kw)

    @property
    def slots(self) -> int:
        return 2 * self.n + 2 if self.paradigm == "xp300" else 2 * self.n

    @property
    def n_events(self) -> int:
        return len(self.targets) * self.reps * self.slots

    @property
    def n_samples(self) -> int:
        return int(round(((self.n_events - 1) * self.isi_s + SYNTH_TAIL_S) * self.fs_hz))

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.fs_hz


def _files(path: Path, names) -> None:
    for name in names:
        _require((path / name).is_file(), f"{path}: {name} was not written")


def check_bundle(path: Path, spec: BundleSpec) -> None:
    _files(path, ("manifest.json", "signal.f32", "events.jsonl"))
    manifest = json.loads((path / "manifest.json").read_text())
    _require(manifest["n_samples"] == spec.n_samples,
             f"{path}: {manifest['n_samples']} samples, expected {spec.n_samples}")
    _require(manifest["n_channels"] == spec.n_channels,
             f"{path}: {manifest['n_channels']} channels, expected {spec.n_channels}")
    size = (path / "signal.f32").stat().st_size
    _require(size == spec.n_samples * spec.n_channels * 4,
             f"{path}/signal.f32: {size} bytes, expected {spec.n_samples * spec.n_channels * 4}")

    with open(path / "events.jsonl") as fh:
        events = [json.loads(line) for line in fh]
    _require(len(events) == spec.n_events,
             f"{path}: {len(events)} events, expected {spec.n_events} "
             f"({len(spec.targets)} chars x {spec.reps} reps x {spec.slots} slots)")
    target_flashes = np.zeros((len(spec.targets), spec.reps), dtype=int)
    for ev in events:
        if ev["kind"] != "flash":
            continue
        char = ev["char_index"]
        lit = list(spec.targets[char]) in ev["cells"]
        _require(lit == ev["is_target"],
                 f"{path}: flash at slot {ev['slot']} has is_target={ev['is_target']} "
                 f"but {'lights' if lit else 'misses'} target cell {spec.targets[char]}")
        target_flashes[char, ev["repetition"]] += lit
    bad = [tuple(int(i) for i in ix) for ix in np.argwhere(target_flashes != 2)]
    _require(not bad, f"{path}: target does not flash exactly twice in (char, rep) {bad[:3]}")


def check_models(path: Path, n_channels: int) -> None:
    _files(path, ("xdawn.json", "blda.json"))
    xd = json.loads((path / "xdawn.json").read_text())
    u = np.asarray(xd["u"], dtype=float)
    rho = np.asarray(xd["rho"], dtype=float)
    _require(u.shape == (n_channels, xd["n_f"]), f"{path}: xDAWN filters have shape {u.shape}")
    norms = np.linalg.norm(u, axis=0)
    _require(np.allclose(norms, 1.0, rtol=0, atol=1e-9), f"{path}: xDAWN filter norms {norms}")
    _require(bool(np.all((rho >= 0) & (rho <= 1))), f"{path}: rho {rho} outside [0, 1]")
    _require(bool(np.all(np.diff(rho) <= 0)), f"{path}: rho {rho} not descending")
    bl = json.loads((path / "blda.json").read_text())
    _require(bl["converged"] is True, f"{path}: BLDA did not converge ({bl['iterations']} iterations)")
    _require(bool(np.all(np.isfinite(bl["w"]))), f"{path}: BLDA weights are not finite")


def wolpaw_bpm(p: float, m: int, char_s: float) -> float:
    bits = math.log2(m)
    if p > 0:
        bits += p * math.log2(p)
    if p < 1:
        bits += (1 - p) * math.log2((1 - p) / (m - 1))
    return bits * 60.0 / char_s


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def _roc_auc(path: Path) -> float:
    pts = np.array(_csv_rows(path), dtype=float)
    _require(pts.ndim == 2 and pts.shape[1] == 2, f"{path}: not an fpr,tpr table")
    _require(tuple(pts[0]) == (0.0, 0.0) and tuple(pts[-1]) == (1.0, 1.0),
             f"{path}: curve runs from {tuple(pts[0])} to {tuple(pts[-1])}")
    _require(bool(np.all(np.diff(pts, axis=0) >= 0)), f"{path}: curve decreases")
    fpr, tpr = pts[:, 0], pts[:, 1]
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def check_eval(path: Path, test: BundleSpec) -> dict:
    """Check an ``eval --swap`` directory; returns its AUC and accuracies."""
    _files(path, ("metrics.csv", "roc.csv", "roc_swap.csv", "summary.txt", "decisions.csv"))
    chars = len(test.targets)
    rows = _csv_rows(path / "metrics.csv")
    _require([int(r[0]) for r in rows] == list(range(1, test.reps + 1)),
             f"{path}/metrics.csv: k column is not 1..{test.reps}")
    accuracy = []
    for k, acc, itr in ((int(r[0]), float(r[1]), float(r[2])) for r in rows):
        # mean of two directions, each a multiple of 1/chars
        _require(0 <= acc <= 1 and abs(acc * 2 * chars - round(acc * 2 * chars)) < 1e-9,
                 f"{path}/metrics.csv: accuracy {acc} at k={k} is not a mean of two hit rates")
        expected = wolpaw_bpm(acc, test.n * test.n, k * test.slots * test.isi_s)
        _require(math.isclose(itr, expected, rel_tol=1e-9, abs_tol=1e-12),
                 f"{path}/metrics.csv: itr_bpm {itr} at k={k}, Wolpaw gives {expected}")
        accuracy.append(acc)

    aucs = [_roc_auc(path / name) for name in ("roc.csv", "roc_swap.csv")]
    match = re.fullmatch(r"auc=(\S+)\n", (path / "summary.txt").read_text())
    _require(match is not None, f"{path}/summary.txt: no auc line")
    auc = float(match.group(1))
    _require(math.isclose(auc, sum(aucs) / 2, rel_tol=0, abs_tol=1e-9),
             f"{path}/summary.txt: auc {auc}, trapezoidal areas give {sum(aucs) / 2}")

    rows = _csv_rows(path / "decisions.csv")
    _require(len(rows) == chars * test.reps,
             f"{path}/decisions.csv: {len(rows)} rows, expected {chars * test.reps}")
    for char_index, k, symbol, correct in rows:
        expected = int(symbol == test.symbols[int(char_index)])
        _require(int(correct) == expected,
                 f"{path}/decisions.csv: char {char_index} k={k} selected {symbol!r}, "
                 f"target {test.symbols[int(char_index)]!r}, correct={correct}")
    return {"auc": auc, "accuracy": accuracy}


def check_report(path: Path, cp: list[dict], xp: list[dict]) -> None:
    """``cp``/``xp`` hold each subject's checked eval figures, in order."""
    from scipy import stats

    _files(path, ("comparison.csv", "ttests.txt"))
    rows = _csv_rows(path / "comparison.csv")
    subjects = [r for r in rows if r[0].isdigit()]
    _require(len(subjects) == len(cp), f"{path}/comparison.csv: {len(subjects)} subjects, expected {len(cp)}")
    table = np.array([r[1:] for r in subjects], dtype=float)
    ours = np.array([[np.mean(c["accuracy"]), np.mean(x["accuracy"]), c["auc"], x["auc"]]
                     for c, x in zip(cp, xp)])
    _require(np.allclose(table, ours, rtol=1e-12, atol=0),
             f"{path}/comparison.csv: subject rows differ from the eval outputs")
    text = (path / "ttests.txt").read_text()
    for name, a, b in (("mean_accuracy", table[:, 0], table[:, 1]), ("auc", table[:, 2], table[:, 3])):
        m = re.search(rf"^{name}: t\((\d+)\)=(\S+), p=(\S+)$", text, re.M)
        _require(m is not None, f"{path}/ttests.txt: no {name} line")
        ref = stats.ttest_rel(a, b)
        df, t, p = int(m.group(1)), float(m.group(2)), float(m.group(3))
        _require(df == len(a) - 1, f"{path}/ttests.txt: {name} df={df}, expected {len(a) - 1}")
        _require(abs(t - ref.statistic) <= 5e-5 + 1e-12 * abs(t),
                 f"{path}/ttests.txt: {name} t={t}, ttest_rel gives {ref.statistic}")
        _require(math.isclose(p, ref.pvalue, rel_tol=5e-3, abs_tol=1e-300),
                 f"{path}/ttests.txt: {name} p={p}, ttest_rel gives {ref.pvalue}")
