"""Stimulus scheduling for copy-spelling sessions.

Two paradigms are produced:

* ``cp300`` -- the classical one: per repetition, all 2N flashes (N row
  blocks + N column blocks) are shuffled into one block of consecutive
  ISI slots.  Nothing stops the target from flashing twice in a row.
* ``xp300`` -- the split variant: per repetition, the N row-block flashes
  are shuffled, then a one-ISI pause, then the N column-block flashes,
  then another pause before the next repetition (2N + 2 slots total).
  Two flashes of the same cell are therefore always >= 2 ISI apart.

Onsets are laid out on a global grid of ISI slots; every event records
its integer slot so interval statistics stay exact multiples of the ISI.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import PipelineError, ValidationError
from .patterns import COL_BLOCK, ROW_BLOCK, FlashPattern, cells_for_flash, validate_pattern

CP300 = "cp300"
XP300 = "xp300"

FLASH = "flash"
PAUSE = "pause"


@dataclass(frozen=True)
class StimulusEvent:
    """One scheduled flash or pause."""

    onset_s: float
    kind: str  # "flash" | "pause"
    block: str | None  # "row" | "col" for flashes, None for pauses
    flash_id: int | None
    cells: frozenset  # of (row, col); empty for pauses
    char_index: int  # 0-based spelled-character counter
    repetition: int  # 0-based repetition counter
    is_target: bool
    slot: int  # global ISI slot index

    def to_json(self) -> dict:
        return {
            "onset_s": self.onset_s,
            "kind": self.kind,
            "block": self.block,
            "flash_id": self.flash_id,
            "cells": sorted([list(c) for c in self.cells]),
            "char_index": self.char_index,
            "repetition": self.repetition,
            "is_target": self.is_target,
            "slot": self.slot,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StimulusEvent":
        if not isinstance(obj["is_target"], bool):
            raise ValueError(f"is_target must be true or false, got {obj['is_target']!r}")
        if obj["block"] not in (ROW_BLOCK, COL_BLOCK, None):
            raise ValueError(
                f"block must be {ROW_BLOCK!r}, {COL_BLOCK!r} or null, got {obj['block']!r}"
            )
        return cls(
            onset_s=float(obj["onset_s"]),
            kind=str(obj["kind"]),
            block=obj["block"],
            flash_id=None if obj["flash_id"] is None else int(obj["flash_id"]),
            cells=frozenset((int(r), int(c)) for r, c in obj["cells"]),
            char_index=int(obj["char_index"]),
            repetition=int(obj["repetition"]),
            is_target=obj["is_target"],
            slot=int(obj["slot"]),
        )


def slots_per_repetition(paradigm: str, n: int) -> int:
    """ISI slots in one repetition: 2n flashes, plus xp300's two pauses."""
    if paradigm == CP300:
        return 2 * n
    if paradigm == XP300:
        return 2 * n + 2
    raise ValidationError(f"unknown paradigm {paradigm!r}")


@dataclass
class Schedule:
    """Time-ordered stimulus events for one copy-spelling session."""

    pattern: FlashPattern
    paradigm: str
    isi_s: float
    flash_duration_s: float
    reps: int
    targets: list[tuple[int, int]]
    events: list[StimulusEvent]
    seed: int | None = None
    inter_char_gap_s: float = 0.0

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def slots_per_repetition(self) -> int:
        return slots_per_repetition(self.paradigm, self.n)

    def flash_events(self) -> list[StimulusEvent]:
        return [e for e in self.events if e.kind == FLASH]


@dataclass(frozen=True)
class IntervalStats:
    """Summary of target-to-target onset intervals."""

    min_tti_s: float
    mean_tti_s: float
    max_tti_s: float
    count_below: int
    threshold_s: float


def make_cp300_schedule(
    p: FlashPattern,
    reps: int,
    isi_s: float,
    targets,
    seed: int | None = None,
    flash_duration_s: float | None = None,
    inter_char_gap_s: float = 0.0,
) -> Schedule:
    """Classical block-randomized schedule: 2N shuffled flashes per repetition."""
    if p.kind != "classical":
        raise ValidationError("cp300 scheduling requires a classical row/column pattern")
    return _make_schedule(
        p, CP300, reps, isi_s, targets, seed, flash_duration_s, inter_char_gap_s
    )


def make_xp300_schedule(
    p: FlashPattern,
    reps: int,
    isi_s: float,
    targets,
    seed: int | None = None,
    flash_duration_s: float | None = None,
    inter_char_gap_s: float = 0.0,
) -> Schedule:
    """Split schedule: shuffled row block, pause, shuffled column block, pause."""
    if not validate_pattern(p).pair_bijective:
        raise ValidationError("xp300 scheduling requires a bijective flash pattern")
    return _make_schedule(
        p, XP300, reps, isi_s, targets, seed, flash_duration_s, inter_char_gap_s
    )


def _make_schedule(p, paradigm, reps, isi_s, targets, seed, flash_duration_s, gap_s):
    if reps < 1:
        raise ValidationError(f"repetitions must be >= 1, got {reps}")
    if isi_s <= 0:
        raise ValidationError(f"ISI must be positive, got {isi_s}")
    if flash_duration_s is None:
        flash_duration_s = isi_s / 2.0
    if flash_duration_s > isi_s:
        raise ValidationError("flash duration cannot exceed the ISI")
    if flash_duration_s <= 0:
        raise ValidationError(f"flash duration must be positive, got {flash_duration_s}")
    if gap_s < 0:
        raise ValidationError(f"inter-character gap must be >= 0, got {gap_s}")
    targets = [(int(r), int(c)) for r, c in targets]
    if not targets:
        raise ValidationError("target list is empty: nothing to schedule")
    for r, c in targets:
        if not (1 <= r <= p.n and 1 <= c <= p.n):
            raise ValidationError(f"target cell ({r}, {c}) outside the {p.n}x{p.n} grid")

    flash_cells = {
        (block, f): frozenset(cells_for_flash(p, block, f))
        for block in (ROW_BLOCK, COL_BLOCK)
        for f in range(1, p.n + 1)
    }
    rng = np.random.default_rng(seed)
    n = p.n
    events: list[StimulusEvent] = []
    slot = 0
    for char_index, target in enumerate(targets):
        for rep in range(reps):
            if paradigm == CP300:
                order = [int(k) for k in rng.permutation(2 * n)]
                plan = [
                    (FLASH, ROW_BLOCK, k + 1) if k < n else (FLASH, COL_BLOCK, k - n + 1)
                    for k in order
                ]
            else:
                plan = [(FLASH, ROW_BLOCK, int(f) + 1) for f in rng.permutation(n)]
                plan.append((PAUSE, None, None))
                plan += [(FLASH, COL_BLOCK, int(f) + 1) for f in rng.permutation(n)]
                plan.append((PAUSE, None, None))
            for kind, block, fid in plan:
                cells = flash_cells[(block, fid)] if kind == FLASH else frozenset()
                events.append(
                    StimulusEvent(
                        onset_s=slot * isi_s + char_index * gap_s,
                        kind=kind,
                        block=block,
                        flash_id=fid,
                        cells=cells,
                        char_index=char_index,
                        repetition=rep,
                        is_target=target in cells,
                        slot=slot,
                    )
                )
                slot += 1
    return Schedule(
        pattern=p,
        paradigm=paradigm,
        isi_s=isi_s,
        flash_duration_s=flash_duration_s,
        reps=reps,
        targets=targets,
        events=events,
        seed=seed,
        inter_char_gap_s=gap_s,
    )


def target_interval_stats(s: Schedule, threshold_s: float = 0.0) -> IntervalStats:
    """Statistics over onset gaps between consecutive target flashes.

    Within one spelled character the gap is computed on the ISI slot grid
    ((slot_b - slot_a) * isi), which keeps equal-slot gaps bit-identical;
    across characters the raw onset difference is used so any configured
    inter-character gap is included.
    """
    flashes = [e for e in s.events if e.kind == FLASH and e.is_target]
    if len(flashes) < 2:
        raise PipelineError("need at least two target flashes to compute intervals")
    ttis = []
    for a, b in zip(flashes[:-1], flashes[1:]):
        if a.char_index == b.char_index:
            ttis.append((b.slot - a.slot) * s.isi_s)
        else:
            ttis.append(b.onset_s - a.onset_s)
    ttis = np.asarray(ttis)
    return IntervalStats(
        min_tti_s=float(ttis.min()),
        mean_tti_s=float(ttis.mean()),
        max_tti_s=float(ttis.max()),
        count_below=int(np.sum(ttis < threshold_s)),
        threshold_s=threshold_s,
    )
