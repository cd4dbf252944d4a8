"""Stimulus scheduling for copy-spelling sessions.

Two paradigms are produced:

* ``cp300`` -- the classical one: per repetition, all 2N flashes (N row
  blocks + N column blocks) are shuffled into one block of consecutive
  ISI slots.  Nothing stops the target from flashing twice in a row.
* ``xp300`` -- the split variant: per repetition, the N row-block flashes
  are shuffled, then a one-ISI pause, then the N column-block flashes,
  then another pause before the next repetition (2N + 2 slots total).
  Two flashes of the same cell are therefore always >= 2 ISI apart.

Onsets are laid out on a global grid of ISI slots, each character's
shifted by the inter-character gap; every event records its integer slot
and character, from which ``target_intervals`` gives the one interval rule
that the statistics and the synthetic blink gains share.
The events of a session form one ``Events`` table of numpy columns; which
cells a flash lights is a fact of its ``FlashPattern``, kept only there.
A ``Schedule`` checks every rule of a schedule when made, here or from a
bundle; ``Schedule.target_flags`` is the one source of ``is_target``.
"""

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import PipelineError, ValidationError
from .patterns import COL_BLOCK, ROW_BLOCK, FlashPattern, validate_pattern

CP300 = "cp300"
XP300 = "xp300"
# the most events a schedule may have, 375 times the 2,800 of the default
# protocol: the scheduler's arrays and a bundle's events.jsonl grow with it
MAX_EVENTS = 2**20

FLASH = "flash"
PAUSE = "pause"
BLOCKS = (ROW_BLOCK, COL_BLOCK)  # indexed by the ``block`` column; -1 is a pause

COLUMNS = {
    "onset_s": np.float64,
    "slot": np.int64,  # global ISI slot index
    "char_index": np.int64,  # 0-based spelled-character counter
    "repetition": np.int64,  # 0-based repetition counter
    "block": np.int64,  # -1 pause, 0 row block, 1 column block
    "flash_id": np.int64,  # 1..n within its block, 0 for a pause
    "is_target": np.bool_,
}


@dataclass(frozen=True, eq=False)
class Events:
    """Every scheduled flash and pause of a session, one read-only column per
    field, plus the pattern whose flashes ``block`` and ``flash_id`` name."""

    pattern: FlashPattern
    onset_s: np.ndarray
    slot: np.ndarray
    char_index: np.ndarray
    repetition: np.ndarray
    block: np.ndarray
    flash_id: np.ndarray
    is_target: np.ndarray

    def __post_init__(self):
        for name, dtype in COLUMNS.items():
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if len({getattr(self, name).shape for name in COLUMNS}) != 1 or self.onset_s.ndim != 1:
            raise ValidationError("event columns must be 1-D and of equal length")

    def __len__(self) -> int:
        return self.onset_s.shape[0]

    def __getitem__(self, index) -> "Events":
        """The events at a slice, index array or boolean mask, in that order."""
        return Events(self.pattern, *(getattr(self, name)[index] for name in COLUMNS))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Events)
            and self.pattern.to_json() == other.pattern.to_json()
            and all(np.array_equal(getattr(self, n), getattr(other, n)) for n in COLUMNS)
        )

    @property
    def is_flash(self) -> np.ndarray:
        return self.block >= 0


def _kind(events: Events, i: int) -> str:
    return FLASH if events.block[i] >= 0 else PAUSE


def slots_per_repetition(paradigm: str, n: int) -> int:
    """ISI slots in one repetition: 2n flashes, plus xp300's two pauses."""
    if paradigm == CP300:
        return 2 * n
    if paradigm == XP300:
        return 2 * n + 2
    raise ValidationError(f"unknown paradigm {paradigm!r}")


@dataclass
class Schedule:
    """Time-ordered stimulus events for one copy-spelling session; the constructor checks
    every rule of a schedule, but not that the events hold all of its flashes."""

    paradigm: str
    isi_s: float
    flash_duration_s: float
    reps: int
    targets: list[tuple[int, int]]
    events: Events
    inter_char_gap_s: float = 0.0

    def __post_init__(self):
        n, isi, dur, gap = self.n, self.isi_s, self.flash_duration_s, self.inter_char_gap_s
        slots_per_repetition(self.paradigm, n)  # rejects an unknown paradigm
        if not self.reps >= 1:  # each rule is written so that NaN fails it
            raise ValidationError(f"repetitions must be >= 1, got {self.reps}")
        if not 0 < isi < math.inf:
            raise ValidationError(f"ISI must be positive and finite, got {isi}")
        if not 0 < dur <= isi:
            raise ValidationError(f"flash duration must lie in (0, ISI], got {dur}")
        if not 0 <= gap < math.inf:
            raise ValidationError(f"inter-character gap must be finite and >= 0, got {gap}")
        targets = self.targets = [(operator.index(r), operator.index(c)) for r, c in self.targets]
        if not targets:
            raise ValidationError("target list is empty: nothing to schedule")
        for r, c in targets:
            if not (1 <= r <= n and 1 <= c <= n):
                raise ValidationError(f"target cell ({r}, {c}) outside the {n}x{n} grid")
        e = self.events
        inside = ((0 <= e.char_index) & (e.char_index < len(targets))
                  & (0 <= e.repetition) & (e.repetition < self.reps))
        if not inside.all():
            i = int(np.argmin(inside))
            raise ValidationError(f"{_kind(e, i)} event in slot {e.slot[i]} (character "
                                  f"{e.char_index[i]}, repetition {e.repetition[i]}) lies "
                                  f"outside the schedule: {len(targets)} characters, "
                                  f"{self.reps} repetitions")
        wrong = e.is_target != self.target_flags(e.char_index, e.block, e.flash_id)
        if wrong.any():  # a pause is never a target
            i = int(np.argmax(wrong))
            raise ValidationError(f"{_kind(e, i)} event in slot {e.slot[i]} has is_target "
                                  f"{e.is_target[i]}, but character {e.char_index[i]}'s target "
                                  f"cell is {targets[e.char_index[i]]}")

    @property
    def pattern(self) -> FlashPattern:
        return self.events.pattern

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def slots_per_repetition(self) -> int:
        return slots_per_repetition(self.paradigm, self.n)

    def target_flags(self, char_index, block, flash_id) -> np.ndarray:
        """The ``is_target`` column of these events: whether each is a flash
        (``block`` >= 0) that lights its character's target cell."""
        p, (rows, cols) = self.pattern, np.array(self.targets).T - 1
        target_flash = np.stack([p.r_hat[rows, cols], p.c_hat[rows, cols]], axis=1)
        return (block >= 0) & (flash_id == target_flash[char_index, block.clip(0)])


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
    if flash_duration_s is None:
        flash_duration_s = isi_s / 2.0
    schedule = Schedule(paradigm, isi_s, flash_duration_s, reps, targets,
                        Events(p, *[[]] * len(COLUMNS)), gap_s)  # checked before any draw
    n, per_rep = p.n, slots_per_repetition(paradigm, p.n)
    plans = len(schedule.targets) * reps  # one shuffled plan per repetition, in time order
    if plans * per_rep > MAX_EVENTS:  # before the plans are drawn
        raise ValidationError(f"{len(schedule.targets)} characters x reps {reps} make "
                              f"{plans * per_rep} events, more than the {MAX_EVENTS} allowed")
    # every plan in one draw: row i of rng.permuted(tile, axis=1) is the
    # rng.permutation(k) the i-th of that many calls would give
    rng = np.random.default_rng(seed)
    if paradigm == CP300:
        order = rng.permuted(np.tile(np.arange(2 * n), (plans, 1)), axis=1).ravel()
        block, flash_id = order // n, order % n + 1
    else:
        # each plan's row ids, a pause, its column ids, a pause, as one reshape
        flash_id = np.zeros((2 * plans, n + 1), dtype=np.int64)
        flash_id[:, :n] = rng.permuted(np.tile(np.arange(n), (2 * plans, 1)), axis=1) + 1
        flash_id = flash_id.ravel()
        block = np.tile(np.repeat([0, -1, 1, -1], [n, 1, n, 1]), plans)
    slot = np.arange(block.size)
    char_index = slot // (reps * per_rep)
    events = Events(
        pattern=p,
        onset_s=slot * isi_s + char_index * gap_s,
        slot=slot,
        char_index=char_index,
        repetition=slot // per_rep % reps,
        block=block,
        flash_id=flash_id,
        is_target=schedule.target_flags(char_index, block, flash_id),
    )
    return replace(schedule, events=events)


def target_intervals(s: Schedule) -> np.ndarray:
    """Each interval from one target flash to the next: the slots between them
    times the ISI plus the characters between them times the inter-character
    gap (``_make_schedule``'s grid), so equal steps give bit-equal intervals."""
    hits = s.events[s.events.is_flash & s.events.is_target]
    return np.diff(hits.slot) * s.isi_s + np.diff(hits.char_index) * s.inter_char_gap_s


def target_interval_stats(s: Schedule, threshold_s: float = 0.0) -> IntervalStats:
    """Statistics over ``target_intervals``."""
    ttis = target_intervals(s)
    if ttis.size < 1:
        raise PipelineError("need at least two target flashes to compute intervals")
    return IntervalStats(
        min_tti_s=float(ttis.min()),
        mean_tti_s=float(ttis.mean()),
        max_tti_s=float(ttis.max()),
        count_below=int(np.sum(ttis < threshold_s)),
        threshold_s=threshold_s,
    )
