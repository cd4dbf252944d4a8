import collections

import numpy as np
import pytest

from p300speller.errors import PipelineError, ValidationError
from p300speller.patterns import make_constrained_pattern, make_rc_pattern
from p300speller.scheduler import (
    StimulusEvent,
    make_cp300_schedule,
    make_xp300_schedule,
    slots_per_repetition,
    target_interval_stats,
)
from p300speller.session_io import events_jsonl

ISI = 0.133


@pytest.fixture(scope="module")
def rc6():
    return make_rc_pattern(6)


@pytest.fixture(scope="module")
def con6():
    return make_constrained_pattern(6)


class TestCp300:
    def test_event_count_10_reps(self, rc6):
        s = make_cp300_schedule(rc6, reps=10, isi_s=ISI, targets=[(1, 1)], seed=0)
        assert len(s.flash_events()) == 120
        assert len(s.events) == 120  # no pauses

    def test_per_character_duration(self, rc6):
        # 5 reps x 12 slots x 0.133 s per character = 7.98 s
        s = make_cp300_schedule(rc6, reps=5, isi_s=ISI, targets=[(1, 1), (2, 2)], seed=0)
        second_char = [e for e in s.events if e.char_index == 1]
        assert second_char[0].onset_s == pytest.approx(60 * ISI)
        assert s.slots_per_repetition == 12

    def test_target_flashed_twice_per_repetition(self, rc6):
        s = make_cp300_schedule(rc6, reps=8, isi_s=ISI, targets=[(3, 4)], seed=5)
        per_rep = collections.Counter(
            e.repetition for e in s.flash_events() if e.is_target
        )
        assert all(per_rep[r] == 2 for r in range(8))

    def test_each_block_is_permutation(self, rc6):
        s = make_cp300_schedule(rc6, reps=6, isi_s=ISI, targets=[(1, 2), (5, 6)], seed=9)
        groups = collections.defaultdict(list)
        for e in s.flash_events():
            groups[(e.char_index, e.repetition, e.block)].append(e.flash_id)
        for (char, rep, block), ids in groups.items():
            assert sorted(ids) == [1, 2, 3, 4, 5, 6], (char, rep, block)

    def test_requires_classical_pattern(self, con6):
        with pytest.raises(ValidationError, match="classical"):
            make_cp300_schedule(con6, reps=1, isi_s=ISI, targets=[(1, 1)], seed=0)

    def test_empty_targets(self, rc6):
        with pytest.raises(ValidationError, match="empty"):
            make_cp300_schedule(rc6, reps=1, isi_s=ISI, targets=[], seed=0)

    def test_adjacent_target_flashes_occur(self, rc6):
        # the unconstrained shuffle permits 1-ISI target collisions
        hits = 0
        for seed in range(200):
            s = make_cp300_schedule(rc6, reps=1, isi_s=ISI, targets=[(1, 1)], seed=seed)
            stats = target_interval_stats(s)
            if stats.min_tti_s == pytest.approx(ISI):
                hits += 1
        assert hits > 0


class TestXp300:
    def test_slot_structure_one_rep(self, con6):
        s = make_xp300_schedule(con6, reps=1, isi_s=ISI, targets=[(1, 1)], seed=0)
        kinds = [e.kind for e in s.events]
        assert kinds == ["flash"] * 6 + ["pause"] + ["flash"] * 6 + ["pause"]
        blocks = [e.block for e in s.events if e.kind == "flash"]
        assert blocks == ["row"] * 6 + ["col"] * 6
        assert s.slots_per_repetition == 14

    def test_per_character_duration(self, con6):
        # 5 reps x 14 slots x 0.133 s = 9.31 s per character
        s = make_xp300_schedule(con6, reps=5, isi_s=ISI, targets=[(1, 1), (4, 4)], seed=1)
        second_char = [e for e in s.events if e.char_index == 1]
        assert second_char[0].onset_s == pytest.approx(70 * ISI)

    def test_min_target_gap_two_isi(self, con6):
        for seed in range(50):
            s = make_xp300_schedule(con6, reps=10, isi_s=ISI, targets=[(2, 5)], seed=seed)
            stats = target_interval_stats(s, threshold_s=0.266)
            assert stats.min_tti_s >= 2 * ISI
            assert stats.count_below == 0

    def test_mean_within_repetition_gap(self, con6):
        # closed form: gap = (n + 1 - i + j) slots with i, j uniform on 1..6,
        # so E[gap] = 7 ISI = 0.931 s
        s = make_xp300_schedule(con6, reps=2000, isi_s=ISI, targets=[(3, 3)], seed=77)
        by_rep = collections.defaultdict(list)
        for e in s.flash_events():
            if e.is_target:
                by_rep[(e.char_index, e.repetition)].append(e)
        gaps = []
        for events in by_rep.values():
            row, col = events
            assert row.block == "row" and col.block == "col"
            gaps.append(col.onset_s - row.onset_s)
        assert np.mean(gaps) == pytest.approx(7 * ISI, abs=0.01)

    def test_every_cell_flashed_twice_per_rep(self, con6):
        s = make_xp300_schedule(con6, reps=3, isi_s=ISI, targets=[(1, 1)], seed=3)
        counts = collections.Counter()
        for e in s.flash_events():
            for cell in e.cells:
                counts[(e.repetition, cell)] += 1
        for rep in range(3):
            for i in range(1, 7):
                for j in range(1, 7):
                    assert counts[(rep, (i, j))] == 2

    def test_flash_carries_six_cells_pause_none(self, con6):
        s = make_xp300_schedule(con6, reps=1, isi_s=ISI, targets=[(1, 1)], seed=0)
        for e in s.events:
            assert len(e.cells) == (6 if e.kind == "flash" else 0)

    def test_onsets_strictly_increasing(self, con6):
        s = make_xp300_schedule(con6, reps=4, isi_s=ISI, targets=[(1, 1), (2, 2)], seed=8)
        onsets = [e.onset_s for e in s.events]
        assert all(b > a for a, b in zip(onsets, onsets[1:]))

    def test_flash_duration_default_half_isi(self, con6):
        s = make_xp300_schedule(con6, reps=1, isi_s=ISI, targets=[(1, 1)], seed=0)
        assert s.flash_duration_s == pytest.approx(ISI / 2)
        with pytest.raises(ValidationError, match="duration"):
            make_xp300_schedule(
                con6, reps=1, isi_s=ISI, targets=[(1, 1)], seed=0, flash_duration_s=0.2
            )


class TestDeterminism:
    def test_same_seed_identical_serialization(self, con6):
        a = make_xp300_schedule(con6, reps=5, isi_s=ISI, targets=[(1, 1), (3, 5)], seed=123)
        b = make_xp300_schedule(con6, reps=5, isi_s=ISI, targets=[(1, 1), (3, 5)], seed=123)
        assert events_jsonl(a.events) == events_jsonl(b.events)

    def test_different_seed_differs(self, con6):
        a = make_xp300_schedule(con6, reps=5, isi_s=ISI, targets=[(1, 1)], seed=1)
        b = make_xp300_schedule(con6, reps=5, isi_s=ISI, targets=[(1, 1)], seed=2)
        assert events_jsonl(a.events) != events_jsonl(b.events)

    def test_slots_per_repetition(self):
        assert slots_per_repetition("cp300", 6) == 12
        assert slots_per_repetition("xp300", 6) == 14
        with pytest.raises(ValidationError, match="paradigm"):
            slots_per_repetition("qp300", 6)

    def test_event_json_roundtrip(self, con6):
        s = make_cp300_schedule(make_rc_pattern(6), reps=2, isi_s=ISI,
                                targets=[(2, 3)], seed=4)
        for e in s.events:
            assert StimulusEvent.from_json(e.to_json()) == e


class TestIntervalStats:
    def test_insufficient_events(self, con6):
        s = make_xp300_schedule(con6, reps=1, isi_s=ISI, targets=[(1, 1)], seed=0)
        only_row = [e for e in s.events if not (e.kind == "flash" and e.is_target and e.block == "col")]
        s.events = only_row
        with pytest.raises(PipelineError, match="two target flashes"):
            target_interval_stats(s)

    def test_ordering_invariant(self, con6):
        s = make_xp300_schedule(con6, reps=20, isi_s=ISI, targets=[(4, 2)], seed=6)
        stats = target_interval_stats(s, threshold_s=1.0)
        assert stats.min_tti_s <= stats.mean_tti_s <= stats.max_tti_s
        assert stats.count_below >= 0
