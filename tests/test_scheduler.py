import collections
import dataclasses
import json

import numpy as np
import pytest

from p300speller import scheduler
from p300speller.dsp import Recording
from p300speller.errors import PipelineError, ValidationError
from p300speller.patterns import cells_for_flash, make_constrained_pattern, make_rc_pattern
from p300speller.scheduler import (
    BLOCKS,
    COLUMNS,
    Events,
    Schedule,
    make_cp300_schedule,
    make_xp300_schedule,
    slots_per_repetition,
    target_interval_stats,
)
from p300speller.session_io import events_jsonl, read_session, write_session

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
        assert s.events.is_flash.sum() == 120
        assert len(s.events) == 120  # no pauses

    def test_per_character_duration(self, rc6):
        # 5 reps x 12 slots x 0.133 s per character = 7.98 s
        s = make_cp300_schedule(rc6, reps=5, isi_s=ISI, targets=[(1, 1), (2, 2)], seed=0)
        second_char = s.events.onset_s[s.events.char_index == 1]
        assert second_char[0] == pytest.approx(60 * ISI)
        assert s.slots_per_repetition == 12

    def test_target_flashed_twice_per_repetition(self, rc6):
        s = make_cp300_schedule(rc6, reps=8, isi_s=ISI, targets=[(3, 4)], seed=5)
        e = s.events
        per_rep = collections.Counter(e.repetition[e.is_flash & e.is_target].tolist())
        assert all(per_rep[r] == 2 for r in range(8))

    def test_each_block_is_permutation(self, rc6):
        s = make_cp300_schedule(rc6, reps=6, isi_s=ISI, targets=[(1, 2), (5, 6)], seed=9)
        groups = collections.defaultdict(list)
        e = s.events[s.events.is_flash]
        for char, rep, block, flash_id in zip(e.char_index, e.repetition, e.block, e.flash_id):
            groups[(char, rep, block)].append(flash_id)
        for (char, rep, block), ids in groups.items():
            assert sorted(ids) == [1, 2, 3, 4, 5, 6], (char, rep, block)

    @pytest.mark.parametrize("n, reps, seed", [(3, 1, 0), (6, 10, 7), (12, 3, 1)])
    def test_flash_order_is_the_per_plan_draws(self, n, reps, seed):
        """The flashes of each plan are the ``rng.permutation(2n)`` that plan
        draws in turn, as the per-plan calls made them."""
        targets = [(1, 1), (n, n)]
        s = make_cp300_schedule(make_rc_pattern(n), reps=reps, isi_s=ISI, targets=targets,
                                seed=seed)
        rng = np.random.default_rng(seed)
        former = np.concatenate([rng.permutation(2 * n) for _ in range(len(targets) * reps)])
        assert s.events.block.tolist() == (former // n).tolist()
        assert s.events.flash_id.tolist() == (former % n + 1).tolist()

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
        kinds = np.where(s.events.is_flash, "flash", "pause").tolist()
        assert kinds == ["flash"] * 6 + ["pause"] + ["flash"] * 6 + ["pause"]
        blocks = [BLOCKS[b] for b in s.events.block[s.events.is_flash]]
        assert blocks == ["row"] * 6 + ["col"] * 6
        assert s.slots_per_repetition == 14

    def test_per_character_duration(self, con6):
        # 5 reps x 14 slots x 0.133 s = 9.31 s per character
        s = make_xp300_schedule(con6, reps=5, isi_s=ISI, targets=[(1, 1), (4, 4)], seed=1)
        second_char = s.events.onset_s[s.events.char_index == 1]
        assert second_char[0] == pytest.approx(70 * ISI)

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
        e = s.events[s.events.is_flash & s.events.is_target]
        for char, rep, block, onset in zip(e.char_index, e.repetition, e.block, e.onset_s):
            by_rep[(char, rep)].append((BLOCKS[block], onset))
        gaps = []
        for events in by_rep.values():
            (row_block, row_onset), (col_block, col_onset) = events
            assert row_block == "row" and col_block == "col"
            gaps.append(col_onset - row_onset)
        assert np.mean(gaps) == pytest.approx(7 * ISI, abs=0.01)

    def test_every_cell_flashed_twice_per_rep(self, con6):
        s = make_xp300_schedule(con6, reps=3, isi_s=ISI, targets=[(1, 1)], seed=3)
        counts = collections.Counter()
        e = s.events[s.events.is_flash]
        for rep, block, flash_id in zip(e.repetition, e.block, e.flash_id):
            for cell in cells_for_flash(s.pattern, BLOCKS[block], flash_id):
                counts[(rep, cell)] += 1
        for rep in range(3):
            for i in range(1, 7):
                for j in range(1, 7):
                    assert counts[(rep, (i, j))] == 2

    def test_flash_carries_six_cells_pause_none(self, con6):
        # cells exist only in the written events, derived from the pattern
        s = make_xp300_schedule(con6, reps=1, isi_s=ISI, targets=[(1, 1)], seed=0)
        for line in events_jsonl(s.events).splitlines():
            e = json.loads(line)
            assert len(e["cells"]) == (6 if e["kind"] == "flash" else 0)

    def test_onsets_strictly_increasing(self, con6):
        s = make_xp300_schedule(con6, reps=4, isi_s=ISI, targets=[(1, 1), (2, 2)], seed=8)
        onsets = s.events.onset_s.tolist()
        assert all(b > a for a, b in zip(onsets, onsets[1:]))

    @pytest.mark.parametrize("n, reps, seed", [(3, 1, 0), (6, 10, 7), (12, 3, 1)])
    def test_flash_ids_are_the_per_plan_draws(self, n, reps, seed):
        """The flash ids are the permutations each plan draws in turn (row
        ids, a pause, column ids, a pause), as the per-plan ``np.r_`` made them."""
        targets = [(1, 1), (n, n)]
        s = make_xp300_schedule(make_constrained_pattern(n), reps=reps, isi_s=ISI,
                                targets=targets, seed=seed)
        rng = np.random.default_rng(seed)
        former = np.concatenate([np.r_[rng.permutation(n) + 1, 0, rng.permutation(n) + 1, 0]
                                 for _ in range(len(targets) * reps)])
        assert s.events.flash_id.tolist() == former.tolist()

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

    def test_event_json_roundtrip(self, con6, tmp_path):
        s = make_cp300_schedule(make_rc_pattern(6), reps=2, isi_s=ISI,
                                targets=[(2, 3)], seed=4)
        rec = Recording(fs_hz=25.0, samples=np.zeros((100, 8)), events=s.events)
        write_session(rec, tmp_path / "s")
        assert read_session(tmp_path / "s").events == s.events


class TestIntervalStats:
    def test_insufficient_events(self, con6):
        s = make_xp300_schedule(con6, reps=1, isi_s=ISI, targets=[(1, 1)], seed=0)
        e = s.events
        only_row = e[~(e.is_flash & e.is_target & (e.block == 1))]
        s.events = only_row
        with pytest.raises(PipelineError, match="two target flashes"):
            target_interval_stats(s)

    def test_matches_loop_reference(self, con6):
        # the pairwise loop the vectorised gaps replaced
        s = make_xp300_schedule(con6, reps=4, isi_s=ISI, targets=[(4, 2), (1, 6)], seed=6,
                                inter_char_gap_s=0.5)
        e = s.events[s.events.is_flash & s.events.is_target]
        ttis = [
            (e.slot[b] - e.slot[b - 1]) * ISI if e.char_index[b] == e.char_index[b - 1]
            else e.onset_s[b] - e.onset_s[b - 1]
            for b in range(1, len(e))
        ]
        stats = target_interval_stats(s, threshold_s=0.5)
        assert stats.min_tti_s == min(ttis) and stats.max_tti_s == max(ttis)
        assert stats.mean_tti_s == float(np.mean(ttis))
        assert stats.count_below == sum(t < 0.5 for t in ttis)

    def test_ordering_invariant(self, con6):
        s = make_xp300_schedule(con6, reps=20, isi_s=ISI, targets=[(4, 2)], seed=6)
        stats = target_interval_stats(s, threshold_s=1.0)
        assert stats.min_tti_s <= stats.mean_tti_s <= stats.max_tti_s
        assert stats.count_below >= 0


NAN, INF = float("nan"), float("inf")


class TestScheduleRules:
    """The constructor holds every rule, for built and hand-made schedules alike."""

    @pytest.fixture(scope="class")
    def built(self, con6):
        return make_xp300_schedule(con6, reps=2, isi_s=ISI, targets=[(1, 1), (3, 5)], seed=0)

    @pytest.mark.parametrize("field, value, message", [
        ("paradigm", "qp300", "unknown paradigm 'qp300'"),
        ("reps", 0, "repetitions must be >= 1, got 0"),
        ("reps", NAN, "repetitions must be >= 1, got nan"),
        ("isi_s", 0.0, "ISI must be positive and finite, got 0.0"),
        ("isi_s", -ISI, "ISI must be positive and finite, got -0.133"),
        ("isi_s", NAN, "ISI must be positive and finite, got nan"),
        ("isi_s", INF, "ISI must be positive and finite, got inf"),
        ("flash_duration_s", 0.0, r"flash duration must lie in \(0, ISI\], got 0.0"),
        ("flash_duration_s", 0.2, r"flash duration must lie in \(0, ISI\], got 0.2"),
        ("flash_duration_s", NAN, r"flash duration must lie in \(0, ISI\], got nan"),
        ("flash_duration_s", INF, r"flash duration must lie in \(0, ISI\], got inf"),
        ("inter_char_gap_s", -0.5, "inter-character gap must be finite and >= 0, got -0.5"),
        ("inter_char_gap_s", NAN, "inter-character gap must be finite and >= 0, got nan"),
        ("inter_char_gap_s", INF, "inter-character gap must be finite and >= 0, got inf"),
        ("targets", [], "target list is empty"),
        ("targets", [(1, 1), (0, 5)], r"target cell \(0, 5\) outside the 6x6 grid"),
        ("targets", [(1, 1), (3, 7)], r"target cell \(3, 7\) outside the 6x6 grid"),
        ("targets", [(10**30, 1), (3, 5)], r"target cell \(10{30}, 1\) outside the 6x6 grid"),
        ("targets", [(1, 1)], r"flash event in slot 28 \(character 1, repetition 0\) lies "
                              r"outside the schedule: 1 characters, 2 repetitions"),
        ("reps", 1, r"flash event in slot 14 \(character 0, repetition 1\) lies outside the "
                    r"schedule: 2 characters, 1 repetitions"),
    ], ids=["paradigm", "reps-0", "reps-nan", "isi-0", "isi-negative", "isi-nan", "isi-inf",
            "duration-0", "duration-over-isi", "duration-nan", "duration-inf", "gap-negative",
            "gap-nan", "gap-inf", "no-targets", "target-row-0", "target-col-7", "target-1e30",
            "flash-past-the-targets", "flash-past-the-reps"])
    def test_each_rule(self, built, field, value, message):
        with pytest.raises(ValidationError, match=f"^{message}"):
            dataclasses.replace(built, **{field: value})

    @pytest.mark.parametrize("targets", [[(1.0, 1)], [(1, "2")], [(1, None)]])
    def test_targets_are_ints(self, built, targets):
        with pytest.raises(TypeError):
            dataclasses.replace(built, targets=targets)

    def test_targets_are_pairs(self, built):
        with pytest.raises(ValueError, match="unpack"):
            dataclasses.replace(built, targets=[(1,), (3, 5)])

    @pytest.mark.parametrize("target", [True, False])
    def test_is_target_must_match_the_targets(self, built, target):
        e = built.events
        slot = int(e.slot[e.is_flash & (e.is_target == target)][0])
        flags = e.is_target.copy()
        flags[slot] = not target
        columns = [getattr(e, name) for name in ("onset_s", "slot", "char_index", "repetition",
                                                  "block", "flash_id")]
        message = (rf"flash event in slot {slot} has is_target {not target}, but character 0's "
                   rf"target cell is \(1, 1\)")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            dataclasses.replace(built, events=Events(e.pattern, *columns, flags))

    def test_a_pause_is_never_a_target(self, built):
        # slot 6 is the first pause: six row flashes, then the pause
        e = built.events
        flags = e.is_target.copy()
        flags[6] = True
        columns = [getattr(e, name) for name in ("onset_s", "slot", "char_index", "repetition",
                                                  "block", "flash_id")]
        assert e.block[6] == -1 and not e.is_target[6]
        message = r"pause event in slot 6 has is_target True, but character 0's target cell is"
        with pytest.raises(ValidationError, match=f"^{message}"):
            dataclasses.replace(built, events=Events(e.pattern, *columns, flags))

    @pytest.mark.parametrize("name, value", [("char_index", 2), ("repetition", -1)])
    def test_a_pause_lies_inside_the_schedule(self, built, name, value):
        e = built.events
        columns = {name: getattr(e, name).copy() for name in COLUMNS}
        columns[name][6] = value
        message = (rf"pause event in slot 6 \(character {columns['char_index'][6]}, repetition "
                   rf"{columns['repetition'][6]}\) lies outside the schedule")
        with pytest.raises(ValidationError, match=f"^{message}"):
            dataclasses.replace(built, events=Events(e.pattern, **columns))

    def test_target_flags_are_the_cells_each_flash_lights(self, built):
        e = built.events
        for char, block, flash_id, flag in zip(e.char_index, e.block, e.flash_id, e.is_target):
            lit = block >= 0 and built.targets[char] in cells_for_flash(
                built.pattern, BLOCKS[block], flash_id)
            assert flag == lit
        assert np.array_equal(built.target_flags(e.char_index, e.block, e.flash_id), e.is_target)

    def test_partial_schedule_is_a_schedule(self, con6):
        # completeness is a rule of a bundle, checked by its reader
        events = Events(con6, onset_s=[0.5], slot=[0], char_index=[0], repetition=[0],
                        block=[0], flash_id=[1], is_target=[True])
        s = Schedule(paradigm="xp300", isi_s=0.2, flash_duration_s=0.1, reps=3,
                     targets=[(1, 1), (2, 2)], events=events)
        assert s.targets == [(1, 1), (2, 2)]

    @pytest.mark.parametrize("make", [make_cp300_schedule, make_xp300_schedule])
    @pytest.mark.parametrize("isi", [INF, NAN])
    def test_builders_reject_a_non_finite_isi(self, rc6, make, isi):
        with pytest.raises(ValidationError, match="ISI must be positive and finite"):
            make(rc6, reps=1, isi_s=isi, targets=[(1, 1)], seed=0)

    def test_more_than_max_events_rejected_before_drawing(self, con6):
        # 10^9 repetitions once meant 4 x 10^10 permutation calls, every result held
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as exc:
                make_xp300_schedule(con6, reps=10**9, isi_s=ISI, targets=[(1, 1)] * 20, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == ("20 characters x reps 1000000000 make 280000000000 events, "
                                  f"more than the {scheduler.MAX_EVENTS} allowed")
        assert peak < 1e6

    @pytest.mark.parametrize("make, per_rep", [(make_cp300_schedule, 12), (make_xp300_schedule, 14)])
    def test_max_events_is_the_most_allowed(self, rc6, con6, monkeypatch, make, per_rep):
        monkeypatch.setattr(scheduler, "MAX_EVENTS", 3 * per_rep)
        p = rc6 if make is make_cp300_schedule else con6
        assert len(make(p, reps=3, isi_s=ISI, targets=[(1, 1)], seed=0).events) == 3 * per_rep
        with pytest.raises(ValidationError, match="1 characters x reps 4 make"):
            make(p, reps=4, isi_s=ISI, targets=[(1, 1)], seed=0)

    def test_builders_check_before_sizing_by_reps(self, rc6):
        # a huge repetition count is never drawn when another argument is bad
        with pytest.raises(ValidationError, match="outside the 6x6 grid"):
            make_xp300_schedule(rc6, reps=10**12, isi_s=ISI, targets=[(7, 1)], seed=0)
