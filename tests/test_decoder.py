import numpy as np
import pytest

from p300speller.decoder import accuracy_by_repetition, decisions_csv, decode_characters
from p300speller.errors import PipelineError
from p300speller.patterns import (
    default_matrix,
    make_constrained_pattern,
    make_rc_pattern,
    pair_to_cell,
)
from p300speller.scheduler import BLOCKS, make_cp300_schedule, make_xp300_schedule

ISI = 0.133


def flashes(schedule):
    return schedule.events[schedule.events.is_flash]


def oracle_scores(schedule, hit=1.0, miss=0.0):
    """Scores that label target-containing flashes perfectly."""
    return np.where(flashes(schedule).is_target, hit, miss)


class TestDecode:
    @pytest.mark.parametrize("paradigm", ["cp300", "xp300"])
    def test_perfect_scores_decode_targets(self, paradigm):
        targets = [(1, 1), (3, 4), (6, 6), (2, 5)]
        if paradigm == "cp300":
            sched = make_cp300_schedule(make_rc_pattern(6), 4, ISI, targets, seed=0)
        else:
            sched = make_xp300_schedule(make_constrained_pattern(6), 4, ISI, targets, seed=0)
        decisions = decode_characters(sched, oracle_scores(sched))
        for decision, target in zip(decisions, targets):
            for cell, _ in decision.per_k:
                assert cell == target
        assert np.array_equal(accuracy_by_repetition(decisions, targets), np.ones(4))

    def test_tie_break_lowest_flash_id(self):
        sched = make_cp300_schedule(make_rc_pattern(6), 2, ISI, [(4, 4)], seed=1)
        decisions = decode_characters(sched, np.zeros(len(flashes(sched))))
        assert decisions[0].per_k[0][0] == pair_to_cell(sched.pattern, 1, 1)

    def test_rc_intersection(self):
        sched = make_cp300_schedule(make_rc_pattern(6), 3, ISI, [(1, 1)], seed=2)
        e = flashes(sched)
        scores = [
            1.0 if (block == "row" and flash_id == 3) or (block == "col" and flash_id == 4)
            else 0.0
            for block, flash_id in zip([BLOCKS[b] for b in e.block], e.flash_id)
        ]
        decisions = decode_characters(sched, scores)
        assert all(cell == (3, 4) for cell, _ in decisions[0].per_k)

    def test_constant_shift_invariance(self):
        sched = make_xp300_schedule(make_constrained_pattern(6), 3, ISI, [(2, 3), (5, 1)], seed=3)
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(len(flashes(sched)))
        base = decode_characters(sched, scores)
        shifted = decode_characters(sched, scores + 17.5)
        for a, b in zip(base, shifted):
            assert a.per_k == b.per_k

    def test_symbol_lookup(self):
        matrix = default_matrix(6)
        sched = make_cp300_schedule(make_rc_pattern(6), 1, ISI, [(1, 2)], seed=0)
        decisions = decode_characters(sched, oracle_scores(sched), matrix)
        assert decisions[0].per_k[0] == ((1, 2), "B")

    def test_score_count_mismatch(self):
        sched = make_cp300_schedule(make_rc_pattern(6), 1, ISI, [(1, 1)], seed=0)
        with pytest.raises(PipelineError, match="mismatch"):
            decode_characters(sched, [1.0, 2.0])

    def test_score_table_shape_and_accumulation(self):
        sched = make_cp300_schedule(make_rc_pattern(6), 3, ISI, [(2, 2)], seed=4)
        scores = np.ones(len(flashes(sched)))
        decisions = decode_characters(sched, scores)
        table = decisions[0].score_table
        assert table.shape == (3, 2, 6)
        # with unit scores, the cumulative count after k reps is k per flash
        for k in range(3):
            assert np.all(table[k] == k + 1)

    def test_score_table_matches_loop_reference(self):
        # the per-flash accumulation loop the fancy assignment replaced
        sched = make_xp300_schedule(make_constrained_pattern(6), 3, ISI, [(2, 3), (5, 1)], seed=5)
        e = flashes(sched)
        scores = np.random.default_rng(1).standard_normal(len(e))
        acc = np.zeros((2, 3, 2, 6))
        for char, rep, block, flash_id, score in zip(
            e.char_index, e.repetition, e.block, e.flash_id, scores
        ):
            acc[char, rep, block, flash_id - 1] += score
        for c, decision in enumerate(decode_characters(sched, scores)):
            assert np.array_equal(decision.score_table, np.cumsum(acc, axis=1)[c])


class TestAccuracy:
    def test_partial(self):
        sched = make_cp300_schedule(make_rc_pattern(6), 2, ISI, [(1, 1)] * 20, seed=5)
        decisions = decode_characters(sched, oracle_scores(sched))
        truth = [(1, 1)] * 17 + [(6, 6)] * 3  # 17 of 20 counted correct
        acc = accuracy_by_repetition(decisions, truth)
        assert acc.tolist() == [0.85, 0.85]

    def test_length_mismatch(self):
        sched = make_cp300_schedule(make_rc_pattern(6), 1, ISI, [(1, 1)], seed=0)
        decisions = decode_characters(sched, oracle_scores(sched))
        with pytest.raises(PipelineError, match="ground-truth"):
            accuracy_by_repetition(decisions, [(1, 1), (2, 2)])


class TestCsv:
    def test_rows(self):
        matrix = default_matrix(6)
        sched = make_cp300_schedule(make_rc_pattern(6), 2, ISI, [(1, 1), (2, 5)], seed=0)
        decisions = decode_characters(sched, oracle_scores(sched), matrix)
        text = decisions_csv(decisions, [(1, 1), (2, 5)])
        lines = text.strip().splitlines()
        assert lines[0] == "char_index,k,selected_symbol,correct"
        assert lines[1] == "0,1,A,1"
        assert len(lines) == 1 + 2 * 2
