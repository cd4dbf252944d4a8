import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p300speller.decoder import accuracy_by_repetition, decisions_csv, decode_characters
from p300speller.errors import PipelineError
from p300speller.patterns import (
    default_matrix,
    make_constrained_pattern,
    make_rc_pattern,
    pair_table,
)
from p300speller.scheduler import BLOCKS, make_cp300_schedule, make_xp300_schedule

ISI = 0.133
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


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
        assert decisions.cells.shape == (4, 4, 2)
        for cells, target in zip(decisions.cells.tolist(), targets):
            for cell in cells:
                assert tuple(cell) == target
        assert np.array_equal(accuracy_by_repetition(decisions, targets), np.ones(4))

    def test_tie_break_lowest_flash_id(self):
        sched = make_cp300_schedule(make_rc_pattern(6), 2, ISI, [(4, 4)], seed=1)
        decisions = decode_characters(sched, np.zeros(len(flashes(sched))))
        assert decisions.cells[0, 0].tolist() == pair_table(sched.pattern)[0, 0].tolist()

    def test_rc_intersection(self):
        sched = make_cp300_schedule(make_rc_pattern(6), 3, ISI, [(1, 1)], seed=2)
        e = flashes(sched)
        scores = [
            1.0 if (block == "row" and flash_id == 3) or (block == "col" and flash_id == 4)
            else 0.0
            for block, flash_id in zip([BLOCKS[b] for b in e.block], e.flash_id)
        ]
        decisions = decode_characters(sched, scores)
        assert all(tuple(cell) == (3, 4) for cell in decisions.cells[0].tolist())

    def test_constant_shift_invariance(self):
        sched = make_xp300_schedule(make_constrained_pattern(6), 3, ISI, [(2, 3), (5, 1)], seed=3)
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(len(flashes(sched)))
        base = decode_characters(sched, scores)
        shifted = decode_characters(sched, scores + 17.5)
        assert np.array_equal(base.cells, shifted.cells)

    def test_symbol_lookup(self):
        sched = make_cp300_schedule(make_rc_pattern(6), 1, ISI, [(1, 2)], seed=0)
        decisions = decode_characters(sched, oracle_scores(sched))
        assert decisions.cells[0, 0].tolist() == [1, 2]
        assert decisions_csv(decisions, [(1, 2)]).splitlines()[1] == "0,1,B,1"

    def test_score_count_mismatch(self):
        sched = make_cp300_schedule(make_rc_pattern(6), 1, ISI, [(1, 1)], seed=0)
        with pytest.raises(PipelineError, match="mismatch"):
            decode_characters(sched, [1.0, 2.0])

    def test_a_scalar_score_counts_as_none(self):
        sched = make_cp300_schedule(make_rc_pattern(6), 1, ISI, [(1, 1)], seed=0)
        with pytest.raises(PipelineError, match="mismatch: 0 scores for 12 flash events"):
            decode_characters(sched, 1.0)

    def test_score_table_shape_and_accumulation(self):
        sched = make_cp300_schedule(make_rc_pattern(6), 3, ISI, [(2, 2)], seed=4)
        scores = np.ones(len(flashes(sched)))
        decisions = decode_characters(sched, scores)
        assert decisions.scores.shape == (1, 3, 2, 6)
        table = decisions.scores[0]
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
        assert np.array_equal(decode_characters(sched, scores).scores, np.cumsum(acc, axis=1))


@given(
    paradigm=st.sampled_from(["cp300", "xp300"]),
    n=st.integers(3, 7),
    reps=st.integers(1, 4),
    n_chars=st.integers(1, 4),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@SETTINGS
def test_table_matches_per_decision_reference(paradigm, n, reps, n_chars, tied, seed):
    """Every cell, score and CSV symbol of the table is what a loop over
    (character, k) finds: the lowest flash id among each block's maxima,
    then the one cell whose r_hat and c_hat are those flashes, named by the
    grid's default matrix."""
    rng = np.random.default_rng(seed)
    targets = [tuple(int(v) for v in rng.integers(1, n + 1, size=2)) for _ in range(n_chars)]
    if paradigm == "cp300":
        pattern = make_rc_pattern(n)
        sched = make_cp300_schedule(pattern, reps, ISI, targets, seed=seed)
    else:
        pattern = make_constrained_pattern(n, rng=rng)
        sched = make_xp300_schedule(pattern, reps, ISI, targets, seed=seed)
    e = flashes(sched)
    # small integers tie often, within a repetition and in the cumulative sums
    scores = rng.integers(0, 2, len(e)).astype(float) if tied else rng.standard_normal(len(e))
    matrix = default_matrix(n)
    decisions = decode_characters(sched, scores)
    csv_rows = [line.split(",") for line in decisions_csv(decisions, targets).splitlines()[1:]]

    cumulative = np.zeros((n_chars, reps, 2, n))
    for char, rep, block, flash_id, score in zip(
        e.char_index, e.repetition, e.block, e.flash_id, scores
    ):
        cumulative[char, rep:, block, flash_id - 1] += score
    assert np.array_equal(decisions.scores, cumulative)
    hits = np.zeros((n_chars, reps))
    for c in range(n_chars):
        for k in range(reps):
            f_r, f_c = (int(np.flatnonzero(s == s.max())[0]) + 1 for s in cumulative[c, k])
            rows, cols = np.nonzero((pattern.r_hat == f_r) & (pattern.c_hat == f_c))
            assert len(rows) == 1
            cell = (int(rows[0]) + 1, int(cols[0]) + 1)
            assert tuple(decisions.cells[c, k].tolist()) == cell
            hits[c, k] = cell == targets[c]
            assert csv_rows[c * reps + k] == [str(c), str(k + 1), matrix.symbol_at(*cell),
                                              str(int(hits[c, k]))]
    assert np.array_equal(accuracy_by_repetition(decisions, targets), hits.mean(axis=0))


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
        sched = make_cp300_schedule(make_rc_pattern(6), 2, ISI, [(1, 1), (2, 5)], seed=0)
        decisions = decode_characters(sched, oracle_scores(sched))
        text = decisions_csv(decisions, [(1, 1), (3, 5)])
        assert text == ("char_index,k,selected_symbol,correct\n"
                        "0,1,A,1\n0,2,A,1\n1,1,K,0\n1,2,K,0\n")

    def test_symbols_of_the_grid_size(self):
        """The grid's size comes from the score table: a 12 x 12 grid names
        its cells by the numbered tokens of ``default_matrix(12)``."""
        sched = make_cp300_schedule(make_rc_pattern(12), 1, ISI, [(12, 1)], seed=0)
        decisions = decode_characters(sched, oracle_scores(sched))
        assert decisions_csv(decisions, [(12, 1)]).splitlines()[1] == "0,1,S132,1"
