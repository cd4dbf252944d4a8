"""Turn per-flash classifier scores into character selections.

Scores are summed per (block, flash id) over the first k repetitions, for
every character and k at once; the winning row-block and column-block
flashes index the pattern's pair table (``patterns.pair_table``) for the
selected cell.  Ties break toward the lowest flash id so decoding is
deterministic.  Only the (block, flash id) grouping is used -- cell
geometry never enters.  The decoder returns cells; ``decisions_csv`` is the
one place a cell is named by its symbol.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PipelineError
from .patterns import default_matrix, pair_table
from .scheduler import Schedule


@dataclass(frozen=True)
class Decisions:
    """Every selection of a session, indexed [character, k - 1] after k
    repetitions: the selected (row, col) ``cells``, shape (chars, reps, 2);
    the accumulated per-(block, flash) ``scores``, shape (chars, reps, 2, n),
    row-block scores first."""

    cells: np.ndarray
    scores: np.ndarray


def decode_characters(schedule: Schedule, scores) -> Decisions:
    """Decode every character of a schedule from per-flash-event scores.

    ``scores`` must hold one value per flash event, in schedule order.
    """
    flashes = schedule.events[schedule.events.is_flash]
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(flashes),):
        raise PipelineError(
            f"score/event count mismatch: {scores.shape[0] if scores.ndim else 0} scores "
            f"for {len(flashes)} flash events"
        )
    # each (character, repetition, block, flash) is flashed once, so it gets one score
    acc = np.zeros((len(schedule.targets), schedule.reps, 2, schedule.n))
    acc[flashes.char_index, flashes.repetition, flashes.block, flashes.flash_id - 1] = scores
    cumulative = np.cumsum(acc, axis=1)
    winners = cumulative.argmax(axis=-1)  # first max = lowest flash id
    cells = pair_table(schedule.pattern)[winners[..., 0], winners[..., 1]]
    return Decisions(cells, cumulative)


def _hits(decisions: Decisions, truth) -> np.ndarray:
    """Whether each selection is its character's ground-truth cell, shape (chars, reps)."""
    truth = np.asarray(truth, dtype=int).reshape(-1, 2)
    if len(decisions.cells) != len(truth):
        raise PipelineError(f"{len(decisions.cells)} decisions but {len(truth)} ground-truth cells")
    return np.all(decisions.cells == truth[:, None], axis=-1)


def accuracy_by_repetition(decisions: Decisions, truth) -> np.ndarray:
    """Fraction of characters decoded correctly after k repetitions, k = 1..reps."""
    return _hits(decisions, truth).mean(axis=0)


def decisions_csv(decisions: Decisions, truth) -> str:
    """CSV export: char_index, k, selected_symbol, correct.  The symbol is
    the selected cell's in ``patterns.default_matrix`` of the grid's size."""
    hits = _hits(decisions, truth)
    chars, ks = np.indices(hits.shape)
    matrix = default_matrix(decisions.scores.shape[-1])
    labels = matrix.symbol_at(*decisions.cells.reshape(-1, 2).T).tolist()
    rows = zip(chars.ravel().tolist(), (ks.ravel() + 1).tolist(), labels, hits.ravel().tolist())
    lines = [f"{c},{k},{label},{hit:d}" for c, k, label, hit in rows]
    return "\n".join(["char_index,k,selected_symbol,correct"] + lines) + "\n"
