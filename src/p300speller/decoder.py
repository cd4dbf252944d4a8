"""Turn per-flash classifier scores into character selections.

Scores are summed per (block, flash id) over the first k repetitions; the
winning row-block and column-block flashes are intersected through the
pattern's pair map.  Ties break toward the lowest flash id so decoding is
deterministic.  Only the (block, flash id) grouping is used -- cell
geometry never enters, so relabeling symbols permutes decisions exactly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PipelineError
from .patterns import SpellerMatrix, pair_to_cell
from .scheduler import Schedule


@dataclass
class CharDecision:
    """Selections for one spelled character at every repetition budget.

    ``per_k[k-1]`` is the (cell, symbol) selected after k repetitions;
    ``score_table[k-1]`` the accumulated per-(block, flash) scores at that
    point, shape (2, n) with row-block scores first.
    """

    char_index: int
    per_k: list[tuple[tuple[int, int], str | None]]
    score_table: np.ndarray  # (reps, 2, n)


def decode_characters(
    schedule: Schedule, scores, matrix: SpellerMatrix | None = None
) -> list[CharDecision]:
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
    pattern = schedule.pattern
    n_chars = len(schedule.targets)
    reps = schedule.reps
    # each (character, repetition, block, flash) is flashed once, so it gets one score
    acc = np.zeros((n_chars, reps, 2, pattern.n))
    acc[flashes.char_index, flashes.repetition, flashes.block, flashes.flash_id - 1] = scores
    cumulative = np.cumsum(acc, axis=1)

    decisions = []
    for c in range(n_chars):
        per_k = []
        for k in range(reps):
            f_r = int(np.argmax(cumulative[c, k, 0])) + 1  # first max = lowest flash id
            f_c = int(np.argmax(cumulative[c, k, 1])) + 1
            cell = pair_to_cell(pattern, f_r, f_c)
            symbol = matrix.symbol_at(*cell) if matrix is not None else None
            per_k.append((cell, symbol))
        decisions.append(
            CharDecision(char_index=c, per_k=per_k, score_table=cumulative[c].copy())
        )
    return decisions


def accuracy_by_repetition(decisions: list[CharDecision], truth) -> np.ndarray:
    """Fraction of characters decoded correctly after k repetitions, k = 1..reps."""
    truth = [(int(r), int(c)) for r, c in truth]
    if len(decisions) != len(truth):
        raise PipelineError(
            f"{len(decisions)} decisions but {len(truth)} ground-truth cells"
        )
    hits = [[cell == target for cell, _ in d.per_k] for d, target in zip(decisions, truth)]
    return np.mean(hits, axis=0)


def decisions_csv(decisions: list[CharDecision], truth) -> str:
    """CSV export: char_index, k, selected_symbol, correct."""
    truth = [(int(r), int(c)) for r, c in truth]
    lines = ["char_index,k,selected_symbol,correct"]
    for decision, target in zip(decisions, truth):
        for k, (cell, symbol) in enumerate(decision.per_k, start=1):
            label = symbol if symbol is not None else f"({cell[0]},{cell[1]})"
            lines.append(f"{decision.char_index},{k},{label},{int(cell == target)}")
    return "\n".join(lines) + "\n"
