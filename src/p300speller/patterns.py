"""Flash-pattern construction and validation for matrix spellers.

A flash pattern assigns every cell of an N x N symbol grid to one of N
row-block flashes and one of N column-block flashes.  Classical spellers
use literal rows and columns, so a whole line of neighbouring symbols
lights up at once.  The constrained construction here cyclically shifts
the index rows instead: a cell is still uniquely identified by its
(row-flash, column-flash) pair, but no two horizontally or vertically
adjacent cells are ever lit by the same flash.  ``pair_table`` inverts
that pair map, checking once that it is a bijection; the decoder reads its
selections from the table.

All grid coordinates and flash indices are 1-based.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

ROW_BLOCK = "row"
COL_BLOCK = "col"

ALPHANUM = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
# the largest grid dimension the pattern command builds: a pattern holds 2 n^2
# flash indices and the rc and permuted makers permute n^2 cells, so its peak
# grows as n^2 (49 MB at 256, 279 MB at 1,000, 74.5 GiB of cells at 100,000)
MAX_N = 256


@dataclass(frozen=True)
class SpellerMatrix:
    """Square grid of distinct display symbols."""

    n: int
    symbols: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"grid dimension must be >= 2, got {self.n}")
        if len(self.symbols) != self.n or any(len(row) != self.n for row in self.symbols):
            raise ValidationError("symbol grid is not square")
        flat = [s for row in self.symbols for s in row]
        if len(set(flat)) != self.n * self.n:
            raise ValidationError("symbols are not all distinct")

    def symbol_at(self, row, col):
        """The symbol at cell (row, col); arrays of rows and columns give an array."""
        return np.array(self.symbols)[np.asarray(row) - 1, np.asarray(col) - 1]

    def locate(self, symbol: str) -> tuple[int, int]:
        """Return the (row, col) cell displaying ``symbol``."""
        for i, row in enumerate(self.symbols):
            for j, s in enumerate(row):
                if s == symbol:
                    return (i + 1, j + 1)
        raise ValidationError(f"symbol {symbol!r} is not in the matrix")


def default_matrix(n: int = 6) -> SpellerMatrix:
    """The usual alphanumeric layout (A..Z, 0..9 row-major for n=6).

    For n > 6 the alphanumeric pool runs out and numbered tokens are used.
    """
    count = n * n
    if count <= len(ALPHANUM):
        flat = list(ALPHANUM[:count])
    else:
        flat = [f"S{k:03d}" for k in range(count)]
    rows = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
    return SpellerMatrix(n=n, symbols=rows)


@dataclass(frozen=True)
class FlashPattern:
    """Pair of N x N matrices mapping each cell to its two flash indices.

    ``r_hat[i, j]`` is the row-block flash that lights cell (i+1, j+1);
    ``c_hat[i, j]`` the column-block flash.  Values are in 1..n.
    """

    n: int
    kind: str  # "classical" | "permuted" | "constrained"
    r_hat: np.ndarray
    c_hat: np.ndarray

    def __post_init__(self):
        for name in ("r_hat", "c_hat"):
            m = np.asarray(getattr(self, name), dtype=int)
            if m.shape != (self.n, self.n):
                raise ValidationError(f"{name} must be {self.n}x{self.n}")
            m.flags.writeable = False
            object.__setattr__(self, name, m)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "r_hat": self.r_hat.tolist(),
            "c_hat": self.c_hat.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FlashPattern":
        return cls(
            n=int(obj["n"]),
            kind=str(obj["kind"]),
            r_hat=np.asarray(obj["r_hat"], dtype=int),
            c_hat=np.asarray(obj["c_hat"], dtype=int),
        )


@dataclass(frozen=True)
class PatternReport:
    """Exhaustive validity summary of a flash pattern."""

    pair_bijective: bool
    balanced: bool
    r_contiguity_violations: int
    c_contiguity_violations: int

    @property
    def clean(self) -> bool:
        return (
            self.pair_bijective
            and self.balanced
            and self.r_contiguity_violations == 0
            and self.c_contiguity_violations == 0
        )


def make_rc_pattern(n: int) -> FlashPattern:
    """Classical pattern: flash f lights row f (row block) or column f."""
    return replace(make_permuted_pattern(n, np.arange(1, n * n + 1)), kind="classical")


def make_permuted_pattern(n: int, v) -> FlashPattern:
    """Relocate the classical flash groups through a permutation of cells.

    ``v`` is a permutation of 1..n^2 over row-major cell ranks: cell with
    rank k inherits the (row, col) flash labels of the classical cell with
    rank v[k].  The identity permutation reproduces the classical pattern;
    any permutation preserves the pair bijection.
    """
    if n < 2:
        raise ValidationError(f"grid dimension must be >= 2, got {n}")
    src = _as_permutation(n * n, v, "v", None) - 1  # 0-based rank of each cell's classical cell
    row, col = np.divmod(src.reshape(n, n), n)
    return FlashPattern(n=n, kind="permuted", r_hat=row + 1, c_hat=col + 1)


def make_constrained_pattern(n: int, pi_r=None, pi_c=None, rng=None) -> FlashPattern:
    """Cyclic-shift pattern with no flash on two 4-adjacent cells.

    Row labels shift by one per grid row, column labels by two, so
    horizontally and vertically neighbouring cells always carry different
    flash indices in both matrices while the pair map stays bijective
    (the cell map (i, j) -> (j - i, j - 2i) mod n is unimodular).
    ``pi_r`` / ``pi_c`` relabel the first row of each matrix; when omitted
    they are drawn from ``rng`` (``pi_r`` first), or are the identity.

    The column-label shift of two needs 2 mod n != 0, hence n >= 3, checked first.
    """
    if n < 3:
        raise ValidationError(
            f"constrained construction needs n >= 3 (got {n}): the vertical "
            "spacing of the column labels degenerates when 2 mod n == 0"
        )
    pi_r = _as_permutation(n, pi_r, "pi_r", rng)
    pi_c = _as_permutation(n, pi_c, "pi_c", rng)
    i0, j0 = np.indices((n, n))
    r_hat = pi_r[(j0 - i0) % n]
    c_hat = pi_c[(j0 - 2 * i0) % n]
    return FlashPattern(n=n, kind="constrained", r_hat=r_hat, c_hat=c_hat)


def _as_permutation(n: int, pi, name: str, rng) -> np.ndarray:
    if pi is None:
        return np.arange(1, n + 1) if rng is None else rng.permutation(n) + 1
    pi = np.asarray(pi, dtype=int)
    if pi.shape != (n,) or not np.array_equal(np.sort(pi), np.arange(1, n + 1)):
        raise ValidationError(f"{name} is not a permutation of 1..{n}")
    return pi


def validate_pattern(p: FlashPattern) -> PatternReport:
    """Check balance, pair bijectivity, and 4-adjacency collisions.

    Everything is computed by exhaustive enumeration; adjacency counts
    pairs of horizontally or vertically neighbouring cells that share a
    flash index (diagonals do not count).
    """
    counts = _pair_counts(p)  # each row-block flash is a row, each column-block one a column
    return PatternReport(
        pair_bijective=bool(np.all(counts == 1)),
        balanced=bool(np.all(counts.sum(axis=0) == p.n) and np.all(counts.sum(axis=1) == p.n)),
        r_contiguity_violations=_adjacency_collisions(p.r_hat),
        c_contiguity_violations=_adjacency_collisions(p.c_hat),
    )


def _adjacency_collisions(m: np.ndarray) -> int:
    horizontal = int(np.sum(m[:, :-1] == m[:, 1:]))
    vertical = int(np.sum(m[:-1, :] == m[1:, :]))
    return horizontal + vertical


def cells_for_flash(p: FlashPattern, block: str, f: int) -> set[tuple[int, int]]:
    """The set of (row, col) cells lit by flash ``f`` of the given block."""
    if block not in (ROW_BLOCK, COL_BLOCK):
        raise ValidationError(f"block must be {ROW_BLOCK!r} or {COL_BLOCK!r}, got {block!r}")
    if not 1 <= f <= p.n:
        raise ValidationError(f"flash index {f} outside 1..{p.n}")
    m = p.r_hat if block == ROW_BLOCK else p.c_hat
    rows, cols = np.nonzero(m == f)
    return {(int(i) + 1, int(j) + 1) for i, j in zip(rows, cols)}


def pair_table(p: FlashPattern) -> np.ndarray:
    """The pair map's inverse, shape (n, n, 2): ``table[f_r - 1, f_c - 1]`` is
    the (row, col) of the one cell lit by row-block flash ``f_r`` and
    column-block flash ``f_c``.  The one check that every such couple lights
    exactly one cell."""
    counts = _pair_counts(p)
    if np.any(counts != 1):
        f_r, f_c = np.argwhere(counts != 1)[0]
        raise ValidationError(f"pattern pair map is not bijective: couple ({f_r + 1}, "
                              f"{f_c + 1}) occurs {counts[f_r, f_c]} times")
    table = np.empty((p.n, p.n, 2), dtype=int)
    table[p.r_hat - 1, p.c_hat - 1] = np.moveaxis(np.indices((p.n, p.n)) + 1, 0, -1)
    return table


def _pair_counts(p: FlashPattern) -> np.ndarray:
    """Cells lit per (row-block flash, column-block flash) couple; entries must lie in 1..n."""
    n = p.n
    for m in (p.r_hat, p.c_hat):
        if m.min() < 1 or m.max() > n:
            raise ValidationError("pattern entries must lie in 1..n")
    return np.bincount(((p.r_hat - 1) * n + p.c_hat - 1).ravel(), minlength=n * n).reshape(n, n)
