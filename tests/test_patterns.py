import numpy as np
import pytest

from p300speller.errors import ValidationError
from p300speller.patterns import (
    FlashPattern,
    SpellerMatrix,
    cells_for_flash,
    default_matrix,
    make_constrained_pattern,
    make_permuted_pattern,
    make_rc_pattern,
    pair_table,
    validate_pattern,
)

# reference 6x6 constrained matrices (identity labels): row labels
# shift right by one per row, column labels by two
REFERENCE_R_HAT = [
    [1, 2, 3, 4, 5, 6],
    [6, 1, 2, 3, 4, 5],
    [5, 6, 1, 2, 3, 4],
    [4, 5, 6, 1, 2, 3],
    [3, 4, 5, 6, 1, 2],
    [2, 3, 4, 5, 6, 1],
]
REFERENCE_C_HAT = [
    [1, 2, 3, 4, 5, 6],
    [5, 6, 1, 2, 3, 4],
    [3, 4, 5, 6, 1, 2],
    [1, 2, 3, 4, 5, 6],
    [5, 6, 1, 2, 3, 4],
    [3, 4, 5, 6, 1, 2],
]


def brute_force_adjacency(m):
    """Independent 4-neighbourhood collision count by explicit enumeration."""
    m = np.asarray(m)
    n = m.shape[0]
    count = 0
    for i in range(n):
        for j in range(n):
            if j + 1 < n and m[i, j] == m[i, j + 1]:
                count += 1
            if i + 1 < n and m[i, j] == m[i + 1, j]:
                count += 1
    return count


class TestRcPattern:
    def test_n6_matches_definition(self):
        p = make_rc_pattern(6)
        assert np.array_equal(p.r_hat, [[i] * 6 for i in range(1, 7)])
        assert np.array_equal(p.c_hat, [list(range(1, 7))] * 6)
        assert p.kind == "classical"

    def test_n2(self):
        p = make_rc_pattern(2)
        assert p.r_hat.tolist() == [[1, 1], [2, 2]]
        assert p.c_hat.tolist() == [[1, 2], [1, 2]]

    def test_n6_report(self):
        # each row of R has 5 adjacent equal pairs, 6 rows -> 30; same for C
        rep = validate_pattern(make_rc_pattern(6))
        assert rep.pair_bijective and rep.balanced
        assert rep.r_contiguity_violations == 30
        assert rep.c_contiguity_violations == 30

    def test_invalid_dimension(self):
        with pytest.raises(ValidationError):
            make_rc_pattern(1)


class TestPermutedPattern:
    def test_identity_equals_classical(self):
        for n in (2, 4, 6):
            p = make_permuted_pattern(n, np.arange(1, n * n + 1))
            rc = make_rc_pattern(n)
            assert np.array_equal(p.r_hat, rc.r_hat)
            assert np.array_equal(p.c_hat, rc.c_hat)

    def test_n2_hand_example(self):
        p = make_permuted_pattern(2, [2, 1, 3, 4])
        assert p.r_hat.tolist() == [[1, 1], [2, 2]]
        assert p.c_hat.tolist() == [[2, 1], [1, 2]]

    def test_any_permutation_bijective(self):
        rng = np.random.default_rng(7)
        for n in (3, 5, 6):
            for _ in range(20):
                p = make_permuted_pattern(n, rng.permutation(n * n) + 1)
                rep = validate_pattern(p)
                assert rep.pair_bijective and rep.balanced

    def test_invalid_permutation(self):
        with pytest.raises(ValidationError, match="permutation"):
            make_permuted_pattern(2, [1, 1, 3, 4])
        with pytest.raises(ValidationError, match="permutation"):
            make_permuted_pattern(2, [1, 2, 3])


class TestConstrainedPattern:
    def test_reference_n6_matrices(self):
        p = make_constrained_pattern(6)
        assert p.r_hat.tolist() == REFERENCE_R_HAT
        assert p.c_hat.tolist() == REFERENCE_C_HAT

    def test_n3_hand_example(self):
        p = make_constrained_pattern(3)
        assert p.r_hat.tolist() == [[1, 2, 3], [3, 1, 2], [2, 3, 1]]
        assert p.c_hat.tolist() == [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
        rep = validate_pattern(p)
        assert rep.clean

    def test_n2_infeasible(self):
        with pytest.raises(ValidationError, match="n >= 3"):
            make_constrained_pattern(2)

    def test_rng_draws_pi_r_then_pi_c(self):
        drawn = make_constrained_pattern(6, rng=np.random.default_rng(5))
        rng = np.random.default_rng(5)
        given = make_constrained_pattern(6, rng.permutation(6) + 1, rng.permutation(6) + 1)
        assert drawn.to_json() == given.to_json()

    @pytest.mark.parametrize("n", [-1, 0, 2])
    def test_small_n_rejected_before_any_draw(self, n):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match="n >= 3"):
            make_constrained_pattern(n, rng=rng)
        assert rng.bit_generator.state == state

    def test_random_labels_always_clean(self):
        rng = np.random.default_rng(0)
        for n in range(3, 13):
            for _ in range(20):
                p = make_constrained_pattern(
                    n, rng.permutation(n) + 1, rng.permutation(n) + 1
                )
                rep = validate_pattern(p)
                assert rep.clean, (n, p)

    def test_adjacency_against_brute_force(self):
        rng = np.random.default_rng(3)
        for n in (3, 6, 9):
            p = make_constrained_pattern(n, rng.permutation(n) + 1, rng.permutation(n) + 1)
            assert brute_force_adjacency(p.r_hat) == 0
            assert brute_force_adjacency(p.c_hat) == 0
        rc = make_rc_pattern(6)
        rep = validate_pattern(rc)
        assert rep.r_contiguity_violations == brute_force_adjacency(rc.r_hat)
        assert rep.c_contiguity_violations == brute_force_adjacency(rc.c_hat)


class TestValidatePattern:
    def test_all_ones_unbalanced(self):
        p = FlashPattern(n=3, kind="permuted", r_hat=np.ones((3, 3), int),
                         c_hat=make_rc_pattern(3).c_hat)
        rep = validate_pattern(p)
        assert not rep.balanced
        assert not rep.pair_bijective

    def test_out_of_range_entries(self):
        p = FlashPattern(n=3, kind="permuted", r_hat=np.full((3, 3), 4),
                         c_hat=make_rc_pattern(3).c_hat)
        with pytest.raises(ValidationError, match="1..n"):
            validate_pattern(p)


class TestCellsForFlash:
    def test_classical_row(self):
        p = make_rc_pattern(6)
        assert cells_for_flash(p, "row", 2) == {(2, j) for j in range(1, 7)}

    def test_constrained_diagonal(self):
        p = make_constrained_pattern(6)
        assert cells_for_flash(p, "row", 1) == {(k, k) for k in range(1, 7)}

    def test_always_n_cells(self):
        rng = np.random.default_rng(5)
        for n in (3, 6, 8):
            p = make_constrained_pattern(n, rng.permutation(n) + 1, rng.permutation(n) + 1)
            for block in ("row", "col"):
                for f in range(1, n + 1):
                    assert len(cells_for_flash(p, block, f)) == n

    def test_invalid_flash(self):
        p = make_rc_pattern(6)
        with pytest.raises(ValidationError, match="flash index"):
            cells_for_flash(p, "row", 7)
        with pytest.raises(ValidationError, match="block"):
            cells_for_flash(p, "diag", 1)


class TestPairToCell:
    """``pair_table[f_r - 1, f_c - 1]`` is the cell lit by both flashes."""

    def test_classical_intersection(self):
        p = make_rc_pattern(6)
        assert pair_table(p)[2 - 1, 5 - 1].tolist() == [2, 5]

    def test_reference_pattern_examples(self):
        table = pair_table(make_constrained_pattern(6))
        assert table.shape == (6, 6, 2)
        assert table[6 - 1, 5 - 1].tolist() == [2, 1]
        assert table[1 - 1, 1 - 1].tolist() == [1, 1]

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(11)
        for maker in (
            lambda n: make_rc_pattern(n),
            lambda n: make_constrained_pattern(n, rng.permutation(n) + 1, rng.permutation(n) + 1),
            lambda n: make_permuted_pattern(n, rng.permutation(n * n) + 1),
        ):
            for n in (3, 6):
                p = maker(n)
                table = pair_table(p)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        f_r, f_c = int(p.r_hat[i - 1, j - 1]), int(p.c_hat[i - 1, j - 1])
                        assert table[f_r - 1, f_c - 1].tolist() == [i, j]

    def test_ambiguous_pattern(self):
        p = FlashPattern(n=2, kind="permuted", r_hat=np.ones((2, 2), int),
                         c_hat=np.ones((2, 2), int))
        with pytest.raises(ValidationError, match="bijective"):
            pair_table(p)

    def test_names_the_first_bad_couple(self):
        rc = make_rc_pattern(6)
        p = FlashPattern(n=6, kind="permuted", r_hat=rc.r_hat, c_hat=rc.r_hat)
        with pytest.raises(ValidationError, match=r"couple \(1, 1\) occurs 6 times"):
            pair_table(p)
        assert not validate_pattern(p).pair_bijective

    def test_out_of_range_entry(self):
        r_hat = make_rc_pattern(6).r_hat.copy()
        r_hat[2, 3] = 99
        p = FlashPattern(n=6, kind="classical", r_hat=r_hat, c_hat=make_rc_pattern(6).c_hat)
        with pytest.raises(ValidationError, match="1..n"):
            pair_table(p)


class TestSerialization:
    def test_json_roundtrip(self):
        p = make_constrained_pattern(6, [2, 1, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1])
        q = FlashPattern.from_json(p.to_json())
        assert q.n == p.n and q.kind == p.kind
        assert np.array_equal(q.r_hat, p.r_hat)
        assert np.array_equal(q.c_hat, p.c_hat)

    def test_json_shape(self):
        obj = make_rc_pattern(3).to_json()
        assert set(obj) == {"n", "kind", "r_hat", "c_hat"}
        assert obj["r_hat"] == [[1, 1, 1], [2, 2, 2], [3, 3, 3]]


class TestSpellerMatrix:
    def test_default_6x6(self):
        m = default_matrix(6)
        assert m.symbol_at(1, 1) == "A"
        assert m.symbol_at(6, 6) == "9"
        assert m.locate("Z") == (5, 2)

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            SpellerMatrix(n=2, symbols=(("A", "B"), ("A", "C")))

    def test_missing_symbol(self):
        with pytest.raises(ValidationError, match="not in the matrix"):
            default_matrix(6).locate("?")
