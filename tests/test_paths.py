"""Unit tests for repro.core.paths — Table I and the Fig. 2c lattice function."""

import itertools
from collections import Counter

import pytest

from repro.core.lattice import Lattice
from repro.core.paths import (
    PAPER_TABLE_I,
    count_lattice_products,
    enumerate_lattice_products,
    fig2c_products,
    lattice_function_products,
    lattice_function_string,
    paper_product_count,
    product_count_table,
)


class TestEnumeration:
    def test_single_row_products(self):
        products = list(enumerate_lattice_products(1, 4))
        assert products == [((0, 0),), ((0, 1),), ((0, 2),), ((0, 3),)]

    def test_two_by_two_products(self):
        products = {frozenset(p) for p in enumerate_lattice_products(2, 2)}
        assert products == {frozenset({(0, 0), (1, 0)}), frozenset({(0, 1), (1, 1)})}

    def test_paths_start_top_end_bottom(self):
        for path in enumerate_lattice_products(4, 3):
            assert path[0][0] == 0
            assert path[-1][0] == 3
            # only the first cell is in the top row, only the last in the bottom row
            assert sum(1 for r, _ in path if r == 0) == 1
            assert sum(1 for r, _ in path if r == 3) == 1

    def test_paths_are_connected_and_simple(self):
        for path in enumerate_lattice_products(4, 4):
            assert len(set(path)) == len(path)
            for (r1, c1), (r2, c2) in zip(path, path[1:]):
                assert abs(r1 - r2) + abs(c1 - c2) == 1

    def test_paths_are_chordless(self):
        for path in enumerate_lattice_products(4, 4):
            cells = set(path)
            for i, (r, c) in enumerate(path):
                neighbours_on_path = sum(
                    1
                    for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                    if (rr, cc) in cells
                )
                expected = 1 if i in (0, len(path) - 1) else 2
                assert neighbours_on_path == expected

    def test_no_product_contains_another(self):
        products = [frozenset(p) for p in enumerate_lattice_products(4, 3)]
        for i, a in enumerate(products):
            for j, b in enumerate(products):
                if i != j:
                    assert not (a < b), "an irredundant product list may not contain subsets"

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            count_lattice_products(0, 3)

    def test_documented_order_of_first_4x4_products(self):
        first_ten = list(itertools.islice(enumerate_lattice_products(4, 4), 10))
        assert first_ten == [
            ((0, 0), (1, 0), (2, 0), (3, 0)),
            ((0, 0), (1, 0), (2, 0), (2, 1), (3, 1)),
            ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (3, 2)),
            ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (2, 3), (3, 3)),
            ((0, 0), (1, 0), (1, 1), (2, 1), (3, 1)),
            ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)),
            ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (3, 3)),
            ((0, 0), (1, 0), (1, 1), (1, 2), (2, 2), (3, 2)),
            ((0, 0), (1, 0), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3)),
            ((0, 0), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3), (3, 3)),
        ]


def _connects_plates(cells, rows):
    """True when the cell set holds a 4-connected top-row-to-bottom-row path."""
    frontier = [cell for cell in cells if cell[0] == 0]
    seen = set(frontier)
    while frontier:
        r, c = frontier.pop()
        if r == rows - 1:
            return True
        for neighbour in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if neighbour in cells and neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return False


def _brute_force_product_count(rows, cols):
    """Minimal plate-connecting cell sets, found from the definition alone.

    Every subset of cells is tested for top-to-bottom connectivity; the
    products are the connecting sets with no connecting proper subset.  A
    connecting set is minimal iff dropping any single cell disconnects it
    (connectivity is monotone in the cell set).
    """
    grid = [(r, c) for r in range(rows) for c in range(cols)]
    minimal = 0
    for size in range(1, len(grid) + 1):
        for subset in itertools.combinations(grid, size):
            cells = set(subset)
            if _connects_plates(cells, rows) and not any(
                _connects_plates(cells - {cell}, rows) for cell in subset
            ):
                minimal += 1
    return minimal


class TestCounterOracles:
    @pytest.mark.parametrize("rows", range(1, 7))
    @pytest.mark.parametrize("cols", range(1, 7))
    def test_count_equals_enumeration_length(self, rows, cols):
        assert count_lattice_products(rows, cols) == len(
            list(enumerate_lattice_products(rows, cols))
        )

    @pytest.mark.parametrize("rows,cols", [(5, 4), (4, 5), (6, 6), (3, 7)])
    def test_mirrored_start_columns_yield_equal_counts(self, rows, cols):
        paths = list(enumerate_lattice_products(rows, cols))
        per_column = Counter(path[0][1] for path in paths)
        for col in range(cols):
            assert per_column[col] == per_column[cols - 1 - col]
        mirrored = {tuple((r, cols - 1 - c) for r, c in path) for path in paths}
        assert mirrored == set(paths)

    @pytest.mark.parametrize(
        "rows,cols", [(1, 3), (2, 2), (2, 4), (3, 2), (3, 3), (3, 4), (4, 3), (4, 2)]
    )
    def test_count_matches_brute_force_minimal_sets(self, rows, cols):
        assert count_lattice_products(rows, cols) == _brute_force_product_count(rows, cols)


class TestTableI:
    @pytest.mark.parametrize("rows", range(2, 7))
    @pytest.mark.parametrize("cols", range(2, 7))
    def test_matches_paper_up_to_6x6(self, rows, cols):
        assert count_lattice_products(rows, cols) == PAPER_TABLE_I[(rows, cols)]

    @pytest.mark.parametrize(
        "rows,cols",
        [(2, 9), (3, 9), (9, 2), (7, 7), (4, 8), (8, 4), (5, 8), (7, 5), (8, 8)],
    )
    def test_matches_paper_rectangular_cases(self, rows, cols):
        assert count_lattice_products(rows, cols) == PAPER_TABLE_I[(rows, cols)]

    def test_table_is_not_symmetric(self):
        # The paper highlights that m x n and n x m differ (e.g. 6x6 vs 9x4).
        assert PAPER_TABLE_I[(6, 3)] != PAPER_TABLE_I[(3, 6)]
        assert count_lattice_products(6, 3) != count_lattice_products(3, 6)

    def test_product_count_table_subset(self):
        table = product_count_table(max_rows=4, max_cols=4)
        assert set(table) == {(r, c) for r in range(2, 5) for c in range(2, 5)}
        assert all(table[key] == PAPER_TABLE_I[key] for key in table)

    def test_product_count_table_empty_raises(self):
        with pytest.raises(ValueError):
            product_count_table(max_rows=2, max_cols=2, min_rows=3)

    def test_paper_product_count_lookup(self):
        assert paper_product_count(9, 9) == 38930447
        assert paper_product_count(10, 10) is None

    def test_paper_table_has_64_entries(self):
        assert len(PAPER_TABLE_I) == 64

    def test_counts_grow_with_size(self):
        assert count_lattice_products(5, 5) > count_lattice_products(4, 5) > count_lattice_products(4, 4)


class TestLatticeFunctionProducts:
    def test_fig2c_products(self):
        lattice = Lattice.identity(3, 3)
        products = lattice_function_products(lattice)
        expected = set()
        for text in fig2c_products():
            literals = frozenset("x" + digits for digits in text.split("x") if digits)
            expected.add(literals)
        assert {frozenset(p) for p in products} == expected

    def test_fig2c_string_has_nine_terms(self):
        text = lattice_function_string(Lattice.identity(3, 3))
        assert text.count("+") == 8

    def test_constant_zero_cells_removed(self):
        lattice = Lattice.from_strings(["a b", "0 c"])
        products = lattice_function_products(lattice)
        assert frozenset({"b", "c"}) in products
        assert all("0" not in p for p in products)

    def test_constant_one_cells_dropped_from_product(self):
        lattice = Lattice.from_strings(["a", "1", "b"])
        products = lattice_function_products(lattice)
        assert products == [frozenset({"a", "b"})]

    def test_contradictory_paths_removed(self):
        lattice = Lattice.from_strings(["a", "a'"])
        assert lattice_function_products(lattice) == []
        assert lattice_function_string(lattice) == "0"

    def test_repeated_literal_collapses(self):
        lattice = Lattice.from_strings(["a", "a"])
        assert lattice_function_products(lattice) == [frozenset({"a"})]

    def test_xor3_3x3_has_four_products(self, xor3_3x3):
        products = lattice_function_products(xor3_3x3)
        assert len(products) == 4
        assert all(len(p) == 3 for p in products)

    def test_superset_products_removed(self):
        # Column 'a' alone connects top to bottom; the path through b is redundant.
        lattice = Lattice.from_strings(["a b", "a b", "a 0"])
        products = lattice_function_products(lattice)
        assert frozenset({"a"}) in products
        assert not any(p > frozenset({"a"}) for p in products)
