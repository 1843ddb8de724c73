"""Table I — number of products of the m x n lattice function."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis.reporting import Table
from repro.core.paths import PAPER_TABLE_I, product_count_table


@dataclass
class Table1Result:
    """Computed product counts next to the paper's values.

    Attributes
    ----------
    computed:
        ``{(rows, cols): count}`` for every size that was computed.
    max_rows / max_cols:
        The caps used for the run.
    """

    computed: Dict[Tuple[int, int], int]
    max_rows: int
    max_cols: int

    @property
    def paper(self) -> Dict[Tuple[int, int], int]:
        """The corresponding subset of the paper's Table I."""
        return {key: PAPER_TABLE_I[key] for key in self.computed if key in PAPER_TABLE_I}

    @property
    def mismatches(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """Entries where the computed count differs from the paper's."""
        return {
            key: (value, PAPER_TABLE_I[key])
            for key, value in self.computed.items()
            if key in PAPER_TABLE_I and PAPER_TABLE_I[key] != value
        }

    @property
    def all_match(self) -> bool:
        return not self.mismatches

    def report(self) -> str:
        """Render the computed table with the paper value in parentheses."""
        cols = sorted({c for _, c in self.computed})
        table = Table(
            ["m/n"] + [str(c) for c in cols],
            title=f"Table I — products of the m x n lattice function (computed vs paper), up to {self.max_rows}x{self.max_cols}",
        )
        rows = sorted({r for r, _ in self.computed})
        for r in rows:
            cells = [str(r)]
            for c in cols:
                value = self.computed.get((r, c))
                if value is None:
                    cells.append("-")
                    continue
                paper = PAPER_TABLE_I.get((r, c))
                cells.append(f"{value}" if paper == value else f"{value} (paper {paper})")
            table.add_row(cells)
        return table.render()


def run_table1(max_rows: int = 7, max_cols: int = 7) -> Table1Result:
    """Compute Table I up to the given size caps.

    The default 7x7 cap counts in ~0.06 s; the full 9x9 table (38.9 million
    products in the last cell alone) is exact but takes about a minute and
    can be requested by passing ``max_rows=9, max_cols=9`` (times measured
    on a 2-vCPU x86-64 VM with CPython 3.11; see :mod:`repro.core.paths`).
    """
    computed = product_count_table(max_rows=max_rows, max_cols=max_cols)
    return Table1Result(computed=computed, max_rows=max_rows, max_cols=max_cols)
