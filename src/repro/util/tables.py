"""Plain-text table rendering for experiment reports.

Every experiment report prints through this module (the CLI's tables
and an archived result's ``load_result(path).render()``), so the
output format matches everywhere: a title line, a header row, an ASCII
rule and aligned columns.  Floats are rendered with a configurable format;
``None`` renders as ``-``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = ["Table"]


def _format_cell(value: Any, floatfmt: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, floatfmt)
    return str(value)


@dataclass
class Table:
    """An append-only table with aligned plain-text rendering.

    Parameters
    ----------
    headers:
        Column names.
    title:
        Optional title printed above the table.
    floatfmt:
        ``format()`` spec applied to float cells (default 4 significant
        digits).
    """

    headers: Sequence[str]
    title: str = ""
    floatfmt: str = ".4g"
    rows: list[tuple[Any, ...]] = field(default_factory=list)

    def add_row(self, *cells: Any) -> None:
        """Append a row; must match the header width."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(tuple(cells))

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append many rows."""
        for row in rows:
            self.add_row(*row)

    def records(self) -> list[dict[str, Any]]:
        """Rows as header-keyed dicts, in insertion order.

        The single row-to-dict implementation:
        :meth:`repro.results.ResultSection.records` (and through it
        study flattening) delegates here.
        """
        return [dict(zip(self.headers, row)) for row in self.rows]

    def column(self, name: str) -> list[Any]:
        """All values of the named column, in insertion order."""
        try:
            idx = list(self.headers).index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        """The table as aligned plain text."""
        cells = [[str(h) for h in self.headers]]
        cells += [
            [_format_cell(c, self.floatfmt) for c in row] for row in self.rows
        ]
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.headers))]
        lines = []
        if self.title:
            lines.append(self.title)
        header, *body = cells
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
