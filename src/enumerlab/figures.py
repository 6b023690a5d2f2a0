"""Deterministic SVG renderings of the six constructions.

    1  the bare N x N grid
    2  the binary tree to a given depth, branches labeled 0 (upper) and 1
    3  the tree projected onto the grid anti-diagonals
    4  the boustrophedon walk over the grid
    5  the truth-table matrix with its bit values
    6  the walk over the matrix grid, rows labeled with walk positions

All output is plain text SVG assembled from fixed format strings: identical
parameters produce byte-identical documents, which the golden tests rely
on.  Oversized renders are rejected through the enumeration budget.
"""

from __future__ import annotations

from . import listmatrix, pairing
from .budget import check_budget
from .record import _repr_or_hex

__all__ = ["render_figure"]

CELL = 30
MARGIN = 40
FONT = "font-family=\"monospace\" font-size=\"12\""


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _line(x1, y1, x2, y2, cls, width=1) -> str:
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="black" stroke-width="{width}" class="{cls}"/>'
    )


def _text(x, y, s, cls, anchor="middle") -> str:
    return (
        f'<text x="{x}" y="{y}" {FONT} text-anchor="{anchor}" class="{cls}">{s}</text>'
    )


def _grid(size: int, body: list[str]) -> None:
    """Square grid with 0-based column labels on top and row labels left."""
    span = size * CELL
    for i in range(size + 1):
        pos = MARGIN + i * CELL
        body.append(_line(MARGIN, pos, MARGIN + span, pos, cls="grid"))
        body.append(_line(pos, MARGIN, pos, MARGIN + span, cls="grid"))
    for i in range(size):
        center = MARGIN + i * CELL + CELL // 2
        body.append(_text(center, MARGIN - 8, str(i), cls="col-label"))
        body.append(_text(MARGIN - 8, center + 4, str(i), anchor="end", cls="row-label"))


def _cell_center(m: int, n: int, margin: int = MARGIN) -> tuple[int, int]:
    # column m, row n; rows grow downward
    return margin + m * CELL + CELL // 2, margin + n * CELL + CELL // 2


def _table(rows: int, cols: int, margin: int, row_label, cell=None) -> list[str]:
    """rows x cols grid with 0-based column labels on top and
    row_label(r) to the left of row r; cell(r, c), when given, is written
    into each cell after its row's label."""
    body: list[str] = []
    for r in range(rows + 1):
        y = margin + r * CELL
        body.append(_line(margin, y, margin + cols * CELL, y, cls="grid"))
    for c in range(cols + 1):
        x = margin + c * CELL
        body.append(_line(x, margin, x, margin + rows * CELL, cls="grid"))
    for c in range(cols):
        x = margin + c * CELL + CELL // 2
        body.append(_text(x, margin - 8, str(c), cls="col-label"))
    for r in range(rows):
        y = margin + r * CELL + CELL // 2 + 4
        body.append(_text(margin - 8, y, str(row_label(r)), anchor="end", cls="row-label"))
        if cell is not None:
            for c in range(cols):
                x = margin + c * CELL + CELL // 2
                body.append(_text(x, y, str(cell(r, c)), cls="bit"))
    return body


def _walk_polyline(diagonals: int, margin: int, body: list[str]) -> None:
    """The boustrophedon walk through the first `diagonals` anti-diagonals,
    drawn through the cell centers of a grid with the given margin."""
    if diagonals <= 0:
        return
    points = []
    for i in range(diagonals * (diagonals + 1) // 2):
        p = pairing.zigzag_decode(i)
        points.append(_cell_center(p.m, p.n, margin))
    coords = " ".join(f"{x},{y}" for x, y in points)
    body.append(
        f'<polyline points="{coords}" fill="none" stroke="black" '
        f'stroke-width="2" class="walk"/>'
    )


def _figure_grid(size: int) -> str:
    check_budget(size * size)
    body: list[str] = []
    _grid(size, body)
    span = size * CELL
    return _svg(2 * MARGIN + span, 2 * MARGIN + span, body)


def _figure_tree(depth: int) -> str:
    check_budget(1 << depth)
    # root at the left, levels advance to the right; within a level, the
    # 0-branch child sits above the 1-branch child
    level_dx = 90
    leaf_dy = 28
    height = (1 << depth) * leaf_dy + 2 * MARGIN

    def node_xy(k: int, j: int) -> tuple[float, float]:
        # y of a node is the midpoint of the leaf span it dominates
        leaves = 1 << (depth - k)
        first_leaf = j * leaves
        center = first_leaf + (leaves - 1) / 2
        return MARGIN + k * level_dx, MARGIN + center * leaf_dy + leaf_dy / 2

    body: list[str] = []
    for k in range(depth):
        for j in range(1 << k):
            x, y = node_xy(k, j)
            for branch in (0, 1):
                cx, cy = node_xy(k + 1, 2 * j + branch)
                body.append(_line(x, y, cx, cy, cls="edge"))
                lx = (x + cx) / 2
                ly = (y + cy) / 2 + (-4 if branch == 0 else 12)
                body.append(_text(lx, ly, str(branch), cls="branch-label"))
    for k in range(depth + 1):
        for j in range(1 << k):
            x, y = node_xy(k, j)
            body.append(f'<circle cx="{x}" cy="{y}" r="2" fill="black"/>')
    for k in range(1, depth + 1):
        x, _ = node_xy(k, 0)
        body.append(_text(x, height - 10, str(k), cls="level-label"))
    return _svg(2 * MARGIN + depth * level_dx, height, body)


def _figure_projection(depth: int, size: int) -> str:
    check_budget(1 << depth)
    body: list[str] = []
    _grid(size, body)
    # draw each parent-child edge between the projected grid points
    for k in range(depth):
        for j in range(1 << k):
            parent = pairing.node_to_pair(pairing.NodeAddr(k, j))
            px, py = _cell_center(parent.m, parent.n)
            for branch in (0, 1):
                child = pairing.node_to_pair(pairing.NodeAddr(k + 1, 2 * j + branch))
                cx, cy = _cell_center(child.m, child.n)
                body.append(_line(px, py, cx, cy, width=2, cls="projection"))
    span = size * CELL
    return _svg(2 * MARGIN + span, 2 * MARGIN + span, body)


def _figure_walk(diagonals: int, size: int) -> str:
    check_budget(diagonals * (diagonals + 1) // 2 + size * size)
    body: list[str] = []
    _grid(size, body)
    _walk_polyline(min(diagonals, size), MARGIN, body)
    span = size * CELL
    return _svg(2 * MARGIN + span, 2 * MARGIN + span, body)


def _figure_matrix(rows: int, cols: int) -> str:
    check_budget(rows * cols)
    body = _table(rows, cols, MARGIN, str, listmatrix.entry)
    return _svg(2 * MARGIN + cols * CELL, 2 * MARGIN + rows * CELL, body)


def _figure_labeled_walk(rows: int, cols: int) -> str:
    check_budget(rows * cols + rows * (rows + 1) // 2)
    margin = 50  # room for multi-digit walk-position labels
    body = _table(rows, cols, margin, pairing.row_label)
    _walk_polyline(min(rows, cols), margin, body)
    return _svg(2 * margin + cols * CELL, 2 * margin + rows * CELL, body)


# figure number -> renderer and the size parameters it takes, with defaults
_FIGURES = {
    1: (_figure_grid, {"size": 10}),
    2: (_figure_tree, {"depth": 4}),
    3: (_figure_projection, {"depth": 3, "size": 10}),
    4: (_figure_walk, {"diagonals": 10, "size": 10}),
    5: (_figure_matrix, {"rows": 17, "cols": 5}),
    6: (_figure_labeled_walk, {"rows": 7, "cols": 7}),
}


def render_figure(
    n: int,
    *,
    depth: int | None = None,
    rows: int | None = None,
    cols: int | None = None,
    diagonals: int | None = None,
    size: int | None = None,
) -> str:
    """Render figure `n` (1..6) to an SVG string.  Size parameters the
    figure does not take are ignored; the ones it takes must be >= 0."""
    if n not in _FIGURES:
        raise ValueError(f"figure number must be 1..6, got {_repr_or_hex(n)}")
    render, defaults = _FIGURES[n]
    given = {
        "depth": depth, "rows": rows, "cols": cols, "diagonals": diagonals, "size": size
    }
    params = {}
    for name, default in defaults.items():
        value = default if given[name] is None else given[name]
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {_repr_or_hex(value)}")
        params[name] = value
    return render(**params)
