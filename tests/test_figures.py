import hashlib
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from enumerlab.budget import BudgetError
from enumerlab.figures import render_figure
from enumerlab.listmatrix import entry
from enumerlab.pairing import row_label

SVG_NS = "{http://www.w3.org/2000/svg}"


def texts(svg, cls=None):
    root = ET.fromstring(svg)
    out = []
    for el in root.iter(f"{SVG_NS}text"):
        if cls is None or el.get("class") == cls:
            out.append(el.text)
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_all_figures_are_well_formed_xml(n):
    svg = render_figure(n)
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"


@pytest.mark.parametrize("n", range(1, 7))
def test_byte_determinism(n):
    assert render_figure(n) == render_figure(n)


def test_matrix_figure_digits():
    svg = render_figure(5, rows=17, cols=5)
    bits = texts(svg, cls="bit")
    assert len(bits) == 17 * 5
    expected = [str(entry(r, c)) for r in range(17) for c in range(5)]
    assert bits == expected


def test_tree_figure_depth_1():
    svg = render_figure(2, depth=1)
    root = ET.fromstring(svg)
    edges = [
        el
        for el in root.iter(f"{SVG_NS}line")
        if el.get("class") == "edge"
    ]
    assert len(edges) == 2
    assert texts(svg, cls="branch-label") == ["0", "1"]


def test_walk_figure_zero_diagonals_is_grid_only(monkeypatch):
    svg = render_figure(4, diagonals=0)
    assert "polyline" not in svg
    grid_only = render_figure(1)
    assert texts(svg, cls="col-label") == texts(grid_only, cls="col-label")
    # figure 1 is figure 4 without its walk, byte for byte, budget included
    for s in (0, 1, 10):
        assert render_figure(4, diagonals=0, size=s) == render_figure(1, size=s)
    monkeypatch.setenv("ENUMERLAB_BUDGET", "99")
    errors = []
    for n in (4, 1):
        with pytest.raises(BudgetError) as caught:
            render_figure(n, diagonals=0, size=10)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


def test_walk_figure_has_polyline():
    svg = render_figure(4, diagonals=5)
    match = re.search(r'<polyline points="([^"]+)"', svg)
    assert match
    points = match.group(1).split()
    assert len(points) == 15  # triangular(5) walk steps


def test_labeled_walk_figure_row_labels():
    svg = render_figure(6, rows=7)
    labels = texts(svg, cls="row-label")
    assert labels == [str(row_label(i)) for i in range(7)]
    assert labels == ["0", "2", "3", "9", "10", "20", "21"]


def test_projection_figure_has_tree_edges():
    svg = render_figure(3, depth=3)
    root = ET.fromstring(svg)
    edges = [
        el
        for el in root.iter(f"{SVG_NS}line")
        if el.get("class") == "projection"
    ]
    # one edge per parent-child link in a depth-3 tree: 2 + 4 + 8
    assert len(edges) == 14


def test_figure_number_validation():
    with pytest.raises(ValueError):
        render_figure(0)
    with pytest.raises(ValueError):
        render_figure(7)


def test_oversized_render_rejected():
    with pytest.raises(BudgetError):
        render_figure(2, depth=30)


GOLDEN_DIR = Path(__file__).resolve().parent.parent / "demos" / "output"


@pytest.mark.parametrize("n", range(1, 7))
def test_default_render_matches_golden(n):
    golden = (GOLDEN_DIR / f"figure{n}.svg").read_bytes()
    assert render_figure(n).encode("utf-8") == golden


# SHA-256 of non-default renders that exercise the shared grid and walk
# drawing code
PINNED_RENDERS = [
    (4, {"diagonals": 0}, "5190cffa12dfa8389bdc1e5e405ddb9acc7c30adad9ebc87a28bde27026d5c9d"),
    (4, {"diagonals": 5}, "6f0903e9ced700900065209268ff1872407d153aecf80f28a359826b835e4cf9"),
    (5, {"rows": 3, "cols": 7}, "21ad87690e6d526e514deafa147c64181e1a902f2a3dcbd1137646577248726f"),
    (6, {"rows": 9, "cols": 4}, "dcbea68e19e582d789b1c120b86e909129bdbb63f474ac71c943e40369d84967"),
]


@pytest.mark.parametrize("n,params,digest", PINNED_RENDERS)
def test_pinned_render_digest(n, params, digest):
    svg = render_figure(n, **params)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == digest
