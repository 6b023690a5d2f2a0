"""enumerlab: an exact, lazy enumeration laboratory.

Grid bijections, infinite binary trees addressed arithmetically, lazily
evaluated infinite bit sequences, the truth-table list matrix, diagonal
complement certificates, a small program language for building sequences
and enumerations, and an auditable claim catalog with three-valued
verdicts.

The names below are re-exported from the modules that define them, each
imported on first use (PEP 562), so `import enumerlab` loads none of them.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names re-exported from it
_EXPORTS = {
    "bitseq": (
        "BitSeq", "Enumeration", "PositionError", "complement", "dyadic_bounds",
        "eq_prefix", "nat_row", "ones", "periodic", "prefix", "prepend", "zeros",
    ),
    "budget": ("DEFAULT_BUDGET", "BudgetError", "enumeration_budget"),
    "diagonal": (
        "Certificate", "antidiagonal", "certificates", "check_certificate",
        "constant", "insert", "interleave", "split",
    ),
    "pairing": (
        "GridPair", "NodeAddr", "level_pairs", "node_to_pair", "pair_to_node",
        "row_label", "zigzag_decode", "zigzag_encode",
    ),
    "tree": ("children", "node_count", "path_to_addr", "paths_at_depth", "prefix_chain"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
