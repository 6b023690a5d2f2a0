"""enumerlab: an exact, lazy enumeration laboratory.

Grid bijections, infinite binary trees addressed arithmetically, lazily
evaluated infinite bit sequences, the truth-table list matrix, diagonal
complement certificates, a small program language for building sequences
and enumerations, and an auditable claim catalog with three-valued
verdicts.
"""

from .bitseq import (
    BitSeq,
    PositionError,
    complement,
    dyadic_bounds,
    eq_prefix,
    nat_row,
    ones,
    periodic,
    prefix,
    prepend,
    zeros,
)
from .budget import DEFAULT_BUDGET, BudgetError, enumeration_budget
from .diagonal import (
    Certificate,
    Enumeration,
    antidiagonal,
    certificates,
    check_certificate,
    constant,
    insert,
    interleave,
    split,
)
from .pairing import (
    GridPair,
    NodeAddr,
    level_pairs,
    node_to_pair,
    pair_to_node,
    row_label,
    zigzag_decode,
    zigzag_encode,
)
from .tree import children, node_count, path_to_addr, paths_at_depth, prefix_chain

__version__ = "0.1.0"
