"""The CHSH shape of a coefficient tensor, the pattern the census's nontrivial
two-observer classes and the two-setting reduction are held to.  No
``assert`` here: helper modules are not rewritten by pytest, so an assert
would vanish under ``python -O``."""

from __future__ import annotations

import numpy as np

from bellfacets import BellInequality, table_size


def chsh_pattern(ineq: BellInequality) -> bool:
    """True when the tensor is a CHSH block: four entries of equal magnitude
    2^(2N-1) on a 2x2 settings rectangle (all other observers pinned to one
    setting), with an odd number of negative signs."""
    support = np.argwhere(ineq.coeffs)
    if len(support) != 4:
        return False
    magnitudes = {abs(int(ineq.coeffs[tuple(pos)])) for pos in support}
    if magnitudes != {table_size(ineq.parties) // 2}:
        return False
    # settings used per observer; four distinct points on a 2x2 rectangle fill it
    sizes = sorted(len(set(column)) for column in support.T.tolist())
    if sizes != [1] * (ineq.parties - 2) + [2, 2]:
        return False
    negatives = sum(1 for pos in support if ineq.coeffs[tuple(pos)] < 0)
    return negatives % 2 == 1
