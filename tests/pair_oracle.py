"""The local Gaussian pair condition over every pair (a, b), the oracle for
`properties.local_gaussian_pair_check`, which decides one pair per pair of
unit orbits.

Reads `FiniteRing.principal_membership` and builds the full n x n pass
matrix one row block at a time.
"""
import numpy as np

from amalgam.rings import FiniteRing, _row_blocks


def pair_condition_matrix(ring: FiniteRing) -> np.ndarray:
    """pass[a, b] iff the pair (a, b) satisfies the local Gaussian condition."""
    n = ring.size
    mul = ring.mul
    sq = mul[np.arange(n), np.arange(n)]
    sq_zero = sq == ring.zero
    in_principal = ring.principal_membership
    ok = np.empty((n, n), dtype=bool)
    for start, stop in _row_blocks(n, n):  # bool rows
        prods = mul[start:stop]
        sq_a = sq[start:stop, None]
        prod_nonzero = prods != ring.zero
        # branch with c = a: ab and b^2 in <a^2>, and ab = 0 forces b^2 = 0
        branch_a = (
            in_principal[sq_a, prods]
            & in_principal[sq_a, sq[None, :]]
            & (prod_nonzero | sq_zero[None, :])
        )
        branch_b = (
            in_principal[sq[None, :], prods]
            & in_principal[sq[None, :], sq_a]
            & (prod_nonzero | sq_zero[start:stop, None])
        )
        np.bitwise_or(branch_a, branch_b, out=ok[start:stop])
    return ok


def oracle_pair_check(ring: FiniteRing) -> tuple[bool, tuple[int, int] | None]:
    """(True, None), or (False, (a, b)) with the first failing pair in row-major order."""
    ok = pair_condition_matrix(ring)
    if ok.all():
        return True, None
    a, b = divmod(int(np.argmin(ok)), ring.size)
    return False, (a, b)
