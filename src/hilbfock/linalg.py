"""Exact linear algebra over the rationals.

Small dense matrices as lists of lists of Fraction.  Only what the ring
module needs: inversion of the Gram matrix, once per ring, by
Gauss-Jordan elimination with exact pivoting.
"""

from __future__ import annotations

from fractions import Fraction


class LinAlgError(Exception):
    """Raised when a matrix is singular."""


def mat_inv(a):
    """Inverse by Gauss-Jordan elimination; raises LinAlgError if singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise LinAlgError("singular matrix")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]

