"""Dense exact-rational matrices.

`RatMatrix` serves refinement (partition matrices, witnesses), attacks
and the normal form's test-facing output.  Partition matrices can have
hundreds of hidden columns, but few rows; the normal form evaluates on
sparse rows of its own and builds a `RatMatrix` only for its output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotRefinementMatrix
from .probcore import ZERO, ONE, rat


class RatMatrix:
    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Sequence]):
        self.rows = [[rat(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")
        if self.nrows == 0 or self.ncols == 0:
            raise ValueError("matrix dimensions must be positive")

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "RatMatrix":
        return cls([[ZERO] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.nrows == other.nrows
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __repr__(self):
        return "RatMatrix(" + "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        ) + ")"

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        out = [[ZERO] * other.ncols for _ in range(self.nrows)]
        for i, row in enumerate(self.rows):
            orow = out[i]
            for k, a in enumerate(row):
                if a == 0:
                    continue
                brow = other.rows[k]
                for j, b in enumerate(brow):
                    if b != 0:
                        orow[j] += a * b
        return RatMatrix(out)

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix([[x * c for x in row] for row in self.rows])

    def transpose(self) -> "RatMatrix":
        return RatMatrix([list(col) for col in zip(*self.rows)])

    def dot(self, other: "RatMatrix") -> Fraction:
        """Entrywise dot product (the trace form of matrix dot)."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dot of differently shaped matrices")
        return sum(
            (a * b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb) if a),
            ZERO,
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def col_sums(self) -> list[Fraction]:
        return [sum(col, ZERO) for col in zip(*self.rows)]

    def is_column_stochastic(self) -> bool:
        return all(x >= 0 for row in self.rows for x in row) and all(
            s == 1 for s in self.col_sums()
        )

    def check_refinement_matrix(self):
        if not self.is_column_stochastic():
            raise NotRefinementMatrix(f"not column-stochastic: {self!r}")
