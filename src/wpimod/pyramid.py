"""Pyramid shapes and the index bookkeeping they induce.

A pyramid is a left-justified array with non-decreasing row lengths
p_1 <= ... <= p_n.  Row i of a tableau for the pyramid has positions
j = 1..i, and position j carries p_j entry layers.
"""

from __future__ import annotations

# Most triples (k, i, j) a pyramid may have: sum over j of p_j (n - j + 1).
# A larger pyramid is refused with ValueError, since the shift lattice's
# searches recurse once per triple; gl_31 (496 triples) is within it.
MAX_TRIPLES = 500


class Pyramid:
    """Left-justified pyramid with rows p_1 <= ... <= p_n."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(rows)
        if any(type(p) is not int for p in rows):
            raise ValueError("row lengths must be integers")
        if not rows:
            raise ValueError("pyramid needs at least one row")
        if rows[0] < 1:
            raise ValueError("row lengths must be positive")
        for a, b in zip(rows, rows[1:]):
            if a > b:
                raise ValueError("row lengths must be non-decreasing")
        if sum(p * (len(rows) - j) for j, p in enumerate(rows)) > MAX_TRIPLES:
            raise ValueError(f"pyramid has more than {MAX_TRIPLES} triples")
        self.rows = rows

    @property
    def n(self) -> int:
        return len(self.rows)

    def p(self, i: int) -> int:
        """Row length p_i, with p_0 = 0 for convenience."""
        if i == 0:
            return 0
        return self.rows[i - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Pyramid) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Pyramid{self.rows}"

    def to_json(self) -> dict:
        return {"rows": list(self.rows)}

    @staticmethod
    def from_json(obj: dict) -> "Pyramid":
        return Pyramid(obj["rows"])


def e_generator_min_degree(pi: Pyramid, i: int) -> int:
    """Least superscript r for which the i-th raising generator exists: p_{i+1} - p_i + 1."""
    if not 1 <= i <= pi.n - 1:
        raise ValueError(f"row index {i} out of range for pyramid with {pi.n} rows")
    return pi.p(i + 1) - pi.p(i) + 1
