"""Complex multiply-accumulate (MAC) accounting for dense linear-algebra kernels.

Cost model: multiplying an (a x b) matrix by a (b x c) matrix is a*b*c complex
MACs.  Decompositions (eigen/SVD of the small Gram matrices, and the repeated
squaring that stands in for them on stacks) are not charged; only the
instrumented matrix products contribute, which is what the analytic
complexity expressions count as well.
"""

from __future__ import annotations

__all__ = ["FlopCounter"]


class FlopCounter:
    """Accumulates complex-MAC counts across instrumented kernel calls."""

    __slots__ = ("macs",)

    def __init__(self) -> None:
        self.macs = 0

    def add(self, n: int) -> None:
        self.macs += int(n)
