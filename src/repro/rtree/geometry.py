"""Axis-aligned rectangles (hyper-boxes) for the R-tree."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rect:
    """An axis-aligned box given by per-dimension ``(low, high)`` bounds."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lows) != len(self.highs):
            raise ValueError("lows and highs must have the same dimensionality")
        if not self.lows:
            raise ValueError("rectangles must have at least one dimension")
        for low, high in zip(self.lows, self.highs):
            if low > high:
                raise ValueError(f"invalid bounds: low {low} > high {high}")

    @classmethod
    def from_interval(cls, low: float, high: float) -> "Rect":
        """1-D rectangle for a single range predicate."""
        return cls((float(low),), (float(high),))

    def area(self) -> float:
        result = 1.0
        for low, high in zip(self.lows, self.highs):
            result *= high - low
        return result

    def margin(self) -> float:
        return sum(high - low for low, high in zip(self.lows, self.highs))

    def union(self, other: "Rect") -> "Rect":
        lows = tuple(min(a, b) for a, b in zip(self.lows, other.lows))
        highs = tuple(max(a, b) for a, b in zip(self.highs, other.highs))
        return Rect(lows, highs)

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely within this rectangle."""
        return all(
            low <= other_low and other_high <= high
            for low, high, other_low, other_high in zip(
                self.lows, self.highs, other.lows, other.highs
            )
        )

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to include ``other`` (R-tree insertion metric)."""
        return self.union(other).area() - self.area()
