"""Finite ground sets with a fixed element order and bitmask subsets.

Every subset of a ground set is represented as a plain ``int`` bitmask:
bit ``i`` is the element at position ``i`` of the label order.  All
combinatorial code in this package works on such masks; a :class:`GroundSet`
is the bridge between opaque labels and mask positions.  Labels print
through :meth:`GroundSet.names` alone, which :meth:`GroundSet.named` inverts.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .errors import SideMismatch


class GroundSet:
    """An ordered set of distinct opaque labels.

    Immutable after construction; the label order fixes the bit order of
    every mask over this set.
    """

    __slots__ = ("labels", "index", "n", "full")

    def __init__(self, labels: Iterable[Hashable]):
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise ValueError("ground-set labels must be unique")
        self.labels = labels
        self.index = index
        self.n = len(labels)
        self.full = (1 << self.n) - 1

    def mask(self, labels: Iterable[Hashable]) -> int:
        """Bitmask of the given labels; unknown labels raise SideMismatch."""
        m = 0
        for lab in labels:
            try:
                m |= 1 << self.index[lab]
            except KeyError:
                raise SideMismatch(f"label {lab!r} not in ground set") from None
        return m

    def members(self, mask: int) -> list:
        """Labels of a mask, in ground-set order."""
        self.check(mask)
        return [self.labels[i] for i in range(self.n) if mask >> i & 1]

    def names(self, mask: int) -> list[str]:
        """Printable labels of a mask; an edge ``(x, y)`` prints as ``x--y``."""
        return [f"{lab[0]}--{lab[1]}"
                if isinstance(lab, tuple) and len(lab) == 2 else str(lab)
                for lab in self.members(mask)]

    def named(self, names: Iterable[str]) -> int:
        """Bitmask of the labels that :meth:`names` prints as ``names``.

        A name is matched whole against the printed labels, never split, so
        an edge whose labels contain ``--`` reads back as printed.  A name
        that no label prints, or that two labels print, raises SideMismatch.
        """
        printed: dict[str, list[int]] = {}
        for i, name in enumerate(self.names(self.full)):
            printed.setdefault(name, []).append(i)
        m = 0
        for name in names:
            found = printed.get(name, ())
            if not found:
                raise SideMismatch(f"label {name!r} not in ground set")
            if len(found) > 1:
                raise SideMismatch(f"label {name!r} is printed by "
                                   f"{len(found)} labels of the ground set")
            m |= 1 << found[0]
        return m

    def check(self, mask: int) -> None:
        """Validate that a mask fits this ground set."""
        if mask < 0 or mask > self.full:
            raise SideMismatch(
                f"mask {mask:#x} does not fit a ground set of size {self.n}"
            )

    def __len__(self) -> int:
        return self.n

    def __contains__(self, label) -> bool:
        return label in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet({list(self.labels)!r})"
