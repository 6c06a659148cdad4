"""The portal table: the per-process array of match lists."""

from __future__ import annotations

from typing import Iterator

from .errors import PtlPtIndexInvalid
from .me import MatchEntry, MatchList

__all__ = ["PortalTable"]


class PortalTable:
    """A process's portal table.

    Each index holds an independent match list.  Upper layers conventionally
    reserve indices for themselves (our MPI uses one for point-to-point and
    one for rendezvous source exposure, NetPIPE uses index 4).
    """

    DEFAULT_SIZE = 64

    def __init__(self, size: int = DEFAULT_SIZE):
        if size < 1:
            raise ValueError("portal table needs at least one entry")
        self.size = size
        self._lists: list[MatchList] = [MatchList() for _ in range(size)]

    def __len__(self) -> int:
        return self.size

    def match_list(self, ptl_index: int) -> MatchList:
        """The match list at ``ptl_index``."""
        if not 0 <= ptl_index < self.size:
            raise PtlPtIndexInvalid(
                f"portal index {ptl_index} outside table of size {self.size}"
            )
        return self._lists[ptl_index]

    def entries(self) -> Iterator[MatchEntry]:
        """Every match entry linked anywhere in the table."""
        for ml in self._lists:
            yield from ml

    def total_entries(self) -> int:
        """Match entries across the whole table (resource accounting)."""
        return sum(len(ml) for ml in self._lists)
