"""The per-process network interface object.

A process's NI owns all of its Portals state: identity, the portal table,
and the registries (with limits) of MDs, MEs and EQs.  In generic mode
this state is manipulated by the OS kernel; in accelerated mode the match
structures are mirrored to the firmware — either way the *state* lives
here and the execution context merely charges different processors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim import Counters
from .errors import PtlNoSpace
from .header import ProcessId
from .table import PortalTable

__all__ = ["NILimits", "NetworkInterface"]


@dataclass(frozen=True)
class NILimits:
    """Resource limits reported/enforced by PtlNIInit."""

    max_mds: int = 1024
    max_mes: int = 4096
    max_eqs: int = 64
    pt_size: int = PortalTable.DEFAULT_SIZE
    max_md_iovecs: int = 1
    """Portals 3.3 on SeaStar: accelerated mode does not support
    non-contiguous buffers; generic mode handles paging OS-side."""


@dataclass
class NetworkInterface:
    """All Portals state for one (nid, pid)."""

    id: ProcessId
    limits: NILimits = field(default_factory=NILimits)
    accelerated: bool = False
    """True when this process runs in accelerated mode (firmware-side
    matching, polled completion — section 3.3 'future work', implemented
    here as an extension)."""

    def __post_init__(self) -> None:
        self.table = PortalTable(self.limits.pt_size)
        self.counters = Counters()
        self._md_count = 0
        self._me_count = 0
        self._eq_count = 0

    def release_buffers(self) -> None:
        """Drop the buffer of every MD still attached to a match entry:
        the memory half of ``PtlNIFini``, for a run that has finished
        (see :meth:`repro.machine.Machine.release_host_memory`)."""
        for entry in self.table.entries():
            if entry.md is not None:
                entry.md.buffer = None

    # -- registry accounting (PtlNoSpace enforcement) ------------------------
    def register_md(self) -> None:
        """Account one new MD against the limit."""
        if self._md_count >= self.limits.max_mds:
            raise PtlNoSpace(f"NI {self.id}: MD limit {self.limits.max_mds}")
        self._md_count += 1

    def unregister_md(self) -> None:
        """Release one MD slot."""
        self._md_count -= 1

    def register_me(self) -> None:
        """Account one new ME against the limit."""
        if self._me_count >= self.limits.max_mes:
            raise PtlNoSpace(f"NI {self.id}: ME limit {self.limits.max_mes}")
        self._me_count += 1

    def unregister_me(self) -> None:
        """Release one ME slot."""
        self._me_count -= 1

    def register_eq(self) -> None:
        """Account one new EQ against the limit."""
        if self._eq_count >= self.limits.max_eqs:
            raise PtlNoSpace(f"NI {self.id}: EQ limit {self.limits.max_eqs}")
        self._eq_count += 1

    def unregister_eq(self) -> None:
        """Release one EQ slot."""
        self._eq_count -= 1

    @property
    def md_count(self) -> int:
        """Live MDs."""
        return self._md_count

    @property
    def me_count(self) -> int:
        """Live MEs."""
        return self._me_count

    @property
    def eq_count(self) -> int:
        """Live EQs."""
        return self._eq_count
