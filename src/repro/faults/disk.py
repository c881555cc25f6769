"""Latent sector read errors: plan-driven bad blocks under the reads.

A latent sector error is damage that already happened — the medium
degraded silently — and only surfaces when the sector is next *read*.
:func:`read_fault_hook` compiles a plan's ``bad_blocks`` into a check
a :class:`~repro.disk.model.StorageModel` runs before servicing each
read; a hit raises a typed
:class:`~repro.errors.LatentSectorReadError` (and emits a
``fault_injected`` event) before the model's clock or device state moves,
so a caller that catches the error can retry or remap without the model
having drifted.

Writes never fault: writing a bad sector remaps it in real drives, and
the study's interesting question is what *reads* of an aged layout hit.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

from repro import obs
from repro.errors import LatentSectorReadError
from repro.faults.plan import FaultPlan
from repro.obs import events as obs_events


def read_fault_hook(
    plan: FaultPlan, block_size: int
) -> Optional[Callable[[int, int], None]]:
    """A storage model's read hook enforcing ``plan.bad_blocks``.

    Returns ``None`` when the plan has no bad blocks, so the disabled
    path stays the disabled path (the model skips the check entirely).
    The hook receives ``(start_byte, nbytes)`` of each read request and
    raises on any overlap with a bad block's byte range.
    """
    if not plan.bad_blocks:
        return None
    bad = sorted(set(plan.bad_blocks))
    events = obs.events_or_none()

    def check(start_byte: int, nbytes: int) -> None:
        first = start_byte // block_size
        last = (start_byte + nbytes - 1) // block_size
        # Find the first bad block >= first; it faults iff it is <= last.
        idx = bisect_right(bad, first - 1)
        if idx >= len(bad) or bad[idx] > last:
            return
        fs_block = bad[idx]
        if events is not None:
            events.emit(
                obs_events.FAULT_INJECTED,
                kind="latent_read_error",
                fs_block=fs_block,
                start_byte=start_byte,
                nbytes=nbytes,
            )
        raise LatentSectorReadError(
            f"latent sector error reading block {fs_block} "
            f"(request {start_byte}+{nbytes})",
            byte=fs_block * block_size,
            fs_block=fs_block,
        )

    return check
