"""Storage backend selection: one contract, two substrates.

Everything above the device — benchmarks, experiments, chaos, fault
injection — prices I/O through the ``access(kind, start_byte, nbytes)
-> elapsed_ms`` contract of :class:`~repro.disk.model.StorageModel`,
the base class :class:`~repro.disk.model.DiskModel` and
:class:`~repro.ssd.model.SSDModel` share.  This module re-exports that
base as :class:`StorageModel`, holds the process-wide backend selection
the CLI's ``--backend disk|ssd`` flag sets, and builds the right model
via :func:`make_storage`.

The selection is process-wide (like :func:`repro.cache.configure`)
because model construction happens deep inside benchmark loops that
have no business threading a backend argument through every layer;
parallel workers re-apply it in their initializer so a fan-out run
matches its serial twin byte for byte.  The default is ``disk``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple

from repro.disk.geometry import DiskGeometry
from repro.disk.model import DiskModel, StorageModel
from repro.errors import InvalidRequestError
from repro.ssd.config import SSDGeometry
from repro.ssd.model import SSDModel

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "StorageModel",
    "configure",
    "current_backend",
    "using_backend",
    "make_storage",
]

#: Recognised backend names, in presentation order.
BACKENDS: Tuple[str, ...] = ("disk", "ssd")
DEFAULT_BACKEND = "disk"

_backend: str = DEFAULT_BACKEND


def _check(backend: str) -> str:
    if backend not in BACKENDS:
        raise InvalidRequestError(
            f"unknown storage backend {backend!r} "
            f"(choose from {', '.join(BACKENDS)})"
        )
    return backend


def configure(backend: "str | None") -> None:
    """Select the process-wide backend (``None`` leaves it unchanged)."""
    global _backend
    if backend is not None:
        _backend = _check(backend)


def current_backend() -> str:
    """The active backend name — joins cache keys and run manifests."""
    return _backend


@contextmanager
def using_backend(backend: str) -> Iterator[None]:
    """Run a block under ``backend``, restoring the prior selection.

    Lets one process compare backends side by side (the flash
    experiment runs its disk twin this way).
    """
    global _backend
    prior = _backend
    _backend = _check(backend)
    try:
        yield
    finally:
        _backend = prior


def make_storage(
    geometry: "DiskGeometry | None" = None,
    initial_angle: float = 0.0,
    backend: "str | None" = None,
) -> StorageModel:
    """Construct a storage model for the selected backend.

    ``geometry`` is always the *disk* geometry the call site already
    has; the SSD backend derives a flash device of the same logical
    capacity from it, and ignores ``initial_angle`` (no platter — the
    repetition jitter the angle exists to produce is structurally zero
    on flash).  ``backend=None`` uses the process-wide selection.
    """
    chosen = _check(backend) if backend is not None else _backend
    if chosen == "ssd":
        disk_geometry = geometry if geometry is not None else DiskGeometry()
        return SSDModel(SSDGeometry.for_bytes(disk_geometry.capacity_bytes))
    return DiskModel(geometry, initial_angle=initial_angle)
