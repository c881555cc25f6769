"""Flash storage substrate: page-mapped FTL behind the disk interface.

The package provides :class:`~repro.ssd.model.SSDModel`, a flash twin
of :class:`~repro.disk.model.DiskModel` built on the same
:class:`~repro.disk.model.StorageModel` base class (see
:mod:`repro.storage`) and on a page-mapped FTL with a bounded
DFTL-style mapping cache and threshold-triggered greedy garbage
collection.  Select it anywhere
with ``--backend ssd``.
"""

from repro.ssd.config import DEFAULT_LOGICAL_BYTES, SSDGeometry
from repro.ssd.ftl import MappingCache, PageMappedFTL
from repro.ssd.model import SSDModel, SSDStats

__all__ = [
    "DEFAULT_LOGICAL_BYTES",
    "SSDGeometry",
    "MappingCache",
    "PageMappedFTL",
    "SSDModel",
    "SSDStats",
]
