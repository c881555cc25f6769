"""The request contract both storage backends share.

:class:`~repro.disk.model.StorageModel` holds request validation, the
fault-hook seam and the extent-level helpers once; these tests run the
same checks against every backend in :data:`repro.storage.BACKENDS`.
"""

import pytest

from repro import obs, storage
from repro.disk.model import IOKind
from repro.disk.request import Extent, transfer_requests
from repro.errors import InvalidRequestError
from repro.units import KB

BS = 8 * KB

#: A run longer than one transfer, a short run, and a
#: partial-block tail: the shapes transfer_extents has to split.
EXTENTS = [Extent(0, 16, 16 * BS), Extent(300, 3, 3 * BS), Extent(41, 1, 2 * KB)]


@pytest.mark.parametrize("backend", storage.BACKENDS)
def test_bad_requests_raise_invalid_request(backend):
    model = storage.make_storage(backend=backend)
    with pytest.raises(InvalidRequestError):
        model.access(IOKind.READ, 0, 0)
    with pytest.raises(InvalidRequestError):
        model.access(IOKind.READ, 0, model.max_transfer_bytes + 1)
    with pytest.raises(InvalidRequestError):
        model.idle(-1.0)
    assert model.now_ms == 0.0


@pytest.mark.parametrize("backend", storage.BACKENDS)
@pytest.mark.parametrize("kind", list(IOKind))
def test_transfer_extents_equals_its_requests_through_access(backend, kind):
    whole = storage.make_storage(backend=backend)
    assert whole.block_to_byte(41, BS) == 41 * BS
    total = whole.transfer_extents(kind, EXTENTS, BS)
    pieces = storage.make_storage(backend=backend)
    summed = sum(
        pieces.access(kind, pieces.block_to_byte(block, BS), nbytes)
        for block, _nblocks, nbytes in transfer_requests(
            EXTENTS, BS, pieces.max_transfer_bytes
        )
    )
    assert total == pytest.approx(summed, rel=1e-12)
    assert whole.now_ms == pieces.now_ms
    assert whole.stats.to_dict() == pieces.stats.to_dict()
    assert whole.stats.reads + whole.stats.writes == 4  # 16 blocks -> two pieces


@pytest.mark.parametrize("backend", storage.BACKENDS)
def test_synchronous_metadata_write_is_one_sector(backend):
    model = storage.make_storage(backend=backend)
    elapsed = model.synchronous_metadata_write(10, BS)
    assert elapsed > 0
    assert model.stats.writes == 1
    assert model.stats.bytes_written == model.sector_size


@pytest.mark.parametrize("backend", storage.BACKENDS)
def test_faulting_read_hook_leaves_the_model_untouched(backend):
    class Injected(Exception):
        pass

    def hook(start_byte, nbytes):
        raise Injected()

    model = storage.make_storage(backend=backend)
    model.access(IOKind.WRITE, 0, 8 * KB)
    before = (model.now_ms, model.stats.to_dict())
    model.read_fault_hook = hook
    with pytest.raises(Injected):
        model.access(IOKind.READ, 0, 8 * KB)
    with pytest.raises(Injected):
        model.transfer_extents(IOKind.READ, EXTENTS, BS)
    assert (model.now_ms, model.stats.to_dict()) == before
    # Writes never consult the hook.
    model.access(IOKind.WRITE, 0, 8 * KB)
    assert model.stats.writes == 2


@pytest.mark.parametrize("backend", storage.BACKENDS)
def test_global_mirror_equals_the_models_stats(backend):
    with obs.session() as (registry, _tracer):
        model = storage.make_storage(backend=backend)
        model.transfer_extents(IOKind.WRITE, EXTENTS, BS)
        model.transfer_extents(IOKind.READ, EXTENTS, BS)
    snap = registry.snapshot()
    for name, value in model.stats.to_dict().items():
        mirrored = snap[f"{backend}.{name}"]["value"]
        assert (mirrored, type(mirrored)) == (value, type(value)), name
    assert snap[f"{backend}.service_time_ms"]["count"] == 8
