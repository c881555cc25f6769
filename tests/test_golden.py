"""Golden outputs: committed stdout of seeded experiments, byte for byte.

Each file under ``tests/golden/`` is the exact stdout of one CLI
invocation.  The simulator is deterministic, so any difference is a
change in a simulated number (or in its rendering) and must be made on
purpose: regenerate the file with the command in :data:`GOLDENS` and
commit it together with the change that moved it.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from repro import cache, storage
from repro.cli import main
from repro.experiments import config
from repro.ffs.check import check_filesystem
from repro.ffs.image import dump_filesystem

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Golden file -> the ``repro-ffs`` arguments whose stdout it holds.
GOLDENS = {
    "flash_tiny.txt": ["experiment", "flash", "--preset", "tiny", "--no-cache"],
    "all_tiny.txt": ["experiment", "all", "--preset", "tiny", "--no-cache"],
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_stdout_matches_golden(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = GOLDENS[name]
    assert main(argv) == 0
    got = capsys.readouterr().out
    want = (GOLDEN_DIR / name).read_text()
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        line = next(
            (i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
            min(len(got_lines), len(want_lines)),
        )
        pytest.fail(
            f"`repro-ffs {' '.join(argv)}` no longer matches tests/golden/{name} "
            f"(first difference at line {line + 1}):\n"
            f"  golden: {want_lines[line] if line < len(want_lines) else '<end>'}\n"
            f"  now:    {got_lines[line] if line < len(got_lines) else '<end>'}"
        )


#: The fig4 disk trace and ``disk.*``/``ssd.*`` metrics of each backend.
#: ``fig4_tiny_disktrace.sha256`` holds one ``<sha256>  <backend>`` line
#: per backend; ``fig4_tiny_metrics.json`` maps backend -> metric entries.
FIG4_ARGS = ["experiment", "fig4", "--preset", "tiny", "--no-cache"]


def _golden_digests(name):
    """``<sha256>  <label>`` lines of a golden file, as label -> digest."""
    lines = (GOLDEN_DIR / name).read_text().splitlines()
    return {label: digest for digest, label in (line.split() for line in lines)}


@pytest.fixture
def fresh_process_state():
    """Start from no in-process experiment memos (a memoized fig4 would
    price nothing into the trace) and restore the backend afterwards."""
    prior = storage.current_backend()
    config.clear_caches()
    yield
    config.clear_caches()
    storage.configure(prior)


@pytest.mark.parametrize("backend", storage.BACKENDS)
def test_fig4_device_telemetry_matches_golden(
    backend, capsys, tmp_path, monkeypatch, fresh_process_state
):
    monkeypatch.chdir(tmp_path)
    argv = FIG4_ARGS + [
        "--backend", backend, "--disk-trace", "d.jsonl", "--metrics", "m.json",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "d.jsonl").read_bytes()).hexdigest()
    assert digest == _golden_digests("fig4_tiny_disktrace.sha256")[backend], (
        f"{backend} backend: fig4 disk trace no longer matches "
        f"tests/golden/fig4_tiny_disktrace.sha256"
    )
    metrics = json.loads((tmp_path / "m.json").read_text())["metrics"]
    got = {
        name: entry for name, entry in metrics.items()
        if name.startswith(("disk.", "ssd."))
    }
    want = json.loads((GOLDEN_DIR / "fig4_tiny_metrics.json").read_text())[backend]
    # Compared as canonical JSON so a value's type counts too (0 vs 0.0).
    for name in sorted(set(got) | set(want)):
        assert json.dumps(got.get(name), sort_keys=True) == json.dumps(
            want.get(name), sort_keys=True
        ), (
            f"{backend} backend: metric {name} no longer matches "
            f"tests/golden/fig4_tiny_metrics.json"
        )


#: ``aged_<preset>.sha256`` holds the SHA-256 of each aged image of that
#: preset (its ``dump_filesystem`` JSON text), built with the cache
#: disabled.  The ffs and realloc lines equal the digests of the files
#: written by ``repro-ffs age --preset P --policy both --no-cache
#: --save-image X``.
AGED_IMAGES = {
    "ffs": lambda preset: config.aged(preset, "ffs"),
    "realloc": lambda preset: config.aged(preset, "realloc"),
    "real": lambda preset: config.aged_real(preset),
}

#: Tiny images keep their bare ids; the small ones take several seconds
#: each to age, so they are marked ``slow``.
AGED_CASES = [
    pytest.param("tiny", image, id=image) for image in sorted(AGED_IMAGES)
] + [
    pytest.param("small", image, id=f"small-{image}", marks=pytest.mark.slow)
    for image in sorted(AGED_IMAGES)
]


@pytest.fixture
def uncached_aging(fresh_process_state):
    """Replay from scratch: no persistent cache, no in-process memos."""
    cache.configure(enabled=False)
    yield
    cache.configure()


@pytest.mark.parametrize("preset, image", AGED_CASES)
def test_aged_image_matches_golden(preset, image, uncached_aging):
    fs = AGED_IMAGES[image](preset).fs
    check_filesystem(fs)
    buf = io.StringIO()
    dump_filesystem(fs, buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    golden = f"aged_{preset}.sha256"
    assert digest == _golden_digests(golden)[image], (
        f"aged image {image!r} ({preset} preset) no longer matches "
        f"tests/golden/{golden}"
    )
