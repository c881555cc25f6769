"""Property-based tests for the fragment bitmap.

A random interleaving of valid allocate/free operations must keep every
derived answer (free counts, per-block counts, whole-block runs, the
fragment-run search) consistent with a recount from scratch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.ffs.bitmap import FragBitmap

NBLOCKS = 12
FPB = 8


@st.composite
def run_specs(draw):
    block = draw(st.integers(0, NBLOCKS - 1))
    offset = draw(st.integers(0, FPB - 1))
    nfrags = draw(st.integers(1, FPB - offset))
    return (block, offset, nfrags)


class BitmapMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.bitmap = FragBitmap(NBLOCKS, FPB)
        self.shadow = set()  # allocated (block, offset) pairs

    @rule(spec=run_specs())
    def alloc_if_free(self, spec):
        block, offset, nfrags = spec
        frags = {(block, offset + i) for i in range(nfrags)}
        if frags & self.shadow:
            return
        self.bitmap.alloc_run(block, offset, nfrags)
        self.shadow |= frags

    @rule(spec=run_specs())
    def free_if_allocated(self, spec):
        block, offset, nfrags = spec
        frags = {(block, offset + i) for i in range(nfrags)}
        if not frags <= self.shadow:
            return
        self.bitmap.free_run(block, offset, nfrags)
        self.shadow -= frags

    @invariant()
    def free_count_matches_shadow(self):
        assert self.bitmap.free_frags == NBLOCKS * FPB - len(self.shadow)

    @invariant()
    def per_block_counts_match(self):
        for block in range(NBLOCKS):
            allocated = sum(1 for (b, _o) in self.shadow if b == block)
            assert self.bitmap.free_in_block(block) == FPB - allocated

    @invariant()
    def block_runs_match_shadow(self):
        free = [
            all((b, o) not in self.shadow for o in range(FPB))
            for b in range(NBLOCKS)
        ]
        assert self.bitmap.free_blocks == sum(free)
        covered = [False] * NBLOCKS
        for start, length in self.bitmap.block_runs():
            assert start == 0 or not free[start - 1]  # maximal
            assert start + length == NBLOCKS or not free[start + length]
            covered[start:start + length] = [True] * length
        assert covered == free

    @invariant()
    def run_search_finds_nearest_shadow_run(self):
        for nfrags in range(1, FPB):
            want = None
            for block in range(NBLOCKS):
                run = 0
                for off in range(FPB):
                    run = 0 if (block, off) in self.shadow else run + 1
                    if run == nfrags:
                        want = (block, off - nfrags + 1)
                        break
                if want is not None:
                    break
            assert self.bitmap.find_run_any_block(0, nfrags) == want


TestBitmapMachine = BitmapMachine.TestCase
TestBitmapMachine.settings = settings(max_examples=30, stateful_step_count=40)


class TestBitmapProperties:
    @given(st.lists(run_specs(), max_size=30))
    @settings(max_examples=50)
    def test_alloc_free_roundtrip_restores_everything(self, specs):
        bitmap = FragBitmap(NBLOCKS, FPB)
        done = []
        taken = set()
        for block, offset, nfrags in specs:
            frags = {(block, offset + i) for i in range(nfrags)}
            if frags & taken:
                continue
            bitmap.alloc_run(block, offset, nfrags)
            taken |= frags
            done.append((block, offset, nfrags))
        for block, offset, nfrags in reversed(done):
            bitmap.free_run(block, offset, nfrags)
        assert bitmap.free_frags == NBLOCKS * FPB
        assert all(bitmap.block_is_free(b) for b in range(NBLOCKS))
        assert bitmap.block_runs() == [(0, NBLOCKS)]

    @given(st.integers(0, NBLOCKS - 1), st.integers(1, FPB - 1))
    def test_frag_runs_cover_free_space(self, block, nalloc):
        bitmap = FragBitmap(NBLOCKS, FPB)
        bitmap.alloc_run(block, 0, nalloc)
        # The free space left is one run: from nalloc to the block end.
        assert bitmap.free_in_block(block) == FPB - nalloc
        assert bitmap.run_is_free(block, nalloc, FPB - nalloc)
        assert bitmap.find_run_any_block(block, FPB - nalloc) == (block, nalloc)
