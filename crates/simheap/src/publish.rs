//! The heap's slot table: one seqlocked cache-line record per block
//! slot, plus the `addr/ALIGN → slot` unit index.
//!
//! The record is the single description of a block *and* of the object
//! the runtime placed in it (the paper's Fig. 4 `base → class hash,
//! layout` entry). Eight words, one cache line:
//!
//! | word         | contents                                    | writer                   |
//! |--------------|---------------------------------------------|--------------------------|
//! | `seq`        | seqlock sequence, odd inside a window       | owner; claims add 2      |
//! | `base`       | block base address (global)                 | heap, once               |
//! | `heap_gen`   | allocation generation, +1 per reuse         | heap                     |
//! | `life`       | `meta_gen << 2 \| object state`             | runtime; claim CAS       |
//! | `class_hash` | recorded object's class hash                | runtime                  |
//! | `plan_hash`  | recorded object's layout plan hash          | runtime                  |
//! | `block`      | `units << 33 \| freed << 32 \| plan_id + 1`  | heap; runtime (plan id)  |
//! | `link`       | `remote_next << 1 \| warmed`                | claimant, readers        |
//!
//! `meta_gen` is the heap generation the runtime recorded the object
//! under: a record is current exactly while `meta_gen == heap_gen`, so
//! a block recycled through the raw path orphans its old record without
//! anyone touching it.
//!
//! Records live in fixed-address chunks that double from 64 (64, 64,
//! 128, 256, … records), committed on first use, so the table never
//! moves and lock-free readers load it without the owner's lock. The
//! unit index is a directory of fixed 16 Ki-unit chunks, sized by the
//! heap's capacity and allocated with its first block. A new table
//! commits nothing.
//!
//! On a **shared** heap (one built by
//! [`SimHeap::new_published`](crate::SimHeap::new_published)) every
//! owner mutation of a record runs inside a seqlock window:
//!
//! * The writer (the heap owner, serialized by its lock) brackets the
//!   mutation in [`SlotTable::open`] / [`SlotTable::close`]: `open`
//!   bumps the sequence to odd with a `Release` fence after it, `close`
//!   bumps it back to even with `Release`. Stores inside are relaxed.
//! * A reader ([`SlotTable::try_snapshot`]) loads the sequence with
//!   `Acquire`, rejects odd values, copies the words relaxed, issues an
//!   `Acquire` fence and re-loads the sequence: an unchanged even value
//!   proves no window overlapped the copy. Anything else is
//!   [`SnapshotOutcome::Unstable`].
//!
//! Object payload bytes live in the shared arena and are read outside
//! any window; those loads are validated by re-checking the slot's
//! sequence *after* the byte load ([`SlotTable::recheck`]). A local
//! heap has no readers but its owner, so it opens no windows at all.
//!
//! Unit-index entries are written once per unit (blocks are never split
//! or merged) with `Release`, after the slot's record is initialized, so
//! a reader that finds an entry also finds the record behind it.

use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use std::sync::atomic::{fence, AtomicU32, AtomicU64};
use std::sync::{Arc, OnceLock};

use crate::shared::SharedArena;
use crate::ALIGN;

/// Object state: nothing recorded for this slot yet.
pub const PUB_STATE_NONE: u32 = 0;
/// Object state: a live tracked object.
pub const PUB_STATE_LIVE: u32 = 1;
/// Object state: the tracked object was freed.
pub const PUB_STATE_FREED: u32 = 2;

/// Shift of the metadata generation inside a packed `life` word.
const LIFE_GEN_SHIFT: u32 = 2;
/// Mask of the object state inside a packed `life` word.
const LIFE_STATE_MASK: u64 = 0b11;

/// Pack a metadata generation and a `PUB_STATE_*` object state into one
/// `life` word. Keeping both in a single atomic is what makes the
/// lock-free free claim ([`SlotTable::claim_free`]) ABA-safe: the CAS
/// can only succeed against the exact `(generation, Live)` pair the
/// caller validated, and heap generations are strictly monotonic per
/// slot, so a recycled slot can never satisfy a stale claim.
#[inline]
fn pack_life(meta_gen: u64, state: u32) -> u64 {
    (meta_gen << LIFE_GEN_SHIFT) | u64::from(state)
}

/// `block` word: registry plan id + 1 in the low 32 bits (0 = none).
const PLAN_MASK: u64 = 0xFFFF_FFFF;
/// `block` word: set while the heap block is freed.
const BLOCK_FREED: u64 = 1 << 32;
/// `block` word: the block size in `ALIGN` units sits above this bit.
const SIZE_SHIFT: u32 = 33;
/// Largest block size, in bytes, the packed `block` word can hold;
/// larger requests fail with `OutOfMemory` instead of truncating.
pub(crate) const MAX_BLOCK_BYTES: usize = ((1 << (64 - SIZE_SHIFT)) - 1) * ALIGN;

/// `link` word: the offset-cache warm flag.
const WARM: u64 = 1;

/// Records in chunk 0; chunk `k ≥ 1` holds `FIRST_CHUNK << (k - 1)`, so
/// the committed total doubles from 64 like a growing `Vec` would.
const FIRST_CHUNK: usize = 64;
/// Chunks needed to address every `u32` slot id.
const RECORD_CHUNKS: usize = 27;
/// Arena units (`ALIGN` bytes each) per unit-index chunk.
const UNITS_PER_CHUNK: usize = 16384;

type UnitChunk = Box<[AtomicU32; UNITS_PER_CHUNK]>;

/// One slot's record: every field a member access needs, in a single
/// cache line behind a per-slot seqlock (see the module docs).
#[repr(align(64))]
#[derive(Debug, Default)]
struct SlotRecord {
    seq: AtomicU64,
    base: AtomicU64,
    heap_gen: AtomicU64,
    life: AtomicU64,
    class_hash: AtomicU64,
    plan_hash: AtomicU64,
    block: AtomicU64,
    link: AtomicU64,
}

/// A point-in-time copy of one slot's record.
#[derive(Debug, Clone, Copy)]
pub struct PubSnapshot {
    /// Heap slot id.
    pub slot: u32,
    /// The (even) sequence the snapshot was taken at; feed it back to
    /// [`SlotTable::recheck`] to validate later arena loads.
    pub seq: u64,
    /// Block base address (global).
    pub base: u64,
    /// Heap allocation generation.
    pub heap_gen: u64,
    /// Heap generation the object metadata was recorded under.
    pub meta_gen: u64,
    /// Recorded class hash.
    pub class_hash: u64,
    /// Recorded plan hash.
    pub plan_hash: u64,
    /// Plan registry id, when the plan was registered.
    pub plan_id: Option<u32>,
    /// Object state (`PUB_STATE_*`).
    pub state: u32,
    /// Whether the warm-access flag was already set at snapshot time:
    /// `true` lets readers skip the [`SlotTable::warm_probe`]
    /// probe-and-set in steady state.
    pub warmed: bool,
    /// Block size in bytes.
    pub size: usize,
    /// Whether the heap block itself is freed.
    pub block_freed: bool,
}

impl PubSnapshot {
    /// Whether the slot holds a recorded object that is current for the
    /// block's generation (not orphaned by raw-path reuse).
    #[inline]
    pub fn is_current(&self) -> bool {
        self.state != PUB_STATE_NONE && self.meta_gen == self.heap_gen
    }
}

/// Result of a lock-free snapshot attempt.
#[derive(Debug, Clone, Copy)]
pub enum SnapshotOutcome {
    /// A consistent snapshot.
    Snap(PubSnapshot),
    /// The address maps to no slot (never allocated, or a redzone gap):
    /// take the mutex.
    Untracked,
    /// A writer window overlapped the read: retry or take the mutex.
    Unstable,
}

/// The slot table of one [`SimHeap`](crate::SimHeap): the seqlocked
/// record per slot and the unit index, behind an `Arc` so lock-free
/// readers of a shared heap hold it without the heap.
///
/// Record mutation goes through the heap (`&mut SimHeap`), which owns
/// every writer window; the only mutations available here are the
/// lock-free ones — the free claim, the remote-free link and the warm
/// flag.
pub struct SlotTable {
    records: [OnceLock<Box<[SlotRecord]>>; RECORD_CHUNKS],
    units: OnceLock<Box<[OnceLock<UnitChunk>]>>,
    /// Unit-index directory length, from the heap capacity.
    unit_chunks: usize,
    arena_base: u64,
    /// The shared arena of a published heap; `None` for a local heap,
    /// whose records only its owner reads (no windows are opened).
    arena: Option<Arc<SharedArena>>,
}

impl std::fmt::Debug for SlotTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotTable")
            .field("arena_base", &self.arena_base)
            .field("shared", &self.arena.is_some())
            .field("record_bytes", &self.record_bytes())
            .field("index_bytes", &self.index_bytes())
            .finish()
    }
}

/// Chunk index and offset of record `slot`: chunk 0 holds slots
/// `[0, 64)`, chunk `k ≥ 1` holds `[64 << (k - 1), 64 << k)`.
#[inline]
fn record_pos(slot: u32) -> (usize, usize) {
    // log2 of `slot | 63` is 5 for the first chunk, log2(slot) after.
    let chunk = (u32::BITS - 1 - (slot | 63).leading_zeros() - 5) as usize;
    (chunk, slot as usize - chunk_start(chunk))
}

/// First slot of record chunk `chunk` (branch-free form of
/// `if chunk == 0 { 0 } else { 64 << (chunk - 1) }`).
#[inline]
fn chunk_start(chunk: usize) -> usize {
    ((FIRST_CHUNK / 2) << chunk) & !(FIRST_CHUNK - 1)
}

impl SlotTable {
    /// A table for a heap of `capacity` bytes based at `arena_base`;
    /// `arena` is the shared arena of a published heap. Commits nothing.
    pub(crate) fn new(capacity: usize, arena_base: u64, arena: Option<Arc<SharedArena>>) -> Self {
        SlotTable {
            records: [const { OnceLock::new() }; RECORD_CHUNKS],
            units: OnceLock::new(),
            unit_chunks: capacity.div_ceil(ALIGN).div_ceil(UNITS_PER_CHUNK),
            arena_base,
            arena,
        }
    }

    /// Whether this is a published heap's table (lock-free readers may
    /// load it, so owner mutations run inside seqlock windows).
    #[inline]
    pub(crate) fn is_shared(&self) -> bool {
        self.arena.is_some()
    }

    #[inline]
    fn get(&self, slot: u32) -> Option<&SlotRecord> {
        let (chunk, i) = record_pos(slot);
        self.records.get(chunk)?.get()?.get(i)
    }

    /// The record of a slot the heap created (its chunk is committed).
    #[inline]
    fn rec(&self, slot: u32) -> &SlotRecord {
        self.get(slot).expect("slot ids come from the heap that committed them")
    }

    // ----- owner half (called by the heap, under its owner's lock) -----

    /// Initialize a fresh slot outside any window: the unit index does
    /// not point at it yet, so no reader can see the partial state.
    /// Follow with [`SlotTable::map_units`].
    pub(crate) fn init(&self, slot: u32, base: u64, size: usize) {
        let (chunk, i) = record_pos(slot);
        let len = chunk_start(chunk).max(FIRST_CHUNK);
        let chunk = self.records[chunk]
            .get_or_init(|| (0..len).map(|_| SlotRecord::default()).collect());
        let rec = &chunk[i];
        rec.base.store(base, Relaxed);
        rec.heap_gen.store(1, Relaxed);
        rec.block.store(((size / ALIGN) as u64) << SIZE_SHIFT, Relaxed);
    }

    /// Point arena units `[first, last)` at `slot`. Write-once per unit;
    /// the `Release` store makes [`SlotTable::init`] visible to any
    /// reader that observes the entry.
    pub(crate) fn map_units(&self, first: usize, last: usize, slot: u32) {
        let dir =
            self.units.get_or_init(|| (0..self.unit_chunks).map(|_| OnceLock::new()).collect());
        for unit in first..last {
            let chunk = dir[unit / UNITS_PER_CHUNK].get_or_init(|| {
                let zeroed: Box<[AtomicU32]> =
                    (0..UNITS_PER_CHUNK).map(|_| AtomicU32::new(0)).collect();
                zeroed.try_into().expect("exactly one chunk of units")
            });
            chunk[unit % UNITS_PER_CHUNK].store(slot + 1, Release);
        }
    }

    /// The unit-index entry for local arena unit `unit`, if committed.
    #[inline]
    fn unit_entry(&self, unit: usize) -> Option<&AtomicU32> {
        Some(&self.units.get()?.get(unit / UNITS_PER_CHUNK)?.get()?[unit % UNITS_PER_CHUNK])
    }

    /// Overwrite one unit-index entry (fault-injection hook for tests).
    #[cfg(test)]
    pub(crate) fn set_unit(&self, unit: usize, slot_plus1: u32) {
        if let Some(entry) = self.unit_entry(unit) {
            entry.store(slot_plus1, Release);
        }
    }

    /// Open a writer window on `slot`: sequence goes odd, and the
    /// `Release` fence orders the bump before the window's data stores.
    /// `None` on a local heap (no readers to order).
    #[must_use]
    pub(crate) fn open(&self, slot: u32) -> Option<u64> {
        if !self.is_shared() {
            return None;
        }
        let rec = self.get(slot)?;
        // RMW, not load+store: a lock-free free claim may bump this
        // slot's sequence concurrently (it does not hold the owner's
        // lock), and a plain store would roll its advance back.
        let s = rec.seq.fetch_add(1, Relaxed);
        fence(Release);
        Some(s)
    }

    /// Close a window opened with the returned token.
    pub(crate) fn close(&self, slot: u32, token: u64) {
        // RMW for the same reason as `open`: a concurrent claim's +2
        // must survive the close (open +1, claims +2k, close +1).
        let prev = self.rec(slot).seq.fetch_add(1, Release);
        debug_assert!(prev & 1 == 1 && prev > token, "close pairs with a successful open");
    }

    /// Reuse a freed block: bump its generation and clear the freed bit.
    /// Window-required. Returns the block's span in bytes and its new
    /// generation.
    pub(crate) fn reuse(&self, slot: u32) -> (usize, u64) {
        let rec = self.rec(slot);
        let generation = rec.heap_gen.load(Relaxed) + 1;
        rec.heap_gen.store(generation, Relaxed);
        let block = rec.block.load(Relaxed) & !BLOCK_FREED;
        rec.block.store(block, Relaxed);
        ((block >> SIZE_SHIFT) as usize * ALIGN, generation)
    }

    /// Mark a block freed. Window-required.
    pub(crate) fn free_block(&self, slot: u32) {
        let rec = self.rec(slot);
        rec.block.store(rec.block.load(Relaxed) | BLOCK_FREED, Relaxed);
    }

    /// Record a live object. Window-required.
    pub(crate) fn record(
        &self,
        slot: u32,
        class_hash: u64,
        plan_hash: u64,
        plan_id: Option<u32>,
        meta_gen: u64,
    ) {
        let rec = self.rec(slot);
        rec.class_hash.store(class_hash, Relaxed);
        rec.plan_hash.store(plan_hash, Relaxed);
        let block = rec.block.load(Relaxed) & !PLAN_MASK;
        rec.block.store(block | plan_id.map_or(0, |id| u64::from(id) + 1), Relaxed);
        rec.life.store(pack_life(meta_gen, PUB_STATE_LIVE), Relaxed);
        Self::clear_warm(rec);
    }

    /// Flip a recorded object to `Freed`, keeping its generation so a
    /// stale snapshot can still be diagnosed. One word changes, so like
    /// [`SlotTable::claim_free`] this needs no window: the sequence
    /// advances by a full window to make optimistic readers retry.
    pub(crate) fn mark_freed(&self, slot: u32) {
        let rec = self.rec(slot);
        let life = rec.life.load(Relaxed);
        rec.life.store((life & !LIFE_STATE_MASK) | u64::from(PUB_STATE_FREED), Relaxed);
        Self::clear_warm(rec);
        if self.is_shared() {
            rec.seq.fetch_add(2, Release);
        }
    }

    /// Clear the warm flag. The link word may carry a remote-free link a
    /// racing claimant wrote, so only the flag bit goes.
    #[inline]
    fn clear_warm(rec: &SlotRecord) {
        if rec.link.load(Relaxed) & WARM != 0 {
            rec.link.fetch_and(!WARM, Relaxed);
        }
    }

    /// The record of `slot` as its owner sees it (no seqlock validation:
    /// the owner excludes every writer but the single-word claims).
    #[inline]
    pub(crate) fn read(&self, slot: u32) -> Option<PubSnapshot> {
        self.get(slot).map(|rec| Self::load(rec, slot, rec.seq.load(Relaxed)))
    }

    /// Base address and generation of `slot` (owner read): the two
    /// words the heap's exact-base lookups need.
    #[inline]
    pub(crate) fn base_gen(&self, slot: u32) -> Option<(u64, u64)> {
        self.get(slot).map(|rec| (rec.base.load(Relaxed), rec.heap_gen.load(Relaxed)))
    }

    #[inline]
    fn load(rec: &SlotRecord, slot: u32, seq: u64) -> PubSnapshot {
        let life = rec.life.load(Relaxed);
        let block = rec.block.load(Relaxed);
        PubSnapshot {
            slot,
            seq,
            base: rec.base.load(Relaxed),
            heap_gen: rec.heap_gen.load(Relaxed),
            meta_gen: life >> LIFE_GEN_SHIFT,
            class_hash: rec.class_hash.load(Relaxed),
            plan_hash: rec.plan_hash.load(Relaxed),
            plan_id: ((block & PLAN_MASK) as u32).checked_sub(1),
            state: (life & LIFE_STATE_MASK) as u32,
            warmed: rec.link.load(Relaxed) & WARM != 0,
            size: (block >> SIZE_SHIFT) as usize * ALIGN,
            block_freed: block & BLOCK_FREED != 0,
        }
    }

    /// Slot id covering local arena unit `unit`, if a block owns it.
    #[inline]
    pub(crate) fn unit(&self, unit: usize) -> Option<u32> {
        self.unit_entry(unit)?.load(Acquire).checked_sub(1)
    }

    // ----- lock-free half -----

    /// Lock-free free claim: atomically retire `(meta_gen, Live)` to
    /// `(meta_gen, Freed)`. This is the one record mutation legal
    /// *outside* a writer window and *without* the heap owner's lock:
    /// the state flip touches only the packed `life` word (readers load
    /// it atomically, so no torn view is possible), the sequence then
    /// advances by a full window so optimistic readers re-validate, and
    /// the generation baked into the compare makes the claim ABA-safe.
    /// Returns `true` when this caller won the claim; `false` means the
    /// object is already freed, was never recorded at this generation,
    /// or a racing claim got there first — the caller must fall back to
    /// the locked path, which will diagnose it.
    ///
    /// A successful claim only marks the object logically dead. The
    /// heap-side release (poisoning, quarantine, free-list push) still
    /// happens under the owner's lock when the remote-free stack is
    /// drained, so the block's storage stays intact until then.
    #[inline]
    pub fn claim_free(&self, slot: u32, meta_gen: u64) -> bool {
        let Some(rec) = self.get(slot) else { return false };
        let live = pack_life(meta_gen, PUB_STATE_LIVE);
        let freed = pack_life(meta_gen, PUB_STATE_FREED);
        if rec.life.compare_exchange(live, freed, AcqRel, Relaxed).is_err() {
            return false;
        }
        // Not on any remote-free stack yet: the whole link word resets.
        rec.link.store(0, Relaxed);
        rec.seq.fetch_add(2, Release);
        true
    }

    /// Set the remote-free stack link of `slot`: `next_plus1` is the next
    /// slot id + 1, 0 terminates. Only the claimant that just won
    /// [`SlotTable::claim_free`] may write this; plain relaxed accesses,
    /// ordered by the stack head's release/acquire CAS pair.
    #[inline]
    pub fn set_remote_next(&self, slot: u32, next_plus1: u32) {
        if let Some(rec) = self.get(slot) {
            rec.link.store(u64::from(next_plus1) << 1, Relaxed);
        }
    }

    /// Read the remote-free stack link of `slot`. Only the draining
    /// owner (after acquiring the detached stack head) may read this.
    #[inline]
    pub fn remote_next(&self, slot: u32) -> u32 {
        self.get(slot).map_or(0, |rec| (rec.link.load(Relaxed) >> 1) as u32)
    }

    /// Warm-flag probe: returns whether the slot was already warm, and
    /// warms it if not. Relaxed — the flag is a statistic, not a guard.
    #[inline]
    pub fn warm_probe(&self, slot: u32) -> bool {
        let Some(rec) = self.get(slot) else { return false };
        if rec.link.load(Relaxed) & WARM != 0 {
            return true;
        }
        rec.link.fetch_or(WARM, Relaxed) & WARM != 0
    }

    /// Attempt a consistent snapshot of the slot covering `addr`.
    #[inline]
    pub fn try_snapshot(&self, addr: u64) -> SnapshotOutcome {
        let slot = addr
            .checked_sub(self.arena_base)
            .and_then(|local| self.unit(local as usize / ALIGN));
        match slot {
            Some(slot) => self.try_snapshot_slot(slot),
            None => SnapshotOutcome::Untracked,
        }
    }

    /// [`SlotTable::try_snapshot`] for a reader that already knows the
    /// slot id (e.g. from an inline cache's slot hint), skipping the
    /// unit-index walk. The caller must validate the returned snapshot's
    /// `base` against the address it believes the slot belongs to — a
    /// stale hint simply yields a snapshot of some other (or no longer
    /// live) block, never an unsound one.
    #[inline]
    pub fn try_snapshot_slot(&self, slot: u32) -> SnapshotOutcome {
        let Some(rec) = self.get(slot) else {
            return SnapshotOutcome::Untracked;
        };
        let s1 = rec.seq.load(Acquire);
        if s1 & 1 == 1 {
            return SnapshotOutcome::Unstable;
        }
        let snap = Self::load(rec, slot, s1);
        fence(Acquire);
        if rec.seq.load(Relaxed) != s1 {
            return SnapshotOutcome::Unstable;
        }
        SnapshotOutcome::Snap(snap)
    }

    /// Validate that `slot`'s sequence still equals `seq` (an arena byte
    /// load issued since the snapshot is then not torn by any writer
    /// window on the slot).
    #[inline]
    pub fn recheck(&self, slot: u32, seq: u64) -> bool {
        fence(Acquire);
        matches!(self.get(slot), Some(rec) if rec.seq.load(Relaxed) == seq)
    }

    /// Lock-free little-endian load of `width` ∈ {1,2,4,8} bytes from a
    /// published heap's shared arena; `None` when the range is
    /// uncommitted or the heap is local. Validate with
    /// [`SlotTable::recheck`] before trusting the value.
    #[inline]
    pub fn read_uint(&self, addr: u64, width: usize) -> Option<u64> {
        let local = addr.checked_sub(self.arena_base)?;
        self.arena.as_ref()?.read_uint(local as usize, width)
    }

    /// Bytes of committed record chunks: the per-object metadata.
    pub(crate) fn record_bytes(&self) -> usize {
        let records: usize = self.records.iter().filter_map(|c| c.get()).map(|c| c.len()).sum();
        records * std::mem::size_of::<SlotRecord>()
    }

    /// Bytes of the allocator-owned unit index: committed chunks plus
    /// the chunk directory.
    pub(crate) fn index_bytes(&self) -> usize {
        self.units.get().map_or(0, |dir| {
            let chunks = dir.iter().filter(|c| c.get().is_some()).count();
            let chunk_bytes = UNITS_PER_CHUNK * std::mem::size_of::<AtomicU32>();
            std::mem::size_of_val(dir.as_ref()) + chunks * chunk_bytes
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SlotTable {
        SlotTable::new(1 << 20, 0, Some(Arc::new(SharedArena::new(1 << 20))))
    }

    /// A live record for slot 0 at base 16, generation `gen`.
    fn recorded(t: &SlotTable, gen: u64) {
        t.init(0, 16, 32);
        t.map_units(1, 3, 0);
        let win = t.open(0);
        t.record(0, 1, 2, None, gen);
        if let Some(win) = win {
            t.close(0, win);
        }
    }

    #[test]
    fn record_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<SlotRecord>(), 64);
        assert_eq!(std::mem::align_of::<SlotRecord>(), 64);
    }

    #[test]
    fn record_chunks_double_from_64() {
        assert_eq!(record_pos(0), (0, 0));
        assert_eq!(record_pos(63), (0, 63));
        assert_eq!(record_pos(64), (1, 0));
        assert_eq!(record_pos(127), (1, 63));
        assert_eq!(record_pos(128), (2, 0));
        assert_eq!(record_pos(256), (3, 0));
        assert_eq!(record_pos(u32::MAX).0, RECORD_CHUNKS - 1);
        let t = table();
        assert_eq!(t.record_bytes(), 0, "a new table commits nothing");
        t.init(0, 16, 16);
        assert_eq!(t.record_bytes(), 64 * 64);
        t.init(200, 32, 16);
        assert_eq!(t.record_bytes(), (64 + 128) * 64, "only touched chunks commit");
    }

    #[test]
    fn snapshot_sees_recorded_metadata() {
        let t = table();
        t.init(0, 16, 32);
        t.map_units(1, 3, 0);
        let win = t.open(0).unwrap();
        t.record(0, 0xC1A55, 0x91A4, Some(7), 1);
        t.close(0, win);
        match t.try_snapshot(16) {
            SnapshotOutcome::Snap(s) => {
                assert_eq!((s.base, s.heap_gen, s.meta_gen), (16, 1, 1));
                assert_eq!((s.class_hash, s.plan_hash, s.plan_id), (0xC1A55, 0x91A4, Some(7)));
                assert_eq!((s.state, s.size, s.block_freed), (PUB_STATE_LIVE, 32, false));
                assert!(s.is_current());
                assert!(t.recheck(s.slot, s.seq));
                // Interior pointers resolve to the same slot.
                assert!(matches!(t.try_snapshot(40), SnapshotOutcome::Snap(i) if i.slot == s.slot));
            }
            other => panic!("expected a snapshot, got {other:?}"),
        }
        assert!(matches!(t.try_snapshot(4096), SnapshotOutcome::Untracked));
    }

    #[test]
    fn open_windows_are_unstable_and_invalidate_rechecks() {
        let t = table();
        t.init(0, 16, 16);
        t.map_units(1, 2, 0);
        let snap = match t.try_snapshot(16) {
            SnapshotOutcome::Snap(s) => s,
            other => panic!("expected snapshot, got {other:?}"),
        };
        let win = t.open(0).unwrap();
        assert!(matches!(t.try_snapshot(16), SnapshotOutcome::Unstable));
        assert!(!t.recheck(snap.slot, snap.seq), "open window must fail recheck");
        t.close(0, win);
        assert!(!t.recheck(snap.slot, snap.seq), "closed window bumped the sequence");
        assert!(matches!(t.try_snapshot(16), SnapshotOutcome::Snap(_)));
    }

    #[test]
    fn local_tables_open_no_windows() {
        let t = SlotTable::new(1 << 20, 0, None);
        t.init(0, 16, 16);
        assert!(t.open(0).is_none());
        assert_eq!(t.read_uint(16, 8), None, "a local table has no shared arena");
    }

    #[test]
    fn claim_free_is_generation_exact_and_single_shot() {
        let t = table();
        recorded(&t, 3);
        assert!(!t.claim_free(0, 2), "stale generation must not claim");
        assert!(!t.claim_free(0, 4), "future generation must not claim");
        assert!(t.claim_free(0, 3), "exact live generation claims");
        assert!(!t.claim_free(0, 3), "double claim must lose");
        let s = t.read(0).unwrap();
        assert_eq!(s.state, PUB_STATE_FREED);
        assert_eq!(s.meta_gen, 3, "claim preserves the generation");

        // Re-recording under a new generation revives the slot and the
        // old claim key stays dead.
        let win = t.open(0).unwrap();
        t.record(0, 1, 2, None, 4);
        t.close(0, win);
        assert!(!t.claim_free(0, 3), "recycled slot must reject the stale claim");
        assert!(t.claim_free(0, 4));
    }

    #[test]
    fn remote_links_and_warm_flags_share_a_word_without_clobbering() {
        let t = table();
        recorded(&t, 1);
        assert!(t.claim_free(0, 1));
        t.set_remote_next(0, 9);
        // A reader that snapshotted before the claim may still warm it.
        assert!(!t.warm_probe(0));
        assert_eq!(t.remote_next(0), 9, "warming keeps the link");
        assert!(t.warm_probe(0));
        assert_eq!(t.remote_next(7), 0, "uncommitted slots have no link");
    }

    #[test]
    fn warm_probe_reports_prior_state_and_record_resets_it() {
        for t in [table(), SlotTable::new(1 << 20, 0, None)] {
            recorded(&t, 1);
            assert!(!t.warm_probe(0), "first probe is cold");
            assert!(t.warm_probe(0), "second probe is warm");
            t.mark_freed(0);
            assert!(!t.read(0).unwrap().warmed, "free resets warmth");
            assert!(!t.warm_probe(0));
            t.record(0, 1, 2, None, 1);
            assert!(!t.warm_probe(0), "re-record resets warmth");
        }
    }
}
