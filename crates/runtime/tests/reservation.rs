//! The stateless reservation body, pinned from outside.
//!
//! * **Randomization is a pure function of the seed.** A seeded
//!   malloc/free churn is replayed through a
//!   [`ShardHandle`](polar_runtime::ShardHandle) (magazine refills) and
//!   through a plain [`ObjectRuntime`] (one reservation per
//!   `olr_malloc`), and the stream of every allocation's
//!   `(address, plan hash, canary bytes)` is folded into a digest. The
//!   digests are pinned: any change to how reservations derive, resolve
//!   or arm their layouts — batching, caching, plan resolution — must
//!   reproduce exactly the same objects.
//! * **Heap exhaustion mid-refill.** A refill whose k-th reservation
//!   finds the heap full parks exactly the reserved prefix, the heap
//!   holds exactly those blocks, teardown hands every capsule back, and
//!   a failure on the first reservation reports `OutOfMemory` with
//!   nothing parked.

use std::sync::Arc;

use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_layout::stateless_bound;
use polar_rng::{Rng, SplitMix64};
use polar_runtime::{
    Addr, ObjectMeta, ObjectRuntime, PolarRuntime, RandomizeMode, RuntimeConfig, RuntimeError,
    ShardHandle, ShardedRuntime,
};
use polar_simheap::{HeapError, PlacementPolicy};

/// The session-store class: 7 fields, stateless with virtual traps.
fn session() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("Session")
            .field("vtable", FieldKind::VtablePtr)
            .field("id", FieldKind::I64)
            .field("token", FieldKind::I64)
            .field("last_seen", FieldKind::I64)
            .field("hits", FieldKind::I32)
            .field("flags", FieldKind::I32)
            .field("payload", FieldKind::Ptr)
            .build(),
    ))
}

/// Three fields: a code space small enough to saturate.
fn pair() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("Pair")
            .field("vtable", FieldKind::VtablePtr)
            .field("a", FieldKind::I32)
            .field("b", FieldKind::I64)
            .build(),
    ))
}

/// Ten fields: past the stateless limit, so pooled stateful plans.
fn wide() -> Arc<ClassInfo> {
    let mut b = ClassDecl::builder("Wide").field("vtable", FieldKind::VtablePtr);
    for i in 0..9 {
        b = b.field(format!("f{i}"), if i % 2 == 0 { FieldKind::I64 } else { FieldKind::I32 });
    }
    Arc::new(ClassInfo::from_decl(b.build()))
}

fn config(placement: bool) -> RuntimeConfig {
    let mut config = RuntimeConfig::default();
    config.heap.capacity = 8 << 20;
    config.seed = 0x5EED_D16E;
    if placement {
        config.heap.placement =
            PlacementPolicy { shuffle_depth: 8, offset_entropy_bits: 6, guard_gap_bits: 4, seed: 0 };
    }
    config
}

/// FNV-style fold of one word into the digest.
fn mix(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    *h ^= *h >> 29;
}

/// Fold one allocation: its address, its plan hash, and the bytes of
/// every canary its plan armed, read back from the heap.
fn fold(h: &mut u64, base: Addr, meta: &ObjectMeta, read: &mut dyn FnMut(Addr, usize) -> u64) {
    mix(h, base.0);
    mix(h, meta.plan.plan_hash().0);
    for d in meta.plan.dummies().iter().filter(|d| d.canary.is_some()) {
        let width = [8usize, 4, 2, 1].into_iter().find(|&w| w <= d.size as usize).unwrap_or(1);
        mix(h, read(base.offset(u64::from(d.offset)), width));
    }
}

/// Replay the seeded churn, calling `alloc`/`free`/`fold_new` on the
/// front-end under test; returns the digest.
fn churn(
    seed: u64,
    ops: usize,
    alloc: &mut dyn FnMut(&Arc<ClassInfo>) -> Addr,
    free: &mut dyn FnMut(Addr),
    fold_new: &mut dyn FnMut(&mut u64, Addr),
) -> u64 {
    let classes = [session(), pair(), wide()];
    let mut rng = SplitMix64::new(seed);
    let mut live: Vec<Addr> = Vec::new();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..ops {
        let r = rng.next_u64();
        if live.is_empty() || r % 100 < 55 {
            // Mostly the session class, like the churn workload.
            let info = &classes[match (r >> 8) % 8 {
                0 => 1,
                1 => 2,
                _ => 0,
            }];
            let base = alloc(info);
            fold_new(&mut h, base);
            live.push(base);
        } else {
            let i = ((r >> 16) % live.len() as u64) as usize;
            free(live.swap_remove(i));
        }
    }
    h
}

/// Digest through handles on a sharded runtime: with two shards, two
/// handles on different home shards take turns allocating, so plans
/// one shard registers first are adopted canonically by the other.
fn handle_digest(placement: bool, shards: usize) -> u64 {
    let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), config(placement), shards);
    let handles: Vec<_> = (0..shards as u64).map(|t| rt.handle(t)).collect();
    let handles = std::cell::RefCell::new(handles);
    let mut turn = 0usize;
    churn(
        0xC0DE,
        20_000,
        &mut |info| {
            turn += 1;
            handles.borrow_mut()[turn % shards].olr_malloc(info).expect("alloc")
        },
        &mut |base| handles.borrow_mut()[0].olr_free(base).expect("free"),
        &mut |acc, base| {
            let meta = rt.object_meta(base).expect("tracked");
            let hs = handles.borrow();
            fold(acc, base, &meta, &mut |a, w| hs[0].heap_read_uint(a, w).expect("read"));
        },
    )
}

fn engine_digest(placement: bool) -> u64 {
    let rt = std::cell::RefCell::new(ObjectRuntime::new(
        RandomizeMode::per_allocation(),
        config(placement),
    ));
    churn(
        0xC0DE,
        20_000,
        &mut |info| rt.borrow_mut().olr_malloc(info).expect("alloc"),
        &mut |base| rt.borrow_mut().olr_free(base).expect("free"),
        &mut |acc, base| {
            let rt = rt.borrow();
            let meta = rt.object_meta(base).expect("tracked");
            fold(acc, base, &meta, &mut |a, w| rt.heap().read_uint(a, w).expect("read"));
        },
    )
}

#[test]
fn reservation_streams_match_their_pinned_digests() {
    // Pinned from the reservation path before it was batched (one
    // capsule at a time through a 64-way derived-plan cache).
    let pins = [
        ("handle, 1 shard", handle_digest(false, 1), 0xde71_4920_e66a_14a2u64),
        ("handle, 2 shards", handle_digest(false, 2), 0x49f3_3238_0e6b_5b85),
        ("handle, placement", handle_digest(true, 1), 0x94d0_45dd_d59b_e1d2),
        ("engine", engine_digest(false), 0xaf35_3505_4b51_185d),
        ("engine, placement", engine_digest(true), 0xefea_41e4_fc6c_ffb5),
    ];
    for (what, got, pinned) in pins {
        assert_eq!(got, pinned, "{what}: reservation stream digest {got:#018x} moved");
    }
}

/// Block bytes one session reservation takes: the stateless bound,
/// rounded up to its size class.
const SESSION_BLOCK: usize = 256;

fn small_heap() -> RuntimeConfig {
    let mut config = config(false);
    config.heap.capacity = 64 << 10;
    config
}

/// Fill the handle's home shard with raw session-sized blocks until the
/// heap is exhausted, then hand `keep_free` of them back: the next
/// `keep_free` reservations find room and the one after finds none.
fn exhaust_but(h: &mut ShardHandle<'_>, keep_free: usize) -> Vec<Addr> {
    let bound = stateless_bound(&session(), true) as usize;
    assert!(bound <= SESSION_BLOCK && bound > SESSION_BLOCK / 2, "bound {bound} in the 256 B class");
    let mut raw = Vec::new();
    while let Ok(a) = h.heap_malloc(bound) {
        raw.push(a);
    }
    assert!(raw.len() > keep_free, "the heap holds {} blocks", raw.len());
    for a in raw.drain(raw.len() - keep_free..) {
        h.heap_free(a).expect("raw free");
    }
    raw
}

#[test]
fn heap_exhaustion_mid_refill_parks_exactly_the_reserved_prefix() {
    let info = session();
    for k in [2usize, 6, 17] {
        let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), small_heap(), 1);
        let mut h = rt.handle(0);
        // The refill's k-th reservation finds the heap full.
        let raw = exhaust_but(&mut h, k - 1);
        let first = h.olr_malloc(&info).expect("a partial refill still allocates");
        assert_eq!(h.parked_capsules(), k - 2, "k={k}: the reserved prefix minus the pop");
        for a in raw {
            h.heap_free(a).expect("raw free");
        }
        assert_eq!(
            rt.heap_footprint().bytes_live,
            (k - 1) * SESSION_BLOCK,
            "k={k}: the heap holds exactly the reserved prefix"
        );
        h.olr_free(first).expect("free");
        h.teardown();
        assert_eq!(h.parked_capsules(), 0);
        drop(h);
        let stats = rt.stats();
        assert_eq!(stats.magazine_returns, (k - 2) as u64, "k={k}: every capsule returned");
        assert_eq!((stats.allocations, stats.frees), (1, 1));
        assert_eq!(rt.heap_footprint().bytes_live, 0, "k={k}: no block leaks");
    }
}

#[test]
fn heap_exhaustion_on_the_first_reservation_parks_nothing() {
    let info = session();
    let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), small_heap(), 1);
    let mut h = rt.handle(0);
    let raw = exhaust_but(&mut h, 0);
    assert!(matches!(
        h.olr_malloc(&info),
        Err(RuntimeError::Heap(HeapError::OutOfMemory { .. }))
    ));
    assert_eq!(h.parked_capsules(), 0);
    for a in raw {
        h.heap_free(a).expect("raw free");
    }
    drop(h);
    assert_eq!(rt.stats().allocations, 0);
    assert_eq!(rt.heap_footprint().bytes_live, 0);
}

#[test]
fn engine_allocates_until_the_heap_is_full_and_leaks_nothing() {
    let info = session();
    let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), small_heap());
    let mut live = Vec::new();
    let err = loop {
        match rt.olr_malloc(&info) {
            Ok(a) => live.push(a),
            Err(err) => break err,
        }
    };
    assert!(matches!(err, RuntimeError::Heap(HeapError::OutOfMemory { .. })), "{err:?}");
    assert_eq!(rt.heap().stats().bytes_live, live.len() * SESSION_BLOCK);
    assert_eq!(rt.stats().allocations, live.len() as u64);
    for a in live {
        rt.olr_free(a).expect("free");
    }
    assert_eq!(rt.heap().stats().bytes_live, 0);
}
