//! `445.gobmk` — Go engine: thousands of analysis objects, access-heavy.
//!
//! GNU Go builds worm/dragon/eye analysis records for every group on the
//! board and then reads them constantly during move evaluation
//! (Table III: 4 000 allocations, zero frees, 72 B member accesses;
//! Table I: 21 tainted classes).

use polar_ir::builder::ModuleBuilder;
use polar_ir::{BinOp, CmpOp};

use crate::util::{compute_pad, begin_for_n, class_family, default_fields, dispatch_by_kind, end_for, mix};
use crate::Workload;

/// The 21 input-tainted gobmk classes (Table I samples completed with
/// GNU Go internals).
pub const TAINTED_CLASSES: [&str; 21] = [
    "move_data", "SGFTree_t", "gg_rand_state", "worm_data", "dragon_data", "Hash_data",
    "string_data", "board_state", "eye_data", "half_eye_data", "surround_data",
    "influence_data", "pattern_db", "connection_data", "owl_data", "reading_cache",
    "liberty_data", "group_data", "territory_data", "cut_data", "matcher_status",
];

/// Analysis records allocated (Table III: 4 000).
const RECORDS: u64 = 4000;
/// Evaluation sweeps over the records (sizes the access count).
const SWEEPS: u64 = 20;

/// Build the workload.
pub fn workload() -> Workload {
    let mut mb = ModuleBuilder::new("445.gobmk");
    let classes = class_family(&mut mb, &TAINTED_CLASSES, default_fields);
    let internal = class_family(&mut mb, &["ttable", "sgf_clock"], default_fields);

    let mut f = mb.function("main", 0);
    let bb = f.entry_block();

    let _tt = f.alloc_obj(bb, internal[0]);
    let _clock = f.alloc_obj(bb, internal[1]);

    // The board position arrives as the untrusted input (SGF-ish).
    let len = f.input_len(bb);
    let board = f.alloc_buf_bytes(bb, 512);
    let zero = f.const_(bb, 0);
    f.input_read(bb, board, zero, len);

    // ---- analysis phase: allocate RECORDS objects round-robin ---------
    let records = f.alloc_buf_bytes(bb, RECORDS * 16);
    let build = begin_for_n(&mut f, bb, RECORDS);
    let kind = f.bini(build.body, BinOp::Rem, build.i, TAINTED_CLASSES.len() as u64);
    // Each record summarizes one board vertex (tainted content).
    let vertex = f.bini(build.body, BinOp::Rem, build.i, 64);
    let vaddr = f.bin(build.body, BinOp::Add, board, vertex);
    let stone = f.load(build.body, vaddr, 1);

    let join = f.block();
    let rec = f.reg();
    let mut cur = build.body;
    for (k, &class) in classes.iter().enumerate() {
        let hit = f.block();
        let next = f.block();
        let is_kind = f.cmpi(cur, CmpOp::Eq, kind, k as u64);
        f.br(cur, is_kind, hit, next);
        let obj = f.alloc_obj(hit, class);
        let fld = f.gep(hit, obj, class, 1);
        f.store(hit, fld, stone, 1);
        f.mov_to(hit, rec, obj);
        f.jmp(hit, join);
        cur = next;
    }
    let fallback = f.alloc_obj(cur, classes[0]);
    f.mov_to(cur, rec, fallback);
    f.jmp(cur, join);
    let slot_off = f.bini(join, BinOp::Mul, build.i, 16);
    let slot = f.bin(join, BinOp::Add, records, slot_off);
    f.store(join, slot, rec, 8);
    let kind_addr = f.bini(join, BinOp::Add, slot, 8);
    f.store(join, kind_addr, kind, 8);
    end_for(&mut f, &build, join);

    // ---- evaluation phase: repeated reads of every record -------------
    let score = f.const_(build.exit, 0);
    let sweeps = begin_for_n(&mut f, build.exit, SWEEPS);
    let walk = begin_for_n(&mut f, sweeps.body, RECORDS);
    let slot_off = f.bini(walk.body, BinOp::Mul, walk.i, 16);
    let slot = f.bin(walk.body, BinOp::Add, records, slot_off);
    let obj = f.load(walk.body, slot, 8);
    let kind_addr = f.bini(walk.body, BinOp::Add, slot, 8);
    let rec_kind = f.load(walk.body, kind_addr, 8);
    let v = f.reg();
    let join2 = dispatch_by_kind(&mut f, walk.body, &classes, rec_kind, |f, hit, class| {
        let fld = f.gep(hit, obj, class, 1);
        let loaded = f.load(hit, fld, 1);
        f.mov_to(hit, v, loaded);
    });
    let mixed = mix(&mut f, join2, v);
    let acc = f.bin(join2, BinOp::Add, score, mixed);
    f.mov_to(join2, score, acc);
    end_for(&mut f, &walk, join2);
    end_for(&mut f, &sweeps, walk.exit);

    // Pattern matching and reading: flat-board computation.
    let (padded, fin) = compute_pad(&mut f, sweeps.exit, 2_000_000, score);
    f.out(fin, padded);
    f.ret(fin, Some(padded));
    mb.finish_function(f);

    // A small SGF-ish record with varied vertices.
    let input: Vec<u8> = (0u8..64).map(|i| (i * 3) % 5).collect();
    Workload::new("445.gobmk", mb.build().expect("valid module"), input, 60_000_000)
}

#[cfg(test)]
mod tests {
    use polar_ir::interp::run_native;

    #[test]
    fn runs_and_scores() {
        let w = super::workload();
        let report = run_native(&w.module, &w.input, w.limits);
        assert!(report.result.is_ok(), "{:?}", report.result);
    }
}
