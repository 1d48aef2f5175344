//! IR-construction helpers shared by the workloads.

use polar_classinfo::{ClassDecl, ClassId, FieldKind};
use polar_ir::builder::{FunctionBuilder, ModuleBuilder};
use polar_ir::{BinOp, BlockId, CmpOp, Reg};

/// A counted loop under construction (see [`begin_for`]).
#[derive(Debug, Clone, Copy)]
pub struct ForLoop {
    /// The loop-header block (re-evaluates the condition).
    pub head: BlockId,
    /// The loop body; append the body there (or in blocks reachable from
    /// it) and close with [`end_for`].
    pub body: BlockId,
    /// The continuation block after the loop.
    pub exit: BlockId,
    /// The induction variable.
    pub i: Reg,
}

/// Open a `for i in start..count` loop at the end of `cur`.
///
/// `count` is a register so loop bounds can be input-dependent. Close the
/// body with [`end_for`], then continue emitting in `loop.exit`.
pub fn begin_for(f: &mut FunctionBuilder, cur: BlockId, start: u64, count: Reg) -> ForLoop {
    let i = f.const_(cur, start);
    let head = f.block();
    let body = f.block();
    let exit = f.block();
    f.jmp(cur, head);
    let cond = f.cmp(head, CmpOp::Lt, i, count);
    f.br(head, cond, body, exit);
    ForLoop { head, body, exit, i }
}

/// Open a `for i in 0..n` loop with a constant bound.
pub fn begin_for_n(f: &mut FunctionBuilder, cur: BlockId, n: u64) -> ForLoop {
    let count = f.const_(cur, n);
    begin_for(f, cur, 0, count)
}

/// Close a loop opened with [`begin_for`]; `cur` is the block where the
/// body's straight-line code ended (usually `lp.body`).
pub fn end_for(f: &mut FunctionBuilder, lp: &ForLoop, cur: BlockId) {
    let next = f.bini(cur, BinOp::Add, lp.i, 1);
    f.mov_to(cur, lp.i, next);
    f.jmp(cur, lp.head);
}

/// Declare a family of classes named `names`, each given a field list by
/// `fields(index, name)`. Used by workloads that model applications with
/// large type populations (gcc, xalancbmk, ChakraCore).
pub fn class_family(
    mb: &mut ModuleBuilder,
    names: &[&str],
    mut fields: impl FnMut(usize, &str) -> Vec<(String, FieldKind)>,
) -> Vec<ClassId> {
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut b = ClassDecl::builder(*name);
            for (fname, kind) in fields(i, name) {
                b = b.field(fname, kind);
            }
            mb.add_class(b.build()).unwrap_or_else(|e| panic!("class {name}: {e}"))
        })
        .collect()
}

/// A default field mix for generated classes: a vtable pointer, a couple
/// of scalars, and (for odd indices) a data pointer — enough structure for
/// randomization to matter. The mix varies with `i` so generated classes
/// are not structurally identical.
pub fn default_fields(i: usize, _name: &str) -> Vec<(String, FieldKind)> {
    let mut fields = vec![("vtable".to_owned(), FieldKind::VtablePtr)];
    for k in 0..(2 + i % 3) {
        let kind = match (i + k) % 4 {
            0 => FieldKind::I32,
            1 => FieldKind::I64,
            2 => FieldKind::I16,
            _ => FieldKind::I8,
        };
        fields.push((format!("f{k}"), kind));
    }
    if i % 2 == 1 {
        fields.push(("link".to_owned(), FieldKind::Ptr));
    }
    fields
}

/// Emit `xorshift`-style mixing of a register (cheap pseudo-computation
/// standing in for real workload arithmetic). Returns the mixed register.
pub fn mix(f: &mut FunctionBuilder, bb: BlockId, v: Reg) -> Reg {
    let s1 = f.bini(bb, BinOp::Shl, v, 13);
    let x1 = f.bin(bb, BinOp::Xor, v, s1);
    let s2 = f.bini(bb, BinOp::Shr, x1, 7);
    f.bin(bb, BinOp::Xor, x1, s2)
}

/// Build a `switch (kind)` dispatch chain over `classes`: for each class
/// an arm block is created, `body` fills it in, and all arms converge on
/// the returned join block. Heterogeneous object populations must be
/// accessed this way — each access site names the object's true class,
/// like a virtual dispatch — or POLaR's class-hash check (correctly)
/// flags the access as a type confusion.
pub fn dispatch_by_kind(
    f: &mut FunctionBuilder,
    cur: BlockId,
    classes: &[ClassId],
    kind: Reg,
    mut body: impl FnMut(&mut FunctionBuilder, BlockId, ClassId),
) -> BlockId {
    let join = f.block();
    let mut chain = cur;
    for (k, &class) in classes.iter().enumerate() {
        let hit = f.block();
        let next = f.block();
        let is_k = f.cmpi(chain, CmpOp::Eq, kind, k as u64);
        f.br(chain, is_k, hit, next);
        body(f, hit, class);
        f.jmp(hit, join);
        chain = next;
    }
    f.jmp(chain, join);
    join
}

/// Emit the workload's non-object "real work": `iters` rounds of register
/// mixing folded into `seed`. Returns the folded register and the block
/// to continue in. This is what keeps the instrumented-site density
/// realistic — SPEC programs spend most of their cycles in computation
/// the instrumentation never touches.
pub fn compute_pad(
    f: &mut FunctionBuilder,
    cur: BlockId,
    iters: u64,
    seed: Reg,
) -> (Reg, BlockId) {
    let acc = f.mov(cur, seed);
    let lp = begin_for_n(f, cur, iters);
    let x = f.bin(lp.body, BinOp::Add, acc, lp.i);
    let m = mix(f, lp.body, x);
    f.mov_to(lp.body, acc, m);
    end_for(f, &lp, lp.body);
    (acc, lp.exit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_ir::interp::{run_native, ExecLimits};

    #[test]
    fn for_loop_iterates_exactly_n_times() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let acc = f.const_(bb, 0);
        let lp = begin_for_n(&mut f, bb, 10);
        let next = f.bini(lp.body, BinOp::Add, acc, 3);
        f.mov_to(lp.body, acc, next);
        end_for(&mut f, &lp, lp.body);
        f.ret(lp.exit, Some(acc));
        mb.finish_function(f);
        let m = mb.build().unwrap();
        assert_eq!(run_native(&m, &[], ExecLimits::default()).result.unwrap(), 30);
    }

    #[test]
    fn nested_loops_compose() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let acc = f.const_(bb, 0);
        let outer = begin_for_n(&mut f, bb, 4);
        let inner = begin_for_n(&mut f, outer.body, 5);
        let next = f.bini(inner.body, BinOp::Add, acc, 1);
        f.mov_to(inner.body, acc, next);
        end_for(&mut f, &inner, inner.body);
        end_for(&mut f, &outer, inner.exit);
        f.ret(outer.exit, Some(acc));
        mb.finish_function(f);
        let m = mb.build().unwrap();
        assert_eq!(run_native(&m, &[], ExecLimits::default()).result.unwrap(), 20);
    }

    #[test]
    fn input_bounded_loop() {
        let mut mb = ModuleBuilder::new("t");
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let len = f.input_len(bb);
        let acc = f.const_(bb, 0);
        let lp = begin_for(&mut f, bb, 0, len);
        let b = f.input_byte(lp.body, lp.i);
        let next = f.bin(lp.body, BinOp::Add, acc, b);
        f.mov_to(lp.body, acc, next);
        end_for(&mut f, &lp, lp.body);
        f.ret(lp.exit, Some(acc));
        mb.finish_function(f);
        let m = mb.build().unwrap();
        assert_eq!(run_native(&m, &[5, 6, 7], ExecLimits::default()).result.unwrap(), 18);
    }

    #[test]
    fn class_family_creates_distinct_classes() {
        let mut mb = ModuleBuilder::new("t");
        let ids = class_family(&mut mb, &["alpha", "beta", "gamma"], default_fields);
        assert_eq!(ids.len(), 3);
        let names: Vec<&str> = ids.iter().map(|&i| mb.registry().get(i).name()).collect();
        assert_eq!(names, vec!["alpha", "beta", "gamma"]);
        // Structural variety.
        let sizes: std::collections::HashSet<u32> =
            ids.iter().map(|&i| mb.registry().get(i).size()).collect();
        assert!(sizes.len() >= 2);
    }
}
