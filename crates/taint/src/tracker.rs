//! The taint tracker: a [`Tracer`] that mirrors interpreter data flow.

use std::collections::{BTreeMap, HashMap};

use polar_classinfo::{ClassId, ClassRegistry};
use polar_ir::trace::{TraceEvent, Tracer};
use polar_ir::{Inst, Reg};
use polar_simheap::Addr;

use crate::labels::{Label, LabelTable};
use crate::report::TaintClassReport;
use crate::shadow::ShadowMemory;

/// Taint-tracking configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintConfig {
    /// Input bytes are labelled in chunks of this many bytes (1 = DFSan's
    /// full byte granularity; larger chunks bound label growth on big
    /// inputs).
    pub chunk_size: usize,
    /// Track life-cycle taint: allocations/frees under input-dependent
    /// control flow (a conservative over-approximation of the paper's
    /// "allocation/deallocation affected by input").
    pub track_lifecycle: bool,
}

impl Default for TaintConfig {
    fn default() -> Self {
        TaintConfig { chunk_size: 8, track_lifecycle: true }
    }
}

#[derive(Debug, Clone, Copy)]
struct ObjectExtent {
    class: ClassId,
    size: u32,
    live: bool,
}

/// Mirrors the interpreter's data flow: per-frame register labels, a
/// byte-granular heap shadow, object extents, and sticky per-frame control
/// taint. Consumed with [`TaintTracker::into_report`].
#[derive(Debug)]
pub struct TaintTracker<'r> {
    registry: &'r ClassRegistry,
    config: TaintConfig,
    table: LabelTable,
    shadow: ShadowMemory,
    frames: Vec<Vec<Label>>,
    control: Vec<bool>,
    objects: BTreeMap<u64, ObjectExtent>,
    input_chunk_labels: HashMap<u64, Label>,
    input_len_label: Option<Label>,
    report: TaintClassReport,
}

impl<'r> TaintTracker<'r> {
    /// Create a tracker resolving classes through `registry`.
    pub fn new(registry: &'r ClassRegistry, config: TaintConfig) -> Self {
        TaintTracker {
            registry,
            config,
            table: LabelTable::new(),
            shadow: ShadowMemory::new(),
            frames: vec![Vec::new()],
            control: vec![false],
            objects: BTreeMap::new(),
            input_chunk_labels: HashMap::new(),
            input_len_label: None,
            report: TaintClassReport::new(),
        }
    }

    /// Finish tracking and return the TaintClass report.
    pub fn into_report(self) -> TaintClassReport {
        self.report
    }

    /// The label table (for inspection in tests/tools).
    pub fn label_table(&self) -> &LabelTable {
        &self.table
    }

    /// Label of a register in the current frame.
    pub fn reg_label(&self, reg: Reg) -> Label {
        self.frames
            .last()
            .and_then(|f| f.get(usize::from(reg.0)))
            .copied()
            .unwrap_or(Label::CLEAN)
    }

    fn set_reg(&mut self, reg: Reg, label: Label) {
        let frame = self.frames.last_mut().expect("at least one frame");
        let idx = usize::from(reg.0);
        if frame.len() <= idx {
            frame.resize(idx + 1, Label::CLEAN);
        }
        frame[idx] = label;
    }

    fn get_reg(&self, reg: Reg) -> Label {
        self.reg_label(reg)
    }

    fn control_tainted(&self) -> bool {
        *self.control.last().unwrap_or(&false)
    }

    fn input_chunk_label(&mut self, byte_index: u64) -> Label {
        let chunk = byte_index / self.config.chunk_size as u64;
        if let Some(&l) = self.input_chunk_labels.get(&chunk) {
            return l;
        }
        let lo = chunk * self.config.chunk_size as u64;
        let hi = lo + self.config.chunk_size as u64;
        let l = self.table.create_base(format!("input[{lo}..{hi})"));
        self.input_chunk_labels.insert(chunk, l);
        l
    }

    fn object_containing(&self, addr: Addr) -> Option<(u64, ObjectExtent)> {
        let (&base, &ext) = self.objects.range(..=addr.0).next_back()?;
        if ext.live && addr.0 < base + u64::from(ext.size) {
            Some((base, ext))
        } else {
            None
        }
    }

    /// Attribute a tainted write at `addr` to `(class, field)` via the
    /// natural layout (TaintClass executes the *uninstrumented* program,
    /// so objects are laid out naturally).
    fn attribute_store(&mut self, addr: Addr, len: usize) {
        let Some((base, ext)) = self.object_containing(addr) else { return };
        let Some(info) = self.registry.get_checked(ext.class) else { return };
        let off_lo = (addr.0 - base) as u32;
        let off_hi = off_lo + len as u32;
        for (i, field) in info.fields().iter().enumerate() {
            let f_lo = info.natural().offset(i);
            let f_hi = f_lo + field.kind().size();
            if off_lo < f_hi && f_lo < off_hi {
                self.report.record_content(ext.class, i as u16);
            }
        }
    }

    /// After a bulk copy into `dst`, scan the destination object's fields
    /// for tainted shadow bytes.
    fn attribute_copy(&mut self, dst: Addr, len: usize) {
        let Some((base, ext)) = self.object_containing(dst) else { return };
        let Some(info) = self.registry.get_checked(ext.class) else { return };
        let copy_end = dst.0 + len as u64;
        for (i, field) in info.fields().iter().enumerate() {
            let f_lo = base + u64::from(info.natural().offset(i));
            let f_len = field.kind().size() as usize;
            if f_lo >= dst.0.saturating_sub(f_len as u64)
                && f_lo < copy_end
                && self.shadow.any_tainted(Addr(f_lo), f_len)
            {
                self.report.record_content(ext.class, i as u16);
            }
        }
    }
}

impl Tracer for TaintTracker<'_> {
    fn on_event(&mut self, event: &TraceEvent<'_>) {
        match event {
            TraceEvent::Scalar { inst } => match inst {
                Inst::Const { dst, .. } => self.set_reg(*dst, Label::CLEAN),
                Inst::Mov { dst, src } => {
                    let l = self.get_reg(*src);
                    self.set_reg(*dst, l);
                }
                Inst::Bin { dst, a, b, .. } | Inst::Cmp { dst, a, b, .. } => {
                    let la = self.get_reg(*a);
                    let lb = self.get_reg(*b);
                    let l = self.table.union(la, lb);
                    self.set_reg(*dst, l);
                }
                _ => {}
            },
            TraceEvent::Load { dst, addr, width } => {
                let l = self.shadow.union_range(*addr, usize::from(*width), &mut self.table);
                self.set_reg(*dst, l);
            }
            TraceEvent::Store { src, addr, width } => {
                let l = self.get_reg(*src);
                self.shadow.set_range(*addr, usize::from(*width), l);
                if l.is_tainted() {
                    self.attribute_store(*addr, usize::from(*width));
                }
            }
            TraceEvent::Memcpy { dst, src, len } => {
                self.shadow.copy_range(*dst, *src, *len as usize);
                if self.shadow.any_tainted(*dst, *len as usize) {
                    self.attribute_copy(*dst, *len as usize);
                }
            }
            TraceEvent::InputLen { dst } => {
                let l = match self.input_len_label {
                    Some(l) => l,
                    None => {
                        let l = self.table.create_base("input_len");
                        self.input_len_label = Some(l);
                        l
                    }
                };
                self.set_reg(*dst, l);
            }
            TraceEvent::InputByte { dst, index } => {
                let l = self.input_chunk_label(*index);
                self.set_reg(*dst, l);
            }
            TraceEvent::InputRead { buf, off, copied } => {
                for i in 0..*copied {
                    let l = self.input_chunk_label(off + i);
                    self.shadow.set_range(buf.offset(i), 1, l);
                }
                if *copied > 0 {
                    self.attribute_copy(*buf, *copied as usize);
                }
            }
            TraceEvent::ObjAlloc { dst, base, class, size } => {
                self.set_reg(*dst, Label::CLEAN);
                self.objects
                    .insert(base.0, ObjectExtent { class: *class, size: *size, live: true });
                // Fresh allocations start with a clean shadow (the slot
                // may hold stale labels from a previous occupant).
                self.shadow.set_range(*base, *size as usize, Label::CLEAN);
                if self.config.track_lifecycle && self.control_tainted() {
                    self.report.record_lifecycle(*class);
                }
            }
            TraceEvent::ObjFree { base } => {
                if let Some(ext) = self.objects.get_mut(&base.0) {
                    ext.live = false;
                    let class = ext.class;
                    if self.config.track_lifecycle && self.control_tainted() {
                        self.report.record_lifecycle(class);
                    }
                }
            }
            TraceEvent::FieldAddr { dst, obj, .. } => {
                // A derived pointer inherits the base pointer's taint.
                let l = self.get_reg(*obj);
                self.set_reg(*dst, l);
            }
            TraceEvent::ObjCopy { dst, src, class } => {
                let size = self
                    .registry
                    .get_checked(*class)
                    .map(|i| i.size() as usize)
                    .unwrap_or(0);
                self.shadow.copy_range(*dst, *src, size);
                if self.shadow.any_tainted(*dst, size) {
                    self.attribute_copy(*dst, size);
                }
            }
            TraceEvent::BufAlloc { dst, base, size } => {
                self.set_reg(*dst, Label::CLEAN);
                self.shadow.set_range(*base, *size as usize, Label::CLEAN);
            }
            TraceEvent::BufFree { .. } => {}
            TraceEvent::CallEnter { args, callee_regs, .. } => {
                let labels: Vec<Label> = args.iter().map(|&r| self.get_reg(r)).collect();
                let mut frame = vec![Label::CLEAN; usize::from(*callee_regs)];
                for (i, l) in labels.into_iter().enumerate() {
                    if i < frame.len() {
                        frame[i] = l;
                    }
                }
                let inherited = self.control_tainted();
                self.frames.push(frame);
                self.control.push(inherited);
            }
            TraceEvent::CallExit { ret_src, ret_dst } => {
                let ret_label = ret_src.map(|r| self.get_reg(r)).unwrap_or(Label::CLEAN);
                if self.frames.len() > 1 {
                    self.frames.pop();
                    self.control.pop();
                }
                if let Some(dst) = ret_dst {
                    self.set_reg(*dst, ret_label);
                }
            }
            TraceEvent::Branch { cond, .. } => {
                if self.get_reg(*cond).is_tainted() {
                    if let Some(flag) = self.control.last_mut() {
                        *flag = true;
                    }
                }
            }
            TraceEvent::Edge { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_classinfo::{ClassDecl, FieldKind};
    use polar_ir::builder::ModuleBuilder;
    use polar_ir::interp::{run, ExecLimits};
    use polar_ir::{BinOp, CmpOp};
    use polar_runtime::{ObjectRuntime, RandomizeMode, RuntimeConfig};

    fn run_tracked(
        build: impl FnOnce(&mut ModuleBuilder) -> Vec<ClassId>,
        input: &[u8],
    ) -> (TaintClassReport, Vec<ClassId>) {
        let mut mb = ModuleBuilder::new("t");
        let classes = build(&mut mb);
        let module = mb.build().unwrap();
        let mut rt = ObjectRuntime::new(RandomizeMode::Native, RuntimeConfig::default());
        let mut tracker = TaintTracker::new(&module.registry, TaintConfig::default());
        let report = run(&module, &mut rt, input, ExecLimits::default(), &mut tracker);
        assert!(report.result.is_ok(), "{:?}", report.result);
        (tracker.into_report(), classes)
    }

    #[test]
    fn direct_store_of_input_byte_taints_field() {
        let (report, classes) = run_tracked(
            |mb| {
                let c = mb
                    .add_class(
                        ClassDecl::builder("Hdr")
                            .field("magic", FieldKind::I32)
                            .field("len", FieldKind::I32)
                            .build(),
                    )
                    .unwrap();
                let mut f = mb.function("main", 0);
                let bb = f.entry_block();
                let obj = f.alloc_obj(bb, c);
                let i = f.const_(bb, 3);
                let v = f.input_byte(bb, i);
                let fld = f.gep(bb, obj, c, 1);
                f.store(bb, fld, v, 4);
                f.ret(bb, None);
                mb.finish_function(f);
                vec![c]
            },
            &[1, 2, 3, 4],
        );
        let t = report.class_taint(classes[0]).unwrap();
        assert!(t.content_fields.contains(&1));
        assert!(!t.content_fields.contains(&0));
    }

    #[test]
    fn arithmetic_propagates_taint() {
        let (report, classes) = run_tracked(
            |mb| {
                let c = mb
                    .add_class(ClassDecl::builder("C").field("x", FieldKind::I64).build())
                    .unwrap();
                let mut f = mb.function("main", 0);
                let bb = f.entry_block();
                let obj = f.alloc_obj(bb, c);
                let i = f.const_(bb, 0);
                let v = f.input_byte(bb, i);
                let scaled = f.bini(bb, BinOp::Mul, v, 100);
                let fld = f.gep(bb, obj, c, 0);
                f.store(bb, fld, scaled, 8);
                f.ret(bb, None);
                mb.finish_function(f);
                vec![c]
            },
            &[7],
        );
        assert!(report.class_taint(classes[0]).is_some());
    }

    #[test]
    fn constants_are_clean() {
        let (report, classes) = run_tracked(
            |mb| {
                let c = mb
                    .add_class(ClassDecl::builder("C").field("x", FieldKind::I64).build())
                    .unwrap();
                let mut f = mb.function("main", 0);
                let bb = f.entry_block();
                let obj = f.alloc_obj(bb, c);
                let v = f.const_(bb, 42);
                let fld = f.gep(bb, obj, c, 0);
                f.store(bb, fld, v, 8);
                f.ret(bb, None);
                mb.finish_function(f);
                vec![c]
            },
            &[7],
        );
        assert_eq!(report.tainted_class_count(), 0);
        assert!(report.class_taint(classes[0]).is_none());
    }

    #[test]
    fn taint_flows_through_memory_and_memcpy() {
        let (report, classes) = run_tracked(
            |mb| {
                let c = mb
                    .add_class(ClassDecl::builder("C").field("data", FieldKind::I64).build())
                    .unwrap();
                let mut f = mb.function("main", 0);
                let bb = f.entry_block();
                // input -> buffer -> second buffer -> load -> object field
                let buf = f.alloc_buf_bytes(bb, 32);
                let off = f.const_(bb, 0);
                let len = f.const_(bb, 8);
                f.input_read(bb, buf, off, len);
                let buf2 = f.alloc_buf_bytes(bb, 32);
                f.memcpy(bb, buf2, buf, len);
                let v = f.load(bb, buf2, 8);
                let obj = f.alloc_obj(bb, c);
                let fld = f.gep(bb, obj, c, 0);
                f.store(bb, fld, v, 8);
                f.ret(bb, None);
                mb.finish_function(f);
                vec![c]
            },
            b"ABCDEFGH",
        );
        assert!(report.class_taint(classes[0]).is_some());
    }

    #[test]
    fn input_read_directly_into_object_taints_fields() {
        let (report, classes) = run_tracked(
            |mb| {
                let c = mb
                    .add_class(
                        ClassDecl::builder("Raw")
                            .field("a", FieldKind::I32)
                            .field("b", FieldKind::I32)
                            .build(),
                    )
                    .unwrap();
                let mut f = mb.function("main", 0);
                let bb = f.entry_block();
                let obj = f.alloc_obj(bb, c);
                let off = f.const_(bb, 0);
                let len = f.const_(bb, 8);
                f.input_read(bb, obj, off, len);
                f.ret(bb, None);
                mb.finish_function(f);
                vec![c]
            },
            &[1, 2, 3, 4, 5, 6, 7, 8],
        );
        let t = report.class_taint(classes[0]).unwrap();
        assert!(t.content_fields.contains(&0));
        assert!(t.content_fields.contains(&1));
    }

    #[test]
    fn taint_crosses_calls_and_returns() {
        let (report, classes) = run_tracked(
            |mb| {
                let c = mb
                    .add_class(ClassDecl::builder("C").field("x", FieldKind::I64).build())
                    .unwrap();
                let double = {
                    let mut f = mb.function("double", 1);
                    let bb = f.entry_block();
                    let d = f.bini(bb, BinOp::Add, f.param(0), 0);
                    let d2 = f.bin(bb, BinOp::Add, d, f.param(0));
                    f.ret(bb, Some(d2));
                    let id = f.id();
                    mb.finish_function(f);
                    id
                };
                let mut f = mb.function("main", 0);
                let bb = f.entry_block();
                let i = f.const_(bb, 0);
                let v = f.input_byte(bb, i);
                let r = f.call(bb, double, &[v]);
                let obj = f.alloc_obj(bb, c);
                let fld = f.gep(bb, obj, c, 0);
                f.store(bb, fld, r, 8);
                f.ret(bb, None);
                mb.finish_function(f);
                vec![c]
            },
            &[5],
        );
        assert!(report.class_taint(classes[0]).is_some());
    }

    #[test]
    fn lifecycle_taint_via_tainted_branch() {
        let (report, classes) = run_tracked(
            |mb| {
                let c = mb
                    .add_class(ClassDecl::builder("Session").field("id", FieldKind::I64).build())
                    .unwrap();
                let mut f = mb.function("main", 0);
                let bb = f.entry_block();
                let alloc_bb = f.block();
                let done = f.block();
                let i = f.const_(bb, 0);
                let v = f.input_byte(bb, i);
                let cond = f.cmpi(bb, CmpOp::Gt, v, 10);
                f.br(bb, cond, alloc_bb, done);
                let obj = f.alloc_obj(alloc_bb, c);
                let k = f.const_(alloc_bb, 1);
                let fld = f.gep(alloc_bb, obj, c, 0);
                f.store(alloc_bb, fld, k, 8);
                f.jmp(alloc_bb, done);
                f.ret(done, None);
                mb.finish_function(f);
                vec![c]
            },
            &[200],
        );
        let t = report.class_taint(classes[0]).unwrap();
        assert!(t.lifecycle, "allocation under tainted branch must be life-cycle tainted");
        // Content is NOT tainted (a constant was stored).
        assert!(t.content_fields.is_empty());
    }

    #[test]
    fn recycled_slot_does_not_leak_stale_taint() {
        let (report, classes) = run_tracked(
            |mb| {
                let tainted = mb
                    .add_class(ClassDecl::builder("T1").field("x", FieldKind::I64).build())
                    .unwrap();
                let clean = mb
                    .add_class(ClassDecl::builder("T2").field("y", FieldKind::I64).build())
                    .unwrap();
                let mut f = mb.function("main", 0);
                let bb = f.entry_block();
                let o1 = f.alloc_obj(bb, tainted);
                let i = f.const_(bb, 0);
                let v = f.input_byte(bb, i);
                let fld = f.gep(bb, o1, tainted, 0);
                f.store(bb, fld, v, 8);
                f.free_obj(bb, o1);
                // Reuses the same slot; its shadow must be cleaned.
                let o2 = f.alloc_obj(bb, clean);
                let k = f.const_(bb, 7);
                let fld2 = f.gep(bb, o2, clean, 0);
                f.store(bb, fld2, k, 8);
                f.ret(bb, None);
                mb.finish_function(f);
                vec![tainted, clean]
            },
            &[9],
        );
        assert!(report.class_taint(classes[0]).is_some());
        assert!(report.class_taint(classes[1]).is_none(), "stale shadow leaked");
    }

    #[test]
    fn object_copies_propagate_taint_to_the_duplicate() {
        let (report, classes) = run_tracked(
            |mb| {
                let c = mb
                    .add_class(
                        ClassDecl::builder("Blob")
                            .field("hdr", FieldKind::I32)
                            .field("len", FieldKind::I32)
                            .build(),
                    )
                    .unwrap();
                let sink = mb
                    .add_class(ClassDecl::builder("Sink").field("x", FieldKind::I32).build())
                    .unwrap();
                let mut f = mb.function("main", 0);
                let bb = f.entry_block();
                let src = f.alloc_obj(bb, c);
                let i = f.const_(bb, 0);
                let v = f.input_byte(bb, i);
                let fld = f.gep(bb, src, c, 1);
                f.store(bb, fld, v, 4);
                // Duplicate the object, then read the copy's field into a
                // third class.
                let dup = f.alloc_obj(bb, c);
                f.copy_obj(bb, dup, src, c);
                let dfld = f.gep(bb, dup, c, 1);
                let out = f.load(bb, dfld, 4);
                let s = f.alloc_obj(bb, sink);
                let sfld = f.gep(bb, s, sink, 0);
                f.store(bb, sfld, out, 4);
                f.ret(bb, None);
                mb.finish_function(f);
                vec![c, sink]
            },
            &[0x7F],
        );
        // Both the duplicate's class and the downstream sink are tainted.
        assert!(report.class_taint(classes[0]).is_some());
        assert!(report.class_taint(classes[1]).is_some());
    }

    #[test]
    fn input_length_is_a_taint_source() {
        let (report, classes) = run_tracked(
            |mb| {
                let c = mb
                    .add_class(ClassDecl::builder("Hdr").field("n", FieldKind::I64).build())
                    .unwrap();
                let mut f = mb.function("main", 0);
                let bb = f.entry_block();
                let len = f.input_len(bb);
                let o = f.alloc_obj(bb, c);
                let fld = f.gep(bb, o, c, 0);
                f.store(bb, fld, len, 8);
                f.ret(bb, None);
                mb.finish_function(f);
                vec![c]
            },
            &[1, 2, 3],
        );
        assert!(report.class_taint(classes[0]).is_some(),
            "the input length itself is attacker-controlled");
    }

    #[test]
    fn pointer_taint_flows_through_gep() {
        // A pointer loaded from tainted memory taints derived accesses'
        // address register (not the pointee content).
        let (report, classes) = run_tracked(
            |mb| {
                let c = mb
                    .add_class(ClassDecl::builder("Node").field("next", FieldKind::Ptr).build())
                    .unwrap();
                let mut f = mb.function("main", 0);
                let bb = f.entry_block();
                let obj = f.alloc_obj(bb, c);
                let i = f.const_(bb, 0);
                let v = f.input_byte(bb, i);
                let fld = f.gep(bb, obj, c, 0);
                f.store(bb, fld, v, 8);
                f.ret(bb, None);
                mb.finish_function(f);
                vec![c]
            },
            &[1],
        );
        let t = report.class_taint(classes[0]).unwrap();
        assert!(t.content_fields.contains(&0));
    }
}
