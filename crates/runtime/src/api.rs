//! [`PolarRuntime`]: the single-context runtime surface.
//!
//! The IR interpreter and the adaptive-attack harness drive "a program"
//! against "a runtime" without caring whether that runtime is the plain
//! [`ObjectRuntime`] or a [`ShardHandle`](crate::ShardHandle) — one thread's door into a
//! [`ShardedRuntime`](crate::ShardedRuntime). This trait is that seam:
//! every instrumented entry point (`olr_*`), the raw heap primitives an
//! *uninstrumented* program would use, and the statistics snapshot the
//! evaluation reads.
//!
//! The trait is `&mut self`: a single execution context is one logical
//! thread, and the exclusive receiver keeps the implementations
//! interchangeable without `Sync` bounds leaking into executors. The
//! sharded implementation lives next to the handle, whose
//! address-keyed operations route to whichever shard owns the address.

use std::sync::Arc;

use polar_classinfo::{ClassHash, ClassInfo};
use polar_layout::LayoutPlan;
use polar_simheap::{Addr, HeapError};

use crate::error::{RuntimeError, TrapReport};
use crate::runtime::{ObjectRuntime, RuntimeConfig, SiteCache};
use crate::stats::RuntimeStats;

/// One logical thread's view of a POLaR runtime: instrumented object
/// operations, raw heap primitives, and counters. See the module docs
/// for the design notes.
pub trait PolarRuntime {
    /// The runtime's configuration.
    fn config(&self) -> &RuntimeConfig;

    /// Statistics snapshot (folded across shards where applicable).
    fn stats(&self) -> RuntimeStats;

    /// Compile-time plan for `info` under this runtime's mode (the
    /// layout an *uninstrumented* access site believes in).
    fn compile_time_plan(&mut self, info: &Arc<ClassInfo>) -> Arc<LayoutPlan>;

    /// Instrumented allocation.
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::olr_malloc`].
    fn olr_malloc(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError>;

    /// Instrumented free.
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::olr_free`].
    fn olr_free(&mut self, base: Addr) -> Result<(), RuntimeError>;

    /// Instrumented member access through a call-site inline cache.
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::olr_getptr_ic`].
    fn olr_getptr_ic(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        ic: &mut SiteCache,
    ) -> Result<Addr, RuntimeError>;

    /// Instrumented object copy.
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::olr_memcpy`].
    fn olr_memcpy(
        &mut self,
        dst: Addr,
        src: Addr,
        site_class: &Arc<ClassInfo>,
    ) -> Result<(), RuntimeError>;

    /// Checked field read (resolve + load).
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::read_field`].
    fn read_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
    ) -> Result<u64, RuntimeError>;

    /// Checked field write (resolve + store).
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::write_field`].
    fn write_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        value: u64,
    ) -> Result<(), RuntimeError>;

    /// Sweep the object's booby traps.
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::check_traps`].
    fn check_traps(&mut self, base: Addr) -> Result<Vec<TrapReport>, RuntimeError>;

    /// In-heap size of the tracked object at `base` (its plan's size,
    /// dummies included), or `None` when untracked.
    fn plan_size(&self, base: Addr) -> Option<u32>;

    /// Raw (untracked, unrandomized) allocation.
    ///
    /// # Errors
    ///
    /// Propagates heap errors.
    fn heap_malloc(&mut self, size: usize) -> Result<Addr, HeapError>;

    /// Raw free.
    ///
    /// # Errors
    ///
    /// Propagates heap errors.
    fn heap_free(&mut self, addr: Addr) -> Result<(), HeapError>;

    /// Arena-bounded raw integer read — ignores block boundaries, like a
    /// real out-of-bounds load.
    ///
    /// # Errors
    ///
    /// Faults outside the arena.
    fn heap_read_uint(&self, addr: Addr, width: usize) -> Result<u64, HeapError>;

    /// A raw *probe* read: [`PolarRuntime::heap_read_uint`] plus
    /// booby-trap screening. A probe overlapping a live object's
    /// canary-carrying dummy — stored or stateless-derived — raises
    /// [`RuntimeError::TrapTriggered`] when the runtime's
    /// `detect_probe_traps` is on, modeling trap slots that fault on
    /// access instead of leaking bytes.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::TrapTriggered`] on trap overlap; arena faults as
    /// [`RuntimeError::Heap`].
    fn probe_read_uint(&mut self, addr: Addr, width: usize) -> Result<u64, RuntimeError>;

    /// Arena-bounded raw integer write.
    ///
    /// # Errors
    ///
    /// Faults outside the arena.
    fn heap_write_uint(&mut self, addr: Addr, value: u64, width: usize)
        -> Result<(), HeapError>;

    /// Arena-bounded raw byte write.
    ///
    /// # Errors
    ///
    /// Faults outside the arena.
    fn heap_write(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), HeapError>;

    /// Raw `memmove`.
    ///
    /// # Errors
    ///
    /// Faults outside the arena on either endpoint.
    fn heap_memmove(&mut self, dst: Addr, src: Addr, len: usize) -> Result<(), HeapError>;

    /// Strict block-boundary check (the redzone-mode guard).
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfBlock`] when the access crosses its block.
    fn heap_check_in_block(&self, addr: Addr, len: usize) -> Result<(), HeapError>;
}

impl PolarRuntime for ObjectRuntime {
    fn config(&self) -> &RuntimeConfig {
        ObjectRuntime::config(self)
    }

    fn stats(&self) -> RuntimeStats {
        ObjectRuntime::stats(self)
    }

    fn compile_time_plan(&mut self, info: &Arc<ClassInfo>) -> Arc<LayoutPlan> {
        ObjectRuntime::compile_time_plan(self, info)
    }

    fn olr_malloc(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError> {
        ObjectRuntime::olr_malloc(self, info)
    }

    fn olr_free(&mut self, base: Addr) -> Result<(), RuntimeError> {
        ObjectRuntime::olr_free(self, base)
    }

    fn olr_getptr_ic(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        ic: &mut SiteCache,
    ) -> Result<Addr, RuntimeError> {
        ObjectRuntime::olr_getptr_ic(self, base, expected, field, ic)
    }

    fn olr_memcpy(
        &mut self,
        dst: Addr,
        src: Addr,
        site_class: &Arc<ClassInfo>,
    ) -> Result<(), RuntimeError> {
        ObjectRuntime::olr_memcpy(self, dst, src, site_class)
    }

    fn read_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
    ) -> Result<u64, RuntimeError> {
        ObjectRuntime::read_field(self, base, expected, field)
    }

    fn write_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        value: u64,
    ) -> Result<(), RuntimeError> {
        ObjectRuntime::write_field(self, base, expected, field, value)
    }

    fn check_traps(&mut self, base: Addr) -> Result<Vec<TrapReport>, RuntimeError> {
        ObjectRuntime::check_traps(self, base)
    }

    fn plan_size(&self, base: Addr) -> Option<u32> {
        self.object_meta(base).map(|meta| meta.plan.size())
    }

    fn heap_malloc(&mut self, size: usize) -> Result<Addr, HeapError> {
        self.heap_mut().malloc(size)
    }

    fn heap_free(&mut self, addr: Addr) -> Result<(), HeapError> {
        self.heap_mut().free(addr)
    }

    fn heap_read_uint(&self, addr: Addr, width: usize) -> Result<u64, HeapError> {
        self.heap().read_uint(addr, width)
    }

    fn probe_read_uint(&mut self, addr: Addr, width: usize) -> Result<u64, RuntimeError> {
        ObjectRuntime::probe_read_uint(self, addr, width)
    }

    fn heap_write_uint(
        &mut self,
        addr: Addr,
        value: u64,
        width: usize,
    ) -> Result<(), HeapError> {
        self.heap_mut().write_uint(addr, value, width)
    }

    fn heap_write(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), HeapError> {
        self.heap_mut().write(addr, bytes)
    }

    fn heap_memmove(&mut self, dst: Addr, src: Addr, len: usize) -> Result<(), HeapError> {
        self.heap_mut().memmove(dst, src, len)
    }

    fn heap_check_in_block(&self, addr: Addr, len: usize) -> Result<(), HeapError> {
        self.heap().check_in_block(addr, len)
    }
}

impl<P: PolarRuntime + ?Sized> PolarRuntime for Box<P> {
    fn config(&self) -> &RuntimeConfig {
        (**self).config()
    }

    fn stats(&self) -> RuntimeStats {
        (**self).stats()
    }

    fn compile_time_plan(&mut self, info: &Arc<ClassInfo>) -> Arc<LayoutPlan> {
        (**self).compile_time_plan(info)
    }

    fn olr_malloc(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError> {
        (**self).olr_malloc(info)
    }

    fn olr_free(&mut self, base: Addr) -> Result<(), RuntimeError> {
        (**self).olr_free(base)
    }

    fn olr_getptr_ic(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        ic: &mut SiteCache,
    ) -> Result<Addr, RuntimeError> {
        (**self).olr_getptr_ic(base, expected, field, ic)
    }

    fn olr_memcpy(
        &mut self,
        dst: Addr,
        src: Addr,
        site_class: &Arc<ClassInfo>,
    ) -> Result<(), RuntimeError> {
        (**self).olr_memcpy(dst, src, site_class)
    }

    fn read_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
    ) -> Result<u64, RuntimeError> {
        (**self).read_field(base, expected, field)
    }

    fn write_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        value: u64,
    ) -> Result<(), RuntimeError> {
        (**self).write_field(base, expected, field, value)
    }

    fn check_traps(&mut self, base: Addr) -> Result<Vec<TrapReport>, RuntimeError> {
        (**self).check_traps(base)
    }

    fn plan_size(&self, base: Addr) -> Option<u32> {
        (**self).plan_size(base)
    }

    fn heap_malloc(&mut self, size: usize) -> Result<Addr, HeapError> {
        (**self).heap_malloc(size)
    }

    fn heap_free(&mut self, addr: Addr) -> Result<(), HeapError> {
        (**self).heap_free(addr)
    }

    fn heap_read_uint(&self, addr: Addr, width: usize) -> Result<u64, HeapError> {
        (**self).heap_read_uint(addr, width)
    }

    fn probe_read_uint(&mut self, addr: Addr, width: usize) -> Result<u64, RuntimeError> {
        (**self).probe_read_uint(addr, width)
    }

    fn heap_write_uint(
        &mut self,
        addr: Addr,
        value: u64,
        width: usize,
    ) -> Result<(), HeapError> {
        (**self).heap_write_uint(addr, value, width)
    }

    fn heap_write(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), HeapError> {
        (**self).heap_write(addr, bytes)
    }

    fn heap_memmove(&mut self, dst: Addr, src: Addr, len: usize) -> Result<(), HeapError> {
        (**self).heap_memmove(dst, src, len)
    }

    fn heap_check_in_block(&self, addr: Addr, len: usize) -> Result<(), HeapError> {
        (**self).heap_check_in_block(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RandomizeMode;
    use crate::sharded::ShardedRuntime;
    use polar_classinfo::{ClassDecl, FieldKind};

    fn class(name: &str) -> Arc<ClassInfo> {
        Arc::new(ClassInfo::from_decl(
            ClassDecl::builder(name)
                .field("vtable", FieldKind::VtablePtr)
                .field("age", FieldKind::I32)
                .field("height", FieldKind::I32)
                .build(),
        ))
    }

    /// The error variant's name, so implementations can be compared on
    /// classification without comparing addresses.
    fn variant<T>(result: Result<T, RuntimeError>) -> &'static str {
        match result {
            Ok(_) => "Ok",
            Err(RuntimeError::UseAfterFree { .. }) => "UseAfterFree",
            Err(RuntimeError::ClassMismatch { .. }) => "ClassMismatch",
            Err(RuntimeError::UnknownObject(_)) => "UnknownObject",
            Err(RuntimeError::FieldOutOfBounds { .. }) => "FieldOutOfBounds",
            Err(RuntimeError::TrapTriggered(_)) => "TrapTriggered",
            Err(RuntimeError::DoubleFree(_)) => "DoubleFree",
            Err(RuntimeError::Heap(_)) => "Heap",
            Err(RuntimeError::ShardPoisoned { .. }) => "ShardPoisoned",
        }
    }

    /// The same single-context program, run against an implementation
    /// through the trait: results and error classifications must agree
    /// operation for operation.
    fn drive<R: PolarRuntime + ?Sized>(rt: &mut R) -> (u64, bool, [&'static str; 5]) {
        let info = class("People");
        let other = class("Robot");
        // Every object is allocated up front, so no allocation (and, on a
        // handle, no magazine refill) can recycle a freed block between
        // the checks below.
        let obj = rt.olr_malloc(&info).unwrap();
        let freed = rt.olr_malloc(&info).unwrap();
        let twice = rt.olr_malloc(&info).unwrap();
        let buf = rt.heap_malloc(64).unwrap();
        rt.write_field(obj, info.hash(), 1, 30).unwrap();
        let read_back = rt.read_field(obj, info.hash(), 1).unwrap();
        rt.heap_write_uint(buf, 0xFEED, 8).unwrap();
        let raw = rt.heap_read_uint(buf, 8).unwrap();
        let sized = rt.plan_size(obj).is_some();
        rt.olr_free(freed).unwrap();
        rt.olr_free(twice).unwrap();
        let errors = [
            variant(rt.read_field(freed, info.hash(), 1)),
            variant(rt.olr_free(twice)),
            variant(rt.read_field(obj, other.hash(), 1)),
            variant(rt.read_field(obj, info.hash(), 99)),
            variant(rt.read_field(buf, info.hash(), 1)),
        ];
        rt.heap_free(buf).unwrap();
        rt.olr_free(obj).unwrap();
        (read_back ^ raw, sized, errors)
    }

    #[test]
    fn every_implementation_satisfies_the_contract() {
        let expected = (
            0xFEED ^ 30,
            true,
            ["UseAfterFree", "DoubleFree", "ClassMismatch", "FieldOutOfBounds", "UnknownObject"],
        );
        let mut single =
            ObjectRuntime::new(RandomizeMode::per_allocation(), RuntimeConfig::default());
        assert_eq!(drive(&mut single), expected, "ObjectRuntime");
        let mut config = RuntimeConfig::default();
        config.heap.capacity = 64 << 20;
        let sharded = ShardedRuntime::new(RandomizeMode::per_allocation(), config, 4);
        assert_eq!(drive(&mut sharded.handle(0)), expected, "ShardHandle");
        // And through a boxed trait object over a handle, as the attack
        // search uses it.
        let mut boxed: Box<dyn PolarRuntime + '_> = Box::new(sharded.handle(1));
        assert_eq!(drive(&mut boxed), expected, "Box<dyn PolarRuntime>");
    }
}
