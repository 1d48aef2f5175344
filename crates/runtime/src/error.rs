//! Runtime errors and detection reports.

use std::fmt;

use polar_classinfo::ClassHash;
use polar_simheap::{Addr, HeapError};

/// A booby-trap canary found corrupted during a trap sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrapReport {
    /// Base address of the object whose trap fired.
    pub base: Addr,
    /// Offset of the corrupted dummy within the object.
    pub offset: u32,
    /// The canary value that should have been present.
    pub expected: u64,
    /// The value actually found.
    pub found: u64,
}

impl fmt::Display for TrapReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "booby trap at {}+{}: expected {:#x}, found {:#x}",
            self.base, self.offset, self.expected, self.found
        )
    }
}

/// Errors and detections raised by the POLaR runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Member access through a pointer to a freed object — the
    /// use-after-free detection of Section IV-A3.
    UseAfterFree {
        /// The dangling base address.
        addr: Addr,
    },
    /// The access site's expected class hash does not match the object's
    /// metadata — a type confusion caught red-handed.
    ClassMismatch {
        /// Accessed address.
        addr: Addr,
        /// Class hash the instrumented site expected.
        expected: ClassHash,
        /// Class hash recorded in the object's metadata.
        actual: ClassHash,
    },
    /// No metadata exists for the address (wild or forged pointer).
    UnknownObject(Addr),
    /// Field index out of range for the object's class.
    FieldOutOfBounds {
        /// The object's class.
        class: ClassHash,
        /// The offending field index.
        field: usize,
    },
    /// A booby-trap canary was found corrupted.
    TrapTriggered(TrapReport),
    /// The object was freed twice through the runtime.
    DoubleFree(Addr),
    /// An underlying simulated-heap failure.
    Heap(HeapError),
    /// The shard's mutex was poisoned by a panicking thread: the shard
    /// is degraded (its objects unreachable through its mutex) but the
    /// caller — and every other shard — keeps running.
    ShardPoisoned {
        /// Index of the degraded shard.
        shard: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UseAfterFree { addr } => {
                write!(f, "use-after-free access to {addr}")
            }
            RuntimeError::ClassMismatch { addr, expected, actual } => write!(
                f,
                "type confusion at {addr}: site expects class {expected}, object is {actual}"
            ),
            RuntimeError::UnknownObject(addr) => {
                write!(f, "no POLaR metadata for address {addr}")
            }
            RuntimeError::FieldOutOfBounds { class, field } => {
                write!(f, "field index {field} out of bounds for class {class}")
            }
            RuntimeError::TrapTriggered(report) => write!(f, "{report}"),
            RuntimeError::DoubleFree(addr) => write!(f, "double free of object {addr}"),
            RuntimeError::Heap(e) => write!(f, "heap error: {e}"),
            RuntimeError::ShardPoisoned { shard } => {
                write!(f, "shard {shard} poisoned by a panicking thread")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeapError> for RuntimeError {
    fn from(e: HeapError) -> Self {
        RuntimeError::Heap(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = RuntimeError::UseAfterFree { addr: Addr(0x40) };
        assert!(e.to_string().contains("use-after-free"));
        let e = RuntimeError::ClassMismatch {
            addr: Addr(0x40),
            expected: ClassHash(1),
            actual: ClassHash(2),
        };
        assert!(e.to_string().contains("type confusion"));
        let t = TrapReport { base: Addr(0x40), offset: 8, expected: 1, found: 2 };
        assert!(RuntimeError::TrapTriggered(t).to_string().contains("booby trap"));
    }

    #[test]
    fn heap_errors_convert() {
        let e: RuntimeError = HeapError::ZeroSize.into();
        assert!(matches!(e, RuntimeError::Heap(HeapError::ZeroSize)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
