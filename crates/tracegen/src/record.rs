//! Trace record type.

use serde::{Deserialize, Serialize};

/// The largest instruction gap a record may carry. The generator caps its
/// geometric gaps here; [`crate::trace::validate_path`] rejects a recorded
/// trace holding a larger one and [`crate::trace::RecordedThread`] refuses
/// one mid-replay, so no replayed record can ask the core model for an
/// unbounded fetch group.
pub const MAX_GAP: u32 = 10_000;

/// One data-memory access in a trace, preceded by `gap` non-memory
/// instructions.
///
/// The instruction stream is not materialised per-instruction: the timing
/// model charges `gap + 1` committed instructions per record (`gap`
/// non-memory ops plus the memory op itself) and synthesises instruction
/// fetches separately from the benchmark's code footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRecord {
    /// Non-memory instructions committed before this access.
    pub gap: u32,
    /// Byte address of the access.
    pub addr: u64,
    /// Is this a store?
    pub is_write: bool,
}

impl MemRecord {
    /// Instructions this record accounts for (gap + the memory op).
    #[inline]
    pub fn instructions(&self) -> u64 {
        u64::from(self.gap) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_count_includes_the_access() {
        let r = MemRecord {
            gap: 3,
            addr: 0x100,
            is_write: false,
        };
        assert_eq!(r.instructions(), 4);
    }

    #[test]
    fn serde_round_trip() {
        let r = MemRecord {
            gap: 7,
            addr: 0xdead_beef,
            is_write: true,
        };
        let s = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<MemRecord>(&s).unwrap(), r);
    }
}
