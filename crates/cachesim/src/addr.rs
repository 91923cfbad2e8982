//! Address types.
//!
//! The simulator works with 64-bit byte addresses ([`Addr`]). A [`LineAddr`]
//! is an address shifted right by the line-offset bits — i.e. the unit the
//! cache actually tracks. Keeping the two as distinct types prevents the
//! classic bug of indexing a set with a byte address.

use serde::{Deserialize, Serialize};

/// A 64-bit byte address, as issued by a core.
pub type Addr = u64;

/// A cache-line address: a byte address with the intra-line offset stripped.
///
/// `LineAddr(n)` denotes the `n`-th line of memory. Multiply by the line
/// size to recover the base byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Build a line address from a byte address given `offset_bits`
    /// (log2 of the line size).
    #[inline]
    pub fn from_byte_addr(addr: Addr, offset_bits: u32) -> Self {
        LineAddr(addr >> offset_bits)
    }
}

impl From<u64> for LineAddr {
    fn from(v: u64) -> Self {
        LineAddr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_to_line_round_trip_drops_offset() {
        let a: Addr = 0xdead_beef;
        let l = LineAddr::from_byte_addr(a, 7); // 128 B lines
        assert_eq!(l.0, 0xdead_beef >> 7);
    }

    #[test]
    fn adjacent_bytes_share_a_line() {
        let l1 = LineAddr::from_byte_addr(0x1000, 7);
        let l2 = LineAddr::from_byte_addr(0x107f, 7);
        let l3 = LineAddr::from_byte_addr(0x1080, 7);
        assert_eq!(l1, l2);
        assert_ne!(l1, l3);
    }

    #[test]
    fn line_addr_orders_like_addresses() {
        assert!(LineAddr(1) < LineAddr(2));
    }
}
