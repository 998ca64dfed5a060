//! Fixture: passes every project lint.

use std::collections::BTreeMap;

/// Sums the values.
pub fn sum_values(m: &BTreeMap<u32, u32>) -> u32 {
    m.values().sum()
}

/// The first byte, or zero.
pub fn first_or_zero(v: &[u8]) -> u8 {
    v.first().copied().unwrap_or(0)
}

/// A justified suppression is valid.
#[expect(clippy::unwrap_used, reason = "fixture: a justified expect is valid")]
pub fn justified(v: &[u8]) -> u8 {
    *v.first().unwrap()
}
