//! Fixture: the three suppressions the gate refuses: a reason-less
//! `expect`, an `allow` (which cannot go stale), and a stale `expect`.

/// Reason-less.
#[expect(clippy::unwrap_used)]
pub fn reasonless(v: &[u8]) -> u8 {
    *v.first().unwrap()
}

/// An `allow`, even with a reason.
#[allow(clippy::unwrap_used, reason = "an allow rots silently")]
pub fn bare_allow(v: &[u8]) -> u8 {
    *v.first().unwrap()
}

/// Stale: nothing here unwraps any more.
#[expect(clippy::unwrap_used, reason = "was `*v.first().unwrap()`")]
pub fn stale(v: &[u8]) -> u8 {
    v.first().copied().unwrap_or(0)
}
