//! Fixture: narrowing `as` casts. `cast_possible_truncation` has no
//! in-tests exemption, so the test module is flagged too.

/// Two narrowings.
pub fn narrows(n: usize, m: u64) -> (u32, u16) {
    let a = n as u32;
    let b = m as u16;
    (a, b)
}

/// Widening is not flagged.
pub fn widens(n: u32) -> u64 {
    n as u64
}

/// Annotated sites are exempt.
#[expect(
    clippy::cast_possible_truncation,
    reason = "ids are allocated densely below u32::MAX"
)]
pub fn bounded(n: usize) -> u32 {
    n as u32
}

#[cfg(test)]
mod tests {
    fn in_tests(n: usize) -> u8 {
        n as u8
    }
}
