//! Fixture: every panic-safety violation shape, plus the constructs the
//! lints must NOT flag.

/// One of each shape.
pub fn panics(v: &[u8], r: Result<u8, ()>) -> u8 {
    let a = v.first().unwrap();
    let b = r.expect("always ok");
    if v.is_empty() {
        panic!("empty");
    }
    if *a == 0 {
        unreachable!("zero handled earlier");
    }
    v[0] + a + b
}

/// Slice pattern, macro, slice type, literal array: none is indexing.
pub fn not_flagged() -> Vec<u8> {
    let [a, b] = [1u8, 2u8];
    let _slice: &[u8] = &[a];
    vec![a, b]
}

/// Annotated sites are exempt.
#[expect(clippy::unwrap_used, reason = "fixture: annotated sites are exempt")]
pub fn annotated(v: &[u8]) -> u8 {
    *v.first().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let v = [1u8];
        assert_eq!(v.first().copied().unwrap(), 1);
        assert_eq!(v[0], 1);
    }
}
