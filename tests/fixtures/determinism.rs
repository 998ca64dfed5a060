//! Fixture: every determinism violation shape. The test module is in
//! scope too: `disallowed-types` and `disallowed-methods` have no
//! in-tests exemption.

use std::collections::HashMap;
use std::collections::HashSet;

/// Reads both clocks, sleeps and reads the environment.
pub fn clock_reads() -> u128 {
    let started = std::time::Instant::now();
    let _wall = std::time::SystemTime::now();
    std::thread::sleep(std::time::Duration::from_millis(1));
    let _ambient = std::env::var("SDR_SEED");
    started.elapsed().as_millis()
}

/// Iterates in hash order. `as u64` widens, so no cast lint fires.
pub fn hash_iteration(m: &HashMap<u64, u64>, s: &HashSet<u64>) -> u64 {
    m.values().sum::<u64>() + s.len() as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn flagged_here_too() {
        let _ = std::collections::HashMap::<u32, u32>::new();
    }
}
