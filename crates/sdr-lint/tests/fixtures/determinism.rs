//! Fixture: every determinism violation shape. Never compiled — lexed
//! by the rule-engine tests and the CLI exit-code test.

use std::collections::HashMap;
use std::collections::HashSet;

fn clock_reads() -> u128 {
    let started = std::time::Instant::now();
    let _wall = std::time::SystemTime::now();
    // sdr-lint: allow(no-sleep) — fixture: this sleep is the determinism rule's
    std::thread::sleep(std::time::Duration::from_millis(1));
    let _ambient = std::env::var("SDR_SEED");
    started.elapsed().as_millis()
}

fn hash_iteration(m: &HashMap<u64, u64>, s: &HashSet<u64>) -> u64 {
    // `as u64` is widening here, so the lossy-cast rule stays quiet and
    // this fixture keeps tripping only `determinism`.
    m.values().sum::<u64>() + s.len() as u64
}

#[cfg(test)]
mod tests {
    // Exempt: tests may use ambient state freely.
    use std::collections::HashMap;

    #[test]
    fn fine_here() {
        let _ = HashMap::<u32, u32>::new();
    }
}
