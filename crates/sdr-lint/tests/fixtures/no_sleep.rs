//! Fixture: a timer on the delivery path, plus the shapes that must NOT
//! be flagged (a reasoned error backoff, test code). The determinism rule
//! bans the same call in the simulator crates, hence its allows here.

use std::time::Duration;

fn poll_for_a_reply(ready: &dyn Fn() -> bool) {
    while !ready() {
        // sdr-lint: allow(determinism) — fixture: left to the no-sleep rule
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn back_off_after_a_failed_accept(errors: u32) {
    // sdr-lint: allow(determinism) — fixture: left to the no-sleep rule
    // sdr-lint: allow(no-sleep) — error backoff: no frame ever waits here
    std::thread::sleep(Duration::from_millis(1 << errors.min(5)));
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_sleep() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
