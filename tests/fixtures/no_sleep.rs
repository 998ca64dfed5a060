//! Fixture: a timer on the delivery path, plus a reasoned error backoff
//! that must NOT be flagged.

use std::time::Duration;

/// Polls on a timer.
pub fn poll_for_a_reply(ready: &dyn Fn() -> bool) {
    while !ready() {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Backs off after a failed accept.
pub fn back_off_after_a_failed_accept(errors: u32) {
    #[expect(
        clippy::disallowed_methods,
        reason = "error backoff: no frame ever waits here"
    )]
    std::thread::sleep(Duration::from_millis(1 << errors.min(5)));
}
