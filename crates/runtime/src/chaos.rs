//! Chaos injection for exercising the supervision layer in tests.

use std::sync::atomic::{AtomicU64, Ordering};

/// Injects panics into the classify stage of a
/// [`DetectionServer`](crate::DetectionServer): the first `panics`
/// classify chunks belonging to batch-relative frame `frame` panic
/// instead of scoring. A stream frame is frame 0 of its own one-frame
/// batch. Attach with
/// [`DetectionServer::with_panic_injection`](crate::DetectionServer::with_panic_injection).
///
/// The supervision contract this exists to pin: an injected panic
/// fails *only* the poisoned frame's request — every other frame in
/// the batch still returns its detections, and the caught panic is
/// counted in the report.
#[derive(Debug)]
pub struct PanicInjector {
    frame: usize,
    remaining: AtomicU64,
}

impl PanicInjector {
    /// An injector that panics the first `panics` classify chunks of
    /// batch-relative frame `frame`.
    pub fn new(frame: usize, panics: u64) -> Self {
        PanicInjector { frame, remaining: AtomicU64::new(panics) }
    }

    /// The batch-relative frame index being poisoned.
    pub fn frame(&self) -> usize {
        self.frame
    }

    /// Injected panics not yet fired.
    pub fn remaining(&self) -> u64 {
        self.remaining.load(Ordering::Relaxed)
    }

    /// Called by the classify stage for each chunk; panics while this
    /// injector has charges left and the chunk belongs to the poisoned
    /// frame.
    pub(crate) fn maybe_panic(&self, frame: usize) {
        if frame != self.frame {
            return;
        }
        // Decrement one charge; panic only if one was actually taken
        // (several worker threads may race here).
        let taken = self
            .remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
            .is_ok();
        if taken {
            panic!("injected chaos panic in classify chunk of frame {frame}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_deplete_and_only_target_the_frame() {
        let inj = PanicInjector::new(1, 2);
        inj.maybe_panic(0); // wrong frame: no charge spent
        assert_eq!(inj.remaining(), 2);
        assert!(std::panic::catch_unwind(|| inj.maybe_panic(1)).is_err());
        assert!(std::panic::catch_unwind(|| inj.maybe_panic(1)).is_err());
        assert_eq!(inj.remaining(), 0);
        inj.maybe_panic(1); // charges exhausted: serves normally
    }
}
