//! Process-global default recorder.
//!
//! Experiment binaries install a recorder once (from `ABW_TRACE`), and
//! every `Simulator` created afterwards picks it up automatically —
//! no need to thread a recorder handle through every experiment
//! function. The global is opt-in: until [`set_global`] runs,
//! [`global`] returns `None` and nothing anywhere pays for tracing.
//!
//! The module also holds the per-thread capture the parallel executor
//! wraps around each job ([`begin_thread_capture`]). It has one
//! channel, the job's events; counts need none, because the cost
//! counters ([`crate::prof`]) are sums that each worker flushes as it
//! retires.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use crate::event::OwnedEvent;
use crate::record::{MemoryRecorder, Recorder, SharedRecorder};

static GLOBAL: Mutex<Option<SharedRecorder>> = Mutex::new(None);

/// Per-thread capture: while active, this thread's recorder lookups are
/// redirected into a thread-local buffer instead of the process-wide
/// sink. The parallel executor installs one around every job so workers
/// never contend on (or interleave within) the shared trace, then
/// replays the buffers in job-index order at join time.
struct ThreadCapture {
    /// Buffered events (`None` when the job runs untraced).
    events: Option<Arc<Mutex<MemoryRecorder>>>,
}

thread_local! {
    static THREAD_CAPTURE: RefCell<Option<ThreadCapture>> = const { RefCell::new(None) };
}

/// Starts redirecting this thread's [`global`] recorder lookups into a
/// thread-local buffer. Replaces any previous capture on this thread.
///
/// `capture_events` buffers events for later replay. With `false`
/// nothing is buffered and lookups fall through to the process global
/// (the executor passes `false` when none is installed); the capture is
/// still active, which [`thread_capture_active`] reports.
pub fn begin_thread_capture(capture_events: bool) {
    let capture = ThreadCapture {
        events: capture_events.then(|| Arc::new(Mutex::new(MemoryRecorder::new()))),
    };
    THREAD_CAPTURE.with(|slot| *slot.borrow_mut() = Some(capture));
}

/// Ends this thread's capture and returns the events it buffered, in
/// emission order (none when no capture was active or it buffered
/// nothing).
pub fn take_thread_capture() -> Vec<OwnedEvent> {
    let capture = THREAD_CAPTURE.with(|slot| slot.borrow_mut().take());
    match capture.and_then(|capture| capture.events) {
        Some(buffer) => buffer
            .lock()
            .map(|mut recorder| recorder.take_events())
            .unwrap_or_default(),
        None => Vec::new(),
    }
}

/// True when a thread capture is active on the calling thread.
pub fn thread_capture_active() -> bool {
    THREAD_CAPTURE.with(|slot| slot.borrow().is_some())
}

/// Replays captured events into the process-global recorder, in order.
/// A no-op when no global recorder is installed.
pub fn replay_into_global(events: &[OwnedEvent]) {
    if events.is_empty() {
        return;
    }
    if let Some(shared) = process_global() {
        shared.with(|recorder| {
            for event in events {
                event.replay_into(recorder);
            }
        });
    }
}

/// Installs `recorder` as the process-global default, returning the
/// shared handle. Replaces any previous global.
pub fn set_global<R: Recorder + Send + 'static>(recorder: R) -> SharedRecorder {
    let shared = SharedRecorder::new(recorder);
    *GLOBAL.lock().expect("global recorder mutex poisoned") = Some(shared.clone());
    shared
}

/// The recorder new simulators should adopt: the calling thread's
/// capture buffer when one is active (and tracing), else the process
/// global, if one was installed.
pub fn global() -> Option<SharedRecorder> {
    let captured = THREAD_CAPTURE.with(|slot| {
        slot.borrow()
            .as_ref()
            .and_then(|capture| capture.events.clone())
    });
    if let Some(buffer) = captured {
        return Some(SharedRecorder::new(buffer));
    }
    process_global()
}

/// The process-global recorder, bypassing any thread capture — the
/// replay destination at executor join time.
fn process_global() -> Option<SharedRecorder> {
    GLOBAL
        .lock()
        .expect("global recorder mutex poisoned")
        .clone()
}

/// Removes the global recorder (flushing it first). Returns the handle
/// that was installed, if any.
pub fn clear_global() -> Option<SharedRecorder> {
    let mut prev = GLOBAL
        .lock()
        .expect("global recorder mutex poisoned")
        .take();
    if let Some(ref mut r) = prev {
        Recorder::flush(r);
    }
    prev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MemoryRecorder;

    #[test]
    fn global_lifecycle() {
        // single test exercising install/fetch/clear to avoid
        // cross-test interference on the shared global
        let _ = clear_global(); // start clean
        let handle = set_global(MemoryRecorder::new());
        let fetched = global().expect("recorder was installed");
        let mut f = fetched;
        f.instant(1, "g.test", &[]);
        handle.with(|r| r.flush());
        let cleared = clear_global().expect("still installed");
        assert!(global().is_none());
        // the event went into the same underlying sink
        cleared.with(|r| {
            let _ = r; // dyn Recorder: can't downcast; presence is enough
        });
    }

    #[test]
    fn thread_capture_redirects_events() {
        assert!(!thread_capture_active());
        begin_thread_capture(true);
        assert!(thread_capture_active());
        let mut recorder = global().expect("capture provides a recorder");
        recorder.instant(5, "job.event", &[]);
        let events = take_thread_capture();
        assert!(!thread_capture_active());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "job.event");
        assert_eq!(events[0].t_ns, 5);
        assert!(take_thread_capture().is_empty());
    }
}
