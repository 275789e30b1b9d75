//! Recorder sinks: where events go.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::{Event, Field, OwnedEvent, Value};
use crate::json::{push_f64, push_str_escaped};

/// An event sink.
///
/// The hot path is [`Recorder::record`]; [`Recorder::instant`] is sugar
/// that builds the event. Implementations must preserve event order —
/// traces are replayable logs, not samples.
pub trait Recorder {
    /// Consumes one event.
    fn record(&mut self, event: &Event<'_>);

    /// Flushes buffered output (no-op for unbuffered sinks).
    fn flush(&mut self) {}

    /// Records a point event.
    fn instant(&mut self, t_ns: u64, kind: &'static str, fields: &[Field<'_>]) {
        self.record(&Event { t_ns, kind, fields });
    }
}

/// Buffers owned copies of every event, for in-process analysis and
/// tests.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: Vec<OwnedEvent>,
}

impl MemoryRecorder {
    /// An empty buffer.
    pub fn new() -> Self {
        MemoryRecorder::default()
    }

    /// All recorded events, in order.
    pub fn events(&self) -> &[OwnedEvent] {
        &self.events
    }

    /// The events of one kind, in order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a OwnedEvent> + 'a {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Takes the buffered events out, leaving the recorder empty.
    pub fn take_events(&mut self) -> Vec<OwnedEvent> {
        std::mem::take(&mut self.events)
    }

    /// Replays every buffered event into `recorder`, in order.
    pub fn replay_into<R: Recorder + ?Sized>(&self, recorder: &mut R) {
        for event in &self.events {
            event.replay_into(recorder);
        }
    }
}

impl Recorder for MemoryRecorder {
    fn record(&mut self, event: &Event<'_>) {
        self.events.push(OwnedEvent::from_event(event));
    }
}

/// Streams events as JSON Lines: one `{"t":…,"ev":…,"ph":"i",…}`
/// object per line. Every event is a point in time, so `ph` (the
/// Chrome-trace phase) is always `"i"`. With fixed seeds the byte stream
/// is identical across runs.
pub struct JsonlRecorder<W: Write> {
    out: W,
    line: String,
    /// I/O errors observed while writing (sticky; checked by `flush`).
    error: Option<io::Error>,
}

impl JsonlRecorder<BufWriter<std::fs::File>> {
    /// Creates (truncates) `path` and streams events into it.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlRecorder::new(BufWriter::new(file)))
    }
}

impl<W: Write> JsonlRecorder<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlRecorder {
            out,
            line: String::with_capacity(256),
            error: None,
        }
    }

    /// The first I/O error hit while writing, if any.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Borrows the inner writer (e.g. to inspect an in-memory buffer).
    pub fn writer(&self) -> &W {
        &self.out
    }

    /// Unwraps the inner writer (flushing first).
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }

    fn format_line(line: &mut String, event: &Event<'_>) {
        use std::fmt::Write as _;
        line.clear();
        let _ = write!(line, "{{\"t\":{},\"ev\":", event.t_ns);
        push_str_escaped(line, event.kind);
        line.push_str(",\"ph\":\"i\"");
        for (key, value) in event.fields {
            line.push(',');
            push_str_escaped(line, key);
            line.push(':');
            match value {
                Value::U64(v) => {
                    let _ = write!(line, "{v}");
                }
                Value::I64(v) => {
                    let _ = write!(line, "{v}");
                }
                Value::F64(v) => push_f64(line, *v),
                Value::Str(s) => push_str_escaped(line, s),
                Value::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
            }
        }
        line.push_str("}\n");
    }
}

impl<W: Write> Recorder for JsonlRecorder<W> {
    fn record(&mut self, event: &Event<'_>) {
        if self.error.is_some() {
            return;
        }
        Self::format_line(&mut self.line, event);
        if let Err(e) = self.out.write_all(self.line.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if let Err(e) = self.out.flush() {
            self.error.get_or_insert(e);
        }
    }
}

/// `Arc<Mutex<R>>` is a recorder too: the typed counterpart of
/// [`SharedRecorder`], letting a test keep a handle to a concrete sink
/// (e.g. a `MemoryRecorder`) after handing a clone to a producer.
impl<R: Recorder> Recorder for Arc<Mutex<R>> {
    fn record(&mut self, event: &Event<'_>) {
        self.lock().expect("recorder mutex poisoned").record(event);
    }

    fn flush(&mut self) {
        self.lock().expect("recorder mutex poisoned").flush();
    }
}

/// A cloneable handle fanning events from multiple producers (e.g.
/// every `Simulator` an experiment creates) into one shared sink, in
/// arrival order.
#[derive(Clone)]
pub struct SharedRecorder {
    inner: Arc<Mutex<dyn Recorder + Send>>,
}

impl SharedRecorder {
    /// Wraps `sink` for shared use.
    pub fn new<R: Recorder + Send + 'static>(sink: R) -> Self {
        SharedRecorder {
            inner: Arc::new(Mutex::new(sink)),
        }
    }

    /// Runs `f` against the underlying sink.
    pub fn with<T>(&self, f: impl FnOnce(&mut dyn Recorder) -> T) -> T {
        let mut guard = self.inner.lock().expect("recorder mutex poisoned");
        f(&mut *guard)
    }
}

impl Recorder for SharedRecorder {
    fn record(&mut self, event: &Event<'_>) {
        self.inner
            .lock()
            .expect("recorder mutex poisoned")
            .record(event);
    }

    fn flush(&mut self) {
        self.inner.lock().expect("recorder mutex poisoned").flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event<'a>(fields: &'a [Field<'a>]) -> Event<'a> {
        Event {
            t_ns: 42,
            kind: "test.kind",
            fields,
        }
    }

    #[test]
    fn memory_recorder_buffers_in_order() {
        let mut r = MemoryRecorder::new();
        r.instant(1, "a", &[("x", Value::U64(1))]);
        r.instant(2, "b", &[]);
        r.instant(3, "b", &[]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.events()[0].kind, "a");
        assert_eq!(r.events()[1].t_ns, 2);
        assert_eq!(r.events()[2].t_ns, 3);
        assert_eq!(r.of_kind("b").count(), 2);
        assert_eq!(r.events()[0].field("x").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn jsonl_lines_are_valid_and_ordered() {
        let mut r = JsonlRecorder::new(Vec::new());
        r.record(&sample_event(&[
            ("n", Value::U64(7)),
            ("rate", Value::F64(2.5)),
            ("name", Value::Str("x\"y")),
            ("ok", Value::Bool(true)),
        ]));
        r.instant(43, "second", &[]);
        let bytes = r.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"t":42,"ev":"test.kind","ph":"i","n":7,"rate":2.5,"name":"x\"y","ok":true}"#
        );
        assert_eq!(lines[1], r#"{"t":43,"ev":"second","ph":"i"}"#);
    }

    #[test]
    fn shared_recorder_fans_into_one_sink() {
        use std::sync::atomic::{AtomicU64, Ordering};

        struct CountingSink(Arc<AtomicU64>);
        impl Recorder for CountingSink {
            fn record(&mut self, _event: &Event<'_>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let hits = Arc::new(AtomicU64::new(0));
        let shared = SharedRecorder::new(CountingSink(hits.clone()));
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.instant(1, "from.a", &[]);
        b.instant(2, "from.b", &[]);
        shared.with(|r| r.flush());
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn buffered_replay_is_byte_identical_to_live_emission() {
        let fields = [
            ("n", Value::U64(7)),
            ("rate", Value::F64(2.515e6)),
            ("name", Value::Str("tool \"x\"")),
            ("ok", Value::Bool(false)),
        ];
        // live: straight into a JSONL sink
        let mut live = JsonlRecorder::new(Vec::new());
        live.record(&sample_event(&fields));
        live.instant(43, "other.k", &[("neg", Value::I64(-3))]);
        // deferred: buffer in memory, replay later
        let mut buffer = MemoryRecorder::new();
        buffer.record(&sample_event(&fields));
        buffer.instant(43, "other.k", &[("neg", Value::I64(-3))]);
        let mut replayed = JsonlRecorder::new(Vec::new());
        buffer.replay_into(&mut replayed);
        assert_eq!(live.into_inner(), replayed.into_inner());
    }

    #[test]
    fn take_events_empties_the_recorder_in_order() {
        let mut a = MemoryRecorder::new();
        a.instant(1, "first", &[]);
        a.instant(2, "second", &[]);
        assert_eq!(a.len(), 2);
        let taken = a.take_events();
        assert_eq!(taken[1].kind, "second");
        assert!(a.is_empty());
    }
}
