//! Events: the unit of tracing.
//!
//! An [`Event`] is a borrowed view — a timestamp, a static kind and a
//! slice of key/value fields — so emitting one allocates nothing. Every
//! event is a point in simulated time; sinks that buffer (e.g.
//! `MemoryRecorder`) convert to [`OwnedEvent`].

use std::fmt;

/// A field value. Borrowed strings keep the emit path allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String slice.
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value<'_> {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One named field of an event.
///
/// The key is borrowed (not `&'static`) so buffered [`OwnedEvent`]s can
/// be replayed through the same [`crate::Recorder::record`] path that
/// live emission uses — the byte-identity guarantee of deferred traces
/// rests on both paths sharing one formatter.
pub type Field<'a> = (&'a str, Value<'a>);

/// A borrowed event, as passed to [`crate::Recorder::record`].
#[derive(Debug, Clone, Copy)]
pub struct Event<'a> {
    /// Timestamp in simulated nanoseconds.
    pub t_ns: u64,
    /// Event kind, dot-namespaced (`probe.stream`, `pathload.fleet`, …).
    /// Producers pass `&'static` literals; replayed events borrow from
    /// their [`OwnedEvent`].
    pub kind: &'a str,
    /// Key/value payload.
    pub fields: &'a [Field<'a>],
}

/// An owned copy of an [`Event`], as buffered by `MemoryRecorder`.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedEvent {
    /// Timestamp in simulated nanoseconds.
    pub t_ns: u64,
    /// Event kind.
    pub kind: String,
    /// Key/value payload (values with owned strings).
    pub fields: Vec<(String, OwnedValue)>,
}

/// Owned counterpart of [`Value`].
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl OwnedValue {
    /// The value as `u64`, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            OwnedValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            OwnedValue::F64(v) => Some(*v),
            OwnedValue::U64(v) => Some(*v as f64),
            OwnedValue::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            OwnedValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<Value<'_>> for OwnedValue {
    fn from(v: Value<'_>) -> Self {
        match v {
            Value::U64(x) => OwnedValue::U64(x),
            Value::I64(x) => OwnedValue::I64(x),
            Value::F64(x) => OwnedValue::F64(x),
            Value::Str(s) => OwnedValue::Str(s.to_string()),
            Value::Bool(b) => OwnedValue::Bool(b),
        }
    }
}

impl OwnedValue {
    /// A borrowed [`Value`] view of this value.
    pub fn as_value(&self) -> Value<'_> {
        match self {
            OwnedValue::U64(v) => Value::U64(*v),
            OwnedValue::I64(v) => Value::I64(*v),
            OwnedValue::F64(v) => Value::F64(*v),
            OwnedValue::Str(s) => Value::Str(s),
            OwnedValue::Bool(b) => Value::Bool(*b),
        }
    }
}

impl OwnedEvent {
    /// Copies a borrowed event.
    pub fn from_event(ev: &Event<'_>) -> Self {
        OwnedEvent {
            t_ns: ev.t_ns,
            kind: ev.kind.to_string(),
            fields: ev
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), OwnedValue::from(*v)))
                .collect(),
        }
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&OwnedValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Re-records this event into `recorder` through the ordinary
    /// [`crate::Recorder::record`] path, so a buffered-then-replayed
    /// trace is byte-identical to a live one.
    pub fn replay_into<R: crate::Recorder + ?Sized>(&self, recorder: &mut R) {
        let fields: Vec<Field<'_>> = self
            .fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_value()))
            .collect();
        recorder.record(&Event {
            t_ns: self.t_ns,
            kind: &self.kind,
            fields: &fields,
        });
    }
}

impl fmt::Display for OwnedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} ns] {}", self.t_ns, self.kind)?;
        for (k, v) in &self.fields {
            match v {
                OwnedValue::U64(x) => write!(f, " {k}={x}")?,
                OwnedValue::I64(x) => write!(f, " {k}={x}")?,
                OwnedValue::F64(x) => write!(f, " {k}={x}")?,
                OwnedValue::Str(s) => write!(f, " {k}={s}")?,
                OwnedValue::Bool(b) => write!(f, " {k}={b}")?,
            }
        }
        Ok(())
    }
}
