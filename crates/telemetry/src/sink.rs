//! Shipping [`TraceSink`] implementations.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::event::TraceEvent;

/// A consumer of [`TraceEvent`]s. Sinks must tolerate concurrent calls —
/// span closes arrive from whichever worker thread owned the span.
pub trait TraceSink: Send + Sync {
    /// Handles one event.
    fn event(&self, event: &TraceEvent);

    /// Flushes any buffered output. Called at orderly shutdown.
    fn flush(&self) {}
}

/// How long [`JsonlSink`] lets written lines sit in its buffer: the first
/// event at least this long after the last flush flushes, so a run that is
/// killed before its orderly shutdown still leaves all but its last second
/// of trace on disk.
const FLUSH_INTERVAL: Duration = Duration::from_secs(1);

/// Writes each event as one JSON line to a buffered writer (the
/// `--trace-out FILE` / `DETERRENT_TRACE_OUT` format). An event flushes
/// the buffer once a second has passed since the last flush, so a killed
/// run leaves its trace behind; [`TraceSink::flush`] flushes at shutdown.
pub struct JsonlSink {
    out: Mutex<Buffered>,
    flush_interval: Duration,
}

/// The buffered writer and when it was last flushed.
struct Buffered {
    writer: BufWriter<Box<dyn Write + Send>>,
    last_flush: Instant,
}

impl Buffered {
    fn flush(&mut self) {
        let _ = self.writer.flush();
        self.last_flush = Instant::now();
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Creates (truncating) the JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::to_writer(Box::new(file)))
    }

    /// Wraps an arbitrary writer (tests, in-memory buffers).
    #[must_use]
    pub fn to_writer(writer: Box<dyn Write + Send>) -> Self {
        Self::with_flush_interval(writer, FLUSH_INTERVAL)
    }

    /// Like [`JsonlSink::to_writer`], flushing from `event` once
    /// `flush_interval` has passed since the last flush.
    pub(crate) fn with_flush_interval(
        writer: Box<dyn Write + Send>,
        flush_interval: Duration,
    ) -> Self {
        Self {
            out: Mutex::new(Buffered {
                writer: BufWriter::new(writer),
                last_flush: Instant::now(),
            }),
            flush_interval,
        }
    }
}

impl TraceSink for JsonlSink {
    fn event(&self, event: &TraceEvent) {
        let mut line = event.to_line();
        line.push('\n');
        let mut out = self.out.lock().expect("trace writer poisoned");
        // Telemetry is strictly out-of-band: a full disk must not fail the
        // run, so write errors are swallowed here by design.
        let _ = out.writer.write_all(line.as_bytes());
        if out.last_flush.elapsed() >= self.flush_interval {
            out.flush();
        }
    }

    fn flush(&self) {
        self.out.lock().expect("trace writer poisoned").flush();
    }
}

/// Collects events in memory; clones share one buffer. Intended for tests
/// and in-process consumers.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemorySink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of every event received so far, in arrival order.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("event buffer poisoned").clone()
    }
}

impl TraceSink for MemorySink {
    fn event(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("event buffer poisoned")
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::collections::BTreeMap;

    /// A writer whose bytes stay readable after the sink took ownership.
    #[derive(Clone, Default)]
    struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

    impl SharedBuffer {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuffer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn event(id: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Mark,
            name: format!("mark.{id}"),
            path: format!("run/mark.{id}"),
            id,
            parent: 0,
            start_ns: id,
            dur_ns: 0,
            attrs: BTreeMap::new(),
            vary: BTreeMap::new(),
        }
    }

    #[test]
    fn events_stay_buffered_until_the_interval_passes() {
        let buffer = SharedBuffer::default();
        let sink =
            JsonlSink::with_flush_interval(Box::new(buffer.clone()), Duration::from_secs(3600));
        sink.event(&event(1));
        sink.event(&event(2));
        assert_eq!(buffer.text(), "");
        sink.flush();
        assert_eq!(
            buffer.text(),
            format!("{}\n{}\n", event(1).to_line(), event(2).to_line())
        );
    }

    #[test]
    fn an_event_past_the_interval_flushes_everything_written() {
        let buffer = SharedBuffer::default();
        let sink =
            JsonlSink::with_flush_interval(Box::new(buffer.clone()), Duration::from_millis(20));
        sink.event(&event(1));
        std::thread::sleep(Duration::from_millis(30));
        sink.event(&event(2));
        // No `flush()`: a run killed here still leaves both lines behind.
        assert_eq!(
            buffer.text(),
            format!("{}\n{}\n", event(1).to_line(), event(2).to_line())
        );
        sink.event(&event(3));
        sink.flush();
        assert_eq!(buffer.text().lines().count(), 3);
    }
}
