//! [`JsonlObserver`]: a structured event log, one JSON object per line.
//!
//! Events carry a monotonically increasing `seq`, the simulation time in
//! milliseconds (`t_ms`, taken from the last [`on_clock`] tick — decision
//! hooks have no clock of their own) and the derived workload `hour`.
//! The writer buffers up to [`BUF_CAP`] bytes before touching the sink;
//! I/O errors latch an internal flag and silently drop later events, so
//! a full disk can never panic the simulation.
//!
//! [`on_clock`]: crate::Observer::on_clock

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use pscd_types::{Bytes, PageId, ServerId, SimTime};

use crate::observer::{AdmitOrigin, EvictReason, Observer, RelabelDirection};

/// Buffered bytes before the sink is written (64 KiB).
pub const BUF_CAP: usize = 64 * 1024;

/// An [`Observer`] that appends one JSON object per event to a sink.
///
/// All keys are static ASCII identifiers and all values are numbers,
/// booleans or the stable enum keys from
/// [`EvictReason::as_str`]/[`AdmitOrigin::as_str`]/
/// [`RelabelDirection::as_str`], so the JSON is emitted directly without
/// an escaping pass.
pub struct JsonlObserver {
    sink: Box<dyn Write>,
    buf: String,
    /// Simulation clock of the most recent `on_clock`, for stamping
    /// decision events.
    now_ms: u64,
    seq: u64,
    /// Latched on the first sink error; later events are dropped.
    errored: bool,
}

impl std::fmt::Debug for JsonlObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlObserver")
            .field("seq", &self.seq)
            .field("errored", &self.errored)
            .finish_non_exhaustive()
    }
}

impl JsonlObserver {
    /// Wraps an arbitrary sink.
    pub fn new(sink: Box<dyn Write>) -> Self {
        Self {
            sink,
            buf: String::with_capacity(BUF_CAP + 256),
            now_ms: 0,
            seq: 0,
            errored: false,
        }
    }

    /// Creates (truncating) `path` and logs events to it.
    ///
    /// # Errors
    ///
    /// Returns the error from [`File::create`].
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::new(Box::new(BufWriter::new(file))))
    }

    /// Number of events accepted so far (including any lost to a sink
    /// error after buffering).
    pub fn events_written(&self) -> u64 {
        self.seq
    }

    /// Flushes buffered events through to the sink.
    ///
    /// # Errors
    ///
    /// Propagates the sink error (which also latches the internal failure
    /// flag).
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            let pending = std::mem::take(&mut self.buf);
            if let Err(e) = self.sink.write_all(pending.as_bytes()) {
                self.errored = true;
                return Err(e);
            }
        }
        let r = self.sink.flush();
        if r.is_err() {
            self.errored = true;
        }
        r
    }

    /// Opens an event object with the standard header fields and returns
    /// `false` if the sink has already failed.
    fn begin(&mut self, event: &str) -> bool {
        if self.errored {
            return false;
        }
        let hour = SimTime::from_millis(self.now_ms).hour_index();
        let _ = write!(
            self.buf,
            "{{\"seq\":{},\"t_ms\":{},\"hour\":{},\"event\":\"{}\"",
            self.seq, self.now_ms, hour, event
        );
        self.seq += 1;
        true
    }

    fn end(&mut self) {
        self.buf.push_str("}\n");
        if self.buf.len() >= BUF_CAP {
            let _ = self.flush();
        }
    }

    fn field_u64(&mut self, key: &str, v: u64) {
        let _ = write!(self.buf, ",\"{key}\":{v}");
    }

    fn field_bool(&mut self, key: &str, v: bool) {
        let _ = write!(self.buf, ",\"{key}\":{v}");
    }

    fn field_f64(&mut self, key: &str, v: f64) {
        if v.is_finite() {
            let _ = write!(self.buf, ",\"{key}\":{v}");
        } else {
            let _ = write!(self.buf, ",\"{key}\":null");
        }
    }

    fn field_str(&mut self, key: &str, v: &str) {
        let _ = write!(self.buf, ",\"{key}\":\"{v}\"");
    }
}

impl Drop for JsonlObserver {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl Observer for JsonlObserver {
    #[inline]
    fn on_clock(&mut self, time: SimTime) {
        self.now_ms = time.as_millis();
    }

    fn on_publish(
        &mut self,
        time: SimTime,
        page: PageId,
        size: Bytes,
        matched: usize,
        pushed: usize,
    ) {
        self.now_ms = time.as_millis();
        if self.begin("publish") {
            self.field_u64("page", page.index() as u64);
            self.field_u64("size", size.as_u64());
            self.field_u64("matched", matched as u64);
            self.field_u64("pushed", pushed as u64);
            self.end();
        }
    }

    fn on_notify(&mut self, time: SimTime, page: PageId, match_count: usize) {
        self.now_ms = time.as_millis();
        if self.begin("notify") {
            self.field_u64("page", page.index() as u64);
            self.field_u64("matches", match_count as u64);
            self.end();
        }
    }

    fn on_request(
        &mut self,
        time: SimTime,
        server: ServerId,
        page: PageId,
        size: Bytes,
        hit: bool,
    ) {
        self.now_ms = time.as_millis();
        if self.begin("request") {
            self.field_u64("server", server.index() as u64);
            self.field_u64("page", page.index() as u64);
            self.field_u64("size", size.as_u64());
            self.field_bool("hit", hit);
            self.end();
        }
    }

    fn on_push(
        &mut self,
        server: ServerId,
        page: PageId,
        size: Bytes,
        transferred: bool,
        stored: bool,
    ) {
        if self.begin("push") {
            self.field_u64("server", server.index() as u64);
            self.field_u64("page", page.index() as u64);
            self.field_u64("size", size.as_u64());
            self.field_bool("transferred", transferred);
            self.field_bool("stored", stored);
            self.end();
        }
    }

    fn on_admit(
        &mut self,
        server: ServerId,
        page: PageId,
        size: Bytes,
        value: f64,
        origin: AdmitOrigin,
    ) {
        if self.begin("admit") {
            self.field_u64("server", server.index() as u64);
            self.field_u64("page", page.index() as u64);
            self.field_u64("size", size.as_u64());
            self.field_f64("value", value);
            self.field_str("origin", origin.as_str());
            self.end();
        }
    }

    fn on_evict(
        &mut self,
        server: ServerId,
        page: PageId,
        size: Bytes,
        value: f64,
        reason: EvictReason,
    ) {
        if self.begin("evict") {
            self.field_u64("server", server.index() as u64);
            self.field_u64("page", page.index() as u64);
            self.field_u64("size", size.as_u64());
            self.field_f64("value", value);
            self.field_str("reason", reason.as_str());
            self.end();
        }
    }

    fn on_relabel(
        &mut self,
        server: ServerId,
        page: PageId,
        size: Bytes,
        direction: RelabelDirection,
    ) {
        if self.begin("relabel") {
            self.field_u64("server", server.index() as u64);
            self.field_u64("page", page.index() as u64);
            self.field_u64("size", size.as_u64());
            self.field_str("direction", direction.as_str());
            self.end();
        }
    }

    fn on_crash(&mut self, time: SimTime, victims: &[ServerId]) {
        self.now_ms = time.as_millis();
        if self.begin("crash") {
            self.buf.push_str(",\"victims\":[");
            for (i, v) in victims.iter().enumerate() {
                if i > 0 {
                    self.buf.push(',');
                }
                let _ = write!(self.buf, "{}", v.index());
            }
            self.buf.push(']');
            self.end();
        }
    }

    fn on_restart(&mut self, time: SimTime, server: ServerId) {
        self.now_ms = time.as_millis();
        if self.begin("restart") {
            self.field_u64("server", server.index() as u64);
            self.end();
        }
    }

    fn on_invalidate(&mut self, time: SimTime, stale: PageId, dropped: usize) {
        self.now_ms = time.as_millis();
        if self.begin("invalidate") {
            self.field_u64("page", stale.index() as u64);
            self.field_u64("dropped", dropped as u64);
            self.end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A sink handing the bytes back out through shared ownership.
    #[derive(Clone, Default)]
    struct SharedSink(Rc<RefCell<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A sink that always fails.
    struct BrokenSink;

    impl Write for BrokenSink {
        fn write(&mut self, _data: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("boom"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("boom"))
        }
    }

    #[test]
    fn events_are_one_json_object_per_line() {
        let sink = SharedSink::default();
        let mut obs = JsonlObserver::new(Box::new(sink.clone()));
        let p = PageId::new(7);
        obs.on_clock(SimTime::from_hours(2));
        obs.on_evict(ServerId::new(3), p, Bytes::new(512), 1.5, EvictReason::Push);
        obs.on_request(
            SimTime::from_hours(3),
            ServerId::new(3),
            p,
            Bytes::new(512),
            false,
        );
        obs.on_crash(
            SimTime::from_hours(3),
            &[ServerId::new(1), ServerId::new(2)],
        );
        obs.on_admit(
            ServerId::new(3),
            p,
            Bytes::new(512),
            f64::INFINITY,
            AdmitOrigin::Access,
        );
        assert_eq!(obs.events_written(), 4);
        drop(obs); // Drop flushes.

        let bytes = sink.0.borrow().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Decision event is stamped with the last clock tick (hour 2);
        // the later timeline events carry their own time (hour 3).
        assert_eq!(
            lines[0],
            format!(
                "{{\"seq\":0,\"t_ms\":{},\"hour\":2,\"event\":\"evict\",\"server\":3,\"page\":7,\"size\":512,\"value\":1.5,\"reason\":\"push\"}}",
                2 * SimTime::MILLIS_PER_HOUR
            )
        );
        assert!(lines[1].contains("\"hour\":3,\"event\":\"request\""));
        assert!(lines[1].contains("\"hit\":false"));
        assert!(lines[2].contains("\"victims\":[1,2]"));
        // Non-finite values degrade to null instead of invalid JSON.
        assert!(lines[3].contains("\"value\":null"));
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"seq\":{i},")));
            assert!(line.ends_with('}'));
        }
    }

    #[test]
    fn sink_errors_latch_without_panicking() {
        let mut obs = JsonlObserver::new(Box::new(BrokenSink));
        obs.on_restart(SimTime::ZERO, ServerId::new(0));
        assert!(obs.flush().is_err());
        assert!(obs.errored);
        // Later events are dropped silently.
        obs.on_restart(SimTime::ZERO, ServerId::new(1));
        assert_eq!(obs.events_written(), 1);
    }
}
