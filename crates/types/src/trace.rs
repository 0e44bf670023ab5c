//! Sorted trace containers for publishing and request streams.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::{Bytes, PageMeta, PublishEvent, RequestEvent, SimTime, TraceError};

fn check_sorted<T, K: Fn(&T) -> SimTime>(events: &[T], key: K) -> Result<(), TraceError> {
    for (i, w) in events.windows(2).enumerate() {
        if key(&w[1]) < key(&w[0]) {
            return Err(TraceError::Unsorted { index: i + 1 });
        }
    }
    Ok(())
}

/// The time-ordered stream of publish events fed to the publisher.
///
/// # Examples
///
/// ```
/// use pscd_types::{PageId, PublishEvent, PublishingStream, SimTime};
/// let stream = PublishingStream::new(vec![
///     PublishEvent::new(SimTime::from_secs(1), PageId::new(0)),
///     PublishEvent::new(SimTime::from_secs(2), PageId::new(1)),
/// ])?;
/// assert_eq!(stream.len(), 2);
/// # Ok::<(), pscd_types::TraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct PublishingStream {
    events: Vec<PublishEvent>,
}

impl PublishingStream {
    /// Creates a stream from time-sorted events.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Unsorted`] if the events are not in
    /// non-decreasing time order.
    pub fn new(events: Vec<PublishEvent>) -> Result<Self, TraceError> {
        check_sorted(&events, |e| e.time)?;
        Ok(Self { events })
    }

    /// Creates a stream from events in any order, sorting them by time
    /// (stable: equal-time events keep their relative order).
    pub fn from_unsorted(mut events: Vec<PublishEvent>) -> Self {
        events.sort_by_key(|e| e.time);
        Self { events }
    }

    /// The events in time order.
    #[inline]
    pub fn events(&self) -> &[PublishEvent] {
        &self.events
    }

    /// Number of publish events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the stream contains no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, PublishEvent> {
        self.events.iter()
    }
}

impl<'a> IntoIterator for &'a PublishingStream {
    type Item = &'a PublishEvent;
    type IntoIter = std::slice::Iter<'a, PublishEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl IntoIterator for PublishingStream {
    type Item = PublishEvent;
    type IntoIter = std::vec::IntoIter<PublishEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

/// The time-ordered stream of page requests arriving at the proxy servers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct RequestTrace {
    events: Vec<RequestEvent>,
}

impl RequestTrace {
    /// Creates a trace from time-sorted events.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Unsorted`] if the events are not in
    /// non-decreasing time order.
    pub fn new(events: Vec<RequestEvent>) -> Result<Self, TraceError> {
        check_sorted(&events, |e| e.time)?;
        Ok(Self { events })
    }

    /// Creates a trace from events in any order, sorting them by time
    /// (stable: equal-time events keep their relative order).
    pub fn from_unsorted(mut events: Vec<RequestEvent>) -> Self {
        events.sort_by_key(|e| e.time);
        Self { events }
    }

    /// The events in time order.
    #[inline]
    pub fn events(&self) -> &[RequestEvent] {
        &self.events
    }

    /// Number of requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the trace contains no requests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the requests in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, RequestEvent> {
        self.events.iter()
    }

    /// Per-server total of *unique* bytes requested over the whole trace.
    ///
    /// The paper sizes each proxy cache as a percentage of this quantity
    /// (§5.1). `pages` must be the page table the trace refers to.
    ///
    /// # Panics
    ///
    /// Panics if an event references a page outside `pages` or a server
    /// `>= server_count`.
    pub fn unique_bytes_per_server(&self, pages: &[PageMeta], server_count: u16) -> Vec<Bytes> {
        let mut seen: Vec<HashSet<u32>> = vec![HashSet::new(); server_count as usize];
        let mut totals = vec![Bytes::ZERO; server_count as usize];
        for ev in &self.events {
            let s = ev.server.as_usize();
            if seen[s].insert(ev.page.index()) {
                totals[s] += pages[ev.page.as_usize()].size();
            }
        }
        totals
    }

    /// Requests per server over the whole trace — the load vector trace
    /// compilation and shard planning balance on. Cheaper than
    /// [`stats`](RequestTrace::stats) (no distinct-page tracking).
    ///
    /// # Panics
    ///
    /// Panics if an event references a server `>= server_count`.
    pub fn requests_per_server(&self, server_count: u16) -> Vec<u64> {
        let mut per_server = vec![0u64; server_count as usize];
        for ev in &self.events {
            per_server[ev.server.as_usize()] += 1;
        }
        per_server
    }

    /// Summary statistics of the trace.
    pub fn stats(&self, server_count: u16) -> TraceStats {
        let mut pages = HashSet::new();
        for ev in &self.events {
            pages.insert(ev.page);
        }
        TraceStats {
            requests: self.events.len() as u64,
            distinct_pages: pages.len() as u64,
            requests_per_server: self.requests_per_server(server_count),
            span: self.events.last().map(|e| e.time).unwrap_or(SimTime::ZERO),
        }
    }

    /// Validates that every event references a known page and server.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownPage`] or [`TraceError::UnknownServer`]
    /// for the first out-of-range reference.
    pub fn validate(&self, page_count: usize, server_count: u16) -> Result<(), TraceError> {
        for (index, ev) in self.events.iter().enumerate() {
            if ev.page.as_usize() >= page_count {
                return Err(TraceError::UnknownPage {
                    index,
                    page_index: ev.page.index(),
                    page_count,
                });
            }
            if ev.server.index() >= server_count {
                return Err(TraceError::UnknownServer {
                    index,
                    server_index: ev.server.index(),
                    server_count,
                });
            }
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a RequestTrace {
    type Item = &'a RequestEvent;
    type IntoIter = std::slice::Iter<'a, RequestEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl IntoIterator for RequestTrace {
    type Item = RequestEvent;
    type IntoIter = std::vec::IntoIter<RequestEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

/// Summary statistics of a [`RequestTrace`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total number of requests.
    pub requests: u64,
    /// Number of distinct pages referenced.
    pub distinct_pages: u64,
    /// Requests per server, indexed by [`ServerId`] index.
    pub requests_per_server: Vec<u64>,
    /// Time of the last request.
    pub span: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PageId, PageKind, ServerId};

    fn req(t: u64, s: u16, p: u32) -> RequestEvent {
        RequestEvent::new(SimTime::from_secs(t), ServerId::new(s), PageId::new(p))
    }

    fn page(i: u32, size: u64) -> PageMeta {
        PageMeta::new(
            PageId::new(i),
            Bytes::new(size),
            SimTime::ZERO,
            PageKind::Original,
        )
    }

    #[test]
    fn sorted_accepted_unsorted_rejected() {
        assert!(RequestTrace::new(vec![req(1, 0, 0), req(2, 0, 1)]).is_ok());
        let err = RequestTrace::new(vec![req(2, 0, 0), req(1, 0, 1)]).unwrap_err();
        assert_eq!(err, TraceError::Unsorted { index: 1 });
    }

    #[test]
    fn from_unsorted_sorts() {
        let t = RequestTrace::from_unsorted(vec![req(3, 0, 0), req(1, 0, 1), req(2, 0, 2)]);
        let times: Vec<u64> = t.iter().map(|e| e.time.as_millis() / 1000).collect();
        assert_eq!(times, [1, 2, 3]);
    }

    #[test]
    fn publishing_stream_mirrors_request_trace() {
        let ev = |t: u64, p: u32| PublishEvent::new(SimTime::from_secs(t), PageId::new(p));
        let s = PublishingStream::new(vec![ev(1, 0), ev(1, 1), ev(5, 2)]).unwrap();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.iter().count(), 3);
        let unsorted = PublishingStream::from_unsorted(vec![ev(5, 0), ev(1, 1)]);
        assert_eq!(unsorted.events()[0].page, PageId::new(1));
        assert!(PublishingStream::new(vec![ev(5, 0), ev(1, 1)]).is_err());
    }

    #[test]
    fn unique_bytes_counts_each_page_once_per_server() {
        let pages = vec![page(0, 100), page(1, 50)];
        let t = RequestTrace::new(vec![
            req(1, 0, 0),
            req(2, 0, 0), // duplicate at server 0
            req(3, 0, 1),
            req(4, 1, 1),
        ])
        .unwrap();
        let ub = t.unique_bytes_per_server(&pages, 2);
        assert_eq!(ub[0], Bytes::new(150));
        assert_eq!(ub[1], Bytes::new(50));
    }

    #[test]
    fn stats_summarize() {
        let t = RequestTrace::new(vec![req(1, 0, 0), req(2, 1, 0), req(9, 1, 1)]).unwrap();
        let st = t.stats(2);
        assert_eq!(st.requests, 3);
        assert_eq!(st.distinct_pages, 2);
        assert_eq!(st.requests_per_server[1], 2);
        assert_eq!(st.span, SimTime::from_secs(9));
    }

    #[test]
    fn validate_catches_out_of_range() {
        let t = RequestTrace::new(vec![req(1, 0, 5)]).unwrap();
        assert!(matches!(
            t.validate(3, 2),
            Err(TraceError::UnknownPage { page_index: 5, .. })
        ));
        let t = RequestTrace::new(vec![req(1, 9, 0)]).unwrap();
        assert!(matches!(
            t.validate(3, 2),
            Err(TraceError::UnknownServer {
                server_index: 9,
                ..
            })
        ));
        let t = RequestTrace::new(vec![req(1, 1, 2)]).unwrap();
        assert!(t.validate(3, 2).is_ok());
    }

    #[test]
    fn empty_trace_stats() {
        let t = RequestTrace::default();
        assert!(t.is_empty());
        let st = t.stats(1);
        assert_eq!(st.requests, 0);
        assert_eq!(st.span, SimTime::ZERO);
    }
}
