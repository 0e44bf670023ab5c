//! On-disk encodings: journal records and snapshot file sections.
//!
//! Everything rides on the canonical little-endian codec from
//! [`pscd_cache::snapshot`], so a byte string written by one process
//! decodes identically in another — the property the crash-recovery
//! tests depend on.

use pscd_cache::snapshot::{put_u16, put_u32, put_u64, put_u8};
use pscd_cache::{SnapshotError, SnapshotReader};
use pscd_types::{LiveEvent, PageId, ServerId, SimTime};

/// Journal file magic + format version.
pub(crate) const JOURNAL_MAGIC: &[u8; 8] = b"PSCDJRN1";
/// Snapshot file magic + format version.
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"PSCDSNP1";

const TAG_SUBSCRIBE: u8 = 0;
const TAG_PUBLISH: u8 = 1;
const TAG_REQUEST: u8 = 2;

/// Appends one journal record.
pub(crate) fn put_event(out: &mut Vec<u8>, ev: &LiveEvent) {
    match *ev {
        LiveEvent::Subscribe {
            page,
            server,
            count,
        } => {
            put_u8(out, TAG_SUBSCRIBE);
            put_u32(out, page.index());
            put_u16(out, server.index());
            put_u32(out, count);
        }
        LiveEvent::Publish { time, page } => {
            put_u8(out, TAG_PUBLISH);
            put_u64(out, time.as_millis());
            put_u32(out, page.index());
        }
        LiveEvent::Request { time, server, page } => {
            put_u8(out, TAG_REQUEST);
            put_u64(out, time.as_millis());
            put_u16(out, server.index());
            put_u32(out, page.index());
        }
    }
}

/// Decodes one journal record.
pub(crate) fn read_event(r: &mut SnapshotReader<'_>) -> Result<LiveEvent, SnapshotError> {
    match r.read_u8()? {
        TAG_SUBSCRIBE => {
            let page = PageId::new(r.read_u32()?);
            let server = ServerId::new(r.read_u16()?);
            let count = r.read_u32()?;
            Ok(LiveEvent::Subscribe {
                page,
                server,
                count,
            })
        }
        TAG_PUBLISH => {
            let time = SimTime::from_millis(r.read_u64()?);
            let page = PageId::new(r.read_u32()?);
            Ok(LiveEvent::Publish { time, page })
        }
        TAG_REQUEST => {
            let time = SimTime::from_millis(r.read_u64()?);
            let server = ServerId::new(r.read_u16()?);
            let page = PageId::new(r.read_u32()?);
            Ok(LiveEvent::Request { time, server, page })
        }
        _ => Err(SnapshotError::Corrupt("unknown journal record tag")),
    }
}

/// Steps over one journal record without materializing it: the tag is
/// checked and the record must be whole, nothing more — what
/// [`read_event`] would consume, by the tag's fixed payload length.
pub(crate) fn skip_event(r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
    let payload = match r.read_u8()? {
        TAG_SUBSCRIBE => 4 + 2 + 4,
        TAG_PUBLISH => 8 + 4,
        TAG_REQUEST => 8 + 2 + 4,
        _ => return Err(SnapshotError::Corrupt("unknown journal record tag")),
    };
    r.read_bytes(payload).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip() {
        let events = [
            LiveEvent::Subscribe {
                page: PageId::new(7),
                server: ServerId::new(3),
                count: 12,
            },
            LiveEvent::Publish {
                time: SimTime::from_millis(123_456),
                page: PageId::new(0),
            },
            LiveEvent::Request {
                time: SimTime::from_millis(999),
                server: ServerId::new(65_535),
                page: PageId::new(u32::MAX),
            },
        ];
        let mut buf = Vec::new();
        for ev in &events {
            put_event(&mut buf, ev);
        }
        let mut r = SnapshotReader::new(&buf);
        for ev in &events {
            assert_eq!(read_event(&mut r).unwrap(), *ev);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn bad_tag_is_corrupt() {
        let buf = [9u8];
        let mut r = SnapshotReader::new(&buf);
        assert!(matches!(read_event(&mut r), Err(SnapshotError::Corrupt(_))));
        let mut r = SnapshotReader::new(&buf);
        assert!(matches!(skip_event(&mut r), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn skipping_a_record_consumes_what_reading_it_does() {
        let events = [
            LiveEvent::Subscribe {
                page: PageId::new(7),
                server: ServerId::new(3),
                count: 12,
            },
            LiveEvent::Publish {
                time: SimTime::from_millis(123_456),
                page: PageId::new(0),
            },
            LiveEvent::Request {
                time: SimTime::from_millis(999),
                server: ServerId::new(65_535),
                page: PageId::new(u32::MAX),
            },
        ];
        for ev in &events {
            let mut buf = Vec::new();
            put_event(&mut buf, ev);
            // A following record, so that over-reading would not show as
            // truncation.
            put_event(&mut buf, &events[0]);
            let (mut read, mut skipped) = (SnapshotReader::new(&buf), SnapshotReader::new(&buf));
            read_event(&mut read).unwrap();
            skip_event(&mut skipped).unwrap();
            assert_eq!(skipped.position(), read.position(), "{ev:?}");
            // Cut anywhere inside the record, both call it truncated.
            for cut in 0..read.position() {
                let mut r = SnapshotReader::new(&buf[..cut]);
                let err = skip_event(&mut r);
                assert!(matches!(err, Err(SnapshotError::Truncated { .. })), "{cut}");
            }
        }
    }

    #[test]
    fn truncated_record_is_truncated() {
        let mut buf = Vec::new();
        put_event(
            &mut buf,
            &LiveEvent::Publish {
                time: SimTime::from_millis(1),
                page: PageId::new(2),
            },
        );
        buf.pop();
        let mut r = SnapshotReader::new(&buf);
        assert!(matches!(
            read_event(&mut r),
            Err(SnapshotError::Truncated { .. })
        ));
    }
}
