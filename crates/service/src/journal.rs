//! The write-ahead event journal.
//!
//! Every ingest command appends its events to the journal *before* they
//! are applied, in one `write_all` from a reused scratch buffer. The
//! crash model is process death (no fsync): a killed service loses at
//! most the tail record of an in-flight write, which recovery detects as
//! a truncated record, discards and cuts off before the journal grows
//! again. Everything the journal holds before that point replays
//! deterministically.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use pscd_cache::{SnapshotError, SnapshotReader};
use pscd_types::LiveEvent;

use crate::config::ServiceError;
use crate::wire::{put_event, read_event, skip_event, JOURNAL_MAGIC};

/// An append-only journal of [`LiveEvent`]s.
#[derive(Debug)]
pub(crate) struct Journal {
    file: File,
    scratch: Vec<u8>,
}

impl Journal {
    /// Creates a fresh journal at `path` (truncating any existing file)
    /// and writes the header.
    pub(crate) fn create(path: &Path) -> Result<Self, ServiceError> {
        let mut file = File::create(path)?;
        file.write_all(JOURNAL_MAGIC)?;
        Ok(Self {
            file,
            scratch: Vec::new(),
        })
    }

    /// Opens an existing journal for appending behind its first `end`
    /// bytes — the header and the whole records [`Journal::read_from`]
    /// found — cutting off a torn tail record, so that the next record
    /// follows the last whole one.
    pub(crate) fn open_append(path: &Path, end: u64) -> Result<Self, ServiceError> {
        let file = OpenOptions::new().append(true).open(path)?;
        file.set_len(end)?;
        Ok(Self {
            file,
            scratch: Vec::new(),
        })
    }

    /// Appends `events` as one contiguous write.
    pub(crate) fn append(&mut self, events: &[LiveEvent]) -> Result<(), ServiceError> {
        self.scratch.clear();
        for ev in events {
            put_event(&mut self.scratch, ev);
        }
        self.file.write_all(&self.scratch)?;
        Ok(())
    }

    /// Reads the journal at `path` from its record `skip` on. The first
    /// `skip` records — the ones a snapshot already covers — are stepped
    /// over by length, tag and wholeness checked, and only the rest are
    /// materialized. A truncated final record (a write cut short by a
    /// crash) is dropped; anything else malformed is an error. A file that
    /// does not exist holds no records. Returns the records and where the
    /// last whole one ends: what [`Journal::open_append`] keeps.
    ///
    /// # Errors
    ///
    /// [`ServiceError::CorruptFile`] for a bad header or fewer than
    /// `skip` whole records; a snapshot error for an unknown record tag.
    pub(crate) fn read_from(path: &Path, skip: u64) -> Result<(Vec<LiveEvent>, u64), ServiceError> {
        let short = ServiceError::CorruptFile("journal shorter than snapshot");
        let buf = match std::fs::read(path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return if skip == 0 {
                    Ok((Vec::new(), 0))
                } else {
                    Err(short)
                };
            }
            Err(e) => return Err(e.into()),
        };
        if buf.len() < JOURNAL_MAGIC.len() || &buf[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(ServiceError::CorruptFile("journal header"));
        }
        let mut r = SnapshotReader::new(&buf[JOURNAL_MAGIC.len()..]);
        for _ in 0..skip {
            match skip_event(&mut r) {
                Ok(()) => {}
                Err(SnapshotError::Truncated { .. }) => return Err(short),
                Err(e) => return Err(e.into()),
            }
        }
        let mut events = Vec::new();
        let mut end = r.position();
        while !r.is_empty() {
            match read_event(&mut r) {
                Ok(ev) => {
                    events.push(ev);
                    end = r.position();
                }
                // A crash mid-write leaves a partial tail record; state
                // was never applied past it, so dropping it is correct.
                Err(SnapshotError::Truncated { .. }) => break,
                Err(e) => return Err(e.into()),
            }
        }
        Ok((events, (JOURNAL_MAGIC.len() + end) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscd_types::{PageId, ServerId, SimTime};

    fn events() -> Vec<LiveEvent> {
        vec![
            LiveEvent::Subscribe {
                page: PageId::new(1),
                server: ServerId::new(0),
                count: 4,
            },
            LiveEvent::Publish {
                time: SimTime::from_secs(1),
                page: PageId::new(1),
            },
            LiveEvent::Request {
                time: SimTime::from_secs(2),
                server: ServerId::new(0),
                page: PageId::new(1),
            },
        ]
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pscd-journal-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.bin")
    }

    #[test]
    fn append_then_read_round_trips() {
        let path = tmp("roundtrip");
        let evs = events();
        {
            let mut j = Journal::create(&path).unwrap();
            j.append(&evs[..2]).unwrap();
            j.append(&evs[2..]).unwrap();
        }
        let (read, end) = Journal::read_from(&path, 0).unwrap();
        assert_eq!(read, evs);
        assert_eq!(end, std::fs::metadata(&path).unwrap().len());
        // Reopen in append mode and extend.
        {
            let mut j = Journal::open_append(&path, end).unwrap();
            j.append(&evs[..1]).unwrap();
        }
        let (all, _) = Journal::read_from(&path, 0).unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(all[3], evs[0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_reads_empty() {
        let path = tmp("missing").with_file_name("nope.bin");
        assert!(Journal::read_from(&path, 0).unwrap().0.is_empty());
    }

    #[test]
    fn truncated_tail_record_is_dropped_and_cut_before_an_append() {
        let path = tmp("truncated");
        {
            let mut j = Journal::create(&path).unwrap();
            j.append(&events()).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (evs, end) = Journal::read_from(&path, 0).unwrap();
        assert_eq!(evs, events()[..2]);
        // The header, an 11-byte subscribe and a 13-byte publish.
        assert_eq!(end, 8 + 11 + 13);
        // The torn bytes go before the record that replaces them.
        Journal::open_append(&path, end)
            .unwrap()
            .append(&events()[2..])
            .unwrap();
        assert_eq!(
            Journal::read_from(&path, 0).unwrap(),
            (events(), full.len() as u64)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_skipped_prefix_is_walked_not_trusted() {
        let path = tmp("prefix");
        let evs = events();
        {
            let mut j = Journal::create(&path).unwrap();
            j.append(&evs).unwrap();
        }
        for skip in 0..=evs.len() {
            let (rest, _) = Journal::read_from(&path, skip as u64).unwrap();
            assert_eq!(rest, evs[skip..], "skip {skip}");
        }
        let short = |r: Result<(Vec<LiveEvent>, u64), ServiceError>| {
            matches!(
                r,
                Err(ServiceError::CorruptFile("journal shorter than snapshot"))
            )
        };
        assert!(short(Journal::read_from(&path, 4)));
        assert!(short(Journal::read_from(
            &path.with_file_name("nope.bin"),
            1
        )));
        // A prefix cut short inside its last record is short as well; the
        // same cut behind the prefix is a dropped tail.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(short(Journal::read_from(&path, 3)));
        assert_eq!(Journal::read_from(&path, 2).unwrap().0, []);
        // An unknown tag inside the prefix is refused, not stepped over:
        // the second record starts behind the header and an 11-byte
        // subscribe.
        let mut bad = full.clone();
        bad[8 + 11] = 9;
        std::fs::write(&path, &bad).unwrap();
        let err = Journal::read_from(&path, 3);
        assert!(matches!(err, Err(ServiceError::Snapshot(_))), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_header_is_corrupt() {
        let path = tmp("badheader");
        std::fs::write(&path, b"NOTAMAGIC").unwrap();
        assert!(matches!(
            Journal::read_from(&path, 0),
            Err(ServiceError::CorruptFile(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
