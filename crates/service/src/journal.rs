//! The write-ahead event journal.
//!
//! Every ingest command appends its events to the journal *before* they
//! are applied, in one `write_all` from a reused scratch buffer. The
//! crash model is process death (no fsync): a killed service loses at
//! most the tail record of an in-flight write, which recovery detects as
//! a truncated record, discards and cuts off before the journal grows
//! again. Everything the journal holds before that point replays
//! deterministically. Recovery reads the journal through a buffer of
//! fixed size, so the file is never in memory whole.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Write};
use std::path::Path;

use pscd_cache::{SnapshotError, SnapshotReader};
use pscd_types::LiveEvent;

use crate::config::ServiceError;
use crate::wire::{put_event, read_event, record_len, JOURNAL_MAGIC, MAX_RECORD_LEN};

/// The bytes recovery reads the journal through: about five thousand
/// records a refill.
const READ_BUF: usize = 1 << 16;

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

    /// Reads the journal at `path` from its record `skip` on, through a
    /// buffer of fixed size. The first `skip` records — the ones a
    /// snapshot already covers — are stepped over by length, tag and
    /// wholeness checked, and only the rest are decoded. A truncated
    /// final record (a write cut short by a crash) is dropped; anything
    /// else malformed is an error. A file that does not exist holds no
    /// records. Returns the records and where the last whole one ends:
    /// what [`Journal::open_append`] keeps, and 0 for no file.
    ///
    /// # Errors
    ///
    /// [`ServiceError::CorruptFile`] for a bad header or fewer than
    /// `skip` whole records; a snapshot error for an unknown record tag.
    pub(crate) fn read_from(path: &Path, skip: u64) -> Result<(Vec<LiveEvent>, u64), ServiceError> {
        read_through(path, skip, READ_BUF)
    }
}

/// [`Journal::read_from`] through a buffer of `buf_len` bytes, which holds
/// at least the header and a whole record.
fn read_through(
    path: &Path,
    skip: u64,
    buf_len: usize,
) -> Result<(Vec<LiveEvent>, u64), ServiceError> {
    let short = ServiceError::CorruptFile("journal shorter than snapshot");
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == ErrorKind::NotFound => {
            return if skip == 0 {
                Ok((Vec::new(), 0))
            } else {
                Err(short)
            };
        }
        Err(e) => return Err(e.into()),
    };
    let mut records = Records::new(file, buf_len);
    if records.header()? != Some(&JOURNAL_MAGIC[..]) {
        return Err(ServiceError::CorruptFile("journal header"));
    }
    if records.skip(skip)? < skip {
        return Err(short);
    }
    let mut events = Vec::new();
    // A crash mid-write leaves a partial tail record; state was never
    // applied past it, so dropping it is correct.
    while let Some(record) = records.next()? {
        events.push(read_event(&mut SnapshotReader::new(record))?);
    }
    Ok((events, records.offset()))
}

/// A journal's records one after another, read through a buffer of fixed
/// size.
struct Records {
    file: File,
    buf: Box<[u8]>,
    /// The bytes read and not yet taken: `buf[at..len]`.
    at: usize,
    len: usize,
    /// The file offset of `buf[0]`.
    base: u64,
}

impl Records {
    fn new(file: File, buf_len: usize) -> Self {
        assert!(buf_len >= JOURNAL_MAGIC.len().max(MAX_RECORD_LEN));
        Self {
            file,
            buf: vec![0; buf_len].into_boxed_slice(),
            at: 0,
            len: 0,
            base: 0,
        }
    }

    /// The file offset of the next byte to take: behind the last whole
    /// record taken.
    fn offset(&self) -> u64 {
        self.base + self.at as u64
    }

    /// Whether `n` bytes are left to take, refilling the buffer behind
    /// what is left of it when fewer are: `false` only at the end of the
    /// file.
    fn fill(&mut self, n: usize) -> Result<bool, ServiceError> {
        if self.len - self.at >= n {
            return Ok(true);
        }
        self.buf.copy_within(self.at..self.len, 0);
        self.base += self.at as u64;
        self.len -= self.at;
        self.at = 0;
        while self.len < self.buf.len() {
            match self.file.read(&mut self.buf[self.len..]) {
                Ok(0) => break,
                Ok(read) => self.len += read,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(self.len - self.at >= n)
    }

    /// Takes the file's header; `None` if the file is shorter than one.
    fn header(&mut self) -> Result<Option<&[u8]>, ServiceError> {
        let n = JOURNAL_MAGIC.len();
        if !self.fill(n)? {
            return Ok(None);
        }
        self.at += n;
        Ok(Some(&self.buf[..n]))
    }

    /// The length of the record at the next byte, which must be there.
    fn record_len(&self) -> Result<usize, SnapshotError> {
        record_len(self.buf[self.at]).ok_or(SnapshotError::Corrupt("unknown journal record tag"))
    }

    /// Takes the next whole record; `None` at the end of the file or
    /// before a record cut short there.
    fn next(&mut self) -> Result<Option<&[u8]>, ServiceError> {
        if !self.fill(1)? {
            return Ok(None);
        }
        let len = self.record_len()?;
        if !self.fill(len)? {
            return Ok(None);
        }
        self.at += len;
        Ok(Some(&self.buf[self.at - len..self.at]))
    }

    /// Steps over up to `n` whole records, tag and wholeness checked, and
    /// returns how many there were.
    fn skip(&mut self, n: u64) -> Result<u64, ServiceError> {
        let mut skipped = 0;
        while skipped < n {
            // Every record wholly in the buffer, without a refill check.
            while skipped < n && self.len - self.at >= MAX_RECORD_LEN {
                self.at += self.record_len()?;
                skipped += 1;
            }
            if skipped < n {
                match self.next()? {
                    Some(_) => skipped += 1,
                    None => break,
                }
            }
        }
        Ok(skipped)
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

    /// A journal of `n` records cycling through [`events`] (11, 13 and 15
    /// bytes): longer than every buffer [`seams`] reads it through.
    fn long_journal(name: &str, n: usize) -> (std::path::PathBuf, Vec<LiveEvent>) {
        let path = tmp(name);
        let evs: Vec<LiveEvent> = events().into_iter().cycle().take(n).collect();
        Journal::create(&path).unwrap().append(&evs).unwrap();
        (path, evs)
    }

    /// What the reader answered before it read through a buffer: the
    /// whole file in memory, each covered record stepped over by the
    /// length its tag gives.
    fn read_whole(path: &Path, skip: u64) -> Result<(Vec<LiveEvent>, u64), ServiceError> {
        let short = ServiceError::CorruptFile("journal shorter than snapshot");
        let buf = match std::fs::read(path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::NotFound => {
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
            let step = r.read_u8().and_then(|tag| {
                let len =
                    record_len(tag).ok_or(SnapshotError::Corrupt("unknown journal record tag"));
                r.read_bytes(len? - 1)
            });
            match step {
                Ok(_) => {}
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
                Err(SnapshotError::Truncated { .. }) => break,
                Err(e) => return Err(e.into()),
            }
        }
        Ok((events, (JOURNAL_MAGIC.len() + end) as u64))
    }

    /// Reads `path` from record `skip` on through every buffer from the
    /// longest record to 80 bytes — so that each seam of the file falls at
    /// every offset of a refill — and through the real one; each must
    /// answer as [`read_whole`] does. Returns that answer.
    fn seams(path: &Path, skip: u64) -> String {
        let want = format!("{:?}", read_whole(path, skip));
        for buf_len in (MAX_RECORD_LEN..=80).chain([READ_BUF]) {
            let got = format!("{:?}", read_through(path, skip, buf_len));
            assert_eq!(got, want, "skip {skip}, buffer of {buf_len} bytes");
        }
        want
    }

    fn answer(events: &[LiveEvent], end: usize) -> String {
        format!("{:?}", Ok::<_, ServiceError>((events.to_vec(), end as u64)))
    }

    /// A record's end offset in [`long_journal`]'s file.
    fn record_end(evs: &[LiveEvent], records: usize) -> usize {
        let mut buf = Vec::new();
        evs[..records].iter().for_each(|ev| put_event(&mut buf, ev));
        JOURNAL_MAGIC.len() + buf.len()
    }

    #[test]
    fn a_covered_prefix_ending_at_a_refill_is_walked_whole() {
        let (path, evs) = long_journal("seam-prefix", 60);
        let len = record_end(&evs, evs.len());
        for skip in 0..=evs.len() {
            assert_eq!(seams(&path, skip as u64), answer(&evs[skip..], len));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_suffix_record_split_across_refills_decodes_whole() {
        let (path, evs) = long_journal("seam-suffix", 60);
        let len = record_end(&evs, evs.len());
        for skip in [0, 1, 2, 29] {
            assert_eq!(seams(&path, skip as u64), answer(&evs[skip..], len));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_torn_tail_after_a_refill_is_dropped() {
        let (path, evs) = long_journal("seam-torn", 60);
        let full = std::fs::read(&path).unwrap();
        let whole = record_end(&evs, evs.len() - 1);
        for cut in whole..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            for skip in [0, 30, evs.len() - 1] {
                let want = answer(&evs[skip..evs.len() - 1], whole);
                assert_eq!(seams(&path, skip as u64), want, "cut at {cut}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fewer_whole_records_than_covered_is_short() {
        let (path, evs) = long_journal("seam-short", 60);
        let short = format!(
            "{:?}",
            Err::<(), _>(ServiceError::CorruptFile("journal shorter than snapshot"))
        );
        assert_eq!(seams(&path, evs.len() as u64 + 1), short);
        // Cut inside the last record, the journal holds one too few.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 1]).unwrap();
        assert_eq!(seams(&path, evs.len() as u64), short);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_unknown_tag_in_the_covered_prefix_is_refused() {
        let (path, evs) = long_journal("seam-tag", 60);
        let mut bad = std::fs::read(&path).unwrap();
        let at = record_end(&evs, 40);
        bad[at] = 9;
        std::fs::write(&path, &bad).unwrap();
        let refused = format!(
            "{:?}",
            Err::<(), _>(ServiceError::from(SnapshotError::Corrupt(
                "unknown journal record tag"
            )))
        );
        // Covered or not, the record is refused; the records before it
        // are read.
        for skip in [0, 39, 40, 41, 60] {
            assert_eq!(seams(&path, skip), refused, "skip {skip}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_read_buffer_walks_a_journal_longer_than_itself() {
        let n = 3 * READ_BUF / 13;
        let (path, evs) = long_journal("seam-long", n);
        let len = record_end(&evs, n);
        assert!(len > 2 * READ_BUF);
        for skip in [0, n / 3, n / 2, n - 1, n] {
            assert_eq!(
                format!("{:?}", Journal::read_from(&path, skip as u64)),
                answer(&evs[skip..], len)
            );
        }
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
