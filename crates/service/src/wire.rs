//! On-disk encodings: journal records and snapshot file sections.
//!
//! Everything rides on the canonical little-endian codec from
//! [`pscd_cache::snapshot`], so a byte string written by one process
//! decodes identically in another — the property the crash-recovery
//! tests depend on.
//!
//! A snapshot file (`PSCDSNP1`) is the number of journal records it
//! covers, the page count, the subscription counts page by page (each
//! row's servers ascending, no count zero), the version heads, the
//! fleet's merged hourly series, the fleet size, then per server in
//! order its accounting and its strategy's blob behind the blob's
//! length.

use std::ops::Range;

use pscd_broker::Traffic;
use pscd_cache::snapshot::{put_u16, put_u32, put_u64, put_u8};
use pscd_cache::{SnapshotError, SnapshotReader};
use pscd_obs::Observer;
use pscd_sim::resolve::VersionHeads;
use pscd_sim::{HourlySeries, ReplayState};
use pscd_types::{Bytes, LiveEvent, PageId, ServerId, SimTime, SubscriptionTable};

use crate::config::{ServiceConfig, ServiceError};

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

/// The longest journal record, tag included.
pub(crate) const MAX_RECORD_LEN: usize = 1 + 8 + 2 + 4;

/// The length of a journal record whose tag is `tag`, tag included —
/// what [`read_event`] consumes; `None` for an unknown tag.
pub(crate) fn record_len(tag: u8) -> Option<usize> {
    match tag {
        TAG_SUBSCRIBE => Some(1 + 4 + 2 + 4),
        TAG_PUBLISH => Some(1 + 8 + 4),
        TAG_REQUEST => Some(MAX_RECORD_LEN),
        _ => None,
    }
}

/// Starts a snapshot file in `out` (cleared first): the header and the
/// subscription rows. Only a subscribe changes the rows, so a later
/// snapshot keeps them ([`restamp_snapshot_rows`]) until one does.
pub(crate) fn put_snapshot_rows(
    out: &mut Vec<u8>,
    events_applied: u64,
    counts: &SubscriptionTable,
) {
    out.clear();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u64(out, events_applied);
    put_u32(out, counts.page_count() as u32);
    for page in (0..counts.page_count() as u32).map(PageId::new) {
        let row = counts.matched_servers(page);
        put_u32(out, row.len() as u32);
        for &(server, count) in row {
            put_u16(out, server.index());
            put_u32(out, count);
        }
    }
}

/// Cuts the snapshot file in `out` back to its first `rows_end` bytes —
/// the header and rows [`put_snapshot_rows`] wrote — and stamps it as
/// covering `events_applied` journal records.
pub(crate) fn restamp_snapshot_rows(out: &mut Vec<u8>, rows_end: usize, events_applied: u64) {
    out.truncate(rows_end);
    out[SNAPSHOT_MAGIC.len()..][..8].copy_from_slice(&events_applied.to_le_bytes());
}

/// What a worker's shard contributes to a snapshot: its hourly series and
/// its servers' records as the snapshot file holds them, in range order.
#[derive(Debug)]
pub(crate) struct ShardSnap {
    hourly: HourlySeries,
    servers: Vec<u8>,
}

/// Takes a worker shard's part of a snapshot, on the worker's thread.
pub(crate) fn shard_snap<O: Observer>(shard: &ReplayState<O>) -> ShardSnap {
    let mut servers = Vec::new();
    encode_servers(shard, shard.servers(), &mut servers);
    let hourly = shard.hourly().clone();
    ShardSnap { hourly, servers }
}

/// Ends a snapshot file whose rows are in `out`: the version `heads`,
/// then a fleet of `server_count` proxies — shard 0's encoded straight
/// into `out`, then the shards the `workers` send, in order. The workers
/// are waited for only once shard 0 is encoded; the fleet's hourly
/// series, which merges theirs, is written where shard 0's held its
/// place (the series has a fixed length).
pub(crate) fn put_snapshot_fleet<O: Observer>(
    out: &mut Vec<u8>,
    heads: &VersionHeads,
    server_count: u16,
    shard: &ReplayState<O>,
    workers: impl FnOnce() -> Result<Vec<ShardSnap>, ServiceError>,
) -> Result<(), ServiceError> {
    // Sized once, then filled: the section is a word per page.
    let at = out.len();
    out.resize(at + 4 * heads.page_count(), 0);
    for (word, latest) in out[at..].chunks_exact_mut(4).zip(heads.heads()) {
        word.copy_from_slice(&latest.map_or(u32::MAX, PageId::index).to_le_bytes());
    }
    let hourly_at = out.len();
    put_hourly(out, shard.hourly());
    put_u16(out, server_count);
    encode_servers(shard, shard.servers(), out);
    let workers = workers()?;
    if !workers.is_empty() {
        let mut hourly = shard.hourly().clone();
        for worker in &workers {
            hourly.absorb(&worker.hourly);
        }
        let words = out[hourly_at + 4..].chunks_exact_mut(8);
        for (word, v) in words.zip(hourly_words(&hourly)) {
            word.copy_from_slice(&v.to_le_bytes());
        }
    }
    for worker in &workers {
        out.extend_from_slice(&worker.servers);
    }
    Ok(())
}

/// Appends the shard's servers `range` to a snapshot file, in order: each
/// one's accounting, then its strategy blob behind its length. The
/// strategy encodes straight into `out`; the length is patched in behind
/// it.
pub(crate) fn encode_servers<O: Observer>(
    shard: &ReplayState<O>,
    range: Range<u16>,
    out: &mut Vec<u8>,
) {
    let engine = shard.engine();
    for server in range.map(ServerId::new) {
        let (hits, requests) = engine.hit_stats(server);
        let traffic = engine.traffic(server);
        put_u64(out, hits);
        put_u64(out, requests);
        put_u64(out, traffic.pushed_pages);
        put_u64(out, traffic.pushed_bytes.as_u64());
        put_u64(out, traffic.fetched_pages);
        put_u64(out, traffic.fetched_bytes.as_u64());
        let at = out.len();
        put_u32(out, 0);
        engine.strategy(server).encode_snapshot(out);
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// The series' buckets in file order, behind the hour count.
fn hourly_words(hourly: &HourlySeries) -> impl Iterator<Item = u64> + '_ {
    [
        &hourly.hits,
        &hourly.requests,
        &hourly.pushed_pages,
        &hourly.pushed_bytes,
        &hourly.fetched_pages,
        &hourly.fetched_bytes,
    ]
    .into_iter()
    .flatten()
    .copied()
}

fn put_hourly(out: &mut Vec<u8>, hourly: &HourlySeries) {
    put_u32(out, hourly.hours() as u32);
    for v in hourly_words(hourly) {
        put_u64(out, v);
    }
}

/// Reads a series [`put_hourly`] wrote, which must span `hours` buckets.
fn read_hourly(r: &mut SnapshotReader<'_>, hours: usize) -> Result<HourlySeries, ServiceError> {
    if r.read_u32()? as usize != hours {
        return Err(ServiceError::CorruptFile("snapshot hour count"));
    }
    let mut hourly = HourlySeries::new(hours);
    for series in [
        &mut hourly.hits,
        &mut hourly.requests,
        &mut hourly.pushed_pages,
        &mut hourly.pushed_bytes,
        &mut hourly.fetched_pages,
        &mut hourly.fetched_bytes,
    ] {
        for v in series.iter_mut() {
            *v = r.read_u64()?;
        }
    }
    Ok(hourly)
}

/// One proxy's share of a decoded snapshot file: its accounting, and
/// where in the file its strategy blob lies.
#[derive(Debug)]
pub(crate) struct ServerSnap {
    hits: u64,
    requests: u64,
    traffic: Traffic,
    blob: Range<usize>,
}

/// Decodes one server record (what [`encode_servers`] wrote for it),
/// leaving the blob where it is: `r` must read the file from its first
/// byte, so that positions are file offsets.
fn read_server_snap(r: &mut SnapshotReader<'_>) -> Result<ServerSnap, SnapshotError> {
    let hits = r.read_u64()?;
    let requests = r.read_u64()?;
    let traffic = Traffic {
        pushed_pages: r.read_u64()?,
        pushed_bytes: Bytes::new(r.read_u64()?),
        fetched_pages: r.read_u64()?,
        fetched_bytes: Bytes::new(r.read_u64()?),
    };
    let len = r.read_u32()? as usize;
    let at = r.position();
    r.read_bytes(len)?;
    Ok(ServerSnap {
        hits,
        requests,
        traffic,
        blob: at..at + len,
    })
}

/// Restores servers `range` of `shard`, each fresh, from `records`.
pub(crate) fn restore_servers<O: Observer>(
    shard: &mut ReplayState<O>,
    records: &ServerRecords,
    range: Range<u16>,
) -> Result<(), SnapshotError> {
    let engine = shard.engine_mut();
    for server in range.map(ServerId::new) {
        let snap = records.servers[server.as_usize()]
            .as_ref()
            .expect("the records carry every server they restore");
        let mut r = SnapshotReader::new(&records.file[snap.blob.clone()]);
        engine.restore_strategy(server, &mut r)?;
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt("trailing bytes in strategy blob"));
        }
        engine.restore_accounting(server, snap.hits, snap.requests, snap.traffic);
    }
    Ok(())
}

/// What a service starts from: a decoded snapshot file, or nothing yet.
pub(crate) struct SnapshotState {
    pub(crate) events_applied: u64,
    pub(crate) counts: SubscriptionTable,
    pub(crate) heads: VersionHeads,
    pub(crate) restore: Option<FleetRestore>,
}

impl SnapshotState {
    /// The state of a service over `pages` pages that has ingested nothing.
    pub(crate) fn fresh(pages: usize) -> Self {
        Self {
            events_applied: 0,
            counts: SubscriptionTable::empty(pages),
            heads: VersionHeads::new(pages),
            restore: None,
        }
    }
}

/// The fleet's share of a decoded snapshot file: every server's record
/// and the merged hourly series.
#[derive(Debug)]
pub(crate) struct FleetRestore {
    pub(crate) servers: ServerRecords,
    pub(crate) hourly: HourlySeries,
}

/// Proxy records as a snapshot file holds them ([`encode_servers`]),
/// blobs left in the bytes they were read from: a whole fleet's, restored
/// from a file, or the proxies a re-plan moves between shards, which
/// travel in memory.
#[derive(Debug)]
pub(crate) struct ServerRecords {
    file: Vec<u8>,
    /// Indexed by server; `None` for one the records do not carry.
    servers: Vec<Option<ServerSnap>>,
}

impl ServerRecords {
    /// The records of `servers`, in ascending order and one after another
    /// in `bytes`, among a fleet of `fleet` proxies.
    pub(crate) fn read(
        bytes: Vec<u8>,
        servers: impl IntoIterator<Item = u16>,
        fleet: u16,
    ) -> Result<Self, SnapshotError> {
        let mut snaps: Vec<Option<ServerSnap>> = (0..fleet).map(|_| None).collect();
        let mut r = SnapshotReader::new(&bytes);
        for server in servers {
            snaps[usize::from(server)] = Some(read_server_snap(&mut r)?);
        }
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt("trailing server record bytes"));
        }
        Ok(Self {
            file: bytes,
            servers: snaps,
        })
    }
}

/// Decodes a snapshot file, checking every length and id against `config`
/// before it allocates for it or stores it.
pub(crate) fn decode_snapshot_file(
    file: Vec<u8>,
    config: &ServiceConfig,
) -> Result<SnapshotState, ServiceError> {
    // From the file's first byte, so that positions are file offsets.
    let mut r = SnapshotReader::new(&file);
    if r.read_bytes(SNAPSHOT_MAGIC.len()).ok() != Some(&SNAPSHOT_MAGIC[..]) {
        return Err(ServiceError::CorruptFile("snapshot header"));
    }
    let events_applied = r.read_u64()?;
    let page_count = r.read_u32()? as usize;
    if page_count != config.pages.len() {
        return Err(ServiceError::CorruptFile("snapshot page universe"));
    }
    // Bound what the file says before allocating for it: a row lists each
    // proxy at most once, in ascending order, and never a zero count
    // (which would offer a publish to a proxy with no subscription).
    let fleet = config.server_count();
    let mut rows = Vec::with_capacity(page_count);
    for _ in 0..page_count {
        let len = r.read_u32()? as usize;
        if len > fleet as usize {
            return Err(ServiceError::CorruptFile("snapshot row length"));
        }
        // Grown as a live subscribe grows a row, not allocated at its
        // length: rows of exact sizes, freed with the service, left the
        // allocator holding megabytes more after each later lifetime.
        let mut row: Vec<(ServerId, u32)> = Vec::new();
        for _ in 0..len {
            let server = r.read_u16()?;
            if row.last().is_some_and(|&(last, _)| last.index() >= server) || server >= fleet {
                return Err(ServiceError::CorruptFile("snapshot row servers"));
            }
            let count = r.read_u32()?;
            if count == 0 {
                return Err(ServiceError::CorruptFile("snapshot row count"));
            }
            row.push((ServerId::new(server), count));
        }
        rows.push(row);
    }
    let mut heads = Vec::with_capacity(page_count);
    for _ in 0..page_count {
        let head = match r.read_u32()? {
            u32::MAX => None,
            raw if (raw as usize) < page_count => Some(PageId::new(raw)),
            _ => return Err(ServiceError::CorruptFile("snapshot version head")),
        };
        heads.push(head);
    }
    let hourly = read_hourly(&mut r, config.hours)?;
    let server_count = r.read_u16()?;
    if server_count != fleet {
        return Err(ServiceError::CorruptFile("snapshot fleet size"));
    }
    let servers = (0..server_count).map(|_| read_server_snap(&mut r).map(Some));
    let servers = servers.collect::<Result<Vec<_>, _>>()?;
    if !r.is_empty() {
        return Err(ServiceError::CorruptFile("trailing snapshot bytes"));
    }
    Ok(SnapshotState {
        events_applied,
        counts: SubscriptionTable::from_rows(rows),
        heads: VersionHeads::from_heads(heads),
        restore: Some(FleetRestore {
            servers: ServerRecords { file, servers },
            hourly,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::fs;

    use crate::core::{ServiceCore, SNAPSHOT_FILE};
    use crate::test_support::{publish, tiny_config};

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
        assert_eq!(record_len(9), None);
    }

    #[test]
    fn a_record_is_as_long_as_reading_it_consumes() {
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
            let mut read = SnapshotReader::new(&buf);
            read_event(&mut read).unwrap();
            assert_eq!(record_len(buf[0]), Some(read.position()), "{ev:?}");
            assert!(read.position() <= MAX_RECORD_LEN);
            // Cut anywhere inside the record, reading it is truncated.
            for cut in 0..read.position() {
                let mut r = SnapshotReader::new(&buf[..cut]);
                let err = read_event(&mut r);
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

    #[test]
    fn hourly_round_trips() {
        let mut h = HourlySeries::new(3);
        h.record_request(
            pscd_types::SimTime::from_hours(1),
            false,
            pscd_types::Bytes::new(7),
        );
        h.record_push(
            pscd_types::SimTime::from_hours(2),
            pscd_types::Bytes::new(9),
        );
        let mut out = Vec::new();
        put_hourly(&mut out, &h);
        let mut r = SnapshotReader::new(&out);
        assert_eq!(read_hourly(&mut r, 3).unwrap(), h);
        assert!(r.is_empty());
    }

    /// The snapshot file of a journaled two-proxy, three-page service whose
    /// page 0 row lists both proxies and whose page 0 was published (it
    /// heads its own lineage), and the config that recovers from it.
    fn persisted_snapshot(tag: &str) -> (ServiceConfig, Vec<u8>) {
        let dir =
            std::env::temp_dir().join(format!("pscd-service-corrupt-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let config = tiny_config(2, 3).with_persistence(dir.clone(), 0);
        let mut core = ServiceCore::new(config.clone()).unwrap();
        for server in [0, 1] {
            core.ingest(LiveEvent::Subscribe {
                page: PageId::new(0),
                server: ServerId::new(server),
                count: 1,
            })
            .unwrap();
        }
        core.ingest(publish(0)).unwrap();
        core.snapshot_now().unwrap();
        drop(core);
        let file = fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        (config, file)
    }

    /// Offsets in [`persisted_snapshot`]'s file: page 0's row length, its
    /// two server ids and their counts, the first version head and the
    /// hour count.
    const ROW_0: usize = SNAPSHOT_MAGIC.len() + 8 + 4;
    const ROW_0_SERVERS: [usize; 2] = [ROW_0 + 4, ROW_0 + 10];
    const ROW_0_COUNTS: [usize; 2] = [ROW_0 + 6, ROW_0 + 12];
    const HEAD_0: usize = ROW_0 + 16 + 2 * 4;
    const HOURS: usize = HEAD_0 + 3 * 4;

    /// Recovers from `file` with `patch` written at `at`, then removes the
    /// persistence directory.
    fn recover_patched(
        config: &ServiceConfig,
        file: &[u8],
        at: usize,
        patch: &[u8],
    ) -> Result<ServiceCore, ServiceError> {
        let mut file = file.to_vec();
        file[at..at + patch.len()].copy_from_slice(patch);
        let dir = config.dir.as_ref().unwrap();
        fs::write(dir.join(SNAPSHOT_FILE), file).unwrap();
        let recovered = ServiceCore::recover(config.clone());
        fs::remove_dir_all(dir).ok();
        recovered
    }

    fn assert_corrupt(recovered: Result<ServiceCore, ServiceError>, what: &str) {
        match recovered {
            Err(ServiceError::CorruptFile(field)) => assert_eq!(field, what),
            other => panic!("expected a corrupt {what}: {other:?}"),
        }
    }

    /// Regression: the length was allocated for before it was read, and
    /// `u32::MAX` aborted the process.
    #[test]
    fn snapshot_row_longer_than_the_fleet_is_corrupt() {
        let (config, file) = persisted_snapshot("row-length");
        assert!(recover_patched(&config, &file, ROW_0, &2u32.to_le_bytes()).is_ok());
        for len in [3, u32::MAX] {
            let (config, file) = persisted_snapshot("row-length");
            let recovered = recover_patched(&config, &file, ROW_0, &len.to_le_bytes());
            assert_corrupt(recovered, "snapshot row length");
        }
    }

    /// Regression: a row naming a proxy outside the fleet recovered `Ok`.
    #[test]
    fn snapshot_row_servers_out_of_order_or_outside_the_fleet_are_corrupt() {
        for (at, server) in [(1, 9u16), (1, 2), (1, 0), (0, 1)] {
            let (config, file) = persisted_snapshot("row-servers");
            let at = ROW_0_SERVERS[at];
            let recovered = recover_patched(&config, &file, at, &server.to_le_bytes());
            assert_corrupt(recovered, "snapshot row servers");
        }
    }

    /// Regression: a zero count recovered `Ok`, and a publish then offered
    /// the page to a proxy with no subscription.
    #[test]
    fn snapshot_row_count_of_zero_is_corrupt() {
        let (config, file) = persisted_snapshot("row-count");
        let at = ROW_0_COUNTS[0];
        assert!(recover_patched(&config, &file, at, &5u32.to_le_bytes()).is_ok());
        for at in ROW_0_COUNTS {
            let (config, file) = persisted_snapshot("row-count");
            let recovered = recover_patched(&config, &file, at, &0u32.to_le_bytes());
            assert_corrupt(recovered, "snapshot row count");
        }
    }

    #[test]
    fn snapshot_version_head_outside_the_page_universe_is_corrupt() {
        let (config, file) = persisted_snapshot("head");
        assert!(recover_patched(&config, &file, HEAD_0, &2u32.to_le_bytes()).is_ok());
        let (config, file) = persisted_snapshot("head");
        let recovered = recover_patched(&config, &file, HEAD_0, &3u32.to_le_bytes());
        assert_corrupt(recovered, "snapshot version head");
    }

    #[test]
    fn snapshot_hour_count_other_than_the_configs_is_corrupt() {
        for hours in [0, 2, u32::MAX] {
            let (config, file) = persisted_snapshot("hours");
            let recovered = recover_patched(&config, &file, HOURS, &hours.to_le_bytes());
            assert_corrupt(recovered, "snapshot hour count");
        }
    }
}
