//! Property suite for the store snapshot codec: after any
//! random churn sequence, `encode_state` → `decode_state` must
//! reproduce a store that is *observably identical* — same population,
//! same values and sizes, same eviction order under `pop_min`, same
//! canonical re-encoding — and must keep behaving identically under
//! further churn.

use proptest::prelude::*;

use pscd_cache::{CacheStore, PageUniverse, SnapshotError, SnapshotReader};
use pscd_types::{Bytes, PageId};

const UNIVERSE: u32 = 48;

/// One random store operation over the fixed page universe.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert (or reinsert) a page; size and value derive from the seed.
    Insert(u32, u64, u32),
    /// Re-stamp an existing page with a new value.
    Update(u32, u32),
    /// Remove a page.
    Remove(u32),
    /// Evict the current minimum.
    PopMin,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..UNIVERSE, 1u64..64, 0u32..1_000).prop_map(|(p, s, v)| Op::Insert(p, s, v)),
        2 => (0..UNIVERSE, 0u32..1_000).prop_map(|(p, v)| Op::Update(p, v)),
        2 => (0..UNIVERSE).prop_map(Op::Remove),
        1 => Just(Op::PopMin),
    ]
}

fn apply(store: &mut CacheStore, op: Op) {
    match op {
        Op::Insert(p, s, v) => store.insert(PageId::new(p), Bytes::new(s), f64::from(v) * 0.5),
        Op::Update(p, v) => {
            store.update_value(PageId::new(p), f64::from(v) * 0.5);
        }
        Op::Remove(p) => {
            store.remove(PageId::new(p));
        }
        Op::PopMin => {
            store.pop_min();
        }
    }
}

/// The pages `0..UNIVERSE`, one byte each: an unbounded store over it is
/// reserved for all of them.
fn universe() -> PageUniverse {
    PageUniverse::new(vec![Bytes::new(1); UNIVERSE as usize])
}

fn encode(store: &CacheStore) -> Vec<u8> {
    let mut out = Vec::new();
    store.encode_state(&mut out);
    out
}

proptest! {
    /// Encode → decode over a random churn history yields a store with
    /// identical observable state, identical canonical bytes, and
    /// identical behavior under further identical churn.
    #[test]
    fn dense_store_round_trips_after_random_churn(
        history in proptest::collection::vec(op_strategy(), 0..200),
        epilogue in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        let mut original = CacheStore::dense(Bytes::new(u64::MAX), &universe());
        for &op in &history {
            apply(&mut original, op);
        }

        let blob = encode(&original);
        let mut restored = CacheStore::dense(Bytes::new(u64::MAX), &universe());
        // Restore must also overwrite pre-existing contents.
        restored.insert(PageId::new(0), Bytes::new(3), 1.0);
        let mut r = SnapshotReader::new(&blob);
        restored.decode_state(&mut r).unwrap();
        prop_assert!(r.is_empty(), "codec left trailing bytes");

        prop_assert_eq!(restored.len(), original.len());
        prop_assert_eq!(restored.used(), original.used());
        for p in 0..UNIVERSE {
            let page = PageId::new(p);
            prop_assert_eq!(restored.contains(page), original.contains(page));
            prop_assert_eq!(restored.value(page), original.value(page));
            prop_assert_eq!(restored.size(page), original.size(page));
        }
        // Canonical form: identical stores encode to identical bytes.
        prop_assert_eq!(&encode(&restored), &blob);

        // Behavioral equivalence: further identical churn (including
        // tie-breaking via stamps) diverges nowhere.
        for &op in &epilogue {
            apply(&mut original, op);
            apply(&mut restored, op);
        }
        let mut a = original;
        let mut b = restored;
        prop_assert_eq!(&encode(&a), &encode(&b));
        loop {
            let (x, y) = (a.pop_min(), b.pop_min());
            prop_assert_eq!(x, y, "eviction order diverged after restore");
            if x.is_none() {
                break;
            }
        }
    }

    /// Corrupt prefixes never panic: every truncation of a valid blob is
    /// rejected with an error (never a silently short store).
    #[test]
    fn truncated_snapshots_are_rejected(
        history in proptest::collection::vec(op_strategy(), 1..100),
        cut in 0usize..100,
    ) {
        let mut store = CacheStore::dense(Bytes::new(u64::MAX), &universe());
        for &op in &history {
            apply(&mut store, op);
        }
        let blob = encode(&store);
        // Clamp instead of discarding: every case must cut inside the
        // blob (the header alone is 12 bytes, so len > 1 always holds).
        let cut = cut % blob.len();
        let mut victim = CacheStore::dense(Bytes::new(u64::MAX), &universe());
        let mut r = SnapshotReader::new(&blob[..cut]);
        prop_assert!(victim.decode_state(&mut r).is_err());
    }
}

/// A page id rewritten past the universe is corrupt — never an
/// out-of-bounds index, never a reason to grow the position table.
#[test]
fn out_of_universe_page_id_is_corrupt() {
    let mut store = CacheStore::dense(Bytes::new(u64::MAX), &universe());
    store.insert(PageId::new(7), Bytes::new(9), 1.5);
    let blob = encode(&store);
    // Header (stamp u64, count u32), then the slot's value and stamp.
    let page_word = 12 + 16;
    assert_eq!(blob[page_word..page_word + 4], 7u32.to_le_bytes());
    for id in [UNIVERSE, UNIVERSE + 1, u32::MAX] {
        let mut bad = blob.clone();
        bad[page_word..page_word + 4].copy_from_slice(&id.to_le_bytes());
        let mut victim = CacheStore::dense(Bytes::new(u64::MAX), &universe());
        let err = victim.decode_state(&mut SnapshotReader::new(&bad));
        assert!(
            matches!(err, Err(SnapshotError::Corrupt(_))),
            "{id}: {err:?}"
        );
    }
}
