//! Frozen, data-oriented match kernel.
//!
//! [`FrozenIndex`] is an immutable compilation of one
//! [`SubscriptionIndex`] — or of a whole fleet's, one per proxy — into a
//! single set of flat arrays: every string is interned into a dense `u32`
//! symbol ([`SymbolTable`]), the nested hash-map buckets become CSR arrays
//! searched by integer keys, and the counting state becomes one
//! epoch-stamped array of u64 words, so the common subscription shapes
//! never touch a per-subscription counter:
//!
//! * **Singles** (one predicate — the common case): ordinal bits in a u64
//!   bitset; a satisfied predicate is one `OR`, a match is a set bit, a
//!   count is a popcount.
//! * **Doubles** (two predicates): two parallel bitsets, one per predicate
//!   slot; a match is `slot0 & slot1` per word.
//! * **Multis** (three or more): one satisfied-predicate counter each,
//!   exactly like the mutable index.
//!
//! A bucket entry is a `u32` *token*, the address of what a satisfied
//! predicate bumps: a bit of the singles' bitset, of the doubles' slot-0
//! or slot-1 bitset, or (past the bits) a multi's counter word.
//!
//! **The proxy is a dimension of the index, not a reason for a second
//! one.** Every bucket key carries the proxy in its low 16 bits, so the
//! buckets of all proxies for one content key are adjacent; and ordinals
//! are laid out proxy-major inside each class, each proxy's range rounded
//! up to a whole 64-bit word, so every bitset word and every counter
//! belongs to exactly one proxy. A publish searches each content key once,
//! bumps the adjacent entries of every proxy, and folds the touched words
//! into one count per proxy; a request searches the exact `(key, proxy)`
//! bucket and touches that proxy's words only. Both run the same
//! `accumulate`, restricted to a range of proxies (`Lanes`). An index
//! frozen from one [`SubscriptionIndex`] is the one-proxy fleet.
//!
//! Words are epoch-stamped and reset lazily on first touch, so a match
//! clears nothing and allocates nothing: the hot loop is integer binary
//! searches plus word ORs. Numeric range predicates are laid out as
//! parallel SoA arrays (`lo[]`, `hi[]`, `tok[]`) scanned with a
//! branch-free bounds test the compiler can vectorize.
//!
//! Content is symbolized **once per publish** into a [`SymView`] (owned by
//! the caller's [`MatchScratch`]), so the loop does no string hashing.
//!
//! The mutable [`SubscriptionIndex`] stays the build-time front end:
//! freeze once after synthesis, rebuild on (rare) subscription churn.

use std::collections::BTreeSet;
use std::ops::Range;

use pscd_types::ServerId;

use crate::symbol::NO_SYM;
use crate::{
    Content, MatchScratch, Op, Predicate, Subscription, SubscriptionId, SubscriptionIndex,
    SymbolTable, Value,
};

/// A content descriptor translated into symbol space: attribute names and
/// string values replaced by their [`SymbolTable`] symbols, tags flattened
/// into a sorted symbol slice, string bytes copied into one reusable
/// buffer (prefix predicates still need them). Attributes whose name no
/// predicate interned are dropped — nothing can match them.
///
/// A view is plain owned data with no lifetime ties, so one lives inside
/// each [`MatchScratch`] and is rebuilt (allocation-free after warm-up)
/// per publish via [`MatchScratch::symbolize`].
#[derive(Debug, Clone, Default)]
pub struct SymView {
    attrs: Vec<SymAttr>,
    tag_syms: Vec<u32>,
    str_buf: String,
}

#[derive(Debug, Clone)]
struct SymAttr {
    name_sym: u32,
    val: SymVal,
}

#[derive(Debug, Clone)]
enum SymVal {
    Int(i64),
    /// `sym` is [`NO_SYM`] when no predicate interned the string; the byte
    /// range into [`SymView::str_buf`] serves prefix predicates.
    Str {
        sym: u32,
        start: u32,
        end: u32,
    },
    /// Sorted interned tag symbols in `tag_syms[start..end]`; `total` is
    /// the full tag count including uninterned ones (set-equality needs
    /// it).
    Tags {
        start: u32,
        end: u32,
        total: u32,
    },
}

impl SymView {
    fn symbolize(&mut self, table: &SymbolTable, content: &Content) {
        self.attrs.clear();
        self.tag_syms.clear();
        self.str_buf.clear();
        for (name, value) in content.iter() {
            let Some(name_sym) = table.name_sym(name) else {
                continue;
            };
            let val = match value {
                Value::Int(i) => SymVal::Int(*i),
                Value::Str(s) => {
                    let start = self.str_buf.len() as u32;
                    self.str_buf.push_str(s);
                    SymVal::Str {
                        sym: table.string_sym(s).unwrap_or(NO_SYM),
                        start,
                        end: self.str_buf.len() as u32,
                    }
                }
                Value::Tags(tags) => {
                    let start = self.tag_syms.len() as u32;
                    for tag in tags {
                        if let Some(sym) = table.string_sym(tag) {
                            self.tag_syms.push(sym);
                        }
                    }
                    self.tag_syms[start as usize..].sort_unstable();
                    SymVal::Tags {
                        start,
                        end: self.tag_syms.len() as u32,
                        total: tags.len() as u32,
                    }
                }
            };
            self.attrs.push(SymAttr { name_sym, val });
        }
    }
}

/// Epoch-stamped state for the frozen kernel, embedded in
/// [`MatchScratch`]: one array of u64 words — the singles' bitset, the
/// doubles' slot-0 and slot-1 bitsets, then one satisfied-predicate counter
/// per multi — addressed directly by token. A word is live only when its
/// stamp equals the current epoch; a new match bumps the epoch in O(1) and
/// resets each word lazily on first touch.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrozenScratch {
    epoch: u32,
    words: Vec<u64>,
    stamp: Vec<u32>,
    touched: Vec<u32>,
    /// A publish's matches per proxy, wildcards plus what the touched
    /// words fold to.
    lane_counts: Vec<u32>,
    view: SymView,
}

impl FrozenScratch {
    fn begin(&mut self, words: usize) {
        if self.stamp.len() < words {
            self.stamp.resize(words, 0);
            self.words.resize(words, 0);
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: every stamp is stale, reset them all once.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }
}

impl MatchScratch {
    /// Translates `content` into symbol space against `table`, storing the
    /// view in this scratch. One symbolization serves any number of
    /// [`FrozenIndex::matches_view_into`] /
    /// [`FrozenIndex::match_count_view`] calls against indexes frozen with
    /// the same table.
    pub fn symbolize(&mut self, table: &SymbolTable, content: &Content) {
        self.frozen.view.symbolize(table, content);
    }
}

/// A compiled predicate for operator classes too rare or irregular for a
/// dedicated bucket array (inequality, prefix, whole-set equality). All
/// operands are pre-symbolized or copied into index-owned buffers, so
/// evaluation still never touches the original strings.
#[derive(Debug, Clone)]
enum MiscOp {
    /// `attr != x` for integers.
    NeInt(i64),
    /// `attr != s` by symbol (an uninterned content string is trivially
    /// unequal).
    NeStr(u32),
    /// `attr != {tags}` — operand in `misc_tag_syms[start..end]`, sorted.
    NeTags { start: u32, end: u32 },
    /// `attr == {tags}` (whole-set equality) — same encoding.
    EqTags { start: u32, end: u32 },
    /// `attr starts-with p` — prefix bytes in `misc_str[start..end]`.
    Prefix { start: u32, end: u32 },
}

/// The inclusive range of proxies one match is restricted to: the whole
/// fleet for a publish, a single proxy for a request.
#[derive(Debug, Clone, Copy)]
struct Lanes {
    lo: u16,
    hi: u16,
}

/// A bucket key: an unsigned integer whose low 16 bits hold the proxy, so
/// one content key's buckets are adjacent across the fleet and ascending
/// by proxy.
trait Key: Copy + Ord + std::ops::BitOr<Output = Self> + From<u16> + Into<u128> {}
impl Key for u64 {}
impl Key for u128 {}

/// The content part of a key, proxy bits clear: an attribute with an
/// integer value, with a string or tag symbol, or on its own.
#[inline]
fn int_key(attr: u32, value: i64) -> u128 {
    (attr as u128) << 80 | (value as u64 as u128) << 16
}

#[inline]
fn sym_key(attr: u32, sym: u32) -> u128 {
    (attr as u128) << 48 | (sym as u128) << 16
}

#[inline]
fn attr_key(attr: u32) -> u64 {
    (attr as u64) << 16
}

/// The predicate families, as bits of [`FrozenIndex::families`].
const EQ_INT: u8 = 1;
const EQ_STR: u8 = 1 << 1;
const TAG: u8 = 1 << 2;
const RANGE: u8 = 1 << 3;
const EXISTS: u8 = 1 << 4;
const MISC: u8 = 1 << 5;

/// One predicate family's buckets: the sorted distinct keys (content key
/// with the proxy below it), each with the range it owns in the family's
/// entry arrays.
#[derive(Debug, Clone)]
struct Csr<K> {
    keys: Vec<K>,
    /// `keys.len() + 1` offsets.
    bounds: Vec<u32>,
}

impl<K: Key> Csr<K> {
    /// Groups `rows`, already sorted by `key`, into buckets. The vectors
    /// are sized exactly (distinct keys are counted first): at the
    /// million-subscription scale the bench freezes, letting them grow by
    /// doubling dominated freeze time and spread its p90 far above the
    /// median. The caller has checked that `rows.len()` fits `u32`.
    fn group<R>(rows: &[R], key: impl Fn(&R) -> K) -> Self {
        let distinct = usize::from(!rows.is_empty())
            + rows.windows(2).filter(|w| key(&w[0]) != key(&w[1])).count();
        let mut keys = Vec::with_capacity(distinct);
        let mut bounds = Vec::with_capacity(distinct + 1);
        for (i, row) in rows.iter().enumerate() {
            let k = key(row);
            if keys.last() != Some(&k) {
                keys.push(k);
                bounds.push(i as u32);
            }
        }
        bounds.push(rows.len() as u32);
        Self { keys, bounds }
    }

    /// The entries of content key `key` at the proxies in `lanes`: one
    /// lower-bound search over the family, then an upper bound over at
    /// most one key per proxy — so a one-proxy lookup is a single exact
    /// search.
    #[inline]
    fn span(&self, key: K, lanes: Lanes) -> Range<usize> {
        let (lo, hi) = (key | K::from(lanes.lo), key | K::from(lanes.hi));
        let start = self.keys.partition_point(|k| *k < lo);
        let window = (start + usize::from(lanes.hi - lanes.lo) + 1).min(self.keys.len());
        let end = start + self.keys[start..window].partition_point(|k| *k <= hi);
        self.bounds[start] as usize..self.bounds[end] as usize
    }
}

/// `total` as a `u32` index. Ordinals, tokens and bucket offsets are all
/// `u32`; a population too large for them must stop the freeze, because a
/// wrapped token would silently count for another subscription.
fn fit_u32(total: u64, class: &str) -> u32 {
    u32::try_from(total)
        .unwrap_or_else(|_| panic!("frozen kernel: {total} {class} do not fit the u32 token space"))
}

/// Proxy-major start offsets of one class: proxy `p` owns
/// `[base[p], base[p] + counts[p])`, every range rounded up to a multiple
/// of `align` (64 for the bitset classes, so no word spans two proxies),
/// and the last element is the class total.
fn class_bases(counts: impl Iterator<Item = usize>, align: u64, class: &str) -> Vec<u32> {
    let mut total = 0u64;
    let mut bases = vec![0];
    for n in counts {
        total = (n as u64)
            .checked_next_multiple_of(align)
            .and_then(|padded| total.checked_add(padded))
            .unwrap_or(u64::MAX);
        bases.push(fit_u32(total, class));
    }
    bases
}

/// Makes room for `more` rows, checking that the family still fits the
/// `u32` offsets its buckets are addressed by.
fn grow<T>(rows: &mut Vec<T>, more: usize, class: &str) {
    fit_u32((rows.len() + more) as u64, class);
    rows.reserve(more);
}

/// A token family's rows while a fleet is being frozen: the bucket key
/// (the proxy in its low bits) and the token of each predicate, in two
/// parallel arrays — a third less to hold and to move than pairs, and the
/// sorted tokens are the family's finished entry list.
#[derive(Default)]
struct TokenRows<K> {
    keys: Vec<K>,
    toks: Vec<u32>,
}

impl<K: Key> TokenRows<K> {
    fn grow(&mut self, more: usize, class: &str) {
        grow(&mut self.keys, more, class);
        self.toks.reserve(more);
    }

    fn push(&mut self, key: K, tok: u32) {
        self.keys.push(key);
        self.toks.push(tok);
    }

    /// Sorts the rows by key: a stable byte-wise LSD radix sort that
    /// skips every byte on which all keys agree. Rows arrive proxy by
    /// proxy, that is already ordered by the key's low 16 bits, and a
    /// stable pass over a higher byte keeps that order, so the proxy bytes
    /// are never sorted either: the work is one linear pass per byte of
    /// the content key that varies, and a bucket keeps its entries in id
    /// order.
    fn sort(&mut self) {
        debug_assert!(self.keys.is_sorted_by_key(|&k| k.into() as u16));
        let Some(&first) = self.keys.first() else {
            return;
        };
        let varying = self
            .keys
            .iter()
            .fold(0u128, |acc, &k| acc | (k.into() ^ first.into()));
        if varying >> 16 == 0 {
            // One content key: already in order, nothing to copy.
            return;
        }
        let (mut keys, mut toks) = (self.keys.clone(), self.toks.clone());
        for shift in (16..128).step_by(8) {
            if (varying >> shift) as u8 == 0 {
                continue;
            }
            let digit = |k: K| usize::from((k.into() >> shift) as u8);
            let mut next = [0usize; 256];
            for &k in &self.keys {
                next[digit(k)] += 1;
            }
            let mut start = 0;
            for n in &mut next {
                start += std::mem::replace(n, start);
            }
            for (&k, &t) in self.keys.iter().zip(&self.toks) {
                let slot = &mut next[digit(k)];
                keys[*slot] = k;
                toks[*slot] = t;
                *slot += 1;
            }
            std::mem::swap(&mut self.keys, &mut keys);
            std::mem::swap(&mut self.toks, &mut toks);
        }
    }

    /// Sorts the rows into the family's buckets and entry list.
    fn into_buckets(mut self) -> (Csr<K>, Vec<u32>) {
        self.sort();
        (Csr::group(&self.keys, |&k| k), self.toks)
    }
}

/// Every predicate family's rows while a fleet is being frozen; ranges
/// and the rare operators carry their compiled operand beside the key and
/// the token.
#[derive(Default)]
struct Rows<'a> {
    /// The attribute name interned last and its symbol: a proxy's
    /// predicates mostly repeat one name, which then costs a short string
    /// compare instead of a hash.
    last_attr: Option<(&'a str, u32)>,
    /// Per attribute symbol, the families holding a predicate on it.
    families: Vec<u8>,
    eq_int: TokenRows<u128>,
    eq_str: TokenRows<u128>,
    tag: TokenRows<u128>,
    range: Vec<(u64, i64, i64, u32)>,
    exists: TokenRows<u64>,
    misc: Vec<(u64, u32, MiscOp)>,
    misc_tag_syms: Vec<u32>,
    misc_str: String,
}

impl<'a> Rows<'a> {
    /// Counting pre-pass over one proxy's subscriptions: sizes every
    /// arena before a single push. For one proxy that is exact, and at
    /// the million-subscription scale the bench freezes, letting these
    /// vectors grow by doubling was the source of the freeze_build p90
    /// outlier (first-touch page faults on each fresh doubling); across a
    /// fleet the growth is amortized.
    fn reserve(&mut self, subs: &[(SubscriptionId, &Subscription)]) {
        let (mut eq_int, mut eq_str, mut tag) = (0, 0, 0);
        let (mut range, mut exists, mut misc) = (0, 0, 0);
        let (mut tag_set, mut prefix_bytes) = (0, 0);
        for pred in subs.iter().flat_map(|(_, sub)| sub.predicates()) {
            match pred.op() {
                Op::Eq(Value::Int(_)) => eq_int += 1,
                Op::Eq(Value::Str(_)) => eq_str += 1,
                Op::Contains(_) => tag += 1,
                Op::Lt(_) | Op::Le(_) | Op::Gt(_) | Op::Ge(_) => range += 1,
                Op::Exists => exists += 1,
                Op::Eq(Value::Tags(tags)) | Op::Ne(Value::Tags(tags)) => {
                    misc += 1;
                    tag_set += tags.len();
                }
                Op::Prefix(p) => {
                    misc += 1;
                    prefix_bytes += p.len();
                }
                Op::Ne(_) => misc += 1,
            }
        }
        self.eq_int.grow(eq_int, "integer-equality entries");
        self.eq_str.grow(eq_str, "string-equality entries");
        self.tag.grow(tag, "tag entries");
        grow(&mut self.range, range, "range entries");
        self.exists.grow(exists, "exists entries");
        grow(&mut self.misc, misc, "rare-operator entries");
        grow(&mut self.misc_tag_syms, tag_set, "tag-set operand symbols");
        fit_u32(
            (self.misc_str.len() + prefix_bytes) as u64,
            "prefix operand bytes",
        );
        self.misc_str.reserve(prefix_bytes);
    }

    /// Compiles one predicate of proxy `lane` into its family's row,
    /// interning its strings into `table`; `tok` is what a satisfied
    /// predicate bumps.
    fn push(&mut self, table: &mut SymbolTable, lane: u16, pred: &'a Predicate, tok: u32) {
        let a = match self.last_attr {
            Some((name, sym)) if name == pred.attr() => sym,
            _ => {
                let sym = table.intern_name(pred.attr());
                self.last_attr = Some((pred.attr(), sym));
                sym
            }
        };
        let (wide, narrow) = (u128::from(lane), attr_key(a) | u64::from(lane));
        let family = match pred.op() {
            Op::Eq(Value::Int(v)) => {
                self.eq_int.push(int_key(a, *v) | wide, tok);
                EQ_INT
            }
            Op::Eq(Value::Str(s)) => {
                let key = sym_key(a, table.intern_string(s));
                self.eq_str.push(key | wide, tok);
                EQ_STR
            }
            Op::Contains(t) => {
                let key = sym_key(a, table.intern_string(t));
                self.tag.push(key | wide, tok);
                TAG
            }
            Op::Exists => {
                self.exists.push(narrow, tok);
                EXISTS
            }
            // Normalize ranges to inclusive [lo, hi]; a bound at the
            // integer edge (Lt(MIN), Gt(MAX)) can never be satisfied
            // and compiles to the empty interval [1, 0].
            Op::Lt(b) => {
                let (lo, hi) = b.checked_sub(1).map_or((1, 0), |hi| (i64::MIN, hi));
                self.range.push((narrow, lo, hi, tok));
                RANGE
            }
            Op::Le(b) => {
                self.range.push((narrow, i64::MIN, *b, tok));
                RANGE
            }
            Op::Gt(b) => {
                let (lo, hi) = b.checked_add(1).map_or((1, 0), |lo| (lo, i64::MAX));
                self.range.push((narrow, lo, hi, tok));
                RANGE
            }
            Op::Ge(b) => {
                self.range.push((narrow, *b, i64::MAX, tok));
                RANGE
            }
            Op::Eq(Value::Tags(tags)) => {
                let (start, end) = self.tag_set(table, tags);
                self.misc.push((narrow, tok, MiscOp::EqTags { start, end }));
                MISC
            }
            Op::Ne(Value::Int(v)) => {
                self.misc.push((narrow, tok, MiscOp::NeInt(*v)));
                MISC
            }
            Op::Ne(Value::Str(s)) => {
                let op = MiscOp::NeStr(table.intern_string(s));
                self.misc.push((narrow, tok, op));
                MISC
            }
            Op::Ne(Value::Tags(tags)) => {
                let (start, end) = self.tag_set(table, tags);
                self.misc.push((narrow, tok, MiscOp::NeTags { start, end }));
                MISC
            }
            Op::Prefix(p) => {
                let start = self.misc_str.len() as u32;
                self.misc_str.push_str(p);
                let end = self.misc_str.len() as u32;
                self.misc.push((narrow, tok, MiscOp::Prefix { start, end }));
                MISC
            }
        };
        if self.families.len() <= a as usize {
            self.families.resize(a as usize + 1, 0);
        }
        self.families[a as usize] |= family;
    }

    /// Appends a tag-set operand as sorted symbols; returns its range.
    fn tag_set(&mut self, table: &mut SymbolTable, tags: &BTreeSet<String>) -> (u32, u32) {
        let start = self.misc_tag_syms.len();
        self.misc_tag_syms
            .extend(tags.iter().map(|t| table.intern_string(t)));
        self.misc_tag_syms[start..].sort_unstable();
        (start as u32, self.misc_tag_syms.len() as u32)
    }
}

/// Filler for the ordinals a proxy's padding leaves unowned; no token
/// points at them.
const NO_ID: SubscriptionId = SubscriptionId::new(u64::MAX);

/// The frozen, data-oriented compilation of a [`SubscriptionIndex`]; see
/// the [module docs](self) for the layout. Immutable by construction —
/// rebuild from the mutable index when subscriptions change.
///
/// Subscriptions are partitioned by predicate count into *singles*
/// (frozen ordinals `[0, s)`), *doubles* (`[s, s+d)`) and *multis*
/// (`[s+d, n)`), proxy-major inside each class; wildcards are kept aside.
/// Bucket entries are `u32` tokens, each the address of the bit or
/// counter a satisfied predicate bumps.
///
/// # Examples
///
/// ```
/// use pscd_matching::{
///     Content, FrozenIndex, MatchScratch, Predicate, Subscription, SubscriptionIndex,
///     SymbolTable, Value,
/// };
/// let mut idx = SubscriptionIndex::new();
/// let id = idx.insert(Subscription::new(vec![Predicate::ge("words", 100)]));
/// let mut table = SymbolTable::new();
/// let frozen = FrozenIndex::freeze(&idx, &mut table);
/// let mut scratch = MatchScratch::new();
/// let mut out = Vec::new();
/// frozen.matches_into(
///     &table,
///     &Content::new().with("words", Value::int(150)),
///     &mut scratch,
///     &mut out,
/// );
/// assert_eq!(out, vec![id]);
/// ```
#[derive(Debug, Clone)]
pub struct FrozenIndex {
    /// Number of frozen subscriptions, wildcards included.
    len: usize,
    /// Number of proxies (at least one).
    lanes: u16,
    /// Singles' bitset size: every proxy's singles, each range padded to
    /// a whole word. A single's token is its bit.
    s_bits: u32,
    /// Doubles' per-slot bitset size, padded the same way. Double `d`'s
    /// tokens are `s_bits + d` (slot 0) and `s_bits + d_bits + d` (slot 1);
    /// multi `m`'s is `s_bits + 2 * d_bits + m`, its counter's word.
    d_bits: u32,
    /// Frozen ordinal -> subscription id (singles ++ doubles ++ multis,
    /// [`NO_ID`] in the padding).
    ids: Vec<SubscriptionId>,
    /// Predicate count per multi (match when the counter reaches this).
    multi_need: Vec<u32>,
    /// Zero-predicate subscriptions, proxy-major, ascending by id.
    wildcards: Vec<SubscriptionId>,
    /// Proxy `p`'s wildcards are `wildcards[w_base[p]..w_base[p + 1]]`.
    w_base: Vec<u32>,
    /// The proxy that owns each word of the scratch state: the singles'
    /// words, the doubles' slot-0 then slot-1 words, the multis' counters.
    word_lane: Vec<u16>,

    /// Per attribute symbol, the families with a bucket under it: a
    /// content attribute is searched only where a predicate can be.
    families: Vec<u8>,

    /// Integer equality, keyed [`int_key`].
    eq_int: Csr<u128>,
    eq_int_tok: Vec<u32>,

    /// String equality, keyed [`sym_key`].
    eq_str: Csr<u128>,
    eq_str_tok: Vec<u32>,

    /// `Contains`: tag membership (and string equality), same key.
    tag: Csr<u128>,
    tag_tok: Vec<u32>,

    /// Numeric ranges, SoA grouped per [`attr_key`]: normalized inclusive
    /// `[lo, hi]` intervals scanned with a branch-free bounds test.
    range: Csr<u64>,
    range_lo: Vec<i64>,
    range_hi: Vec<i64>,
    range_tok: Vec<u32>,

    /// `Exists`: per-attribute entry lists.
    exists: Csr<u64>,
    exists_tok: Vec<u32>,

    /// Compiled rare operators, grouped per attribute.
    misc: Csr<u64>,
    misc_ops: Vec<MiscOp>,
    misc_tok: Vec<u32>,
    misc_tag_syms: Vec<u32>,
    misc_str: String,
}

impl Default for FrozenIndex {
    /// The frozen empty index.
    fn default() -> Self {
        Self::freeze_fleet(&[], &mut SymbolTable::new())
    }
}

impl FrozenIndex {
    /// Compiles `index` into a frozen kernel, interning every predicate
    /// string into `table`: the one-proxy fleet.
    pub fn freeze(index: &SubscriptionIndex, table: &mut SymbolTable) -> Self {
        Self::freeze_fleet(std::slice::from_ref(index), table)
    }

    /// Compiles a fleet's indexes — `indexes[p]` holds proxy `p`'s
    /// subscriptions — into one frozen kernel.
    ///
    /// # Panics
    ///
    /// Panics if the fleet has more than `u16::MAX` proxies, or a
    /// population (a class's padded ordinals, the token space, a family's
    /// entries) does not fit `u32`.
    pub(crate) fn freeze_fleet(indexes: &[SubscriptionIndex], table: &mut SymbolTable) -> Self {
        // An empty fleet freezes as one empty proxy, so there is always a
        // lane to search.
        let lanes = indexes.len().max(1);
        assert!(
            lanes <= usize::from(u16::MAX),
            "frozen kernel: {lanes} proxies do not fit the u16 lane"
        );

        // The layout comes first, from the predicate counts alone. Every
        // u32 an ordinal or token will ever take is checked here, once,
        // on the totals; the casts further down are inside these bounds.
        // Per proxy: wildcards, singles, doubles, multis.
        let mut classes = vec![[0usize; 4]; lanes];
        for (class, index) in classes.iter_mut().zip(indexes) {
            for &n in index.pred_counts() {
                class[(n as usize).min(3)] += 1;
            }
        }
        let w_base = class_bases(classes.iter().map(|c| c[0]), 1, "wildcards");
        let s_base = class_bases(classes.iter().map(|c| c[1]), 64, "singles");
        let d_base = class_bases(classes.iter().map(|c| c[2]), 64, "doubles");
        let m_base = class_bases(classes.iter().map(|c| c[3]), 1, "multis");
        let (s_bits, d_bits, multis) = (s_base[lanes], d_base[lanes], m_base[lanes]);
        // Tokens: the singles' bits, the doubles' slot-0 bits, their slot-1
        // bits, then one per multi.
        let m_tok0 = fit_u32(
            u64::from(s_bits) + 2 * u64::from(d_bits),
            "single and double tokens",
        );
        fit_u32(
            u64::from(m_tok0) + u64::from(multis),
            "tokens (singles + 2 x doubles + multis)",
        );

        let mut ids = vec![NO_ID; (s_bits + d_bits + multis) as usize];
        let mut multi_need = vec![0u32; multis as usize];
        let mut wildcards = Vec::with_capacity(w_base[lanes] as usize);
        let mut rows = Rows::default();
        // Proxy by proxy, so a proxy's subscriptions are still in cache
        // when the second pass compiles them; both passes walk the one
        // collected slice, ascending by id.
        for (lane, index) in indexes.iter().enumerate() {
            let subs: Vec<(SubscriptionId, &Subscription)> = index.iter().collect();
            rows.reserve(&subs);
            let (mut s, mut d, mut m) = (s_base[lane], d_base[lane], m_base[lane]);
            let lane = lane as u16;
            for &(id, sub) in &subs {
                match sub.predicates() {
                    [] => wildcards.push(id),
                    [pred] => {
                        ids[s as usize] = id;
                        rows.push(table, lane, pred, s);
                        s += 1;
                    }
                    [first, second] => {
                        ids[(s_bits + d) as usize] = id;
                        rows.push(table, lane, first, s_bits + d);
                        rows.push(table, lane, second, s_bits + d_bits + d);
                        d += 1;
                    }
                    preds => {
                        ids[(s_bits + d_bits + m) as usize] = id;
                        multi_need[m as usize] = preds.len() as u32;
                        for pred in preds {
                            rows.push(table, lane, pred, m_tok0 + m);
                        }
                        m += 1;
                    }
                }
            }
        }

        let mut word_lane = Vec::with_capacity((m_tok0 / 64 + multis) as usize);
        for (base, per_word) in [(&s_base, 64), (&d_base, 64), (&d_base, 64), (&m_base, 1)] {
            for (lane, range) in base.windows(2).enumerate() {
                let words = ((range[1] - range[0]) / per_word) as usize;
                word_lane.extend(std::iter::repeat_n(lane as u16, words));
            }
        }
        let (eq_int, eq_int_tok) = rows.eq_int.into_buckets();
        let (eq_str, eq_str_tok) = rows.eq_str.into_buckets();
        let (tag, tag_tok) = rows.tag.into_buckets();
        let (exists, exists_tok) = rows.exists.into_buckets();
        let (mut range, mut misc) = (rows.range, rows.misc);
        range.sort_unstable();
        misc.sort_by_key(|&(key, tok, _)| (key, tok));

        FrozenIndex {
            len: indexes.iter().map(SubscriptionIndex::len).sum(),
            lanes: lanes as u16,
            s_bits,
            d_bits,
            ids,
            multi_need,
            wildcards,
            word_lane,
            w_base,
            families: rows.families,
            eq_int,
            eq_int_tok,
            eq_str,
            eq_str_tok,
            tag,
            tag_tok,
            exists,
            exists_tok,
            range_lo: range.iter().map(|r| r.1).collect(),
            range_hi: range.iter().map(|r| r.2).collect(),
            range_tok: range.iter().map(|r| r.3).collect(),
            range: Csr::group(&range, |r| r.0),
            misc_tok: misc.iter().map(|r| r.1).collect(),
            misc: Csr::group(&misc, |r| r.0),
            misc_ops: misc.into_iter().map(|r| r.2).collect(),
            misc_tag_syms: rows.misc_tag_syms,
            misc_str: rows.misc_str,
        }
    }

    /// Number of frozen subscriptions (including wildcards).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no subscriptions were frozen.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every proxy of the fleet.
    fn fleet(&self) -> Lanes {
        Lanes {
            lo: 0,
            hi: self.lanes - 1,
        }
    }

    /// The frozen kernel's batched match: symbolizes `content` against
    /// `table` and writes all matching subscription ids into `out`
    /// (cleared first), sorted by id. Allocation-free after warm-up.
    pub fn matches_into(
        &self,
        table: &SymbolTable,
        content: &Content,
        scratch: &mut MatchScratch,
        out: &mut Vec<SubscriptionId>,
    ) {
        scratch.symbolize(table, content);
        self.matches_view_into(scratch, out);
    }

    /// The number of subscriptions matching `content` — symbolizes, then
    /// counts by popcount without materializing ids.
    pub fn match_count_scratch(
        &self,
        table: &SymbolTable,
        content: &Content,
        scratch: &mut MatchScratch,
    ) -> usize {
        scratch.symbolize(table, content);
        self.match_count_view(scratch)
    }

    /// Matches against the view already symbolized into `scratch` (see
    /// [`MatchScratch::symbolize`]).
    pub fn matches_view_into(&self, scratch: &mut MatchScratch, out: &mut Vec<SubscriptionId>) {
        out.clear();
        let fs = self.accumulate(scratch, self.fleet());
        // A bitset word's ordinals are its own bits (ids run singles ++
        // doubles, like the slot-0 tokens); the multis follow.
        let multi0 = (self.bit_tokens() / 64) as usize;
        let multi_ord0 = (self.s_bits + self.d_bits) as usize;
        for (w, mut bits) in self.matched(fs) {
            let base = if w < multi0 {
                w * 64
            } else {
                multi_ord0 + (w - multi0)
            };
            while bits != 0 {
                out.push(self.ids[base + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        out.extend_from_slice(&self.wildcards);
        out.sort_unstable();
    }

    /// Counts matches against the view already symbolized into `scratch`.
    pub fn match_count_view(&self, scratch: &mut MatchScratch) -> usize {
        self.count_in(scratch, self.fleet())
    }

    /// A request's count: the matches of the symbolized view at `server`
    /// alone, 0 for a proxy outside the fleet. Only that proxy's buckets
    /// are searched and only its words touched.
    pub(crate) fn count_at_view(&self, scratch: &mut MatchScratch, server: ServerId) -> u32 {
        let lane = server.index();
        if lane >= self.lanes {
            return 0;
        }
        self.count_in(scratch, Lanes { lo: lane, hi: lane }) as u32
    }

    /// A publish's fan-out: the `(proxy, count)` rows of the symbolized
    /// view with at least one match, ascending by proxy, into `out`
    /// (cleared first). One pass over the fleet's buckets, then one over
    /// the touched words, each of which belongs to a single proxy.
    pub(crate) fn fanout_view(&self, scratch: &mut MatchScratch, out: &mut Vec<(ServerId, u32)>) {
        out.clear();
        let fs = self.accumulate(scratch, self.fleet());
        // Out of the scratch while `matched` borrows it; the capacity
        // comes back, so only warm-up allocates.
        let mut counts = std::mem::take(&mut fs.lane_counts);
        counts.clear();
        counts.extend(self.w_base.windows(2).map(|w| w[1] - w[0]));
        for (w, bits) in self.matched(fs) {
            counts[usize::from(self.word_lane[w])] += bits.count_ones();
        }
        for (lane, &n) in counts.iter().enumerate() {
            if n > 0 {
                out.push((ServerId::new(lane as u16), n));
            }
        }
        fs.lane_counts = counts;
    }

    /// Accumulates over `lanes` and counts their matches, wildcards
    /// included. Everything touched lies inside `lanes`, so the touched
    /// words are the whole answer.
    fn count_in(&self, scratch: &mut MatchScratch, lanes: Lanes) -> usize {
        let wild = self.w_base[usize::from(lanes.hi) + 1] - self.w_base[usize::from(lanes.lo)];
        let fs = self.accumulate(scratch, lanes);
        let matched: u32 = self.matched(fs).map(|(_, bits)| bits.count_ones()).sum();
        (wild + matched) as usize
    }

    /// Tokens below this are bits of the three bitsets; the rest are the
    /// multis' counters.
    #[inline]
    fn bit_tokens(&self) -> u32 {
        self.s_bits + 2 * self.d_bits
    }

    /// What the last [`accumulate`](Self::accumulate) matched: each
    /// touched word holding a match, with its matched bits — a single's
    /// bit, a double's bit where both slots are set, bit 0 for a multi
    /// whose counter reached its predicate count.
    fn matched<'a>(&'a self, fs: &'a FrozenScratch) -> impl Iterator<Item = (usize, u64)> + 'a {
        let singles = (self.s_bits / 64) as usize;
        let slot = (self.d_bits / 64) as usize;
        let multi0 = singles + 2 * slot;
        fs.touched.iter().filter_map(move |&w| {
            let w = w as usize;
            let bits = if w < singles {
                fs.words[w]
            } else if w < singles + slot {
                // Slot 1 counts only if this match touched its word too.
                let pair = w + slot;
                if fs.stamp[pair] == fs.epoch {
                    fs.words[w] & fs.words[pair]
                } else {
                    0
                }
            } else if w < multi0 {
                // A slot-1 word is read through its slot-0 pair.
                0
            } else {
                u64::from(fs.words[w] == u64::from(self.multi_need[w - multi0]))
            };
            (bits != 0).then_some((w, bits))
        })
    }

    /// The one kernel body: records, for the view symbolized into
    /// `scratch`, every satisfied predicate of the proxies in `lanes`, and
    /// returns the state holding them.
    fn accumulate<'s>(&self, scratch: &'s mut MatchScratch, lanes: Lanes) -> &'s mut FrozenScratch {
        let fs = &mut scratch.frozen;
        fs.begin(self.word_lane.len());
        // The view moves out for the loop so `bump` can borrow the rest.
        let view = std::mem::take(&mut fs.view);
        for attr in &view.attrs {
            let a = attr.name_sym;
            // A name interned after this index froze has no bucket here.
            let has = self.families.get(a as usize).copied().unwrap_or(0);
            match &attr.val {
                SymVal::Int(v) => {
                    if has & EQ_INT != 0 {
                        let span = self.eq_int.span(int_key(a, *v), lanes);
                        self.bump_all(fs, &self.eq_int_tok[span]);
                    }
                    if has & RANGE != 0 {
                        for j in self.range.span(attr_key(a), lanes) {
                            if *v >= self.range_lo[j] && *v <= self.range_hi[j] {
                                self.bump(fs, self.range_tok[j]);
                            }
                        }
                    }
                }
                SymVal::Str { sym, .. } => {
                    if *sym != NO_SYM {
                        let key = sym_key(a, *sym);
                        if has & EQ_STR != 0 {
                            self.bump_all(fs, &self.eq_str_tok[self.eq_str.span(key, lanes)]);
                        }
                        // `Contains` on a string attribute means equality.
                        if has & TAG != 0 {
                            self.bump_all(fs, &self.tag_tok[self.tag.span(key, lanes)]);
                        }
                    }
                }
                SymVal::Tags { start, end, .. } => {
                    if has & TAG != 0 {
                        for &tsym in &view.tag_syms[*start as usize..*end as usize] {
                            let span = self.tag.span(sym_key(a, tsym), lanes);
                            self.bump_all(fs, &self.tag_tok[span]);
                        }
                    }
                }
            }
            if has & EXISTS != 0 {
                self.bump_all(fs, &self.exists_tok[self.exists.span(attr_key(a), lanes)]);
            }
            if has & MISC != 0 {
                for j in self.misc.span(attr_key(a), lanes) {
                    if self.eval_misc(&self.misc_ops[j], &attr.val, &view) {
                        self.bump(fs, self.misc_tok[j]);
                    }
                }
            }
        }
        fs.view = view;
        fs
    }

    #[inline]
    fn bump_all(&self, fs: &mut FrozenScratch, tokens: &[u32]) {
        for &tok in tokens {
            self.bump(fs, tok);
        }
    }

    /// Records one satisfied predicate. A token addresses its word
    /// directly — a bit of the bitsets to set, or a multi's counter to
    /// raise — so every class takes the same path.
    #[inline]
    fn bump(&self, fs: &mut FrozenScratch, tok: u32) {
        let bits = self.bit_tokens();
        let (w, set, add) = if tok < bits {
            (tok >> 6, 1u64 << (tok & 63), 0)
        } else {
            ((bits >> 6) + (tok - bits), 0, 1)
        };
        let w = w as usize;
        if fs.stamp[w] != fs.epoch {
            fs.stamp[w] = fs.epoch;
            fs.words[w] = 0;
            fs.touched.push(w as u32);
        }
        fs.words[w] = (fs.words[w] | set) + add;
    }

    fn eval_misc(&self, op: &MiscOp, val: &SymVal, view: &SymView) -> bool {
        match (op, val) {
            (MiscOp::NeInt(x), SymVal::Int(v)) => v != x,
            (MiscOp::NeStr(xs), SymVal::Str { sym, .. }) => sym != xs,
            (MiscOp::EqTags { start, end }, SymVal::Tags { .. }) => {
                self.tag_sets_equal(*start, *end, val, view)
            }
            (MiscOp::NeTags { start, end }, SymVal::Tags { .. }) => {
                !self.tag_sets_equal(*start, *end, val, view)
            }
            (
                MiscOp::Prefix { start, end },
                SymVal::Str {
                    start: vs, end: ve, ..
                },
            ) => view.str_buf[*vs as usize..*ve as usize]
                .starts_with(&self.misc_str[*start as usize..*end as usize]),
            _ => false,
        }
    }

    fn tag_sets_equal(&self, start: u32, end: u32, val: &SymVal, view: &SymView) -> bool {
        let SymVal::Tags {
            start: vs,
            end: ve,
            total,
        } = val
        else {
            return false;
        };
        let pred = &self.misc_tag_syms[start as usize..end as usize];
        let got = &view.tag_syms[*vs as usize..*ve as usize];
        // An uninterned content tag (dropped from `got` but counted in
        // `total`) can never appear in the predicate's set.
        *total as usize == pred.len() && got.len() == pred.len() && got == pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frozen(idx: &SubscriptionIndex) -> (FrozenIndex, SymbolTable) {
        let mut table = SymbolTable::new();
        (FrozenIndex::freeze(idx, &mut table), table)
    }

    fn frozen_matches(idx: &SubscriptionIndex, content: &Content) -> Vec<SubscriptionId> {
        let (f, table) = frozen(idx);
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        f.matches_into(&table, content, &mut scratch, &mut out);
        let n = f.match_count_scratch(&table, content, &mut scratch);
        assert_eq!(n, out.len(), "count and id list disagree");
        assert_eq!(out, idx.matches(content), "frozen and legacy disagree");
        out
    }

    fn sports_page() -> Content {
        Content::new()
            .with("category", Value::str("sports"))
            .with("words", Value::int(800))
            .with("tags", Value::tags(["tennis", "us-open"]))
    }

    #[test]
    fn eq_and_tag_buckets() {
        let mut idx = SubscriptionIndex::new();
        let a = idx.insert(Subscription::new(vec![Predicate::eq(
            "category",
            Value::str("sports"),
        )]));
        idx.insert(Subscription::new(vec![Predicate::eq(
            "category",
            Value::str("politics"),
        )]));
        let t = idx.insert(Subscription::new(vec![Predicate::contains(
            "tags", "tennis",
        )]));
        idx.insert(Subscription::new(vec![Predicate::contains("tags", "golf")]));
        let c = idx.insert(Subscription::new(vec![Predicate::contains(
            "category", "sports",
        )]));
        assert_eq!(frozen_matches(&idx, &sports_page()), vec![a, t, c]);
    }

    #[test]
    fn all_three_classes_and_wildcards() {
        let mut idx = SubscriptionIndex::new();
        let single = idx.insert(Subscription::new(vec![Predicate::ge("words", 100)]));
        let double = idx.insert(Subscription::new(vec![
            Predicate::eq("category", Value::str("sports")),
            Predicate::contains("tags", "tennis"),
        ]));
        let multi = idx.insert(Subscription::new(vec![
            Predicate::eq("category", Value::str("sports")),
            Predicate::contains("tags", "us-open"),
            Predicate::lt("words", 1000),
        ]));
        let wild = idx.insert(Subscription::wildcard());
        let miss_double = idx.insert(Subscription::new(vec![
            Predicate::eq("category", Value::str("sports")),
            Predicate::contains("tags", "golf"),
        ]));
        let _ = miss_double;
        idx.insert(Subscription::new(vec![
            Predicate::eq("category", Value::str("sports")),
            Predicate::contains("tags", "us-open"),
            Predicate::gt("words", 1000),
        ]));
        assert_eq!(
            frozen_matches(&idx, &sports_page()),
            vec![single, double, multi, wild]
        );
        assert_eq!(frozen_matches(&idx, &Content::new()), vec![wild]);
    }

    #[test]
    fn ranges_ne_prefix_exists() {
        let mut idx = SubscriptionIndex::new();
        let lt = idx.insert(Subscription::new(vec![Predicate::lt("words", 900)]));
        idx.insert(Subscription::new(vec![Predicate::lt("words", 800)]));
        let le = idx.insert(Subscription::new(vec![Predicate::le("words", 800)]));
        let gt = idx.insert(Subscription::new(vec![Predicate::gt("words", 799)]));
        idx.insert(Subscription::new(vec![Predicate::gt("words", 800)]));
        let ge = idx.insert(Subscription::new(vec![Predicate::ge("words", 800)]));
        let ne = idx.insert(Subscription::new(vec![Predicate::ne(
            "category",
            Value::str("politics"),
        )]));
        idx.insert(Subscription::new(vec![Predicate::ne(
            "category",
            Value::str("sports"),
        )]));
        // Ne across types is false (type mismatch, not inequality).
        idx.insert(Subscription::new(vec![Predicate::ne(
            "category",
            Value::int(3),
        )]));
        let px = idx.insert(Subscription::new(vec![Predicate::prefix(
            "category", "spo",
        )]));
        idx.insert(Subscription::new(vec![Predicate::prefix("category", "xx")]));
        let ex = idx.insert(Subscription::new(vec![Predicate::exists("tags")]));
        idx.insert(Subscription::new(vec![Predicate::exists("author")]));
        assert_eq!(
            frozen_matches(&idx, &sports_page()),
            vec![lt, le, gt, ge, ne, px, ex]
        );
    }

    #[test]
    fn edge_bounds_never_match() {
        let mut idx = SubscriptionIndex::new();
        idx.insert(Subscription::new(vec![Predicate::lt("x", i64::MIN)]));
        idx.insert(Subscription::new(vec![Predicate::gt("x", i64::MAX)]));
        let le = idx.insert(Subscription::new(vec![Predicate::le("x", i64::MIN)]));
        let ge = idx.insert(Subscription::new(vec![Predicate::ge("x", i64::MAX)]));
        assert_eq!(
            frozen_matches(&idx, &Content::new().with("x", Value::int(i64::MIN))),
            vec![le]
        );
        assert_eq!(
            frozen_matches(&idx, &Content::new().with("x", Value::int(i64::MAX))),
            vec![ge]
        );
    }

    #[test]
    fn whole_tag_set_equality() {
        let mut idx = SubscriptionIndex::new();
        let eq = idx.insert(Subscription::new(vec![Predicate::eq(
            "tags",
            Value::tags(["tennis", "us-open"]),
        )]));
        idx.insert(Subscription::new(vec![Predicate::eq(
            "tags",
            Value::tags(["tennis"]),
        )]));
        let ne = idx.insert(Subscription::new(vec![Predicate::ne(
            "tags",
            Value::tags(["tennis"]),
        )]));
        let ne2 = idx.insert(Subscription::new(vec![Predicate::ne(
            "tags",
            Value::tags(["tennis", "us-open"]),
        )]));
        // Eq on a str attr vs tags attr must not cross-fire.
        idx.insert(Subscription::new(vec![Predicate::eq(
            "category",
            Value::tags(["sports"]),
        )]));
        assert_eq!(frozen_matches(&idx, &sports_page()), vec![eq, ne]);
        // A content tag no predicate interned still breaks set equality
        // (the eq subscription stops matching, both ne ones now do).
        let extra = sports_page().with("tags", Value::tags(["tennis", "us-open", "zzz"]));
        assert_eq!(frozen_matches(&idx, &extra), vec![ne, ne2]);
    }

    #[test]
    fn uninterned_content_strings() {
        let mut idx = SubscriptionIndex::new();
        let ne = idx.insert(Subscription::new(vec![Predicate::ne(
            "category",
            Value::str("politics"),
        )]));
        idx.insert(Subscription::new(vec![Predicate::eq(
            "category",
            Value::str("politics"),
        )]));
        // "weather" is never interned by any predicate.
        let c = Content::new().with("category", Value::str("weather"));
        assert_eq!(frozen_matches(&idx, &c), vec![ne]);
    }

    #[test]
    fn duplicate_predicates_in_one_subscription() {
        let mut idx = SubscriptionIndex::new();
        let d = idx.insert(Subscription::new(vec![
            Predicate::eq("category", Value::str("sports")),
            Predicate::eq("category", Value::str("sports")),
        ]));
        let m = idx.insert(Subscription::new(vec![
            Predicate::ge("words", 1),
            Predicate::ge("words", 2),
            Predicate::ge("words", 3),
        ]));
        assert_eq!(frozen_matches(&idx, &sports_page()), vec![d, m]);
    }

    #[test]
    fn empty_index_and_scratch_reuse_across_indexes() {
        let empty = SubscriptionIndex::new();
        assert!(frozen_matches(&empty, &sports_page()).is_empty());
        let (f, _) = frozen(&empty);
        assert!(f.is_empty());

        // One scratch, two frozen indexes of different sizes and tables.
        let mut big = SubscriptionIndex::new();
        for i in 0..200 {
            big.insert(Subscription::new(vec![Predicate::ge("words", i * 10)]));
        }
        let mut small = SubscriptionIndex::new();
        let s = small.insert(Subscription::new(vec![Predicate::contains(
            "tags", "tennis",
        )]));
        let (fb, tb) = frozen(&big);
        let (fsm, tsm) = frozen(&small);
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        fb.matches_into(&tb, &sports_page(), &mut scratch, &mut out);
        assert_eq!(out.len(), 81);
        fsm.matches_into(&tsm, &sports_page(), &mut scratch, &mut out);
        assert_eq!(out, vec![s]);
        fb.matches_into(&tb, &sports_page(), &mut scratch, &mut out);
        assert_eq!(out.len(), 81);
        assert_eq!(fb.len(), 200);
    }

    #[test]
    fn shared_table_symbolize_once() {
        let mut table = SymbolTable::new();
        let mut a = SubscriptionIndex::new();
        let sa = a.insert(Subscription::new(vec![Predicate::eq(
            "category",
            Value::str("sports"),
        )]));
        let mut b = SubscriptionIndex::new();
        let sb = b.insert(Subscription::new(vec![Predicate::contains(
            "tags", "tennis",
        )]));
        let fa = FrozenIndex::freeze(&a, &mut table);
        let fb = FrozenIndex::freeze(&b, &mut table);
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        scratch.symbolize(&table, &sports_page());
        fa.matches_view_into(&mut scratch, &mut out);
        assert_eq!(out, vec![sa]);
        fb.matches_view_into(&mut scratch, &mut out);
        assert_eq!(out, vec![sb]);
        assert_eq!(fa.match_count_view(&mut scratch), 1);
        assert_eq!(fb.match_count_view(&mut scratch), 1);
    }

    #[test]
    fn freeze_after_churn_matches_legacy() {
        let mut idx = SubscriptionIndex::new();
        let mut ids = Vec::new();
        for i in 0..30 {
            ids.push(idx.insert(Subscription::new(vec![Predicate::ge("words", i * 50)])));
        }
        for id in ids.iter().step_by(3) {
            idx.remove(*id);
        }
        idx.insert(Subscription::new(vec![Predicate::contains(
            "tags", "tennis",
        )]));
        frozen_matches(&idx, &sports_page());
        frozen_matches(&idx, &Content::new());
    }

    /// A three-proxy fleet of uneven populations, every class at every
    /// proxy and `p` wildcards at proxy `p`.
    fn small_fleet() -> Vec<SubscriptionIndex> {
        let mut fleet = vec![SubscriptionIndex::new(); 3];
        for (lane, idx) in fleet.iter_mut().enumerate() {
            for i in 0..(70 * lane as i64 + 3) {
                idx.insert(Subscription::new(vec![Predicate::ge("words", i * 10)]));
            }
            idx.insert(Subscription::new(vec![
                Predicate::eq("category", Value::str("sports")),
                Predicate::contains("tags", "tennis"),
            ]));
            idx.insert(Subscription::new(vec![
                Predicate::eq("category", Value::str("sports")),
                Predicate::contains("tags", "us-open"),
                Predicate::lt("words", 1000 * lane as i64),
            ]));
            for _ in 0..lane {
                idx.insert(Subscription::wildcard());
            }
        }
        fleet
    }

    #[test]
    fn fleet_fanout_and_requests_match_the_per_proxy_indexes() {
        let fleet = small_fleet();
        let mut table = SymbolTable::new();
        let frozen = FrozenIndex::freeze_fleet(&fleet, &mut table);
        assert_eq!(
            frozen.len(),
            fleet.iter().map(SubscriptionIndex::len).sum::<usize>()
        );
        let mut scratch = MatchScratch::new();
        let mut rows = Vec::new();
        for content in [
            sports_page(),
            Content::new(),
            sports_page().with("words", Value::int(5)),
        ] {
            scratch.symbolize(&table, &content);
            frozen.fanout_view(&mut scratch, &mut rows);
            let expected: Vec<_> = fleet
                .iter()
                .enumerate()
                .map(|(lane, idx)| (ServerId::new(lane as u16), idx.match_count(&content) as u32))
                .filter(|&(_, n)| n > 0)
                .collect();
            assert_eq!(rows, expected);
            for (lane, idx) in fleet.iter().enumerate() {
                let server = ServerId::new(lane as u16);
                assert_eq!(
                    frozen.count_at_view(&mut scratch, server) as usize,
                    idx.match_count(&content)
                );
            }
            assert_eq!(frozen.count_at_view(&mut scratch, ServerId::new(3)), 0);
            let total: u32 = rows.iter().map(|&(_, n)| n).sum();
            assert_eq!(frozen.match_count_view(&mut scratch), total as usize);
        }
    }

    #[test]
    fn every_word_belongs_to_one_proxy() {
        let fleet = small_fleet();
        let frozen = FrozenIndex::freeze_fleet(&fleet, &mut SymbolTable::new());
        // 3, 73 and 143 singles pad to 1, 2 and 3 words; one double each
        // pads to a word per slot; one multi each.
        assert_eq!(frozen.s_bits, 64 * 6);
        assert_eq!(frozen.d_bits, 64 * 3);
        let owners = [
            vec![0, 1, 1, 2, 2, 2],
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1, 2],
        ]
        .concat();
        assert_eq!(frozen.word_lane, owners);
        assert_eq!(frozen.w_base, vec![0, 0, 1, 3]);
        // Padding ordinals own no subscription.
        assert_eq!(frozen.ids[2], SubscriptionId::new(2));
        assert_eq!(frozen.ids[3], NO_ID);
        assert_eq!(frozen.ids[64], SubscriptionId::new(0));
    }

    #[test]
    fn empty_fleet_and_default_are_one_empty_proxy() {
        for frozen in [
            FrozenIndex::default(),
            FrozenIndex::freeze_fleet(&[], &mut SymbolTable::new()),
        ] {
            assert!(frozen.is_empty());
            let mut scratch = MatchScratch::new();
            let mut rows = vec![(ServerId::new(7), 1)];
            scratch.symbolize(&SymbolTable::new(), &sports_page());
            frozen.fanout_view(&mut scratch, &mut rows);
            assert!(rows.is_empty());
            assert_eq!(frozen.count_at_view(&mut scratch, ServerId::new(0)), 0);
            assert_eq!(frozen.match_count_view(&mut scratch), 0);
        }
    }

    #[test]
    fn fit_u32_holds_at_the_boundary() {
        assert_eq!(fit_u32(0, "tokens"), 0);
        assert_eq!(fit_u32(u64::from(u32::MAX), "tokens"), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "4294967296 tag entries do not fit the u32 token space")]
    fn fit_u32_names_the_class_that_overflowed() {
        fit_u32(u64::from(u32::MAX) + 1, "tag entries");
    }

    #[test]
    fn class_bases_pad_each_proxy_to_its_own_words() {
        assert_eq!(
            class_bases([0, 1, 64, 65].into_iter(), 64, "singles"),
            [0, 0, 64, 128, 256]
        );
        assert_eq!(
            class_bases([0, 1, 64, 65].into_iter(), 1, "multis"),
            [0, 0, 1, 65, 130]
        );
        assert_eq!(class_bases(std::iter::empty(), 64, "singles"), [0]);
        // The largest population that still fits: u32::MAX rounded down
        // to a word, split over two proxies.
        let top = (u32::MAX / 64 * 64) as usize;
        assert_eq!(
            class_bases([top - 64, 1].into_iter(), 64, "doubles"),
            [0, top as u32 - 64, top as u32]
        );
    }

    #[test]
    #[should_panic(expected = "singles do not fit the u32 token space")]
    fn class_bases_check_the_padding_not_just_the_count() {
        // u32::MAX - 10 singles fit unpadded; their last word does not.
        class_bases([u32::MAX as usize - 10].into_iter(), 64, "singles");
    }

    #[test]
    #[should_panic(expected = "multis do not fit the u32 token space")]
    fn class_bases_check_the_sum_over_proxies() {
        class_bases([u32::MAX as usize, 1].into_iter(), 1, "multis");
    }

    #[test]
    #[should_panic(expected = "singles do not fit the u32 token space")]
    fn class_bases_survive_a_count_near_usize_max() {
        class_bases([usize::MAX].into_iter(), 64, "singles");
    }

    #[test]
    fn token_rows_sort_is_stable_and_keeps_the_proxy_order() {
        // Proxy-major input, the proxy in the low 16 bits; content keys
        // differ in two separate bytes, one of them above bit 64.
        let key = |hi: u128, lo: u128, lane: u128| hi << 80 | lo << 16 | lane;
        let pairs = [
            (key(2, 9, 0), 0),
            (key(1, 300, 0), 1),
            (key(1, 300, 0), 2),
            (key(1, 9, 1), 3),
            (key(2, 9, 1), 4),
            (key(1, 300, 2), 5),
            (key(1, 9, 2), 6),
        ];
        let mut rows = TokenRows::default();
        for (k, t) in pairs {
            rows.push(k, t);
        }
        let (csr, toks) = rows.into_buckets();
        let mut expected = pairs;
        expected.sort();
        assert_eq!(toks, expected.map(|(_, t)| t));
        assert_eq!(toks, [3, 6, 1, 2, 5, 0, 4]);
        let mut distinct = expected.map(|(k, _)| k).to_vec();
        distinct.dedup();
        assert_eq!(csr.keys, distinct);
        assert_eq!(csr.bounds, [0, 1, 2, 4, 5, 6, 7]);

        let mut narrow = TokenRows::<u64>::default();
        for (k, t) in [(3 << 16, 0), (1 << 16, 1), (3 << 16 | 1, 2)] {
            narrow.push(k, t);
        }
        let (csr, toks) = narrow.into_buckets();
        assert_eq!(csr.keys, [1 << 16, 3 << 16, 3 << 16 | 1]);
        assert_eq!(toks, [1, 0, 2]);
        let (csr, toks) = TokenRows::<u64>::default().into_buckets();
        assert_eq!((csr.keys.len(), csr.bounds, toks), (0, vec![0], vec![]));
    }
}
