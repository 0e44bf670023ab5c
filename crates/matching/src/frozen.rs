//! Frozen, data-oriented match kernel.
//!
//! [`FrozenIndex`] is an immutable compilation of a whole fleet's
//! subscriptions into a single set of flat arrays, and the crate's own:
//! [`EngineMatcher`](crate::EngineMatcher) is the one way to it. Every
//! string is interned into a dense `u32` symbol
//! ([`SymbolTable`]), predicates are filed in CSR buckets searched by
//! integer keys, and the match state is one epoch-stamped
//! bitset — a match is a set bit, a count is a popcount, and no
//! subscription has a counter:
//!
//! * **Singles** (one predicate — the common case): the predicate is
//!   indexed in its family's buckets and its *token* is the
//!   subscription's bit; a satisfied predicate is one `OR`.
//! * **Conjunctions** (two or more): only the *access key* — one
//!   predicate, or two keyed ones together — is indexed, and its token is
//!   the conjunction's bit in a second region of the bitset. The other
//!   predicates are compiled into one flat *residual* array and evaluated
//!   against the content only for the candidates whose access bit was
//!   set; a candidate that fails has its bit cleared (the
//!   access-predicate scheme of Fabret et al., SIGMOD 2001). A publish
//!   pays for the conjunctions its content selects, not for every
//!   predicate it satisfies.
//!
//! The access key is chosen at freeze. Its predicates are *keyed*
//! (integer equality, string equality, tag membership) and ranked by how
//! many conjunction predicates their content key carries fleet-wide, then
//! by family, in that order, then by position. A conjunction with keyed
//! predicates on two different content keys is filed under the *pair* of
//! its two first-ranked ones, in one more family: each component key has
//! an id (its position in the sorted `pair_keys`), and the pair's bucket
//! key is the two ids. A publish looks each keyed content key up in
//! `pair_keys` and searches every two it finds: k(k − 1)/2 searches for
//! k components, ≈ 4 on `match-churn` (a category and 2.4 tags). A
//! conjunction with one keyed content key is filed under its first-ranked
//! predicate; one of scanned-family predicates only (ranges, `exists`,
//! the rare operators) under its first.
//!
//! **The proxy is a dimension of the index, not a reason for a second
//! one.** Every bucket key carries the proxy in its low 16 bits, so the
//! buckets of all proxies for one content key are adjacent; and ordinals
//! are laid out proxy-major inside each class, each proxy's range rounded
//! up to a whole 64-bit word, so every bitset word belongs to exactly one
//! proxy. A publish searches each content key once, sets the adjacent
//! entries' bits for every proxy, and folds the touched words into one
//! count per proxy; a request searches the exact `(key, proxy)` bucket and
//! touches that proxy's words only. Both run the same `accumulate`,
//! restricted to a range of proxies (`Lanes`).
//!
//! Words are epoch-stamped and reset lazily on first touch, so a match
//! clears nothing and allocates nothing: the hot loop is integer binary
//! searches plus word ORs. Numeric range predicates are laid out as
//! parallel SoA arrays (`lo[]`, `hi[]`, `tok[]`) scanned with a
//! branch-free bounds test the compiler can vectorize.
//!
//! The kernel matches content already in symbol space ([`View`]): the
//! view the matcher stored for the page at `register_page`, so the loop
//! does no string hashing.
//!
//! The kernel's input is subscriptions compiled into symbol space
//! ([`Compiled`], by the one [`compile`]): the matcher compiles each at
//! `subscribe` and owns the rows, ascending by id, that a freeze reads. A
//! freeze interns nothing. A frozen subscription that is removed is
//! *retired*: its bit goes into the `dead` mask that a match clears from
//! every touched word before it verifies or counts anything, so the kernel
//! answers on without a rebuild (the matcher keeps the subscriptions added
//! since the freeze beside it).

use std::ops::Range;

use pscd_types::{count, ServerId};

use crate::symbol::{SymVal, SymbolTable, View};
use crate::{Op, Predicate, Subscription, SubscriptionId, Value};

/// One subscription as its owner holds it: compiled.
pub(crate) type Row = (SubscriptionId, Compiled);

/// Reusable state for the frozen kernel: one array of u64 words — the
/// singles' bitset, then the conjunctions' — addressed directly by token.
/// A word is live only when its stamp equals the current epoch; a new
/// match bumps the epoch in O(1) and resets each word lazily on first
/// touch. After warm-up (words sized to the largest kernel, buffers grown
/// to the biggest result) a match makes **zero allocations**, the property
/// the `alloc_free` suite asserts.
///
/// One scratch serves any number of matchers and pages; it only grows.
/// Not `Sync`: use one scratch per worker thread.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    epoch: u32,
    words: Vec<u64>,
    stamp: Vec<u32>,
    touched: Vec<u32>,
    /// How many conjunction candidates the last match verified.
    verified: u32,
    /// A publish's matches per proxy, wildcards plus what the touched
    /// words fold to.
    lane_counts: Vec<u32>,
    /// The ids of the pair components the view carries.
    pair_ids: Vec<u32>,
}

impl MatchScratch {
    /// Creates an empty scratch; it sizes itself to the index on first use.
    pub fn new() -> Self {
        Self::default()
    }

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

    #[inline]
    fn bump_all(&mut self, tokens: &[u32]) {
        for &tok in tokens {
            self.bump(tok);
        }
    }

    /// Records one satisfied indexed predicate: its token is a bit.
    #[inline]
    fn bump(&mut self, tok: u32) {
        let w = (tok >> 6) as usize;
        if self.stamp[w] != self.epoch {
            self.stamp[w] = self.epoch;
            self.words[w] = 0;
            self.touched.push(w as u32);
        }
        self.words[w] |= 1 << (tok & 63);
    }

    /// What the last [`FrozenIndex::accumulate`] matched: each touched
    /// word holding a match, with its matched bits.
    fn matched(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let words = self.touched.iter().map(|&w| w as usize);
        words
            .map(|w| (w, self.words[w]))
            .filter(|&(_, bits)| bits != 0)
    }
}

/// A predicate's operator in symbol space: every string operand replaced
/// by its symbol or copied into [`Operands`], so evaluation never touches
/// the original strings. Indexed predicates of the rare operators, every
/// residual predicate and every subscription the kernel does not hold are
/// in this form and evaluated by the one [`Operands::eval`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum SymOp {
    EqInt(i64),
    EqStr(u32),
    /// Tag membership; on a string attribute, equality.
    Contains(u32),
    /// A numeric range normalized to inclusive `[lo, hi]`; a bound at the
    /// integer edge (`Lt(MIN)`, `Gt(MAX)`) can never be satisfied and
    /// compiles to the empty interval `[1, 0]`.
    Range(i64, i64),
    Exists,
    NeInt(i64),
    /// By symbol: a content string no predicate names is unequal.
    NeStr(u32),
    /// Whole-set (in)equality: the operand is `tag_syms[start..end]`,
    /// sorted.
    EqTags(u32, u32),
    NeTags(u32, u32),
    /// `attr starts-with p`: the prefix is `bytes[start..end]`.
    Prefix(u32, u32),
}

/// A compiled predicate: the attribute's name symbol and the operator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SymPred {
    attr: u32,
    op: SymOp,
}

/// Compiles one predicate into symbol space: interns its attribute and
/// strings into `table` and copies a tag-set or prefix operand into
/// `operands`. The one compiler, run at the matcher's `subscribe`.
pub(crate) fn compile(
    table: &mut SymbolTable,
    operands: &mut Operands,
    pred: &Predicate,
) -> SymPred {
    let attr = table.intern_name(pred.attr());
    let op = match pred.op() {
        Op::Eq(Value::Int(v)) => SymOp::EqInt(*v),
        Op::Eq(Value::Str(s)) => SymOp::EqStr(table.intern_string(s)),
        Op::Contains(t) => SymOp::Contains(table.intern_string(t)),
        Op::Exists => SymOp::Exists,
        Op::Lt(b) => b
            .checked_sub(1)
            .map_or(SymOp::Range(1, 0), |hi| SymOp::Range(i64::MIN, hi)),
        Op::Le(b) => SymOp::Range(i64::MIN, *b),
        Op::Gt(b) => b
            .checked_add(1)
            .map_or(SymOp::Range(1, 0), |lo| SymOp::Range(lo, i64::MAX)),
        Op::Ge(b) => SymOp::Range(*b, i64::MAX),
        Op::Eq(Value::Tags(tags)) => {
            let (start, end) = operands.push_tags(tags.iter().map(|t| table.intern_string(t)));
            SymOp::EqTags(start, end)
        }
        Op::Ne(Value::Int(v)) => SymOp::NeInt(*v),
        Op::Ne(Value::Str(s)) => SymOp::NeStr(table.intern_string(s)),
        Op::Ne(Value::Tags(tags)) => {
            let (start, end) = operands.push_tags(tags.iter().map(|t| table.intern_string(t)));
            SymOp::NeTags(start, end)
        }
        Op::Prefix(p) => {
            let (start, end) = operands.push_bytes(p.as_bytes());
            SymOp::Prefix(start, end)
        }
    };
    SymPred { attr, op }
}

/// A subscription compiled into symbol space: what a freeze reads, and
/// what the matcher evaluates for the subscriptions no kernel holds. A
/// single predicate, the common case, is held inline; a conjunction is one
/// boxed slice.
#[derive(Debug, Clone)]
pub(crate) enum Compiled {
    Wildcard,
    Single(SymPred),
    Conjunction(Box<[SymPred]>),
}

impl Compiled {
    /// Compiles `sub` through [`compile`].
    pub(crate) fn new(
        table: &mut SymbolTable,
        operands: &mut Operands,
        sub: &Subscription,
    ) -> Self {
        match sub.predicates() {
            [] => Compiled::Wildcard,
            [pred] => Compiled::Single(compile(table, operands, pred)),
            preds => {
                let compiled = preds.iter().map(|pred| compile(table, operands, pred));
                Compiled::Conjunction(compiled.collect())
            }
        }
    }

    /// The predicates of the conjunction: none for the wildcard.
    #[inline]
    pub(crate) fn preds(&self) -> &[SymPred] {
        match self {
            Compiled::Wildcard => &[],
            Compiled::Single(pred) => std::slice::from_ref(pred),
            Compiled::Conjunction(preds) => preds,
        }
    }

    /// Moves every operand the subscription points into from `from` into
    /// `to`.
    pub(crate) fn rehome(&mut self, to: &mut Operands, from: &Operands) {
        let preds = match self {
            Compiled::Wildcard => &mut [][..],
            Compiled::Single(pred) => std::slice::from_mut(pred),
            Compiled::Conjunction(preds) => preds,
        };
        for pred in preds {
            pred.op = match pred.op {
                SymOp::EqTags(s, e) => {
                    let (s, e) =
                        to.push_tags(from.tag_syms[s as usize..e as usize].iter().copied());
                    SymOp::EqTags(s, e)
                }
                SymOp::NeTags(s, e) => {
                    let (s, e) =
                        to.push_tags(from.tag_syms[s as usize..e as usize].iter().copied());
                    SymOp::NeTags(s, e)
                }
                SymOp::Prefix(s, e) => {
                    let (s, e) = to.push_bytes(&from.bytes[s as usize..e as usize]);
                    SymOp::Prefix(s, e)
                }
                op => op,
            };
        }
    }
}

impl SymPred {
    /// The bucket a keyed-family predicate is filed under: its content
    /// key, with the family in the (clear) proxy bits.
    fn bucket(&self) -> Option<u128> {
        match self.op {
            SymOp::EqInt(v) => Some(int_key(self.attr, v) | u128::from(EQ_INT)),
            SymOp::EqStr(s) => Some(sym_key(self.attr, s) | u128::from(EQ_STR)),
            SymOp::Contains(s) => Some(sym_key(self.attr, s) | u128::from(TAG)),
            _ => None,
        }
    }
}

/// The operands [`SymOp`]s point into: tag-set symbols and prefix bytes.
#[derive(Debug, Clone, Default)]
pub(crate) struct Operands {
    tag_syms: Vec<u32>,
    bytes: Vec<u8>,
}

impl Operands {
    /// `true` if every one of `preds` holds in `view`: a compiled
    /// subscription's match, the wildcard's included.
    #[inline]
    pub(crate) fn matches(&self, preds: &[SymPred], view: View<'_>) -> bool {
        preds.iter().all(|pred| self.holds(pred, view))
    }

    /// Evaluates `pred` against the view; like [`Predicate::eval`], a
    /// missing attribute or a type mismatch is `false`.
    fn holds(&self, pred: &SymPred, view: View<'_>) -> bool {
        let attr = view.attrs.iter().find(|a| a.name == pred.attr);
        attr.is_some_and(|a| self.eval(pred.op, &a.val, view))
    }

    /// The one evaluator: `op` against an attribute's value.
    fn eval(&self, op: SymOp, val: &SymVal, view: View<'_>) -> bool {
        match (op, val) {
            (SymOp::Exists, _) => true,
            (SymOp::EqInt(x), SymVal::Int(v)) => *v == x,
            (SymOp::NeInt(x), SymVal::Int(v)) => *v != x,
            (SymOp::Range(lo, hi), SymVal::Int(v)) => lo <= *v && *v <= hi,
            (SymOp::EqStr(x) | SymOp::Contains(x), SymVal::Str { sym, .. }) => *sym == x,
            (SymOp::NeStr(x), SymVal::Str { sym, .. }) => *sym != x,
            (SymOp::Contains(x), SymVal::Tags { start, end }) => {
                view.tag_syms[*start as usize..*end as usize].contains(&x)
            }
            (SymOp::EqTags(s, e) | SymOp::NeTags(s, e), SymVal::Tags { start, end }) => {
                // Both sides are sorted sets of symbols.
                let pred = &self.tag_syms[s as usize..e as usize];
                let got = &view.tag_syms[*start as usize..*end as usize];
                (got == pred) == matches!(op, SymOp::EqTags(..))
            }
            (SymOp::Prefix(s, e), SymVal::Str { start, end, .. }) => view.bytes
                [*start as usize..*end as usize]
                .starts_with(&self.bytes[s as usize..e as usize]),
            _ => false,
        }
    }

    /// Appends a tag-set operand as sorted symbols; returns its range.
    fn push_tags(&mut self, syms: impl Iterator<Item = u32>) -> (u32, u32) {
        let start = self.tag_syms.len();
        self.tag_syms.extend(syms);
        self.tag_syms[start..].sort_unstable();
        let end = fit_u32(self.tag_syms.len() as u64, "tag-set operand symbols");
        (start as u32, end)
    }

    /// Appends a prefix operand; returns its range.
    fn push_bytes(&mut self, bytes: &[u8]) -> (u32, u32) {
        let start = self.bytes.len() as u32;
        self.bytes.extend_from_slice(bytes);
        let end = fit_u32(self.bytes.len() as u64, "prefix operand bytes");
        (start, end)
    }

    /// `true` if no operand is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.tag_syms.is_empty() && self.bytes.is_empty()
    }
}

/// The inclusive range of proxies one match is restricted to: a range of
/// the fleet (the whole of it, or a shard's) for a publish, a single
/// proxy for a request.
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

/// The key of a pair of components, by id, `lo < hi`.
#[inline]
fn pair_key(lo: u32, hi: u32) -> u128 {
    (lo as u128) << 48 | (hi as u128) << 16
}

/// The predicate families, as bits of [`FrozenIndex::families`]; `PAIR`
/// marks an attribute with a content key that is a pair component.
const EQ_INT: u8 = 1;
const EQ_STR: u8 = 1 << 1;
const TAG: u8 = 1 << 2;
const RANGE: u8 = 1 << 3;
const EXISTS: u8 = 1 << 4;
const MISC: u8 = 1 << 5;
const PAIR: u8 = 1 << 6;

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
    /// Groups `rows`, already sorted by `key`, into buckets, checking
    /// that the family fits the `u32` offsets they are addressed by. The
    /// vectors are sized exactly (distinct keys are counted first): at the
    /// million-subscription scale the bench freezes, letting them grow by
    /// doubling dominated freeze time and spread its p90 far above the
    /// median.
    fn group<R>(rows: &[R], class: &str, key: impl Fn(&R) -> K) -> Self {
        fit_u32(rows.len() as u64, class);
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
    fn reserve(&mut self, more: usize) {
        self.keys.reserve(more);
        self.toks.reserve(more);
    }

    fn push(&mut self, key: K, tok: u32) {
        self.keys.push(key);
        self.toks.push(tok);
    }

    /// Sorts the rows by key: a stable byte-wise LSD radix sort that
    /// skips every byte on which all keys agree. A family's singles
    /// arrive proxy by proxy, that is already ordered by the key's low 16
    /// bits, and so do its access predicates; a stable pass over a higher
    /// byte keeps that order, so a family holding only one of the two
    /// never sorts the proxy bytes: the work is one linear pass per byte
    /// of the content key that varies. Either way a bucket keeps its
    /// entries in token order.
    fn sort(&mut self) {
        let Some(&first) = self.keys.first() else {
            return;
        };
        let varying = self
            .keys
            .iter()
            .fold(0u128, |acc, &k| acc | (k.into() ^ first.into()));
        let by_lane = self.keys.is_sorted_by_key(|&k| k.into() as u16);
        let low = if by_lane { 16 } else { 0 };
        if varying >> low == 0 {
            // One content key: already in order, nothing to copy.
            return;
        }
        let (mut keys, mut toks) = (self.keys.clone(), self.toks.clone());
        for shift in (low..128).step_by(8) {
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
    fn into_buckets(mut self, class: &str) -> (Csr<K>, Vec<u32>) {
        self.sort();
        (Csr::group(&self.keys, class, |&k| k), self.toks)
    }
}

/// Every predicate family's rows while a fleet is being frozen — ranges
/// and the rare operators carry their compiled operand beside the key and
/// the token — and the conjunctions' compiled predicates.
#[derive(Default)]
struct Rows {
    /// Per attribute symbol, the families holding a predicate on it.
    families: Vec<u8>,
    eq_int: TokenRows<u128>,
    eq_str: TokenRows<u128>,
    tag: TokenRows<u128>,
    range: Vec<(u64, i64, i64, u32)>,
    exists: TokenRows<u64>,
    misc: Vec<(u64, u32, SymOp)>,
    /// Every conjunction's predicates, in subscription order, until
    /// [`Rows::choose_access`] moves each one's access key into its family
    /// and leaves the residuals.
    resid: Vec<SymPred>,
    /// Conjunction ordinal -> start of its predicates in `resid`.
    resid_base: Vec<u32>,
    /// The conjunctions' keyed predicates, as if all were indexed
    /// fleet-wide: [`SymPred::bucket`] and position in `resid`.
    keyed: TokenRows<u128>,
    /// The sorted content keys that are a pair's component, and the pair
    /// family's rows, keyed [`pair_key`] of their ids.
    pair_keys: Vec<u128>,
    pair: TokenRows<u128>,
}

impl Rows {
    /// Counting pre-pass over one proxy's subscriptions: sizes the
    /// families for its singles and `resid` for its conjunctions before a
    /// single push; the access predicates grow their families later. At
    /// the million-subscription scale the bench freezes, letting these
    /// vectors grow by doubling was the source of the freeze_build p90
    /// outlier (first-touch page faults on each fresh doubling); across a
    /// fleet the growth is amortized.
    fn reserve(&mut self, subs: &[Row]) {
        let (mut eq_int, mut eq_str, mut tag) = (0, 0, 0);
        let (mut range, mut exists, mut misc, mut resid) = (0, 0, 0, 0);
        for (_, sub) in subs {
            let Compiled::Single(pred) = sub else {
                resid += sub.preds().len();
                continue;
            };
            match pred.op {
                SymOp::EqInt(_) => eq_int += 1,
                SymOp::EqStr(_) => eq_str += 1,
                SymOp::Contains(_) => tag += 1,
                SymOp::Range(..) => range += 1,
                SymOp::Exists => exists += 1,
                _ => misc += 1,
            }
        }
        self.eq_int.reserve(eq_int);
        self.eq_str.reserve(eq_str);
        self.tag.reserve(tag);
        self.range.reserve(range);
        self.exists.reserve(exists);
        self.misc.reserve(misc);
        self.resid.reserve(resid);
    }

    /// Indexes a compiled predicate of proxy `lane` in its family; `tok`
    /// is the bit a satisfied predicate sets.
    #[inline(always)]
    fn index(&mut self, lane: u16, pred: SymPred, tok: u32) {
        let a = pred.attr;
        let (wide, narrow) = (u128::from(lane), attr_key(a) | u64::from(lane));
        let family = match pred.op {
            SymOp::EqInt(v) => {
                self.eq_int.push(int_key(a, v) | wide, tok);
                EQ_INT
            }
            SymOp::EqStr(s) => {
                self.eq_str.push(sym_key(a, s) | wide, tok);
                EQ_STR
            }
            SymOp::Contains(s) => {
                self.tag.push(sym_key(a, s) | wide, tok);
                TAG
            }
            SymOp::Exists => {
                self.exists.push(narrow, tok);
                EXISTS
            }
            SymOp::Range(lo, hi) => {
                self.range.push((narrow, lo, hi, tok));
                RANGE
            }
            op => {
                self.misc.push((narrow, tok, op));
                MISC
            }
        };
        self.mark(a, family);
    }

    /// Records that attribute `attr` has a bucket in `family`.
    fn mark(&mut self, attr: u32, family: u8) {
        if self.families.len() <= attr as usize {
            self.families.resize(attr as usize + 1, 0);
        }
        self.families[attr as usize] |= family;
    }

    /// Copies a conjunction, ordinal `c`, into `resid` and files its keyed
    /// predicates in `keyed`.
    fn push_conjunction(&mut self, c: u32, preds: &[SymPred]) {
        // Ordinals skipped as a proxy's padding own no predicates.
        self.resid_base
            .resize(c as usize + 1, self.resid.len() as u32);
        for &pred in preds {
            if let Some(bucket) = pred.bucket() {
                self.keyed.push(bucket, self.resid.len() as u32);
            }
            self.resid.push(pred);
        }
    }

    /// Moves each conjunction's access key out of `resid` — token `tok0 +
    /// c` — and closes the gaps, once every proxy's conjunctions are in
    /// and the bucket sizes final: a pair into the pair family, one
    /// predicate into its own. `c_base` is the conjunctions' proxy-major
    /// layout.
    fn choose_access(&mut self, c_base: &[u32], tok0: u32) {
        let conjunctions = *c_base.last().expect("class bases are never empty");
        fit_u32(self.resid.len() as u64, "conjunction predicates");
        self.resid_base
            .resize(conjunctions as usize + 1, self.resid.len() as u32);
        // A keyed predicate's content key, as the index of its run once
        // the keyed predicates are sorted into buckets; the run's length
        // is the key's size.
        let (buckets, at) = std::mem::take(&mut self.keyed).into_buckets("conjunction predicates");
        let mut run = vec![u32::MAX; self.resid.len()];
        for (r, span) in buckets.bounds.windows(2).enumerate() {
            for &i in &at[span[0] as usize..span[1] as usize] {
                run[i as usize] = r as u32;
            }
        }
        let mut component = vec![false; buckets.keys.len()];
        let mut kept = 0;
        for (lane, ordinals) in c_base.windows(2).enumerate() {
            for c in ordinals[0] as usize..ordinals[1] as usize {
                let preds = self.resid_base[c] as usize..self.resid_base[c + 1] as usize;
                self.resid_base[c] = kept as u32;
                if preds.is_empty() {
                    // A proxy's padding.
                    continue;
                }
                // The smallest bucket, then the family (the bits, low in
                // the bucket key, are in rank order), then the position.
                let rank = |i: usize| {
                    let r = run[i] as usize;
                    let size = || buckets.bounds[r + 1] - buckets.bounds[r];
                    (run[i] != u32::MAX).then(|| (size(), buckets.keys[r] as u8, i))
                };
                let first = preds.clone().filter_map(rank).min().map(|(.., i)| i);
                let second = first.and_then(|a| {
                    let other = preds.clone().filter(|&i| run[i] != run[a]);
                    other.filter_map(rank).min().map(|(.., i)| i)
                });
                // No keyed predicate: the first.
                let access = first.unwrap_or(preds.start);
                let tok = tok0 + c as u32;
                if let Some(b) = second {
                    let (lo, hi) = (run[access].min(run[b]), run[access].max(run[b]));
                    self.pair
                        .push(pair_key(lo, hi) | u128::from(lane as u16), tok);
                    component[lo as usize] = true;
                    component[hi as usize] = true;
                    self.mark(self.resid[access].attr, PAIR);
                    self.mark(self.resid[b].attr, PAIR);
                } else {
                    self.index(lane as u16, self.resid[access], tok);
                }
                for i in preds {
                    if i != access && Some(i) != second {
                        self.resid[kept] = self.resid[i];
                        kept += 1;
                    }
                }
            }
        }
        self.resid_base[conjunctions as usize] = kept as u32;
        self.resid.truncate(kept);
        // The pairs were keyed by run; the components' ids ascend with
        // their runs, so rekeying keeps every pair's `lo < hi`.
        let mut id = vec![0; component.len()];
        for (r, _) in component.iter().enumerate().filter(|&(_, &c)| c) {
            id[r] = self.pair_keys.len() as u32;
            self.pair_keys.push(buckets.keys[r]);
        }
        for key in &mut self.pair.keys {
            let (lo, hi) = ((*key >> 48) as u32, (*key >> 16) as u32);
            *key = pair_key(id[lo as usize], id[hi as usize]) | u128::from(*key as u16);
        }
    }
}

/// Filler for the ordinals a proxy's padding leaves unowned; no token
/// points at them.
const NO_ID: SubscriptionId = SubscriptionId::new(u64::MAX);

/// The frozen, data-oriented compilation of a set of subscriptions; see
/// the [module docs](self) for the layout. Nothing is ever added to a
/// frozen index; the one change it takes is a removed subscription's
/// retirement.
///
/// Frozen ordinals are the singles `[0, s)` then the conjunctions
/// `[s, n)`, proxy-major inside each class; wildcards are kept aside. A
/// bucket entry is a `u32` token: the ordinal — the bit — of the
/// subscription whose indexed predicate is satisfied.
#[derive(Debug, Clone)]
pub(crate) struct FrozenIndex {
    /// Number of frozen subscriptions, wildcards included.
    len: usize,
    /// Number of proxies (at least one).
    lanes: u16,
    /// Singles' bitset size: every proxy's singles, each range padded to
    /// a whole word. A single's token is its bit; conjunction `c`'s is
    /// `s_bits + c`, in a region padded the same way.
    s_bits: u32,
    /// Frozen ordinal (= token) -> subscription id (singles ++
    /// conjunctions, [`NO_ID`] in the padding).
    ids: Vec<SubscriptionId>,
    /// Conjunction `c`'s residual predicates — all but its access
    /// predicate — are `resid[resid_base[c]..resid_base[c + 1]]`.
    resid: Vec<SymPred>,
    resid_base: Vec<u32>,
    /// What the rare operators and the residuals point into.
    operands: Operands,
    /// Zero-predicate subscriptions, proxy-major, ascending by id.
    wildcards: Vec<SubscriptionId>,
    /// Proxy `p`'s wildcards are `wildcards[w_base[p]..w_base[p + 1]]`.
    w_base: Vec<u32>,
    /// The proxy that owns each word of the scratch state: the singles'
    /// words, then the conjunctions'.
    word_lane: Vec<u16>,
    /// The bits of the retired singles and conjunctions, word for word
    /// beside the scratch state.
    dead: Vec<u64>,
    /// How many subscriptions [`FrozenIndex::retire`] has taken out,
    /// wildcards included.
    retired: usize,

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

    /// Conjunctions filed under two keyed predicates, keyed [`pair_key`]
    /// of the components' ids: a component's id is its position in
    /// `pair_keys`, the sorted `content key | family` of every component.
    pair_keys: Vec<u128>,
    pair: Csr<u128>,
    pair_tok: Vec<u32>,

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
    misc_ops: Vec<SymOp>,
    misc_tok: Vec<u32>,
}

impl FrozenIndex {
    /// Freezes a compiled fleet — `fleet[p]` holds proxy `p`'s
    /// subscriptions, ascending by id, their operands in `operands` — into
    /// one kernel, which keeps its own copy of the operands.
    ///
    /// # Panics
    ///
    /// Panics if the fleet has more than `u16::MAX` proxies, or a
    /// population (a class's padded ordinals, the token space, a family's
    /// entries) does not fit `u32`.
    pub(crate) fn freeze_fleet<P: AsRef<[Row]>>(fleet: &[P], operands: &Operands) -> Self {
        // An empty fleet freezes as one empty proxy, so there is always a
        // lane to search.
        let lanes = fleet.len().max(1);
        assert!(
            lanes <= usize::from(u16::MAX),
            "frozen kernel: {lanes} proxies do not fit the u16 lane"
        );

        // The layout comes first, from the predicate counts alone. Every
        // u32 an ordinal or token will ever take is checked here, once,
        // on the totals; the casts further down are inside these bounds.
        // Per proxy: wildcards, singles, conjunctions.
        let mut classes = vec![[0usize; 3]; lanes];
        for (class, subs) in classes.iter_mut().zip(fleet) {
            for (_, sub) in subs.as_ref() {
                class[sub.preds().len().min(2)] += 1;
            }
        }
        let w_base = class_bases(classes.iter().map(|c| c[0]), 1, "wildcards");
        let s_base = class_bases(classes.iter().map(|c| c[1]), 64, "singles");
        let c_base = class_bases(classes.iter().map(|c| c[2]), 64, "conjunctions");
        let s_bits = s_base[lanes];
        let bits = fit_u32(
            u64::from(s_bits) + u64::from(c_base[lanes]),
            "tokens (singles + conjunctions)",
        );

        let mut ids = vec![NO_ID; bits as usize];
        let mut wildcards = Vec::with_capacity(w_base[lanes] as usize);
        let mut rows = Rows::default();
        // Proxy by proxy, so a proxy's subscriptions are still in cache
        // when the second pass files them; both passes walk the owner's
        // slice, ascending by id.
        for (lane, subs) in fleet.iter().enumerate() {
            let subs = subs.as_ref();
            rows.reserve(subs);
            let (mut s, mut c) = (s_base[lane], c_base[lane]);
            for (id, sub) in subs {
                match sub {
                    Compiled::Wildcard => wildcards.push(*id),
                    Compiled::Single(pred) => {
                        ids[s as usize] = *id;
                        rows.index(lane as u16, *pred, s);
                        s += 1;
                    }
                    Compiled::Conjunction(preds) => {
                        ids[(s_bits + c) as usize] = *id;
                        rows.push_conjunction(c, preds);
                        c += 1;
                    }
                }
            }
        }
        rows.choose_access(&c_base, s_bits);

        let mut word_lane = Vec::with_capacity((bits / 64) as usize);
        for base in [&s_base, &c_base] {
            for (lane, range) in base.windows(2).enumerate() {
                let words = ((range[1] - range[0]) / 64) as usize;
                word_lane.extend(std::iter::repeat_n(lane as u16, words));
            }
        }
        let (eq_int, eq_int_tok) = rows.eq_int.into_buckets("integer-equality entries");
        let (eq_str, eq_str_tok) = rows.eq_str.into_buckets("string-equality entries");
        let (tag, tag_tok) = rows.tag.into_buckets("tag entries");
        let (pair, pair_tok) = rows.pair.into_buckets("pair entries");
        let (exists, exists_tok) = rows.exists.into_buckets("exists entries");
        let (mut range, mut misc) = (rows.range, rows.misc);
        range.sort_unstable();
        misc.sort_by_key(|&(key, tok, _)| (key, tok));

        FrozenIndex {
            len: fleet.iter().map(|subs| subs.as_ref().len()).sum(),
            lanes: lanes as u16,
            s_bits,
            ids,
            resid: rows.resid,
            resid_base: rows.resid_base,
            operands: operands.clone(),
            wildcards,
            dead: vec![0; word_lane.len()],
            retired: 0,
            word_lane,
            w_base,
            families: rows.families,
            eq_int,
            eq_int_tok,
            eq_str,
            eq_str_tok,
            tag,
            tag_tok,
            pair_keys: rows.pair_keys,
            pair,
            pair_tok,
            exists,
            exists_tok,
            range_lo: range.iter().map(|r| r.1).collect(),
            range_hi: range.iter().map(|r| r.2).collect(),
            range_tok: range.iter().map(|r| r.3).collect(),
            range: Csr::group(&range, "range entries", |r| r.0),
            misc_tok: misc.iter().map(|r| r.1).collect(),
            misc: Csr::group(&misc, "rare-operator entries", |r| r.0),
            misc_ops: misc.into_iter().map(|r| r.2).collect(),
        }
    }

    /// Takes subscription `id` of proxy `lane`, a conjunction of
    /// `predicates`, out of the kernel; `false` if it was not frozen here.
    /// The predicate count names the class, and a proxy's ids ascend
    /// inside a class (padding sorts last), so the token is one binary
    /// search away. A wildcard has no bit: it leaves the list, and the
    /// proxies after it start one earlier.
    pub(crate) fn retire(&mut self, lane: u16, id: SubscriptionId, predicates: usize) -> bool {
        if predicates == 0 {
            let lane = usize::from(lane);
            let own = self.w_base[lane] as usize..self.w_base[lane + 1] as usize;
            let Ok(at) = self.wildcards[own.clone()].binary_search(&id) else {
                return false;
            };
            self.wildcards.remove(own.start + at);
            for base in &mut self.w_base[lane + 1..] {
                *base -= 1;
            }
        } else {
            let first = (self.s_bits / 64) as usize;
            let class = if predicates == 1 {
                0..first
            } else {
                first..self.word_lane.len()
            };
            let owners = &self.word_lane[class.clone()];
            let words = class.start + owners.partition_point(|&l| l < lane)
                ..class.start + owners.partition_point(|&l| l <= lane);
            let Ok(at) = self.ids[words.start * 64..words.end * 64].binary_search(&id) else {
                return false;
            };
            self.dead[words.start + at / 64] |= 1 << (at % 64);
        }
        self.retired += 1;
        true
    }

    /// `true` once more than half of the frozen subscriptions are
    /// retired: the kernel then spends most of its work on bits it
    /// clears.
    pub(crate) fn mostly_retired(&self) -> bool {
        self.retired * 2 > self.len
    }

    /// A request's count: the matches of `view` at `server` alone, 0 for a
    /// proxy outside the fleet. Only that proxy's buckets are searched and
    /// only its words touched.
    pub(crate) fn count_at(
        &self,
        view: View<'_>,
        scratch: &mut MatchScratch,
        server: ServerId,
    ) -> u32 {
        let lane = server.index();
        if lane >= self.lanes {
            return 0;
        }
        self.count_in(view, scratch, Lanes { lo: lane, hi: lane }) as u32
    }

    /// A publish's fan-out over the proxies `servers` (clipped to the
    /// fleet): the `(proxy, count)` rows of `view` with at least one
    /// match, ascending by proxy, into `out` (cleared first). One pass over
    /// those proxies' buckets, then one over the touched words, each of
    /// which belongs to a single proxy.
    pub(crate) fn fanout(
        &self,
        view: View<'_>,
        scratch: &mut MatchScratch,
        servers: Range<u16>,
        out: &mut Vec<(ServerId, u32)>,
    ) {
        out.clear();
        let (lo, end) = (servers.start, servers.end.min(self.lanes));
        if lo >= end {
            return;
        }
        let fs = self.accumulate(view, scratch, Lanes { lo, hi: end - 1 });
        // Out of the scratch while `matched` borrows it; the capacity
        // comes back, so only warm-up allocates.
        let mut counts = std::mem::take(&mut fs.lane_counts);
        counts.clear();
        let wild = &self.w_base[usize::from(lo)..=usize::from(end)];
        counts.extend(wild.windows(2).map(|w| w[1] - w[0]));
        for (w, bits) in fs.matched() {
            counts[usize::from(self.word_lane[w] - lo)] += bits.count_ones();
        }
        for (lane, &n) in (lo..).zip(&counts) {
            if n > 0 {
                out.push((ServerId::new(lane), n));
            }
        }
        fs.lane_counts = counts;
    }

    /// Accumulates over `lanes` and counts their matches, wildcards
    /// included. Everything touched lies inside `lanes`, so the touched
    /// words are the whole answer.
    fn count_in(&self, view: View<'_>, scratch: &mut MatchScratch, lanes: Lanes) -> usize {
        let wild = self.w_base[usize::from(lanes.hi) + 1] - self.w_base[usize::from(lanes.lo)];
        let fs = self.accumulate(view, scratch, lanes);
        let matched: u32 = fs.matched().map(|(_, bits)| bits.count_ones()).sum();
        (wild + matched) as usize
    }

    /// The one kernel body: for `view`, sets the bit of every satisfied
    /// indexed predicate of the proxies in `lanes` — a single's match, a
    /// conjunction's candidacy — verifies the candidates, and returns the
    /// state holding the matches.
    fn accumulate<'s>(
        &self,
        view: View<'_>,
        fs: &'s mut MatchScratch,
        lanes: Lanes,
    ) -> &'s mut MatchScratch {
        fs.begin(self.word_lane.len());
        // The ids move out for the loop so `bump` can borrow the rest.
        let mut ids = std::mem::take(&mut fs.pair_ids);
        ids.clear();
        for attr in view.attrs {
            let a = attr.name;
            // A name interned after this index froze (by a content, or by
            // a subscription in the delta), or one that only residuals
            // test, has no bucket here.
            let has = self.families.get(a as usize).copied().unwrap_or(0);
            let mut component = |key: u128| {
                if has & PAIR != 0 {
                    if let Ok(id) = self.pair_keys.binary_search(&key) {
                        ids.push(id as u32);
                    }
                }
            };
            match &attr.val {
                SymVal::Int(v) => {
                    let key = int_key(a, *v);
                    if has & EQ_INT != 0 {
                        fs.bump_all(&self.eq_int_tok[self.eq_int.span(key, lanes)]);
                    }
                    component(key | u128::from(EQ_INT));
                    if has & RANGE != 0 {
                        for j in self.range.span(attr_key(a), lanes) {
                            if *v >= self.range_lo[j] && *v <= self.range_hi[j] {
                                fs.bump(self.range_tok[j]);
                            }
                        }
                    }
                }
                SymVal::Str { sym, .. } => {
                    let key = sym_key(a, *sym);
                    if has & EQ_STR != 0 {
                        fs.bump_all(&self.eq_str_tok[self.eq_str.span(key, lanes)]);
                    }
                    // `Contains` on a string attribute means equality.
                    if has & TAG != 0 {
                        fs.bump_all(&self.tag_tok[self.tag.span(key, lanes)]);
                    }
                    component(key | u128::from(EQ_STR));
                    component(key | u128::from(TAG));
                }
                SymVal::Tags { start, end } => {
                    if has & (TAG | PAIR) != 0 {
                        for &tsym in &view.tag_syms[*start as usize..*end as usize] {
                            let key = sym_key(a, tsym);
                            if has & TAG != 0 {
                                fs.bump_all(&self.tag_tok[self.tag.span(key, lanes)]);
                            }
                            component(key | u128::from(TAG));
                        }
                    }
                }
            }
            if has & EXISTS != 0 {
                fs.bump_all(&self.exists_tok[self.exists.span(attr_key(a), lanes)]);
            }
            if has & MISC != 0 {
                for j in self.misc.span(attr_key(a), lanes) {
                    if self.operands.eval(self.misc_ops[j], &attr.val, view) {
                        fs.bump(self.misc_tok[j]);
                    }
                }
            }
        }
        // Every two components the view carries: k(k − 1)/2 searches.
        ids.sort_unstable();
        for (i, &lo) in ids.iter().enumerate() {
            for &hi in &ids[i + 1..] {
                fs.bump_all(&self.pair_tok[self.pair.span(pair_key(lo, hi), lanes)]);
            }
        }
        fs.pair_ids = ids;
        // Before anything is verified or counted: a retired subscription
        // is neither a candidate nor a match.
        if self.retired > 0 {
            for &w in &fs.touched {
                fs.words[w as usize] &= !self.dead[w as usize];
            }
        }
        self.verify(fs, view);
        fs
    }

    /// Evaluates the residuals of every conjunction whose access bit is
    /// set and clears the bit of each that fails, so what stays set in a
    /// conjunctions' word is a match, like in a singles' word.
    fn verify(&self, fs: &mut MatchScratch, view: View<'_>) {
        let first = (self.s_bits / 64) as usize;
        fs.verified = 0;
        for &w in &fs.touched {
            let w = w as usize;
            let mut candidates = if w < first { 0 } else { fs.words[w] };
            while candidates != 0 {
                let bit = candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                fs.verified += 1;
                let c = (w - first) * 64 + bit;
                let resid = self.resid_base[c] as usize..self.resid_base[c + 1] as usize;
                if !self.operands.matches(&self.resid[resid], view) {
                    fs.words[w] &= !(1 << bit);
                }
            }
        }
        count!(Counter::Matches, 1);
        count!(Counter::CandidatesVerified, fs.verified);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::symbol::SymView;
    use crate::Content;

    /// One proxy's rows, numbered as the matcher numbers them — from 0,
    /// never reused — with brute force as the oracle.
    #[derive(Debug, Clone, Default)]
    struct Owner {
        rows: Vec<(SubscriptionId, Subscription)>,
        next: u64,
    }

    impl Owner {
        fn insert(&mut self, sub: Subscription) -> SubscriptionId {
            let id = SubscriptionId::new(self.next);
            self.next += 1;
            self.rows.push((id, sub));
            id
        }

        fn remove(&mut self, id: SubscriptionId) -> Option<Subscription> {
            let at = self.rows.iter().position(|row| row.0 == id)?;
            Some(self.rows.remove(at).1)
        }

        fn matches(&self, content: &Content) -> Vec<SubscriptionId> {
            let hits = self.rows.iter().filter(|(_, sub)| sub.matches(content));
            hits.map(|row| row.0).collect()
        }

        fn match_count(&self, content: &Content) -> usize {
            self.matches(content).len()
        }
    }

    /// One proxy's rows, frozen as the one-proxy fleet.
    fn frozen(idx: &Owner) -> (FrozenIndex, SymbolTable) {
        let mut table = SymbolTable::default();
        (freeze_owners(std::slice::from_ref(idx), &mut table), table)
    }

    /// Compiles each owner's rows, as the matcher does at `subscribe`,
    /// and freezes them as one fleet.
    fn freeze_owners(fleet: &[Owner], table: &mut SymbolTable) -> FrozenIndex {
        let mut operands = Operands::default();
        let mut compile = |owner: &Owner| -> Vec<Row> {
            let rows = owner.rows.iter();
            rows.map(|(id, sub)| (*id, Compiled::new(table, &mut operands, sub)))
                .collect()
        };
        let compiled: Vec<_> = fleet.iter().map(&mut compile).collect();
        FrozenIndex::freeze_fleet(&compiled, &operands)
    }

    /// `content` in symbol space, interned into `table` as
    /// `register_page` interns it.
    fn symbolized(table: &mut SymbolTable, content: &Content) -> SymView {
        let mut view = SymView::default();
        view.symbolize(table, content);
        view
    }

    /// The ids of the fleet's subscriptions that match `view`, ascending:
    /// a word's ordinals are its own bits.
    fn matched_ids(
        frozen: &FrozenIndex,
        view: View<'_>,
        scratch: &mut MatchScratch,
    ) -> Vec<SubscriptionId> {
        let mut ids = frozen.wildcards.clone();
        for (w, mut bits) in frozen.accumulate(view, scratch, fleet(frozen)).matched() {
            while bits != 0 {
                ids.push(frozen.ids[w * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Every proxy of the fleet.
    fn fleet(frozen: &FrozenIndex) -> Lanes {
        Lanes {
            lo: 0,
            hi: frozen.lanes - 1,
        }
    }

    /// The fleet's number of matches for `view`.
    fn total(frozen: &FrozenIndex, view: View<'_>, scratch: &mut MatchScratch) -> usize {
        frozen.count_in(view, scratch, fleet(frozen))
    }

    fn frozen_matches(idx: &Owner, content: &Content) -> Vec<SubscriptionId> {
        let (f, mut table) = frozen(idx);
        let view = symbolized(&mut table, content);
        let mut scratch = MatchScratch::new();
        let out = matched_ids(&f, view.view(), &mut scratch);
        let n = total(&f, view.view(), &mut scratch);
        assert_eq!(n, out.len(), "count and id list disagree");
        assert_eq!(out, idx.matches(content), "frozen and brute force disagree");
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
        let mut idx = Owner::default();
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
    fn both_classes_and_wildcards() {
        let mut idx = Owner::default();
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
        let mut idx = Owner::default();
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
        let mut idx = Owner::default();
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
        let mut idx = Owner::default();
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
        let mut idx = Owner::default();
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
        let mut idx = Owner::default();
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
        let empty = Owner::default();
        assert!(frozen_matches(&empty, &sports_page()).is_empty());
        let (f, _) = frozen(&empty);
        assert_eq!(f.len, 0);

        // One scratch, two frozen indexes of different sizes and tables.
        let mut big = Owner::default();
        for i in 0..200 {
            big.insert(Subscription::new(vec![Predicate::ge("words", i * 10)]));
        }
        let mut small = Owner::default();
        let s = small.insert(Subscription::new(vec![Predicate::contains(
            "tags", "tennis",
        )]));
        let (fb, mut tb) = frozen(&big);
        let (fsm, mut tsm) = frozen(&small);
        let (vb, vsm) = (
            symbolized(&mut tb, &sports_page()),
            symbolized(&mut tsm, &sports_page()),
        );
        let mut scratch = MatchScratch::new();
        assert_eq!(matched_ids(&fb, vb.view(), &mut scratch).len(), 81);
        assert_eq!(matched_ids(&fsm, vsm.view(), &mut scratch), vec![s]);
        assert_eq!(matched_ids(&fb, vb.view(), &mut scratch).len(), 81);
        assert_eq!(fb.len, 200);
    }

    #[test]
    fn shared_table_symbolize_once() {
        let mut table = SymbolTable::default();
        let mut a = Owner::default();
        let sa = a.insert(Subscription::new(vec![Predicate::eq(
            "category",
            Value::str("sports"),
        )]));
        let mut b = Owner::default();
        let sb = b.insert(Subscription::new(vec![Predicate::contains(
            "tags", "tennis",
        )]));
        let fa = freeze_owners(std::slice::from_ref(&a), &mut table);
        let fb = freeze_owners(std::slice::from_ref(&b), &mut table);
        let mut scratch = MatchScratch::new();
        let view = symbolized(&mut table, &sports_page());
        assert_eq!(matched_ids(&fa, view.view(), &mut scratch), vec![sa]);
        assert_eq!(matched_ids(&fb, view.view(), &mut scratch), vec![sb]);
        assert_eq!(total(&fa, view.view(), &mut scratch), 1);
        assert_eq!(total(&fb, view.view(), &mut scratch), 1);
    }

    #[test]
    fn freeze_after_churn_matches_brute_force() {
        let mut idx = Owner::default();
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
    fn small_fleet() -> Vec<Owner> {
        let mut fleet = vec![Owner::default(); 3];
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

    /// Fan-out rows, per-proxy counts, the fleet total and the id list of
    /// `frozen` against brute force over the proxies' rows.
    fn assert_fleet_agrees(frozen: &FrozenIndex, table: &mut SymbolTable, fleet: &[Owner]) {
        let mut scratch = MatchScratch::new();
        let mut rows = Vec::new();
        for content in [
            sports_page(),
            Content::new(),
            sports_page().with("words", Value::int(5)),
        ] {
            let view = symbolized(table, &content);
            frozen.fanout(view.view(), &mut scratch, 0..u16::MAX, &mut rows);
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
                    frozen.count_at(view.view(), &mut scratch, server) as usize,
                    idx.match_count(&content)
                );
            }
            assert_eq!(
                frozen.count_at(view.view(), &mut scratch, ServerId::new(3)),
                0
            );
            let sum: u32 = rows.iter().map(|&(_, n)| n).sum();
            assert_eq!(total(frozen, view.view(), &mut scratch), sum as usize);
            let mut expected: Vec<_> = fleet.iter().flat_map(|idx| idx.matches(&content)).collect();
            expected.sort_unstable();
            assert_eq!(matched_ids(frozen, view.view(), &mut scratch), expected);
        }
    }

    #[test]
    fn fleet_fanout_and_requests_match_brute_force() {
        let fleet = small_fleet();
        let mut table = SymbolTable::default();
        let frozen = freeze_owners(&fleet, &mut table);
        assert_eq!(
            frozen.len,
            fleet.iter().map(|idx| idx.rows.len()).sum::<usize>()
        );
        assert_fleet_agrees(&frozen, &mut table, &fleet);
    }

    #[test]
    fn a_retired_subscription_leaves_every_answer() {
        let mut fleet = small_fleet();
        let mut table = SymbolTable::default();
        let mut frozen = freeze_owners(&fleet, &mut table);
        // Proxy `p` holds singles `0..70p + 3`, then a double, a triple
        // and `p` wildcards. A token is searched in its own proxy's range
        // of its own class only.
        assert!(!frozen.retire(1, SubscriptionId::new(73), 1), "a double");
        assert!(!frozen.retire(1, SubscriptionId::new(72), 2), "a single");
        assert!(!frozen.retire(0, SubscriptionId::new(5), 1), "proxy 1's");
        assert!(!frozen.retire(0, SubscriptionId::new(5), 0), "no wildcard");
        assert!(!frozen.mostly_retired());
        // A single in a proxy's second word, the conjunctions of the
        // middle proxy, the first of two wildcards, then whole classes.
        let gone = [(1, 70), (1, 73), (1, 74), (2, 145), (0, 0), (2, 143)];
        let rest = (0..64).map(|id| (1, id)).chain((0..143).map(|id| (2, id)));
        for (n, (lane, id)) in gone.into_iter().chain(rest).enumerate() {
            let id = SubscriptionId::new(id);
            let sub = fleet[usize::from(lane)].remove(id).unwrap();
            assert!(frozen.retire(lane, id, sub.len()));
            assert_fleet_agrees(&frozen, &mut table, &fleet);
            assert_eq!(frozen.retired, n + 1);
            assert_eq!(frozen.mostly_retired(), 2 * (n + 1) > frozen.len);
        }
        assert!(frozen.mostly_retired());
        assert_eq!(frozen.w_base, vec![0, 0, 1, 2]);
        assert_eq!(frozen.wildcards, [75, 146].map(SubscriptionId::new));
    }

    #[test]
    fn every_word_belongs_to_one_proxy() {
        let fleet = small_fleet();
        let frozen = freeze_owners(&fleet, &mut SymbolTable::default());
        // 3, 73 and 143 singles pad to 1, 2 and 3 words; two conjunctions
        // each pad to a word.
        assert_eq!(frozen.s_bits, 64 * 6);
        assert_eq!(frozen.ids.len(), 64 * 9);
        let owners = [vec![0, 1, 1, 2, 2, 2], vec![0, 1, 2]].concat();
        assert_eq!(frozen.word_lane, owners);
        assert_eq!(frozen.w_base, vec![0, 0, 1, 3]);
        // Padding ordinals own no subscription and no residual.
        assert_eq!(frozen.ids[2], SubscriptionId::new(2));
        assert_eq!(frozen.ids[3], NO_ID);
        assert_eq!(frozen.ids[64], SubscriptionId::new(0));
        assert_eq!(frozen.ids[64 * 6 + 1], SubscriptionId::new(4));
        assert_eq!(frozen.ids[64 * 6 + 2], NO_ID);
        // Two access predicates each, a category and a tag: the two- and
        // the three-predicate conjunction leave none and one residual.
        assert_eq!(frozen.resid_base.len(), 64 * 3 + 1);
        assert_eq!(frozen.resid_base[..4], [0, 0, 1, 1]);
        assert_eq!(frozen.resid_base[64..67], [1, 1, 2]);
        assert_eq!(frozen.resid_base[64 * 3], 3);
        assert_eq!(frozen.resid.len(), 3);
        // Two pairs at each proxy over three components, and a pair
        // entry's proxy owns its token's word.
        assert_eq!(frozen.pair_keys.len(), 3);
        assert_eq!(frozen.pair.keys.len(), 6);
        assert!(frozen.eq_str_tok.is_empty() && frozen.tag_tok.is_empty());
        for (key, run) in frozen.pair.keys.iter().zip(frozen.pair.bounds.windows(2)) {
            for &tok in &frozen.pair_tok[run[0] as usize..run[1] as usize] {
                assert_eq!(frozen.word_lane[tok as usize / 64], *key as u16);
            }
        }
    }

    #[test]
    fn an_empty_fleet_is_one_empty_proxy() {
        let mut table = SymbolTable::default();
        let frozen = freeze_owners(&[], &mut table);
        assert_eq!((frozen.len, frozen.lanes), (0, 1));
        let mut scratch = MatchScratch::new();
        let mut rows = vec![(ServerId::new(7), 1)];
        let view = symbolized(&mut table, &sports_page());
        frozen.fanout(view.view(), &mut scratch, 0..u16::MAX, &mut rows);
        assert!(rows.is_empty());
        assert_eq!(
            frozen.count_at(view.view(), &mut scratch, ServerId::new(0)),
            0
        );
        assert_eq!(total(&frozen, view.view(), &mut scratch), 0);
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
            class_bases([0, 1, 64, 65].into_iter(), 1, "wildcards"),
            [0, 0, 1, 65, 130]
        );
        assert_eq!(class_bases(std::iter::empty(), 64, "singles"), [0]);
        // The largest population that still fits: u32::MAX rounded down
        // to a word, split over two proxies.
        let top = (u32::MAX / 64 * 64) as usize;
        assert_eq!(
            class_bases([top - 64, 1].into_iter(), 64, "conjunctions"),
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
    #[should_panic(expected = "wildcards do not fit the u32 token space")]
    fn class_bases_check_the_sum_over_proxies() {
        class_bases([u32::MAX as usize, 1].into_iter(), 1, "wildcards");
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
        let (csr, toks) = rows.into_buckets("entries");
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
        let (csr, toks) = narrow.into_buckets("entries");
        assert_eq!(csr.keys, [1 << 16, 3 << 16, 3 << 16 | 1]);
        assert_eq!(toks, [1, 0, 2]);
        let (csr, toks) = TokenRows::<u64>::default().into_buckets("entries");
        assert_eq!((csr.keys.len(), csr.bounds, toks), (0, vec![0], vec![]));
    }

    #[test]
    fn token_rows_sort_the_proxy_bytes_when_they_arrive_out_of_order() {
        // Singles of proxies 0, 1 and 300, then the access predicates of
        // proxies 0 and 300: proxy-major twice over, not once. One content
        // key, so only the proxy bytes — both of them — vary.
        let mut rows = TokenRows::<u128>::default();
        for (lane, tok) in [(0, 0), (1, 1), (300, 2), (0, 3), (300, 4)] {
            rows.push(9 << 16 | lane, tok);
        }
        let (csr, toks) = rows.into_buckets("entries");
        assert_eq!(csr.keys, [9 << 16, 9 << 16 | 1, 9 << 16 | 300]);
        assert_eq!(csr.bounds, [0, 2, 3, 5]);
        assert_eq!(toks, [0, 3, 1, 2, 4]);
    }

    /// Freezes one proxy per element of `fleet`.
    fn frozen_fleet(fleet: Vec<Vec<Subscription>>) -> (FrozenIndex, SymbolTable) {
        let mut indexes = vec![Owner::default(); fleet.len()];
        for (index, subs) in indexes.iter_mut().zip(fleet) {
            for sub in subs {
                index.insert(sub);
            }
        }
        let mut table = SymbolTable::default();
        (freeze_owners(&indexes, &mut table), table)
    }

    /// `(candidates verified, matches)` of one fleet-wide match.
    fn work(frozen: &FrozenIndex, table: &mut SymbolTable, content: &Content) -> (u32, usize) {
        let view = symbolized(table, content);
        let mut scratch = MatchScratch::new();
        let matches = total(frozen, view.view(), &mut scratch);
        (scratch.verified, matches)
    }

    #[test]
    fn a_match_verifies_only_the_conjunctions_under_its_access_key() {
        let breaking = |i: usize, more: &[Predicate]| {
            let mut preds = vec![
                Predicate::eq("category", Value::str(format!("cat{}", i % 100))),
                Predicate::contains("tags", "breaking"),
            ];
            preds.extend_from_slice(more);
            Subscription::new(preds)
        };
        let page = |cat: &str| {
            Content::new()
                .with("category", Value::str(cat))
                .with("tags", Value::tags(["breaking", "local"]))
        };
        // 10 000 conjunctions over 4 proxies: 100 under each category,
        // 25 at each proxy, and all 10 000 under the tag.
        for more in [&[][..], &[Predicate::ge("bytes", 0)]] {
            let mut fleet = vec![Vec::new(); 4];
            for i in 0..10_000 {
                fleet[i / 100 % 4].push(breaking(i, more));
            }
            let (frozen, mut table) = frozen_fleet(fleet);
            assert_eq!(frozen.pair_tok.len(), 10_000, "indexed by category and tag");
            assert_eq!(frozen.pair_keys.len(), 101);
            assert!(frozen.eq_str_tok.is_empty() && frozen.tag_tok.is_empty());
            assert!(frozen.range_tok.is_empty());
            let bytes = table.intern_name("bytes") as usize;
            let scanned = frozen.families.get(bytes).copied();
            assert_eq!(scanned.unwrap_or(0), 0, "no RANGE bit for bytes");

            let hit = page("cat7").with("bytes", Value::int(512));
            assert_eq!(work(&frozen, &mut table, &hit), (100, 100));
            assert_eq!(work(&frozen, &mut table, &page("cat100")), (0, 0));
            // Under its category alone, the untagged page's 100 would be
            // candidates.
            let untagged = hit.clone().with("tags", Value::tags(["local"]));
            assert_eq!(work(&frozen, &mut table, &untagged), (0, 0));
            // A request verifies its own proxy's candidates only.
            let mut scratch = MatchScratch::new();
            let view = symbolized(&mut table, &hit);
            assert_eq!(
                frozen.count_at(view.view(), &mut scratch, ServerId::new(3)),
                25
            );
            assert_eq!(scratch.verified, 25);
        }
    }

    #[test]
    fn access_predicate_is_the_smallest_bucket_then_family_then_position() {
        let hot = || Predicate::eq("category", Value::str("hot"));
        let author = |name: &str| Predicate::eq("author", Value::str(name));
        let tag = |t: &str| Predicate::contains("tags", t);
        let sub = |preds: &[Predicate]| Subscription::new(preds.to_vec());
        // The work of a page that carries, letter by letter, `category =
        // hot`, author ann or bob, tag t, and `n = 5`.
        let on = |frozen: &FrozenIndex, table: &mut SymbolTable, attrs: &str| {
            let mut page = Content::new();
            for attr in attrs.chars() {
                match attr {
                    'c' => page.set("category", Value::str("hot")),
                    'a' => page.set("author", Value::str("ann")),
                    'b' => page.set("author", Value::str("bob")),
                    't' => page.set("tags", Value::tags(["t"])),
                    _ => page.set("n", Value::int(5)),
                };
            }
            work(frozen, table, &page)
        };

        // `category = hot` is carried by three conjunctions, every other
        // key by one, two of them at another proxy: sizes are fleet-wide.
        // At proxy 0 alone all three keys of the first tie, and the pair
        // would be `hot` and `ann`.
        let (frozen, mut table) = frozen_fleet(vec![
            vec![sub(&[hot(), author("ann"), tag("t")])],
            vec![sub(&[hot(), author("bob")]), sub(&[hot(), tag("u")])],
        ]);
        assert_eq!(frozen.pair_tok.len(), 3);
        assert_eq!(frozen.resid.len(), 1, "hot is the residual");
        // The first is a candidate of `ann` and `t` together only.
        assert_eq!(on(&frozen, &mut table, "at"), (1, 0));
        assert_eq!(on(&frozen, &mut table, "ca"), (0, 0));
        assert_eq!(on(&frozen, &mut table, "c"), (0, 0));

        // A tie goes to the family (integer equality, string equality,
        // tag), whatever the position ...
        let (frozen, mut table) = frozen_fleet(vec![vec![sub(&[
            tag("t"),
            author("ann"),
            Predicate::eq("n", Value::int(5)),
        ])]]);
        assert_eq!((frozen.pair_tok.len(), frozen.pair_keys.len()), (1, 2));
        let resid: Vec<_> = frozen.resid.iter().map(|p| p.op).collect();
        assert!(matches!(resid[..], [SymOp::Contains(_)]));
        assert_eq!(on(&frozen, &mut table, "na"), (1, 0));
        assert_eq!(on(&frozen, &mut table, "at"), (0, 0));
        assert_eq!(on(&frozen, &mut table, "nat"), (1, 1));
        // ... then to the earlier predicate.
        let (frozen, mut table) =
            frozen_fleet(vec![vec![sub(&[author("ann"), hot(), author("bob")])]]);
        assert_eq!(frozen.pair_tok.len(), 1);
        assert_eq!(on(&frozen, &mut table, "ca"), (1, 0));
        assert_eq!(on(&frozen, &mut table, "cb"), (0, 0));

        // A keyed predicate wins over any scanned one before it; a
        // conjunction of scanned predicates only is indexed by its first.
        let scanned = [
            Predicate::ge("words", 5),
            Predicate::exists("author"),
            Predicate::prefix("category", "sp"),
        ];
        let (frozen, _) = frozen_fleet(vec![vec![sub(&scanned)]]);
        let families = [&frozen.range_tok, &frozen.exists_tok, &frozen.misc_tok];
        assert_eq!(families.map(Vec::len), [1, 0, 0]);
        let (frozen, _) = frozen_fleet(vec![vec![sub(&[scanned.to_vec(), vec![hot()]].concat())]]);
        assert_eq!(frozen.eq_str_tok.len(), 1);
        assert!(frozen.range_tok.is_empty());
    }

    #[test]
    fn a_duplicate_predicate_is_indexed_once_and_verified_once() {
        let p = Predicate::eq("category", Value::str("sports"));
        let (frozen, mut table) = frozen_fleet(vec![vec![Subscription::new(vec![p.clone(), p])]]);
        assert_eq!(frozen.eq_str_tok.len(), 1);
        assert_eq!(frozen.resid.len(), 1);
        assert_eq!(work(&frozen, &mut table, &sports_page()), (1, 1));
    }

    /// The one conjunction `preds`, frozen: the sizes of its pair family
    /// and of its residual array, and the `(verified, matches)` of each of
    /// `pages`.
    fn one_conjunction(
        preds: Vec<Predicate>,
        pages: &[Content],
    ) -> (usize, usize, Vec<(u32, usize)>) {
        let (frozen, mut table) = frozen_fleet(vec![vec![Subscription::new(preds)]]);
        let work = pages.iter().map(|page| work(&frozen, &mut table, page));
        (frozen.pair_tok.len(), frozen.resid.len(), work.collect())
    }

    #[test]
    fn a_pair_can_come_from_one_string_attribute() {
        // Equality and `Contains` on one string are two content keys.
        let sports = || Content::new().with("category", Value::str("sports"));
        let pages = [
            sports(),
            Content::new().with("category", Value::str("tech")),
        ];
        let preds = vec![
            Predicate::eq("category", Value::str("sports")),
            Predicate::contains("category", "sports"),
        ];
        assert_eq!(one_conjunction(preds, &pages), (1, 0, vec![(1, 1), (0, 0)]));
    }

    #[test]
    fn a_pair_can_be_two_tags_of_one_set() {
        let tagged = |tags: &[&str]| Content::new().with("tags", Value::tags(tags.iter().copied()));
        let pages = [
            tagged(&["a", "b"]),
            tagged(&["a"]),
            tagged(&["b", "c", "a"]),
        ];
        let preds = vec![
            Predicate::contains("tags", "b"),
            Predicate::contains("tags", "a"),
        ];
        let work = vec![(1, 1), (0, 0), (1, 1)];
        assert_eq!(one_conjunction(preds, &pages), (1, 0, work));
    }

    #[test]
    fn an_integer_key_pairs_with_a_string_key() {
        // `n`, the first name interned, keys its 5 below any key of
        // `category`, which a page lists first: the ids arrive out of
        // order.
        let page = |n: i64| sports_page().with("n", Value::int(n));
        let pages = [
            page(5),
            page(-1),
            sports_page(),
            page(5).with("words", Value::int(900)),
        ];
        let preds = vec![
            Predicate::eq("n", Value::int(5)),
            Predicate::ge("words", 900),
            Predicate::eq("category", Value::str("sports")),
        ];
        // The sports page's 800 words fail the residual.
        let work = vec![(1, 0), (0, 0), (0, 0), (1, 1)];
        assert_eq!(one_conjunction(preds, &pages), (1, 1, work));
    }

    #[test]
    fn p_p_q_pairs_p_with_q_and_verifies_the_second_p() {
        let p = Predicate::eq("category", Value::str("sports"));
        let q = Predicate::contains("tags", "tennis");
        let work = vec![(1, 1), (0, 0)];
        let pages = [
            sports_page(),
            sports_page().with("tags", Value::tags(["golf"])),
        ];
        assert_eq!(one_conjunction(vec![p.clone(), p, q], &pages), (1, 1, work));
    }

    #[test]
    fn one_keyed_content_key_keeps_one_access_predicate() {
        let p = || Predicate::eq("category", Value::str("sports"));
        let conjunctions = [
            vec![p(), p()],
            vec![p(), Predicate::ge("words", 5)],
            vec![
                Predicate::exists("tags"),
                p(),
                Predicate::prefix("category", "s"),
            ],
        ];
        for preds in conjunctions {
            let (frozen, mut table) = frozen_fleet(vec![vec![Subscription::new(preds)]]);
            assert!(frozen.pair_keys.is_empty() && frozen.pair_tok.is_empty());
            assert_eq!(frozen.eq_str_tok.len(), 1);
            assert!(frozen.families.iter().all(|&f| f & PAIR == 0));
            assert_eq!(work(&frozen, &mut table, &sports_page()), (1, 1));
        }
    }

    /// Proxy `p` of three holds `p + 1` sports-and-tennis doubles, one
    /// sports-and-golf double and one sports-and-tennis-and-long triple.
    fn paired_fleet() -> Vec<Owner> {
        let mut fleet = vec![Owner::default(); 3];
        let sports = || Predicate::eq("category", Value::str("sports"));
        for (lane, idx) in fleet.iter_mut().enumerate() {
            for _ in 0..=lane {
                idx.insert(Subscription::new(vec![
                    sports(),
                    Predicate::contains("tags", "tennis"),
                ]));
            }
            idx.insert(Subscription::new(vec![
                sports(),
                Predicate::contains("tags", "golf"),
            ]));
            idx.insert(Subscription::new(vec![
                Predicate::contains("tags", "tennis"),
                Predicate::ge("words", 1000),
                sports(),
            ]));
        }
        fleet
    }

    #[test]
    fn a_request_counts_through_a_pair() {
        let fleet = paired_fleet();
        let mut table = SymbolTable::default();
        let frozen = freeze_owners(&fleet, &mut table);
        assert_eq!(frozen.pair_tok.len(), 3 + 4 + 5);
        let mut scratch = MatchScratch::new();
        let view = symbolized(&mut table, &sports_page());
        for lane in 0..3u16 {
            let count = frozen.count_at(view.view(), &mut scratch, ServerId::new(lane));
            assert_eq!(count, u32::from(lane) + 1);
            // Its own proxy's doubles and triple, nobody else's.
            assert_eq!(scratch.verified, u32::from(lane) + 2);
        }
        assert_fleet_agrees(&frozen, &mut table, &fleet);
    }

    #[test]
    fn a_retired_paired_conjunction_leaves_every_answer() {
        let mut fleet = paired_fleet();
        let mut table = SymbolTable::default();
        let mut frozen = freeze_owners(&fleet, &mut table);
        // Proxy 2's third double, then its triple.
        for (id, left) in [(2, 2), (4, 2)] {
            let id = SubscriptionId::new(id);
            let sub = fleet[2].remove(id).unwrap();
            assert!(frozen.retire(2, id, sub.len()));
            assert_fleet_agrees(&frozen, &mut table, &fleet);
            let mut scratch = MatchScratch::new();
            let view = symbolized(&mut table, &sports_page());
            assert_eq!(
                frozen.count_at(view.view(), &mut scratch, ServerId::new(2)),
                left
            );
            // A retired conjunction is not a candidate.
            assert_eq!(scratch.verified, left + u32::from(id.raw() == 2));
        }
    }

    #[test]
    fn a_match_churn_shaped_fleet_verifies_what_both_keys_select() {
        // 10 categories x 20 tags, doubles and multis (a bytes floor on
        // every second) over 8 proxies, page-equality singles beside them.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let category = |c: u64| Value::str(format!("cat{c}"));
        let tag = |t: u64| format!("tag{t}");
        let mut fleet = vec![Vec::new(); 8];
        let mut pairs = Vec::new();
        for i in 0..4_000 {
            let mut preds = vec![
                Predicate::eq("category", category(draw(10))),
                Predicate::contains("tags", tag(draw(20))),
            ];
            pairs.push(Subscription::new(preds.clone()));
            if i % 2 == 1 {
                preds.push(Predicate::ge("bytes", 2_048 << (2 * draw(3))));
            }
            let lane = draw(8) as usize;
            fleet[lane].push(Subscription::new(preds));
            fleet[lane].push(Subscription::new(vec![Predicate::eq(
                "page",
                Value::int(i),
            )]));
        }
        let subs: Vec<_> = fleet.iter().flatten().cloned().collect();
        let (frozen, mut table) = frozen_fleet(fleet);
        assert_eq!(frozen.pair_tok.len(), 4_000);
        assert_eq!(frozen.pair_keys.len(), 30);
        for page in 0..50 {
            let tags: BTreeSet<_> = (0..1 + draw(3)).map(|_| tag(draw(20))).collect();
            let content = Content::new()
                .with("page", Value::int(page))
                .with("category", category(draw(10)))
                .with("tags", Value::tags(tags))
                .with("bytes", Value::int(1 << (10 + draw(8))));
            let both_keys = pairs.iter().filter(|s| s.matches(&content)).count();
            let matches = subs.iter().filter(|s| s.matches(&content)).count();
            assert_eq!(
                work(&frozen, &mut table, &content),
                (both_keys as u32, matches)
            );
        }
    }

    /// Every kind of value at its edges: the integer extremes, the empty
    /// string, strings that prefix one another, the empty tag set.
    fn edge_values() -> Vec<Value> {
        let ints = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        let sets: [&[&str]; 4] = [&[], &["s"], &["s", "sp"], &["sport"]];
        let ints = ints.into_iter().map(Value::int);
        let strs = ["", "s", "sp", "sport"].into_iter().map(Value::str);
        let sets = sets.into_iter().map(|set| Value::tags(set.iter().copied()));
        ints.chain(strs).chain(sets).collect()
    }

    /// Every operator over every operand of [`edge_values`].
    fn edge_ops() -> Vec<Op> {
        let mut ops = vec![Op::Exists];
        for value in edge_values() {
            match &value {
                Value::Int(b) => ops.extend([Op::Lt(*b), Op::Le(*b), Op::Gt(*b), Op::Ge(*b)]),
                Value::Str(s) => ops.extend([Op::Contains(s.clone()), Op::Prefix(s.clone())]),
                Value::Tags(_) => {}
            }
            ops.extend([Op::Eq(value.clone()), Op::Ne(value)]);
        }
        ops
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The oracle is [`Predicate::eval`] on the content itself, which
        /// knows nothing of symbols, families or buckets. Each case is the
        /// full grid — every operator and operand against attribute `x`
        /// absent and holding every value, of the right type and the
        /// wrong ones, named by this predicate, by another one only, and
        /// by none — in drawn surroundings: decoy predicates compiled
        /// first and other attributes beside `x`. The content is
        /// symbolized two ways: interned after the predicates (a page
        /// registered after a subscribe) and before them (a subscribe
        /// whose strings a page interned first).
        #[test]
        fn symbol_space_evaluator_agrees_with_predicate_eval(
            decoys in proptest::collection::vec(
                (proptest::sample::select(vec!["x", "y"]), proptest::sample::select(edge_ops())),
                0..4,
            ),
            beside in proptest::collection::btree_map(
                proptest::sample::select(vec!["a", "y"]),
                proptest::sample::select(edge_values()),
                0..3,
            ),
        ) {
            let decoys: Vec<_> = decoys.into_iter().map(|(a, op)| Predicate::new(a, op)).collect();
            let mut values: Vec<_> = edge_values().into_iter().map(Some).collect();
            let never = [Value::str("never"), Value::tags(["never"]), Value::tags(["never", "s"])];
            values.extend(never.map(Some));
            values.push(None);
            for op in edge_ops() {
                let pred = Predicate::new("x", op);
                let compiled = |table: &mut SymbolTable, operands: &mut Operands| {
                    for decoy in &decoys {
                        compile(table, operands, decoy);
                    }
                    compile(table, operands, &pred)
                };
                let (mut table, mut operands) = (SymbolTable::default(), Operands::default());
                let after = compiled(&mut table, &mut operands);
                for value in &values {
                    let mut content = Content::new();
                    for (attr, value) in beside.iter().chain(value.as_ref().map(|v| (&"x", v))) {
                        content.set(*attr, value.clone());
                    }
                    let interned = symbolized(&mut table.clone(), &content);
                    let (mut first, mut first_operands) = (SymbolTable::default(), Operands::default());
                    let interned_first = symbolized(&mut first, &content);
                    let before = compiled(&mut first, &mut first_operands);
                    let holds = [
                        operands.holds(&after, interned.view()),
                        first_operands.holds(&before, interned_first.view()),
                    ];
                    let expected = pred.eval(&content);
                    proptest::prop_assert_eq!(holds, [expected; 2], "{} on {:?}", pred, content);
                }
            }
        }
    }
}
