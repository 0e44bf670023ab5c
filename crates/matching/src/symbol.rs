//! The symbol space subscriptions and content are matched in.
//!
//! Attribute names and string values/tags are interned into dense `u32`
//! symbols ([`SymbolTable`]), and a content descriptor is translated into
//! that space as a [`SymView`]: symbols and integers, sorted tag-symbol
//! slices, string bytes for prefix predicates. Matching then compares
//! integers and never hashes a string.
//!
//! An [`EngineMatcher`](crate::EngineMatcher) keeps one table for its whole
//! life. It interns each predicate at `subscribe` and each page's content
//! at `register_page`, and keeps every page's view in one arena
//! ([`PageViews`]), so a publish or a request reads symbols that were
//! computed once. Content interns what it carries: a predicate interned
//! later finds the symbols the pages already hold, and a string no
//! predicate names has a symbol no bucket or operand holds.

use std::collections::HashMap;

use pscd_types::PageId;

use crate::{Content, Value};

/// Two dense intern spaces: one for attribute *names*, one for string
/// *values and tags* (they share a space — buckets are keyed by `(attr,
/// string)` pairs, so equality values and tags can never collide).
///
/// One table serves every proxy's subscriptions in the fleet-wide frozen
/// kernel, so one symbolized content matches against all of them with
/// zero string work.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymbolTable {
    names: HashMap<String, u32>,
    strings: HashMap<String, u32>,
}

impl SymbolTable {
    /// Interns an attribute name, returning its dense symbol.
    pub(crate) fn intern_name(&mut self, name: &str) -> u32 {
        let next = self.names.len() as u32;
        match self.names.get(name) {
            Some(&sym) => sym,
            None => {
                self.names.insert(name.to_owned(), next);
                next
            }
        }
    }

    /// Interns a string value or tag, returning its dense symbol.
    pub(crate) fn intern_string(&mut self, s: &str) -> u32 {
        let next = self.strings.len() as u32;
        match self.strings.get(s) {
            Some(&sym) => sym,
            None => {
                self.strings.insert(s.to_owned(), next);
                next
            }
        }
    }
}

/// A content descriptor translated into symbol space: attribute names and
/// string values replaced by their [`SymbolTable`] symbols, each tag set
/// flattened into a sorted symbol slice, string bytes copied (prefix
/// predicates still need them). Offsets are relative to the view's own
/// arrays, so a view is copied into the matcher's page arena as it is.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymView {
    attrs: Vec<SymAttr>,
    tag_syms: Vec<u32>,
    bytes: Vec<u8>,
}

/// One attribute in symbol space.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SymAttr {
    pub(crate) name: u32,
    pub(crate) val: SymVal,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum SymVal {
    Int(i64),
    /// The string's symbol; the view's `bytes[start..end]` serve prefix
    /// predicates.
    Str {
        sym: u32,
        start: u32,
        end: u32,
    },
    /// The view's `tag_syms[start..end]`, sorted.
    Tags {
        start: u32,
        end: u32,
    },
}

/// A symbolized content, borrowed from a [`SymView`] or from one page of a
/// [`PageViews`] arena: what the kernel and the evaluator read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct View<'a> {
    pub(crate) attrs: &'a [SymAttr],
    pub(crate) tag_syms: &'a [u32],
    pub(crate) bytes: &'a [u8],
}

impl SymView {
    /// Replaces the view with `content`, its names and strings interned
    /// into `table`.
    pub(crate) fn symbolize(&mut self, table: &mut SymbolTable, content: &Content) {
        self.attrs.clear();
        self.tag_syms.clear();
        self.bytes.clear();
        for (name, value) in content.iter() {
            let name = table.intern_name(name);
            let val = match value {
                Value::Int(i) => SymVal::Int(*i),
                Value::Str(s) => {
                    let start = offset(self.bytes.len());
                    self.bytes.extend_from_slice(s.as_bytes());
                    let end = offset(self.bytes.len());
                    SymVal::Str {
                        sym: table.intern_string(s),
                        start,
                        end,
                    }
                }
                Value::Tags(tags) => {
                    let start = self.tag_syms.len();
                    self.tag_syms
                        .extend(tags.iter().map(|t| table.intern_string(t)));
                    self.tag_syms[start..].sort_unstable();
                    SymVal::Tags {
                        start: offset(start),
                        end: offset(self.tag_syms.len()),
                    }
                }
            };
            self.attrs.push(SymAttr { name, val });
        }
    }

    /// The view, borrowed.
    #[cfg(test)]
    pub(crate) fn view(&self) -> View<'_> {
        View {
            attrs: &self.attrs,
            tag_syms: &self.tag_syms,
            bytes: &self.bytes,
        }
    }
}

/// `len` as a `u32` offset into a view or the page arena.
fn offset(len: usize) -> u32 {
    u32::try_from(len)
        .unwrap_or_else(|_| panic!("symbolized content: offset {len} does not fit a u32"))
}

/// Where one page's view lies in a [`PageViews`] arena.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The page's attributes are `attrs[attrs..attrs + len]`.
    attrs: u32,
    len: u32,
    /// Where its tag symbols and string bytes start.
    tags: u32,
    bytes: u32,
    /// The most attributes, tag symbols and bytes the slot has held: what
    /// a re-registered page's content fits into in place.
    room: [u32; 3],
}

/// Every registered page's content in symbol space, in one arena indexed
/// by page id: the pages' attributes, tag symbols and string bytes back to
/// back in one [`SymView`], and per page the [`Slot`] that says where.
///
/// Re-registering a page overwrites its slot when the new content fits the
/// room the slot has had, and takes a fresh slot at the end when it does
/// not, so a page's abandoned slots are each smaller than what replaced
/// them. Memory follows the largest registered id: the slot array has one
/// entry per id up to it, registered or not.
#[derive(Debug, Default)]
pub(crate) struct PageViews {
    arena: SymView,
    slots: Vec<Option<Slot>>,
    registered: usize,
    /// The content being registered, symbolized before it is placed.
    staging: SymView,
}

impl PageViews {
    /// Symbolizes `content` as `page`'s, interning its strings into
    /// `table`; replaces what the page held.
    pub(crate) fn register(&mut self, page: PageId, table: &mut SymbolTable, content: &Content) {
        self.staging.symbolize(table, content);
        let new = &self.staging;
        let need = [new.attrs.len(), new.tag_syms.len(), new.bytes.len()].map(offset);
        let at = page.as_usize();
        if self.slots.len() <= at {
            self.slots.resize(at + 1, None);
        }
        let arena = &mut self.arena;
        let slot = match self.slots[at] {
            Some(slot) if need.iter().zip(slot.room).all(|(n, room)| *n <= room) => slot,
            old => {
                self.registered += usize::from(old.is_none());
                // The fresh slot's room only grows, so a page whose
                // contents take turns at being the largest settles.
                let held = old.map_or([0; 3], |slot| slot.room);
                let room = [0, 1, 2].map(|part| need[part].max(held[part]));
                // Past a slot's length; never read.
                let filler = SymAttr {
                    name: u32::MAX,
                    val: SymVal::Int(0),
                };
                Slot {
                    attrs: reserve(&mut arena.attrs, room[0], filler),
                    len: 0,
                    tags: reserve(&mut arena.tag_syms, room[1], 0),
                    bytes: reserve(&mut arena.bytes, room[2], 0),
                    room,
                }
            }
        };
        put(&mut arena.attrs, slot.attrs, &new.attrs);
        put(&mut arena.tag_syms, slot.tags, &new.tag_syms);
        put(&mut arena.bytes, slot.bytes, &new.bytes);
        self.slots[at] = Some(Slot {
            len: need[0],
            ..slot
        });
    }

    /// `page`'s view, if it is registered.
    #[inline]
    pub(crate) fn view(&self, page: PageId) -> Option<View<'_>> {
        let slot = self.slots.get(page.as_usize())?.as_ref()?;
        let part = |start: u32, len: u32| start as usize..(start + len) as usize;
        Some(View {
            attrs: &self.arena.attrs[part(slot.attrs, slot.len)],
            tag_syms: &self.arena.tag_syms[part(slot.tags, slot.room[1])],
            bytes: &self.arena.bytes[part(slot.bytes, slot.room[2])],
        })
    }

    /// Number of registered pages.
    pub(crate) fn len(&self) -> usize {
        self.registered
    }

    /// `true` if the registered pages are exactly the ids `0..pages`.
    pub(crate) fn covers(&self, pages: usize) -> bool {
        // `registered` counts distinct ids below `slots.len()`.
        self.registered == pages && self.slots.len() <= pages
    }
}

/// Appends `room` fillers to `arena` for a fresh slot; returns where they
/// start.
fn reserve<T: Copy>(arena: &mut Vec<T>, room: u32, filler: T) -> u32 {
    arena.resize(arena.len() + room as usize, filler);
    // The end is checked, so every offset inside the slot fits too.
    offset(arena.len()) - room
}

/// Writes `part` into the slot part starting at `at`, whose room holds it.
fn put<T: Copy>(arena: &mut [T], at: u32, part: &[T]) {
    arena[at as usize..][..part.len()].copy_from_slice(part);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = SymbolTable::default();
        assert_eq!(t.intern_name("a"), 0);
        assert_eq!(t.intern_name("b"), 1);
        assert_eq!(t.intern_name("a"), 0);
        assert_eq!(t.intern_string("x"), 0);
        assert_eq!(t.intern_string("x"), 0);
        assert_eq!(t.intern_string("a"), 1, "names and strings apart");
        assert_eq!((t.names.len(), t.strings.len()), (2, 2));
    }

    /// What a view holds, by attribute: `(name, int)`, `(name, sym,
    /// bytes)` or `(name, tag symbols)`, as text.
    fn read(table: &SymbolTable, view: View<'_>) -> Vec<String> {
        let name = |sym| table.names.iter().find(|(_, &s)| s == sym).unwrap().0;
        let attrs = view.attrs.iter().map(|attr| match attr.val {
            SymVal::Int(i) => format!("{}={i}", name(attr.name)),
            SymVal::Str { sym, start, end } => {
                let bytes = &view.bytes[start as usize..end as usize];
                format!(
                    "{}={sym}:{}",
                    name(attr.name),
                    String::from_utf8_lossy(bytes)
                )
            }
            SymVal::Tags { start, end } => {
                let tags = &view.tag_syms[start as usize..end as usize];
                format!("{}={tags:?}", name(attr.name))
            }
        });
        attrs.collect()
    }

    #[test]
    fn symbolizing_interns_every_name_and_string() {
        let mut table = SymbolTable::default();
        let (cat, b) = (table.intern_name("cat"), table.intern_string("b"));
        let content = Content::new()
            .with("cat", Value::str("zz"))
            .with("tags", Value::tags(["zz", "b"]))
            .with("unknown", Value::int(3));
        let mut view = SymView::default();
        view.symbolize(&mut table, &content);
        assert_eq!(view.attrs[0].name, cat);
        assert_eq!(view.tag_syms, [b, 1]);
        assert_eq!(
            read(&table, view.view()),
            ["cat=1:zz", "tags=[0, 1]", "unknown=3"]
        );
        assert_eq!((table.names.len(), table.strings.len()), (3, 2));
    }

    #[test]
    fn a_page_reads_back_what_it_was_registered_with() {
        let (mut table, mut pages) = (SymbolTable::default(), PageViews::default());
        let page = |i: i64, cat: &str, tags: &[&str]| {
            Content::new()
                .with("n", Value::int(i))
                .with("cat", Value::str(cat))
                .with("tags", Value::tags(tags.iter().copied()))
        };
        pages.register(PageId::new(2), &mut table, &page(2, "sports", &["b", "a"]));
        pages.register(PageId::new(0), &mut table, &page(0, "tech", &[]));
        assert!(pages.view(PageId::new(1)).is_none() && pages.view(PageId::new(3)).is_none());
        assert_eq!(pages.len(), 2);
        assert!(!pages.covers(2) && !pages.covers(3));
        let views = [0, 2].map(|p| read(&table, pages.view(PageId::new(p)).unwrap()));
        assert_eq!(views[0], ["cat=3:tech", "n=0", "tags=[]"]);
        assert_eq!(views[1], ["cat=0:sports", "n=2", "tags=[1, 2]"]);
        pages.register(PageId::new(1), &mut table, &Content::new());
        assert!(pages.view(PageId::new(1)).unwrap().attrs.is_empty());
        assert!(pages.covers(3));
    }

    #[test]
    fn re_registering_a_page_a_thousand_times_does_not_grow_the_arena() {
        let (mut table, mut pages) = (SymbolTable::default(), PageViews::default());
        let words = ["a", "bb", "ccc", "dddd"];
        // Most tags, most string bytes and most attributes come in turns,
        // so no content is the largest in every part.
        let content = |i: usize| {
            let tags = words[..i % 4 + 1].iter().copied();
            let content = Content::new()
                .with("s", Value::str(words[3 - i % 4]))
                .with("tags", Value::tags(tags));
            (0..i % 3).fold(content, |c, k| c.with(words[k], Value::int(k as i64)))
        };
        let size = |p: &PageViews| {
            let arena = &p.arena;
            [arena.attrs.len(), arena.tag_syms.len(), arena.bytes.len()]
        };
        pages.register(PageId::new(1), &mut table, &content(11));
        let neighbour = read(&table, pages.view(PageId::new(1)).unwrap());
        let mut settled = None;
        let mut expected = SymView::default();
        for i in 0..1_000 {
            pages.register(PageId::new(0), &mut table, &content(i));
            expected.symbolize(&mut table, &content(i));
            let page = pages.view(PageId::new(0)).unwrap();
            assert_eq!(read(&table, page), read(&table, expected.view()));
            assert_eq!(read(&table, pages.view(PageId::new(1)).unwrap()), neighbour);
            // Every shape has been placed once after the first twelve.
            match settled {
                None if i == 11 => settled = Some(size(&pages)),
                None => {}
                Some(settled) => assert_eq!(size(&pages), settled, "re-registration {i} grew"),
            }
        }
        assert_eq!(pages.len(), 2);
    }
}
