//! The operation streams both model suites drive a strategy and its
//! model with.

use proptest::prelude::*;

pub const PAGES: u32 = 32;

#[derive(Debug, Clone, Copy)]
pub enum Op {
    Push(u32, u32),
    WouldStore(u32, u32),
    Access(u32, u32),
    Invalidate(u32),
}

pub fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        3 => (0..PAGES, 0u32..4).prop_map(|(p, s)| Op::Push(p, s)),
        1 => (0..PAGES, 0u32..4).prop_map(|(p, s)| Op::WouldStore(p, s)),
        4 => (0..PAGES, 0u32..4).prop_map(|(p, s)| Op::Access(p, s)),
        1 => (0..PAGES).prop_map(Op::Invalidate),
    ];
    proptest::collection::vec(op, 1..400)
}
