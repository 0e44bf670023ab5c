//! A tiny little-endian binary codec for cache and strategy state
//! snapshots.
//!
//! The live service mode serializes every proxy's complete mutable cache
//! state — heap slots, stamp counters, inflation values, frequency
//! tables — into its periodic snapshots, and the differential test suite
//! compares those byte strings across the service and batch replays.
//! That comparison is only meaningful if encoding is **canonical**: the
//! same logical state must always produce the same bytes. Hand-rolled
//! fixed-width little-endian fields guarantee exactly that (floats
//! travel as their IEEE-754 bit patterns via [`f64::to_bits`], so
//! round-trips are bit-exact), with no dependency footprint.
//!
//! Writers are free functions appending to a `Vec<u8>`; reading goes
//! through [`SnapshotReader`], a bounds-checked cursor that surfaces
//! truncation and corruption as [`SnapshotError`] instead of panicking —
//! snapshot files cross process boundaries and must never take down a
//! recovering service on bad input.

use std::error::Error;
use std::fmt;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the field at byte offset `at`.
    Truncated {
        /// Byte offset of the incomplete read.
        at: usize,
    },
    /// A structurally invalid field (bad tag, impossible count, state
    /// kind mismatch).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { at } => {
                write!(f, "snapshot truncated at byte {at}")
            }
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl Error for SnapshotError {}

/// Appends a `u8`.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u16`, little-endian.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`, little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round-trip,
/// NaN payloads included).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A bounds-checked read cursor over an encoded snapshot.
///
/// # Examples
///
/// ```
/// use pscd_cache::snapshot::{put_f64, put_u32, SnapshotReader};
///
/// let mut buf = Vec::new();
/// put_u32(&mut buf, 7);
/// put_f64(&mut buf, 1.25);
/// let mut r = SnapshotReader::new(&buf);
/// assert_eq!(r.read_u32()?, 7);
/// assert_eq!(r.read_f64()?, 1.25);
/// assert!(r.is_empty());
/// # Ok::<(), pscd_cache::snapshot::SnapshotError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let at = self.pos;
        let end = at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotError::Truncated { at })?;
        self.pos = end;
        Ok(&self.buf[at..end])
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the buffer is exhausted.
    pub fn read_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the buffer is exhausted.
    pub fn read_u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the buffer is exhausted.
    pub fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u32` counter its owner will go on incrementing (a
    /// reference or access count).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the buffer is exhausted;
    /// [`SnapshotError::Corrupt`] for a count in the top half of the
    /// range — no run gets near it, and a counter read that high would
    /// overflow on the operations that follow.
    pub fn read_count(&mut self) -> Result<u32, SnapshotError> {
        let count = self.read_u32()?;
        if count > u32::MAX / 2 {
            return Err(SnapshotError::Corrupt("count out of range"));
        }
        Ok(count)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the buffer is exhausted.
    pub fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if the buffer is exhausted.
    pub fn read_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads `n` raw bytes — the accessor container formats use for
    /// embedded length-prefixed blobs (decode the returned slice with a
    /// nested reader).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] if fewer than `n` bytes
    /// remain.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_width() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 7);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        let mut r = SnapshotReader::new(&buf);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        assert_eq!(r.read_u16().unwrap(), 0xBEEF);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 7);
        // -0.0 survives bit-exactly (a plain `==` would conflate it with 0.0).
        assert_eq!(r.read_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.read_f64().unwrap().is_nan());
        assert!(r.is_empty());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn counts_in_the_top_half_of_the_range_are_corrupt() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX / 2);
        put_u32(&mut buf, u32::MAX / 2 + 1);
        let mut r = SnapshotReader::new(&buf);
        assert_eq!(r.read_count(), Ok(u32::MAX / 2));
        assert!(matches!(r.read_count(), Err(SnapshotError::Corrupt(_))));
        assert_eq!(r.read_count(), Err(SnapshotError::Truncated { at: 8 }));
    }

    #[test]
    fn truncation_reports_offset() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        let mut r = SnapshotReader::new(&buf);
        assert_eq!(r.read_u16().unwrap(), 1);
        assert_eq!(r.position(), 2);
        assert_eq!(r.read_u64(), Err(SnapshotError::Truncated { at: 2 }));
        // A failed read consumes nothing.
        assert_eq!(r.position(), 2);
        assert_eq!(r.read_u16().unwrap(), 0);
    }

    #[test]
    fn read_bytes_slices_and_bounds_checks() {
        let buf = [1u8, 2, 3, 4, 5];
        let mut r = SnapshotReader::new(&buf);
        assert_eq!(r.read_bytes(3).unwrap(), &[1, 2, 3]);
        assert_eq!(r.read_bytes(9), Err(SnapshotError::Truncated { at: 3 }));
        assert_eq!(r.read_bytes(2).unwrap(), &[4, 5]);
        assert!(r.is_empty());
    }

    #[test]
    fn errors_display() {
        assert_eq!(
            SnapshotError::Truncated { at: 9 }.to_string(),
            "snapshot truncated at byte 9"
        );
        assert_eq!(
            SnapshotError::Corrupt("bad tag").to_string(),
            "snapshot corrupt: bad tag"
        );
    }
}
