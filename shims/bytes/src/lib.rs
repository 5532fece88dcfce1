//! Offline shim for the `bytes` crate.
//!
//! Provides [`Bytes`], [`BytesMut`] and the [`Buf`]/[`BufMut`] traits with
//! the little-endian accessors used by the wire codecs in this workspace.
//! [`Bytes`] is a cheaply-cloneable view of a shared `Arc<Vec<u8>>` with an
//! advancing cursor, so `split_to`/`slice` are O(1) and never copy, and
//! [`BytesMut::freeze`] hands its allocation over without copying —
//! matching the real crate's behavior where it matters for the benchmarks.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Read side: a buffer of bytes consumed from the front.
pub trait Buf {
    /// Bytes remaining between the cursor and the end of the buffer.
    fn remaining(&self) -> usize;

    /// Advance the cursor by `cnt` bytes. Panics if `cnt > remaining()`.
    fn advance(&mut self, cnt: usize);

    /// Borrow the remaining bytes.
    fn chunk(&self) -> &[u8];

    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        b.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_le_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(b)
    }

    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

/// Write side: a growable buffer appended at the back.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

/// Immutable, cheaply-cloneable byte view with an advancing read cursor.
#[derive(Debug, Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes::from(src.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// O(1) sub-view of the remaining bytes; `range` is relative to the
    /// current cursor. Panics if out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice out of bounds"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Split off the first `len` bytes as a new `Bytes`, advancing `self`
    /// past them. Panics if `len > self.len()`.
    pub fn split_to(&mut self, len: usize) -> Bytes {
        assert!(len <= self.len(), "split_to out of bounds");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + len,
        };
        self.start += len;
        head
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of `v`'s allocation; no byte is copied.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

/// Growable write buffer; `freeze` converts to [`Bytes`] without copying.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Grows or shrinks to `new_len` bytes, filling new bytes with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.data.resize(new_len, value);
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Appends bytes (same surface as the registry crate's inherent
    /// method; [`BufMut::put_slice`] is the trait spelling).
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Splits off and returns the first `len` bytes, leaving the rest
    /// in place. Panics when `len` exceeds the buffer, matching the
    /// registry crate.
    pub fn split_to(&mut self, len: usize) -> BytesMut {
        assert!(len <= self.data.len(), "split_to out of bounds");
        let rest = self.data.split_off(len);
        let head = std::mem::replace(&mut self.data, rest);
        BytesMut { data: head }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_accessors() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u16_le(300);
        w.put_u32_le(70_000);
        w.put_u64_le(1 << 40);
        w.put_i64_le(-5);
        w.put_f32_le(1.5);
        w.put_slice(b"abc");
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 300);
        assert_eq!(r.get_u32_le(), 70_000);
        assert_eq!(r.get_u64_le(), 1 << 40);
        assert_eq!(r.get_i64_le(), -5);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.to_vec(), b"abc");
    }

    #[test]
    fn split_and_slice_are_views() {
        let mut b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head.to_vec(), vec![0, 1]);
        assert_eq!(b.remaining(), 4);
        let mid = b.slice(1..3);
        assert_eq!(mid.to_vec(), vec![3, 4]);
        assert_eq!(b.to_vec(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn freeze_keeps_the_allocation() {
        let mut w = BytesMut::with_capacity(64);
        w.put_slice(&[9; 40]);
        let at = w.as_ptr();
        let frozen = w.freeze();
        assert_eq!(frozen.as_ptr(), at, "freeze copied the buffer");
        assert_eq!(frozen.len(), 40);
        let owned = vec![1u8, 2, 3];
        let at = owned.as_ptr();
        assert_eq!(Bytes::from(owned).as_ptr(), at);
    }

    #[test]
    fn slices_of_a_frozen_buffer_share_it() {
        let mut w = BytesMut::new();
        w.put_slice(b"0123456789");
        let mut frozen = w.freeze();
        let base = frozen.as_ptr();
        assert_eq!(frozen.slice(3..5).as_ptr(), base.wrapping_add(3));
        assert_eq!(frozen.clone().as_ptr(), base);
        let head = frozen.split_to(4);
        assert_eq!(head.as_ptr(), base);
        assert_eq!(frozen.as_ptr(), base.wrapping_add(4));
        assert_eq!(&frozen[..], b"456789");
    }

    #[test]
    fn resize_reserve_and_deref_mut_match_the_registry_crate() {
        let mut w = BytesMut::new();
        w.put_slice(b"ab");
        w.reserve(100);
        assert!(w.capacity() >= 102);
        assert_eq!(&w[..], b"ab", "reserve keeps the contents");
        w.resize(5, 7);
        assert_eq!(&w[..], &[b'a', b'b', 7, 7, 7]);
        w.resize(1, 0);
        assert_eq!(&w[..], b"a");
        w.resize(3, 0);
        w[1..3].copy_from_slice(b"yz");
        w[0] = b'x';
        assert_eq!(&w[..], b"xyz");
        for chunk in w.chunks_exact_mut(1) {
            chunk[0] += 1;
        }
        assert_eq!(w.freeze().to_vec(), b"yz{");
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_to_past_end_panics() {
        let mut b = Bytes::from(vec![1u8, 2]);
        b.split_to(3);
    }
}
