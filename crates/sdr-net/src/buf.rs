//! First-party byte buffers for the wire codec.
//!
//! The workspace's hermetic-build policy bans the `bytes` crate, and the
//! codec needs very little of it: append fixed-width big-endian integers
//! on encode, and consume them with bounds checks on decode. [`WriteBuf`]
//! wraps a `Vec<u8>`; [`ReadBuf`] is a cursor over a borrowed slice whose
//! `try_get_*` accessors return `None` instead of panicking when the
//! input runs dry, which is exactly the shape the codec's `Truncated`
//! error wants.

/// A growable output buffer writing fixed-width values big-endian.
#[derive(Clone, Debug, Default)]
pub struct WriteBuf {
    data: Vec<u8>,
}

impl WriteBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        WriteBuf::default()
    }

    /// An empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        WriteBuf {
            data: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an `f64` as its big-endian IEEE-754 bits.
    pub fn put_f64(&mut self, v: f64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Overwrites the four bytes at `at` with a big-endian `u32` — how a
    /// frame's length prefix, reserved before its body was encoded, gets
    /// its value. A range not yet written is left alone.
    pub(crate) fn patch_u32(&mut self, at: usize, v: u32) {
        if let Some(slot) = self.data.get_mut(at..at.saturating_add(4)) {
            slot.copy_from_slice(&v.to_be_bytes());
        }
    }

    /// The written bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Consumes the buffer, yielding the written bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }
}

/// A read cursor over a borrowed byte slice.
#[derive(Clone, Debug)]
pub struct ReadBuf<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ReadBuf<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        ReadBuf { data, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Consumes `n` bytes, or `None` if fewer remain. Total: a corrupt
    /// length can at worst return `None`, never slice out of range.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.data.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Consumes one byte.
    pub fn try_get_u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|s| s.first().copied())
    }

    /// Consumes a big-endian `u32`.
    pub fn try_get_u32(&mut self) -> Option<u32> {
        let bytes: [u8; 4] = self.take(4)?.try_into().ok()?;
        Some(u32::from_be_bytes(bytes))
    }

    /// Consumes a big-endian `u64`.
    pub fn try_get_u64(&mut self) -> Option<u64> {
        let bytes: [u8; 8] = self.take(8)?.try_into().ok()?;
        Some(u64::from_be_bytes(bytes))
    }

    /// Consumes a big-endian IEEE-754 `f64`.
    pub fn try_get_f64(&mut self) -> Option<f64> {
        let bytes: [u8; 8] = self.take(8)?.try_into().ok()?;
        Some(f64::from_be_bytes(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrips() {
        let mut w = WriteBuf::with_capacity(32);
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-1.5);
        assert_eq!(w.len(), 1 + 4 + 8 + 8);
        let bytes = w.into_vec();
        let mut r = ReadBuf::new(&bytes);
        assert_eq!(r.try_get_u8(), Some(0xAB));
        assert_eq!(r.try_get_u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.try_get_u64(), Some(0x0123_4567_89AB_CDEF));
        assert_eq!(r.try_get_f64(), Some(-1.5));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.try_get_u8(), None);
    }

    #[test]
    fn big_endian_on_the_wire() {
        let mut w = WriteBuf::new();
        w.put_u32(0x0102_0304);
        assert_eq!(w.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn patch_overwrites_in_place_and_only_what_was_written() {
        let mut w = WriteBuf::new();
        w.put_u32(0);
        w.put_u8(7);
        w.patch_u32(0, 0x0102_0304);
        assert_eq!(w.as_slice(), &[1, 2, 3, 4, 7]);
        w.patch_u32(2, u32::MAX);
        w.patch_u32(usize::MAX, u32::MAX);
        assert_eq!(w.as_slice(), &[1, 2, 3, 4, 7], "a range past the end");
    }

    #[test]
    fn short_reads_fail_without_consuming() {
        let bytes = [0u8; 3];
        let mut r = ReadBuf::new(&bytes);
        assert_eq!(r.try_get_u32(), None);
        assert_eq!(r.remaining(), 3, "failed read must not advance");
        assert_eq!(r.try_get_u8(), Some(0));
    }
}
