//! Shared binary wire primitives.
//!
//! One `Writer`/`Reader` pair and one error vocabulary for every hand-rolled
//! codec in the workspace: the DAT application codec (`dat-core`), the MAAN
//! discovery codec (`dat-maan`) and the UDP datagram framing (`dat-rpc`) all
//! build on these primitives instead of maintaining parallel copies. The
//! format is little-endian, TLV-free, length-prefixed where variable.
//!
//! The module also owns the workspace's frame checksum: a slicing-by-8
//! CRC32C ([`crc32c`]) appended as a little-endian trailer by the framing
//! codec, so bit-flips and truncations that survive UDP's 16-bit checksum
//! are rejected instead of decoded into a silently-wrong aggregate.

#![deny(clippy::unwrap_used)]

use crate::finger::{NodeAddr, NodeRef};
use crate::id::Id;

/// Decoding errors shared by every codec built on [`Reader`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the field being read.
    Truncated,
    /// First byte of a frame is not the expected magic byte.
    BadMagic(u8),
    /// Unknown message tag.
    BadTag(u8),
    /// Unsupported wire version.
    BadVersion(u8),
    /// A length field exceeded sane bounds.
    BadLength(u64),
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
    /// Frame checksum trailer does not match the frame body.
    BadChecksum {
        /// CRC32C computed over the received body.
        computed: u32,
        /// CRC32C the frame claimed in its trailer.
        stored: u32,
    },
    /// A length-prefixed string field held invalid UTF-8.
    BadUtf8,
}

/// Every [`CodecError::kind_label`] value, in [`CodecError::kind_index`]
/// order — lets hosts pre-register one counter per kind so a quiet wire
/// still exports a complete (zeroed) error taxonomy.
pub const ERROR_KINDS: [&str; 8] = [
    "truncated",
    "bad_magic",
    "bad_tag",
    "bad_version",
    "bad_length",
    "trailing_bytes",
    "bad_checksum",
    "bad_utf8",
];

impl CodecError {
    /// Stable label for this error kind (metric label / log field).
    pub fn kind_label(&self) -> &'static str {
        ERROR_KINDS[self.kind_index()]
    }

    /// Dense index of this error kind into [`ERROR_KINDS`].
    pub fn kind_index(&self) -> usize {
        match self {
            CodecError::Truncated => 0,
            CodecError::BadMagic(_) => 1,
            CodecError::BadTag(_) => 2,
            CodecError::BadVersion(_) => 3,
            CodecError::BadLength(_) => 4,
            CodecError::TrailingBytes(_) => 5,
            CodecError::BadChecksum { .. } => 6,
            CodecError::BadUtf8 => 7,
        }
    }
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::BadMagic(b) => write!(f, "bad magic byte {b:#x}"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            CodecError::BadLength(l) => write!(f, "implausible length {l}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            CodecError::BadChecksum { computed, stored } => write!(
                f,
                "checksum mismatch: frame claims {stored:#010x}, body hashes to {computed:#010x}"
            ),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for CodecError {}

/// CRC32C (Castagnoli) slicing-by-8 tables, built at compile time from
/// the reflected polynomial 0x82F63B78. Row 0 is the bytewise table; row
/// `k` is a byte's contribution pushed through `k` further zero bytes, so
/// eight rows fold eight input bytes into the remainder at once.
const CRC32C_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC32C (Castagnoli) of `data` — the checksum iSCSI and ext4 use, chosen
/// over CRC32 (IEEE) for its better error-detection spectrum on short
/// frames. Slicing-by-8 (eight table lookups fold eight bytes at once),
/// bytewise for the last `len % 8` bytes; no dependencies; standard check
/// value: `crc32c(b"123456789") == 0xE3069283`.
pub fn crc32c(data: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let byte = |row: &[u32; 256], v: u32| row[(v & 0xFF) as usize];
    let mut crc = !0u32;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        crc = byte(&t[7], lo)
            ^ byte(&t[6], lo >> 8)
            ^ byte(&t[5], lo >> 16)
            ^ byte(&t[4], lo >> 24)
            ^ byte(&t[3], hi)
            ^ byte(&t[2], hi >> 8)
            ^ byte(&t[1], hi >> 16)
            ^ byte(&t[0], hi >> 24);
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ byte(&t[0], crc ^ u32::from(b));
    }
    !crc
}

/// Append-only encoder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer, with room for the messages that make up the
    /// traffic: a DAT `Update` or `Response` is 100 bytes and most Chord
    /// maintenance messages are shorter, so encoding one does not regrow
    /// the buffer.
    pub fn new() -> Self {
        Writer {
            buf: Vec::with_capacity(128),
        }
    }

    /// Finish and take the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `f64` (IEEE-754 bits, little-endian).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a ring identifier.
    pub fn id(&mut self, v: Id) -> &mut Self {
        self.u64(v.raw())
    }

    /// Append a node reference (id + transport address).
    pub fn node_ref(&mut self, v: NodeRef) -> &mut Self {
        self.id(v.id).u64(v.addr.0)
    }

    /// Append an optional node reference (presence byte).
    pub fn opt_node_ref(&mut self, v: Option<NodeRef>) -> &mut Self {
        match v {
            Some(n) => self.u8(1).node_ref(n),
            None => self.u8(0),
        }
    }

    /// Append a `u16`-length-prefixed node list.
    pub fn node_list(&mut self, v: &[NodeRef]) -> &mut Self {
        self.u16(v.len() as u16);
        for &n in v {
            self.node_ref(n);
        }
        self
    }

    /// Append length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }
}

/// Cursor-based decoder.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Length-checked fixed-size read (the slice is exactly `N` bytes, so
    /// the copy cannot fail — this keeps the primitives panic-free).
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Read an `f64`.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    /// Read a ring identifier.
    pub fn id(&mut self) -> Result<Id, CodecError> {
        Ok(Id(self.u64()?))
    }

    /// Read a node reference.
    pub fn node_ref(&mut self) -> Result<NodeRef, CodecError> {
        let id = self.id()?;
        let addr = NodeAddr(self.u64()?);
        Ok(NodeRef::new(id, addr))
    }

    /// Read an optional node reference.
    pub fn opt_node_ref(&mut self) -> Result<Option<NodeRef>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            _ => Ok(Some(self.node_ref()?)),
        }
    }

    /// Read a `u16`-length-prefixed node list (bounded at 4096 entries).
    pub fn node_list(&mut self) -> Result<Vec<NodeRef>, CodecError> {
        let n = self.u16()? as usize;
        if n > 4096 {
            return Err(CodecError::BadLength(n as u64));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.node_ref()?);
        }
        Ok(out)
    }

    /// Read length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(CodecError::BadLength(len as u64));
        }
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string. Invalid UTF-8 is rejected
    /// ([`CodecError::BadUtf8`]) rather than lossily replaced — a
    /// corrupted attribute name must not be aggregated under a garbled
    /// key.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let raw = self.bytes()?;
        core::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| CodecError::BadUtf8)
    }

    /// Assert the input is fully consumed.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            Err(CodecError::TrailingBytes(self.remaining()))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn nr(id: u64) -> NodeRef {
        NodeRef::new(Id(id), NodeAddr(id + 1000))
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.u8(7).u16(999).u32(1234).u64(u64::MAX).f64(2.5);
        w.str("cpu-usage")
            .opt_node_ref(None)
            .opt_node_ref(Some(nr(9)));
        w.node_list(&[nr(1), nr(2)]);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 999);
        assert_eq!(r.u32().unwrap(), 1234);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.str().unwrap(), "cpu-usage");
        assert_eq!(r.opt_node_ref().unwrap(), None);
        assert_eq!(r.opt_node_ref().unwrap(), Some(nr(9)));
        assert_eq!(r.node_list().unwrap(), vec![nr(1), nr(2)]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_and_trailing_detected() {
        let mut w = Writer::new();
        w.node_ref(nr(5)).bytes(&[1, 2, 3]);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let ok = r
                .node_ref()
                .and_then(|_| r.bytes().map(|_| ()))
                .and_then(|_| r.expect_end());
            assert!(ok.is_err(), "prefix {cut} accepted");
        }
        let mut r = Reader::new(&bytes);
        r.node_ref().unwrap();
        r.bytes().unwrap();
        r.expect_end().unwrap();
    }

    #[test]
    fn hostile_lengths_rejected() {
        let mut w = Writer::new();
        w.u16(u16::MAX);
        let bytes = w.finish();
        assert_eq!(
            Reader::new(&bytes).node_list(),
            Err(CodecError::BadLength(u16::MAX as u64))
        );
        let mut w = Writer::new();
        w.u32(1 << 30);
        let bytes = w.finish();
        assert_eq!(
            Reader::new(&bytes).bytes(),
            Err(CodecError::BadLength(1 << 30))
        );
    }

    #[test]
    fn invalid_utf8_rejected_not_mangled() {
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE, b'x']);
        let bytes = w.finish();
        assert_eq!(Reader::new(&bytes).str(), Err(CodecError::BadUtf8));
        // Valid UTF-8 (including multibyte) still round-trips.
        let mut w = Writer::new();
        w.str("grid-λ");
        let bytes = w.finish();
        assert_eq!(Reader::new(&bytes).str().unwrap(), "grid-λ");
    }

    #[test]
    fn crc32c_matches_standard_check_value() {
        // The canonical CRC32C test vector (RFC 3720 appendix / every
        // hardware implementation).
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // Sensitivity: one flipped bit changes the checksum.
        assert_ne!(crc32c(&[0x00, 0x01]), crc32c(&[0x00, 0x03]));
    }

    /// The bytewise CRC32C the sliced one must equal: one table row, one
    /// byte per step.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ CRC32C_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32c_equals_bytewise_at_every_length_and_alignment() {
        // Seeded xorshift bytes: every byte value occurs, no pattern
        // the eight-byte blocks could line up with.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..2048 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        assert_eq!(crc32c_bytewise(b"123456789"), 0xE306_9283);
        for start in 0..8 {
            for len in 0..=2048 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32c(data),
                    crc32c_bytewise(data),
                    "start {start}, length {len}"
                );
            }
        }
    }

    #[test]
    fn error_kind_labels_are_dense_and_stable() {
        let samples = [
            CodecError::Truncated,
            CodecError::BadMagic(0),
            CodecError::BadTag(0),
            CodecError::BadVersion(0),
            CodecError::BadLength(0),
            CodecError::TrailingBytes(0),
            CodecError::BadChecksum {
                computed: 0,
                stored: 1,
            },
            CodecError::BadUtf8,
        ];
        for (i, e) in samples.iter().enumerate() {
            assert_eq!(e.kind_index(), i);
            assert_eq!(e.kind_label(), ERROR_KINDS[i]);
        }
    }
}
