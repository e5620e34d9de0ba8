//! Public streaming frame codec for WAL shipping over a replication
//! link.
//!
//! The on-disk WAL format (the `wal` module) is also the wire format:
//! a primary ships the exact frames it writes locally, a standby feeds
//! received bytes into a [`FrameStream`] and gets back validated
//! [`Frame`]s. Three additional control magics ride the same framing —
//! `subscribe` (standby → primary offset negotiation), `ack` (standby →
//! primary applied position) and `heartbeat` (primary → standby
//! liveness + its own position) — so every byte on the link is
//! CRC-checked and generation-stamped the same way.
//!
//! The decoder is *total*: arbitrary bytes yield either frames whose
//! CRC verifies, a "need more bytes" signal, or a typed
//! [`FrameStreamError`] carrying the resumable stream offset. It never
//! panics and never fabricates a frame, mirroring the recovery reader's
//! stance — a torn or corrupted link frame ends the stream, and the
//! follower resumes by re-subscribing from its own applied sequence
//! number (deduplicating by `counter`, so a frame is never applied
//! twice).

use crate::wal;

/// Magic for `subscribe` frames (standby → primary): `counter` is the
/// sequence the standby wants shipping to resume from.
pub(crate) const SUB_MAGIC: u32 = u32::from_le_bytes(*b"DWS1");
/// Magic for `ack` frames (standby → primary): `counter` is the
/// standby's applied `next_seq` (everything below it is durable there).
pub(crate) const ACK_MAGIC: u32 = u32::from_le_bytes(*b"DWA2");
/// Magic for `heartbeat` frames (primary → standby): `counter` is the
/// primary's `next_seq`; the payload is its advertised client address.
pub(crate) const HB_MAGIC: u32 = u32::from_le_bytes(*b"DWH1");

/// What kind of frame arrived on (or is bound for) the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A committed WAL record; `counter` is its sequence number.
    Record,
    /// A full checkpoint snapshot; `counter` is the `next_seq` the
    /// snapshot covers up to (catch-up / full-sync).
    Checkpoint,
    /// Offset negotiation from a standby; `counter` is the resume seq.
    Subscribe,
    /// Applied-position report from a standby; `counter` is its
    /// `next_seq`.
    Ack,
    /// Primary liveness; `counter` is the primary's `next_seq`.
    Heartbeat,
}

impl FrameKind {
    fn magic(self) -> u32 {
        match self {
            FrameKind::Record => wal::WAL_MAGIC,
            FrameKind::Checkpoint => wal::CKPT_MAGIC,
            FrameKind::Subscribe => SUB_MAGIC,
            FrameKind::Ack => ACK_MAGIC,
            FrameKind::Heartbeat => HB_MAGIC,
        }
    }

    fn from_magic(magic: u32) -> Option<FrameKind> {
        match magic {
            m if m == wal::WAL_MAGIC => Some(FrameKind::Record),
            m if m == wal::CKPT_MAGIC => Some(FrameKind::Checkpoint),
            m if m == SUB_MAGIC => Some(FrameKind::Subscribe),
            m if m == ACK_MAGIC => Some(FrameKind::Ack),
            m if m == HB_MAGIC => Some(FrameKind::Heartbeat),
            _ => None,
        }
    }

    /// Human label (`record`, `checkpoint`, …) for error messages.
    pub fn label(self) -> &'static str {
        match self {
            FrameKind::Record => "record",
            FrameKind::Checkpoint => "checkpoint",
            FrameKind::Subscribe => "subscribe",
            FrameKind::Ack => "ack",
            FrameKind::Heartbeat => "heartbeat",
        }
    }
}

/// One validated frame off the link (or one to put on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame is.
    pub kind: FrameKind,
    /// Generation stamp (store checkpoint generation of the sender).
    pub generation: u64,
    /// Kind-specific counter: record seq, checkpoint/ack/subscribe/
    /// heartbeat `next_seq`.
    pub counter: u64,
    /// Kind-specific payload (transaction bytes, snapshot bytes,
    /// advertised address, or empty).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A control frame with an empty payload.
    fn control(kind: FrameKind, generation: u64, counter: u64) -> Frame {
        Frame {
            kind,
            generation,
            counter,
            payload: Vec::new(),
        }
    }

    /// A `subscribe` frame asking shipping to resume from `next_seq`.
    pub fn subscribe(generation: u64, next_seq: u64) -> Frame {
        Frame::control(FrameKind::Subscribe, generation, next_seq)
    }

    /// An `ack` frame reporting the standby's applied `next_seq`.
    pub fn ack(generation: u64, next_seq: u64) -> Frame {
        Frame::control(FrameKind::Ack, generation, next_seq)
    }

    /// A `heartbeat` frame carrying the primary's `next_seq` and its
    /// advertised client address (the `NotPrimary` redirect hint).
    pub fn heartbeat(generation: u64, next_seq: u64, advertised: &str) -> Frame {
        Frame {
            kind: FrameKind::Heartbeat,
            generation,
            counter: next_seq,
            payload: advertised.as_bytes().to_vec(),
        }
    }

    /// Encodes the frame in the WAL wire format (magic, length, CRC,
    /// generation, counter, payload — all little-endian).
    pub fn encode(&self) -> Vec<u8> {
        wal::encode_frame(
            self.kind.magic(),
            self.generation,
            self.counter,
            &self.payload,
        )
    }
}

/// Why a [`FrameStream`] refused the bytes at `offset`. Every variant
/// carries the cumulative stream offset of the offending frame start,
/// so the caller knows exactly how much of the stream was consumed
/// cleanly before the failure (the resumable position).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameStreamError {
    /// The four bytes at `offset` are no known frame magic: the stream
    /// is desynchronized or corrupted.
    BadMagic {
        /// Stream offset of the bad frame start.
        offset: u64,
    },
    /// The frame's length prefix exceeds the configured ceiling — an
    /// implausible frame, treated as corruption rather than buffered.
    Oversized {
        /// Stream offset of the bad frame start.
        offset: u64,
        /// The length the prefix claimed.
        len: usize,
        /// The configured per-frame ceiling.
        max: usize,
    },
    /// The frame decoded structurally but its CRC does not match — a
    /// torn or bit-flipped frame.
    CrcMismatch {
        /// Stream offset of the bad frame start.
        offset: u64,
        /// What kind of frame the magic claimed.
        kind: FrameKind,
    },
}

impl FrameStreamError {
    /// The cumulative stream offset at which the stream became
    /// undecodable — everything before it was validated and handed out.
    pub fn offset(&self) -> u64 {
        match self {
            FrameStreamError::BadMagic { offset }
            | FrameStreamError::Oversized { offset, .. }
            | FrameStreamError::CrcMismatch { offset, .. } => *offset,
        }
    }
}

impl std::fmt::Display for FrameStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameStreamError::BadMagic { offset } => {
                write!(f, "no frame magic at stream offset {offset}")
            }
            FrameStreamError::Oversized { offset, len, max } => {
                write!(
                    f,
                    "frame at offset {offset} claims {len} bytes, over the {max}-byte ceiling"
                )
            }
            FrameStreamError::CrcMismatch { offset, kind } => {
                write!(
                    f,
                    "{} frame at offset {offset} failed its CRC check",
                    kind.label()
                )
            }
        }
    }
}

impl std::error::Error for FrameStreamError {}

/// Incremental frame decoder over an untrusted byte stream.
///
/// Feed bytes with [`FrameStream::push`], drain frames with
/// [`FrameStream::next`]. `Ok(None)` means "need more bytes"; an error
/// is terminal for the stream — the link should be dropped and shipping
/// renegotiated by sequence number (the decoded prefix stays valid).
#[derive(Debug)]
pub struct FrameStream {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by decoded frames.
    start: usize,
    /// Cumulative stream offset of `buf[start]`.
    offset: u64,
    max_frame: usize,
    failed: Option<FrameStreamError>,
}

impl FrameStream {
    /// A decoder refusing frames whose payload exceeds `max_frame`
    /// bytes (use the store's `max_record_bytes`).
    pub fn new(max_frame: usize) -> FrameStream {
        FrameStream {
            buf: Vec::new(),
            start: 0,
            offset: 0,
            max_frame,
            failed: None,
        }
    }

    /// Appends raw bytes received from the link.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix before growing, keeping the
        // buffer proportional to the undecoded remainder.
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Cumulative stream offset of the next undecoded byte — the
    /// resumable position after a clean prefix.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decodes the next complete frame, if the buffer holds one.
    ///
    /// * `Ok(Some(frame))` — a validated frame (CRC checked);
    /// * `Ok(None)` — the buffer ends mid-frame, push more bytes;
    /// * `Err(_)` — the stream is undecodable at [`Self::offset`]; the
    ///   error is sticky, every later call returns it again.
    ///
    /// Deliberately *not* `Iterator::next`: the tri-state return
    /// (frame / starved / poisoned) doesn't fit `Option<Item>`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, FrameStreamError> {
        if let Some(err) = &self.failed {
            return Err(err.clone());
        }
        let rest = &self.buf[self.start..];
        if rest.len() < wal::FRAME_HEADER {
            return Ok(None);
        }
        let magic = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let Some(kind) = FrameKind::from_magic(magic) else {
            return Err(self.fail(FrameStreamError::BadMagic {
                offset: self.offset,
            }));
        };
        let len = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]) as usize;
        if len > self.max_frame {
            return Err(self.fail(FrameStreamError::Oversized {
                offset: self.offset,
                len,
                max: self.max_frame,
            }));
        }
        if rest.len() < wal::FRAME_HEADER + len {
            return Ok(None);
        }
        let crc = u32::from_le_bytes([rest[8], rest[9], rest[10], rest[11]]);
        let mut word = [0u8; 8];
        word.copy_from_slice(&rest[12..20]);
        let generation = u64::from_le_bytes(word);
        word.copy_from_slice(&rest[20..28]);
        let counter = u64::from_le_bytes(word);
        let payload = &rest[wal::FRAME_HEADER..wal::FRAME_HEADER + len];
        let expect = wal::crc32(&[&generation.to_le_bytes(), &counter.to_le_bytes(), payload]);
        if crc != expect {
            return Err(self.fail(FrameStreamError::CrcMismatch {
                offset: self.offset,
                kind,
            }));
        }
        let frame = Frame {
            kind,
            generation,
            counter,
            payload: payload.to_vec(),
        };
        self.start += wal::FRAME_HEADER + len;
        self.offset += (wal::FRAME_HEADER + len) as u64;
        Ok(Some(frame))
    }

    fn fail(&mut self, err: FrameStreamError) -> FrameStreamError {
        self.failed = Some(err.clone());
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: usize = 1 << 20;

    fn record(generation: u64, seq: u64, payload: &[u8]) -> Frame {
        Frame {
            kind: FrameKind::Record,
            generation,
            counter: seq,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn frames_round_trip_through_the_stream_in_one_push() {
        let frames = [
            record(1, 0, b"alpha"),
            Frame::subscribe(1, 7),
            Frame::ack(2, 9),
            Frame::heartbeat(2, 11, "127.0.0.1:4040"),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend(f.encode());
        }
        let mut stream = FrameStream::new(MAX);
        stream.push(&wire);
        for f in &frames {
            assert_eq!(stream.next().unwrap().as_ref(), Some(f));
        }
        assert_eq!(stream.next().unwrap(), None);
        assert_eq!(stream.offset(), wire.len() as u64);
    }

    #[test]
    fn byte_at_a_time_delivery_decodes_identically() {
        let frame = record(3, 42, b"drip-fed payload");
        let wire = frame.encode();
        let mut stream = FrameStream::new(MAX);
        for (i, byte) in wire.iter().enumerate() {
            stream.push(std::slice::from_ref(byte));
            let got = stream.next().unwrap();
            if i + 1 < wire.len() {
                assert_eq!(got, None, "frame surfaced early at byte {i}");
            } else {
                assert_eq!(got, Some(frame.clone()));
            }
        }
    }

    #[test]
    fn corruption_is_typed_sticky_and_offset_reported() {
        let good = record(1, 0, b"ok");
        let mut wire = good.encode();
        let mut bad = record(1, 1, b"corrupt-me").encode();
        let n = bad.len();
        bad[n - 1] ^= 0x40;
        wire.extend(&bad);

        let mut stream = FrameStream::new(MAX);
        stream.push(&wire);
        assert_eq!(stream.next().unwrap(), Some(good.clone()));
        let err = stream.next().unwrap_err();
        assert_eq!(err.offset(), good.encode().len() as u64);
        assert!(matches!(err, FrameStreamError::CrcMismatch { .. }));
        // Sticky: pushing more valid bytes does not resurrect the link.
        stream.push(&record(1, 2, b"later").encode());
        assert_eq!(stream.next().unwrap_err(), err);
    }

    #[test]
    fn unknown_magic_and_oversized_frames_are_refused() {
        let mut stream = FrameStream::new(MAX);
        stream.push(b"NOPE-and-then-some-more-bytes-etc!!!");
        assert!(matches!(
            stream.next().unwrap_err(),
            FrameStreamError::BadMagic { offset: 0 }
        ));

        let mut tiny = FrameStream::new(4);
        tiny.push(&record(1, 0, b"too large for the ceiling").encode());
        assert!(matches!(
            tiny.next().unwrap_err(),
            FrameStreamError::Oversized { offset: 0, .. }
        ));
    }
}
