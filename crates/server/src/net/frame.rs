//! The SHRKNET wire codec: length-prefixed, checksummed frames.
//!
//! Every message on a client connection is one **frame**:
//!
//! ```text
//! [len: u32 LE] [type: u8] [checksum: u64 LE] [payload: len bytes]
//! ```
//!
//! `len` counts payload bytes only (13-byte header excluded) and is capped
//! at [`MAX_FRAME_BYTES`]; `checksum` is FNV-1a 64 over the payload, so a
//! torn or bit-flipped frame is detected before its payload is
//! interpreted. Payload scalars are little-endian; strings are
//! `u32 length + UTF-8 bytes`. The primitives, value tags and column-type
//! codes come from [`shark_common::codec`]; this module owns only the frame
//! types and the envelope. The normative spec lives in
//! `docs/wire-protocol.md` — keep the two in sync.
//!
//! The codec is deliberately symmetric (the `shark-client` crate and the
//! server's connection handlers call the same [`write_frame`] /
//! [`read_frame`]), and deliberately strict: an unknown frame type, an
//! oversized length, a checksum mismatch or trailing payload bytes are all
//! [`FrameError::Protocol`], which the server answers by counting a
//! protocol error and closing the connection.

use std::io::{self, IoSlice, Read, Write};

use shark_common::codec::{CodecError, Reader, Writer, WIRE_TYPE_CODES};
use shark_common::{Field, Row, Schema};

/// Wire payloads prefix strings and element counts with a `u32`.
type PayloadWriter<'a> = Writer<'a, u32>;
type PayloadReader<'a> = Reader<'a, u32>;

/// Magic bytes opening every [`Frame::Hello`] payload.
pub const MAGIC: &[u8; 8] = b"SHRKNET1";

/// Protocol version carried in Hello; the server rejects mismatches.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard cap on one frame's payload length. A header announcing more is a
/// protocol error — it can only be garbage or abuse, never a real message.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Bytes in the fixed frame header (`len + type + checksum`).
pub const HEADER_BYTES: usize = 4 + 1 + 8;

/// FNV-1a 64 over a byte slice — the frame checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    shark_common::hash::fnv1a(bytes)
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed (includes `UnexpectedEof` for a torn
    /// frame cut off by a disconnect).
    Io(io::Error),
    /// The bytes arrived but are not a valid frame: unknown type, length
    /// over [`MAX_FRAME_BYTES`], checksum mismatch, or a payload that does
    /// not decode to its frame type.
    Protocol(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> FrameError {
        FrameError::Protocol(e.0)
    }
}

/// One protocol message. See `docs/wire-protocol.md` for the normative
/// field-by-field layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server, first frame on every connection: magic + version +
    /// auth token + tenant (rate-class) name.
    Hello {
        /// Shared-secret token; must equal the server's configured token.
        token: String,
        /// Tenant name selecting a [`crate::net::RateClass`] ("" = default).
        tenant: String,
    },
    /// Server → client: the handshake was accepted.
    HelloOk {
        /// The server-side session id backing this connection.
        session_id: u64,
        /// The protocol version the server speaks.
        version: u32,
    },
    /// Client → server: run one SQL statement.
    Query {
        /// Statement text.
        sql: String,
    },
    /// Client → server: register a statement for repeated execution.
    Prepare {
        /// Statement text.
        sql: String,
    },
    /// Server → client: the statement was registered.
    Prepared {
        /// Connection-scoped id to pass to [`Frame::Execute`].
        statement_id: u64,
        /// The statement's plan-cache fingerprint (diagnostic).
        fingerprint: u64,
    },
    /// Client → server: run a prepared statement.
    Execute {
        /// Id from a previous [`Frame::Prepared`].
        statement_id: u64,
    },
    /// Server → client: the result schema, sent before any batch.
    ResultSchema {
        /// The result columns.
        schema: Schema,
    },
    /// Server → client: one batch of result rows.
    ResultBatch {
        /// The rows, each matching the announced schema.
        rows: Vec<Row>,
    },
    /// Server → client: the query finished (successfully or cancelled).
    QueryDone {
        /// Total rows delivered.
        rows: u64,
        /// Result partitions streamed.
        partitions: u64,
        /// Whether the plan came from the shared plan cache.
        plan_cache_hit: bool,
        /// Simulated cluster seconds the query cost.
        sim_seconds: f64,
        /// True when a [`Frame::Cancel`] stopped the stream early.
        cancelled: bool,
    },
    /// Server → client: the request failed. The connection stays usable
    /// unless the error was a protocol violation.
    Error {
        /// Stable error-kind label (`parse`, `execution`, `protocol`, …).
        kind: String,
        /// Human-readable message.
        message: String,
    },
    /// Client → server: stop the in-flight query (checked between
    /// batches).
    Cancel,
    /// Client → server: orderly goodbye.
    Close,
}

impl Frame {
    /// The on-wire type tag.
    pub fn frame_type(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::HelloOk { .. } => 2,
            Frame::Query { .. } => 3,
            Frame::Prepare { .. } => 4,
            Frame::Prepared { .. } => 5,
            Frame::Execute { .. } => 6,
            Frame::ResultSchema { .. } => 7,
            Frame::ResultBatch { .. } => 8,
            Frame::QueryDone { .. } => 9,
            Frame::Error { .. } => 10,
            Frame::Cancel => 11,
            Frame::Close => 12,
        }
    }

    /// Encode the payload (header excluded).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_payload_into(&mut buf);
        buf
    }

    /// Append the encoded payload to `buf`.
    fn encode_payload_into(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::new(buf);
        match self {
            Frame::Hello { token, tenant } => {
                w.magic(MAGIC, PROTOCOL_VERSION);
                w.str(token);
                w.str(tenant);
            }
            Frame::HelloOk {
                session_id,
                version,
            } => {
                w.u64(*session_id);
                w.u32(*version);
            }
            Frame::Query { sql } | Frame::Prepare { sql } => w.str(sql),
            Frame::Prepared {
                statement_id,
                fingerprint,
            } => {
                w.u64(*statement_id);
                w.u64(*fingerprint);
            }
            Frame::Execute { statement_id } => w.u64(*statement_id),
            Frame::ResultSchema { schema } => w.list(schema.fields(), |w, field| {
                w.str(&field.name);
                w.data_type(&WIRE_TYPE_CODES, field.data_type);
            }),
            Frame::ResultBatch { rows } => {
                w.list(rows, |w, row| w.list(row.values(), PayloadWriter::value))
            }
            Frame::QueryDone {
                rows,
                partitions,
                plan_cache_hit,
                sim_seconds,
                cancelled,
            } => {
                w.u64(*rows);
                w.u64(*partitions);
                w.bool(*plan_cache_hit);
                w.f64(*sim_seconds);
                w.bool(*cancelled);
            }
            Frame::Error { kind, message } => {
                w.str(kind);
                w.str(message);
            }
            Frame::Cancel | Frame::Close => {}
        }
    }

    /// Decode a payload for `frame_type`. Strict: every byte must be
    /// consumed, every count must fit in the bytes left.
    pub fn decode_payload(frame_type: u8, payload: &[u8]) -> Result<Frame, FrameError> {
        let mut r = PayloadReader::new(payload);
        let string = |r: &mut PayloadReader| r.str().map(str::to_owned);
        let frame = match frame_type {
            1 => {
                r.magic(MAGIC, PROTOCOL_VERSION)?;
                Frame::Hello {
                    token: string(&mut r)?,
                    tenant: string(&mut r)?,
                }
            }
            2 => Frame::HelloOk {
                session_id: r.u64()?,
                version: r.u32()?,
            },
            3 => Frame::Query {
                sql: string(&mut r)?,
            },
            4 => Frame::Prepare {
                sql: string(&mut r)?,
            },
            5 => Frame::Prepared {
                statement_id: r.u64()?,
                fingerprint: r.u64()?,
            },
            6 => Frame::Execute {
                statement_id: r.u64()?,
            },
            // A column is at least a name prefix and a type code; a row at
            // least its width; a value at least its tag.
            7 => Frame::ResultSchema {
                schema: Schema::new(r.list(4 + 1, |r| {
                    Ok(Field::new(r.str()?, r.data_type(&WIRE_TYPE_CODES)?))
                })?),
            },
            8 => Frame::ResultBatch {
                rows: r.list(4, |r| Ok(Row::new(r.list(1, PayloadReader::value)?)))?,
            },
            9 => Frame::QueryDone {
                rows: r.u64()?,
                partitions: r.u64()?,
                plan_cache_hit: r.bool()?,
                sim_seconds: r.f64()?,
                cancelled: r.bool()?,
            },
            10 => Frame::Error {
                kind: string(&mut r)?,
                message: string(&mut r)?,
            },
            11 => Frame::Cancel,
            12 => Frame::Close,
            other => {
                return Err(FrameError::Protocol(format!("unknown frame type {other}")));
            }
        };
        r.finish()
            .map_err(|e| FrameError::Protocol(format!("{e} after frame type {frame_type}")))?;
        Ok(frame)
    }
}

/// The header announcing `payload` as a frame of `frame_type`.
fn header_for(frame_type: u8, payload: &[u8]) -> [u8; HEADER_BYTES] {
    let mut header = [0u8; HEADER_BYTES];
    header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4] = frame_type;
    header[5..13].copy_from_slice(&checksum(payload).to_le_bytes());
    header
}

/// Append one whole frame (header, then payload) to `buf`; returns the
/// bytes appended. Several frames appended to one buffer leave in one write.
pub fn append_frame(buf: &mut Vec<u8>, frame: &Frame) -> u64 {
    let start = buf.len();
    buf.resize(start + HEADER_BYTES, 0);
    frame.encode_payload_into(buf);
    let (header, payload) = buf[start..].split_at_mut(HEADER_BYTES);
    header.copy_from_slice(&header_for(frame.frame_type(), payload));
    (buf.len() - start) as u64
}

/// Write one frame — header and payload in a single vectored write, so a
/// small frame is one segment on a `TCP_NODELAY` socket; returns total
/// bytes written (header + payload).
///
/// The payload is encoded into a buffer of its own and the header stays on
/// the stack. Encoding both into one growing buffer was measured to make
/// `scan` unsteady: with a client sending its queries that way, a
/// connection settled, for its whole life, into one of two regimes whose
/// median time to first row differed by a third (see CHANGES.md, PR 16).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<u64> {
    let payload = frame.encode_payload();
    let header = header_for(frame.frame_type(), &payload);
    let mut slices = [IoSlice::new(&header), IoSlice::new(&payload)];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match w.write_vectored(unsent) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()?;
    Ok((HEADER_BYTES + payload.len()) as u64)
}

/// Read one frame; returns it plus total bytes consumed. A clean EOF
/// before the first header byte surfaces as
/// [`io::ErrorKind::UnexpectedEof`] like any other torn read — callers
/// that want to treat it as an orderly close check for zero bytes read
/// themselves via [`read_header`] + [`read_body`].
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, u64), FrameError> {
    let header = read_header(r)?;
    read_body(r, header)
}

/// A parsed, validated frame header.
#[derive(Debug, Clone, Copy)]
pub struct FrameHeader {
    /// Payload length in bytes (≤ [`MAX_FRAME_BYTES`]).
    pub len: u32,
    /// Frame type tag.
    pub frame_type: u8,
    /// Expected FNV-1a 64 of the payload.
    pub checksum: u64,
}

/// Read and validate the 13-byte header.
pub fn read_header(r: &mut impl Read) -> Result<FrameHeader, FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    parse_header(&header)
}

/// Parse a header from a buffer (used by the server's non-blocking
/// cancel-peek, which inspects buffered bytes before consuming them).
pub fn parse_header(header: &[u8; HEADER_BYTES]) -> Result<FrameHeader, FrameError> {
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    Ok(FrameHeader {
        len,
        frame_type: header[4],
        checksum: u64::from_le_bytes(header[5..13].try_into().unwrap()),
    })
}

/// Read the payload for a validated header and decode the frame.
pub fn read_body(r: &mut impl Read, header: FrameHeader) -> Result<(Frame, u64), FrameError> {
    let mut payload = vec![0u8; header.len as usize];
    r.read_exact(&mut payload)?;
    if checksum(&payload) != header.checksum {
        return Err(FrameError::Protocol(format!(
            "checksum mismatch on frame type {}",
            header.frame_type
        )));
    }
    let frame = Frame::decode_payload(header.frame_type, &payload)?;
    Ok((frame, (HEADER_BYTES + payload.len()) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shark_common::{DataType, Value};

    fn round_trip(frame: Frame) {
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, &frame).unwrap();
        assert_eq!(written as usize, buf.len());
        let (decoded, consumed) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(consumed as usize, buf.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn frames_round_trip() {
        round_trip(Frame::Hello {
            token: "secret".into(),
            tenant: "dashboards".into(),
        });
        round_trip(Frame::HelloOk {
            session_id: 42,
            version: PROTOCOL_VERSION,
        });
        round_trip(Frame::Query {
            sql: "SELECT 1".into(),
        });
        round_trip(Frame::Prepare {
            sql: "SELECT * FROM t WHERE k = 7".into(),
        });
        round_trip(Frame::Prepared {
            statement_id: 3,
            fingerprint: 0xdead_beef,
        });
        round_trip(Frame::Execute { statement_id: 3 });
        round_trip(Frame::ResultSchema {
            schema: Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]),
        });
        round_trip(Frame::ResultBatch {
            rows: vec![
                Row::new(vec![
                    Value::Int(-7),
                    Value::str("x"),
                    Value::Null,
                    Value::Bool(true),
                    Value::Float(2.5),
                    Value::Date(-3),
                ]),
                Row::new(vec![]),
            ],
        });
        round_trip(Frame::QueryDone {
            rows: 100,
            partitions: 4,
            plan_cache_hit: true,
            sim_seconds: 0.25,
            cancelled: false,
        });
        round_trip(Frame::Error {
            kind: "parse".into(),
            message: "nope".into(),
        });
        round_trip(Frame::Cancel);
        round_trip(Frame::Close);
    }

    /// A writer that takes at most five bytes per call, like a socket whose
    /// send buffer is nearly full.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(5);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_short_write_is_resumed_and_both_writers_emit_the_same_bytes() {
        for frame in [
            Frame::Query {
                sql: "SELECT COUNT(*) FROM uservisits WHERE duration > 7".into(),
            },
            Frame::Cancel,
        ] {
            let mut appended = Vec::new();
            let bytes = append_frame(&mut appended, &frame);
            assert_eq!(bytes as usize, appended.len());
            let mut trickled = Trickle(Vec::new());
            assert_eq!(write_frame(&mut trickled, &frame).unwrap(), bytes);
            assert_eq!(trickled.0, appended);
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::Query {
                sql: "SELECT 1".into(),
            },
        )
        .unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        match read_frame(&mut buf.as_slice()) {
            Err(FrameError::Protocol(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        buf.push(3);
        buf.extend_from_slice(&0u64.to_le_bytes());
        match read_frame(&mut buf.as_slice()) {
            Err(FrameError::Protocol(msg)) => assert!(msg.contains("cap"), "{msg}"),
            other => panic!("expected oversize rejection, got {other:?}"),
        }
    }

    #[test]
    fn torn_frame_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::Query {
                sql: "SELECT 1".into(),
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 3);
        match read_frame(&mut buf.as_slice()) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected torn-frame EOF, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_and_bad_magic_are_protocol_errors() {
        let mut payload = Frame::Cancel.encode_payload();
        payload.push(9);
        assert!(matches!(
            Frame::decode_payload(11, &payload),
            Err(FrameError::Protocol(_))
        ));
        let mut hello = Frame::Hello {
            token: String::new(),
            tenant: String::new(),
        }
        .encode_payload();
        hello[0] = b'X';
        assert!(matches!(
            Frame::decode_payload(1, &hello),
            Err(FrameError::Protocol(_))
        ));
    }
}
