//! The wire protocol: length-prefixed binary frames, a versioned
//! payload header, and explicit status codes.
//!
//! # Frame layer
//!
//! Every message — request or response — travels as one **frame**:
//!
//! ```text
//! +----------------+---------------------------+
//! | len: u32 LE    | payload: `len` bytes      |
//! +----------------+---------------------------+
//! ```
//!
//! `len` counts the payload only and is bounded by
//! [`MAX_FRAME_LEN`]; a larger prefix is rejected *before* any
//! allocation, so a hostile 4-byte header cannot reserve gigabytes.
//! EOF exactly on a frame boundary is a clean close ([`read_frame`]
//! returns `None`); EOF inside a frame is [`ProtocolError::Truncated`].
//!
//! # Payload layer
//!
//! ```text
//! request  = [version: u8][opcode: u8][body...]
//! response = [version: u8][kind: u8][body...]
//! ```
//!
//! Requests ([`Request`]): `Acquire` (0x01, empty body), `Release`
//! (0x02, name as u64 LE), `Stats` (0x03, empty), `Shutdown` (0x04,
//! empty). Responses ([`Response`]) echo `0x80 | opcode` as their kind
//! on success — so a response is self-describing without request
//! context — or use kind `0x40` for an error: `[status: u8][detail
//! utf-8]`.
//!
//! # Status codes
//!
//! [`Status`] is pinned to [`RenamingError::code`]: `0` is `Ok`, codes
//! `1..=4` are the library error variants *by their stable
//! discriminant* (a conversion with no wildcard arm and a totality
//! test keep the two from drifting; code 5 is retired), and
//! protocol-level failures live at `64+` where the library can never
//! collide with them.
//!
//! Decoders return structured [`ProtocolError`]s on any malformed
//! input — never a panic, never an unbounded allocation, never a hang.

use std::fmt;
use std::io::{self, Read, Write};

use renaming_core::RenamingError;
use serde_json::Value;

/// Protocol version carried in every payload header.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard cap on a frame's payload length. Large enough for any `Stats`
/// JSON body by orders of magnitude, small enough that a hostile
/// length prefix cannot cause a meaningful allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Request opcodes (also the success-response kind minus [`RESPONSE_OK_BIT`]).
const OP_ACQUIRE: u8 = 0x01;
const OP_RELEASE: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;

/// Success responses echo `RESPONSE_OK_BIT | opcode` as their kind.
const RESPONSE_OK_BIT: u8 = 0x80;
/// The error-response kind.
const RESPONSE_ERR: u8 = 0x40;

/// Wire status byte: `0` = success, `1..=4` = [`RenamingError::code`]
/// values verbatim, `64+` = protocol-level failures the library enum
/// does not know about. Code 5 is retired with its library variant, and
/// code 66 with the load-shedding answer this server never sent; both
/// decode as [`ProtocolError::UnknownStatus`] and are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Status {
    /// The request succeeded.
    Ok = 0,
    /// [`RenamingError::InvalidEpsilon`].
    InvalidEpsilon = 1,
    /// [`RenamingError::InvalidBeta`].
    InvalidBeta = 2,
    /// [`RenamingError::TooFewProcesses`].
    TooFewProcesses = 3,
    /// [`RenamingError::NamespaceExhausted`] — the graceful "namespace
    /// full" answer: the connection stays open, retry after a release.
    Exhausted = 4,
    /// The request frame decoded but made no sense (unknown opcode,
    /// wrong body length, bad version).
    Malformed = 64,
    /// A `Release` named a name this connection does not hold.
    NotHeld = 65,
    /// The server is shutting down and will not serve the request.
    ShuttingDown = 67,
}

impl Status {
    /// Decodes a status byte.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownStatus`] for a byte outside the catalog.
    pub fn from_wire(byte: u8) -> Result<Self, ProtocolError> {
        Ok(match byte {
            0 => Status::Ok,
            1 => Status::InvalidEpsilon,
            2 => Status::InvalidBeta,
            3 => Status::TooFewProcesses,
            4 => Status::Exhausted,
            64 => Status::Malformed,
            65 => Status::NotHeld,
            67 => Status::ShuttingDown,
            other => return Err(ProtocolError::UnknownStatus(other)),
        })
    }
}

impl From<&RenamingError> for Status {
    /// The wire status of a library error — keyed on
    /// [`RenamingError::code`], with the variant-by-variant match kept
    /// here (no wildcard arm) so a new library variant is a compile
    /// error in the wire crate until it gets a status. A test asserts
    /// `Status::from(&e) as u8 == e.code()` for every variant.
    fn from(error: &RenamingError) -> Self {
        match error {
            RenamingError::InvalidEpsilon(_) => Status::InvalidEpsilon,
            RenamingError::InvalidBeta(_) => Status::InvalidBeta,
            RenamingError::TooFewProcesses { .. } => Status::TooFewProcesses,
            RenamingError::NamespaceExhausted { .. } => Status::Exhausted,
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            Status::Ok => "ok",
            Status::InvalidEpsilon => "invalid-epsilon",
            Status::InvalidBeta => "invalid-beta",
            Status::TooFewProcesses => "too-few-processes",
            Status::Exhausted => "namespace-exhausted",
            Status::Malformed => "malformed-request",
            Status::NotHeld => "name-not-held",
            Status::ShuttingDown => "shutting-down",
        };
        f.write_str(label)
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Acquire one name; success answer is [`Response::Name`].
    Acquire,
    /// Release a previously acquired name.
    Release {
        /// The name's raw value, as returned by a prior acquire.
        name: u64,
    },
    /// Fetch the server's live statistics as JSON.
    Stats,
    /// Ask the server to shut down gracefully.
    Shutdown,
}

impl Request {
    /// Encodes the request payload (frame the result with
    /// [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(10);
        self.encode_into(&mut out);
        out
    }

    /// Appends the request payload to `out`; allocates only if `out`
    /// lacks the capacity.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Acquire => out.extend_from_slice(&[PROTOCOL_VERSION, OP_ACQUIRE]),
            Request::Release { name } => {
                out.extend_from_slice(&[PROTOCOL_VERSION, OP_RELEASE]);
                out.extend_from_slice(&name.to_le_bytes());
            }
            Request::Stats => out.extend_from_slice(&[PROTOCOL_VERSION, OP_STATS]),
            Request::Shutdown => out.extend_from_slice(&[PROTOCOL_VERSION, OP_SHUTDOWN]),
        }
    }

    /// Decodes a request payload.
    ///
    /// # Errors
    ///
    /// A structured [`ProtocolError`] for every malformed shape —
    /// short header, wrong version, unknown opcode, wrong body length.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let (version, opcode, body) = split_header(payload)?;
        if version != PROTOCOL_VERSION {
            return Err(ProtocolError::BadVersion(version));
        }
        match opcode {
            OP_ACQUIRE => expect_empty(body, "acquire").map(|()| Request::Acquire),
            OP_RELEASE => Ok(Request::Release {
                name: decode_u64(body, "release")?,
            }),
            OP_STATS => expect_empty(body, "stats").map(|()| Request::Stats),
            OP_SHUTDOWN => expect_empty(body, "shutdown").map(|()| Request::Shutdown),
            other => Err(ProtocolError::UnknownOpcode(other)),
        }
    }
}

/// A decoded server response. Self-describing: the kind byte says which
/// variant, so decoding needs no request context.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful acquire: the granted name.
    Name(u64),
    /// Successful release.
    Released,
    /// Successful stats query: the server's live statistics.
    Stats(Value),
    /// The server acknowledged the shutdown request and is stopping.
    ShuttingDown,
    /// The request failed; the connection remains usable (the server
    /// only closes it on framing errors it cannot resynchronize from).
    Error {
        /// Why — see [`Status`].
        status: Status,
        /// Human-readable context (e.g. the library error's display).
        detail: String,
    },
}

impl Response {
    /// Encodes the response payload (frame the result with
    /// [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(10);
        self.encode_into(&mut out);
        out
    }

    /// Appends this response to `out` as one whole frame — length prefix,
    /// then payload — the bytes [`write_frame`] writes for
    /// [`encode`](Self::encode)'s payload. `Name`, `Released` and
    /// `ShuttingDown` allocate only if `out` lacks the capacity.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Oversized`] if the payload exceeds
    /// [`MAX_FRAME_LEN`]; `out` is then left as it was.
    pub(crate) fn encode_frame_into(&self, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        self.encode_into(out);
        match frame_prefix(out.len() - start - 4) {
            Ok(prefix) => {
                out[start..start + 4].copy_from_slice(&prefix);
                Ok(())
            }
            Err(error) => {
                out.truncate(start);
                Err(error)
            }
        }
    }

    /// Appends the response payload to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Name(name) => {
                out.extend_from_slice(&[PROTOCOL_VERSION, RESPONSE_OK_BIT | OP_ACQUIRE]);
                out.extend_from_slice(&name.to_le_bytes());
            }
            Response::Released => {
                out.extend_from_slice(&[PROTOCOL_VERSION, RESPONSE_OK_BIT | OP_RELEASE]);
            }
            Response::Stats(value) => {
                out.extend_from_slice(&[PROTOCOL_VERSION, RESPONSE_OK_BIT | OP_STATS]);
                out.extend_from_slice(value.to_string().as_bytes());
            }
            Response::ShuttingDown => {
                out.extend_from_slice(&[PROTOCOL_VERSION, RESPONSE_OK_BIT | OP_SHUTDOWN]);
            }
            Response::Error { status, detail } => {
                out.extend_from_slice(&[PROTOCOL_VERSION, RESPONSE_ERR, *status as u8]);
                out.extend_from_slice(detail.as_bytes());
            }
        }
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// A structured [`ProtocolError`] for every malformed shape.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let (version, kind, body) = split_header(payload)?;
        if version != PROTOCOL_VERSION {
            return Err(ProtocolError::BadVersion(version));
        }
        match kind {
            k if k == RESPONSE_OK_BIT | OP_ACQUIRE => {
                Ok(Response::Name(decode_u64(body, "name response")?))
            }
            k if k == RESPONSE_OK_BIT | OP_RELEASE => {
                expect_empty(body, "release response").map(|()| Response::Released)
            }
            k if k == RESPONSE_OK_BIT | OP_STATS => {
                let text =
                    std::str::from_utf8(body).map_err(|_| ProtocolError::BadBody("stats utf-8"))?;
                let value = serde_json::from_str(text)
                    .map_err(|_| ProtocolError::BadBody("stats json"))?;
                Ok(Response::Stats(value))
            }
            k if k == RESPONSE_OK_BIT | OP_SHUTDOWN => {
                expect_empty(body, "shutdown response").map(|()| Response::ShuttingDown)
            }
            RESPONSE_ERR => {
                let (&status, detail) = body
                    .split_first()
                    .ok_or(ProtocolError::BadBody("error status"))?;
                Ok(Response::Error {
                    status: Status::from_wire(status)?,
                    detail: String::from_utf8_lossy(detail).into_owned(),
                })
            }
            other => Err(ProtocolError::UnknownOpcode(other)),
        }
    }

    /// A wire error response for a library failure: status from the
    /// stable code mapping, detail from the error's display.
    pub fn from_error(error: &RenamingError) -> Self {
        Response::Error {
            status: Status::from(error),
            detail: error.to_string(),
        }
    }
}

fn split_header(payload: &[u8]) -> Result<(u8, u8, &[u8]), ProtocolError> {
    match payload {
        [version, kind, body @ ..] => Ok((*version, *kind, body)),
        _ => Err(ProtocolError::ShortHeader(payload.len())),
    }
}

fn expect_empty(body: &[u8], what: &'static str) -> Result<(), ProtocolError> {
    if body.is_empty() {
        Ok(())
    } else {
        Err(ProtocolError::BadLength {
            what,
            expected: 0,
            got: body.len(),
        })
    }
}

fn decode_u64(body: &[u8], what: &'static str) -> Result<u64, ProtocolError> {
    let bytes: [u8; 8] = body.try_into().map_err(|_| ProtocolError::BadLength {
        what,
        expected: 8,
        got: body.len(),
    })?;
    Ok(u64::from_le_bytes(bytes))
}

/// A malformed payload or frame — every way decoding can fail short of
/// an I/O error. Producing one of these (instead of panicking or
/// hanging) on arbitrary input is the codec fuzz suite's contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload is shorter than the 2-byte `[version, opcode]` header.
    ShortHeader(usize),
    /// The version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// The opcode / response kind is not in the catalog.
    UnknownOpcode(u8),
    /// The status byte of an error response is not in the catalog.
    UnknownStatus(u8),
    /// A fixed-size body had the wrong length.
    BadLength {
        /// Which message was malformed.
        what: &'static str,
        /// The length the protocol requires.
        expected: usize,
        /// The length on the wire.
        got: usize,
    },
    /// A variable-size body failed validation (utf-8, JSON).
    BadBody(&'static str),
    /// The length prefix exceeds [`MAX_FRAME_LEN`]; rejected before any
    /// allocation.
    Oversized {
        /// The announced payload length.
        len: u32,
        /// The configured cap it exceeded.
        max: u32,
    },
    /// The stream ended mid-frame (inside the prefix or the payload).
    Truncated,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::ShortHeader(len) => {
                write!(f, "payload of {len} bytes is shorter than the 2-byte header")
            }
            ProtocolError::BadVersion(v) => {
                write!(f, "protocol version {v} (this side speaks {PROTOCOL_VERSION})")
            }
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtocolError::UnknownStatus(s) => write!(f, "unknown status byte {s}"),
            ProtocolError::BadLength { what, expected, got } => {
                write!(f, "{what}: body of {got} bytes, protocol requires {expected}")
            }
            ProtocolError::BadBody(what) => write!(f, "malformed body: {what}"),
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            ProtocolError::Truncated => f.write_str("stream ended mid-frame"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Anything that can go wrong on a connection: transport I/O or a
/// protocol violation.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer sent bytes that do not parse as the protocol.
    Protocol(ProtocolError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<ProtocolError> for WireError {
    fn from(e: ProtocolError) -> Self {
        WireError::Protocol(e)
    }
}

/// Writes one frame: the `u32` little-endian length prefix, then the
/// payload. Does **not** flush — callers batch frames and flush once.
///
/// # Errors
///
/// [`WireError::Protocol`] ([`ProtocolError::Oversized`]) if `payload`
/// exceeds [`MAX_FRAME_LEN`]; otherwise propagates I/O errors.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<(), WireError> {
    writer.write_all(&frame_prefix(payload.len())?)?;
    writer.write_all(payload)?;
    Ok(())
}

/// The length prefix of a `len`-byte payload.
fn frame_prefix(len: usize) -> Result<[u8; 4], ProtocolError> {
    let len = u32::try_from(len).map_err(|_| ProtocolError::Oversized {
        len: u32::MAX,
        max: MAX_FRAME_LEN,
    })?;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    Ok(len.to_le_bytes())
}

/// Reads one frame's payload. Returns `Ok(None)` on a clean EOF (the
/// peer closed exactly on a frame boundary).
///
/// # Errors
///
/// [`ProtocolError::Oversized`] for a length prefix beyond `max_len`
/// (checked before allocating), [`ProtocolError::Truncated`] for EOF
/// inside a frame, [`WireError::Io`] for transport failures.
pub fn read_frame<R: Read>(reader: &mut R, max_len: u32) -> Result<Option<Vec<u8>>, WireError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(reader, max_len, &mut payload)?.then_some(payload))
}

/// [`read_frame`] into a caller-owned buffer: on `Ok(true)` `payload`
/// holds exactly the frame's payload; `Ok(false)` is a clean EOF. The
/// buffer keeps its capacity, so a reused one allocates only to grow
/// past the largest frame it has held (at most `max_len` bytes).
///
/// # Errors
///
/// As for [`read_frame`]; an oversized prefix is rejected before
/// `payload` is resized.
pub(crate) fn read_frame_into<R: Read>(
    reader: &mut R,
    max_len: u32,
    payload: &mut Vec<u8>,
) -> Result<bool, WireError> {
    // EOF before the first byte is a clean close; EOF after it is a
    // truncated frame.
    let truncated = |e: io::Error| -> WireError {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => ProtocolError::Truncated.into(),
            _ => e.into(),
        }
    };
    let mut prefix = [0u8; 4];
    let first = loop {
        match reader.read(&mut prefix) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            read => break read?,
        }
    };
    if first == 0 {
        return Ok(false);
    }
    reader.read_exact(&mut prefix[first..]).map_err(truncated)?;
    let len = u32::from_le_bytes(prefix);
    if len > max_len {
        return Err(ProtocolError::Oversized { len, max: max_len }.into());
    }
    payload.clear();
    payload.resize(len as usize, 0);
    reader.read_exact(payload).map_err(truncated)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn roundtrip_request(request: Request) {
        let decoded = Request::decode(&request.encode()).expect("roundtrip");
        assert_eq!(decoded, request);
    }

    fn roundtrip_response(response: Response) {
        let decoded = Response::decode(&response.encode()).expect("roundtrip");
        assert_eq!(decoded, response);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Acquire);
        roundtrip_request(Request::Release { name: 0 });
        roundtrip_request(Request::Release { name: u64::MAX });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Name(17));
        roundtrip_response(Response::Released);
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::Stats(serde_json::json!({
            "occupancy": 3, "capacity": 64
        })));
        roundtrip_response(Response::Error {
            status: Status::Exhausted,
            detail: "all 8 names taken".to_string(),
        });
    }

    #[test]
    fn status_bytes_match_library_codes() {
        // The ISSUE's drift guard: the wire status of every library
        // error is its stable `code()`, checked variant-by-variant with
        // no wildcard anywhere in the chain.
        let witnesses = [
            RenamingError::InvalidEpsilon(-1.0),
            RenamingError::InvalidBeta(0),
            RenamingError::TooFewProcesses { n: 1, min: 2 },
            RenamingError::NamespaceExhausted { namespace: 8 },
        ];
        for error in witnesses {
            let status = Status::from(&error);
            assert_eq!(status as u8, error.code(), "{error}");
            // And the byte decodes back to the same status.
            assert_eq!(Status::from_wire(status as u8), Ok(status));
        }
        assert_eq!(Status::Ok as u8, 0, "0 stays reserved for success");
        for retired in [5, 66] {
            assert_eq!(
                Status::from_wire(retired),
                Err(ProtocolError::UnknownStatus(retired)),
                "code {retired} is retired, never reused"
            );
        }
    }

    #[test]
    fn malformed_payloads_are_structured_errors() {
        assert_eq!(Request::decode(&[]), Err(ProtocolError::ShortHeader(0)));
        assert_eq!(
            Request::decode(&[PROTOCOL_VERSION]),
            Err(ProtocolError::ShortHeader(1))
        );
        assert_eq!(
            Request::decode(&[9, OP_ACQUIRE]),
            Err(ProtocolError::BadVersion(9))
        );
        assert_eq!(
            Request::decode(&[PROTOCOL_VERSION, 0x7f]),
            Err(ProtocolError::UnknownOpcode(0x7f))
        );
        assert!(matches!(
            Request::decode(&[PROTOCOL_VERSION, OP_RELEASE, 1, 2, 3]),
            Err(ProtocolError::BadLength { expected: 8, got: 3, .. })
        ));
        assert!(matches!(
            Request::decode(&[PROTOCOL_VERSION, OP_ACQUIRE, 0]),
            Err(ProtocolError::BadLength { expected: 0, got: 1, .. })
        ));
        assert!(matches!(
            Response::decode(&[PROTOCOL_VERSION, RESPONSE_ERR]),
            Err(ProtocolError::BadBody(_))
        ));
        assert_eq!(
            Response::decode(&[PROTOCOL_VERSION, RESPONSE_ERR, 250, b'x']),
            Err(ProtocolError::UnknownStatus(250))
        );
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize_before_allocating() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").expect("write");
        write_frame(&mut wire, b"").expect("empty frame is legal");
        let mut reader = io::Cursor::new(wire);
        assert_eq!(
            read_frame(&mut reader, MAX_FRAME_LEN).expect("frame"),
            Some(b"hello".to_vec())
        );
        assert_eq!(
            read_frame(&mut reader, MAX_FRAME_LEN).expect("frame"),
            Some(Vec::new())
        );
        assert_eq!(read_frame(&mut reader, MAX_FRAME_LEN).expect("eof"), None);

        // A 4 GiB length prefix must fail fast, without the allocation.
        let hostile = u32::MAX.to_le_bytes();
        let mut reader = io::Cursor::new(hostile.to_vec());
        match read_frame(&mut reader, MAX_FRAME_LEN) {
            Err(WireError::Protocol(ProtocolError::Oversized { len, max })) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // Writing oversize is rejected symmetrically.
        let big = vec![0u8; MAX_FRAME_LEN as usize + 1];
        assert!(matches!(
            write_frame(&mut Vec::new(), &big),
            Err(WireError::Protocol(ProtocolError::Oversized { .. }))
        ));
    }

    #[test]
    fn read_frame_into_reuses_one_buffer_and_checks_the_cap_first() {
        let mut wire = Vec::new();
        for payload in [&b"hello"[..], b"", b"hi"] {
            write_frame(&mut wire, payload).expect("write");
        }
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = io::Cursor::new(wire);
        let mut payload = Vec::new();
        for expected in [&b"hello"[..], b"", b"hi"] {
            assert!(read_frame_into(&mut reader, MAX_FRAME_LEN, &mut payload).expect("frame"));
            assert_eq!(payload, expected, "a shorter frame leaves no stale bytes");
        }
        let capacity = payload.capacity();
        assert!(matches!(
            read_frame_into(&mut reader, MAX_FRAME_LEN, &mut payload),
            Err(WireError::Protocol(ProtocolError::Oversized { len: u32::MAX, .. }))
        ));
        assert_eq!(
            (payload.as_slice(), payload.capacity()),
            (&b"hi"[..], capacity),
            "an oversized prefix is rejected before the buffer is touched"
        );
        assert!(!read_frame_into(&mut io::Cursor::new(Vec::new()), MAX_FRAME_LEN, &mut payload)
            .expect("clean eof"));
    }

    #[test]
    fn encode_frame_into_rejects_an_oversized_payload_and_leaves_out_alone() {
        let mut out = b"kept".to_vec();
        let huge = Response::Error {
            status: Status::Malformed,
            detail: "x".repeat(MAX_FRAME_LEN as usize),
        };
        assert!(matches!(
            huge.encode_frame_into(&mut out),
            Err(ProtocolError::Oversized { .. })
        ));
        assert_eq!(out, b"kept");
    }

    const STATUSES: [Status; 8] = [
        Status::Ok,
        Status::InvalidEpsilon,
        Status::InvalidBeta,
        Status::TooFewProcesses,
        Status::Exhausted,
        Status::Malformed,
        Status::NotHeld,
        Status::ShuttingDown,
    ];

    /// Every response kind: any name, any status, details and JSON
    /// bodies from arbitrary (possibly non-ASCII) bytes.
    fn arb_response() -> impl Strategy<Value = Response> {
        (
            (0u8..5, any::<u64>()),
            0..STATUSES.len(),
            prop::collection::vec(any::<u8>(), 0..40),
        )
            .prop_map(|((kind, name), status, bytes)| {
                let detail = String::from_utf8_lossy(&bytes).into_owned();
                match kind {
                    0 => Response::Name(name),
                    1 => Response::Released,
                    2 => Response::Stats(serde_json::json!({ "name": name, "detail": detail })),
                    3 => Response::ShuttingDown,
                    _ => Response::Error {
                        status: STATUSES[status],
                        detail,
                    },
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The server's framing path puts the same bytes on the wire as
        /// `write_frame` over `encode`, appended after whatever `out`
        /// already holds.
        #[test]
        fn encode_frame_into_matches_write_frame_of_encode(
            first in arb_response(),
            second in arb_response(),
        ) {
            let mut expected = Vec::new();
            write_frame(&mut expected, &first.encode()).expect("write");
            write_frame(&mut expected, &second.encode()).expect("write");
            let mut out = Vec::new();
            first.encode_frame_into(&mut out).expect("legal size");
            second.encode_frame_into(&mut out).expect("legal size");
            prop_assert_eq!(out, expected);
        }
    }

    #[test]
    fn truncation_is_distinguished_from_clean_eof() {
        // EOF inside the length prefix.
        let mut reader = io::Cursor::new(vec![5u8, 0]);
        assert!(matches!(
            read_frame(&mut reader, MAX_FRAME_LEN),
            Err(WireError::Protocol(ProtocolError::Truncated))
        ));
        // EOF inside the payload.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").expect("write");
        wire.truncate(wire.len() - 2);
        let mut reader = io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut reader, MAX_FRAME_LEN),
            Err(WireError::Protocol(ProtocolError::Truncated))
        ));
    }
}
