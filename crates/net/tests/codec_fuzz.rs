//! Property-based fuzzing of the frame codec: arbitrary, truncated,
//! oversized and garbage bytes must always produce clean, structured
//! protocol errors — never a panic, an unbounded allocation, or a hang
//! — and every well-formed message must round-trip exactly.

use std::io::Cursor;

use proptest::prelude::*;

use renaming_net::protocol::{
    read_frame, write_frame, ProtocolError, Request, Response, Status, WireError, MAX_FRAME_LEN,
};

/// A strategy over every well-formed request.
fn arb_request() -> impl Strategy<Value = Request> {
    (0u8..4, any::<u64>()).prop_map(|(kind, name)| match kind {
        0 => Request::Acquire,
        1 => Request::Release { name },
        2 => Request::Stats,
        _ => Request::Shutdown,
    })
}

/// A strategy over well-formed responses: every kind, status bytes from
/// the full catalog, details from arbitrary (possibly non-ASCII) bytes.
fn arb_response() -> impl Strategy<Value = Response> {
    let status = (0usize..7).prop_map(|i| {
        [
            Status::InvalidEpsilon,
            Status::InvalidBeta,
            Status::TooFewProcesses,
            Status::Exhausted,
            Status::Malformed,
            Status::NotHeld,
            Status::ShuttingDown,
        ][i]
    });
    let detail = prop::collection::vec(any::<u8>(), 0..40)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned());
    ((0u8..4, any::<u64>()), (status, detail)).prop_map(
        |((kind, name), (status, detail))| match kind {
            0 => Response::Name(name),
            1 => Response::Released,
            2 => Response::ShuttingDown,
            _ => Response::Error { status, detail },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Garbage payload bytes: decoding must return a structured error
    /// or a valid message — never panic. Both decoders run on the same
    /// bytes.
    #[test]
    fn arbitrary_payloads_never_panic(payload in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
    }

    /// Garbage *streams* through the frame layer: every outcome is a
    /// clean frame, a clean EOF, or a structured protocol error; the
    /// reader never panics, never hangs (each iteration consumes bytes
    /// or ends the stream), and never hands back a payload beyond the
    /// cap.
    #[test]
    fn arbitrary_streams_never_panic_or_hang(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let mut reader = Cursor::new(bytes.as_slice());
        loop {
            match read_frame(&mut reader, MAX_FRAME_LEN) {
                Ok(Some(payload)) => {
                    prop_assert!(payload.len() <= MAX_FRAME_LEN as usize);
                    let _ = Request::decode(&payload);
                }
                Ok(None) => break,          // clean EOF
                Err(WireError::Protocol(_)) => break,
                Err(WireError::Io(e)) => panic!("io error on an in-memory cursor: {e}"),
            }
        }
    }

    /// Every well-formed request round-trips exactly — payload-level
    /// and through the frame layer.
    #[test]
    fn requests_roundtrip(request in arb_request()) {
        let payload = request.encode();
        prop_assert_eq!(Request::decode(&payload).unwrap(), request.clone());
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut reader = Cursor::new(wire);
        let framed = read_frame(&mut reader, MAX_FRAME_LEN).unwrap().unwrap();
        prop_assert_eq!(Request::decode(&framed).unwrap(), request);
    }

    /// Every well-formed response round-trips exactly.
    #[test]
    fn responses_roundtrip(response in arb_response()) {
        let payload = response.encode();
        prop_assert_eq!(Response::decode(&payload).unwrap(), response);
    }

    /// Truncating a valid frame anywhere strictly inside it yields
    /// `Truncated`; cutting it to nothing is a clean EOF. Never a panic,
    /// never a bogus success.
    #[test]
    fn truncated_frames_error_cleanly(request in arb_request(), cut in any::<usize>()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &request.encode()).unwrap();
        let cut = cut % wire.len(); // in [0, len)
        let mut reader = Cursor::new(&wire[..cut]);
        if cut == 0 {
            prop_assert!(matches!(read_frame(&mut reader, MAX_FRAME_LEN), Ok(None)));
        } else {
            prop_assert!(matches!(
                read_frame(&mut reader, MAX_FRAME_LEN),
                Err(WireError::Protocol(ProtocolError::Truncated))
            ));
        }
    }

    /// Any announced length beyond the cap is rejected up front, for
    /// every cap value — the allocation never happens.
    #[test]
    fn oversized_prefixes_rejected_before_allocation(
        excess in any::<u32>(),
        max in 0u32..MAX_FRAME_LEN + 1,
    ) {
        let len = max.saturating_add(1).saturating_add(excess % (u32::MAX - MAX_FRAME_LEN));
        let mut wire = len.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]); // some bytes behind the lie
        let mut reader = Cursor::new(wire);
        match read_frame(&mut reader, max) {
            Err(WireError::Protocol(ProtocolError::Oversized { len: got, max: cap })) => {
                prop_assert_eq!(got, len);
                prop_assert_eq!(cap, max);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    /// Flipping the version byte of any valid request is always
    /// `BadVersion` — resynchronization stays possible because the
    /// frame boundary is intact.
    #[test]
    fn header_corruption_is_structured(request in arb_request(), version in 2u16..256) {
        let version = version as u8;
        let mut payload = request.encode();
        payload[0] = version;
        prop_assert_eq!(Request::decode(&payload), Err(ProtocolError::BadVersion(version)));
    }
}
