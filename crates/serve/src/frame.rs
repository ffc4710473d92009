//! Length-prefixed frames over a byte stream.
//!
//! A frame is `varint(1 + payload_len)` followed by one kind byte and the
//! payload.  The varint is the same LEB128 encoding the `.dtrace` format uses
//! (`dprof::trace::codec`), so the service introduces no second wire-level
//! integer encoding.  The length counts the kind byte, which means a length of
//! zero is malformed and a reader can reject it without a special case.

use std::io::{Read, Write};

/// Upper bound on a frame's declared size.  Large enough for any merged-report
/// JSON or quick-scale `.dtrace` upload, small enough that a corrupt or hostile
/// length prefix cannot make the server allocate without bound.
pub const MAX_FRAME_BYTES: u64 = 64 * 1024 * 1024;

/// The most of a frame's declared body [`read_frame`] reserves before any of it has
/// arrived; a longer body grows its buffer as its bytes do.
const BODY_RESERVE: u64 = 64 * 1024;

/// Writes one frame: varint length prefix, kind byte, payload.  The three go out in one
/// `write_all`: the sockets run with `TCP_NODELAY`, where every write is a segment and
/// a wake-up of the peer.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), String> {
    let mut frame = Vec::with_capacity(11 + payload.len());
    dprof::trace::codec::put_varint(&mut frame, 1 + payload.len() as u64);
    frame.push(kind);
    frame.extend_from_slice(payload);
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| format!("write frame: {e}"))
}

/// Reads one frame.  Returns `Ok(None)` on a clean end of stream (EOF before
/// the first length byte); anything else that cuts a frame short is an error.
///
/// The prefix and the kind byte are read a byte at a time, so hand this a buffered
/// reader when `r` is a socket (both ends of a connection keep one `BufReader`).
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, String> {
    let mut len: u64 = 0;
    let mut shift = 0u32;
    let mut first = true;
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) if first => return Ok(None),
            Ok(0) => return Err("truncated frame length".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("read frame length: {e}")),
        }
        first = false;
        if shift >= 64 {
            return Err("malformed frame length (varint too long)".into());
        }
        len |= u64::from(byte[0] & 0x7f) << shift;
        shift += 7;
        if byte[0] & 0x80 == 0 {
            break;
        }
    }
    if len == 0 {
        return Err("malformed frame (zero length)".into());
    }
    if len > MAX_FRAME_BYTES {
        return Err(format!("frame of {len} bytes exceeds {MAX_FRAME_BYTES}"));
    }
    let body_error = |e: std::io::Error| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => "truncated frame body".to_string(),
        _ => format!("read frame body: {e}"),
    };
    r.read_exact(&mut byte).map_err(body_error)?;
    // What a header declares is not yet what a peer sent: the buffer holds what arrived.
    let body = len - 1;
    let mut payload = Vec::with_capacity(body.min(BODY_RESERVE) as usize);
    r.take(body).read_to_end(&mut payload).map_err(body_error)?;
    if payload.len() as u64 != body {
        return Err("truncated frame body".into());
    }
    Ok(Some((byte[0], payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x10, b"hello").unwrap();
        write_frame(&mut buf, 0x2f, b"").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some((0x10, b"hello".to_vec()))
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), Some((0x2f, Vec::new())));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn torn_and_oversized_frames_are_errors_not_hangs() {
        // Length promises five bytes, stream carries two.
        let mut buf = Vec::new();
        dprof::trace::codec::put_varint(&mut buf, 6);
        buf.extend_from_slice(&[0x10, b'h', b'i']);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        // A zero length can never hold the kind byte.
        let err = read_frame(&mut Cursor::new(vec![0u8])).unwrap_err();
        assert!(err.contains("zero length"), "{err}");

        // A hostile length prefix is rejected before any allocation.
        let mut buf = Vec::new();
        dprof::trace::codec::put_varint(&mut buf, u64::MAX / 2);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }
}
