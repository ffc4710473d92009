//! The request/response protocol spoken inside [`crate::frame`] frames.
//!
//! Payloads are flat concatenations of the `.dtrace` codec primitives
//! (varints and length-prefixed strings) — no JSON on the request path, so a
//! producer can push without ever building a document.  Responses carry a
//! UTF-8 JSON document (`dprof-serve/v1`) on success or a bare error string.

use dprof::trace::codec::{get_string, get_varint, put_string, put_varint};
use dprof::trace::TraceError;

/// Frame kind of a [`Request::PushShard`].
pub const KIND_PUSH_SHARD: u8 = 0x01;
/// Frame kind of a [`Request::PushTrace`].
pub const KIND_PUSH_TRACE: u8 = 0x02;
/// Frame kind of a [`Request::QueryTop`].
pub const KIND_QUERY_TOP: u8 = 0x10;
/// Frame kind of a [`Request::QueryRegressions`].
pub const KIND_QUERY_REGRESSIONS: u8 = 0x11;
/// Frame kind of a [`Request::QueryAlerts`].
pub const KIND_QUERY_ALERTS: u8 = 0x12;
/// Frame kind of a [`Request::ListKeys`].
pub const KIND_LIST_KEYS: u8 = 0x13;
/// Frame kind of a [`Request::Stats`].
pub const KIND_STATS: u8 = 0x14;
/// Frame kind of a [`Request::Snapshot`].
pub const KIND_SNAPSHOT: u8 = 0x20;
/// Frame kind of a [`Request::Shutdown`].
pub const KIND_SHUTDOWN: u8 = 0x2f;
/// Frame kind of a successful [`Response`].
pub const KIND_OK: u8 = 0x80;
/// Frame kind of an error [`Response`].
pub const KIND_ERR: u8 = 0x81;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Push one profile shard for `(workload, build)`: `report_json` is a
    /// `dprof-report/v1` document (what `dprof -f json` emits, or a shard written
    /// whole), read as one shard.  `shard_id` must be unique per key per producer
    /// fleet — it becomes the shard's canonical fold ordinal, so the merged report does not depend on
    /// arrival order, except at rounding level in the means of a key that compacted
    /// (see `MergeSink`).  A shard id below one its key's running fold already
    /// summed makes the key's next read fold its resident shards again.
    PushShard {
        /// Workload tag.
        workload: String,
        /// Build tag.
        build: String,
        /// Producer-assigned unique shard id (the fold ordinal).
        shard_id: u64,
        /// The report.
        report_json: String,
    },
    /// Upload a recorded `.dtrace` session; the server replays it and absorbs
    /// one shard per recorded stream (ordinals `shard_id * 1024 + thread`).
    PushTrace {
        /// Workload tag.
        workload: String,
        /// Build tag.
        build: String,
        /// Producer-assigned unique upload id.
        shard_id: u64,
        /// The raw `.dtrace` bytes.
        bytes: Vec<u8>,
    },
    /// Top-N miss types of one `(workload, build)` key.
    QueryTop {
        /// Workload tag.
        workload: String,
        /// Build tag.
        build: String,
        /// Maximum rows returned.
        top: u64,
    },
    /// Per-type deltas and a bottleneck verdict between two builds of a
    /// workload, worst regressions first.
    QueryRegressions {
        /// Workload tag.
        workload: String,
        /// Baseline build tag.
        from: String,
        /// Comparison build tag.
        to: String,
        /// Maximum delta rows returned.
        top: u64,
    },
    /// Wilson-confidence-gated regression alerts between two builds: a type
    /// alerts only when its merged miss-share confidence intervals separate.
    QueryAlerts {
        /// Workload tag.
        workload: String,
        /// Baseline build tag.
        from: String,
        /// Comparison build tag.
        to: String,
    },
    /// Every `(workload, build)` key the store holds.
    ListKeys,
    /// Server counters (keys, shards absorbed/resident, snapshots written).
    Stats,
    /// Force a snapshot of every dirty key to the on-disk store.
    Snapshot,
    /// Stop the server after acknowledging.
    Shutdown,
}

impl Request {
    /// Encodes the request as a `(frame kind, payload)` pair.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        match self {
            Request::PushShard {
                workload,
                build,
                shard_id,
                report_json,
            } => {
                put_string(&mut out, workload);
                put_string(&mut out, build);
                put_varint(&mut out, *shard_id);
                put_string(&mut out, report_json);
                (KIND_PUSH_SHARD, out)
            }
            Request::PushTrace {
                workload,
                build,
                shard_id,
                bytes,
            } => {
                put_string(&mut out, workload);
                put_string(&mut out, build);
                put_varint(&mut out, *shard_id);
                put_varint(&mut out, bytes.len() as u64);
                out.extend_from_slice(bytes);
                (KIND_PUSH_TRACE, out)
            }
            Request::QueryTop {
                workload,
                build,
                top,
            } => {
                put_string(&mut out, workload);
                put_string(&mut out, build);
                put_varint(&mut out, *top);
                (KIND_QUERY_TOP, out)
            }
            Request::QueryRegressions {
                workload,
                from,
                to,
                top,
            } => {
                put_string(&mut out, workload);
                put_string(&mut out, from);
                put_string(&mut out, to);
                put_varint(&mut out, *top);
                (KIND_QUERY_REGRESSIONS, out)
            }
            Request::QueryAlerts { workload, from, to } => {
                put_string(&mut out, workload);
                put_string(&mut out, from);
                put_string(&mut out, to);
                (KIND_QUERY_ALERTS, out)
            }
            Request::ListKeys => (KIND_LIST_KEYS, out),
            Request::Stats => (KIND_STATS, out),
            Request::Snapshot => (KIND_SNAPSHOT, out),
            Request::Shutdown => (KIND_SHUTDOWN, out),
        }
    }

    /// Decodes a request from a frame.  Trailing bytes are an error: a frame
    /// that parses but is longer than its fields means the peer and server
    /// disagree about the protocol, which should fail loudly.
    pub fn decode(kind: u8, payload: Vec<u8>) -> Result<Request, String> {
        let mut pos = 0usize;
        let trailing = |bytes: usize| format!("malformed request frame: {bytes} trailing bytes");
        let string = |pos: &mut usize| {
            get_string(&payload, pos).map_err(|e| format!("malformed request frame: {e}"))
        };
        let request = match kind {
            KIND_PUSH_SHARD => {
                let workload = string(&mut pos)?;
                let build = string(&mut pos)?;
                let shard_id = varint(&payload, &mut pos)?;
                let len = varint(&payload, &mut pos)?;
                let rest = (payload.len() - pos) as u64;
                if rest < len {
                    return Err(format!(
                        "malformed request frame: {}",
                        TraceError::UnexpectedEof
                    ));
                }
                // The report is the rest of the frame: keep the buffer as its text, drop
                // its head (and, once the text is known to be UTF-8, any tail).
                let mut text = payload;
                text.truncate(pos + len as usize);
                text.drain(..pos);
                let report_json = String::from_utf8(text).map_err(|_| {
                    let e = TraceError::Corrupt("string is not valid UTF-8".into());
                    format!("malformed request frame: {e}")
                })?;
                if rest > len {
                    return Err(trailing((rest - len) as usize));
                }
                return Ok(Request::PushShard {
                    workload,
                    build,
                    shard_id,
                    report_json,
                });
            }
            KIND_PUSH_TRACE => {
                let workload = string(&mut pos)?;
                let build = string(&mut pos)?;
                let shard_id = varint(&payload, &mut pos)?;
                let len = varint(&payload, &mut pos)?;
                let rest = (payload.len() - pos) as u64;
                if rest < len {
                    return Err("malformed request frame: trace upload truncated".into());
                }
                if rest > len {
                    return Err(trailing((rest - len) as usize));
                }
                // The upload is the rest of the frame: keep the buffer, drop its head.
                let mut bytes = payload;
                bytes.drain(..pos);
                return Ok(Request::PushTrace {
                    workload,
                    build,
                    shard_id,
                    bytes,
                });
            }
            KIND_QUERY_TOP => Request::QueryTop {
                workload: string(&mut pos)?,
                build: string(&mut pos)?,
                top: varint(&payload, &mut pos)?,
            },
            KIND_QUERY_REGRESSIONS => Request::QueryRegressions {
                workload: string(&mut pos)?,
                from: string(&mut pos)?,
                to: string(&mut pos)?,
                top: varint(&payload, &mut pos)?,
            },
            KIND_QUERY_ALERTS => Request::QueryAlerts {
                workload: string(&mut pos)?,
                from: string(&mut pos)?,
                to: string(&mut pos)?,
            },
            KIND_LIST_KEYS => Request::ListKeys,
            KIND_STATS => Request::Stats,
            KIND_SNAPSHOT => Request::Snapshot,
            KIND_SHUTDOWN => Request::Shutdown,
            other => return Err(format!("unknown request kind 0x{other:02x}")),
        };
        if pos != payload.len() {
            return Err(trailing(payload.len() - pos));
        }
        Ok(request)
    }
}

fn varint(payload: &[u8], pos: &mut usize) -> Result<u64, String> {
    get_varint(payload, pos).map_err(|e| format!("malformed request frame: {e}"))
}

/// A server response: a `dprof-serve/v1` JSON document or an error string.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success; the payload is a JSON document.
    Ok(String),
    /// Failure; the payload is a one-line message (no `error:` prefix — the
    /// client adds its own convention).
    Err(String),
}

impl Response {
    /// Encodes the response as a `(frame kind, payload)` pair; the payload is the
    /// response's own text, not a copy (the frame it goes out in is the one copy).
    pub fn encode(self) -> (u8, Vec<u8>) {
        match self {
            Response::Ok(json) => (KIND_OK, json.into_bytes()),
            Response::Err(message) => (KIND_ERR, message.into_bytes()),
        }
    }

    /// Decodes a response from a frame.
    pub fn decode(kind: u8, payload: Vec<u8>) -> Result<Response, String> {
        let text = String::from_utf8(payload)
            .map_err(|_| "malformed response frame: not UTF-8".to_string())?;
        match kind {
            KIND_OK => Ok(Response::Ok(text)),
            KIND_ERR => Ok(Response::Err(text)),
            other => Err(format!("unknown response kind 0x{other:02x}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::PushShard {
                workload: "memcached".into(),
                build: "v1".into(),
                shard_id: 7,
                report_json: "{}".into(),
            },
            Request::PushTrace {
                workload: "ring".into(),
                build: "v2".into(),
                shard_id: 9,
                bytes: vec![1, 2, 3],
            },
            Request::QueryTop {
                workload: "w".into(),
                build: "b".into(),
                top: 8,
            },
            Request::QueryRegressions {
                workload: "w".into(),
                from: "a".into(),
                to: "b".into(),
                top: 5,
            },
            Request::QueryAlerts {
                workload: "w".into(),
                from: "a".into(),
                to: "b".into(),
            },
            Request::ListKeys,
            Request::Stats,
            Request::Snapshot,
            Request::Shutdown,
        ];
        for request in requests {
            let (kind, payload) = request.encode();
            assert_eq!(Request::decode(kind, payload).unwrap(), request);
        }
    }

    #[test]
    fn a_pushed_report_is_refused_as_the_string_reader_refuses_it() {
        // The report is kept in the frame's buffer rather than read by `get_string`,
        // with the same messages for a cut, a non-UTF-8 and an overlong one.
        let (kind, payload) = Request::PushShard {
            workload: "w".into(),
            build: "b".into(),
            shard_id: 1,
            report_json: "{}".into(),
        }
        .encode();
        let field = |bytes: &[u8]| {
            let mut encoded = Vec::new();
            put_varint(&mut encoded, 2);
            encoded.extend_from_slice(bytes);
            let e = get_string(&encoded, &mut 0).unwrap_err();
            format!("malformed request frame: {e}")
        };
        let cut = Request::decode(kind, payload[..payload.len() - 1].to_vec());
        assert_eq!(cut.unwrap_err(), field(b"{"));
        let mut invalid = payload.clone();
        *invalid.last_mut().unwrap() = 0xff;
        assert_eq!(Request::decode(kind, invalid).unwrap_err(), field(b"{\xff"));
        let mut long = payload;
        long.push(b' ');
        assert_eq!(
            Request::decode(kind, long).unwrap_err(),
            "malformed request frame: 1 trailing bytes"
        );
    }

    #[test]
    fn trailing_bytes_and_torn_uploads_are_rejected() {
        let (kind, mut payload) = Request::ListKeys.encode();
        payload.push(0);
        assert!(Request::decode(kind, payload)
            .unwrap_err()
            .contains("trailing"));

        let (kind, payload) = Request::PushTrace {
            workload: "w".into(),
            build: "b".into(),
            shard_id: 1,
            bytes: vec![0; 100],
        }
        .encode();
        // Cut the upload mid-body: the declared length no longer fits.
        let err = Request::decode(kind, payload[..payload.len() - 10].to_vec()).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // ... and one that runs past its declared length is trailing bytes.
        let mut long = payload;
        long.extend_from_slice(&[0; 3]);
        assert_eq!(
            Request::decode(kind, long).unwrap_err(),
            "malformed request frame: 3 trailing bytes"
        );
    }
}
