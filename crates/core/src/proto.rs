//! The trust-daemon wire protocol, factored out of the serving engine.
//!
//! The daemon's readiness reactor ([`crate::reactor`]) speaks exactly
//! this module: a *buffer-based* parser ([`try_parse`]) that never
//! consumes bytes until a complete frame is delimited, an executor
//! ([`execute`]) that turns a parsed request into response bytes, and
//! the response encoders. The checked-in golden transcript
//! (`tests/daemon_transcript.rs`) pins the bytes they produce.
//!
//! ## Malformed frames and keep-alive
//!
//! The parser distinguishes three outcomes:
//!
//! * [`Parsed::Incomplete`] — the buffer does not yet hold a whole
//!   frame; read more.
//! * [`Parsed::Frame`] with `Err(msg)` — the frame was fully
//!   *delimited* (every length field was sane, all bytes consumed) but
//!   semantically invalid, e.g. a bad usage byte. The engine answers
//!   with a structured error frame and **keeps the connection open**:
//!   the stream is still in sync because the bad frame was consumed
//!   whole. (The pre-reactor engine desynchronized here — it replied
//!   mid-frame and then misparsed the leftover body bytes as the next
//!   opcode.)
//! * [`Parsed::Fatal`] — the frame cannot be delimited at all (unknown
//!   opcode, a length field past its limit). The engine answers with an
//!   error frame and closes, since resynchronizing is impossible.
//!
//! Certificate DER that parses as a frame but not as a certificate is a
//! *execution*-time error: the frame is consumed, the reply is a
//! structured error, the connection survives.

use crate::cache::ParsedCertCache;
use crate::gcc_eval::GccVerdict;
use crate::validate::GccOracle;
use nrslb_crypto::sha256::{Digest, Sha256};
use nrslb_rootstore::Usage;
use nrslb_x509::Certificate;

pub(crate) const OP_EVALUATE: u8 = 1;
pub(crate) const OP_METRICS: u8 = 2;
pub(crate) const OP_EVALUATE_BATCH: u8 = 3;
pub(crate) const STATUS_OK: u8 = 0;
pub(crate) const STATUS_ERR: u8 = 1;
/// Upper bound on any length field, to bound allocations from hostile
/// peers (a trust daemon is security-critical infrastructure).
pub(crate) const MAX_LEN: u32 = 16 * 1024 * 1024;
/// Upper bound on chains per `OP_EVALUATE_BATCH` request.
pub(crate) const MAX_BATCH: u32 = 256;
/// Upper bound on certificates per chain.
pub(crate) const MAX_CHAIN: u32 = 64;
/// Upper bound on a connection's accumulated unparsed bytes. A peer
/// that streams this much without completing a frame is either hostile
/// or broken; the engine replies fatally and closes.
pub(crate) const MAX_BUFFERED: usize = 64 * 1024 * 1024;

pub(crate) fn usage_to_byte(usage: Usage) -> u8 {
    match usage {
        Usage::Tls => 0,
        Usage::SMime => 1,
    }
}

pub(crate) fn usage_from_byte(b: u8) -> Option<Usage> {
    match b {
        0 => Some(Usage::Tls),
        1 => Some(Usage::SMime),
        _ => None,
    }
}

/// One decoded request frame. Certificate bytes stay raw DER here; the
/// parse into [`Certificate`] handles (and its cache) happens at
/// execution time, off the event loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Request {
    /// `OP_EVALUATE`: one chain, one usage.
    Evaluate { usage: Usage, ders: Vec<Vec<u8>> },
    /// `OP_EVALUATE_BATCH`: many chains in one frame.
    EvaluateBatch { items: Vec<(Usage, Vec<Vec<u8>>)> },
    /// `OP_METRICS`: render the registry.
    Metrics,
}

/// Outcome of attempting to delimit one frame at the head of a buffer.
#[derive(Debug)]
pub(crate) enum Parsed {
    /// No complete frame yet; accumulate more bytes.
    Incomplete,
    /// A fully delimited frame (`.1` = bytes consumed). `Err` carries a
    /// semantic decode failure to answer with `STATUS_ERR`; the
    /// connection stays usable.
    Frame(Result<Request, String>, usize),
    /// The stream cannot be resynchronized; answer and close.
    Fatal(String),
}

/// Byte cursor that returns `None` at end-of-buffer (= incomplete).
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let bytes = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(bytes)
    }
}

/// Intermediate result while delimiting a sub-structure.
enum Step<T> {
    Incomplete,
    Fatal(String),
    Done(T),
}

/// A delimited `evaluate` body: the usage and raw DER blocks, or the
/// recoverable-error message a drained-but-invalid body carries.
type EvaluateBody = Result<(Usage, Vec<Vec<u8>>), String>;

/// Delimit one `evaluate` body (usage byte, cert count, DER blocks).
/// A bad usage byte is *recoverable*: the rest of the body is still
/// length-delimited, so it is drained and the error carried outward.
fn parse_evaluate_body(c: &mut Cursor<'_>) -> Step<EvaluateBody> {
    let Some(usage_byte) = c.u8() else {
        return Step::Incomplete;
    };
    let usage = usage_from_byte(usage_byte);
    let Some(n) = c.u32() else {
        return Step::Incomplete;
    };
    if n > MAX_CHAIN {
        // The claimed length is untrustworthy; draining it would let a
        // hostile peer demand unbounded buffering. Unrecoverable.
        return Step::Fatal("chain too long".to_string());
    }
    let mut ders = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let Some(len) = c.u32() else {
            return Step::Incomplete;
        };
        if len > MAX_LEN {
            return Step::Fatal("length field exceeds limit".to_string());
        }
        let Some(der) = c.take(len as usize) else {
            return Step::Incomplete;
        };
        ders.push(der.to_vec());
    }
    Step::Done(match usage {
        Some(usage) => Ok((usage, ders)),
        None => Err("bad usage byte".to_string()),
    })
}

/// Try to delimit one frame at the head of `buf`.
pub(crate) fn try_parse(buf: &[u8]) -> Parsed {
    let mut c = Cursor { buf, pos: 0 };
    let Some(opcode) = c.u8() else {
        return Parsed::Incomplete;
    };
    match opcode {
        OP_METRICS => Parsed::Frame(Ok(Request::Metrics), c.pos),
        OP_EVALUATE => match parse_evaluate_body(&mut c) {
            Step::Incomplete => Parsed::Incomplete,
            Step::Fatal(msg) => Parsed::Fatal(msg),
            Step::Done(body) => Parsed::Frame(
                body.map(|(usage, ders)| Request::Evaluate { usage, ders }),
                c.pos,
            ),
        },
        OP_EVALUATE_BATCH => {
            let Some(n) = c.u32() else {
                return Parsed::Incomplete;
            };
            if n > MAX_BATCH {
                return Parsed::Fatal("batch too large".to_string());
            }
            let mut items = Vec::with_capacity(n as usize);
            let mut first_err: Option<String> = None;
            for _ in 0..n {
                match parse_evaluate_body(&mut c) {
                    Step::Incomplete => return Parsed::Incomplete,
                    Step::Fatal(msg) => return Parsed::Fatal(msg),
                    Step::Done(Ok(item)) => items.push(item),
                    // Keep delimiting the remaining items so the whole
                    // frame is consumed before the error reply.
                    Step::Done(Err(msg)) => first_err = first_err.or(Some(msg)),
                }
            }
            Parsed::Frame(
                match first_err {
                    None => Ok(Request::EvaluateBatch { items }),
                    Some(msg) => Err(msg),
                },
                c.pos,
            )
        }
        other => Parsed::Fatal(format!("unknown opcode {other}")),
    }
}

// ---------------------------------------------------------------------
// Response encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_verdict_list(out: &mut Vec<u8>, verdicts: &[GccVerdict]) {
    put_u32(out, verdicts.len() as u32);
    for v in verdicts {
        out.push(u8::from(v.accepted));
        put_u32(out, v.gcc_name.len() as u32);
        out.extend_from_slice(v.gcc_name.as_bytes());
    }
}

pub(crate) fn encode_verdicts_reply(verdicts: &[GccVerdict]) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_verdict_list(&mut out, verdicts);
    out
}

pub(crate) fn encode_batch_reply(batches: &[Vec<GccVerdict>]) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_u32(&mut out, batches.len() as u32);
    for verdicts in batches {
        put_verdict_list(&mut out, verdicts);
    }
    out
}

pub(crate) fn encode_text_reply(text: &str) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_u32(&mut out, text.len() as u32);
    out.extend_from_slice(text.as_bytes());
    out
}

pub(crate) fn encode_error_reply(message: &str) -> Vec<u8> {
    let mut out = vec![STATUS_ERR];
    put_u32(&mut out, message.len() as u32);
    out.extend_from_slice(message.as_bytes());
    out
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Content identity of one batch item: the usage byte plus a digest of
/// the chain's certificate fingerprints in order. Two items with equal
/// keys are the same evaluation by construction, so the batch handler
/// evaluates the first and clones its verdicts for the rest.
fn batch_item_key(usage: Usage, chain: &[Certificate]) -> (u8, Digest) {
    let mut h = Sha256::new();
    for cert in chain {
        h.update(cert.fingerprint().0);
    }
    (usage_to_byte(usage), h.finalize())
}

fn parse_chain(ders: &[Vec<u8>], certs: &ParsedCertCache) -> Result<Vec<Certificate>, String> {
    let mut chain = Vec::with_capacity(ders.len());
    for der in ders {
        chain.push(certs.parse(der).map_err(|e| e.to_string())?);
    }
    Ok(chain)
}

/// Execute one parsed request against the shared oracle and encode its
/// reply. Counts the request, times it into the latency histogram, and
/// counts error replies — the same accounting on the worker and
/// inline paths.
pub(crate) fn execute(
    request: &Request,
    oracle: &dyn GccOracle,
    certs: &ParsedCertCache,
    instruments: &crate::daemon::DaemonInstruments,
) -> Vec<u8> {
    instruments.requests.inc();
    let span = instruments.span();
    let reply = run(request, oracle, certs, instruments);
    drop(span);
    match reply {
        Ok(bytes) => bytes,
        Err(message) => {
            instruments.request_errors.inc();
            encode_error_reply(&message)
        }
    }
}

/// Account for a frame that failed to decode (the reactor service
/// answers it with [`encode_error_reply`] itself).
pub(crate) fn count_malformed(instruments: &crate::daemon::DaemonInstruments) {
    instruments.requests.inc();
    instruments.request_errors.inc();
}

fn run(
    request: &Request,
    oracle: &dyn GccOracle,
    certs: &ParsedCertCache,
    instruments: &crate::daemon::DaemonInstruments,
) -> Result<Vec<u8>, String> {
    match request {
        Request::Metrics => Ok(encode_text_reply(&instruments.registry.render_text())),
        Request::Evaluate { usage, ders } => {
            let chain = parse_chain(ders, certs)?;
            let verdicts = oracle.evaluate(&chain, *usage).map_err(|e| e.to_string())?;
            Ok(encode_verdicts_reply(&verdicts))
        }
        Request::EvaluateBatch { items } => {
            let mut chains = Vec::with_capacity(items.len());
            for (usage, ders) in items {
                chains.push((*usage, parse_chain(ders, certs)?));
            }
            instruments.batch_size.observe(chains.len() as u64);
            // Page loads repeat chains (every subresource re-validates
            // the same server chain), so dedup by content identity:
            // evaluate each distinct (usage, chain) once and clone the
            // verdicts — a refcount bump per name — for the repeats.
            let mut first_at: std::collections::HashMap<(u8, Digest), usize> =
                std::collections::HashMap::with_capacity(chains.len());
            let mut batches: Vec<Vec<GccVerdict>> = Vec::with_capacity(chains.len());
            for (i, (usage, chain)) in chains.iter().enumerate() {
                match first_at.entry(batch_item_key(*usage, chain)) {
                    std::collections::hash_map::Entry::Occupied(seen) => {
                        batches.push(batches[*seen.get()].clone());
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(i);
                        batches.push(oracle.evaluate(chain, *usage).map_err(|e| e.to_string())?);
                    }
                }
            }
            Ok(encode_batch_reply(&batches))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evaluate_frame(usage_byte: u8, ders: &[&[u8]]) -> Vec<u8> {
        let mut f = vec![OP_EVALUATE, usage_byte];
        put_u32(&mut f, ders.len() as u32);
        for d in ders {
            put_u32(&mut f, d.len() as u32);
            f.extend_from_slice(d);
        }
        f
    }

    #[test]
    fn incomplete_prefixes_never_consume() {
        let frame = evaluate_frame(0, &[b"abc", b"defg"]);
        for cut in 0..frame.len() {
            assert!(
                matches!(try_parse(&frame[..cut]), Parsed::Incomplete),
                "prefix of {cut} bytes"
            );
        }
        match try_parse(&frame) {
            Parsed::Frame(Ok(Request::Evaluate { usage, ders }), consumed) => {
                assert_eq!(usage, Usage::Tls);
                assert_eq!(ders, vec![b"abc".to_vec(), b"defg".to_vec()]);
                assert_eq!(consumed, frame.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_usage_byte_is_recoverable_and_fully_consumed() {
        let frame = evaluate_frame(9, &[b"abc"]);
        match try_parse(&frame) {
            Parsed::Frame(Err(msg), consumed) => {
                assert_eq!(msg, "bad usage byte");
                assert_eq!(consumed, frame.len(), "bad frame must be drained whole");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pipelined_frames_parse_one_at_a_time() {
        let mut buf = evaluate_frame(0, &[b"x"]);
        let second = evaluate_frame(1, &[b"y"]);
        buf.extend_from_slice(&second);
        let Parsed::Frame(Ok(_), consumed) = try_parse(&buf) else {
            panic!("first frame");
        };
        let Parsed::Frame(Ok(Request::Evaluate { usage, .. }), consumed2) =
            try_parse(&buf[consumed..])
        else {
            panic!("second frame");
        };
        assert_eq!(usage, Usage::SMime);
        assert_eq!(consumed + consumed2, buf.len());
    }

    #[test]
    fn undelimitable_frames_are_fatal() {
        // Unknown opcode.
        assert!(matches!(try_parse(&[77]), Parsed::Fatal(_)));
        // Chain length past the cap.
        let mut f = vec![OP_EVALUATE, 0];
        put_u32(&mut f, MAX_CHAIN + 1);
        assert!(matches!(try_parse(&f), Parsed::Fatal(_)));
        // DER length field past the cap.
        let mut f = vec![OP_EVALUATE, 0];
        put_u32(&mut f, 1);
        put_u32(&mut f, MAX_LEN + 1);
        assert!(matches!(try_parse(&f), Parsed::Fatal(_)));
        // Batch count past the cap.
        let mut f = vec![OP_EVALUATE_BATCH];
        put_u32(&mut f, MAX_BATCH + 1);
        assert!(matches!(try_parse(&f), Parsed::Fatal(_)));
    }

    #[test]
    fn batch_with_one_bad_item_is_recoverable_whole() {
        let mut f = vec![OP_EVALUATE_BATCH];
        put_u32(&mut f, 2);
        f.extend_from_slice(&evaluate_frame(0, &[b"ok"])[1..]);
        f.extend_from_slice(&evaluate_frame(5, &[b"bad"])[1..]);
        match try_parse(&f) {
            Parsed::Frame(Err(msg), consumed) => {
                assert_eq!(msg, "bad usage byte");
                assert_eq!(consumed, f.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn metrics_frame_is_one_byte() {
        match try_parse(&[OP_METRICS, 0xEE]) {
            Parsed::Frame(Ok(Request::Metrics), 1) => {}
            other => panic!("{other:?}"),
        }
    }
}
