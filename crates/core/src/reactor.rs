//! The daemon instance of the generic readiness reactor
//! ([`nrslb_reactor`]).
//!
//! PR 7 built the loop/slab/state-machine engine here; it now lives in
//! the `nrslb-reactor` crate, generic over a per-connection
//! [`Service`], and this module is reduced to the daemon protocol's
//! instance of it: [`DaemonService`] maps [`crate::proto`]'s parser,
//! executor, and error encoders onto the engine's [`Frame`] vocabulary
//! (including the malformed-frame accounting, which belongs to the
//! protocol, not the engine).
//!
//! ## The fused inline cost guard
//!
//! [`Service::try_execute_inline`] is the daemon's answer to the
//! warm-path handoff gap (DESIGN.md §5g): a single-chain `OP_EVALUATE`
//! whose every certificate is already in the parsed-cert cache *and*
//! whose every GCC verdict is already in the verdict cache executes in
//! a few microseconds — cheaper than the two thread wake-ups of the
//! loop→worker→loop round trip it would otherwise ride. The guard and
//! the execution are one pass: the probe hashes each DER once
//! ([`ParsedCertCache::key_of`] + [`ParsedCertCache::peek_keyed`]) and
//! derives the chain content key once
//! ([`crate::validate::InProcessOracle::evaluate_warm`]), and on a
//! full cache hit those same keys *commit* the counting lookups the
//! worker path would perform — no byte is re-hashed. Any probe miss
//! returns `None` with zero observable effect (peeks count nothing and
//! move no recency), and the worker runs the request from scratch.
//! Replies, hit/miss counters, and request/error counts are identical
//! on both dispatch paths; only the latency histogram differs, because
//! inline requests genuinely are faster. Batch and metrics requests,
//! unparsed certificates, uncached verdicts, and chains longer than
//! [`INLINE_MAX_CHAIN`] all stay on the worker pool.

use crate::cache::ParsedCertCache;
use crate::daemon::ExecCtx;
use crate::proto::{self, Parsed};
use nrslb_reactor::{Frame, Service};

pub(crate) use nrslb_reactor::ReactorHandle;

/// Longest chain the inline probe will consider. A probe walks every
/// DER through the cert-cache peek (an FxHash plus a byte compare), so
/// its own cost scales with chain length; beyond a handful of
/// certificates the handoff is no longer the dominant term and the
/// worker path is fine.
const INLINE_MAX_CHAIN: usize = 8;

/// The trust-daemon protocol as a reactor [`Service`]: parsing and
/// malformed accounting from [`crate::proto`], execution through the
/// shared [`ExecCtx`] (oracle, caches, instruments).
pub(crate) struct DaemonService {
    ctx: ExecCtx,
}

impl DaemonService {
    pub(crate) fn new(ctx: ExecCtx) -> DaemonService {
        DaemonService { ctx }
    }
}

impl Service for DaemonService {
    type Request = proto::Request;

    fn parse(&self, buf: &[u8]) -> Frame<proto::Request> {
        match proto::try_parse(buf) {
            Parsed::Incomplete => Frame::Incomplete,
            Parsed::Frame(Ok(request), consumed) => Frame::Request { request, consumed },
            Parsed::Frame(Err(message), consumed) => {
                proto::count_malformed(&self.ctx.instruments);
                Frame::Reply {
                    reply: proto::encode_error_reply(&message),
                    consumed,
                }
            }
            Parsed::Fatal(message) => {
                proto::count_malformed(&self.ctx.instruments);
                Frame::Fatal {
                    reply: proto::encode_error_reply(&message),
                }
            }
        }
    }

    fn max_buffered(&self) -> usize {
        proto::MAX_BUFFERED
    }

    fn overflow_reply(&self) -> Vec<u8> {
        proto::count_malformed(&self.ctx.instruments);
        proto::encode_error_reply("frame exceeds buffer limit")
    }

    fn execute(&self, request: &proto::Request) -> Vec<u8> {
        proto::execute(
            request,
            &*self.ctx.oracle,
            &self.ctx.certs,
            &self.ctx.instruments,
        )
    }

    fn try_execute_inline(&self, request: &proto::Request) -> Option<Vec<u8>> {
        // Only single-chain evaluations: a batch amortizes its handoff
        // over many chains already, and metrics renders are rare and
        // allocation-heavy.
        let proto::Request::Evaluate { usage, ders } = request else {
            return None;
        };
        if ders.len() > INLINE_MAX_CHAIN {
            return None;
        }
        // Probe: hash each DER once, keeping the key for the commit.
        // Peeks count nothing, so bailing here leaves no trace.
        let mut chain = Vec::with_capacity(ders.len());
        let mut keys = Vec::with_capacity(ders.len());
        for der in ders {
            let key = ParsedCertCache::key_of(der);
            let cert = self.ctx.certs.peek_keyed(key, der)?; // unparsed DER: worker
            chain.push(cert);
            keys.push(key);
        }
        let verdicts = self.ctx.oracle.evaluate_warm(&chain, *usage)?;
        // Committed: evaluate_warm counted its verdict hits. Produce
        // the rest of the accounting a worker-path execution would.
        let instruments = &self.ctx.instruments;
        instruments.requests.inc();
        let span = instruments.span();
        for (key, der) in keys.iter().zip(ders) {
            // The counting cert-cache hits parse_chain would record; a
            // racing eviction makes this a real parse, as on a worker.
            let _ = self.ctx.certs.parse_keyed(*key, der);
        }
        let reply = match verdicts {
            Ok(v) => proto::encode_verdicts_reply(&v),
            Err(e) => {
                instruments.request_errors.inc();
                proto::encode_error_reply(&e.to_string())
            }
        };
        drop(span);
        Some(reply)
    }
}
