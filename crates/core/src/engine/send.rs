//! The send choke point: every engine message leaves through
//! [`AxmlSystem::send_wire`], and this module is the only reader of the
//! system's [`RetryPolicy`].

use super::pump::{EvalSession, Intent, Wire};
use crate::error::{CoreResult, EngineError};
use crate::message::AxmlMessage;
use crate::retry::RetryPolicy;
use crate::system::AxmlSystem;
use axml_net::{NetError, Payload};
use axml_obs::TraceEvent;
use axml_prng::SplitMix64;
use axml_xml::ids::PeerId;

/// Salt separating the retry-jitter PRNG stream from the session
/// tie-breaking stream and the network fault stream.
const RETRY_STREAM_SALT: u64 = 0xBACC_0FF5_1077_E55A;

impl AxmlSystem {
    /// Set the engine's [`RetryPolicy`] for failed send attempts. The
    /// default is [`RetryPolicy::none`]: the first transient failure
    /// surfaces immediately as a typed error, the engine's historical
    /// behavior.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Send a message with what its receiver needs beside it. Local sends
    /// are free (matching `NetStats` semantics): the receiver reads the
    /// message now.
    ///
    /// Cross-peer sends go through the retry loop: each failed attempt
    /// with a *transient* [`NetError`] (injected drop, outage window,
    /// crashed peer) charges the policy's timeout plus a deterministic
    /// jittered backoff on the simulated clock and tries again, until
    /// the [`RetryPolicy`] budget runs out. With the default
    /// `RetryPolicy::none()` a down link still surfaces as the
    /// historical `EngineError::Undeliverable`.
    pub(crate) fn send_wire(
        &mut self,
        s: &mut EvalSession,
        from: PeerId,
        to: PeerId,
        msg: AxmlMessage,
        intent: Intent,
    ) -> CoreResult<()> {
        self.check_peer(from)?;
        self.check_peer(to)?;
        if from == to {
            return self.receive(s, from, to, msg, intent);
        }
        let kind = msg.kind();
        let charged = self.net.link(from, to).charged_bytes_u64(msg.wire_size());
        let mut wire = Wire { msg, intent };
        let mut attempt: u32 = 0;
        let (sent, at) = loop {
            let sent = self.net.now_ms();
            match self.net.send_attempt(from, to, wire) {
                Ok(at) => break (sent, at),
                Err((e, w)) => {
                    wire = w;
                    let dropped = matches!(e, NetError::Dropped(..));
                    let transient =
                        dropped || matches!(e, NetError::LinkDown(..) | NetError::PeerDown(..));
                    if !transient {
                        return Err(e.into());
                    }
                    if dropped {
                        // A drop consumed the attempt on the wire; both
                        // layers must agree it happened (reconciliation).
                        self.obs.record(TraceEvent::MessageDropped {
                            from,
                            to,
                            kind,
                            bytes: charged,
                            at_ms: sent,
                        });
                    }
                    if attempt >= self.retry.max_retries {
                        if attempt == 0 && !dropped {
                            // No-retry config, structurally dead link:
                            // keep the historical typed error.
                            return Err(EngineError::Undeliverable { from, to, kind }.into());
                        }
                        return Err(EngineError::Exhausted {
                            from,
                            to,
                            kind,
                            attempts: attempt + 1,
                        }
                        .into());
                    }
                    let backoff_ms = self.retry_backoff_ms(from, to, attempt);
                    attempt += 1;
                    self.obs.record(TraceEvent::RetryScheduled {
                        from,
                        to,
                        kind,
                        attempt,
                        backoff_ms,
                        at_ms: sent,
                    });
                    self.net.advance(self.retry.timeout_ms + backoff_ms);
                }
            }
        };
        self.obs.record(TraceEvent::MessageSent {
            from,
            to,
            kind,
            bytes: charged,
            sent_ms: sent,
            at_ms: at,
        });
        Ok(())
    }

    /// The jittered backoff before 0-based retry `attempt` on the
    /// `from → to` link. The jitter stream is derived from the engine
    /// seed, the link, and the global retry counter — never from the
    /// session PRNG — so it is reproducible from the seed.
    fn retry_backoff_ms(&self, from: PeerId, to: PeerId, attempt: u32) -> f64 {
        let base = self.retry.backoff_ms(attempt);
        if self.retry.jitter <= 0.0 || base <= 0.0 {
            return base;
        }
        let link = ((from.0 as u64) << 32) | to.0 as u64;
        let mut rng = SplitMix64::new(
            self.engine_seed
                ^ RETRY_STREAM_SALT
                ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ self.obs.metrics.retries.wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        base * (1.0 + self.retry.jitter * rng.next_f64())
    }
}
