//! Definition (9): resolving `d@any` / `s@any` — one rule, one module.
//!
//! This is the only place that reads the system's [`PickPolicy`] and
//! failover switch or calls [`crate::pick::Catalog::pick`]. Documents and
//! services share one resolve-with-failover loop,
//! [`AxmlSystem::resolve_any`]; continuous activation takes its single
//! blind pick through [`AxmlSystem::pick_any`].

use super::pump::EvalSession;
use crate::error::{CoreError, CoreResult, EngineError};
use crate::pick::{ClassName, PickPolicy};
use crate::system::AxmlSystem;
use axml_obs::TraceEvent;
use axml_xml::ids::PeerId;

impl AxmlSystem {
    /// Enable or disable replica failover for generic (`@any`)
    /// references: when a picked replica turns out to be unreachable
    /// (even after retries), `pickDoc`/`pickService` re-resolve to the
    /// next live replica instead of failing the evaluation. Off by
    /// default.
    pub fn set_failover(&mut self, enabled: bool) {
        self.failover = enabled;
    }

    /// Set the `pickDoc`/`pickService` policy (definition (9)).
    pub fn set_pick_policy(&mut self, policy: PickPolicy) {
        self.pick_policy = policy;
    }

    /// The current pick policy.
    pub fn pick_policy(&self) -> PickPolicy {
        self.pick_policy
    }

    /// `pickDoc` / `pickService` at `at` under the configured policy,
    /// skipping the `excluded` members (see [`crate::pick::Catalog::pick`]).
    pub(crate) fn pick_any<N: ClassName>(
        &mut self,
        at: PeerId,
        class: &N,
        excluded: &[PeerId],
    ) -> CoreResult<(PeerId, N)> {
        self.catalog
            .pick(self.pick_policy, at, class, &self.net, excluded)
    }

    /// Definition (9) with optional replica failover: pick a member of
    /// `class`, let `attempt` reach it, and — when failover is enabled —
    /// on an unreachable provider (down link even after retries, retry
    /// budget exhausted) exclude it and re-pick among the remaining
    /// *live* members. With failover disabled this is the plain
    /// single-pick behavior.
    pub(super) fn resolve_any<N: ClassName>(
        &mut self,
        s: &mut EvalSession,
        at: PeerId,
        class: &N,
        mut attempt: impl FnMut(&mut Self, &mut EvalSession, PeerId, N) -> CoreResult<()>,
    ) -> CoreResult<()> {
        let mut excluded: Vec<PeerId> = Vec::new();
        let mut last_err: Option<CoreError> = None;
        loop {
            self.record_def(9, at, N::PICK);
            // The first pick is blind (a peer only discovers a dead
            // replica by timing out on it); re-picks after a failover
            // exclude the dead and filter to currently-live members.
            let (member, concrete) = match self.pick_any(at, class, &excluded) {
                Ok(pick) => pick,
                // Every replica excluded or dead: surface why we got
                // here, not the bare empty-class error.
                Err(e) => return Err(last_err.unwrap_or(e)),
            };
            match attempt(self, s, member, concrete) {
                Err(e) if self.failover && unreachable_provider(&e) => {
                    excluded.push(member);
                    let now = self.net.now_ms();
                    self.obs.record(TraceEvent::Failover {
                        peer: at,
                        class: class.shared(),
                        dead: member,
                        at_ms: now,
                    });
                    last_err = Some(e);
                }
                done => return done,
            }
        }
    }
}

/// Does this error mean "the picked provider cannot be reached" — the
/// condition replica failover reacts to? Structural errors (unknown
/// peer, missing doc, malformed expression) must *not* trigger a
/// re-pick: a different replica would fail the same way or mask a bug.
fn unreachable_provider(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::Engine(EngineError::Undeliverable { .. } | EngineError::Exhausted { .. })
    )
}
