//! Fluent construction of [`AxmlSystem`]s.
//!
//! The builder replaces the imperative setup dance (`add_peer`,
//! `net_mut().set_link`, `install_doc`, …, each with its own `unwrap`)
//! with one declarative chain that defers every fallible step to
//! [`SystemBuilder::build`]:
//!
//! ```
//! use axml_core::prelude::*;
//!
//! let mut sys = AxmlSystem::builder()
//!     .peers(["client", "server"])
//!     .link("client", "server", LinkCost::wan())
//!     .doc("server", "catalog", r#"<catalog><pkg name="vim"/></catalog>"#)
//!     .service("server", "names", r#"doc("catalog")//pkg/@name"#)
//!     .build()
//!     .unwrap();
//! let client = sys.peer_id("client").unwrap();
//! let out = sys.eval(client, &Expr::Sc {
//!     provider: PeerRef::At(sys.peer_id("server").unwrap()),
//!     service: "names".into(),
//!     params: vec![],
//!     forward: vec![],
//! }).unwrap();
//! assert_eq!(out.len(), 1);
//! ```
//!
//! Peers are referred to **by name or by id** everywhere ([`PeerSel`]):
//! `"server"` and `PeerId(1)` are interchangeable. Documents accept
//! either a parsed [`Tree`] or an XML source string ([`DocSource`]).
//! The first error encountered anywhere in the chain is remembered and
//! returned by `build()`; later steps are skipped, so a chain never
//! panics halfway through.

use crate::error::{CoreError, CoreResult};
use crate::pick::PickPolicy;
use crate::retry::RetryPolicy;
use crate::system::AxmlSystem;
use axml_net::link::{LinkCost, Topology};
use axml_net::transport::Transport;
use axml_net::{FaultPlan, SimTransport};
use axml_obs::TraceSink;
use axml_xml::ids::{DocName, PeerId, ServiceName};
use axml_xml::tree::Tree;

/// A peer reference in builder position: an explicit id, or the name
/// given to [`SystemBuilder::peer`] / assigned by a topology (`"p0"`…).
#[derive(Debug, Clone)]
pub enum PeerSel {
    /// By id.
    Id(PeerId),
    /// By declared name.
    Name(String),
}

impl From<PeerId> for PeerSel {
    fn from(p: PeerId) -> Self {
        PeerSel::Id(p)
    }
}

impl From<&str> for PeerSel {
    fn from(name: &str) -> Self {
        PeerSel::Name(name.to_string())
    }
}

impl From<String> for PeerSel {
    fn from(name: String) -> Self {
        PeerSel::Name(name)
    }
}

/// Document content in builder position: a parsed tree or XML source.
#[derive(Debug, Clone)]
pub enum DocSource {
    /// An already-built tree.
    Tree(Tree),
    /// XML source, parsed at build time.
    Xml(String),
}

impl From<Tree> for DocSource {
    fn from(t: Tree) -> Self {
        DocSource::Tree(t)
    }
}

impl From<&str> for DocSource {
    fn from(xml: &str) -> Self {
        DocSource::Xml(xml.to_string())
    }
}

impl From<String> for DocSource {
    fn from(xml: String) -> Self {
        DocSource::Xml(xml)
    }
}

impl DocSource {
    fn into_tree(self) -> CoreResult<Tree> {
        match self {
            DocSource::Tree(t) => Ok(t),
            DocSource::Xml(src) => Tree::parse(&src).map_err(CoreError::Xml),
        }
    }
}

/// Fluent builder for [`AxmlSystem`] — see the module docs for a tour.
pub struct SystemBuilder {
    sys: AxmlSystem,
    err: Option<CoreError>,
}

impl AxmlSystem {
    /// Start a fluent system definition.
    pub fn builder() -> SystemBuilder {
        SystemBuilder {
            sys: AxmlSystem::new(),
            err: None,
        }
    }

    /// Look up a peer id by the name it was registered under.
    pub fn peer_id(&self, name: &str) -> Option<PeerId> {
        (0..self.net.peer_count())
            .map(|i| PeerId(i as u32))
            .find(|p| self.net.peer_name(*p) == Ok(name))
    }
}

impl SystemBuilder {
    fn resolve(&mut self, sel: PeerSel) -> Option<PeerId> {
        let found = match &sel {
            PeerSel::Id(p) => {
                if p.index() < self.sys.peer_count() {
                    Some(*p)
                } else {
                    None
                }
            }
            PeerSel::Name(name) => self.sys.peer_id(name),
        };
        if found.is_none() && self.err.is_none() {
            self.err = Some(match sel {
                PeerSel::Id(p) => CoreError::UnknownPeer(p),
                PeerSel::Name(name) => {
                    CoreError::Malformed(format!("builder: no peer named `{name}`"))
                }
            });
        }
        found
    }

    /// Run `f` unless an earlier step already failed; remember its error.
    fn step(mut self, f: impl FnOnce(&mut AxmlSystem) -> CoreResult<()>) -> Self {
        if self.err.is_none() {
            if let Err(e) = f(&mut self.sys) {
                self.err = Some(e);
            }
        }
        self
    }

    /// Attach a [`Transport`] wire (e.g. a socket-backed one) under the
    /// network. Must come first — the wire has to see every peer
    /// connect, and a scheduler choice or fault plan made so far is reset.
    pub fn transport(mut self, wire: Box<dyn Transport<crate::engine::Wire> + Send>) -> Self {
        if self.sys.peer_count() > 0 {
            if self.err.is_none() {
                self.err = Some(CoreError::Malformed(
                    "builder: transport() must precede peer declarations".into(),
                ));
            }
            return self;
        }
        self.sys.net = SimTransport::over(wire);
        self
    }

    /// Lay down a whole standard topology at once (peers named `p0`…
    /// `pN-1`). Must come first — ids
    /// are assigned assuming an empty peer set.
    pub fn topology(mut self, t: &Topology) -> Self {
        if self.sys.peer_count() > 0 && self.err.is_none() {
            self.err = Some(CoreError::Malformed(
                "builder: topology() must precede peer declarations".into(),
            ));
            return self;
        }
        if self.err.is_none() {
            self.sys.net.install_topology(t);
            for _ in 0..t.peer_count() {
                self.sys.peers.push(crate::peer::PeerState::new());
            }
        }
        self
    }

    /// Declare one peer. Ids are assigned in declaration order.
    pub fn peer(mut self, name: impl Into<String>) -> Self {
        self.sys.add_peer(name);
        self
    }

    /// Declare several peers at once.
    pub fn peers<I>(mut self, names: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        for n in names {
            self.sys.add_peer(n);
        }
        self
    }

    /// Configure both directions of the link between two peers.
    pub fn link(mut self, a: impl Into<PeerSel>, b: impl Into<PeerSel>, cost: LinkCost) -> Self {
        let (a, b) = (self.resolve(a.into()), self.resolve(b.into()));
        if let (Some(a), Some(b)) = (a, b) {
            self.sys.net_mut().set_link(a, b, cost);
        }
        self
    }

    /// Install a document (XML source or a parsed [`Tree`]) on a peer.
    pub fn doc(
        mut self,
        at: impl Into<PeerSel>,
        name: impl Into<DocName>,
        content: impl Into<DocSource>,
    ) -> Self {
        let at = self.resolve(at.into());
        let (name, content) = (name.into(), content.into());
        self.step(|sys| {
            let at = at.expect("resolve recorded the error");
            sys.install_doc(at, name, content.into_tree()?)
        })
    }

    /// Install a document and register it in a generic equivalence class
    /// (definition (9) / §2.3 generic documents).
    pub fn replica(
        mut self,
        at: impl Into<PeerSel>,
        class: impl Into<DocName>,
        concrete: impl Into<DocName>,
        content: impl Into<DocSource>,
    ) -> Self {
        let at = self.resolve(at.into());
        let (class, concrete, content) = (class.into(), concrete.into(), content.into());
        self.step(|sys| {
            let at = at.expect("resolve recorded the error");
            sys.install_replica(at, class, concrete, content.into_tree()?)
        })
    }

    /// Register a declarative service from query source.
    pub fn service(
        mut self,
        at: impl Into<PeerSel>,
        name: impl Into<ServiceName>,
        query_src: &str,
    ) -> Self {
        let at = self.resolve(at.into());
        let name = name.into();
        let src = query_src.to_string();
        self.step(|sys| {
            let at = at.expect("resolve recorded the error");
            sys.register_declarative_service(at, name, &src)
        })
    }

    /// Register a service replica under a generic service class.
    pub fn service_replica(
        mut self,
        class: impl Into<ServiceName>,
        at: impl Into<PeerSel>,
        concrete: impl Into<ServiceName>,
    ) -> Self {
        let at = self.resolve(at.into());
        let (class, concrete) = (class.into(), concrete.into());
        self.step(|sys| {
            sys.catalog_mut().add_service_replica(
                class,
                at.expect("resolve recorded the error"),
                concrete,
            );
            Ok(())
        })
    }

    /// Set the `pickDoc`/`pickService` policy (definition (9)).
    pub fn pick_policy(mut self, policy: PickPolicy) -> Self {
        self.sys.set_pick_policy(policy);
        self
    }

    /// Seed the engine's deterministic tie-breaking PRNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.sys.set_engine_seed(seed);
        self
    }

    /// Attach a trace sink from the first evaluation on.
    pub fn trace(mut self, sink: impl TraceSink + 'static) -> Self {
        self.sys.set_trace_sink(Box::new(sink));
        self
    }

    /// Set the engine's [`RetryPolicy`] for failed send attempts.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.sys.set_retry_policy(policy);
        self
    }

    /// Enable replica failover for `@any` references (see
    /// [`AxmlSystem::set_failover`]).
    pub fn failover(mut self, enabled: bool) -> Self {
        self.sys.set_failover(enabled);
        self
    }

    /// Install a seeded [`FaultPlan`] on the network: injected drops,
    /// outage windows, latency jitter and crash schedules, all
    /// reproducible from the plan's seed.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.sys.net_mut().set_fault_plan(plan);
        self
    }

    /// Finish: the configured system, or the **first** error any step
    /// produced.
    pub fn build(self) -> CoreResult<AxmlSystem> {
        match self.err {
            None => Ok(self.sys),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, PeerRef};
    use axml_obs::VecSink;

    #[test]
    fn fluent_chain_builds_working_system() {
        let mut sys = AxmlSystem::builder()
            .peers(["client", "server"])
            .link("client", "server", LinkCost::wan())
            .doc(
                "server",
                "catalog",
                r#"<catalog><pkg name="vim"/></catalog>"#,
            )
            .service("server", "names", r#"doc("catalog")//pkg/@name"#)
            .pick_policy(PickPolicy::Closest)
            .seed(42)
            .build()
            .unwrap();
        let client = sys.peer_id("client").unwrap();
        let server = sys.peer_id("server").unwrap();
        assert_eq!((client, server), (PeerId(0), PeerId(1)));
        let out = sys
            .eval(
                client,
                &Expr::Sc {
                    provider: PeerRef::At(server),
                    service: "names".into(),
                    params: vec![],
                    forward: vec![],
                },
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(sys.stats().total_messages(), 2);
    }

    #[test]
    fn ids_and_names_are_interchangeable() {
        let sys = AxmlSystem::builder()
            .peers(["a", "b"])
            .link(PeerId(0), "b", LinkCost::lan())
            .doc(PeerId(1), "d", "<x/>")
            .build()
            .unwrap();
        assert!(sys.peer(PeerId(1)).docs.contains(&"d".into()));
    }

    #[test]
    fn topology_seeds_named_peers() {
        let sys = AxmlSystem::builder()
            .topology(&Topology::Uniform {
                n: 3,
                cost: LinkCost::wan(),
            })
            .doc("p2", "d", "<x/>")
            .build()
            .unwrap();
        assert_eq!(sys.peer_count(), 3);
        assert!(sys.peer(PeerId(2)).docs.contains(&"d".into()));
    }

    #[test]
    fn first_error_wins_and_later_steps_are_skipped() {
        let err = AxmlSystem::builder()
            .peer("a")
            .doc("a", "d", "<oops")
            .doc("nobody", "e", "<x/>")
            .build()
            .err()
            .unwrap();
        assert!(matches!(err, CoreError::Xml(_)), "{err}");

        let err = AxmlSystem::builder()
            .peer("a")
            .link("a", "ghost", LinkCost::lan())
            .build()
            .err()
            .unwrap();
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn replicas_and_trace_sink() {
        let sink = VecSink::new();
        let mut sys = AxmlSystem::builder()
            .peers(["a", "b"])
            .link("a", "b", LinkCost::wan())
            .replica("a", "cat", "cat-a", "<c/>")
            .replica("b", "cat", "cat-b", "<c/>")
            .trace(sink.clone())
            .build()
            .unwrap();
        assert_eq!(sys.catalog().doc_replicas(&"cat".into()).len(), 2);
        let a = sys.peer_id("a").unwrap();
        sys.eval(
            a,
            &Expr::Doc {
                name: "cat".into(),
                at: PeerRef::Any,
            },
        )
        .unwrap();
        assert!(!sink.is_empty(), "builder-attached sink receives events");
    }

    #[test]
    fn topology_after_peers_is_rejected() {
        let err = AxmlSystem::builder()
            .peer("a")
            .topology(&Topology::Uniform {
                n: 2,
                cost: LinkCost::lan(),
            })
            .build()
            .err()
            .unwrap();
        assert!(err.to_string().contains("topology"), "{err}");
    }
}
