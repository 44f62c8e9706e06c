//! Trace event taxonomy: every control-plane action a host sees — its
//! own, and what its speakers report back — is recorded as a
//! [`TraceEvent`] with a causal parent.

use std::fmt;

use dbgp_wire::Ipv4Prefix;
use serde_json::Value;

/// Monotonically increasing identifier for a recorded trace event.
///
/// Ids are assigned by the recorder in emission order, so `a.0 < b.0`
/// implies `a` was recorded no later than `b`. Causal parents therefore
/// always have a smaller id than their children, which makes every causal
/// chain trivially acyclic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Why the decision process preferred the winning candidate over the
/// runner-up (or why there was nothing to prefer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionReason {
    /// The prefix is locally originated; local routes always win.
    LocalOrigin,
    /// Exactly one candidate survived import filtering.
    OnlyCandidate,
    /// Won on LOCAL_PREF (BGP decision step 1).
    LocalPref,
    /// Won on path length (fewest AS hops).
    ShortestPath,
    /// Won on ORIGIN code (IGP < EGP < INCOMPLETE).
    Origin,
    /// Won on MULTI_EXIT_DISC against a same-AS rival.
    Med,
    /// Won because eBGP-learned routes beat iBGP-learned ones.
    EbgpOverIbgp,
    /// Won on lowest peer router-id.
    RouterId,
    /// Won on lowest neighbor AS number (D-BGP simulator tiebreak).
    NeighborAs,
    /// Won on lowest neighbor/peer id (final deterministic tiebreak).
    NeighborId,
    /// Won on the decision module's own measure (Wiser's cost, EQ-BGP's
    /// bandwidth, a ranked policy's list position, ...).
    ModulePreference,
    /// No candidate was usable; the prefix became unreachable.
    Unreachable,
}

impl SelectionReason {
    /// Stable string form used in the trace JSON schema.
    pub fn as_str(self) -> &'static str {
        match self {
            SelectionReason::LocalOrigin => "local-origin",
            SelectionReason::OnlyCandidate => "only-candidate",
            SelectionReason::LocalPref => "local-pref",
            SelectionReason::ShortestPath => "shortest-path",
            SelectionReason::Origin => "origin",
            SelectionReason::Med => "med",
            SelectionReason::EbgpOverIbgp => "ebgp-over-ibgp",
            SelectionReason::RouterId => "router-id",
            SelectionReason::NeighborAs => "neighbor-as",
            SelectionReason::NeighborId => "neighbor-id",
            SelectionReason::ModulePreference => "module-preference",
            SelectionReason::Unreachable => "unreachable",
        }
    }
}

impl fmt::Display for SelectionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a routing core says about a best path it has just changed: the
/// explanation rides on the output that announces the change, and a
/// host that keeps a trace copies it into the `Decision` event it
/// records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// The decisive comparison step.
    pub why: SelectionReason,
    /// How many candidates the decision process considered.
    pub candidates: u32,
}

/// What happened. Field meanings follow the simulator's node-id space:
/// `node`, `to`, `from`, `peer`, `a`, `b` are node indices, `*_as` fields
/// are AS numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// A prefix was locally originated at this node (chain root).
    Originate {
        /// Prefix being originated.
        prefix: Ipv4Prefix,
    },
    /// A locally originated prefix was withdrawn (chain root).
    OriginWithdraw {
        /// Prefix being withdrawn.
        prefix: Ipv4Prefix,
    },
    /// An advertisement for `prefix` was placed on the wire toward `to`.
    Advertise {
        /// Prefix carried by the advertisement.
        prefix: Ipv4Prefix,
        /// Destination node.
        to: u32,
    },
    /// A withdraw for `prefix` was placed on the wire toward `to`.
    Withdraw {
        /// Prefix being withdrawn.
        prefix: Ipv4Prefix,
        /// Destination node.
        to: u32,
    },
    /// One encoded UPDATE frame (possibly batching several prefixes) left
    /// this node toward `to`.
    Transmit {
        /// Destination node.
        to: u32,
        /// Encoded frame length in bytes.
        bytes: u32,
    },
    /// An UPDATE frame arrived at this node from `from`.
    Deliver {
        /// Sending node.
        from: u32,
        /// Frame length in bytes.
        bytes: u32,
    },
    /// One element of a delivered frame was decoded and handed to the
    /// speaker (`withdraw` distinguishes withdraws from announcements).
    Decode {
        /// Prefix decoded from the frame.
        prefix: Ipv4Prefix,
        /// Sending node.
        from: u32,
        /// True if this element was a withdraw.
        withdraw: bool,
    },
    /// A delivered frame failed to decode.
    DecodeError {
        /// Sending node.
        from: u32,
    },
    /// The decision process ran for `prefix` and installed (or removed)
    /// a best path.
    Decision {
        /// Prefix that was re-decided.
        prefix: Ipv4Prefix,
        /// True if a best path was installed, false if the prefix became
        /// unreachable.
        selected: bool,
        /// AS number of the neighbor the best path was learned from
        /// (`None` for local origination or unreachable).
        neighbor_as: Option<u32>,
        /// Rendered path vector of the installed advertisement.
        path: String,
        /// AS-hop count of the installed path.
        hops: u32,
        /// How many candidates the decision process considered.
        candidates: u32,
        /// The decisive comparison step.
        why: SelectionReason,
    },
    /// An incoming advertisement was rejected by import filtering
    /// (typically sender-side loop detection).
    LoopDrop {
        /// Prefix carried by the rejected advertisement.
        prefix: Ipv4Prefix,
        /// AS number of the neighbor it came from.
        from_as: u32,
        /// Reject reason, rendered.
        reason: String,
    },
    /// An advertisement crossed an island boundary (island -> gulf,
    /// gulf -> island, or island -> different island).
    IslandCrossing {
        /// Prefix carried by the advertisement.
        prefix: Ipv4Prefix,
        /// Destination node.
        to: u32,
        /// Sending node's island id, if any.
        from_island: Option<u32>,
        /// Receiving node's island id, if any.
        to_island: Option<u32>,
    },
    /// A simulator adjacency came up or went down.
    SessionFsm {
        /// Peer node.
        peer: u32,
        /// State before the transition.
        from: &'static str,
        /// State after the transition.
        to: &'static str,
        /// What caused the transition.
        trigger: &'static str,
    },
    /// A node restarted; its per-node counters reset and its counter
    /// generation was bumped.
    NodeRestart {
        /// Generation number after the restart (starts at 0, +1 per
        /// restart).
        generation: u64,
    },
    /// A link was administratively taken down.
    LinkDown {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// A link was administratively brought up.
    LinkUp {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// A frame was dropped in flight (link down or stochastic loss).
    MessageDropped {
        /// Intended destination node.
        to: u32,
    },
}

impl TraceKind {
    /// Stable discriminator string used in the trace JSON schema.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Originate { .. } => "originate",
            TraceKind::OriginWithdraw { .. } => "origin-withdraw",
            TraceKind::Advertise { .. } => "advertise",
            TraceKind::Withdraw { .. } => "withdraw",
            TraceKind::Transmit { .. } => "transmit",
            TraceKind::Deliver { .. } => "deliver",
            TraceKind::Decode { .. } => "decode",
            TraceKind::DecodeError { .. } => "decode-error",
            TraceKind::Decision { .. } => "decision",
            TraceKind::LoopDrop { .. } => "loop-drop",
            TraceKind::IslandCrossing { .. } => "island-crossing",
            TraceKind::SessionFsm { .. } => "session-fsm",
            TraceKind::NodeRestart { .. } => "node-restart",
            TraceKind::LinkDown { .. } => "link-down",
            TraceKind::LinkUp { .. } => "link-up",
            TraceKind::MessageDropped { .. } => "message-dropped",
        }
    }
}

/// One recorded control-plane event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Recorder-assigned id, monotonically increasing.
    pub id: EventId,
    /// Simulation time (engine ticks) when the event happened.
    pub at: u64,
    /// Node the event happened at.
    pub node: u32,
    /// Causal parent: the event that directly caused this one, if known.
    pub parent: Option<EventId>,
    /// What happened.
    pub kind: TraceKind,
}

fn opt_u32(v: Option<u32>) -> Value {
    match v {
        Some(x) => Value::UInt(u64::from(x)),
        None => Value::Null,
    }
}

impl TraceEvent {
    /// Flattened JSON form (schema `dbgp-trace/v1`): `id`, `at`, `node`,
    /// `parent` (nullable), `kind`, plus the kind's own fields.
    pub fn to_json(&self) -> Value {
        let mut obj: Vec<(String, Value)> = vec![
            ("id".into(), Value::UInt(self.id.0)),
            ("at".into(), Value::UInt(self.at)),
            ("node".into(), Value::UInt(u64::from(self.node))),
            (
                "parent".into(),
                match self.parent {
                    Some(p) => Value::UInt(p.0),
                    None => Value::Null,
                },
            ),
            ("kind".into(), Value::String(self.kind.name().into())),
        ];
        let mut put = |k: &str, v: Value| obj.push((k.into(), v));
        match &self.kind {
            TraceKind::Originate { prefix } | TraceKind::OriginWithdraw { prefix } => {
                put("prefix", Value::String(prefix.to_string()));
            }
            TraceKind::Advertise { prefix, to } | TraceKind::Withdraw { prefix, to } => {
                put("prefix", Value::String(prefix.to_string()));
                put("to", Value::UInt(u64::from(*to)));
            }
            TraceKind::Transmit { to, bytes } => {
                put("to", Value::UInt(u64::from(*to)));
                put("bytes", Value::UInt(u64::from(*bytes)));
            }
            TraceKind::Deliver { from, bytes } => {
                put("from", Value::UInt(u64::from(*from)));
                put("bytes", Value::UInt(u64::from(*bytes)));
            }
            TraceKind::Decode { prefix, from, withdraw } => {
                put("prefix", Value::String(prefix.to_string()));
                put("from", Value::UInt(u64::from(*from)));
                put("withdraw", Value::Bool(*withdraw));
            }
            TraceKind::DecodeError { from } => {
                put("from", Value::UInt(u64::from(*from)));
            }
            TraceKind::Decision { prefix, selected, neighbor_as, path, hops, candidates, why } => {
                put("prefix", Value::String(prefix.to_string()));
                put("selected", Value::Bool(*selected));
                put("neighbor_as", opt_u32(*neighbor_as));
                put("path", Value::String(path.clone()));
                put("hops", Value::UInt(u64::from(*hops)));
                put("candidates", Value::UInt(u64::from(*candidates)));
                put("why", Value::String(why.as_str().into()));
            }
            TraceKind::LoopDrop { prefix, from_as, reason } => {
                put("prefix", Value::String(prefix.to_string()));
                put("from_as", Value::UInt(u64::from(*from_as)));
                put("reason", Value::String(reason.clone()));
            }
            TraceKind::IslandCrossing { prefix, to, from_island, to_island } => {
                put("prefix", Value::String(prefix.to_string()));
                put("to", Value::UInt(u64::from(*to)));
                put("from_island", opt_u32(*from_island));
                put("to_island", opt_u32(*to_island));
            }
            TraceKind::SessionFsm { peer, from, to, trigger } => {
                put("peer", Value::UInt(u64::from(*peer)));
                put("from", Value::String((*from).into()));
                put("to", Value::String((*to).into()));
                put("trigger", Value::String((*trigger).into()));
            }
            TraceKind::NodeRestart { generation } => {
                put("generation", Value::UInt(*generation));
            }
            TraceKind::LinkDown { a, b } | TraceKind::LinkUp { a, b } => {
                put("a", Value::UInt(u64::from(*a)));
                put("b", Value::UInt(u64::from(*b)));
            }
            TraceKind::MessageDropped { to } => {
                put("to", Value::UInt(u64::from(*to)));
            }
        }
        Value::Object(obj)
    }
}
