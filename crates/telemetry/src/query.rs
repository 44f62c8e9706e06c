//! Provenance queries over a recorded trace: why a route was selected,
//! the full causal path of an update, and the convergence timeline.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::event::{EventId, TraceEvent, TraceKind};
use crate::recorder::TraceRecorder;

/// Schema identifier [`TraceLog::to_json`] writes.
pub const TRACE_SCHEMA: &str = "dbgp-trace/v1";

/// A recorded trace: events in id order, the node -> AS map, and how
/// many events the recorder had to drop.
#[derive(Debug, Clone)]
pub struct TraceLog {
    /// Scenario name recorded in the trace meta block.
    pub scenario: String,
    /// Node index -> AS number.
    pub node_asn: BTreeMap<u32, u32>,
    /// Events in id order.
    pub events: Vec<TraceEvent>,
    /// Events the recorder's ring dropped before this log was taken.
    pub evicted: u64,
}

impl TraceLog {
    /// Snapshot a live recorder into a queryable log.
    pub fn from_recorder(rec: &TraceRecorder, scenario: &str) -> Self {
        TraceLog {
            scenario: scenario.to_string(),
            node_asn: rec.node_asn(),
            events: rec.events(),
            evicted: rec.evicted(),
        }
    }

    /// The `dbgp-trace/v1` document: the one writer of the schema.
    pub fn to_json(&self) -> Value {
        let nodes: Vec<Value> = self
            .node_asn
            .iter()
            .map(|(node, asn)| {
                Value::Object(vec![
                    ("node".into(), Value::UInt(u64::from(*node))),
                    ("asn".into(), Value::UInt(u64::from(*asn))),
                ])
            })
            .collect();
        Value::Object(vec![
            ("schema".into(), Value::String(TRACE_SCHEMA.into())),
            ("scenario".into(), Value::String(self.scenario.clone())),
            ("evicted".into(), Value::UInt(self.evicted)),
            ("nodes".into(), Value::Array(nodes)),
            ("events".into(), Value::Array(self.events.iter().map(|e| e.to_json()).collect())),
        ])
    }

    /// Look up an event by id (events are stored in id order).
    pub fn find(&self, id: EventId) -> Option<&TraceEvent> {
        self.events.binary_search_by_key(&id.0, |e| e.id.0).ok().map(|i| &self.events[i])
    }

    /// AS number of a node, falling back to the node index when the
    /// trace carries no mapping.
    pub fn asn_of(&self, node: u32) -> u32 {
        self.node_asn.get(&node).copied().unwrap_or(node)
    }

    /// Node index for an AS number.
    pub fn node_of_asn(&self, asn: u32) -> Option<u32> {
        self.node_asn.iter().find(|(_, a)| **a == asn).map(|(n, _)| *n)
    }

    /// Walk the causal parent chain starting at `id` (inclusive), root
    /// last. Stops cleanly if a parent fell out of the ring.
    pub fn causal_chain(&self, id: EventId) -> Vec<&TraceEvent> {
        let mut chain = Vec::new();
        let mut cursor = self.find(id);
        while let Some(ev) = cursor {
            chain.push(ev);
            cursor = ev.parent.and_then(|p| self.find(p));
        }
        chain
    }
}

/// One hop in a rendered causal chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHop {
    /// Event id of this hop.
    pub id: EventId,
    /// Simulation time.
    pub at: u64,
    /// Node the hop happened at.
    pub node: u32,
    /// AS number of that node.
    pub asn: u32,
    /// Event kind discriminator (`advertise`, `decode`, ...).
    pub kind: String,
    /// One-line human description.
    pub detail: String,
}

fn describe(log: &TraceLog, ev: &TraceEvent) -> String {
    let asn = log.asn_of(ev.node);
    match &ev.kind {
        TraceKind::Originate { prefix } => {
            format!("AS {asn} (node {}) originated {prefix}", ev.node)
        }
        TraceKind::OriginWithdraw { prefix } => {
            format!("AS {asn} (node {}) withdrew its origin of {prefix}", ev.node)
        }
        TraceKind::Advertise { prefix, to } => format!(
            "AS {asn} (node {}) advertised {prefix} to AS {} (node {to})",
            ev.node,
            log.asn_of(*to)
        ),
        TraceKind::Withdraw { prefix, to } => format!(
            "AS {asn} (node {}) withdrew {prefix} from AS {} (node {to})",
            ev.node,
            log.asn_of(*to)
        ),
        TraceKind::Transmit { to, bytes } => {
            format!("node {} put a {bytes}-byte UPDATE on the wire to node {to}", ev.node)
        }
        TraceKind::Deliver { from, bytes } => {
            format!("node {} received a {bytes}-byte UPDATE from node {from}", ev.node)
        }
        TraceKind::Decode { prefix, from, withdraw } => format!(
            "AS {asn} (node {}) decoded a {} for {prefix} from AS {} (node {from})",
            ev.node,
            if *withdraw { "withdraw" } else { "route" },
            log.asn_of(*from)
        ),
        TraceKind::DecodeError { from } => {
            format!("node {} failed to decode a frame from node {from}", ev.node)
        }
        TraceKind::Decision { prefix, selected, neighbor_as, path, hops, candidates, why } => {
            if *selected {
                let via = match neighbor_as {
                    Some(n) => format!("via AS {n}"),
                    None => "locally".to_string(),
                };
                format!(
                    "AS {asn} (node {}) selected {prefix} {via}: path [{path}], {hops} hops, \
                     {candidates} candidate(s), decisive step: {why}",
                    ev.node
                )
            } else {
                format!(
                    "AS {asn} (node {}) lost all paths to {prefix} ({candidates} candidate(s))",
                    ev.node
                )
            }
        }
        TraceKind::LoopDrop { prefix, from_as, reason } => {
            format!("AS {asn} (node {}) rejected {prefix} from AS {from_as}: {reason}", ev.node)
        }
        TraceKind::IslandCrossing { prefix, to, from_island, to_island } => {
            let f = from_island.map_or("gulf".to_string(), |i| format!("island {i}"));
            let t = to_island.map_or("gulf".to_string(), |i| format!("island {i}"));
            format!("{prefix} crossed {f} -> {t} (node {} -> node {to})", ev.node)
        }
        TraceKind::SessionFsm { peer, from, to, trigger } => {
            format!("node {} session with peer {peer}: {from} -> {to} ({trigger})", ev.node)
        }
        TraceKind::NodeRestart { generation } => {
            format!("node {} restarted (generation {generation})", ev.node)
        }
        TraceKind::LinkDown { a, b } => format!("link {a}-{b} went down"),
        TraceKind::LinkUp { a, b } => format!("link {a}-{b} came up"),
        TraceKind::MessageDropped { to } => {
            format!("frame from node {} to node {to} was dropped", ev.node)
        }
    }
}

fn hop(log: &TraceLog, ev: &TraceEvent) -> ChainHop {
    ChainHop {
        id: ev.id,
        at: ev.at,
        node: ev.node,
        asn: log.asn_of(ev.node),
        kind: ev.kind.name().to_string(),
        detail: describe(log, ev),
    }
}

/// Answer to `why-selected <as> <prefix>`.
#[derive(Debug, Clone)]
pub struct WhySelected {
    /// Node the answer is about.
    pub node: u32,
    /// Its AS number.
    pub asn: u32,
    /// The queried prefix, rendered.
    pub prefix: String,
    /// When the final decision happened.
    pub at: u64,
    /// Decisive selection step, rendered.
    pub why: String,
    /// Installed path vector.
    pub path: String,
    /// Installed hop count.
    pub hops: u32,
    /// Candidates considered by the final decision.
    pub candidates: u32,
    /// Id of the final decision event.
    pub decision_id: EventId,
    /// Causal provenance from that decision back to the origin, in
    /// decision-first order.
    pub provenance: Vec<ChainHop>,
}

impl WhySelected {
    /// Render as the multi-line text the `trace_query` bin prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "AS {} (node {}) selected {} at t={} [decision {}]\n",
            self.asn, self.node, self.prefix, self.at, self.decision_id
        ));
        out.push_str(&format!(
            "  path [{}], {} hops, {} candidate(s), decisive step: {}\n",
            self.path, self.hops, self.candidates, self.why
        ));
        out.push_str("provenance (most recent first):\n");
        for h in &self.provenance {
            out.push_str(&format!("  t={:<8} {} {}\n", h.at, h.id, h.detail));
        }
        out
    }
}

/// Why does `asn` currently route `prefix` the way it does? Finds the
/// last `Decision` event for that (node, prefix) and walks its causal
/// chain back to the origin.
pub fn why_selected(log: &TraceLog, asn: u32, prefix: &str) -> Result<WhySelected, String> {
    let node = log
        .node_of_asn(asn)
        .ok_or_else(|| format!("no node with AS number {asn} in this trace"))?;
    let decision = log
        .events
        .iter()
        .rev()
        .find(|e| {
            e.node == node
                && matches!(
                    &e.kind,
                    TraceKind::Decision { prefix: p, .. } if p.to_string() == prefix
                )
        })
        .ok_or_else(|| format!("no decision for {prefix} at AS {asn} in this trace"))?;
    let (selected, path, hops, candidates, why) = match &decision.kind {
        TraceKind::Decision { selected, path, hops, candidates, why, .. } => {
            (*selected, path.clone(), *hops, *candidates, why.to_string())
        }
        _ => unreachable!(),
    };
    if !selected {
        return Err(format!(
            "AS {asn} has no route to {prefix}: last decision {} at t={} removed it",
            decision.id, decision.at
        ));
    }
    let provenance = log.causal_chain(decision.id).into_iter().map(|e| hop(log, e)).collect();
    Ok(WhySelected {
        node,
        asn,
        prefix: prefix.to_string(),
        at: decision.at,
        why,
        path,
        hops,
        candidates,
        decision_id: decision.id,
        provenance,
    })
}

/// Answer to `path-of <update-id>`: the causal chain through an update
/// event, rendered root-first.
#[derive(Debug, Clone)]
pub struct PathOf {
    /// The queried event id.
    pub id: EventId,
    /// Chain from the root cause down to the queried event.
    pub chain: Vec<ChainHop>,
    /// Follow-on events caused (transitively) by the queried event.
    pub descendants: Vec<ChainHop>,
}

impl PathOf {
    /// Render as the multi-line text the `trace_query` bin prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("causal path of {} (root first):\n", self.id));
        for (depth, h) in self.chain.iter().enumerate() {
            out.push_str(&format!(
                "  {:indent$}t={} {} {}\n",
                "",
                h.at,
                h.id,
                h.detail,
                indent = depth * 2
            ));
        }
        if !self.descendants.is_empty() {
            out.push_str("downstream effects:\n");
            for h in &self.descendants {
                out.push_str(&format!("  t={:<8} {} {}\n", h.at, h.id, h.detail));
            }
        }
        out
    }
}

/// Trace an update event back to its root cause and forward to everything
/// it caused.
pub fn path_of(log: &TraceLog, id: EventId) -> Result<PathOf, String> {
    if log.find(id).is_none() {
        return Err(format!("event {id} is not in this trace"));
    }
    let mut chain: Vec<ChainHop> = log.causal_chain(id).into_iter().map(|e| hop(log, e)).collect();
    chain.reverse(); // root first
                     // Transitive descendants: one forward sweep suffices because parents
                     // always have smaller ids than children.
    let mut member = std::collections::BTreeSet::new();
    member.insert(id);
    let mut descendants = Vec::new();
    for ev in &log.events {
        if ev.id.0 <= id.0 {
            continue;
        }
        if let Some(p) = ev.parent {
            if member.contains(&p) {
                member.insert(ev.id);
                descendants.push(hop(log, ev));
            }
        }
    }
    Ok(PathOf { id, chain, descendants })
}

/// One row of the convergence timeline: a best-path change.
#[derive(Debug, Clone)]
pub struct TimelineEntry {
    /// When the decision happened.
    pub at: u64,
    /// Node that re-decided.
    pub node: u32,
    /// Its AS number.
    pub asn: u32,
    /// Affected prefix, rendered.
    pub prefix: String,
    /// True if a path was installed, false if removed.
    pub selected: bool,
    /// Decision event id.
    pub id: EventId,
    /// One-line description.
    pub detail: String,
    /// Id of the root cause of this decision (origination, link event,
    /// restart, ...), if the chain is complete in the trace.
    pub root: Option<EventId>,
}

/// Answer to `convergence-timeline`.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Every best-path change, in event order.
    pub entries: Vec<TimelineEntry>,
    /// Time of the last best-path change (convergence instant).
    pub converged_at: u64,
    /// Total decisions.
    pub decisions: u64,
    /// Total UPDATE deliveries.
    pub messages: u64,
}

impl Timeline {
    /// Render as the multi-line text the `trace_query` bin prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("convergence timeline (best-path changes):\n");
        for e in &self.entries {
            let root = match e.root {
                Some(r) => format!(" [root {r}]"),
                None => String::new(),
            };
            out.push_str(&format!("  t={:<8} {} {}{}\n", e.at, e.id, e.detail, root));
        }
        out.push_str(&format!(
            "{} best-path change(s), {} message(s); last change at t={}\n",
            self.decisions, self.messages, self.converged_at
        ));
        out
    }
}

/// Build the convergence timeline: every `Decision` event with its root
/// cause, plus aggregate counts.
pub fn convergence_timeline(log: &TraceLog) -> Timeline {
    let mut entries = Vec::new();
    let mut messages = 0u64;
    let mut converged_at = 0u64;
    for ev in &log.events {
        match &ev.kind {
            TraceKind::Deliver { .. } => messages += 1,
            TraceKind::Decision { prefix, selected, .. } => {
                converged_at = converged_at.max(ev.at);
                let root = log.causal_chain(ev.id).last().map(|e| e.id).filter(|r| *r != ev.id);
                entries.push(TimelineEntry {
                    at: ev.at,
                    node: ev.node,
                    asn: log.asn_of(ev.node),
                    prefix: prefix.to_string(),
                    selected: *selected,
                    id: ev.id,
                    detail: describe(log, ev),
                    root,
                });
            }
            _ => {}
        }
    }
    Timeline { decisions: entries.len() as u64, entries, converged_at, messages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SelectionReason;
    use dbgp_wire::Ipv4Prefix;

    #[test]
    fn ring_evicts_oldest_and_counts_what_it_dropped() {
        let rec = TraceRecorder::with_capacity(2);
        for i in 0..5u32 {
            rec.record(u64::from(i), i, None, TraceKind::DecodeError { from: 0 });
        }
        assert_eq!(rec.len(), 2);
        let log = TraceLog::from_recorder(&rec, "ring");
        let ids: Vec<u64> = log.events.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![3, 4]);
        assert_eq!(log.to_json().get("evicted").and_then(Value::as_u64), Some(3));
    }

    /// One event of every kind through the one writer, against bytes
    /// recorded while a decoder still existed: nothing reads a trace
    /// back, so the bytes are the contract.
    #[test]
    fn every_kind_writes_its_recorded_bytes() {
        let prefix: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let rec = TraceRecorder::unbounded();
        rec.set_node_asn(0, 10);
        rec.set_node_asn(1, 11);
        let kinds = [
            TraceKind::Originate { prefix },
            TraceKind::OriginWithdraw { prefix },
            TraceKind::Advertise { prefix, to: 1 },
            TraceKind::Withdraw { prefix, to: 1 },
            TraceKind::Transmit { to: 1, bytes: 42 },
            TraceKind::Deliver { from: 0, bytes: 42 },
            TraceKind::Decode { prefix, from: 0, withdraw: true },
            TraceKind::DecodeError { from: 0 },
            TraceKind::Decision {
                prefix,
                selected: true,
                neighbor_as: Some(10),
                path: "10".into(),
                hops: 1,
                candidates: 2,
                why: SelectionReason::ShortestPath,
            },
            TraceKind::LoopDrop { prefix, from_as: 11, reason: "loop".into() },
            TraceKind::IslandCrossing { prefix, to: 1, from_island: Some(500), to_island: None },
            TraceKind::SessionFsm { peer: 1, from: "down", to: "up", trigger: "link-up" },
            TraceKind::NodeRestart { generation: 1 },
            TraceKind::LinkDown { a: 0, b: 1 },
            TraceKind::LinkUp { a: 0, b: 1 },
            TraceKind::MessageDropped { to: 1 },
        ];
        let mut parent = None;
        for (i, kind) in kinds.into_iter().enumerate() {
            parent = Some(rec.record(i as u64 * 10, (i % 2) as u32, parent, kind));
        }
        let doc = serde_json::to_string(&TraceLog::from_recorder(&rec, "kinds").to_json()).unwrap();
        let want = concat!(
            r#"{"schema":"dbgp-trace/v1","scenario":"kinds","evicted":0,"#,
            r#""nodes":[{"node":0,"asn":10},{"node":1,"asn":11}],"events":["#,
            r#"{"id":0,"at":0,"node":0,"parent":null,"kind":"originate","prefix":"10.0.0.0/8"},"#,
            r#"{"id":1,"at":10,"node":1,"parent":0,"kind":"origin-withdraw","#,
            r#""prefix":"10.0.0.0/8"},"#,
            r#"{"id":2,"at":20,"node":0,"parent":1,"kind":"advertise","prefix":"10.0.0.0/8","to":1},"#,
            r#"{"id":3,"at":30,"node":1,"parent":2,"kind":"withdraw","prefix":"10.0.0.0/8","to":1},"#,
            r#"{"id":4,"at":40,"node":0,"parent":3,"kind":"transmit","to":1,"bytes":42},"#,
            r#"{"id":5,"at":50,"node":1,"parent":4,"kind":"deliver","from":0,"bytes":42},"#,
            r#"{"id":6,"at":60,"node":0,"parent":5,"kind":"decode","prefix":"10.0.0.0/8","#,
            r#""from":0,"withdraw":true},"#,
            r#"{"id":7,"at":70,"node":1,"parent":6,"kind":"decode-error","from":0},"#,
            r#"{"id":8,"at":80,"node":0,"parent":7,"kind":"decision","prefix":"10.0.0.0/8","#,
            r#""selected":true,"neighbor_as":10,"path":"10","hops":1,"candidates":2,"#,
            r#""why":"shortest-path"},"#,
            r#"{"id":9,"at":90,"node":1,"parent":8,"kind":"loop-drop","prefix":"10.0.0.0/8","#,
            r#""from_as":11,"reason":"loop"},"#,
            r#"{"id":10,"at":100,"node":0,"parent":9,"kind":"island-crossing","#,
            r#""prefix":"10.0.0.0/8","to":1,"from_island":500,"to_island":null},"#,
            r#"{"id":11,"at":110,"node":1,"parent":10,"kind":"session-fsm","peer":1,"#,
            r#""from":"down","to":"up","trigger":"link-up"},"#,
            r#"{"id":12,"at":120,"node":0,"parent":11,"kind":"node-restart","generation":1},"#,
            r#"{"id":13,"at":130,"node":1,"parent":12,"kind":"link-down","a":0,"b":1},"#,
            r#"{"id":14,"at":140,"node":0,"parent":13,"kind":"link-up","a":0,"b":1},"#,
            r#"{"id":15,"at":150,"node":1,"parent":14,"kind":"message-dropped","to":1}"#,
            "]}",
        );
        assert_eq!(doc, want);
    }
}
