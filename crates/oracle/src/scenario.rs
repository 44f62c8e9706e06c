//! Scenario specifications shared by the production simulator, the
//! reference model and `dbgpd`.
//!
//! A [`Scenario`] is a plain-data description of a topology, its island
//! deployments, the prefixes originated, and a fault plan. The same spec
//! builds a production [`dbgp_sim::Sim`] (via [`build_production`]), a
//! [`RefNet`] (via [`build_reference`]) and, while it has no island,
//! one `dbgpd` config per node (via [`build_daemon`]), so the
//! differential harness compares systems driven by identical inputs.
//! The spec also round-trips through JSON ([`scenario_to_json`] /
//! [`scenario_from_json`]) so shrunken divergences can be committed as
//! replayable fixtures.

use crate::reference::{RefConfig, RefIsland, RefModule, RefNet};
use dbgp_core::{DbgpConfig, IslandConfig};
use dbgp_crypto::KeyRegistry;
use dbgp_daemon::{DaemonConfig, Node};
use dbgp_protocols::{
    AddrMapModule, BgpsecModule, BottleneckBwModule, HlpModule, MiroModule, PathSet, Pathlet,
    PathletModule, RbgpModule, ScionModule, WiserModule,
};
use dbgp_session::Fabric;
use dbgp_sim::Sim;
use dbgp_wire::{Ipv4Addr, Ipv4Prefix, IslandId, ProtocolId};
use serde_json::Value;

/// Spec-level protocol tag for the address-map module, which registers
/// under the baseline's protocol ID and therefore cannot be named by a
/// real `ProtocolId`.
pub const SPEC_ADDRMAP: u16 = 100;

/// The protocols the differential harness deploys on generated islands.
pub const PROTOCOL_POOL: &[u16] = &[
    ProtocolId::WISER.0,
    ProtocolId::PATHLET.0,
    ProtocolId::SCION.0,
    ProtocolId::MIRO.0,
    ProtocolId::BGPSEC.0,
    ProtocolId::EQBGP.0,
    ProtocolId::RBGP.0,
    ProtocolId::HLP.0,
    SPEC_ADDRMAP,
];

/// Shared trust anchor for scenario BGPSec islands.
pub const BGPSEC_ANCHOR: &[u8] = b"oracle-anchor";

/// Island deployment on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IslandSpec {
    /// The island's ID.
    pub id: u32,
    /// Abstract member runs at egress (G-R5).
    pub abstraction: bool,
    /// Deployed protocol: a `ProtocolId` value or [`SPEC_ADDRMAP`].
    pub protocol: u16,
}

/// One AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    /// The AS number.
    pub asn: u32,
    /// Island deployment, if any.
    pub island: Option<IslandSpec>,
}

/// A control-plane fault, applied between quiescent phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the link between two node indices.
    LinkDown(usize, usize),
    /// Restore a previously failed link.
    LinkRestore(usize, usize),
    /// Restart a node (teardown + re-establish every session).
    Restart(usize),
}

/// A complete differential scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The ASes, indexed by position.
    pub nodes: Vec<NodeSpec>,
    /// Undirected links `(a, b, speaks_dbgp)`, creation order.
    pub links: Vec<(usize, usize, bool)>,
    /// `(node, prefix)` originations, applied before the first phase.
    pub originations: Vec<(usize, Ipv4Prefix)>,
    /// Faults, one per subsequent phase.
    pub faults: Vec<Fault>,
}

/// Uniform link delay used by every differential scenario. With a
/// uniform delay and MRAI disabled, the simulator's event queue
/// delivers frames in global send order — the exact order
/// [`RefNet::run_fifo`] replays.
pub const LINK_DELAY: u64 = 10;

/// Portal address derived from an AS number. Public so the stability
/// gadget builders attach the same module parameters the differential
/// scenarios use when replaying committed fixtures.
pub fn portal(asn: u32) -> Ipv4Addr {
    Ipv4Addr::new(163, 42, (asn >> 8) as u8, (asn & 0xff) as u8)
}

/// Lookup-service address derived from an island ID.
pub fn service_addr(island: u32) -> Ipv4Addr {
    Ipv4Addr::new(198, 51, 100, (island % 250) as u8)
}

/// Wiser internal cost derived from an AS number.
pub fn wiser_cost(asn: u32) -> u64 {
    u64::from(asn % 7 + 1) * 5
}

/// EQ-BGP ingress bandwidth derived from an AS number.
pub fn eqbgp_bw(asn: u32) -> u64 {
    u64::from(asn % 5 + 1) * 100
}

/// HLP internal cost derived from an AS number.
pub fn hlp_cost(asn: u32) -> u64 {
    u64::from(asn % 4 + 1)
}

fn scion_paths(asn: u32) -> Vec<Vec<u32>> {
    vec![vec![asn, asn.wrapping_add(1)]]
}

fn pathlet_triples(asn: u32) -> Vec<(u32, u32, u32)> {
    vec![(asn, asn, asn.wrapping_add(1))]
}

/// The active `ProtocolId` a node with this island spec runs.
pub fn active_protocol(spec: &IslandSpec) -> ProtocolId {
    if spec.protocol == SPEC_ADDRMAP {
        ProtocolId::BGP
    } else {
        ProtocolId(spec.protocol)
    }
}

fn same_island(nodes: &[NodeSpec], a: usize, b: usize) -> bool {
    match (&nodes[a].island, &nodes[b].island) {
        (Some(x), Some(y)) => x.id == y.id,
        _ => false,
    }
}

/// Build the production simulator for a scenario. MRAI is disabled and
/// all links share [`LINK_DELAY`], which makes delivery order equal to
/// global send order (see module docs).
pub fn build_production(scenario: &Scenario) -> Sim {
    let mut sim = Sim::new();
    sim.set_mrai(0);
    for node in &scenario.nodes {
        let cfg = match &node.island {
            None => DbgpConfig::gulf(node.asn),
            Some(spec) => DbgpConfig::island_member(
                node.asn,
                IslandConfig { id: IslandId(spec.id), abstraction: spec.abstraction },
                active_protocol(spec),
            ),
        };
        let id = sim.add_node(cfg);
        if let Some(spec) = &node.island {
            let island = IslandId(spec.id);
            let asn = node.asn;
            let speaker = sim.speaker_mut(id);
            match ProtocolId(spec.protocol) {
                ProtocolId::WISER => speaker.register_module(Box::new(WiserModule::new(
                    island,
                    portal(asn),
                    wiser_cost(asn),
                ))),
                ProtocolId::PATHLET => speaker.register_module(Box::new(PathletModule::new(
                    island,
                    asn,
                    pathlet_triples(asn)
                        .into_iter()
                        .map(|(fid, from, to)| Pathlet::between(fid, from, to))
                        .collect(),
                ))),
                ProtocolId::SCION => speaker.register_module(Box::new(ScionModule::new(
                    island,
                    PathSet { paths: scion_paths(asn) },
                ))),
                ProtocolId::MIRO => {
                    speaker.register_module(Box::new(MiroModule::new(island, portal(asn))))
                }
                ProtocolId::BGPSEC => speaker.register_module(Box::new(BgpsecModule::new(
                    asn,
                    KeyRegistry::new(BGPSEC_ANCHOR),
                    false,
                ))),
                ProtocolId::EQBGP => {
                    speaker.register_module(Box::new(BottleneckBwModule::new(eqbgp_bw(asn))))
                }
                ProtocolId::RBGP => speaker.register_module(Box::new(RbgpModule::new())),
                ProtocolId::HLP => {
                    speaker.register_module(Box::new(HlpModule::new(island, asn, hlp_cost(asn))))
                }
                _ if spec.protocol == SPEC_ADDRMAP => speaker
                    .register_module(Box::new(AddrMapModule::new(island, service_addr(spec.id)))),
                other => panic!("scenario names unknown protocol {other:?}"),
            }
        }
    }
    for &(a, b, speaks_dbgp) in &scenario.links {
        sim.link_with(a, b, LINK_DELAY, same_island(&scenario.nodes, a, b), speaks_dbgp);
    }
    sim
}

/// Build the reference network for the same scenario.
pub fn build_reference(scenario: &Scenario) -> RefNet {
    let mut net = RefNet::new();
    for node in &scenario.nodes {
        let cfg = match &node.island {
            None => RefConfig::gulf(node.asn),
            Some(spec) => RefConfig::island_member(
                node.asn,
                RefIsland { id: IslandId(spec.id), abstraction: spec.abstraction },
                active_protocol(spec),
            ),
        };
        let id = net.add_node(cfg);
        if let Some(spec) = &node.island {
            let island = IslandId(spec.id);
            let asn = node.asn;
            let module = match ProtocolId(spec.protocol) {
                ProtocolId::WISER => RefModule::Wiser {
                    island,
                    portal: portal(asn),
                    internal_cost: wiser_cost(asn),
                    chosen_source: Default::default(),
                },
                ProtocolId::PATHLET => {
                    RefModule::Pathlet { island, own_pathlets: pathlet_triples(asn) }
                }
                ProtocolId::SCION => RefModule::Scion { island, own_paths: scion_paths(asn) },
                ProtocolId::MIRO => RefModule::Miro { island, portal: portal(asn) },
                ProtocolId::BGPSEC => RefModule::Bgpsec {
                    local_as: asn,
                    registry: KeyRegistry::new(BGPSEC_ANCHOR),
                    enforce: false,
                },
                ProtocolId::EQBGP => RefModule::Eqbgp { ingress_bw: eqbgp_bw(asn) },
                ProtocolId::RBGP => RefModule::Rbgp { failover: Default::default() },
                ProtocolId::HLP => RefModule::Hlp { internal_cost: hlp_cost(asn) },
                _ if spec.protocol == SPEC_ADDRMAP => {
                    RefModule::AddrMap { island, service: service_addr(spec.id) }
                }
                other => panic!("scenario names unknown protocol {other:?}"),
            };
            net.speaker_mut(id).register_module(module);
        }
    }
    for &(a, b, speaks_dbgp) in &scenario.links {
        net.link_with(a, b, same_island(&scenario.nodes, a, b), speaks_dbgp);
    }
    net
}

/// Lower the same scenario to one `dbgpd` config per node, by writing
/// each config's text and parsing it. Every link gets a `neighbor` line
/// on both ends, both dialing, with `ia` iff the link speaks D-BGP;
/// every origination gets a `network` line. The router id
/// `10.(asn>>16).(asn>>8).asn` increases with the AS number, so the
/// classic decision process's router-id tie-break picks the peer that
/// `Rank`'s neighbor-AS rung picks.
///
/// A scenario with any island is refused: `dbgpd` runs no decision
/// module until ROADMAP item 1(a).
pub fn build_daemon(scenario: &Scenario) -> Result<Vec<DaemonConfig>, String> {
    if scenario.nodes.iter().any(|n| n.island.is_some()) {
        return Err("scenario has an island; dbgpd runs no decision module \
                    until ROADMAP item 1(a)"
            .into());
    }
    let listen = |i: usize| format!("127.0.0.1:{}", 24_000 + i);
    let config = |i: usize| {
        let asn = scenario.nodes[i].asn;
        let id = Ipv4Addr::new(10, (asn >> 16) as u8, (asn >> 8) as u8, asn as u8);
        let mut text = format!("local-as {asn}\nrouter-id {id}\nlisten {}\n", listen(i));
        for &(_, prefix) in scenario.originations.iter().filter(|&&(n, _)| n == i) {
            text += &format!("network {prefix}\n");
        }
        for &(a, b, speaks_dbgp) in &scenario.links {
            let peer = if a == i {
                b
            } else if b == i {
                a
            } else {
                continue;
            };
            let ia = if speaks_dbgp { " ia" } else { "" };
            text +=
                &format!("neighbor as={} addr={}{ia}\n", scenario.nodes[peer].asn, listen(peer));
        }
        DaemonConfig::parse(&text)
    };
    (0..scenario.nodes.len()).map(config).collect()
}

/// Apply one fault to the production simulator.
pub fn apply_fault_production(sim: &mut Sim, fault: &Fault) {
    match *fault {
        Fault::LinkDown(a, b) => sim.fail_link(a, b),
        Fault::LinkRestore(a, b) => sim.restore_link(a, b),
        Fault::Restart(n) => sim.restart_node(n),
    }
}

/// Apply one fault to the reference network.
pub fn apply_fault_reference(net: &mut RefNet, fault: &Fault) {
    match *fault {
        Fault::LinkDown(a, b) => net.fail_link(a, b),
        Fault::LinkRestore(a, b) => net.restore_link(a, b),
        Fault::Restart(n) => net.restart_node(n),
    }
}

/// Apply one fault to the lowered daemons' fabric, as pipe operations.
pub fn apply_fault_daemon(fabric: &mut Fabric<Node>, fault: &Fault) {
    match *fault {
        Fault::LinkDown(a, b) => fabric.fail_link(a, b),
        Fault::LinkRestore(a, b) => fabric.restore_link(a, b),
        Fault::Restart(n) => fabric.restart(n),
    }
}

// ----- JSON fixtures ---------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Serialize a scenario for a divergence fixture.
pub fn scenario_to_json(scenario: &Scenario) -> Value {
    let nodes = scenario
        .nodes
        .iter()
        .map(|n| {
            let mut fields = vec![("asn", Value::UInt(u64::from(n.asn)))];
            if let Some(island) = &n.island {
                fields.push((
                    "island",
                    obj(vec![
                        ("id", Value::UInt(u64::from(island.id))),
                        ("abstraction", Value::Bool(island.abstraction)),
                        ("protocol", Value::UInt(u64::from(island.protocol))),
                    ]),
                ));
            }
            obj(fields)
        })
        .collect();
    let links = scenario
        .links
        .iter()
        .map(|&(a, b, dbgp)| {
            Value::Array(vec![Value::UInt(a as u64), Value::UInt(b as u64), Value::Bool(dbgp)])
        })
        .collect();
    let originations = scenario
        .originations
        .iter()
        .map(|&(n, p)| Value::Array(vec![Value::UInt(n as u64), Value::String(p.to_string())]))
        .collect();
    let faults = scenario
        .faults
        .iter()
        .map(|f| match *f {
            Fault::LinkDown(a, b) => obj(vec![
                ("kind", Value::String("link_down".into())),
                ("a", Value::UInt(a as u64)),
                ("b", Value::UInt(b as u64)),
            ]),
            Fault::LinkRestore(a, b) => obj(vec![
                ("kind", Value::String("link_restore".into())),
                ("a", Value::UInt(a as u64)),
                ("b", Value::UInt(b as u64)),
            ]),
            Fault::Restart(n) => obj(vec![
                ("kind", Value::String("restart".into())),
                ("node", Value::UInt(n as u64)),
            ]),
        })
        .collect();
    obj(vec![
        ("nodes", Value::Array(nodes)),
        ("links", Value::Array(links)),
        ("originations", Value::Array(originations)),
        ("faults", Value::Array(faults)),
    ])
}

/// Deserialize a fixture back into a scenario. Returns `None` on any
/// malformed field (fixtures are hand-editable).
pub fn scenario_from_json(value: &Value) -> Option<Scenario> {
    let nodes = value
        .get("nodes")?
        .as_array()?
        .iter()
        .map(|n| {
            let asn = n.get("asn")?.as_u64()? as u32;
            let island = match n.get("island") {
                None => None,
                Some(island) => Some(IslandSpec {
                    id: island.get("id")?.as_u64()? as u32,
                    abstraction: island.get("abstraction")?.as_bool()?,
                    protocol: island.get("protocol")?.as_u64()? as u16,
                }),
            };
            Some(NodeSpec { asn, island })
        })
        .collect::<Option<Vec<_>>>()?;
    let links = value
        .get("links")?
        .as_array()?
        .iter()
        .map(|l| {
            let l = l.as_array()?;
            Some((
                l.first()?.as_u64()? as usize,
                l.get(1)?.as_u64()? as usize,
                l.get(2)?.as_bool()?,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    let originations = value
        .get("originations")?
        .as_array()?
        .iter()
        .map(|o| {
            let o = o.as_array()?;
            let node = o.first()?.as_u64()? as usize;
            let prefix: Ipv4Prefix = o.get(1)?.as_str()?.parse().ok()?;
            Some((node, prefix))
        })
        .collect::<Option<Vec<_>>>()?;
    let faults = value
        .get("faults")?
        .as_array()?
        .iter()
        .map(|f| match f.get("kind")?.as_str()? {
            "link_down" => Some(Fault::LinkDown(
                f.get("a")?.as_u64()? as usize,
                f.get("b")?.as_u64()? as usize,
            )),
            "link_restore" => Some(Fault::LinkRestore(
                f.get("a")?.as_u64()? as usize,
                f.get("b")?.as_u64()? as usize,
            )),
            "restart" => Some(Fault::Restart(f.get("node")?.as_u64()? as usize)),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Scenario { nodes, links, originations, faults })
}
