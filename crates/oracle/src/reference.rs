//! The reference model: a deliberately naive re-implementation of the
//! D-BGP pipeline (DESIGN.md §3–§5 semantics) used as the executable
//! oracle for the production engine.
//!
//! Everything here is written for obviousness, not speed: full `Ia`
//! clones at every step, no `Arc` sharing, no encode caching, no
//! interning, and hand-rolled re-implementations of the path-vector
//! helpers (`prepend`, membership declaration, island abstraction,
//! stripping) straight from the design document. The only code shared
//! with production is the `Ia` data type itself (the comparison target)
//! and the `dbgp-crypto` primitives (HMAC chains are not part of the
//! semantics under test).
//!
//! [`RefNet`] mirrors the simulator's session machinery — neighbor-ID
//! allocation order, link/teardown/restart ordering, FIFO delivery —
//! so that a differential run against `dbgp-sim` compares states that
//! evolved through the same event sequence.

use dbgp_crypto::{AttestationChain, KeyRegistry};
use dbgp_wire::ia::{dkey, IslandDescriptor, IslandMembership, PathDescriptor};
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, IslandId, PathElem, ProtocolId};
use std::collections::{BTreeMap, VecDeque};

/// A deliberate semantic break injected into the reference BGP rung,
/// used by the harness's negative tests to prove a divergence in the
/// decision process is actually caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// Faithful reference semantics.
    #[default]
    None,
    /// Drop the neighbor-AS tie-break from the baseline BGP selection.
    IgnoreNeighborAs,
    /// Prefer *longer* paths (inverted first rung).
    PreferLongerPaths,
}

// ----- naive Ia helpers (re-implemented, not delegated) ----------------

/// Path length: every element (AS, island, AS-set) counts one hop.
pub fn ref_hop_count(ia: &Ia) -> usize {
    ia.path_vector.len()
}

fn ref_contains_as(ia: &Ia, asn: u32) -> bool {
    ia.path_vector.iter().any(|e| match e {
        PathElem::As(a) => *a == asn,
        PathElem::AsSet(ases) => ases.contains(&asn),
        PathElem::Island(_) => false,
    })
}

fn ref_contains_island(ia: &Ia, island: IslandId) -> bool {
    ia.path_vector.iter().any(|e| matches!(e, PathElem::Island(i) if *i == island))
        || ia.memberships().iter().any(|m| m.island == island)
}

fn ref_island_of(ia: &Ia, idx: u16) -> Option<IslandId> {
    if let Some(PathElem::Island(id)) = ia.path_vector.get(idx as usize) {
        return Some(*id);
    }
    ia.memberships().iter().find(|m| m.start <= idx && idx < m.end).map(|m| m.island)
}

fn ref_prepend_as(ia: &mut Ia, asn: u32) {
    ia.path_vector.insert(0, PathElem::As(asn));
    ia.with_records(|r| {
        for m in &mut r.memberships {
            m.start += 1;
            m.end += 1;
        }
    });
}

fn ref_declare_own_membership(ia: &mut Ia, island: IslandId) -> Result<(), ()> {
    let upstream = ia.memberships().iter().position(|m| m.island == island && m.start == 1);
    if let Some(i) = upstream {
        ia.with_records(|r| r.memberships[i].start = 0);
        return Ok(());
    }
    if ia.path_vector.is_empty() {
        return Err(());
    }
    ia.with_records(|r| r.memberships.push(IslandMembership { island, start: 0, end: 1 }));
    Ok(())
}

fn ref_abstract_island(ia: &mut Ia, island: IslandId, count: u16) -> Result<(), ()> {
    let count = count as usize;
    if count > ia.path_vector.len() {
        return Err(());
    }
    ia.path_vector.splice(0..count, [PathElem::Island(island)]);
    let removed = count as i32 - 1;
    ia.with_records(|r| {
        r.memberships.retain(|m| m.start as usize >= count);
        for m in &mut r.memberships {
            m.start = (m.start as i32 - removed) as u16;
            m.end = (m.end as i32 - removed) as u16;
        }
        r.memberships.push(IslandMembership { island, start: 0, end: 1 });
    });
    Ok(())
}

fn ref_retain_protocols(ia: &mut Ia, keep: &[ProtocolId]) {
    ia.with_records(|r| {
        r.path_descriptors.retain(|d| d.protocols.iter().any(|p| keep.contains(p)));
        r.island_descriptors.retain(|d| keep.contains(&d.protocol));
        r.unknown_records.clear();
    });
}

fn ref_strip_protocols(ia: &mut Ia, remove: &[ProtocolId]) {
    ia.with_records(|r| {
        for d in &mut r.path_descriptors {
            d.protocols.retain(|p| !remove.contains(p));
        }
        r.path_descriptors.retain(|d| !d.protocols.is_empty());
        r.island_descriptors.retain(|d| !remove.contains(&d.protocol));
    });
}

fn ref_validate(ia: &Ia) -> Result<(), ()> {
    let len = ia.path_vector.len() as u16;
    for m in ia.memberships() {
        if m.start >= m.end || m.end > len {
            return Err(());
        }
    }
    for d in ia.path_descriptors() {
        if d.protocols.is_empty() {
            return Err(());
        }
    }
    Ok(())
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn read_u64_be(value: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(value.try_into().ok()?))
}

fn descriptor_u64(ia: &Ia, protocol: ProtocolId, key: u16) -> Option<u64> {
    let d = ia.path_descriptors().iter().find(|d| d.owned_by(protocol) && d.key == key)?;
    read_u64_be(&d.value)
}

fn set_descriptor(ia: &mut Ia, protocol: ProtocolId, key: u16, value: Vec<u8>) {
    ia.with_records(|r| {
        r.path_descriptors.retain(|d| !(d.owned_by(protocol) && d.key == key));
        r.path_descriptors.push(PathDescriptor::new(protocol, key, value));
    });
}

fn path_ases(ia: &Ia) -> Vec<u32> {
    ia.path_vector
        .iter()
        .filter_map(|e| match e {
            PathElem::As(a) => Some(*a),
            _ => None,
        })
        .collect()
}

// ----- decision modules ------------------------------------------------

/// One candidate as the reference modules see it.
#[derive(Debug, Clone)]
pub struct RefCandidate {
    /// Neighbor ID (mirrors production's monotonic per-node counter).
    pub neighbor: u32,
    /// The neighbor's AS number.
    pub neighbor_as: u32,
    /// A full clone of the stored incoming IA.
    pub ia: Ia,
}

/// The pure AS-number sequence of a path vector; `None` when the path
/// contains island abstractions or AS-sets (mirrors
/// `dbgp_protocols::ranked::as_sequence` — gadget policies only rank
/// concrete AS paths).
fn ranked_sequence(ia: &Ia) -> Option<Vec<u32>> {
    ia.path_vector
        .iter()
        .map(|e| match e {
            PathElem::As(a) => Some(*a),
            PathElem::Island(_) | PathElem::AsSet(_) => None,
        })
        .collect()
}

/// Naive mirrors of every production decision module.
#[derive(Debug, Clone)]
pub enum RefModule {
    /// Baseline BGP: shortest path, lowest neighbor AS, lowest neighbor.
    Bgp,
    /// Explicit per-node path ranking (the stability gadget override).
    /// Registers under the baseline's protocol ID, replacing plain BGP
    /// selection — mirrors `dbgp_protocols::RankedPolicyModule`.
    Ranked {
        /// AS-path sequences, most preferred first; unlisted paths rank
        /// below every listed one and fall back to baseline order.
        prefs: Vec<Vec<u32>>,
    },
    /// Wiser path-cost selection (OOB scaling fixed at 1.0 — the
    /// differential scenarios never exchange cost reports).
    Wiser {
        /// The Wiser island.
        island: IslandId,
        /// Portal address attached as an island descriptor.
        portal: Ipv4Addr,
        /// Cost added at every export.
        internal_cost: u64,
        /// Last chosen upstream AS per prefix (feeds export scaling).
        chosen_source: BTreeMap<Ipv4Prefix, u32>,
    },
    /// R-BGP: BGP-like selection plus a staged maximally-disjoint backup.
    Rbgp {
        /// Failover path per prefix, recorded at selection time.
        failover: BTreeMap<Ipv4Prefix, Vec<u32>>,
    },
    /// EQ-BGP bottleneck bandwidth (widest path).
    Eqbgp {
        /// Our ingress bandwidth, folded into exports.
        ingress_bw: u64,
    },
    /// SCION-like path-count maximization.
    Scion {
        /// Our island.
        island: IslandId,
        /// The within-island paths we expose.
        own_paths: Vec<Vec<u32>>,
    },
    /// MIRO: BGP selection plus a portal island descriptor.
    Miro {
        /// Our island.
        island: IslandId,
        /// Portal address.
        portal: Ipv4Addr,
    },
    /// HLP cost accumulation (empty LSDB: internal distance is zero).
    Hlp {
        /// Cost added at every export.
        internal_cost: u64,
    },
    /// Pathlet routing: prefer the IA exposing the most pathlets.
    Pathlet {
        /// Our island.
        island: IslandId,
        /// Own pathlets as (fid, from-router, to-router) triples.
        own_pathlets: Vec<(u32, u32, u32)>,
    },
    /// BGPSec-lite monitor/enforce attestation chains.
    Bgpsec {
        /// Our AS (chain target check).
        local_as: u32,
        /// Shared trust anchor.
        registry: KeyRegistry,
        /// Enforce mode drops unverifiable candidates.
        enforce: bool,
    },
    /// Address-map evolution module. Registers under the baseline's
    /// protocol ID, so it *replaces* plain BGP selection — including
    /// the quirk that its tie-break stops at neighbor AS.
    AddrMap {
        /// Our island.
        island: IslandId,
        /// Lookup-service address.
        service: Ipv4Addr,
    },
}

/// Chain verification rank, mirroring `dbgp_protocols::bgpsec::verify`.
fn bgpsec_rank(ia: &Ia, registry: &mut KeyRegistry, local_as: u32) -> u8 {
    let Some(d) = ia
        .path_descriptors()
        .iter()
        .find(|d| d.owned_by(ProtocolId::BGPSEC) && d.key == dkey::BGPSEC_ATTESTATION)
    else {
        return 1; // absent
    };
    let Some(chain) = AttestationChain::from_bytes(&d.value) else { return 2 };
    if chain.hops.is_empty() {
        return 1;
    }
    let subject = ia.prefix.to_string().into_bytes();
    if chain.verify(registry, &subject).is_err() {
        return 2;
    }
    if chain.hops.last().map(|h| h.target) != Some(local_as) {
        return 2;
    }
    let mut trailing: Vec<u32> = ia
        .path_vector
        .iter()
        .rev()
        .map_while(|e| match e {
            PathElem::As(asn) => Some(*asn),
            _ => None,
        })
        .collect();
    trailing.truncate(chain.hops.len());
    if trailing.len() < chain.hops.len() {
        return 2;
    }
    for (hop, asn) in chain.hops.iter().zip(trailing.iter()) {
        if hop.signer != *asn {
            return 2;
        }
    }
    0 // valid
}

impl RefModule {
    /// The protocol this module registers under.
    pub fn protocol(&self) -> ProtocolId {
        match self {
            RefModule::Bgp | RefModule::Ranked { .. } | RefModule::AddrMap { .. } => {
                ProtocolId::BGP
            }
            RefModule::Wiser { .. } => ProtocolId::WISER,
            RefModule::Rbgp { .. } => ProtocolId::RBGP,
            RefModule::Eqbgp { .. } => ProtocolId::EQBGP,
            RefModule::Scion { .. } => ProtocolId::SCION,
            RefModule::Miro { .. } => ProtocolId::MIRO,
            RefModule::Hlp { .. } => ProtocolId::HLP,
            RefModule::Pathlet { .. } => ProtocolId::PATHLET,
            RefModule::Bgpsec { .. } => ProtocolId::BGPSEC,
        }
    }

    fn accept(&mut self, cand: &RefCandidate) -> bool {
        match self {
            RefModule::Bgpsec { local_as, registry, enforce } => {
                if !*enforce {
                    return true;
                }
                bgpsec_rank(&cand.ia, registry, *local_as) == 0
            }
            _ => true,
        }
    }

    fn select_best(
        &mut self,
        prefix: Ipv4Prefix,
        cands: &[RefCandidate],
        mutation: Mutation,
    ) -> Option<usize> {
        match self {
            RefModule::Bgp => match mutation {
                Mutation::None => cands
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| (ref_hop_count(&c.ia), c.neighbor_as, c.neighbor))
                    .map(|(i, _)| i),
                Mutation::IgnoreNeighborAs => cands
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| (ref_hop_count(&c.ia), c.neighbor))
                    .map(|(i, _)| i),
                Mutation::PreferLongerPaths => cands
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| {
                        (usize::MAX - ref_hop_count(&c.ia), c.neighbor_as, c.neighbor)
                    })
                    .map(|(i, _)| i),
            },
            RefModule::Ranked { prefs } => cands
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| {
                    let rank = ranked_sequence(&c.ia)
                        .and_then(|seq| prefs.iter().position(|p| *p == seq))
                        .unwrap_or(prefs.len());
                    (rank, ref_hop_count(&c.ia), c.neighbor_as, c.neighbor)
                })
                .map(|(i, _)| i),
            RefModule::AddrMap { .. } => cands
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| (ref_hop_count(&c.ia), c.neighbor_as))
                .map(|(i, _)| i),
            RefModule::Wiser { chosen_source, .. } => {
                let best = cands
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| {
                        let cost = descriptor_u64(&c.ia, ProtocolId::WISER, dkey::WISER_PATH_COST)
                            .unwrap_or(u64::MAX);
                        (cost, ref_hop_count(&c.ia), c.neighbor_as)
                    })
                    .map(|(i, _)| i)?;
                chosen_source.insert(prefix, cands[best].neighbor_as);
                Some(best)
            }
            RefModule::Rbgp { failover } => {
                let best = cands
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| (ref_hop_count(&c.ia), c.neighbor_as))
                    .map(|(i, _)| i)?;
                let primary = path_ases(&cands[best].ia);
                let runner_up = cands
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != best)
                    .map(|(_, c)| path_ases(&c.ia))
                    .min_by_key(|b| {
                        let overlap = b.iter().filter(|a| primary.contains(a)).count();
                        (overlap, b.len())
                    });
                let staged = runner_up.or_else(|| {
                    let d = cands[best]
                        .ia
                        .path_descriptors()
                        .iter()
                        .find(|d| d.owned_by(ProtocolId::RBGP) && d.key == dkey::RBGP_BACKUP)?;
                    decode_varint_list(&d.value)
                });
                match staged {
                    Some(b) => {
                        failover.insert(prefix, b);
                    }
                    None => {
                        failover.remove(&prefix);
                    }
                }
                Some(best)
            }
            RefModule::Eqbgp { .. } => cands
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| {
                    let bw = descriptor_u64(&c.ia, ProtocolId::EQBGP, dkey::EQBGP_BOTTLENECK_BW)
                        .unwrap_or(0);
                    (bw, std::cmp::Reverse(ref_hop_count(&c.ia)), std::cmp::Reverse(c.neighbor_as))
                })
                .map(|(i, _)| i),
            RefModule::Scion { .. } => cands
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| {
                    (
                        scion_total_paths(&c.ia),
                        std::cmp::Reverse(ref_hop_count(&c.ia)),
                        std::cmp::Reverse(c.neighbor_as),
                    )
                })
                .map(|(i, _)| i),
            RefModule::Miro { .. } => cands
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| (ref_hop_count(&c.ia), c.neighbor_as))
                .map(|(i, _)| i),
            RefModule::Hlp { .. } => cands
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| {
                    let cost = descriptor_u64(&c.ia, ProtocolId::HLP, 30).unwrap_or(0);
                    (cost, ref_hop_count(&c.ia), c.neighbor_as)
                })
                .map(|(i, _)| i),
            RefModule::Pathlet { .. } => cands
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| {
                    (
                        pathlet_count(&c.ia),
                        std::cmp::Reverse(ref_hop_count(&c.ia)),
                        std::cmp::Reverse(c.neighbor_as),
                    )
                })
                .map(|(i, _)| i),
            RefModule::Bgpsec { local_as, registry, .. } => cands
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| {
                    (bgpsec_rank(&c.ia, registry, *local_as), ref_hop_count(&c.ia), c.neighbor_as)
                })
                .map(|(i, _)| i),
        }
    }

    fn export(&mut self, ia: &mut Ia, prefix: Ipv4Prefix, neighbor_as: u32, local_as: u32) {
        match self {
            RefModule::Bgp | RefModule::Ranked { .. } => {}
            RefModule::AddrMap { island, service } => {
                attach_island_descriptor_once(
                    ia,
                    *island,
                    ProtocolId::BGP,
                    dkey::ADDR_LOOKUP_SERVICE,
                    service.octets().to_vec(),
                    false,
                );
            }
            RefModule::Wiser { island, portal, internal_cost, chosen_source } => {
                let incoming =
                    descriptor_u64(ia, ProtocolId::WISER, dkey::WISER_PATH_COST).unwrap_or(0);
                // Scaling factor is fixed at 1.0: no OOB cost reports
                // flow in differential scenarios.
                let _source = chosen_source.get(&prefix).copied().unwrap_or(0);
                let outgoing = incoming.saturating_add(*internal_cost);
                set_descriptor(
                    ia,
                    ProtocolId::WISER,
                    dkey::WISER_PATH_COST,
                    outgoing.to_be_bytes().to_vec(),
                );
                attach_island_descriptor_once(
                    ia,
                    *island,
                    ProtocolId::WISER,
                    dkey::WISER_PORTAL,
                    portal.octets().to_vec(),
                    true,
                );
            }
            RefModule::Rbgp { failover } => {
                if let Some(backup) = failover.get(&prefix) {
                    let mut value = Vec::new();
                    put_varint(&mut value, backup.len() as u64);
                    for asn in backup {
                        put_varint(&mut value, *asn as u64);
                    }
                    set_descriptor(ia, ProtocolId::RBGP, dkey::RBGP_BACKUP, value);
                }
            }
            RefModule::Eqbgp { ingress_bw } => {
                let incoming = descriptor_u64(ia, ProtocolId::EQBGP, dkey::EQBGP_BOTTLENECK_BW)
                    .unwrap_or(u64::MAX);
                set_descriptor(
                    ia,
                    ProtocolId::EQBGP,
                    dkey::EQBGP_BOTTLENECK_BW,
                    incoming.min(*ingress_bw).to_be_bytes().to_vec(),
                );
            }
            RefModule::Scion { island, own_paths } => {
                if !own_paths.is_empty() {
                    attach_island_descriptor_once(
                        ia,
                        *island,
                        ProtocolId::SCION,
                        dkey::SCION_PATHS,
                        encode_path_set(own_paths),
                        true,
                    );
                }
            }
            RefModule::Miro { island, portal } => {
                attach_island_descriptor_once(
                    ia,
                    *island,
                    ProtocolId::MIRO,
                    dkey::MIRO_PORTAL,
                    portal.octets().to_vec(),
                    true,
                );
            }
            RefModule::Hlp { internal_cost } => {
                let incoming = descriptor_u64(ia, ProtocolId::HLP, 30).unwrap_or(0);
                set_descriptor(
                    ia,
                    ProtocolId::HLP,
                    30,
                    incoming.saturating_add(*internal_cost).to_be_bytes().to_vec(),
                );
            }
            RefModule::Pathlet { island, own_pathlets } => {
                let already = ia.island_descriptors().iter().any(|d| {
                    d.protocol == ProtocolId::PATHLET
                        && d.island == *island
                        && d.key == dkey::PATHLET_PATHLETS
                });
                if !already && !own_pathlets.is_empty() {
                    ia.with_records(|r| {
                        r.island_descriptors.push(IslandDescriptor::new(
                            *island,
                            ProtocolId::PATHLET,
                            dkey::PATHLET_PATHLETS,
                            encode_pathlet_triples(own_pathlets),
                        ))
                    });
                }
            }
            RefModule::Bgpsec { registry, .. } => {
                let chain = ia
                    .path_descriptors()
                    .iter()
                    .find(|d| d.owned_by(ProtocolId::BGPSEC) && d.key == dkey::BGPSEC_ATTESTATION)
                    .and_then(|d| AttestationChain::from_bytes(&d.value));
                let mut chain = chain.unwrap_or_default();
                let subject = ia.prefix.to_string().into_bytes();
                chain.sign(registry, local_as, neighbor_as, &subject);
                set_descriptor(ia, ProtocolId::BGPSEC, dkey::BGPSEC_ATTESTATION, chain.to_bytes());
            }
        }
    }

    fn decorate_origin(&mut self, ia: &mut Ia, _local_as: u32) {
        match self {
            RefModule::Bgp
            | RefModule::Ranked { .. }
            | RefModule::Rbgp { .. }
            | RefModule::Bgpsec { .. } => {}
            RefModule::AddrMap { island, service } => {
                attach_island_descriptor_once(
                    ia,
                    *island,
                    ProtocolId::BGP,
                    dkey::ADDR_LOOKUP_SERVICE,
                    service.octets().to_vec(),
                    false,
                );
            }
            RefModule::Wiser { island, portal, .. } => {
                set_descriptor(
                    ia,
                    ProtocolId::WISER,
                    dkey::WISER_PATH_COST,
                    0u64.to_be_bytes().to_vec(),
                );
                attach_island_descriptor_once(
                    ia,
                    *island,
                    ProtocolId::WISER,
                    dkey::WISER_PORTAL,
                    portal.octets().to_vec(),
                    true,
                );
            }
            RefModule::Eqbgp { ingress_bw } => {
                set_descriptor(
                    ia,
                    ProtocolId::EQBGP,
                    dkey::EQBGP_BOTTLENECK_BW,
                    ingress_bw.to_be_bytes().to_vec(),
                );
            }
            RefModule::Scion { island, own_paths } => {
                if !own_paths.is_empty() {
                    attach_island_descriptor_once(
                        ia,
                        *island,
                        ProtocolId::SCION,
                        dkey::SCION_PATHS,
                        encode_path_set(own_paths),
                        true,
                    );
                }
            }
            RefModule::Miro { island, portal } => {
                attach_island_descriptor_once(
                    ia,
                    *island,
                    ProtocolId::MIRO,
                    dkey::MIRO_PORTAL,
                    portal.octets().to_vec(),
                    true,
                );
            }
            RefModule::Hlp { .. } => {
                set_descriptor(ia, ProtocolId::HLP, 30, 0u64.to_be_bytes().to_vec());
            }
            RefModule::Pathlet { island, own_pathlets } => {
                if !own_pathlets.is_empty() {
                    ia.with_records(|r| {
                        r.island_descriptors.push(IslandDescriptor::new(
                            *island,
                            ProtocolId::PATHLET,
                            dkey::PATHLET_PATHLETS,
                            encode_pathlet_triples(own_pathlets),
                        ))
                    });
                }
            }
        }
    }
}

/// Attach an island descriptor if one for (island, key) is not already
/// present. `match_protocol` mirrors the subtle production difference:
/// most modules scope the existence check to their own protocol, while
/// the address-map module scans every descriptor.
fn attach_island_descriptor_once(
    ia: &mut Ia,
    island: IslandId,
    protocol: ProtocolId,
    key: u16,
    value: Vec<u8>,
    match_protocol: bool,
) {
    let exists = ia
        .island_descriptors()
        .iter()
        .any(|d| d.island == island && d.key == key && (!match_protocol || d.protocol == protocol));
    if !exists {
        ia.with_records(|r| {
            r.island_descriptors.push(IslandDescriptor::new(island, protocol, key, value))
        });
    }
}

fn decode_varint_list(value: &[u8]) -> Option<Vec<u32>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    let read = |pos: &mut usize| -> Option<u64> {
        let mut v: u64 = 0;
        let mut shift = 0;
        loop {
            let b = *value.get(*pos)?;
            *pos += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
            if shift >= 64 {
                return None;
            }
        }
    };
    let n = read(&mut pos)? as usize;
    if n > value.len() {
        return None;
    }
    for _ in 0..n {
        out.push(read(&mut pos)? as u32);
    }
    if pos != value.len() {
        return None;
    }
    Some(out)
}

fn encode_path_set(paths: &[Vec<u32>]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, paths.len() as u64);
    for path in paths {
        put_varint(&mut out, path.len() as u64);
        for router in path {
            put_varint(&mut out, *router as u64);
        }
    }
    out
}

fn encode_pathlet_triples(pathlets: &[(u32, u32, u32)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, pathlets.len() as u64);
    for (fid, from, to) in pathlets {
        put_varint(&mut out, *fid as u64);
        out.push(0); // router-node tag
        put_varint(&mut out, *from as u64);
        out.push(0);
        put_varint(&mut out, *to as u64);
    }
    out
}

fn scion_total_paths(ia: &Ia) -> usize {
    ia.island_descriptors()
        .iter()
        .filter(|d| d.protocol == ProtocolId::SCION && d.key == dkey::SCION_PATHS)
        .filter_map(|d| {
            let paths = decode_nested_varint_lists(&d.value)?;
            Some(paths.iter().map(|p| p.len().min(10)).map(|_| 1usize).sum::<usize>())
        })
        .sum()
}

/// Decode `count, (len, elems...)...` — the SCION path-set layout.
fn decode_nested_varint_lists(value: &[u8]) -> Option<Vec<Vec<u32>>> {
    let mut pos = 0usize;
    let read = |pos: &mut usize| -> Option<u64> {
        let mut v: u64 = 0;
        let mut shift = 0;
        loop {
            let b = *value.get(*pos)?;
            *pos += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
            if shift >= 64 {
                return None;
            }
        }
    };
    let npaths = read(&mut pos)? as usize;
    if npaths > value.len() {
        return None;
    }
    let mut paths = Vec::with_capacity(npaths);
    for _ in 0..npaths {
        let len = read(&mut pos)? as usize;
        if len > value.len() {
            return None;
        }
        let mut path = Vec::with_capacity(len);
        for _ in 0..len {
            path.push(read(&mut pos)? as u32);
        }
        paths.push(path);
    }
    if pos != value.len() {
        return None;
    }
    Some(paths)
}

fn pathlet_count(ia: &Ia) -> usize {
    ia.island_descriptors()
        .iter()
        .filter(|d| d.protocol == ProtocolId::PATHLET && d.key == dkey::PATHLET_PATHLETS)
        .filter_map(|d| {
            // Count field is the leading varint; malformed payloads
            // contribute nothing (mirrors `decode_pathlets` failing).
            decode_pathlet_count(&d.value)
        })
        .sum()
}

fn decode_pathlet_count(value: &[u8]) -> Option<usize> {
    let mut pos = 0usize;
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let b = *value.get(pos)?;
        pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
    let n = v as usize;
    if n > value.len() {
        return None;
    }
    // Walk the triples to verify the payload parses, like production's
    // `decode_pathlets` (which returns None on any malformed element).
    let read = |pos: &mut usize| -> Option<u64> {
        let mut v: u64 = 0;
        let mut shift = 0;
        loop {
            let b = *value.get(*pos)?;
            *pos += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
            if shift >= 64 {
                return None;
            }
        }
    };
    for _ in 0..n {
        read(&mut pos)?; // fid
        for _ in 0..2 {
            let tag = *value.get(pos)?;
            pos += 1;
            if tag != 0 {
                return None; // only router nodes appear in scenarios
            }
            read(&mut pos)?;
        }
    }
    if pos != value.len() {
        return None;
    }
    Some(n)
}

// ----- the speaker -----------------------------------------------------

/// Island configuration (mirrors `dbgp_core::IslandConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefIsland {
    /// The island ID.
    pub id: IslandId,
    /// Abstract intra-island hops at egress.
    pub abstraction: bool,
}

/// Speaker configuration (mirrors `dbgp_core::DbgpConfig`, minus
/// active-protocol overrides, which scenarios do not use).
#[derive(Debug, Clone)]
pub struct RefConfig {
    /// Our AS number.
    pub asn: u32,
    /// Island membership, if any.
    pub island: Option<RefIsland>,
    /// Protocols this operator strips at import and export.
    pub strip_protocols: Vec<ProtocolId>,
    /// Drop all non-baseline information at export.
    pub baseline_only_export: bool,
    /// The active selection protocol.
    pub active: ProtocolId,
}

impl RefConfig {
    /// A plain gulf AS.
    pub fn gulf(asn: u32) -> Self {
        RefConfig {
            asn,
            island: None,
            strip_protocols: Vec::new(),
            baseline_only_export: false,
            active: ProtocolId::BGP,
        }
    }

    /// An island member running `active`.
    pub fn island_member(asn: u32, island: RefIsland, active: ProtocolId) -> Self {
        RefConfig {
            asn,
            island: Some(island),
            strip_protocols: Vec::new(),
            baseline_only_export: false,
            active,
        }
    }
}

/// A neighbor session (mirrors `dbgp_core::DbgpNeighbor`).
#[derive(Debug, Clone, Copy)]
pub struct RefNeighbor {
    /// The neighbor's AS number.
    pub asn: u32,
    /// Whether the neighbor speaks D-BGP (legacy peers get stripped IAs).
    pub speaks_dbgp: bool,
    /// Whether the adjacency stays inside our island.
    pub same_island: bool,
}

/// The installed best path (full clone; no sharing).
#[derive(Debug, Clone, PartialEq)]
pub struct RefChosen {
    /// Winning neighbor ID; `None` for locally originated prefixes.
    pub neighbor: Option<u32>,
    /// The winning incoming IA.
    pub ia: Ia,
}

/// Speaker outputs (mirrors `dbgp_core::DbgpOutput`).
#[derive(Debug, Clone)]
pub enum RefOutput {
    /// Advertise to a neighbor.
    SendIa(u32, Ia),
    /// Withdraw from a neighbor.
    SendWithdraw(u32, Ipv4Prefix),
    /// Local best-path change.
    BestChanged(Ipv4Prefix, Option<RefChosen>),
    /// Import-filter rejection.
    Rejected(u32, Ipv4Prefix),
}

/// The naive reference speaker: the Figure 5 pipeline with plain maps
/// and full clones everywhere.
#[derive(Clone)]
pub struct RefSpeaker {
    cfg: RefConfig,
    neighbors: BTreeMap<u32, RefNeighbor>,
    modules: BTreeMap<u16, RefModule>,
    adj_in: BTreeMap<u32, BTreeMap<Ipv4Prefix, Ia>>,
    loc: BTreeMap<Ipv4Prefix, RefChosen>,
    originated: BTreeMap<Ipv4Prefix, Ia>,
    adj_out: BTreeMap<(u32, Ipv4Prefix), Ia>,
    mutation: Mutation,
}

impl RefSpeaker {
    /// Create a speaker with the baseline module pre-registered.
    pub fn new(cfg: RefConfig) -> Self {
        let mut speaker = RefSpeaker {
            cfg,
            neighbors: BTreeMap::new(),
            modules: BTreeMap::new(),
            adj_in: BTreeMap::new(),
            loc: BTreeMap::new(),
            originated: BTreeMap::new(),
            adj_out: BTreeMap::new(),
            mutation: Mutation::None,
        };
        speaker.register_module(RefModule::Bgp);
        speaker
    }

    /// Our AS number.
    pub fn asn(&self) -> u32 {
        self.cfg.asn
    }

    /// Inject a deliberate decision-process break (negative tests).
    pub fn set_mutation(&mut self, mutation: Mutation) {
        self.mutation = mutation;
    }

    /// Register a decision module (replacing any previous one for the
    /// same protocol — including the baseline, for `AddrMap`).
    pub fn register_module(&mut self, module: RefModule) {
        self.modules.insert(module.protocol().0, module);
    }

    /// The installed best path for a prefix.
    pub fn best(&self, prefix: &Ipv4Prefix) -> Option<&RefChosen> {
        self.loc.get(prefix)
    }

    /// All Adj-RIB-In entries for a prefix, neighbor order.
    pub fn adj_in(&self, prefix: &Ipv4Prefix) -> Vec<(u32, &Ia)> {
        self.adj_in.iter().filter_map(|(n, m)| m.get(prefix).map(|ia| (*n, ia))).collect()
    }

    /// Add a neighbor and produce the full-table transfer.
    pub fn add_neighbor(&mut self, id: u32, neighbor: RefNeighbor) -> Vec<RefOutput> {
        self.neighbors.insert(id, neighbor);
        let prefixes: Vec<Ipv4Prefix> = self.loc.keys().copied().collect();
        let mut out = Vec::new();
        for prefix in prefixes {
            self.propagate_to(id, prefix, &mut out);
        }
        out
    }

    /// Remove a neighbor: flush its IAs and re-decide.
    pub fn neighbor_down(&mut self, id: u32) -> Vec<RefOutput> {
        self.neighbors.remove(&id);
        self.adj_out.retain(|(n, _), _| *n != id);
        let prefixes: Vec<Ipv4Prefix> =
            self.adj_in.remove(&id).map(|m| m.into_keys().collect()).unwrap_or_default();
        let mut out = Vec::new();
        for prefix in prefixes {
            self.redecide(prefix, &mut out);
        }
        out
    }

    /// Originate a prefix, letting every resident module decorate it.
    pub fn originate(&mut self, prefix: Ipv4Prefix, next_hop: Ipv4Addr) -> Vec<RefOutput> {
        let mut ia = Ia::originate(prefix, next_hop);
        let local_as = self.cfg.asn;
        for module in self.modules.values_mut() {
            module.decorate_origin(&mut ia, local_as);
        }
        self.originate_ia(ia)
    }

    /// Originate a hand-built IA as it stands.
    pub fn originate_ia(&mut self, ia: Ia) -> Vec<RefOutput> {
        let prefix = ia.prefix;
        self.originated.insert(prefix, ia);
        let mut out = Vec::new();
        self.redecide(prefix, &mut out);
        out
    }

    /// Stop originating a prefix.
    pub fn withdraw_origin(&mut self, prefix: Ipv4Prefix) -> Vec<RefOutput> {
        let mut out = Vec::new();
        if self.originated.remove(&prefix).is_some() {
            self.redecide(prefix, &mut out);
        }
        out
    }

    /// Pipeline steps 1–7 for one received IA.
    pub fn receive_ia(&mut self, from: u32, mut ia: Ia) -> Vec<RefOutput> {
        let mut out = Vec::new();
        if !self.neighbors.contains_key(&from) {
            return out;
        }
        // (1) Global import: AS loop, island re-entry, operator strip.
        if ref_contains_as(&ia, self.cfg.asn) {
            out.push(RefOutput::Rejected(from, ia.prefix));
            if self.adj_in.get_mut(&from).and_then(|m| m.remove(&ia.prefix)).is_some() {
                self.redecide(ia.prefix, &mut out);
            }
            return out;
        }
        if let Some(island) = self.cfg.island {
            if ref_contains_island(&ia, island.id) && ref_island_of(&ia, 0) != Some(island.id) {
                out.push(RefOutput::Rejected(from, ia.prefix));
                if self.adj_in.get_mut(&from).and_then(|m| m.remove(&ia.prefix)).is_some() {
                    self.redecide(ia.prefix, &mut out);
                }
                return out;
            }
        }
        if !self.cfg.strip_protocols.is_empty() {
            ref_strip_protocols(&mut ia, &self.cfg.strip_protocols.clone());
        }
        let prefix = ia.prefix;
        // (2) Store.
        self.adj_in.entry(from).or_default().insert(prefix, ia);
        // (3)–(7) Decide, build, send — with export re-evaluation even
        // when the best path is unchanged (module state may differ).
        let changed = self.redecide(prefix, &mut out);
        if !changed {
            self.propagate_all(prefix, &mut out);
        }
        out
    }

    /// Process a withdrawal.
    pub fn receive_withdraw(&mut self, from: u32, prefix: Ipv4Prefix) -> Vec<RefOutput> {
        let mut out = Vec::new();
        if self.adj_in.get_mut(&from).and_then(|m| m.remove(&prefix)).is_some() {
            let changed = self.redecide(prefix, &mut out);
            if !changed {
                self.propagate_all(prefix, &mut out);
            }
        }
        out
    }

    fn redecide(&mut self, prefix: Ipv4Prefix, out: &mut Vec<RefOutput>) -> bool {
        let new_chosen = self.select(prefix);
        let changed = self.loc.get(&prefix) != new_chosen.as_ref();
        if !changed {
            return false;
        }
        match new_chosen.clone() {
            Some(chosen) => {
                self.loc.insert(prefix, chosen);
            }
            None => {
                self.loc.remove(&prefix);
            }
        }
        out.push(RefOutput::BestChanged(prefix, new_chosen));
        self.propagate_all(prefix, out);
        true
    }

    fn select(&mut self, prefix: Ipv4Prefix) -> Option<RefChosen> {
        if let Some(ia) = self.originated.get(&prefix) {
            return Some(RefChosen { neighbor: None, ia: ia.clone() });
        }
        let active = self.cfg.active;
        let key = if self.modules.contains_key(&active.0) { active.0 } else { ProtocolId::BGP.0 };
        let mutation = self.mutation;
        let neighbors = self.neighbors.clone();
        let module = self.modules.get_mut(&key)?;
        let candidates: Vec<RefCandidate> = self
            .adj_in
            .iter()
            .filter_map(|(n, m)| {
                let asn = neighbors.get(n)?.asn;
                m.get(&prefix).map(|ia| RefCandidate {
                    neighbor: *n,
                    neighbor_as: asn,
                    ia: ia.clone(),
                })
            })
            .filter(|c| module.accept(c))
            .collect();
        let best = module.select_best(prefix, &candidates, mutation)?;
        let winner = &candidates[best];
        Some(RefChosen { neighbor: Some(winner.neighbor), ia: winner.ia.clone() })
    }

    fn propagate_all(&mut self, prefix: Ipv4Prefix, out: &mut Vec<RefOutput>) {
        let ids: Vec<u32> = self.neighbors.keys().copied().collect();
        for id in ids {
            self.propagate_to(id, prefix, out);
        }
    }

    fn propagate_to(&mut self, id: u32, prefix: Ipv4Prefix, out: &mut Vec<RefOutput>) {
        let neighbor = match self.neighbors.get(&id) {
            Some(n) => *n,
            None => return,
        };
        let export = self.loc.get(&prefix).and_then(|chosen| {
            // Split horizon.
            if chosen.neighbor == Some(id) {
                return None;
            }
            Some(chosen.ia.clone())
        });
        match export {
            Some(chosen_ia) => {
                let neighbor_in_island = self.cfg.island.is_some() && neighbor.same_island;
                let built = self.build_outgoing(&chosen_ia, id, neighbor.asn, neighbor_in_island);
                let mut ia = match built {
                    Ok(ia) => ia,
                    Err(()) => return,
                };
                if !neighbor.speaks_dbgp {
                    ref_retain_protocols(&mut ia, &[ProtocolId::BGP]);
                    ia.with_records(|r| {
                        r.memberships.clear();
                        r.island_descriptors.clear();
                    });
                }
                let key = (id, prefix);
                let unchanged = self.adj_out.get(&key).is_some_and(|prev| *prev == ia);
                if !unchanged {
                    self.adj_out.insert(key, ia.clone());
                    out.push(RefOutput::SendIa(id, ia));
                }
            }
            None => {
                if self.adj_out.remove(&(id, prefix)).is_some() {
                    out.push(RefOutput::SendWithdraw(id, prefix));
                }
            }
        }
    }

    /// Append a canonical rendering of this speaker's complete dynamic
    /// state — sessions, Adj-RIB-In, Loc-RIB, originations,
    /// Adj-RIB-Out, and module-internal state — to `out`. Two speakers
    /// with equal renderings behave identically on every future input;
    /// the stability suite's global-state cycle detector relies on
    /// this. Derived `Debug` output over `BTreeMap`s is deterministic,
    /// matching the oracle's obviousness-over-speed charter.
    pub fn state_digest(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.neighbors,
            self.adj_in,
            self.loc,
            self.originated,
            self.adj_out,
            self.modules,
            self.mutation
        );
    }

    /// The IA factory: clone, prepend, drop what may not leave the AS,
    /// declare membership, per-module exports (protocol-ID order),
    /// global export filters, validate.
    fn build_outgoing(
        &mut self,
        chosen: &Ia,
        _neighbor: u32,
        neighbor_as: u32,
        neighbor_in_island: bool,
    ) -> Result<Ia, ()> {
        let mut ia = chosen.clone();
        ref_prepend_as(&mut ia, self.cfg.asn);
        // Every neighbor is another AS: MED and LOCAL_PREF stop here
        // (RFC 4271 §5.1.4, §5.1.5), and only transitive extras go on.
        if let Some(mut bgp) = ia.bgp.take() {
            bgp.med = None;
            bgp.local_pref = None;
            bgp.extras.retain(|a| a.is_transitive());
            if !bgp.extras.is_empty() {
                ia.bgp = Some(bgp);
            }
        }
        if let Some(island) = self.cfg.island {
            ref_declare_own_membership(&mut ia, island.id)?;
        }
        let local_as = self.cfg.asn;
        let prefix = ia.prefix;
        for module in self.modules.values_mut() {
            module.export(&mut ia, prefix, neighbor_as, local_as);
        }
        // Global export: island abstraction, then operator stripping.
        if let Some(island) = self.cfg.island {
            if island.abstraction && !neighbor_in_island {
                let run = ia
                    .memberships()
                    .iter()
                    .filter(|m| m.island == island.id && m.start == 0)
                    .map(|m| m.end)
                    .max()
                    .unwrap_or(0);
                if run > 0 {
                    ia.with_records(|r| {
                        r.memberships.retain(|m| !(m.island == island.id && m.start == 0))
                    });
                    ref_abstract_island(&mut ia, island.id, run)?;
                }
            }
        }
        if self.cfg.baseline_only_export {
            ref_retain_protocols(&mut ia, &[ProtocolId::BGP]);
        } else if !self.cfg.strip_protocols.is_empty() {
            ref_strip_protocols(&mut ia, &self.cfg.strip_protocols.clone());
        }
        ref_validate(&ia)?;
        Ok(ia)
    }
}

// ----- the network -----------------------------------------------------

/// A frame in flight on a directed link.
#[derive(Debug, Clone)]
pub enum RefFrame {
    /// An advertisement.
    Advertise(Ia),
    /// A withdrawal.
    Withdraw(Ipv4Prefix),
}

#[derive(Debug, Clone, Copy)]
struct RefLink {
    up: bool,
    same_island: bool,
    speaks_dbgp: bool,
}

#[derive(Clone)]
struct RefNode {
    speaker: RefSpeaker,
    neighbor_nodes: BTreeMap<u32, usize>,
    ids_by_node: BTreeMap<usize, u32>,
    next_neighbor_id: u32,
    fib: BTreeMap<Ipv4Prefix, Option<usize>>,
    addr: Ipv4Addr,
}

/// The reference network: speakers wired by links, frames queued per
/// directed edge. Delivery order is controllable — global send order
/// (matching the simulator's uniform-delay event queue) for the
/// differential harness, or arbitrary per-link scheduling for the
/// schedule explorer.
#[derive(Clone)]
pub struct RefNet {
    nodes: Vec<RefNode>,
    links: BTreeMap<(usize, usize), RefLink>,
    queues: BTreeMap<(usize, usize), VecDeque<(u64, RefFrame)>>,
    seq: u64,
    deliveries: u64,
}

fn link_key(a: usize, b: usize) -> (usize, usize) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

impl RefNet {
    /// An empty network.
    pub fn new() -> Self {
        RefNet {
            nodes: Vec::new(),
            links: BTreeMap::new(),
            queues: BTreeMap::new(),
            seq: 0,
            deliveries: 0,
        }
    }

    /// Add an AS; its address mirrors the simulator's node-index formula.
    pub fn add_node(&mut self, cfg: RefConfig) -> usize {
        let id = self.nodes.len();
        let addr = Ipv4Addr::new(10, (id >> 8) as u8, (id & 0xff) as u8, 1);
        self.nodes.push(RefNode {
            speaker: RefSpeaker::new(cfg),
            neighbor_nodes: BTreeMap::new(),
            ids_by_node: BTreeMap::new(),
            next_neighbor_id: 0,
            fib: BTreeMap::new(),
            addr,
        });
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node's speaker.
    pub fn speaker(&self, node: usize) -> &RefSpeaker {
        &self.nodes[node].speaker
    }

    /// Mutable speaker access (module registration).
    pub fn speaker_mut(&mut self, node: usize) -> &mut RefSpeaker {
        &mut self.nodes[node].speaker
    }

    /// A node's forwarding table.
    pub fn fib(&self, node: usize) -> &BTreeMap<Ipv4Prefix, Option<usize>> {
        &self.nodes[node].fib
    }

    /// Frames currently queued.
    pub fn pending(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// Total frames delivered so far.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Connect two nodes (both directions, session bring-up in `(a, b)`
    /// then `(b, a)` order, mirroring `Sim::link`).
    pub fn link(&mut self, a: usize, b: usize, same_island: bool) {
        self.link_with(a, b, same_island, true);
    }

    /// Connect with explicit D-BGP capability.
    pub fn link_with(&mut self, a: usize, b: usize, same_island: bool, speaks_dbgp: bool) {
        self.links.insert(link_key(a, b), RefLink { up: true, same_island, speaks_dbgp });
        for (me, peer) in [(a, b), (b, a)] {
            self.establish(me, peer, same_island, speaks_dbgp);
        }
    }

    /// Whether a link exists and is up.
    pub fn link_is_up(&self, a: usize, b: usize) -> bool {
        self.links.get(&link_key(a, b)).is_some_and(|l| l.up)
    }

    /// Fail a link (teardown `(a, b)` then `(b, a)`, like `Sim`).
    pub fn fail_link(&mut self, a: usize, b: usize) {
        match self.links.get_mut(&link_key(a, b)) {
            Some(l) if l.up => l.up = false,
            _ => return,
        }
        for (me, peer) in [(a, b), (b, a)] {
            self.teardown(me, peer);
        }
    }

    /// Restore a failed link.
    pub fn restore_link(&mut self, a: usize, b: usize) {
        let (same_island, speaks_dbgp) = match self.links.get_mut(&link_key(a, b)) {
            Some(l) if !l.up => {
                l.up = true;
                (l.same_island, l.speaks_dbgp)
            }
            _ => return,
        };
        for (me, peer) in [(a, b), (b, a)] {
            self.establish(me, peer, same_island, speaks_dbgp);
        }
    }

    /// Restart a node: tear down every session (link-key order), then
    /// re-establish with fresh neighbor IDs — matching `Sim`'s ordering.
    pub fn restart_node(&mut self, node: usize) {
        let peers: Vec<(usize, bool, bool)> = self
            .links
            .iter()
            .filter(|(&(x, y), l)| l.up && (x == node || y == node))
            .map(|(&(x, y), l)| (if x == node { y } else { x }, l.same_island, l.speaks_dbgp))
            .collect();
        for &(peer, ..) in &peers {
            self.teardown(node, peer);
            self.teardown(peer, node);
        }
        for &(peer, same_island, speaks_dbgp) in &peers {
            self.establish(node, peer, same_island, speaks_dbgp);
            self.establish(peer, node, same_island, speaks_dbgp);
        }
    }

    /// Originate a prefix at a node.
    pub fn originate(&mut self, node: usize, prefix: Ipv4Prefix) {
        let addr = self.nodes[node].addr;
        let outputs = self.nodes[node].speaker.originate(prefix, addr);
        self.handle_outputs(node, outputs);
    }

    /// Originate a hand-built IA at a node.
    pub fn originate_ia(&mut self, node: usize, ia: Ia) {
        let outputs = self.nodes[node].speaker.originate_ia(ia);
        self.handle_outputs(node, outputs);
    }

    /// Withdraw a locally originated prefix.
    pub fn withdraw(&mut self, node: usize, prefix: Ipv4Prefix) {
        let outputs = self.nodes[node].speaker.withdraw_origin(prefix);
        self.handle_outputs(node, outputs);
    }

    fn establish(&mut self, me: usize, peer: usize, same_island: bool, speaks_dbgp: bool) {
        let peer_as = self.nodes[peer].speaker.asn();
        let id = self.nodes[me].next_neighbor_id;
        self.nodes[me].next_neighbor_id += 1;
        self.nodes[me].neighbor_nodes.insert(id, peer);
        self.nodes[me].ids_by_node.insert(peer, id);
        let outputs = self.nodes[me]
            .speaker
            .add_neighbor(id, RefNeighbor { asn: peer_as, speaks_dbgp, same_island });
        self.handle_outputs(me, outputs);
    }

    fn teardown(&mut self, me: usize, peer: usize) {
        let Some(id) = self.nodes[me].ids_by_node.remove(&peer) else { return };
        self.nodes[me].neighbor_nodes.remove(&id);
        self.queues.remove(&(me, peer));
        let outputs = self.nodes[me].speaker.neighbor_down(id);
        self.handle_outputs(me, outputs);
    }

    fn handle_outputs(&mut self, node: usize, outputs: Vec<RefOutput>) {
        for output in outputs {
            match output {
                RefOutput::BestChanged(prefix, chosen) => match chosen {
                    Some(chosen) => {
                        let next = chosen
                            .neighbor
                            .and_then(|n| self.nodes[node].neighbor_nodes.get(&n).copied());
                        self.nodes[node].fib.insert(prefix, next);
                    }
                    None => {
                        self.nodes[node].fib.remove(&prefix);
                    }
                },
                RefOutput::SendIa(neighbor, ia) => {
                    if let Some(&to) = self.nodes[node].neighbor_nodes.get(&neighbor) {
                        let seq = self.seq;
                        self.seq += 1;
                        self.queues
                            .entry((node, to))
                            .or_default()
                            .push_back((seq, RefFrame::Advertise(ia)));
                    }
                }
                RefOutput::SendWithdraw(neighbor, prefix) => {
                    if let Some(&to) = self.nodes[node].neighbor_nodes.get(&neighbor) {
                        let seq = self.seq;
                        self.seq += 1;
                        self.queues
                            .entry((node, to))
                            .or_default()
                            .push_back((seq, RefFrame::Withdraw(prefix)));
                    }
                }
                RefOutput::Rejected(..) => {}
            }
        }
    }

    /// Directed links with at least one queued frame, in link order.
    pub fn deliverable(&self) -> Vec<(usize, usize)> {
        self.queues.iter().filter(|(_, q)| !q.is_empty()).map(|(&k, _)| k).collect()
    }

    /// Deliver the head frame of one directed link. Returns false if the
    /// queue was empty.
    pub fn deliver_from(&mut self, from: usize, to: usize) -> bool {
        let Some(queue) = self.queues.get_mut(&(from, to)) else { return false };
        let Some((_, frame)) = queue.pop_front() else { return false };
        if queue.is_empty() {
            self.queues.remove(&(from, to));
        }
        self.deliveries += 1;
        if !self.links.get(&link_key(from, to)).is_some_and(|l| l.up) {
            return true; // lost on the floor, like the simulator
        }
        let Some(&from_id) = self.nodes[to].ids_by_node.get(&from) else {
            return true; // orphaned delivery
        };
        let outputs = match frame {
            RefFrame::Advertise(ia) => self.nodes[to].speaker.receive_ia(from_id, ia),
            RefFrame::Withdraw(prefix) => self.nodes[to].speaker.receive_withdraw(from_id, prefix),
        };
        self.handle_outputs(to, outputs);
        true
    }

    /// Deliver the globally oldest queued frame (the order a
    /// uniform-delay, zero-MRAI simulator run delivers in).
    pub fn deliver_next_fifo(&mut self) -> bool {
        let Some((&(from, to), _)) = self
            .queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .min_by_key(|(_, q)| q.front().map(|(seq, _)| *seq).unwrap_or(u64::MAX))
        else {
            return false;
        };
        self.deliver_from(from, to)
    }

    /// A canonical rendering of global state: every speaker's dynamic
    /// state, every FIB, link status, and all queued frames in global
    /// send order. Absolute sequence numbers and the delivery counter
    /// are deliberately excluded — new frames always enqueue behind
    /// every frame already in flight, so only *relative* order (which
    /// the send-order rendering preserves) determines how the network
    /// evolves. Two states with equal digests therefore evolve
    /// identically under any delivery schedule, which is exactly the
    /// property global-state cycle detection needs.
    pub fn state_digest(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let _ = write!(out, "#{i} fib={:?} sessions={:?} ", node.fib, node.ids_by_node);
            node.speaker.state_digest(&mut out);
            out.push('\n');
        }
        let _ = writeln!(out, "links={:?}", self.links);
        let mut frames: Vec<(u64, usize, usize, &RefFrame)> = self
            .queues
            .iter()
            .flat_map(|(&(from, to), q)| q.iter().map(move |(seq, f)| (*seq, from, to, f)))
            .collect();
        frames.sort_by_key(|(seq, ..)| *seq);
        for (_, from, to, frame) in frames {
            let _ = writeln!(out, "{from}->{to} {frame:?}");
        }
        out
    }

    /// A rendering of just the routing outcome: each node's Loc-RIB and
    /// FIB. When this changes *within* a detected global-state cycle
    /// the oscillation is a livelock (best paths flap forever); when it
    /// stays constant the cycle only churns message state.
    pub fn routing_digest(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let _ = writeln!(out, "#{i} loc={:?} fib={:?}", node.speaker.loc, node.fib);
        }
        out
    }

    /// Run to quiescence in global-FIFO order. Returns the number of
    /// deliveries made, or `None` if `max_deliveries` was exceeded
    /// (non-convergence).
    pub fn run_fifo(&mut self, max_deliveries: u64) -> Option<u64> {
        let mut n = 0;
        while self.pending() > 0 {
            if n >= max_deliveries {
                return None;
            }
            self.deliver_next_fifo();
            n += 1;
        }
        Some(n)
    }
}

impl Default for RefNet {
    fn default() -> Self {
        Self::new()
    }
}
