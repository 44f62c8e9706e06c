//! Property-based tests for the D-BGP pipeline: pass-through fidelity,
//! loop-detection soundness, filter idempotence and island-abstraction
//! structural invariants, over randomized IAs and speaker chains.

use dbgp_core::{
    filters, DbgpConfig, DbgpNeighbor, DbgpOutput, DbgpSpeaker, DbgpUpdate, FilterConfig,
    IslandConfig, NeighborId,
};
use dbgp_wire::ia::{IslandDescriptor, PathDescriptor};
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, IslandId, ProtocolId};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 8u8..=28).prop_map(|(a, l)| Ipv4Prefix::new(Ipv4Addr(a), l).unwrap())
}

/// Random descriptors over a set of non-baseline protocols.
fn arb_descriptors() -> impl Strategy<Value = (Vec<PathDescriptor>, Vec<IslandDescriptor>)> {
    (
        proptest::collection::vec(
            (50u16..60, 0u16..8, proptest::collection::vec(any::<u8>(), 0..32)),
            0..4,
        ),
        proptest::collection::vec(
            (1u32..50, 50u16..60, 0u16..8, proptest::collection::vec(any::<u8>(), 0..32)),
            0..4,
        ),
    )
        .prop_map(|(pds, ids)| {
            let path_descriptors = pds
                .into_iter()
                .map(|(proto, key, value)| PathDescriptor::new(ProtocolId(proto), key, value))
                .collect();
            let island_descriptors = ids
                .into_iter()
                .map(|(island, proto, key, value)| {
                    IslandDescriptor::new(IslandId(island), ProtocolId(proto), key, value)
                })
                .collect();
            (path_descriptors, island_descriptors)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any originated descriptor set survives a chain of gulf ASes
    /// byte-for-byte: pass-through is lossless for protocols nobody on
    /// the path runs.
    #[test]
    fn pass_through_is_lossless_over_gulf_chains(
        prefix in arb_prefix(),
        (pds, ids) in arb_descriptors(),
        hops in 1usize..6,
    ) {
        // Build the chain: origin AS 1, then `hops` gulf ASes.
        let mut speakers: Vec<DbgpSpeaker> = (0..=hops as u32)
            .map(|i| DbgpSpeaker::new(DbgpConfig::gulf(1000 + i)))
            .collect();
        for i in 0..speakers.len() {
            if i > 0 {
                speakers[i].add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1000 + i as u32 - 1));
            }
            if i + 1 < speakers.len() {
                speakers[i].add_neighbor(NeighborId(1), DbgpNeighbor::dbgp(1000 + i as u32 + 1));
            }
        }
        let mut ia = Ia::originate(prefix, Ipv4Addr::new(9, 9, 9, 9));
        ia.path_descriptors = pds.clone();
        ia.island_descriptors = ids.clone();
        // Walk the advertisement down the chain, re-encoding at each hop
        // as the simulator would.
        let mut outputs = speakers[0].originate_ia(ia);
        for (i, speaker) in speakers.iter_mut().enumerate().skip(1) {
            let sent = outputs.iter().find_map(|o| match o {
                DbgpOutput::SendIa(NeighborId(1), ia) if i == 1 => Some(ia.clone()),
                DbgpOutput::SendIa(_, ia) if i > 1 => Some(ia.clone()),
                _ => None,
            });
            let Some(sent) = sent else {
                // Loop detection can legitimately kill the chain if the
                // random descriptors... cannot happen: path vector is
                // ours. Fail loudly.
                prop_assert!(false, "hop {i} received nothing");
                return Ok(());
            };
            let wire = Ia::decode(sent.encode().into_bytes()).unwrap();
            outputs = speaker.receive_ia(NeighborId(0), wire);
        }
        let last = speakers.last().unwrap();
        let best = last.best(&prefix).expect("chain delivered the route");
        prop_assert_eq!(&best.ia.path_descriptors, &pds);
        prop_assert_eq!(&best.ia.island_descriptors, &ids);
    }

    /// The global import filter never accepts an IA whose path contains
    /// the local AS, and never rejects one that does not (absent island
    /// config).
    #[test]
    fn loop_detection_is_sound_and_complete(
        prefix in arb_prefix(),
        path in proptest::collection::vec(1u32..100, 0..8),
        local_as in 1u32..100,
    ) {
        let mut ia = Ia::originate(prefix, Ipv4Addr(1));
        for &asn in path.iter().rev() {
            ia.prepend_as(asn);
        }
        let result = filters::global_import(&FilterConfig::default(), local_as, None, &mut ia);
        prop_assert_eq!(result.is_err(), path.contains(&local_as));
    }

    /// Stripping a protocol is idempotent and removes exactly that
    /// protocol's descriptors.
    #[test]
    fn strip_is_idempotent_and_precise(
        prefix in arb_prefix(),
        (pds, ids) in arb_descriptors(),
        strip_proto in 50u16..60,
    ) {
        let mut ia = Ia::originate(prefix, Ipv4Addr(1));
        ia.path_descriptors = pds;
        ia.island_descriptors = ids;
        let strip = ProtocolId(strip_proto);
        ia.strip_protocols(&[strip]);
        let once = ia.clone();
        ia.strip_protocols(&[strip]);
        prop_assert_eq!(&ia, &once, "idempotent");
        prop_assert!(ia.path_descriptors.iter().all(|d| !d.owned_by(strip)));
        prop_assert!(ia.island_descriptors.iter().all(|d| d.protocol != strip));
    }

    /// Export through island abstraction preserves wire validity and
    /// keeps the destination-side path intact.
    #[test]
    fn abstraction_preserves_validity_and_tail(
        prefix in arb_prefix(),
        tail in proptest::collection::vec(200u32..300, 0..5),
        members in proptest::collection::vec(1u32..100, 1..5),
    ) {
        let island = IslandConfig { id: IslandId(7777), abstraction: true };
        let mut ia = Ia::originate(prefix, Ipv4Addr(1));
        for &asn in tail.iter().rev() {
            ia.prepend_as(asn);
        }
        // Island members prepend + declare, innermost first.
        for &m in members.iter().rev() {
            ia.prepend_as(m);
            filters::declare_own_membership(&mut ia, island.id).unwrap();
        }
        filters::global_export(&FilterConfig::default(), Some(island), true, &mut ia).unwrap();
        prop_assert!(ia.validate().is_ok());
        // Front is the island element, tail unchanged.
        prop_assert_eq!(ia.path_vector[0].clone(), dbgp_wire::PathElem::Island(island.id));
        let got_tail: Vec<u32> = ia.path_vector[1..]
            .iter()
            .map(|e| match e {
                dbgp_wire::PathElem::As(a) => *a,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        prop_assert_eq!(got_tail, tail);
        // Wire roundtrip still clean.
        prop_assert_eq!(Ia::decode(ia.encode().into_bytes()).unwrap(), ia);
    }

    /// A speaker never advertises a route back to the neighbor it chose
    /// it from, for any interleaving of advertisements from two
    /// neighbors.
    #[test]
    fn split_horizon_holds_under_interleaving(
        prefix in arb_prefix(),
        order in proptest::collection::vec(0usize..2, 1..8),
    ) {
        let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(500));
        speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(501));
        speaker.add_neighbor(NeighborId(1), DbgpNeighbor::dbgp(502));
        for (i, &from) in order.iter().enumerate() {
            let mut ia = Ia::originate(prefix, Ipv4Addr(i as u32 + 1));
            // Vary path length so selection flips around.
            for h in 0..(i % 3) {
                ia.prepend_as(600 + h as u32);
            }
            ia.prepend_as(501 + from as u32);
            let outputs = speaker.receive_ia(NeighborId(from as u32), ia);
            let chosen_source = speaker.best(&prefix).and_then(|c| c.neighbor);
            for output in outputs {
                if let DbgpOutput::SendIa(to, _) = output {
                    prop_assert_ne!(
                        Some(to),
                        chosen_source,
                        "advertised back to the chosen source"
                    );
                }
            }
        }
    }

    /// The Adj-RIB-Out encode cache keeps pre-encoded IA bodies and
    /// assembles outgoing frames from them. Across arbitrary IA
    /// mutations (each prepend makes a new cache generation) the
    /// assembled frame must be byte-identical to a fresh encode of the
    /// same update — the wire cannot tell a cached send from a cold one.
    #[test]
    fn cached_body_assembly_is_byte_identical(
        prefix in arb_prefix(),
        (pds, ids) in arb_descriptors(),
        hops in proptest::collection::vec(1u32..65000, 0..6),
        withdrawn in proptest::collection::vec(arb_prefix(), 0..3),
    ) {
        let mut ia = Ia::originate(prefix, Ipv4Addr::new(9, 9, 9, 9));
        ia.path_descriptors = pds;
        ia.island_descriptors = ids;
        let mut ias = vec![ia.clone()];
        for asn in hops {
            ia.prepend_as(asn); // mutate: a new IA generation
            ias.push(ia.clone());
        }
        let update = DbgpUpdate { withdrawn, ias };
        // What the cache stores: each generation's body, encoded once.
        let bodies: Vec<dbgp_wire::EncodedIa> = update.ias.iter().map(Ia::encode).collect();
        prop_assert_eq!(
            DbgpUpdate::encode_frame(&update.withdrawn, &bodies).into_bytes(),
            update.encode(),
            "cached-body frame differs from fresh encode"
        );
    }
}
