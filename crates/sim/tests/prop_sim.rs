//! Property tests over randomized topologies: the simulated control
//! plane must always quiesce, produce loop-free forwarding state, and
//! be deterministic.

use dbgp_core::DbgpConfig;
use dbgp_sim::{Delivery, Packet, Sim};
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};
use proptest::prelude::*;

/// A random connected undirected graph on `n` nodes: a random spanning
/// tree plus extra edges.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (3usize..12).prop_flat_map(|n| {
        let tree = proptest::collection::vec(any::<u32>(), n - 1);
        let extras = proptest::collection::vec((0..n, 0..n), 0..n);
        (Just(n), tree, extras).prop_map(|(n, parents, extras)| {
            let mut edges: Vec<(usize, usize)> =
                (1..n).map(|v| (v, (parents[v - 1] as usize) % v)).collect();
            for (a, b) in extras {
                if a != b {
                    edges.push((a.min(b), a.max(b)));
                }
            }
            edges.sort();
            edges.dedup();
            (n, edges)
        })
    })
}

fn build(n: usize, edges: &[(usize, usize)]) -> Sim {
    let mut sim = Sim::new();
    for asn in 0..n {
        sim.add_node(DbgpConfig::gulf(asn as u32 + 1));
    }
    for &(a, b) in edges {
        sim.link(a, b, 5 + (a + b) as u64 % 7, false);
    }
    sim
}

fn prefix_for(node: usize) -> Ipv4Prefix {
    // Outside the simulator's own 10.0.0.0/8 node-address range.
    Ipv4Prefix::new(Ipv4Addr::new(172, 16, node as u8, 0), 24).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every topology quiesces within a generous message bound (no
    /// persistent oscillation, no loop storms).
    #[test]
    fn any_topology_quiesces((n, edges) in arb_graph(), origins in proptest::collection::vec(0usize..12, 1..4)) {
        let mut sim = build(n, &edges);
        for &origin in &origins {
            let origin = origin % n;
            sim.originate(origin, prefix_for(origin));
        }
        let stats = sim.run(120_000_000);
        // Bound: each origination can touch each node a bounded number
        // of times in a stable path-vector protocol.
        let bound = (origins.len() * n * n * 4 + 100) as u64;
        prop_assert!(stats.messages < bound, "{} messages for n={}", stats.messages, n);
    }

    /// After convergence, forwarding from every node to every origin
    /// delivers (connected graph) without looping, and the AS-level
    /// trace length is bounded by n.
    #[test]
    fn forwarding_is_loop_free((n, edges) in arb_graph(), origin_seed in 0usize..12) {
        let origin = origin_seed % n;
        let mut sim = build(n, &edges);
        sim.originate(origin, prefix_for(origin));
        sim.run(120_000_000);
        for start in 0..n {
            let packet = Packet::ipv4(Ipv4Addr::new(172, 16, origin as u8, 7), 1);
            let (delivery, trace) = sim.forward(start, packet);
            match delivery {
                Delivery::Delivered { at, .. } => {
                    prop_assert_eq!(at, origin);
                    prop_assert!(trace.len() <= n, "trace {:?}", trace);
                    // No repeated node: loop-freeness.
                    let mut sorted = trace.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    prop_assert_eq!(sorted.len(), trace.len(), "loop in {:?}", trace);
                }
                other => prop_assert!(false, "undelivered from {start}: {other:?}"),
            }
        }
    }

    /// Identical construction sequences give identical statistics and
    /// identical routing tables.
    #[test]
    fn simulation_is_deterministic((n, edges) in arb_graph(), origin_seed in 0usize..12) {
        let origin = origin_seed % n;
        let run_once = || {
            let mut sim = build(n, &edges);
            sim.originate(origin, prefix_for(origin));
            let stats = sim.run(120_000_000);
            let tables: Vec<Vec<String>> = (0..n)
                .map(|node| {
                    sim.speaker(node)
                        .routes()
                        .map(|(p, chosen)| format!("{p} {:?} {}", chosen.neighbor, chosen.ia))
                        .collect()
                })
                .collect();
            (stats, tables)
        };
        prop_assert_eq!(run_once(), run_once());
    }

    /// Link churn pushes mutated IAs — new path vectors, hence new
    /// encode-cache generations — through every node's Adj-RIB-Out
    /// encode cache. The cache must be invisible to routing: identical
    /// runs give identical statistics (including the cache counters)
    /// and identical FIBs, and reachability heals once the flapped link
    /// is restored.
    #[test]
    fn encode_cache_churn_is_deterministic_and_heals(
        (n, edges) in arb_graph(),
        origins in proptest::collection::vec(0usize..12, 1..3),
        flap_pick in any::<u32>(),
    ) {
        let run_once = || {
            let mut sim = build(n, &edges);
            for &o in &origins {
                sim.originate(o % n, prefix_for(o % n));
            }
            sim.run(120_000_000);
            let (a, b) = edges[flap_pick as usize % edges.len()];
            sim.fail_link(a, b);
            sim.run(360_000_000);
            sim.restore_link(a, b);
            let stats = sim.run(900_000_000);
            let fibs: Vec<_> = (0..n).map(|node| sim.fib(node)).collect();
            (stats, fibs)
        };
        let (stats, fibs) = run_once();
        // The flapped link is back: the graph is connected again, so
        // every origin must be in every node's FIB.
        for &o in &origins {
            let o = o % n;
            for (node, fib) in fibs.iter().enumerate() {
                prop_assert!(
                    fib.contains_key(&prefix_for(o)),
                    "node {node} lost {} after heal", prefix_for(o)
                );
            }
        }
        // Byte-determinism: a cache-cold rerun reproduces everything,
        // cache counters included.
        prop_assert_eq!((stats, fibs), run_once());
    }

    /// Withdraw-then-reannounce always restores reachability.
    #[test]
    fn withdraw_reannounce_restores((n, edges) in arb_graph(), origin_seed in 0usize..12) {
        let origin = origin_seed % n;
        let mut sim = build(n, &edges);
        let prefix = prefix_for(origin);
        sim.originate(origin, prefix);
        sim.run(120_000_000);
        sim.withdraw(origin, prefix);
        sim.run(240_000_000);
        for node in 0..n {
            if node != origin {
                prop_assert!(sim.speaker(node).best(&prefix).is_none(), "stale route at {node}");
            }
        }
        sim.originate(origin, prefix);
        sim.run(480_000_000);
        for node in 0..n {
            prop_assert!(
                node == origin || sim.speaker(node).best(&prefix).is_some(),
                "no route restored at {node}"
            );
        }
    }
}
