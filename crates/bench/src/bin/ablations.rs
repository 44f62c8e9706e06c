//! Ablations for the design choices DESIGN.md calls out, measured with
//! the real wire codec and simulator rather than the analytical model:
//!
//! 1. **Descriptor sharing** (§3.2 "Limiting IA sizes"): measured IA
//!    wire size with critical fixes sharing their common fields vs
//!    duplicating them — the empirical counterpart of Table 3's
//!    "+ Sharing" row.
//! 2. **Island abstraction vs declaration** (§3.2): the path-diversity
//!    cost of abstracting — how many distinct routes survive when an
//!    island collapses its members into one path-vector entry.
//! 3. **Convergence vs IA size** (§3.5's convergence concern): messages
//!    and simulated time to quiescence on a 12-AS chain as IA payloads
//!    grow.

use dbgp_core::{DbgpConfig, IslandConfig};
use dbgp_sim::Sim;
use dbgp_wire::ia::PathDescriptor;
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, IslandId, ProtocolId};

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

/// Ablation 1: shared vs duplicated critical-fix descriptors, real
/// bytes.
fn sharing_ablation() {
    println!("== Ablation 1: descriptor sharing (measured wire bytes) ==");
    println!(
        "{:>14} {:>18} {:>18} {:>9}",
        "critical fixes", "shared bytes", "duplicated bytes", "ratio"
    );
    // A typical shared blob (origin/next-hop/path-style common fields)
    // of 256 bytes plus 32 unique bytes per fix — the CFu ≈ 0.1-0.3
    // regime of Table 2.
    let shared_blob = vec![0xAA; 256];
    let unique_blob = vec![0xBB; 32];
    for n_fixes in [1usize, 3, 5, 10, 20] {
        let protos: Vec<ProtocolId> = (0..n_fixes as u16).map(|i| ProtocolId(100 + i)).collect();
        // Shared layout: one descriptor co-owned by every fix + one
        // unique descriptor per fix.
        let mut shared = Ia::originate(p("10.0.0.0/8"), Ipv4Addr(1));
        shared.with_records(|r| {
            r.path_descriptors.push(PathDescriptor::shared(protos.clone(), 1, shared_blob.clone()));
            for proto in &protos {
                r.path_descriptors.push(PathDescriptor::new(*proto, 2, unique_blob.clone()));
            }
        });
        // Duplicated layout: every fix carries its own full copy.
        let mut duplicated = Ia::originate(p("10.0.0.0/8"), Ipv4Addr(1));
        duplicated.with_records(|r| {
            for proto in &protos {
                r.path_descriptors.push(PathDescriptor::new(*proto, 1, shared_blob.clone()));
                r.path_descriptors.push(PathDescriptor::new(*proto, 2, unique_blob.clone()));
            }
        });
        let s = shared.wire_size();
        let d = duplicated.wire_size();
        println!("{:>14} {:>18} {:>18} {:>8.2}x", n_fixes, s, d, d as f64 / s as f64);
    }
    println!();
}

/// Ablation 2: island abstraction vs declaration — path diversity at a
/// downstream AS in a diamond where both paths cross the island.
fn abstraction_ablation() {
    println!("== Ablation 2: island abstraction vs declaration (path diversity) ==");
    // Topology: origin O inside island I with two borders B1, B2; a
    // receiving gulf AS R peers with both borders. With declaration the
    // two advertisements are distinguishable AS-level paths; with
    // abstraction... each is [I], and if R forwards to another island
    // member the path would be thrown out. We measure the candidate
    // diversity at a second-tier AS R2 that hears the route from two
    // gulf ASes each fed by a different border.
    for abstraction in [false, true] {
        let island = IslandConfig { id: IslandId(77), abstraction };
        let mut sim = Sim::new();
        let o = sim.add_node(DbgpConfig::island_member(1, island, ProtocolId::BGP));
        let b1 = sim.add_node(DbgpConfig::island_member(2, island, ProtocolId::BGP));
        let b2 = sim.add_node(DbgpConfig::island_member(3, island, ProtocolId::BGP));
        let g1 = sim.add_node(DbgpConfig::gulf(4000));
        let g2 = sim.add_node(DbgpConfig::gulf(4001));
        let r2 = sim.add_node(DbgpConfig::gulf(5000));
        sim.link(o, b1, 10, true);
        sim.link(o, b2, 10, true);
        sim.link(b1, g1, 10, false);
        sim.link(b2, g2, 10, false);
        sim.link(g1, r2, 10, false);
        sim.link(g2, r2, 10, false);
        sim.originate(o, p("128.6.0.0/16"));
        sim.run(10_000_000);
        let candidates: Vec<_> = sim.speaker(r2).iadb().candidates(&p("128.6.0.0/16")).collect();
        let distinct_tails: std::collections::BTreeSet<String> = candidates
            .iter()
            .map(|(_, ia)| {
                ia.path_vector.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(" ")
            })
            .collect();
        println!(
            "  abstraction={}: {} candidates at R2, paths: {:?}",
            abstraction,
            candidates.len(),
            distinct_tails
        );
    }
    println!("  (abstraction hides which border was used: the island-granular");
    println!("   loop detection trade-off of §3.2)\n");
}

/// Ablation 3: convergence cost vs IA payload size (§3.5).
fn convergence_ablation() {
    println!("== Ablation 3: convergence vs IA payload size (12-AS chain) ==");
    println!("{:>12} {:>10} {:>14} {:>12}", "payload", "messages", "bytes", "sim-ms");
    for payload in [0usize, 1 << 10, 32 << 10, 256 << 10] {
        let mut sim = Sim::new();
        let nodes: Vec<_> = (1..=12).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
        for w in nodes.windows(2) {
            sim.link(w[0], w[1], 10, false);
        }
        let mut ia = Ia::originate(p("128.6.0.0/16"), Ipv4Addr(9));
        if payload > 0 {
            ia.set_path_descriptor(ProtocolId(100), 1, vec![0xCC; payload]);
        }
        sim.originate_ia(nodes[0], ia);
        let stats = sim.run(60_000_000);
        println!(
            "{:>10}KB {:>10} {:>14} {:>12}",
            payload / 1024,
            stats.messages,
            stats.bytes,
            stats.last_event_at
        );
    }
    println!("  (message count and convergence time are payload-independent;");
    println!("   only bytes grow — §3.5's expectation)");
}

/// Ablation 4: session resets and full-table transfer (§3.5): "D-BGP
/// may increase convergence times when a large number of [IAs] must be
/// transferred at the same time (i.e., after session resets)".
fn session_reset_ablation() {
    println!("== Ablation 4: full-table transfer after a session reset ==");
    println!(
        "{:>9} {:>11} {:>10} {:>14} {:>10}",
        "prefixes", "IA payload", "messages", "bytes", "sim-ms"
    );
    for n_prefixes in [100usize, 1000] {
        for payload in [0usize, 4 << 10, 32 << 10] {
            let mut sim = Sim::new();
            let a = sim.add_node(DbgpConfig::gulf(1));
            let b = sim.add_node(DbgpConfig::gulf(2));
            let c = sim.add_node(DbgpConfig::gulf(3));
            sim.link(a, b, 10, false);
            sim.link(b, c, 10, false);
            for i in 0..n_prefixes {
                let prefix = Ipv4Prefix::new(
                    Ipv4Addr::new(60 + (i >> 14) as u8, (i >> 6) as u8, ((i & 0x3f) << 2) as u8, 0),
                    24,
                )
                .unwrap();
                let mut ia = Ia::originate(prefix, Ipv4Addr(9));
                if payload > 0 {
                    ia.set_path_descriptor(ProtocolId(100), 1, vec![0xDD; payload]);
                }
                sim.originate_ia(a, ia);
            }
            sim.run(600_000_000);
            let before = sim.stats();
            // Reset the B-C session: the link dies and comes back; B
            // re-sends its entire Adj-RIB-Out to C.
            sim.fail_link(b, c);
            sim.run(1_200_000_000);
            sim.link(b, c, 10, false);
            sim.run(2_400_000_000);
            let after = sim.stats();
            println!(
                "{:>9} {:>9}KB {:>10} {:>14} {:>10}",
                n_prefixes,
                payload / 1024,
                after.messages - before.messages,
                after.bytes - before.bytes,
                after.last_event_at - before.last_event_at,
            );
        }
    }
    println!("  (transfer volume scales with table size x IA size; the paper\'s");
    println!("   suggested mitigation is speaker fault-tolerance [51])");
}

fn main() {
    sharing_ablation();
    abstraction_ablation();
    convergence_ablation();
    session_reset_ablation();
}
