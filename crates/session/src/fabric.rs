//! The in-memory fabric: [`Host`]s joined by instant, lossless,
//! in-order pipes, pumped to quiescence.
//!
//! This is the one place that carries [`HostOutput::Send`] bytes from
//! host to host in process. `dbgpd`'s oracle, the classic speaker's
//! tests and the differential harness's daemon participant all ride it,
//! over `dbgp_daemon::Node`, `dbgp_bgp::Speaker` or a boxed [`Host`]:
//! anything that dereferences to a `Host`.
//!
//! The model is honest about direction: a `Connect` from node A
//! materializes at node B as an *inbound* connection, so simultaneous
//! dials produce two pipes and exercise the same RFC 4271 §6.8
//! collision resolution the TCP reactor hits — just deterministically.
//! Faults are pipe operations ([`Fabric::fail_link`],
//! [`Fabric::restore_link`], [`Fabric::restart`]).

use crate::config::PeerId;
use crate::host::{Host, HostOutput};
use crate::peer::ConnDir;
use crate::session::Millis;
use bytes::Bytes;
use dbgp_wire::Ipv4Prefix;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::{DerefMut, Index, IndexMut};

/// One end of a pipe: node, neighbor, connection direction.
type End = (usize, PeerId, ConnDir);

/// A node pair, lower index first.
fn pair(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

/// Nodes joined by in-memory pipes.
pub struct Fabric<H> {
    nodes: Vec<H>,
    /// (node, neighbor) -> the (node, neighbor) its dial lands at.
    links: BTreeMap<(usize, PeerId), (usize, PeerId)>,
    /// Node pairs whose link is failed.
    failed: BTreeSet<(usize, usize)>,
    /// Each open pipe's two ends, each -> (the other, the pipe's number).
    ends: BTreeMap<End, (End, usize)>,
    /// Pipes dialed so far.
    pipes: usize,
    /// In-flight bytes: (pipe, receiving end, payload).
    queue: VecDeque<(usize, End, Bytes)>,
    now: Millis,
    log: Vec<(usize, HostOutput)>,
}

impl<H: DerefMut<Target = Host>> Fabric<H> {
    /// Unlinked nodes, indexed by position.
    pub fn new(nodes: Vec<H>) -> Self {
        Fabric {
            nodes,
            links: BTreeMap::new(),
            failed: BTreeSet::new(),
            ends: BTreeMap::new(),
            pipes: 0,
            queue: VecDeque::new(),
            now: 0,
            log: Vec::new(),
        }
    }

    /// Join neighbor `pa` of node `a` with neighbor `pb` of node `b`: a
    /// dial from either lands at the other as an inbound connection.
    pub fn link(&mut self, a: usize, pa: PeerId, b: usize, pb: PeerId) {
        self.links.insert((a, pa), (b, pb));
        self.links.insert((b, pb), (a, pa));
    }

    /// The nodes, by index.
    pub fn nodes(&self) -> &[H] {
        &self.nodes
    }

    /// The nodes, by index, with the fabric gone.
    pub fn into_nodes(self) -> Vec<H> {
        self.nodes
    }

    /// The fabric's clock: one tick per step of any node.
    pub fn now(&self) -> Millis {
        self.now
    }

    /// Every `Up`, `Down` and `Best` output, with the node that emitted
    /// it, in order.
    pub fn log(&self) -> &[(usize, HostOutput)] {
        &self.log
    }

    /// Start every node, in index order, then pump to quiescence.
    pub fn start(&mut self) {
        for node in 0..self.nodes.len() {
            self.step(node, |host, now| host.start(now));
        }
        self.run();
    }

    /// Run `step` on one node's host at the next tick, carry out what it
    /// returns, and pump to quiescence.
    pub fn drive(&mut self, node: usize, step: impl FnOnce(&mut Host, Millis) -> Vec<HostOutput>) {
        self.step(node, step);
        self.run();
    }

    /// Originate a prefix at one node and pump to quiescence.
    pub fn originate(&mut self, node: usize, prefix: Ipv4Prefix) {
        self.drive(node, |host, now| host.originate(now, prefix));
    }

    /// Close every pipe between `a` and `b`, telling both ends, and fail
    /// every dial across the pair until [`Fabric::restore_link`].
    pub fn fail_link(&mut self, a: usize, b: usize) {
        self.failed.insert(pair(a, b));
        self.cut(a, b);
        self.run();
    }

    /// Undo [`Fabric::fail_link`]: restart both ends' sessions.
    pub fn restore_link(&mut self, a: usize, b: usize) {
        self.failed.remove(&pair(a, b));
        self.redial(a, b);
        self.run();
    }

    /// Cut and re-dial each of `node`'s up links. The node itself keeps
    /// its state, its originations included.
    pub fn restart(&mut self, node: usize) {
        let peers: BTreeSet<usize> = self
            .links
            .iter()
            .filter(|&(&(x, _), &(y, _))| x == node && !self.failed.contains(&pair(x, y)))
            .map(|(_, &(y, _))| y)
            .collect();
        for &peer in &peers {
            self.cut(node, peer);
        }
        for &peer in &peers {
            self.redial(node, peer);
        }
        self.run();
    }

    fn step(&mut self, node: usize, step: impl FnOnce(&mut Host, Millis) -> Vec<HostOutput>) {
        self.now += 1;
        let outputs = step(&mut self.nodes[node], self.now);
        self.absorb(node, outputs);
    }

    fn run(&mut self) {
        while let Some((pipe, to @ (node, pid, dir), bytes)) = self.queue.pop_front() {
            // Bytes in flight when their pipe closed are lost.
            if self.ends.get(&to).is_some_and(|&(_, open)| open == pipe) {
                self.step(node, |host, now| host.bytes_in(now, pid, dir, &bytes));
            }
        }
    }

    fn absorb(&mut self, node: usize, outputs: Vec<HostOutput>) {
        for output in outputs {
            match output {
                HostOutput::Connect(pid) => self.dial(node, pid),
                HostOutput::Send(pid, dir, bytes) => {
                    if let Some(&(far, pipe)) = self.ends.get(&(node, pid, dir)) {
                        self.queue.push_back((pipe, far, bytes));
                    }
                }
                HostOutput::Close(pid, dir) => {
                    if let Some(far) = self.close((node, pid, dir)) {
                        self.closed(far);
                    }
                }
                event => self.log.push((node, event)),
            }
        }
    }

    fn dial(&mut self, node: usize, pid: PeerId) {
        let target = self.links.get(&(node, pid)).copied();
        let Some((k, qid)) = target.filter(|&(k, _)| !self.failed.contains(&pair(node, k))) else {
            let outputs = self.nodes[node].dial_result(self.now, pid, false);
            self.absorb(node, outputs);
            return;
        };
        let (out, inb) = ((node, pid, ConnDir::Out), (k, qid, ConnDir::In));
        // A fresh dial supersedes any stale pipe on the same local end
        // without a word to either end, as a reused source port would.
        self.close(out);
        self.pipes += 1;
        self.ends.insert(out, (inb, self.pipes));
        self.ends.insert(inb, (out, self.pipes));
        let outputs = self.nodes[node].dial_result(self.now, pid, true);
        self.absorb(node, outputs);
        let outputs = self.nodes[k].accepted(self.now, qid);
        self.absorb(k, outputs);
    }

    /// Close every open pipe between `a` and `b`, telling both ends.
    fn cut(&mut self, a: usize, b: usize) {
        let at_a: Vec<End> = self
            .ends
            .iter()
            .filter(|&(end, (far, _))| end.0 == a && far.0 == b)
            .map(|(&end, _)| end)
            .collect();
        for end in at_a {
            if let Some(far) = self.close(end) {
                self.closed(far);
                self.closed(end);
            }
        }
    }

    /// Restart both ends of the link between `a` and `b`.
    fn redial(&mut self, a: usize, b: usize) {
        let ends: Vec<(usize, PeerId)> = self
            .links
            .iter()
            .filter(|&(&(x, _), &(y, _))| pair(x, y) == pair(a, b))
            .map(|(&end, _)| end)
            .collect();
        for (node, pid) in ends {
            self.step(node, |host, now| host.restart_peer(now, pid));
        }
    }

    /// Close the pipe at `end`, if one is open, and return its far end.
    fn close(&mut self, end: End) -> Option<End> {
        let (far, _) = self.ends.remove(&end)?;
        self.ends.remove(&far);
        Some(far)
    }

    /// Tell one end its connection closed.
    fn closed(&mut self, (node, pid, dir): End) {
        self.step(node, |host, now| host.conn_closed(now, pid, dir));
    }
}

impl<H> Index<usize> for Fabric<H> {
    type Output = H;

    fn index(&self, node: usize) -> &H {
        &self.nodes[node]
    }
}

impl<H> IndexMut<usize> for Fabric<H> {
    fn index_mut(&mut self, node: usize) -> &mut H {
        &mut self.nodes[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NeighborConfig;
    use crate::rib::LocRibEntry;
    use crate::session::SessionState;
    use dbgp_wire::Ipv4Addr;

    /// Hosts AS 1 - AS 2 - AS 3, each originating `10.<asn>.0.0/16`.
    fn line3() -> Fabric<Box<Host>> {
        let hosts = (1..=3u32)
            .map(|asn| {
                let id = Ipv4Addr::new(10, 0, 0, asn as u8);
                let mut host = Host::new(asn, id);
                let peers = [asn - 1, asn + 1].into_iter().filter(|p| (1..=3).contains(p));
                for (i, peer) in peers.enumerate() {
                    host.add_peer(PeerId(i as u32), NeighborConfig::new(asn, id, peer, id));
                }
                Box::new(host)
            })
            .collect();
        let mut fabric = Fabric::new(hosts);
        fabric.link(0, PeerId(0), 1, PeerId(0));
        fabric.link(1, PeerId(1), 2, PeerId(0));
        fabric.start();
        for node in 0..3 {
            fabric.originate(node, format!("10.{}.0.0/16", node + 1).parse().unwrap());
        }
        fabric
    }

    fn loc_ribs(fabric: &Fabric<Box<Host>>) -> Vec<Vec<(Ipv4Prefix, LocRibEntry)>> {
        let rib = |h: &Host| h.routing().loc_rib().iter().map(|(p, e)| (*p, e.clone())).collect();
        fabric.nodes().iter().map(|h| rib(h)).collect()
    }

    /// `(node, neighbor)` of every `Up` (or `Down`) logged from entry
    /// `since` on, sorted.
    fn edges(fabric: &Fabric<Box<Host>>, since: usize, up: bool) -> Vec<(usize, PeerId)> {
        let mut edges: Vec<(usize, PeerId)> = fabric.log()[since..]
            .iter()
            .filter_map(|(node, output)| match output {
                HostOutput::Up(pid, _) if up => Some((*node, *pid)),
                HostOutput::Down(pid, _) if !up => Some((*node, *pid)),
                _ => None,
            })
            .collect();
        edges.sort();
        edges
    }

    #[test]
    fn fail_link_tells_both_ends_and_both_lose_what_crossed_it() {
        let mut fabric = line3();
        let (before, seen) = (loc_ribs(&fabric), fabric.log().len());
        assert!(before.iter().all(|rib| rib.len() == 3));
        fabric.fail_link(1, 2);
        assert_eq!(edges(&fabric, seen, false), [(1, PeerId(1)), (2, PeerId(0))]);
        // AS 1 and AS 2 lose `10.3.0.0/16`; AS 3 loses the other two.
        let after = loc_ribs(&fabric);
        assert_eq!((&after[0][..], &after[1][..]), (&before[0][..2], &before[1][..2]));
        assert_eq!(after[2], before[2][2..]);
    }

    #[test]
    fn no_dial_crosses_a_failed_link_until_it_is_restored() {
        let mut fabric = line3();
        let before = loc_ribs(&fabric);
        fabric.fail_link(1, 2);
        let seen = fabric.log().len();
        // AS 3 re-dials AS 2 at once; the fabric fails the dial.
        fabric.drive(2, |host, now| host.restart_peer(now, PeerId(0)));
        assert_eq!(edges(&fabric, seen, true), []);
        assert_ne!(fabric[2].state(PeerId(0)), Some(SessionState::Established));
        fabric.restore_link(1, 2);
        assert_eq!(edges(&fabric, seen, true), [(1, PeerId(1)), (2, PeerId(0))]);
        assert_eq!(loc_ribs(&fabric), before);
    }

    #[test]
    fn restart_brings_each_session_up_exactly_once_more() {
        let mut fabric = line3();
        let before = loc_ribs(&fabric);
        let seen = fabric.log().len();
        fabric.restart(1);
        let again = [(0, PeerId(0)), (1, PeerId(0)), (1, PeerId(1)), (2, PeerId(0))];
        assert_eq!(edges(&fabric, seen, true), again);
        assert_eq!(loc_ribs(&fabric), before, "the restarted node kept its originations");
    }
}
