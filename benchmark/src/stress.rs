//! The paper's §5 stress test: one D-BGP speaker fed pre-encoded
//! advertisements, decode → `receive_ia` → re-encode of everything it
//! forwards — the work a border router does per advertisement. The
//! operation counted is the advertisement.
//!
//! [`Stress`] is the D-BGP speaker (payload 0 = "Beagle, BGP-only";
//! 32 KB = the falling part of the §5 curve). [`Classic`] is the same
//! trace length through the classic `dbgp-bgp` speaker — the "Quagga"
//! side the D-BGP tax is measured against.

use crate::span::Trace;
use crate::workload::{Round, Workload};
use bytes::Bytes;
use dbgp_bgp::{NeighborConfig, PeerId, Speaker, TransportEvent};
use dbgp_core::{DbgpConfig, DbgpNeighbor, DbgpOutput, DbgpSpeaker, DbgpUpdate, NeighborId};
use dbgp_wire::message::{BgpMessage, OpenMsg};
use dbgp_wire::Ipv4Addr;
use dbgp_workload::WorkloadGen;

/// Critical fixes whose descriptors a large IA carries (the paper's
/// Figure-7 IA has five).
const PROTOCOLS: usize = 5;

/// A D-BGP stress workload.
pub struct Stress {
    frames: Vec<Bytes>,
    speaker: Option<DbgpSpeaker>,
}

impl Stress {
    /// Generate and pre-encode `frames` advertisements whose IAs carry
    /// about `payload_bytes` of descriptors.
    pub fn setup(seed: u64, frames: usize, payload_bytes: usize) -> Result<Self, String> {
        let frames = WorkloadGen::new(seed)
            .ia_trace(frames, payload_bytes, PROTOCOLS)
            .into_iter()
            .map(|ia| DbgpUpdate::announce(ia).encode())
            .collect();
        Ok(Stress { frames, speaker: None })
    }

    /// Mean encoded size of an inbound advertisement.
    pub fn bytes_per_frame(&self) -> f64 {
        self.frames.iter().map(Bytes::len).sum::<usize>() as f64 / self.frames.len() as f64
    }
}

impl Workload for Stress {
    fn prepare(&mut self, _traced: bool) -> Result<(), String> {
        // A gulf speaker with an upstream and a downstream neighbor, as
        // in `dbgp-bench`'s `run_dbgp`.
        let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(4_200_000));
        speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(4_200_001));
        speaker.add_neighbor(NeighborId(1), DbgpNeighbor::dbgp(4_200_002));
        self.speaker = Some(speaker);
        Ok(())
    }

    fn round<T: Trace>(&mut self, trace: &mut T) -> Round {
        let speaker = self.speaker.as_mut().expect("prepare ran");
        let mut out_bytes = 0u64;
        for frame in &self.frames {
            let mut buf = frame.clone();
            let update = DbgpUpdate::decode(&mut buf).expect("a generated frame decodes");
            trace.lap("wire.ia_decode");
            for ia in update.ias {
                let outputs = speaker.receive_ia(NeighborId(0), ia);
                trace.lap("core.receive_ia");
                for output in outputs {
                    if let DbgpOutput::SendIa(_, ia) = output {
                        let frame = DbgpUpdate::encode_frame(&[], &[ia.encode()]);
                        out_bytes += std::hint::black_box(frame).len() as u64;
                    }
                }
                trace.lap("wire.ia_encode");
            }
        }
        let ops = self.frames.len() as u64;
        // Every advertisement announces a fresh prefix, so each must be
        // processed and must leave one installed route behind.
        let processed = speaker.processed();
        let installed = speaker.routes().count() as u64;
        Round {
            ops,
            failed: ops - processed.min(installed).min(ops),
            wire_bytes: out_bytes,
            exact: vec![
                ("processed", processed),
                ("installed", installed),
                ("out_bytes", out_bytes),
            ],
        }
    }
}

/// The classic-BGP side of the comparison: the same number of UPDATEs
/// through an established `dbgp-bgp` session.
pub struct Classic {
    frames: Vec<Bytes>,
    speaker: Option<Speaker>,
}

const UPSTREAM: PeerId = PeerId(0);

impl Classic {
    /// Generate and pre-encode `frames` classic UPDATEs.
    pub fn setup(seed: u64, frames: usize) -> Result<Self, String> {
        let frames = WorkloadGen::new(seed)
            .update_trace(frames)
            .into_iter()
            .map(|u| BgpMessage::Update(u).encode(true))
            .collect();
        Ok(Classic { frames, speaker: None })
    }
}

impl Workload for Classic {
    fn prepare(&mut self, _traced: bool) -> Result<(), String> {
        let local = Ipv4Addr::new(10, 0, 0, 1);
        let mut speaker = Speaker::new(4_200_000, local);
        speaker.add_peer(
            UPSTREAM,
            NeighborConfig::new(4_200_000, local, 4_200_001, Ipv4Addr::new(10, 0, 0, 2)),
        );
        // Drive the session to Established with real wire messages.
        speaker.start(0);
        speaker.transport_event(0, UPSTREAM, TransportEvent::Connected);
        let open = OpenMsg::new(4_200_001, 90, Ipv4Addr::new(10, 0, 9, 9));
        speaker.receive(1, UPSTREAM, &BgpMessage::Open(open).encode(true));
        speaker.receive(2, UPSTREAM, &BgpMessage::Keepalive.encode(true));
        if !speaker.is_established(UPSTREAM) {
            return Err("classic speaker did not establish its session".into());
        }
        self.speaker = Some(speaker);
        Ok(())
    }

    fn round<T: Trace>(&mut self, trace: &mut T) -> Round {
        let speaker = self.speaker.as_mut().expect("prepare ran");
        let mut now = 10u64;
        for frame in &self.frames {
            now += 1;
            std::hint::black_box(speaker.receive(now, UPSTREAM, frame));
        }
        trace.lap("bgp.receive");
        let ops = self.frames.len() as u64;
        let installed = speaker.loc_rib().len() as u64;
        Round {
            ops,
            failed: ops - installed.min(ops),
            wire_bytes: 0,
            exact: vec![("installed", installed)],
        }
    }
}
