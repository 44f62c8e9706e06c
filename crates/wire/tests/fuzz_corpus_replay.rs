//! Structured fuzzing of `Ia::decode` plus regression-corpus replay.
//!
//! Two layers:
//!
//! * **Corpus replay** — every file in `fuzz_corpus/` is decoded on
//!   each test run. Inputs that once triggered a panic, a silent
//!   truncation, or a loose bounds check stay here forever so the bug
//!   class cannot regress without a fuzzer run.
//! * **Mutation fuzzing** — valid IAs are generated from a seeded RNG,
//!   encoded, and then damaged (bit flips, truncations, TLV length
//!   lies, duplicated and unknown-protocol descriptors, random
//!   splices). `Ia::decode` must never panic, and whatever it accepts
//!   must re-encode canonically: decode → encode → decode is a fixed
//!   point.

use bytes::Bytes;
use dbgp_wire::ia::{IslandDescriptor, IslandMembership, PathDescriptor, UnknownRecord};
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, IslandId, Origin, PathElem, ProtocolId, WireError};
use proptest::test_runner::TestRng;

fn decode(bytes: &[u8]) -> Result<Ia, WireError> {
    Ia::decode(Bytes::copy_from_slice(bytes))
}

/// What `encode_into` writes: the reference every `encode` is held to.
fn written(ia: &Ia) -> Vec<u8> {
    let mut buf = Vec::new();
    ia.encode_into(&mut buf);
    buf
}

/// An accepted frame must be a fixed point of decode ∘ encode — and
/// `encode`, which may hand on the window of the frame `ia` was decoded
/// from, must produce what `encode_into` writes, both as the IA stands
/// and after the one thing a gulf does to it.
fn assert_canonical(ia: &Ia, source: &str) {
    let encoded = ia.encode().into_bytes();
    assert_eq!(encoded, written(ia), "{source}: encode is not what encode_into writes");
    let again = Ia::decode(encoded.clone())
        .unwrap_or_else(|e| panic!("{source}: accepted IA failed to re-decode: {e}"));
    assert_eq!(&again, ia, "{source}: decode(encode(ia)) != ia");
    assert_eq!(again.encode().into_bytes(), encoded, "{source}: re-encoding is not canonical");

    let forwarded = ia.prepended(4_200_000_000);
    let sent = forwarded.encode().into_bytes();
    assert_eq!(sent, written(&forwarded), "{source}: forwarding changed more than the head");
    assert_eq!(Ia::decode(sent).as_ref(), Ok(&forwarded), "{source}: the forwarded IA");
}

#[test]
fn corpus_replay_never_panics_and_accepts_canonically() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/fuzz_corpus");
    let mut replayed = 0;
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("fuzz_corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.extension().map(|e| e != "bin").unwrap_or(true) {
            continue;
        }
        let data = std::fs::read(&path).expect("corpus file");
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if let Ok(ia) = decode(&data) {
            assert_canonical(&ia, &name);
        }
        replayed += 1;
    }
    assert!(replayed >= 7, "fuzz corpus lost files: only {replayed} replayed");
}

/// The regressions the corpus pins, with their typed errors.
#[test]
fn corpus_inputs_fail_with_typed_errors() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/fuzz_corpus");
    let read = |name: &str| std::fs::read(format!("{dir}/{name}")).expect("corpus file");

    // MED larger than u32 was once silently truncated to its low bits.
    assert_eq!(decode(&read("med-overflow.bin")), Err(WireError::Overflow("med")));

    // A protocol count with no room for the key/length fields behind it
    // was once accepted by the loose `remaining + 1` bound.
    assert_eq!(
        decode(&read("pathdesc-count-lie.bin")),
        Err(WireError::MalformedIa("bad descriptor protocol count"))
    );

    assert_eq!(
        decode(&read("asset-count-lie.bin")),
        Err(WireError::MalformedIa("AS_SET count too large"))
    );
    assert_eq!(
        decode(&read("trunc-body.bin")),
        Err(WireError::Truncated { context: "IA record body" })
    );
    assert_eq!(decode(&read("membership-bad-range.bin")), Err(WireError::BadMembershipRange));

    // Unknown records and unknown-protocol descriptors must pass
    // through (CF-R1 at the codec layer), not error.
    let unknown = decode(&read("unknown-record-passthrough.bin")).expect("pass-through");
    assert_eq!(unknown.unknown_records.len(), 1);
    assert_eq!(unknown.unknown_records[0].tag, 200);
    let dup = decode(&read("dup-protocol-desc.bin")).expect("dup descriptors are legal");
    assert_eq!(dup.path_descriptors.len(), 2);
    assert_eq!(dup.path_descriptors[0].protocols, vec![ProtocolId(999)]);
}

// ----- mutation fuzzing ------------------------------------------------

fn seed_ia(rng: &mut TestRng) -> Ia {
    let prefixes = ["128.6.0.0/16", "10.0.0.0/8", "203.0.113.0/24", "0.0.0.0/0"];
    let prefix: Ipv4Prefix = prefixes[rng.below(prefixes.len() as u64) as usize].parse().unwrap();
    let mut ia = Ia::originate(prefix, Ipv4Addr(rng.next_u64() as u32));
    ia.origin = match rng.below(3) {
        0 => Origin::Igp,
        1 => Origin::Egp,
        _ => Origin::Incomplete,
    };
    if rng.below(2) == 1 {
        ia.med = Some(rng.next_u64() as u32);
    }
    for _ in 0..rng.below(6) {
        ia.path_vector.push(match rng.below(3) {
            0 => PathElem::As(1 + rng.below(1_000_000) as u32),
            1 => PathElem::Island(IslandId(1 + rng.below(1_000_000) as u32)),
            _ => PathElem::AsSet(
                (0..1 + rng.below(4)).map(|_| 1 + rng.below(1_000_000) as u32).collect(),
            ),
        });
    }
    let pvlen = ia.path_vector.len() as u16;
    if pvlen >= 2 && rng.below(2) == 1 {
        ia.memberships.push(IslandMembership {
            island: IslandId(7),
            start: 0,
            end: 1 + rng.below(u64::from(pvlen)) as u16,
        });
    }
    for _ in 0..rng.below(3) {
        // Unknown protocol IDs included on purpose: descriptors of
        // protocols this build has never heard of must survive.
        let proto = ProtocolId(rng.below(2000) as u16);
        ia.path_descriptors.push(PathDescriptor::new(
            proto,
            rng.below(200) as u16,
            (0..rng.below(32)).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>(),
        ));
    }
    for _ in 0..rng.below(3) {
        ia.island_descriptors.push(IslandDescriptor::new(
            IslandId(1 + rng.below(1000) as u32),
            ProtocolId(rng.below(2000) as u16),
            rng.below(200) as u16,
            (0..rng.below(32)).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>(),
        ));
    }
    if rng.below(4) == 0 {
        ia.unknown_records.push(UnknownRecord {
            tag: 100 + rng.below(1000),
            data: Bytes::from(
                (0..rng.below(16)).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>(),
            ),
        });
    }
    ia
}

fn mutate(bytes: &mut Vec<u8>, rng: &mut TestRng) {
    if bytes.is_empty() {
        bytes.push(rng.next_u64() as u8);
        return;
    }
    match rng.below(6) {
        // Bit flip.
        0 => {
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] ^= 1 << rng.below(8);
        }
        // Truncate.
        1 => {
            let keep = rng.below(bytes.len() as u64) as usize;
            bytes.truncate(keep);
        }
        // Length lie: overwrite a byte with an implausible length.
        2 => {
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] = [0x7f, 0xff, 0x00][rng.below(3) as usize];
        }
        // Duplicate a slice (stutters records, duplicates descriptors).
        3 => {
            let start = rng.below(bytes.len() as u64) as usize;
            let end = start + rng.below((bytes.len() - start) as u64 + 1) as usize;
            let slice: Vec<u8> = bytes[start..end].to_vec();
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            bytes.splice(at..at, slice);
        }
        // Splice random garbage in.
        4 => {
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            let garbage: Vec<u8> = (0..1 + rng.below(8)).map(|_| rng.next_u64() as u8).collect();
            bytes.splice(at..at, garbage);
        }
        // Append an unknown-tag record with a lying length.
        _ => {
            bytes.extend_from_slice(&[0xc9, 0x01, 0x40, 0xde, 0xad]);
        }
    }
}

#[test]
fn mutation_fuzz_decode_never_panics() {
    let cases: u64 =
        std::env::var("DBGP_WIRE_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(10_000);
    for case in 0..cases {
        let mut rng = TestRng::for_case("wire-mutation-fuzz", case);
        let ia = seed_ia(&mut rng);
        // The undamaged frame must round-trip exactly.
        assert_canonical(&ia, "seed");
        let mut bytes = ia.encode().into_bytes().to_vec();
        for _ in 0..=rng.below(3) {
            mutate(&mut bytes, &mut rng);
        }
        // Decode must return, not panic; accepted frames must stay
        // canonical even after damage.
        if let Ok(decoded) = decode(&bytes) {
            assert_canonical(&decoded, "mutated");
        }
    }
}
