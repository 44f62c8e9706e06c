//! Structured fuzzing of multi-NLRI UPDATE decoding plus
//! regression-corpus replay, mirroring `fuzz_corpus_replay` for the
//! BGP message layer.
//!
//! * **Corpus replay** — every `update-*.bin` in `fuzz_corpus/` is a
//!   framed BGP message fed through [`BgpMessage::decode`] at both AS
//!   widths. Malformed inputs must fail with *typed* errors
//!   ([`WireError`]), never a panic; accepted frames must re-encode
//!   canonically.
//! * **Mutation fuzzing** — multi-NLRI UPDATEs built by
//!   [`UpdateMsg::pack_announcements`] are encoded and then damaged
//!   (bit flips, truncations, length lies, splices). Decode must
//!   return, not panic.

use bytes::BytesMut;
use dbgp_wire::message::{BgpMessage, UpdateMsg, MAX_MESSAGE_LEN};
use dbgp_wire::{AsPath, Ipv4Addr, Ipv4Prefix, Origin, PathAttribute, WireError};
use proptest::test_runner::TestRng;

fn decode(bytes: &[u8], four_octet: bool) -> Result<Option<BgpMessage>, WireError> {
    let mut buf = BytesMut::from(bytes);
    BgpMessage::decode(&mut buf, four_octet)
}

fn corpus(name: &str) -> Vec<u8> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/fuzz_corpus");
    std::fs::read(format!("{dir}/{name}")).expect("corpus file")
}

#[test]
fn update_corpus_replay_never_panics() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/fuzz_corpus");
    let mut replayed = 0;
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("fuzz_corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if !name.starts_with("update-") || !name.ends_with(".bin") {
            continue;
        }
        let data = std::fs::read(&path).expect("corpus file");
        for four_octet in [false, true] {
            // Typed result either way; a panic fails the test.
            let _ = decode(&data, four_octet);
        }
        replayed += 1;
    }
    assert!(replayed >= 6, "UPDATE fuzz corpus lost files: only {replayed} replayed");
}

/// The regressions the UPDATE corpus pins, with their typed errors.
#[test]
fn update_corpus_inputs_fail_with_typed_errors() {
    // NLRI length octet declares a /24 but only two prefix octets
    // follow: `Ipv4Prefix::decode` must report truncation, not read
    // out of bounds.
    assert_eq!(
        decode(&corpus("update-trunc-prefix.bin"), false),
        Err(WireError::Truncated { context: "prefix bytes" })
    );

    // Prefix length 33 is beyond /32.
    assert_eq!(
        decode(&corpus("update-overlong-prefix.bin"), false),
        Err(WireError::MalformedPrefix)
    );

    // Withdrawn-routes length field lies about the bytes behind it.
    assert_eq!(
        decode(&corpus("update-trunc-withdrawn.bin"), false),
        Err(WireError::Truncated { context: "UPDATE withdrawn routes" })
    );

    // Zero withdrawn routes, zero attributes, zero NLRI — the
    // End-of-RIB marker shape (RFC 4724 §2) — is legal and empty.
    match decode(&corpus("update-zero-nlri.bin"), false) {
        Ok(Some(BgpMessage::Update(u))) => {
            assert!(u.withdrawn.is_empty() && u.attributes.is_empty() && u.nlri.is_empty());
        }
        other => panic!("zero-NLRI UPDATE should decode empty, got {other:?}"),
    }

    // A /32 host route is the maximum-length NLRI: five octets.
    match decode(&corpus("update-max-prefix.bin"), false) {
        Ok(Some(BgpMessage::Update(u))) => {
            assert_eq!(u.nlri, vec!["192.0.2.1/32".parse::<Ipv4Prefix>().unwrap()]);
        }
        other => panic!("max-length prefix should decode, got {other:?}"),
    }

    // Three prefixes under one shared attribute block.
    match decode(&corpus("update-multi-nlri.bin"), false) {
        Ok(Some(BgpMessage::Update(u))) => {
            let want: Vec<Ipv4Prefix> = ["10.0.0.0/8", "128.6.0.0/16", "203.0.113.0/24"]
                .iter()
                .map(|s| s.parse().unwrap())
                .collect();
            assert_eq!(u.nlri, want);
            assert_eq!(u.attributes.len(), 3, "one attribute block for all three");
        }
        other => panic!("multi-NLRI UPDATE should decode, got {other:?}"),
    }
}

// ----- mutation fuzzing ------------------------------------------------

fn seed_prefix(rng: &mut TestRng) -> Ipv4Prefix {
    let len = rng.below(33) as u8;
    Ipv4Prefix::new(Ipv4Addr(rng.next_u64() as u32), len).unwrap()
}

fn seed_updates(rng: &mut TestRng) -> Vec<UpdateMsg> {
    let n = 1 + rng.below(64) as usize;
    let nlri: Vec<Ipv4Prefix> = (0..n).map(|_| seed_prefix(rng)).collect();
    let attrs = vec![
        PathAttribute::Origin(Origin::Igp),
        // ASNs stay under 2^16 so the frame is lossless at either AS
        // width (wider ones map to AS_TRANS in 2-octet sessions).
        PathAttribute::AsPath(AsPath::from_sequence(
            (0..1 + rng.below(5)).map(|_| 1 + rng.below(60_000) as u32).collect::<Vec<u32>>(),
        )),
        PathAttribute::NextHop(Ipv4Addr(rng.next_u64() as u32)),
    ];
    if rng.below(4) == 0 {
        return UpdateMsg::pack_withdrawals(&nlri);
    }
    UpdateMsg::pack_announcements(&nlri, attrs, rng.below(2) == 1)
        .expect("a three-attribute block leaves room for NLRI")
}

fn mutate(bytes: &mut Vec<u8>, rng: &mut TestRng) {
    if bytes.is_empty() {
        bytes.push(rng.next_u64() as u8);
        return;
    }
    match rng.below(5) {
        0 => {
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] ^= 1 << rng.below(8);
        }
        1 => {
            let keep = rng.below(bytes.len() as u64) as usize;
            bytes.truncate(keep);
        }
        // Length lie aimed at the NLRI length octets in the tail.
        2 => {
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] = [0x21, 0xff, 0x00, 0x20][rng.below(4) as usize];
        }
        3 => {
            let start = rng.below(bytes.len() as u64) as usize;
            let end = start + rng.below((bytes.len() - start) as u64 + 1) as usize;
            let slice: Vec<u8> = bytes[start..end].to_vec();
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            bytes.splice(at..at, slice);
        }
        _ => {
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            let garbage: Vec<u8> = (0..1 + rng.below(8)).map(|_| rng.next_u64() as u8).collect();
            bytes.splice(at..at, garbage);
        }
    }
}

#[test]
fn mutation_fuzz_update_decode_never_panics() {
    let cases: u64 =
        std::env::var("DBGP_WIRE_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(4_000);
    for case in 0..cases {
        let mut rng = TestRng::for_case("update-nlri-fuzz", case);
        let four_octet = rng.below(2) == 1;
        for msg in seed_updates(&mut rng) {
            let framed = BgpMessage::Update(msg.clone()).encode(four_octet);
            assert!(framed.len() <= MAX_MESSAGE_LEN);
            // The undamaged frame must round-trip exactly.
            match decode(&framed, four_octet) {
                Ok(Some(BgpMessage::Update(u))) => assert_eq!(u, msg, "case {case}"),
                other => panic!("case {case}: seed frame rejected: {other:?}"),
            }
            let mut bytes = framed.to_vec();
            for _ in 0..=rng.below(3) {
                mutate(&mut bytes, &mut rng);
            }
            // Decode must return (typed error or acceptance), not
            // panic — at either AS width, regardless of what the
            // mutation hit.
            let _ = decode(&bytes, four_octet);
            let _ = decode(&bytes, !four_octet);
        }
    }
}
