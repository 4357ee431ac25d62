//! Totality of the wire decoder on hostile bytes, driven by the
//! workspace's own deterministic [`wivi_num::Rng64`] — seeded, so a
//! failure is a repro, not a flake.
//!
//! [`split_frame`] and [`Frame::decode_body`] read untrusted bytes
//! straight off a socket. The W-series lint argues statically that they
//! cannot panic; this suite feeds them byte soup of random lengths and
//! valid frames of every type with random byte flips, truncations and
//! length-field edits, and checks two properties:
//!
//! 1. **Totality**: every input returns, and a split never claims more
//!    bytes than it was given.
//! 2. **Re-encoding is stable**: where a frame decodes, its encoding
//!    splits back into a frame whose encoding is the same bytes. Bytes
//!    are compared, not frames, so a NaN field cannot fail it.

use wivi_num::Rng64;
use wivi_serve::wire::{split_frame, Frame, OpenRequest, WireOutput, MAX_FRAME_LEN};
use wivi_serve::{ServeEvent, WIRE_VERSION};
use wivi_track::{EventKind, TrackEvent};

/// Inputs per generator: tens of milliseconds in release.
const ITERATIONS: usize = 20_000;

fn below(rng: &mut Rng64, n: usize) -> usize {
    rng.gen_below(n as u64) as usize
}

fn bytes(rng: &mut Rng64, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A short string: ASCII, multi-byte UTF-8, or empty.
fn text(rng: &mut Rng64) -> String {
    let alphabet = ['a', 'Z', '0', '-', '_', ' ', 'é', 'θ', '🛰'];
    (0..below(rng, 12))
        .map(|_| alphabet[below(rng, alphabet.len())])
        .collect()
}

/// Any f64 bit pattern, NaNs and infinities included.
fn float(rng: &mut Rng64) -> f64 {
    f64::from_bits(rng.next_u64())
}

fn track_event(rng: &mut Rng64) -> TrackEvent {
    let kind = match below(rng, 4) {
        0 => EventKind::Entry {
            theta_deg: float(rng),
        },
        1 => EventKind::Exit {
            theta_deg: float(rng),
        },
        2 => EventKind::Crossing {
            direction: rng.next_u64() as i8,
        },
        _ => EventKind::CountChange {
            count: below(rng, 1 << 20),
        },
    };
    TrackEvent {
        window: below(rng, 1 << 20),
        time_s: float(rng),
        track_id: rng.gen_bool(0.5).then(|| rng.next_u64() as u32),
        kind,
    }
}

/// A valid frame of type `k` (mod 10) with random fields.
fn frame(rng: &mut Rng64, k: usize) -> Frame {
    match k % 10 {
        0 => Frame::Hello { token: text(rng) },
        1 => Frame::HelloOk,
        2 => Frame::Open(OpenRequest {
            id: rng.next_u64(),
            seed: rng.next_u64(),
            duration_s: float(rng),
            start_s: float(rng),
            mode: text(rng),
            scene: text(rng),
            config: text(rng),
            trace: rng.gen_bool(0.5).then(|| rng.next_u64()),
        }),
        3 => Frame::OpenOk {
            id: rng.next_u64(),
            shard: rng.next_u64() as u32,
        },
        4 => Frame::Close { id: rng.next_u64() },
        5 => Frame::Finish,
        6 => Frame::Event(ServeEvent {
            time_s: float(rng),
            session: rng.next_u64(),
            seq: below(rng, 1 << 20),
            event: track_event(rng),
        }),
        7 => Frame::Output(WireOutput {
            id: rng.next_u64(),
            shard: rng.next_u64(),
            mode: text(rng),
            start_s: float(rng),
            n_requested: rng.next_u64(),
            n_samples: rng.next_u64(),
            n_columns: rng.next_u64(),
            closed_early: rng.gen_bool(0.5),
            nulling_db: float(rng),
            events: (0..below(rng, 4)).map(|_| track_event(rng)).collect(),
            payload: {
                let len = below(rng, 64);
                bytes(rng, len)
            },
        }),
        8 => Frame::Error {
            code: text(rng),
            id: rng.next_u64(),
            message: text(rng),
        },
        _ => Frame::Bye,
    }
}

/// Where `bytes` decode as a frame, its encoding must split back into
/// a frame that encodes to the same bytes.
fn assert_reencodes(frame: &Frame, input: &[u8]) {
    let encoded = frame.encode();
    let (again, used) = split_frame(&encoded)
        .unwrap_or_else(|e| panic!("re-encoded frame fails to split ({e}); input {input:02x?}"))
        .unwrap_or_else(|| panic!("re-encoded frame is incomplete; input {input:02x?}"));
    assert_eq!(used, encoded.len(), "input {input:02x?}");
    assert_eq!(again.encode(), encoded, "input {input:02x?}");
}

/// Runs both decoders over `input`, as a stream to split and as a
/// frame body; `true` if the split yields a frame.
fn check(input: &[u8]) -> bool {
    if let Ok(frame) = Frame::decode_body(input) {
        assert_reencodes(&frame, input);
    }
    match split_frame(input) {
        Ok(Some((frame, used))) => {
            assert!(
                used <= input.len(),
                "split claimed {used} of {} B",
                input.len()
            );
            assert_reencodes(&frame, input);
            true
        }
        Ok(None) | Err(_) => false,
    }
}

#[test]
fn byte_soup_never_panics() {
    let mut rng = Rng64::seed_from_u64(0x5EED_F00D);
    let mut decoded = 0;
    for _ in 0..ITERATIONS {
        let len = below(&mut rng, 96);
        let mut input = bytes(&mut rng, len);
        // Half the time, a length field that covers the rest and a
        // plausible header, so the soup reaches the body decoders.
        if input.len() >= 6 && rng.gen_bool(0.5) {
            let body = (input.len() - 4) as u32;
            input[..4].copy_from_slice(&body.to_le_bytes());
            input[4] = WIRE_VERSION;
            input[5] = 1 + below(&mut rng, 10) as u8;
        }
        decoded += usize::from(check(&input));
    }
    // Soup that happens to spell a frame (most often a fieldless one)
    // must reach the re-encoding check too.
    assert!(decoded > 0, "no soup decoded");
}

#[test]
fn valid_frames_round_trip_byte_stable() {
    let mut rng = Rng64::seed_from_u64(0xF4A3E5);
    for k in 0..ITERATIONS {
        let f = frame(&mut rng, k);
        let bytes = f.encode();
        let (back, used) = split_frame(&bytes).expect("valid").expect("complete");
        assert_eq!(used, bytes.len());
        assert_eq!(back.encode(), bytes, "{f:?}");
        check(&bytes);
    }
}

#[test]
fn damaged_frames_never_panic() {
    let mut rng = Rng64::seed_from_u64(0xDA3A6E);
    let mut decoded = 0;
    for k in 0..ITERATIONS {
        let mut input = frame(&mut rng, k).encode();
        match below(&mut rng, 4) {
            // One to four flipped bytes.
            0 => {
                for _ in 0..1 + below(&mut rng, 4) {
                    let i = below(&mut rng, input.len());
                    input[i] ^= 1 + below(&mut rng, 255) as u8;
                }
            }
            // A truncation.
            1 => input.truncate(below(&mut rng, input.len())),
            // A frame length off by a little, or far out of range.
            2 => {
                let len = u32::from_le_bytes(input[..4].try_into().unwrap());
                let edited = match below(&mut rng, 4) {
                    0 => len.wrapping_sub(1 + below(&mut rng, 8) as u32),
                    1 => len.wrapping_add(1 + below(&mut rng, 8) as u32),
                    2 => MAX_FRAME_LEN as u32 + 1,
                    _ => rng.next_u64() as u32,
                };
                input[..4].copy_from_slice(&edited.to_le_bytes());
            }
            // Any four bytes past the header — an inner string or list
            // length when they land on one — set to an edge value.
            _ => {
                if input.len() >= 10 {
                    let at = 6 + below(&mut rng, input.len() - 9);
                    let edges = [0, 1, u32::MAX, 1 << 28, (1 << 28) + 1];
                    let v = edges[below(&mut rng, edges.len())];
                    input[at..at + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
        }
        decoded += usize::from(check(&input));
    }
    // A flip inside a payload or a string often still decodes.
    assert!(
        decoded > ITERATIONS / 10,
        "{decoded} damaged frames decoded"
    );
}
