//! Seeded mutation pass over the golden fixtures of every format Shark
//! writes: the spill frame, the catalog WAL, the snapshot, the manifest
//! and each of the twelve wire frames.
//!
//! Each fixture is mutated three ways and fed to its decoder:
//!
//! * cut at every byte;
//! * every byte XORed with a non-zero mask drawn from the case's seed;
//! * every aligned 4-byte window overwritten with `u32::MAX` and every
//!   aligned 8-byte window with `u64::MAX`.
//!
//! Each mutant is decoded as is and again with its checksums recomputed,
//! so the mutation reaches the body decoder instead of stopping at the
//! checksum. For every mutant:
//!
//! * nothing panics (the harness turns a panic into a failure with its
//!   seed);
//! * an accepted input re-encodes to bytes that decode and re-encode to
//!   themselves (decode∘encode∘decode == decode, compared as bytes: bools
//!   decode any non-zero byte as true, so the mutant's own bytes are not
//!   the contract);
//! * the bytes allocated at peak while decoding stay under a fixed
//!   multiple of the input size, measured by this binary's own counting
//!   `#[global_allocator]`.

mod harness;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use harness::check;
use rand::rngs::StdRng;
use rand::Rng;
use shark_columnar::{decode_partition, encode_partition, SPILL_HEADER_BYTES};
use shark_common::hash::{fnv1a, fnv1a_from};
use shark_server::net::frame::{self, Frame, HEADER_BYTES};
use shark_server::{
    read_manifest, read_snapshot, replay_wal, write_manifest, write_snapshot, WalRecord, WalWriter,
};

const SPILL: &[u8] = include_bytes!("../../crates/columnar/tests/fixtures/spill_v2.bin");
const WAL: &[u8] = include_bytes!("../../crates/server/tests/fixtures/wal_v1.bin");
const SNAPSHOT: &[u8] = include_bytes!("../../crates/server/tests/fixtures/snapshot_v1.bin");
const MANIFEST: &[u8] = include_bytes!("../../crates/server/tests/fixtures/manifest_v1.bin");
const WIRE: &[u8] = include_bytes!("../../crates/server/tests/fixtures/wire_v1.bin");

/// Seeds per fixture; the cuts and windows repeat, the flip masks differ.
const CASES: u64 = 2;

/// Peak decode allocation allowed per input byte. The largest in-memory
/// item per encoded byte is a `Value` (24 bytes) decoded from its one-byte
/// NULL tag; the fixtures' mutants stay under 17.
const PEAK_PER_INPUT_BYTE: usize = 32;
/// Fixed allowance on top: error messages, and the path and file buffer of
/// the decoders that read from a file.
const PEAK_SLACK_BYTES: usize = 4 << 10;

struct PeakAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: defers every operation to `System` unchanged; the counters are a
// side effect that touches no allocator state.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new blocks may both be live while the bytes move.
        grew(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        out
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// One test measures at a time, so no other test's allocations count.
static MEASURING: Mutex<()> = Mutex::new(());

/// Run `f`, returning its result and the peak bytes it held above what was
/// live when it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

/// Call `each` with every mutant of `fixture`.
fn for_each_mutant(fixture: &[u8], rng: &mut StdRng, mut each: impl FnMut(&[u8])) {
    for cut in 0..fixture.len() {
        each(&fixture[..cut]);
    }
    let mut bytes = fixture.to_vec();
    for i in 0..bytes.len() {
        let mask = rng.gen_range(1..=255u8);
        bytes[i] ^= mask;
        each(&bytes);
        bytes[i] ^= mask;
    }
    for width in [4, 8] {
        for at in (0..bytes.len() / width * width).step_by(width) {
            let saved = bytes[at..at + width].to_vec();
            bytes[at..at + width].fill(0xff);
            each(&bytes);
            bytes[at..at + width].copy_from_slice(&saved);
        }
    }
}

/// Run every mutant of `fixture`, as is and with `reseal` recomputing its
/// checksums, through `decode` (`None` = rejected); returns how many were
/// accepted while differing from the fixture.
fn mutate<T>(
    name: &str,
    fixture: &[u8],
    reseal: fn(&mut [u8]),
    decode: impl Fn(&[u8]) -> Option<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> usize {
    let _serial = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let once = decode(fixture).expect("the fixture itself decodes");
    assert_eq!(encode(&once), fixture, "{name}");
    let accepted = Cell::new(0);
    check(name, CASES, |rng| {
        for_each_mutant(fixture, rng, |mutant| {
            let mut resealed = mutant.to_vec();
            reseal(&mut resealed);
            for input in [mutant, &resealed[..]] {
                let (decoded, peak) = peak_during(|| decode(input));
                let budget = PEAK_PER_INPUT_BYTE * input.len() + PEAK_SLACK_BYTES;
                assert!(
                    peak <= budget,
                    "{name}: decoding {} bytes held {peak} bytes at peak (budget {budget})",
                    input.len()
                );
                let Some(value) = decoded else { continue };
                accepted.set(accepted.get() + usize::from(input != fixture));
                let canonical = encode(&value);
                let again = decode(&canonical).expect("a re-encoding decodes");
                assert_eq!(encode(&again), canonical, "{name}");
            }
        });
    });
    accepted.get()
}

/// Resealed mutants of integer, string and value bytes decode; if none
/// did, the mutations never got past the checksum to the body decoder.
fn assert_reached_the_body(name: &str, accepted: usize) {
    assert!(
        accepted > 0,
        "{name}: no mutant other than the fixture decoded"
    );
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shark-mutation-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Decode bytes the way a file-backed reader does: write, then read back.
fn via_file<T>(dir: &Path, bytes: &[u8], read: impl FnOnce(&Path) -> T) -> T {
    let path = dir.join("input");
    fs::write(&path, bytes).unwrap();
    read(&path)
}

/// The bytes a file-backed writer produces.
fn file_bytes(dir: &Path, write: impl FnOnce(&Path)) -> Vec<u8> {
    let path = dir.join("output");
    write(&path);
    fs::read(&path).unwrap()
}

#[test]
fn spill_frame_mutants_decode_or_fail_cleanly() {
    let accepted = mutate(
        "spill",
        SPILL,
        |b| {
            if b.len() >= SPILL_HEADER_BYTES {
                let sum = fnv1a_from(fnv1a(&b[12..20]), &b[SPILL_HEADER_BYTES..]);
                b[28..36].copy_from_slice(&sum.to_le_bytes());
            }
        },
        |b| decode_partition(b).ok(),
        |(part, version)| encode_partition(part, *version),
    );
    assert_reached_the_body("spill", accepted);
}

/// Recompute every whole record's checksum in a WAL image.
fn reseal_wal(b: &mut [u8]) {
    let mut pos = 12;
    while pos + 12 <= b.len() {
        let len = u32::from_le_bytes(b[pos..pos + 4].try_into().unwrap()) as usize;
        let Some(end) = (pos + 12).checked_add(len).filter(|&end| end <= b.len()) else {
            break;
        };
        let sum = fnv1a(&b[pos + 12..end]);
        b[pos + 4..pos + 12].copy_from_slice(&sum.to_le_bytes());
        pos = end;
    }
}

#[test]
fn wal_mutants_replay_a_valid_prefix_or_nothing() {
    let dir = scratch("wal");
    // Replay always yields the valid prefix; a file it rejects outright
    // replays as empty, which re-encodes to a bare header.
    let accepted = mutate(
        "wal",
        WAL,
        reseal_wal,
        |b| Some(via_file(&dir, b, replay_wal).records),
        |records: &Vec<WalRecord>| {
            file_bytes(&dir, |p| {
                WalWriter::create(p).unwrap().append_batch(records).unwrap()
            })
        },
    );
    assert_reached_the_body("wal", accepted);
    let _ = fs::remove_dir_all(&dir);
}

/// Recompute a snapshot/manifest envelope's payload checksum.
fn reseal_envelope(b: &mut [u8]) {
    if b.len() >= 28 {
        let sum = fnv1a(&b[28..]);
        b[20..28].copy_from_slice(&sum.to_le_bytes());
    }
}

#[test]
fn snapshot_and_manifest_mutants_decode_or_fail_cleanly() {
    let dir = scratch("envelope");
    let snapshots = mutate(
        "snapshot",
        SNAPSHOT,
        reseal_envelope,
        |b| via_file(&dir, b, read_snapshot).ok(),
        |s| file_bytes(&dir, |p| write_snapshot(p, s).unwrap()),
    );
    assert_reached_the_body("snapshot", snapshots);
    let manifests = mutate(
        "manifest",
        MANIFEST,
        reseal_envelope,
        |b| via_file(&dir, b, read_manifest).ok(),
        |m| file_bytes(&dir, |p| write_manifest(p, m).unwrap()),
    );
    assert_reached_the_body("manifest", manifests);
    let _ = fs::remove_dir_all(&dir);
}

/// What `read_body` does once the payload has arrived: check the header,
/// the length and the checksum, then decode the payload.
fn decode_frame(b: &[u8]) -> Option<Frame> {
    let header = frame::parse_header(b.get(..HEADER_BYTES)?.try_into().ok()?).ok()?;
    let payload = &b[HEADER_BYTES..];
    if payload.len() != header.len as usize || frame::checksum(payload) != header.checksum {
        return None;
    }
    Frame::decode_payload(header.frame_type, payload).ok()
}

fn reseal_frame(b: &mut [u8]) {
    if b.len() >= HEADER_BYTES {
        let sum = frame::checksum(&b[HEADER_BYTES..]);
        b[5..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
    }
}

fn encode_frame(f: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    frame::append_frame(&mut out, f);
    out
}

#[test]
fn wire_frame_mutants_decode_or_fail_cleanly() {
    let mut rest = WIRE;
    let mut accepted = 0;
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let (one, tail) = rest.split_at(HEADER_BYTES + len);
        accepted += mutate("wire", one, reseal_frame, decode_frame, encode_frame);
        rest = tail;
    }
    assert_reached_the_body("wire", accepted);
}
