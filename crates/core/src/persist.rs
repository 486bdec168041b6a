//! On-disk persistence for the [`crate::EvalCache`]: a hand-rolled,
//! checksummed, crash-safe record format (no serialisation dependency).
//!
//! # File format (`evalcache.v1.bin`, little-endian throughout)
//!
//! ```text
//! magic   8 bytes   b"WSNEVC1\n"
//! record  repeated  until EOF
//! ```
//!
//! Each record frames one `(EvalKey, f64)` pair:
//!
//! ```text
//! len       u32   payload length = 28 + 8·n (engine..value, below)
//! engine    u64   EvalKey engine fingerprint
//! scenario  u64   EvalKey scenario fingerprint
//! n         u32   coordinate count (must equal (len − 28) / 8)
//! point     i64×n quantised coordinates
//! value     f64   cached response (bit pattern)
//! checksum  u64   FNV-1a over the len bytes and the payload bytes
//! ```
//!
//! # Corruption detection
//!
//! Every load verifies, per record: the length's framing invariants
//! (`len ≥ 28`, `(len − 28) % 8 == 0`, a sane coordinate bound), the
//! redundant `n == (len − 28) / 8` cross-check, and the FNV-1a checksum.
//! FNV-1a absorbs one byte per step and every step is a bijection on the
//! 64-bit state, so two equal-length streams differing in exactly one
//! byte can never collide — any single-byte flip in a record's payload
//! is provably caught, and flips in `len` are caught by the framing and
//! cross-check (shifted-frame checksums fail with overwhelming
//! probability). A detected corruption **quarantines** the record and —
//! because a broken frame desynchronises everything after it — the rest
//! of the file: the loader keeps what it verified, warns, and never
//! aborts. Quarantined entries are simply recomputed on demand.
//!
//! # Crash safety
//!
//! [`write_cache_file`] writes to a process-unique temp file in the
//! target directory and atomically renames it over the destination, so
//! a crash mid-write leaves either the old file or the new file — never
//! a torn one. Stale temp files are ignored by the loader and rewritten
//! by the next flush.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;

use crate::pool::EvalKey;

/// Cache file name inside a `--cache-dir` directory (the `v1` is the
/// format version: breaking layout changes get a new name, so old and
/// new binaries never misread each other's files).
pub(crate) const CACHE_FILE: &str = "evalcache.v1.bin";

/// File magic: identifies the format and catches truncation-to-garbage.
const MAGIC: &[u8; 8] = b"WSNEVC1\n";

/// Fixed payload bytes per record: engine (8) + scenario (8) + n (4) +
/// value (8).
const FIXED_PAYLOAD: usize = 28;

/// Upper bound on coordinates per record — far above any design space
/// here, low enough that a corrupted length can never trigger a huge
/// allocation.
const MAX_COORDS: usize = 4096;

/// What a load found: the verified records plus the quarantine count.
#[derive(Debug, Default)]
pub(crate) struct LoadOutcome {
    /// Verified `(key, value)` pairs in file order (later duplicates of
    /// a key supersede earlier ones).
    pub records: Vec<(EvalKey, f64)>,
    /// Corrupt records detected and skipped. A broken frame counts once
    /// and ends the load (the tail cannot be trusted after a framing
    /// loss).
    pub quarantined: usize,
}

/// FNV-1a over a byte stream.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for chunk in chunks {
        for &byte in *chunk {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Reads and verifies a cache file. A missing file is an empty cache;
/// corrupt records are quarantined, never fatal. Only genuine I/O
/// failures (permissions, hardware) surface as errors.
pub(crate) fn read_cache_file(path: &Path) -> io::Result<LoadOutcome> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(LoadOutcome::default()),
        Err(e) => return Err(e),
    };
    let mut outcome = LoadOutcome::default();
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        outcome.quarantined = 1;
        return Ok(outcome);
    }
    let mut offset = MAGIC.len();
    while offset < bytes.len() {
        match read_record(&bytes[offset..]) {
            Some((record, consumed)) => {
                outcome.records.push(record);
                offset += consumed;
            }
            None => {
                // Framing or checksum failure: quarantine this record
                // and stop — byte offsets after a broken frame are
                // meaningless.
                outcome.quarantined += 1;
                break;
            }
        }
    }
    Ok(outcome)
}

/// Parses and verifies one record at the start of `bytes`, returning it
/// with the number of bytes consumed, or `None` on any violation.
fn read_record(bytes: &[u8]) -> Option<((EvalKey, f64), usize)> {
    let len_bytes: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len < FIXED_PAYLOAD || !(len - FIXED_PAYLOAD).is_multiple_of(8) {
        return None;
    }
    let n = (len - FIXED_PAYLOAD) / 8;
    if n > MAX_COORDS {
        return None;
    }
    let payload = bytes.get(4..4 + len)?;
    let checksum_bytes: [u8; 8] = bytes.get(4 + len..4 + len + 8)?.try_into().ok()?;
    if fnv1a(&[&len_bytes, payload]) != u64::from_le_bytes(checksum_bytes) {
        return None;
    }
    let engine = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let scenario = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    let stored_n = u32::from_le_bytes(payload[16..20].try_into().ok()?) as usize;
    if stored_n != n {
        return None;
    }
    let mut point = Vec::with_capacity(n);
    for i in 0..n {
        let at = 20 + 8 * i;
        point.push(i64::from_le_bytes(payload[at..at + 8].try_into().ok()?));
    }
    let value = f64::from_bits(u64::from_le_bytes(
        payload[20 + 8 * n..28 + 8 * n].try_into().ok()?,
    ));
    Some((
        (
            EvalKey {
                engine,
                scenario,
                point,
            },
            value,
        ),
        4 + len + 8,
    ))
}

/// Serialises one record into `out`.
fn write_record(out: &mut Vec<u8>, key: &EvalKey, value: f64) {
    let len = (FIXED_PAYLOAD + 8 * key.point.len()) as u32;
    let len_bytes = len.to_le_bytes();
    let mut payload = Vec::with_capacity(len as usize);
    payload.extend_from_slice(&key.engine.to_le_bytes());
    payload.extend_from_slice(&key.scenario.to_le_bytes());
    payload.extend_from_slice(&(key.point.len() as u32).to_le_bytes());
    for &coord in &key.point {
        payload.extend_from_slice(&coord.to_le_bytes());
    }
    payload.extend_from_slice(&value.to_bits().to_le_bytes());
    let checksum = fnv1a(&[&len_bytes, &payload]);
    out.extend_from_slice(&len_bytes);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// Atomically replaces `path` with a file holding `entries`.
///
/// Records are written in sorted key order, so the same entries always
/// produce the same bytes (handy for tests and content comparison). The
/// write goes to a process-unique sibling temp file first and is
/// `rename`d into place — the destination is never torn.
pub(crate) fn write_cache_file(path: &Path, entries: &HashMap<EvalKey, f64>) -> io::Result<()> {
    let mut sorted: Vec<(&EvalKey, &f64)> = entries.iter().collect();
    sorted.sort_by(|(a, _), (b, _)| {
        (a.engine, a.scenario, &a.point).cmp(&(b.engine, b.scenario, &b.point))
    });
    let mut bytes = Vec::with_capacity(MAGIC.len() + 64 * sorted.len());
    bytes.extend_from_slice(MAGIC);
    for (key, &value) in sorted {
        write_record(&mut bytes, key, value);
    }

    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let tmp = dir.join(format!(
        "{}.tmp.{}",
        path.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or(CACHE_FILE),
        std::process::id()
    ));
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Never leave the temp file behind on failure.
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_node::EngineKind;

    fn sample_entries() -> HashMap<EvalKey, f64> {
        let mut entries = HashMap::new();
        for i in 0..8 {
            let key = EvalKey::for_engine(
                EngineKind::Envelope.engine().as_ref(),
                1000 + i,
                &[i as f64 * 0.25, -0.5, 1.0],
            );
            entries.insert(key, i as f64 * 1.5 - 2.0);
        }
        // A key with different arity and an engine fingerprint beyond u8.
        entries.insert(
            EvalKey {
                engine: 0xdead_beef_dead_beef,
                scenario: 7,
                point: vec![42],
            },
            f64::MIN_POSITIVE,
        );
        entries
    }

    #[test]
    fn round_trips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("wsn-persist-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CACHE_FILE);
        let entries = sample_entries();
        write_cache_file(&path, &entries).unwrap();
        let loaded = read_cache_file(&path).unwrap();
        assert_eq!(loaded.quarantined, 0);
        assert_eq!(loaded.records.len(), entries.len());
        for (key, value) in loaded.records {
            assert_eq!(entries[&key].to_bits(), value.to_bits());
        }
        // Deterministic bytes: writing the same entries again is
        // byte-identical.
        let first = std::fs::read(&path).unwrap();
        write_cache_file(&path, &entries).unwrap();
        assert_eq!(first, std::fs::read(&path).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_cache() {
        let outcome = read_cache_file(Path::new("/nonexistent/evalcache.v1.bin")).unwrap();
        assert!(outcome.records.is_empty());
        assert_eq!(outcome.quarantined, 0);
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let dir = std::env::temp_dir().join(format!("wsn-persist-flip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CACHE_FILE);
        let entries = sample_entries();
        write_cache_file(&path, &entries).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let truth: HashMap<EvalKey, u64> = entries
            .iter()
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect();

        for at in 0..pristine.len() {
            let mut corrupt = pristine.clone();
            corrupt[at] ^= 0x40;
            std::fs::write(&path, &corrupt).unwrap();
            let outcome = read_cache_file(&path).unwrap();
            // Never a wrong value: every surviving record matches the
            // original bit-for-bit...
            for (key, value) in &outcome.records {
                assert_eq!(
                    truth.get(key).copied(),
                    Some(value.to_bits()),
                    "byte {at}: corrupted record slipped through"
                );
            }
            // ...and the corruption itself never goes unnoticed.
            assert!(
                outcome.quarantined > 0 || outcome.records.len() < truth.len(),
                "byte {at}: corruption neither quarantined nor dropped"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_is_safe() {
        let dir = std::env::temp_dir().join(format!("wsn-persist-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CACHE_FILE);
        let entries = sample_entries();
        write_cache_file(&path, &entries).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let truth: HashMap<EvalKey, u64> = entries
            .iter()
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect();

        for keep in 0..pristine.len() {
            std::fs::write(&path, &pristine[..keep]).unwrap();
            let outcome = read_cache_file(&path).unwrap();
            for (key, value) in &outcome.records {
                assert_eq!(
                    truth.get(key).copied(),
                    Some(value.to_bits()),
                    "truncation at {keep}: wrong value"
                );
            }
            assert!(outcome.records.len() <= truth.len());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_file_is_fully_quarantined() {
        let dir = std::env::temp_dir().join(format!("wsn-persist-garb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CACHE_FILE);
        std::fs::write(&path, b"this is not a cache file at all").unwrap();
        let outcome = read_cache_file(&path).unwrap();
        assert!(outcome.records.is_empty());
        assert_eq!(outcome.quarantined, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
