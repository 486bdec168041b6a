//! On-disk persistence for the [`crate::EvalCache`]: a hand-rolled,
//! checksummed, crash-safe record format (no serialisation dependency).
//!
//! # File format (`evalcache.v2.bin`, little-endian throughout)
//!
//! ```text
//! magic   8 bytes   b"WSNEVC2\n"
//! record  repeated  until EOF
//! ```
//!
//! Each record frames one `(EvalKey, EvalRecord)` pair:
//!
//! ```text
//! len            u32    payload length = 144 + 8·(n + t) (engine..tx_times)
//! engine         u64    EvalKey engine fingerprint
//! scenario       u64    EvalKey scenario fingerprint
//! n              u32    coordinate count
//! point          i64×n  quantised coordinates
//! transmissions  u64
//! final_voltage  f64    (bit pattern, like every f64 here)
//! energy         f64×7  harvested, transmission, mcu, actuator,
//!                       accelerometer, sleep, leakage
//! faults         u64×5  tx_failures, tx_retries, tx_aborts, brownouts,
//!                       watchdog_misses
//! tier           u64    degradation tier (must fit a u8)
//! t              u32    timestamp count (must equal (len − 144)/8 − n)
//! tx_times       f64×t  transmission timestamps
//! checksum       u64    FNV-1a over the len bytes and the payload bytes
//! ```
//!
//! # Corruption detection
//!
//! Every load verifies, per record: the length's framing invariants
//! (`len ≥ 144`, `(len − 144) % 8 == 0`), a sane coordinate bound, the
//! redundant `n` and `t` cross-check against `len`, and the FNV-1a
//! checksum. FNV-1a absorbs one byte per step and every step is a
//! bijection on the 64-bit state, so two equal-length streams differing
//! in exactly one byte can never collide — any single-byte flip in a
//! record's payload is provably caught, and flips in `len` are caught by
//! the framing and cross-check (shifted-frame checksums fail with
//! overwhelming probability). A detected corruption **quarantines** the
//! record and — because a broken frame desynchronises everything after
//! it — the rest of the file: the loader keeps what it verified, warns,
//! and never aborts. Quarantined entries are simply recomputed on demand.
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
use std::sync::Arc;

use wsn_node::{EnergyBreakdown, FaultCounters};

use crate::pool::{EvalKey, EvalRecord};

/// Cache file name inside a `--cache-dir` directory (the `v2` is the
/// format version: breaking layout changes get a new name, so old and
/// new binaries never misread each other's files).
pub(crate) const CACHE_FILE: &str = "evalcache.v2.bin";

/// File magic: identifies the format and catches truncation-to-garbage.
const MAGIC: &[u8; 8] = b"WSNEVC2\n";

/// Fixed payload bytes per record: engine (8) + scenario (8) + n (4) +
/// the record's [`WORDS`] words (8 each) + t (4).
const FIXED_PAYLOAD: usize = 24 + 8 * WORDS;

/// Fixed-size record fields, one 64-bit word each.
const WORDS: usize = 15;

/// Upper bound on coordinates per record — far above any design space
/// here, low enough that a corrupted length can never trigger a huge
/// allocation.
const MAX_COORDS: usize = 4096;

/// What a load found: the verified records plus the quarantine count.
#[derive(Debug, Default)]
pub(crate) struct LoadOutcome {
    /// Verified `(key, record)` pairs in file order (later duplicates of
    /// a key supersede earlier ones).
    pub records: Vec<(EvalKey, Arc<EvalRecord>)>,
    /// Corrupt records detected and skipped. A broken frame counts once
    /// and ends the load (the tail cannot be trusted after a framing
    /// loss).
    pub quarantined: usize,
}

/// FNV-1a over a byte stream.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    chunks
        .iter()
        .fold(FNV_OFFSET, |h, chunk| wsn_node::fold_bytes(h, chunk))
}

/// A record's fixed-size fields as words, in file order.
fn record_words(r: &EvalRecord) -> [u64; WORDS] {
    let e = &r.energy;
    let f = &r.faults;
    [
        r.transmissions,
        r.final_voltage.to_bits(),
        e.harvested.to_bits(),
        e.transmission.to_bits(),
        e.mcu.to_bits(),
        e.actuator.to_bits(),
        e.accelerometer.to_bits(),
        e.sleep.to_bits(),
        e.leakage.to_bits(),
        f.tx_failures,
        f.tx_retries,
        f.tx_aborts,
        f.brownouts,
        f.watchdog_misses,
        u64::from(r.tier),
    ]
}

/// The record whose fixed fields are `w`; `None` for a tier beyond `u8`.
fn record_from_words(w: [u64; WORDS], tx_times: Vec<f64>) -> Option<EvalRecord> {
    let f = f64::from_bits;
    Some(EvalRecord {
        transmissions: w[0],
        final_voltage: f(w[1]),
        energy: EnergyBreakdown {
            harvested: f(w[2]),
            transmission: f(w[3]),
            mcu: f(w[4]),
            actuator: f(w[5]),
            accelerometer: f(w[6]),
            sleep: f(w[7]),
            leakage: f(w[8]),
        },
        faults: FaultCounters {
            tx_failures: w[9],
            tx_retries: w[10],
            tx_aborts: w[11],
            brownouts: w[12],
            watchdog_misses: w[13],
        },
        tier: u8::try_from(w[14]).ok()?,
        tx_times,
    })
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
fn read_record(bytes: &[u8]) -> Option<((EvalKey, Arc<EvalRecord>), usize)> {
    let len_bytes: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len < FIXED_PAYLOAD || !(len - FIXED_PAYLOAD).is_multiple_of(8) {
        return None;
    }
    let payload = bytes.get(4..4 + len)?;
    let checksum_bytes: [u8; 8] = bytes.get(4 + len..4 + len + 8)?.try_into().ok()?;
    if fnv1a(&[&len_bytes, payload]) != u64::from_le_bytes(checksum_bytes) {
        return None;
    }
    let word = |at: usize| {
        Some(u64::from_le_bytes(
            payload.get(at..at + 8)?.try_into().ok()?,
        ))
    };
    let count =
        |at: usize| Some(u32::from_le_bytes(payload.get(at..at + 4)?.try_into().ok()?) as usize);
    let n = count(16)?;
    let words_total = (len - FIXED_PAYLOAD) / 8;
    if n > MAX_COORDS || n > words_total {
        return None;
    }
    let point = (0..n)
        .map(|i| word(20 + 8 * i).map(|w| w as i64))
        .collect::<Option<Vec<i64>>>()?;
    let fields_at = 20 + 8 * n;
    let mut fields = [0u64; WORDS];
    for (i, field) in fields.iter_mut().enumerate() {
        *field = word(fields_at + 8 * i)?;
    }
    let times_at = fields_at + 8 * WORDS + 4;
    let t = count(times_at - 4)?;
    if t != words_total - n {
        return None;
    }
    let tx_times = (0..t)
        .map(|i| word(times_at + 8 * i).map(f64::from_bits))
        .collect::<Option<Vec<f64>>>()?;
    let record = record_from_words(fields, tx_times)?;
    let key = EvalKey {
        engine: word(0)?,
        scenario: word(8)?,
        point,
    };
    Some(((key, Arc::new(record)), 4 + len + 8))
}

/// Serialises one record into `out`.
fn write_record(out: &mut Vec<u8>, key: &EvalKey, record: &EvalRecord) {
    let len = (FIXED_PAYLOAD + 8 * (key.point.len() + record.tx_times.len())) as u32;
    let len_bytes = len.to_le_bytes();
    let mut payload = Vec::with_capacity(len as usize);
    payload.extend_from_slice(&key.engine.to_le_bytes());
    payload.extend_from_slice(&key.scenario.to_le_bytes());
    payload.extend_from_slice(&(key.point.len() as u32).to_le_bytes());
    for &coord in &key.point {
        payload.extend_from_slice(&coord.to_le_bytes());
    }
    for word in record_words(record) {
        payload.extend_from_slice(&word.to_le_bytes());
    }
    payload.extend_from_slice(&(record.tx_times.len() as u32).to_le_bytes());
    for &t in &record.tx_times {
        payload.extend_from_slice(&t.to_bits().to_le_bytes());
    }
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
pub(crate) fn write_cache_file(
    path: &Path,
    entries: &HashMap<EvalKey, Arc<EvalRecord>>,
) -> io::Result<()> {
    let mut sorted: Vec<(&EvalKey, &Arc<EvalRecord>)> = entries.iter().collect();
    sorted.sort_by(|(a, _), (b, _)| {
        (a.engine, a.scenario, &a.point).cmp(&(b.engine, b.scenario, &b.point))
    });
    let mut bytes = Vec::with_capacity(MAGIC.len() + 192 * sorted.len());
    bytes.extend_from_slice(MAGIC);
    for (key, record) in sorted {
        write_record(&mut bytes, key, record);
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

    /// Eight summary records, a key of other arity with an engine
    /// fingerprint beyond `u8`, and a fleet-style record carrying
    /// timestamps and non-zero fault counters.
    fn sample_entries() -> HashMap<EvalKey, Arc<EvalRecord>> {
        let mut entries = HashMap::new();
        for i in 0..8 {
            let key = EvalKey::for_engine(
                EngineKind::Envelope.engine().as_ref(),
                1000 + i,
                &[i as f64 * 0.25, -0.5, 1.0],
            );
            let record = EvalRecord {
                transmissions: 100 + i,
                final_voltage: i as f64 * 1.5 - 2.0,
                ..EvalRecord::default()
            };
            entries.insert(key, Arc::new(record));
        }
        let record = EvalRecord {
            transmissions: 3,
            final_voltage: -0.0,
            energy: EnergyBreakdown {
                harvested: 0.25,
                transmission: 1e-3,
                mcu: f64::MIN_POSITIVE,
                actuator: 2.0,
                accelerometer: 3.0,
                sleep: 4.0,
                leakage: 5.0,
            },
            faults: FaultCounters {
                tx_failures: 1,
                tx_retries: 2,
                tx_aborts: 3,
                brownouts: 4,
                watchdog_misses: 5,
            },
            tier: 0,
            tx_times: vec![0.5, 12.25, 3599.0],
        };
        entries.insert(
            EvalKey {
                engine: 0xdead_beef_dead_beef,
                scenario: 7,
                point: vec![42],
            },
            Arc::new(record),
        );
        entries
    }

    /// Every bit of a record, for exact comparison (`-0.0` included).
    fn bits(record: &EvalRecord) -> Vec<u64> {
        let mut bits = record_words(record).to_vec();
        bits.extend(record.tx_times.iter().map(|t| t.to_bits()));
        bits
    }

    fn truth() -> HashMap<EvalKey, Vec<u64>> {
        sample_entries()
            .iter()
            .map(|(k, r)| (k.clone(), bits(r)))
            .collect()
    }

    /// A scratch file path, its directory created.
    fn scratch_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wsn-persist-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(CACHE_FILE)
    }

    #[test]
    fn round_trips_bit_exactly() {
        let path = scratch_file("rt");
        let entries = sample_entries();
        write_cache_file(&path, &entries).unwrap();
        let loaded = read_cache_file(&path).unwrap();
        assert_eq!(loaded.quarantined, 0);
        assert_eq!(loaded.records.len(), entries.len());
        for (key, record) in &loaded.records {
            assert_eq!(bits(&entries[key]), bits(record));
            assert_eq!(entries[key], *record);
        }
        assert!(
            loaded.records.iter().any(|(_, r)| r.tx_times.len() == 3
                && r.faults.watchdog_misses == 5
                && r.final_voltage.is_sign_negative()),
            "the timestamped record with fault counters survives"
        );
        // Deterministic bytes: writing the same entries again is
        // byte-identical.
        let first = std::fs::read(&path).unwrap();
        write_cache_file(&path, &entries).unwrap();
        assert_eq!(first, std::fs::read(&path).unwrap());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_cache() {
        let outcome = read_cache_file(Path::new("/nonexistent/evalcache.v2.bin")).unwrap();
        assert!(outcome.records.is_empty());
        assert_eq!(outcome.quarantined, 0);
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let path = scratch_file("flip");
        write_cache_file(&path, &sample_entries()).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let truth = truth();

        for at in 0..pristine.len() {
            let mut corrupt = pristine.clone();
            corrupt[at] ^= 0x40;
            std::fs::write(&path, &corrupt).unwrap();
            let outcome = read_cache_file(&path).unwrap();
            // Never a wrong value: every surviving record matches the
            // original bit-for-bit...
            for (key, record) in &outcome.records {
                assert_eq!(
                    truth.get(key),
                    Some(&bits(record)),
                    "byte {at}: corrupted record slipped through"
                );
            }
            // ...and the corruption itself never goes unnoticed.
            assert!(
                outcome.quarantined > 0 || outcome.records.len() < truth.len(),
                "byte {at}: corruption neither quarantined nor dropped"
            );
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn every_truncation_is_safe() {
        let path = scratch_file("trunc");
        write_cache_file(&path, &sample_entries()).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let truth = truth();

        for keep in 0..pristine.len() {
            std::fs::write(&path, &pristine[..keep]).unwrap();
            let outcome = read_cache_file(&path).unwrap();
            for (key, record) in &outcome.records {
                assert_eq!(
                    truth.get(key),
                    Some(&bits(record)),
                    "truncation at {keep}: wrong value"
                );
            }
            assert!(outcome.records.len() <= truth.len());
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn garbage_file_is_fully_quarantined() {
        let path = scratch_file("garb");
        std::fs::write(&path, b"this is not a cache file at all").unwrap();
        let outcome = read_cache_file(&path).unwrap();
        assert!(outcome.records.is_empty());
        assert_eq!(outcome.quarantined, 1);
        // A valid v2 file whose body is followed by garbage keeps every
        // record before the garbage and quarantines the rest.
        write_cache_file(&path, &sample_entries()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"this is not a record at all");
        std::fs::write(&path, &bytes).unwrap();
        let outcome = read_cache_file(&path).unwrap();
        assert_eq!(outcome.records.len(), sample_entries().len());
        assert_eq!(outcome.quarantined, 1);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
