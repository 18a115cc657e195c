//! The journal proper: append, replay, snapshot compaction.

use crate::digest::Fnv64;
use crate::fact::Fact;
use crate::frame;
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use trust_vo_obs::{Collector, Counter};

/// Record kind byte: a single fact.
const KIND_FACT: u8 = 0;
/// Record kind byte: a snapshot (compaction baseline) holding many facts.
const KIND_SNAPSHOT: u8 = 1;

#[derive(Debug)]
enum Backend {
    /// Deterministic in-memory log (tests, benches, digest gates).
    Mem(Mutex<Vec<u8>>),
    /// File-backed log. Appends go straight to the file descriptor;
    /// nothing is fsynced — crash durability is the OS's page cache
    /// contract, torn tails are handled by replay.
    File {
        file: Mutex<std::fs::File>,
        path: PathBuf,
    },
}

/// Point-in-time journal counter totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Facts appended (compaction snapshots not included).
    pub appends: u64,
    /// Bytes written, frames included.
    pub bytes_written: u64,
    /// Snapshot compactions performed.
    pub compactions: u64,
    /// Records decoded by replays through this handle.
    pub replayed_records: u64,
}

/// An append-only fact journal with snapshot compaction.
///
/// All methods take `&self`; interior locking makes a shared
/// `Arc<Journal>` safe to hand to every producer. Appends are atomic per
/// record: the frame (length + CRC + payload) is pushed under one lock
/// hold, so concurrent producers interleave at record granularity and a
/// reader never observes a half-framed record except as a torn tail.
#[derive(Debug)]
pub struct Journal {
    backend: Backend,
    obs: OnceLock<Collector>,
    appends: Counter,
    bytes_written: Counter,
    compactions: Counter,
    replayed: Counter,
}

/// The outcome of replaying a journal byte stream.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Every replayable fact in order, snapshots expanded in place.
    pub facts: Vec<Fact>,
    /// Physical records decoded (a snapshot counts once).
    pub records: u64,
    /// Byte length of the clean record prefix.
    pub clean_len: u64,
    /// Whether a torn or corrupt tail was discarded.
    pub truncated: bool,
}

impl Replay {
    /// Deterministic digest of the replayed fact stream. Equal fact
    /// streams — regardless of backend or of how the bytes were framed —
    /// give equal digests.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for fact in &self.facts {
            h.write_framed(&fact.encoded());
        }
        h.finish()
    }

    /// [`Replay::digest`] as fixed-width hex, for text gates.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }
}

impl Journal {
    fn with_backend(backend: Backend) -> Self {
        Journal {
            backend,
            obs: OnceLock::new(),
            appends: Counter::new(),
            bytes_written: Counter::new(),
            compactions: Counter::new(),
            replayed: Counter::new(),
        }
    }

    /// A fresh in-memory journal.
    pub fn in_memory() -> Self {
        Self::with_backend(Backend::Mem(Mutex::new(Vec::new())))
    }

    /// An in-memory journal seeded with existing bytes (e.g. the salvaged
    /// content of a crashed process's log).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self::with_backend(Backend::Mem(Mutex::new(bytes)))
    }

    /// Open (or create) a file-backed journal at `path`, appending after
    /// any existing content.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        Ok(Self::with_backend(Backend::File {
            file: Mutex::new(file),
            path,
        }))
    }

    /// Attach a collector: appends, bytes, compactions, and replayed
    /// records are mirrored to `journal.*` registry counters. First
    /// attachment wins.
    pub fn attach_obs(&self, collector: &Collector) {
        if collector.is_enabled() {
            let _ = self.obs.set(collector.clone());
        }
    }

    fn obs_add(&self, name: &str, n: u64) {
        if let Some(obs) = self.obs.get() {
            obs.counter_add(name, n);
        }
    }

    /// Append one record whose payload `encode` writes. In memory the
    /// payload is encoded straight into the log, with no staging buffer.
    fn write_record(&self, encode: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let record = |buf: &mut Vec<u8>| {
            let start = frame::begin_record(buf);
            encode(buf);
            frame::end_record(buf, start);
            (buf.len() - start) as u64
        };
        let (end, framed_len) = match &self.backend {
            Backend::Mem(buf) => {
                let mut buf = buf.lock().expect("journal lock");
                let framed_len = record(&mut buf);
                (buf.len() as u64, framed_len)
            }
            Backend::File { file, .. } => {
                let mut buf = Vec::new();
                let framed_len = record(&mut buf);
                let mut file = file.lock().expect("journal lock");
                file.write_all(&buf).expect("journal append");
                (
                    file.stream_position().expect("journal position"),
                    framed_len,
                )
            }
        };
        self.bytes_written.add(framed_len);
        self.obs_add("journal.bytes", framed_len);
        end
    }

    /// Append one fact; returns the byte offset of the record boundary
    /// just written (useful as a truncation point in recovery tests).
    pub fn append(&self, fact: &Fact) -> u64 {
        let end = self.write_record(|out| {
            out.push(KIND_FACT);
            fact.encode_into(out);
        });
        self.appends.inc();
        self.obs_add("journal.appends", 1);
        end
    }

    /// Replace the whole log with a single snapshot record reproducing
    /// `snapshot` — the compaction baseline subsequent appends build on.
    pub fn compact(&self, snapshot: &[Fact]) {
        let mut payload = vec![KIND_SNAPSHOT];
        payload.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
        for fact in snapshot {
            fact.encode_into(&mut payload);
        }
        let mut framed = Vec::with_capacity(frame::HEADER_LEN + payload.len());
        frame::push_record(&mut framed, &payload);
        let framed_len = framed.len() as u64;
        match &self.backend {
            Backend::Mem(buf) => {
                *buf.lock().expect("journal lock") = framed;
            }
            Backend::File { file, .. } => {
                let mut file = file.lock().expect("journal lock");
                file.set_len(0).expect("journal truncate");
                file.seek(SeekFrom::Start(0)).expect("journal seek");
                file.write_all(&framed).expect("journal rewrite");
            }
        }
        self.bytes_written.add(framed_len);
        self.compactions.inc();
        self.obs_add("journal.bytes", framed_len);
        self.obs_add("journal.compactions", 1);
    }

    /// Current log length in bytes (every value returned is a record
    /// boundary — appends are atomic per record).
    pub fn len_bytes(&self) -> u64 {
        match &self.backend {
            Backend::Mem(buf) => buf.lock().expect("journal lock").len() as u64,
            Backend::File { file, .. } => file
                .lock()
                .expect("journal lock")
                .metadata()
                .expect("journal metadata")
                .len(),
        }
    }

    /// A snapshot of the raw log bytes.
    pub fn bytes(&self) -> Vec<u8> {
        match &self.backend {
            Backend::Mem(buf) => buf.lock().expect("journal lock").clone(),
            Backend::File { path, file } => {
                let _guard = file.lock().expect("journal lock");
                std::fs::read(path).expect("journal read")
            }
        }
    }

    /// Decode a raw byte stream into its replayable fact prefix. Pure —
    /// no counters move; use [`Journal::replay`] on a handle for counted
    /// recovery.
    pub fn replay_bytes(bytes: &[u8]) -> Replay {
        let scan = frame::scan(bytes);
        let mut facts = Vec::new();
        let mut records = 0u64;
        let mut clean_len = 0usize;
        let mut truncated = scan.truncated;
        let mut pos_after = 0usize;
        for payload in scan.payloads {
            pos_after += frame::HEADER_LEN + payload.len();
            match decode_payload(payload) {
                Some(decoded) => {
                    facts.extend(decoded);
                    records += 1;
                    clean_len = pos_after;
                }
                None => {
                    // A checksummed-but-undecodable record: treat like a
                    // torn tail starting here.
                    truncated = true;
                    break;
                }
            }
        }
        Replay {
            facts,
            records,
            clean_len: clean_len as u64,
            truncated,
        }
    }

    /// Replay this journal's current content, counting replayed records.
    pub fn replay(&self) -> Replay {
        let replay = Self::replay_bytes(&self.bytes());
        self.replayed.add(replay.records);
        self.obs_add("journal.replayed_records", replay.records);
        replay
    }

    /// Current counter totals.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appends: self.appends.get(),
            bytes_written: self.bytes_written.get(),
            compactions: self.compactions.get(),
            replayed_records: self.replayed.get(),
        }
    }
}

/// Decode one record payload into its facts; `None` means corrupt.
fn decode_payload(payload: &[u8]) -> Option<Vec<Fact>> {
    let (&kind, body) = payload.split_first()?;
    match kind {
        KIND_FACT => {
            let mut pos = 0;
            let fact = Fact::decode(body, &mut pos)?;
            (pos == body.len()).then(|| vec![fact])
        }
        KIND_SNAPSHOT => {
            let count = u32::from_le_bytes(body.get(..4)?.try_into().ok()?) as usize;
            let mut pos = 4;
            let mut facts = Vec::with_capacity(count);
            for _ in 0..count {
                facts.push(Fact::decode(body, &mut pos)?);
            }
            (pos == body.len()).then_some(facts)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(n: u32) -> Fact {
        Fact::Put {
            collection: "c".into(),
            id: format!("d{n}"),
            doc: n.to_le_bytes().into(),
        }
    }

    #[test]
    fn append_replay_roundtrip() {
        let j = Journal::in_memory();
        let facts = vec![
            put(1),
            Fact::Delete {
                collection: "c".into(),
                id: "d1".into(),
            },
            Fact::Mapping {
                alias: "Bilancio".into(),
                canonical: "BalanceSheet".into(),
            },
        ];
        for f in &facts {
            j.append(f);
        }
        let replay = j.replay();
        assert!(!replay.truncated);
        assert_eq!(replay.facts, facts);
        assert_eq!(replay.records, 3);
        assert_eq!(replay.clean_len, j.len_bytes());
        let stats = j.stats();
        assert_eq!(stats.appends, 3);
        assert_eq!(stats.replayed_records, 3);
        assert_eq!(stats.bytes_written, j.len_bytes());
    }

    #[test]
    fn append_returns_record_boundaries() {
        let j = Journal::in_memory();
        let b1 = j.append(&put(1));
        let b2 = j.append(&put(2));
        assert!(b1 < b2);
        assert_eq!(b2, j.len_bytes());
        // Truncating exactly at b1 keeps exactly the first fact.
        let bytes = j.bytes();
        let replay = Journal::replay_bytes(&bytes[..b1 as usize]);
        assert_eq!(replay.facts, vec![put(1)]);
        assert!(!replay.truncated);
    }

    #[test]
    fn torn_tail_drops_to_last_boundary() {
        let j = Journal::in_memory();
        let b1 = j.append(&put(1));
        j.append(&put(2));
        let bytes = j.bytes();
        for cut in (b1 + 1)..j.len_bytes() {
            let replay = Journal::replay_bytes(&bytes[..cut as usize]);
            assert!(replay.truncated, "cut at {cut}");
            assert_eq!(replay.facts, vec![put(1)], "cut at {cut}");
            assert_eq!(replay.clean_len, b1, "cut at {cut}");
        }
    }

    #[test]
    fn compaction_resets_to_snapshot_baseline() {
        let j = Journal::in_memory();
        for n in 0..10 {
            j.append(&put(n));
        }
        let before = j.len_bytes();
        j.compact(&[put(100), put(101)]);
        assert!(j.len_bytes() < before);
        j.append(&put(102));
        let replay = j.replay();
        assert_eq!(replay.facts, vec![put(100), put(101), put(102)]);
        assert_eq!(replay.records, 2); // snapshot + one append
        assert_eq!(j.stats().compactions, 1);
    }

    #[test]
    fn digest_is_framing_independent() {
        // Same logical facts via appends vs via one snapshot: same digest.
        let a = Journal::in_memory();
        a.append(&put(1));
        a.append(&put(2));
        let b = Journal::in_memory();
        b.compact(&[put(1), put(2)]);
        assert_eq!(a.replay().digest(), b.replay().digest());
        // Different facts: different digest.
        let c = Journal::in_memory();
        c.append(&put(1));
        c.append(&put(3));
        assert_ne!(a.replay().digest(), c.replay().digest());
    }

    #[test]
    fn file_backend_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("trust-vo-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.journal");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path).unwrap();
            j.append(&put(1));
            j.append(&put(2));
            j.compact(&[put(1), put(2)]);
            j.append(&put(3));
        }
        // Re-open (a "restarted process") and both replay and append.
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.replay().facts, vec![put(1), put(2), put(3)]);
        j.append(&put(4));
        assert_eq!(j.replay().facts.len(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_snapshot_record_is_dropped_whole() {
        let j = Journal::in_memory();
        j.compact(&[put(1), put(2)]);
        let mut bytes = j.bytes();
        // Flip one payload byte; the CRC catches it and replay yields the
        // empty prefix (a snapshot is all-or-nothing).
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let replay = Journal::replay_bytes(&bytes);
        assert!(replay.truncated);
        assert!(replay.facts.is_empty());
    }

    #[test]
    fn obs_counters_mirror_stats() {
        let collector = Collector::new();
        if !collector.is_enabled() {
            return; // obs compiled out
        }
        let j = Journal::in_memory();
        j.attach_obs(&collector);
        j.append(&put(1));
        j.compact(&[put(1)]);
        j.replay();
        let metrics = collector.metrics();
        assert_eq!(metrics.counter("journal.appends"), 1);
        assert_eq!(metrics.counter("journal.compactions"), 1);
        assert_eq!(metrics.counter("journal.replayed_records"), 1);
        assert_eq!(metrics.counter("journal.bytes"), j.stats().bytes_written);
    }
}
