//! The journal proper: append, replay, snapshot compaction.

use crate::digest::Fnv64;
use crate::fact::Fact;
use crate::frame;
use std::collections::HashMap;
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// contract, torn tails are handled by replay. Compaction writes the
    /// new log beside the old one and renames it over it (see
    /// [`Journal::compact`]).
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
    /// Encoded bytes of the facts in the log that are not the document
    /// store's: those the last compaction carried forward plus those
    /// appended through this handle since. Content the log held when the
    /// handle was made counts whole until a compaction has read it, so
    /// this never counts too few. Kept under the log lock.
    foreign: AtomicU64,
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
        let journal = Journal {
            backend,
            obs: OnceLock::new(),
            appends: Counter::new(),
            bytes_written: Counter::new(),
            compactions: Counter::new(),
            replayed: Counter::new(),
            foreign: AtomicU64::new(0),
        };
        // Any content already in the log may be other producers' facts.
        journal
            .foreign
            .store(journal.len_bytes(), Ordering::Relaxed);
        journal
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
    ///
    /// A file left beside the log by a compaction that was interrupted
    /// before its rename is ignored: the log itself is whole.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        Ok(Self::with_backend(Backend::File {
            file: Mutex::new(open_log(&path)?),
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

    /// Append one fact as a record of its own; returns the byte offset
    /// of the record boundary just written. In memory the fact is encoded
    /// straight into the log, with no staging buffer.
    fn write_fact(&self, fact: &Fact) -> u64 {
        let record = |buf: &mut Vec<u8>| {
            let start = frame::begin_record(buf);
            buf.push(KIND_FACT);
            fact.encode_into(buf);
            frame::end_record(buf, start);
            (buf.len() - start) as u64
        };
        // The foreign-byte count moves under the log lock, so a
        // concurrent compaction either carried this fact or sees it added
        // after its own reset, never both.
        let foreign = |framed_len: u64| {
            if !fact.is_store() {
                let encoded = framed_len - (frame::HEADER_LEN + 1) as u64;
                self.foreign.fetch_add(encoded, Ordering::Relaxed);
            }
        };
        let (end, framed_len) = match &self.backend {
            Backend::Mem(buf) => {
                let mut buf = buf.lock().expect("journal lock");
                let framed_len = record(&mut buf);
                foreign(framed_len);
                (buf.len() as u64, framed_len)
            }
            Backend::File { file, .. } => {
                let mut buf = Vec::new();
                let framed_len = record(&mut buf);
                let mut file = file.lock().expect("journal lock");
                file.write_all(&buf).expect("journal append");
                foreign(framed_len);
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
        let end = self.write_fact(fact);
        self.appends.inc();
        self.obs_add("journal.appends", 1);
        end
    }

    /// Compact the log in place to one snapshot record: the document
    /// store's facts are replaced by `store_snapshot` (the store facts
    /// that rebuild its current state), and every other producer's facts
    /// in the log's clean prefix are carried forward after it, in log
    /// order: the last `Reputation` and the last `Mana` fact per party,
    /// since each records resulting state. The old log is read
    /// and the new one written under the append lock, so a fact another
    /// producer appends concurrently is either carried or appended after
    /// the snapshot, never lost. A log with no [`Journal::foreign_bytes`]
    /// holds nothing to carry and is not read.
    ///
    /// A file-backed log is rewritten crash-atomically: the snapshot goes
    /// to a file beside the log, which is then renamed over it, so a
    /// process killed at any point leaves either the old log or the new
    /// one, never a partial one.
    pub fn compact(&self, store_snapshot: &[Fact]) {
        debug_assert!(store_snapshot.iter().all(Fact::is_store));
        let framed_len = match &self.backend {
            Backend::Mem(buf) => {
                let mut buf = buf.lock().expect("journal lock");
                let carried = (self.foreign_bytes() > 0).then(|| carried_facts(&buf));
                *buf = self.snapshot_record(store_snapshot, &carried.unwrap_or_default());
                buf.len() as u64
            }
            Backend::File { file, path } => {
                let mut file = file.lock().expect("journal lock");
                let carried = (self.foreign_bytes() > 0)
                    .then(|| carried_facts(&std::fs::read(path).expect("journal read")));
                let framed = self.snapshot_record(store_snapshot, &carried.unwrap_or_default());
                let staged = staging_path(path);
                std::fs::write(&staged, &framed).expect("journal compaction write");
                std::fs::rename(&staged, path).expect("journal compaction rename");
                *file = open_log(path).expect("journal reopen");
                framed.len() as u64
            }
        };
        self.bytes_written.add(framed_len);
        self.compactions.inc();
        self.obs_add("journal.bytes", framed_len);
        self.obs_add("journal.compactions", 1);
    }

    /// The framed snapshot record of `store_snapshot` followed by
    /// `carried`. Resets the foreign-byte count to the carried facts'
    /// size, which counts them all; the caller holds the log lock.
    fn snapshot_record(&self, store_snapshot: &[Fact], carried: &[Fact]) -> Vec<u8> {
        let mut framed = Vec::new();
        let start = frame::begin_record(&mut framed);
        framed.push(KIND_SNAPSHOT);
        let count = (store_snapshot.len() + carried.len()) as u32;
        framed.extend_from_slice(&count.to_le_bytes());
        for fact in store_snapshot {
            fact.encode_into(&mut framed);
        }
        let store_end = framed.len();
        for fact in carried {
            fact.encode_into(&mut framed);
        }
        self.foreign
            .store((framed.len() - store_end) as u64, Ordering::Relaxed);
        frame::end_record(&mut framed, start);
        framed
    }

    /// Encoded bytes of the facts in the log that are not the document
    /// store's — what a compaction would carry forward at most. Whatever
    /// the log held when this handle was created counts whole until a
    /// compaction has read it.
    pub fn foreign_bytes(&self) -> u64 {
        self.foreign.load(Ordering::Relaxed)
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
            // The count is untrusted: grow per decoded fact, never
            // allocate for the claim up front.
            let count = u32::from_le_bytes(body.get(..4)?.try_into().ok()?);
            let mut pos = 4;
            let mut facts = Vec::new();
            for _ in 0..count {
                facts.push(Fact::decode(body, &mut pos)?);
            }
            (pos == body.len()).then_some(facts)
        }
        _ => None,
    }
}

/// The facts of `log`'s clean prefix that a compaction carries forward,
/// in log order: every fact that is not the document store's, except a
/// `Reputation` or `Mana` fact that a later one for the same party
/// supersedes. The prefix is the one [`Journal::replay_bytes`] restores,
/// so a compaction carries nothing that replay would not.
fn carried_facts(log: &[u8]) -> Vec<Fact> {
    let facts = Journal::replay_bytes(log).facts;
    let mut last = HashMap::new();
    for (i, fact) in facts.iter().enumerate() {
        if let Some(key) = fact.state_key() {
            last.insert(key, i);
        }
    }
    let keep: Vec<bool> = facts
        .iter()
        .enumerate()
        .map(|(i, fact)| fact.state_key().is_some_and(|key| last[&key] == i))
        .collect();
    facts
        .into_iter()
        .zip(keep)
        .filter_map(|(fact, keep)| keep.then_some(fact))
        .collect()
}

/// Open `path` for appending (created if missing) and reading.
fn open_log(path: &Path) -> std::io::Result<std::fs::File> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .read(true)
        .open(path)
}

/// Where a compaction stages the new log before renaming it over `path`.
fn staging_path(path: &Path) -> PathBuf {
    let mut staged = path.as_os_str().to_owned();
    staged.push(".compacting");
    PathBuf::from(staged)
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
            Fact::Reputation {
                party: "P".into(),
                score_bits: 0.5_f64.to_bits(),
                events: 1,
                at_us: 1,
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
    fn compaction_carries_other_producers_facts() {
        let reputation = |party: &str, events: u64| Fact::Reputation {
            party: party.into(),
            score_bits: 0.5_f64.to_bits(),
            events,
            at_us: events,
        };
        let mana = |at_us: u64| Fact::Mana {
            party: "P".into(),
            tokens_bits: 1.0_f64.to_bits(),
            at_us,
        };
        let j = Journal::in_memory();
        let log = [
            put(1),
            reputation("P", 1),
            reputation("R", 1),
            mana(1),
            reputation("P", 2),
            put(2),
            mana(2),
            reputation("Q", 1),
        ];
        for fact in &log {
            j.append(fact);
        }
        let size = |facts: &[Fact]| facts.iter().map(|f| f.encoded().len() as u64).sum::<u64>();
        let foreign: Vec<Fact> = log.iter().filter(|f| !f.is_store()).cloned().collect();
        assert_eq!(j.foreign_bytes(), size(&foreign));

        // A handle made over the same bytes counts them all until its
        // first compaction, and carries the same facts.
        let salvaged = Journal::from_bytes(j.bytes());
        assert_eq!(salvaged.foreign_bytes(), j.len_bytes());

        j.compact(&[put(9)]);
        // The store's facts are replaced; the last reputation / mana fact
        // per party follows, in log order.
        let carried = [
            reputation("R", 1),
            reputation("P", 2),
            mana(2),
            reputation("Q", 1),
        ];
        let mut want = vec![put(9)];
        want.extend(carried.iter().cloned());
        assert_eq!(j.replay().facts, want);
        assert_eq!(j.foreign_bytes(), size(&carried));
        salvaged.compact(&[put(9)]);
        assert_eq!(salvaged.replay().facts, want);
        assert_eq!(salvaged.foreign_bytes(), size(&carried));
        // Compacting again carries the same facts unchanged.
        j.compact(&[put(9)]);
        assert_eq!(j.replay().facts, want);
        assert_eq!(j.foreign_bytes(), size(&carried));
    }

    #[test]
    fn compaction_carries_only_the_replayable_prefix() {
        let mana = |party: &str| Fact::Mana {
            party: party.into(),
            tokens_bits: 1.0_f64.to_bits(),
            at_us: 0,
        };
        // A checksum-valid record that does not decode: a `Delete` whose
        // id is not UTF-8. Replay ends before it, and so must the carry.
        let mut bad = Fact::Delete {
            collection: "c".into(),
            id: "x".into(),
        }
        .encoded();
        *bad.last_mut().unwrap() = 0xff;
        let j = Journal::in_memory();
        j.append(&mana("before"));
        let mut log = j.bytes();
        frame::push_record(&mut log, &[&[KIND_FACT][..], &bad].concat());
        let after = Journal::from_bytes(log);
        after.append(&mana("after"));
        let replay = Journal::replay_bytes(&after.bytes());
        assert!(replay.truncated);
        assert_eq!(replay.facts, vec![mana("before")]);

        after.compact(&[put(9)]);
        assert_eq!(after.replay().facts, vec![put(9), mana("before")]);
    }

    #[test]
    fn file_compaction_renames_and_ignores_a_leftover_staging_file() {
        let dir = std::env::temp_dir().join(format!("trust-vo-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compact.journal");
        let _ = std::fs::remove_file(&path);
        let mana = Fact::Mana {
            party: "a".into(),
            tokens_bits: 1.0_f64.to_bits(),
            at_us: 0,
        };
        let j = Journal::open(&path).unwrap();
        j.append(&put(1));
        j.append(&mana);
        j.append(&put(2));
        j.compact(&[put(1), put(2)]);
        j.append(&put(3));
        let want = vec![put(1), put(2), mana.clone(), put(3)];
        assert_eq!(j.replay().facts, want);
        assert_eq!(j.len_bytes(), std::fs::metadata(&path).unwrap().len());
        drop(j);

        // A compaction killed before its rename leaves a staged file
        // beside the whole log: opening and replaying ignore it.
        std::fs::write(staging_path(&path), b"a half-written snapshot").unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.replay().facts, want);
        j.append(&put(4));
        j.compact(&[put(1), put(2), put(3), put(4)]);
        assert!(!staging_path(&path).exists(), "the rename consumed it");
        assert_eq!(
            Journal::open(&path).unwrap().replay().facts,
            vec![put(1), put(2), put(3), put(4), mana]
        );
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
    fn bogus_snapshot_count_does_not_overallocate() {
        // A checksum-valid 13-byte log: one snapshot record claiming
        // u32::MAX facts with none behind the claim. The decoder grows per
        // decoded fact, so the claim costs nothing and the record replays
        // as a corrupt tail.
        let mut log = Vec::new();
        frame::push_record(&mut log, &[KIND_SNAPSHOT, 0xff, 0xff, 0xff, 0xff]);
        assert_eq!(log.len(), 13);
        let replay = Journal::replay_bytes(&log);
        assert!(replay.truncated);
        assert!(replay.facts.is_empty());
        assert_eq!((replay.records, replay.clean_len), (0, 0));
    }

    #[test]
    fn obs_counters_mirror_stats() {
        let collector = Collector::new();
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
