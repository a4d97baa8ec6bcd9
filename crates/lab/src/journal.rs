//! Write-ahead result journal for crash-safe, resumable campaigns.
//!
//! A sweep over a large grid can run for hours; losing the whole campaign
//! to a power cut, an OOM kill or a ^C in the last point is unacceptable
//! for a batch harness. This module gives the experiment runner a
//! *write-ahead journal*: every completed `(point, policy)` cell is
//! appended to a JSONL file as soon as its replications finish, and a
//! later run with `--resume` replays those cells instead of re-simulating
//! them.
//!
//! Three properties make this safe:
//!
//! * **Content addressing.** The journal file is named after the FNV-1a
//!   digest of the fully-resolved experiment spec (scenario TOML, axes,
//!   policies, baseline, replication count, seed). A resume against a
//!   *different* spec can never silently mix results: the digest picks a
//!   different file, and a stale file with a mismatched header is rejected
//!   with a clear error.
//! * **Line-atomic appends.** Each record is a single `\n`-terminated
//!   line written with one `write_all`, and the file is `fsync`ed every
//!   [`SYNC_EVERY`] records and on [`RunJournal::finish`]. Replay is
//!   truncation-tolerant: a torn tail line (the crash case) is discarded
//!   and overwritten by the resumed run.
//! * **Exact replay.** Floats are stored as their IEEE-754 bit patterns
//!   (`u64`), so a replayed cell is bit-identical to the cell that was
//!   journalled. Combined with the engine's CRN determinism (replication
//!   `r` always uses the streams derived from `(seed, r)`), a resumed
//!   campaign produces byte-identical CSV/JSONL to an uninterrupted one.
//!
//! Quarantined cells (a panicked or timed-out replication) are *not*
//! journalled — a resume retries them from scratch rather than trusting
//! placeholder slots.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use churnbal_cluster::PointStats;

/// Journal configuration carried on an
/// [`crate::experiment::ExperimentSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalConfig {
    /// Directory holding the content-addressed journal files.
    pub dir: String,
    /// Replay completed cells from an existing journal instead of
    /// truncating it (`--resume`).
    pub resume: bool,
}

/// One journalled `(point, policy)` cell.
#[derive(Clone, Debug)]
pub struct JournalRecord {
    /// Grid point index (row-major over the axis grid).
    pub point: usize,
    /// Policy index within the experiment's policy axis.
    pub policy: usize,
    /// The cell's slot-stable replication results, bit-exact.
    pub stats: PointStats,
}

/// `fsync` batch size: records are synced every this-many appends (and
/// once more on [`RunJournal::finish`] and on drop); a crash loses at
/// most the tail batch, never corrupts earlier lines.
pub const SYNC_EVERY: u64 = 32;

/// Journal format version; bumped on any incompatible layout change.
/// Version 2 added the channel counters (`lost`, `retries`, `bounces`).
const VERSION: u64 = 2;

/// An open write-ahead journal, positioned for appending.
#[derive(Debug)]
pub struct RunJournal {
    file: File,
    path: PathBuf,
    appended: u64,
}

impl RunJournal {
    /// Content-addressed journal path for a spec digest.
    #[must_use]
    pub fn path_for(dir: &Path, digest: u64) -> PathBuf {
        dir.join(format!("{digest:016x}.journal.jsonl"))
    }

    /// Opens (creating `dir` if needed) the journal for `digest`.
    ///
    /// With `resume` set and an existing file, verifies the header
    /// against `digest`, replays every intact record, truncates any torn
    /// tail, and returns the replayed records alongside the journal
    /// positioned for appending. Without `resume` — or when no file
    /// exists — starts a fresh journal containing only the header line.
    ///
    /// # Errors
    /// I/O failures, a malformed header, or a header written for a
    /// different spec digest (the spec changed under the journal).
    pub fn open(
        dir: &Path,
        digest: u64,
        resume: bool,
    ) -> Result<(Self, Vec<JournalRecord>), String> {
        fs::create_dir_all(dir)
            .map_err(|e| format!("journal: cannot create {}: {e}", dir.display()))?;
        let path = Self::path_for(dir, digest);
        if resume && path.exists() {
            return Self::open_existing(path, digest);
        }
        let mut file = File::create(&path)
            .map_err(|e| format!("journal: cannot create {}: {e}", path.display()))?;
        let header = format!(
            "{{\"kind\":\"churnbal-journal\",\"version\":{VERSION},\"spec\":\"{digest:016x}\"}}\n"
        );
        file.write_all(header.as_bytes())
            .map_err(|e| format!("journal: cannot write {}: {e}", path.display()))?;
        file.sync_data()
            .map_err(|e| format!("journal: cannot sync {}: {e}", path.display()))?;
        Ok((
            Self {
                file,
                path,
                appended: 0,
            },
            Vec::new(),
        ))
    }

    fn open_existing(path: PathBuf, digest: u64) -> Result<(Self, Vec<JournalRecord>), String> {
        let bytes =
            fs::read(&path).map_err(|e| format!("journal: cannot read {}: {e}", path.display()))?;
        // Journal lines are pure ASCII; a torn tail is still a valid
        // prefix, and any mojibake simply fails record parsing below.
        let text = String::from_utf8_lossy(&bytes);
        let mut good = 0usize; // byte offset past the last intact line
        let mut lines = text.split_inclusive('\n');
        let header = lines
            .next()
            .filter(|l| l.ends_with('\n'))
            .ok_or_else(|| format!("journal {}: missing header line", path.display()))?;
        check_header(header, digest).map_err(|e| format!("journal {}: {e}", path.display()))?;
        good += header.len();
        let mut records = Vec::new();
        for line in lines {
            if !line.ends_with('\n') {
                break; // torn tail from a crash mid-append
            }
            match parse_record(line) {
                Ok(rec) => {
                    records.push(rec);
                    good += line.len();
                }
                // A bad line invalidates everything after it: replay
                // stops and the resumed run overwrites from here.
                Err(_) => break,
            }
        }
        let mut file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| format!("journal: cannot open {}: {e}", path.display()))?;
        file.set_len(good as u64)
            .map_err(|e| format!("journal: cannot truncate {}: {e}", path.display()))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| format!("journal: cannot seek {}: {e}", path.display()))?;
        Ok((
            Self {
                file,
                path,
                appended: 0,
            },
            records,
        ))
    }

    /// The journal file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completed cell as a single line and `fsync`s every
    /// [`SYNC_EVERY`] appends.
    ///
    /// # Errors
    /// I/O failures writing or syncing the file.
    pub fn record(
        &mut self,
        point: usize,
        policy: usize,
        stats: &PointStats,
    ) -> Result<(), String> {
        debug_assert!(
            stats.quarantined_reps.is_empty(),
            "quarantined cells are never journalled"
        );
        let mut line = String::with_capacity(96 + stats.completion_times.len() * 24);
        line.push_str(&format!(
            "{{\"point\":{point},\"policy\":{policy},\"incomplete\":{},\"events\":{},\"recoveries\":{},\"transfers\":{},\"clamped\":{},\"lost\":{},\"retries\":{},\"bounces\":{},\"transit\":{}",
            stats.incomplete,
            stats.total_events,
            stats.total_recoveries,
            stats.total_transfers,
            stats.total_tasks_clamped,
            stats.total_tasks_lost,
            stats.total_retries,
            stats.total_bounces,
            stats.transit_task_seconds.to_bits(),
        ));
        push_u64_array(
            &mut line,
            "times",
            stats.completion_times.iter().map(|t| t.to_bits()),
        );
        push_u64_array(
            &mut line,
            "failures",
            stats.failures_per_rep.iter().copied(),
        );
        push_u64_array(
            &mut line,
            "shipped",
            stats.tasks_shipped_per_rep.iter().copied(),
        );
        line.push_str("}\n");
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| format!("journal: cannot write {}: {e}", self.path.display()))?;
        self.appended += 1;
        if self.appended.is_multiple_of(SYNC_EVERY) {
            self.sync()?;
        }
        Ok(())
    }

    /// Final `fsync` at the end of a campaign.
    ///
    /// # Errors
    /// I/O failures syncing the file.
    pub fn finish(&mut self) -> Result<(), String> {
        self.sync()
    }

    fn sync(&mut self) -> Result<(), String> {
        self.file
            .sync_data()
            .map_err(|e| format!("journal: cannot sync {}: {e}", self.path.display()))
    }
}

impl Drop for RunJournal {
    /// Best-effort flush: a journal abandoned without
    /// [`RunJournal::finish`] (early return, `?`-propagation, clean exit
    /// of a short campaign) still lands its tail batch on disk.
    fn drop(&mut self) {
        let _ = self.file.sync_data();
    }
}

pub(crate) fn push_u64_array(out: &mut String, key: &str, values: impl Iterator<Item = u64>) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":[");
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

fn check_header(line: &str, digest: u64) -> Result<(), String> {
    let fields = parse_object(line)?;
    match lookup(&fields, "kind") {
        Some(JsonVal::Str(k)) if k == "churnbal-journal" => {}
        _ => return Err("not a churnbal journal (bad `kind`)".into()),
    }
    match lookup(&fields, "version") {
        Some(&JsonVal::Num(VERSION)) => {}
        Some(JsonVal::Num(v)) => {
            return Err(format!(
                "unsupported journal version {v} (expected {VERSION})"
            ))
        }
        _ => return Err("missing `version`".into()),
    }
    match lookup(&fields, "spec") {
        Some(JsonVal::Str(s)) if *s == format!("{digest:016x}") => Ok(()),
        Some(JsonVal::Str(s)) => Err(format!(
            "was written for spec digest {s}, but this experiment's digest is \
             {digest:016x} — the spec changed; delete the stale journal or drop --resume"
        )),
        _ => Err("missing `spec` digest".into()),
    }
}

fn parse_record(line: &str) -> Result<JournalRecord, String> {
    let fields = parse_object(line)?;
    let num = |key: &str| -> Result<u64, String> {
        match lookup(&fields, key) {
            Some(&JsonVal::Num(n)) => Ok(n),
            _ => Err(format!("missing numeric `{key}`")),
        }
    };
    let arr = |key: &str| -> Result<&Vec<u64>, String> {
        match lookup(&fields, key) {
            Some(JsonVal::Arr(a)) => Ok(a),
            _ => Err(format!("missing array `{key}`")),
        }
    };
    let times = arr("times")?;
    let failures = arr("failures")?;
    let shipped = arr("shipped")?;
    if failures.len() != times.len() || shipped.len() != times.len() {
        return Err("replication vectors disagree in length".into());
    }
    Ok(JournalRecord {
        point: usize::try_from(num("point")?).map_err(|_| "point overflows usize".to_string())?,
        policy: usize::try_from(num("policy")?)
            .map_err(|_| "policy overflows usize".to_string())?,
        stats: PointStats {
            completion_times: times.iter().map(|&b| f64::from_bits(b)).collect(),
            failures_per_rep: failures.clone(),
            tasks_shipped_per_rep: shipped.clone(),
            incomplete: num("incomplete")?,
            total_events: num("events")?,
            total_recoveries: num("recoveries")?,
            total_transfers: num("transfers")?,
            total_tasks_clamped: num("clamped")?,
            total_tasks_lost: num("lost")?,
            total_retries: num("retries")?,
            total_bounces: num("bounces")?,
            transit_task_seconds: f64::from_bits(num("transit")?),
            probes: Vec::new(),
            quarantined_reps: Vec::new(),
        },
    })
}

/// Minimal value space of the journal's JSON subset: unsigned integers,
/// arrays of unsigned integers, and escape-free strings.
#[derive(Debug)]
pub(crate) enum JsonVal {
    Num(u64),
    Arr(Vec<u64>),
    Str(String),
}

pub(crate) fn lookup<'a>(fields: &'a [(String, JsonVal)], key: &str) -> Option<&'a JsonVal> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parses one flat JSON object in the journal's subset. Anything outside
/// the subset (escapes, nesting, floats, negative numbers) is an error —
/// the journal never writes it.
pub(crate) fn parse_object(line: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let mut c = Cursor {
        s: line.as_bytes(),
        i: 0,
    };
    c.expect(b'{')?;
    let mut fields = Vec::new();
    if c.peek() == Some(b'}') {
        c.i += 1;
    } else {
        loop {
            let key = c.parse_string()?;
            c.expect(b':')?;
            fields.push((key, c.parse_value()?));
            match c.next_byte()? {
                b',' => {}
                b'}' => break,
                b => return Err(format!("unexpected byte {:?} in object", b as char)),
            }
        }
    }
    c.skip_ws();
    if c.i < c.s.len() && c.s[c.i..] != *b"\n" {
        return Err("trailing bytes after object".into());
    }
    Ok(fields)
}

struct Cursor<'a> {
    s: &'a [u8],
    i: usize,
}

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && (self.s[self.i] == b' ' || self.s[self.i] == b'\t') {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn next_byte(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or("unexpected end of line")?;
        self.i += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        let got = self.next_byte()?;
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "expected {:?}, found {:?}",
                want as char, got as char
            ))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.i;
        while let Some(&b) = self.s.get(self.i) {
            match b {
                b'"' => {
                    let out = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => return Err("escape sequences are outside the journal subset".into()),
                _ => self.i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn parse_u64(&mut self) -> Result<u64, String> {
        let start = self.i;
        while self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        if self.i == start {
            return Err("expected a number".into());
        }
        std::str::from_utf8(&self.s[start..self.i])
            .expect("digits are ASCII")
            .parse()
            .map_err(|_| "number overflows u64".into())
    }

    fn parse_value(&mut self) -> Result<JsonVal, String> {
        match self.peek().ok_or("unexpected end of line")? {
            b'"' => self.parse_string().map(JsonVal::Str),
            b'[' => {
                self.i += 1;
                let mut arr = Vec::new();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(JsonVal::Arr(arr));
                }
                loop {
                    self.skip_ws();
                    arr.push(self.parse_u64()?);
                    match self.next_byte()? {
                        b',' => {}
                        b']' => break,
                        b => return Err(format!("unexpected byte {:?} in array", b as char)),
                    }
                }
                Ok(JsonVal::Arr(arr))
            }
            _ => self.parse_u64().map(JsonVal::Num),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("churnbal-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_stats(reps: usize, salt: u64) -> PointStats {
        PointStats {
            completion_times: (0..reps).map(|r| 0.25 + r as f64 + salt as f64).collect(),
            failures_per_rep: (0..reps as u64).map(|r| r + salt).collect(),
            tasks_shipped_per_rep: (0..reps as u64).map(|r| 2 * r).collect(),
            incomplete: 1,
            total_events: 1000 + salt,
            total_recoveries: 7,
            total_transfers: 9,
            total_tasks_clamped: 2,
            total_tasks_lost: 4 + salt,
            total_retries: 5,
            total_bounces: 1,
            transit_task_seconds: 3.5 + salt as f64 * 0.125,
            probes: Vec::new(),
            quarantined_reps: Vec::new(),
        }
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let dir = temp_dir("roundtrip");
        let digest = 0xdead_beef_u64;
        let (mut j, replayed) = RunJournal::open(&dir, digest, false).unwrap();
        assert!(replayed.is_empty());
        let a = sample_stats(4, 0);
        let b = sample_stats(4, 3);
        j.record(0, 0, &a).unwrap();
        j.record(2, 1, &b).unwrap();
        j.finish().unwrap();
        drop(j);
        let (_j, replayed) = RunJournal::open(&dir, digest, true).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!((replayed[0].point, replayed[0].policy), (0, 0));
        assert_eq!((replayed[1].point, replayed[1].policy), (2, 1));
        assert_eq!(replayed[0].stats.completion_times, a.completion_times);
        assert_eq!(replayed[1].stats.failures_per_rep, b.failures_per_rep);
        assert_eq!(
            replayed[1].stats.transit_task_seconds.to_bits(),
            b.transit_task_seconds.to_bits()
        );
        assert_eq!(replayed[0].stats.incomplete, 1);
        assert_eq!(replayed[1].stats.total_events, 1003);
        assert_eq!(replayed[1].stats.total_tasks_lost, 7);
        assert_eq!(replayed[1].stats.total_retries, 5);
        assert_eq!(replayed[1].stats.total_bounces, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_and_overwritten() {
        let dir = temp_dir("torn");
        let digest = 7;
        let (mut j, _) = RunJournal::open(&dir, digest, false).unwrap();
        j.record(0, 0, &sample_stats(2, 0)).unwrap();
        j.record(1, 0, &sample_stats(2, 1)).unwrap();
        j.finish().unwrap();
        let path = j.path().to_path_buf();
        drop(j);
        // Simulate a crash mid-append: cut the last line in half.
        let bytes = fs::read(&path).unwrap();
        let keep = bytes.len() - 10;
        fs::write(&path, &bytes[..keep]).unwrap();
        let (mut j, replayed) = RunJournal::open(&dir, digest, true).unwrap();
        assert_eq!(replayed.len(), 1, "torn record must not replay");
        assert_eq!(replayed[0].point, 0);
        // The journal is positioned to overwrite the torn tail cleanly.
        j.record(1, 0, &sample_stats(2, 1)).unwrap();
        j.finish().unwrap();
        drop(j);
        let (_j, replayed) = RunJournal::open(&dir, digest, true).unwrap();
        assert_eq!(replayed.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_mismatch_is_rejected_with_a_clear_error() {
        let dir = temp_dir("mismatch");
        let (mut j, _) = RunJournal::open(&dir, 1, false).unwrap();
        j.record(0, 0, &sample_stats(1, 0)).unwrap();
        let path = j.path().to_path_buf();
        drop(j);
        // Pretend the spec changed but the file name collided (e.g. a
        // hand-renamed journal): the header digest must win.
        let renamed = path.with_file_name(format!("{:016x}.journal.jsonl", 2u64));
        fs::rename(&path, &renamed).unwrap();
        let err = RunJournal::open(&dir, 2, true).unwrap_err();
        assert!(err.contains("spec changed"), "got: {err}");
        assert!(err.contains("0000000000000001"), "got: {err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let dir = temp_dir("notjournal");
        fs::create_dir_all(&dir).unwrap();
        let path = RunJournal::path_for(&dir, 5);
        fs::write(&path, "point,policy\n0,0\n").unwrap();
        let err = RunJournal::open(&dir, 5, true).unwrap_err();
        assert!(
            err.contains("kind") || err.contains("expected"),
            "got: {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_middle_line_stops_replay_there() {
        let dir = temp_dir("badmiddle");
        let digest = 11;
        let (mut j, _) = RunJournal::open(&dir, digest, false).unwrap();
        j.record(0, 0, &sample_stats(1, 0)).unwrap();
        j.finish().unwrap();
        let path = j.path().to_path_buf();
        drop(j);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"point\":oops}\n");
        fs::write(&path, &bytes).unwrap();
        let (_j, replayed) = RunJournal::open(&dir, digest, true).unwrap();
        assert_eq!(replayed.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_flush_lands_records_short_of_a_sync_batch() {
        let dir = temp_dir("cadence");
        let digest = 17;
        let (mut j, _) = RunJournal::open(&dir, digest, false).unwrap();
        // Fewer records than one `SYNC_EVERY` batch, and no finish():
        // the drop flush must still land them.
        j.record(0, 0, &sample_stats(2, 0)).unwrap();
        j.record(1, 0, &sample_stats(2, 1)).unwrap();
        drop(j);
        let (_j, replayed) = RunJournal::open(&dir, digest, true).unwrap();
        assert_eq!(replayed.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_open_truncates_a_stale_journal() {
        let dir = temp_dir("truncate");
        let digest = 13;
        let (mut j, _) = RunJournal::open(&dir, digest, false).unwrap();
        j.record(0, 0, &sample_stats(1, 0)).unwrap();
        j.finish().unwrap();
        drop(j);
        // resume=false: the old contents are gone.
        let (_j, replayed) = RunJournal::open(&dir, digest, false).unwrap();
        assert!(replayed.is_empty());
        let (_j, replayed) = RunJournal::open(&dir, digest, true).unwrap();
        assert!(replayed.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
