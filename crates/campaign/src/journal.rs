//! The durable campaign journal: a write-ahead record of completed jobs
//! that makes a sweep resumable after a crash or kill.
//!
//! The journal is a JSON-lines file. The first line is a header naming
//! the campaign and carrying a hash of its full specification; every
//! further line is one completed job's record, byte-identical to the
//! line [`CampaignReport::to_jsonl`](crate::CampaignReport::to_jsonl)
//! renders for the same record (both go through one renderer). Appends
//! are fsync'd before they return ([`DurableAppender`]), and the append
//! is the executor's *single commit point*: a job only counts as done
//! once its line is on disk. A process dying between a job's artifact
//! writes and its journal append simply re-runs that job on resume —
//! artifacts are overwritten atomically, the journal never double-counts.
//!
//! Resuming tolerates a torn tail (a crash mid-append leaves a partial
//! last line): the partial line is dropped and the file truncated back to
//! the last complete record. A journal written for a *different* campaign
//! specification is rejected loudly via the header hash.

use crate::exec::JobOutcome;
use crate::report::{render_parts, render_record, JobMetrics, JobRecord};
use crate::spec::{Campaign, JobSpec};
use dramctrl_kernel::fsio::{self, DurableAppender};
use dramctrl_kernel::json::json_str;
use dramctrl_kernel::snap::fingerprint;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Journal format version; bumped on any header or record layout change.
pub const JOURNAL_VERSION: u32 = 1;

/// Hash of a campaign's complete specification (name, seed and every
/// axis). Two campaigns expand to the same jobs in the same order if and
/// only if their specifications match, so the hash guards a journal
/// against being resumed under a different sweep.
#[must_use]
pub fn campaign_hash(campaign: &Campaign) -> u64 {
    fingerprint(format!("{campaign:?}").as_bytes())
}

/// Why a journal could not be opened for resuming.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file does not start with a journal header.
    NotAJournal,
    /// The journal was written by a different format version.
    Version(u32),
    /// The journal belongs to a different campaign specification.
    SpecMismatch {
        /// Hash of the campaign being resumed.
        expected: u64,
        /// Hash found in the journal header.
        found: u64,
    },
    /// A record line (other than a torn tail) failed to parse.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        why: String,
    },
    /// A merge was asked to produce a complete report but some job
    /// indices appear in none of the journals (a shard has not finished,
    /// or a shard journal was left out of the merge).
    Incomplete {
        /// How many job indices have no record.
        missing: usize,
        /// The lowest missing index, as a concrete pointer.
        first_missing: usize,
        /// Jobs the campaign expands into.
        total: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::NotAJournal => write!(f, "not a dramctrl campaign journal"),
            JournalError::Version(v) => write!(
                f,
                "journal format version {v} is not the supported version {JOURNAL_VERSION}"
            ),
            JournalError::SpecMismatch { expected, found } => write!(
                f,
                "journal belongs to a different campaign (spec hash {found:#018x}, \
                 this sweep is {expected:#018x}); re-run the original sweep command \
                 line or start a fresh journal"
            ),
            JournalError::Corrupt { line, why } => {
                write!(f, "journal line {line} is corrupt: {why}")
            }
            JournalError::Incomplete {
                missing,
                first_missing,
                total,
            } => write!(
                f,
                "merged journals cover only {}/{total} jobs ({missing} missing, \
                 first missing index {first_missing}); run the remaining shards \
                 or include their journals in the merge",
                total - missing
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// A write-ahead journal of completed campaign jobs.
///
/// Create one with [`create`](Self::create) for a fresh sweep or
/// [`resume`](Self::resume) to pick up a crashed one, then hand it to
/// [`run_campaign_journaled`](crate::run_campaign_journaled).
#[derive(Debug)]
pub struct CampaignJournal {
    path: PathBuf,
    appender: DurableAppender,
    campaign_name: String,
    completed: BTreeMap<usize, JobOutcome>,
    total: usize,
    dropped_torn_tail: bool,
}

impl CampaignJournal {
    /// Creates a fresh journal at `path` for `campaign`, writing the
    /// durable header line.
    ///
    /// # Errors
    /// Any I/O error from creating or syncing the file.
    pub fn create(path: impl Into<PathBuf>, campaign: &Campaign) -> Result<Self, JournalError> {
        let path = path.into();
        let mut appender = DurableAppender::create(&path)?;
        let header = format!(
            "{{\"journal\":\"dramctrl-campaign\",\"version\":{},\"name\":{},\
             \"spec_hash\":\"{:#018x}\",\"total\":{}}}",
            JOURNAL_VERSION,
            json_str(&campaign.name),
            campaign_hash(campaign),
            campaign.len(),
        );
        appender.append_line(&header)?;
        Ok(Self {
            path,
            appender,
            campaign_name: campaign.name.clone(),
            completed: BTreeMap::new(),
            total: campaign.len(),
            dropped_torn_tail: false,
        })
    }

    /// Opens an existing journal at `path` and replays it.
    ///
    /// The header's spec hash must match `campaign`; completed job records
    /// are parsed back (keeping the *first* record for an index, should a
    /// duplicate ever appear) and a torn tail — a crash mid-append — is
    /// dropped, truncating the file back to the last complete record so
    /// new appends start on a clean line boundary.
    ///
    /// # Errors
    /// I/O errors, a missing or mismatching header, or a corrupt record
    /// line that is not the torn tail.
    pub fn resume(path: impl Into<PathBuf>, campaign: &Campaign) -> Result<Self, JournalError> {
        let path = path.into();
        let scan = scan_journal(&path, campaign)?;
        if scan.dropped_torn_tail {
            // Truncate the torn bytes so the next append starts a clean line.
            let f = std::fs::OpenOptions::new().write(true).open(&path)?;
            f.set_len(scan.valid_len as u64)?;
            f.sync_data()?;
        }
        let appender = DurableAppender::append_to(&path)?;
        Ok(Self {
            path,
            appender,
            campaign_name: campaign.name.clone(),
            completed: scan.completed,
            total: scan.total,
            dropped_torn_tail: scan.dropped_torn_tail,
        })
    }

    /// Opens `path` in whatever state a crash left it: a missing file —
    /// or one whose header line never landed whole (the crash window
    /// between file creation and the header append) — is created fresh;
    /// anything with a durable header resumes normally.
    ///
    /// A header-less file can hold no records, so recreating it loses
    /// nothing. A file whose *complete* first line is not our header is
    /// still refused: that is someone else's data, not a crash artifact.
    ///
    /// # Errors
    /// The same errors as [`create`](Self::create) and
    /// [`resume`](Self::resume), minus the torn-header `NotAJournal`.
    pub fn recover(path: impl Into<PathBuf>, campaign: &Campaign) -> Result<Self, JournalError> {
        let path = path.into();
        if !path.exists() {
            return Self::create(path, campaign);
        }
        match Self::resume(&path, campaign) {
            Err(JournalError::NotAJournal) if !std::fs::read_to_string(&path)?.contains('\n') => {
                Self::create(path, campaign)
            }
            other => other,
        }
    }

    /// Reads a journal without opening it for appends and without
    /// modifying the file: validates the header against `campaign` and
    /// returns the journaled outcomes (keep-first, torn tail ignored).
    ///
    /// This is the read path for merging shard journals and for serving
    /// finished results — the journal may still be live in another
    /// process, so replay must not truncate.
    ///
    /// # Errors
    /// The same validation errors as [`resume`](Self::resume).
    pub fn replay(
        path: impl AsRef<Path>,
        campaign: &Campaign,
    ) -> Result<BTreeMap<usize, JobOutcome>, JournalError> {
        Ok(scan_journal(path.as_ref(), campaign)?.completed)
    }

    /// The journal file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Outcomes already durably journaled, keyed by job index.
    #[must_use]
    pub fn completed(&self) -> &BTreeMap<usize, JobOutcome> {
        &self.completed
    }

    /// Number of jobs the campaign expands into.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Whether [`resume`](Self::resume) dropped a torn (partially
    /// written) final line.
    #[must_use]
    pub fn dropped_torn_tail(&self) -> bool {
        self.dropped_torn_tail
    }

    /// Commits one finished job: appends its record line and fsyncs.
    ///
    /// This is the campaign's single commit point — when it returns
    /// `Ok(true)` the record is on disk and the job will be skipped by any
    /// future resume. Committing an index that is already journaled is a
    /// durable no-op (returns `Ok(false)`), so a record can never be
    /// appended twice.
    ///
    /// # Errors
    /// Any I/O error from appending or syncing; the record is then *not*
    /// committed and the job must be treated as not done.
    pub fn commit(&mut self, record: &JobRecord) -> io::Result<bool> {
        if self.completed.contains_key(&record.job.index) {
            return Ok(false);
        }
        let line = render_record(&self.campaign_name, record);
        self.appender.append_line(&line)?;
        self.completed
            .insert(record.job.index, record.outcome.clone());
        test_kill_hook();
        Ok(true)
    }

    /// Commits a batch of finished jobs with one fsync: every record's
    /// line is rendered from borrows (no [`JobRecord`] construction) and
    /// appended, then a single sync is the whole batch's commit point.
    /// Already-journaled indices are skipped (keep-first, as
    /// [`commit`](Self::commit)); the journal's bytes are exactly what the
    /// same records committed one-by-one would have written.
    ///
    /// A process killed mid-batch (after some appends, before the sync)
    /// leaves complete record lines plus at most one torn tail —
    /// [`resume`](Self::resume) replays the prefix and re-runs the rest.
    ///
    /// Returns how many records were newly appended.
    ///
    /// # Errors
    /// Any I/O error from appending or syncing; the batch is then *not*
    /// committed (some lines may be on disk, which resume handles as
    /// above) and its jobs must be treated as not done.
    pub fn commit_batch<'a, I>(&mut self, records: I) -> io::Result<usize>
    where
        I: IntoIterator<Item = (&'a JobSpec, &'a JobOutcome)>,
    {
        let mut appended = 0;
        for (job, outcome) in records {
            if self.completed.contains_key(&job.index) {
                continue;
            }
            let line = render_parts(&self.campaign_name, job, outcome);
            self.appender.append_line_deferred(&line)?;
            self.completed.insert(job.index, outcome.clone());
            test_kill_hook();
            appended += 1;
        }
        if appended > 0 {
            self.appender.commit_batch()?;
        }
        Ok(appended)
    }
}

/// What a validating read of a journal file yields.
struct JournalScan {
    completed: BTreeMap<usize, JobOutcome>,
    total: usize,
    /// Bytes up to and including the last complete record line.
    valid_len: usize,
    dropped_torn_tail: bool,
}

/// Reads and validates a journal file against `campaign` without
/// modifying it: header checks, keep-first record replay, torn-tail
/// detection. Shared by [`CampaignJournal::resume`] (which then
/// truncates and reopens for append) and the read-only paths
/// ([`CampaignJournal::replay`], [`merge_journals`]).
fn scan_journal(path: &Path, campaign: &Campaign) -> Result<JournalScan, JournalError> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.split_inclusive('\n');

    let header = lines.next().ok_or(JournalError::NotAJournal)?;
    if !header.ends_with('\n') {
        // Even the header never made it to disk whole.
        return Err(JournalError::NotAJournal);
    }
    let (version, spec_hash, total) =
        parse_header(header.trim_end_matches('\n')).ok_or(JournalError::NotAJournal)?;
    if version != JOURNAL_VERSION {
        return Err(JournalError::Version(version));
    }
    let expected = campaign_hash(campaign);
    if spec_hash != expected {
        return Err(JournalError::SpecMismatch {
            expected,
            found: spec_hash,
        });
    }
    if total != campaign.len() {
        return Err(JournalError::Corrupt {
            line: 1,
            why: format!(
                "header total {} does not match the campaign's {} jobs",
                total,
                campaign.len()
            ),
        });
    }

    let mut completed = BTreeMap::new();
    let mut valid_len = header.len();
    let mut dropped_torn_tail = false;
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        if !line.ends_with('\n') {
            // Torn tail: the process died mid-append. Drop it.
            dropped_torn_tail = true;
            break;
        }
        let (index, outcome) = parse_record(line.trim_end_matches('\n'))
            .map_err(|why| JournalError::Corrupt { line: line_no, why })?;
        if index >= total {
            return Err(JournalError::Corrupt {
                line: line_no,
                why: format!("job index {index} is outside the campaign's {total} jobs"),
            });
        }
        // Keep-first: the earliest durable record for an index wins.
        completed.entry(index).or_insert(outcome);
        valid_len = valid_len.saturating_add(line.len());
    }
    Ok(JournalScan {
        completed,
        total,
        valid_len,
        dropped_torn_tail,
    })
}

/// Merges shard journals for one campaign into a complete
/// [`CampaignReport`](crate::CampaignReport).
///
/// Every journal is validated against `campaign` (header hash, version,
/// total) and replayed read-only; outcomes are unioned keep-first in
/// `paths` order, matching the single-journal dedup rule. The merged
/// report's [`to_jsonl`](crate::CampaignReport::to_jsonl) is
/// byte-identical to an unsharded run's, because records are keyed by
/// job index and each job's result depends only on its spec — never on
/// which shard ran it. Host-dependent fields (`workers`, `wall_secs`)
/// are zeroed: a merge is not a run.
///
/// # Errors
/// Any per-journal validation error, or [`JournalError::Incomplete`] if
/// the union does not cover every job index.
pub fn merge_journals(
    campaign: &Campaign,
    paths: &[impl AsRef<Path>],
) -> Result<crate::CampaignReport, JournalError> {
    let mut merged: BTreeMap<usize, JobOutcome> = BTreeMap::new();
    for path in paths {
        for (index, outcome) in scan_journal(path.as_ref(), campaign)?.completed {
            merged.entry(index).or_insert(outcome);
        }
    }
    let jobs = campaign.expand();
    let missing: Vec<usize> = (0..jobs.len())
        .filter(|i| !merged.contains_key(i))
        .collect();
    if let Some(&first_missing) = missing.first() {
        return Err(JournalError::Incomplete {
            missing: missing.len(),
            first_missing,
            total: jobs.len(),
        });
    }
    let records = jobs
        .into_iter()
        .map(|job| {
            let outcome = merged
                .remove(&job.index)
                .expect("missing indices were rejected above");
            JobRecord { job, outcome }
        })
        .collect();
    Ok(crate::CampaignReport {
        name: campaign.name.clone(),
        seed: campaign.seed,
        workers: 0,
        wall_secs: 0.0,
        records,
    })
}

/// Crash-injection hook for the recovery tests: when the environment
/// variable `DRAMCTRL_TEST_KILL_AFTER_APPENDS` is set to `N`, the process
/// dies immediately after the `N`-th durable journal append — after the
/// commit point, before anything else — simulating a kill at the worst
/// possible moment. The append-counting trigger predates the general
/// fault layer and is kept for its after-the-commit-point semantics; the
/// crash itself (exit code [`fsio::fault::CRASH_EXIT_CODE`]) is shared
/// with `DRAMCTRL_FAULT_PLAN`'s `crash` action, which covers the
/// before-the-op half of the space.
fn test_kill_hook() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    static LIMIT: OnceLock<Option<u64>> = OnceLock::new();
    static APPENDS: AtomicU64 = AtomicU64::new(0);
    let Some(limit) = *LIMIT.get_or_init(|| {
        std::env::var("DRAMCTRL_TEST_KILL_AFTER_APPENDS")
            .ok()
            .and_then(|v| v.parse().ok())
    }) else {
        return;
    };
    if APPENDS.fetch_add(1, Ordering::SeqCst) + 1 == limit {
        eprintln!("test kill hook: exiting after {limit} journal append(s)");
        fsio::fault::crash_now();
    }
}

/// Parses the header line, returning `(version, spec_hash, total)`.
fn parse_header(line: &str) -> Option<(u32, u64, usize)> {
    let mut c = Cursor::new(line);
    c.lit("{\"journal\":\"dramctrl-campaign\",\"version\":")
        .ok()?;
    let version = c.raw_num().ok()?.parse().ok()?;
    c.lit(",\"name\":").ok()?;
    let _name = c.string().ok()?;
    c.lit(",\"spec_hash\":\"").ok()?;
    let hex = c.until('"').ok()?;
    let spec_hash = u64::from_str_radix(hex.strip_prefix("0x")?, 16).ok()?;
    c.lit("\",\"total\":").ok()?;
    let total = c.raw_num().ok()?.parse().ok()?;
    c.lit("}").ok()?;
    c.end().ok()?;
    Some((version, spec_hash, total))
}

/// Parses one record line back into `(job index, outcome)` with no
/// journal context.
///
/// This is the validation primitive for consumers of *untrusted* record
/// lines — the dispatch coordinator runs every record a peer streams
/// through it, then re-renders the outcome against its own campaign and
/// compares bytes, so a lying peer (wrong spec, foreign campaign,
/// out-of-range index) is caught before anything reaches a journal.
///
/// # Errors
/// A description of the first grammar violation.
pub fn parse_record_line(line: &str) -> Result<(usize, JobOutcome), String> {
    parse_record(line)
}

/// Parses one record line back into `(job index, outcome)`.
///
/// The parser walks the fixed field order [`render_record`] emits, so it
/// needs no general JSON machinery; metric values round-trip exactly
/// because the renderer uses Rust's shortest-round-trip float formatting.
fn parse_record(line: &str) -> Result<(usize, JobOutcome), String> {
    let mut c = Cursor::new(line);
    c.lit("{\"campaign\":")?;
    let _ = c.string()?;
    c.lit(",\"job\":")?;
    let index: usize = c
        .raw_num()?
        .parse()
        .map_err(|_| "bad job index".to_owned())?;
    c.lit(",\"seed\":")?;
    let _ = c.raw_num()?;
    for key in ["device", "model", "policy", "sched", "mapping"] {
        c.lit(&format!(",\"{key}\":"))?;
        let _ = c.string()?;
    }
    c.lit(",\"channels\":")?;
    let _ = c.raw_num()?;
    c.lit(",\"traffic\":")?;
    let _ = c.string()?;
    for key in ["read_pct", "requests", "error_rate"] {
        c.lit(&format!(",\"{key}\":"))?;
        let _ = c.raw_num()?;
    }
    c.lit(",\"outcome\":\"")?;
    let outcome = if c.lit("ok\"").is_ok() {
        c.lit(",\"attempts\":")?;
        let attempts = c
            .raw_num()?
            .parse()
            .map_err(|_| "bad attempts".to_owned())?;
        c.lit(",\"metrics\":{")?;
        let mut metrics = JobMetrics::new();
        if c.lit("}").is_err() {
            loop {
                let key = c.string()?;
                c.lit(":")?;
                metrics.set(key, parse_f64(c.raw_num()?)?);
                if c.lit(",").is_err() {
                    c.lit("}")?;
                    break;
                }
            }
        }
        c.lit("}")?;
        JobOutcome::Completed { metrics, attempts }
    } else {
        c.lit("failed\"")?;
        c.lit(",\"attempts\":")?;
        let attempts = c
            .raw_num()?
            .parse()
            .map_err(|_| "bad attempts".to_owned())?;
        c.lit(",\"panic_msg\":")?;
        let panic_msg = c.string()?;
        c.lit("}")?;
        JobOutcome::Failed {
            panic_msg,
            attempts,
        }
    };
    c.end()?;
    Ok((index, outcome))
}

/// A JSON metric value: a finite number, or `null` for the non-finite
/// values the renderer cannot represent.
fn parse_f64(raw: &str) -> Result<f64, String> {
    if raw == "null" {
        return Ok(f64::NAN);
    }
    raw.parse().map_err(|_| format!("bad metric value {raw:?}"))
}

/// A cursor over one journal line, consuming the exact grammar
/// [`render_record`] writes.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Self {
        Self { s, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.s[self.pos..]
    }

    /// Consumes the literal `l`, or fails without consuming anything.
    fn lit(&mut self, l: &str) -> Result<(), String> {
        if self.rest().starts_with(l) {
            self.pos += l.len();
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                l,
                self.pos,
                &self.rest()[..self.rest().len().min(24)]
            ))
        }
    }

    /// Consumes up to (not including) the next `stop` character.
    fn until(&mut self, stop: char) -> Result<&'a str, String> {
        let end = self
            .rest()
            .find(stop)
            .ok_or_else(|| format!("unterminated field at byte {}", self.pos))?;
        let s = &self.rest()[..end];
        self.pos += end;
        Ok(s)
    }

    /// Consumes a bare JSON number (or `null`) up to the next delimiter.
    fn raw_num(&mut self) -> Result<&'a str, String> {
        let end = self
            .rest()
            .find([',', '}', ':'])
            .unwrap_or(self.rest().len());
        if end == 0 {
            return Err(format!("expected a number at byte {}", self.pos));
        }
        let s = &self.rest()[..end];
        self.pos += end;
        Ok(s)
    }

    /// Consumes a quoted JSON string, decoding the escapes the renderer
    /// emits.
    fn string(&mut self) -> Result<String, String> {
        self.lit("\"")?;
        let mut out = String::new();
        let mut chars = self.rest().char_indices();
        loop {
            let (i, ch) = chars
                .next()
                .ok_or_else(|| "unterminated string".to_owned())?;
            match ch {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => {
                    let (_, esc) = chars.next().ok_or_else(|| "truncated escape".to_owned())?;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let (_, h) = chars
                                    .next()
                                    .ok_or_else(|| "truncated \\u escape".to_owned())?;
                                code = code * 16
                                    + h.to_digit(16)
                                        .ok_or_else(|| format!("bad hex digit {h:?}"))?;
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad code point {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    /// Asserts the whole line was consumed.
    fn end(&self) -> Result<(), String> {
        if self.rest().is_empty() {
            Ok(())
        } else {
            Err(format!("trailing bytes {:?}", self.rest()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Campaign;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dramctrl-journal-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    fn campaign() -> Campaign {
        Campaign::new("journal-test", 11).read_pcts([0, 50, 100])
    }

    fn record(c: &Campaign, index: usize) -> JobRecord {
        let job = c.expand()[index].clone();
        JobRecord {
            job,
            outcome: JobOutcome::Completed {
                metrics: JobMetrics::new()
                    .with("bus_util", 0.625)
                    .with("weird \"name\"", f64::NAN),
                attempts: 1,
            },
        }
    }

    #[test]
    fn create_commit_resume_round_trip() {
        let p = tmp("round.jsonl");
        let c = campaign();
        let mut j = CampaignJournal::create(&p, &c).unwrap();
        assert!(j.commit(&record(&c, 1)).unwrap());
        assert!(j.commit(&record(&c, 0)).unwrap());
        drop(j);

        let j = CampaignJournal::resume(&p, &c).unwrap();
        assert_eq!(j.total(), 3);
        assert!(!j.dropped_torn_tail());
        assert_eq!(
            j.completed().keys().copied().collect::<Vec<_>>(),
            vec![0, 1]
        );
        // Metrics survive the round trip, non-finite values as NaN.
        let JobOutcome::Completed { metrics, attempts } = &j.completed()[&1] else {
            panic!("expected completed");
        };
        assert_eq!(*attempts, 1);
        assert_eq!(metrics.get("bus_util"), Some(0.625));
        assert!(metrics.get("weird \"name\"").unwrap().is_nan());
    }

    #[test]
    fn commit_is_the_single_append_point() {
        let p = tmp("dedup.jsonl");
        let c = campaign();
        let mut j = CampaignJournal::create(&p, &c).unwrap();
        assert!(j.commit(&record(&c, 2)).unwrap(), "first commit appends");
        assert!(!j.commit(&record(&c, 2)).unwrap(), "second is a no-op");
        drop(j);
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text.lines().count(), 2, "header + exactly one record");
        // And a resumed journal refuses the double append just the same.
        let mut j = CampaignJournal::resume(&p, &c).unwrap();
        assert!(!j.commit(&record(&c, 2)).unwrap());
    }

    #[test]
    fn journaled_lines_match_report_lines_byte_for_byte() {
        let p = tmp("bytes.jsonl");
        let c = campaign();
        let mut j = CampaignJournal::create(&p, &c).unwrap();
        let failed = JobRecord {
            job: c.expand()[0].clone(),
            outcome: JobOutcome::Failed {
                panic_msg: "boom \"quoted\"\nline2".to_owned(),
                attempts: 2,
            },
        };
        j.commit(&failed).unwrap();
        j.commit(&record(&c, 1)).unwrap();
        drop(j);
        let text = std::fs::read_to_string(&p).unwrap();
        let mut lines = text.lines().skip(1);
        assert_eq!(
            lines.next().unwrap(),
            render_record("journal-test", &failed)
        );
        assert_eq!(
            lines.next().unwrap(),
            render_record("journal-test", &record(&c, 1))
        );
        // Failed outcomes round-trip through resume too.
        let j = CampaignJournal::resume(&p, &c).unwrap();
        assert_eq!(j.completed()[&0], failed.outcome);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let p = tmp("torn.jsonl");
        let c = campaign();
        let mut j = CampaignJournal::create(&p, &c).unwrap();
        j.commit(&record(&c, 0)).unwrap();
        drop(j);
        let good = std::fs::read_to_string(&p).unwrap();
        // Simulate a crash mid-append: half a record, no newline.
        let full_line = render_record("journal-test", &record(&c, 1));
        std::fs::write(&p, format!("{good}{}", &full_line[..full_line.len() / 2])).unwrap();

        let mut j = CampaignJournal::resume(&p, &c).unwrap();
        assert!(j.dropped_torn_tail());
        assert_eq!(j.completed().len(), 1);
        // The torn bytes are gone and new appends land on a clean line.
        j.commit(&record(&c, 1)).unwrap();
        drop(j);
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.ends_with('\n'));
        let j = CampaignJournal::resume(&p, &c).unwrap();
        assert_eq!(j.completed().len(), 2);
    }

    #[test]
    fn duplicate_index_keeps_first() {
        let p = tmp("dup.jsonl");
        let c = campaign();
        let mut j = CampaignJournal::create(&p, &c).unwrap();
        j.commit(&record(&c, 0)).unwrap();
        drop(j);
        // Hand-append a second record for the same index with different
        // metrics; the first (earliest durable) record must win.
        let mut second = record(&c, 0);
        second.outcome = JobOutcome::Completed {
            metrics: JobMetrics::new().with("bus_util", 0.0),
            attempts: 9,
        };
        let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        use std::io::Write as _;
        writeln!(f, "{}", render_record("journal-test", &second)).unwrap();
        drop(f);
        let j = CampaignJournal::resume(&p, &c).unwrap();
        let JobOutcome::Completed { metrics, attempts } = &j.completed()[&0] else {
            panic!("expected completed");
        };
        assert_eq!(metrics.get("bus_util"), Some(0.625), "first record wins");
        assert_eq!(*attempts, 1);
    }

    #[test]
    fn wrong_campaign_is_rejected_loudly() {
        let p = tmp("mismatch.jsonl");
        let c = campaign();
        CampaignJournal::create(&p, &c).unwrap();
        let other = Campaign::new("journal-test", 11).read_pcts([0, 50]);
        match CampaignJournal::resume(&p, &other) {
            Err(JournalError::SpecMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected SpecMismatch, got {other:?}"),
        }
        // Same axes, different seed: also a different campaign.
        let reseeded = Campaign::new("journal-test", 12).read_pcts([0, 50, 100]);
        assert!(matches!(
            CampaignJournal::resume(&p, &reseeded),
            Err(JournalError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn merge_overlapping_partial_shards_keeps_first_byte_identically() {
        let c = campaign(); // 3 jobs
                            // A full single journal is the byte-identity reference.
        let full = tmp("merge-full.jsonl");
        let mut j = CampaignJournal::create(&full, &c).unwrap();
        for i in 0..3 {
            j.commit(&record(&c, i)).unwrap();
        }
        drop(j);
        let reference = merge_journals(&c, &[&full]).unwrap();

        // Shard A covers {0, 1}; shard B overlaps on 1 (with a
        // *different* outcome — a re-dispatched shard re-ran the job
        // with more attempts) and adds 2.
        let a = tmp("merge-a.jsonl");
        let mut j = CampaignJournal::create(&a, &c).unwrap();
        j.commit(&record(&c, 0)).unwrap();
        j.commit(&record(&c, 1)).unwrap();
        drop(j);
        let b = tmp("merge-b.jsonl");
        let mut j = CampaignJournal::create(&b, &c).unwrap();
        let mut dup = record(&c, 1);
        dup.outcome = JobOutcome::Completed {
            metrics: JobMetrics::new().with("bus_util", 0.999),
            attempts: 2,
        };
        j.commit(&dup).unwrap();
        j.commit(&record(&c, 2)).unwrap();
        drop(j);

        let merged = merge_journals(&c, &[&a, &b]).unwrap();
        assert_eq!(
            merged.to_jsonl(),
            reference.to_jsonl(),
            "keep-first must pick shard A's record for the overlap"
        );
        // Path order decides the winner: B first surfaces B's duplicate.
        let swapped = merge_journals(&c, &[&b, &a]).unwrap();
        assert_ne!(swapped.to_jsonl(), reference.to_jsonl());
    }

    #[test]
    fn merge_refuses_a_foreign_spec_hash() {
        let c = campaign();
        let mine = tmp("merge-mine.jsonl");
        let mut j = CampaignJournal::create(&mine, &c).unwrap();
        for i in 0..3 {
            j.commit(&record(&c, i)).unwrap();
        }
        drop(j);
        // Same name and job count, different seed: the spec hash (and
        // every per-job seed) differs, so merging would fabricate
        // results. The refusal must be loud, not a silent skip.
        let foreign_campaign = Campaign::new("journal-test", 12).read_pcts([0, 50, 100]);
        let foreign = tmp("merge-foreign.jsonl");
        let mut j = CampaignJournal::create(&foreign, &foreign_campaign).unwrap();
        j.commit(&JobRecord {
            job: foreign_campaign.expand()[0].clone(),
            outcome: JobOutcome::Completed {
                metrics: JobMetrics::new(),
                attempts: 1,
            },
        })
        .unwrap();
        drop(j);
        assert!(matches!(
            merge_journals(&c, &[&mine, &foreign]),
            Err(JournalError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn merge_accepts_an_empty_but_headered_shard() {
        let c = campaign();
        let full = tmp("merge-full2.jsonl");
        let mut j = CampaignJournal::create(&full, &c).unwrap();
        for i in 0..3 {
            j.commit(&record(&c, i)).unwrap();
        }
        drop(j);
        // A shard whose peer never committed anything before dying:
        // valid journal, zero contribution.
        let empty = tmp("merge-empty.jsonl");
        drop(CampaignJournal::create(&empty, &c).unwrap());

        let reference = merge_journals(&c, &[&full]).unwrap();
        let merged = merge_journals(&c, &[&empty, &full]).unwrap();
        assert_eq!(merged.to_jsonl(), reference.to_jsonl());

        // And alone, it is Incomplete — every job missing — never a
        // truncated report.
        match merge_journals(&c, &[&empty]) {
            Err(JournalError::Incomplete {
                missing,
                first_missing,
                total,
            }) => {
                assert_eq!((missing, first_missing, total), (3, 0, 3));
            }
            other => panic!("expected Incomplete, got {other:?}"),
        }
    }

    #[test]
    fn parse_record_line_round_trips_and_rejects_garbage() {
        let c = campaign();
        let rec = record(&c, 1);
        let line = rec.render(&c.name);
        let (index, outcome) = parse_record_line(&line).unwrap();
        assert_eq!(index, 1);
        // Re-rendering the parsed outcome against the local spec is the
        // coordinator's byte-level validation of streamed records.
        let rebuilt = JobRecord {
            job: c.expand()[index].clone(),
            outcome,
        };
        assert_eq!(rebuilt.render(&c.name), line);
        assert!(parse_record_line("{\"event\":\"record\"}").is_err());
        assert!(parse_record_line("").is_err());
    }

    #[test]
    fn non_journal_and_corrupt_files_are_rejected() {
        let p = tmp("bogus.jsonl");
        std::fs::write(&p, "{\"not\":\"a journal\"}\n").unwrap();
        assert!(matches!(
            CampaignJournal::resume(&p, &campaign()),
            Err(JournalError::NotAJournal)
        ));
        // A corrupt line that is *not* the torn tail is an error, not a
        // silent skip: it means the file was edited or the disk lied.
        let p2 = tmp("corrupt.jsonl");
        let c = campaign();
        let mut j = CampaignJournal::create(&p2, &c).unwrap();
        j.commit(&record(&c, 0)).unwrap();
        drop(j);
        let mut text = std::fs::read_to_string(&p2).unwrap();
        text.push_str("{\"campaign\":\"mangled\n");
        text.push_str(&render_record("journal-test", &record(&c, 1)));
        text.push('\n');
        std::fs::write(&p2, text).unwrap();
        assert!(matches!(
            CampaignJournal::resume(&p2, &c),
            Err(JournalError::Corrupt { line: 3, .. })
        ));
    }

    #[test]
    fn out_of_range_index_is_corrupt() {
        let p = tmp("range.jsonl");
        let c = campaign();
        CampaignJournal::create(&p, &c).unwrap();
        // A record from a bigger campaign that happens to share a prefix.
        let big = Campaign::new("journal-test", 11).read_pcts(0..100);
        let mut text = std::fs::read_to_string(&p).unwrap();
        text.push_str(&render_record("journal-test", &record(&big, 50)));
        text.push('\n');
        std::fs::write(&p, text).unwrap();
        assert!(matches!(
            CampaignJournal::resume(&p, &c),
            Err(JournalError::Corrupt { line: 2, .. })
        ));
    }

    #[test]
    fn campaign_hash_is_sensitive_to_every_axis() {
        let base = campaign();
        let h = campaign_hash(&base);
        assert_eq!(h, campaign_hash(&campaign()), "deterministic");
        assert_ne!(h, campaign_hash(&base.clone().read_pcts([0, 50])));
        assert_ne!(h, campaign_hash(&base.clone().channels([2])));
        assert_ne!(h, campaign_hash(&base.clone().error_rates([1e11])));
        assert_ne!(
            h,
            campaign_hash(&Campaign::new("journal-test", 12).read_pcts([0, 50, 100]))
        );
    }
}
