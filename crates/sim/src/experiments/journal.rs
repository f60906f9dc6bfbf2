//! Append-only sweep journal: a write-ahead log of completed cells.
//!
//! A full paper sweep is hundreds of independent machine runs ("cells").
//! The journal makes that sweep crash-safe: every finished cell is
//! appended to a JSONL file *before* the sweep moves on, so a killed or
//! interrupted run can be re-launched with `--resume` and skip every cell
//! that already completed. Because [`Metrics`] is built entirely from
//! integers, strings and integer vectors, the stored record round-trips
//! exactly and a resumed sweep reassembles **byte-identical** artifacts
//! versus an uninterrupted run.
//!
//! # Cell keys
//!
//! Each cell is identified by a deterministic, self-describing key:
//!
//! ```text
//! driver/workload@procs.events.refs/protocol/consistency/network/variant/fault[/dir=ORG]
//! e.g.  fig2/MP3D@16.48576.23712/P+CW/RC/uniform/base/f=none
//! e.g.  dirscale/MP3D@256.48576.23712/P/RC/hmesh64/base/f=none/dir=ptr4b
//! ```
//!
//! The workload component carries a content fingerprint (processor count,
//! total events, total shared references) so the same application at a
//! different `--scale` or `--procs` never collides; the variant tags a
//! timing override (the §5.4 sensitivity runs); the fault component
//! encodes the full fault plan. A non-default directory organization
//! appends a final `dir=` segment — full-map cells keep the historical
//! key shape, so journals written before the directory axis existed
//! still resolve. Journals from unrelated sweeps can therefore share a
//! file without ambiguity — a lookup simply misses.
//!
//! # File format
//!
//! Line 1 is a version header; every further line is one record:
//! `status` is `"ok"` (with the full metrics) or `"failed"` (with the
//! error text and attempt count). New journals are written as version 2
//! ([`HEADER_V2`]): each record line is prefixed with the CRC32 of its
//! JSON payload (`xxxxxxxx {json}`), so a storage bit-flip that leaves
//! the JSON well-formed — a corrupted digit inside a metric — is caught
//! by checksum instead of silently merged into an artifact. Version-1
//! files ([`HEADER`], no checksums) still load, and a resumed v1 journal
//! keeps appending v1 lines so the file stays internally consistent.
//!
//! One process writes each journal: the sweep's `--jobs` threads append
//! through one handle, under a lock, with a single `write_all` per
//! record, and duplicate keys resolve last-wins, so concurrent threads
//! and re-runs are safe. A crash can at worst truncate the final line;
//! unparseable trailing lines are dropped on load and counted in
//! [`Journal::recovered_lines`], while checksum-failed lines whose JSON
//! still parses are quarantined — dropped and counted separately in
//! [`Journal::corrupt_lines`], and the cells they claimed to record run
//! again. Failed records are kept in the file as diagnostics but are
//! *not* treated as completed — a resumed sweep runs their cells again.
//! Fields a record carries beyond the ones listed here are ignored, so
//! journals written by earlier releases still resume.

use std::collections::HashMap;
use std::fmt;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dirext_core::sharer::DirOrg;
use dirext_core::{Consistency, ProtocolKind};
use dirext_network::{FaultPlan, RETRY_BASE};
use dirext_stats::Metrics;
use dirext_trace::Workload;
use serde::{Deserialize, Serialize};

use crate::NetworkKind;

/// Version-1 header: record lines are bare JSON, no checksums. Still
/// readable; no longer written for new journals.
pub const HEADER: &str = "{\"dirext_journal\":1}";

/// Version-2 header: every record line is `xxxxxxxx {json}` where the
/// prefix is the lowercase-hex CRC32 (IEEE) of the JSON payload bytes.
pub const HEADER_V2: &str = "{\"dirext_journal\":2,\"line_crc\":\"crc32\"}";

/// CRC32 (IEEE 802.3, reflected) of `bytes` — the checksum `gzip` and
/// `cksum -o3` compute. Bitwise, no table: journal lines are small and
/// this keeps the format self-contained.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (0u32.wrapping_sub(crc & 1)));
        }
    }
    !crc
}

/// Splits a v2 record line into its checksum prefix and JSON payload.
fn split_crc(line: &str) -> Option<(u32, &str)> {
    let (prefix, rest) = line.split_at_checked(8)?;
    let payload = rest.strip_prefix(' ')?;
    u32::from_str_radix(prefix, 16).ok().map(|c| (c, payload))
}

/// One record of the journal file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct JournalLine {
    /// The cell key (see the module docs).
    key: String,
    /// `"ok"` or `"failed"`.
    status: String,
    /// How many attempts the cell took (1 = first try).
    attempts: u32,
    /// The rendered error for failed cells.
    error: Option<String>,
    /// The full result record for completed cells.
    metrics: Option<Metrics>,
}

/// A journal open/parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError(String);

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal: {}", self.0)
    }
}

impl std::error::Error for JournalError {}

/// One completed cell as read back from a journal file.
#[derive(Debug, Clone)]
pub struct OkCell {
    /// Attempts the cell took.
    pub attempts: u32,
    /// The recorded result.
    pub metrics: Metrics,
}

struct Inner {
    file: std::fs::File,
    /// Whether appended lines carry the v2 checksum prefix (false only
    /// when resuming a version-1 file, which must stay internally v1).
    crc: bool,
    /// Completed cells only (failed cells must re-run on resume).
    completed: HashMap<String, OkCell>,
    /// Set when an append fails; surfaces as a sweep error so an
    /// interrupted run is never silently un-resumable.
    write_error: Option<String>,
}

/// The append-only sweep journal. Thread-safe: sweep workers record cells
/// concurrently.
pub struct Journal {
    path: PathBuf,
    inner: Mutex<Inner>,
    loaded: usize,
    recovered: usize,
    corrupt: usize,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("loaded", &self.loaded)
            .field("recovered", &self.recovered)
            .field("corrupt", &self.corrupt)
            .finish_non_exhaustive()
    }
}

/// Parses journal record lines (everything after the header), building
/// the completed map with last-wins semantics. With `crc` set
/// (version-2 files) every line must carry a matching checksum prefix: a
/// mismatch whose payload still parses as JSON is a quarantined
/// corruption, while a mismatch that is also unparseable is the familiar
/// crash-torn tail.
fn parse_records<'a>(lines: impl Iterator<Item = &'a str>, crc: bool) -> JournalScan {
    let mut completed: HashMap<String, OkCell> = HashMap::new();
    let mut loaded = 0usize;
    let mut recovered = 0usize;
    let mut corrupt = 0usize;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let payload = if crc {
            match split_crc(line) {
                Some((stored, payload)) if stored == crc32(payload.as_bytes()) => payload,
                Some((_, payload)) if serde_json::from_str::<JournalLine>(payload).is_ok() => {
                    corrupt += 1;
                    continue;
                }
                _ => {
                    recovered += 1;
                    continue;
                }
            }
        } else {
            line
        };
        match serde_json::from_str::<JournalLine>(payload) {
            Ok(rec) => {
                loaded += 1;
                // Last success wins: a re-run overrides history. A failure
                // never invalidates an earlier success (deterministic cells
                // cannot regress without a code change).
                if rec.status == "ok" {
                    if let Some(m) = rec.metrics {
                        completed.insert(
                            rec.key,
                            OkCell {
                                attempts: rec.attempts,
                                metrics: m,
                            },
                        );
                    }
                }
            }
            Err(_) => recovered += 1,
        }
    }
    JournalScan {
        completed,
        loaded,
        recovered,
        corrupt,
    }
}

/// Classifies the first line of a journal file.
enum HeaderCheck {
    /// Valid header; parse the rest (`crc` = version-2 checksummed lines).
    Ok { crc: bool },
    /// Empty file or a crash-torn header prefix: treat as fresh.
    Fresh { recovered: usize },
    /// Some other file entirely.
    Foreign,
}

fn check_header(text: &str) -> HeaderCheck {
    let mut lines = text.lines();
    match lines.next() {
        None => HeaderCheck::Fresh { recovered: 0 },
        Some(first) if first.trim() == HEADER_V2 => HeaderCheck::Ok { crc: true },
        Some(first) if first.trim() == HEADER => HeaderCheck::Ok { crc: false },
        // A SIGKILL during `create` can leave a prefix of the header with
        // no newline; no record can follow it, so starting over is safe.
        Some(first)
            if (HEADER_V2.starts_with(first.trim_end())
                || HEADER.starts_with(first.trim_end()))
                && lines.next().is_none()
                && !text.ends_with('\n') =>
        {
            HeaderCheck::Fresh { recovered: 1 }
        }
        Some(_) => HeaderCheck::Foreign,
    }
}

impl Journal {
    /// Creates a fresh journal at `path`, writing the header line.
    ///
    /// # Errors
    ///
    /// Refuses to overwrite an existing non-empty file (pass it to
    /// [`Journal::resume`] instead, or delete it), and reports I/O errors.
    pub fn create(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        let path = path.as_ref();
        if let Ok(meta) = std::fs::metadata(path) {
            if meta.len() > 0 {
                return Err(JournalError(format!(
                    "{} already exists; resume it with --resume or delete it first",
                    path.display()
                )));
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| JournalError(format!("cannot create {}: {e}", path.display())))?;
        file.write_all(format!("{HEADER_V2}\n").as_bytes())
            .map_err(|e| JournalError(format!("cannot write {}: {e}", path.display())))?;
        Ok(Journal {
            path: path.to_owned(),
            inner: Mutex::new(Inner {
                file,
                crc: true,
                completed: HashMap::new(),
                write_error: None,
            }),
            loaded: 0,
            recovered: 0,
            corrupt: 0,
        })
    }

    /// Opens an existing journal and loads its completed cells; a missing,
    /// zero-length, or header-torn file starts a fresh journal (so
    /// `--resume` on the first run of a sweep just works, and a `SIGKILL`
    /// landing inside `create` is survivable).
    ///
    /// Unparseable lines — the typical aftermath of a `SIGKILL` landing
    /// mid-append — are dropped and counted in
    /// [`Journal::recovered_lines`]; the cells they would have recorded
    /// simply run again.
    ///
    /// # Errors
    ///
    /// Reports I/O errors and files that are not dirext journals.
    pub fn resume(path: impl AsRef<Path>) -> Result<Journal, JournalError> {
        let path = path.as_ref();
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Journal::create(path);
            }
            Err(e) => return Err(JournalError(format!("cannot read {}: {e}", path.display()))),
        };
        let crc = match check_header(&text) {
            HeaderCheck::Ok { crc } => crc,
            HeaderCheck::Fresh { recovered } => {
                std::fs::remove_file(path).ok();
                let mut j = Journal::create(path)?;
                j.recovered = recovered;
                return Ok(j);
            }
            HeaderCheck::Foreign => {
                return Err(JournalError(format!(
                    "{} is not a dirext journal (expected a `{HEADER_V2}` or `{HEADER}` header)",
                    path.display()
                )));
            }
        };
        let scan = parse_records(text.lines().skip(1), crc);
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| JournalError(format!("cannot append to {}: {e}", path.display())))?;
        Ok(Journal {
            path: path.to_owned(),
            inner: Mutex::new(Inner {
                file,
                crc,
                completed: scan.completed,
                write_error: None,
            }),
            loaded: scan.loaded,
            recovered: scan.recovered,
            corrupt: scan.corrupt,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records loaded from an existing file by [`Journal::resume`].
    pub fn loaded_records(&self) -> usize {
        self.loaded
    }

    /// Unparseable (crash-truncated) lines dropped on load.
    pub fn recovered_lines(&self) -> usize {
        self.recovered
    }

    /// Checksum-failed but well-formed lines quarantined on load: the
    /// on-disk bytes were altered after the record was written (storage
    /// corruption), so the record is untrusted and its cell re-runs.
    pub fn corrupt_lines(&self) -> usize {
        self.corrupt
    }

    /// Number of distinct completed cells currently known.
    pub fn completed_cells(&self) -> usize {
        self.inner.lock().expect("journal lock").completed.len()
    }

    /// The stored metrics for `key`, if that cell already completed.
    pub fn lookup(&self, key: &str) -> Option<Metrics> {
        self.inner
            .lock()
            .expect("journal lock")
            .completed
            .get(key)
            .map(|c| c.metrics.clone())
    }

    /// Appends a completed cell (flushed before returning).
    pub fn record_ok(&self, key: &str, attempts: u32, metrics: &Metrics) {
        self.append(JournalLine {
            key: key.to_owned(),
            status: "ok".to_owned(),
            attempts,
            error: None,
            metrics: Some(metrics.clone()),
        });
    }

    /// Appends a failed cell (diagnostic only — failed cells re-run on
    /// resume).
    pub fn record_failed(&self, key: &str, attempts: u32, error: &str) {
        self.append(JournalLine {
            key: key.to_owned(),
            status: "failed".to_owned(),
            attempts,
            error: Some(error.to_owned()),
            metrics: None,
        });
    }

    /// The first append error, if any occurred (checked by the sweep
    /// orchestrator after the run so a broken journal is never silent).
    pub fn take_write_error(&self) -> Option<String> {
        self.inner.lock().expect("journal lock").write_error.take()
    }

    /// Injects a pending write error, exactly as a failed append would.
    /// Test hook for the must-fail-the-run contract; not for production
    /// use.
    #[doc(hidden)]
    pub fn inject_write_error(&self, msg: &str) {
        self.note_write_error(msg.to_owned());
    }

    fn append(&self, line: JournalLine) {
        let rendered = match serde_json::to_string(&line) {
            Ok(s) => s,
            Err(e) => {
                self.note_write_error(format!("serialize {}: {e}", line.key));
                return;
            }
        };
        let mut inner = self.inner.lock().expect("journal lock");
        let rendered = if inner.crc {
            format!("{:08x} {rendered}", crc32(rendered.as_bytes()))
        } else {
            rendered
        };
        // One write_all per record keeps lines whole under concurrency
        // (the mutex) and leaves at most one torn line after SIGKILL.
        if let Err(e) = inner.file.write_all(format!("{rendered}\n").as_bytes()) {
            let path = self.path.display().to_string();
            inner
                .write_error
                .get_or_insert(format!("append to {path}: {e}"));
            return;
        }
        if let Some(m) = line.metrics {
            inner.completed.insert(
                line.key,
                OkCell {
                    attempts: line.attempts,
                    metrics: m,
                },
            );
        }
    }

    fn note_write_error(&self, msg: String) {
        self.inner
            .lock()
            .expect("journal lock")
            .write_error
            .get_or_insert(msg);
    }
}

/// A read-only parse of a journal file (no append handle taken).
#[derive(Debug, Default)]
pub struct JournalScan {
    /// Completed cells, last-wins within the file.
    pub completed: HashMap<String, OkCell>,
    /// Parsed record count.
    pub loaded: usize,
    /// Unparseable (crash-torn) lines dropped.
    pub recovered: usize,
    /// Checksum-failed but well-formed lines quarantined (v2 files only).
    pub corrupt: usize,
}

/// Parses a journal file without opening it for append. As lenient as
/// [`Journal::resume`]: a missing, empty, or header-torn file scans as
/// empty (its writer may have died inside `create`).
///
/// # Errors
///
/// Reports I/O errors and files that are recognizably not dirext
/// journals.
pub fn scan(path: impl AsRef<Path>) -> Result<JournalScan, JournalError> {
    let path = path.as_ref();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(JournalScan::default()),
        Err(e) => return Err(JournalError(format!("cannot read {}: {e}", path.display()))),
    };
    let crc = match check_header(&text) {
        HeaderCheck::Ok { crc } => crc,
        HeaderCheck::Fresh { recovered } => {
            return Ok(JournalScan {
                recovered,
                ..JournalScan::default()
            })
        }
        HeaderCheck::Foreign => {
            return Err(JournalError(format!(
                "{} is not a dirext journal (expected a `{HEADER_V2}` or `{HEADER}` header)",
                path.display()
            )));
        }
    };
    Ok(parse_records(text.lines().skip(1), crc))
}

/// Builds the deterministic cell key for one simulator configuration (see
/// the module docs for the format).
// Every argument is one key segment; a params struct would only move the
// eight names one call-site away.
#[allow(clippy::too_many_arguments)]
pub fn cell_key(
    driver: &str,
    workload: &Workload,
    kind: ProtocolKind,
    consistency: Consistency,
    network: NetworkKind,
    dir: DirOrg,
    variant: &str,
    fault: Option<&FaultPlan>,
) -> String {
    let fault = match fault {
        Some(f) if f.is_active() => format!(
            "f=s{}.d{}.u{}.j{}.r{}.b{RETRY_BASE}",
            f.seed, f.drop_permille, f.dup_permille, f.jitter_cycles, f.retry_budget
        ),
        _ => "f=none".to_owned(),
    };
    // Full-map cells keep the pre-directory-axis key shape so existing
    // journals stay resumable byte for byte.
    let dir = match dir {
        DirOrg::FullMap => String::new(),
        other => format!("/dir={}", other.cli_name()),
    };
    format!(
        "{driver}/{}@{}.{}.{}/{}/{consistency}/{}/{variant}/{fault}{dir}",
        workload.name(),
        workload.procs(),
        workload.total_events(),
        workload.total_data_refs(),
        kind.name(),
        network.cli_name(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dirext-journal-unit-{}-{name}", std::process::id()))
    }

    fn sample_metrics(exec: u64) -> Metrics {
        Metrics {
            workload: "demo".into(),
            protocol: "BASIC".into(),
            consistency: "RC".into(),
            network: "uniform-54".into(),
            procs: 4,
            exec_cycles: exec,
            ..Metrics::default()
        }
    }

    #[test]
    fn round_trip_and_resume() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let j = Journal::create(&path).expect("create");
        j.record_ok("a/b/c", 1, &sample_metrics(123));
        j.record_failed("a/b/d", 3, "watchdog fired:\nmulti-line\n\"detail\"");
        drop(j);
        let j = Journal::resume(&path).expect("resume");
        assert_eq!(j.loaded_records(), 2);
        assert_eq!(j.completed_cells(), 1);
        assert_eq!(j.lookup("a/b/c").expect("hit").exec_cycles, 123);
        assert!(j.lookup("a/b/d").is_none(), "failed cells must re-run");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_recovered() {
        let path = tmp("truncated");
        let _ = std::fs::remove_file(&path);
        let j = Journal::create(&path).expect("create");
        j.record_ok("k1", 1, &sample_metrics(1));
        j.record_ok("k2", 1, &sample_metrics(2));
        drop(j);
        // Chop the file mid-way through the last record, as SIGKILL would.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 40]).unwrap();
        let j = Journal::resume(&path).expect("resume survives torn tail");
        assert_eq!(j.completed_cells(), 1);
        assert_eq!(j.recovered_lines(), 1);
        assert!(j.lookup("k1").is_some());
        assert!(j.lookup("k2").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_refuses_existing_and_resume_rejects_foreign_files() {
        let path = tmp("guard");
        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(Journal::create(&path).is_err());
        assert!(Journal::resume(&path).is_err());
        assert!(scan(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_on_missing_file_starts_fresh() {
        let path = tmp("fresh");
        let _ = std::fs::remove_file(&path);
        let j = Journal::resume(&path).expect("fresh");
        assert_eq!(j.completed_cells(), 0);
        assert_eq!(j.loaded_records(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_on_zero_length_file_starts_fresh() {
        let path = tmp("zero");
        std::fs::write(&path, "").unwrap();
        let j = Journal::resume(&path).expect("zero-length file is a fresh journal");
        assert_eq!(j.completed_cells(), 0);
        assert_eq!(j.recovered_lines(), 0);
        j.record_ok("z1", 1, &sample_metrics(7));
        drop(j);
        let j = Journal::resume(&path).expect("and it round-trips");
        assert_eq!(j.lookup("z1").expect("hit").exec_cycles, 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_on_truncated_header_starts_fresh() {
        let path = tmp("torn-header");
        // SIGKILL mid-`create`: a strict prefix of the header, no newline.
        std::fs::write(&path, &HEADER[..HEADER.len() / 2]).unwrap();
        let j = Journal::resume(&path).expect("torn header is recoverable");
        assert_eq!(j.completed_cells(), 0);
        assert_eq!(
            j.recovered_lines(),
            1,
            "the torn header counts as recovered"
        );
        j.record_ok("t1", 1, &sample_metrics(9));
        drop(j);
        let j = Journal::resume(&path).expect("rewritten header round-trips");
        assert_eq!(j.lookup("t1").expect("hit").exec_cycles, 9);
        // But a complete first line that is not our header stays foreign.
        std::fs::write(&path, "{\"other\":1}\n").unwrap();
        assert!(Journal::resume(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_from_earlier_releases_resume_as_completed() {
        let metrics_json = serde_json::to_string(&sample_metrics(5)).unwrap();
        let v1 = format!(
            "{HEADER}\n{{\"key\":\"old/cell\",\"status\":\"ok\",\"attempts\":1,\
             \"error\":null,\"metrics\":{metrics_json}}}\n"
        );
        // Written byte for byte by a multi-process worker of an earlier
        // release: a v2 file whose checksummed record carries that
        // release's lease token, a field this reader does not know.
        let v2 = include_str!("testdata/journal-v2-worker.jsonl");
        for (name, text, key, exec) in [
            ("v1", v1.as_str(), "old/cell", 5),
            ("v2", v2, "new/cell", 6),
        ] {
            let path = tmp(&format!("earlier-{name}"));
            std::fs::write(&path, text).unwrap();
            let j = Journal::resume(&path).expect("an earlier journal loads");
            assert_eq!(
                j.recovered_lines(),
                0,
                "{name}: old records are not dropped"
            );
            assert_eq!(j.corrupt_lines(), 0, "{name}: old checksums still hold");
            assert_eq!(j.completed_cells(), 1, "{name}");
            assert_eq!(j.lookup(key).expect("hit").exec_cycles, exec, "{name}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn bit_flip_in_a_record_is_quarantined_not_merged() {
        let path = tmp("bitflip");
        let _ = std::fs::remove_file(&path);
        let j = Journal::create(&path).expect("create");
        j.record_ok("cell/clean", 1, &sample_metrics(111));
        j.record_ok("cell/flipped", 1, &sample_metrics(999));
        drop(j);
        // Flip one bit inside a digit of the second record's metrics. The
        // line stays perfectly well-formed JSON — only the checksum can
        // tell the record was altered after it was written.
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = bytes
            .windows(3)
            .position(|w| w == b"999")
            .expect("the corrupted value is in the file");
        bytes[pos] ^= 0x01; // '9' (0x39) -> '8' (0x38)
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::resume(&path).expect("resume survives corruption");
        assert_eq!(j.corrupt_lines(), 1, "the flipped line is quarantined");
        assert_eq!(j.recovered_lines(), 0, "corruption is not a torn tail");
        assert_eq!(j.lookup("cell/clean").expect("hit").exec_cycles, 111);
        assert!(
            j.lookup("cell/flipped").is_none(),
            "the altered record must not be merged; its cell re-runs"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_journals_load_and_keep_appending_v1_lines() {
        let path = tmp("v1-compat");
        let metrics_json = serde_json::to_string(&sample_metrics(5)).unwrap();
        std::fs::write(
            &path,
            format!(
                "{HEADER}\n{{\"key\":\"old/cell\",\"status\":\"ok\",\"attempts\":1,\
                 \"error\":null,\"metrics\":{metrics_json}}}\n"
            ),
        )
        .unwrap();
        let j = Journal::resume(&path).expect("version-1 journal loads");
        assert_eq!(j.corrupt_lines(), 0);
        assert_eq!(j.lookup("old/cell").expect("hit").exec_cycles, 5);
        // Appends must match the file's own version, or a later resume
        // would see checksum prefixes as garbage.
        j.record_ok("new/cell", 1, &sample_metrics(6));
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().skip(1).all(|l| l.starts_with('{')),
            "v1 files must stay checksum-free: {text}"
        );
        let j = Journal::resume(&path).expect("mixed-age v1 journal round-trips");
        assert_eq!(j.loaded_records(), 2);
        assert_eq!(j.lookup("new/cell").expect("hit").exec_cycles, 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn new_journals_checksum_every_line() {
        let path = tmp("v2-lines");
        let _ = std::fs::remove_file(&path);
        let j = Journal::create(&path).expect("create");
        j.record_ok("k", 1, &sample_metrics(1));
        j.record_failed("k2", 2, "boom");
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(HEADER_V2));
        for line in lines {
            let (stored, payload) = split_crc(line).expect("crc prefix");
            assert_eq!(stored, crc32(payload.as_bytes()), "checksum holds: {line}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn write_error_injection_is_sticky_until_taken() {
        let path = tmp("werr");
        let _ = std::fs::remove_file(&path);
        let j = Journal::create(&path).unwrap();
        assert!(j.take_write_error().is_none());
        j.inject_write_error("disk full (simulated)");
        j.inject_write_error("second error must not overwrite the first");
        let msg = j.take_write_error().expect("pending error");
        assert!(msg.contains("disk full"));
        assert!(j.take_write_error().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn keys_distinguish_every_axis() {
        use dirext_trace::{MemEvent, Program};
        let w = |n: usize| {
            Workload::new(
                "W",
                (0..n)
                    .map(|_| Program::from_events(vec![MemEvent::Read(dirext_trace::Addr::new(0))]))
                    .collect(),
            )
        };
        let w2 = w(2);
        let base = cell_key(
            "fig2",
            &w2,
            ProtocolKind::Basic,
            Consistency::Rc,
            NetworkKind::Uniform,
            DirOrg::FullMap,
            "base",
            None,
        );
        let others = [
            cell_key(
                "fig3",
                &w2,
                ProtocolKind::Basic,
                Consistency::Rc,
                NetworkKind::Uniform,
                DirOrg::FullMap,
                "base",
                None,
            ),
            cell_key(
                "fig2",
                &w(3),
                ProtocolKind::Basic,
                Consistency::Rc,
                NetworkKind::Uniform,
                DirOrg::FullMap,
                "base",
                None,
            ),
            cell_key(
                "fig2",
                &w2,
                ProtocolKind::P,
                Consistency::Rc,
                NetworkKind::Uniform,
                DirOrg::FullMap,
                "base",
                None,
            ),
            cell_key(
                "fig2",
                &w2,
                ProtocolKind::Basic,
                Consistency::Sc,
                NetworkKind::Uniform,
                DirOrg::FullMap,
                "base",
                None,
            ),
            cell_key(
                "fig2",
                &w2,
                ProtocolKind::Basic,
                Consistency::Rc,
                NetworkKind::Mesh { link_bits: 32 },
                DirOrg::FullMap,
                "base",
                None,
            ),
            cell_key(
                "fig2",
                &w2,
                ProtocolKind::Basic,
                Consistency::Rc,
                NetworkKind::Uniform,
                DirOrg::FullMap,
                "flwb4",
                None,
            ),
            cell_key(
                "fig2",
                &w2,
                ProtocolKind::Basic,
                Consistency::Rc,
                NetworkKind::Uniform,
                DirOrg::FullMap,
                "base",
                Some(&FaultPlan {
                    drop_permille: 5,
                    ..FaultPlan::seeded(9)
                }),
            ),
            cell_key(
                "fig2",
                &w2,
                ProtocolKind::Basic,
                Consistency::Rc,
                NetworkKind::Uniform,
                DirOrg::LimitedPtr {
                    ptrs: 4,
                    broadcast: true,
                },
                "base",
                None,
            ),
        ];
        for other in &others {
            assert_ne!(&base, other);
        }
    }

    #[test]
    fn full_map_keys_keep_the_historical_shape() {
        use dirext_trace::{MemEvent, Program};
        let w = Workload::new(
            "W",
            vec![Program::from_events(vec![MemEvent::Read(
                dirext_trace::Addr::new(0),
            )])],
        );
        let key = cell_key(
            "fig2",
            &w,
            ProtocolKind::Basic,
            Consistency::Rc,
            NetworkKind::Uniform,
            DirOrg::FullMap,
            "base",
            None,
        );
        assert!(
            key.ends_with("/f=none"),
            "full-map keys must not grow a dir segment: {key}"
        );
        let scaled = cell_key(
            "dirscale",
            &w,
            ProtocolKind::Basic,
            Consistency::Rc,
            NetworkKind::HierMesh { link_bits: 64 },
            DirOrg::CoarseVector { region: 8 },
            "base",
            None,
        );
        assert!(
            scaled.ends_with("/f=none/dir=coarse8"),
            "non-default organizations tag the key: {scaled}"
        );
    }

    /// Every journal on disk resolves through these exact strings: a key
    /// that changes shape strands the records filed under the old one.
    #[test]
    fn keys_are_pinned() {
        use dirext_trace::{MemEvent, Program};
        let read = || Program::from_events(vec![MemEvent::Read(dirext_trace::Addr::new(0))]);
        let w = Workload::new("W", vec![read(), read()]);
        let key = |network, consistency, variant, fault: Option<&FaultPlan>| {
            cell_key(
                "sens",
                &w,
                ProtocolKind::PCw,
                consistency,
                network,
                DirOrg::FullMap,
                variant,
                fault,
            )
        };
        let networks = [
            (
                NetworkKind::Uniform,
                "sens/W@2.2.2/P+CW/RC/uniform/base/f=none",
            ),
            (
                NetworkKind::Mesh { link_bits: 64 },
                "sens/W@2.2.2/P+CW/RC/mesh64/base/f=none",
            ),
            (
                NetworkKind::Mesh { link_bits: 32 },
                "sens/W@2.2.2/P+CW/RC/mesh32/base/f=none",
            ),
            (
                NetworkKind::Mesh { link_bits: 16 },
                "sens/W@2.2.2/P+CW/RC/mesh16/base/f=none",
            ),
            (
                NetworkKind::Ring { link_bits: 64 },
                "sens/W@2.2.2/P+CW/RC/ring64/base/f=none",
            ),
            (
                NetworkKind::Ring { link_bits: 32 },
                "sens/W@2.2.2/P+CW/RC/ring32/base/f=none",
            ),
            (
                NetworkKind::Ring { link_bits: 16 },
                "sens/W@2.2.2/P+CW/RC/ring16/base/f=none",
            ),
            (
                NetworkKind::HierMesh { link_bits: 64 },
                "sens/W@2.2.2/P+CW/RC/hmesh64/base/f=none",
            ),
            (
                NetworkKind::HierMesh { link_bits: 32 },
                "sens/W@2.2.2/P+CW/RC/hmesh32/base/f=none",
            ),
            (
                NetworkKind::HierMesh { link_bits: 16 },
                "sens/W@2.2.2/P+CW/RC/hmesh16/base/f=none",
            ),
        ];
        for (network, pinned) in networks {
            assert_eq!(key(network, Consistency::Rc, "base", None), pinned);
        }
        assert_eq!(
            key(NetworkKind::Uniform, Consistency::Sc, "base", None),
            "sens/W@2.2.2/P+CW/SC/uniform/base/f=none"
        );
        assert_eq!(
            key(NetworkKind::Uniform, Consistency::Rc, "flwb4-slwb4", None),
            "sens/W@2.2.2/P+CW/RC/uniform/flwb4-slwb4/f=none"
        );
        let lossy = FaultPlan {
            drop_permille: 20,
            dup_permille: 10,
            jitter_cycles: 5,
            ..FaultPlan::seeded(1)
        };
        assert_eq!(
            key(NetworkKind::Uniform, Consistency::Rc, "base", Some(&lossy)),
            "sens/W@2.2.2/P+CW/RC/uniform/base/f=s1.d20.u10.j5.r16.b64"
        );
    }
}
