//! Durable checkpoint persistence with typed failures.
//!
//! The engine streams post-stage [`SessionState`] snapshots, and the
//! campaign scheduler a [`CampaignEntry`] stream, to whatever sink the
//! caller installs. For a one-shot CLI a lost checkpoint is a warning; for
//! the serve daemon it is lost durability — a crashed request could no
//! longer be recovered. [`CheckpointWriter`] therefore surfaces every
//! persistence failure as a typed [`FlowError::Checkpoint`] *and* counts
//! it on the `checkpoint.write_failures` counter, so a daemon can alert
//! while a CLI keeps the old warn-and-continue behavior. The daemon
//! writes its request, manifest and outcome files through the same path.
//!
//! A session checkpoint, and every other whole file, is written
//! atomically (write to `<path>.tmp`, then rename): a reader — in
//! particular the daemon's restart-recovery scan — never observes a
//! half-written file.
//!
//! A campaign checkpoint is an append-only JSON-lines log. Line 1 is the
//! planned [`CampaignProgress`], regression snapshot included once, group
//! sessions without their own copy; it is written atomically whenever a
//! campaign starts or resumes, so a resume also compacts the log. Each
//! completed group stage then appends one line,
//! `{"group":i,"session":<SessionState without repo>,"sum":"<hex>"}`,
//! where `sum` is the FNV-1a hash of the line's bytes before `,"sum"`.
//! An append opens the existing file and never creates or renames it.
//! [`read_campaign_checkpoint`] folds the complete lines in order; a
//! final fragment without its newline is a torn append and is ignored,
//! any other bad line is a typed error. A file without any newline is a
//! single-object checkpoint from before the log, and reads as a one-line
//! log. Nothing is fsynced.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use ascdg_coverage::{CoverageModel, CoverageRepository, RepoSnapshot};
use ascdg_telemetry::Telemetry;

use crate::session::{CampaignEntry, CampaignProgress, SessionState};
use crate::FlowError;

/// Writes checkpoints to one path with typed, counted failures: whole
/// files atomically, campaign steps as appended lines.
#[derive(Debug)]
pub struct CheckpointWriter {
    path: PathBuf,
    telemetry: Telemetry,
    /// Serializes appends, so concurrent steps land as whole lines.
    append: Mutex<()>,
}

impl CheckpointWriter {
    /// A writer targeting `path`. Failures are counted on the given
    /// telemetry's `checkpoint.write_failures` counter (when enabled).
    pub fn new(path: impl Into<PathBuf>, telemetry: Telemetry) -> Self {
        CheckpointWriter {
            path: path.into(),
            telemetry,
            append: Mutex::new(()),
        }
    }

    /// The destination path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Persists a single-session checkpoint.
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] on serialization or I/O failure (also
    /// counted on `checkpoint.write_failures`).
    pub fn write_session(&self, state: &SessionState) -> Result<(), FlowError> {
        self.write_json(state, false)
    }

    /// Atomically replaces the file with `value` as JSON, compact or
    /// `pretty` (two-space indented).
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] on serialization or I/O failure (also
    /// counted on `checkpoint.write_failures`).
    pub fn write_json<T: Serialize + ?Sized>(
        &self,
        value: &T,
        pretty: bool,
    ) -> Result<(), FlowError> {
        let json = if pretty {
            serde_json::to_string_pretty(value)
        } else {
            serde_json::to_string(value)
        };
        let json = json
            .map_err(|e| self.failure(format!("{} did not serialize: {e}", self.path.display())))?;
        self.write_file(&json)
    }

    /// Records one campaign stream entry. A plan starts the log: the file
    /// is atomically replaced with the one header line holding it. A step
    /// appends group `group`'s post-stage `state` as one line to that log;
    /// the state is written as given (a campaign group's carries no
    /// `repo`, the header holds the one snapshot).
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] on serialization or I/O failure, among
    /// them a step whose log no longer exists (also counted on
    /// `checkpoint.write_failures`).
    pub fn record(&self, entry: CampaignEntry<'_>) -> Result<(), FlowError> {
        let (group, state) = match entry {
            CampaignEntry::Plan(progress) => {
                let mut json = serde_json::to_string(progress)
                    .map_err(|e| self.failure(format!("checkpoint did not serialize: {e}")))?;
                json.push('\n');
                return self.write_file(&json);
            }
            CampaignEntry::Step { group, state } => (group, state),
        };
        let session = serde_json::to_string(state)
            .map_err(|e| self.failure(format!("checkpoint step did not serialize: {e}")))?;
        let mut line = format!("{{\"group\":{group},\"session\":{session}");
        let sum = fnv1a(line.as_bytes());
        let _ = writeln!(line, ",\"sum\":\"{sum:016x}\"}}");
        let _serial = self.append.lock().unwrap_or_else(PoisonError::into_inner);
        OpenOptions::new()
            .append(true)
            .open(&self.path)
            .and_then(|mut log| log.write_all(line.as_bytes()))
            .map_err(|e| self.failure(format!("could not append to {}: {e}", self.path.display())))
    }

    /// Atomically replaces the file with `contents`: write to
    /// `<path>.tmp`, then rename, so readers never see partial bytes.
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] on I/O failure (also counted on
    /// `checkpoint.write_failures`).
    pub fn write_file(&self, contents: &str) -> Result<(), FlowError> {
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, contents)
            .map_err(|e| self.failure(format!("could not write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| {
            self.failure(format!(
                "could not move {} into place at {}: {e}",
                tmp.display(),
                self.path.display()
            ))
        })
    }

    /// Counts and wraps one persistence failure.
    fn failure(&self, detail: String) -> FlowError {
        if let Some(m) = self.telemetry.metrics() {
            m.counter("checkpoint.write_failures").add(1);
        }
        FlowError::Checkpoint(detail)
    }
}

/// The 64-bit FNV-1a hash: a step line's checksum. Any single changed
/// byte changes it, since each step is a bijection of the state.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Reads a single-session checkpoint back.
///
/// # Errors
///
/// [`FlowError::Checkpoint`] when the file is unreadable or not a valid
/// session snapshot.
pub fn read_session_checkpoint(path: impl AsRef<Path>) -> Result<SessionState, FlowError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| FlowError::Checkpoint(format!("could not read {}: {e}", path.display())))?;
    serde_json::from_str(&text).map_err(|e| {
        FlowError::Checkpoint(format!(
            "{} is not a session checkpoint: {e}",
            path.display()
        ))
    })
}

/// One appended campaign step.
#[derive(Deserialize)]
struct StepLine {
    group: usize,
    session: SessionState,
}

/// The tail every step line ends with: `,"sum":"<16 hex digits>"}`.
const SUM_TAIL: usize = r#","sum":"0123456789abcdef"}"#.len();

/// Checks a step line's checksum, then parses it.
fn parse_step(line: &[u8]) -> Result<StepLine, String> {
    let split = line
        .len()
        .checked_sub(SUM_TAIL)
        .ok_or("too short for a step")?;
    let (body, tail) = line.split_at(split);
    let sum = tail
        .strip_prefix(br#","sum":""#)
        .and_then(|t| t.strip_suffix(br#""}"#))
        .and_then(|hex| std::str::from_utf8(hex).ok())
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or("has no checksum")?;
    if sum != fnv1a(body) {
        return Err("fails its checksum".to_owned());
    }
    from_json(line).map_err(|e| format!("is not a campaign step: {e}"))
}

/// Parses JSON bytes (the vendored `serde_json` reads only `&str`).
fn from_json<T: Deserialize>(bytes: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Reads a campaign checkpoint log back, folding every complete step line
/// into its header (the `campaign --resume` and daemon-recovery entry
/// point). A final fragment without its newline, a torn append, is
/// ignored.
///
/// # Errors
///
/// [`FlowError::Checkpoint`] when the file is unreadable, its header is
/// not a campaign checkpoint, or a complete step line fails its checksum,
/// does not parse, or names a group the campaign does not have.
pub fn read_campaign_checkpoint(path: impl AsRef<Path>) -> Result<CampaignProgress, FlowError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|e| FlowError::Checkpoint(format!("could not read {}: {e}", path.display())))?;
    let bad = |what: String| FlowError::Checkpoint(format!("{} {what}", path.display()));
    let mut lines = bytes.split_inclusive(|&b| b == b'\n');
    let mut progress: CampaignProgress = from_json(lines.next().unwrap_or_default())
        .map_err(|e| bad(format!("is not a campaign checkpoint: {e}")))?;
    for (n, line) in (2..).zip(lines) {
        let Some(line) = line.strip_suffix(b"\n") else {
            break;
        };
        let step = parse_step(line).map_err(|e| bad(format!("line {n} {e}")))?;
        let groups = progress.groups.len();
        let group = progress.groups.get_mut(step.group).ok_or_else(|| {
            bad(format!(
                "line {n} is a step of group {}, but the campaign has {groups} groups",
                step.group
            ))
        })?;
        group.session = Some(step.session);
    }
    Ok(progress)
}

/// Restores a checkpoint's regression snapshot against `model`. A
/// snapshot that does not fit the model, or whose counters do not add
/// up, means a damaged checkpoint.
pub(crate) fn restore_snapshot(
    model: &CoverageModel,
    snap: &RepoSnapshot,
) -> Result<CoverageRepository, FlowError> {
    CoverageRepository::from_snapshot(model.clone(), snap)
        .map_err(|e| FlowError::Checkpoint(format!("checkpoint's regression snapshot: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TargetSpec;
    use crate::{pool_scope, CdgFlow, FlowConfig, FlowEngine, RunManifest};
    use ascdg_duv::io_unit::IoEnv;
    use std::cell::RefCell;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ascdg-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn session_checkpoints_round_trip_atomically() {
        let dir = tmp_dir("session");
        let path = dir.join("run.checkpoint.json");
        let state = SessionState::new(
            "io_unit",
            FlowConfig::quick(),
            TargetSpec::Family("crc_".to_owned()),
            9,
        );
        let writer = CheckpointWriter::new(&path, Telemetry::disabled());
        writer.write_session(&state).expect("checkpoint writes");
        // The temp file never survives a successful write.
        assert!(!dir.join("run.checkpoint.json.tmp").exists());
        let back = read_session_checkpoint(&path).expect("checkpoint reads");
        assert_eq!(back, state);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_failures_are_typed_and_counted() {
        let telemetry = Telemetry::enabled();
        let missing = std::env::temp_dir()
            .join("ascdg-no-such-dir")
            .join("deep")
            .join("ckpt.json");
        let writer = CheckpointWriter::new(&missing, telemetry.clone());
        let state = SessionState::new("io_unit", FlowConfig::quick(), TargetSpec::Uncovered, 1);
        let err = writer.write_session(&state).unwrap_err();
        assert!(matches!(err, FlowError::Checkpoint(_)), "{err}");
        let progress = CampaignProgress {
            unit: "io_unit".to_owned(),
            seed: 1,
            config: None,
            repo: None,
            groups: Vec::new(),
        };
        assert!(writer.record(CampaignEntry::Plan(&progress)).is_err());
        // An append never creates the log it extends.
        assert!(writer
            .record(CampaignEntry::Step {
                group: 0,
                state: &state
            })
            .is_err());
        let m = telemetry.metrics().unwrap();
        assert_eq!(m.counter("checkpoint.write_failures").value(), 3);
    }

    #[test]
    fn unreadable_checkpoints_read_as_typed_errors() {
        let err = read_campaign_checkpoint("/definitely/not/here.json").unwrap_err();
        assert!(matches!(err, FlowError::Checkpoint(_)));
        let dir = tmp_dir("garbage");
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(matches!(
            read_session_checkpoint(&path),
            Err(FlowError::Checkpoint(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A real io_unit campaign, two groups in flight, logged through a
    /// [`CheckpointWriter`]: its outcome JSON and the log's bytes after
    /// every entry, the header-only log first.
    fn io_campaign(dir: &Path) -> (String, Vec<Vec<u8>>) {
        let path = dir.join("campaign.log");
        let writer = CheckpointWriter::new(&path, Telemetry::disabled());
        let logs = Mutex::new(Vec::new());
        let mut config = FlowConfig::quick();
        config.campaign_jobs = 2;
        config.threads = 2;
        let report = CdgFlow::new(IoEnv::new(), config)
            .run_campaign_with(
                5,
                &Telemetry::disabled(),
                Some(&|entry: CampaignEntry<'_>| {
                    writer.record(entry).expect("log writes");
                    logs.lock().unwrap().push(std::fs::read(&path).unwrap());
                }),
            )
            .expect("campaign runs");
        let _ = std::fs::remove_file(&path);
        (
            serde_json::to_string(&report.outcome).unwrap(),
            logs.into_inner().unwrap(),
        )
    }

    /// After the header, every stage only appends a line, and the one
    /// regression snapshot sits in the header.
    #[test]
    fn campaign_log_only_appends_and_holds_the_snapshot_once() {
        let dir = tmp_dir("append");
        let (_, logs) = io_campaign(&dir);
        assert!(logs.len() > 3, "the campaign logs every group stage");
        assert_eq!(logs[0].iter().filter(|&&b| b == b'\n').count(), 1);
        for (k, pair) in logs.windows(2).enumerate() {
            assert!(
                pair[1].starts_with(&pair[0]),
                "the log after entry {} is not a prefix of the next",
                k + 1
            );
        }
        let full = String::from_utf8(logs.last().unwrap().clone()).unwrap();
        assert_eq!(full.lines().count(), logs.len());
        let header: CampaignProgress = serde_json::from_str(full.lines().next().unwrap()).unwrap();
        assert!(header.groups.len() >= 2, "io_unit leaves families open");
        assert_eq!(full.matches("\"repo\":{").count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A session's flow outcome JSON, wall-clock timings dropped.
    fn session_outcome(state: SessionState) -> Result<String, FlowError> {
        let env = IoEnv::new();
        pool_scope(1, |pool| {
            let engine = FlowEngine::new(&env, state.config.clone(), pool);
            let mut outcome = engine.run(&mut engine.resume(state)?)?;
            outcome.timings.clear();
            Ok(serde_json::to_string(&outcome).unwrap())
        })
    }

    /// Every 64th prefix plus the one missing only the last byte, then
    /// the [`repo_flips`].
    fn damaged(clean: &str) -> Vec<Vec<u8>> {
        let bytes = clean.as_bytes();
        (0..bytes.len())
            .step_by(64)
            .chain([bytes.len() - 1])
            .map(|n| bytes[..n].to_vec())
            .chain(repo_flips(clean))
            .collect()
    }

    /// A copy per 61st byte of the first `"repo"` object with that byte's
    /// low bit flipped.
    fn repo_flips(clean: &str) -> Vec<Vec<u8>> {
        let bytes = clean.as_bytes();
        let mut cases = Vec::new();
        let start = clean.find("\"repo\":{").expect("checkpoint has a snapshot");
        let mut depth = 0;
        let end = start
            + clean[start..]
                .bytes()
                .position(|b| {
                    depth += i32::from(b == b'{') - i32::from(b == b'}');
                    b == b'}' && depth == 0
                })
                .unwrap();
        for at in (start..end).step_by(61) {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 1;
            cases.push(flipped);
        }
        cases
    }

    /// Adds the field checkpoints carried while evaluations could be
    /// coalesced to the config copies `pick` selects.
    fn with_strategy(clean: &str, strategy: &str, pick: impl Fn(usize) -> bool) -> String {
        let field = "\"campaign_jobs\":2";
        let mut out = String::new();
        for (i, part) in clean.split(field).enumerate() {
            if i > 0 {
                out.push_str(field);
                if pick(i - 1) {
                    out.push_str(&format!(",\"eval_strategy\":\"{strategy}\""));
                }
            }
            out.push_str(part);
        }
        out
    }

    /// Adds the four per-phase counters timings carried before the
    /// telemetry registry became the only counter store to every timing
    /// in `json`.
    fn with_retired_timing_keys(json: &str) -> String {
        json.replace(
            "\"wall_ms\":",
            "\"repo_merges\":1,\"sims_recorded\":96,\"resolve_hits\":2,\
             \"resolve_misses\":7,\"wall_ms\":",
        )
    }

    /// Damaged and legacy checkpoints, campaign log and session alike,
    /// read as a typed `FlowError::Checkpoint` or resume to the undamaged
    /// outcome; none panics. Legacy manifests still validate.
    #[test]
    fn damaged_and_legacy_checkpoints_fail_typed_or_resume_unchanged() {
        let dir = tmp_dir("damaged");
        let path = dir.join("ckpt.json");
        let (reference, logs) = io_campaign(&dir);
        let log = logs.last().unwrap().clone();
        let read_campaign = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            read_campaign_checkpoint(&path)
        };
        let read_session = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            read_session_checkpoint(&path)
        };
        // Many damaged logs fold to the same progress; resume each
        // distinct one once.
        let resumed: RefCell<Vec<(CampaignProgress, String)>> = RefCell::new(Vec::new());
        let resume_campaign = |p: CampaignProgress| {
            if let Some((_, json)) = resumed.borrow().iter().find(|(q, _)| *q == p) {
                return Ok(json.clone());
            }
            let json = CdgFlow::new(IoEnv::new(), FlowConfig::quick())
                .resume_campaign(&p, &Telemetry::disabled(), None)
                .map(|r| serde_json::to_string(&r.outcome).unwrap())?;
            resumed.borrow_mut().push((p, json.clone()));
            Ok(json)
        };
        let typed_or_unchanged =
            |what: String, outcome: Result<String, FlowError>, want: &str| match outcome {
                Ok(json) => assert_eq!(json, want, "{what} resumed to another outcome"),
                Err(e) => assert!(matches!(e, FlowError::Checkpoint(_)), "{what}: {e:?}"),
            };
        let campaign_case = |what: String, bytes: &[u8]| {
            let outcome = read_campaign(bytes).and_then(&resume_campaign);
            typed_or_unchanged(what, outcome, &reference);
        };

        // Cuts at every 64th byte of a log cut after half the stages, and
        // at every byte of the first step line: a torn final line is
        // dropped, a torn header is an error.
        let midway = &logs[logs.len() / 2];
        for n in (0..midway.len()).step_by(64) {
            campaign_case(format!("midway log cut at byte {n}"), &midway[..n]);
        }
        let first_step = &logs[1];
        for n in logs[0].len()..=first_step.len() {
            campaign_case(format!("first step cut at byte {n}"), &first_step[..n]);
        }
        // Low-bit flips inside a step line fail its checksum; on the
        // final newline they leave a torn line behind.
        let second_step = &logs[2];
        let newline = second_step.len() - 1;
        for at in (logs[1].len()..newline).step_by(3) {
            let mut flipped = second_step.clone();
            flipped[at] ^= 1;
            let err = read_campaign(&flipped).expect_err("a flipped step line reads");
            assert!(
                matches!(err, FlowError::Checkpoint(_)),
                "byte {at}: {err:?}"
            );
        }
        let mut flipped = second_step.clone();
        flipped[newline] ^= 1;
        campaign_case("second step's newline flipped".to_owned(), &flipped);
        // The header's snapshot is checked when the plan restores it.
        let text = String::from_utf8(log.clone()).unwrap();
        for (i, bytes) in repo_flips(&text).iter().enumerate() {
            campaign_case(format!("header flip {i}"), bytes);
        }
        // A well-formed step naming a group the campaign does not have.
        let progress = read_campaign(&log).expect("the clean log reads");
        let state = progress
            .groups
            .iter()
            .find_map(|g| g.session.clone())
            .unwrap();
        std::fs::write(&path, &log).unwrap();
        let writer = CheckpointWriter::new(&path, Telemetry::disabled());
        writer
            .record(CampaignEntry::Step {
                group: progress.groups.len(),
                state: &state,
            })
            .unwrap();
        let err = read_campaign_checkpoint(&path).unwrap_err();
        assert!(matches!(err, FlowError::Checkpoint(_)), "{err:?}");
        assert!(err.to_string().contains("group"), "{err}");

        // A single-object checkpoint from before the log, every session
        // with its own copy of the snapshot, is a one-line log.
        let mut legacy = progress.clone();
        for g in &mut legacy.groups {
            if let Some(s) = &mut g.session {
                s.repo = legacy.repo.clone();
            }
        }
        let legacy_json = serde_json::to_string(&legacy).unwrap();
        assert_eq!(
            legacy_json.matches("\"repo\":{").count(),
            1 + legacy.groups.len()
        );
        let back = read_campaign(legacy_json.as_bytes()).expect("a legacy checkpoint reads");
        assert_eq!(back, legacy);
        typed_or_unchanged(
            "legacy checkpoint".to_owned(),
            resume_campaign(back),
            &reference,
        );

        // A group session, its `repo` filled in from the campaign, is a
        // session checkpoint of its own.
        let state = SessionState {
            repo: progress.repo,
            ..state
        };
        let session_reference = session_outcome(state.clone()).expect("session resumes");
        let session_json = serde_json::to_string(&state).unwrap();
        for (i, bytes) in damaged(&session_json).iter().enumerate() {
            let outcome = read_session(bytes).and_then(|s| {
                if s == state {
                    Ok(session_reference.clone())
                } else {
                    session_outcome(s)
                }
            });
            typed_or_unchanged(format!("session case {i}"), outcome, &session_reference);
        }

        // The one seeding left loads from an old checkpoint as if the
        // field were absent; the retired ones fail typed, also when only
        // one group session's copy names them.
        assert!(legacy_json.matches("\"campaign_jobs\":2").count() > 1);
        let with = with_strategy(&legacy_json, "Indexed", |_| true);
        assert_eq!(read_campaign(with.as_bytes()).unwrap(), legacy);
        let with = with_strategy(&session_json, "Indexed", |_| true);
        assert_eq!(read_session(with.as_bytes()).unwrap(), state);
        for retired in ["Coalesced", "PointSeeded"] {
            for pick in [|_| true, |i| i == 1] as [fn(usize) -> bool; 2] {
                let bytes = with_strategy(&legacy_json, retired, pick);
                let err = read_campaign(bytes.as_bytes()).unwrap_err();
                assert!(matches!(err, FlowError::Checkpoint(_)), "{err:?}");
                assert!(err.to_string().contains(retired), "{err}");
            }
            let bytes = with_strategy(&session_json, retired, |_| true);
            let err = read_session(bytes.as_bytes()).unwrap_err();
            assert!(matches!(err, FlowError::Checkpoint(_)), "{err:?}");
        }

        // Timings that still carry the four retired counters load as if
        // the keys were absent: in checksummed step lines, in a session
        // checkpoint and in a manifest.
        assert!(!state.timings.is_empty());
        let mut old_log = String::new();
        for line in text.lines() {
            if line.starts_with("{\"group\":") {
                let body = with_retired_timing_keys(&line[..line.len() - SUM_TAIL]);
                let sum = fnv1a(body.as_bytes());
                let _ = writeln!(old_log, "{body},\"sum\":\"{sum:016x}\"}}");
            } else {
                let _ = writeln!(old_log, "{line}");
            }
        }
        assert!(old_log
            .lines()
            .any(|l| l.starts_with("{\"group\":") && l.contains("\"resolve_misses\":7")));
        let back = read_campaign(old_log.as_bytes()).expect("a log with the retired keys reads");
        assert_eq!(back, read_campaign(&log).unwrap());
        assert_eq!(resume_campaign(back).unwrap(), reference);
        let old_session = with_retired_timing_keys(&session_json);
        let back = read_session(old_session.as_bytes()).expect("a session with the keys reads");
        assert_eq!(back, state);
        assert_eq!(session_outcome(back).unwrap(), session_reference);
        let manifest = RunManifest::from_state(&state, &Telemetry::disabled());
        let old_manifest = with_retired_timing_keys(&manifest.to_json().unwrap());
        let back = RunManifest::from_json(&old_manifest).expect("a manifest with the keys parses");
        back.validate().expect("a manifest with the keys validates");
        assert_eq!(back, manifest);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
