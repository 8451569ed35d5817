//! Durable checkpoint persistence with typed failures.
//!
//! The engine and campaign scheduler stream post-stage snapshots
//! ([`SessionState`] / [`CampaignProgress`]) to whatever sink the caller
//! installs. For a one-shot CLI a lost checkpoint is a warning; for the
//! serve daemon it is lost durability — a crashed request could no longer
//! be recovered. [`CheckpointWriter`] therefore surfaces every
//! persistence failure as a typed [`FlowError::Checkpoint`] *and* counts
//! it on the `checkpoint.write_failures` counter, so a daemon can alert
//! while a CLI keeps the old warn-and-continue behavior.
//!
//! Writes are atomic (write to `<path>.tmp`, then rename): a reader — in
//! particular the daemon's restart-recovery scan — never observes a
//! half-written checkpoint.

use std::path::{Path, PathBuf};

use ascdg_coverage::{CoverageModel, CoverageRepository, RepoSnapshot};
use ascdg_telemetry::Telemetry;

use crate::session::{CampaignProgress, SessionState};
use crate::FlowError;

/// Writes checkpoints to one path, atomically, with typed failures.
#[derive(Debug, Clone)]
pub struct CheckpointWriter {
    path: PathBuf,
    telemetry: Telemetry,
}

impl CheckpointWriter {
    /// A writer targeting `path`. Failures are counted on the given
    /// telemetry's `checkpoint.write_failures` counter (when enabled).
    pub fn new(path: impl Into<PathBuf>, telemetry: Telemetry) -> Self {
        CheckpointWriter {
            path: path.into(),
            telemetry,
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
        let json = serde_json::to_string(state)
            .map_err(|e| self.failure(format!("checkpoint did not serialize: {e}")))?;
        self.write_atomic(&json)
    }

    /// Persists a whole-campaign checkpoint.
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] on serialization or I/O failure (also
    /// counted on `checkpoint.write_failures`).
    pub fn write_campaign(&self, progress: &CampaignProgress) -> Result<(), FlowError> {
        let json = serde_json::to_string(progress)
            .map_err(|e| self.failure(format!("checkpoint did not serialize: {e}")))?;
        self.write_atomic(&json)
    }

    /// Write-to-temp-then-rename, so readers never see partial bytes.
    fn write_atomic(&self, json: &str) -> Result<(), FlowError> {
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, json)
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

/// Reads a whole-campaign checkpoint back (the `campaign --resume` and
/// daemon-recovery entry point).
///
/// # Errors
///
/// [`FlowError::Checkpoint`] when the file is unreadable or not a valid
/// campaign checkpoint.
pub fn read_campaign_checkpoint(path: impl AsRef<Path>) -> Result<CampaignProgress, FlowError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| FlowError::Checkpoint(format!("could not read {}: {e}", path.display())))?;
    serde_json::from_str(&text).map_err(|e| {
        FlowError::Checkpoint(format!(
            "{} is not a campaign checkpoint: {e}",
            path.display()
        ))
    })
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
    use crate::{pool_scope, CdgFlow, FlowConfig, FlowEngine};
    use ascdg_duv::io_unit::IoEnv;
    use std::sync::Mutex;

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
        assert!(writer.write_campaign(&progress).is_err());
        let m = telemetry.metrics().unwrap();
        assert_eq!(m.counter("checkpoint.write_failures").value(), 2);
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

    /// A real io_unit campaign's outcome JSON and a checkpoint streamed
    /// midway through it: the regression snapshot plus group sessions
    /// part-way through their stages.
    fn io_campaign() -> (String, CampaignProgress) {
        let streamed = Mutex::new(Vec::new());
        let report = CdgFlow::new(IoEnv::new(), FlowConfig::quick())
            .run_campaign_with(
                5,
                &Telemetry::disabled(),
                Some(&|p: &CampaignProgress| streamed.lock().unwrap().push(p.clone())),
            )
            .expect("campaign runs");
        let mut streamed = streamed.into_inner().unwrap();
        let mid = streamed.swap_remove(streamed.len() / 2);
        (serde_json::to_string(&report.outcome).unwrap(), mid)
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

    /// Every 64th prefix plus the one missing only the last byte, then a
    /// copy per 61st byte of the first `"repo"` object with that byte's
    /// low bit flipped.
    fn damaged(clean: &str) -> Vec<Vec<u8>> {
        let bytes = clean.as_bytes();
        let mut cases: Vec<Vec<u8>> = (0..bytes.len())
            .step_by(64)
            .chain([bytes.len() - 1])
            .map(|n| bytes[..n].to_vec())
            .collect();
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
        let field = "\"campaign_jobs\":1";
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

    /// Damaged and legacy checkpoints, campaign and session alike, read
    /// as a typed `FlowError::Checkpoint` or resume to the undamaged
    /// outcome; none panics.
    #[test]
    fn damaged_and_legacy_checkpoints_fail_typed_or_resume_unchanged() {
        let dir = tmp_dir("damaged");
        let path = dir.join("ckpt.json");
        let (reference, progress) = io_campaign();
        let state = progress
            .groups
            .iter()
            .find_map(|g| g.session.clone())
            .expect("a group checkpointed mid-flight");
        let session_reference = session_outcome(state.clone()).expect("session resumes");
        let campaign_json = serde_json::to_string(&progress).unwrap();
        let session_json = serde_json::to_string(&state).unwrap();
        assert!(campaign_json.matches("\"campaign_jobs\":1").count() > 1);

        let read_campaign = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            read_campaign_checkpoint(&path)
        };
        let read_session = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            read_session_checkpoint(&path)
        };
        let resume_campaign = |p: &CampaignProgress| {
            CdgFlow::new(IoEnv::new(), FlowConfig::quick())
                .resume_campaign(p, &Telemetry::disabled(), None)
                .map(|r| serde_json::to_string(&r.outcome).unwrap())
        };
        let typed_or_unchanged =
            |what: String, outcome: Result<String, FlowError>, want: &str| match outcome {
                Ok(json) => assert_eq!(json, want, "{what} resumed to another outcome"),
                Err(e) => assert!(matches!(e, FlowError::Checkpoint(_)), "{what}: {e:?}"),
            };

        for (i, bytes) in damaged(&campaign_json).iter().enumerate() {
            let outcome = read_campaign(bytes).and_then(|p| {
                if p == progress {
                    Ok(reference.clone())
                } else {
                    resume_campaign(&p)
                }
            });
            typed_or_unchanged(format!("campaign case {i}"), outcome, &reference);
        }
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
        let legacy = with_strategy(&campaign_json, "Indexed", |_| true);
        assert_eq!(read_campaign(legacy.as_bytes()).unwrap(), progress);
        let legacy = with_strategy(&session_json, "Indexed", |_| true);
        assert_eq!(read_session(legacy.as_bytes()).unwrap(), state);
        for retired in ["Coalesced", "PointSeeded"] {
            for pick in [|_| true, |i| i == 1] as [fn(usize) -> bool; 2] {
                let bytes = with_strategy(&campaign_json, retired, pick);
                let err = read_campaign(bytes.as_bytes()).unwrap_err();
                assert!(matches!(err, FlowError::Checkpoint(_)), "{err:?}");
                assert!(err.to_string().contains(retired), "{err}");
            }
            let bytes = with_strategy(&session_json, retired, |_| true);
            let err = read_session(bytes.as_bytes()).unwrap_err();
            assert!(matches!(err, FlowError::Checkpoint(_)), "{err:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
