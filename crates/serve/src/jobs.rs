//! Request validation: turning a wire [`Request`] into a runnable,
//! content-keyed [`JobSpec`].
//!
//! The content key is derived with exactly the journal's machinery
//! ([`mg_bench::journal::row_key`] over
//! [`mg_bench::journal::sweep_repr`]), so a server-submitted job and
//! the equivalent CLI sweep name the same work: identical requests
//! coalesce in the server's result store, and their artifacts share the
//! process-wide context cache.

use crate::protocol::{ErrorCode, Request};
use mg_bench::cache::stable_hash64;
use mg_bench::{journal, InputSel, Scheme, SweepCell};
use mg_sim::MachineConfig;
use mg_workloads::BenchmarkSpec;
use std::time::Duration;

/// Cap on cells per request: a full scheme × machine grid is 12 × 5.
pub const MAX_CELLS: usize = 64;

/// `target_dyn` overrides outside this range are refused — below the
/// generator's validity floor or far past any figure's budget.
pub const TARGET_DYN_RANGE: (u64, u64) = (1_000, 10_000_000);

/// A validated job: one benchmark, an ordered cell grid, and the
/// training machine every context for this job is profiled on.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The benchmark (with any `target_dyn` override applied, so the
    /// override participates in the content key).
    pub bench: BenchmarkSpec,
    /// Cells in request order: scheme-major, machine-minor.
    pub cells: Vec<SweepCell>,
    /// Training machine (the server's, uniform across jobs so the
    /// context cache coalesces maximally).
    pub train_cfg: MachineConfig,
    /// Per-job execution budget, measured from admission; `None` means
    /// unbounded. Not part of the content key.
    pub deadline: Option<Duration>,
    /// Stream rows starting at this cursor (rows before it are the
    /// client's from a previous connection). Not part of the content
    /// key.
    pub resume_from: u64,
}

impl JobSpec {
    /// Validates a request against the server's training machine.
    /// Every failure is a typed reject naming what was wrong.
    pub fn from_request(
        req: &Request,
        train_cfg: &MachineConfig,
    ) -> Result<JobSpec, (ErrorCode, String)> {
        let mut bench = mg_workloads::benchmark(&req.bench).ok_or_else(|| {
            (
                ErrorCode::UnknownBench,
                format!("unknown benchmark {:?}", req.bench),
            )
        })?;
        if let Some(dyn_target) = req.target_dyn {
            let (lo, hi) = TARGET_DYN_RANGE;
            if dyn_target < lo || dyn_target > hi {
                return Err((
                    ErrorCode::BadRequest,
                    format!("target_dyn {dyn_target} outside [{lo}, {hi}]"),
                ));
            }
            bench.params.target_dyn = dyn_target as usize;
        }
        if req.schemes.is_empty() || req.machines.is_empty() {
            return Err((
                ErrorCode::BadRequest,
                "schemes and machines must be non-empty".to_string(),
            ));
        }
        let schemes: Vec<Scheme> = req
            .schemes
            .iter()
            .map(|name| {
                Scheme::from_name(name)
                    .ok_or_else(|| (ErrorCode::UnknownScheme, format!("unknown scheme {name:?}")))
            })
            .collect::<Result<_, _>>()?;
        let machines: Vec<MachineConfig> = req
            .machines
            .iter()
            .map(|tag| {
                MachineConfig::from_tag(tag).ok_or_else(|| {
                    (
                        ErrorCode::UnknownMachine,
                        format!("unknown machine tag {tag:?}"),
                    )
                })
            })
            .collect::<Result<_, _>>()?;
        let cells: Vec<SweepCell> = schemes
            .iter()
            .flat_map(|&s| machines.iter().map(move |m| SweepCell::new(s, m)))
            .collect();
        if cells.len() > MAX_CELLS {
            return Err((
                ErrorCode::BadRequest,
                format!("{} cells exceeds the {MAX_CELLS}-cell cap", cells.len()),
            ));
        }
        if req.deadline_ms == Some(0) {
            return Err((
                ErrorCode::BadRequest,
                "deadline_ms must be positive (omit it for no deadline)".to_string(),
            ));
        }
        let resume_from = req.resume_from.unwrap_or(0);
        if resume_from > cells.len() as u64 {
            return Err((
                ErrorCode::BadRequest,
                format!(
                    "resume_from {resume_from} exceeds the job's {} cells",
                    cells.len()
                ),
            ));
        }
        Ok(JobSpec {
            bench,
            cells,
            train_cfg: train_cfg.clone(),
            deadline: req.deadline_ms.map(Duration::from_millis),
            resume_from,
        })
    }

    /// The job's content key — bit-compatible with the journal row key
    /// of the equivalent CLI sweep (same bench, same cells, same
    /// training machine, primary inputs).
    pub fn content_key(&self) -> u64 {
        let repr = journal::sweep_repr(
            &self.train_cfg,
            &InputSel::Primary,
            &InputSel::Primary,
            &self.cells,
        );
        journal::row_key(&self.bench, &repr)
    }

    /// Per-cell journal keys for crash recovery: the job's content key
    /// salted with the cell index. Cells are journaled one record each
    /// (a daemon killed mid-job loses at most the cell in flight), and
    /// because the salt includes [`JobSpec::content_key`], a record can
    /// never replay into a different job's cell grid.
    pub fn cell_keys(&self) -> Vec<u64> {
        let key = self.content_key();
        (0..self.cells.len())
            .map(|i| stable_hash64(format!("{key:016x}|cell{i}").as_bytes()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_request() -> Request {
        Request {
            id: "j".into(),
            bench: mg_workloads::suite()[0].name.clone(),
            schemes: vec!["Struct-All".into(), "slack-dynamic".into()],
            machines: vec!["reduced".into(), "8way".into()],
            target_dyn: Some(2_000),
            deadline_ms: None,
            resume_from: None,
        }
    }

    #[test]
    fn valid_request_builds_a_scheme_major_grid() {
        let red = MachineConfig::reduced();
        let job = JobSpec::from_request(&demo_request(), &red).unwrap();
        assert_eq!(job.cells.len(), 4);
        assert_eq!(job.cells[0].scheme, Scheme::StructAll);
        assert_eq!(job.cells[1].scheme, Scheme::StructAll);
        assert_eq!(job.cells[2].scheme, Scheme::SlackDynamic);
        assert_eq!(job.cells[0].machine.fetch_width, red.fetch_width);
        assert_eq!(job.bench.params.target_dyn, 2_000, "override applied");
    }

    #[test]
    fn unknown_names_yield_their_specific_codes() {
        let red = MachineConfig::reduced();
        let mut r = demo_request();
        r.bench = "no_such_bench".into();
        assert_eq!(
            JobSpec::from_request(&r, &red).unwrap_err().0,
            ErrorCode::UnknownBench
        );
        let mut r = demo_request();
        r.schemes[1] = "warp-drive".into();
        assert_eq!(
            JobSpec::from_request(&r, &red).unwrap_err().0,
            ErrorCode::UnknownScheme
        );
        let mut r = demo_request();
        r.machines[0] = "5way".into();
        assert_eq!(
            JobSpec::from_request(&r, &red).unwrap_err().0,
            ErrorCode::UnknownMachine
        );
        let mut r = demo_request();
        r.schemes.clear();
        assert_eq!(
            JobSpec::from_request(&r, &red).unwrap_err().0,
            ErrorCode::BadRequest
        );
        let mut r = demo_request();
        r.target_dyn = Some(10);
        assert_eq!(
            JobSpec::from_request(&r, &red).unwrap_err().0,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn content_key_tracks_what_changes_results() {
        let red = MachineConfig::reduced();
        let base = JobSpec::from_request(&demo_request(), &red).unwrap();
        let same = JobSpec::from_request(&demo_request(), &red).unwrap();
        assert_eq!(base.content_key(), same.content_key(), "key is stable");

        let mut r = demo_request();
        r.target_dyn = Some(4_000);
        let bigger = JobSpec::from_request(&r, &red).unwrap();
        assert_ne!(base.content_key(), bigger.content_key());

        let mut r = demo_request();
        r.machines.pop();
        let fewer = JobSpec::from_request(&r, &red).unwrap();
        assert_ne!(base.content_key(), fewer.content_key());

        // The id is the client's business, not the job's identity.
        let mut r = demo_request();
        r.id = "something-else".into();
        let renamed = JobSpec::from_request(&r, &red).unwrap();
        assert_eq!(base.content_key(), renamed.content_key());

        // Deadlines and resume cursors describe the session, not the
        // work: same key, so resumed/budgeted requests still coalesce.
        let mut r = demo_request();
        r.deadline_ms = Some(5_000);
        r.resume_from = Some(2);
        let budgeted = JobSpec::from_request(&r, &red).unwrap();
        assert_eq!(base.content_key(), budgeted.content_key());
        assert_eq!(budgeted.deadline, Some(Duration::from_millis(5_000)));
        assert_eq!(budgeted.resume_from, 2);
    }

    #[test]
    fn deadline_and_resume_bounds_are_validated() {
        let red = MachineConfig::reduced();
        let mut r = demo_request();
        r.deadline_ms = Some(0);
        assert_eq!(
            JobSpec::from_request(&r, &red).unwrap_err().0,
            ErrorCode::BadRequest
        );
        let mut r = demo_request();
        r.resume_from = Some(5); // the demo grid has 4 cells
        assert_eq!(
            JobSpec::from_request(&r, &red).unwrap_err().0,
            ErrorCode::BadRequest
        );
        let mut r = demo_request();
        r.resume_from = Some(4); // == cells: nothing left to stream, but legal
        assert_eq!(JobSpec::from_request(&r, &red).unwrap().resume_from, 4);
    }

    #[test]
    fn cell_keys_are_distinct_and_job_scoped() {
        let red = MachineConfig::reduced();
        let job = JobSpec::from_request(&demo_request(), &red).unwrap();
        let keys = job.cell_keys();
        assert_eq!(keys.len(), job.cells.len());
        let mut uniq = keys.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), keys.len(), "cell keys are distinct");
        let mut r = demo_request();
        r.target_dyn = Some(4_000);
        let other = JobSpec::from_request(&r, &red).unwrap();
        assert_ne!(keys[0], other.cell_keys()[0], "keys are job-scoped");
    }
}
