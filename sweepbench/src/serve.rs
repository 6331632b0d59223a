//! The serve workload: an `mg-serve` daemon driven by a closed loop of
//! [`WORKERS`] client connections, and the in-process batch runs its
//! rows are checked against.

use crate::stats::hist_quantile;
use crate::sweep::{cell_key, CellKey, Task, WORKERS};
use mg_serve::metrics as m;
use mg_serve::{Client, JobSpec, Request};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A running daemon; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    addr: String,
    stdout: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Starts `bin` in `dir` with [`WORKERS`] workers and a journal
    /// under `dir`, and waits until it has printed its address.
    pub fn start(bin: &Path, dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .arg("--journal-dir")
            .arg(dir.join("journal"))
            .current_dir(dir)
            .env("MG_LOG", "warn")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = out.read_line(&mut line);
        // Drain the rest so the daemon never blocks or fails on a full
        // or closed pipe.
        let drain = std::thread::spawn(move || {
            let _ = out.read_to_end(&mut Vec::new());
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stdout: Some(drain),
        };
        match (read, line.trim().strip_prefix("mg-serve listening on ")) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr.to_string();
                Ok(daemon)
            }
            _ => Err(format!("daemon did not report its address: {line:?}")),
        }
    }

    /// The address it listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Its peak resident set (VmHWM) in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One request's outcome at the client.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index of the job in the pool.
    pub job: usize,
    /// Submit to `Done`, in ms.
    pub latency_ms: f64,
    /// Whether the `Done` carried the dedup flag.
    pub dedup: bool,
    /// Rows by cell index, or why the request failed.
    pub rows: Result<Vec<CellKey>, String>,
}

/// A pass over the request stream.
pub struct StreamPass {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// One sample per request, in stream order.
    pub samples: Vec<Sample>,
}

/// Sends `stream` (indices into `pool`) over [`WORKERS`] connections as
/// a closed loop: each connection sends its next request only after the
/// previous one is done.
pub fn run_stream(addr: &str, pool: &[Request], stream: &[usize], tag: &str) -> StreamPass {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Sample>>> = Mutex::new(vec![None; stream.len()]);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| {
                let mut client = Client::connect(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= stream.len() {
                        break;
                    }
                    let job = stream[i];
                    let mut req = pool[job].clone();
                    req.id = format!("{tag}-{i}");
                    let t = Instant::now();
                    let result = match client.as_mut() {
                        Ok(c) => c.run_job(&req),
                        Err(e) => Err(e.clone()),
                    };
                    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                    let (dedup, rows) = match result {
                        Ok(o) => match o.rejected {
                            Some((code, detail)) => (false, Err(format!("{code:?}: {detail}"))),
                            None => {
                                let mut rows = o.rows;
                                rows.sort_by_key(|(cell, _)| *cell);
                                let keys = rows.iter().map(|(_, r)| cell_key(r)).collect();
                                (o.dedup, Ok(keys))
                            }
                        },
                        Err(e) => (false, Err(e)),
                    };
                    out.lock().expect("sample lock")[i] = Some(Sample {
                        job,
                        latency_ms,
                        dedup,
                        rows,
                    });
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let samples = out
        .into_inner()
        .expect("sample lock")
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.unwrap_or_else(|| Sample {
                job: stream[i],
                latency_ms: 0.0,
                dedup: false,
                rows: Err("request never ran".to_string()),
            })
        })
        .collect();
    StreamPass { wall_s, samples }
}

/// Daemon-side counters read through the Stats verb.
#[derive(Clone, Debug, Default)]
pub struct DaemonStats {
    /// Requests registered on the result store.
    pub submitted: u64,
    /// Requests that joined an in-flight execution.
    pub coalesced: u64,
    /// Requests replayed from a finished entry.
    pub replayed: u64,
    /// Job executions completed.
    pub executed: u64,
    /// Queue-wait p99, in ms.
    pub queue_wait_p99_ms: f64,
    /// Rejected requests.
    pub rejects: u64,
}

/// Reads the daemon's counters over a fresh connection.
pub fn daemon_stats(addr: &str) -> Result<DaemonStats, String> {
    let mut client = Client::connect(addr)?;
    let s = client.stats("stats")?;
    let t = &s.telemetry;
    Ok(DaemonStats {
        submitted: t.counter(m::JOBS_SUBMITTED),
        coalesced: t.counter(m::JOBS_COALESCED),
        replayed: t.counter(m::JOBS_REPLAYED),
        executed: t.counter(m::JOBS_COMPLETED),
        queue_wait_p99_ms: t
            .hists
            .get(m::QUEUE_WAIT_US)
            .map_or(0.0, |h| hist_quantile(h, 0.99) / 1e3),
        rejects: m::total_rejects(t),
    })
}

impl DaemonStats {
    /// Counter deltas since `earlier` (the queue-wait p99 is the later
    /// reading's).
    pub fn since(&self, earlier: &DaemonStats) -> DaemonStats {
        DaemonStats {
            submitted: self.submitted - earlier.submitted,
            coalesced: self.coalesced - earlier.coalesced,
            replayed: self.replayed - earlier.replayed,
            executed: self.executed - earlier.executed,
            queue_wait_p99_ms: self.queue_wait_p99_ms,
            rejects: self.rejects - earlier.rejects,
        }
    }
}

/// One daemon lifetime: start, a cold pass, a warm pass (the same
/// stream again, now replayed), and its peak RSS.
pub struct Session {
    /// Spawn until the first connection's `Hello`, in seconds.
    pub setup_s: f64,
    /// The pass on a fresh daemon with an empty cache and journal.
    pub cold: StreamPass,
    /// The same stream again on the same daemon.
    pub warm: StreamPass,
    /// Counters of the cold pass.
    pub cold_stats: DaemonStats,
    /// Counters of the warm pass.
    pub warm_stats: DaemonStats,
    /// Daemon VmHWM, in MB.
    pub peak_rss_mb: f64,
}

/// Starts a daemon in `dir`, waits for its first `Hello`, and stops it;
/// returns the start-up time in seconds.
pub fn start_up(bin: &Path, dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let daemon = Daemon::start(bin, dir)?;
    drop(Client::connect(daemon.addr())?);
    let setup_s = t0.elapsed().as_secs_f64();
    drop(daemon);
    let _ = std::fs::remove_dir_all(dir);
    Ok(setup_s)
}

/// Runs one [`Session`] with the daemon working in `dir`.
pub fn session(
    bin: &Path,
    dir: &Path,
    pool: &[Request],
    stream: &[usize],
) -> Result<Session, String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let daemon = Daemon::start(bin, dir)?;
    drop(Client::connect(daemon.addr())?);
    let setup_s = t0.elapsed().as_secs_f64();
    let zero = daemon_stats(daemon.addr())?;
    let cold = run_stream(daemon.addr(), pool, stream, "cold");
    let after_cold = daemon_stats(daemon.addr())?;
    let warm = run_stream(daemon.addr(), pool, stream, "warm");
    let after_warm = daemon_stats(daemon.addr())?;
    let peak_rss_mb = daemon
        .peak_rss_mb()
        .ok_or("cannot read the daemon's VmHWM")?;
    drop(daemon);
    let _ = std::fs::remove_dir_all(dir);
    Ok(Session {
        setup_s,
        cold,
        warm,
        cold_stats: after_cold.since(&zero),
        warm_stats: after_warm.since(&after_cold),
        peak_rss_mb,
    })
}

/// The in-process batch run of every pool job, as the daemon would
/// build it ([`JobSpec::from_request`]), through [`mg_bench::SweepSpec`]
/// on the default training machine.
pub fn batch_tasks(pool: &[Request]) -> Result<Vec<Task>, String> {
    let train = mg_serve::ServeConfig::default().train_machine;
    pool.iter()
        .map(|req| {
            JobSpec::from_request(req, &train)
                .map(|job| Task {
                    spec: job.bench,
                    cells: job.cells,
                })
                .map_err(|(code, detail)| format!("{code:?}: {detail}"))
        })
        .collect()
}

/// The in-process batch run of a pool.
pub struct Batch {
    /// Rows per job, in pool order.
    pub rows: Vec<Vec<CellKey>>,
    /// Wall time of the whole run.
    pub wall_s: f64,
    /// Wall time of each job.
    pub task_s: Vec<f64>,
}

/// Runs every batch task through [`mg_bench::SweepSpec`] from scratch,
/// spread over [`WORKERS`] workers: the in-memory context cache is
/// emptied first and the disk cache is off, so the reference never
/// reuses artifacts of the passes it checks.
pub fn batch_rows(tasks: &[Task]) -> Batch {
    let train = mg_serve::ServeConfig::default().train_machine;
    mg_bench::cache::clear_memory();
    let t0 = Instant::now();
    let out = mg_bench::par_map(tasks, WORKERS, |_, t| {
        let t1 = Instant::now();
        let r = mg_bench::SweepSpec::new(&train)
            .bench(&t.spec)
            .cells(t.cells.clone())
            .jobs(1)
            .quiet(true)
            .disk_cache(false)
            .run();
        (
            crate::sweep::row_keys(&r.rows).remove(0),
            t1.elapsed().as_secs_f64(),
        )
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let (rows, task_s) = out.into_iter().unzip();
    Batch {
        rows,
        wall_s,
        task_s,
    }
}

/// Compares every served request's rows with its job's batch rows.
/// Returns the number of requests that failed or mismatched.
pub fn check_samples(samples: &[Sample], batch: &[Vec<CellKey>]) -> usize {
    samples
        .iter()
        .filter(|s| match &s.rows {
            Ok(rows) => rows != &batch[s.job],
            Err(_) => true,
        })
        .count()
}

/// A pool request for `bench` with `schemes` on reduced.
pub fn request(bench: &str, schemes: &[&str], target_dyn: Option<u64>) -> Request {
    Request {
        id: String::new(),
        bench: bench.to_string(),
        schemes: schemes.iter().map(|s| s.to_string()).collect(),
        machines: vec!["reduced".to_string()],
        target_dyn,
        deadline_ms: None,
        resume_from: None,
    }
}

/// SplitMix64: the benchmark's own seeded stream.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A skewed request stream of exactly `len` requests over `jobs` jobs:
/// popularity follows 1/rank over a seeded ranking, every job is asked
/// for at least once, and the order is a seeded shuffle. The multiset
/// of jobs per count is the same for every seed, so every seed
/// executes the same number of jobs.
pub fn skewed_stream(jobs: usize, len: usize, seed: u64) -> Vec<usize> {
    assert!(len >= jobs, "every job is requested at least once");
    let mut state = seed;
    let mut rank: Vec<usize> = (0..jobs).collect();
    shuffle(&mut rank, &mut state);
    let weights: Vec<f64> = (0..jobs).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let spare = len - jobs;
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|w| 1 + (spare as f64 * w / total) as usize)
        .collect();
    let mut left = len - counts.iter().sum::<usize>();
    for c in counts.iter_mut() {
        if left == 0 {
            break;
        }
        *c += 1;
        left -= 1;
    }
    let mut stream: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(r, &c)| std::iter::repeat_n(rank[r], c))
        .collect();
    shuffle(&mut stream, &mut state);
    stream
}

fn shuffle<T>(v: &mut [T], state: &mut u64) {
    for i in (1..v.len()).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Latencies (ms) of a pass's samples, optionally only those with the
/// given dedup flag.
pub fn latencies(samples: &[Sample], dedup: Option<bool>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.rows.is_ok() && dedup.is_none_or(|d| s.dedup == d))
        .map(|s| s.latency_ms)
        .collect()
}

/// A scratch directory for one daemon lifetime.
pub fn daemon_dir(work: &Path, n: usize) -> PathBuf {
    work.join(format!("serve-{n}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_stream_has_fixed_counts_and_seeded_order() {
        let a = skewed_stream(64, 1200, 1);
        let b = skewed_stream(64, 1200, 2);
        assert_eq!(a.len(), 1200);
        let counts = |s: &[usize]| {
            let mut c = vec![0usize; 64];
            for &j in s {
                c[j] += 1;
            }
            c.sort_unstable();
            c
        };
        assert!(counts(&a).iter().all(|&c| c >= 1));
        assert_eq!(counts(&a), counts(&b), "same popularity profile");
        assert_ne!(a, b, "seed changes the order");
        assert_eq!(a, skewed_stream(64, 1200, 1), "same seed, same stream");
        // Skewed: the most popular job gets far more than its share.
        assert!(*counts(&a).last().unwrap() > 1200 / 64 * 4);
    }

    #[test]
    fn vm_hwm_reads_this_process() {
        assert!(peak_rss_mb("/proc/self/status").unwrap() > 0.0);
        assert!(peak_rss_mb("/proc/self/no-such-file").is_none());
    }
}
