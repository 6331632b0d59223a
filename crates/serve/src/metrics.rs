//! The Prometheus `/metrics` listener and the serve-side metric names.
//!
//! `mg-serve` exposes the process-global telemetry registry
//! ([`mg_obs::telemetry`]) over a deliberately tiny HTTP/1.0 responder:
//! `GET /metrics` returns the registry rendered in Prometheus text
//! exposition format (version 0.0.4). The same numbers are available
//! in-protocol through the `Stats` verb — both views read the same
//! registry, so they agree up to scrape timing.
//!
//! This module also owns the serve-side metric *names*, so the server,
//! the loadtest, and the integration tests can never drift apart on
//! spelling.

use crate::protocol::{reply_line, ErrorCode, Reply};
use mg_obs::telemetry;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Connections accepted over the server's lifetime.
pub const CONNECTIONS: &str = "mg_serve_connections_total";
/// Requests answered with `Accepted` (admitted toward a job).
pub const ACCEPTS: &str = "mg_serve_accepts_total";
/// Job executions that ran to completion (each may serve many
/// coalesced/replayed requests).
pub const JOBS_COMPLETED: &str = "mg_serve_jobs_completed_total";
/// Requests that registered on the result store.
pub const JOBS_SUBMITTED: &str = "mg_serve_jobs_submitted_total";
/// Requests that joined an in-flight execution instead of running.
pub const JOBS_COALESCED: &str = "mg_serve_jobs_coalesced_total";
/// Requests replayed from a finished entry without queueing at all.
pub const JOBS_REPLAYED: &str = "mg_serve_jobs_replayed_total";
/// `Done` replies streamed to clients (one per served request).
pub const DONE_REPLIES: &str = "mg_serve_done_replies_total";
/// `Done` replies with the dedup flag set (coalesced or replayed).
pub const DEDUP_REPLIES: &str = "mg_serve_dedup_replies_total";
/// Cell rows committed by workers (one per cell execution, not per
/// subscriber).
pub const ROWS_COMMITTED: &str = "mg_serve_rows_committed_total";
/// Jobs admitted to the queue and not yet claimed by a worker.
pub const QUEUE_DEPTH: &str = "mg_serve_queue_depth";
/// Time jobs spent queued before a worker claimed them (microseconds).
pub const QUEUE_WAIT_US: &str = "mg_serve_queue_wait_us";
/// End-to-end job latency: admission to `Done` (microseconds).
pub const JOB_US: &str = "mg_serve_job_us";
/// Total worker time spent running jobs (microseconds); divide by
/// wall time × [`WORKERS`] for utilization.
pub const WORKER_BUSY_US: &str = "mg_serve_worker_busy_us_total";
/// Size of the worker pool.
pub const WORKERS: &str = "mg_serve_workers";
/// Cells served from the crash-recovery journal instead of re-running.
pub const CELLS_RECOVERED: &str = "mg_serve_cells_recovered_total";
/// Jobs that recovered at least one cell from the journal.
pub const JOBS_RECOVERED: &str = "mg_serve_jobs_recovered_total";
/// Jobs dropped at claim time because they out-sat their deadline.
pub const DEADLINE_DROPS: &str = "mg_serve_deadline_drops_total";
/// Jobs refused by admission control (also counted under the
/// `Overloaded` reject code; this name exists for cheap dashboards).
pub const SHED_JOBS: &str = "mg_serve_shed_jobs_total";
/// Client-side: reconnects performed by resilient sessions. Lives in
/// whatever process runs the [`crate::client::Session`] (the loadtest's
/// in-process runs land it in the same registry as the server's
/// numbers; a remote client keeps its own registry).
pub const CLIENT_RECONNECTS: &str = "mg_serve_client_reconnects_total";
/// Client-side: transient rejects a resilient session absorbed by
/// backing off and resubmitting.
pub const CLIENT_RETRIED_REJECTS: &str = "mg_serve_client_retried_rejects_total";

/// The labeled counter name for one typed rejection reason.
pub fn reject_counter(code: ErrorCode) -> String {
    format!("mg_serve_rejects_total{{code=\"{code:?}\"}}")
}

/// Sum of every `mg_serve_rejects_total{code=...}` series in a
/// snapshot — the total `Rejected` replies sent.
pub fn total_rejects(snapshot: &mg_obs::TelemetrySnapshot) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("mg_serve_rejects_total{"))
        .map(|(_, &v)| v)
        .sum()
}

/// Renders a `Rejected` reply line, counting it under the code's
/// labeled reject counter. Every rejection the server sends goes
/// through here, so the counters equal the replies on the wire.
pub fn rejected_line(
    id: String,
    code: ErrorCode,
    detail: String,
    retry_after_ms: Option<u64>,
) -> String {
    // The name varies by code, so this must take the registry lookup
    // rather than `tele_counter!` (whose per-call-site cache would pin
    // the first code ever seen here). Rejections are rare and already
    // off the hot path.
    telemetry::counter(&reject_counter(code)).inc();
    reply_line(Reply::Rejected {
        id,
        code,
        detail,
        retry_after_ms,
    })
}

/// Renders a `Done` reply line, counting it (and its dedup flag).
pub fn done_line(id: String, cells: u64, dedup: bool) -> String {
    mg_obs::tele_counter!(DONE_REPLIES).inc();
    if dedup {
        mg_obs::tele_counter!(DEDUP_REPLIES).inc();
    }
    reply_line(Reply::Done { id, cells, dedup })
}

/// How often the accept loop re-checks the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// A bound, not-yet-serving `/metrics` listener.
pub struct MetricsServer {
    listener: TcpListener,
    local_addr: SocketAddr,
}

impl MetricsServer {
    /// Binds the metrics socket; nothing is served until
    /// [`MetricsServer::run`].
    pub fn bind(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        Ok(MetricsServer {
            listener,
            local_addr,
        })
    }

    /// The bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves scrapes until [`mg_bench::request_shutdown`]. Each
    /// connection gets one response and is closed (HTTP/1.0 style) —
    /// scrapers reconnect per scrape, which keeps the listener a
    /// single thread with no connection bookkeeping.
    pub fn run(self) {
        while !mg_bench::shutdown_requested() {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    // Scrape failures close the connection (the stream
                    // drops here) and are logged rather than swallowed:
                    // a socket that refuses its timeouts must not be
                    // served, or a stalled scraper wedges this thread.
                    if let Err(e) = serve_scrape(stream) {
                        mg_obs::mg_debug!("metrics scrape from {peer} failed: {e}");
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(_) => std::thread::sleep(POLL),
            }
        }
    }

    /// Spawns the listener on a named background thread.
    pub fn spawn(self) -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name("mg-serve-metrics".to_string())
            .spawn(move || self.run())
            .expect("spawn metrics thread")
    }
}

/// Answers one scrape: `GET /metrics` with the rendered registry, 404
/// for any other path, 400 for lines that are not HTTP requests.
fn serve_scrape(stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers until the blank line so the peer's send completes.
    let mut header = String::new();
    while reader.read_line(&mut header)? > 2 {
        header.clear();
    }
    let mut out = stream;
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = match (method, path) {
        ("GET", "/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            telemetry::snapshot().to_prometheus(),
        ),
        ("GET", _) => ("404 Not Found", "text/plain", "try /metrics\n".to_string()),
        _ => ("400 Bad Request", "text/plain", "not HTTP\n".to_string()),
    };
    write!(
        out,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_counter_names_are_stable() {
        assert_eq!(
            reject_counter(ErrorCode::QueueFull),
            "mg_serve_rejects_total{code=\"QueueFull\"}"
        );
    }

    #[test]
    fn total_rejects_sums_only_reject_series() {
        let mut snap = mg_obs::TelemetrySnapshot::default();
        snap.counters
            .insert(reject_counter(ErrorCode::Malformed), 2);
        snap.counters
            .insert(reject_counter(ErrorCode::QueueFull), 3);
        snap.counters.insert(ACCEPTS.to_string(), 99);
        assert_eq!(total_rejects(&snap), 5);
    }
}
