//! The load generators. Each runs in the benchmark process on at most
//! [`MAX_CONNS`](crate::workload::MAX_CONNS) threads holding at most
//! that many connections, and checks every report it receives against
//! the clip's reference bytes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use slj_daemon::{Addr, Client, ClientError, ClientOptions};

use crate::clips::Clip;
use crate::http;

/// The poller fetches each outstanding job at most this often.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// A job still unfinished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// One completed, byte-identical job.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// Submit (closed loop) or scheduled arrival (open loop) to report
    /// bytes received, ms.
    pub latency_ms: f64,
    /// Submit to admission, ms: the gateway's `202`, or the daemon's
    /// `OPENED`; either comes once the clip is decoded and admitted.
    pub admit_ms: f64,
    /// `GET /v1/jobs/{id}` requests the job took (0 on the wire).
    pub polls: u32,
    /// The servers' resident set when the report arrived, MB.
    pub rss_mb: f64,
}

/// Reads the servers' resident set, MB; called as each report arrives.
pub type RssProbe<'a> = &'a (dyn Fn() -> f64 + Sync);

/// Every job the generator attempted, by outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs whose report matched the reference byte for byte.
    pub succeeded: usize,
    /// Submissions the service refused (`429`/`503`, wire `REJECTED`).
    pub refused: usize,
    /// Transport errors, failed sessions and timeouts.
    pub errored: usize,
    /// Reports that differed from the reference.
    pub mismatched: usize,
}

impl Tally {
    /// Refused, errored and mismatched jobs.
    pub fn failed(&self) -> usize {
        self.refused + self.errored + self.mismatched
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.refused += other.refused;
        self.errored += other.errored;
        self.mismatched += other.mismatched;
    }

    fn report(&mut self, clip: &Clip, got: &[u8]) -> bool {
        if got == clip.reference.as_bytes() {
            self.succeeded += 1;
            true
        } else {
            self.mismatched += 1;
            eprintln!(
                "perf_stack: report for clip seed {} differs from the in-process reference",
                clip.seed
            );
            false
        }
    }
}

/// What one generator pass measured.
#[derive(Debug, Clone, Default)]
pub struct LoadResult {
    /// The byte-identical jobs.
    pub jobs: Vec<JobRecord>,
    /// Every attempt by outcome.
    pub tally: Tally,
    /// First submission to last completion, seconds.
    pub window_s: f64,
    /// How late each submission went out, ms: behind its scheduled
    /// arrival (open loop), or behind the completion that freed its
    /// slot (closed loop).
    pub lags_ms: Vec<f64>,
}

/// When a pass stops submitting: once `seconds` have passed *and*
/// `min_jobs` jobs were admitted.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Minimum measured time, seconds.
    pub seconds: f64,
    /// Minimum admitted jobs.
    pub min_jobs: usize,
}

impl Stop {
    fn reached(&self, start: Instant, admitted: usize) -> bool {
        admitted >= self.min_jobs && start.elapsed().as_secs_f64() >= self.seconds
    }

    /// Attempts after which a pass gives up even if jobs keep failing,
    /// so a refusing service ends the run instead of spinning.
    fn attempt_cap(&self) -> usize {
        self.min_jobs * 4 + 100
    }
}

/// HTTP load shape.
#[derive(Debug, Clone)]
pub enum Pace {
    /// This many jobs in flight.
    Closed(usize),
    /// Submit at these offsets from the window start, seconds.
    Open(Vec<f64>),
}

struct Pending {
    job: u64,
    clip: usize,
    /// Latency origin: submit start, or the scheduled arrival.
    origin: Instant,
    admit_ms: f64,
    next_poll: Instant,
    polls: u32,
}

#[derive(Default)]
struct HttpState {
    outstanding: Vec<Pending>,
    submitting: bool,
    result: LoadResult,
    /// When the last completion freed a closed-loop slot.
    freed_at: Option<Instant>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Drives jobs through the gateway at `hostport`: the calling thread
/// submits, one more thread polls. Job `i` carries clip
/// `(offset + i) % len`. Failures are tallied, not returned.
pub fn run_http(
    hostport: &str,
    clips: &[Clip],
    offset: usize,
    pace: &Pace,
    stop: Stop,
    rss: RssProbe<'_>,
) -> LoadResult {
    let state = Mutex::new(HttpState {
        submitting: true,
        ..HttpState::default()
    });
    let wake = Condvar::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| poll_loop(hostport, clips, &state, &wake, rss));
        submit_loop(hostport, clips, offset, pace, stop, start, &state, &wake);
        state.lock().expect("generator state").submitting = false;
        wake.notify_all();
    });
    let mut result = std::mem::take(&mut state.lock().expect("generator state").result);
    result.window_s = start.elapsed().as_secs_f64();
    result
}

#[allow(clippy::too_many_arguments)]
fn submit_loop(
    hostport: &str,
    clips: &[Clip],
    offset: usize,
    pace: &Pace,
    stop: Stop,
    start: Instant,
    state: &Mutex<HttpState>,
    wake: &Condvar,
) {
    let mut admitted = 0;
    for i in 0.. {
        let (origin, lag) = match pace {
            Pace::Closed(in_flight) => {
                let mut st = state.lock().expect("generator state");
                while st.outstanding.len() >= *in_flight {
                    st = wake.wait(st).expect("generator state");
                }
                if stop.reached(start, admitted) || st.result.tally.attempted >= stop.attempt_cap()
                {
                    return;
                }
                let now = Instant::now();
                (now, st.freed_at.map_or(0.0, |t| ms(now - t)))
            }
            Pace::Open(arrivals) => {
                let Some(&at) = arrivals.get(i) else {
                    return;
                };
                let due = start + Duration::from_secs_f64(at);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                (due, ms(Instant::now().saturating_duration_since(due)))
            }
        };
        let clip = (offset + i) % clips.len();
        let sent = Instant::now();
        let reply = http::exchange(hostport, &clips[clip].http_request);
        let admit_ms = ms(sent.elapsed());
        let mut st = state.lock().expect("generator state");
        st.result.tally.attempted += 1;
        st.result.lags_ms.push(lag);
        match reply {
            Ok(r) if r.status == 202 => match http::job_id(&r.body) {
                Some(job) => {
                    admitted += 1;
                    st.outstanding.push(Pending {
                        job,
                        clip,
                        origin,
                        admit_ms,
                        next_poll: Instant::now() + POLL_INTERVAL,
                        polls: 0,
                    });
                    wake.notify_all();
                }
                None => st.result.tally.errored += 1,
            },
            Ok(r) if r.status == 429 || r.status == 503 => st.result.tally.refused += 1,
            Ok(r) => {
                eprintln!(
                    "perf_stack: submit answered {}: {}",
                    r.status,
                    String::from_utf8_lossy(&r.body).trim_end()
                );
                st.result.tally.errored += 1;
            }
            Err(e) => {
                eprintln!("perf_stack: submit failed: {e}");
                st.result.tally.errored += 1;
            }
        }
    }
}

fn poll_loop(
    hostport: &str,
    clips: &[Clip],
    state: &Mutex<HttpState>,
    wake: &Condvar,
    rss: RssProbe<'_>,
) {
    loop {
        let (job, due) = {
            let mut st = state.lock().expect("generator state");
            loop {
                if let Some(next) = st.outstanding.iter().min_by_key(|p| p.next_poll) {
                    break (next.job, next.next_poll);
                }
                if !st.submitting {
                    return;
                }
                st = wake.wait(st).expect("generator state");
            }
        };
        let now = Instant::now();
        if due > now {
            // A job submitted meanwhile is due no sooner than this one.
            std::thread::sleep(due - now);
        }
        let asked = Instant::now();
        let reply = http::exchange(
            hostport,
            &http::bare_request("GET", &format!("/v1/jobs/{job}")),
        );
        let rss_mb = match &reply {
            Ok(r) if r.status == 200 => rss(),
            _ => 0.0,
        };
        let mut st = state.lock().expect("generator state");
        let index = st
            .outstanding
            .iter()
            .position(|p| p.job == job)
            .expect("only the poller removes outstanding jobs");
        st.outstanding[index].polls += 1;
        let pending = &mut st.outstanding[index];
        let timed_out = pending.origin.elapsed() > JOB_TIMEOUT;
        match reply {
            Ok(r) if r.status == 202 && !timed_out => {
                pending.next_poll = asked + POLL_INTERVAL;
                continue;
            }
            Ok(r) if r.status == 200 => {
                let p = st.outstanding.swap_remove(index);
                let record = JobRecord {
                    latency_ms: ms(p.origin.elapsed()),
                    admit_ms: p.admit_ms,
                    polls: p.polls,
                    rss_mb,
                };
                if st.result.tally.report(&clips[p.clip], &r.body) {
                    st.result.jobs.push(record);
                }
            }
            other => {
                match other {
                    Ok(r) => eprintln!(
                        "perf_stack: job {job} answered {}{}",
                        r.status,
                        if timed_out {
                            " past the job timeout"
                        } else {
                            ""
                        }
                    ),
                    Err(e) => eprintln!("perf_stack: polling job {job} failed: {e}"),
                }
                st.outstanding.swap_remove(index);
                st.result.tally.errored += 1;
            }
        }
        st.freed_at = Some(Instant::now());
        wake.notify_all();
    }
}

/// Drives `OPEN_CLIP` jobs straight at the daemon: `clients` threads
/// (the calling thread is one), each with its own connection. Job `i`
/// carries clip `(offset + i) % len`.
///
/// # Errors
///
/// A client that cannot connect before the window opens.
pub fn run_wire(
    addr: &Addr,
    clips: &[Clip],
    offset: usize,
    clients: usize,
    stop: Stop,
    rss: RssProbe<'_>,
) -> Result<LoadResult, String> {
    let mut connections = Vec::with_capacity(clients);
    for _ in 0..clients {
        connections.push(
            Client::connect(addr, ClientOptions::default())
                .map_err(|e| format!("connect {addr}: {e}"))?,
        );
    }
    let claimed = AtomicUsize::new(0);
    let result = Mutex::new(LoadResult::default());
    let barrier = Barrier::new(clients);
    let start = Mutex::new(None::<Instant>);
    std::thread::scope(|scope| {
        let worker = |mut client: Client| {
            if barrier.wait().is_leader() {
                *start.lock().expect("window start") = Some(Instant::now());
            }
            barrier.wait();
            let start = start
                .lock()
                .expect("window start")
                .expect("set by the leader");
            let mut last_done = Instant::now();
            loop {
                let i = claimed.fetch_add(1, Ordering::SeqCst);
                if stop.reached(start, i) || i >= stop.attempt_cap() {
                    return;
                }
                let clip = &clips[(offset + i) % clips.len()];
                // The payload copy is the caller's cost, not the daemon's.
                let ppm = clip.ppm.clone();
                let began = Instant::now();
                let lag = ms(began - last_done);
                let outcome = client.open_clip(&clip.request, ppm).and_then(|session| {
                    let admit_ms = ms(began.elapsed());
                    Ok((admit_ms, client.await_result(session)?.summary_json))
                });
                last_done = Instant::now();
                let rss_mb = if outcome.is_ok() { rss() } else { 0.0 };
                let mut r = result.lock().expect("generator result");
                r.tally.attempted += 1;
                r.lags_ms.push(lag);
                match outcome {
                    Ok((admit_ms, summary)) => {
                        if r.tally.report(clip, summary.as_bytes()) {
                            r.jobs.push(JobRecord {
                                latency_ms: ms(last_done - began),
                                admit_ms,
                                polls: 0,
                                rss_mb,
                            });
                        }
                    }
                    Err(ClientError::Rejected { reason }) => {
                        eprintln!("perf_stack: daemon refused a job: {reason}");
                        r.tally.refused += 1;
                    }
                    Err(e) => {
                        eprintln!("perf_stack: wire job failed: {e}");
                        r.tally.errored += 1;
                        drop(r);
                        match Client::connect(addr, ClientOptions::default()) {
                            Ok(fresh) => client = fresh,
                            Err(_) => return,
                        }
                    }
                }
            }
        };
        let mut connections = connections.into_iter();
        let own = connections.next().expect("at least one client");
        for client in connections {
            scope.spawn(move || worker(client));
        }
        worker(own);
    });
    let mut result = result.into_inner().expect("generator result");
    let start = start
        .into_inner()
        .expect("window start")
        .expect("window opened");
    result.window_s = start.elapsed().as_secs_f64();
    Ok(result)
}
