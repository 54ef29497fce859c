//! One workload run, untraced (end-to-end metrics) or traced
//! (per-layer metrics).

use std::path::Path;
use std::time::Instant;

use slj_daemon::{Client, ClientOptions};

use crate::clips::{clip_info, clip_set, Clip};
use crate::layers::{measure_leaves, serve_replay, REPS};
use crate::load::{run_http, run_wire, LoadResult, Pace, Stop, Tally};
use crate::procs::Servers;
use crate::report::RunReport;
use crate::schedule::exponential_arrivals;
use crate::stats::{check_tail, mean, median, percentile, sorted};
use crate::workload::{Load, Transport, Workload, MIN_JOBS};

/// Server start-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Poll interval while waiting for a set-up job's report, ms.
const SETUP_POLL_MS: u64 = 10;

/// Shares of `--seconds` the traced run spends on its untraced
/// baseline pass and on the alternating traced rounds.
const TRACE_BASE_SHARE: f64 = 0.3;
const TRACE_ROUNDS_SHARE: f64 = 0.5;

/// Minimum jobs per socket layer in the traced run.
const TRACE_MIN_JOBS: usize = 10;

fn p50(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

fn latencies(r: &LoadResult) -> Vec<f64> {
    r.jobs.iter().map(|j| j.latency_ms).collect()
}

fn admits(r: &LoadResult) -> Vec<f64> {
    r.jobs.iter().map(|j| j.admit_ms).collect()
}

/// Submits clip 0 once and waits for its report: the cold job that
/// ends a server start-up.
fn cold_job(servers: &Servers, clip: &Clip, tally: &mut Tally) -> Result<(), String> {
    tally.attempted += 1;
    let summary = match &servers.gateway_hostport {
        Some(hostport) => {
            let reply = crate::http::exchange(hostport, &clip.http_request)?;
            let job = match (reply.status, crate::http::job_id(&reply.body)) {
                (202, Some(job)) => job,
                (status, _) => {
                    tally.refused += 1;
                    return Err(format!("cold job refused with {status}"));
                }
            };
            let get = crate::http::bare_request("GET", &format!("/v1/jobs/{job}"));
            loop {
                std::thread::sleep(std::time::Duration::from_millis(SETUP_POLL_MS));
                let reply = crate::http::exchange(hostport, &get)?;
                match reply.status {
                    202 => continue,
                    200 => break reply.body,
                    other => {
                        tally.errored += 1;
                        return Err(format!("cold job answered {other}"));
                    }
                }
            }
        }
        None => {
            let mut client = Client::connect(&servers.daemon_addr, ClientOptions::default())
                .map_err(|e| e.to_string())?;
            client
                .analyze_clip_ppm(&clip.request, clip.ppm.clone())
                .map_err(|e| {
                    tally.errored += 1;
                    e.to_string()
                })?
                .summary_json
                .into_bytes()
        }
    };
    if summary == clip.reference.as_bytes() {
        tally.succeeded += 1;
        Ok(())
    } else {
        tally.mismatched += 1;
        Err(format!(
            "cold report for clip seed {} differs from the in-process reference",
            clip.seed
        ))
    }
}

/// The open-loop schedule: `rate × seconds` arrivals, at least
/// [`MIN_JOBS`].
fn open_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let count = ((rate * seconds).round() as usize).max(MIN_JOBS);
    exponential_arrivals(seed, rate, count)
}

/// The untraced run: `setup_s` from [`SETUPS`] start-ups, then the
/// workload's load for `seconds`, on the last start-up's servers.
///
/// # Errors
///
/// Servers that do not start, a failed set-up job, or too few samples
/// for the reported tail percentile.
pub fn untraced(w: &Workload, seed: u64, seconds: f64, slj: &Path) -> Result<RunReport, String> {
    let clips = clip_set(w.clip, seed)?;
    let mut report = RunReport::new(w.name, seed, false, clip_info(w.clip, &clips));
    let with_gateway = w.transport == Transport::Http;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut servers = None;
    for _ in 0..SETUPS {
        // The previous start-up's servers are stopped (killed) first.
        drop(servers.take());
        let began = Instant::now();
        let started = Servers::start(slj, w.daemon_args, with_gateway)?;
        cold_job(&started, &clips[0], &mut report.tally)?;
        setup_s.push(began.elapsed().as_secs_f64());
        servers = Some(started);
    }
    let servers = servers.expect("at least one start-up");

    let stop = Stop {
        seconds,
        min_jobs: MIN_JOBS,
    };
    let rss = &|| servers.rss_mb().unwrap_or(f64::NAN);
    let cpu_before = servers.cpu_ms()?;
    let result = match (w.transport, w.load) {
        (Transport::Http, load) => {
            let pace = match load {
                Load::Closed { in_flight } => Pace::Closed(in_flight),
                Load::Open { rate } => Pace::Open(open_schedule(seed, rate, seconds)),
            };
            let hostport = servers
                .gateway_hostport
                .as_deref()
                .expect("gateway started");
            run_http(hostport, &clips, 0, &pace, stop, rss)
        }
        (Transport::Wire, Load::Closed { in_flight }) => {
            run_wire(&servers.daemon_addr, &clips, 0, in_flight, stop, rss)?
        }
        (Transport::Wire, Load::Open { .. }) => {
            return Err("open-loop wire workloads are not supported".to_owned())
        }
    };
    let cpu_ms = servers.cpu_ms()? - cpu_before;
    servers.drain()?;
    report.tally.absorb(&result.tally);

    let done = result.jobs.len();
    let lat = sorted(&latencies(&result));
    check_tail("job latency", done, 90.0)?;
    let good = lat.iter().filter(|&&l| l <= w.limit_ms).count();
    report.push("setup_s", median(&setup_s), "s", setup_s.len());
    report.push("jobs_per_s", done as f64 / result.window_s, "jobs/s", done);
    report.push("job_latency_p50_ms", percentile(&lat, 50.0), "ms", done);
    report.push("job_latency_p90_ms", percentile(&lat, 90.0), "ms", done);
    report.push(
        "goodput_jobs_per_s",
        good as f64 / result.window_s,
        "jobs/s",
        done,
    );
    report.push("server_cpu_ms_per_job", cpu_ms / done as f64, "ms", done);
    let rss_mb: Vec<f64> = result.jobs.iter().map(|j| j.rss_mb).collect();
    report.push("server_rss_mb", median(&rss_mb), "MB", done);
    eprintln!(
        "perf_stack: {}: window {:.1} s, admission p50 {:.2} ms, generator lag p90 {:.2} ms, \
         {:.2} polls/job",
        w.name,
        result.window_s,
        p50(&admits(&result)),
        percentile(&sorted(&result.lags_ms), 90.0),
        mean(
            &result
                .jobs
                .iter()
                .map(|j| f64::from(j.polls))
                .collect::<Vec<_>>()
        )
    );
    Ok(report)
}

/// The traced run: every layer measured from outside on the workload's
/// clips, self times by subtraction at equal concurrency.
///
/// # Errors
///
/// As [`untraced`], plus any failing layer call.
pub fn traced(w: &Workload, seed: u64, seconds: f64, slj: &Path) -> Result<RunReport, String> {
    let clips = clip_set(w.clip, seed)?;
    let mut report = RunReport::new(w.name, seed, true, clip_info(w.clip, &clips));
    let c = w.replay_concurrency();
    let sessions = w.sessions();
    let config = w.daemon_config().serve;

    let leaves = measure_leaves(&clips, &mut report.tally)?;
    // Manager replays: at the workload's full session count for the
    // queueing picture, and at the socket replays' concurrency for the
    // self-time subtraction.
    let full = serve_replay(
        config,
        &clips,
        sessions,
        REPS.max(sessions * 2),
        &mut report.tally,
    )?;
    let at_c = if c == sessions {
        full.clone()
    } else {
        serve_replay(config, &clips, c, REPS, &mut report.tally)?
    };

    let servers = Servers::start(slj, w.daemon_args, true)?;
    cold_job(&servers, &clips[0], &mut report.tally)?;
    let hostport = servers
        .gateway_hostport
        .clone()
        .expect("traced runs always start a gateway");
    let closed = Pace::Closed(c);
    // The untraced baseline at the traced rounds' concurrency.
    let unsampled = &|| 0.0;
    let base = run_http(
        &hostport,
        &clips,
        0,
        &closed,
        Stop {
            seconds: seconds * TRACE_BASE_SHARE,
            min_jobs: TRACE_MIN_JOBS,
        },
        unsampled,
    );
    report.tally.absorb(&base.tally);
    // Traced rounds: `c` daemon jobs, then `c` gateway jobs, repeated,
    // so both layers are timed against the same server state.
    let mut daemon = LoadResult::default();
    let mut gateway = LoadResult::default();
    let rounds_began = Instant::now();
    let batch = Stop {
        seconds: 0.0,
        min_jobs: c,
    };
    let mut offset = 0;
    while rounds_began.elapsed().as_secs_f64() < seconds * TRACE_ROUNDS_SHARE
        || daemon.jobs.len() < TRACE_MIN_JOBS
        || gateway.jobs.len() < TRACE_MIN_JOBS
    {
        let d = run_wire(&servers.daemon_addr, &clips, offset, c, batch, unsampled)?;
        let g = run_http(&hostport, &clips, offset, &closed, batch, unsampled);
        offset += c;
        for (into, from) in [(&mut daemon, d), (&mut gateway, g)] {
            into.tally.absorb(&from.tally);
            into.jobs.extend(from.jobs);
        }
        if offset > 50 * TRACE_MIN_JOBS.max(c) {
            return Err("traced rounds are not completing jobs".to_owned());
        }
    }
    report.tally.absorb(&daemon.tally);
    report.tally.absorb(&gateway.tally);
    let drained = servers.drain()?;

    let gateway_job = p50(&latencies(&gateway));
    let daemon_job = p50(&latencies(&daemon));
    let serve_job = p50(&at_c.job_ms);
    let base_job = p50(&latencies(&base));
    let (gn, dn) = (gateway.jobs.len(), daemon.jobs.len());
    let fs = leaves.frame_samples;
    let m = &mut report;
    m.push("gateway.job_ms_p50", gateway_job, "ms", gn);
    m.push("gateway.admit_ms_p50", p50(&admits(&gateway)), "ms", gn);
    m.push(
        "gateway.self_ms_p50",
        gateway_job - daemon_job,
        "ms",
        gn.min(dn),
    );
    m.push("gateway.parse_ms", leaves.http_parse, "ms", REPS);
    let polls: Vec<f64> = gateway.jobs.iter().map(|j| f64::from(j.polls)).collect();
    m.push("gateway.polls_per_job", mean(&polls), "polls/job", gn);
    m.push(
        "gateway.refused",
        gateway.tally.refused as f64,
        "count",
        gateway.tally.attempted,
    );
    m.push("daemon.job_ms_p50", daemon_job, "ms", dn);
    m.push("daemon.admit_ms_p50", p50(&admits(&daemon)), "ms", dn);
    m.push(
        "daemon.self_ms_p50",
        daemon_job - serve_job,
        "ms",
        dn.min(at_c.job_ms.len()),
    );
    m.push(
        "daemon.ticks_per_job",
        drained.ticks as f64 / drained.sessions_finished.max(1) as f64,
        "ticks/job",
        drained.sessions_finished as usize,
    );
    m.push("daemon.encode_ms", leaves.wire_encode, "ms", REPS);
    m.push("daemon.decode_ms", leaves.wire_decode, "ms", REPS);
    m.push("video.ppm_decode_ms", leaves.ppm_decode, "ms", REPS);
    m.push("serve.job_ms_p50", serve_job, "ms", at_c.job_ms.len());
    m.push(
        "serve.self_ms_p50",
        serve_job - leaves.slj_job,
        "ms",
        at_c.job_ms.len(),
    );
    let ticks = sorted(&full.tick_ms);
    m.push(
        "serve.tick_ms_p50",
        percentile(&ticks, 50.0),
        "ms",
        ticks.len(),
    );
    m.push(
        "serve.tick_ms_p99",
        percentile(&ticks, 99.0),
        "ms",
        ticks.len(),
    );
    let depths: Vec<f64> = full.depths.iter().map(|&d| d as f64).collect();
    m.push(
        "serve.queue_depth_mean",
        mean(&depths),
        "frames",
        depths.len(),
    );
    m.push(
        "serve.sheds",
        full.sheds as f64 / full.job_ms.len() as f64,
        "1/job",
        full.job_ms.len(),
    );
    m.push("slj.job_ms", leaves.slj_job, "ms", REPS);
    m.push("slj.go_live_ms", leaves.slj_go_live, "ms", REPS);
    m.push("slj.frame_ms_p50", leaves.slj_frame_p50, "ms", fs);
    m.push("slj.finish_ms", leaves.slj_finish, "ms", REPS);
    m.push(
        "segment.background_ms",
        leaves.segment_background,
        "ms",
        REPS,
    );
    m.push(
        "segment.frame_ms_p50",
        leaves.segment_frame_p50,
        "ms",
        REPS * leaves.frames,
    );
    m.push("ga.track_ms", leaves.ga_track, "ms", REPS);
    m.push(
        "ga.evals_per_frame",
        leaves.ga_evals_per_frame,
        "evals/frame",
        REPS * leaves.frames,
    );
    m.push(
        "ga.unique_ratio",
        leaves.ga_unique_ratio,
        "ratio",
        REPS * leaves.frames,
    );
    m.push(
        "ga.prune_ratio",
        leaves.ga_prune_ratio,
        "ratio",
        REPS * leaves.frames,
    );
    m.push("score.ms", leaves.score, "ms", REPS);
    m.push("obs.render_ms", leaves.obs_render, "ms", REPS);
    m.push(
        "bench.unattributed_ms",
        gateway_job - leaves.job_sum(),
        "ms",
        gn,
    );
    m.push(
        "bench.gen_lag_p90_ms",
        percentile(&sorted(&base.lags_ms), 90.0),
        "ms",
        base.lags_ms.len(),
    );
    m.push(
        "bench.trace_overhead_pct",
        100.0 * (gateway_job - base_job) / base_job,
        "%",
        gn.min(base.jobs.len()),
    );
    Ok(report)
}
