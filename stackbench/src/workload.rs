//! The four workloads: which clip, which transport, what load shape and
//! which daemon flags. `BENCHMARK.json` and the README say why each
//! exists.

use slj_runtime::Parallelism;

/// How jobs reach the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `POST /v1/jobs` through the gateway (one `OPEN_CLIP` per job).
    Http,
    /// `slj_daemon::Client::open_clip` + `await_result`: the same
    /// `OPEN_CLIP`, sent straight to the daemon's socket.
    Wire,
}

/// When the generator sends the next job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// A fixed number of jobs in flight; each completion frees the slot
    /// for the next submission.
    Closed {
        /// Jobs in flight.
        in_flight: usize,
    },
    /// Seeded arrivals with exponential gaps at `rate` jobs per
    /// second, sent on schedule whether or not earlier jobs have
    /// finished.
    Open {
        /// Arrivals per second.
        rate: f64,
    },
}

/// Which synthetic clip the jobs carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClipKind {
    /// 320×240×20, default (noisy) scene: a 4.6 MB job body.
    Full,
    /// 160×120×20, clean scene: a 1.15 MB job body.
    Compact,
}

impl ClipKind {
    /// The name used in records and tables.
    pub fn name(self) -> &'static str {
        match self {
            ClipKind::Full => "full",
            ClipKind::Compact => "compact",
        }
    }
}

/// One workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// How jobs travel.
    pub transport: Transport,
    /// The load shape.
    pub load: Load,
    /// The clip kind.
    pub clip: ClipKind,
    /// Extra `slj daemon` flags.
    pub daemon_args: &'static [&'static str],
    /// Latency limit for goodput, ms.
    pub limit_ms: f64,
}

/// Most connections (and generator threads) the load may use, so the
/// generator never takes more than the two cores the servers run on.
pub const MAX_CONNS: usize = 2;

/// Completed jobs a measured window must reach, so that at least ten
/// samples lie beyond the reported p90.
pub const MIN_JOBS: usize = 100;

/// The workloads, in the order the default command runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "http_full_c1",
        transport: Transport::Http,
        load: Load::Closed { in_flight: 1 },
        clip: ClipKind::Full,
        daemon_args: &[],
        limit_ms: 400.0,
    },
    Workload {
        name: "http_full_c8",
        transport: Transport::Http,
        load: Load::Closed { in_flight: 8 },
        clip: ClipKind::Full,
        daemon_args: &["--threads", "2", "--max-sessions", "16"],
        limit_ms: 1500.0,
    },
    Workload {
        name: "http_compact_open",
        transport: Transport::Http,
        load: Load::Open { rate: 6.0 },
        clip: ClipKind::Compact,
        daemon_args: &[],
        limit_ms: 500.0,
    },
    Workload {
        name: "wire_clip_c1",
        transport: Transport::Wire,
        load: Load::Closed { in_flight: 1 },
        clip: ClipKind::Full,
        daemon_args: &[],
        limit_ms: 400.0,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Jobs in flight: a closed loop's own count; an open loop's bursts
    /// count as [`MAX_CONNS`].
    pub fn sessions(&self) -> usize {
        match self.load {
            Load::Closed { in_flight } => in_flight,
            Load::Open { .. } => MAX_CONNS,
        }
    }

    /// The concurrency the traced run replays socket layers at: the
    /// workload's own, capped by the connection budget.
    pub fn replay_concurrency(&self) -> usize {
        self.sessions().min(MAX_CONNS)
    }

    /// The `DaemonConfig` the spawned `slj daemon` builds from
    /// [`Workload::daemon_args`], resolved the way the CLI resolves
    /// them (no `--threads` means `auto`).
    pub fn daemon_config(&self) -> slj_daemon::DaemonConfig {
        let mut config = slj_daemon::DaemonConfig::default();
        config.serve.parallelism = Parallelism::Auto;
        for pair in self.daemon_args.chunks(2) {
            match pair {
                ["--threads", n] => {
                    config.serve.parallelism = n.parse().expect("workload --threads value")
                }
                ["--max-sessions", n] => {
                    config.serve.max_sessions = n.parse().expect("workload --max-sessions value")
                }
                other => panic!("workload daemon flag {other:?} has no replay mapping"),
            }
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_fit_the_connection_budget_and_daemon_flags_map() {
        for w in &WORKLOADS {
            assert!(w.replay_concurrency() <= MAX_CONNS);
            assert!(
                w.sessions() <= w.daemon_config().serve.max_sessions,
                "{}",
                w.name
            );
        }
        let c8 = find("http_full_c8").unwrap().daemon_config();
        assert_eq!(c8.serve.parallelism, Parallelism::Fixed(2));
        assert_eq!(c8.serve.max_sessions, 16);
        assert!(find("nope").is_none());
    }
}
