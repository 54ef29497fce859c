//! Shared execution-layer configuration for the workspace.
//!
//! Two stages fan work out over threads, each over independent units:
//! the session manager (whole sessions, `ServeConfig.parallelism`) and
//! the eval matrix (clip cells, `MatrixConfig.parallelism`). Both take
//! their thread count from one [`Parallelism`] value, set by the CLI's
//! `--threads` on `serve`, `daemon` and `eval`. One analysis never fans
//! out: frame k's GA is seeded by frame k−1's estimate, so segmentation
//! and tracking run in frame order on the caller's thread.
//!
//! Parallelism is a *throughput* setting, never a *semantics* setting:
//! both fan-outs are required (and tested) to produce bit-identical
//! output to a serial run, so any value here is safe for
//! reproducibility.

#![deny(clippy::undocumented_unsafe_blocks)]

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

pub mod backoff;
pub mod pool;

pub use backoff::{Backoff, BackoffConfig};
pub use pool::{ClaimOrder, WorkerPool};

/// The number of hardware threads actually available to this process,
/// via [`std::thread::available_parallelism`] (1 when the runtime
/// cannot report a count).
///
/// This is the oversubscription cap: [`Parallelism::Auto`] resolves to
/// exactly this value, and benchmark drivers clamp requested fixed
/// counts to it (`requested.min(available_threads())`) — more workers
/// than cores only adds scheduler churn to CPU-bound stages.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// How many worker threads a stage may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Parallelism {
    /// One thread, no worker fan-out (the pre-parallel behaviour).
    #[default]
    Serial,
    /// Exactly this many threads (values of 0 and 1 behave as
    /// [`Parallelism::Serial`]).
    Fixed(usize),
    /// One thread per available hardware core, via
    /// [`std::thread::available_parallelism`] (falls back to serial
    /// when the runtime cannot report a count).
    Auto,
}

impl Parallelism {
    /// The resolved worker-thread count, always at least 1.
    pub fn threads(&self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Fixed(n) => (*n).max(1),
            Parallelism::Auto => available_threads(),
        }
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Serial => f.write_str("serial"),
            Parallelism::Fixed(n) => write!(f, "{n}"),
            Parallelism::Auto => f.write_str("auto"),
        }
    }
}

/// Error from parsing a `--threads`-style spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseParallelismError(String);

impl fmt::Display for ParseParallelismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid thread count '{}': expected a positive integer, 'serial' or 'auto'",
            self.0
        )
    }
}

impl std::error::Error for ParseParallelismError {}

impl FromStr for Parallelism {
    type Err = ParseParallelismError;

    /// Parses the CLI spellings: `auto`, `serial`, or a positive
    /// integer (where `1` means serial).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "auto" => Ok(Parallelism::Auto),
            "serial" => Ok(Parallelism::Serial),
            raw => match raw.parse::<usize>() {
                Ok(0) | Err(_) => Err(ParseParallelismError(raw.to_owned())),
                Ok(1) => Ok(Parallelism::Serial),
                Ok(n) => Ok(Parallelism::Fixed(n)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_fixed_resolve() {
        assert_eq!(Parallelism::Serial.threads(), 1);
        assert_eq!(Parallelism::Fixed(0).threads(), 1);
        assert_eq!(Parallelism::Fixed(1).threads(), 1);
        assert_eq!(Parallelism::Fixed(4).threads(), 4);
    }

    #[test]
    fn auto_resolves_to_at_least_one() {
        assert!(Parallelism::Auto.threads() >= 1);
    }

    #[test]
    fn auto_is_capped_at_available_hardware() {
        // Auto must never oversubscribe: it resolves to exactly the
        // hardware thread count the runtime reports.
        assert_eq!(Parallelism::Auto.threads(), available_threads());
        assert!(available_threads() >= 1);
    }

    #[test]
    fn parses_cli_spellings() {
        assert_eq!("auto".parse(), Ok(Parallelism::Auto));
        assert_eq!("serial".parse(), Ok(Parallelism::Serial));
        assert_eq!("1".parse(), Ok(Parallelism::Serial));
        assert_eq!(" 4 ".parse(), Ok(Parallelism::Fixed(4)));
        assert!("0".parse::<Parallelism>().is_err());
        assert!("-2".parse::<Parallelism>().is_err());
        assert!("fast".parse::<Parallelism>().is_err());
        assert!("".parse::<Parallelism>().is_err());
    }

    #[test]
    fn display_round_trips() {
        for p in [
            Parallelism::Serial,
            Parallelism::Fixed(8),
            Parallelism::Auto,
        ] {
            assert_eq!(
                p.to_string().parse::<Parallelism>().unwrap().threads(),
                p.threads()
            );
        }
    }

    #[test]
    fn serde_round_trips() {
        for p in [
            Parallelism::Serial,
            Parallelism::Fixed(4),
            Parallelism::Auto,
        ] {
            let json = serde_json::to_string(&p).unwrap();
            let back: Parallelism = serde_json::from_str(&json).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn default_is_serial() {
        assert_eq!(Parallelism::default(), Parallelism::Serial);
    }
}
