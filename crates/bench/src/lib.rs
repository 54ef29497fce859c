//! Shared harness for the experiment binaries that regenerate every
//! table and figure of the paper.
//!
//! Each binary under `src/bin/` reproduces one artefact (see DESIGN.md's
//! per-experiment index) and prints a markdown table; figure binaries
//! additionally write PPM/PGM panels under `target/figures/`. All
//! experiments are deterministic: they print their seeds.
//!
//! Run them with, e.g.:
//!
//! ```sh
//! cargo run --release -p slj-bench --bin fig1_background
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;

/// Prints an aligned markdown table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    println!("{}", fmt_row(&header_cells));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float with three decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a float with one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// The directory figure panels are written to.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, what: &str, seed: u64) {
    println!("== {id}: {what}");
    println!("   (deterministic; master seed {seed})\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_does_not_panic_and_aligns() {
        print_table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_panic() {
        print_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn float_formats() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
    }
}
