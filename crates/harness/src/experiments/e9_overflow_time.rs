//! **E9 — §4: time to overflow per register width.**
//!
//! The paper cites Aravind's observation that Bakery "may malfunction due to
//! integer overflow in a 32-bit processor in less than a minute".  The ticket
//! value only grows while the bakery is never empty, and it grows by at most
//! one per critical-section entry, so the overflow horizon is
//! `2^width / (entries per second)`.  This experiment measures the actual
//! entry rate of the real Bakery lock on this machine under sustained
//! two-thread contention and extrapolates the time to overflow for 8-, 16-,
//! 32- and 64-bit ticket registers — the shape that motivates Bakery++.

use std::sync::Arc;
use std::time::Duration;

use bakery_core::{BakeryLock, RawMutexAlgorithm};

use bakery_json::Value;

use crate::report::{num, Table};
use crate::workload::{run_workload, Workload};

/// Measured ticket growth rate of the classic Bakery under contention.
#[derive(Debug, Clone, Copy)]
pub struct GrowthRate {
    /// Critical-section entries per second (upper bound on ticket growth).
    pub entries_per_second: f64,
    /// Largest ticket actually observed during the measurement.
    pub max_ticket: u64,
    /// Wall-clock measurement duration.
    pub elapsed: Duration,
}

/// Measures the sustained critical-section entry rate of the classic Bakery
/// lock with `threads` contending threads.
#[must_use]
pub fn measure_growth_rate(threads: usize, iterations_per_thread: u64) -> GrowthRate {
    let lock = Arc::new(BakeryLock::new(threads));
    let workload = Workload {
        threads,
        iterations_per_thread,
        critical_section_work: 0,
        think_work: 0,
    };
    let result = run_workload(
        Arc::clone(&lock) as Arc<dyn RawMutexAlgorithm>,
        &workload,
    );
    GrowthRate {
        entries_per_second: result.throughput(),
        max_ticket: lock.stats().max_ticket(),
        elapsed: result.elapsed,
    }
}

/// Seconds until a register of `bits` bits overflows at `rate` tickets/second.
#[must_use]
pub fn seconds_to_overflow(bits: u32, rate: f64) -> f64 {
    if rate <= 0.0 {
        return f64::INFINITY;
    }
    let capacity = 2f64.powi(bits as i32);
    capacity / rate
}

/// Runs E9 and renders its tables.
#[must_use]
pub fn run(quick: bool) -> Vec<Table> {
    let iterations = if quick { 20_000 } else { 400_000 };
    let rate = measure_growth_rate(2, iterations);

    let mut measurement = Table::new(
        "E9a — measured Bakery ticket growth rate (2 threads, empty critical section)",
        &[
            "CS entries/s",
            "measurement duration (s)",
            "max ticket observed",
        ],
    );
    measurement.push_row(vec![
        num(rate.entries_per_second, 0),
        num(rate.elapsed.as_secs_f64(), 2),
        rate.max_ticket.into(),
    ]);

    let mut horizon = Table::new(
        "E9b — extrapolated worst-case time to overflow per register width",
        &[
            "register width (bits)",
            "capacity (2^bits)",
            "time to overflow (s)",
        ],
    );
    for bits in [8u32, 16, 32, 64] {
        let seconds = seconds_to_overflow(bits, rate.entries_per_second);
        horizon.push_row(vec![
            bits.into(),
            Value::Int(1i128 << bits),
            seconds.is_finite().then(|| num(seconds, 6)).into(),
        ]);
    }
    horizon.push_note(
        "The ticket grows by at most one per critical-section entry, and only while the bakery \
         never empties, so these are worst-case horizons.  The shape matches the paper's §4 \
         claim: 8/16-bit registers overflow in well under a minute, 32-bit registers within \
         minutes to hours on commodity hardware, and 64-bit registers effectively never (a \
         year is 3.16e7 s) — which is why embedded (8/16/32-bit) deployments need Bakery++.  \
         A dash means the measured rate was zero.",
    );

    vec![measurement, horizon]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_rate_is_positive() {
        let rate = measure_growth_rate(2, 5_000);
        assert!(rate.entries_per_second > 0.0);
        assert!(rate.elapsed > Duration::ZERO);
    }

    #[test]
    fn overflow_horizon_scales_with_width() {
        let rate = 1_000_000.0;
        let t8 = seconds_to_overflow(8, rate);
        let t16 = seconds_to_overflow(16, rate);
        let t32 = seconds_to_overflow(32, rate);
        let t64 = seconds_to_overflow(64, rate);
        assert!(t8 < t16 && t16 < t32 && t32 < t64);
        assert!(t8 < 0.01, "an 8-bit register dies instantly");
        assert!(t32 > 60.0, "2^32 at 1M/s is over an hour");
        assert_eq!(seconds_to_overflow(32, 0.0), f64::INFINITY);
    }

    #[test]
    fn tables_have_expected_rows() {
        let tables = run(true);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 1);
        assert_eq!(tables[0].headers.len(), 3);
        assert_eq!(tables[1].len(), 4);
    }
}
