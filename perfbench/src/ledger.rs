//! The traced run: the per-layer ledger.
//!
//! Every traced run measures every per-layer metric:
//!
//! * the **stack peel** — the uncontended lock pair through ever thicker
//!   public entry points, whose self times must add up to the measured
//!   uncontended pair;
//! * the **close-out ledger** — 1-thread and 2-thread checker runs around a
//!   single-thread replay of the same BFS, timed per level chunk and layer;
//! * a **traced contended run** — the wait-loop layers work only under
//!   contention, so the lock counts always come from it;
//! * the **named workload's traced run**, next to an untraced run of the
//!   same length for the trace overhead (for `closeout`, the replay
//!   against the 1-thread checker).
//!
//! The async-session, Park-waker and executor counts come only from the
//! `echo` workload's run and read 0 for every other workload.  Spans come
//! only from the benchmark's own calls into each layer; nothing inside the
//! program is instrumented.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::closeout::{self, Pins};
use crate::common::Check;
use crate::echo::{self, WORKERS};
use crate::locks::{self, LockCounts, CONTENDED_THREADS};
use crate::spans::{self, SpanLog};
use crate::Workload;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("core.registers.write_ns", "ns"),
    ("core.snapshot.scan_ns", "ns"),
    ("core.bakery_pp.doorway_ns", "ns"),
    ("core.bakery_pp.acquire_release_ns", "ns"),
    ("core.raw.slot_lock_ns", "ns"),
    ("core.session.lock_ns", "ns"),
    ("core.asession.lock_poll_ns", "ns"),
    ("core.session.attach_detach_ns", "ns"),
    ("core.wait.park_notify_ns", "ns"),
    ("harness.executor.task_ns", "ns"),
    ("core.bakery_pp.fast_path_ratio", "ratio"),
    ("core.bakery_pp.doorway_waits_per_cs", "waits/cs"),
    ("core.bakery_pp.l1_waits_per_cs", "waits/cs"),
    ("core.bakery_pp.resets_per_cs", "resets/cs"),
    ("core.bakery_pp.overflow_attempts", "count"),
    ("core.bakery_pp.max_ticket", "ticket"),
    ("core.session.lock_wait_frac", "ratio"),
    ("core.asession.lock_polls_per_echo", "polls/echo"),
    ("core.asession.attach_polls_per_session", "polls/session"),
    ("core.session.first_poll_attach_ratio", "ratio"),
    ("core.wait.notifies_per_session", "notifies/session"),
    ("core.wait.parks", "count"),
    ("core.wait.park_timeouts", "count"),
    ("harness.executor.poll_busy_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("spec.bakery_pp.successors_ns", "ns"),
    ("mc.code.decode_ns", "ns"),
    ("mc.code.encode_ns", "ns"),
    ("mc.canon.factor_ns", "ns"),
    ("mc.store.intern_ns", "ns"),
    ("sim.invariant.check_ns", "ns"),
    ("mc.explore.engine_s", "s"),
    ("mc.explore.parallel_efficiency", "ratio"),
    ("mc.explore.dup_ratio", "ratio"),
    ("mc.store.collisions", "count"),
    ("mc.code.bytes_per_state", "B"),
    ("mc.explore.states_per_s", "1/s"),
];

/// Time spent on each stack-peel row (and on the reference pair).
const PEEL_ROW: Duration = Duration::from_millis(250);
/// How far the peel's top row may sit from the measured pair (share of it).
/// The pair's per-sample distribution has two modes about a quarter apart
/// (the VM's fast and slow phases); its p50 sits in either, while the
/// batch-timed rows average over both.
const PEEL_TOLERANCE: f64 = 1.0 / 3.0;

/// The traced run's results.
pub struct Ledger {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
    pub spans: Vec<SpanLog>,
}

fn lock_rows(values: &mut BTreeMap<&'static str, f64>, counts: &LockCounts) {
    values.insert("core.bakery_pp.fast_path_ratio", counts.fast_path_ratio);
    values.insert(
        "core.bakery_pp.doorway_waits_per_cs",
        counts.doorway_waits_per_cs,
    );
    values.insert("core.bakery_pp.l1_waits_per_cs", counts.l1_waits_per_cs);
    values.insert("core.bakery_pp.resets_per_cs", counts.resets_per_cs);
    values.insert(
        "core.bakery_pp.overflow_attempts",
        counts.overflow_attempts as f64,
    );
    values.insert("core.bakery_pp.max_ticket", counts.max_ticket as f64);
}

/// `1 - traced ÷ untraced` throughput: what recording spans costs.
fn overhead(traced_ops_per_s: f64, untraced_ops_per_s: f64) -> f64 {
    1.0 - traced_ops_per_s / untraced_ops_per_s
}

/// Runs the traced ledger for `workload`; each workload section runs
/// `section` long.
#[must_use]
pub fn traced(workload: Workload, seed: u64, section: Duration, pins: &Pins) -> Ledger {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut checks = Vec::new();
    let mut notes = Vec::new();
    let mut spans = Vec::new();

    // Stack peel, checked against the measured uncontended pair.
    let peel = locks::stack_peel(PEEL_ROW);
    let row = |name: &str| {
        peel.rows
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ns)| *ns)
    };
    let self_times = [
        ("registers.write", row("core.registers.write_ns")),
        ("snapshot.scan", row("core.snapshot.scan_ns")),
        (
            "doorway (fences, L1 guard, stats, notifies)",
            row("core.bakery_pp.doorway_ns")
                - row("core.registers.write_ns")
                - row("core.snapshot.scan_ns"),
        ),
        (
            "acquire (wait-token set-up, fast-path check)",
            row("core.bakery_pp.acquire_release_ns") - row("core.bakery_pp.doorway_ns"),
        ),
        (
            "slot guard (slot check, cs stats, guard)",
            row("core.raw.slot_lock_ns") - row("core.bakery_pp.acquire_release_ns"),
        ),
        (
            "session (seat-word CAS, lease stamps)",
            row("core.session.lock_ns") - row("core.raw.slot_lock_ns"),
        ),
    ];
    let self_sum: f64 = self_times.iter().map(|(_, ns)| ns).sum();
    let (pair_ns, timing_ns) = (peel.pair_ns, peel.timing_ns);
    notes.push(format!(
        "stack peel self times (ns): {}",
        self_times
            .iter()
            .map(|(name, ns)| format!("{name} {ns:.1}"))
            .collect::<Vec<_>>()
            .join("; ")
    ));
    checks.push(Check::new(
        "peel_self_times_sum_to_pair",
        (self_sum - pair_ns).abs() <= PEEL_TOLERANCE * pair_ns,
        format!(
            "self times sum {self_sum:.1} ns vs measured pair p50 {pair_ns:.1} ns \
             ({timing_ns:.1} ns of per-sample timing removed)"
        ),
    ));
    checks.extend(peel.checks);
    values.extend(peel.rows);

    // Close-out ledger.
    let close = closeout::ledger(pins);
    values.extend(close.metrics.iter().map(|&(name, value, _)| (name, value)));
    checks.extend(close.checks);
    notes.extend(close.notes);
    spans.push(close.spans);

    // The wait-loop layers work only under contention, so every ledger
    // takes the lock counts from a traced contended run.
    let contended = locks::contended_run(true, seed, section);
    lock_rows(&mut values, &contended.counts);
    values.insert(
        "core.session.lock_wait_frac",
        contended.inside_lock.as_secs_f64()
            / (CONTENDED_THREADS as f64 * contended.elapsed.as_secs_f64()),
    );
    let contended_ops_per_s = contended.ops_per_s();
    checks.extend(contended.checks);
    spans.extend(contended.spans);

    // The named workload's own traced run, against an untraced one.
    let trace_overhead = match workload {
        Workload::Uncontended => {
            let untraced = locks::uncontended_run(false, section);
            let traced = locks::uncontended_run(true, section);
            checks.push(Check::equal(
                "uncontended_always_fast_path",
                1.0,
                traced.counts.fast_path_ratio,
            ));
            let cost = overhead(traced.ops_per_s(), untraced.ops_per_s());
            checks.extend(untraced.checks);
            checks.extend(traced.checks);
            spans.extend(traced.spans);
            cost
        }
        Workload::Contended => {
            let untraced = locks::contended_run(false, seed, section);
            let cost = overhead(contended_ops_per_s, untraced.ops_per_s());
            checks.extend(untraced.checks);
            cost
        }
        Workload::Echo => {
            let untraced = echo::echo_run(false, seed, section);
            let traced = echo::echo_run(true, seed, section);
            let sessions = traced.sessions.max(1) as f64;
            values.insert(
                "core.asession.lock_polls_per_echo",
                traced.lock_polls as f64 / traced.echoes.max(1) as f64,
            );
            values.insert(
                "core.asession.attach_polls_per_session",
                traced.attach_polls as f64 / sessions,
            );
            values.insert(
                "core.session.first_poll_attach_ratio",
                traced.first_poll_attaches as f64 / sessions,
            );
            values.insert(
                "core.wait.notifies_per_session",
                traced.notifies as f64 / sessions,
            );
            values.insert("core.wait.parks", traced.parks as f64);
            values.insert("core.wait.park_timeouts", traced.park_timeouts as f64);
            values.insert(
                "harness.executor.poll_busy_frac",
                traced.poll_busy.as_secs_f64() / (WORKERS as f64 * traced.elapsed.as_secs_f64()),
            );
            let cost = overhead(traced.sessions_per_s(), untraced.sessions_per_s());
            checks.extend(untraced.checks);
            checks.extend(traced.checks);
            spans.extend(traced.spans);
            cost
        }
        Workload::Closeout => close.replay_overhead,
    };
    values.insert("trace.overhead_frac", trace_overhead);

    let totals = spans::self_times(&spans);
    notes.push(format!(
        "spans kept {} (dropped {}); self time by span (count, total ms, self ms): {}",
        spans.iter().map(SpanLog::len).sum::<usize>(),
        spans.iter().map(SpanLog::dropped).sum::<u64>(),
        totals
            .iter()
            .map(|(name, (count, total, own))| {
                format!(
                    "{name} {count} {:.1} {:.1}",
                    *total as f64 / 1e6,
                    *own as f64 / 1e6
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    ));
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ledger {
        metrics,
        checks,
        notes,
        spans,
    }
}
