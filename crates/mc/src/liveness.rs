//! Starvation-cycle search: the liveness side of the paper's Section 6.3.
//!
//! The paper argues that a process can in principle be parked forever at
//! Bakery++'s `L1` guard: two fast processes keep driving the ticket values up
//! to `M`, reset, and climb again, while an "incredibly slow" process never
//! observes a legitimate situation.  In model-checking terms that scenario is
//! a **cycle in the reachable state graph in which the victim satisfies some
//! "still waiting" predicate throughout and only the other processes move** —
//! reachable under an unfair scheduler, impossible to escape without a
//! fairness assumption.
//!
//! [`starvation_report`] searches for exactly that witness under an
//! arbitrary predicate and returns a [`LivenessReport`] that also says
//! whether the underlying graph construction **covered the whole reachable
//! state space or hit its budget**: a "no cycle" answer from a truncated
//! graph is evidence, not a proof, and the experiment tables (E5) print it
//! as a "bounded" verdict rather than an exhaustive one.
//!
//! Finding a witness does not contradict the paper — Bakery itself already
//! lacks a liveness guarantee, as Section 6.3 notes.  The interesting
//! contrast (experiment **E5**) is *which* waiting positions are protected: a
//! Bakery/Bakery++ process that has **completed its doorway** can never be
//! overtaken forever (FCFS), whereas a process parked at `L1` before
//! announcing itself can be.
//!
//! The reachable-graph phase stores packed [`crate::code::StateCode`]s in a
//! flat arena (the same compact plane the BFS explorer uses) instead of full
//! `ProgState` structs, so the budget can be raised substantially before
//! memory becomes the limit.  No symmetry reduction is applied here: the
//! waiting predicate pins a concrete victim, which process relabelling would
//! not preserve.
//!
//! The graph construction can run with several worker threads: each BFS
//! level is expanded in parallel (decode + successor enumeration + encode
//! are the dominant cost and are pure), then the per-head results are
//! **merged in head order** by one thread.  The merge replays exactly the
//! insertion sequence of the sequential loop, so arena ids, depths, edges,
//! the truncation point and therefore the DFS witness are bit-identical for
//! every thread count.

use std::sync::Mutex;

use bakery_core::sync::{AtomicUsize, Ordering};
use bakery_sim::{Algorithm, ProgState};

use crate::code::{StateCode, StateCodec};
use crate::store::{CodeArena, CodeIndex};

/// A starvation witness: a reachable cycle during which the victim process
/// satisfies the waiting predicate and never takes a step.
#[derive(Debug, Clone)]
pub struct StarvationWitness {
    /// The starved process.
    pub victim: usize,
    /// BFS depth of the state where the cycle was entered.
    pub prefix_length: usize,
    /// Renderings of the states on the cycle.
    pub cycle: Vec<String>,
}

impl StarvationWitness {
    /// Number of states on the cycle.
    #[must_use]
    pub fn cycle_length(&self) -> usize {
        self.cycle.len()
    }
}

/// Outcome of a starvation-cycle search, including whether the search was
/// exhaustive: a liveness claim from a truncated graph must not be reported
/// as a proof.
#[derive(Debug, Clone)]
pub struct LivenessReport {
    /// The victim process the predicate pinned.
    pub victim: usize,
    /// States in the explored (possibly truncated) reachable graph.
    pub states: usize,
    /// True when the graph construction stopped at its state budget; a
    /// `witness == None` result is then *bounded evidence*, not a proof of
    /// starvation freedom.
    pub truncated: bool,
    /// The starvation cycle, when one exists in the explored graph.
    pub witness: Option<StarvationWitness>,
}

impl LivenessReport {
    /// True when the search proves no starvation cycle exists: none found
    /// *and* the whole (finite) state space was covered.
    #[must_use]
    pub fn proves_starvation_freedom(&self) -> bool {
        self.witness.is_none() && !self.truncated
    }

    /// Human-readable verdict for experiment tables: distinguishes an
    /// exhaustive "no cycle" proof from a budget-bounded one.
    #[must_use]
    pub fn verdict(&self) -> &'static str {
        match (&self.witness, self.truncated) {
            (Some(_), _) => "cycle found",
            (None, false) => "no cycle (exhaustive)",
            (None, true) => "no cycle (bounded)",
        }
    }
}

/// Searches the reachable graph (at most `max_states` states) for a cycle
/// in which process `victim` satisfies `waiting` throughout while only other
/// processes take steps.  `|alg, s| alg.is_trying(s, victim)` asks about the
/// whole trying region ([`Algorithm::is_trying`]).
///
/// `threads` workers expand the reachable-graph phase (clamped to ≥ 1; `1`
/// runs inline without spawning).  Each BFS level is expanded in parallel
/// and merged in head order, which replays the sequential insertion
/// sequence exactly: the report — states, truncation, witness cycle — is
/// **bit-identical for every thread count**, including budget-truncated
/// runs.  The cycle-search DFS itself stays sequential; the graph
/// construction dominates the wall time.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn starvation_report<A, F>(
    algorithm: &A,
    victim: usize,
    max_states: usize,
    threads: usize,
    waiting: F,
) -> LivenessReport
where
    A: Algorithm + ?Sized,
    F: Fn(&A, &ProgState) -> bool + Sync,
{
    let threads = threads.max(1);
    let n = algorithm.processes();
    assert!(victim < n, "victim {victim} out of range");
    let codec = StateCodec::new(algorithm);

    // Phase 1: build the reachable graph (bounded), remembering depth.
    // States live in the packed arena; decode on demand.
    let mut arena = CodeArena::new(codec.words_per_state());
    let mut index = CodeIndex::new();
    let mut depth: Vec<u32> = Vec::new();
    let mut edges: Vec<Vec<(u32, u32)>> = Vec::new(); // (pid, target)
    // Filled while the state is decoded for expansion anyway.  A state left
    // unexpanded by truncation stays ineligible, which cannot change the
    // answer: it also has no outgoing edges, so it can never lie on a cycle.
    let mut eligible: Vec<bool> = Vec::new();

    let decode = |arena: &CodeArena, i: usize| {
        let mut words = Vec::with_capacity(arena.stride());
        arena.load(i, &mut words);
        codec.decode_words(&words)
    };

    let initial_code = codec.encode(&algorithm.initial_state());
    index.get_or_insert(&initial_code, 0, &arena);
    arena.push(&initial_code);
    depth.push(0);
    edges.push(Vec::new());
    eligible.push(false);

    // One expanded head: its index, its waiting flag, and its outgoing
    // (pid, successor code) steps in enumeration order.
    type HeadOut = (usize, bool, Vec<(u32, StateCode)>);

    let mut truncated = false;
    let mut level_start = 0usize;
    'bfs: while level_start < arena.len() {
        let level_end = arena.len();

        // Expand every head of the level.  Decoding, successor enumeration,
        // the waiting predicate and re-encoding are pure, so this part runs
        // on the workers; the arena is immutable for the duration.
        let expand = |i: usize| -> HeadOut {
            let state = decode(&arena, i);
            let is_waiting = waiting(algorithm, &state);
            let mut steps = Vec::new();
            let mut successors = Vec::new();
            for pid in 0..n {
                successors.clear();
                algorithm.successors(&state, pid, &mut successors);
                for next in successors.drain(..) {
                    steps.push((pid as u32, codec.encode(&next)));
                }
            }
            (i, is_waiting, steps)
        };
        let mut outs: Vec<HeadOut> = Vec::with_capacity(level_end - level_start);
        if threads == 1 {
            outs.extend((level_start..level_end).map(expand));
        } else {
            let cursor = AtomicUsize::new(level_start);
            let collected: Mutex<Vec<Vec<HeadOut>>> = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed); // mem: explorer-frontier
                            if i >= level_end {
                                break;
                            }
                            local.push(expand(i));
                        }
                        collected
                            .lock()
                            .expect("liveness worker buffer poisoned")
                            .push(local);
                    });
                }
            });
            for buf in collected.into_inner().expect("liveness worker buffer poisoned") {
                outs.extend(buf);
            }
            // Head order makes the merge below replay the sequential loop.
            outs.sort_unstable_by_key(|&(i, _, _)| i);
        }

        // Merge in head order: identical insertion sequence — and identical
        // truncation point — to the single-threaded walk.  Heads past the
        // truncation point stay unexpanded (no edges, not eligible), exactly
        // as if the sequential loop had stopped before them.
        for (current, is_waiting, steps) in outs {
            if arena.len() >= max_states {
                truncated = true;
                break 'bfs;
            }
            eligible[current] = is_waiting;
            for (pid, code) in steps {
                let candidate = arena.len() as u32;
                let (target, inserted) = index.get_or_insert(&code, candidate, &arena);
                if inserted {
                    arena.push(&code);
                    depth.push(depth[current] + 1);
                    edges.push(Vec::new());
                    eligible.push(false);
                }
                edges[current].push((pid, target));
            }
        }
        level_start = level_end;
    }

    // Phase 2: restrict to states where the victim is waiting and to edges
    // taken by other processes, then look for a cycle with an iterative DFS.

    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color = vec![Color::White; arena.len()];
    let registers = algorithm.registers();

    let mut witness = None;
    'search: for start in 0..arena.len() {
        if !eligible[start] || color[start] != Color::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = Color::Grey;
        let mut path: Vec<usize> = vec![start];
        while let Some(&mut (node, ref mut edge_idx)) = stack.last_mut() {
            // Resume the node's raw edge list at the cursor, skipping the
            // victim's own moves and moves that leave the waiting states.
            let next = edges[node][*edge_idx..]
                .iter()
                .position(|&(pid, target)| pid as usize != victim && eligible[target as usize]);
            if let Some(skipped) = next {
                let target = edges[node][*edge_idx + skipped].1 as usize;
                *edge_idx += skipped + 1;
                match color[target] {
                    Color::Grey => {
                        // Found a cycle: extract it from the current DFS path.
                        let cycle_start = path.iter().position(|&s| s == target).unwrap_or(0);
                        let cycle: Vec<String> = path[cycle_start..]
                            .iter()
                            .map(|&s| decode(&arena, s).render(&registers))
                            .collect();
                        witness = Some(StarvationWitness {
                            victim,
                            prefix_length: depth[target] as usize,
                            cycle,
                        });
                        break 'search;
                    }
                    Color::White => {
                        color[target] = Color::Grey;
                        stack.push((target, 0));
                        path.push(target);
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                stack.pop();
                path.pop();
            }
        }
    }

    LivenessReport {
        victim,
        states: arena.len(),
        truncated,
        witness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bakery_spec::{pc, BakeryPlusPlusSpec, BakerySpec, PetersonSpec};

    #[test]
    fn bakery_pp_slow_process_can_be_starved_at_l1() {
        // The §6.3 scenario: two fast processes (0 and 1) can keep the slow
        // process 2 parked at L1 forever under an unfair scheduler.
        let spec = BakeryPlusPlusSpec::new(3, 2);
        let report = starvation_report(&spec, 2, 150_000, 1, |_, state| state.pc(2) == pc::L1_SCAN);
        assert_eq!(report.verdict(), "cycle found");
        assert!(!report.proves_starvation_freedom());
        let witness = report
            .witness
            .expect("a starvation cycle at L1 should exist for M = 2");
        assert_eq!(witness.victim, 2);
        assert!(witness.cycle_length() >= 2);

        // The exact witness is pinned: it depends on arena ids, so any change
        // in the spec's successor sets or successor push order moves it.
        // Along the cycle only process 0 moves (process 1 idles in its NCS,
        // the victim sits at L1); each entry is `(choosing[0], number[0],
        // pc and loop index j of process 0)`.  Every other register reads
        // zero, and every folded maximum and every other local is zero.
        assert_eq!(report.states, 75_102);
        assert_eq!(witness.prefix_length, 2);
        let expected: Vec<String> = [
            (0, 0, pc::L1_SCAN, 0),
            (0, 0, pc::L1_SCAN, 1),
            (0, 0, pc::L1_SCAN, 2),
            (0, 0, pc::L1_SCAN, 3),
            (0, 0, pc::SET_CHOOSING, 0),
            (1, 0, pc::COMPUTE_MAX, 0),
            (1, 0, pc::COMPUTE_MAX, 1),
            (1, 0, pc::COMPUTE_MAX, 2),
            (1, 0, pc::COMPUTE_MAX, 3),
            (1, 0, pc::WRITE_MAX, 3),
            (1, 0, pc::CHECK_BOUND, 3),
            (1, 0, pc::WRITE_TICKET, 3),
            (1, 1, pc::CLEAR_CHOOSING, 3),
            (0, 1, pc::SCAN_CHOOSING, 0),
            (0, 1, pc::SCAN_CHOOSING, 1),
            (0, 1, pc::SCAN_NUMBER, 1),
            (0, 1, pc::SCAN_CHOOSING, 2),
            (0, 1, pc::SCAN_NUMBER, 2),
            (0, 1, pc::SCAN_CHOOSING, 3),
            (0, 1, pc::CS, 3),
            (0, 0, pc::NCS, 3),
        ]
        .iter()
        .map(|(choosing, number, pc0, j)| {
            format!(
                "[choosing[0]={choosing} choosing[1]=0 choosing[2]=0 \
                 number[0]={number} number[1]=0 number[2]=0] \
                 [p0@{pc0}({j},0) p1@0(0,0) p2@1(0,0)]"
            )
        })
        .collect();
        assert_eq!(witness.cycle, expected);
    }

    #[test]
    fn any_trying_process_can_be_starved_by_an_unfair_scheduler() {
        // Even with a large bound, a process that has not yet announced itself
        // can be ignored forever — this is a property of unfair scheduling,
        // not of Bakery++ (Bakery behaves the same, §6.3).
        let spec = BakeryPlusPlusSpec::new(2, 10);
        let report = starvation_report(&spec, 1, 100_000, 1, |alg, s| alg.is_trying(s, 1));
        assert!(report.witness.is_some());
    }

    #[test]
    fn bakery_ticket_holder_is_never_starved() {
        // FCFS at work: once the victim holds a ticket (doorway completed),
        // the other process cannot complete rounds forever — it must wait for
        // the victim at L3, so no cycle exists in the restricted graph.
        //
        // The unbounded classic Bakery has an infinite state space, so this
        // is necessarily a *bounded* verdict: no cycle within the budget.
        let n = 2;
        let spec = BakerySpec::new(n, 1_000_000);
        let number_idx_victim = n + 1; // number[1]
        let report = starvation_report(&spec, 1, 120_000, 1, |alg, state| {
            alg.is_trying(state, 1) && state.read(number_idx_victim) != 0
        });
        assert!(
            report.witness.is_none(),
            "a Bakery ticket holder must not be starvable: {:?}",
            report.witness
        );
        assert!(report.truncated, "the unbounded ticket space cannot close");
        assert_eq!(report.verdict(), "no cycle (bounded)");
        assert!(!report.proves_starvation_freedom());
    }

    #[test]
    fn bakery_pp_ticket_holder_below_the_bound_is_never_starved() {
        // The same FCFS protection carries over to Bakery++ once the doorway
        // is complete, as long as the held ticket is below M (a ticket equal
        // to M parks *other* processes at L1 instead, which is the situation
        // the admission guard exists to resolve).  Bakery++'s bounded
        // registers make the state space finite, so this one is a proof.
        let n = 2;
        let bound = 4;
        let spec = BakeryPlusPlusSpec::new(n, bound);
        let number_idx_victim = n + 1; // number[1]
        let report = starvation_report(&spec, 1, 150_000, 1, |alg, state| {
            let ticket = state.read(number_idx_victim);
            alg.is_trying(state, 1)
                && ticket != 0
                && ticket < bound
                && state.pc(1) != pc::RESET_NUMBER
                && state.pc(1) != pc::WRITE_MAX
                && state.pc(1) != pc::CHECK_BOUND
        });
        assert!(
            report.witness.is_none(),
            "a Bakery++ ticket holder below M must not be starvable: {:?}",
            report.witness
        );
        assert!(!report.truncated, "Bakery++'s bounded space must close out");
        assert_eq!(report.verdict(), "no cycle (exhaustive)");
        assert!(report.proves_starvation_freedom());
    }

    #[test]
    fn peterson_waiter_with_flag_raised_is_never_starved() {
        // Peterson's algorithm is starvation-free once the flag is raised: the
        // other process hands over the turn on its next attempt.
        let spec = PetersonSpec::new();
        let report = starvation_report(&spec, 1, 50_000, 1, |alg, state| {
            alg.is_trying(state, 1) && state.read(1) == 1 // flag[1] == 1
        });
        assert!(report.proves_starvation_freedom(), "{:?}", report.witness);
    }

    #[test]
    fn liveness_search_is_thread_count_invariant() {
        // The ordered merge replays the sequential insertion sequence, so
        // the whole report — including the concrete witness cycle, which
        // depends on arena ids — must not change with the worker count,
        // for a complete graph and for a budget-truncated one.
        let spec = BakeryPlusPlusSpec::new(3, 2);
        let run = |threads: usize, budget: usize| {
            starvation_report(&spec, 2, budget, threads, |_, state| {
                state.pc(2) == pc::L1_SCAN
            })
        };
        for budget in [150_000, 4_000] {
            let seq = run(1, budget);
            for threads in [2, 4] {
                let par = run(threads, budget);
                assert_eq!(par.states, seq.states, "threads {threads} budget {budget}");
                assert_eq!(par.truncated, seq.truncated, "threads {threads} budget {budget}");
                assert_eq!(
                    par.witness.as_ref().map(|w| (w.prefix_length, w.cycle.clone())),
                    seq.witness.as_ref().map(|w| (w.prefix_length, w.cycle.clone())),
                    "threads {threads} budget {budget}: witness must be schedule-independent"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn victim_must_be_a_valid_process() {
        let spec = BakeryPlusPlusSpec::new(2, 2);
        let _ = starvation_report(&spec, 5, 1_000, 1, |alg, s| alg.is_trying(s, 5));
    }
}
