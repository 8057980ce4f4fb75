//! Global program states for step-machine algorithms.
//!
//! A [`ProgState`] is the complete instantaneous description of a run: the
//! contents of every shared register plus, for each process, its program
//! counter, its local variables and whether it is currently crashed.  States
//! are plain data — `Clone + Eq + Hash` — so the model checker can store and
//! deduplicate millions of them, and JSON-serialisable so counterexample
//! traces can be exported.
//!
//! Every part of a state is held inline, in an [`InlineVec`] of fixed
//! capacity: at most [`MAX_REGISTERS`] registers (and as many pending-write
//! cells), [`MAX_PROCESSES`] processes and [`MAX_LOCALS`] locals per
//! process.  Building, cloning or dropping a state therefore allocates
//! nothing, and a clone is one copy of [`size_of::<ProgState>()`]
//! bytes — which the model checker pays once per explored successor, so the
//! capacities are kept as small as the specifications allow.  They cover
//! every specification the repository builds: flat Bakery and Bakery++ up to
//! six processes, and the 4-process tree (12 registers, 4 processes, 2
//! locals).  A larger shape panics with a message that names the limit.
//!
//! [`size_of::<ProgState>()`]: std::mem::size_of

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut, RangeInclusive};

/// Most shared registers a [`ProgState`] holds (and, under
/// [`crate::RegisterSemantics::Safe`], pending-write cells).
pub const MAX_REGISTERS: usize = 12;
/// Most processes a [`ProgState`] holds.
pub const MAX_PROCESSES: usize = 6;
/// Most local variables one [`ProcState`] holds: the Bakery family's loop
/// index and folded maximum.
pub const MAX_LOCALS: usize = 2;

/// Panics unless a state of this shape fits a [`ProgState`]: at most
/// [`MAX_REGISTERS`] registers, [`MAX_PROCESSES`] processes and
/// [`MAX_LOCALS`] locals per process.  Specification constructors call it so
/// an oversized instance fails where it is built, not at its first state.
///
/// # Panics
/// Panics with `"a ProgState holds at most 12 registers (MAX_REGISTERS)"`
/// (likewise for processes and locals) naming the first limit exceeded.
pub fn assert_fits(registers: usize, processes: usize, locals: usize) {
    for (count, limit, what) in [
        (registers, MAX_REGISTERS, "registers (MAX_REGISTERS)"),
        (processes, MAX_PROCESSES, "processes (MAX_PROCESSES)"),
        (locals, MAX_LOCALS, "locals per process (MAX_LOCALS)"),
    ] {
        assert!(
            count <= limit,
            "a ProgState holds at most {limit} {what}; this shape needs {count}"
        );
    }
}

/// A vector of at most `N` `Copy` elements held inline: a length and a
/// fixed array, so copying one is a `memcpy` and building one allocates
/// nothing.  It derefs to its live elements, and its `Eq`, `Hash`, `Debug`
/// and JSON are those of that slice: a `Vec` with the same elements
/// compares, hashes, prints and serialises alike.
#[derive(Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    len: usize,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// The vector of `len` elements whose element `i` is `f(i)`, with `f`
    /// called in index order.
    ///
    /// # Panics
    /// Panics when `len` exceeds the capacity `N`.
    #[must_use]
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        assert!(len <= N, "an InlineVec holds at most {N} elements, not {len}");
        let mut items = [T::default(); N];
        for (i, item) in items[..len].iter_mut().enumerate() {
            *item = f(i);
        }
        Self { len, items }
    }

    /// A copy of `items`.
    ///
    /// # Panics
    /// Panics when `items` is longer than the capacity `N`.
    #[must_use]
    pub fn from_slice(items: &[T]) -> Self {
        Self::from_fn(items.len(), |i| items[i])
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::from_slice(&[])
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: bakery_json::ToJson, const N: usize> bakery_json::ToJson for InlineVec<T, N> {
    fn to_json(&self) -> bakery_json::Value {
        bakery_json::Value::Array(self.iter().map(bakery_json::ToJson::to_json).collect())
    }
}

impl<T: bakery_json::FromJson + Copy + Default, const N: usize> bakery_json::FromJson
    for InlineVec<T, N>
{
    fn from_json(value: &bakery_json::Value) -> Result<Self, bakery_json::Error> {
        let items = Vec::<T>::from_json(value)?;
        if items.len() > N {
            return Err(bakery_json::Error {
                message: format!("expected at most {N} elements, got {}", items.len()),
            });
        }
        Ok(Self::from_slice(&items))
    }
}

/// Description of one shared register: its name (for traces and reports) and
/// its bound `M` (the largest value it may legally hold).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegisterSpec {
    /// Human-readable name, e.g. `"number[1]"`.
    pub name: String,
    /// The register bound; storing a value above this is an overflow.
    pub bound: u64,
    /// Index of the owning process, if the register is single-writer.
    pub owner: Option<usize>,
}

impl RegisterSpec {
    /// Creates a register spec owned by process `owner`.
    #[must_use]
    pub fn owned(name: impl Into<String>, bound: u64, owner: usize) -> Self {
        Self {
            name: name.into(),
            bound,
            owner: Some(owner),
        }
    }

    /// Creates a multi-writer register spec (no single owner).
    #[must_use]
    pub fn shared(name: impl Into<String>, bound: u64) -> Self {
        Self {
            name: name.into(),
            bound,
            owner: None,
        }
    }
}

/// Per-process component of a [`ProgState`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ProcState {
    /// Program counter; the meaning of each value is algorithm-specific
    /// (see [`crate::Algorithm::pc_label`]).
    pub pc: u32,
    /// Local (unshared) variables, e.g. the loop index `j` or a saved maximum.
    pub locals: InlineVec<u64, MAX_LOCALS>,
    /// True while the process is crashed (it takes no steps until restarted).
    pub crashed: bool,
}

impl ProcState {
    /// Creates a process state at program counter `pc` with the given locals.
    ///
    /// # Panics
    /// Panics when there are more than [`MAX_LOCALS`] locals.
    #[must_use]
    pub fn new(pc: u32, locals: &[u64]) -> Self {
        assert_fits(0, 0, locals.len());
        Self {
            pc,
            locals: InlineVec::from_slice(locals),
            crashed: false,
        }
    }
}

/// An in-progress (begun but not yet committed) write to one shared
/// register, used only under [`crate::RegisterSemantics::Safe`].
///
/// The normalisation invariant — relied on by the model checker's packed
/// encoding — is: `writers == 0` implies `value == 0 && !clash`, and
/// `clash` implies `value == 0` (a clash has no single pending value; the
/// eventual committed value is arbitrary in `[0, bound]`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct PendingWrite {
    /// Bitmask of process ids with a write in flight on this register.
    pub writers: u64,
    /// The pending value, when exactly one writer is in flight (no clash).
    pub value: u64,
    /// True when two or more writes overlapped on this register; the value
    /// eventually committed is then arbitrary within the register's bound.
    pub clash: bool,
}

impl PendingWrite {
    /// True when no write is in flight on this register.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.writers == 0
    }

    /// Re-establishes the normalisation invariant after clearing a writer
    /// bit: an idle cell is all-zero, and a clash carries no pending value.
    fn normalize(&mut self) {
        if self.writers == 0 {
            self.value = 0;
            self.clash = false;
        } else if self.clash {
            self.value = 0;
        }
    }
}

/// A complete global state: shared registers plus every process's state,
/// all held inline (see the module docs for the capacities).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProgState {
    /// Shared register values, indexed consistently with the algorithm's
    /// [`crate::Algorithm::registers`] list.
    pub shared: InlineVec<u64, MAX_REGISTERS>,
    /// Per-process program counters and locals.
    pub procs: InlineVec<ProcState, MAX_PROCESSES>,
    /// In-progress writes, index-aligned with `shared`.  **Empty** under
    /// [`crate::RegisterSemantics::Atomic`] (the common case), so atomic-mode
    /// states hash, compare and encode exactly as they did before the
    /// weak-register plane existed.
    pub writes: InlineVec<PendingWrite, MAX_REGISTERS>,
}

bakery_json::json_object!(RegisterSpec { name, bound, owner });
bakery_json::json_object!(ProcState { pc, locals, crashed });
bakery_json::json_object!(PendingWrite {
    writers,
    value,
    clash
});
bakery_json::json_object!(ProgState {
    shared,
    procs,
    writes
});

impl ProgState {
    /// Creates a state with `registers` shared cells (all zero, as the paper
    /// requires) and the given per-process initial states.  The state carries
    /// no pending-write cells — this is the atomic-semantics constructor.
    ///
    /// # Panics
    /// Panics when the shape exceeds [`MAX_REGISTERS`] or [`MAX_PROCESSES`]
    /// (see [`assert_fits`]).
    #[must_use]
    pub fn new(registers: usize, procs: &[ProcState]) -> Self {
        assert_fits(registers, procs.len(), 0);
        Self {
            shared: InlineVec::from_fn(registers, |_| 0),
            procs: InlineVec::from_slice(procs),
            writes: InlineVec::default(),
        }
    }

    /// Creates a state for [`crate::RegisterSemantics::Safe`] execution: like
    /// [`ProgState::new`] but with one (idle) pending-write cell per register.
    ///
    /// # Panics
    /// As [`ProgState::new`].
    #[must_use]
    pub fn new_weak(registers: usize, procs: &[ProcState]) -> Self {
        Self {
            writes: InlineVec::from_fn(registers, |_| PendingWrite::default()),
            ..Self::new(registers, procs)
        }
    }

    /// Number of participating processes.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// Reads shared register `idx`.
    #[must_use]
    pub fn read(&self, idx: usize) -> u64 {
        self.shared[idx]
    }

    /// Returns a copy of this state with register `idx` set to `value`.
    #[must_use]
    pub fn with_write(&self, idx: usize, value: u64) -> Self {
        let mut next = self.clone();
        next.shared[idx] = value;
        next
    }

    /// Returns a copy of this state with process `pid` moved to `pc`.
    #[must_use]
    pub fn with_pc(&self, pid: usize, pc: u32) -> Self {
        let mut next = self.clone();
        next.procs[pid].pc = pc;
        next
    }

    /// Returns a copy with process `pid` moved to `pc` and local `slot`
    /// updated to `value`.
    #[must_use]
    pub fn with_pc_and_local(&self, pid: usize, pc: u32, slot: usize, value: u64) -> Self {
        let mut next = self.clone();
        next.procs[pid].pc = pc;
        next.procs[pid].locals[slot] = value;
        next
    }

    /// In-place mutators used by builders that construct successors piecemeal.
    pub fn set_pc(&mut self, pid: usize, pc: u32) {
        self.procs[pid].pc = pc;
    }

    /// Sets local variable `slot` of process `pid`.
    pub fn set_local(&mut self, pid: usize, slot: usize, value: u64) {
        self.procs[pid].locals[slot] = value;
    }

    /// Sets shared register `idx`.
    pub fn set_shared(&mut self, idx: usize, value: u64) {
        self.shared[idx] = value;
    }

    /// Starts a safe-semantics write of `value` to register `idx` by process
    /// `pid` (in place).  If another write is already in flight the two
    /// overlap and the cell degrades to a *clash*: the committed value will
    /// be arbitrary within the register's bound.
    pub fn begin_write(&mut self, idx: usize, value: u64, pid: usize) {
        let cell = &mut self.writes[idx];
        if cell.writers == 0 {
            cell.writers = 1 << pid;
            cell.value = value;
            cell.clash = false;
        } else {
            cell.writers |= 1 << pid;
            cell.clash = true;
            cell.value = 0;
        }
    }

    /// The values `pid`'s in-flight write on register `idx` may commit:
    /// the single pending value normally, or every value in `[0, bound]`
    /// after a clash.
    #[must_use]
    pub fn commit_values(&self, idx: usize, bound: u64) -> RangeInclusive<u64> {
        let cell = &self.writes[idx];
        if cell.clash {
            0..=bound
        } else {
            cell.value..=cell.value
        }
    }

    /// Completes `pid`'s in-flight write on register `idx` (in place),
    /// committing `value` to the register.  Any clash mark persists while
    /// other writers remain in flight.
    pub fn end_write(&mut self, idx: usize, pid: usize, value: u64) {
        self.shared[idx] = value;
        let cell = &mut self.writes[idx];
        cell.writers &= !(1 << pid);
        cell.normalize();
    }

    /// Aborts every in-flight write by `pid` (in place) — the crash rule for
    /// safe registers: the pending value is dropped, never committed.  A
    /// clash with surviving writers persists (their outcome stays arbitrary).
    pub fn abort_writes(&mut self, pid: usize) {
        for cell in self.writes.iter_mut() {
            if cell.writers & (1 << pid) != 0 {
                cell.writers &= !(1 << pid);
                cell.normalize();
            }
        }
    }

    /// The register index of `pid`'s in-flight write, if it has one.  The
    /// specifications issue at most one write at a time per process, so a
    /// single index suffices.
    #[must_use]
    pub fn write_in_progress_by(&self, pid: usize) -> Option<usize> {
        self.writes
            .iter()
            .position(|cell| cell.writers & (1 << pid) != 0)
    }

    /// The values a read of register `idx` may return: the committed value
    /// when no write is in flight (always, under atomic semantics), otherwise
    /// every value in `[0, bound]` (a flickering read).
    #[must_use]
    pub fn read_values(&self, idx: usize, bound: u64) -> RangeInclusive<u64> {
        match self.writes.get(idx) {
            Some(cell) if !cell.is_idle() => 0..=bound,
            _ => self.shared[idx]..=self.shared[idx],
        }
    }

    /// The value most recently *stored to* register `idx` by its writer: the
    /// pending value while a (non-clash) write is in flight, otherwise the
    /// committed value.  Used by observers that need the writer's intent
    /// rather than a reader's view.
    #[must_use]
    pub fn last_stored(&self, idx: usize) -> u64 {
        match self.writes.get(idx) {
            Some(cell) if !cell.is_idle() && !cell.clash => cell.value,
            _ => self.shared[idx],
        }
    }

    /// Local variable `slot` of process `pid`.
    #[must_use]
    pub fn local(&self, pid: usize, slot: usize) -> u64 {
        self.procs[pid].locals[slot]
    }

    /// Program counter of process `pid`.
    #[must_use]
    pub fn pc(&self, pid: usize) -> u32 {
        self.procs[pid].pc
    }

    /// True when process `pid` is currently crashed.
    #[must_use]
    pub fn is_crashed(&self, pid: usize) -> bool {
        self.procs[pid].crashed
    }

    /// Compact single-line rendering used in counterexample traces, e.g.
    /// `[choosing[0]=1 number[0]=0*2] [p0@3(0,2) p1!@0(0,0)]`: each register
    /// with its pending write (`*value` or `*clash`, plus the writers as
    /// `(p0,p1)` unless the register's owner is the only one), then each
    /// process with `!` when crashed, its pc and its locals.  Distinct
    /// states of one specification never render alike.
    #[must_use]
    pub fn render(&self, registers: &[RegisterSpec]) -> String {
        let shared: Vec<String> = self
            .shared
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let spec = registers.get(i);
                let name = spec.map_or_else(|| format!("r{i}"), |r| r.name.clone());
                match self.writes.get(i) {
                    Some(cell) if !cell.is_idle() => {
                        let pending = if cell.clash {
                            "clash".to_string()
                        } else {
                            cell.value.to_string()
                        };
                        let owned = spec
                            .and_then(|r| r.owner)
                            .is_some_and(|owner| cell.writers == 1 << owner);
                        let writers = if owned {
                            String::new()
                        } else {
                            let pids: Vec<String> = (0..64)
                                .filter(|pid| cell.writers & (1 << pid) != 0)
                                .map(|pid| format!("p{pid}"))
                                .collect();
                            format!("({})", pids.join(","))
                        };
                        format!("{name}={v}*{pending}{writers}")
                    }
                    _ => format!("{name}={v}"),
                }
            })
            .collect();
        let procs: Vec<String> = self
            .procs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let crash = if p.crashed { "!" } else { "" };
                let locals = if p.locals.is_empty() {
                    String::new()
                } else {
                    let values: Vec<String> = p.locals.iter().map(u64::to_string).collect();
                    format!("({})", values.join(","))
                };
                format!("p{i}{crash}@{}{locals}", p.pc)
            })
            .collect();
        format!("[{}] [{}]", shared.join(" "), procs.join(" "))
    }
}

impl fmt::Display for ProgState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(&[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn two_proc_state() -> ProgState {
        ProgState::new(4, &[ProcState::new(0, &[0, 0]), ProcState::new(0, &[0, 0])])
    }

    #[test]
    fn new_state_is_all_zero() {
        let s = two_proc_state();
        assert_eq!(*s.shared, [0, 0, 0, 0]);
        assert_eq!(s.process_count(), 2);
        assert_eq!(s.pc(0), 0);
        assert!(!s.is_crashed(1));
    }

    #[test]
    fn with_write_is_persistent() {
        let s = two_proc_state();
        let t = s.with_write(2, 9);
        assert_eq!(s.read(2), 0, "original untouched");
        assert_eq!(t.read(2), 9);
    }

    #[test]
    fn with_pc_and_local_updates_only_target() {
        let s = two_proc_state();
        let t = s.with_pc_and_local(1, 7, 0, 3);
        assert_eq!(t.pc(1), 7);
        assert_eq!(t.local(1, 0), 3);
        assert_eq!(t.pc(0), 0);
        assert_eq!(t.local(0, 0), 0);
    }

    #[test]
    fn states_hash_and_compare_structurally() {
        let a = two_proc_state().with_write(0, 1);
        let b = two_proc_state().with_write(0, 1);
        let c = two_proc_state().with_write(0, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: HashSet<ProgState> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn render_names_registers() {
        let regs = vec![
            RegisterSpec::owned("number[0]", 5, 0),
            RegisterSpec::owned("number[1]", 5, 1),
        ];
        let s = ProgState::new(2, &[ProcState::new(3, &[])]).with_write(1, 4);
        let text = s.render(&regs);
        assert!(text.contains("number[1]=4"));
        assert!(text.contains("p0@3"));
    }

    #[test]
    fn states_differing_only_in_a_local_render_differently() {
        let s = two_proc_state().with_pc_and_local(1, 3, 1, 2);
        let t = s.with_pc_and_local(1, 3, 1, 1);
        assert_ne!(s, t);
        assert_eq!(s.render(&[]), "[r0=0 r1=0 r2=0 r3=0] [p0@0(0,0) p1@3(0,2)]");
        assert_eq!(t.render(&[]), "[r0=0 r1=0 r2=0 r3=0] [p0@0(0,0) p1@3(0,1)]");
    }

    #[test]
    fn render_names_the_writers_a_register_owner_does_not_imply() {
        let regs = vec![RegisterSpec::owned("mine", 5, 1), RegisterSpec::shared("turn", 5)];
        let mut by_p0 = weak_two_proc_state();
        by_p0.begin_write(0, 4, 1);
        let mut by_p1 = by_p0.clone();
        by_p0.begin_write(1, 3, 0);
        by_p1.begin_write(1, 3, 1);
        assert_eq!(by_p0.render(&regs), "[mine=0*4 turn=0*3(p0)] [p0@0(0) p1@0(0)]");
        assert_eq!(by_p1.render(&regs), "[mine=0*4 turn=0*3(p1)] [p0@0(0) p1@0(0)]");
        by_p0.begin_write(1, 2, 1);
        assert_eq!(
            by_p0.render(&regs),
            "[mine=0*4 turn=0*clash(p0,p1)] [p0@0(0) p1@0(0)]"
        );
    }

    #[test]
    fn register_spec_constructors() {
        let owned = RegisterSpec::owned("choosing[2]", 1, 2);
        assert_eq!(owned.owner, Some(2));
        let shared = RegisterSpec::shared("color", 1);
        assert_eq!(shared.owner, None);
        assert_eq!(shared.bound, 1);
    }

    #[test]
    fn states_serialize_round_trip() {
        let s = two_proc_state().with_write(3, 7).with_pc(0, 5);
        let json = bakery_json::to_string(&s).unwrap();
        let back: ProgState = bakery_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    fn weak_two_proc_state() -> ProgState {
        ProgState::new_weak(2, &[ProcState::new(0, &[0]), ProcState::new(0, &[0])])
    }

    #[test]
    fn single_writer_begin_end_commits_pending_value() {
        let mut s = weak_two_proc_state();
        s.begin_write(1, 5, 0);
        assert_eq!(s.write_in_progress_by(0), Some(1));
        assert_eq!(s.read(1), 0, "committed value unchanged until end_write");
        assert_eq!(s.last_stored(1), 5, "writer's intent visible");
        assert_eq!(s.read_values(1, 7), 0..=7, "flicker");
        assert_eq!(s.commit_values(1, 7), 5..=5);
        s.end_write(1, 0, 5);
        assert_eq!(s.read(1), 5);
        assert!(s.writes[1].is_idle());
        assert_eq!(s.read_values(1, 7), 5..=5, "quiescent read is exact");
    }

    #[test]
    fn overlapping_writes_clash_and_commit_arbitrarily() {
        let mut s = weak_two_proc_state();
        s.begin_write(0, 3, 0);
        s.begin_write(0, 1, 1);
        assert!(s.writes[0].clash);
        assert_eq!(s.writes[0].value, 0, "clash carries no pending value");
        assert_eq!(s.commit_values(0, 2), 0..=2);
        s.end_write(0, 0, 2);
        assert!(s.writes[0].clash, "clash persists while a writer remains");
        s.end_write(0, 1, 1);
        assert!(s.writes[0].is_idle());
        assert!(!s.writes[0].clash);
    }

    #[test]
    fn abort_drops_pending_value_and_normalizes() {
        let mut s = weak_two_proc_state();
        s.begin_write(1, 6, 1);
        s.abort_writes(1);
        assert!(s.writes[1].is_idle());
        assert_eq!(s.writes[1].value, 0);
        assert_eq!(s.read(1), 0, "aborted value never committed");
        assert_eq!(s.write_in_progress_by(1), None);
    }

    #[test]
    fn weak_states_serialize_round_trip() {
        let mut s = weak_two_proc_state();
        s.begin_write(0, 2, 0);
        let json = bakery_json::to_string(&s).unwrap();
        let back: ProgState = bakery_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn a_state_holds_its_parts_inline_within_a_capped_size() {
        // Every explored successor copies one whole state: a field that
        // grows it must raise this cap on purpose.
        assert!(
            std::mem::size_of::<ProgState>() <= 600,
            "ProgState grew to {} bytes",
            std::mem::size_of::<ProgState>()
        );
        let procs = [ProcState::new(1, &[2, 3]); MAX_PROCESSES];
        let full = ProgState::new_weak(MAX_REGISTERS, &procs);
        assert_eq!(full.shared.len(), MAX_REGISTERS);
        assert_eq!(full.writes.len(), MAX_REGISTERS);
        assert_eq!(full.procs.len(), MAX_PROCESSES);
        assert_eq!(*full.procs[5].locals, [2, 3]);
    }

    #[test]
    #[should_panic(
        expected = "a ProgState holds at most 12 registers (MAX_REGISTERS); this shape needs 13"
    )]
    fn one_register_too_many_panics() {
        let _ = ProgState::new(MAX_REGISTERS + 1, &[ProcState::new(0, &[])]);
    }

    #[test]
    #[should_panic(
        expected = "a ProgState holds at most 6 processes (MAX_PROCESSES); this shape needs 7"
    )]
    fn one_process_too_many_panics() {
        let _ = ProgState::new_weak(2, &[ProcState::new(0, &[]); MAX_PROCESSES + 1]);
    }

    #[test]
    #[should_panic(
        expected = "a ProgState holds at most 2 locals per process (MAX_LOCALS); this shape needs 3"
    )]
    fn one_local_too_many_panics() {
        let _ = ProcState::new(0, &[0; MAX_LOCALS + 1]);
    }

    #[test]
    #[should_panic(expected = "an InlineVec holds at most 2 elements, not 3")]
    fn inline_vec_rejects_more_than_its_capacity() {
        let _ = InlineVec::<u64, 2>::from_slice(&[1, 2, 3]);
    }

    #[test]
    fn inline_vecs_compare_hash_print_and_serialise_as_their_slice() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |value: &dyn Fn(&mut DefaultHasher)| {
            let mut hasher = DefaultHasher::new();
            value(&mut hasher);
            hasher.finish()
        };
        let inline = InlineVec::<u64, 4>::from_slice(&[7, 8]);
        let heap = vec![7u64, 8];
        assert_eq!(*inline, *heap);
        assert_eq!(hash(&|h| inline.hash(h)), hash(&|h| heap.hash(h)));
        assert_eq!(format!("{inline:?}"), format!("{heap:?}"));
        assert_eq!(
            bakery_json::to_string(&inline).unwrap(),
            bakery_json::to_string(&heap).unwrap()
        );
        let longer = InlineVec::<u64, 4>::from_slice(&[7, 8, 0]);
        assert_ne!(inline, longer, "the length takes part in equality");
        let wide: Result<InlineVec<u64, 2>, _> = bakery_json::from_str("[1,2,3]");
        assert!(wide.unwrap_err().message.contains("at most 2 elements"));
    }
}
