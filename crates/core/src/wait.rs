//! Pluggable wait strategies: the one place every busy-wait in the suite
//! parks or spins.
//!
//! The Bakery family is specified entirely in terms of busy-waiting on
//! single-writer registers (the paper's `L1`/`L2`/`L3` loops), and so are the
//! layers built on top of it — the session plane's attach loop and the
//! baseline locks.  How a waiter passes the time while its predicate is
//! false is *not* part of any of those protocols, so
//! this module factors it out behind [`WaitStrategy`]:
//!
//! * [`Spin`] — the historical behaviour: exponential spin-then-yield
//!   ([`WaitToken::snooze`]).  The baseline every benchmark compares against.
//! * [`Park`] — a futex-style waiter table: after a short spin phase the
//!   waiter registers itself under the [`WaitSite`] it is watching and parks
//!   its thread (or records its [`Waker`]); the writer whose store flips the
//!   predicate wakes exactly the waiters registered on that site.
//!
//! # The contract
//!
//! A *wait site* names a predicate source — a packed-snapshot word, the
//! session plane's free-seat set, a lock's release pulse.  A *wait episode*
//! is one predicate watched by one waiter until it flips; its escalation
//! state lives in a [`WaitToken`].
//!
//! 1. **Spurious wakeups are allowed.**  `wait` may return at any time, with
//!    the predicate still false; callers must always loop.
//! 2. **Lost wakeups are forbidden.**  If a writer flips the predicate and
//!    then calls [`WaitStrategy::notify`] on the site, every waiter already
//!    blocked in [`WaitStrategy::wait`] on that site must return.  [`Park`]
//!    implements this with a register → *revalidate predicate* → park
//!    handshake: the waiter enqueues itself, re-evaluates the predicate
//!    (`still_waiting`), and only then parks — paired with a store-load
//!    `SeqCst` fence on the notify side, at least one side always observes
//!    the other, closing the check-then-park race.
//! 3. **Episode policy** (pinned by the conformance suite): escalation state
//!    is **fresh per watched predicate** — the `L2`/`L3` scans create a new
//!    [`WaitToken`] per contender `j` and [`WaitToken::reset`] it between the
//!    `L2` and `L3` loops, so escalation never leaks between unrelated
//!    waits.  The one exception is Bakery++'s `L1`/`Reset` retry loop, which
//!    is a single episode (the same admission predicate) and carries one
//!    token across doorway retries.
//! 4. **Un-notified sites rely on [`Park`]'s bounded park timeout.**  The
//!    baseline locks route their waits through the strategy but do not
//!    instrument their release stores with notifies; under [`Park`] those
//!    waiters degrade to a bounded-interval poll instead of hanging.
//!
//! The wait policy is deliberately identical across algorithms so that the
//! throughput comparisons in experiment **E7** measure the protocols, not the
//! waiting strategy: a strategy changes *scheduling*, never protocol
//! outcomes, which the conformance suite checks by replaying the same
//! workload under both strategies.

use std::fmt;
use crate::sync::{self, fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::task::Waker;
use std::thread::{self, Thread};
use std::time::Duration;

/// What kind of predicate a [`WaitSite`] names.  Part of the site key, so
/// waiters on different planes of the same lock never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// An `L2` wait on a choosing word (one bitmap word covers 64 pids).
    Choosing,
    /// An `L3` wait on a ticket lane word (one site per lane word).
    Ticket,
    /// A guard predicate: Bakery++'s `L1` admission guard and the session
    /// plane's busy-seat waits.
    Guard,
    /// The session plane's free-seat predicate (woken on detach/recycle).
    Attach,
    /// A lock-wide release pulse, used by the async lock futures.
    Release,
}

/// One wait site: `(namespace, kind, index)`.
///
/// The namespace isolates lock instances from each other (every
/// [`WaitHandle`] draws a fresh one), the kind isolates planes within a lock,
/// and the index addresses a word within the plane.  Key collisions across
/// sites would only cause spurious wakeups, which the contract permits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitSite {
    /// Instance namespace (see [`new_namespace`]).
    pub ns: u64,
    /// The plane within the instance.
    pub kind: SiteKind,
    /// Word index within the plane.
    pub index: usize,
}

impl WaitSite {
    /// Mixes the site into one `u64` key (FNV-1a over the three fields).
    #[must_use]
    pub fn key(self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in [self.ns, self.kind as u64, self.index as u64] {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Per-episode escalation state, owned by the waiter.
///
/// Escalates from `spin_loop` hints in doubling batches to an OS
/// `yield_now` per round: a bare `loop {}` around an atomic load saturates
/// the memory subsystem and starves the writer whose store the reader waits
/// for.  The token also counts how often the episode actually parked, so
/// tests can assert that a parked waiter wastes a bounded number of rounds
/// where a spinner would burn millions.
#[derive(Debug, Default)]
pub struct WaitToken {
    /// Exponent of the current spin batch (capped at `YIELD_LIMIT`).
    step: u32,
    /// Rounds since creation or the last [`WaitToken::reset`].
    rounds: u64,
    parks: u64,
}

impl WaitToken {
    /// Doubling steps spent purely spinning before yielding.
    const SPIN_LIMIT: u32 = 6;
    /// Cap on the exponent, so the spin batch length stays bounded.
    const YIELD_LIMIT: u32 = 10;

    /// A fresh token in the "not yet waited" state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rounds waited since creation or the last [`WaitToken::reset`].
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Times this episode actually parked its thread.
    #[must_use]
    pub fn parks(&self) -> u64 {
        self.parks
    }

    /// True once the episode has escalated past pure spinning.
    #[must_use]
    pub fn is_yielding(&self) -> bool {
        self.step > Self::SPIN_LIMIT
    }

    /// One spin/yield round (strategy implementations call this).
    pub fn snooze(&mut self) {
        self.rounds += 1;
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                sync::spin_hint();
            }
        } else {
            sync::yield_now();
        }
        if self.step < Self::YIELD_LIMIT {
            self.step += 1;
        }
    }

    /// Re-arms the episode after progress (e.g. between the `L2` and `L3`
    /// loops of one contender): escalation and round count restart.
    pub fn reset(&mut self) {
        self.step = 0;
        self.rounds = 0;
    }

    /// Records one park (strategy implementations call this).
    pub fn note_park(&mut self) {
        self.parks += 1;
    }
}

/// A pluggable waiting discipline (see the module docs for the contract).
///
/// Implementations must be cheap to share: one instance typically serves a
/// whole lock (or a whole tree of locks) behind an `Arc`.
pub trait WaitStrategy: Send + Sync + fmt::Debug {
    /// Short name for reports ("spin", "park").
    fn name(&self) -> &'static str;

    /// One blocking round of the episode `token` on `site`.
    ///
    /// Called by a waiter that has just observed its predicate false.
    /// `still_waiting` re-evaluates the predicate (`true` = keep waiting);
    /// parking strategies call it *after* registering, which is what makes a
    /// lost wakeup impossible.  May return spuriously.
    fn wait(&self, site: WaitSite, token: &mut WaitToken, still_waiting: &mut dyn FnMut() -> bool);

    /// Wakes every waiter registered on `site`.  Called by the writer whose
    /// store flipped the site's predicate, *after* the store.
    fn notify(&self, site: WaitSite);

    /// Wakes at most `n` waiters registered on `site` (storm control for the
    /// session plane's attach site).  Defaults to [`WaitStrategy::notify`].
    fn notify_some(&self, site: WaitSite, n: usize) {
        let _ = n;
        self.notify(site);
    }

    /// Registers an async task's `waker` on `site`.
    ///
    /// Returns `true` when the waker is registered and the predicate was
    /// still true after registration (the future should return `Pending`);
    /// `false` when the predicate flipped during registration (the future
    /// should retry immediately — the registration, if any, was withdrawn or
    /// will be consumed as a harmless spurious wake).  The default busy
    /// re-polls: it wakes the task immediately, giving spin semantics.
    fn register_waker(
        &self,
        site: WaitSite,
        waker: &Waker,
        still_waiting: &mut dyn FnMut() -> bool,
    ) -> bool {
        let _ = site;
        let _ = still_waiting;
        waker.wake_by_ref();
        true
    }
}

/// The historical spin-then-yield behaviour ([`WaitToken::snooze`]), as a
/// strategy.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spin;

impl WaitStrategy for Spin {
    fn name(&self) -> &'static str {
        "spin"
    }

    fn wait(
        &self,
        _site: WaitSite,
        token: &mut WaitToken,
        _still_waiting: &mut dyn FnMut() -> bool,
    ) {
        token.snooze();
    }

    fn notify(&self, _site: WaitSite) {}
}

/// One registered waiter: either a parked thread or an async task.
#[derive(Debug)]
enum Handle {
    Thread(Thread),
    Task(Waker),
}

#[derive(Debug)]
struct Entry {
    key: u64,
    id: u64,
    handle: Handle,
}

const PARK_SHARDS: usize = 16;

/// Futex-style parking: waiters register under their site key and park;
/// notifiers drain and wake exactly the waiters registered on the flipped
/// site.
///
/// The missed-wakeup race (predicate flips between the waiter's check and
/// its park) is closed by the register → revalidate → park handshake on the
/// wait side and a `SeqCst` store-load fence pairing with the notify side:
/// the waiter publishes its registration (`SeqCst` counter increment), fences
/// and re-reads the predicate; the notifier flips the predicate, fences and
/// reads the counter.  In the SC order at least one side observes the other,
/// so either the waiter sees the flip and never parks, or the notifier sees
/// the registration and wakes it.
///
/// Every park uses a bounded timeout (default 1 ms, see [`Park::with_timeout`])
/// as a safety net for sites whose writers do not notify (the baseline
/// locks): waiters there degrade to a bounded-interval poll.  Timeouts and
/// spurious unparks surface as spurious wakeups, which the contract permits.
#[derive(Debug)]
pub struct Park {
    shards: [Mutex<Vec<Entry>>; PARK_SHARDS],
    /// Registered-waiter count, the notify fast path ("no waiters anywhere,
    /// skip the lock").  `SeqCst` so it participates in the Dekker pairing.
    registered: AtomicUsize,
    next_id: AtomicU64,
    timeout: Option<Duration>,
    parks: AtomicU64,
    notifies: AtomicU64,
    timeouts: AtomicU64,
    wait_calls: AtomicU64,
}

impl Default for Park {
    fn default() -> Self {
        Self::new()
    }
}

impl Park {
    /// A parking strategy with the default 1 ms park-timeout safety net.
    #[must_use]
    pub fn new() -> Self {
        Self::with_timeout(Some(Duration::from_millis(1)))
    }

    /// A parking strategy with an explicit park timeout.
    ///
    /// `None` parks unboundedly — liveness then depends entirely on notifies,
    /// which is exactly what the loom lost-wakeup tests want (a lost wakeup
    /// hangs instead of being papered over by the timeout).  Production
    /// configurations should keep a timeout unless every wait site in the
    /// deployment is known to be notified.
    #[must_use]
    pub fn with_timeout(timeout: Option<Duration>) -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
            registered: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            timeout,
            parks: AtomicU64::new(0),
            notifies: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            wait_calls: AtomicU64::new(0),
        }
    }

    /// Times a waiter actually parked its thread.
    #[must_use]
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Waiters woken by a notify (threads unparked + wakers woken).
    #[must_use]
    pub fn notifies(&self) -> u64 {
        self.notifies.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Parks that ended by timeout or spurious unpark (entry still queued).
    #[must_use]
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Total [`WaitStrategy::wait`] rounds served — the "wasted rounds"
    /// metric the oversubscription regression test bounds.
    #[must_use]
    pub fn wait_calls(&self) -> u64 {
        self.wait_calls.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    fn shard(&self, key: u64) -> &Mutex<Vec<Entry>> {
        &self.shards[(key as usize) % PARK_SHARDS]
    }

    /// Enqueues a waiter handle under `key` and publishes the registration.
    fn enlist(&self, key: u64, handle: Handle) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed); // mem: id-alloc
        self.shard(key)
            .lock()
            .expect("park shard poisoned")
            .push(Entry { key, id, handle });
        self.registered.fetch_add(1, Ordering::SeqCst); // mem: park-handshake.waiter
        id
    }

    /// Withdraws a registration; `true` when the entry was still queued
    /// (i.e. no notify consumed it).
    fn delist(&self, key: u64, id: u64) -> bool {
        let mut shard = self.shard(key).lock().expect("park shard poisoned");
        if let Some(pos) = shard.iter().position(|e| e.id == id) {
            shard.swap_remove(pos);
            drop(shard);
            self.registered.fetch_sub(1, Ordering::SeqCst); // mem: park-handshake.waiter
            true
        } else {
            false
        }
    }
}

impl WaitStrategy for Park {
    fn name(&self) -> &'static str {
        "park"
    }

    fn wait(&self, site: WaitSite, token: &mut WaitToken, still_waiting: &mut dyn FnMut() -> bool) {
        self.wait_calls.fetch_add(1, Ordering::Relaxed); // mem: stats-relaxed
        if !token.is_yielding() {
            // Short spin phase: a predicate about to flip is cheaper to catch
            // without a round trip through the waiter table.
            token.snooze();
            return;
        }
        token.snooze();
        let key = site.key();
        let id = self.enlist(key, Handle::Thread(thread::current()));
        // The handshake: registration is published (SeqCst RMW), now re-read
        // the predicate.  A notifier that missed our registration must have
        // read `registered` before our increment, which orders its predicate
        // flip before this re-read — we see it and never park.
        fence(Ordering::SeqCst); // mem: park-handshake.waiter
        if !still_waiting() {
            self.delist(key, id);
            return;
        }
        token.note_park();
        self.parks.fetch_add(1, Ordering::Relaxed); // mem: stats-relaxed
        match self.timeout {
            Some(limit) => thread::park_timeout(limit),
            None => thread::park(),
        }
        if self.delist(key, id) {
            // Nobody consumed the entry: we woke by timeout or spuriously.
            self.timeouts.fetch_add(1, Ordering::Relaxed); // mem: stats-relaxed
        }
    }

    fn notify(&self, site: WaitSite) {
        self.notify_some(site, usize::MAX);
    }

    fn notify_some(&self, site: WaitSite, n: usize) {
        // Pairs with the waiter-side fence in `wait`/`register_waker`.
        fence(Ordering::SeqCst); // mem: park-handshake.notifier
        if self.registered.load(Ordering::SeqCst) == 0 { // mem: park-handshake.notifier
            return;
        }
        let key = site.key();
        let mut woken: Vec<Entry> = Vec::new();
        {
            let mut shard = self.shard(key).lock().expect("park shard poisoned");
            let mut i = 0;
            while i < shard.len() && woken.len() < n {
                if shard[i].key == key {
                    woken.push(shard.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        if woken.is_empty() {
            return;
        }
        self.registered.fetch_sub(woken.len(), Ordering::SeqCst); // mem: park-handshake.notifier
        self.notifies.fetch_add(woken.len() as u64, Ordering::Relaxed); // mem: stats-relaxed
        for entry in woken {
            match entry.handle {
                Handle::Thread(t) => t.unpark(),
                Handle::Task(w) => w.wake(),
            }
        }
    }

    fn register_waker(
        &self,
        site: WaitSite,
        waker: &Waker,
        still_waiting: &mut dyn FnMut() -> bool,
    ) -> bool {
        let key = site.key();
        let id = self.enlist(key, Handle::Task(waker.clone()));
        // Same handshake as the thread path: publish, fence, revalidate.
        fence(Ordering::SeqCst); // mem: park-handshake.waiter
        if !still_waiting() {
            self.delist(key, id);
            return false;
        }
        true
    }
}

/// A strategy bound to an instance namespace — what the locks actually hold.
///
/// Cloning shares the strategy *and* the namespace (a cloned handle addresses
/// the same sites); [`WaitHandle::new`] draws a fresh namespace.
#[derive(Debug, Clone)]
pub struct WaitHandle {
    strategy: Arc<dyn WaitStrategy>,
    ns: u64,
}

impl WaitHandle {
    /// Binds `strategy` to a fresh namespace.
    #[must_use]
    pub fn new(strategy: Arc<dyn WaitStrategy>) -> Self {
        Self {
            strategy,
            ns: new_namespace(),
        }
    }

    /// A handle over the process-wide default strategy (see
    /// [`default_strategy`]), in a fresh namespace.
    #[must_use]
    pub fn default_handle() -> Self {
        Self::new(default_strategy())
    }

    /// The underlying strategy.
    #[must_use]
    pub fn strategy(&self) -> &Arc<dyn WaitStrategy> {
        &self.strategy
    }

    /// This handle's namespace.
    #[must_use]
    pub fn namespace(&self) -> u64 {
        self.ns
    }

    /// The `L2` site for choosing word `word`.
    #[must_use]
    pub fn choosing(&self, word: usize) -> WaitSite {
        WaitSite {
            ns: self.ns,
            kind: SiteKind::Choosing,
            index: word,
        }
    }

    /// The `L3` site for ticket lane word `word`.
    #[must_use]
    pub fn ticket(&self, word: usize) -> WaitSite {
        WaitSite {
            ns: self.ns,
            kind: SiteKind::Ticket,
            index: word,
        }
    }

    /// The instance-wide guard/phase site.
    #[must_use]
    pub fn guard(&self) -> WaitSite {
        WaitSite {
            ns: self.ns,
            kind: SiteKind::Guard,
            index: 0,
        }
    }

    /// The session plane's free-seat site.
    #[must_use]
    pub fn attach(&self) -> WaitSite {
        WaitSite {
            ns: self.ns,
            kind: SiteKind::Attach,
            index: 0,
        }
    }

    /// The instance-wide release pulse site.
    #[must_use]
    pub fn release(&self) -> WaitSite {
        WaitSite {
            ns: self.ns,
            kind: SiteKind::Release,
            index: 0,
        }
    }

    /// Forwards to [`WaitStrategy::wait`].
    pub fn wait(
        &self,
        site: WaitSite,
        token: &mut WaitToken,
        still_waiting: &mut dyn FnMut() -> bool,
    ) {
        self.strategy.wait(site, token, still_waiting);
    }

    /// Forwards to [`WaitStrategy::notify`].
    pub fn notify(&self, site: WaitSite) {
        self.strategy.notify(site);
    }

    /// Forwards to [`WaitStrategy::notify_some`].
    pub fn notify_some(&self, site: WaitSite, n: usize) {
        self.strategy.notify_some(site, n);
    }

    /// Forwards to [`WaitStrategy::register_waker`].
    pub fn register_waker(
        &self,
        site: WaitSite,
        waker: &Waker,
        still_waiting: &mut dyn FnMut() -> bool,
    ) -> bool {
        self.strategy.register_waker(site, waker, still_waiting)
    }
}

/// Draws a fresh site namespace (process-wide counter).
#[must_use]
pub fn new_namespace() -> u64 {
    static NAMESPACE: AtomicU64 = AtomicU64::new(1);
    NAMESPACE.fetch_add(1, Ordering::Relaxed) // mem: id-alloc
}

/// Builds a strategy by name: `"spin"` or `"park"`.
#[must_use]
pub fn strategy_by_name(name: &str) -> Option<Arc<dyn WaitStrategy>> {
    match name.to_ascii_lowercase().as_str() {
        "spin" => Some(Arc::new(Spin)),
        "park" => Some(Arc::new(Park::new())),
        _ => None,
    }
}

/// The process-wide default strategy, chosen once from the
/// `BAKERY_WAIT_STRATEGY` environment variable (`spin` | `park`,
/// default `spin` — the historical behaviour, so existing benchmarks are
/// unchanged unless asked).
#[must_use]
pub fn default_strategy() -> Arc<dyn WaitStrategy> {
    static DEFAULT: OnceLock<Arc<dyn WaitStrategy>> = OnceLock::new();
    Arc::clone(DEFAULT.get_or_init(|| {
        std::env::var("BAKERY_WAIT_STRATEGY")
            .ok()
            .and_then(|name| strategy_by_name(&name))
            .unwrap_or_else(|| Arc::new(Spin))
    }))
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn flag_site(h: &WaitHandle) -> WaitSite {
        h.guard()
    }

    fn wait_for_flag(h: &WaitHandle, flag: &AtomicBool) -> WaitToken {
        let site = flag_site(h);
        let mut token = WaitToken::new();
        while !flag.load(Ordering::SeqCst) {
            h.wait(site, &mut token, &mut || !flag.load(Ordering::SeqCst));
        }
        token
    }

    #[test]
    fn token_starts_spinning() {
        let token = WaitToken::new();
        assert_eq!(token.rounds(), 0);
        assert!(!token.is_yielding());
    }

    #[test]
    fn token_escalates_to_yielding() {
        let mut token = WaitToken::new();
        for _ in 0..=(WaitToken::SPIN_LIMIT + 1) {
            token.snooze();
        }
        assert!(token.is_yielding());
        assert_eq!(token.rounds(), u64::from(WaitToken::SPIN_LIMIT) + 2);
    }

    #[test]
    fn token_reset_returns_to_spinning() {
        let mut token = WaitToken::new();
        for _ in 0..20 {
            token.snooze();
        }
        assert!(token.is_yielding());
        token.reset();
        assert!(!token.is_yielding());
        // A reset starts a new wait episode: the round count restarts with
        // the escalation state ("since creation or the last reset").
        assert_eq!(token.rounds(), 0);
        token.snooze();
        assert_eq!(token.rounds(), 1);
    }

    #[test]
    fn token_step_saturates_at_yield_limit() {
        let mut token = WaitToken::new();
        for _ in 0..1000 {
            token.snooze();
        }
        assert!(token.is_yielding());
        assert_eq!(token.rounds(), 1000);
    }

    #[test]
    fn token_default_equals_new() {
        let a = WaitToken::default();
        let b = WaitToken::new();
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.is_yielding(), b.is_yielding());
        assert_eq!(a.parks(), b.parks());
    }

    #[test]
    fn spin_completes_a_wait() {
        let h = WaitHandle::new(strategy_by_name("spin").unwrap());
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                flag.store(true, Ordering::SeqCst);
                h.notify(flag_site(&h));
            });
            let token = wait_for_flag(&h, &flag);
            assert!(token.rounds() > 0);
        });
    }

    #[test]
    fn park_wakes_on_notify_with_bounded_rounds() {
        let park = Arc::new(Park::new());
        let h = WaitHandle::new(Arc::clone(&park) as Arc<dyn WaitStrategy>);
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                flag.store(true, Ordering::SeqCst);
                h.notify(flag_site(&h));
            });
            let token = wait_for_flag(&h, &flag);
            // A spinner would burn hundreds of thousands of rounds over
            // 50 ms; a parked waiter spends a handful (the spin phase plus
            // one round per 1 ms timeout tick at worst).
            assert!(token.rounds() < 1_000, "wasted {} rounds", token.rounds());
            assert!(token.parks() >= 1, "the waiter never parked");
        });
        assert!(park.parks() >= 1);
    }

    #[test]
    fn park_timeout_rescues_an_unnotified_site() {
        // The writer flips the flag but never notifies (a baseline-lock
        // release): the bounded park timeout must still let the waiter out.
        let h = WaitHandle::new(Arc::new(Park::new()) as Arc<dyn WaitStrategy>);
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                flag.store(true, Ordering::SeqCst);
            });
            let token = wait_for_flag(&h, &flag);
            assert!(token.rounds() > 0);
        });
    }

    #[test]
    fn notify_some_wakes_at_most_n() {
        let park = Arc::new(Park::with_timeout(None));
        let h = WaitHandle::new(Arc::clone(&park) as Arc<dyn WaitStrategy>);
        let released = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let site = flag_site(&h);
                    let mut token = WaitToken::new();
                    while !stop.load(Ordering::SeqCst) {
                        h.wait(site, &mut token, &mut || !stop.load(Ordering::SeqCst));
                    }
                    released.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Wait until all four are actually parked.
            while park.parks() < 4 {
                std::thread::yield_now();
            }
            // A bounded wake of 2 must not release more than 2 (the flag is
            // still false, so the two woken waiters re-park).
            h.notify_some(flag_site(&h), 2);
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(released.load(Ordering::SeqCst), 0);
            stop.store(true, Ordering::SeqCst);
            h.notify(flag_site(&h));
            // Late re-parkers race the broadcast; keep nudging until all out.
            while released.load(Ordering::SeqCst) < 4 {
                h.notify(flag_site(&h));
                std::thread::yield_now();
            }
        });
        assert!(park.notifies() >= 4);
    }

    #[test]
    fn site_keys_separate_planes_and_namespaces() {
        let a = WaitHandle::new(Arc::new(Spin) as Arc<dyn WaitStrategy>);
        let b = WaitHandle::new(Arc::new(Spin) as Arc<dyn WaitStrategy>);
        assert_ne!(a.namespace(), b.namespace());
        assert_ne!(a.choosing(0).key(), a.ticket(0).key());
        assert_ne!(a.guard().key(), a.attach().key());
        assert_ne!(a.choosing(0).key(), b.choosing(0).key());
        assert_eq!(a.choosing(3).key(), a.choosing(3).key());
    }

    #[test]
    fn strategy_names_round_trip() {
        for name in ["spin", "park"] {
            assert_eq!(strategy_by_name(name).unwrap().name(), name);
        }
        assert!(strategy_by_name("nope").is_none());
        assert!(["spin", "park"].contains(&default_strategy().name()));
    }

    #[test]
    fn default_register_waker_busy_repolls() {
        // Spin's default async path wakes the task immediately.
        use std::sync::Arc as StdArc;
        use std::task::Wake;
        struct Flag(AtomicBool);
        impl Wake for Flag {
            fn wake(self: StdArc<Self>) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let flag = StdArc::new(Flag(AtomicBool::new(false)));
        let waker = Waker::from(StdArc::clone(&flag));
        let spin = Spin;
        assert!(spin.register_waker(
            WaitHandle::new(Arc::new(Spin)).guard(),
            &waker,
            &mut || true
        ));
        assert!(flag.0.load(Ordering::SeqCst), "spin must busy re-poll");
    }
}
