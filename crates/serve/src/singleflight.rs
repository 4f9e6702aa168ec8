//! Single-flight request coalescing: concurrent identical requests elect
//! one leader to do the work; everyone else waits and shares the result.
//!
//! The [`CompileCache`](serenity_core::CompileCache) absorbs *sequential*
//! repetition, but a burst of identical requests all miss before the first
//! compile finishes and would each launch the same search. [`SingleFlight`]
//! closes that window: flights are keyed by the same identity as the cache
//! (backend configuration fingerprint × structural graph fingerprint ×
//! pinned prefix) plus what a response carries beyond it (the graph's
//! name, the request's search budget and capacity target), so two requests
//! coalesce only when the cache would have considered them the same entry
//! and their responses are the same — and because every backend is
//! deterministic, the shared result is bit-identical to what each waiter
//! would have computed itself.
//!
//! # Cancellation and handoff
//!
//! The subtle case is a cancelled leader: its client hung up (or its
//! deadline expired), but the waiters are still live. Failing them all
//! would turn one disconnect into a burst of errors for healthy clients.
//! Instead the leader *abandons* the flight: the key is vacated, waiters
//! wake, and the first to re-enter becomes the new leader and compiles
//! under **its own** deadline and cancel token — a handoff, not a shared
//! failure. Deterministic compile errors (an unschedulable graph), by
//! contrast, *are* shared: every waiter would deterministically hit the
//! same error, so re-running the search N more times helps no one.
//!
//! Leaders are panic-safe: a guard abandons the flight on unwind, so a
//! crashed compile can never strand its waiters behind a key that nobody
//! is working on.
//!
//! # Bounded failure retries
//!
//! Between "deterministic error, share it" and "leader died, hand off"
//! sits the *transient* failure: a contained panic or an injected fault
//! that a fresh attempt may well not hit. [`Work::Fail`] publishes such a
//! failure with retry semantics: the failing leader's own caller gets the
//! failure, but — while the flight's attempt count is within the
//! [`SingleFlight::with_failure_retries`] budget — the key is vacated in a
//! retry state and exactly one waiter re-runs the work as the new leader
//! instead of inheriting the error. Once the budget is exhausted the
//! failure is published like [`Work::Done`], so a deterministic crasher
//! degenerates to at most `1 + retries` executions, never a retry storm.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use serde::Serialize;

/// How often a waiter wakes to poll its own cancellation while the leader
/// works. Coalesced waits are passive, so this only bounds how stale a
/// waiter's view of its own disconnect/deadline can get.
const WAIT_TICK: Duration = Duration::from_millis(10);

/// What a leader's work closure produced.
#[derive(Debug)]
pub enum Work<T> {
    /// The work finished (successfully or with a *deterministic* error);
    /// the value is published to every waiter.
    Done(T),
    /// The work was cut short by this request's own deadline or
    /// cancellation: vacate the flight so a waiter can take over.
    Abandon,
    /// The work failed *transiently* (a contained panic, an injected
    /// fault): the value is returned to this caller, but while the
    /// failure-retry budget lasts the key is vacated so one waiter retries
    /// the work instead of sharing the failure. With the budget exhausted
    /// (or no budget configured) this behaves exactly like [`Work::Done`].
    Fail(T),
}

/// How a [`SingleFlight::run`] call was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightOutcome<T> {
    /// This caller led the flight and computed the value itself.
    Led(T),
    /// A concurrent identical request computed the value; this caller
    /// waited and shares it.
    Shared(T),
    /// The caller's own cancellation check fired (client disconnect or
    /// deadline) before a value was available.
    Cancelled,
}

impl<T> FlightOutcome<T> {
    /// The value, if the flight produced one for this caller.
    pub fn into_value(self) -> Option<T> {
        match self {
            FlightOutcome::Led(v) | FlightOutcome::Shared(v) => Some(v),
            FlightOutcome::Cancelled => None,
        }
    }
}

enum State<T> {
    /// A leader is working.
    Running,
    /// The leader was cancelled; the key is vacated and a waiter should
    /// take over.
    Abandoned,
    /// The leader failed transiently with retry budget left; the key is
    /// vacated and a waiter should retry the work as the new leader.
    Retry,
    /// The leader published a value.
    Done(T),
}

struct Flight<T> {
    state: Mutex<State<T>>,
    wake: Condvar,
    /// How many transient failures preceded this flight (0 for a fresh
    /// key); compared against the failure-retry budget when the leader
    /// returns [`Work::Fail`].
    attempt: u32,
}

/// Point-in-time counters of a [`SingleFlight`] (see `GET /status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct SingleFlightStats {
    /// Flights led: units of work actually executed.
    pub leads: u64,
    /// Results shared by waiters: requests that did *not* execute the work.
    pub coalesced: u64,
    /// Waiters that became leaders after a cancelled leader abandoned.
    pub handoffs: u64,
    /// Waiters that became leaders to *retry* after a transient leader
    /// failure ([`Work::Fail`] within the failure-retry budget).
    pub failure_handoffs: u64,
    /// Requests currently blocked on another request's flight (a gauge,
    /// not a cumulative counter: it falls back to zero when flights
    /// resolve).
    pub waiting: u64,
}

/// The coalescing map (see the module docs).
///
/// `T` is the shared value; it must be `Clone` (use an `Arc` payload so a
/// clone is a pointer bump, not a copy of the compile result).
pub struct SingleFlight<T: Clone> {
    flights: Mutex<HashMap<u64, Arc<Flight<T>>>>,
    failure_retries: u32,
    leads: AtomicU64,
    coalesced: AtomicU64,
    handoffs: AtomicU64,
    failure_handoffs: AtomicU64,
    waiting: AtomicU64,
}

impl<T: Clone> Default for SingleFlight<T> {
    fn default() -> Self {
        SingleFlight::new()
    }
}

impl<T: Clone> std::fmt::Debug for SingleFlight<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SingleFlight")
            .field("leads", &stats.leads)
            .field("coalesced", &stats.coalesced)
            .field("handoffs", &stats.handoffs)
            .field("failure_handoffs", &stats.failure_handoffs)
            .field("waiting", &stats.waiting)
            .finish()
    }
}

impl<T: Clone> SingleFlight<T> {
    /// An empty coalescing map with no failure-retry budget
    /// ([`Work::Fail`] behaves like [`Work::Done`]).
    pub fn new() -> Self {
        SingleFlight {
            flights: Mutex::new(HashMap::new()),
            failure_retries: 0,
            leads: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            handoffs: AtomicU64::new(0),
            failure_handoffs: AtomicU64::new(0),
            waiting: AtomicU64::new(0),
        }
    }

    /// Sets how many times a transient failure ([`Work::Fail`]) promotes a
    /// waiter to retry the work before the failure is shared with every
    /// remaining waiter. `0` (the default) disables retries.
    #[must_use]
    pub fn with_failure_retries(mut self, retries: u32) -> Self {
        self.failure_retries = retries;
        self
    }

    /// Runs `work` under single-flight semantics for `key`.
    ///
    /// If no flight for `key` is in progress, this caller becomes the
    /// leader: `work` runs (exactly once), and its [`Work::Done`] value is
    /// returned as [`FlightOutcome::Led`] and published to every waiter.
    /// If a flight is already in progress, the caller blocks — polling
    /// `cancelled` every few milliseconds — until the leader publishes
    /// ([`FlightOutcome::Shared`]), the caller's own `cancelled` fires
    /// ([`FlightOutcome::Cancelled`]), or the leader abandons, in which
    /// case one waiter takes over as the new leader (a *handoff*) and the
    /// rest keep waiting on the new flight.
    ///
    /// `work` returning [`Work::Abandon`] (the leader's own request died)
    /// vacates the key and yields [`FlightOutcome::Cancelled`] for the
    /// leader itself; a leader that panics abandons the same way before
    /// the panic propagates. [`Work::Fail`] yields the failure to the
    /// leader and — within the failure-retry budget — vacates the key so
    /// one waiter retries as the new leader instead of sharing the error.
    pub fn run(
        &self,
        key: u64,
        cancelled: impl Fn() -> bool,
        work: impl FnOnce() -> Work<T>,
    ) -> FlightOutcome<T> {
        let mut work = Some(work);
        let mut took_over = false;
        let mut retrying = false;
        let mut attempt = 0u32;
        loop {
            let (flight, is_leader) = {
                let mut map = self.flights.lock().unwrap_or_else(PoisonError::into_inner);
                match map.get(&key) {
                    Some(flight) => (Arc::clone(flight), false),
                    None => {
                        let flight = Arc::new(Flight {
                            state: Mutex::new(State::Running),
                            wake: Condvar::new(),
                            attempt,
                        });
                        map.insert(key, Arc::clone(&flight));
                        (flight, true)
                    }
                }
            };
            if is_leader {
                self.leads.fetch_add(1, Ordering::Relaxed);
                if retrying {
                    self.failure_handoffs.fetch_add(1, Ordering::Relaxed);
                } else if took_over {
                    self.handoffs.fetch_add(1, Ordering::Relaxed);
                }
                // The guard abandons the flight if `work` panics, so
                // waiters are never stranded behind a dead leader.
                let mut guard = LeadGuard { owner: self, key, flight: &flight, finished: false };
                let outcome = (work.take().expect("a caller leads at most once"))();
                guard.finished = true;
                drop(guard);
                return match outcome {
                    Work::Done(value) => {
                        self.finish(key, &flight, State::Done(value.clone()));
                        FlightOutcome::Led(value)
                    }
                    Work::Abandon => {
                        self.finish(key, &flight, State::Abandoned);
                        FlightOutcome::Cancelled
                    }
                    Work::Fail(value) => {
                        if flight.attempt < self.failure_retries {
                            // Budget left: vacate so a waiter retries
                            // instead of inheriting this failure.
                            self.finish(key, &flight, State::Retry);
                        } else {
                            self.finish(key, &flight, State::Done(value.clone()));
                        }
                        FlightOutcome::Led(value)
                    }
                };
            }
            // Waiter: block on the flight until it resolves, we are
            // cancelled, or the leader abandons (then retry the election).
            // The `waiting` gauge covers exactly this blocked window (the
            // guard decrements on every exit, including panics and the
            // re-election path where this thread stops being a waiter).
            self.waiting.fetch_add(1, Ordering::SeqCst);
            let _waiting = WaitGuard(&self.waiting);
            let mut state = flight.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                match &*state {
                    State::Done(value) => {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        return FlightOutcome::Shared(value.clone());
                    }
                    State::Abandoned => {
                        took_over = true;
                        break;
                    }
                    State::Retry => {
                        retrying = true;
                        attempt = flight.attempt + 1;
                        break;
                    }
                    State::Running => {
                        if cancelled() {
                            return FlightOutcome::Cancelled;
                        }
                        state = flight
                            .wake
                            .wait_timeout(state, WAIT_TICK)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                }
            }
            // Leader abandoned or failed with retry budget left: loop back
            // and re-elect.
        }
    }

    /// Vacates `key` (only if it still maps to `flight` — a successor
    /// flight under the same key must not be torn down) and publishes
    /// `state` to the flight's waiters.
    fn finish(&self, key: u64, flight: &Arc<Flight<T>>, state: State<T>) {
        {
            let mut map = self.flights.lock().unwrap_or_else(PoisonError::into_inner);
            if map.get(&key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
                map.remove(&key);
            }
        }
        *flight.state.lock().unwrap_or_else(PoisonError::into_inner) = state;
        flight.wake.notify_all();
    }

    /// Number of flights currently in progress.
    pub fn in_flight(&self) -> usize {
        self.flights.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> SingleFlightStats {
        SingleFlightStats {
            leads: self.leads.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            handoffs: self.handoffs.load(Ordering::Relaxed),
            failure_handoffs: self.failure_handoffs.load(Ordering::Relaxed),
            waiting: self.waiting.load(Ordering::SeqCst),
        }
    }
}

/// Decrements the waiting gauge when a waiter stops waiting, however it
/// stops (shared value, cancellation, or re-election into a lead).
struct WaitGuard<'a>(&'a AtomicU64);

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Abandons the flight if the leader's work panics.
struct LeadGuard<'a, T: Clone> {
    owner: &'a SingleFlight<T>,
    key: u64,
    flight: &'a Arc<Flight<T>>,
    finished: bool,
}

impl<T: Clone> Drop for LeadGuard<'_, T> {
    fn drop(&mut self) {
        if !self.finished {
            self.owner.finish(self.key, self.flight, State::Abandoned);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn solo_caller_leads() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        let out = sf.run(1, || false, || Work::Done(7));
        assert_eq!(out, FlightOutcome::Led(7));
        assert_eq!(
            sf.stats(),
            SingleFlightStats {
                leads: 1,
                coalesced: 0,
                handoffs: 0,
                failure_handoffs: 0,
                waiting: 0
            }
        );
        assert_eq!(sf.in_flight(), 0, "completed flights are vacated");
    }

    #[test]
    fn concurrent_identical_requests_run_once() {
        const N: usize = 8;
        let sf: SingleFlight<u32> = SingleFlight::new();
        let executions = AtomicUsize::new(0);
        let gate = Barrier::new(N);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        sf.run(
                            42,
                            || false,
                            || {
                                executions.fetch_add(1, Ordering::SeqCst);
                                // Hold the flight open long enough for every
                                // waiter to arrive.
                                std::thread::sleep(Duration::from_millis(100));
                                Work::Done(99)
                            },
                        )
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap().into_value(), Some(99), "all callers get the value");
            }
        });
        assert_eq!(executions.load(Ordering::SeqCst), 1, "exactly one compile for the burst");
        let stats = sf.stats();
        assert_eq!(stats.leads, 1);
        assert_eq!(stats.coalesced as usize, N - 1);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf: SingleFlight<u64> = SingleFlight::new();
        std::thread::scope(|scope| {
            for k in 0..4u64 {
                let sf = &sf;
                scope.spawn(move || {
                    let out = sf.run(k, || false, || Work::Done(k * 10));
                    assert_eq!(out, FlightOutcome::Led(k * 10));
                });
            }
        });
        assert_eq!(sf.stats().leads, 4);
        assert_eq!(sf.stats().coalesced, 0);
    }

    #[test]
    fn cancelled_leader_hands_off_to_a_waiter() {
        let sf: SingleFlight<&'static str> = SingleFlight::new();
        let gate = Barrier::new(2);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                sf.run(
                    7,
                    || false,
                    || {
                        gate.wait(); // a waiter is now queued behind us
                        std::thread::sleep(Duration::from_millis(50));
                        Work::Abandon // our client hung up
                    },
                )
            });
            let waiter = scope.spawn(|| {
                gate.wait();
                sf.run(7, || false, || Work::Done("from the successor"))
            });
            assert_eq!(leader.join().unwrap(), FlightOutcome::Cancelled);
            // The waiter is promoted and computes the value itself rather
            // than failing with the dead leader.
            assert_eq!(waiter.join().unwrap(), FlightOutcome::Led("from the successor"));
        });
        let stats = sf.stats();
        assert_eq!(stats.handoffs, 1, "the waiter took over");
        assert_eq!(stats.leads, 2);
    }

    #[test]
    fn waiter_cancellation_is_its_own() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        let gate = Barrier::new(2);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                sf.run(
                    7,
                    || false,
                    || {
                        gate.wait();
                        std::thread::sleep(Duration::from_millis(120));
                        Work::Done(5)
                    },
                )
            });
            let impatient = scope.spawn(|| {
                gate.wait();
                // This waiter's own client disconnects immediately.
                sf.run(7, || true, || Work::Done(5))
            });
            assert_eq!(impatient.join().unwrap(), FlightOutcome::Cancelled);
            assert_eq!(leader.join().unwrap(), FlightOutcome::Led(5), "leader is unaffected");
        });
    }

    #[test]
    fn failing_leader_hands_off_to_a_retrying_waiter() {
        let sf: SingleFlight<&'static str> = SingleFlight::new().with_failure_retries(1);
        let gate = Barrier::new(2);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                sf.run(
                    9,
                    || false,
                    || {
                        gate.wait(); // a waiter is now queued behind us
                        std::thread::sleep(Duration::from_millis(50));
                        Work::Fail("transient failure")
                    },
                )
            });
            let waiter = scope.spawn(|| {
                gate.wait();
                sf.run(9, || false, || Work::Done("retried fine"))
            });
            // The failing leader's own caller still sees the failure …
            assert_eq!(leader.join().unwrap(), FlightOutcome::Led("transient failure"));
            // … but the waiter retried the work instead of inheriting it.
            assert_eq!(waiter.join().unwrap(), FlightOutcome::Led("retried fine"));
        });
        let stats = sf.stats();
        assert_eq!(stats.failure_handoffs, 1, "the waiter retried as leader");
        assert_eq!(stats.handoffs, 0, "no cancellation handoff happened");
        assert_eq!(stats.leads, 2);
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn without_a_retry_budget_failures_are_shared() {
        let sf: SingleFlight<&'static str> = SingleFlight::new();
        let gate = Barrier::new(2);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                sf.run(
                    9,
                    || false,
                    || {
                        gate.wait();
                        std::thread::sleep(Duration::from_millis(50));
                        Work::Fail("shared failure")
                    },
                )
            });
            let waiter = scope.spawn(|| {
                gate.wait();
                sf.run(9, || false, || Work::Done("never runs"))
            });
            assert_eq!(leader.join().unwrap(), FlightOutcome::Led("shared failure"));
            assert_eq!(waiter.join().unwrap(), FlightOutcome::Shared("shared failure"));
        });
        assert_eq!(sf.stats().failure_handoffs, 0);
    }

    #[test]
    fn retry_chain_is_bounded_by_the_budget() {
        // Three callers, every execution fails, budget of one retry: the
        // work runs exactly twice and the third caller shares the second
        // failure instead of retrying forever.
        let sf: SingleFlight<u32> = SingleFlight::new().with_failure_retries(1);
        let executions = AtomicUsize::new(0);
        let gate = Barrier::new(3);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        sf.run(
                            5,
                            || false,
                            || {
                                let n = executions.fetch_add(1, Ordering::SeqCst) as u32;
                                // Hold the flight open so the pack stays
                                // coalesced across the retry.
                                std::thread::sleep(Duration::from_millis(60));
                                Work::Fail(n)
                            },
                        )
                    })
                })
                .collect();
            let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let led = outcomes.iter().filter(|o| matches!(o, FlightOutcome::Led(_))).count();
            assert_eq!(led, 2, "one lead plus exactly one retry");
            assert!(
                outcomes.iter().any(|o| matches!(o, FlightOutcome::Shared(1))),
                "the last caller shares the exhausted-budget failure, got {outcomes:?}"
            );
        });
        assert_eq!(executions.load(Ordering::SeqCst), 2);
        assert_eq!(sf.stats().failure_handoffs, 1);
    }

    #[test]
    fn panicking_leader_does_not_strand_waiters() {
        let sf = Arc::new(SingleFlight::<u32>::new());
        let gate = Arc::new(Barrier::new(2));
        let leader = {
            let (sf, gate) = (Arc::clone(&sf), Arc::clone(&gate));
            std::thread::spawn(move || {
                sf.run(
                    3,
                    || false,
                    || -> Work<u32> {
                        gate.wait();
                        std::thread::sleep(Duration::from_millis(30));
                        panic!("compile blew up");
                    },
                )
            })
        };
        gate.wait();
        // The waiter must be promoted once the leader's unwind abandons.
        let out = sf.run(3, || false, || Work::Done(11));
        assert_eq!(out.into_value(), Some(11));
        assert!(leader.join().is_err(), "leader panicked");
        assert_eq!(sf.in_flight(), 0);
    }
}
