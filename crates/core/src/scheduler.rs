//! Multi-query admission control.
//!
//! The concurrent engine ([`crate::warehouse::Skalla`]) lets queries
//! share the persistent site connections, but unbounded concurrency
//! would let a burst of queries thrash the sites' morsel pools and the
//! coordinator's merge trees. The [`QueryScheduler`] is a counting
//! semaphore with a *bounded waiting room*:
//!
//! * up to `max_concurrent` queries hold an execution [`Permit`] at
//!   once;
//! * up to `queue_capacity` more wait for a permit, each for at most
//!   `queue_timeout`;
//! * anything beyond that is rejected immediately with
//!   [`AdmissionError::QueueFull`] — fail fast beats an unbounded,
//!   ever-staler backlog under overload.
//!
//! Both failure modes surface as typed errors so callers can
//! distinguish "shed load" from "query broke". The scheduler also
//! hands out the monotonically increasing [`QueryId`]s that frames
//! carry on the wire (id 0 is reserved for the control stream).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Identifies one admitted query on the wire and in traces. Ids start
/// at 1 and increase monotonically per engine; 0 is reserved for the
/// control stream.
pub type QueryId = u32;

/// Why a query was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The waiting room is full: `max_concurrent` queries are running
    /// and `queue_capacity` more are already queued.
    QueueFull {
        /// The concurrency limit in force.
        max_concurrent: usize,
        /// The waiting-room bound in force.
        queue_capacity: usize,
    },
    /// A permit did not free up within the queue timeout.
    QueueTimeout {
        /// How long the query waited.
        waited: Duration,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull {
                max_concurrent,
                queue_capacity,
            } => write!(
                f,
                "admission queue full: {max_concurrent} queries running, \
                 {queue_capacity} queued"
            ),
            AdmissionError::QueueTimeout { waited } => write!(
                f,
                "query timed out in the admission queue after {:.1}s",
                waited.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Scheduler knobs; see the module docs for the admission discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// How many queries may execute at once (≥ 1).
    pub max_concurrent: usize,
    /// How many queries may wait for a permit before new arrivals are
    /// rejected outright.
    pub queue_capacity: usize,
    /// How long a queued query waits before giving up.
    pub queue_timeout: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            max_concurrent: 4,
            queue_capacity: 16,
            queue_timeout: Duration::from_secs(30),
        }
    }
}

/// Shared semaphore state (std primitives: a `Condvar` pairs with
/// `std::sync::Mutex`).
#[derive(Debug)]
struct Sem {
    state: Mutex<SemState>,
    available: Condvar,
}

impl Sem {
    /// The state behind the lock, poisoned or not: every update of
    /// [`SemState`] is a single assignment under the lock, so a holder
    /// that panicked left nothing half-written and the guard is good.
    fn lock(&self) -> MutexGuard<'_, SemState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Debug)]
struct SemState {
    /// Permits currently held.
    running: usize,
    /// Queries currently blocked waiting for a permit.
    waiting: usize,
}

/// Admission control for a concurrent engine: a counting semaphore with
/// a bounded, timeout-bounded waiting room, plus the query-id counter.
#[derive(Debug)]
pub struct QueryScheduler {
    cfg: SchedulerConfig,
    sem: Arc<Sem>,
    next_id: AtomicU32,
    admitted: AtomicU64,
    rejected: AtomicU64,
    timed_out: AtomicU64,
}

impl QueryScheduler {
    /// A scheduler enforcing `cfg` (`max_concurrent` is clamped to ≥ 1).
    pub fn new(cfg: SchedulerConfig) -> QueryScheduler {
        let cfg = SchedulerConfig {
            max_concurrent: cfg.max_concurrent.max(1),
            ..cfg
        };
        QueryScheduler {
            cfg,
            sem: Arc::new(Sem {
                state: Mutex::new(SemState {
                    running: 0,
                    waiting: 0,
                }),
                available: Condvar::new(),
            }),
            next_id: AtomicU32::new(1),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Queries currently holding a permit.
    pub fn running(&self) -> usize {
        self.sem.lock().running
    }

    /// Queries currently waiting for a permit.
    pub fn waiting(&self) -> usize {
        self.sem.lock().waiting
    }

    /// Queries admitted over this scheduler's lifetime (monotonic).
    pub fn admitted_total(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Queries rejected outright because the waiting room was full
    /// (monotonic).
    pub fn rejected_total(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Queries that gave up after waiting out the queue timeout
    /// (monotonic).
    pub fn timed_out_total(&self) -> u64 {
        self.timed_out.load(Ordering::Relaxed)
    }

    /// The next query id (monotonic, starting at 1; skips 0 on wrap —
    /// id 0 is the control stream).
    pub fn next_query_id(&self) -> QueryId {
        loop {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            if id != 0 {
                return id;
            }
        }
    }

    /// Admit a query: returns a [`Permit`] immediately if a slot is
    /// free, waits up to the queue timeout if the waiting room has
    /// space, and rejects with [`AdmissionError::QueueFull`] otherwise.
    /// Dropping the permit releases the slot.
    pub fn admit(&self) -> Result<Permit, AdmissionError> {
        let result = self.admit_inner();
        let counter = match &result {
            Ok(_) => &self.admitted,
            Err(AdmissionError::QueueFull { .. }) => &self.rejected,
            Err(AdmissionError::QueueTimeout { .. }) => &self.timed_out,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn admit_inner(&self) -> Result<Permit, AdmissionError> {
        let mut state = self.sem.lock();
        if state.running < self.cfg.max_concurrent {
            state.running += 1;
            return Ok(Permit {
                sem: Arc::clone(&self.sem),
            });
        }
        if state.waiting >= self.cfg.queue_capacity {
            return Err(AdmissionError::QueueFull {
                max_concurrent: self.cfg.max_concurrent,
                queue_capacity: self.cfg.queue_capacity,
            });
        }
        state.waiting += 1;
        let start = Instant::now();
        let result = loop {
            let remaining = match self.cfg.queue_timeout.checked_sub(start.elapsed()) {
                Some(r) if !r.is_zero() => r,
                _ => {
                    break Err(AdmissionError::QueueTimeout {
                        waited: start.elapsed(),
                    })
                }
            };
            let (next, timed_out) = self
                .sem
                .available
                .wait_timeout(state, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            if state.running < self.cfg.max_concurrent {
                state.running += 1;
                break Ok(Permit {
                    sem: Arc::clone(&self.sem),
                });
            }
            if timed_out.timed_out() {
                break Err(AdmissionError::QueueTimeout {
                    waited: start.elapsed(),
                });
            }
        };
        state.waiting -= 1;
        result
    }
}

/// The right to execute one query; dropping it releases the slot and
/// wakes one queued query.
#[derive(Debug)]
pub struct Permit {
    sem: Arc<Sem>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut state = self.sem.lock();
        state.running = state.running.saturating_sub(1);
        drop(state);
        self.sem.available.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(max: usize, cap: usize, timeout_ms: u64) -> QueryScheduler {
        QueryScheduler::new(SchedulerConfig {
            max_concurrent: max,
            queue_capacity: cap,
            queue_timeout: Duration::from_millis(timeout_ms),
        })
    }

    #[test]
    fn admits_up_to_max_concurrent() {
        let s = sched(2, 0, 10);
        let p1 = s.admit().unwrap();
        let _p2 = s.admit().unwrap();
        assert_eq!(s.running(), 2);
        // Queue capacity 0: the third is rejected outright.
        assert_eq!(
            s.admit().unwrap_err(),
            AdmissionError::QueueFull {
                max_concurrent: 2,
                queue_capacity: 0
            }
        );
        drop(p1);
        let _p3 = s.admit().unwrap();
        assert_eq!(s.running(), 2);
    }

    #[test]
    fn queued_query_times_out_cleanly() {
        let s = sched(1, 4, 50);
        let _p = s.admit().unwrap();
        let t = Instant::now();
        match s.admit().unwrap_err() {
            AdmissionError::QueueTimeout { waited } => {
                assert!(waited >= Duration::from_millis(50));
                assert!(t.elapsed() < Duration::from_secs(5), "no unbounded wait");
            }
            e => panic!("expected QueueTimeout, got {e}"),
        }
        assert_eq!(s.waiting(), 0, "waiter count restored after timeout");
    }

    #[test]
    fn released_permit_wakes_a_waiter() {
        let s = Arc::new(sched(1, 4, 5_000));
        let p = s.admit().unwrap();
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.admit().map(|_| ()));
        // Give the waiter time to enqueue, then free the slot.
        while s.waiting() == 0 {
            std::thread::yield_now();
        }
        drop(p);
        waiter.join().unwrap().expect("waiter admitted");
    }

    #[test]
    fn query_ids_start_at_one_and_increase() {
        let s = sched(1, 0, 10);
        assert_eq!(s.next_query_id(), 1);
        assert_eq!(s.next_query_id(), 2);
        assert_eq!(s.next_query_id(), 3);
    }

    #[test]
    fn lifetime_totals_tally_every_outcome() {
        let s = sched(1, 0, 10);
        let p = s.admit().unwrap();
        assert!(s.admit().is_err()); // queue capacity 0 → rejected
        drop(p);
        let s2 = sched(1, 4, 20);
        let _p = s2.admit().unwrap();
        assert!(s2.admit().is_err()); // waits, then times out
        assert_eq!(
            (s.admitted_total(), s.rejected_total(), s.timed_out_total()),
            (1, 1, 0)
        );
        assert_eq!(
            (s2.admitted_total(), s2.rejected_total(), s2.timed_out_total()),
            (1, 0, 1)
        );
    }

    #[test]
    fn errors_display_cleanly() {
        let full = AdmissionError::QueueFull {
            max_concurrent: 4,
            queue_capacity: 16,
        };
        assert!(full.to_string().contains("queue full"));
        let to = AdmissionError::QueueTimeout {
            waited: Duration::from_secs(30),
        };
        assert!(to.to_string().contains("timed out"));
    }
}
