//! A deterministic-seed interleaving explorer (a small shuttle-style
//! scheduler, no external dependencies).
//!
//! Concurrency bugs hide in interleavings the OS scheduler rarely picks.
//! This explorer makes the schedule the test input: "threads" are step
//! closures over shared state, a seeded PRNG chooses which runnable
//! thread steps next, and an invariant callback runs after every step.
//! A failing run reports its seed — replaying the same seed replays the
//! exact same schedule, so every failure is reproducible by construction.
//!
//! ```
//! use mmdb_check::explore::{Explorer, Scenario, Step};
//!
//! let explorer = Explorer::new(32);
//! let result = explorer.explore(|| Scenario {
//!     state: 0u32,
//!     threads: (0..2)
//!         .map(|_| {
//!             Box::new(|n: &mut u32| {
//!                 *n += 1;
//!                 Step::Done
//!             }) as Box<dyn FnMut(&mut u32) -> Step>
//!         })
//!         .collect(),
//!     invariant: Box::new(|n| if *n <= 2 { Ok(()) } else { Err("overrun".into()) }),
//! });
//! assert!(result.is_ok());
//! ```

use std::collections::HashSet;
use std::fmt;

/// What one scheduling quantum of a thread did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Made progress; more steps remain.
    Ran,
    /// Could not progress (waiting on state another thread must change).
    /// The scheduler will retry it later.
    Blocked,
    /// Finished; the scheduler retires the thread.
    Done,
}

/// A "thread": each call advances it by one atomic step.
pub type ThreadFn<S> = Box<dyn FnMut(&mut S) -> Step>;

/// The invariant callback; an `Err` is a finding and aborts the run.
pub type InvariantFn<S> = Box<dyn Fn(&S) -> Result<(), String>>;

/// One explorable execution: shared state, step closures, and the
/// invariant that must hold after every step.
pub struct Scenario<S> {
    /// The shared state all threads operate on.
    pub state: S,
    /// The "threads", stepped one quantum at a time by the scheduler.
    pub threads: Vec<ThreadFn<S>>,
    /// Checked after every step and once more at quiescence.
    pub invariant: InvariantFn<S>,
}

/// A reproducible schedule: the seed that generated it and the sequence
/// of thread indices that actually stepped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// PRNG seed; replaying it regenerates `trace` exactly.
    pub seed: u64,
    /// Thread index chosen at each quantum, in order.
    pub trace: Vec<usize>,
}

/// A failed exploration: the schedule that produced it and what broke.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The reproducing schedule. Re-run the same scenario through
    /// [`Explorer::replay`] with `schedule.seed` to reproduce.
    pub schedule: Schedule,
    /// The invariant's diagnostic (or a deadlock/livelock report).
    pub message: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interleaving failure under seed {} ({} steps: {:?}): {}",
            self.schedule.seed,
            self.schedule.trace.len(),
            self.schedule.trace,
            self.message
        )
    }
}

/// The deterministic splitmix64 stream used to pick threads. Public so
/// other checkers (and tests) can derive reproducible shuffles from a
/// seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the stream.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Cap on the steps of one schedule; exceeding it is reported as a
/// livelock.
const MAX_STEPS: usize = 10_000;

/// Drives scenarios through many seeded schedules.
#[derive(Debug, Clone)]
pub struct Explorer {
    seeds: u64,
}

impl Explorer {
    /// Explore `seeds` distinct schedules (seeds `0..seeds`).
    #[must_use]
    pub fn new(seeds: u64) -> Self {
        Explorer { seeds }
    }

    /// Run every seed against a fresh scenario; the first failing seed
    /// stops exploration and is returned with its reproducing schedule.
    pub fn explore<S>(&self, mut scenario: impl FnMut() -> Scenario<S>) -> Result<(), Failure> {
        for seed in 0..self.seeds {
            self.run(seed, scenario())?;
        }
        Ok(())
    }

    /// Re-run one specific seed (the reproduction path: paste the seed a
    /// failure printed and step through the identical schedule).
    pub fn replay<S>(&self, seed: u64, scenario: Scenario<S>) -> Result<(), Failure> {
        self.run(seed, scenario)
    }

    fn run<S>(&self, seed: u64, scenario: Scenario<S>) -> Result<(), Failure> {
        let Scenario {
            mut state,
            mut threads,
            invariant,
        } = scenario;
        let mut rng = SplitMix64::new(seed);
        let mut active: Vec<usize> = (0..threads.len()).collect();
        let mut blocked: HashSet<usize> = HashSet::new();
        let mut trace: Vec<usize> = Vec::new();
        let fail = |trace: Vec<usize>, message: String| Failure {
            schedule: Schedule { seed, trace },
            message,
        };
        while !active.is_empty() {
            if trace.len() >= MAX_STEPS {
                return Err(fail(
                    trace,
                    format!("no quiescence after {MAX_STEPS} steps (livelock?)"),
                ));
            }
            let pick = (rng.next_u64() % active.len() as u64) as usize;
            let tid = active[pick];
            let step = threads[tid](&mut state);
            trace.push(tid);
            match step {
                Step::Ran => {
                    blocked.clear();
                }
                Step::Done => {
                    active.swap_remove(pick);
                    blocked.clear();
                }
                Step::Blocked => {
                    blocked.insert(tid);
                    if active.iter().all(|t| blocked.contains(t)) {
                        return Err(fail(
                            trace,
                            format!("deadlock: all {} remaining threads blocked", active.len()),
                        ));
                    }
                    continue; // nothing changed; skip the invariant
                }
            }
            if let Err(msg) = invariant(&state) {
                return Err(fail(trace, msg));
            }
        }
        // Quiescent point: every thread completed.
        invariant(&state).map_err(|msg| fail(trace, msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock_checks::check_lock_table;
    use mmdb_lock::{LockManager, LockMode, LockTarget};

    /// A check-then-act "lock" with a window between observing the flag
    /// and setting it — the textbook interleaving bug.
    struct Toy {
        flag: bool,
        critical: u32,
    }

    fn buggy_scenario() -> Scenario<Toy> {
        let mk = || {
            let mut phase = 0u8;
            Box::new(move |s: &mut Toy| match phase {
                0 => {
                    if s.flag {
                        Step::Blocked
                    } else {
                        phase = 1; // observed free; will acquire NEXT step
                        Step::Ran
                    }
                }
                1 => {
                    s.flag = true;
                    s.critical += 1;
                    phase = 2;
                    Step::Ran
                }
                _ => {
                    s.critical -= 1;
                    s.flag = false;
                    Step::Done
                }
            }) as Box<dyn FnMut(&mut Toy) -> Step>
        };
        Scenario {
            state: Toy {
                flag: false,
                critical: 0,
            },
            threads: vec![mk(), mk()],
            invariant: Box::new(|s| {
                if s.critical <= 1 {
                    Ok(())
                } else {
                    Err(format!("{} threads in the critical section", s.critical))
                }
            }),
        }
    }

    #[test]
    fn buggy_lock_is_caught_and_the_seed_replays() {
        let explorer = Explorer::new(64);
        let failure = explorer
            .explore(buggy_scenario)
            .expect_err("check-then-act race must be found within 64 schedules");
        assert!(failure.message.contains("critical section"), "{failure}");
        // Replay from nothing but the printed seed: identical schedule,
        // identical diagnosis.
        let replayed = explorer
            .replay(failure.schedule.seed, buggy_scenario())
            .expect_err("replaying the failing seed must fail again");
        assert_eq!(replayed.schedule, failure.schedule);
        assert_eq!(replayed.message, failure.message);
        // A different scenario instance under a fresh explorer too (the
        // seed alone carries the reproduction).
        let again = Explorer::new(1)
            .replay(failure.schedule.seed, buggy_scenario())
            .expect_err("seed is self-contained");
        assert_eq!(again.schedule.trace, failure.schedule.trace);
    }

    #[test]
    fn atomic_lock_survives_all_schedules() {
        let scenario = || {
            let mk = || {
                let mut acquired = false;
                Box::new(move |s: &mut Toy| {
                    if !acquired {
                        if s.flag {
                            return Step::Blocked;
                        }
                        // Check and set in ONE step: no window.
                        s.flag = true;
                        s.critical += 1;
                        acquired = true;
                        return Step::Ran;
                    }
                    s.critical -= 1;
                    s.flag = false;
                    Step::Done
                }) as Box<dyn FnMut(&mut Toy) -> Step>
            };
            Scenario {
                state: Toy {
                    flag: false,
                    critical: 0,
                },
                threads: vec![mk(), mk(), mk()],
                invariant: Box::new(|s| {
                    if s.critical <= 1 {
                        Ok(())
                    } else {
                        Err(format!("{} threads in the critical section", s.critical))
                    }
                }),
            }
        };
        Explorer::new(128).explore(scenario).unwrap();
    }

    #[test]
    fn real_lock_manager_exploration_is_clean() {
        let scenario = || {
            let mgr = LockManager::new(8);
            let txns = [mgr.begin(), mgr.begin(), mgr.begin()];
            let target = LockTarget::new(1, 0);
            let threads = txns
                .iter()
                .enumerate()
                .map(|(i, &txn)| {
                    // Mix shared and exclusive contenders on one target.
                    let mode = if i == 0 {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    let mut holding = false;
                    Box::new(move |mgr: &mut LockManager| {
                        if holding {
                            mgr.release_all(txn);
                            return Step::Done;
                        }
                        match mgr.lock_step(txn, target, mode) {
                            Ok(true) => {
                                holding = true;
                                Step::Ran
                            }
                            Ok(false) => Step::Blocked,
                            Err(e) => panic!("single-target workload cannot deadlock: {e}"),
                        }
                    }) as Box<dyn FnMut(&mut LockManager) -> Step>
                })
                .collect();
            Scenario {
                state: mgr,
                threads,
                invariant: Box::new(|mgr: &LockManager| {
                    check_lock_table(&mgr.snapshot()).into_result()
                }),
            }
        };
        Explorer::new(64).explore(scenario).unwrap();
    }
}
