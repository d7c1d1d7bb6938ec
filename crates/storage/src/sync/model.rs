//! Deterministic schedule-exploring stress harness (a mini-loom).
//!
//! [`explore`] runs a set of closures on real OS threads but serializes
//! them cooperatively: exactly one thread is runnable at a time, and at
//! every *schedule point* (each operation on the instrumented atomics of
//! [`crate::sync::atomic`], i.e. each touch of a skiplist link pointer or
//! shared counter) the scheduler picks the next thread to run from a
//! seeded splitmix64 RNG, weighted by per-thread speeds that are redrawn
//! every few picks. A run is fully determined by its seed: the
//! sequence of chosen thread ids is the *trace*, returned to the caller so
//! test suites can count distinct interleavings and replay failures.
//!
//! Exploration is random rather than exhaustive (the schedule space of the
//! skiplist operations is far beyond enumeration), but thousands of seeded
//! runs cover thousands of distinct interleavings, and any failing seed
//! reproduces its schedule exactly.
//!
//! The harness also provides the **use-after-evict detector**: while a
//! model run is active, epoch reclamation does not actually free nodes —
//! [`try_quarantine`] records the node's address in a freed-set and leaks
//! the memory until the end of the run (so addresses are never reused
//! within a run). Every instrumented pointer load is screened against the
//! freed-set ([`check_loaded_pointer`]); following an edge into reclaimed
//! memory aborts the run with the offending trace instead of silently
//! reading garbage.
//!
//! Scheduled threads must not block on locks held by descheduled threads.
//! The structures explored here (the skiplists, the flush trigger) are
//! lock-free, and the epoch internals never hit a schedule point while
//! holding their internal mutexes, so the cooperative scheduler cannot
//! deadlock on them.

use std::cell::RefCell;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use crate::sync::epoch::Deferred;

/// Hard cap on schedule points per run; exceeding it means a livelock
/// (e.g. two threads endlessly failing CAS against each other under an
/// adversarial schedule that never lets either finish — impossible with a
/// fair RNG, so hitting the cap is a bug).
const STEP_LIMIT: usize = 1_000_000;

/// Picks between redraws of the per-thread speeds. Threads run at uneven,
/// shifting speeds (weights 1, 2, 4 or 8): a thread that is 8x faster than
/// a peer for a stretch completes a whole operation inside the peer's
/// two-step window — the shape of check-then-act races — and the next
/// stretch can reverse the roles. A uniform pick makes such schedules
/// exponentially rare.
const PHASE: usize = 16;

/// Thread id meaning "nobody is scheduled" (all threads finished).
const NOBODY: usize = usize::MAX;

struct Sched {
    runnable: Vec<bool>,
    /// Per-thread scheduling weight, redrawn every [`PHASE`] picks.
    weight: Vec<u64>,
    current: usize,
    rng: u64,
    trace: Vec<u8>,
    steps: usize,
    /// Untagged addresses of nodes epoch reclamation has declared freed
    /// during this run (quarantined, not actually freed).
    freed: HashSet<usize>,
    /// The quarantined deferred drops, executed for real when the run ends.
    quarantine: Vec<Deferred>,
    /// First panic observed in a worker (message), replayed by `explore`.
    panic: Option<String>,
}

struct Model {
    state: Mutex<Sched>,
    cv: Condvar,
}

thread_local! {
    /// The model run this thread belongs to, if any.
    static CURRENT: RefCell<Option<(Arc<Model>, usize)>> = const { RefCell::new(None) };
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Pick the next thread among the runnable ones and record it in the trace.
fn choose_next(s: &mut Sched) {
    let alive: Vec<usize> = s
        .runnable
        .iter()
        .enumerate()
        .filter(|(_, r)| **r)
        .map(|(i, _)| i)
        .collect();
    if alive.is_empty() {
        s.current = NOBODY;
        return;
    }
    if s.trace.len().is_multiple_of(PHASE) {
        for w in s.weight.iter_mut() {
            *w = 1 << (splitmix64(&mut s.rng) % 4);
        }
    }
    let total: u64 = alive.iter().map(|&t| s.weight[t]).sum();
    let r = splitmix64(&mut s.rng);
    let mut ticket = ((r as u128 * total as u128) >> 64) as u64;
    s.current = alive[alive.len() - 1];
    for &t in &alive {
        if ticket < s.weight[t] {
            s.current = t;
            break;
        }
        ticket -= s.weight[t];
    }
    s.trace.push(s.current as u8);
}

/// Called by the instrumented atomics before every operation. Outside a
/// model run this is a no-op.
pub fn schedule_point() {
    let Some((model, tid)) = CURRENT.with(|c| c.borrow().clone()) else {
        return;
    };
    let mut s = lock_ignore_poison(&model.state);
    s.steps += 1;
    if s.steps > STEP_LIMIT {
        s.panic
            .get_or_insert_with(|| "model run exceeded the step limit (livelock?)".into());
        panic!("model run exceeded the step limit (livelock?)");
    }
    choose_next(&mut s);
    if s.current != tid {
        model.cv.notify_all();
        while s.current != tid && s.runnable[tid] {
            s = model.cv.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Called by the instrumented `AtomicUsize` after every load: if the value
/// (with tag bits stripped) is the address of a node the epoch scheme has
/// already declared freed, the structure leaked a live edge into reclaimed
/// memory — fail the run.
pub fn check_loaded_pointer(value: usize) {
    let Some((model, _)) = CURRENT.with(|c| c.borrow().clone()) else {
        return;
    };
    let addr = value & !0b111;
    if addr == 0 {
        return;
    }
    let mut s = lock_ignore_poison(&model.state);
    if s.freed.contains(&addr) {
        let trace = s.trace.clone();
        s.panic.get_or_insert_with(|| {
            format!("use-after-evict: loaded edge into freed node {addr:#x} (trace {trace:?})")
        });
        drop(s);
        panic!("use-after-evict: loaded edge into freed node {addr:#x}");
    }
}

/// Intercept a deferred drop while a model run is active on this thread:
/// record the address as freed and quarantine the memory until the end of
/// the run. Returns the deferred back when no model run is active (the
/// caller frees it normally).
pub(crate) fn try_quarantine(d: Deferred) -> Option<Deferred> {
    let Some((model, _)) = CURRENT.with(|c| c.borrow().clone()) else {
        return Some(d);
    };
    let mut s = lock_ignore_poison(&model.state);
    s.freed.insert(d.addr());
    s.quarantine.push(d);
    None
}

/// Run `threads` under the cooperative scheduler with the given seed.
/// Returns the schedule trace. Panics (after all workers have stopped) if
/// any worker panicked — including detector trips — embedding the seed so
/// the failure replays.
pub fn explore(seed: u64, threads: Vec<Box<dyn FnOnce() + Send + 'static>>) -> Vec<u8> {
    let n = threads.len();
    assert!(n >= 1 && n <= u8::MAX as usize, "1..=255 threads");
    let model = Arc::new(Model {
        state: Mutex::new(Sched {
            runnable: vec![true; n],
            weight: vec![1; n],
            current: 0,
            rng: seed ^ 0x6A09_E667_F3BC_C908,
            trace: Vec::new(),
            steps: 0,
            freed: HashSet::new(),
            quarantine: Vec::new(),
            panic: None,
        }),
        cv: Condvar::new(),
    });
    choose_next(&mut lock_ignore_poison(&model.state));

    let handles: Vec<_> = threads
        .into_iter()
        .enumerate()
        .map(|(tid, f)| {
            let model = model.clone();
            std::thread::spawn(move || {
                CURRENT.with(|c| *c.borrow_mut() = Some((model.clone(), tid)));
                {
                    let mut s = lock_ignore_poison(&model.state);
                    while s.current != tid {
                        if s.current == NOBODY {
                            break; // every peer already died/finished
                        }
                        s = model.cv.wait(s).unwrap_or_else(|p| p.into_inner());
                    }
                }
                let result = catch_unwind(AssertUnwindSafe(f));
                CURRENT.with(|c| *c.borrow_mut() = None);
                let mut s = lock_ignore_poison(&model.state);
                if let Err(payload) = result {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "worker panicked".into());
                    s.panic.get_or_insert(msg);
                }
                s.runnable[tid] = false;
                choose_next(&mut s);
                model.cv.notify_all();
            })
        })
        .collect();

    for h in handles {
        let _ = h.join();
    }

    let (trace, quarantine, panic) = {
        let mut s = lock_ignore_poison(&model.state);
        (
            s.trace.clone(),
            std::mem::take(&mut s.quarantine),
            s.panic.take(),
        )
    };
    // Execute the quarantined frees for real now that no worker can touch
    // the nodes; clear the freed-set implicitly by dropping the model.
    for d in quarantine {
        d.run_now();
    }
    if let Some(msg) = panic {
        panic!("model run failed (seed {seed}): {msg}");
    }
    trace
}
