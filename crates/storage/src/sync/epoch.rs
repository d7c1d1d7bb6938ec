//! Epoch-based memory reclamation for the lock-free skiplists.
//!
//! This is an in-repo implementation of the `crossbeam-epoch` API surface
//! the storage crate relies on (the build environment is offline, so the
//! dependency cannot be fetched). The algorithm is the classic three-epoch
//! scheme:
//!
//! * a global epoch counter advances only when every *pinned* thread has
//!   observed the current epoch;
//! * a thread reads shared pointers only while pinned ([`pin`] /
//!   [`Guard`]), which publishes the epoch it entered under;
//! * memory unlinked from a structure is not freed but *deferred*
//!   ([`Guard::defer_destroy`]) stamped with the epoch at unlink time; it
//!   is reclaimed once the global epoch has advanced **two** steps past
//!   that stamp — by then every thread that could have held a reference
//!   has unpinned.
//!
//! Nodes free themselves: [`Owned`] and [`Guard::defer_destroy`] release an
//! allocation through the node type's [`Reclaim`] impl, so a node may be any
//! allocation shape (the skiplists use one block holding header and tower),
//! not only a `Box`.
//!
//! The collector state is an ordinary value ([`Collector`]); the free
//! functions ([`pin`], [`force_collect`], [`pending_garbage`]) use one
//! process-wide default instance through a thread-local [`LocalHandle`].
//!
//! Link pointers ([`Atomic`]) are stored in
//! [`crate::sync::atomic::AtomicUsize`], so under the `model-check`
//! feature every load/store/CAS on a skiplist edge is a schedule point for
//! the interleaving explorer and every load is screened against the freed
//! node registry. The reclamation bookkeeping itself (participant epochs,
//! the garbage list) deliberately uses raw std atomics and mutexes: those
//! interleavings are not what the explorer is aimed at, and instrumenting
//! them would blow up the schedule space.
//!
//! Tagged pointers: the low `align_of::<T>() - 1` bits of an edge carry a
//! tag (the skiplists use bit 0 as the Harris-style RETIRED mark). `Shared`
//! exposes [`Shared::tag`] / [`Shared::with_tag`]; `as_raw`/`as_ref` always
//! strip the tag.

use std::cell::Cell;
use std::marker::PhantomData;
use std::mem;
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::sync::atomic::{AtomicUsize, Ordering};

/// Participant epoch value meaning "not currently pinned".
const INACTIVE: usize = usize::MAX;

/// A full collection pass runs every this-many unpins per thread.
const COLLECT_EVERY: usize = 8;

/// A heap node that knows how to free itself.
pub trait Reclaim {
    /// Drop the node's contents and free its allocation.
    ///
    /// # Safety
    ///
    /// `this` must be the untagged address of a live allocation of the
    /// implementing type, uniquely owned by the caller (unreachable for
    /// every other thread), and must not be used afterwards.
    unsafe fn reclaim(this: *mut Self);
}

// ---------------------------------------------------------------------------
// Collector state.
// ---------------------------------------------------------------------------

struct Participant {
    /// Epoch this thread was pinned under, or [`INACTIVE`].
    epoch: StdAtomicUsize,
}

/// A deferred destruction: the type-erased drop of one unlinked node.
pub(crate) struct Deferred {
    /// Global epoch at the moment the node was unlinked.
    epoch: usize,
    /// Untagged address of the allocation (for the model's freed-node set).
    #[cfg_attr(not(feature = "model-check"), allow(dead_code))]
    addr: usize,
    data: *mut u8,
    // SAFETY contract of the stored fn: callable exactly once with the
    // `data` pointer above, after reclamation is proven safe (see execute).
    dropper: unsafe fn(*mut u8),
}

// SAFETY: a Deferred is only ever executed once, after the epoch scheme has
// proven no thread can still reach the allocation; the raw pointer is not
// shared concurrently, merely stored until that point.
unsafe impl Send for Deferred {}

impl Deferred {
    /// Untagged address of the allocation this will free.
    #[cfg(feature = "model-check")]
    pub(crate) fn addr(&self) -> usize {
        self.addr
    }

    /// Run the deferred drop for real.
    pub(crate) fn run_now(self) {
        // SAFETY: `data`/`dropper` were built in `defer_destroy` from a
        // node pointer and its own type's `Reclaim::reclaim`, and `self` is
        // consumed, so the drop runs exactly once.
        unsafe { (self.dropper)(self.data) }
    }

    /// Free the allocation, or hand it to the interleaving model's
    /// quarantine when a model run is active on this thread (the model
    /// records the address as freed and leaks the memory until the end of
    /// the run so addresses are never reused within a run — that makes the
    /// use-after-evict check exact).
    fn execute(self) {
        #[cfg(feature = "model-check")]
        let this = match crate::sync::model::try_quarantine(self) {
            Some(d) => d,
            None => return,
        };
        #[cfg(not(feature = "model-check"))]
        let this = self;
        this.run_now();
    }
}

struct Global {
    epoch: StdAtomicUsize,
    registry: Mutex<Vec<Arc<Participant>>>,
    garbage: Mutex<Vec<Deferred>>,
}

/// Lock a mutex, ignoring poisoning (a panicking test thread must not wedge
/// reclamation for every other test in the process).
fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Try to advance `global`'s epoch, then free garbage at least two epochs
/// old.
fn collect(global: &Global) {
    let observed = global.epoch.load(StdOrdering::SeqCst);
    let all_caught_up = lock_ignore_poison(&global.registry).iter().all(|p| {
        let e = p.epoch.load(StdOrdering::SeqCst);
        e == INACTIVE || e == observed
    });
    if all_caught_up {
        let _ = global.epoch.compare_exchange(
            observed,
            observed.wrapping_add(1),
            StdOrdering::SeqCst,
            StdOrdering::SeqCst,
        );
    }
    let now = global.epoch.load(StdOrdering::SeqCst);
    let ready: Vec<Deferred> = {
        let mut garbage = lock_ignore_poison(&global.garbage);
        let mut ready = Vec::new();
        let mut i = 0;
        while i < garbage.len() {
            if now.wrapping_sub(garbage[i].epoch) >= 2 {
                ready.push(garbage.swap_remove(i));
            } else {
                i += 1;
            }
        }
        ready
    };
    crate::metrics::epoch_reclaimed().add(ready.len() as u64);
    for d in ready {
        d.execute();
    }
}

impl Drop for Global {
    fn drop(&mut self) {
        // Every handle (and so every guard) holds an `Arc` to this state:
        // once it drops nobody is pinned and nothing can reach the garbage.
        let garbage = mem::take(self.garbage.get_mut().unwrap_or_else(|p| p.into_inner()));
        for d in garbage {
            d.run_now();
        }
    }
}

/// One reclamation domain: an epoch counter, the participants pinning
/// against it and the garbage deferred through their guards. Garbage still
/// pending when the collector and its last handle go away is freed then.
pub struct Collector {
    global: Arc<Global>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    pub fn new() -> Self {
        Collector {
            global: Arc::new(Global {
                epoch: StdAtomicUsize::new(0),
                registry: Mutex::new(Vec::new()),
                garbage: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Add a participant. The handle is thread-affine (`!Send`); a thread
    /// may hold several.
    pub fn register(&self) -> LocalHandle {
        let participant = Arc::new(Participant {
            epoch: StdAtomicUsize::new(INACTIVE),
        });
        lock_ignore_poison(&self.global.registry).push(participant.clone());
        LocalHandle {
            local: Rc::new(Local {
                global: self.global.clone(),
                participant,
                depth: Cell::new(0),
                unpins: Cell::new(0),
            }),
        }
    }

    /// Drive reclamation to quiescence: with no guard held on this
    /// collector, a few passes advance the epoch far enough to free *all*
    /// deferred garbage.
    pub fn force_collect(&self) {
        for _ in 0..4 {
            collect(&self.global);
        }
    }

    /// Number of deferred destructions not yet executed.
    pub fn pending_garbage(&self) -> usize {
        lock_ignore_poison(&self.global.garbage).len()
    }
}

struct Local {
    global: Arc<Global>,
    participant: Arc<Participant>,
    /// Nested pin depth on this handle.
    depth: Cell<usize>,
    /// Unpin counter driving periodic collection.
    unpins: Cell<usize>,
}

impl Drop for Local {
    fn drop(&mut self) {
        self.participant.epoch.store(INACTIVE, StdOrdering::SeqCst);
        let mut reg = lock_ignore_poison(&self.global.registry);
        reg.retain(|p| !Arc::ptr_eq(p, &self.participant));
    }
}

/// A participant of one [`Collector`]; pins through it publish its epoch.
/// Deregisters when the handle and every guard it issued are gone.
pub struct LocalHandle {
    local: Rc<Local>,
}

impl LocalHandle {
    /// Pin this participant, publishing the epoch it entered under.
    pub fn pin(&self) -> Guard {
        let local = &self.local;
        let depth = local.depth.get();
        if depth == 0 {
            let g = &local.global;
            // Publish our epoch, then re-check: if the global epoch moved
            // between the load and the store we may have published a stale
            // value, which would let the collector advance past us. Re-run
            // until the published value is current. (Publishing a stale
            // epoch is conservative for *other* collectors — they simply
            // cannot advance — so the loop is safe at every step.)
            loop {
                let e = g.epoch.load(StdOrdering::SeqCst);
                local.participant.epoch.store(e, StdOrdering::SeqCst);
                fence(StdOrdering::SeqCst);
                if g.epoch.load(StdOrdering::SeqCst) == e {
                    break;
                }
            }
        }
        local.depth.set(depth + 1);
        Guard {
            local: Some(local.clone()),
        }
    }
}

fn default_collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(Collector::new)
}

thread_local! {
    static HANDLE: LocalHandle = default_collector().register();
}

/// [`Collector::force_collect`] on the default collector. Tests use this to
/// assert that detached nodes really are released (e.g. via `Weak` handles
/// on their payloads).
pub fn force_collect() {
    default_collector().force_collect();
}

/// [`Collector::pending_garbage`] of the default collector
/// (diagnostics/tests).
pub fn pending_garbage() -> usize {
    default_collector().pending_garbage()
}

// ---------------------------------------------------------------------------
// Guard / pin.
// ---------------------------------------------------------------------------

/// Keeps its participant pinned; shared pointers loaded through it stay
/// valid until the guard drops.
pub struct Guard {
    /// The pinned participant; `None` for the [`unprotected`] guard. The
    /// `Rc` also makes `Guard` `!Send`/`!Sync`: pinning is per-thread state.
    local: Option<Rc<Local>>,
}

/// Pin the current thread on the default collector.
pub fn pin() -> Guard {
    HANDLE.with(LocalHandle::pin)
}

struct UnprotectedGuard(Guard);
// SAFETY: the unprotected guard's only field is `None` — there is no `Rc`
// behind it and every method checks for `None` first — so sharing the
// single static instance across threads is fine.
unsafe impl Sync for UnprotectedGuard {}

static UNPROTECTED: UnprotectedGuard = UnprotectedGuard(Guard { local: None });

/// A dummy guard for code that has exclusive access to a structure (e.g.
/// `Drop` with `&mut self`).
///
/// # Safety
///
/// The caller must guarantee no other thread can concurrently access the
/// data structures traversed with this guard; `defer_destroy` through it
/// frees immediately.
pub unsafe fn unprotected() -> &'static Guard {
    &UNPROTECTED.0
}

impl Guard {
    /// Defer destruction of the node behind `ptr` until no pinned
    /// participant can still hold a reference to it, then free it through
    /// [`Reclaim::reclaim`].
    ///
    /// # Safety
    ///
    /// `ptr` must satisfy the contract of `T::reclaim` from the moment no
    /// pin older than this call remains: unreachable for any thread that
    /// pins *after* this call, and not destroyed twice.
    pub unsafe fn defer_destroy<T: Reclaim>(&self, ptr: Shared<'_, T>) {
        let raw = ptr.as_raw() as *mut T;
        if raw.is_null() {
            return;
        }
        let Some(local) = &self.local else {
            // SAFETY: the unprotected guard's contract gives the caller
            // exclusive access, so `reclaim`'s contract holds already.
            unsafe { T::reclaim(raw) };
            return;
        };
        let deferred = Deferred {
            epoch: local.global.epoch.load(StdOrdering::SeqCst),
            addr: raw as usize,
            data: raw.cast(),
            dropper: reclaim_erased::<T>,
        };
        lock_ignore_poison(&local.global.garbage).push(deferred);
    }
}

/// Type-erased [`Reclaim::reclaim`].
///
/// # Safety
///
/// `p` must satisfy the contract of `T::reclaim`.
unsafe fn reclaim_erased<T: Reclaim>(p: *mut u8) {
    // SAFETY: guaranteed by this function's contract.
    unsafe { T::reclaim(p.cast::<T>()) };
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(local) = &self.local else {
            return;
        };
        let depth = local.depth.get() - 1;
        local.depth.set(depth);
        if depth == 0 {
            local.participant.epoch.store(INACTIVE, StdOrdering::SeqCst);
            let n = local.unpins.get().wrapping_add(1);
            local.unpins.set(n);
            if n % COLLECT_EVERY == 0 {
                collect(&local.global);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pointer types.
// ---------------------------------------------------------------------------

/// Bits of the address usable as a tag for `T` (its alignment - 1).
fn low_bits<T>() -> usize {
    mem::align_of::<T>() - 1
}

/// Either an [`Owned`] or a [`Shared`] — what a CAS can install.
pub trait Pointer<T> {
    /// Consume into the raw tagged word.
    fn into_usize(self) -> usize;
    /// Rebuild from a raw tagged word.
    ///
    /// # Safety
    ///
    /// `data` must come from `into_usize` of the same pointer kind, exactly
    /// once (ownership round-trip).
    unsafe fn from_usize(data: usize) -> Self;
}

/// An atomic tagged pointer to a heap node; the link type of the skiplists.
pub struct Atomic<T> {
    data: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

// SAFETY: Atomic hands out &T across threads (via Shared::as_ref) and
// transfers ownership of T between threads on reclamation, so both bounds
// are required; the word itself is accessed atomically.
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: see the Send impl above.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// A null pointer with zero tag.
    pub fn null() -> Self {
        Atomic {
            data: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Load the current pointer; the result borrows the pin `guard`.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            data: self.data.load(ord),
            _marker: PhantomData,
        }
    }

    /// Store a shared pointer (used to wire a still-private node's edges
    /// before publication).
    pub fn store(&self, new: Shared<'_, T>, ord: Ordering) {
        self.data.store(new.data, ord);
    }

    /// Compare-and-swap the edge from `current` to `new`. On success the
    /// installed pointer is returned as a [`Shared`]; on failure the error
    /// carries the observed value and gives `new` back.
    pub fn compare_exchange<'g, P: Pointer<T>>(
        &self,
        current: Shared<'_, T>,
        new: P,
        success: Ordering,
        failure: Ordering,
        _guard: &'g Guard,
    ) -> Result<Shared<'g, T>, CompareExchangeError<'g, T, P>> {
        let new_data = new.into_usize();
        match self
            .data
            .compare_exchange(current.data, new_data, success, failure)
        {
            Ok(_) => Ok(Shared {
                data: new_data,
                _marker: PhantomData,
            }),
            Err(observed) => Err(CompareExchangeError {
                current: Shared {
                    data: observed,
                    _marker: PhantomData,
                },
                // SAFETY: `new_data` came from `new.into_usize()` above and
                // the failed CAS did not install it, so ownership round-trips
                // back to the caller exactly once.
                new: unsafe { P::from_usize(new_data) },
            }),
        }
    }
}

/// Failed [`Atomic::compare_exchange`]: the observed pointer and the
/// not-installed new value.
pub struct CompareExchangeError<'g, T, P: Pointer<T>> {
    /// What the edge actually held.
    pub current: Shared<'g, T>,
    /// The value that was not installed, returned to the caller.
    pub new: P,
}

/// An owned heap node not yet published to other threads; dropping it
/// reclaims the node.
pub struct Owned<T: Reclaim> {
    data: usize,
    _marker: PhantomData<Box<T>>,
}

impl<T: Reclaim> Owned<T> {
    /// Take ownership of a freshly allocated node.
    ///
    /// # Safety
    ///
    /// `ptr` must be non-null, aligned for `T` and satisfy the contract of
    /// `T::reclaim`.
    pub unsafe fn from_raw(ptr: *mut T) -> Self {
        debug_assert!(!ptr.is_null() && ptr as usize & low_bits::<T>() == 0);
        Owned {
            data: ptr as usize,
            _marker: PhantomData,
        }
    }

    /// The node's address, for wiring it up before publication.
    pub fn as_raw(&self) -> *mut T {
        (self.data & !low_bits::<T>()) as *mut T
    }
}

impl<T: Reclaim> Drop for Owned<T> {
    fn drop(&mut self) {
        // SAFETY: an Owned that was consumed (CAS success path) was
        // `mem::forget`-ten in `into_usize`; reaching Drop means the node
        // is still uniquely ours, which is `reclaim`'s contract.
        unsafe { T::reclaim(self.as_raw()) };
    }
}

impl<T: Reclaim> Pointer<T> for Owned<T> {
    fn into_usize(self) -> usize {
        let data = self.data;
        mem::forget(self);
        data
    }

    // SAFETY: per the trait contract the word is an `into_usize` round-trip
    // of an `Owned`, so reconstructing unique ownership is sound.
    unsafe fn from_usize(data: usize) -> Self {
        Owned {
            data,
            _marker: PhantomData,
        }
    }
}

/// A tagged pointer loaded while pinned; valid for the guard lifetime `'g`.
pub struct Shared<'g, T> {
    data: usize,
    _marker: PhantomData<(&'g (), *const T)>,
}

impl<T> Clone for Shared<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Shared<'_, T> {}

impl<'g, T> Shared<'g, T> {
    /// The null pointer (zero tag).
    pub fn null() -> Self {
        Shared {
            data: 0,
            _marker: PhantomData,
        }
    }

    /// Whether the (untagged) pointer is null.
    pub fn is_null(&self) -> bool {
        self.as_raw().is_null()
    }

    /// The untagged raw pointer.
    pub fn as_raw(&self) -> *const T {
        (self.data & !low_bits::<T>()) as *const T
    }

    /// The tag carried in the low bits.
    pub fn tag(&self) -> usize {
        self.data & low_bits::<T>()
    }

    /// The same pointer with its tag replaced by `tag`.
    pub fn with_tag(&self, tag: usize) -> Shared<'g, T> {
        debug_assert!(tag <= low_bits::<T>(), "tag does not fit in alignment bits");
        Shared {
            data: (self.data & !low_bits::<T>()) | tag,
            _marker: PhantomData,
        }
    }

    /// Take ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The caller must have exclusive access to the node (no concurrent
    /// readers or writers) and the pointer must be non-null and not yet
    /// freed.
    pub unsafe fn into_owned(self) -> Owned<T>
    where
        T: Reclaim,
    {
        debug_assert!(!self.is_null(), "into_owned on null");
        Owned {
            data: self.data & !low_bits::<T>(),
            _marker: PhantomData,
        }
    }
}

impl<T> Pointer<T> for Shared<'_, T> {
    fn into_usize(self) -> usize {
        self.data
    }

    // SAFETY: per the trait contract the word round-trips a `Shared`; the
    // borrow it represents is re-scoped to the caller's guard lifetime.
    unsafe fn from_usize(data: usize) -> Self {
        Shared {
            data,
            _marker: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize as RawUsize, Ordering as RawOrdering};

    /// A `Box`-allocated node that counts its reclamations.
    struct Boxed {
        value: u64,
        reclaimed: Arc<RawUsize>,
    }

    impl Reclaim for Boxed {
        // SAFETY: see the trait; `boxed` only hands out `Box::into_raw`
        // pointers.
        unsafe fn reclaim(this: *mut Self) {
            // SAFETY: per the contract `this` is a unique live allocation
            // made by `boxed`.
            let node = unsafe { Box::from_raw(this) };
            node.reclaimed.fetch_add(1, RawOrdering::SeqCst);
        }
    }

    fn boxed(value: u64, reclaimed: &Arc<RawUsize>) -> Owned<Boxed> {
        let node = Box::new(Boxed {
            value,
            reclaimed: reclaimed.clone(),
        });
        // SAFETY: a fresh `Box` allocation, owned by nobody else.
        unsafe { Owned::from_raw(Box::into_raw(node)) }
    }

    fn value_of(s: Shared<'_, Boxed>) -> u64 {
        // SAFETY: every caller passes a node it installed and has not yet
        // retired past its own pin.
        unsafe { (*s.as_raw()).value }
    }

    fn install<'g>(a: &Atomic<Boxed>, node: Owned<Boxed>, guard: &'g Guard) -> Shared<'g, Boxed> {
        a.compare_exchange(
            Shared::null(),
            node,
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        )
        .unwrap_or_else(|_| panic!("CAS on fresh edge"))
    }

    #[test]
    fn owned_round_trip_and_tags() {
        let reclaimed = Arc::new(RawUsize::new(0));
        let guard = pin();
        let a: Atomic<Boxed> = Atomic::null();
        let shared = a.load(Ordering::Acquire, &guard);
        assert!(shared.is_null());
        assert_eq!(shared.tag(), 0);

        let installed = install(&a, boxed(7, &reclaimed), &guard);
        assert_eq!(value_of(installed), 7);

        let tagged = installed.with_tag(1);
        assert_eq!(tagged.tag(), 1);
        assert_eq!(tagged.with_tag(0).as_raw(), installed.as_raw());

        // SAFETY: single-threaded test — exclusive access.
        drop(unsafe { installed.into_owned() });
        assert_eq!(reclaimed.load(RawOrdering::SeqCst), 1);
    }

    #[test]
    fn failed_cas_returns_ownership() {
        let reclaimed = Arc::new(RawUsize::new(0));
        let guard = pin();
        let a: Atomic<Boxed> = Atomic::null();
        install(&a, boxed(1, &reclaimed), &guard);
        let err = a
            .compare_exchange(
                Shared::null(),
                boxed(2, &reclaimed),
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            )
            .err()
            .expect("CAS against non-null must fail");
        assert_eq!(value_of(err.current), 1);
        // SAFETY: the failed CAS handed the never-published node back.
        assert_eq!(unsafe { (*err.new.as_raw()).value }, 2);
        drop(err.new);
        assert_eq!(
            reclaimed.load(RawOrdering::SeqCst),
            1,
            "dropping an Owned reclaims through the node's destructor"
        );
        let live = a.load(Ordering::Acquire, &guard);
        // SAFETY: single-threaded test — exclusive access.
        drop(unsafe { live.into_owned() });
        assert_eq!(reclaimed.load(RawOrdering::SeqCst), 2);
    }

    /// On a collector of its own (no other test can hold a pin on it): a
    /// retired node's destructor runs exactly once, and only after every
    /// pin that predates the retirement is released.
    #[test]
    fn deferred_destruction_waits_for_every_older_pin() {
        let collector = Collector::new();
        let reader = collector.register();
        let writer = collector.register();
        let reclaimed = Arc::new(RawUsize::new(0));
        let a: Atomic<Boxed> = Atomic::null();

        let reader_pin = reader.pin();
        {
            let guard = writer.pin();
            let node = install(&a, boxed(9, &reclaimed), &guard);
            a.store(Shared::null(), Ordering::Release);
            // SAFETY: unlinked above, never traversed again, retired once.
            unsafe { guard.defer_destroy(node) };
        }
        assert_eq!(collector.pending_garbage(), 1);
        collector.force_collect();
        assert_eq!(
            reclaimed.load(RawOrdering::SeqCst),
            0,
            "a pin older than the retirement is still held"
        );

        // A pin taken after the retirement must not hold the node back.
        let late_pin = writer.pin();
        drop(reader_pin);
        collector.force_collect();
        assert_eq!(reclaimed.load(RawOrdering::SeqCst), 1, "freed once");
        assert_eq!(collector.pending_garbage(), 0);
        drop(late_pin);
        collector.force_collect();
        assert_eq!(reclaimed.load(RawOrdering::SeqCst), 1, "never twice");
    }

    #[test]
    fn dropping_a_collector_frees_its_pending_garbage() {
        let reclaimed = Arc::new(RawUsize::new(0));
        {
            let collector = Collector::new();
            let handle = collector.register();
            let guard = handle.pin();
            let a: Atomic<Boxed> = Atomic::null();
            let node = install(&a, boxed(3, &reclaimed), &guard);
            // SAFETY: the edge dies with this block; retired once.
            unsafe { guard.defer_destroy(node) };
        }
        assert_eq!(reclaimed.load(RawOrdering::SeqCst), 1);
    }

    #[test]
    fn unprotected_guard_reclaims_immediately() {
        let reclaimed = Arc::new(RawUsize::new(0));
        // SAFETY: nothing here is shared with another thread.
        let guard = unsafe { unprotected() };
        let a: Atomic<Boxed> = Atomic::null();
        let node = install(&a, boxed(4, &reclaimed), guard);
        // SAFETY: exclusive access; retired once.
        unsafe { guard.defer_destroy(node) };
        assert_eq!(reclaimed.load(RawOrdering::SeqCst), 1);
    }

    #[test]
    fn nested_pins_are_reentrant() {
        let g1 = pin();
        let g2 = pin();
        drop(g1);
        let a: Atomic<Boxed> = Atomic::null();
        assert!(a.load(Ordering::Acquire, &g2).is_null());
    }
}
