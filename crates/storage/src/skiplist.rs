//! The refined two-level skiplist of paper Section 7.2.
//!
//! * **First level** — a lock-free, insert-only skiplist ordered by key
//!   (e.g. user id). Key nodes are never removed, so readers can hold plain
//!   references to their values for the lifetime of the map.
//! * **Second level** — per key, a lock-free [`TimeList`] ordered by
//!   timestamp *descending* (newest first), so "the latest tuple for this
//!   key" — the `LAST JOIN` accelerator — is a head read, and a window scan
//!   is a prefix walk.
//!
//! Both levels are built from one node shape ([`Node`]): a single
//! allocation holding the entry, the height and, directly behind them, the
//! node's forward links —
//!
//! ```text
//!   | entry (key, value | ts, payload) | height | link[0] | … | link[height-1] |
//! ```
//!
//! — so the successor of a node is read from the memory the walk has just
//! loaded: one dependent load per step.
//!
//! Writes use compare-and-swap pointer updates (retrying on contention,
//! exactly as the paper describes); expired-data removal exploits the
//! timestamp ordering: all out-of-date tuples form a contiguous *suffix* of
//! a time list, so TTL eviction is a single CAS that truncates the suffix,
//! with epoch-based reclamation ([`crate::sync::epoch`]) freeing the
//! detached nodes once concurrent readers have moved on.
//!
//! Concurrency verification: the link pointers live in
//! [`crate::sync::atomic`] types, so the schedule-exploring model checker
//! (`cargo test -p openmldb-storage --features model-check`) can permute
//! thread interleavings at every edge access and screen every load against
//! freed nodes. See `tests/schedule_explorer.rs`.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::mem;
use std::ptr::{self, NonNull};
use std::sync::Arc;

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::epoch::{self, Atomic, Guard, Owned, Reclaim, Shared};

const MAX_HEIGHT: usize = 12;

/// Cheap deterministic level generator (splitmix64 over an atomic counter):
/// a node reaches each further level with probability 1/4 (LevelDB's
/// branching factor — the same expected comparisons per search as 1/2 with
/// 1.33 links per node instead of 2), capped at [`MAX_HEIGHT`].
fn random_height(seed: &AtomicU64) -> usize {
    // analysis:allow(relaxed-ordering): RNG seed counter, thread-private
    // value stream; no happens-before relationship is needed.
    let mut z = seed.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z.trailing_ones() as usize) / 2 + 1).min(MAX_HEIGHT)
}

/// What an allocation of `request` bytes takes from the heap under glibc
/// malloc, the allocator the memory model is calibrated against: an 8-byte
/// chunk header, 16-byte granularity, 32-byte minimum.
pub(crate) const fn heap_bytes(request: usize) -> usize {
    let chunk = (request + 8 + 15) & !15;
    if chunk < 32 {
        32
    } else {
        chunk
    }
}

// ---------------------------------------------------------------------------
// The node shared by both levels: one allocation, header then tower.
// ---------------------------------------------------------------------------

type Link<E> = Atomic<Node<E>>;

/// Header of a skiplist node. The allocation continues past this struct
/// with `height` links starting at `tower` (see [`Node::layout`]), so a
/// `&Node` covers the header only: the tower is reached through
/// [`NodeRef`], which keeps the allocation's own pointer.
#[repr(C)]
struct Node<E> {
    entry: E,
    /// Number of links behind the header; fixed at allocation.
    height: usize,
    tower: [Link<E>; 0],
}

impl<E> Node<E> {
    /// Bytes of a node with `height` links: header, tower, padding.
    const fn size(height: usize) -> usize {
        let align = mem::align_of::<Self>();
        let size = mem::offset_of!(Self, tower) + height * mem::size_of::<Link<E>>();
        (size + align - 1) & !(align - 1)
    }

    /// Layout of a node with `height` links.
    fn layout(height: usize) -> Layout {
        // analysis:allow(panic-path): sizes are bounded by MAX_HEIGHT links
        // behind a fixed header; the layout cannot overflow `isize`.
        Layout::from_size_align(Self::size(height), mem::align_of::<Self>()).expect("node layout")
    }

    /// Heap bytes a node costs on average, for the Section 8.1 memory
    /// model: [`Node::size`] rounded as the allocator does, weighted by
    /// [`random_height`]'s distribution (3/4 of nodes have one link, 3/16
    /// two, …).
    const MEAN_HEAP_BYTES: usize = {
        // P(height = h) = 3 / 4^h below the cap; in units of 4^-(MAX-1):
        let mut weight = 1usize; // the cap itself: 4^-(MAX-1)
        let mut total = heap_bytes(Self::size(MAX_HEIGHT));
        let mut height = MAX_HEIGHT - 1;
        while height >= 1 {
            total += 3 * weight * heap_bytes(Self::size(height));
            weight *= 4;
            height -= 1;
        }
        // `weight` is now 4^(MAX-1), the sum of all weights; round to nearest.
        (total + weight / 2) / weight
    };

    /// Allocate an unpublished node with every link null.
    fn alloc(entry: E, height: usize) -> Owned<Self> {
        assert!(
            (1..=MAX_HEIGHT).contains(&height),
            "node height out of range"
        );
        let layout = Self::layout(height);
        // SAFETY: the layout covers at least the header, so its size is
        // non-zero.
        let node = unsafe { alloc(layout) }.cast::<Self>();
        if node.is_null() {
            handle_alloc_error(layout);
        }
        // SAFETY: `node` is valid for writes of `layout`: the header fields
        // and the `height` links behind `tower` all lie inside it, and
        // nothing else can see the allocation yet. It is handed to `Owned`
        // exactly as `reclaim` expects to get it back.
        unsafe {
            ptr::addr_of_mut!((*node).entry).write(entry);
            ptr::addr_of_mut!((*node).height).write(height);
            let tower = ptr::addr_of_mut!((*node).tower).cast::<Link<E>>();
            for level in 0..height {
                tower.add(level).write(Atomic::null());
            }
            Owned::from_raw(node)
        }
    }
}

impl<E> Reclaim for Node<E> {
    // SAFETY: see the trait; every `Node` comes from `Node::alloc`.
    unsafe fn reclaim(this: *mut Self) {
        // SAFETY: per the contract `this` is a live, uniquely owned node
        // from `Node::alloc`, so `height` names the layout it was allocated
        // with and the entry is dropped exactly once. Links own nothing.
        unsafe {
            let layout = Self::layout((*this).height);
            ptr::drop_in_place(ptr::addr_of_mut!((*this).entry));
            dealloc(this.cast(), layout);
        }
    }
}

/// A node that stays allocated for `'g`: reached through an edge loaded
/// under a pin, or still owned. Every accessor relies on that one
/// guarantee, made when the `NodeRef` is built.
struct NodeRef<'g, E> {
    node: NonNull<Node<E>>,
    _live: PhantomData<&'g Node<E>>,
}

impl<E> Clone for NodeRef<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for NodeRef<'_, E> {}

impl<'g, E> NodeRef<'g, E> {
    /// The node behind a loaded edge (tag ignored), `None` for null.
    ///
    /// # Safety
    ///
    /// A non-null `edge` must point to a node from [`Node::alloc`] that is
    /// not reclaimed while the pin `'g` borrows is held.
    unsafe fn new(edge: Shared<'g, Node<E>>) -> Option<Self> {
        NonNull::new(edge.as_raw() as *mut Node<E>).map(|node| NodeRef {
            node,
            _live: PhantomData,
        })
    }

    /// A node not yet published.
    fn of(owned: &'g Owned<Node<E>>) -> Self {
        NodeRef {
            // SAFETY: an `Owned` is never null.
            node: unsafe { NonNull::new_unchecked(owned.as_raw()) },
            _live: PhantomData,
        }
    }

    fn entry(self) -> &'g E {
        // SAFETY: the node is live for 'g (constructor guarantee) and its
        // entry is immutable after `Node::alloc`.
        unsafe { &(*self.node.as_ptr()).entry }
    }

    /// The level-0 link. Every node has one, so this reads no height.
    fn next(self) -> &'g Link<E> {
        // SAFETY: the node is live for 'g and was allocated with
        // `height >= 1` links at `tower`; the pointer is derived from the
        // allocation's own, not from a `&Node` (which ends at the header).
        unsafe { &*ptr::addr_of!((*self.node.as_ptr()).tower).cast::<Link<E>>() }
    }

    /// All `height` links.
    fn tower(self) -> &'g [Link<E>] {
        // SAFETY: as in `next`; `height` is the link count the node was
        // allocated with and never changes.
        unsafe {
            let node = self.node.as_ptr();
            let tower = ptr::addr_of!((*node).tower).cast::<Link<E>>();
            std::slice::from_raw_parts(tower, (*node).height)
        }
    }
}

/// Per-level predecessors (edges to retry CAS on) and successors found by a
/// search.
type SearchResult<'g, E> = ([&'g Link<E>; MAX_HEIGHT], [Shared<'g, Node<E>>; MAX_HEIGHT]);

fn null_head<E>() -> [Link<E>; MAX_HEIGHT] {
    std::array::from_fn(|_| Atomic::null())
}

/// Visit the level-0 chain from `curr` in list order while `f` returns
/// `true`. On a [`TimeList`], a walk that entered a suffix just before its
/// truncation keeps a consistent view: tags are ignored when following, and
/// a detached suffix is immutable and still null-terminated.
fn walk<'g, E: 'g>(
    mut curr: Shared<'g, Node<E>>,
    guard: &'g Guard,
    mut f: impl FnMut(&'g E) -> bool,
) {
    // SAFETY: every pointer followed was loaded under `guard` from an edge
    // of the list. Key nodes are never freed before their map drops; time
    // nodes detached by a concurrent truncation are only freed after our
    // pin is released. Either way the walk stays on valid memory.
    while let Some(node) = unsafe { NodeRef::new(curr) } {
        if !f(node.entry()) {
            return;
        }
        curr = node.next().load(Ordering::Acquire, guard);
    }
}

/// Free every node of a list being dropped; level 0 reaches each exactly
/// once (tags on retired edges are ignored).
fn drop_nodes<E>(head: &mut [Link<E>; MAX_HEIGHT]) {
    // SAFETY: `&mut` on the head proves no other thread can touch the
    // list, the contract `unprotected` requires.
    let guard = unsafe { epoch::unprotected() };
    // analysis:allow(relaxed-ordering): exclusive access in Drop; there is
    // no concurrent writer to synchronize with.
    let mut curr = head[0].load(Ordering::Relaxed, guard);
    // SAFETY: exclusive access; nodes reachable from the head are live
    // (detached suffixes were handed to epoch reclamation and are not).
    while let Some(node) = unsafe { NodeRef::new(curr) } {
        // analysis:allow(relaxed-ordering): exclusive access in Drop.
        let next = node.next().load(Ordering::Relaxed, guard);
        // SAFETY: exclusive access; each level-0 node is owned exactly once
        // and freed exactly once by this walk, after its link was read.
        drop(unsafe { curr.into_owned() });
        curr = next;
    }
}

// ---------------------------------------------------------------------------
// First level: insert-only concurrent skiplist.
// ---------------------------------------------------------------------------

/// Value first, so the key a search compares sits next to the links it
/// follows.
#[repr(C)]
struct KeyEntry<K, V> {
    value: V,
    key: K,
}

/// Lock-free insert-only skip map. `get_or_insert` is the only mutator;
/// key nodes persist for the map's lifetime (streaming workloads accumulate
/// keys — per-key data is evicted in the second level instead).
pub struct SkipMap<K, V> {
    head: [Link<KeyEntry<K, V>>; MAX_HEIGHT],
    len: AtomicUsize,
    seed: AtomicU64,
}

impl<K: Ord, V> Default for SkipMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> SkipMap<K, V> {
    /// Mean heap bytes of one key node, value inline (memory model).
    pub const NODE_HEAP_BYTES: usize = Node::<KeyEntry<K, V>>::MEAN_HEAP_BYTES;
}

impl<K: Ord, V> SkipMap<K, V> {
    pub fn new() -> Self {
        SkipMap {
            head: null_head(),
            len: AtomicUsize::new(0),
            seed: AtomicU64::new(0x853C_49E6_748F_EA9B),
        }
    }

    pub fn len(&self) -> usize {
        // analysis:allow(relaxed-ordering): monotone statistics counter;
        // readers only need an eventually-consistent size.
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Descend to the first node with `node.key >= key`, reporting each
    /// level's last edge before `key` and first node at or past it to
    /// `level_done` on the way down. Generic over a borrowed form of the
    /// key, so callers can seek with `&[KeyValue]` against `Vec<KeyValue>`
    /// keys without materializing an owned key first.
    // analysis:allow(panic-freedom): every index is `level < MAX_HEIGHT`
    // against the MAX_HEIGHT-sized head or the tower of a node reached at
    // `level`, whose height is > level (see pred_links below).
    #[inline(always)]
    fn descend_by<'g, Q>(
        &'g self,
        key: &Q,
        guard: &'g Guard,
        mut level_done: impl FnMut(usize, &'g Link<KeyEntry<K, V>>, Shared<'g, Node<KeyEntry<K, V>>>),
    ) -> Shared<'g, Node<KeyEntry<K, V>>>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        // `pred_links` is the tower we are walking from: the head
        // sentinel's, then those of passed nodes. A node is only ever
        // linked at levels below its height, so one reached at `level` has
        // a link there.
        let mut pred_links: &[Link<KeyEntry<K, V>>] = &self.head;
        let mut curr = Shared::null();
        for level in (0..MAX_HEIGHT).rev() {
            curr = pred_links[level].load(Ordering::Acquire, guard);
            // SAFETY: `curr` was loaded under `guard` from a reachable
            // edge; key nodes are never freed before the map drops.
            while let Some(node) = unsafe { NodeRef::new(curr) } {
                if node.entry().key.borrow() >= key {
                    break;
                }
                pred_links = node.tower();
                curr = pred_links[level].load(Ordering::Acquire, guard);
            }
            level_done(level, &pred_links[level], curr);
        }
        curr
    }

    /// The writers' search: per level, the edge to CAS on and the successor
    /// it is expected to hold.
    fn search_by<'g, Q>(&'g self, key: &Q, guard: &'g Guard) -> SearchResult<'g, KeyEntry<K, V>>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut preds: [&Link<KeyEntry<K, V>>; MAX_HEIGHT] = std::array::from_fn(|i| &self.head[i]);
        let mut succs = [Shared::null(); MAX_HEIGHT];
        self.descend_by(key, guard, |level, pred, succ| {
            preds[level] = pred;
            succs[level] = succ;
        });
        (preds, succs)
    }

    /// The readers' search: the first node with `node.key >= key`, without
    /// the per-level arrays only an insert needs.
    fn seek_by<'g, Q>(&'g self, key: &Q, guard: &'g Guard) -> Shared<'g, Node<KeyEntry<K, V>>>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.descend_by(key, guard, |_, _, _| {})
    }

    /// A node's value, borrowed for as long as the map.
    fn value_of(&self, node: NodeRef<'_, KeyEntry<K, V>>) -> &V {
        // SAFETY: `node` is one of this map's key nodes; they are
        // insert-only and freed only on drop of the whole map, so extending
        // the borrow from the pin to &self is sound.
        unsafe { &*(&node.entry().value as *const V) }
    }

    /// The value behind `edge` when that node's key equals `key`.
    fn value_if_equal<Q>(&self, edge: Shared<'_, Node<KeyEntry<K, V>>>, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        // SAFETY: `edge` was loaded under a pin from a reachable edge; key
        // nodes are never freed before the map drops.
        let node = unsafe { NodeRef::new(edge) }?;
        (node.entry().key.borrow() == key).then(|| self.value_of(node))
    }

    /// Look up `key`; the returned reference lives as long as the map
    /// (key nodes are never deallocated).
    pub fn get(&self, key: &K) -> Option<&V> {
        self.get_by(key)
    }

    // HOT: request-path key lookup — seeks by borrowed key, no `to_vec()`.
    /// Look up by a borrowed form of `key` (e.g. a slice against `Vec`
    /// keys); the returned reference lives as long as the map.
    pub fn get_by<Q>(&self, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let guard = epoch::pin();
        self.value_if_equal(self.seek_by(key, &guard), key)
    }

    /// Get `key`'s value, inserting `init()` if absent; the boolean reports
    /// whether this call created the entry (used for key-memory accounting).
    /// Lock-free: on CAS contention the losing thread retries and returns
    /// the winner's value (its own node, value included, is dropped).
    pub fn get_or_insert_with(&self, key: K, init: impl FnOnce() -> V) -> (&V, bool) {
        // Fast path.
        if let Some(v) = self.get(&key) {
            return (v, false);
        }
        let height = random_height(&self.seed);
        self.insert_with_height(key, init(), height)
    }

    /// [`SkipMap::get_or_insert_with`] past its lookup, at a chosen height
    /// (tests force the tall, rare towers).
    #[doc(hidden)]
    pub fn insert_with_height(&self, key: K, value: V, height: usize) -> (&V, bool) {
        let guard = epoch::pin();
        let mut new = Node::alloc(KeyEntry { value, key }, height);
        let (shared, mut preds, mut succs) = loop {
            let key = &NodeRef::of(&new).entry().key;
            let (preds, succs) = self.search_by(key, &guard);
            if let Some(existing) = self.value_if_equal(succs[0], key) {
                // Lost the race (or key appeared): `new` drops here.
                return (existing, false);
            }
            // analysis:allow(relaxed-ordering): pre-publication store into
            // a node no other thread can see yet; the publishing CAS below
            // is the Release edge.
            NodeRef::of(&new).next().store(succs[0], Ordering::Relaxed);
            match preds[0].compare_exchange(
                succs[0],
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(shared) => break (shared, preds, succs),
                Err(e) => new = e.new,
            }
        };
        // SAFETY: the successful CAS installed our non-null node; it stays
        // alive for the map's lifetime.
        // analysis:allow(panic-path): unreachable — a just-installed node
        // pointer cannot be null.
        let node = unsafe { NodeRef::new(shared) }.expect("just inserted");
        // Link the upper levels from the search already done; only a lost
        // CAS pays for another one.
        for (level, link) in node.tower().iter().enumerate().skip(1) {
            loop {
                // analysis:allow(relaxed-ordering): this level's link is
                // not reachable until the CAS below publishes it.
                link.store(succs[level], Ordering::Relaxed);
                if preds[level]
                    .compare_exchange(
                        succs[level],
                        shared,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        &guard,
                    )
                    .is_ok()
                {
                    break;
                }
                (preds, succs) = self.search_by(&node.entry().key, &guard);
            }
        }
        // analysis:allow(relaxed-ordering): statistics counter.
        self.len.fetch_add(1, Ordering::Relaxed);
        (self.value_of(node), true)
    }

    /// Visit entries with `key >= from` in ascending key order while `f`
    /// returns `true`.
    pub fn range_for_each(&self, from: &K, mut f: impl FnMut(&K, &V) -> bool) {
        let guard = epoch::pin();
        walk(self.seek_by(from, &guard), &guard, |e| f(&e.key, &e.value));
    }

    /// Visit every `(key, value)` in ascending key order.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let guard = epoch::pin();
        let first = self.head[0].load(Ordering::Acquire, &guard);
        walk(first, &guard, |e| {
            f(&e.key, &e.value);
            true
        });
    }

    /// Keys in ascending order (snapshot).
    pub fn keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|k, _| out.push(k.clone()));
        out
    }
}

impl<K, V> Drop for SkipMap<K, V> {
    fn drop(&mut self) {
        drop_nodes(&mut self.head);
    }
}

// ---------------------------------------------------------------------------
// Second level: per-key time-ordered skiplist.
// ---------------------------------------------------------------------------

/// Tag bit marking an edge out of a *retired* node: the node's whole suffix
/// was detached by a TTL truncation. Once a node's level-0 edge carries this
/// tag the node counts as retired; any in-flight insert CAS against one of
/// its edges fails (Harris-style marking), so a concurrent writer can never
/// resurrect expired territory, and walkers treat a tagged edge as
/// end-of-list (the retired region is always the oldest suffix).
const RETIRED: usize = 1;

/// [`TimeList::gate`] bit held by the one running truncation.
const TRUNCATING: usize = 1;
/// [`TimeList::gate`] unit counting inserts that are linking upper levels.
const LINKING: usize = 2;

struct TimeEntry {
    ts: i64,
    data: Arc<[u8]>,
}

type TimeNode = Node<TimeEntry>;

/// A node is retired once its level-0 edge is tagged.
fn retired(node: NodeRef<'_, TimeEntry>, guard: &Guard) -> bool {
    node.next().load(Ordering::Acquire, guard).tag() == RETIRED
}

/// Tag `link` RETIRED whatever it holds, absorbing concurrent CASes on it;
/// returns the successor it was sealed with.
fn seal<'g>(link: &Link<TimeEntry>, guard: &'g Guard) -> Shared<'g, TimeNode> {
    let mut next = link.load(Ordering::Acquire, guard);
    loop {
        match link.compare_exchange(
            next,
            next.with_tag(RETIRED),
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        ) {
            Ok(_) => return next.with_tag(0),
            Err(e) => next = e.current, // a straggler linked in
        }
    }
}

/// Lock-free skiplist of `(timestamp, encoded row)` ordered newest-first —
/// the paper's "secondary skiplist" variant of the per-key time level.
///
/// * `latest` is a head read; `range(lower, upper)` *seeks* to `upper` in
///   O(log n) instead of walking every newer entry (this is what keeps the
///   raw-edge fetches of long-window pre-aggregation cheap);
/// * insertion CASes at the sorted position (head in the in-order case);
/// * TTL eviction detaches the expired suffix at level 0 with one CAS,
///   seals every detached node, unlinks the upper levels, and defers the
///   frees to epoch reclamation.
///
/// A sealed node must never be linked into a level — it is on its way to
/// being freed. At level 0 that cannot happen (a node is linked there once,
/// before anything can seal it, and the seal makes inserts *behind* it fail
/// their CAS). Its upper levels, though, are linked after it is visible, so
/// truncation and upper-level linking exclude each other through `gate`,
/// and neither side waits: an insert that meets a running truncation leaves
/// its node at height 1, a truncation that meets a linking insert (or
/// another truncation) removes nothing and leaves the suffix to the next
/// TTL pass.
pub struct TimeList {
    head: [Link<TimeEntry>; MAX_HEIGHT],
    len: AtomicUsize,
    bytes: AtomicUsize,
    seed: AtomicU64,
    /// [`TRUNCATING`] | [`LINKING`] × inserts linking upper levels.
    gate: AtomicUsize,
}

impl Default for TimeList {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeList {
    /// Mean heap bytes of one entry's node, payload excluded (memory
    /// model).
    pub const NODE_HEAP_BYTES: usize = TimeNode::MEAN_HEAP_BYTES;

    pub fn new() -> Self {
        TimeList {
            head: null_head(),
            len: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            seed: AtomicU64::new(0x2545_F491_4F6C_DD1D),
            gate: AtomicUsize::new(0),
        }
    }

    pub fn len(&self) -> usize {
        // analysis:allow(relaxed-ordering): statistics counter.
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes currently held (for memory accounting, Section 8).
    pub fn bytes(&self) -> usize {
        // analysis:allow(relaxed-ordering): statistics counter.
        self.bytes.load(Ordering::Relaxed)
    }

    /// Descend to the first node with `node.ts <= ts`, reporting each
    /// level's last position strictly newer than `ts` and first node at or
    /// past it to `level_done` on the way down. A successor that is retired
    /// (or an edge tagged mid-walk) is reported as the end of that level —
    /// the retired region is always the expired suffix.
    // analysis:allow(panic-freedom): every index is `level < MAX_HEIGHT`
    // against the MAX_HEIGHT-sized head or the tower of a node reached at
    // `level`, whose height is > level.
    #[inline(always)]
    fn descend<'g>(
        &'g self,
        ts: i64,
        guard: &'g Guard,
        mut level_done: impl FnMut(usize, &'g Link<TimeEntry>, Shared<'g, TimeNode>),
    ) -> Shared<'g, TimeNode> {
        let mut pred_links: &[Link<TimeEntry>] = &self.head;
        let mut curr = Shared::null();
        for level in (0..MAX_HEIGHT).rev() {
            curr = pred_links[level].load(Ordering::Acquire, guard);
            loop {
                if curr.tag() == RETIRED {
                    // The edge we are standing on was sealed: everything
                    // from here on is the detached suffix.
                    curr = Shared::null();
                    break;
                }
                // SAFETY: loaded under `guard` from a reachable, untagged
                // edge; a node only becomes freeable after it is sealed
                // (tag observed above) *and* all pins from before the seal
                // are released — ours is still held.
                let Some(node) = (unsafe { NodeRef::new(curr) }) else {
                    break;
                };
                if retired(node, guard) {
                    curr = Shared::null();
                    break;
                }
                if node.entry().ts > ts {
                    pred_links = node.tower();
                    curr = pred_links[level].load(Ordering::Acquire, guard);
                } else {
                    break;
                }
            }
            level_done(level, &pred_links[level], curr);
        }
        curr
    }

    /// The writers' search: per level, the edge to CAS on and the successor
    /// it is expected to hold.
    fn search<'g>(&'g self, ts: i64, guard: &'g Guard) -> SearchResult<'g, TimeEntry> {
        let mut preds: [&Link<TimeEntry>; MAX_HEIGHT] = std::array::from_fn(|i| &self.head[i]);
        let mut succs = [Shared::null(); MAX_HEIGHT];
        self.descend(ts, guard, |level, pred, succ| {
            preds[level] = pred;
            succs[level] = succ;
        });
        (preds, succs)
    }

    /// The readers' search: the first live node with `node.ts <= ts`,
    /// without the per-level arrays only an insert needs.
    fn seek<'g>(&'g self, ts: i64, guard: &'g Guard) -> Shared<'g, TimeNode> {
        self.descend(ts, guard, |_, _, _| {})
    }

    /// Insert an encoded row at its timestamp position. Out-of-order inserts
    /// seek past newer entries; same-timestamp rows keep insertion order
    /// (newest insert closest to the head).
    pub fn insert(&self, ts: i64, data: Arc<[u8]>) {
        self.insert_with_height(ts, data, random_height(&self.seed));
    }

    /// [`TimeList::insert`] at a chosen height (tests force the tall, rare
    /// towers).
    #[doc(hidden)]
    pub fn insert_with_height(&self, ts: i64, data: Arc<[u8]>, height: usize) {
        let guard = epoch::pin();
        let size = data.len();
        let mut new = Node::alloc(TimeEntry { ts, data }, height);
        let (shared, preds, succs) = loop {
            let (preds, succs) = self.search(ts, &guard);
            // analysis:allow(relaxed-ordering): pre-publication store into
            // a node no other thread can see yet; the publishing CAS below
            // is the Release edge.
            NodeRef::of(&new).next().store(succs[0], Ordering::Relaxed);
            match preds[0].compare_exchange(
                succs[0],
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(shared) => break (shared, preds, succs),
                Err(e) => new = e.new,
            }
        };
        // analysis:allow(relaxed-ordering): statistics counters.
        self.len.fetch_add(1, Ordering::Relaxed);
        // analysis:allow(relaxed-ordering): statistics counters.
        self.bytes.fetch_add(size, Ordering::Relaxed);
        if height > 1 {
            // Acquire pairs with the Release that ends a truncation: its
            // seals are visible to the `retired` check in `link_upper`.
            if self.gate.fetch_add(LINKING, Ordering::AcqRel) & TRUNCATING == 0 {
                self.link_upper(shared, preds, succs, &guard);
            }
            self.gate.fetch_sub(LINKING, Ordering::Release);
        }
    }

    /// Link a published node's upper levels, starting from the search its
    /// level-0 insert already did; only a lost CAS pays for another one.
    /// Runs with a `LINKING` unit on the gate, so no truncation is running
    /// or can start: a node that is not retired now stays unretired until
    /// the caller releases the unit, and a fresh search sees no retired
    /// node at all.
    fn link_upper<'g>(
        &'g self,
        shared: Shared<'g, TimeNode>,
        mut preds: [&'g Link<TimeEntry>; MAX_HEIGHT],
        mut succs: [Shared<'g, TimeNode>; MAX_HEIGHT],
        guard: &'g Guard,
    ) {
        // SAFETY: the caller's CAS installed this non-null node and the
        // caller's pin, taken before, keeps it allocated even if a
        // truncation detached it since.
        // analysis:allow(panic-path): unreachable — a just-installed node
        // pointer cannot be null.
        let node = unsafe { NodeRef::new(shared) }.expect("just inserted");
        if retired(node, guard) {
            // Truncated between the level-0 CAS and the gate: stays out.
            return;
        }
        let ts = node.entry().ts;
        for (level, link) in node.tower().iter().enumerate().skip(1) {
            loop {
                // analysis:allow(relaxed-ordering): this level's link is
                // not reachable until the CAS below publishes it, and no
                // truncation is sealing it (gate).
                link.store(succs[level], Ordering::Relaxed);
                // A predecessor retired since the search has a tagged edge
                // and a successor retired since was cut out of it: the
                // stale pair fails the CAS either way.
                if preds[level]
                    .compare_exchange(
                        succs[level],
                        shared,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    )
                    .is_ok()
                {
                    break;
                }
                (preds, succs) = self.search(ts, guard);
            }
        }
    }

    /// Visit entries newest → oldest while `f` returns `true`.
    pub fn scan(&self, mut f: impl FnMut(i64, &[u8]) -> bool) {
        let guard = epoch::pin();
        let first = self.head[0].load(Ordering::Acquire, &guard);
        walk(first, &guard, |e| f(e.ts, &e.data));
    }

    /// The newest entry — the `LAST JOIN` fast path.
    pub fn latest(&self) -> Option<(i64, Arc<[u8]>)> {
        let guard = epoch::pin();
        let head = self.head[0].load(Ordering::Acquire, &guard);
        // SAFETY: loaded under `guard`; a concurrently detached node is not
        // freed before the pin drops.
        let entry = unsafe { NodeRef::new(head) }?.entry();
        Some((entry.ts, entry.data.clone()))
    }

    /// Entries with `lower_ts <= ts <= upper_ts`, newest first. Seeks to
    /// `upper_ts` through the skip levels instead of scanning from the head.
    pub fn range(&self, lower_ts: i64, upper_ts: i64) -> Vec<(i64, Arc<[u8]>)> {
        let guard = epoch::pin();
        let mut out = Vec::new();
        walk(self.seek(upper_ts, &guard), &guard, |e| {
            let inside = e.ts >= lower_ts;
            if inside {
                out.push((e.ts, e.data.clone()));
            }
            inside
        });
        out
    }

    // HOT: online window scan — borrowed payloads, no per-entry clones.
    /// Visit entries with `lower_ts <= ts <= upper_ts`, newest first, while
    /// `f` returns `true`. The seek-then-iterate sibling of
    /// [`TimeList::range`]: payloads are yielded as `&[u8]` borrows valid
    /// for the duration of the callback, so a scan→aggregate pass touches
    /// no heap at all.
    pub fn range_visit(&self, lower_ts: i64, upper_ts: i64, mut f: impl FnMut(i64, &[u8]) -> bool) {
        let guard = epoch::pin();
        walk(self.seek(upper_ts, &guard), &guard, |e| {
            e.ts >= lower_ts && f(e.ts, &e.data)
        });
    }

    /// Truncate the expired suffix: drop every entry with `ts < cutoff_ts`
    /// and/or beyond the newest `keep_latest` entries. With `require_both`,
    /// an entry is dropped only when it violates *both* bounds (the
    /// `absandlat` TTL variant); otherwise violating either bound expires it
    /// (`absorlat` and the simple policies). Both predicates are monotone
    /// along the list (ts decreasing, rank increasing), so the expired
    /// entries always form a suffix. Returns `(entries, bytes)` freed —
    /// `(0, 0)` without looking when an insert is linking upper levels or
    /// another truncation is running (see the type docs).
    pub fn truncate(
        &self,
        cutoff_ts: Option<i64>,
        keep_latest: Option<usize>,
        require_both: bool,
    ) -> (usize, usize) {
        if self
            .gate
            .compare_exchange(0, TRUNCATING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return (0, 0);
        }
        let removed = self.truncate_gated(|ts, rank| {
            let by_time = cutoff_ts.is_some_and(|c| ts < c);
            let by_count = keep_latest.is_some_and(|k| rank >= k);
            if require_both {
                (cutoff_ts.is_none() || by_time)
                    && (keep_latest.is_none() || by_count)
                    && (cutoff_ts.is_some() || keep_latest.is_some())
            } else {
                by_time || by_count
            }
        });
        // Release: an insert that takes the gate after this sees the seals.
        self.gate.fetch_sub(TRUNCATING, Ordering::Release);
        removed
    }

    /// [`TimeList::truncate`] proper, holding `TRUNCATING`: the only
    /// concurrent writers are level-0 inserts. `expired(ts, rank)` must be
    /// monotone along the list.
    fn truncate_gated(&self, expired: impl Fn(i64, usize) -> bool) -> (usize, usize) {
        let guard = epoch::pin();
        // Detach the suffix at level 0 with one CAS on the edge into the
        // first expired node.
        let first = loop {
            let mut pred: &Link<TimeEntry> = &self.head[0];
            let mut curr = pred.load(Ordering::Acquire, &guard);
            let mut kept = 0usize;
            // SAFETY: loaded under `guard` from reachable edges of live
            // nodes; nothing is reclaimed while the gate is ours.
            while let Some(node) = unsafe { NodeRef::new(curr) } {
                if expired(node.entry().ts, kept) {
                    break;
                }
                kept += 1;
                pred = node.next();
                curr = pred.load(Ordering::Acquire, &guard);
            }
            if curr.is_null() {
                return (0, 0);
            }
            if pred
                .compare_exchange(
                    curr,
                    Shared::null(),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    &guard,
                )
                .is_ok()
            {
                break curr;
            }
            // Raced with an insert; retry the walk.
        };

        // Seal the chain: tag every detached node's level-0 edge first
        // (this marks the node retired and absorbs any straggler insert
        // that CASed itself in before the seal reached it), then the upper
        // edges.
        let mut count = 0usize;
        let mut freed = 0usize;
        let mut curr = first;
        // SAFETY: the detached suffix is only reclaimed below via
        // `defer_destroy` under this same pin, so every node in it is still
        // valid while we seal it.
        while let Some(node) = unsafe { NodeRef::new(curr) } {
            curr = seal(node.next(), &guard);
            for link in node.tower().iter().skip(1) {
                seal(link, &guard);
            }
            count += 1;
            freed += node.entry().data.len();
        }

        // Repair the upper levels: cut each level's last live edge into
        // the retired region so no live pointer survives into freed memory.
        // Nothing else writes upper-level edges while the gate is ours.
        for level in 1..MAX_HEIGHT {
            let mut pred: &Link<TimeEntry> = &self.head[level];
            let mut edge = pred.load(Ordering::Acquire, &guard);
            // SAFETY: reachable edge loaded under `guard`; retired nodes
            // are freed only after all current pins release.
            while let Some(node) = unsafe { NodeRef::new(edge) } {
                if retired(node, &guard) {
                    pred.store(Shared::null(), Ordering::Release);
                    break;
                }
                // analysis:allow(panic-freedom): a node reached at `level`
                // has a link there.
                pred = &node.tower()[level];
                edge = pred.load(Ordering::Acquire, &guard);
            }
        }

        // Now unreachable from every level: reclaim. The sealed chain is
        // immutable, so a second walk visits exactly the nodes counted
        // above; each link is read before its node is retired.
        let mut curr = first;
        // SAFETY: as for the sealing walk.
        while let Some(node) = unsafe { NodeRef::new(curr) } {
            let next = node.next().load(Ordering::Acquire, &guard);
            // SAFETY: the chain was unlinked from every level above and
            // sealed against re-publication; each node is deferred exactly
            // once, and readers that can still see it hold pins older than
            // this epoch.
            unsafe { guard.defer_destroy(curr) };
            curr = next;
        }
        // analysis:allow(relaxed-ordering): statistics counters.
        self.len.fetch_sub(count, Ordering::Relaxed);
        // analysis:allow(relaxed-ordering): statistics counters.
        self.bytes.fetch_sub(freed, Ordering::Relaxed);
        (count, freed)
    }
}

impl TimeList {
    /// Walk every level from the head and panic unless each is ordered
    /// newest-first and free of retired nodes (tests: a sealed node must
    /// never be linked back in). Returns the number of nodes per level.
    #[cfg(any(test, feature = "model-check"))]
    pub fn check_levels(&self) -> [usize; MAX_HEIGHT] {
        let guard = epoch::pin();
        let mut counts = [0usize; MAX_HEIGHT];
        for (level, count) in counts.iter_mut().enumerate() {
            let mut prev = i64::MAX;
            let mut curr = self.head[level].load(Ordering::Acquire, &guard);
            assert_eq!(curr.tag(), 0, "head edge tagged at level {level}");
            // SAFETY: loaded under `guard` from a reachable edge.
            while let Some(node) = unsafe { NodeRef::new(curr) } {
                let ts = node.entry().ts;
                assert!(
                    !retired(node, &guard),
                    "retired node ts={ts} reachable at level {level}"
                );
                assert!(ts <= prev, "level {level} out of order at ts={ts}");
                prev = ts;
                *count += 1;
                curr = node.tower()[level].load(Ordering::Acquire, &guard);
                assert_eq!(curr.tag(), 0, "live node ts={ts} sealed at level {level}");
            }
        }
        counts
    }
}

impl Drop for TimeList {
    fn drop(&mut self) {
        drop_nodes(&mut self.head);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    fn bytes(v: u8) -> Arc<[u8]> {
        Arc::from(vec![v].into_boxed_slice())
    }

    #[test]
    fn skipmap_insert_get_sorted_iteration() {
        let map: SkipMap<i64, String> = SkipMap::new();
        for k in [5, 1, 9, 3, 7] {
            map.get_or_insert_with(k, || format!("v{k}"));
        }
        assert_eq!(map.len(), 5);
        assert_eq!(map.get(&3), Some(&"v3".to_string()));
        assert_eq!(map.get(&4), None);
        assert_eq!(map.keys(), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn skipmap_get_or_insert_returns_existing() {
        let map: SkipMap<i64, i64> = SkipMap::new();
        let (a, created_a) = map.get_or_insert_with(1, || 10);
        let (b, created_b) = map.get_or_insert_with(1, || 99);
        assert_eq!(*a, 10);
        assert!(created_a);
        assert_eq!(*b, 10, "second insert sees the first value");
        assert!(!created_b);
        assert_eq!(map.len(), 1);
    }

    #[test]
    #[cfg_attr(miri, ignore = "threaded stress test; too slow under miri")]
    fn skipmap_concurrent_inserts() {
        let map: StdArc<SkipMap<u64, u64>> = StdArc::new(SkipMap::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let map = map.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        // Overlapping key ranges force CAS contention.
                        map.get_or_insert_with(i % 257, || t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(map.len(), 257);
        let keys = map.keys();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
    }

    #[test]
    fn timelist_orders_newest_first() {
        let list = TimeList::new();
        for (ts, v) in [(10, 1u8), (30, 3), (20, 2)] {
            list.insert(ts, bytes(v));
        }
        let mut seen = Vec::new();
        list.scan(|ts, data| {
            seen.push((ts, data[0]));
            true
        });
        assert_eq!(seen, vec![(30, 3), (20, 2), (10, 1)]);
        assert_eq!(list.latest().unwrap().0, 30);
        assert_eq!(list.len(), 3);
        assert_eq!(list.bytes(), 3);
    }

    #[test]
    fn timelist_range_scan() {
        let list = TimeList::new();
        for ts in [10, 20, 30, 40, 50] {
            list.insert(ts, bytes(ts as u8));
        }
        let hits = list.range(20, 40);
        let tss: Vec<i64> = hits.iter().map(|(t, _)| *t).collect();
        assert_eq!(tss, vec![40, 30, 20]);
    }

    #[test]
    fn timelist_ttl_truncates_suffix() {
        let list = TimeList::new();
        for ts in [10, 20, 30, 40] {
            list.insert(ts, bytes(ts as u8));
        }
        let (dropped, freed) = list.truncate(Some(25), None, false);
        assert_eq!(dropped, 2);
        assert_eq!(freed, 2);
        assert_eq!(list.len(), 2);
        let mut seen = Vec::new();
        list.scan(|ts, _| {
            seen.push(ts);
            true
        });
        assert_eq!(seen, vec![40, 30]);
        // Idempotent.
        assert_eq!(list.truncate(Some(25), None, false), (0, 0));
    }

    #[test]
    fn timelist_keep_latest_policy() {
        let list = TimeList::new();
        for ts in 0..10 {
            list.insert(ts, bytes(ts as u8));
        }
        let (dropped, _) = list.truncate(None, Some(3), false);
        assert_eq!(dropped, 7);
        assert_eq!(list.len(), 3);
        assert_eq!(list.latest().unwrap().0, 9);
    }

    #[test]
    #[cfg_attr(miri, ignore = "threaded stress test; too slow under miri")]
    fn timelist_concurrent_insert_and_truncate() {
        let list = StdArc::new(TimeList::new());
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let list = list.clone();
                std::thread::spawn(move || {
                    for i in 0..2_000i64 {
                        list.insert(i * 4 + t, bytes((i % 251) as u8));
                    }
                })
            })
            .collect();
        let gc = {
            let list = list.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    list.truncate(Some(1_000), None, false);
                    std::thread::yield_now();
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        gc.join().unwrap();
        list.truncate(Some(1_000), None, false);
        // Every surviving entry respects the cutoff and ordering.
        let mut prev = i64::MAX;
        let mut count = 0usize;
        list.scan(|ts, _| {
            assert!(ts >= 1_000, "expired entry survived: {ts}");
            assert!(ts <= prev, "ordering violated");
            prev = ts;
            count += 1;
            true
        });
        assert_eq!(count, list.len());
        assert_eq!(count, 8_000 - 1_000);
    }

    #[test]
    fn same_timestamp_latest_insert_wins_head() {
        let list = TimeList::new();
        list.insert(5, bytes(1));
        list.insert(5, bytes(2));
        assert_eq!(list.latest().unwrap().1[0], 2);
    }

    /// Epoch reclamation really frees truncated payloads: `Weak` handles on
    /// the `Arc` payloads of evicted entries die once collection quiesces.
    #[test]
    #[cfg_attr(miri, ignore = "epoch collection retry loop; too slow under miri")]
    fn truncate_releases_payloads_via_epoch() {
        let list = TimeList::new();
        let payloads: Vec<Arc<[u8]>> = (0..8u8).map(bytes).collect();
        let weaks: Vec<std::sync::Weak<[u8]>> = payloads.iter().map(StdArc::downgrade).collect();
        for (ts, p) in payloads.into_iter().enumerate() {
            list.insert(ts as i64, p);
        }
        let (dropped, _) = list.truncate(Some(4), None, false);
        assert_eq!(dropped, 4);
        // Other tests in this process may hold transient pins that block one
        // epoch advance; keep collecting until the evicted payloads die.
        for _ in 0..1_000 {
            epoch::force_collect();
            if weaks[..4].iter().all(|w| w.upgrade().is_none()) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        for (ts, w) in weaks.iter().enumerate() {
            if (ts as i64) < 4 {
                assert!(w.upgrade().is_none(), "evicted payload ts={ts} still alive");
            } else {
                assert!(w.upgrade().is_some(), "live payload ts={ts} was freed");
            }
        }
    }

    // -- the single-allocation node layout ---------------------------------

    /// What a window walk reads per row — `ts`, the payload pointer and the
    /// level-0 link — shares the node's first cache line.
    #[test]
    fn time_node_hot_fields_share_the_first_64_bytes() {
        let link = mem::size_of::<Link<TimeEntry>>();
        assert!(mem::offset_of!(TimeNode, entry.ts) + 8 <= 64);
        assert!(mem::offset_of!(TimeNode, entry.data) + mem::size_of::<Arc<[u8]>>() <= 64);
        assert!(mem::offset_of!(TimeNode, tower) + link <= 64);
        // The tower really is behind the header, inside the one allocation.
        for height in 1..=MAX_HEIGHT {
            let node = Node::alloc(
                TimeEntry {
                    ts: 7,
                    data: bytes(1),
                },
                height,
            );
            let tower = NodeRef::of(&node).tower();
            assert_eq!(tower.len(), height);
            let base = node.as_raw() as usize;
            let first = tower.as_ptr() as usize;
            assert_eq!(first - base, mem::offset_of!(TimeNode, tower));
            assert_eq!(
                NodeRef::of(&node).next() as *const _ as usize,
                first,
                "level-0 link is tower[0]"
            );
            assert!(first + height * link <= base + TimeNode::layout(height).size());
        }
    }

    #[test]
    fn random_height_branches_by_four() {
        let seed = AtomicU64::new(42);
        let n = 1 << 16;
        let mut at_least = [0usize; MAX_HEIGHT + 1];
        for _ in 0..n {
            let h = random_height(&seed);
            assert!((1..=MAX_HEIGHT).contains(&h));
            for slot in &mut at_least[1..=h] {
                *slot += 1;
            }
        }
        // P(height >= 2) = 1/4, P(height >= 3) = 1/16.
        assert!((n / 5..n / 3).contains(&at_least[2]), "{at_least:?}");
        assert!((n / 20..n / 12).contains(&at_least[3]), "{at_least:?}");
    }

    // -- drop accounting: every payload comes back exactly once ------------

    fn payloads(n: usize) -> Vec<Arc<[u8]>> {
        (0..n).map(|i| bytes(i as u8)).collect()
    }

    fn all_released(payloads: &[Arc<[u8]>]) -> bool {
        payloads.iter().all(|p| StdArc::strong_count(p) == 1)
    }

    #[test]
    fn list_drop_releases_every_payload_at_every_height() {
        let held = payloads(MAX_HEIGHT * 3);
        let list = TimeList::new();
        for (i, p) in held.iter().enumerate() {
            list.insert_with_height(i as i64 % 7, p.clone(), i % MAX_HEIGHT + 1);
        }
        assert!(held.iter().all(|p| StdArc::strong_count(p) == 2));
        list.check_levels();
        drop(list);
        assert!(all_released(&held));
    }

    #[test]
    #[cfg_attr(miri, ignore = "epoch collection retry loop; too slow under miri")]
    fn truncate_releases_every_payload_at_every_height() {
        let held = payloads(MAX_HEIGHT * 2);
        let list = TimeList::new();
        for (i, p) in held.iter().enumerate() {
            list.insert_with_height(i as i64, p.clone(), i % MAX_HEIGHT + 1);
        }
        // Keep the newest MAX_HEIGHT entries: one of each height goes.
        let (dropped, _) = list.truncate(None, Some(MAX_HEIGHT), false);
        assert_eq!(dropped, MAX_HEIGHT);
        let counts = list.check_levels();
        assert_eq!(counts[0], MAX_HEIGHT);
        assert_eq!(counts[MAX_HEIGHT - 1], 1);
        // Other tests in this process may hold transient pins that block
        // one epoch advance; keep collecting until the evicted nodes die.
        for _ in 0..1_000 {
            epoch::force_collect();
            if all_released(&held[..MAX_HEIGHT]) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(all_released(&held[..MAX_HEIGHT]), "evicted payload kept");
        assert!(held[MAX_HEIGHT..]
            .iter()
            .all(|p| StdArc::strong_count(p) == 2));
        drop(list);
        assert!(all_released(&held));
    }

    #[test]
    fn losing_get_or_insert_drops_its_node_and_value() {
        for height in 1..=MAX_HEIGHT {
            let winner = bytes(1);
            let loser = bytes(2);
            let map: SkipMap<i64, Arc<[u8]>> = SkipMap::new();
            let (_, created) = map.insert_with_height(5, winner.clone(), height);
            assert!(created);
            // Past the fast-path lookup the key already exists: the second
            // node is allocated, loses, and must free its value with it.
            let (v, created) = map.insert_with_height(5, loser.clone(), height);
            assert!(!created);
            assert_eq!(v[0], 1);
            assert_eq!(StdArc::strong_count(&loser), 1, "height {height}");
            assert_eq!(StdArc::strong_count(&winner), 2);
            drop(map);
            assert_eq!(StdArc::strong_count(&winner), 1, "height {height}");
        }
    }

    // -- oracle proptests with forced heights ------------------------------

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Heights 1..=MAX_HEIGHT with the tallest over-represented.
    fn forced_height() -> impl Strategy<Value = usize> {
        (1usize..MAX_HEIGHT + 3).prop_map(|h| h.min(MAX_HEIGHT))
    }

    proptest! {
        /// TimeList against a `(ts, arrival)` BTreeMap: newest first, the
        /// latest insert of a same-`ts` run closest to the head, TTL drops a
        /// suffix — whatever the towers look like.
        #[test]
        fn timelist_matches_btreemap_at_forced_heights(
            inserts in proptest::collection::vec((0i64..12, forced_height()), 1..120),
            cutoff in 0i64..16,
            keep in 0usize..160,
            bounds in (0i64..12, 0i64..12),
        ) {
            let list = TimeList::new();
            let mut oracle: BTreeMap<(i64, usize), u8> = BTreeMap::new();
            for (seq, (ts, height)) in inserts.iter().enumerate() {
                list.insert_with_height(*ts, bytes(seq as u8), *height);
                oracle.insert((*ts, seq), seq as u8);
            }
            let view = |list: &TimeList| {
                let mut v = Vec::new();
                list.scan(|ts, d| { v.push((ts, d[0])); true });
                v
            };
            let expect = |oracle: &BTreeMap<(i64, usize), u8>| -> Vec<(i64, u8)> {
                oracle.iter().rev().map(|((ts, _), v)| (*ts, *v)).collect()
            };
            prop_assert_eq!(view(&list), expect(&oracle));
            list.check_levels();
            let seek_agrees = |list: &TimeList| {
                let guard = epoch::pin();
                (-1i64..17)
                    .all(|ts| list.seek(ts, &guard).as_raw() == list.search(ts, &guard).1[0].as_raw())
            };
            prop_assert!(seek_agrees(&list));

            let (lower, upper) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));
            let in_range: Vec<(i64, u8)> = expect(&oracle)
                .into_iter()
                .filter(|(ts, _)| (lower..=upper).contains(ts))
                .collect();
            let mut visited = Vec::new();
            list.range_visit(lower, upper, |ts, d| { visited.push((ts, d[0])); true });
            prop_assert_eq!(&visited, &in_range);
            let ranged: Vec<(i64, u8)> =
                list.range(lower, upper).iter().map(|(ts, d)| (*ts, d[0])).collect();
            prop_assert_eq!(&ranged, &in_range);
            prop_assert_eq!(
                list.latest().map(|(ts, d)| (ts, d[0])),
                expect(&oracle).first().copied()
            );

            // `absorlat`: past the cutoff or beyond the newest `keep`.
            let survivors: Vec<(i64, u8)> = expect(&oracle)
                .into_iter()
                .enumerate()
                .take_while(|(rank, (ts, _))| *ts >= cutoff && *rank < keep)
                .map(|(_, e)| e)
                .collect();
            let (dropped, freed) = list.truncate(Some(cutoff), Some(keep), false);
            prop_assert_eq!(dropped, inserts.len() - survivors.len());
            prop_assert_eq!(freed, dropped);
            prop_assert_eq!(view(&list), survivors.clone());
            prop_assert_eq!(list.len(), survivors.len());
            list.check_levels();
            prop_assert!(seek_agrees(&list));

            // The list keeps working after the cut, tall towers included.
            list.insert_with_height(cutoff, bytes(255), MAX_HEIGHT);
            let mut after = survivors;
            let at = after.iter().position(|(ts, _)| *ts <= cutoff).unwrap_or(after.len());
            after.insert(at, (cutoff, 255));
            prop_assert_eq!(view(&list), after);
            list.check_levels();
        }

        /// SkipMap against a BTreeMap under first-writer-wins inserts.
        #[test]
        fn skipmap_matches_btreemap_at_forced_heights(
            inserts in proptest::collection::vec((0i64..40, forced_height()), 1..150),
            from in 0i64..40,
        ) {
            let map: SkipMap<i64, usize> = SkipMap::new();
            let mut oracle: BTreeMap<i64, usize> = BTreeMap::new();
            for (seq, (key, height)) in inserts.iter().enumerate() {
                let (v, created) = map.insert_with_height(*key, seq, *height);
                prop_assert_eq!(created, !oracle.contains_key(key));
                prop_assert_eq!(*v, *oracle.entry(*key).or_insert(seq));
            }
            prop_assert_eq!(map.len(), oracle.len());
            prop_assert_eq!(map.keys(), oracle.keys().copied().collect::<Vec<_>>());
            // The readers' walk lands where the writers' search does, for
            // present and absent keys alike.
            let guard = epoch::pin();
            for key in 0..40 {
                prop_assert_eq!(map.get(&key), oracle.get(&key));
                prop_assert_eq!(
                    map.seek_by(&key, &guard).as_raw(),
                    map.search_by(&key, &guard).1[0].as_raw()
                );
            }
            let mut tail = Vec::new();
            map.range_for_each(&from, |k, v| { tail.push((*k, *v)); true });
            prop_assert_eq!(tail, oracle.range(from..).map(|(k, v)| (*k, *v)).collect::<Vec<_>>());
        }
    }
}
