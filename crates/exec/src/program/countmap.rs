//! Family 3 — count-map kernels: `distinct_count` / `topn_frequency` over a
//! bare column, keyed by canonical `KeyValue` bits (or a row's byte range
//! for strings) in a pooled open-addressing table ([`CountMap`]), one map
//! per column shared by every projection of it.
//!
//! The contract: [`CountMap::tally_row`] a row — a stored one, or the
//! encoded request row, which the fold steps last — [`CountMap::untally_row`]
//! a stored row, and project — [`CountMap::distinct`], or
//! [`TopnState::render`] for `topn_frequency`.
//! Retract is always exact: a key's entry goes when its count reaches zero
//! and the probe run behind it shifts back (no tombstones), so the map
//! holds exactly the keys of the rows stepped and not retracted.

use openmldb_types::{Error, Result, RowView, Value};

use super::column::StrSlot;
use super::field::{str_field, str_without_view, FieldRef, Fixed, KernelClass};
use crate::scratch::RowSource;

/// One distinct key and its multiplicity. Fixed-width columns key by their
/// canonical `KeyValue` bits; STRING columns by a byte range of a row
/// (`row` = its index in the fold's [`RowSource`], `key` = the offset in
/// it, `len` = byte length).
#[derive(Debug, Clone, Copy)]
struct CountEntry {
    key: u64,
    hash: u64,
    count: u64,
    row: u32,
    len: u32,
}

/// Pooled open-addressing count map: cleared between requests, never freed.
/// Output order never depends on slot order (projections sort explicitly),
/// so the per-state random seed only defends probe lengths against keys
/// crafted to collide.
#[derive(Debug)]
pub(super) struct CountMap {
    seed: u64,
    /// Entry index + 1 per slot, 0 = empty. Length is zero or a power of
    /// two, kept at least twice the entry count.
    slots: Vec<u32>,
    entries: Vec<CountEntry>,
}

impl CountMap {
    pub(super) fn new() -> CountMap {
        use std::hash::BuildHasher;
        CountMap {
            seed: std::collections::hash_map::RandomState::new().hash_one(0u64),
            slots: Vec::new(),
            entries: Vec::new(),
        }
    }

    pub(super) fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.slots.fill(0);
            self.entries.clear();
        }
    }

    /// The seeded key hash: murmur3's `fmix64` finisher, so every key bit
    /// reaches the low bits a slot index keeps. (A single multiply-fold
    /// leaves those bits equal for DOUBLE keys whose low mantissa bits are
    /// zero — `k * 0.25`, integral doubles — and sends them all to one home
    /// slot.)
    #[inline(always)]
    fn mix(&self, x: u64) -> u64 {
        let mut h = x ^ self.seed;
        h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    #[inline(always)]
    fn hash_bytes(&self, bytes: &[u8]) -> u64 {
        // Seeded FNV-1a, finished through the same mixer.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.mix(h)
    }

    /// Double the slot table and re-seat every entry by its stored hash.
    /// Cold: a warm state already holds the largest window it has seen.
    #[cold]
    fn grow(&mut self) {
        let n = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(n, 0);
        let mask = n - 1;
        for (i, e) in self.entries.iter().enumerate() {
            let mut at = e.hash as usize & mask;
            for _ in 0..n {
                match self.slots.get_mut(at) {
                    Some(s) if *s == 0 => {
                        *s = i as u32 + 1;
                        break;
                    }
                    _ => at = (at + 1) & mask,
                }
            }
        }
    }

    // HOT: one probe sequence per fed row and count-map kernel — linear
    // probing over a pooled slot table; grows (cold) only past the largest
    // window this state has seen.
    // Slots and entries are reached through checked slice accessors only.
    #[inline(always)]
    fn bump(
        &mut self,
        hash: u64,
        (key, row, len): (u64, u32, u32),
        same: impl Fn(&CountEntry) -> bool,
    ) {
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        // The table is at most half full, so an empty slot ends every probe
        // sequence well inside one lap.
        for _ in 0..self.slots.len() {
            let Some(slot) = self.slots.get_mut(at) else {
                return;
            };
            if *slot == 0 {
                *slot = self.entries.len() as u32 + 1;
                self.entries.push(CountEntry {
                    key,
                    hash,
                    count: 1,
                    row,
                    len,
                });
                return;
            }
            if let Some(e) = self.entries.get_mut(*slot as usize - 1) {
                if e.hash == hash && same(e) {
                    e.count += 1;
                    return;
                }
            }
            at = (at + 1) & mask;
        }
    }

    #[inline(always)]
    fn bump_fixed(&mut self, v: Fixed) {
        let key = v.key_bits();
        self.bump(self.mix(key), (key, 0, 0), |e| e.key == key);
    }

    /// Count a string under entry key `at`: `(offset, row, len)` of a row
    /// among `rows`.
    // Checked slice accessors only (see `bump`).
    #[inline(always)]
    fn bump_bytes(&mut self, bytes: &[u8], rows: &dyn RowSource, at: (u64, u32, u32)) {
        let hash = self.hash_bytes(bytes);
        self.bump(hash, at, |e| stored_key(e, rows) == Some(bytes));
    }

    /// Step row `buf`'s value of `field` into the map. A STRING key is read
    /// through `view` and kept as a slice of row `home.0` of `rows`, whose
    /// bytes `home.1` contain it.
    // `StrSlot::of` is checked offset arithmetic; the rest is `bump_bytes`.
    #[inline(always)]
    pub(super) fn tally_row(
        &mut self,
        field: &FieldRef,
        buf: &[u8],
        view: Option<&RowView<'_>>,
        (row, home): (usize, &[u8]),
        rows: &dyn RowSource,
    ) -> Result<()> {
        if field.class != KernelClass::Str {
            if let Some(v) = field.stored(buf)? {
                self.bump_fixed(v);
            }
            return Ok(());
        }
        let Some(s) = str_field(view.ok_or_else(str_without_view)?, field.col)? else {
            return Ok(());
        };
        let bytes = s.as_bytes();
        if let StrSlot::Row { row, off, len } = StrSlot::of(row, bytes, home)? {
            self.bump_bytes(bytes, rows, (u64::from(off), row, len));
        }
        Ok(())
    }

    /// Take stored row `buf`'s value of `field`, stepped earlier, back out
    /// of the map. A STRING key is matched against the stored keys among
    /// `rows`, as [`tally_row`](Self::tally_row) kept them.
    pub(super) fn untally_row(
        &mut self,
        field: &FieldRef,
        buf: &[u8],
        view: Option<&RowView<'_>>,
        rows: &dyn RowSource,
    ) -> Result<()> {
        if field.class != KernelClass::Str {
            if let Some(v) = field.stored(buf)? {
                let key = v.key_bits();
                self.take(self.mix(key), |e| e.key == key);
            }
            return Ok(());
        }
        if let Some(s) = str_field(view.ok_or_else(str_without_view)?, field.col)? {
            let bytes = s.as_bytes();
            self.take(self.hash_bytes(bytes), |e| {
                stored_key(e, rows) == Some(bytes)
            });
        }
        Ok(())
    }

    /// How many distinct keys the map holds (`distinct_count`).
    #[inline(always)]
    pub(super) fn distinct(&self) -> Value {
        Value::Bigint(self.entries.len() as i64)
    }

    /// Take one occurrence of the key hashed to `hash` (and matching `same`)
    /// out of the map; its entry goes when the count reaches zero, so the
    /// entries are exactly the keys stepped and not retracted.
    fn take(&mut self, hash: u64, same: impl Fn(&CountEntry) -> bool) {
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = hash as usize & mask;
        for _ in 0..self.slots.len() {
            let Some(&slot) = self.slots.get(at) else {
                return;
            };
            let idx = (slot as usize).wrapping_sub(1);
            match self.entries.get_mut(idx) {
                None => return,
                Some(e) if e.hash == hash && same(e) => {
                    e.count -= 1;
                    if e.count == 0 {
                        self.vacate(at, idx);
                    }
                    return;
                }
                Some(_) => at = (at + 1) & mask,
            }
        }
    }

    /// Drop entry `idx`, held by slot `hole`: backward-shift the probe run
    /// behind it, then move the last entry into its place.
    fn vacate(&mut self, mut hole: usize, idx: usize) {
        let mask = self.slots.len().wrapping_sub(1);
        let mut next = (hole + 1) & mask;
        while let Some(&slot) = self.slots.get(next).filter(|s| **s != 0) {
            let home = self
                .entries
                .get(slot as usize - 1)
                .map_or(next, |e| e.hash as usize & mask);
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                if let Some(h) = self.slots.get_mut(hole) {
                    *h = slot;
                }
                hole = next;
            }
            next = (next + 1) & mask;
        }
        if let Some(h) = self.slots.get_mut(hole) {
            *h = 0;
        }
        let last = self.entries.len().wrapping_sub(1);
        if idx != last {
            if let Some(moved) = self.entries.get(last) {
                let mut at = moved.hash as usize & mask;
                while let Some(slot) = self.slots.get_mut(at) {
                    if *slot as usize == last + 1 {
                        *slot = idx as u32 + 1;
                        break;
                    }
                    at = (at + 1) & mask;
                }
            }
        }
        self.entries.swap_remove(idx);
    }
}

/// The bytes of a STRING count-map entry, among `rows`.
#[inline]
fn stored_key<'a>(e: &CountEntry, rows: &'a dyn RowSource) -> Option<&'a [u8]> {
    let off = usize::try_from(e.key).ok()?;
    let end = off.checked_add(e.len as usize)?;
    rows.row_at(e.row as usize).ok()?.get(off..end)
}

/// One `topn_frequency(col, n)` projection of a count map.
#[derive(Debug, Clone, Copy)]
pub(super) struct TopnSpec {
    pub(super) map: usize,
    pub(super) n: usize,
}

/// Pooled projection scratch of one `topn_frequency`: the selected entry
/// order and the rendered output, so producing the value is one `Arc<str>`
/// allocation.
#[derive(Debug, Default)]
pub(super) struct TopnState {
    order: Vec<u32>,
    rendered: String,
}

impl TopnState {
    /// Select and render the `n` most frequent keys in the interpreter's
    /// order: count descending, then key ascending by `KeyValue`'s ordering
    /// (`Int` as i64, `Bits` as u64, `Str` byte-lexicographic), each key
    /// rendered as `KeyValue::render` does.
    pub(super) fn render(
        &mut self,
        field: &FieldRef,
        map: &CountMap,
        n: usize,
        rows: &dyn RowSource,
    ) -> Result<()> {
        use std::cmp::Ordering;
        use std::fmt::Write;
        let key = |e: &CountEntry| stored_key(e, rows).unwrap_or(&[]);
        let cmp = |a: &u32, b: &u32| {
            let (Some(x), Some(y)) = (map.entries.get(*a as usize), map.entries.get(*b as usize))
            else {
                return Ordering::Equal;
            };
            y.count.cmp(&x.count).then_with(|| match field.class {
                KernelClass::Str => key(x).cmp(key(y)),
                c if c.is_int() => (x.key as i64).cmp(&(y.key as i64)),
                _ => x.key.cmp(&y.key),
            })
        };
        self.order.clear();
        self.order.extend(0..map.entries.len() as u32);
        if n < self.order.len() {
            if n > 0 {
                self.order.select_nth_unstable_by(n - 1, cmp);
            }
            self.order.truncate(n);
        }
        self.order.sort_unstable_by(cmp);
        self.rendered.clear();
        for (i, e) in self
            .order
            .iter()
            .filter_map(|&e| map.entries.get(e as usize))
            .enumerate()
        {
            if i > 0 {
                self.rendered.push(',');
            }
            // Writing into a `String` cannot fail.
            let _ = match field.class {
                KernelClass::Str => {
                    let s = std::str::from_utf8(key(e))
                        .map_err(|e| Error::Eval(format!("non-UTF-8 count-map key: {e}")))?;
                    self.rendered.write_str(s)
                }
                c if c.is_int() => write!(self.rendered, "{}", e.key as i64),
                _ => write!(self.rendered, "f{:016x}", e.key),
            };
        }
        Ok(())
    }

    /// The rendered selection as the `topn_frequency` value.
    #[inline(always)]
    pub(super) fn topn(&self) -> Value {
        Value::string(self.rendered.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::fold::Binding;
    use crate::program::testkit::*;
    use crate::program::WindowProgram;
    use openmldb_sql::plan::BoundAggregate;
    use openmldb_types::{CompactCodec, Row};
    use proptest::prelude::{any, ProptestConfig};
    use std::collections::BTreeMap;

    /// The map's `key → count`, every slot checked on the way: an occupied
    /// slot names a live entry, each entry is held by exactly one slot, and
    /// a probe from its hash reaches it before an empty slot.
    fn contents(map: &CountMap) -> BTreeMap<u64, u64> {
        let mask = map.slots.len().wrapping_sub(1);
        let occupied = map.slots.iter().filter(|s| **s != 0).count();
        assert_eq!(occupied, map.entries.len(), "one slot per entry");
        for (i, e) in map.entries.iter().enumerate() {
            let mut at = e.hash as usize & mask;
            while map.slots[at] as usize != i + 1 {
                assert_ne!(map.slots[at], 0, "entry {i} unreachable from its hash");
                at = (at + 1) & mask;
            }
        }
        map.entries.iter().map(|e| (e.key, e.count)).collect()
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig { cases: 64 })]

        /// Keys hashed into three values collide in long probe runs; any
        /// sequence of steps and retracts keeps exactly the counts of a
        /// model map, every entry reachable, and retracting everything
        /// empties every slot (backward shift, no tombstones).
        #[test]
        fn retract_contract_shifts_colliding_keys_back(
            ops in proptest::collection::vec((0u64..24, any::<bool>()), 0..200),
        ) {
            let (mut map, mut model) = (CountMap::new(), BTreeMap::new());
            let same = |key: u64| move |e: &CountEntry| e.key == key;
            for (key, add) in ops {
                let held = model.get(&key).copied().unwrap_or(0);
                if add {
                    map.bump(key % 3, (key, 0, 0), same(key));
                    model.insert(key, held + 1);
                } else if held > 0 {
                    map.take(key % 3, same(key));
                    model.insert(key, held - 1);
                }
                model.retain(|_, c| *c > 0);
                proptest::prop_assert_eq!(&contents(&map), &model);
            }
            for (key, count) in model {
                (0..count).for_each(|_| map.take(key % 3, same(key)));
            }
            proptest::prop_assert!(map.entries.is_empty() && map.slots.iter().all(|s| *s == 0));
        }

        /// The count-map family's contract over stored rows: BIGINT keys at
        /// `i64::MIN/MAX`, DOUBLE keys with both zeros and NaN, STRING keys
        /// and NULLs, stepped in and all retracted again in another order,
        /// leave every map empty; stepped again, they project what
        /// `fold_rows` answers.
        #[test]
        fn retract_contract_restores_an_empty_map(
            raw in proptest::collection::vec((0usize..6, 0usize..6, 0usize..5), 0..64),
            rotate in 0usize..64,
        ) {
            let bigints = [i64::MIN, i64::MAX, -1, 0, 7, i64::MIN];
            let doubles = [-0.0, 0.0, f64::NAN, 1.5, -1.5, 0.0];
            let words = ["a", "bb", "a", "", "ccc"];
            let rows: Vec<Row> = (raw.iter().enumerate())
                .map(|(ts, &(b, d, w))| {
                    let null_or = |i: usize, v: Value| if i == 5 { Value::Null } else { v };
                    let (b, d) = (null_or(b, Value::Bigint(bigints[b])), null_or(d, Value::Double(doubles[d])));
                    let w = if w == 4 { Value::Null } else { Value::string(words[w]) };
                    let ts = Value::Timestamp(ts as i64);
                    Row::new(vec![Value::string("k"), ts, Value::Int(1), b, Value::Float(0.0), d, w, Value::Null])
                })
                .collect();
            let topn = |c: usize, n: i64| agg_of("topn_frequency", vec![col(c), lit(Value::Bigint(n))]);
            let aggs = [agg("distinct_count", 3, 0), agg("distinct_count", 5, 0), topn(6, 3), topn(3, 2), topn(5, 9)];
            let codec = CompactCodec::new(schema());
            let refs: Vec<&BoundAggregate> = aggs.iter().collect();
            let wp = WindowProgram::compile(&window(), &refs, &codec).expect("compiles");
            let (entries, arena) = arena_of(&rows, &codec);
            let source = (entries.as_slice(), arena.as_slice());
            let mut maps: Vec<CountMap> = wp.maps.iter().map(|_| CountMap::new()).collect();
            let step = |maps: &mut Vec<CountMap>, i: usize, add: bool| {
                let buf = source.row_at(i).expect("row");
                let view = codec.view(buf).expect("view");
                for (field, map) in wp.maps.iter().zip(maps.iter_mut()) {
                    match add {
                        true => map.tally_row(field, buf, Some(&view), (i, buf), &source),
                        false => map.untally_row(field, buf, Some(&view), &source),
                    }
                    .expect("step");
                }
            };
            (0..rows.len()).for_each(|i| step(&mut maps, i, true));
            let n = rows.len().max(1);
            (0..rows.len()).for_each(|i| step(&mut maps, (i + rotate) % n, false));
            for map in &maps {
                proptest::prop_assert!(map.entries.is_empty() && map.slots.iter().all(|s| *s == 0));
            }
            (0..rows.len()).for_each(|i| step(&mut maps, i, true));
            let mut out = Vec::new();
            for b in &wp.bindings {
                match *b {
                    Binding::Distinct { map } => out.push(maps[map].distinct()),
                    Binding::TopN { t } => {
                        let (mut top, spec) = (TopnState::default(), wp.topn[t]);
                        top.render(&wp.maps[spec.map], &maps[spec.map], spec.n, &source).expect("render");
                        out.push(top.topn());
                    }
                    _ => unreachable!("count maps only"),
                }
            }
            let projected = Ok::<_, openmldb_types::Error>(out);
            proptest::prop_assert_eq!(projected, folded(&wp, &source, &codec));
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// Round keys spread over the slots for any seed: 64 DOUBLE keys
        /// `k * 0.25`, 64 FLOAT keys `k * 0.5` and 64 BIGINT keys
        /// `k * 1000` — DOUBLE and FLOAT ones with zero low mantissa bits,
        /// which a hash that leaves its low bits unmixed sends to one home
        /// slot — each fill a map half full with at most 8 keys on one home
        /// slot, sitting on average under 4 slots from home.
        #[test]
        fn count_map_spreads_round_keys(seed in any::<i64>()) {
            let sets: [Vec<Fixed>; 3] = [
                (0..64).map(|k| Fixed::Double(k as f64 * 0.25)).collect(),
                (0..64).map(|k| Fixed::Float(k as f32 * 0.5)).collect(),
                (0..64).map(|k| Fixed::Int(k * 1_000)).collect(),
            ];
            for keys in sets {
                let mut map = CountMap::new();
                map.seed = seed as u64;
                keys.iter().for_each(|&k| map.bump_fixed(k));
                contents(&map);
                let mask = map.slots.len() - 1;
                proptest::prop_assert_eq!((map.entries.len(), map.slots.len()), (64, 128));
                let mut homes = vec![0usize; map.slots.len()];
                let mut displaced = 0;
                for (at, &slot) in map.slots.iter().enumerate().filter(|(_, s)| **s != 0) {
                    let home = map.entries[slot as usize - 1].hash as usize & mask;
                    homes[home] += 1;
                    displaced += at.wrapping_sub(home) & mask;
                }
                let crowded = homes.iter().max().copied().unwrap_or(0);
                proptest::prop_assert!(crowded <= 8, "{} keys on one home slot", crowded);
                proptest::prop_assert!(displaced < 4 * 64, "{} slots of displacement", displaced);
            }
        }
    }

    #[test]
    fn count_map_kernels_match_interpreted_projection_order() {
        let topn = |c: usize, n: i64| agg_of("topn_frequency", vec![col(c), lit(Value::Bigint(n))]);
        let aggs = vec![
            agg_of("distinct_count", vec![col(2)]),
            agg_of("distinct_count", vec![col(3)]),
            agg_of("distinct_count", vec![col(4)]),
            agg_of("distinct_count", vec![col(5)]),
            agg_of("distinct_count", vec![col(6)]),
            agg_of("distinct_count", vec![col(1)]),
            topn(6, 2),
            topn(6, 100),
            topn(6, 0),
            topn(6, -3),
            topn(2, 3),
            topn(4, 2),
            topn(5, 4),
            topn(1, 1),
        ];
        let mut rows = edge_rows();
        rows.extend((8..60).map(row));
        // Request strings: one already in the arena, one only in the request.
        for s in ["apple", "only-in-request"] {
            let mut request = row(61).values().to_vec();
            request[6] = Value::string(s);
            let request = Row::new(request);
            let (expected, got) = fold_both(&aggs, &rows, Some(&request));
            assert_eq!(expected, got);
        }
        // Request row alone; empty window.
        let (expected, got) = fold_both(&aggs, &[], Some(&row(4)));
        assert_eq!(expected, got);
        let (expected, got) = fold_both(&aggs, &[], None);
        assert_eq!(expected, got);

        // One map per column, shared by every projection of it.
        let codec = CompactCodec::new(schema());
        let refs: Vec<&BoundAggregate> = aggs.iter().collect();
        let wp = WindowProgram::compile(&window(), &refs, &codec).expect("compiles");
        assert_eq!(wp.maps.len(), 6);
        assert!(wp.generic.is_empty());
    }
}
