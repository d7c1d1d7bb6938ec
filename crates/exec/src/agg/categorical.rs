//! Frequency- and category-based aggregates (paper Section 4.1, categories
//! 1 and 2): `distinct_count`, `topn_frequency`, `top`, and the
//! `*_cate_where` family, plus the GLQ geo-grid aggregate.
//!
//! All of these keep count-maps, which makes them mergeable (add
//! count-maps) — so they work with long-window pre-aggregation.

use std::collections::HashMap;

use openmldb_types::{Error, KeyValue, Result, Value};

use crate::scalar::geo_hash;

use super::{AggState, Aggregator, OrdVal};

/// Value multiplicities behind `distinct_count` (the number of distinct
/// non-null values) and, with `top`, `topn_frequency(col, n)`: the `n` most
/// frequent values, joined by commas, ordered by descending frequency then
/// ascending key for determinism.
#[derive(Debug, Default, Clone)]
pub struct FrequencyAgg {
    counts: HashMap<KeyValue, u64>,
    top: Option<usize>,
}

impl FrequencyAgg {
    pub fn top(n: usize) -> Self {
        FrequencyAgg {
            counts: HashMap::new(),
            top: Some(n),
        }
    }
}

impl Aggregator for FrequencyAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        if !args[0].is_null() {
            *self.counts.entry(KeyValue::from(&args[0])).or_insert(0) += 1;
        }
        Ok(())
    }

    fn output(&self) -> Value {
        let Some(n) = self.top else {
            return Value::Bigint(self.counts.len() as i64);
        };
        let mut entries: Vec<(&KeyValue, &u64)> = self.counts.iter().collect();
        entries.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        let joined = entries
            .into_iter()
            .take(n)
            .map(|(k, _)| k.render())
            .collect::<Vec<_>>()
            .join(",");
        Value::string(joined)
    }

    fn partial_state(&self) -> Option<AggState> {
        Some(AggState::Counts(self.counts.clone()))
    }

    fn merge_state(&mut self, state: &AggState) -> Result<()> {
        let AggState::Counts(m) = state else {
            return Err(Error::Eval(
                "frequency aggregate expects a Counts partial state".into(),
            ));
        };
        for (k, c) in m {
            *self.counts.entry(k.clone()).or_insert(0) += c;
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.counts.clear();
    }
}

/// `top(col, n)`: the `n` largest values, descending, joined by commas.
#[derive(Debug, Clone)]
pub struct TopAgg {
    values: std::collections::BTreeMap<OrdVal, u64>,
    n: usize,
}

impl TopAgg {
    pub fn new(n: usize) -> Self {
        TopAgg {
            values: std::collections::BTreeMap::new(),
            n,
        }
    }
}

impl Aggregator for TopAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        if !args[0].is_null() {
            *self.values.entry(OrdVal(args[0].clone())).or_insert(0) += 1;
        }
        Ok(())
    }

    fn output(&self) -> Value {
        let mut out = Vec::with_capacity(self.n);
        'outer: for (v, c) in self.values.iter().rev() {
            for _ in 0..*c {
                if out.len() == self.n {
                    break 'outer;
                }
                out.push(v.0.to_string());
            }
        }
        Value::string(out.join(","))
    }

    /// Only the top `n` values: `top_n(A ∪ B) = top_n(top_n(A) ∪ top_n(B))`,
    /// so pre-aggregation buckets carry at most `n` entries.
    fn partial_state(&self) -> Option<AggState> {
        let mut kept = 0u64;
        let mut out = Vec::new();
        for (v, c) in self.values.iter().rev() {
            if kept >= self.n as u64 {
                break;
            }
            let take = (*c).min(self.n as u64 - kept);
            out.push((v.0.clone(), take));
            kept += take;
        }
        Some(AggState::ValueCounts(out))
    }

    fn merge_state(&mut self, state: &AggState) -> Result<()> {
        let AggState::ValueCounts(vals) = state else {
            return Err(Error::Eval(
                "top expects a ValueCounts partial state".into(),
            ));
        };
        for (v, c) in vals {
            *self.values.entry(OrdVal(v.clone())).or_insert(0) += c;
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.values.clear();
    }
}

/// Which statistic the category-keyed aggregate reports per category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CateVariant {
    Avg,
    Sum,
    Count,
}

/// The `avg_cate_where(value, condition, category)` family: group rows by a
/// category key and report a per-category statistic, rendered as
/// `"cate1:stat,cate2:stat"` with categories sorted for determinism. This is
/// the paper's worked example of a feature that would need CASE/WHERE/ORDER
/// gymnastics in standard SQL.
#[derive(Debug, Clone)]
pub struct AvgCateAgg {
    sums: HashMap<KeyValue, (f64, i64)>,
    variant: CateVariant,
    conditional: bool,
}

impl AvgCateAgg {
    pub fn new(variant: CateVariant, conditional: bool) -> Self {
        AvgCateAgg {
            sums: HashMap::new(),
            variant,
            conditional,
        }
    }

    /// arg layout: `[value, condition, category]` or `[value, category]`.
    fn split<'v>(&self, args: &'v [Value]) -> Result<(&'v Value, bool, &'v Value)> {
        if self.conditional {
            Ok((&args[0], args[1].as_bool()?, &args[2]))
        } else {
            Ok((&args[0], true, &args[1]))
        }
    }
}

impl Aggregator for AvgCateAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        let (value, cond, cate) = self.split(args)?;
        if !cond || cate.is_null() || value.is_null() {
            return Ok(());
        }
        let entry = self.sums.entry(KeyValue::from(cate)).or_insert((0.0, 0));
        entry.0 += value.as_f64()?;
        entry.1 += 1;
        Ok(())
    }

    fn output(&self) -> Value {
        let mut entries: Vec<(&KeyValue, &(f64, i64))> = self.sums.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let joined = entries
            .into_iter()
            .map(|(k, (sum, count))| {
                let stat = match self.variant {
                    CateVariant::Avg => sum / *count as f64,
                    CateVariant::Sum => *sum,
                    CateVariant::Count => *count as f64,
                };
                format!("{}:{stat}", k.render())
            })
            .collect::<Vec<_>>()
            .join(",");
        Value::string(joined)
    }

    fn reset(&mut self) {
        self.sums.clear();
    }
}

/// `geo_grid_count(lat, lon, precision)`: the number of distinct geo-grid
/// cells covered by the window's coordinates — the GLQ-style whole-table
/// spatial statistic (paper Section 9.2.2).
#[derive(Debug, Clone)]
pub struct GeoGridCountAgg {
    cells: HashMap<KeyValue, u64>,
    precision: u32,
}

impl GeoGridCountAgg {
    pub fn new(precision: u32) -> Self {
        GeoGridCountAgg {
            cells: HashMap::new(),
            precision,
        }
    }
}

impl Aggregator for GeoGridCountAgg {
    fn update(&mut self, args: &[Value]) -> Result<()> {
        if args[0].is_null() || args[1].is_null() {
            return Ok(());
        }
        let cell = geo_hash(args[0].as_f64()?, args[1].as_f64()?, self.precision);
        *self.cells.entry(KeyValue::Int(cell)).or_insert(0) += 1;
        Ok(())
    }

    fn output(&self) -> Value {
        Value::Bigint(self.cells.len() as i64)
    }

    fn reset(&mut self) {
        self.cells.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_count_counts_keys_once() {
        let mut d = FrequencyAgg::default();
        for v in ["a", "b", "a"] {
            d.update(&[Value::string(v)]).unwrap();
        }
        assert_eq!(d.output(), Value::Bigint(2));
    }

    #[test]
    fn topn_frequency_orders_by_freq_then_key() {
        let mut t = FrequencyAgg::top(2);
        for v in ["x", "y", "y", "z", "z"] {
            t.update(&[Value::string(v)]).unwrap();
        }
        // y and z tie at 2 → key ascending picks y first.
        assert_eq!(t.output(), Value::string("y,z"));
        t.update(&[Value::string("z")]).unwrap();
        assert_eq!(t.output(), Value::string("z,y"));
    }

    #[test]
    fn topn_merge_states() {
        let mut a = FrequencyAgg::top(1);
        a.update(&[Value::string("p")]).unwrap();
        let mut b = FrequencyAgg::top(1);
        for _ in 0..3 {
            b.update(&[Value::string("q")]).unwrap();
        }
        a.merge_state(&b.partial_state().unwrap()).unwrap();
        assert_eq!(a.output(), Value::string("q"));
    }

    #[test]
    fn top_returns_largest_values_desc() {
        let mut t = TopAgg::new(3);
        for v in [5, 1, 9, 9, 3] {
            t.update(&[Value::Int(v)]).unwrap();
        }
        assert_eq!(t.output(), Value::string("9,9,5"));
    }

    #[test]
    fn avg_cate_where_groups_and_filters() {
        // The paper's Figure 1 feature: average product price by category,
        // where quantity > 1.
        let mut a = AvgCateAgg::new(CateVariant::Avg, true);
        let rows = [
            (20.0, true, "shoes"),
            (40.0, true, "shoes"),
            (99.0, false, "shoes"), // filtered by the condition
            (10.0, true, "bags"),
        ];
        for (v, c, k) in rows {
            a.update(&[Value::Double(v), Value::Bool(c), Value::string(k)])
                .unwrap();
        }
        assert_eq!(a.output(), Value::string("bags:10,shoes:30"));
    }

    #[test]
    fn sum_and_count_cate_variants() {
        let mut s = AvgCateAgg::new(CateVariant::Sum, true);
        let mut c = AvgCateAgg::new(CateVariant::Count, true);
        for v in [1.0, 2.0] {
            let args = [Value::Double(v), Value::Bool(true), Value::string("k")];
            s.update(&args).unwrap();
            c.update(&args).unwrap();
        }
        assert_eq!(s.output(), Value::string("k:3"));
        assert_eq!(c.output(), Value::string("k:2"));
    }

    #[test]
    fn avg_cate_unconditional_arity() {
        let mut a = AvgCateAgg::new(CateVariant::Avg, false);
        a.update(&[Value::Double(4.0), Value::string("k")]).unwrap();
        assert_eq!(a.output(), Value::string("k:4"));
    }

    #[test]
    fn geo_grid_count_distinct_cells() {
        let mut g = GeoGridCountAgg::new(8);
        g.update(&[Value::Double(31.0), Value::Double(121.0)])
            .unwrap();
        g.update(&[Value::Double(31.0001), Value::Double(121.0001)])
            .unwrap(); // same cell
        g.update(&[Value::Double(39.9), Value::Double(116.4)])
            .unwrap(); // different cell
        assert_eq!(g.output(), Value::Bigint(2));
    }

    #[test]
    fn empty_outputs() {
        assert_eq!(FrequencyAgg::top(3).output(), Value::string(""));
        assert_eq!(
            AvgCateAgg::new(CateVariant::Avg, true).output(),
            Value::string("")
        );
        assert_eq!(FrequencyAgg::default().output(), Value::Bigint(0));
    }
}
