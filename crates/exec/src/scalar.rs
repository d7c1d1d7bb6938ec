//! Scalar built-in function implementations, including the paper's string
//! parsing (`split_by_key`) and feature-signature functions (`continuous`,
//! `discrete`, `multiclass_label`) of Section 4.1, plus the geo helpers used
//! by the GLQ workload.

use std::sync::OnceLock;

use openmldb_obs::Fnv;
use openmldb_sql::functions::{FunctionDef, BUILTINS};
use openmldb_types::{Error, Result, Value};

/// Compile-time identity of a scalar builtin.
///
/// Resolved from a name exactly once — at plan specialization, or lazily via
/// [`resolve_def`] for the interpreted path — so per-row dispatch is an
/// integer jump table instead of a string match per evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFuncId {
    IfNull,
    If,
    Abs,
    Ceil,
    Floor,
    Round,
    Sqrt,
    Log,
    Exp,
    Pow,
    Upper,
    Lower,
    CharLength,
    Substr,
    Concat,
    IsIn,
    SplitByKey,
    SplitByValue,
    MulticlassLabel,
    BinaryLabel,
    Continuous,
    Discrete,
    Hash64,
    Day,
    Hour,
    Minute,
    GeoDistance,
    GeoHash,
    Sin,
    Cos,
    Tan,
    Atan,
    Log2,
    Log10,
    Truncate,
    Sign,
    Greatest,
    Least,
    Degrees,
    Radians,
    Trim,
    Ltrim,
    Rtrim,
    Replace,
    Reverse,
    Strcmp,
    StartsWith,
    EndsWith,
    Lcase,
    Ucase,
    Lpad,
    Rpad,
    StringCast,
    Year,
    Month,
    DayOfMonth,
    DayOfWeek,
    Week,
    Double,
    Bigint,
}

/// Resolve a builtin name to its dispatch id (`None` for names this library
/// does not implement — calling those is a runtime [`Error::Eval`]).
pub fn from_name(name: &str) -> Option<ScalarFuncId> {
    use ScalarFuncId::*;
    Some(match name {
        "if_null" => IfNull,
        "if" => If,
        "abs" => Abs,
        "ceil" => Ceil,
        "floor" => Floor,
        "round" => Round,
        "sqrt" => Sqrt,
        "log" => Log,
        "exp" => Exp,
        "pow" => Pow,
        "upper" => Upper,
        "lower" => Lower,
        "char_length" => CharLength,
        "substr" => Substr,
        "concat" => Concat,
        "is_in" => IsIn,
        "split_by_key" => SplitByKey,
        "split_by_value" => SplitByValue,
        "multiclass_label" => MulticlassLabel,
        "binary_label" => BinaryLabel,
        "continuous" => Continuous,
        "discrete" => Discrete,
        "hash64" => Hash64,
        "day" => Day,
        "hour" => Hour,
        "minute" => Minute,
        "geo_distance" => GeoDistance,
        "geo_hash" => GeoHash,
        "sin" => Sin,
        "cos" => Cos,
        "tan" => Tan,
        "atan" => Atan,
        "log2" => Log2,
        "log10" => Log10,
        "truncate" => Truncate,
        "sign" => Sign,
        "greatest" => Greatest,
        "least" => Least,
        "degrees" => Degrees,
        "radians" => Radians,
        "trim" => Trim,
        "ltrim" => Ltrim,
        "rtrim" => Rtrim,
        "replace" => Replace,
        "reverse" => Reverse,
        "strcmp" => Strcmp,
        "starts_with" => StartsWith,
        "ends_with" => EndsWith,
        "lcase" => Lcase,
        "ucase" => Ucase,
        "lpad" => Lpad,
        "rpad" => Rpad,
        "string" => StringCast,
        "year" => Year,
        "month" => Month,
        "dayofmonth" => DayOfMonth,
        "dayofweek" => DayOfWeek,
        "week" => Week,
        "double" => Double,
        "bigint" => Bigint,
        _ => return None,
    })
}

/// Resolve a planner-bound `&'static FunctionDef` to its dispatch id in
/// O(1), via the def's position within the static `BUILTINS` table (the
/// planner only ever binds entries of that table, so the pointer offset is
/// the ordinal). Defs from elsewhere fall back to the name lookup.
pub fn resolve_def(def: &'static FunctionDef) -> Option<ScalarFuncId> {
    static TABLE: OnceLock<Vec<Option<ScalarFuncId>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| BUILTINS.iter().map(|d| from_name(d.name)).collect());
    let base = BUILTINS.as_ptr() as usize;
    let p = def as *const FunctionDef as usize;
    let size = std::mem::size_of::<FunctionDef>();
    if p < base || !(p - base).is_multiple_of(size) {
        return from_name(def.name);
    }
    match table.get((p - base) / size) {
        Some(id) => *id,
        None => from_name(def.name),
    }
}

/// Dispatch a scalar builtin by name. NULL handling is per-function: most
/// propagate NULL, `if_null` exists to replace it.
///
/// Cold-path entry point: resolves the name per call. Per-row evaluation
/// goes through [`call_id`] with an id resolved once at compile time.
pub fn call(name: &str, args: &[Value]) -> Result<Value> {
    match from_name(name) {
        Some(id) => call_id(id, args),
        None => Err(Error::Eval(format!("unknown scalar function `{name}`"))),
    }
}

/// Dispatch a scalar builtin by its pre-resolved id: per row, an integer
/// match, no string comparison.
pub fn call_id(id: ScalarFuncId, args: &[Value]) -> Result<Value> {
    use ScalarFuncId::*;
    // Functions with explicit NULL semantics first.
    match id {
        IfNull => {
            return Ok(if args[0].is_null() {
                args[1].clone()
            } else {
                args[0].clone()
            })
        }
        If => {
            return Ok(if args[0].as_bool()? {
                args[1].clone()
            } else {
                args[2].clone()
            })
        }
        _ => {}
    }
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    Ok(match id {
        IfNull | If => unreachable!("handled above"),
        Abs => match &args[0] {
            Value::Int(v) => Value::Int(v.abs()),
            Value::Bigint(v) => Value::Bigint(v.abs()),
            Value::Float(v) => Value::Float(v.abs()),
            v => Value::Double(v.as_f64()?.abs()),
        },
        Ceil => Value::Bigint(args[0].as_f64()?.ceil() as i64),
        Floor => Value::Bigint(args[0].as_f64()?.floor() as i64),
        Round => Value::Bigint(args[0].as_f64()?.round() as i64),
        Sqrt => Value::Double(args[0].as_f64()?.sqrt()),
        Log => Value::Double(args[0].as_f64()?.ln()),
        Exp => Value::Double(args[0].as_f64()?.exp()),
        Pow => Value::Double(args[0].as_f64()?.powf(args[1].as_f64()?)),
        Upper => Value::string(args[0].as_str()?.to_uppercase()),
        Lower => Value::string(args[0].as_str()?.to_lowercase()),
        CharLength => Value::Int(args[0].as_str()?.chars().count() as i32),
        Substr => {
            let s = args[0].as_str()?;
            let start = (args[1].as_i64()?.max(1) - 1) as usize; // SQL is 1-based
            let len = match args.get(2) {
                Some(v) => v.as_i64()?.max(0) as usize,
                None => usize::MAX,
            };
            Value::string(s.chars().skip(start).take(len).collect::<String>())
        }
        Concat => {
            let mut out = String::new();
            for a in args {
                match a {
                    Value::Str(s) => out.push_str(s),
                    other => out.push_str(&other.to_string()),
                }
            }
            Value::string(out)
        }
        IsIn => {
            let needle = args[0].as_str()?;
            let hay = args[1].as_str()?;
            Value::Bool(hay.split(',').any(|p| p.trim() == needle))
        }
        SplitByKey => split_by_key(args, true)?,
        SplitByValue => split_by_key(args, false)?,
        MulticlassLabel => Value::Bigint(args[0].as_i64()?),
        BinaryLabel => Value::Int(
            if args[0]
                .as_bool()
                .or_else(|_| args[0].as_i64().map(|v| v != 0))?
            {
                1
            } else {
                0
            },
        ),
        Continuous => Value::Double(args[0].as_f64()?),
        Discrete => {
            // Feature-hash a value into `dim` buckets (default 1 << 20),
            // the high-dimensional sparse encoding of Section 4.1.
            let dim = match args.get(1) {
                Some(v) => v.as_i64()?.max(1),
                None => 1 << 20,
            };
            Value::Bigint((hash_value(&args[0]) % dim as u64) as i64)
        }
        Hash64 => Value::Bigint(hash_value(&args[0]) as i64),
        Day => Value::Int(((args[0].as_i64()? / 86_400_000) % 365) as i32),
        Hour => Value::Int(((args[0].as_i64()? / 3_600_000) % 24) as i32),
        Minute => Value::Int(((args[0].as_i64()? / 60_000) % 60) as i32),
        GeoDistance => {
            let (lat1, lon1) = (args[0].as_f64()?, args[1].as_f64()?);
            let (lat2, lon2) = (args[2].as_f64()?, args[3].as_f64()?);
            Value::Double(haversine_m(lat1, lon1, lat2, lon2))
        }
        GeoHash => {
            let (lat, lon) = (args[0].as_f64()?, args[1].as_f64()?);
            let precision = args[2].as_i64()?.clamp(1, 30) as u32;
            Value::Bigint(geo_hash(lat, lon, precision))
        }
        // ---- additional math -------------------------------------------
        Sin => Value::Double(args[0].as_f64()?.sin()),
        Cos => Value::Double(args[0].as_f64()?.cos()),
        Tan => Value::Double(args[0].as_f64()?.tan()),
        Atan => Value::Double(args[0].as_f64()?.atan()),
        Log2 => Value::Double(args[0].as_f64()?.log2()),
        Log10 => Value::Double(args[0].as_f64()?.log10()),
        Truncate => {
            let d = args[1].as_i64()?.clamp(0, 18) as u32;
            let scale = 10f64.powi(d as i32);
            Value::Double((args[0].as_f64()? * scale).trunc() / scale)
        }
        Sign => Value::Int({
            let v = args[0].as_f64()?;
            if v > 0.0 {
                1
            } else if v < 0.0 {
                -1
            } else {
                0
            }
        }),
        Greatest => args
            .iter()
            .max_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(Value::Null),
        Least => args
            .iter()
            .min_by(|a, b| a.total_cmp(b))
            .cloned()
            .unwrap_or(Value::Null),
        Degrees => Value::Double(args[0].as_f64()?.to_degrees()),
        Radians => Value::Double(args[0].as_f64()?.to_radians()),
        // ---- additional strings -----------------------------------------
        Trim => Value::string(args[0].as_str()?.trim()),
        Ltrim => Value::string(args[0].as_str()?.trim_start()),
        Rtrim => Value::string(args[0].as_str()?.trim_end()),
        Replace => Value::string(
            args[0]
                .as_str()?
                .replace(args[1].as_str()?, args[2].as_str()?),
        ),
        Reverse => Value::string(args[0].as_str()?.chars().rev().collect::<String>()),
        Strcmp => Value::Int(match args[0].as_str()?.cmp(args[1].as_str()?) {
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => 1,
        }),
        StartsWith => Value::Bool(args[0].as_str()?.starts_with(args[1].as_str()?)),
        EndsWith => Value::Bool(args[0].as_str()?.ends_with(args[1].as_str()?)),
        Lcase => Value::string(args[0].as_str()?.to_lowercase()),
        Ucase => Value::string(args[0].as_str()?.to_uppercase()),
        Lpad | Rpad => {
            let s = args[0].as_str()?;
            let target = args[1].as_i64()?.max(0) as usize;
            let pad = args[2].as_str()?;
            let current = s.chars().count();
            if current >= target || pad.is_empty() {
                Value::string(s.chars().take(target).collect::<String>())
            } else {
                let fill: String = pad.chars().cycle().take(target - current).collect();
                if id == Lpad {
                    Value::string(format!("{fill}{s}"))
                } else {
                    Value::string(format!("{s}{fill}"))
                }
            }
        }
        StringCast => Value::string(args[0].to_string()),
        // ---- additional time (civil-calendar on epoch millis, UTC) ------
        Year => Value::Int(civil_from_ms(args[0].as_i64()?).0),
        Month => Value::Int(civil_from_ms(args[0].as_i64()?).1),
        DayOfMonth => Value::Int(civil_from_ms(args[0].as_i64()?).2),
        DayOfWeek => {
            // 1 = Sunday .. 7 = Saturday (MySQL convention); epoch day 0
            // (1970-01-01) was a Thursday.
            let days = args[0].as_i64()?.div_euclid(86_400_000);
            Value::Int(((days + 4).rem_euclid(7) + 1) as i32)
        }
        Week => {
            let days = args[0].as_i64()?.div_euclid(86_400_000);
            Value::Int(((days + 3).rem_euclid(371) / 7 + 1).min(53) as i32)
        }
        // ---- conversions --------------------------------------------------
        Double => Value::Double(match &args[0] {
            Value::Str(s) => s.trim().parse::<f64>().unwrap_or(f64::NAN),
            other => other.as_f64()?,
        }),
        Bigint => Value::Bigint(match &args[0] {
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map_err(|e| Error::Eval(format!("cannot cast `{s}` to BIGINT: {e}")))?,
            other => other.as_i64().unwrap_or(other.as_f64()? as i64),
        }),
    })
}

/// `split_by_key(input, delim, kv_delim)` splits `input` by `delim`, treats
/// each part as `key<kv_delim>value`, and returns the keys (or values) joined
/// by commas. Example: `split_by_key("a:1|b:2", "|", ":")` → `"a,b"`.
fn split_by_key(args: &[Value], keys: bool) -> Result<Value> {
    let input = args[0].as_str()?;
    let delim = args[1].as_str()?;
    let kv_delim = args[2].as_str()?;
    if delim.is_empty() || kv_delim.is_empty() {
        return Err(Error::Eval(
            "split_by_key delimiters must be non-empty".into(),
        ));
    }
    let mut out = Vec::new();
    for part in input.split(delim) {
        if let Some((k, v)) = part.split_once(kv_delim) {
            out.push(if keys { k } else { v });
        }
    }
    Ok(Value::string(out.join(",")))
}

/// Convert epoch milliseconds (UTC) to `(year, month, day)` using the civil
/// calendar algorithm (Howard Hinnant's `civil_from_days`).
pub fn civil_from_ms(ms: i64) -> (i32, i32, i32) {
    let z = ms.div_euclid(86_400_000) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    (y as i32, m as i32, d as i32)
}

/// FNV-1a over the canonical rendering — stable across runs (unlike
/// `DefaultHasher`, which is seeded), so feature hashes are reproducible.
pub fn hash_value(v: &Value) -> u64 {
    let rendered = match v {
        Value::Str(s) => s.to_string(),
        other => other.to_string(),
    };
    let mut h = Fnv::new();
    h.write(rendered.as_bytes());
    h.finish()
}

/// Great-circle distance in meters.
pub fn haversine_m(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    const R: f64 = 6_371_000.0;
    let (p1, p2) = (lat1.to_radians(), lat2.to_radians());
    let dp = (lat2 - lat1).to_radians();
    let dl = (lon2 - lon1).to_radians();
    let a = (dp / 2.0).sin().powi(2) + p1.cos() * p2.cos() * (dl / 2.0).sin().powi(2);
    2.0 * R * a.sqrt().asin()
}

/// Interleaved-bit geo cell id at `precision` bits per axis (geohash-like).
/// Higher precision → smaller cells → more cells per dataset.
pub fn geo_hash(lat: f64, lon: f64, precision: u32) -> i64 {
    let lat_n = ((lat + 90.0) / 180.0).clamp(0.0, 1.0);
    let lon_n = ((lon + 180.0) / 360.0).clamp(0.0, 1.0);
    let scale = (1u64 << precision) as f64;
    let lat_b = (lat_n * scale).min(scale - 1.0) as u64;
    let lon_b = (lon_n * scale).min(scale - 1.0) as u64;
    let mut out: u64 = 0;
    for i in 0..precision {
        out |= ((lat_b >> i) & 1) << (2 * i);
        out |= ((lon_b >> i) & 1) << (2 * i + 1);
    }
    out as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn math_functions() {
        assert_eq!(call("abs", &[Value::Int(-3)]).unwrap(), Value::Int(3));
        assert_eq!(
            call("ceil", &[Value::Double(1.2)]).unwrap(),
            Value::Bigint(2)
        );
        assert_eq!(
            call("floor", &[Value::Double(1.8)]).unwrap(),
            Value::Bigint(1)
        );
        assert_eq!(
            call("pow", &[Value::Int(2), Value::Int(10)]).unwrap(),
            Value::Double(1024.0)
        );
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            call("upper", &[Value::string("ab")]).unwrap(),
            Value::string("AB")
        );
        assert_eq!(
            call(
                "substr",
                &[Value::string("hello"), Value::Int(2), Value::Int(3)]
            )
            .unwrap(),
            Value::string("ell")
        );
        assert_eq!(
            call("concat", &[Value::string("a"), Value::Int(1)]).unwrap(),
            Value::string("a1")
        );
        assert_eq!(
            call("char_length", &[Value::string("héllo")]).unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn split_by_key_parses_kv_pairs() {
        let out = call(
            "split_by_key",
            &[
                Value::string("shoes:20|bags:35|shoes:10"),
                Value::string("|"),
                Value::string(":"),
            ],
        )
        .unwrap();
        assert_eq!(out, Value::string("shoes,bags,shoes"));
        let out = call(
            "split_by_value",
            &[
                Value::string("a:1|b:2"),
                Value::string("|"),
                Value::string(":"),
            ],
        )
        .unwrap();
        assert_eq!(out, Value::string("1,2"));
        // Segments without the kv delimiter are skipped.
        let out = call(
            "split_by_key",
            &[
                Value::string("a:1|oops|b:2"),
                Value::string("|"),
                Value::string(":"),
            ],
        )
        .unwrap();
        assert_eq!(out, Value::string("a,b"));
    }

    #[test]
    fn feature_signatures() {
        assert_eq!(
            call("continuous", &[Value::Int(7)]).unwrap(),
            Value::Double(7.0)
        );
        let d1 = call("discrete", &[Value::string("product_123")]).unwrap();
        let d2 = call("discrete", &[Value::string("product_123")]).unwrap();
        assert_eq!(d1, d2, "feature hashing is deterministic");
        let Value::Bigint(b) = call("discrete", &[Value::string("x"), Value::Int(100)]).unwrap()
        else {
            panic!()
        };
        assert!((0..100).contains(&b), "hash respects dimension bound");
        assert_eq!(
            call("binary_label", &[Value::Int(5)]).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            call("binary_label", &[Value::Int(0)]).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn null_propagation_and_if_null() {
        assert_eq!(call("abs", &[Value::Null]).unwrap(), Value::Null);
        assert_eq!(
            call("if_null", &[Value::Null, Value::Int(9)]).unwrap(),
            Value::Int(9)
        );
        assert_eq!(
            call("if_null", &[Value::Int(1), Value::Int(9)]).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            call("if", &[Value::Bool(true), Value::Int(1), Value::Int(2)]).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn geo_functions() {
        // Beijing → Shanghai is about 1,070 km.
        let d = call(
            "geo_distance",
            &[
                Value::Double(39.9042),
                Value::Double(116.4074),
                Value::Double(31.2304),
                Value::Double(121.4737),
            ],
        )
        .unwrap();
        let Value::Double(m) = d else { panic!() };
        assert!((1_000_000.0..1_150_000.0).contains(&m), "{m}");

        // Same point → same cell at any precision; nearby points separate at
        // high precision.
        let h1 = geo_hash(31.0, 121.0, 20);
        let h2 = geo_hash(31.0, 121.0, 20);
        assert_eq!(h1, h2);
        assert_ne!(geo_hash(31.0, 121.0, 20), geo_hash(31.5, 121.0, 20));
        // Coarser precision merges nearby points.
        assert_eq!(
            geo_hash(31.0001, 121.0001, 3),
            geo_hash(31.0002, 121.0002, 3)
        );
    }

    #[test]
    fn extended_math_and_strings() {
        assert_eq!(
            call("sign", &[Value::Double(-3.0)]).unwrap(),
            Value::Int(-1)
        );
        assert_eq!(call("sign", &[Value::Int(0)]).unwrap(), Value::Int(0));
        assert_eq!(
            call("truncate", &[Value::Double(9.87654), Value::Int(2)]).unwrap(),
            Value::Double(9.87)
        );
        assert_eq!(
            call("greatest", &[Value::Int(3), Value::Int(9), Value::Int(5)]).unwrap(),
            Value::Int(9)
        );
        assert_eq!(
            call("least", &[Value::Double(1.5), Value::Double(-2.0)]).unwrap(),
            Value::Double(-2.0)
        );
        assert_eq!(
            call("trim", &[Value::string("  hi  ")]).unwrap(),
            Value::string("hi")
        );
        assert_eq!(
            call("ltrim", &[Value::string("  hi")]).unwrap(),
            Value::string("hi")
        );
        assert_eq!(
            call(
                "replace",
                &[
                    Value::string("a-b-c"),
                    Value::string("-"),
                    Value::string("+")
                ]
            )
            .unwrap(),
            Value::string("a+b+c")
        );
        assert_eq!(
            call("reverse", &[Value::string("abc")]).unwrap(),
            Value::string("cba")
        );
        assert_eq!(
            call("strcmp", &[Value::string("a"), Value::string("b")]).unwrap(),
            Value::Int(-1)
        );
        assert_eq!(
            call(
                "starts_with",
                &[Value::string("openmldb"), Value::string("open")]
            )
            .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            call(
                "lpad",
                &[Value::string("7"), Value::Int(3), Value::string("0")]
            )
            .unwrap(),
            Value::string("007")
        );
        assert_eq!(
            call(
                "rpad",
                &[Value::string("ab"), Value::Int(4), Value::string("xy")]
            )
            .unwrap(),
            Value::string("abxy")
        );
        assert_eq!(
            call(
                "lpad",
                &[Value::string("hello"), Value::Int(3), Value::string("0")]
            )
            .unwrap(),
            Value::string("hel"),
            "lpad truncates when over target"
        );
    }

    #[test]
    fn calendar_functions() {
        // 2021-06-15T12:00:00Z = 1623758400000 ms; a Tuesday.
        let ts = Value::Timestamp(1_623_758_400_000);
        assert_eq!(
            call("year", std::slice::from_ref(&ts)).unwrap(),
            Value::Int(2021)
        );
        assert_eq!(
            call("month", std::slice::from_ref(&ts)).unwrap(),
            Value::Int(6)
        );
        assert_eq!(
            call("dayofmonth", std::slice::from_ref(&ts)).unwrap(),
            Value::Int(15)
        );
        assert_eq!(
            call("dayofweek", &[ts]).unwrap(),
            Value::Int(3),
            "Tuesday = 3"
        );
        // Epoch start.
        let epoch = Value::Timestamp(0);
        assert_eq!(
            call("year", std::slice::from_ref(&epoch)).unwrap(),
            Value::Int(1970)
        );
        assert_eq!(
            call("month", std::slice::from_ref(&epoch)).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            call("dayofmonth", std::slice::from_ref(&epoch)).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            call("dayofweek", &[epoch]).unwrap(),
            Value::Int(5),
            "Thursday = 5"
        );
        // Pre-epoch timestamps work (euclidean division).
        assert_eq!(
            call("year", &[Value::Timestamp(-86_400_000)]).unwrap(),
            Value::Int(1969)
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(
            call("double", &[Value::string("2.5")]).unwrap(),
            Value::Double(2.5)
        );
        assert_eq!(
            call("bigint", &[Value::string(" 42 ")]).unwrap(),
            Value::Bigint(42)
        );
        assert!(call("bigint", &[Value::string("nope")]).is_err());
        assert_eq!(
            call("string", &[Value::Int(7)]).unwrap(),
            Value::string("7")
        );
        assert_eq!(
            call("bigint", &[Value::Double(3.9)]).unwrap(),
            Value::Bigint(3)
        );
    }

    #[test]
    fn is_in_membership() {
        assert_eq!(
            call("is_in", &[Value::string("b"), Value::string("a, b, c")]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            call("is_in", &[Value::string("z"), Value::string("a,b")]).unwrap(),
            Value::Bool(false)
        );
    }
}
