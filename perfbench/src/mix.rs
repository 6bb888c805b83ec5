//! Inputs and the independent answer check.
//!
//! The data is `lineitem` from `fusion-workloads` at the `figures`
//! harness scale 0.5 (15 000 rows per row group, 10 row groups), seeded
//! from the command line. Expected query answers are computed here from
//! the generated `Table` columns by plain iteration, using neither
//! `fusion-sql` nor the store.

use fusion_core::QueryResult;
use fusion_format::prelude::{write_table, ColumnData, Table, Value, WriteOptions};
use fusion_workloads::tpch::{lineitem, TpchConfig};
use std::collections::BTreeMap;

/// Rows per row group at harness scale 0.5.
pub const ROWS_PER_GROUP: usize = 15_000;
/// Row groups per object.
pub const ROW_GROUPS: usize = 10;
/// Row groups of a side object. Smaller lineitem files fall back to
/// fixed blocks, which store them at 4x.
pub const SIDE_ROW_GROUPS: usize = 3;

/// Relative tolerance for float sums and averages: the store adds
/// per-row-group partials, the reference adds rows in order.
pub const FLOAT_REL_TOL: f64 = 1e-9;

/// A generated table and its serialized file.
pub struct Dataset {
    /// Columns the reference evaluator reads.
    pub table: Table,
    /// The bytes PUT into the store.
    pub file: Vec<u8>,
}

/// Generates `lineitem` with `row_groups` groups from `seed`.
pub fn generate(seed: u64, row_groups: usize) -> Dataset {
    let cfg = TpchConfig {
        rows_per_group: ROWS_PER_GROUP,
        row_groups,
        seed,
    };
    let table = lineitem(cfg);
    let file = write_table(
        &table,
        WriteOptions {
            rows_per_group: ROWS_PER_GROUP,
        },
    )
    .expect("a generated table serializes");
    Dataset { table, file }
}

/// A literal in a predicate.
#[derive(Debug, Clone, Copy)]
pub enum Lit {
    Int(i64),
    Float(f64),
    /// `YYYY-MM-DD`, compared against a `Date` column as epoch days.
    Date(&'static str),
}

/// Comparison of one column against a literal.
#[derive(Debug, Clone, Copy)]
pub enum Cmp {
    Lt,
    Ge,
}

/// One conjunct of a shape's `WHERE` clause.
#[derive(Debug, Clone, Copy)]
pub struct Pred {
    pub column: &'static str,
    pub cmp: Cmp,
    pub lit: Lit,
}

/// Aggregate functions the shapes use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl Func {
    fn name(self) -> &'static str {
        match self {
            Func::Count => "count",
            Func::Sum => "sum",
            Func::Avg => "avg",
            Func::Min => "min",
            Func::Max => "max",
        }
    }
}

/// One query shape: its SQL text and the same query as data, which the
/// reference evaluator interprets.
#[derive(Debug, Clone)]
pub struct Shape {
    pub name: &'static str,
    pub sql: &'static str,
    pub filter: &'static [Pred],
    pub projection: &'static [&'static str],
    pub aggregates: &'static [(Func, Option<&'static str>)],
    pub group_by: Option<&'static str>,
}

const fn p(column: &'static str, cmp: Cmp, lit: Lit) -> Pred {
    Pred { column, cmp, lit }
}

/// The query mix: one round runs every shape once, in this order.
pub const SHAPES: [Shape; 4] = [
    Shape {
        name: "filtered_agg",
        sql: "SELECT count(*), sum(quantity), sum(extendedprice), avg(discount), \
              min(shipdate), max(tax) FROM lineitem \
              WHERE orderkey >= 14000 AND shipdate >= '1997-06-01' AND quantity < 20",
        filter: &[
            p("orderkey", Cmp::Ge, Lit::Int(14_000)),
            p("shipdate", Cmp::Ge, Lit::Date("1997-06-01")),
            p("quantity", Cmp::Lt, Lit::Int(20)),
        ],
        projection: &[],
        aggregates: &[
            (Func::Count, None),
            (Func::Sum, Some("quantity")),
            (Func::Sum, Some("extendedprice")),
            (Func::Avg, Some("discount")),
            (Func::Min, Some("shipdate")),
            (Func::Max, Some("tax")),
        ],
        group_by: None,
    },
    Shape {
        name: "narrow_projection",
        sql: "SELECT orderkey, extendedprice, shipdate FROM lineitem \
              WHERE shipdate >= '1998-11-20'",
        filter: &[p("shipdate", Cmp::Ge, Lit::Date("1998-11-20"))],
        projection: &["orderkey", "extendedprice", "shipdate"],
        aggregates: &[],
        group_by: None,
    },
    Shape {
        name: "mixed_projection",
        sql: "SELECT linenumber, tax, quantity, extendedprice FROM lineitem \
              WHERE discount >= 0.09 AND shipdate >= '1996-01-01'",
        filter: &[
            p("discount", Cmp::Ge, Lit::Float(0.09)),
            p("shipdate", Cmp::Ge, Lit::Date("1996-01-01")),
        ],
        projection: &["linenumber", "tax", "quantity", "extendedprice"],
        aggregates: &[],
        group_by: None,
    },
    Shape {
        name: "group_by",
        sql: "SELECT shipmode, count(*), sum(quantity), sum(extendedprice), min(discount) \
              FROM lineitem WHERE quantity >= 10 GROUP BY shipmode",
        filter: &[p("quantity", Cmp::Ge, Lit::Int(10))],
        projection: &["shipmode"],
        aggregates: &[
            (Func::Count, None),
            (Func::Sum, Some("quantity")),
            (Func::Sum, Some("extendedprice")),
            (Func::Min, Some("discount")),
        ],
        group_by: Some("shipmode"),
    },
];

/// Days since 1970-01-01 of a proleptic Gregorian `YYYY-MM-DD` date.
pub fn epoch_days(date: &str) -> i64 {
    let mut parts = date
        .split('-')
        .map(|s| s.parse::<i64>().expect("numeric date"));
    let (y, m, d) = (
        parts.next().expect("year"),
        parts.next().expect("month"),
        parts.next().expect("day"),
    );
    // Civil-from-days inverse (era-based, March-first years).
    let y = if m <= 2 { y - 1 } else { y };
    let era = y.div_euclid(400);
    let yoe = y - era * 400;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// A reference answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub row_count: usize,
    pub columns: Vec<(String, ColumnData)>,
    pub aggregates: Vec<(String, Value)>,
}

fn column<'t>(table: &'t Table, name: &str) -> &'t ColumnData {
    table
        .column_by_name(name)
        .expect("shape names a lineitem column")
}

fn holds(pred: &Pred, col: &ColumnData, row: usize) -> bool {
    use std::cmp::Ordering;
    let ord = match (col, pred.lit) {
        (ColumnData::Int64(v), Lit::Int(x)) => v[row].cmp(&x),
        (ColumnData::Int64(v), Lit::Date(d)) => v[row].cmp(&epoch_days(d)),
        (ColumnData::Float64(v), Lit::Float(x)) => v[row].partial_cmp(&x).unwrap_or(Ordering::Less),
        _ => panic!(
            "shape compares {} with a literal of another type",
            pred.column
        ),
    };
    match pred.cmp {
        Cmp::Lt => ord == Ordering::Less,
        Cmp::Ge => ord != Ordering::Less,
    }
}

/// Rows of `table` that satisfy every predicate of `shape`.
pub fn matching_rows(shape: &Shape, table: &Table) -> Vec<usize> {
    let cols: Vec<&ColumnData> = shape
        .filter
        .iter()
        .map(|p| column(table, p.column))
        .collect();
    (0..table.num_rows())
        .filter(|&r| shape.filter.iter().zip(&cols).all(|(p, c)| holds(p, c, r)))
        .collect()
}

fn aggregate(func: Func, col: Option<&ColumnData>, rows: &[usize]) -> Value {
    match (func, col) {
        (Func::Count, _) => Value::Int(rows.len() as i64),
        (f, Some(ColumnData::Int64(v))) => {
            let it = rows.iter().map(|&r| v[r]);
            match f {
                Func::Sum => Value::Int(it.sum()),
                Func::Avg => Value::Float(it.sum::<i64>() as f64 / rows.len() as f64),
                Func::Min => Value::Int(it.min().unwrap_or(0)),
                Func::Max => Value::Int(it.max().unwrap_or(0)),
                Func::Count => unreachable!(),
            }
        }
        (f, Some(ColumnData::Float64(v))) => {
            let it = rows.iter().map(|&r| v[r]);
            match f {
                Func::Sum => Value::Float(it.sum()),
                Func::Avg => Value::Float(it.sum::<f64>() / rows.len() as f64),
                Func::Min => Value::Float(it.fold(f64::INFINITY, f64::min)),
                Func::Max => Value::Float(it.fold(f64::NEG_INFINITY, f64::max)),
                Func::Count => unreachable!(),
            }
        }
        (f, c) => panic!("shape asks {} of {c:?}", f.name()),
    }
}

fn label(func: Func, arg: Option<&str>) -> String {
    format!("{}({})", func.name(), arg.unwrap_or("*"))
}

/// The answer `shape` must return over `table`.
pub fn expected(shape: &Shape, table: &Table) -> Expected {
    let rows = matching_rows(shape, table);
    if let Some(key) = shape.group_by {
        let keys = column(table, key)
            .as_utf8()
            .expect("group keys are strings");
        let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for &r in &rows {
            groups.entry(keys[r].as_str()).or_default().push(r);
        }
        let mut columns = vec![(
            key.to_string(),
            ColumnData::Utf8(groups.keys().map(|k| k.to_string()).collect()),
        )];
        for &(f, arg) in shape.aggregates {
            let values: Vec<Value> = groups
                .values()
                .map(|g| aggregate(f, arg.map(|a| column(table, a)), g))
                .collect();
            let data = match values.first() {
                Some(Value::Float(_)) => ColumnData::Float64(
                    values
                        .iter()
                        .map(|v| {
                            if let Value::Float(x) = v {
                                *x
                            } else {
                                f64::NAN
                            }
                        })
                        .collect(),
                ),
                _ => ColumnData::Int64(
                    values
                        .iter()
                        .map(|v| if let Value::Int(x) = v { *x } else { i64::MIN })
                        .collect(),
                ),
            };
            columns.push((label(f, arg), data));
        }
        return Expected {
            row_count: rows.len(),
            columns,
            aggregates: Vec::new(),
        };
    }
    let columns = shape
        .projection
        .iter()
        .map(|&name| (name.to_string(), column(table, name).take(&rows)))
        .collect();
    let aggregates = shape
        .aggregates
        .iter()
        .map(|&(f, arg)| {
            (
                label(f, arg),
                aggregate(f, arg.map(|a| column(table, a)), &rows),
            )
        })
        .collect();
    Expected {
        row_count: rows.len(),
        columns,
        aggregates,
    }
}

fn float_eq(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= FLOAT_REL_TOL * a.abs().max(b.abs())
}

fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => float_eq(*x, *y),
        _ => a == b,
    }
}

fn column_eq(a: &ColumnData, b: &ColumnData) -> bool {
    match (a, b) {
        (ColumnData::Float64(x), ColumnData::Float64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| float_eq(*p, *q))
        }
        _ => a == b,
    }
}

/// Compares a store answer with the reference: integers, strings and row
/// sets exactly, floats to [`FLOAT_REL_TOL`].
///
/// # Errors
///
/// A description of the first difference.
pub fn check(shape: &Shape, got: &QueryResult, want: &Expected) -> Result<(), String> {
    let fail = |what: String| Err(format!("{}: {what}", shape.name));
    if got.row_count != want.row_count {
        return fail(format!("row_count {} != {}", got.row_count, want.row_count));
    }
    if got.columns.len() != want.columns.len() || got.aggregates.len() != want.aggregates.len() {
        return fail("result shape differs".into());
    }
    for ((gn, gc), (wn, wc)) in got.columns.iter().zip(&want.columns) {
        if gn != wn || !column_eq(gc, wc) {
            return fail(format!("column {wn} differs (got {gn})"));
        }
    }
    for ((gn, gv), (wn, wv)) in got.aggregates.iter().zip(&want.aggregates) {
        if gn != wn || !value_eq(gv, wv) {
            return fail(format!("{wn} = {gv:?}, expected {wv:?}"));
        }
    }
    Ok(())
}

/// Compares a ranged read with the slice of `file` it names.
///
/// # Errors
///
/// A description of the first differing byte.
pub fn check_range(key: &str, file: &[u8], offset: u64, got: &[u8]) -> Result<(), String> {
    let start = offset as usize;
    let want = file.get(start..start + got.len());
    if got.is_empty() || want != Some(got) {
        let at = want
            .map(|w| w.iter().zip(got).position(|(a, b)| a != b).unwrap_or(0))
            .unwrap_or(0);
        return Err(format!(
            "{key}: GET of {} B at offset {offset} differs from the bytes PUT (first at +{at})",
            got.len()
        ));
    }
    Ok(())
}

/// splitmix64: the benchmark's own seeded choices (GET offsets).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::Store;

    /// Half a full object: enough orders that `filtered_agg`'s
    /// `orderkey` bound both prunes and selects row groups.
    fn small() -> Dataset {
        generate(11, 5)
    }

    fn store_with(data: &Dataset) -> Store {
        let mut store = Store::new(crate::workload::store_config(9)).unwrap();
        store.put("t", data.file.clone()).unwrap();
        store
    }

    #[test]
    fn epoch_days_matches_known_dates() {
        assert_eq!(epoch_days("1970-01-01"), 0);
        assert_eq!(epoch_days("1992-01-02"), 8036);
        assert_eq!(epoch_days("2000-03-01"), 11017);
    }

    #[test]
    fn reference_agrees_with_store_on_every_shape() {
        let data = small();
        let store = store_with(&data);
        for shape in &SHAPES {
            let want = expected(shape, &data.table);
            assert!(want.row_count > 0, "{} selects nothing", shape.name);
            let got = store.query_as("t", shape.sql).unwrap().result;
            check(shape, &got, &want).unwrap();
        }
    }

    #[test]
    fn wrong_expected_answer_fails_the_check() {
        let data = small();
        let store = store_with(&data);
        for shape in &SHAPES {
            let got = store.query_as("t", shape.sql).unwrap().result;
            let mut want = expected(shape, &data.table);
            if let Some((_, v)) = want.aggregates.first_mut() {
                *v = Value::Int(-1);
            } else {
                match &mut want.columns.last_mut().unwrap().1 {
                    ColumnData::Int64(v) => v[0] += 1,
                    ColumnData::Float64(v) => v[0] = v[0] * (1.0 + 1e-6) + 1e-6,
                    ColumnData::Utf8(v) => v[0].push('x'),
                }
            }
            assert!(check(shape, &got, &want).is_err(), "{}", shape.name);
            want.row_count += 1;
            assert!(check(shape, &got, &want).is_err(), "{}", shape.name);
        }
    }

    #[test]
    fn float_tolerance_is_relative() {
        assert!(float_eq(1e12, 1e12 * (1.0 + 1e-10)));
        assert!(!float_eq(1e12, 1e12 * (1.0 + 1e-8)));
    }
}
