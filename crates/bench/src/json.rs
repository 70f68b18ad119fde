//! The one writer of the `BENCH_*.json` documents `reproduce` emits.
//!
//! A document is a fixed header plus named sections, each an array of rows.
//! A row is a [`Value`] map, usually a `Serialize` row type's own output or
//! a [`row`] of `(column, value)` pairs, and is written on one line as
//! `{"key": value, ...}` so the committed documents diff row by row.  Keys
//! and values are printed by the vendored [`serde::json::to_string`]: a
//! float prints as the shortest digits that read back to the same bits.  A
//! non-finite float is written as `null`, at any depth: the tables use NaN
//! for "no successful run", and the writer's own `"NaN"`/`"inf"` strings are
//! a checkpoint convention a benchmark reader would take for text.

use serde::json::to_string;
use serde::{Serialize, Value};

/// Builds a `BENCH_*.json` document: a `schema` / `generated_by` / `quick` /
/// `isa` / `cores` header plus one array per named section, one row per
/// line.
///
/// `isa` is the kernel path the runtime dispatch selected
/// ([`nnbo_linalg::kernel_isa`]) and `cores` the hardware parallelism — the
/// two facts needed to interpret a benchmark trajectory across machines
/// (single-core boxes cannot show threading wins; non-AVX2 boxes cannot show
/// micro-kernel wins).
pub(crate) fn document(
    schema: &str,
    subcommand: &str,
    quick: bool,
    sections: &[(&str, Vec<Value>)],
) -> String {
    let generated_by = format!("cargo run --release -p nnbo-bench --bin reproduce -- {subcommand}");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let isa = nnbo_linalg::kernel_isa();
    let header: [(&str, &dyn Serialize); 5] = [
        ("schema", &schema),
        ("generated_by", &generated_by),
        ("quick", &quick),
        ("isa", &isa),
        ("cores", &cores),
    ];
    let mut fields: Vec<String> = header
        .iter()
        .map(|(key, value)| field(key, &value.to_value()))
        .collect();
    for (name, rows) in sections {
        let lines: Vec<String> = rows.iter().map(|r| format!("\n    {}", line(r))).collect();
        fields.push(format!(
            "{}: [{}\n  ]",
            to_string(&name.to_value()),
            lines.join(",")
        ));
    }
    format!("{{\n  {}\n}}\n", fields.join(",\n  "))
}

/// A row built from `(column, value)` pairs, in order — for rows that
/// rename fields, add a computed column or carry a `section` tag.
pub(crate) fn row(columns: &[(&str, &dyn Serialize)]) -> Value {
    Value::Map(
        columns
            .iter()
            .map(|(column, value)| (column.to_string(), value.to_value()))
            .collect(),
    )
}

/// One row on one line: `{"key": value, ...}` for a map, compact JSON for
/// anything else.
fn line(row: &Value) -> String {
    match row {
        Value::Map(entries) => {
            let fields: Vec<String> = entries.iter().map(|(k, v)| field(k, v)).collect();
            format!("{{{}}}", fields.join(", "))
        }
        other => to_string(&finite_or_null(other)),
    }
}

fn field(key: &str, value: &Value) -> String {
    format!(
        "{}: {}",
        to_string(&key.to_value()),
        to_string(&finite_or_null(value))
    )
}

/// `value` with every non-finite float replaced by [`Value::Null`].
fn finite_or_null(value: &Value) -> Value {
    match value {
        Value::F64(v) if !v.is_finite() => Value::Null,
        Value::Seq(items) => Value::Seq(items.iter().map(finite_or_null).collect()),
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .map(|(k, v)| (k.clone(), finite_or_null(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_frames_rows_with_commas_between() {
        let doc = document(
            "s-v1",
            "fit",
            true,
            &[("entries", vec![row(&[("a", &1)]), row(&[("a", &2)])])],
        );
        assert!(doc.contains("\"schema\": \"s-v1\""));
        assert!(doc.contains("reproduce -- fit"));
        assert!(doc.contains("\"isa\": \""));
        assert!(doc.contains("\"cores\": "));
        assert!(doc.contains("{\"a\": 1},\n"));
        assert!(doc.contains("{\"a\": 2}\n"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn multi_section_documents_emit_every_named_array() {
        let a = vec![row(&[("x", &1)])];
        let b = vec![row(&[("y", &2)]), row(&[("y", &3)])];
        let doc = document("s-v2", "table2", false, &[("rows", a), ("highdim", b)]);
        assert!(doc.contains("\"rows\": [\n"));
        assert!(doc.contains("\"highdim\": [\n"));
        assert!(doc.contains("  ],\n"), "sections are comma-separated");
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn non_finite_floats_parse_back_as_null_and_nothing_else_does() {
        let rows = vec![
            row(&[
                ("nan", &f64::NAN),
                ("inf", &f64::INFINITY),
                ("neg_inf", &f64::NEG_INFINITY),
                ("text", &"NaN"),
                ("nested", &vec![1.5, f64::NAN]),
            ]),
            row(&[("x", &0.1), ("n", &7)]),
        ];
        let doc = document("s-v3", "scaling", false, &[("rows", rows)]);
        let parsed = serde::json::from_str(&doc).expect("the document parses");
        assert_eq!(parsed.get("schema"), Some(&Value::Str("s-v3".into())));
        assert_eq!(parsed.get("quick"), Some(&Value::Bool(false)));
        let entry = |key: &str, value: Value| (key.to_string(), value);
        assert_eq!(
            parsed.get("rows"),
            Some(&Value::Seq(vec![
                Value::Map(vec![
                    entry("nan", Value::Null),
                    entry("inf", Value::Null),
                    entry("neg_inf", Value::Null),
                    entry("text", Value::Str("NaN".into())),
                    entry("nested", Value::Seq(vec![Value::F64(1.5), Value::Null])),
                ]),
                Value::Map(vec![entry("x", Value::F64(0.1)), entry("n", Value::U64(7))]),
            ]))
        );
    }
}
