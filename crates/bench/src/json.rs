//! Shared framing for the hand-written `BENCH_*.json` documents.  The
//! emitters build the JSON text themselves, with pretty-printed rows, rather
//! than through the vendored `serde::json` writer, which only emits compact
//! text; this module keeps the document skeleton in one place.

/// Builds a `BENCH_*.json` document: a `schema` / `generated_by` / `quick` /
/// `isa` / `cores` header plus one array named `array_name` whose elements
/// are the pre-rendered `rows` (each a complete JSON value, no trailing
/// comma).
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
    array_name: &str,
    rows: &[String],
) -> String {
    document_sections(schema, subcommand, quick, &[(array_name, rows)])
}

/// Like [`document`], but with several named arrays in one document — the
/// multi-experiment reports (`BENCH_table2.json`, `BENCH_scaling.json`) keep
/// their main table and the high-dimensional companion study side by side.
pub(crate) fn document_sections(
    schema: &str,
    subcommand: &str,
    quick: bool,
    sections: &[(&str, &[String])],
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{schema}\",\n"));
    out.push_str(&format!(
        "  \"generated_by\": \"cargo run --release -p nnbo-bench --bin reproduce -- {subcommand}\",\n"
    ));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"isa\": \"{}\",\n", nnbo_linalg::kernel_isa()));
    out.push_str(&format!("  \"cores\": {cores},\n"));
    for (si, (array_name, rows)) in sections.iter().enumerate() {
        out.push_str(&format!("  \"{array_name}\": [\n"));
        for (i, row) in rows.iter().enumerate() {
            out.push_str("    ");
            out.push_str(row);
            out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
        }
        out.push_str(if si + 1 == sections.len() {
            "  ]\n"
        } else {
            "  ],\n"
        });
    }
    out.push_str("}\n");
    out
}

/// Formats a float as a JSON value (`null` for NaN/∞, which JSON cannot
/// represent — the tables use NaN for "no successful run").
pub(crate) fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
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
            "entries",
            &["{\"a\": 1}".to_string(), "{\"a\": 2}".to_string()],
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
        let a = ["{\"x\": 1}".to_string()];
        let b = ["{\"y\": 2}".to_string(), "{\"y\": 3}".to_string()];
        let doc = document_sections(
            "s-v2",
            "table2",
            false,
            &[("rows", &a[..]), ("highdim", &b[..])],
        );
        assert!(doc.contains("\"rows\": [\n"));
        assert!(doc.contains("\"highdim\": [\n"));
        assert!(doc.contains("  ],\n"), "sections are comma-separated");
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn number_encodes_non_finite_as_null() {
        assert_eq!(number(1.25), "1.2500");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }
}
