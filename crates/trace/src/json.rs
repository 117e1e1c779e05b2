//! Minimal JSON emission for perf-trajectory and trace capture.
//!
//! The workspace is fully offline, so there is no serde; the subset here —
//! objects of strings, numbers, nulls, and (for the Chrome trace-event
//! `args` field) one level of nested objects, collected into arrays — is
//! all the `BENCH_*.json` trajectories and trace exporters need. It lives
//! in `ouro-trace` so the report schema and the trace/telemetry schemas
//! share one emitter; `ouro-serve` and `ouro-bench` re-export this module.
//!
//! [`fnv1a`] sits beside the writer: the workspace's digests (the trace
//! timeline digest, the snapshot config hash) fingerprint rendered text.

/// A flat JSON object under construction.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Adds a string field (escaping quotes, backslashes, and control
    /// characters — JSON strings must not contain raw controls).
    pub fn str(mut self, key: &str, value: &str) -> JsonObject {
        let mut escaped = String::with_capacity(value.len());
        for c in value.chars() {
            match c {
                '\\' => escaped.push_str("\\\\"),
                '"' => escaped.push_str("\\\""),
                '\n' => escaped.push_str("\\n"),
                '\r' => escaped.push_str("\\r"),
                '\t' => escaped.push_str("\\t"),
                c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
                c => escaped.push(c),
            }
        }
        self.fields.push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    /// Adds a numeric field; non-finite values become `null` (JSON has no
    /// NaN/Infinity).
    pub fn num(mut self, key: &str, value: f64) -> JsonObject {
        let rendered = if value.is_finite() { format!("{value}") } else { "null".to_string() };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> JsonObject {
        self.fields.push((key.to_string(), format!("{value}")));
        self
    }

    /// Adds an explicit `null` field — sections that do not apply to a run
    /// (no faults, no migration) keep their keys so every row of a dump
    /// shares one schema.
    pub fn null(mut self, key: &str) -> JsonObject {
        self.fields.push((key.to_string(), "null".to_string()));
        self
    }

    /// Adds a nested object field — the Chrome trace-event format carries
    /// per-event metadata in an `args` object, the one place the flat
    /// schema is not enough.
    pub fn obj(mut self, key: &str, value: &JsonObject) -> JsonObject {
        self.fields.push((key.to_string(), value.render()));
        self
    }

    /// Appends every field of `other` after this object's fields, so
    /// callers can prefix report rows with their own labels.
    pub fn extend(mut self, other: JsonObject) -> JsonObject {
        self.fields.extend(other.fields);
        self
    }

    /// The field keys, in insertion order (the schema of the row).
    pub fn keys(&self) -> Vec<&str> {
        self.fields.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// Renders the object as one JSON line.
    pub fn render(&self) -> String {
        let body: Vec<String> = self.fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Renders a slice of objects as a pretty-enough JSON array.
pub fn render_array(objects: &[JsonObject]) -> String {
    let rows: Vec<String> = objects.iter().map(|o| format!("  {}", o.render())).collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Writes the array to `path`, creating parent directories as needed.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or the write.
pub fn write_array(path: &str, objects: &[JsonObject]) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_array(objects))
}

/// The 64-bit FNV-1a offset basis: the state a fresh [`fnv1a`] digest
/// starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the 64-bit FNV-1a state `h`. Start from
/// [`FNV1A_OFFSET`]; folding chunks one after another digests their
/// concatenation.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors_and_folds() {
        assert_eq!(fnv1a(FNV1A_OFFSET, b""), FNV1A_OFFSET);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(FNV1A_OFFSET, b"fo"), b"obar"), fnv1a(FNV1A_OFFSET, b"foobar"));
    }

    #[test]
    fn json_objects_render_flat_and_escaped() {
        let o = JsonObject::new()
            .str("name", "a \"quoted\" label")
            .num("rate", 2.5)
            .num("missing", f64::NAN)
            .int("count", 7);
        assert_eq!(
            o.render(),
            "{\"name\": \"a \\\"quoted\\\" label\", \"rate\": 2.5, \"missing\": null, \"count\": 7}"
        );
        let arr = render_array(&[o.clone(), o]);
        assert!(arr.starts_with("[\n") && arr.ends_with("\n]\n"));
        assert_eq!(arr.matches("\"count\": 7").count(), 2);
    }

    #[test]
    fn json_strings_escape_control_characters() {
        let o = JsonObject::new().str("label", "a\nb\tc\rd\u{1}e");
        assert_eq!(o.render(), "{\"label\": \"a\\nb\\tc\\rd\\u0001e\"}");
    }

    #[test]
    fn null_extend_and_keys_compose_rows() {
        let prefix = JsonObject::new().str("experiment", "serving");
        let row = prefix.extend(JsonObject::new().null("placement").int("wafers", 4));
        assert_eq!(row.render(), "{\"experiment\": \"serving\", \"placement\": null, \"wafers\": 4}");
        assert_eq!(row.keys(), vec!["experiment", "placement", "wafers"]);
    }

    #[test]
    fn nested_objects_render_inline() {
        let args = JsonObject::new().int("tokens", 64).str("phase", "prefill");
        let o = JsonObject::new().str("ph", "X").obj("args", &args);
        assert_eq!(o.render(), "{\"ph\": \"X\", \"args\": {\"tokens\": 64, \"phase\": \"prefill\"}}");
    }
}
