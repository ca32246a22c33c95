//! Minimal JSON writer.
//!
//! The workspace's vendored `serde` is a no-op marker-trait stub, so
//! machine-readable output (e.g. `ServerReport::to_json`) is produced with
//! this small builder instead of derive-based serialization.

/// Streaming JSON builder producing a compact (single-line) document.
///
/// ```
/// use shark_obs::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.field_u64("total", 3);
/// w.field_str("name", "lineitem");
/// w.begin_array_field("sessions");
/// w.begin_object();
/// w.field_bool("streamed", true);
/// w.end_object();
/// w.end_array();
/// w.end_object();
/// assert_eq!(
///     w.finish(),
///     r#"{"total":3,"name":"lineitem","sessions":[{"streamed":true}]}"#
/// );
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Per-open-container flag: does the next element need a comma?
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// Create an empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// Consume the writer and return the JSON text.
    pub fn finish(self) -> String {
        self.out
    }

    fn elem(&mut self) {
        if let Some(needs) = self.needs_comma.last_mut() {
            if *needs {
                self.out.push(',');
            }
            *needs = true;
        }
    }

    /// Open a `{` object (as a value or array element).
    pub fn begin_object(&mut self) {
        self.elem();
        self.out.push('{');
        self.needs_comma.push(false);
    }

    /// Close the current object.
    pub fn end_object(&mut self) {
        self.needs_comma.pop();
        self.out.push('}');
    }

    /// Open a `[` array under the given key.
    pub fn begin_array_field(&mut self, key: &str) {
        self.key(key);
        self.out.push('[');
        self.needs_comma.push(false);
    }

    /// Close the current array.
    pub fn end_array(&mut self) {
        self.needs_comma.pop();
        self.out.push(']');
    }

    fn key(&mut self, key: &str) {
        // `elem` both inserts the separating comma and arms the flag for
        // the next element; the value that follows is written directly.
        self.elem();
        self.out.push('"');
        self.out.push_str(&escape(key));
        self.out.push_str("\":");
    }

    /// Write `"key":<u64>`.
    pub fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        self.out.push_str(&value.to_string());
    }

    /// Write `"key":<f64>` (non-finite values become `null`).
    pub fn field_f64(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            self.out.push_str(&format!("{value}"));
        } else {
            self.out.push_str("null");
        }
    }

    /// Write `"key":"value"` with escaping.
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.out.push('"');
        self.out.push_str(&escape(value));
        self.out.push('"');
    }

    /// Write `"key":true|false`.
    pub fn field_bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_objects_and_arrays() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("a", 1);
        w.field_str("s", "x\"y\\z\n");
        w.field_f64("f", 1.5);
        w.field_f64("nan", f64::NAN);
        w.begin_array_field("arr");
        w.begin_object();
        w.field_bool("b", false);
        w.end_object();
        w.begin_object();
        w.field_u64("n", 2);
        w.end_object();
        w.end_array();
        w.field_u64("tail", 9);
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":1,"s":"x\"y\\z\n","f":1.5,"nan":null,"arr":[{"b":false},{"n":2}],"tail":9}"#
        );
    }
}
