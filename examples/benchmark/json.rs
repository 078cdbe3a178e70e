//! Minimal JSON value and writer (the build has no serde), plus the one
//! reader the A/A harness needs: pulling a metric's value back out of a
//! result line this same writer produced.

use std::fmt;

#[derive(Clone, Debug)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl Json {
    /// Multi-line rendering: containers nested less than `expand` deep
    /// put one child per line, deeper ones stay compact.
    pub fn pretty(&self, expand: usize) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, expand, 0);
        out.push('\n');
        out
    }

    fn pretty_into(&self, out: &mut String, expand: usize, depth: usize) {
        let (open, close, children): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Arr(items) if depth < expand => {
                ('[', ']', items.iter().map(|v| (None, v)).collect())
            }
            Json::Obj(fields) if depth < expand => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
            other => return out.push_str(&other.to_string()),
        };
        out.push(open);
        for (i, (key, value)) in children.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            out.push_str(&"  ".repeat(depth + 1));
            if let Some(key) = key {
                out.push_str(&format!("{}: ", Json::str(*key)));
            }
            value.pretty_into(out, expand, depth + 1);
        }
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
        out.push(close);
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            // `{}` on f64 prints the shortest digits that round-trip and
            // never an exponent, which is valid JSON; JSON has no NaN/inf.
            Json::Num(n) => {
                assert!(n.is_finite(), "non-finite number in JSON output");
                write!(f, "{n}")
            }
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The number that follows `key` in a line written by this module. Not a
/// general parser: it relies on the writer's exact, whitespace-free layout.
fn number_after<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    let rest = &line[line.find(key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// The `value` of metric `name` in a result line (`"name":{"value":X,..`).
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    number_after(line, &format!("\"{name}\":{{\"value\":"))
}

/// An unsigned top-level field (`"name":N`) of a result line.
pub fn uint_field(line: &str, name: &str) -> Option<u64> {
    number_after(line, &format!("\"{name}\":"))
}
