//! The result line the driver reads, and just enough JSON parsing to read
//! it back (the `aa` command does) and to read `BENCHMARK.json`.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The single-line JSON object printed last on standard output.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn from_json(text: &str) -> Option<RunResult> {
        let v = parse(text)?;
        let metrics = v
            .get("metrics")?
            .members()?
            .iter()
            .map(|(name, m)| {
                Some(Metric {
                    name: name.clone(),
                    value: m.get("value")?.as_f64()?,
                    unit: m.get("unit")?.as_str()?.to_string(),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RunResult {
            correct: v.get("correct")?.as_bool()?,
            attempted: v.get("attempted")?.as_f64()? as u64,
            failed: v.get("failed")?.as_f64()? as u64,
            metrics,
        })
    }
}

/// A finite number with all its digits. A non-finite value has no JSON
/// form; callers mark the run incorrect before it gets here.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value. Objects keep their members in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.members()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn members(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn items(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse one JSON document; `None` on anything malformed or trailing.
pub fn parse(text: &str) -> Option<Value> {
    let mut p = Parser { bytes: text.as_bytes(), at: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    (p.at == p.bytes.len()).then_some(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    depth: usize,
}

/// Deep enough for any document this program reads; bounds recursion on
/// hostile input.
const MAX_DEPTH: usize = 32;

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Option<()> {
        self.bytes[self.at..].starts_with(lit.as_bytes()).then(|| self.at += lit.len())
    }

    fn value(&mut self) -> Option<Value> {
        self.skip_ws();
        match *self.bytes.get(self.at)? {
            b'n' => self.eat("null").map(|()| Value::Null),
            b't' => self.eat("true").map(|()| Value::Bool(true)),
            b'f' => self.eat("false").map(|()| Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' | b'{' => {
                self.depth += 1;
                if self.depth > MAX_DEPTH {
                    return None;
                }
                let v = if self.bytes[self.at] == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            _ => self.number(),
        }
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        let n: f64 = std::str::from_utf8(&self.bytes[start..self.at]).ok()?.parse().ok()?;
        n.is_finite().then_some(Value::Num(n))
    }

    fn string(&mut self) -> Option<String> {
        self.eat("\"")?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.at)?;
            self.at += 1;
            match b {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let esc = *self.bytes.get(self.at)?;
                    self.at += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4)?;
                            self.at += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            // surrogate pairs never occur in what we read
                            let c = char::from_u32(code)?;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return None,
                    }
                }
                b => out.push(b),
            }
        }
    }

    fn array(&mut self) -> Option<Value> {
        self.eat("[")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]").is_some() {
            return Some(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(",").is_none() {
                return self.eat("]").map(|()| Value::Arr(items));
            }
        }
    }

    fn object(&mut self) -> Option<Value> {
        self.eat("{")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat("}").is_some() {
            return Some(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            members.push((key, self.value()?));
            self.skip_ws();
            if self.eat(",").is_none() {
                return self.eat("}").map(|()| Value::Obj(members));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let r = RunResult {
            correct: true,
            attempted: 160,
            failed: 0,
            metrics: vec![
                Metric { name: "latency_ms_p50".into(), value: 101.234567891, unit: "ms".into() },
                Metric { name: "throughput_per_s".into(), value: 9.87654321e5, unit: "1/s".into() },
                Metric { name: "tiny".into(), value: 1.5e-9, unit: "s".into() },
            ],
        };
        let line = r.to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 160, \"failed\": 0, "));
        assert_eq!(RunResult::from_json(&line), Some(r));
    }

    #[test]
    fn non_finite_values_never_reach_the_wire() {
        let r = RunResult {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: vec![Metric { name: "x".into(), value: f64::NAN, unit: "ms".into() }],
        };
        let back = RunResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back.metrics[0].value, 0.0);
    }

    #[test]
    fn parser_reads_the_contract_file_shape() {
        let doc = r#"{"command": ["cargo", "run"], "run_seconds": 24,
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
            "note": "a \"quoted\" A\n", "none": null, "neg": -1.5e2}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("run_seconds").and_then(Value::as_f64), Some(24.0));
        let e2e = v.get("end_to_end").and_then(Value::items).unwrap();
        assert_eq!(e2e[0].get("bound").and_then(Value::as_f64), Some(0.2));
        assert_eq!(v.get("note").and_then(Value::as_str), Some("a \"quoted\" A\n"));
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert_eq!(v.get("neg").and_then(Value::as_f64), Some(-150.0));
    }

    #[test]
    fn parser_is_total_on_malformed_input() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "{\"a\": 1} x", "\"open", "nul", "1e999", "--"] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert_eq!(parse(&deep), None);
    }
}
