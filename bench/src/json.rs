//! A minimal JSON value: enough to write the result and trace files
//! and to read them (and `BENCHMARK.json`) back for `compare`. The
//! workspace takes no external crates, so this stays in-tree.

use std::fmt::{self, Write};

/// A parsed or to-be-written JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Members in insertion order, so written files read top to bottom
    /// in the order the benchmark produced them.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Appends a member to an object (no-op on other kinds).
    pub fn push(&mut self, key: &str, value: impl Into<Value>) {
        if let Value::Obj(members) = self {
            members.push((key.to_owned(), value.into()));
        }
    }

    /// Chaining form of [`Value::push`].
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Value {
        self.push(key, value);
        self
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        let newline = |out: &mut String, level: usize| {
            if indent.is_some() {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
        };
        let level = indent.unwrap_or(0);
        let inner = indent.map(|i| i + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // `{}` on f64 is the shortest form that reads back exactly:
            // every measured digit survives the round trip.
            Value::Num(x) if x.is_finite() => write!(out, "{x}").expect("write to String"),
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline(out, level + 1);
                    item.write(out, inner);
                }
                if !items.is_empty() {
                    newline(out, level);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    newline(out, level + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, inner);
                }
                if !members.is_empty() {
                    newline(out, level);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }
}

/// Single-line rendering (the form of the result line on stdout).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Value {
        Value::Num(x as f64)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Value {
        Value::Num(x as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

impl From<&[f64]> for Value {
    fn from(xs: &[f64]) -> Value {
        Value::Arr(xs.iter().map(|&x| Value::Num(x)).collect())
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end")),
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.error("expected `:`"));
                    }
                    members.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(members));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected `,` or `}`"));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected `,` or `]`"));
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| self.error("bad value"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.bytes[self.pos..])
                .map_err(|_| self.error("invalid UTF-8"))?;
            let mut chars = rest.chars();
            let c = chars
                .next()
                .ok_or_else(|| self.error("unterminated string"))?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = chars.next().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            let hex = rest.get(2..6).ok_or_else(|| self.error("bad \\u"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .ok()
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u"))?;
                            out.push(code);
                            self.pos += 4;
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Value::obj()
            .with("name", "yield_fleet")
            .with("value", 1234.5678)
            .with("samples", &[1.0, 2.5][..])
            .with(
                "nested",
                Value::obj().with("ok", true).with("none", Value::Null),
            )
            .with("text", "quote \" and\nnewline");
        for text in [doc.pretty(), doc.to_string()] {
            assert_eq!(Value::parse(&text).unwrap(), doc, "{text}");
        }
    }

    #[test]
    fn keeps_every_digit_of_a_measurement() {
        let x = 0.123_456_789_012_345_67;
        let back = Value::parse(&Value::Num(x).to_string()).unwrap();
        assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
    }

    #[test]
    fn rejects_malformed_text() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "1 2", "\"open"] {
            assert!(Value::parse(bad).is_err(), "{bad}");
        }
    }
}
