//! The reader of the scenario files' TOML dialect: the one place that knows
//! the file format.
//!
//! The dialect is the subset the [`ScenarioSpec`](crate::ScenarioSpec)
//! schema needs: `key = value` lines, `[table]` headers and
//! `[[array-of-table]]` elements (dotted names allowed), and `#` comments.
//! A value is one of exactly three scalars:
//!
//! - a `"…"` string holding no backslash and no inner quote;
//! - `true` or `false`;
//! - an unsigned decimal integer up to `u64::MAX`, `_` separators allowed.
//!
//! Anything else (a float, a negative number, an escape, an inline table
//! or array) is an error at its line. The reader records the line of every
//! key and table, so a value the schema rejects later is still reported
//! where it was written.

use std::collections::BTreeMap;

use serde::Value;

use crate::scenario::ScenarioError;

/// A parsed file: its [`Value`] tree and the 1-based line of every dotted
/// path in it (`stress.faults.1.campus`, `cohorts.0`).
pub(crate) struct Document {
    /// The root table.
    pub(crate) value: Value,
    lines: BTreeMap<String, u32>,
}

/// Reads a file of the dialect.
pub(crate) fn parse(text: &str) -> Result<Document, ScenarioError> {
    let mut doc = Document { value: Value::Object(BTreeMap::new()), lines: BTreeMap::new() };
    // The path of the table `key = value` lines go into; an array index
    // names the array-of-table element a `[[header]]` just appended.
    let mut current: Vec<String> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if !line.is_empty() {
            let lineno = idx as u32 + 1;
            let path = doc
                .read_line(line, &mut current)
                .map_err(|message| ScenarioError::at_line(message, lineno))?;
            doc.lines.insert(path, lineno);
        }
    }
    Ok(doc)
}

impl Document {
    /// The line of a dotted path, or of its nearest recorded ancestor.
    pub(crate) fn line_of(&self, path: &str) -> Option<u32> {
        let mut p = path;
        loop {
            if let Some(&line) = self.lines.get(p) {
                return Some(line);
            }
            p = p.rsplit_once('.')?.0;
        }
    }

    /// Applies one non-blank line and returns the dotted path it defines.
    fn read_line(&mut self, line: &str, current: &mut Vec<String>) -> Result<String, String> {
        let header = match line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            Some(header) => Some((header, true)),
            None => line.strip_prefix('[').and_then(|r| r.strip_suffix(']')).map(|h| (h, false)),
        };
        if let Some((header, array)) = header {
            // `[a.b]` walks to table `b`; `[[a.b]]` appends a fresh table to
            // array `b`. Only a `[a.b]` header rejects a non-table `a` on the
            // spot; `[[a.b]]` reports it on the next step.
            let keys: Vec<&str> = header.split('.').map(str::trim).collect();
            if !keys.iter().all(|k| is_key(k)) {
                return Err(format!("invalid table header `[{header}]`"));
            }
            let mut path: Vec<String> = Vec::new();
            for (i, &key) in keys.iter().enumerate() {
                let Value::Object(map) = node_mut(&mut self.value, &path) else {
                    return Err(format!("`{}` is not a table", path.join(".")));
                };
                path.push(key.to_string());
                let entry = map.entry(key.to_string());
                if array && i + 1 == keys.len() {
                    let Value::Array(items) = entry.or_insert_with(|| Value::Array(Vec::new()))
                    else {
                        return Err(format!("`{key}` already defined as a non-array"));
                    };
                    items.push(Value::Object(BTreeMap::new()));
                    path.push((items.len() - 1).to_string());
                } else {
                    let table = entry.or_insert_with(|| Value::Object(BTreeMap::new()));
                    if !array && !matches!(table, Value::Object(_)) {
                        return Err(format!("`{key}` already defined as a non-table"));
                    }
                }
            }
            *current = path;
            return Ok(current.join("."));
        }
        let (key, value) =
            line.split_once('=').ok_or_else(|| format!("expected `key = value`: `{line}`"))?;
        let key = key.trim();
        if !is_key(key) {
            return Err(format!("invalid key `{key}`"));
        }
        let value = parse_scalar(value.trim())?;
        let Value::Object(map) = node_mut(&mut self.value, current) else {
            unreachable!("the current path is a table")
        };
        if map.insert(key.to_string(), value).is_some() {
            return Err(format!("duplicate key `{key}`"));
        }
        Ok(if current.is_empty() { key.into() } else { current.join(".") + "." + key })
    }
}

/// The value at `path`, which the reader has already materialized.
fn node_mut<'a>(root: &'a mut Value, path: &[String]) -> &'a mut Value {
    path.iter().fold(root, |cur, seg| match cur {
        Value::Object(m) => m.get_mut(seg).expect("path was materialized"),
        Value::Array(a) => &mut a[seg.parse::<usize>().expect("an array step is an index")],
        _ => unreachable!("a path runs through tables and arrays"),
    })
}

/// A bare key: ASCII letters, digits, `_` and `-`.
fn is_key(k: &str) -> bool {
    !k.is_empty() && k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Strips a `#` comment that is not inside a `"…"` string. Strings hold no
/// escapes, so every `"` opens or closes one.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Reads one scalar: a string, a boolean, or an unsigned integer.
fn parse_scalar(text: &str) -> Result<Value, String> {
    if let Some(rest) = text.strip_prefix('"') {
        return match rest.strip_suffix('"') {
            Some(body) if !body.contains(['"', '\\']) => Ok(Value::Str(body.to_string())),
            Some(_) => Err(format!("a string may hold no `\\` or inner `\"`: {text}")),
            None => Err(format!("unterminated string: {text}")),
        };
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let digits: String = text.chars().filter(|&c| c != '_').collect();
    match digits.parse::<u64>() {
        Ok(n) if digits.bytes().all(|b| b.is_ascii_digit()) => Ok(Value::UInt(u128::from(n))),
        _ => Err(format!(
            "expected a string, a boolean or an unsigned integer up to 2^64 - 1: `{text}`"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_conflicts_name_the_key_and_line() {
        for (text, message) in [
            ("a = 1\n[a]\n", "`a` already defined as a non-table"),
            ("a = 1\n[a.b]\n", "`a` already defined as a non-table"),
            ("[[a]]\n[a.b]\n", "`a` already defined as a non-table"),
            ("a = 1\n[[a]]\n", "`a` already defined as a non-array"),
            ("[a]\n[[a]]\n", "`a` already defined as a non-array"),
            ("a = 1\n[[a.b]]\n", "`a` is not a table"),
            ("[[a]]\n[[a.b]]\n", "`a` is not a table"),
        ] {
            let err = parse(text).err().expect(text);
            assert_eq!((err.message.as_str(), err.line), (message, Some(2)), "{text:?}");
        }
        let doc = parse("[a.b]\nx = 1\n[[a.c]]\n[[a.c]]\ny = 2\n").unwrap();
        let at = |p| doc.line_of(p).unwrap();
        assert_eq!((at("a.b"), at("a.c.0"), at("a.c.1"), at("a.c.1.y")), (1, 3, 4, 5));
        assert_eq!(at("a.c.1.missing"), 4, "an unrecorded path takes its ancestor's line");
    }
}
