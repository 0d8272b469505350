//! Schema validation for the JSONL trace stream.
//!
//! The `obs-smoke` CI job replays a real `paperbench obs --trace` run
//! through [`validate_trace`]: every line must be a flat JSON object of
//! one of the known kinds, with *exactly* the required fields — an
//! unknown field is an error, so emitter drift cannot slip past CI
//! unnoticed.
//!
//! Per-kind schema (all lines also carry `kind`, `seq`, `ts_us`):
//!
//! | kind | extra required fields |
//! |------|-----------------------|
//! | `event` | `level` (one of `debug`/`info`/`warn`/`error`), `name`, `message` |
//! | `span` | `name`, `dur_us`, `depth` |
//! | `counter` | `name`, `value` |
//! | `gauge` | `name`, `value`, `max` |
//! | `hist` | `name`, `count`, `sum` |

use crate::Level;

/// A parsed flat JSON value (the trace schema needs nothing deeper).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    Str(String),
    Num(f64),
}

/// Parses one flat JSON object (`{"k": "v", "n": 1.5, ...}`): string or
/// numeric values only, which is all the trace emitter and the bench
/// harness's `BENCH_session.json` rows produce. Fields come back in
/// source order.
///
/// # Errors
///
/// A description of the first syntax error, including a truncated object
/// and trailing bytes after the closing brace.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let mut chars = line.trim().chars().peekable();
    let mut out = Vec::new();
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            other => return Err(format!("expected key or '}}', found {other:?}")),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("key {key:?}: expected ':'"));
        }
        skip_ws(&mut chars);
        let val = match chars.peek() {
            Some('"') => JsonVal::Str(parse_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                let mut num = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E') {
                        num.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                JsonVal::Num(
                    num.parse()
                        .map_err(|e| format!("key {key:?}: bad number {num:?}: {e}"))?,
                )
            }
            other => return Err(format!("key {key:?}: unsupported value start {other:?}")),
        };
        out.push((key, val));
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing bytes after object".into());
    }
    Ok(out)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".into());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".into()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                    out.push(char::from_u32(code).ok_or_else(|| format!("bad codepoint {code}"))?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

/// Validates one trace line against the schema in the module docs.
///
/// # Errors
///
/// A human-readable description of the first violation: malformed JSON, a
/// missing required field, a wrong value type, an unknown `kind` or
/// `level`, or — critically for catching emitter drift — an unknown
/// field.
pub fn validate_line(line: &str) -> Result<(), String> {
    let fields = parse_flat_object(line)?;
    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let require_num = |key: &str| match get(key) {
        Some(JsonVal::Num(_)) => Ok(()),
        Some(JsonVal::Str(_)) => Err(format!("field {key:?} must be a number")),
        None => Err(format!("missing field {key:?}")),
    };
    let require_str = |key: &str| match get(key) {
        Some(JsonVal::Str(s)) => Ok(s.as_str()),
        Some(JsonVal::Num(_)) => Err(format!("field {key:?} must be a string")),
        None => Err(format!("missing field {key:?}")),
    };

    let kind = require_str("kind")?.to_string();
    require_num("seq")?;
    require_num("ts_us")?;
    let extra: &[&str] = match kind.as_str() {
        "event" => {
            let level = require_str("level")?;
            if Level::parse(level).is_none() {
                return Err(format!("unknown level {level:?}"));
            }
            require_str("name")?;
            require_str("message")?;
            &["level", "name", "message"]
        }
        "span" => {
            require_str("name")?;
            require_num("dur_us")?;
            require_num("depth")?;
            &["name", "dur_us", "depth"]
        }
        "counter" => {
            require_str("name")?;
            require_num("value")?;
            &["name", "value"]
        }
        "gauge" => {
            require_str("name")?;
            require_num("value")?;
            require_num("max")?;
            &["name", "value", "max"]
        }
        "hist" => {
            require_str("name")?;
            require_num("count")?;
            require_num("sum")?;
            &["name", "count", "sum"]
        }
        other => return Err(format!("unknown kind {other:?}")),
    };
    for (key, _) in &fields {
        let known =
            key == "kind" || key == "seq" || key == "ts_us" || extra.contains(&key.as_str());
        if !known {
            return Err(format!("unknown field {key:?} on kind {kind:?}"));
        }
    }
    Ok(())
}

/// Validates every non-empty line of a captured trace stream, returning
/// the number of valid lines.
///
/// # Errors
///
/// The 1-based line number and violation of the first bad line.
pub fn validate_trace(text: &str) -> Result<usize, String> {
    let mut valid = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_line(line).map_err(|e| format!("line {}: {e}: {line}", idx + 1))?;
        valid += 1;
    }
    if valid == 0 {
        return Err("trace is empty".into());
    }
    Ok(valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_every_emitted_kind() {
        let lines = [
            r#"{"kind":"event","seq":0,"ts_us":12,"level":"warn","name":"a.b","message":"hi \"x\""}"#,
            r#"{"kind":"span","seq":1,"ts_us":15,"name":"fcfs.sor_solve","dur_us":250,"depth":1}"#,
            r#"{"kind":"counter","seq":2,"ts_us":20,"name":"dist.frames_sent","value":42}"#,
            r#"{"kind":"gauge","seq":3,"ts_us":21,"name":"serve.queue_depth","value":0,"max":17}"#,
            r#"{"kind":"hist","seq":4,"ts_us":22,"name":"sweep.item_us","count":10,"sum":1234.5}"#,
        ];
        assert_eq!(validate_trace(&lines.join("\n")).unwrap(), 5);
    }

    #[test]
    fn rejects_unknown_fields() {
        let line = r#"{"kind":"counter","seq":0,"ts_us":1,"name":"c","value":1,"surprise":2}"#;
        let err = validate_line(line).unwrap_err();
        assert!(err.contains("unknown field"), "{err}");
    }

    #[test]
    fn rejects_missing_fields_and_bad_types() {
        assert!(
            validate_line(r#"{"kind":"span","seq":0,"ts_us":1,"name":"s","depth":0}"#)
                .unwrap_err()
                .contains("dur_us")
        );
        assert!(validate_line(
            r#"{"kind":"span","seq":0,"ts_us":1,"name":"s","dur_us":"x","depth":0}"#
        )
        .unwrap_err()
        .contains("must be a number"));
        assert!(validate_line(r#"{"kind":"mystery","seq":0,"ts_us":1}"#)
            .unwrap_err()
            .contains("unknown kind"));
        assert!(validate_line(
            r#"{"kind":"event","seq":0,"ts_us":1,"level":"loud","name":"n","message":"m"}"#
        )
        .unwrap_err()
        .contains("unknown level"));
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(validate_line("not json").is_err());
        assert!(validate_line(r#"{"kind":"counter""#).is_err());
        assert!(validate_line(
            r#"{"kind":"counter","seq":0,"ts_us":1,"name":"c","value":1} extra"#
        )
        .is_err());
        assert!(validate_trace("\n\n").is_err(), "empty trace rejected");
    }
}
