//! Structured single-line `key=value` stderr logging for `cohesiond`.
//!
//! Every line the daemon emits has the shape
//!
//! ```text
//! cohesiond event=<what> key=value key="quoted value" ...
//! ```
//!
//! so operators can grep one event class (`event=conn-error`) or one
//! request (`req=42`) out of a busy log. Values containing spaces,
//! quotes, `=`, or control characters are double-quoted with JSON
//! string escapes; everything else is emitted bare. Ordering is exactly
//! the caller's field order — lines are deterministic given the same
//! fields, which is what the unit tests pin.
//!
//! This is stderr-only operational output: nothing here feeds any
//! deterministic document, so wall-clock values are fine to log.

use crate::wire::json_escape;

/// Formats one log line (without the trailing newline): the `cohesiond`
/// prefix, the event, then each field in order.
pub fn format_line(event: &str, fields: &[(&str, String)]) -> String {
    let mut out = format!("cohesiond event={}", quote(event));
    for (key, value) in fields {
        out.push(' ');
        out.push_str(key);
        out.push('=');
        out.push_str(&quote(value));
    }
    out
}

/// Emits one structured line to stderr.
pub fn log(event: &str, fields: &[(&str, String)]) {
    eprintln!("{}", format_line(event, fields));
}

/// Quotes a value when it contains characters that would break
/// whitespace-splitting (`space`, `"`, `=`, control characters); bare
/// otherwise. Empty values are quoted so the key is visibly present.
/// Quoted values use JSON string escapes, so no control character
/// reaches the log raw.
fn quote(value: &str) -> String {
    let needs_quoting = value.is_empty()
        || value
            .chars()
            .any(|c| c.is_whitespace() || c == '"' || c == '=' || c == '\\' || (c as u32) < 0x20);
    if !needs_quoting {
        return value.to_string();
    }
    format!("\"{}\"", json_escape(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_values_stay_bare() {
        let line = format_line("accept", &[("conn", "7".into()), ("peer", "1.2.3.4:80".into())]);
        assert_eq!(line, "cohesiond event=accept conn=7 peer=1.2.3.4:80");
    }

    #[test]
    fn messy_values_are_quoted_and_escaped() {
        let line = format_line(
            "conn-error",
            &[
                ("conn", "3".into()),
                ("error", "bad \"frame\"\nx=y".into()),
                ("peer", "esc\u{1b}[2Jnul\u{0}".into()),
            ],
        );
        assert_eq!(
            line,
            "cohesiond event=conn-error conn=3 error=\"bad \\\"frame\\\"\\nx=y\" \
             peer=\"esc\\u001b[2Jnul\\u0000\""
        );
    }

    #[test]
    fn empty_values_are_visible() {
        assert_eq!(format_line("x", &[("k", String::new())]), "cohesiond event=x k=\"\"");
    }
}
