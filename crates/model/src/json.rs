//! The one JSON string escaper every `--format json` output and bench
//! artifact writes through.

/// Renders `s` as a quoted JSON string literal: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` use their short escapes, and
/// every other control character becomes `\u00XX`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::json_string;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(
            json_string("a\"b\\c\nd\re\tf\u{1}g"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\""
        );
        assert_eq!(json_string("plain"), "\"plain\"");
    }
}
