//! Percent-escaping for the workspace's hand-rolled text codecs.
//!
//! Gossip frames, replicated entries and federation mailbox names all
//! embed free-form names in a text grammar with its own separators.
//! Each grammar escapes its separators the same way: a reserved byte
//! becomes `%` and two upper-case hex digits, and `%` itself is always
//! reserved, so decoding is unambiguous. A string without reserved
//! bytes encodes to itself, so ordinary names cost nothing and keep
//! their bytes on the wire.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Appends `s` to `out`, writing `%` and every byte in `reserved` as
/// `%XX`. Reserved bytes must be ASCII, so the unescaped runs between
/// them stay valid UTF-8.
pub fn percent_escape_into(out: &mut String, s: &str, reserved: &[u8]) {
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'%' || reserved.contains(&b))
    {
        out.push_str(&rest[..i]);
        // Writing to a String cannot fail.
        let _ = write!(out, "%{:02X}", rest.as_bytes()[i]);
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Reverses [`percent_escape_into`]: every `%XX` becomes the ASCII
/// byte it names. Borrows `s` when it holds no escape; `None` when an
/// escape is truncated, not hex, or names a non-ASCII byte.
pub fn percent_unescape(s: &str) -> Option<Cow<'_, str>> {
    if !s.contains('%') {
        return Some(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('%') {
        out.push_str(&rest[..i]);
        let code = rest.get(i + 1..i + 3)?;
        if !code.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None; // `from_str_radix` would accept a sign
        }
        let byte = u8::from_str_radix(code, 16).ok().filter(u8::is_ascii)?;
        out.push(char::from(byte));
        rest = &rest[i + 3..];
    }
    out.push_str(rest);
    Some(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinary_strings_pass_through_borrowed() {
        let mut out = String::new();
        percent_escape_into(&mut out, "site-07", b"|@");
        assert_eq!(out, "site-07");
        assert!(matches!(
            percent_unescape("site-07"),
            Some(Cow::Borrowed(_))
        ));
    }

    #[test]
    fn reserved_bytes_round_trip() {
        for s in ["env|b", "env@1.2", "100%", "a;b=c", "%%|", "é|ü"] {
            let mut out = String::new();
            percent_escape_into(&mut out, s, b"|@;=");
            assert!(!out.bytes().any(|b| b"|@;=".contains(&b)), "{out}");
            assert_eq!(percent_unescape(&out).as_deref(), Some(s));
        }
        let mut out = String::new();
        percent_escape_into(&mut out, "env|b%", b"|");
        assert_eq!(out, "env%7Cb%25");
    }

    #[test]
    fn malformed_escapes_are_refused() {
        for bad in ["%", "%4", "%zz", "%+4", "%C3", "a%"] {
            assert_eq!(percent_unescape(bad), None, "{bad:?}");
        }
        assert_eq!(percent_unescape("%2c").as_deref(), Some(","));
    }
}
