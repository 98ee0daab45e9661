//! Byte-size budget flag parsing shared by the `dsd` CLI surfaces.
//!
//! Every serving surface that accepts a substrate budget
//! (`dsd batch|serve --substrate-budget` and `--budget`, the top-level
//! `--substrate-budget`) speaks the same little grammar:
//! `<bytes>` | `<n>k` | `<n>m` | `<n>g` (binary multiples, case
//! insensitive) | `0` (degenerate zero budget) | `unlimited`.

/// Parses a byte-size budget flag value.
///
/// Returns `None` for malformed input; `Some(None)` for `unlimited`;
/// `Some(Some(bytes))` otherwise. Suffix multiplication is checked, so
/// overflowing values (e.g. `99999999999g`) are rejected rather than
/// wrapped.
///
/// ```
/// use dsd_core::budget::parse_byte_budget;
/// assert_eq!(parse_byte_budget("64m"), Some(Some(64 << 20)));
/// assert_eq!(parse_byte_budget("unlimited"), Some(None));
/// assert_eq!(parse_byte_budget("64mb"), None);
/// ```
pub fn parse_byte_budget(s: &str) -> Option<Option<u64>> {
    if s.eq_ignore_ascii_case("unlimited") {
        return Some(None);
    }
    let (digits, shift) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 10),
        b'm' | b'M' => (&s[..s.len() - 1], 20),
        b'g' | b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    // `u64::from_str` accepts a leading `+`, which the grammar does not.
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let base: u64 = digits.parse().ok()?;
    Some(Some(base.checked_mul(1u64 << shift)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_bytes_and_suffixes() {
        assert_eq!(parse_byte_budget("0"), Some(Some(0)));
        assert_eq!(parse_byte_budget("12345"), Some(Some(12345)));
        assert_eq!(parse_byte_budget("4k"), Some(Some(4 << 10)));
        assert_eq!(parse_byte_budget("4K"), Some(Some(4 << 10)));
        assert_eq!(parse_byte_budget("64m"), Some(Some(64 << 20)));
        assert_eq!(parse_byte_budget("64M"), Some(Some(64 << 20)));
        assert_eq!(parse_byte_budget("2g"), Some(Some(2 << 30)));
        assert_eq!(parse_byte_budget("2G"), Some(Some(2 << 30)));
    }

    #[test]
    fn unlimited_is_case_insensitive() {
        assert_eq!(parse_byte_budget("unlimited"), Some(None));
        assert_eq!(parse_byte_budget("UNLIMITED"), Some(None));
        assert_eq!(parse_byte_budget("Unlimited"), Some(None));
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "k",
            "m",
            "g",
            "-1",
            "+1",
            "+0",
            "+64m",
            "1.5m",
            "64mb",
            "64 m",
            " 64",
            "64 ",
            "m64",
            "0x10",
            "four",
            "unlimitedd",
            "un",
        ] {
            assert_eq!(parse_byte_budget(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn overflow_is_rejected_not_wrapped() {
        assert_eq!(
            parse_byte_budget("18446744073709551615"),
            Some(Some(u64::MAX))
        );
        assert_eq!(parse_byte_budget("18446744073709551616"), None);
        assert_eq!(parse_byte_budget("99999999999999999999g"), None);
        assert_eq!(parse_byte_budget("18014398509481984k"), None); // 2^54 k = 2^64
    }

    #[test]
    fn zero_with_suffix_is_zero() {
        assert_eq!(parse_byte_budget("0k"), Some(Some(0)));
        assert_eq!(parse_byte_budget("0g"), Some(Some(0)));
    }
}
